//! Reliable delivery over a lossy link (DESIGN.md §4d) on the cluster
//! simulation: a seeded chaos plan drops a quarter of the data frames
//! node 0 sends, and the go-back-N layer retransmits until every byte
//! lands anyway. Then a scripted burst outage kills the link
//! mid-transfer: the transfer ends `LinkFailed` with exactly its
//! in-order prefix deposited and nothing past it.
//!
//! ```text
//! cargo run --release --example lossy_link
//! ```

use udma::{ClusterConfig, ClusterSim, XferDigest};
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{FaultPlan, XferState};

const NODE: u32 = 1;
const REMOTE_ASID: u32 = 9;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;
const PAGES: u64 = 2;
const LEN: u64 = PAGES * PAGE_SIZE;

/// Runs one `LEN`-byte transfer from node 0 into node 1's pinned buffer
/// over a sending link carrying `plan`; returns the cluster, the
/// transfer's outcome and the bytes node 1 holds.
fn transfer(plan: FaultPlan) -> (ClusterSim, XferDigest, Vec<u8>) {
    let mut cfg = ClusterConfig::new(2);
    cfg.pin_on_post = true;
    cfg.chaos = Some(plan);
    let mut sim = ClusterSim::new(cfg);
    let va = VirtAddr::new(REMOTE_VA);
    sim.grant(NODE, REMOTE_ASID, va, PAGES, Perms::READ_WRITE).expect("fresh node has room");
    let id = sim.post(0, NODE, REMOTE_ASID, va, LEN, SimTime::ZERO);
    sim.run();
    let mut got = vec![0u8; LEN as usize];
    // A page no deposit ever translated holds no bytes: it reads as zeros.
    for (p, page) in got.chunks_mut(PAGE_SIZE as usize).enumerate() {
        if let Some(pa) = sim.probe(NODE, REMOTE_ASID, va + p as u64 * PAGE_SIZE) {
            sim.read_mem(NODE, pa, page).expect("frame in node RAM");
        }
    }
    let x = sim.xfer(id);
    (sim, x, got)
}

fn main() {
    // 1. A 25% frame-drop link: go-back-N retransmits until every byte
    //    lands, bit-exact, at the cost of timeouts and link stall.
    let (sim, x, got) = transfer(FaultPlan::lossless(0xC0C0A).with_drop(0.25));
    let node = sim.digest().nodes[NODE as usize].link;
    println!("25% frame drop:");
    println!("  transfer : {:?}, {} bytes moved", x.state, x.counters.moved);
    println!(
        "  link     : {} bytes on the wire for {LEN}, {} frames retransmitted",
        x.counters.wire_bytes, x.counters.retransmits
    );
    println!(
        "  node     : {} bytes accepted, {} dup ignored, {} out-of-order discarded",
        node.bytes_accepted, node.dup_ignored, node.ooo_discarded
    );
    println!(
        "  stall    : {:.2} µs charged to the retransmit/backoff ladder",
        x.counters.stall.as_us()
    );
    assert_eq!(x.state, XferState::Complete);
    assert_eq!(got, ClusterSim::expected_payload(x.id, LEN), "deposit must be bit-exact");
    println!("  data     : {LEN} bytes verified on node {NODE}\n");

    // 2. A burst outage swallows everything after the first 3 frames:
    //    the retry budget burns out and the transfer ends with exactly
    //    its in-order prefix.
    let mtu = sim.config().reliability.mtu;
    let (_, x, got) = transfer(FaultPlan::lossless(0xDEAD).with_burst(3, u64::MAX));
    println!("burst outage after 3 frames:");
    println!(
        "  transfer : {:?} after {} bytes ({} frames retransmitted, {:.2} µs stall)",
        x.state,
        x.counters.moved,
        x.counters.retransmits,
        x.counters.stall.as_us()
    );
    assert_eq!(x.state, XferState::LinkFailed);
    assert_eq!(x.counters.moved, 3 * mtu, "deposit is exactly the in-order prefix");
    let cut = (3 * mtu) as usize;
    assert_eq!(got[..cut], ClusterSim::expected_payload(x.id, LEN)[..cut]);
    assert!(got[cut..].iter().all(|&b| b == 0), "nothing lands past the abort point");
    println!("  data     : {cut}-byte prefix verified, nothing past it");
}
