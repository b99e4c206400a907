//! Remote virtual-address DMA on the cluster simulation: receive-side
//! translation, the NACK fault protocol, the announced-range one-NACK
//! cold start, swap-in on the receive side, and the protection property
//! against a straight-line oracle.

use udma::{ClusterConfig, ClusterSim, EventKind, RemoteSwapRefused};
use udma_bus::SimTime;
use udma_mem::{Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use udma_nic::{XferId, XferState};
use udma_testkit::prop::any;
use udma_testkit::{prop_assert, prop_assert_eq, props};

const NODE: u32 = 1;
const REMOTE_ASID: u32 = 7;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;
const NODE_BYTES: u64 = 1 << 18;

/// A VA the destination never exposes.
const WILD_VA: u64 = 0x5000_0000;

/// A two-node demand-paged cluster whose node 1 exposes `pages` pages
/// at `REMOTE_VA` in `REMOTE_ASID`.
fn remote_cluster(pages: u64, announce: bool) -> ClusterSim {
    let mut cfg = ClusterConfig::new(2);
    cfg.node_bytes = NODE_BYTES;
    cfg.announce = announce;
    cfg.record_log = true;
    let mut sim = ClusterSim::new(cfg);
    sim.grant(NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), pages, Perms::READ_WRITE).unwrap();
    sim
}

/// Posts `len` bytes from node 0 into `(asid, va)` on node 1 at time
/// zero and runs to quiescence.
fn post_and_run(sim: &mut ClusterSim, asid: u32, va: u64, len: u64) -> XferId {
    let id = sim.post(0, NODE, asid, VirtAddr::new(va), len, SimTime::ZERO);
    sim.run();
    id
}

/// The bytes at `[va, va + len)` on node 1, read page by page through
/// the node's final translations.
fn remote_bytes(sim: &ClusterSim, va: u64, len: u64) -> Vec<u8> {
    let mut got = vec![0u8; len as usize];
    let mut off = 0;
    while off < len {
        let at = VirtAddr::new(va + off);
        let take = (PAGE_SIZE - at.page_offset()).min(len - off);
        let pa = sim.probe(NODE, REMOTE_ASID, at).expect("deposited page translates");
        sim.read_mem(NODE, pa, &mut got[off as usize..(off + take) as usize]).unwrap();
        off += take;
    }
    got
}

#[test]
fn remote_demand_transfer_completes_with_one_nack_per_page() {
    let mut sim = remote_cluster(2, false);
    let id = post_and_run(&mut sim, REMOTE_ASID, REMOTE_VA, 2 * PAGE_SIZE);
    let x = sim.xfer(id);
    assert_eq!(x.state, XferState::Complete);
    assert_eq!(x.counters.nacks, 2, "one NACK per cold remote page");
    assert_eq!(sim.digest().nodes[NODE as usize].faults.mapped, 2);
    assert_eq!(
        remote_bytes(&sim, REMOTE_VA, 2 * PAGE_SIZE),
        ClusterSim::expected_payload(id, 2 * PAGE_SIZE),
        "remote deposit mismatch"
    );
}

/// With the destination range announced ahead of the first chunk, the
/// first receive-side fault hands the node's OS the whole range — a
/// contiguous cold remote buffer costs exactly one NACK round trip
/// instead of one per page.
#[test]
fn announced_cold_range_costs_exactly_one_nack_round_trip() {
    const PAGES: u64 = 4;
    let run = |announce| {
        let mut sim = remote_cluster(PAGES, announce);
        let id = post_and_run(&mut sim, REMOTE_ASID, REMOTE_VA, PAGES * PAGE_SIZE);
        assert_eq!(
            remote_bytes(&sim, REMOTE_VA, PAGES * PAGE_SIZE),
            ClusterSim::expected_payload(id, PAGES * PAGE_SIZE),
            "remote deposit mismatch"
        );
        (sim.xfer(id), sim.digest().nodes[NODE as usize].faults)
    };
    let (demand, demand_os) = run(false);
    let (announced, announced_os) = run(true);
    assert_eq!(demand.counters.nacks, PAGES, "demand path NACKs once per cold page");
    assert_eq!(announced.counters.nacks, 1, "announced range collapses to a single NACK");
    // The single service installed the remaining pages in one entry.
    assert_eq!(demand_os.mapped, PAGES);
    assert_eq!(announced_os.mapped, 1);
    assert_eq!(announced_os.range_prefilled, PAGES - 1);
    let done = |x: &udma::XferDigest| x.finished.unwrap() - x.posted_at;
    assert!(done(&announced) < done(&demand));
}

/// A destination page swapped out before the run NACKs, is swapped back
/// in by the node's OS, and lands bit-exact exactly once; a pinned page
/// refuses the swapper.
#[test]
fn swapped_out_page_nacks_swaps_in_and_lands_exactly_once() {
    let mut sim = remote_cluster(2, false);
    let page0 = VirtAddr::new(REMOTE_VA);
    let page1 = VirtAddr::new(REMOTE_VA + PAGE_SIZE);
    sim.pin(NODE, REMOTE_ASID, page0, PAGE_SIZE).unwrap();
    assert_eq!(sim.swap_out(NODE, REMOTE_ASID, page0.page()), Err(RemoteSwapRefused::Pinned));
    sim.swap_out(NODE, REMOTE_ASID, page1.page()).unwrap();

    let id = post_and_run(&mut sim, REMOTE_ASID, REMOTE_VA, 2 * PAGE_SIZE);
    let x = sim.xfer(id);
    assert_eq!(x.state, XferState::Complete);
    assert_eq!(x.counters.nacks, 1, "only the swapped-out page NACKs");
    let d = sim.digest();
    assert_eq!(d.nodes[NODE as usize].faults.swapped_in, 1);
    // Exactly once: one accepted deposit per chunk, tiling the range.
    let deposits: Vec<u64> = d
        .log
        .iter()
        .filter_map(|l| match l.kind {
            EventKind::Data { xfer, accepted, .. } if xfer == id => Some(accepted),
            _ => None,
        })
        .collect();
    assert_eq!(deposits, vec![PAGE_SIZE, PAGE_SIZE]);
    assert_eq!(
        remote_bytes(&sim, REMOTE_VA, 2 * PAGE_SIZE),
        ClusterSim::expected_payload(id, 2 * PAGE_SIZE),
        "swap-in corrupted the deposit"
    );
}

props! {
    config(cases = 48);

    /// Acceptance property: whatever mix of in-grant, page-straddling,
    /// past-the-end and wild destinations — or an address space the
    /// node never granted — a sender posts, the node's whole memory
    /// equals a straight-line oracle copy that stops at the first page
    /// the grant does not cover: no byte lands in a frame the
    /// destination ASID does not map, none past that boundary, and a
    /// failed transfer keeps exactly its prefix.
    fn remote_transfers_match_the_straight_line_oracle(
        dst_pick in 0u32..4,
        wrong_asid in any::<bool>(),
        off_words in 0u64..64,
        size_words in 1u64..2048,
    ) {
        let mut sim = remote_cluster(2, false);
        let off = off_words * 8;
        let size = size_words * 8;
        let dst = match dst_pick {
            // Fully inside the grant, page-straddling, past-the-end, wild.
            0 => REMOTE_VA + off,
            1 => REMOTE_VA + PAGE_SIZE - 256 + off,
            2 => REMOTE_VA + PAGE_SIZE + off,
            _ => WILD_VA + off,
        };
        let asid = if wrong_asid { REMOTE_ASID + 1 } else { REMOTE_ASID };
        let id = post_and_run(&mut sim, asid, dst, size);
        let x = sim.xfer(id);
        prop_assert!(
            matches!(x.state, XferState::Complete | XferState::Failed),
            "transfer not driven to a terminal state: {:?}",
            x.state
        );

        // Straight-line oracle: bytes copy one by one until the
        // destination leaves the grant; nothing at or past that point
        // moves.
        let grant_end = REMOTE_VA + 2 * PAGE_SIZE;
        let deposited =
            if wrong_asid || dst_pick == 3 { 0 } else { grant_end.saturating_sub(dst).min(size) };
        prop_assert_eq!(x.counters.moved, deposited, "moved bytes disagree with the oracle");
        prop_assert_eq!(
            x.state == XferState::Complete,
            deposited == size,
            "completion status disagrees with the oracle"
        );

        let payload = ClusterSim::expected_payload(id, size);
        let mut oracle = vec![0u8; NODE_BYTES as usize];
        for i in 0..deposited {
            let pa = sim
                .probe(NODE, REMOTE_ASID, VirtAddr::new(dst + i))
                .expect("deposited page translates");
            oracle[pa.as_u64() as usize] = payload[i as usize];
        }
        // The node's entire memory, byte for byte: equality with the
        // oracle rules out deposits into unmapped frames *and* deposits
        // past the faulting boundary in one shot.
        let mut node_mem = vec![0u8; NODE_BYTES as usize];
        sim.read_mem(NODE, PhysAddr::new(0), &mut node_mem).unwrap();
        prop_assert!(node_mem == oracle, "node memory deviates from the oracle copy");
    }
}
