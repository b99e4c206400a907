//! Remote virtual-address DMA walkthrough on the cluster simulation:
//! node 0 posts a multi-page transfer whose destination is a *virtual*
//! address in node 1's address space. The receiving node's IOMMU
//! translates; a cold translation is serviced by node 1's OS and NACKed
//! back, the sender resends the chunk, and the deposit completes.
//!
//! ```text
//! cargo run --release --example remote_va
//! ```

use udma::{ClusterConfig, ClusterSim};
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};

const NODE: u32 = 1;
const REMOTE_ASID: u32 = 7;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;
const PAGES: u64 = 4;

fn run(label: &str, pin_on_post: bool) {
    let mut cfg = ClusterConfig::new(2);
    cfg.pin_on_post = pin_on_post;
    let mut sim = ClusterSim::new(cfg);
    // The far-side process offers a buffer for incoming RDMA.
    let va = VirtAddr::new(REMOTE_VA);
    sim.grant(NODE, REMOTE_ASID, va, PAGES, Perms::READ_WRITE).expect("fresh node has room");
    let len = PAGES * PAGE_SIZE;
    let id = sim.post(0, NODE, REMOTE_ASID, va, len, SimTime::ZERO);
    sim.run();

    let x = sim.xfer(id);
    let node_os = sim.digest().nodes[NODE as usize].faults;
    println!("{label}:");
    println!(
        "  transfer : {:?}, {} bytes in {} chunk launches",
        x.state, x.counters.moved, x.counters.launches
    );
    println!(
        "  link     : {} NACKs, completion {:.2} µs",
        x.counters.nacks,
        (x.finished.expect("terminal") - x.posted_at).as_us()
    );
    println!(
        "  node OS  : {} serviced ({} mapped, {} swapped in, {} unresolvable)",
        node_os.serviced, node_os.mapped, node_os.swapped_in, node_os.unresolvable
    );

    // Verify the bytes landed in the remote process's frames.
    let want = ClusterSim::expected_payload(id, len);
    for (p, page) in want.chunks(PAGE_SIZE as usize).enumerate() {
        let pa = sim
            .probe(NODE, REMOTE_ASID, va + p as u64 * PAGE_SIZE)
            .expect("page translated after the transfer");
        let mut got = vec![0u8; page.len()];
        sim.read_mem(NODE, pa, &mut got).expect("frame in node RAM");
        assert_eq!(got, page, "remote deposit mismatch");
    }
    println!("  data     : {len} bytes verified on node {NODE}\n");
}

fn main() {
    run("demand paging (cold node I/O page table, one NACK per page)", false);
    run("pin-on-post (remote buffer registered at grant, zero NACKs)", true);
}
