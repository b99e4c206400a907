//! Translation-pipeline walkthrough: the same transfers with the
//! pipeline off (demand translation) and on (IOTLB prefetch + batched
//! walks + chunk coalescing), printing the stall counters side by side.
//!
//! Locally, prewalk batches hide the per-miss blocking page-table walks
//! and the coalescer merges physically-contiguous pages into fewer
//! mover chunks. Across the link (on the cluster simulation), a
//! transfer that announces its destination range makes a cold remote
//! buffer cost exactly one NACK round trip instead of one per page.
//!
//! ```text
//! cargo run --release --example prefetch
//! ```

use udma::{
    ClusterConfig, ClusterSim, DmaMethod, Machine, MachineConfig, ProcessSpec, VirtDmaSetup,
};
use udma_bus::SimTime;
use udma_iommu::IotlbConfig;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::PrefetchConfig;

const NODE: u32 = 1;
const REMOTE_ASID: u32 = 7;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;
const PAGES: u64 = 8;

fn local(label: &str, prefetch: PrefetchConfig) {
    // Pin-on-post with a cold 16-entry IOTLB: every page is registered,
    // so the only translation cost is the walks the IOTLB cannot hide.
    let mut setup = VirtDmaSetup::pin_on_post(IotlbConfig::fully_associative(16));
    setup.virt.prefetch = prefetch;
    let mut m = Machine::new(MachineConfig {
        virt_dma: Some(setup),
        ..MachineConfig::new(DmaMethod::Kernel)
    });
    let pid = m.spawn(&ProcessSpec::two_buffers_of(PAGES), |_| {
        udma_cpu::ProgramBuilder::new().halt().build()
    });
    let (src, dst) = (m.env(pid).buffer(0).va, m.env(pid).buffer(1).va);
    let id = m.post_virt(pid, src, dst, PAGES * PAGE_SIZE).unwrap();
    let state = m.run_virt(id, 64);

    let t = m.virt_xfer(id).unwrap();
    let tlb = m.engine().core().iommu().unwrap().stats();
    println!("local  | {label}:");
    println!(
        "  {state:?}, {} chunks, {} blocking walks, {} prewalked ({} hidden), \
         stall {:.2} µs, completion {:.2} µs",
        m.engine().core().virt_stats().chunks,
        tlb.tlb.misses,
        tlb.prefetch_fills,
        tlb.prefetch_hidden,
        t.stall.as_us(),
        (t.finished.unwrap() - t.started).as_us()
    );
}

fn remote(label: &str, announce: bool) {
    let mut cfg = ClusterConfig::new(2);
    cfg.announce = announce;
    let mut sim = ClusterSim::new(cfg);
    let va = VirtAddr::new(REMOTE_VA);
    sim.grant(NODE, REMOTE_ASID, va, PAGES, Perms::READ_WRITE).expect("fresh node has room");
    let id = sim.post(0, NODE, REMOTE_ASID, va, PAGES * PAGE_SIZE, SimTime::ZERO);
    sim.run();

    let x = sim.xfer(id);
    let node_os = sim.digest().nodes[NODE as usize].faults;
    println!("remote | {label}:");
    println!(
        "  {:?}, {} NACKs, node OS serviced {} ({} range-prefilled), completion {:.2} µs",
        x.state,
        x.counters.nacks,
        node_os.serviced,
        node_os.range_prefilled,
        (x.finished.expect("terminal") - x.posted_at).as_us()
    );
}

fn main() {
    local("pipeline off (blocking walk per IOTLB miss)", PrefetchConfig::default());
    local("prefetch depth 4 (batched, pipelined walks)", PrefetchConfig::depth(4));
    local("prefetch 4 + coalesce 4 (fewer, larger chunks)", PrefetchConfig::pipelined(4, 4));
    println!();
    remote("announce off (one NACK per cold page)", false);
    remote("announce on (one NACK for the whole buffer)", true);
}
