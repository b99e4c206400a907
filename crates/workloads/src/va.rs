//! Virtual-address DMA workloads (E11, E12, E13, E15).
//!
//! The base reproduction's schemes all pass physical (shadow) addresses.
//! The virtual-address extension puts an IOMMU in the NI; these drivers
//! characterise its cost centres:
//!
//! * [`iotlb_sweep`] (E11) — IOTLB hit ratio as a function of capacity
//!   against a fixed working set, on pre-pinned (never-faulting)
//!   transfers;
//! * [`fault_rate_sweep`] (E12) — end-to-end transfer cost as a function
//!   of how many of its pages must be demand-faulted in by the OS
//!   mid-transfer;
//! * [`remote_fault_sweep`] (E13) — the *cross-link* fault path on the
//!   cluster simulation: cost of a transfer into a remote node's virtual
//!   memory as a function of the remote-fault rate and the link model,
//!   isolating the NACK round-trip term that scales with wire latency;
//! * [`pipeline_sweep`] / [`remote_announce_sweep`] (E15) — the
//!   translation pipeline: prefetch depth × IOTLB capacity × chunk
//!   coalescing locally (blocking walks hidden behind batched
//!   prewalks), and the announced destination range across the link
//!   (one NACK round trip for a cold range instead of one per page).

use udma::{
    ClusterConfig, ClusterSim, DmaMethod, Machine, MachineConfig, ProcessSpec, VirtDmaSetup,
    XferDigest,
};
use udma_bus::SimTime;
use udma_cpu::ProgramBuilder;
use udma_iommu::IotlbConfig;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{LinkModel, PrefetchConfig, VirtState, XferState};

/// One IOTLB-capacity point of the E11 sweep.
#[derive(Clone, Copy, Debug)]
pub struct IotlbSweepRow {
    /// IOTLB entries.
    pub entries: usize,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses (each one paid a page-table walk).
    pub misses: u64,
    /// Capacity/conflict evictions.
    pub evictions: u64,
    /// `hits / (hits + misses)`.
    pub hit_ratio: f64,
}

/// A machine with virtual-address DMA configured and one process holding
/// two `pages`-page buffers; returns the machine, its pid's buffer VAs.
fn va_machine(setup: VirtDmaSetup, pages: u64) -> (Machine, udma_cpu::Pid, VirtAddr, VirtAddr) {
    let config = MachineConfig { virt_dma: Some(setup), ..MachineConfig::new(DmaMethod::Kernel) };
    let mut m = Machine::new(config);
    let pid =
        m.spawn(&ProcessSpec::two_buffers_of(pages), |_| ProgramBuilder::new().halt().build());
    let src = m.env(pid).buffer(0).va;
    let dst = m.env(pid).buffer(1).va;
    (m, pid, src, dst)
}

/// Experiment E11: sweeps IOTLB capacity (fully associative, so the
/// curve isolates *capacity*, not conflicts) against a working set of
/// `working_set_pages` source/destination page pairs, streamed `passes`
/// times with pre-pinned pages so no fault noise enters. Hit ratio rises
/// with capacity and saturates once the IOTLB holds the whole set
/// (`2 × working_set_pages` translations).
pub fn iotlb_sweep(entries: &[usize], working_set_pages: u64, passes: u32) -> Vec<IotlbSweepRow> {
    entries
        .iter()
        .map(|&n| {
            let setup = VirtDmaSetup::pin_on_post(IotlbConfig::fully_associative(n));
            let (mut m, pid, src, dst) = va_machine(setup, working_set_pages);
            for _ in 0..passes {
                for p in 0..working_set_pages {
                    let id = m
                        .post_virt(pid, src + p * PAGE_SIZE, dst + p * PAGE_SIZE, PAGE_SIZE)
                        .expect("pinned pages cannot be rejected");
                    assert_eq!(m.run_virt(id, 8), VirtState::Complete);
                }
            }
            let stats = m.engine().core().iommu().expect("VA machine has an IOMMU").stats();
            IotlbSweepRow {
                entries: n,
                hits: stats.tlb.hits,
                misses: stats.tlb.misses,
                evictions: stats.tlb.evictions,
                hit_ratio: stats.tlb.hit_ratio(),
            }
        })
        .collect()
}

/// One fault-fraction point of the E12 sweep.
#[derive(Clone, Copy, Debug)]
pub struct FaultRateRow {
    /// Percentage of the transfer's page pairs resident in the I/O page
    /// table *before* the measured transfer was posted.
    pub prefaulted_pct: u32,
    /// I/O page faults the measured transfer raised.
    pub faults: u64,
    /// Engine-side overhead (walks, fault pauses, retry backoff) — the
    /// part that vanishes when every page is already mapped.
    pub stall: SimTime,
    /// Total modeled duration, post to completion.
    pub completion: SimTime,
}

/// Experiment E12: posts one `pages`-page transfer per row on a
/// demand-paging machine, with the first `prefaulted_pct` percent of its
/// page pairs already faulted in by a warm-up pass. The remaining pages
/// fault mid-transfer and are mapped-and-pinned by the OS fault service,
/// so both `faults` and `stall` fall as the prefaulted fraction rises —
/// and the per-fault cost (service + retry backoff) dwarfs the per-hit
/// cost (an IOTLB lookup).
pub fn fault_rate_sweep(prefaulted_pcts: &[u32], pages: u64) -> Vec<FaultRateRow> {
    prefaulted_pcts
        .iter()
        .map(|&pct| {
            let (mut m, pid, src, dst) = va_machine(VirtDmaSetup::default(), pages);
            // Warm-up: a minimal transfer per prefaulted page pair makes
            // the OS map-and-pin it, exactly as a prior transfer would.
            let warm = pages * u64::from(pct.min(100)) / 100;
            for p in 0..warm {
                let id = m
                    .post_virt(pid, src + p * PAGE_SIZE, dst + p * PAGE_SIZE, 8)
                    .expect("warm-up post");
                assert_eq!(m.run_virt(id, 16), VirtState::Complete);
            }
            let faults_before = m.engine().core().virt_stats().faults;
            let id = m.post_virt(pid, src, dst, pages * PAGE_SIZE).expect("measured post");
            let rounds = (4 * pages + 16) as u32;
            assert_eq!(m.run_virt(id, rounds), VirtState::Complete);
            let t = m.virt_xfer(id).expect("transfer exists");
            let faults = m.engine().core().virt_stats().faults - faults_before;
            FaultRateRow {
                prefaulted_pct: pct,
                faults,
                stall: t.stall,
                completion: t.finished.expect("complete") - t.started,
            }
        })
        .collect()
}

/// One (link, remote-fault-rate) point of the E13 sweep.
#[derive(Clone, Copy, Debug)]
pub struct RemoteFaultRow {
    /// Link preset name.
    pub link: &'static str,
    /// One-way wire latency of that link.
    pub link_latency: SimTime,
    /// Percentage of the destination's pages registered in the *node's*
    /// I/O page table before the measured transfer.
    pub prefaulted_pct: u32,
    /// Receive-side faults the measured transfer raised (each one
    /// crossed the link as a NACK).
    pub remote_faults: u64,
    /// The NACK round trips' wire share: 2 × wire latency per NACK.
    pub nack_stall: SimTime,
    /// Total modeled duration, post to completion.
    pub completion: SimTime,
}

/// Address space and base VA the destination node exposes for E13/E15.
const REMOTE_ASID: u32 = 7;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;

/// Node 1 of a two-node `cfg` cluster exposes `pages` pages at
/// [`REMOTE_VA`], the first `warm_pages` of them registered (pinned) as
/// a prior transfer's fault service would have left them; node 0 then
/// posts one transfer covering the buffer. Returns the cluster after
/// the run and the transfer's outcome.
fn remote_transfer(cfg: ClusterConfig, pages: u64, warm_pages: u64) -> (ClusterSim, XferDigest) {
    let mut sim = ClusterSim::new(cfg);
    let va = VirtAddr::new(REMOTE_VA);
    sim.grant(1, REMOTE_ASID, va, pages, Perms::READ_WRITE).expect("fresh node has room");
    if warm_pages > 0 {
        sim.pin(1, REMOTE_ASID, va, warm_pages * PAGE_SIZE).expect("exposed pages pin");
    }
    let id = sim.post(0, 1, REMOTE_ASID, va, pages * PAGE_SIZE, SimTime::ZERO);
    sim.run();
    let x = sim.xfer(id);
    assert_eq!(x.state, XferState::Complete, "granted destination pages always resolve");
    (sim, x)
}

/// Post-to-completion time of a completed transfer.
fn completion(x: &XferDigest) -> SimTime {
    x.finished.expect("complete") - x.posted_at
}

/// Experiment E13: for every (link, prefaulted-fraction) pair, one
/// `pages`-page transfer from node 0 of a two-node [`ClusterSim`] into
/// node 1's virtual memory. Destination pages *not* registered
/// beforehand fault on node 1's receive-side IOMMU; node 1's OS services
/// each before its NACK departs, and the sender resends the chunk — so
/// the NACK count grows with the fault rate and each NACK's wire round
/// trip with the link's latency, the cross-link term the local E12 sweep
/// cannot see.
pub fn remote_fault_sweep(
    links: &[LinkModel],
    prefaulted_pcts: &[u32],
    pages: u64,
) -> Vec<RemoteFaultRow> {
    let mut rows = Vec::new();
    for &link in links {
        for &pct in prefaulted_pcts {
            let warm = pages * u64::from(pct.min(100)) / 100;
            let (_, x) =
                remote_transfer(ClusterConfig { link, ..ClusterConfig::new(2) }, pages, warm);
            rows.push(RemoteFaultRow {
                link: link.name(),
                link_latency: link.latency(),
                prefaulted_pct: pct,
                remote_faults: x.counters.nacks,
                nack_stall: SimTime::from_ps(2 * link.latency().as_ps() * x.counters.nacks),
                completion: completion(&x),
            });
        }
    }
    rows
}

/// One (variant, depth, capacity, coalescing) point of the E15 sweep.
#[derive(Clone, Copy, Debug)]
pub struct PipelineRow {
    /// `"local"`, `"remote"` or `"remote+announce"`.
    pub variant: &'static str,
    /// Prefetch depth in pages (0 = demand translation only).
    pub depth: u64,
    /// IOTLB entries (the sender's locally, the receiving node's for the
    /// remote variants).
    pub entries: usize,
    /// Maximum pages coalesced into one chunk (1 = no coalescing).
    pub max_coalesce: u64,
    /// IOTLB misses during the measured transfer — locally each one a
    /// *blocking* full-latency walk on the demand path; for the remote
    /// variants, the receiving node's misses.
    pub misses: u64,
    /// IOTLB entries installed by prewalk (amortized batch rate).
    pub prefetch_fills: u64,
    /// Demand lookups that hit a prewalked entry — misses the pipeline
    /// hid.
    pub prefetch_hidden: u64,
    /// Mover chunks issued (coalescing shrinks this).
    pub chunks: u64,
    /// Receive-side NACKs that crossed the link (remote variants only).
    pub nacks: u64,
    /// Engine-side overhead: walks and fault pauses locally; for the
    /// remote variants, completion minus the same transfer into a
    /// pre-registered buffer.
    pub stall: SimTime,
    /// Total modeled duration, post to completion.
    pub completion: SimTime,
}

/// Experiment E15 (local): one `pages`-page transfer per (depth,
/// capacity, coalescing) combination on a pin-on-post machine with a
/// cold, fully-associative IOTLB of `n` entries. Every page is
/// registered, so the only translation cost is IOTLB misses: the demand
/// path (`depth == 0`) pays a blocking full-latency walk per miss, while
/// prewalk batches of `depth` pages pay one full walk plus the pipelined
/// rate per extra walk — and coalescing merges physically-contiguous
/// pages into fewer, larger chunks.
pub fn pipeline_sweep(
    depths: &[u64],
    entries: &[usize],
    coalesce: &[u64],
    pages: u64,
) -> Vec<PipelineRow> {
    let mut rows = Vec::new();
    for &n in entries {
        for &d in depths {
            for &mc in coalesce {
                let mut setup = VirtDmaSetup::pin_on_post(IotlbConfig::fully_associative(n));
                setup.virt.prefetch = PrefetchConfig::pipelined(d, mc);
                let (mut m, pid, src, dst) = va_machine(setup, pages);
                let id = m.post_virt(pid, src, dst, pages * PAGE_SIZE).expect("measured post");
                assert_eq!(m.run_virt(id, (4 * pages + 16) as u32), VirtState::Complete);
                let t = m.virt_xfer(id).expect("transfer exists");
                let stats = m.engine().core().iommu().expect("VA machine has an IOMMU").stats();
                rows.push(PipelineRow {
                    variant: "local",
                    depth: d,
                    entries: n,
                    max_coalesce: mc,
                    misses: stats.tlb.misses,
                    prefetch_fills: stats.prefetch_fills,
                    prefetch_hidden: stats.prefetch_hidden,
                    chunks: m.engine().core().virt_stats().chunks,
                    nacks: 0,
                    stall: t.stall,
                    completion: t.finished.expect("complete") - t.started,
                });
            }
        }
    }
    rows
}

/// Experiment E15 (remote): one `pages`-page transfer into a *cold*
/// remote buffer, with the destination announcement off and on, on a
/// fully associative receive-side IOTLB of `entries` entries. Without
/// the announcement every cold page NACKs; with it the first NACK hands
/// the node's OS the whole range, so exactly one round trip remains.
/// The remote path has no sender-side prewalk or coalescing, so `depth`
/// and `max_coalesce` stay at their off values.
pub fn remote_announce_sweep(entries: usize, pages: u64) -> Vec<PipelineRow> {
    let cfg = |announce| ClusterConfig {
        iotlb: IotlbConfig::fully_associative(entries),
        announce,
        ..ClusterConfig::new(2)
    };
    let (_, warm) = remote_transfer(cfg(false), pages, pages);
    [false, true]
        .into_iter()
        .map(|announce| {
            let (sim, x) = remote_transfer(cfg(announce), pages, 0);
            PipelineRow {
                variant: if announce { "remote+announce" } else { "remote" },
                depth: 0,
                entries,
                max_coalesce: 1,
                misses: sim.digest().nodes[1].iotlb.tlb.misses,
                prefetch_fills: 0,
                prefetch_hidden: 0,
                chunks: x.counters.launches - x.counters.nacks,
                nacks: x.counters.nacks,
                stall: completion(&x).saturating_sub(completion(&warm)),
                completion: completion(&x),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_rises_with_iotlb_capacity_and_saturates() {
        // Working set: 8 pairs = 16 translations. Cyclic streaming over
        // a FIFO is a step function: thrash below capacity, saturate at
        // it.
        let rows = iotlb_sweep(&[4, 16, 32], 8, 4);
        assert_eq!(rows[0].hit_ratio, 0.0, "under-capacity IOTLB thrashes");
        assert!(rows[0].evictions > 0);
        for row in &rows[1..] {
            // The whole set fits: only the first pass misses.
            assert_eq!(row.misses, 16);
            assert_eq!(row.evictions, 0);
            assert!(row.hit_ratio >= 0.75 - 1e-12, "ratio {}", row.hit_ratio);
        }
    }

    #[test]
    fn faults_and_stall_fall_as_prefaulted_fraction_rises() {
        let rows = fault_rate_sweep(&[0, 50, 100], 8);
        assert_eq!(rows[0].faults, 16); // every page pair faults
        assert_eq!(rows[2].faults, 0); // fully warm: none
        assert!(rows[0].stall > rows[1].stall);
        assert!(rows[1].stall > rows[2].stall);
        assert!(rows[0].completion > rows[2].completion);
    }

    #[test]
    fn nack_cost_scales_with_fault_rate_and_link_latency() {
        let links = [LinkModel::gigabit(), LinkModel::ethernet10()];
        let rows = remote_fault_sweep(&links, &[0, 100], 4);
        // rows: [gigabit/0, gigabit/100, ethernet/0, ethernet/100]
        assert_eq!(rows[0].remote_faults, 4, "cold destination faults every page");
        assert_eq!(rows[1].remote_faults, 0, "warm destination never NACKs");
        assert_eq!(rows[1].nack_stall, SimTime::ZERO);
        // Per-NACK cost is exactly the round trip, so the slow link pays
        // 10× the fast one (50 µs vs 5 µs one-way).
        assert_eq!(rows[0].nack_stall, SimTime::from_us(4 * 2 * 5));
        assert_eq!(rows[2].nack_stall, SimTime::from_us(4 * 2 * 50));
        // End to end every fault costs more than its wire round trip.
        assert!(rows[0].completion - rows[1].completion > rows[0].nack_stall);
        assert!(rows[2].completion - rows[3].completion > rows[2].nack_stall);
    }

    #[test]
    fn prefetch_hides_walks_and_coalescing_shrinks_chunks() {
        // 8 pages, IOTLB big enough to hold the prewalk window.
        let rows = pipeline_sweep(&[0, 4], &[64], &[1, 4], 8);
        // rows: [d0/mc1, d0/mc4, d4/mc1, d4/mc4]
        let (demand, coalesced, prefetch, both) = (rows[0], rows[1], rows[2], rows[3]);
        assert!(prefetch.stall < demand.stall, "prefetch must cut translation stall");
        assert!(prefetch.prefetch_hidden > 0, "prewalked entries absorb demand lookups");
        assert_eq!(demand.prefetch_fills, 0);
        // The coalescer's lookahead only merges IOTLB-resident pages, so
        // on a cold IOTLB it needs the prefetcher in front of it.
        assert_eq!(coalesced.chunks, demand.chunks, "cold IOTLB gives lookahead nothing to merge");
        assert!(both.chunks < prefetch.chunks, "contiguous prewalked frames merge into one chunk");
        assert!(both.completion <= prefetch.completion);
        assert!(both.stall < demand.stall);
    }

    #[test]
    fn announced_cold_remote_range_costs_one_nack() {
        let rows = remote_announce_sweep(64, 4);
        assert_eq!(rows[0].nacks, 4, "demand path NACKs once per cold page");
        assert_eq!(rows[1].nacks, 1, "announced range collapses to a single NACK");
        assert_eq!((rows[0].chunks, rows[1].chunks), (4, 4));
        assert!(rows[1].stall < rows[0].stall);
        assert!(rows[1].completion < rows[0].completion);
    }

    #[test]
    fn fault_path_dwarfs_iotlb_hit_path() {
        let rows = fault_rate_sweep(&[0, 100], 4);
        // Per-page overhead with faulting vs fully-resident pages.
        let faulting = rows[0].stall.as_ns() / 4.0;
        let resident = rows[1].stall.as_ns().max(1.0);
        assert!(
            faulting > 10.0 * resident,
            "fault path {faulting} ns/page not ≫ hit path {resident} ns/page"
        );
    }
}
