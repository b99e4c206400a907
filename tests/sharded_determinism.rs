//! Differential determinism: the sharded parallel runner must replay
//! the sequential oracle's history *exactly* — final memories, IOTLB
//! and fault-service counters, link counters, per-transfer completion
//! times and (when recorded) the merged event log — at every shard
//! count, on every workload shape the cluster experiments use.
//!
//! Each scenario runs at a pinned seed; on divergence the failure
//! message names the scenario, the seed and the first diverging sim
//! event so the run can be replayed and bisected.

use udma::{ClusterConfig, ClusterSim, CrashPlan};
use udma_bus::sim::RunnerKind;
use udma_bus::SimTime;
use udma_iommu::Asid;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{FaultPlan, XferState};
use udma_testkit::rng::TestRng;

const ASID: Asid = 3;
const BASE: u64 = 64 * PAGE_SIZE;
const REGION_PAGES: u64 = 12;
const NODES: u32 = 12;

/// The three workload shapes of the cluster experiments.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// E13 shape: demand-faulting destinations, partially pinned, some
    /// pages swapped out so the swap-in fault path fires.
    ColdDemand,
    /// E14 shape: pin-on-post (no destination faults) under seeded
    /// chaos frame loss, exercising go-back-N and the retry budget.
    ChaosLoss,
    /// E15 shape: cold destinations with range announcements, buying
    /// one NACK per range instead of one per page.
    ColdAnnounced,
}

/// Builds the scenario's cluster on a given backend. Every decision
/// (destinations, lengths, launch times, swap-outs) comes from a
/// `TestRng` stream seeded identically for every backend, so the only
/// variable across calls is the runner under test.
fn build(scenario: Scenario, seed: u64, shards: usize, runner: RunnerKind) -> ClusterSim {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = shards;
    cfg.runner = runner;
    cfg.record_log = true;
    // The workload touches 12 pages per node; a small RAM keeps the
    // digest's full-memory CRC cheap across the 45 runs this suite does.
    cfg.node_bytes = 1 << 18;
    match scenario {
        Scenario::ColdDemand => {}
        Scenario::ChaosLoss => {
            cfg.pin_on_post = true;
            cfg.chaos = Some(FaultPlan::lossless(seed).with_drop(0.15));
        }
        Scenario::ColdAnnounced => cfg.announce = true,
    }
    let mut sim = ClusterSim::new(cfg);
    let mut rng = TestRng::seed_from_u64(seed);
    for node in 0..NODES {
        sim.grant(node, ASID, VirtAddr::new(BASE), REGION_PAGES, Perms::READ_WRITE)
            .expect("fresh region");
        if matches!(scenario, Scenario::ColdDemand) {
            // Pin a random warm prefix; swap one unpinned page back out
            // so some chunks hit the swap-in (not just map-in) path.
            let warm = rng.next_u64() % (REGION_PAGES / 2);
            if warm > 0 {
                sim.pin(node, ASID, VirtAddr::new(BASE), warm * PAGE_SIZE).expect("pinnable");
            }
            let cold = warm + rng.next_u64() % (REGION_PAGES - warm);
            sim.swap_out(node, ASID, VirtAddr::new(BASE + cold * PAGE_SIZE).page())
                .expect("unpinned page swaps out");
        }
    }
    for src in 0..NODES {
        for _ in 0..2 {
            let dst = (src + 1 + (rng.next_u64() % u64::from(NODES - 1)) as u32) % NODES;
            // Arbitrary (non-page-aligned, overlapping) destination
            // ranges inside the region: overlaps make the final memory
            // image sensitive to event order, which is the point.
            let max_len = 3 * PAGE_SIZE;
            let off = rng.next_u64() % (REGION_PAGES * PAGE_SIZE - max_len);
            let len = 1 + rng.next_u64() % max_len;
            let at = SimTime::from_us(rng.next_u64() % 40);
            sim.post(src, dst, ASID, VirtAddr::new(BASE + off), len, at);
        }
    }
    sim
}

/// Runs the scenario on the oracle and on the parallel runner at 1, 2,
/// 4 and 8 shards, requiring digest identity every time.
fn differential(scenario: Scenario, seed: u64) {
    let mut oracle = build(scenario, seed, 1, RunnerKind::Sequential);
    oracle.run();
    let expect = oracle.digest();
    assert!(
        expect.xfers.iter().any(|x| x.state == XferState::Complete),
        "{scenario:?} seed {seed:#x}: oracle completed nothing — workload is vacuous"
    );
    for shards in [1usize, 2, 4, 8] {
        let mut sim = build(scenario, seed, shards, RunnerKind::Parallel);
        sim.run();
        let got = sim.digest();
        if let Some(diff) = expect.diff(&got) {
            panic!(
                "{scenario:?} seed {seed:#x}: parallel {shards}-shard run diverged from the \
                 sequential oracle\n{diff}"
            );
        }
    }
}

#[test]
fn cold_demand_matches_oracle_at_every_shard_count() {
    for seed in [0xD13, 0xD1301, 0xD1302] {
        differential(Scenario::ColdDemand, seed);
    }
}

#[test]
fn chaos_loss_matches_oracle_at_every_shard_count() {
    for seed in [0xD14, 0xD1401, 0xD1402] {
        differential(Scenario::ChaosLoss, seed);
    }
}

#[test]
fn cold_announced_matches_oracle_at_every_shard_count() {
    for seed in [0xD15, 0xD1501, 0xD1502] {
        differential(Scenario::ColdAnnounced, seed);
    }
}

/// E19 shape: the announced-cold workload with the node fault domain
/// fully lit — a crash-and-reboot (incarnation fence + ledger replay),
/// an NI-engine hang, a fault-service stall and a permanent crash, all
/// in the same run. Seeded plans are part of the workload, so the
/// digest identity across shard counts covers every crash-driven path:
/// leases, fences, probes, Hello broadcasts and grant replay.
fn build_crashy(seed: u64, shards: usize, runner: RunnerKind) -> ClusterSim {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = shards;
    cfg.runner = runner;
    cfg.record_log = true;
    cfg.node_bytes = 1 << 18;
    cfg.announce = true;
    // Tight lease so detection, fail-fast and probing all happen inside
    // the workload's own time span.
    cfg.ack_lease = SimTime::from_us(150);
    let mut sim = ClusterSim::new(cfg);
    let mut rng = TestRng::seed_from_u64(seed);
    for node in 0..NODES {
        sim.grant(node, ASID, VirtAddr::new(BASE), REGION_PAGES, Perms::READ_WRITE)
            .expect("fresh region");
    }
    for src in 0..NODES {
        for _ in 0..2 {
            let dst = (src + 1 + (rng.next_u64() % u64::from(NODES - 1)) as u32) % NODES;
            let max_len = 3 * PAGE_SIZE;
            let off = rng.next_u64() % (REGION_PAGES * PAGE_SIZE - max_len);
            let len = 1 + rng.next_u64() % max_len;
            let at = SimTime::from_us(rng.next_u64() % 40);
            sim.post(src, dst, ASID, VirtAddr::new(BASE + off), len, at);
        }
    }
    // One plan of each kind, on seeded victims and times.
    let mut victim = |salt: u64| (rng.next_u64().wrapping_add(salt) % u64::from(NODES)) as u32;
    let plans = [
        CrashPlan::crash(victim(1), SimTime::from_us(30), SimTime::from_us(250)),
        CrashPlan::hang(victim(2), SimTime::from_us(15), SimTime::from_us(90)),
        CrashPlan::stall(victim(3), SimTime::from_us(10), SimTime::from_us(120)),
        CrashPlan::crash_forever(victim(4), SimTime::from_us(60)),
    ];
    for plan in plans {
        sim.inject_crash(plan);
    }
    sim
}

#[test]
fn crash_churn_matches_oracle_at_every_shard_count() {
    for seed in [0xD19, 0xD1901, 0xD1902] {
        let mut oracle = build_crashy(seed, 1, RunnerKind::Sequential);
        oracle.run();
        let expect = oracle.digest();
        assert!(
            expect.nodes.iter().any(|n| n.crash.crashes > 0),
            "seed {seed:#x}: no crash landed — the plan is vacuous"
        );
        assert!(
            expect.nodes.iter().any(|n| n.health.misses > 0),
            "seed {seed:#x}: no lease ever missed — the detector never engaged"
        );
        for shards in [1usize, 2, 4, 8] {
            let mut sim = build_crashy(seed, shards, RunnerKind::Parallel);
            sim.run();
            if let Some(diff) = expect.diff(&sim.digest()) {
                panic!(
                    "seed {seed:#x}: crash-churn parallel {shards}-shard run diverged from the \
                     sequential oracle\n{diff}"
                );
            }
        }
    }
}

/// The digest really carries what the differential check claims it
/// does: perturbing the workload perturbs the digest.
#[test]
fn digest_is_sensitive_to_the_workload() {
    let mut a = build(Scenario::ColdDemand, 0xD13, 1, RunnerKind::Sequential);
    a.run();
    let mut b = build(Scenario::ColdDemand, 0xD13 + 1, 1, RunnerKind::Sequential);
    b.run();
    assert!(
        a.digest().diff(&b.digest()).is_some(),
        "two different seeds produced identical digests — the digest is too coarse to trust"
    );
}

/// Completion times, not just end states, are part of the contract:
/// the digest distinguishes runs whose transfers finish at different
/// sim times even when everything completes either way.
#[test]
fn digest_carries_completion_times() {
    let run = |pin: bool| {
        let mut cfg = ClusterConfig::new(2);
        cfg.pin_on_post = pin;
        cfg.record_log = false;
        let mut sim = ClusterSim::new(cfg);
        sim.grant(1, ASID, VirtAddr::new(BASE), 4, Perms::READ_WRITE).unwrap();
        sim.post(0, 1, ASID, VirtAddr::new(BASE), 4 * PAGE_SIZE, SimTime::ZERO);
        sim.run();
        sim.digest()
    };
    let (pinned, faulting) = (run(true), run(false));
    assert_eq!(pinned.xfers[0].state, XferState::Complete);
    assert_eq!(faulting.xfers[0].state, XferState::Complete);
    assert!(
        faulting.xfers[0].finished.expect("complete") > pinned.xfers[0].finished.expect("complete"),
        "fault round trips must show up in completion times"
    );
}
