//! Node-level fault domain: crash/restart injection, incarnation-fenced
//! recovery, and health-gated degraded mode.
//!
//! The contracts under test, in both worlds:
//!
//! - **Fencing**: a frame stamped for a previous incarnation of a
//!   rebooted node is discarded, never merged into fresh state; the
//!   sender restarts (cursor 0) or aborts (torn prefix) on the node's
//!   Hello.
//! - **Fail fast with an honest prefix**: transfers to a `Down` node end
//!   `NodeDown` reporting exactly their in-order acked prefix, and new
//!   posts are rejected before a frame is wasted.
//! - **Zero delta**: a run that injects no [`CrashPlan`] schedules no
//!   lease, probe or fence event at all.
//! - **Determinism**: all of the above replays the sequential oracle
//!   bit for bit at every shard count, for random plans and exhaustively
//!   across the crash-timing race window.

use udma::{
    ClusterConfig, ClusterSim, DmaMethod, Machine, MachineConfig, ProcessSpec, VirtDmaSetup,
};
use udma_bus::sim::RunnerKind;
use udma_bus::SimTime;
use udma_cpu::ProgramBuilder;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{
    CrashPlan, CrashStats, HealthState, HealthStats, RejectReason, VirtState, XferId, XferState,
};
use udma_testkit::prop::vec;
use udma_testkit::sched::{explore, Budget};
use udma_testkit::{prop_assert, prop_assert_eq, props};

const ASID: u32 = 7;
const DST_VA: u64 = 16 * PAGE_SIZE;

/// A pinned-destination cluster (every deposit lands, no NACK noise)
/// with the given ACK lease, every node granting the same region.
fn cluster(nodes: u32, lease_us: u64, pages: u64) -> ClusterSim {
    let mut cfg = ClusterConfig::new(nodes);
    cfg.pin_on_post = true;
    cfg.record_log = true;
    cfg.node_bytes = 1 << 19;
    cfg.health.lease = SimTime::from_us(lease_us);
    let mut sim = ClusterSim::new(cfg);
    for node in 0..nodes {
        sim.grant(node, ASID, VirtAddr::new(DST_VA), pages, Perms::READ_WRITE).unwrap();
    }
    sim
}

/// A frame launched into the downtime window arrives *after* the
/// reboot, stamped for incarnation 0 of a node now at incarnation 1: it
/// must be fenced. The rebooted node's Hello then restarts the transfer
/// into the new epoch and it completes into the replayed grant.
#[test]
fn stale_incarnation_frames_are_fenced_and_the_transfer_recovers() {
    let mut sim = cluster(2, 2000, 8);
    // Node 1 dies at 100 µs and reboots at 150 µs.
    sim.inject_crash(CrashPlan::crash(1, SimTime::from_us(100), SimTime::from_us(50)));
    // Launch just before the reboot: ~36 µs of wire time lands the frame
    // well after it, carrying the stale destination incarnation.
    let id = sim.post(0, 1, ASID, VirtAddr::new(DST_VA), 512, SimTime::from_us(149));
    sim.run();

    let stats = sim.crash_stats(1);
    assert_eq!(stats.crashes, 1, "{stats:?}");
    assert_eq!(stats.reboots, 1, "{stats:?}");
    assert!(stats.fenced >= 1, "the pre-reboot frame must be fenced: {stats:?}");
    assert!(stats.regrants >= 1, "the reboot must replay the grant ledger: {stats:?}");
    assert_eq!(sim.node_incarnation(1), 1);

    // The Hello broadcast restarted the transfer from byte zero into
    // incarnation 1; the payload landed whole in the *fresh* memory.
    assert_eq!(sim.xfer(id).state, XferState::Complete);
    let pa = sim.probe(1, ASID, VirtAddr::new(DST_VA)).expect("replayed grant translates");
    let mut got = vec![0u8; 512];
    sim.read_mem(1, pa, &mut got).unwrap();
    assert_eq!(got, ClusterSim::expected_payload(id, 512), "deposit diverged from the payload");
}

/// A destination that crashes mid-stream and never returns: the
/// in-flight transfer ends `NodeDown` with exactly its in-order acked
/// prefix in remote memory, the detector concludes `Down`, and a post
/// launched after detection fails fast without one frame on the wire.
#[test]
fn dead_destination_fails_fast_with_exactly_the_acked_prefix() {
    // Two page-sized chunks; at 155 Mb/s each spends ~433 µs on the
    // wire, so chunk 1 acks near 443 µs and chunk 2 lands near 876 µs.
    const LEN: u64 = 2 * PAGE_SIZE;
    let mut sim = cluster(2, 200, 8);
    // Die between chunk 1's ack and chunk 2's arrival: the victim
    // swallows chunk 2, and three missed leases conclude `Down`.
    sim.inject_crash(CrashPlan::crash_forever(1, SimTime::from_us(600)));
    let id = sim.post(0, 1, ASID, VirtAddr::new(DST_VA), LEN, SimTime::ZERO);
    let late = sim.post(0, 1, ASID, VirtAddr::new(DST_VA), 256, SimTime::from_us(50_000));
    sim.run();

    let x = sim.xfer(id);
    assert_eq!(x.state, XferState::NodeDown);
    let moved = x.counters.moved;
    assert!(moved > 0 && moved < LEN, "crash mid-stream should leave a partial prefix: {moved}");
    assert_eq!(moved % PAGE_SIZE, 0, "go-back-N acks whole in-order chunks: {moved}");

    // The prefix is byte-exact; the node died before a reboot could
    // zero it, so the image is inspectable.
    let pa = sim.probe(1, ASID, VirtAddr::new(DST_VA)).unwrap();
    let mut got = vec![0u8; LEN as usize];
    sim.read_mem(1, pa, &mut got).unwrap();
    let want = ClusterSim::expected_payload(id, LEN);
    assert_eq!(&got[..moved as usize], &want[..moved as usize], "prefix not in order");
    assert!(
        got[moved as usize..].iter().all(|&b| b == 0),
        "bytes beyond the acked prefix reached memory"
    );

    assert_eq!(sim.node_health(0, 1), HealthState::Down);
    let late_x = sim.xfer(late);
    assert_eq!(late_x.state, XferState::NodeDown, "post after detection must fail fast");
    assert_eq!(late_x.counters.moved, 0);
    assert_eq!(late_x.counters.wire_bytes, 0, "fail fast means zero wire traffic");
    assert_eq!(late_x.counters.launches, 0);
}

/// The zero-delta pin: with no [`CrashPlan`] injected, the fault domain
/// is never armed — no lease, probe, crash or fence event exists in the
/// log, and every crash/health counter and incarnation is zero.
#[test]
fn no_injected_plan_means_a_crash_free_bit_identical_world() {
    let mut sim = cluster(3, 100, 8);
    let id = sim.post(0, 1, ASID, VirtAddr::new(DST_VA), 2048, SimTime::ZERO);
    sim.post(2, 0, ASID, VirtAddr::new(DST_VA), 4096, SimTime::from_us(5));
    sim.run();
    assert_eq!(sim.xfer(id).state, XferState::Complete);

    let digest = sim.digest();
    for n in &digest.nodes {
        assert_eq!(n.crash, CrashStats::default(), "node {}", n.node);
        assert_eq!(n.health, HealthStats::default(), "node {}", n.node);
        assert_eq!(n.inc, 0, "node {}", n.node);
    }
    for line in &digest.log {
        let what = line.to_string();
        assert!(
            !what.contains("lease") && !what.contains("probe") && !what.contains("fenced"),
            "fault-domain event in a crash-free run: {what}"
        );
    }
}

props! {
    config(cases = 24);

    /// Random workloads under random crash plans: every transfer settles
    /// terminal, its reported `moved` is an in-order byte-exact prefix
    /// of the payload (checked in memory wherever the destination never
    /// lost its RAM), and 2- and 4-shard parallel runs replay the
    /// sequential oracle digest exactly.
    fn random_crash_plans_preserve_prefixes_and_determinism(
        raw_posts in vec((0u64..6, 1u64..6, 1u64..3 * PAGE_SIZE, 0u64..250), 1..8),
        raw_plans in vec((0u64..6, 0u64..4, 0u64..300, 10u64..200), 1..4),
    ) {
        const NODES: u32 = 6;
        let build = |shards: usize, runner: RunnerKind| {
            let mut cfg = ClusterConfig::new(NODES);
            cfg.shards = shards;
            cfg.runner = runner;
            cfg.pin_on_post = true;
            cfg.record_log = true;
            cfg.node_bytes = 1 << 19;
            cfg.health.lease = SimTime::from_us(120);
            let mut sim = ClusterSim::new(cfg);
            for node in 0..NODES {
                // Room for 8 posts × 3 pages of disjoint ranges.
                sim.grant(node, ASID, VirtAddr::new(DST_VA), 24, Perms::READ_WRITE).unwrap();
            }
            for (i, &(src, hop, len, at)) in raw_posts.iter().enumerate() {
                let src = (src % u64::from(NODES)) as u32;
                let dst = (src + hop as u32) % NODES;
                let va = DST_VA + i as u64 * 3 * PAGE_SIZE;
                sim.post(src, dst, ASID, VirtAddr::new(va), len, SimTime::from_us(at));
            }
            for &(node, kind, at, dur) in &raw_plans {
                let node = (node % u64::from(NODES)) as u32;
                let (at, dur) = (SimTime::from_us(at), SimTime::from_us(dur));
                sim.inject_crash(match kind % 4 {
                    0 => CrashPlan::crash(node, at, dur),
                    1 => CrashPlan::hang(node, at, dur),
                    2 => CrashPlan::stall(node, at, dur),
                    _ => CrashPlan::crash_forever(node, at),
                });
            }
            sim.run();
            sim
        };

        // Reconstruct each post's XferId (per-source index order).
        let mut next_index = [0u32; 6];
        let mut posts = Vec::new();
        for (i, &(src, hop, len, _)) in raw_posts.iter().enumerate() {
            let src = (src % u64::from(NODES)) as u32;
            let dst = (src + hop as u32) % NODES;
            let id = XferId { node: src, index: next_index[src as usize] };
            next_index[src as usize] += 1;
            posts.push((id, dst, DST_VA + i as u64 * 3 * PAGE_SIZE, len));
        }

        let oracle = build(1, RunnerKind::Sequential);
        let expect = oracle.digest();
        for &(id, dst, va, len) in &posts {
            let x = expect.xfers.iter().find(|x| x.id == id).expect("digest carries every post");
            prop_assert!(x.state.terminal(), "{id} never settled: {:?}", x.state);
            let moved = x.counters.moved;
            prop_assert!(moved <= len, "{id} over-reported: {moved} > {len}");
            if x.state == XferState::Complete {
                prop_assert_eq!(moved, len, "{id} complete but short");
            }
            // Byte-exact prefix check wherever the destination's RAM
            // survived (a reboot zeroes it; `moved` stays honest — the
            // bytes were delivered before the crash).
            if expect.nodes[dst as usize].crash.crashes == 0 && moved > 0 {
                let pa = oracle.probe(dst, ASID, VirtAddr::new(va)).expect("pinned grant");
                let mut got = vec![0u8; moved as usize];
                oracle.read_mem(dst, pa, &mut got).unwrap();
                let want = ClusterSim::expected_payload(id, len);
                prop_assert_eq!(
                    &got[..], &want[..moved as usize],
                    "{} delivered an out-of-order prefix", id
                );
            }
        }
        for shards in [2usize, 4] {
            let sharded = build(shards, RunnerKind::Parallel);
            if let Some(diff) = expect.diff(&sharded.digest()) {
                prop_assert!(
                    false,
                    "{}-shard parallel run diverged from the sequential oracle:\n{}",
                    shards, diff
                );
            }
        }
    }
}

/// Exhaustive exploration of the crash-timing race: every relative
/// timing of {post, crash} on a 70 µs grid spanning the whole transfer
/// (before launch, between chunks, after the last ack) must settle
/// safely and replay identically on the 2-shard parallel runner.
#[test]
fn crash_timing_race_is_exhaustively_deterministic() {
    const LEN: u64 = 4 * 1024;
    let build = |post_us: u64, crash_us: u64, shards: usize, runner: RunnerKind| {
        let mut cfg = ClusterConfig::new(4);
        cfg.shards = shards;
        cfg.runner = runner;
        cfg.pin_on_post = true;
        cfg.record_log = true;
        cfg.node_bytes = 1 << 18;
        cfg.health.lease = SimTime::from_us(100);
        let mut sim = ClusterSim::new(cfg);
        for node in 0..4 {
            sim.grant(node, ASID, VirtAddr::new(DST_VA), 8, Perms::READ_WRITE).unwrap();
        }
        sim.post(0, 1, ASID, VirtAddr::new(DST_VA), LEN, SimTime::from_us(post_us));
        sim.inject_crash(CrashPlan::crash(
            1,
            SimTime::from_us(40 + crash_us),
            SimTime::from_us(120),
        ));
        sim.run();
        sim
    };
    // Schedule space: each contender's first step sets its timing on
    // the grid — C(6,3) = 20 relative timings, fully enumerable.
    let exploration = explore(&[3, 3], Budget::new(64, 0x19F), |schedule| {
        let first = |thread: usize| {
            schedule.iter().position(|&t| t == thread).expect("3 steps each") as u64
        };
        let (post_us, crash_us) = (first(0) * 70, first(1) * 70);
        let oracle = build(post_us, crash_us, 1, RunnerKind::Sequential);
        let expect = oracle.digest();
        let x = &expect.xfers[0];
        if !x.state.terminal() {
            return Some(format!("unsettled at ({post_us}, {crash_us}): {:?}", x.state));
        }
        if x.counters.moved > LEN {
            return Some(format!("over-delivery at ({post_us}, {crash_us})"));
        }
        let sharded = build(post_us, crash_us, 2, RunnerKind::Parallel);
        expect
            .diff(&sharded.digest())
            .map(|d| format!("divergence at ({post_us}, {crash_us}):\n{d}"))
    });
    assert!(exploration.exhaustive, "20-timing space must be exhaustively explored");
    assert!(
        exploration.safe(),
        "crash-timing race broke safety or determinism:\n{}",
        exploration
            .findings
            .iter()
            .map(|(s, d)| format!("schedule {s:?}: {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------
// Machine world: the same fault domain on the single-machine `Cluster`.
// ---------------------------------------------------------------------

const RNODE: u32 = 0;

fn remote_machine() -> Machine {
    Machine::new(MachineConfig {
        virt_dma: Some(VirtDmaSetup::default()),
        remote_nodes: 1,
        remote_node_bytes: 1 << 20,
        ..MachineConfig::new(DmaMethod::Kernel)
    })
}

/// Machine-world crash lifecycle: detection concludes `NodeDown` (not a
/// link failure), posts fail fast while `Down`, the reboot bumps the
/// incarnation and replays the grant ledger, a probe moves the detector
/// to `Recovering`, and service is restored end to end.
#[test]
fn machine_world_crash_detection_failfast_and_recovery() {
    let mut m = remote_machine();
    let pid = m.spawn(&ProcessSpec::two_buffers_of(4), |_| ProgramBuilder::new().halt().build());
    m.grant_remote_buffer(RNODE, ASID, VirtAddr::new(DST_VA), 4, Perms::READ_WRITE);
    let src = m.env(pid).buffer(0).va;
    let src_frame = m.env(pid).buffer(0).first_frame;
    let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i * 7 + 3) as u8).collect();
    m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();

    // Healthy baseline.
    let ok = m.post_virt_remote(pid, src, RNODE, ASID, VirtAddr::new(DST_VA), PAGE_SIZE).unwrap();
    assert_eq!(m.run_virt(ok, 64), VirtState::Complete);
    assert_eq!(m.node_health(RNODE), HealthState::Up);

    // Crash: pumps miss ACK leases until the detector concludes the
    // *node* (not the link) is gone.
    m.crash_remote_node(RNODE);
    assert!(!m.remote_node_up(RNODE));
    let id =
        m.post_virt_remote(pid, src, RNODE, ASID, VirtAddr::new(DST_VA), 2 * PAGE_SIZE).unwrap();
    assert_eq!(m.run_virt(id, 64), VirtState::NodeDown);
    assert_eq!(m.node_health(RNODE), HealthState::Down);

    // Degraded mode: fail fast at post time, zero wire traffic wasted.
    assert_eq!(
        m.post_virt_remote(pid, src, RNODE, ASID, VirtAddr::new(DST_VA), PAGE_SIZE),
        Err(RejectReason::NodeDown)
    );

    // Reboot: new incarnation, fresh volatile state, the grant ledger
    // replayed so peers' handles still translate.
    let inc = m.reboot_remote_node(RNODE);
    assert_eq!(inc, 1);
    assert_eq!(m.remote_node_incarnation(RNODE), 1);
    let cs = m.remote_crash_stats(RNODE);
    assert_eq!((cs.crashes, cs.reboots), (1, 1), "{cs:?}");
    assert!(cs.regrants >= 1, "reboot must replay the grant ledger: {cs:?}");

    // Probe answers: Down → Recovering; the next transfer completes and
    // confirms Up.
    let (state, advanced) = m.probe_remote_node(RNODE);
    assert!(advanced, "the probe must report the epoch advance of the reboot");
    assert_eq!(state, HealthState::Recovering);
    let again =
        m.post_virt_remote(pid, src, RNODE, ASID, VirtAddr::new(DST_VA), 2 * PAGE_SIZE).unwrap();
    assert_eq!(m.run_virt(again, 64), VirtState::Complete);
    assert_eq!(m.node_health(RNODE), HealthState::Up);
    assert!(m.node_health_stats().recoveries >= 1);
}

/// An NI-engine hang is detected like a crash but recovers in place: no
/// incarnation bump, no ledger replay — the same epoch resumes service
/// after the unhang.
#[test]
fn machine_world_hang_recovers_without_a_new_incarnation() {
    let mut m = remote_machine();
    let pid = m.spawn(&ProcessSpec::two_buffers_of(4), |_| ProgramBuilder::new().halt().build());
    m.grant_remote_buffer(RNODE, ASID, VirtAddr::new(DST_VA), 4, Perms::READ_WRITE);
    let src = m.env(pid).buffer(0).va;
    let src_frame = m.env(pid).buffer(0).first_frame;
    m.memory().borrow_mut().write_bytes(src_frame.base(), &[0xC5; 512]).unwrap();

    m.hang_remote_node(RNODE);
    assert!(!m.remote_node_up(RNODE), "a hung NI is unresponsive");
    let id = m.post_virt_remote(pid, src, RNODE, ASID, VirtAddr::new(DST_VA), 512).unwrap();
    assert_eq!(m.run_virt(id, 64), VirtState::NodeDown);
    assert_eq!(m.node_health(RNODE), HealthState::Down);

    m.unhang_remote_node(RNODE);
    let (state, advanced) = m.probe_remote_node(RNODE);
    assert_eq!(state, HealthState::Recovering);
    assert!(!advanced, "a hang must not look like a reboot to the prober");
    // Same life: nothing was lost, nothing replays.
    assert_eq!(m.remote_node_incarnation(RNODE), 0);
    let cs = m.remote_crash_stats(RNODE);
    assert_eq!(cs.reboots, 0, "{cs:?}");
    assert_eq!(cs.regrants, 0, "{cs:?}");

    let again = m.post_virt_remote(pid, src, RNODE, ASID, VirtAddr::new(DST_VA), 512).unwrap();
    assert_eq!(m.run_virt(again, 64), VirtState::Complete);
    assert_eq!(m.node_health(RNODE), HealthState::Up);
}
