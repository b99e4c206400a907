//! Node-fault workload (E19): crash-rate × reboot-time ×
//! detection-timeout sweep over the sharded cluster.
//!
//! A ring workload (every node streaming announced transfers to seeded
//! peers) runs while scripted [`CrashPlan`]s take nodes down and bring
//! them back under new incarnation epochs. Each sweep point runs once
//! on the sequential oracle and once per shard count on the parallel
//! runner, differencing every [`udma::ClusterDigest`] against the
//! oracle's — so, exactly like E16, the sweep *is* a determinism check
//! under active crash plans, not just a benchmark.
//!
//! The zero-crash row carries one more pin: a cluster built by this
//! module with no plan injected must produce a digest bit-identical to
//! the same workload built with no fault machinery configured at all —
//! the fault domain costs nothing until the first [`CrashPlan`] arms
//! it.

use crate::percentile;
use udma::{ClusterConfig, ClusterSim, CrashPlan};
use udma_bus::sim::RunnerKind;
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::XferState;

/// The one ASID the workload's buffers live in on every node.
pub const CRASH_ASID: u32 = 2;

/// Destination-buffer base VA on every node.
const DST_BASE: u64 = 32 * PAGE_SIZE;

/// Shape of one E19 sweep point.
#[derive(Clone, Copy, Debug)]
pub struct CrashWorkload {
    /// Cluster size.
    pub nodes: u32,
    /// Transfers each node posts.
    pub xfers_per_node: u32,
    /// Pages per transfer.
    pub pages_per_xfer: u64,
    /// Crash-and-reboot plans injected (distinct seeded victims).
    pub crashes: u32,
    /// Downtime of each victim before its reboot.
    pub reboot_after: SimTime,
    /// ACK-lease the failure detector runs on.
    pub lease: SimTime,
    /// Seed decorrelating victims, crash times and the ring pattern.
    pub seed: u64,
}

impl CrashWorkload {
    /// The default shape at a given cluster size and crash plan.
    pub fn standard(nodes: u32, crashes: u32, reboot_us: u64, lease_us: u64, seed: u64) -> Self {
        CrashWorkload {
            nodes,
            xfers_per_node: 2,
            pages_per_xfer: 2,
            crashes,
            reboot_after: SimTime::from_us(reboot_us),
            lease: SimTime::from_us(lease_us),
            seed,
        }
    }

    /// Total transfers the workload posts.
    pub fn total_xfers(&self) -> u32 {
        self.nodes * self.xfers_per_node
    }

    /// The seeded crash plans of this point: `crashes` victims dying
    /// across the workload's launch window, each rebooting after
    /// `reboot_after`. Pure arithmetic on the seed — every backend
    /// injects the identical schedule (overlapping victims are legal;
    /// the recovery path guards re-entry).
    pub fn plans(&self) -> Vec<CrashPlan> {
        (0..self.crashes)
            .map(|i| {
                let mixed = self
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(i).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                let victim = ((mixed >> 7) ^ (mixed >> 43)) % u64::from(self.nodes);
                let at = SimTime::from_us(25 + (mixed >> 32) % 400);
                CrashPlan::crash(victim as u32, at, self.reboot_after)
            })
            .collect()
    }
}

/// Builds the workload on a given backend: announced ring transfers
/// into pre-granted pinned slots, then the seeded crash plans (if any).
/// With `crashes == 0` nothing is injected and the fault domain never
/// arms.
pub fn build_crash_cluster(w: &CrashWorkload, shards: usize, runner: RunnerKind) -> ClusterSim {
    assert!(w.nodes >= 2, "the ring workload needs at least two nodes");
    let mut cfg = ClusterConfig::new(w.nodes);
    cfg.shards = shards;
    cfg.runner = runner;
    cfg.pin_on_post = true;
    cfg.announce = true;
    cfg.ack_lease = w.lease;
    let mut sim = ClusterSim::new(cfg);
    for node in 0..w.nodes {
        for slot in 0..w.xfers_per_node {
            let va = VirtAddr::new(DST_BASE + u64::from(slot) * w.pages_per_xfer * PAGE_SIZE);
            sim.grant(node, CRASH_ASID, va, w.pages_per_xfer, Perms::READ_WRITE)
                .expect("disjoint slots");
        }
    }
    for src in 0..w.nodes {
        for slot in 0..w.xfers_per_node {
            let hop = 1
                + (u64::from(src).wrapping_mul(w.seed | 1) + u64::from(slot))
                    % u64::from(w.nodes - 1);
            let dst = (src + hop as u32) % w.nodes;
            let va = VirtAddr::new(DST_BASE + u64::from(slot) * w.pages_per_xfer * PAGE_SIZE);
            // Stagger launches across the crash window so failures hit
            // transfers in every phase: unposted, streaming, draining.
            let at = SimTime::from_us(u64::from(src % 9) * 13 + u64::from(slot) * 37);
            sim.post(src, dst, CRASH_ASID, va, w.pages_per_xfer * PAGE_SIZE, at);
        }
    }
    for plan in w.plans() {
        sim.inject_crash(plan);
    }
    sim
}

/// One `(crashes, reboot, lease)` point of the E19 sweep.
#[derive(Clone, Debug)]
pub struct NodeFaultRow {
    /// Crash-and-reboot plans injected.
    pub crashes: u32,
    /// Victim downtime before reboot (µs).
    pub reboot_us: u64,
    /// Detector ACK-lease (µs).
    pub lease_us: u64,
    /// Transfers posted.
    pub posted: u32,
    /// Transfers that reached [`XferState::Complete`].
    pub completed: u32,
    /// Transfers that failed fast or aborted with `DMA_NODE_DOWN`.
    pub node_down: u32,
    /// `completed / posted` — the availability the workload saw.
    pub availability: f64,
    /// Delivered (acked in-order) bytes over the makespan, in Mb/s.
    pub goodput_mbps: f64,
    /// Median sender-observed outage (Down entry → first post-recovery
    /// progress). Zero when no outage was ever observed.
    pub recovery_p50: SimTime,
    /// Tail sender-observed outage.
    pub recovery_p99: SimTime,
    /// Stale-incarnation frames fenced cluster-wide.
    pub fenced: u64,
    /// Grant-ledger records replayed by reboots cluster-wide.
    pub regrants: u64,
    /// Whether every parallel shard count replayed the oracle digest.
    pub matches_oracle: bool,
}

/// Experiment E19: for each `(crash count, reboot time, lease)` point,
/// runs the workload on the sequential oracle and then on the parallel
/// runner at each shard count, differencing every digest against the
/// oracle's, and reports goodput, availability and recovery latency.
///
/// # Panics
///
/// Panics if any backend's digest diverges from the oracle, or if the
/// zero-crash point differs from a fault-blind build of the same
/// workload — robustness numbers from a nondeterministic (or quietly
/// taxed) simulator are worthless.
pub fn node_fault_sweep(
    nodes: u32,
    crash_counts: &[u32],
    reboot_us: &[u64],
    lease_us: &[u64],
    shard_counts: &[usize],
    seed: u64,
) -> Vec<NodeFaultRow> {
    let mut rows = Vec::new();
    for &crashes in crash_counts {
        for &reboot in reboot_us {
            for &lease in lease_us {
                let w = CrashWorkload::standard(nodes, crashes, reboot, lease, seed);
                let mut oracle = build_crash_cluster(&w, 1, RunnerKind::Sequential);
                oracle.run();
                let expect = oracle.digest();
                if crashes == 0 {
                    // The zero-delta pin: no plan, no trace of the
                    // fault domain — not one event, stat or timestamp.
                    let mut blind = build_crash_cluster(
                        &CrashWorkload { lease: SimTime::from_us(1), ..w },
                        1,
                        RunnerKind::Sequential,
                    );
                    blind.run();
                    if let Some(diff) = expect.diff(&blind.digest()) {
                        panic!(
                            "E19 zero-crash run is sensitive to fault-domain config \
                             (seed {seed:#x}):\n{diff}"
                        );
                    }
                }
                for &shards in shard_counts {
                    let mut sim = build_crash_cluster(&w, shards, RunnerKind::Parallel);
                    sim.run();
                    if let Some(diff) = expect.diff(&sim.digest()) {
                        panic!(
                            "E19 point (crashes={crashes}, reboot={reboot}µs, lease={lease}µs, \
                             seed {seed:#x}) diverged at {shards} shards:\n{diff}"
                        );
                    }
                }
                // A divergence panics above, so a returned row is by
                // construction oracle-checked.
                rows.push(row_from(&w, &oracle, true));
            }
        }
    }
    rows
}

fn row_from(w: &CrashWorkload, sim: &ClusterSim, matches_oracle: bool) -> NodeFaultRow {
    let d = sim.digest();
    let completed = d.xfers.iter().filter(|x| x.state == XferState::Complete).count() as u32;
    let node_down = d.xfers.iter().filter(|x| x.state == XferState::NodeDown).count() as u32;
    let moved: u64 = d.xfers.iter().map(|x| x.counters.moved).sum();
    let makespan = d.xfers.iter().filter_map(|x| x.finished).max().unwrap_or(SimTime::ZERO);
    let goodput_mbps = if makespan > SimTime::ZERO {
        (moved as f64 * 8.0) / makespan.as_us() // bits per µs == Mb/s
    } else {
        0.0
    };
    let outages = sim.recovery_samples();
    NodeFaultRow {
        crashes: w.crashes,
        reboot_us: w.reboot_after.as_us() as u64,
        lease_us: w.lease.as_us() as u64,
        posted: d.xfers.len() as u32,
        completed,
        node_down,
        availability: if d.xfers.is_empty() {
            1.0
        } else {
            f64::from(completed) / d.xfers.len() as f64
        },
        goodput_mbps,
        recovery_p50: percentile(&outages, 50.0),
        recovery_p99: percentile(&outages, 99.0),
        fenced: d.nodes.iter().map(|n| n.crash.fenced).sum(),
        regrants: d.nodes.iter().map(|n| n.crash.regrants).sum(),
        matches_oracle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_free_point_is_fully_available() {
        let rows = node_fault_sweep(8, &[0], &[200], &[150], &[2], 0xE19);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.matches_oracle);
        assert_eq!(r.completed, r.posted, "no crash, no loss: {r:?}");
        assert_eq!((r.node_down, r.fenced, r.regrants), (0, 0, 0), "{r:?}");
        assert!((r.availability - 1.0).abs() < f64::EPSILON);
        assert!(r.goodput_mbps > 0.0);
    }

    #[test]
    fn crashes_cost_availability_but_never_determinism() {
        let rows = node_fault_sweep(8, &[0, 2], &[300], &[200], &[2, 4], 0xE19);
        let (clean, churn) = (&rows[0], &rows[1]);
        assert!(churn.matches_oracle);
        assert!(churn.regrants > 0, "a reboot must replay the ledger: {churn:?}");
        assert!(
            churn.completed < clean.completed || churn.node_down > 0,
            "two crashes should visibly dent the workload: {churn:?}"
        );
        assert_eq!(
            churn.completed + churn.node_down,
            churn.posted,
            "every transfer settles Complete or NodeDown under pinned slots: {churn:?}"
        );
    }
}
