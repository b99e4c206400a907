//! Sharded-cluster scaling workload (E16).
//!
//! The sharded simulation core exists to make cluster-scale experiments
//! affordable; this module measures whether it does. A standard
//! all-to-all workload — every node streaming transfers around a set of
//! rings under seeded chaos loss, with a mix of pre-pinned and
//! demand-faulting destination buffers — runs once on the sequential
//! oracle and once per shard count on the parallel runner, and every
//! parallel run's [`ClusterDigest`](udma::ClusterDigest) is differenced against the oracle's,
//! so the sweep *is* a determinism check as well as a benchmark.
//!
//! On a single-core host the parallel runner cannot beat the oracle
//! (barrier overhead with no extra CPUs); `speedup` is reported
//! honestly either way and the E16 write-up keys its expectation on
//! [`std::thread::available_parallelism`].

use udma::{ClusterConfig, ClusterSim};
use udma_bus::sim::RunnerKind;
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{FaultPlan, XferState};

/// The one ASID the workload's buffers live in on every node.
pub const WORKLOAD_ASID: u32 = 1;

/// Destination-buffer base VA on every node.
const DST_BASE: u64 = 32 * PAGE_SIZE;

/// Shape of the standard E16 workload.
#[derive(Clone, Copy, Debug)]
pub struct ClusterWorkload {
    /// Cluster size.
    pub nodes: u32,
    /// Transfers each node posts (each to a different ring offset).
    pub xfers_per_node: u32,
    /// Pages per transfer.
    pub pages_per_xfer: u64,
    /// Chaos seed (frame drops decorrelate per node from this).
    pub seed: u64,
    /// Frame drop probability on every sending link.
    pub drop: f64,
}

impl ClusterWorkload {
    /// The default shape at a given cluster size: 2 transfers per node,
    /// 2 pages each, 5% frame loss.
    pub fn standard(nodes: u32, seed: u64) -> Self {
        ClusterWorkload { nodes, xfers_per_node: 2, pages_per_xfer: 2, seed, drop: 0.05 }
    }

    /// Total transfers the workload posts.
    pub fn total_xfers(&self) -> u32 {
        self.nodes * self.xfers_per_node
    }
}

/// Builds the standard workload on a given backend: grants every node a
/// per-sender destination slot (even slots pre-pinned, odd slots
/// demand-faulting so the NACK path stays hot), then posts
/// `xfers_per_node` ring transfers per node at staggered times.
pub fn build_cluster(w: &ClusterWorkload, shards: usize, runner: RunnerKind) -> ClusterSim {
    assert!(w.nodes >= 2, "the ring workload needs at least two nodes");
    let mut cfg = ClusterConfig::new(w.nodes);
    cfg.shards = shards;
    cfg.runner = runner;
    cfg.chaos = (w.drop > 0.0).then(|| FaultPlan::lossless(w.seed).with_drop(w.drop));
    let mut sim = ClusterSim::new(cfg);
    // One destination slot per (receiving node, transfer index); slot k
    // holds the transfer arriving over ring offset k+1.
    for node in 0..w.nodes {
        for slot in 0..w.xfers_per_node {
            let va = VirtAddr::new(DST_BASE + u64::from(slot) * w.pages_per_xfer * PAGE_SIZE);
            sim.grant(node, WORKLOAD_ASID, va, w.pages_per_xfer, Perms::READ_WRITE)
                .expect("disjoint slots");
            if slot % 2 == 0 {
                // Warm half: registered up front, no faults ever.
                sim.pin(node, WORKLOAD_ASID, va, w.pages_per_xfer * PAGE_SIZE)
                    .expect("freshly exposed");
            }
        }
    }
    for src in 0..w.nodes {
        for slot in 0..w.xfers_per_node {
            let hop = 1 + u64::from(slot) % u64::from(w.nodes - 1);
            let dst = (src + hop as u32) % w.nodes;
            let va = VirtAddr::new(DST_BASE + u64::from(slot) * w.pages_per_xfer * PAGE_SIZE);
            // Stagger launches so rounds overlap rather than phase-lock.
            let at = SimTime::from_us(u64::from(src % 7) * 3 + u64::from(slot) * 11);
            sim.post(src, dst, WORKLOAD_ASID, va, w.pages_per_xfer * PAGE_SIZE, at);
        }
    }
    sim
}

/// One `(nodes, shards)` point of the E16 sweep.
#[derive(Clone, Copy, Debug)]
pub struct ShardScaleRow {
    /// Cluster size.
    pub nodes: u32,
    /// Shard count (1 with the sequential runner is the oracle row).
    pub shards: usize,
    /// Backend that produced this row.
    pub runner: RunnerKind,
    /// Simulation events processed.
    pub events: u64,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Transfers that reached [`XferState::Complete`].
    pub completed: u32,
    /// Host wall-clock milliseconds inside the runner.
    pub wall_ms: f64,
    /// Simulation events per host second — the self-benchmark metric.
    pub events_per_sec: f64,
    /// Oracle wall time over this row's wall time (1.0 for the oracle
    /// row itself; < 1 means the backend lost to the oracle).
    pub speedup: f64,
    /// Whether this row's digest matched the sequential oracle's.
    pub matches_oracle: bool,
}

/// Experiment E16: for each cluster size, runs the standard workload on
/// the sequential oracle and then on the parallel runner at each shard
/// count, differencing every digest against the oracle's.
///
/// # Panics
///
/// Panics if any backend's digest diverges from the oracle — scaling
/// numbers from a nondeterministic simulator are worthless, so the
/// sweep refuses to produce them.
pub fn shard_scale_sweep(
    node_counts: &[u32],
    shard_counts: &[usize],
    seed: u64,
) -> Vec<ShardScaleRow> {
    let mut rows = Vec::new();
    for &nodes in node_counts {
        let w = ClusterWorkload::standard(nodes, seed);
        let (oracle_row, oracle_digest) = {
            let mut sim = build_cluster(&w, 1, RunnerKind::Sequential);
            sim.run();
            (row_from(&sim, 1.0, true), sim.digest())
        };
        let oracle_wall = oracle_row.wall_ms;
        rows.push(oracle_row);
        for &shards in shard_counts {
            let mut sim = build_cluster(&w, shards, RunnerKind::Parallel);
            sim.run();
            let digest = sim.digest();
            if let Some(diff) = oracle_digest.diff(&digest) {
                panic!(
                    "E16 {nodes}-node workload (seed {seed:#x}) diverged at {shards} shards:\n{diff}"
                );
            }
            let wall = sim.wall().as_secs_f64() * 1e3;
            let speedup = if wall > 0.0 { oracle_wall / wall } else { 0.0 };
            rows.push(row_from(&sim, speedup, true));
        }
    }
    rows
}

fn row_from(sim: &ClusterSim, speedup: f64, matches_oracle: bool) -> ShardScaleRow {
    let d = sim.digest();
    let completed = d.xfers.iter().filter(|x| x.state == XferState::Complete).count() as u32;
    ShardScaleRow {
        nodes: sim.config().nodes,
        shards: sim.config().shards,
        runner: sim.config().runner,
        events: d.events,
        rounds: d.rounds,
        completed,
        wall_ms: sim.wall().as_secs_f64() * 1e3,
        events_per_sec: sim.events_per_sec(),
        speedup,
        matches_oracle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workload_completes_everywhere() {
        let rows = shard_scale_sweep(&[8], &[2, 4], 0xE16);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.matches_oracle);
            assert_eq!(r.completed, 16, "all 8×2 transfers complete under 5% loss");
            assert!(r.events > 0 && r.rounds > 0);
        }
        // Identical histories process identical event counts.
        assert!(rows.iter().all(|r| r.events == rows[0].events));
    }
}
