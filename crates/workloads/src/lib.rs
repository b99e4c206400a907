//! Workload and scenario generators for the udma reproduction.
//!
//! Everything the evaluation binaries and integration tests share:
//!
//! * [`scenarios`] — victim/adversary machines for the race and attack
//!   experiments (E3–E6), with the safety predicates
//!   ([`illegal_transfer`], [`misinformation`]) the interleaving explorer
//!   checks;
//! * [`contention`] — many processes initiating concurrently under a
//!   preemptive scheduler, including the §3.2 context-exhaustion
//!   fallback;
//! * [`keyguess`] — the §3.1 key-guessing analysis (E10);
//! * [`ablations`] — quantum / write-buffer / context-count sweeps;
//! * [`microbench`] — lmbench-style syscall, context-switch and TLB-miss
//!   latencies of the simulated host;
//! * [`sweeps`] — parameter sweeps: bus frequency (E7), message-size
//!   crossover inputs (E8), atomic-operation comparison (E9);
//! * [`va`] — virtual-address DMA: IOTLB capacity sweep (E11),
//!   fault-rate sweep (E12), the remote-fault × link sweep (E13) and the
//!   translation-pipeline sweep (E15);
//! * [`lossy`] — reliable delivery over a lossy link: goodput and p99
//!   completion vs loss rate × retry budget (E14);
//! * [`ctxvirt`] — context virtualization (E17): initiation p50/p99 and
//!   steal rate as 100 → 100k logical processes share 4–8 register
//!   contexts, plus the hostile-tenant QoS scenario;
//! * [`descring`] — doorbell-batched descriptor rings (E20): per-transfer
//!   initiation cost vs queue depth, pinned to the per-post baseline at
//!   depth 1;
//! * [`sharded`] — the sharded-cluster scaling sweep (E16): the standard
//!   all-to-all ring workload on the sequential oracle vs the parallel
//!   runner at 1–8 shards, every row digest-checked against the oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod coherence;
pub mod contention;
pub mod crashes;
pub mod ctxvirt;
pub mod descring;
pub mod keyguess;
pub mod lossy;
pub mod microbench;
pub mod now;
pub mod scenarios;
pub mod sharded;
pub mod sweeps;
pub mod va;

pub use ablations::{
    a3_context_grid, context_count_ablation, quantum_ablation, write_buffer_ablation, CtxCountRow,
    QuantumRow, WbPolicyRow,
};
pub use coherence::{
    coherence_cost_sweep, false_sharing_adversary, mode_label, CoherenceCostRow, FalseSharingRow,
    ProducerPrep,
};
pub use contention::{run_contention, ContentionResult};
pub use crashes::{build_crash_cluster, node_fault_sweep, CrashWorkload, NodeFaultRow, CRASH_ASID};
pub use ctxvirt::{
    context_pressure_sweep, e17_context_grid, hostile_tenant_scenario, CtxPressureRow,
    HostileTenantRow,
};
pub use descring::{e20_depth_grid, ring_initiation_sweep, RingInitiationRow};
pub use keyguess::{guess_acceptance, pollution_with_known_key, GuessStats};
pub use lossy::{lossy_link_sweep, LossyLinkRow};
pub use microbench::{context_switch, dcache_effect, empty_syscall, tlb_miss};
pub use now::{broadcast, BroadcastResult};
pub use scenarios::{
    any_violation, data_theft, illegal_transfer, misinformation, AdversaryKind, AttackScenario,
    ADVERSARY, VICTIM,
};
pub use sharded::{
    build_cluster, shard_scale_sweep, ClusterWorkload, ShardScaleRow, WORKLOAD_ASID,
};
pub use sweeps::{atomic_comparison, bus_sweep, BusSweepRow};
pub use va::{
    fault_rate_sweep, iotlb_sweep, pipeline_sweep, remote_announce_sweep, remote_fault_sweep,
    FaultRateRow, IotlbSweepRow, PipelineRow, RemoteFaultRow,
};

/// Nearest-rank percentile over a sample (sorted internally); zero for
/// an empty sample.
fn percentile(sample: &[udma_bus::SimTime], pct: f64) -> udma_bus::SimTime {
    if sample.is_empty() {
        return udma_bus::SimTime::ZERO;
    }
    let mut v = sample.to_vec();
    v.sort_unstable();
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}
