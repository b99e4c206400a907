//! Context-virtualization workload (E17).
//!
//! [`context_pressure_sweep`] drives 100 → 100k **logical processes**
//! onto the NI's 4–8 register contexts through the OS context cache and
//! reports what multiplexing costs: initiation p50/p99, context-steal
//! rate, hit rate, and the NI-side spill/fill/steal/starvation counters.
//! Process picks follow a hot-set distribution (most posts come from a
//! small working set, the tail is uniform), so the cache sees the
//! locality real multiprogramming has.
//!
//! [`hostile_tenant_scenario`] is the QoS experiment: well-paced
//! guaranteed-tier tenants share the NI with a best-effort tenant
//! burst-stealing as fast as it can. With the arbiter enabled the
//! victims' p99 initiation must stay within 2× of its uncontended value
//! (the E17 acceptance bound); disabled, the hostile tenant evicts the
//! victims between every one of their posts.

use crate::percentile;
use udma::{DmaMethod, LogicalPost, Machine, MachineConfig, PostPath};
use udma_bus::SimTime;
use udma_mem::{splitmix64, PhysAddr};
use udma_nic::regs::MAX_CONTEXTS;
use udma_nic::CtxStats;
use udma_os::{ArbiterConfig, CtxCacheConfig, CtxCacheStats, CtxVictimPolicy, QosClass};

/// Transfer size every E17 post moves (one cache-line-ish burst, well
/// inside the single-page rule).
const POST_BYTES: u64 = 256;
/// Source/destination pages the posts stream between.
const SRC_PA: u64 = 0x2000;
const DST_PA: u64 = 0x6000;

/// The standard E17 context grid: the paper's "say 4 to 8" (§3.1),
/// upper-bounded by the NI register map's [`MAX_CONTEXTS`] — the same
/// shared definition the A3 ablation grid derives from, so the two
/// sweeps cannot drift apart.
pub fn e17_context_grid() -> Vec<u32> {
    (4..=MAX_CONTEXTS).step_by(2).collect()
}

/// One (process-count, context-count) point of the E17 sweep.
#[derive(Clone, Copy, Debug)]
pub struct CtxPressureRow {
    /// Logical processes registered.
    pub processes: u32,
    /// Hardware register contexts.
    pub contexts: u32,
    /// Victim policy in force.
    pub policy: CtxVictimPolicy,
    /// Posts issued.
    pub posts: u32,
    /// Median initiation cost.
    pub p50_initiation: SimTime,
    /// 99th-percentile initiation cost (the multiplexing tail).
    pub p99_initiation: SimTime,
    /// Fraction of posts that found their context resident.
    pub hit_rate: f64,
    /// Context steals per post.
    pub steal_rate: f64,
    /// Posts that fell back to the kernel DMA path.
    pub kernel_fallbacks: u32,
    /// NI-side context-virtualization counters.
    pub ni: CtxStats,
    /// OS-side cache counters.
    pub os: CtxCacheStats,
}

/// Experiment E17: for every process count, registers that many logical
/// processes on a `contexts`-context NI, issues `posts` DMA posts drawn
/// from a hot-set picker (90% from the hottest `min(12, n)` processes,
/// 10% uniform), and measures the initiation-cost distribution and
/// steal traffic. Deterministic per `seed`.
pub fn context_pressure_sweep(
    process_counts: &[u32],
    contexts: u32,
    posts: u32,
    policy: CtxVictimPolicy,
    seed: u64,
) -> Vec<CtxPressureRow> {
    process_counts
        .iter()
        .map(|&n| context_pressure_point(n, contexts, posts, policy, seed))
        .collect()
}

fn context_pressure_point(
    processes: u32,
    contexts: u32,
    posts: u32,
    policy: CtxVictimPolicy,
    seed: u64,
) -> CtxPressureRow {
    let mut m = machine(contexts);
    m.enable_ctx_virtualization(CtxCacheConfig {
        victim: policy,
        seed,
        ..CtxCacheConfig::default()
    });
    let lps: Vec<_> = (0..processes).map(|_| m.register_logical(QosClass::BestEffort)).collect();

    // A fixed hot set slightly larger than the biggest context file:
    // growing the file 4 → 8 then covers more of the hot set, which is
    // exactly the effect E17 charts (hit rate ↑, median flips from the
    // kernel-ish steal cost to the user-level post).
    let hot = processes.min(12);
    let mut rng = seed ^ 0xE17;
    let mut now = SimTime::ZERO;
    let mut costs = Vec::with_capacity(posts as usize);
    let mut fallbacks = 0u32;
    for _ in 0..posts {
        // Hot-set locality: 90% of posts from the first `hot`
        // processes, the rest uniform over everyone.
        let r = splitmix64(&mut rng);
        let p = if r % 10 < 9 {
            lps[(splitmix64(&mut rng) % hot as u64) as usize]
        } else {
            lps[(splitmix64(&mut rng) % processes as u64) as usize]
        };
        let post =
            m.logical_post_at(p, PhysAddr::new(SRC_PA), PhysAddr::new(DST_PA), POST_BYTES, now);
        if matches!(post.path, PostPath::KernelFallback { .. }) {
            fallbacks += 1;
        }
        costs.push(post.initiation);
        // Pace posts a few microseconds apart: a 256-byte transfer
        // holds its context busy for ~13 µs on the ATM link, so at
        // this rate a couple of contexts are always mid-transfer —
        // enough overlap for busy-victim skips and starvation to show
        // at scale without collapsing every post into the fallback.
        now += SimTime::from_us(5);
    }

    costs.sort_unstable();
    let ni = m.engine().core().ctx_stats();
    let os = m.ctx_cache().expect("enabled").stats();
    CtxPressureRow {
        processes,
        contexts,
        policy,
        posts,
        p50_initiation: percentile(&costs, 50.0),
        p99_initiation: percentile(&costs, 99.0),
        hit_rate: os.hits as f64 / (os.hits + os.misses).max(1) as f64,
        steal_rate: ni.steals as f64 / posts.max(1) as f64,
        kernel_fallbacks: fallbacks,
        ni,
        os,
    }
}

/// Outcome of the hostile-tenant QoS scenario.
#[derive(Clone, Copy, Debug)]
pub struct HostileTenantRow {
    /// Whether the arbiter (token buckets + QoS tiers) was enabled.
    pub qos_enabled: bool,
    /// Victim-tier p50 with the hostile tenant active.
    pub victim_p50: SimTime,
    /// Victim-tier p99 with the hostile tenant active.
    pub victim_p99: SimTime,
    /// Victim-tier p99 with no hostile tenant (same pacing, same
    /// machine shape) — the uncontended baseline.
    pub uncontended_p99: SimTime,
    /// `victim_p99 / uncontended_p99` — the E17 acceptance bound says
    /// this stays ≤ 2 with QoS on.
    pub degradation: f64,
    /// Victim posts that fell back to the kernel DMA path.
    pub victim_fallbacks: u32,
    /// Hostile steals refused by the token bucket.
    pub hostile_throttled: u64,
    /// Hostile posts that fell back to the kernel DMA path.
    pub hostile_fallbacks: u32,
}

/// The E17 QoS scenario. `victims` guaranteed-tier tenants post one
/// paced DMA each per 25 µs round; a swarm of best-effort tenant
/// identities (4 × `contexts`, so every hostile post is a miss) posts
/// `hostile_per_round` times per round, as fast as the cache lets it.
/// Measured over `rounds` rounds after a one-round warmup; the
/// uncontended baseline runs the identical victim schedule with the
/// hostile swarm absent.
pub fn hostile_tenant_scenario(
    contexts: u32,
    victims: u32,
    hostile_per_round: u32,
    rounds: u32,
    qos_enabled: bool,
    seed: u64,
) -> HostileTenantRow {
    assert!(victims < contexts, "victims must fit the context file");
    let baseline = hostile_run(contexts, victims, 0, rounds, qos_enabled, seed);
    let contended = hostile_run(contexts, victims, hostile_per_round, rounds, qos_enabled, seed);
    let uncontended_p99 = percentile(&baseline.victim_costs, 99.0);
    let victim_p99 = percentile(&contended.victim_costs, 99.0);
    HostileTenantRow {
        qos_enabled,
        victim_p50: percentile(&contended.victim_costs, 50.0),
        victim_p99,
        uncontended_p99,
        degradation: victim_p99.as_ps() as f64 / uncontended_p99.as_ps().max(1) as f64,
        victim_fallbacks: contended.victim_fallbacks,
        hostile_throttled: contended.hostile_throttled,
        hostile_fallbacks: contended.hostile_fallbacks,
    }
}

struct HostileRun {
    victim_costs: Vec<SimTime>,
    victim_fallbacks: u32,
    hostile_throttled: u64,
    hostile_fallbacks: u32,
}

fn hostile_run(
    contexts: u32,
    victims: u32,
    hostile_per_round: u32,
    rounds: u32,
    qos_enabled: bool,
    seed: u64,
) -> HostileRun {
    let mut m = machine(contexts);
    // QoS on: the operator provisions the guaranteed tier — one
    // reserved context per admitted guaranteed tenant.
    let arbiter = if qos_enabled {
        ArbiterConfig { reserved: victims, ..ArbiterConfig::default() }
    } else {
        ArbiterConfig::disabled()
    };
    m.enable_ctx_virtualization(CtxCacheConfig { seed, arbiter, ..CtxCacheConfig::default() });
    let victim_lps: Vec<_> =
        (0..victims).map(|_| m.register_logical(QosClass::Guaranteed)).collect();
    // Enough hostile identities that every hostile post misses: the
    // swarm cycles through 4 × contexts best-effort processes.
    let hostiles: Vec<_> =
        (0..contexts * 4).map(|_| m.register_logical(QosClass::BestEffort)).collect();

    let mut rng = seed ^ 0x40577u64.wrapping_mul(hostile_per_round as u64 + 1);
    let mut now = SimTime::ZERO;
    let mut victim_costs = Vec::new();
    let mut victim_fallbacks = 0u32;
    let mut hostile_fallbacks = 0u32;
    let mut hostile_idx = 0usize;
    let round_gap = SimTime::from_us(25);
    for round in 0..rounds + 1 {
        let measured = round > 0; // round 0 is warmup (first fills)
                                  // The hostile burst front-runs the victims inside each round —
                                  // worst case for the victims' residency.
        for _ in 0..hostile_per_round {
            let h = hostiles[hostile_idx % hostiles.len()];
            hostile_idx += 1;
            let post = post_one(&mut m, h, now);
            if measured && matches!(post.path, PostPath::KernelFallback { .. }) {
                hostile_fallbacks += 1;
            }
            now += SimTime::from_ns(200);
        }
        for &v in &victim_lps {
            let post = post_one(&mut m, v, now);
            if measured {
                victim_costs.push(post.initiation);
                if matches!(post.path, PostPath::KernelFallback { .. }) {
                    victim_fallbacks += 1;
                }
            }
            now += SimTime::from_ns(500 + splitmix64(&mut rng) % 100);
        }
        now += round_gap;
    }
    HostileRun {
        victim_costs,
        victim_fallbacks,
        hostile_throttled: m.ctx_cache().expect("enabled").arbiter_stats().throttled,
        hostile_fallbacks,
    }
}

fn post_one(m: &mut Machine, p: udma_os::LPid, now: SimTime) -> LogicalPost {
    m.logical_post_at(p, PhysAddr::new(SRC_PA), PhysAddr::new(DST_PA), POST_BYTES, now)
}

fn machine(contexts: u32) -> Machine {
    let mut config = MachineConfig::new(DmaMethod::KeyBased);
    config.num_contexts = contexts;
    Machine::new(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_sweep_degrades_gracefully() {
        let rows = context_pressure_sweep(&[4, 100, 2_000], 4, 400, CtxVictimPolicy::Lru, 7);
        // With processes ≤ contexts everything is a hit after warmup.
        assert!(rows[0].hit_rate > 0.95, "hit rate {}", rows[0].hit_rate);
        assert_eq!(rows[0].ni.steals, 0);
        // Pressure brings steals, and the tail stretches.
        assert!(rows[2].steal_rate > 0.0);
        assert!(rows[2].p99_initiation >= rows[0].p99_initiation);
        // Counters reconcile: every steal spilled, every fill matched a
        // miss that got a context.
        for r in &rows {
            assert_eq!(r.ni.spills, r.os.spills);
            assert_eq!(r.ni.fills, r.os.fills);
            assert!(r.ni.steals <= r.ni.spills);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = context_pressure_sweep(&[500], 4, 300, CtxVictimPolicy::Clock, 11);
        let b = context_pressure_sweep(&[500], 4, 300, CtxVictimPolicy::Clock, 11);
        assert_eq!(a[0].p99_initiation, b[0].p99_initiation);
        assert_eq!(a[0].ni, b[0].ni);
    }

    #[test]
    fn qos_protects_the_victims() {
        let on = hostile_tenant_scenario(4, 2, 32, 40, true, 3);
        assert!(
            on.degradation <= 2.0,
            "QoS on: victim p99 {} vs uncontended {} ({}×)",
            on.victim_p99,
            on.uncontended_p99,
            on.degradation
        );
        assert_eq!(on.victim_fallbacks, 0, "guaranteed tier never kicked to the kernel");

        let off = hostile_tenant_scenario(4, 2, 32, 40, false, 3);
        assert!(
            off.degradation > on.degradation,
            "unprotected victims must fare worse: {} vs {}",
            off.degradation,
            on.degradation
        );
    }

    #[test]
    fn e17_grid_tracks_max_contexts() {
        let grid = e17_context_grid();
        assert_eq!(grid.first(), Some(&4));
        assert_eq!(grid.last(), Some(&MAX_CONTEXTS));
    }
}
