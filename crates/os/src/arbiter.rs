//! Fair arbitration of NI register contexts.
//!
//! The context cache ([`crate::CtxCache`]) multiplexes thousands of
//! processes onto "say 4 to 8" hardware contexts (§3.1). Without
//! admission control, one hostile or bursty tenant can acquire-steal in
//! a tight loop and evict every other process between each of their
//! posts — the NI equivalent of a TLB-thrashing attack. The arbiter
//! prevents that with two independent mechanisms:
//!
//! * **Per-process token buckets** — every *steal* (an acquisition that
//!   must evict another live process) spends one token; buckets refill
//!   at a fixed simulated-time rate. A well-paced process never notices;
//!   a tight steal loop drains its bucket and is throttled to the §3.2
//!   kernel fallback, which is slower *for the attacker only*.
//! * **Two QoS tiers** — [`QosClass::BestEffort`] processes may only
//!   steal contexts from other best-effort processes;
//!   [`QosClass::Guaranteed`] processes may steal from anyone (the
//!   victim policy still prefers best-effort victims). A hostile
//!   best-effort tenant therefore cannot evict a guaranteed tenant's
//!   context at all: the guaranteed tier's residency is only contended
//!   by its own tier.

use udma_bus::SimTime;

/// The service tier a logical process was admitted at.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Paying/system tier: may steal from either tier (preferring
    /// best-effort victims) and can never be evicted by best-effort.
    Guaranteed,
    /// Default tier: may only steal from other best-effort processes.
    #[default]
    BestEffort,
}

/// Arbiter tunables.
#[derive(Clone, Copy, Debug)]
pub struct ArbiterConfig {
    /// Master switch. Disabled, every steal is admitted and QoS tiers
    /// are ignored — the unprotected baseline E17's hostile-tenant
    /// scenario measures against.
    pub enabled: bool,
    /// Token-bucket capacity (burst allowance): steals a process may
    /// perform back-to-back before pacing kicks in.
    pub burst: u32,
    /// Simulated time to mint one token. A process that steals at most
    /// once per `refill` is never throttled.
    pub refill: SimTime,
    /// Contexts provisioned for the guaranteed tier: best-effort
    /// processes may never occupy more than `num_contexts − reserved`
    /// slots. Without this, a best-effort swarm that grabs every
    /// context *first* and keeps transfers in flight pins them all —
    /// busy contexts cannot be stolen — and starves the guaranteed tier
    /// before eviction protection ever applies. 0 (the default)
    /// reserves nothing; operators admitting guaranteed tenants size it
    /// to that tier. Ignored when the arbiter is disabled.
    pub reserved: u32,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        // A context switch on the Alpha costs ~25 µs; allowing one
        // steal per 20 µs with a burst of 8 paces tenants to roughly
        // the machine's natural multiprogramming rate.
        ArbiterConfig { enabled: true, burst: 8, refill: SimTime::from_us(20), reserved: 0 }
    }
}

impl ArbiterConfig {
    /// The unprotected baseline: all steals admitted, tiers ignored.
    pub fn disabled() -> Self {
        ArbiterConfig { enabled: false, ..ArbiterConfig::default() }
    }
}

/// Arbiter counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Steals admitted (token spent).
    pub admitted: u64,
    /// Steals refused for an empty bucket (caller went to the kernel
    /// fallback).
    pub throttled: u64,
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: u32,
    last_refill: SimTime,
}

/// Token-bucket + QoS-tier admission control for context steals.
#[derive(Clone, Debug)]
pub struct FairArbiter {
    config: ArbiterConfig,
    buckets: Vec<Bucket>,
    classes: Vec<QosClass>,
    stats: ArbiterStats,
}

impl FairArbiter {
    /// Creates the arbiter; processes are added with [`register`](Self::register).
    pub fn new(config: ArbiterConfig) -> Self {
        FairArbiter {
            config,
            buckets: Vec::new(),
            classes: Vec::new(),
            stats: ArbiterStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ArbiterConfig {
        self.config
    }

    /// Arbiter counters.
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// Registers the next logical process (index order = LPid order)
    /// with a full bucket.
    pub fn register(&mut self, class: QosClass, now: SimTime) {
        self.buckets.push(Bucket { tokens: self.config.burst, last_refill: now });
        self.classes.push(class);
    }

    /// Whether a requester of tier `requester` may evict a context owned
    /// by tier `victim`. With the arbiter disabled anyone may evict
    /// anyone.
    pub fn may_evict(&self, requester: QosClass, victim: QosClass) -> bool {
        if !self.config.enabled {
            return true;
        }
        match (requester, victim) {
            (QosClass::Guaranteed, _) => true,
            (QosClass::BestEffort, QosClass::BestEffort) => true,
            (QosClass::BestEffort, QosClass::Guaranteed) => false,
        }
    }

    /// Charges one token for a steal by `p` at `now`. Returns `false`
    /// (and counts a throttle) when the bucket is empty — the caller
    /// must take the kernel fallback instead of evicting anyone.
    pub fn admit_steal(&mut self, p: usize, now: SimTime) -> bool {
        if !self.config.enabled {
            self.stats.admitted += 1;
            return true;
        }
        let b = &mut self.buckets[p];
        // Lazy refill: mint every token earned since the last refill,
        // advancing the refill clock by whole intervals so no fraction
        // of an interval is ever lost or double-counted.
        let interval = self.config.refill.as_ps().max(1);
        let earned = now.saturating_sub(b.last_refill).as_ps() / interval;
        if earned > 0 {
            b.tokens = (b.tokens as u64 + earned).min(self.config.burst as u64) as u32;
            b.last_refill = SimTime::from_ps(b.last_refill.as_ps() + earned * interval);
        }
        if b.tokens == 0 {
            self.stats.throttled += 1;
            return false;
        }
        b.tokens -= 1;
        self.stats.admitted += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle_then_refill() {
        let cfg =
            ArbiterConfig { enabled: true, burst: 2, refill: SimTime::from_us(10), reserved: 0 };
        let mut a = FairArbiter::new(cfg);
        a.register(QosClass::BestEffort, SimTime::ZERO);
        assert!(a.admit_steal(0, SimTime::ZERO));
        assert!(a.admit_steal(0, SimTime::ZERO));
        assert!(!a.admit_steal(0, SimTime::ZERO), "burst exhausted");
        assert_eq!(a.stats().throttled, 1);
        // One refill interval later a single token is back.
        let later = SimTime::from_us(10);
        assert!(a.admit_steal(0, later));
        assert!(!a.admit_steal(0, later));
    }

    #[test]
    fn refill_caps_at_burst() {
        let cfg =
            ArbiterConfig { enabled: true, burst: 3, refill: SimTime::from_us(1), reserved: 0 };
        let mut a = FairArbiter::new(cfg);
        a.register(QosClass::BestEffort, SimTime::ZERO);
        // A very long idle period mints at most `burst` tokens.
        let t = SimTime::from_us(1_000_000);
        for _ in 0..3 {
            assert!(a.admit_steal(0, t));
        }
        assert!(!a.admit_steal(0, t));
    }

    #[test]
    fn qos_eviction_matrix() {
        let mut a = FairArbiter::new(ArbiterConfig::default());
        a.register(QosClass::Guaranteed, SimTime::ZERO);
        assert!(a.may_evict(QosClass::Guaranteed, QosClass::BestEffort));
        assert!(a.may_evict(QosClass::Guaranteed, QosClass::Guaranteed));
        assert!(a.may_evict(QosClass::BestEffort, QosClass::BestEffort));
        assert!(!a.may_evict(QosClass::BestEffort, QosClass::Guaranteed));

        let off = FairArbiter::new(ArbiterConfig::disabled());
        assert!(off.may_evict(QosClass::BestEffort, QosClass::Guaranteed));
    }

    #[test]
    fn disabled_always_admits() {
        let mut a = FairArbiter::new(ArbiterConfig::disabled());
        a.register(QosClass::BestEffort, SimTime::ZERO);
        for _ in 0..100 {
            assert!(a.admit_steal(0, SimTime::ZERO));
        }
        assert_eq!(a.stats().throttled, 0);
    }
}
