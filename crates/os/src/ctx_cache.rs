//! The context cache: thousands of processes on 4–8 register contexts.
//!
//! The paper sizes key-based DMA at "say 4 to 8" register contexts
//! (§3.1) and sends everyone else through the kernel (§3.2). This
//! module builds the OS layer that makes that scale: the hardware
//! contexts become a **cache of active processes**, managed exactly like
//! the IOTLB manages translations —
//!
//! * a pluggable victim policy ([`CtxVictimPolicy`]: LRU, clock,
//!   random — mirroring [`udma_iommu::IotlbReplacement`]);
//! * spill/fill of the full context state
//!   ([`udma_nic::CtxImage`]: key, staged addresses, `CTX_VIRT_*`
//!   window, transfer bookkeeping) through the §3.2 kernel path, every
//!   operation charged in simulated cycles ([`SpillCosts`]);
//! * the steal-vs-in-flight-transfer race guarded by the engine itself:
//!   [`udma_nic::EngineCore::save_context`] refuses busy contexts, and
//!   the victim scan skips them (counted as `busy_skips`);
//! * a fair arbiter ([`crate::FairArbiter`]) so a hostile tenant
//!   stealing in a tight loop only throttles *itself* onto the kernel
//!   fallback and can never evict the guaranteed tier.
//!
//! The cache never sits on the data path: a process whose context is
//! resident posts DMA at full user-level speed with zero OS involvement
//! (a [`Acquired::Hit`] costs nothing). The OS is only entered on a
//! miss — the MProtect-style discipline of multiplexing protection
//! state without interposing on transfers.

use crate::arbiter::{ArbiterConfig, ArbiterStats, FairArbiter, QosClass};
use udma_bus::SimTime;
use udma_cpu::CostModel;
use udma_nic::regs::MAX_CONTEXTS;
use udma_nic::{CtxImage, EngineCore};

/// A logical-process id: an index into the context cache's process
/// table. Distinct from [`udma_cpu::Pid`] — logical processes are
/// registered by the thousands and carry no executor state.
pub type LPid = u32;

/// Victim-selection policy — the same palette as the IOTLB's
/// [`udma_iommu::IotlbReplacement`], so A3/E11-style ablations read
/// across subsystems.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CtxVictimPolicy {
    /// Evict the least-recently-acquired admissible context.
    #[default]
    Lru,
    /// Second-chance clock over the context slots.
    Clock,
    /// Seeded uniform pick among admissible victims.
    Random,
}

impl std::fmt::Display for CtxVictimPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtxVictimPolicy::Lru => write!(f, "lru"),
            CtxVictimPolicy::Clock => write!(f, "clock"),
            CtxVictimPolicy::Random => write!(f, "random"),
        }
    }
}

/// Cycle charges for the §3.2 kernel spill/fill path, per operation.
#[derive(Clone, Copy, Debug)]
pub struct SpillCosts {
    /// Trap into the kernel and back — paid once per miss (the §3.2
    /// "go through the kernel" entry fee).
    pub kernel_entry: SimTime,
    /// One privileged register save or restore (an uncached device
    /// access).
    pub per_op: SimTime,
    /// Register operations in one [`CtxImage`]: the key-table slot, the
    /// 7-word register file (dest/src/size/last-transfer/atomic result/
    /// 2 operands) and the 3-word `CTX_VIRT_*` window.
    pub ops_per_image: u32,
}

impl SpillCosts {
    /// Derives the charges from a machine cost model.
    pub fn from_model(m: &CostModel) -> Self {
        SpillCosts {
            kernel_entry: m.syscall_round_trip(),
            per_op: m.mem_instr(),
            ops_per_image: 11,
        }
    }

    /// Cost of one full spill (or fill) sweep.
    pub fn image_sweep(&self) -> SimTime {
        SimTime::from_ps(self.per_op.as_ps() * self.ops_per_image as u64)
    }
}

impl Default for SpillCosts {
    fn default() -> Self {
        SpillCosts::from_model(&CostModel::alpha_3000_300())
    }
}

/// Context-cache tunables.
#[derive(Clone, Copy, Debug)]
pub struct CtxCacheConfig {
    /// Victim-selection policy.
    pub victim: CtxVictimPolicy,
    /// Seed for key minting and the random victim policy.
    pub seed: u64,
    /// Key width in bits (61 in the paper's layout; tests shrink it).
    pub key_bits: u32,
    /// Kernel spill/fill cycle charges.
    pub costs: SpillCosts,
    /// Steal admission control.
    pub arbiter: ArbiterConfig,
}

impl Default for CtxCacheConfig {
    fn default() -> Self {
        CtxCacheConfig {
            victim: CtxVictimPolicy::default(),
            seed: 0x5EED_C7C5,
            key_bits: 61,
            costs: SpillCosts::default(),
            arbiter: ArbiterConfig::default(),
        }
    }
}

/// Context-cache counters (OS view; the NI keeps its own
/// [`udma_nic::CtxStats`] mirror of the hardware-visible events).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxCacheStats {
    /// Acquisitions satisfied by residency — zero OS involvement.
    pub hits: u64,
    /// Acquisitions that entered the kernel.
    pub misses: u64,
    /// Contexts spilled (steals plus voluntary releases).
    pub spills: u64,
    /// Contexts filled.
    pub fills: u64,
    /// Misses that evicted another live process.
    pub steals: u64,
    /// Victim candidates skipped because their context was busy (the
    /// steal-vs-in-flight guard).
    pub busy_skips: u64,
    /// Misses refused a steal by the token bucket (kernel fallback).
    pub throttled: u64,
    /// Misses with no admissible victim at all (kernel fallback).
    pub starved: u64,
}

/// Outcome of [`CtxCache::acquire`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquired {
    /// The process was already resident: post at user level, free.
    Hit {
        /// The resident context.
        ctx: u32,
    },
    /// The kernel filled a context (stealing one if `stole` names a
    /// victim) and charged `cost`.
    Filled {
        /// The now-resident context.
        ctx: u32,
        /// The process that was evicted to make room, if any.
        stole: Option<LPid>,
        /// Kernel entry + spill sweep (when stealing) + fill sweep.
        cost: SimTime,
    },
    /// The token bucket refused the steal; the post must take the §3.2
    /// kernel DMA path. `cost` is the fruitless kernel entry.
    Throttled {
        /// The fruitless kernel entry charge.
        cost: SimTime,
    },
    /// Every potential victim was busy or QoS-protected; kernel DMA
    /// path. `cost` is the fruitless kernel entry (victim scan
    /// included).
    Starved {
        /// The fruitless kernel entry charge.
        cost: SimTime,
    },
}

impl Acquired {
    /// The acquired context, when the post may go user-level.
    pub fn ctx(&self) -> Option<u32> {
        match self {
            Acquired::Hit { ctx } | Acquired::Filled { ctx, .. } => Some(*ctx),
            _ => None,
        }
    }

    /// Simulated time the acquisition charged (zero on a hit).
    pub fn cost(&self) -> SimTime {
        match self {
            Acquired::Hit { .. } => SimTime::ZERO,
            Acquired::Filled { cost, .. }
            | Acquired::Throttled { cost }
            | Acquired::Starved { cost } => *cost,
        }
    }

    /// Whether the post must fall back to the kernel DMA path.
    pub fn fallback(&self) -> bool {
        matches!(self, Acquired::Throttled { .. } | Acquired::Starved { .. })
    }
}

#[derive(Clone, Debug)]
struct Proc {
    key: u64,
    class: QosClass,
    /// Spilled state, present iff not resident (a never-yet-filled
    /// process holds its pristine image: key + empty registers).
    image: Option<CtxImage>,
    resident: Option<u32>,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    owner: Option<LPid>,
    /// Monotone acquisition sequence number (LRU order; a counter, not
    /// sim time, so same-instant acquisitions stay strictly ordered).
    last_use: u64,
    /// Second-chance bit for the clock policy.
    referenced: bool,
}

/// The OS context cache: owns the process table, the residency map and
/// the victim policy; drives the engine's spill/fill hooks.
#[derive(Clone, Debug)]
pub struct CtxCache {
    procs: Vec<Proc>,
    slots: Vec<Slot>,
    policy: CtxVictimPolicy,
    costs: SpillCosts,
    arbiter: FairArbiter,
    key_state: u64,
    key_bits: u32,
    rng_state: u64,
    clock_hand: usize,
    use_seq: u64,
    stats: CtxCacheStats,
}

impl CtxCache {
    /// Creates a cache over `num_contexts` hardware contexts.
    ///
    /// # Panics
    ///
    /// Panics if `num_contexts` is 0 or exceeds the NI's
    /// [`MAX_CONTEXTS`] — the one shared definition of the context
    /// count, so the OS-side assumption cannot drift from the register
    /// map.
    pub fn new(num_contexts: u32, config: CtxCacheConfig) -> Self {
        assert!(
            (1..=MAX_CONTEXTS).contains(&num_contexts),
            "context count out of range (NI supports 1..={MAX_CONTEXTS})"
        );
        assert!((1..=61).contains(&config.key_bits), "key width out of range");
        CtxCache {
            procs: Vec::new(),
            slots: vec![
                Slot { owner: None, last_use: 0, referenced: false };
                num_contexts as usize
            ],
            policy: config.victim,
            costs: config.costs,
            arbiter: FairArbiter::new(config.arbiter),
            key_state: config.seed,
            key_bits: config.key_bits,
            rng_state: config.seed ^ 0x9E37_79B9_7F4A_7C15,
            clock_hand: 0,
            use_seq: 0,
            stats: CtxCacheStats::default(),
        }
    }

    /// Hardware contexts under management.
    pub fn num_contexts(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Logical processes registered.
    pub fn processes(&self) -> u32 {
        self.procs.len() as u32
    }

    /// OS-side counters.
    pub fn stats(&self) -> CtxCacheStats {
        self.stats
    }

    /// Arbiter counters.
    pub fn arbiter_stats(&self) -> ArbiterStats {
        self.arbiter.stats()
    }

    /// Registers a logical process at tier `class`, minting its key.
    /// Cheap — no hardware context is touched until the first
    /// [`acquire`](Self::acquire), so registering 100k processes is
    /// O(100k) table slots.
    pub fn register(&mut self, class: QosClass, now: SimTime) -> LPid {
        let key = self.mint_key();
        self.procs.push(Proc {
            key,
            class,
            image: Some(CtxImage { key, ..CtxImage::default() }),
            resident: None,
        });
        self.arbiter.register(class, now);
        (self.procs.len() - 1) as LPid
    }

    /// The key minted for `p` (what the kernel hands the process at
    /// registration — possession authorises its keyed stores).
    pub fn key_of(&self, p: LPid) -> u64 {
        self.procs[p as usize].key
    }

    /// The tier `p` was admitted at.
    pub fn class_of(&self, p: LPid) -> QosClass {
        self.procs[p as usize].class
    }

    /// The context `p` currently holds, if resident.
    pub fn resident(&self, p: LPid) -> Option<u32> {
        self.procs[p as usize].resident
    }

    /// Ensures `p` holds a hardware context, spilling a victim through
    /// the engine's kernel hooks if necessary. The outcome says which
    /// path the post must take and what the acquisition cost.
    pub fn acquire(&mut self, p: LPid, core: &mut EngineCore, now: SimTime) -> Acquired {
        let pi = p as usize;
        if let Some(ctx) = self.procs[pi].resident {
            self.touch(ctx as usize);
            self.stats.hits += 1;
            return Acquired::Hit { ctx };
        }
        self.stats.misses += 1;

        // A free slot needs no victim and no admission: fill it —
        // unless the requester is best-effort and its tier is already
        // at the provisioned cap (`num_contexts − reserved`). A capped
        // best-effort tenant must steal from its *own* tier instead
        // (keeping the tier's occupancy constant), so the reserved
        // slots stay reachable for guaranteed tenants even when the
        // best-effort swarm arrives first and pins its contexts with
        // in-flight transfers.
        let requester = self.procs[pi].class;
        let cfg = self.arbiter.config();
        let be_capped = cfg.enabled
            && requester == QosClass::BestEffort
            && self.best_effort_resident()
                >= self.slots.len() as u32 - cfg.reserved.min(self.slots.len() as u32);
        if !be_capped {
            if let Some(free) = self.slots.iter().position(|s| s.owner.is_none()) {
                let cost = SimTime::from_ps(
                    self.costs.kernel_entry.as_ps() + self.costs.image_sweep().as_ps(),
                );
                self.fill(p, free as u32, core);
                return Acquired::Filled { ctx: free as u32, stole: None, cost };
            }
        }

        // Full cache: stealing needs a token.
        if !self.arbiter.admit_steal(pi, now) {
            self.stats.throttled += 1;
            return Acquired::Throttled { cost: self.costs.kernel_entry };
        }

        match self.select_victim(requester, core, now) {
            Some(slot) => {
                let victim = self.slots[slot].owner.expect("victim slot is owned");
                // The scan only offered non-busy slots, and nothing ran
                // between scan and save (single-threaded kernel), so
                // the engine accepts the spill.
                let image = core
                    .save_context(slot as u32, now)
                    .expect("victim scan only offers non-busy contexts");
                let vi = victim as usize;
                self.procs[vi].image = Some(image);
                self.procs[vi].resident = None;
                core.note_ctx_steal();
                self.stats.steals += 1;
                self.stats.spills += 1;
                let cost = SimTime::from_ps(
                    self.costs.kernel_entry.as_ps() + 2 * self.costs.image_sweep().as_ps(),
                );
                self.fill(p, slot as u32, core);
                Acquired::Filled { ctx: slot as u32, stole: Some(victim), cost }
            }
            None => {
                self.stats.starved += 1;
                core.note_ctx_starvation();
                Acquired::Starved { cost: self.costs.kernel_entry }
            }
        }
    }

    /// Voluntarily yields `p`'s context (process exit or quiesce): the
    /// state is spilled and the slot freed. Returns `false` (context
    /// kept) when the context is still busy with an in-flight transfer.
    pub fn release(&mut self, p: LPid, core: &mut EngineCore, now: SimTime) -> bool {
        let pi = p as usize;
        let Some(ctx) = self.procs[pi].resident else {
            return true;
        };
        match core.save_context(ctx, now) {
            Ok(image) => {
                self.procs[pi].image = Some(image);
                self.procs[pi].resident = None;
                self.slots[ctx as usize].owner = None;
                self.stats.spills += 1;
                true
            }
            Err(_) => {
                self.stats.busy_skips += 1;
                false
            }
        }
    }

    fn fill(&mut self, p: LPid, ctx: u32, core: &mut EngineCore) {
        let pi = p as usize;
        let image = self.procs[pi].image.take().expect("non-resident process holds its image");
        core.restore_context(ctx, &image);
        self.procs[pi].resident = Some(ctx);
        self.slots[ctx as usize].owner = Some(p);
        self.touch(ctx as usize);
        self.stats.fills += 1;
    }

    /// Slots currently occupied by best-effort processes.
    fn best_effort_resident(&self) -> u32 {
        self.slots
            .iter()
            .filter(|s| {
                s.owner.is_some_and(|o| self.procs[o as usize].class == QosClass::BestEffort)
            })
            .count() as u32
    }

    fn touch(&mut self, slot: usize) {
        self.use_seq += 1;
        self.slots[slot].last_use = self.use_seq;
        self.slots[slot].referenced = true;
    }

    /// Picks a victim slot for `requester`, honouring QoS admissibility
    /// and skipping busy contexts. Guaranteed requesters scan the
    /// best-effort tier first so guaranteed residents are only evicted
    /// when no best-effort victim exists.
    fn select_victim(
        &mut self,
        requester: QosClass,
        core: &EngineCore,
        now: SimTime,
    ) -> Option<usize> {
        // Best-effort victims are scanned first (so guaranteed
        // residents are a last resort); `may_evict` hides the
        // guaranteed tier from best-effort requesters entirely.
        for tier in [QosClass::BestEffort, QosClass::Guaranteed] {
            let mut candidates = Vec::new();
            for (i, s) in self.slots.iter().enumerate() {
                let Some(owner) = s.owner else { continue };
                let class = self.procs[owner as usize].class;
                if class != tier || !self.arbiter.may_evict(requester, class) {
                    continue;
                }
                if core.context_busy(i as u32, now) {
                    self.stats.busy_skips += 1;
                    continue;
                }
                candidates.push(i);
            }
            if candidates.is_empty() {
                continue;
            }
            return Some(match self.policy {
                CtxVictimPolicy::Lru => {
                    *candidates.iter().min_by_key(|&&i| self.slots[i].last_use).expect("non-empty")
                }
                CtxVictimPolicy::Clock => self.clock_pick(&candidates),
                CtxVictimPolicy::Random => {
                    candidates[(self.next_rand() % candidates.len() as u64) as usize]
                }
            });
        }
        None
    }

    /// Second-chance sweep from the hand over the candidate set: a set
    /// referenced bit buys one more round (and is cleared); the first
    /// unreferenced candidate at or past the hand is evicted. Two full
    /// sweeps bound the scan — after the first cleared everything, the
    /// second must pick.
    fn clock_pick(&mut self, candidates: &[usize]) -> usize {
        let n = self.slots.len();
        for _ in 0..2 * n {
            let i = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % n;
            if !candidates.contains(&i) {
                continue;
            }
            if self.slots[i].referenced {
                self.slots[i].referenced = false;
            } else {
                return i;
            }
        }
        candidates[0]
    }

    fn mint_key(&mut self) -> u64 {
        let key = splitmix(&mut self.key_state) & ((1u64 << self.key_bits) - 1);
        // Key 0 is reserved (unprogrammed slots read 0).
        if key == 0 {
            1
        } else {
            key
        }
    }

    fn next_rand(&mut self) -> u64 {
        splitmix(&mut self.rng_state)
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_bus::MemPort;
    use udma_mem::{PhysAddr, PhysLayout, PhysMemory};
    use udma_nic::{EngineConfig, Initiator};

    fn engine(contexts: u32) -> EngineCore {
        let layout = PhysLayout::default();
        EngineCore::new(layout, EngineConfig { num_contexts: contexts, ..EngineConfig::default() })
    }

    fn cache(contexts: u32) -> CtxCache {
        CtxCache::new(contexts, CtxCacheConfig::default())
    }

    #[test]
    fn hits_are_free_and_fills_charge() {
        let mut core = engine(2);
        let mut c = cache(2);
        let p = c.register(QosClass::BestEffort, SimTime::ZERO);
        let a = c.acquire(p, &mut core, SimTime::ZERO);
        assert!(matches!(a, Acquired::Filled { stole: None, .. }));
        assert!(a.cost() > SimTime::ZERO);
        // The key landed in the NI key table.
        assert_eq!(core.key(a.ctx().unwrap()), c.key_of(p));
        let b = c.acquire(p, &mut core, SimTime::ZERO);
        assert_eq!(b, Acquired::Hit { ctx: a.ctx().unwrap() });
        assert_eq!(b.cost(), SimTime::ZERO);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_steals_the_coldest() {
        let mut core = engine(2);
        let mut c = cache(2);
        let p0 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let p1 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let p2 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let c0 = c.acquire(p0, &mut core, SimTime::ZERO).ctx().unwrap();
        let _c1 = c.acquire(p1, &mut core, SimTime::ZERO).ctx().unwrap();
        // Touch p0 again: p1 is now the LRU victim.
        c.acquire(p0, &mut core, SimTime::ZERO);
        let a = c.acquire(p2, &mut core, SimTime::ZERO);
        assert!(matches!(a, Acquired::Filled { stole: Some(v), .. } if v == p1));
        assert_ne!(a.ctx().unwrap(), c0);
        assert_eq!(c.resident(p1), None);
        assert_eq!(core.ctx_stats().steals, 1);
    }

    #[test]
    fn spilled_process_refills_with_same_key() {
        let mut core = engine(1);
        let mut c = cache(1);
        let p0 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let p1 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let k0 = c.key_of(p0);
        c.acquire(p0, &mut core, SimTime::ZERO);
        // Stage an argument, get stolen, come back: the argument and
        // key survive the round trip.
        core.context_mut(0).push_addr(PhysAddr::new(0x4000));
        c.acquire(p1, &mut core, SimTime::from_us(100));
        assert_eq!(c.resident(p0), None);
        let a = c.acquire(p0, &mut core, SimTime::from_us(200));
        assert!(matches!(a, Acquired::Filled { stole: Some(v), .. } if v == p1));
        assert_eq!(core.key(0), k0);
        assert_eq!(core.context(0).dest(), Some(PhysAddr::new(0x4000)));
    }

    #[test]
    fn busy_victims_are_skipped() {
        let mut core = engine(2);
        let mut c = cache(2);
        let p0 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let p1 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let p2 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let c0 = c.acquire(p0, &mut core, SimTime::ZERO).ctx().unwrap();
        let c1 = c.acquire(p1, &mut core, SimTime::ZERO).ctx().unwrap();
        // p0's context (the LRU victim) is mid-transfer: the steal must
        // take p1's instead.
        let idx = core
            .start_user_dma(
                PhysAddr::new(0x2000),
                PhysAddr::new(0x6000),
                4096,
                Initiator::Context(c0),
                SimTime::ZERO,
                &mut MemPort::flat(PhysMemory::new(1 << 22)),
            )
            .unwrap();
        core.context_mut(c0).set_last_transfer(idx);
        let a = c.acquire(p2, &mut core, SimTime::ZERO);
        assert_eq!(a.ctx(), Some(c1));
        assert!(matches!(a, Acquired::Filled { stole: Some(v), .. } if v == p1));
        assert!(c.stats().busy_skips >= 1);
    }

    #[test]
    fn all_victims_busy_means_starved() {
        let mut core = engine(1);
        let mut c = cache(1);
        let p0 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let p1 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let c0 = c.acquire(p0, &mut core, SimTime::ZERO).ctx().unwrap();
        let idx = core
            .start_user_dma(
                PhysAddr::new(0x2000),
                PhysAddr::new(0x6000),
                4096,
                Initiator::Context(c0),
                SimTime::ZERO,
                &mut MemPort::flat(PhysMemory::new(1 << 22)),
            )
            .unwrap();
        core.context_mut(c0).set_last_transfer(idx);
        let a = c.acquire(p1, &mut core, SimTime::ZERO);
        assert!(matches!(a, Acquired::Starved { .. }));
        assert!(a.fallback());
        assert_eq!(core.ctx_stats().starvations, 1);
    }

    #[test]
    fn best_effort_cannot_evict_guaranteed() {
        let mut core = engine(1);
        let mut c = cache(1);
        let g = c.register(QosClass::Guaranteed, SimTime::ZERO);
        let b = c.register(QosClass::BestEffort, SimTime::ZERO);
        c.acquire(g, &mut core, SimTime::ZERO);
        let a = c.acquire(b, &mut core, SimTime::ZERO);
        assert!(matches!(a, Acquired::Starved { .. }), "got {a:?}");
        assert_eq!(c.resident(g), Some(0), "guaranteed tenant keeps its context");
        // The guaranteed tenant can evict best-effort, though.
        let mut core2 = engine(1);
        let mut c2 = cache(1);
        let b2 = c2.register(QosClass::BestEffort, SimTime::ZERO);
        let g2 = c2.register(QosClass::Guaranteed, SimTime::ZERO);
        c2.acquire(b2, &mut core2, SimTime::ZERO);
        let a2 = c2.acquire(g2, &mut core2, SimTime::ZERO);
        assert!(matches!(a2, Acquired::Filled { stole: Some(v), .. } if v == b2));
    }

    #[test]
    fn reservation_keeps_slots_for_guaranteed() {
        // 2 contexts, 1 reserved. The best-effort swarm arrives first
        // and pins its context with an in-flight transfer; the
        // guaranteed tenant must still find a slot.
        let mut core = engine(2);
        let mut c = CtxCache::new(
            2,
            CtxCacheConfig {
                arbiter: ArbiterConfig { reserved: 1, ..ArbiterConfig::default() },
                ..CtxCacheConfig::default()
            },
        );
        let b0 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let b1 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let g = c.register(QosClass::Guaranteed, SimTime::ZERO);
        let cb = c.acquire(b0, &mut core, SimTime::ZERO).ctx().unwrap();
        let idx = core
            .start_user_dma(
                PhysAddr::new(0x2000),
                PhysAddr::new(0x6000),
                4096,
                Initiator::Context(cb),
                SimTime::ZERO,
                &mut MemPort::flat(PhysMemory::new(1 << 22)),
            )
            .unwrap();
        core.context_mut(cb).set_last_transfer(idx);
        // The second best-effort tenant is capped: the free slot is
        // reserved, its only same-tier victim is busy → starved.
        let a1 = c.acquire(b1, &mut core, SimTime::ZERO);
        assert!(matches!(a1, Acquired::Starved { .. }), "got {a1:?}");
        // The guaranteed tenant takes the reserved free slot.
        let ag = c.acquire(g, &mut core, SimTime::ZERO);
        assert!(matches!(ag, Acquired::Filled { stole: None, .. }), "got {ag:?}");
    }

    #[test]
    fn tight_steal_loop_throttles() {
        let mut core = engine(1);
        let mut c = cache(1);
        let p0 = c.register(QosClass::BestEffort, SimTime::ZERO);
        let p1 = c.register(QosClass::BestEffort, SimTime::ZERO);
        // Ping-pong at the same instant: after the two buckets drain
        // (2 × burst steals), further steals are throttled.
        let mut throttled = 0;
        for i in 0..64 {
            let p = if i % 2 == 0 { p0 } else { p1 };
            if matches!(c.acquire(p, &mut core, SimTime::ZERO), Acquired::Throttled { .. }) {
                throttled += 1;
            }
        }
        assert!(throttled > 0, "tight loop must hit the token bucket");
        assert_eq!(c.stats().throttled, throttled);
        // Paced steals (one per refill) are admitted again.
        let cfg = ArbiterConfig::default();
        let later = SimTime::from_ps(cfg.refill.as_ps() * 1000);
        assert!(!c.acquire(p0, &mut core, later).fallback());
    }

    #[test]
    fn release_frees_the_slot() {
        let mut core = engine(2);
        let mut c = cache(2);
        let p = c.register(QosClass::BestEffort, SimTime::ZERO);
        c.acquire(p, &mut core, SimTime::ZERO);
        assert!(c.release(p, &mut core, SimTime::ZERO));
        assert_eq!(c.resident(p), None);
        assert_eq!(core.key(0), 0, "released slot is scrubbed");
        // Re-acquire refills into a free slot without stealing.
        let a = c.acquire(p, &mut core, SimTime::ZERO);
        assert!(matches!(a, Acquired::Filled { stole: None, .. }));
    }

    #[test]
    fn policies_are_deterministic_per_seed() {
        for policy in [CtxVictimPolicy::Lru, CtxVictimPolicy::Clock, CtxVictimPolicy::Random] {
            let run = || {
                let mut core = engine(4);
                let mut c = CtxCache::new(
                    4,
                    CtxCacheConfig { victim: policy, seed: 99, ..CtxCacheConfig::default() },
                );
                let ps: Vec<LPid> =
                    (0..16).map(|_| c.register(QosClass::BestEffort, SimTime::ZERO)).collect();
                let mut trace = Vec::new();
                for round in 0..64u64 {
                    let p = ps[(round * 7 % 16) as usize];
                    let a = c.acquire(p, &mut core, SimTime::from_us(round));
                    trace.push(a.ctx());
                }
                trace
            };
            assert_eq!(run(), run(), "{policy} must be deterministic");
        }
    }

    #[test]
    #[should_panic(expected = "context count out of range")]
    fn too_many_contexts_panics() {
        let _ = CtxCache::new(MAX_CONTEXTS + 1, CtxCacheConfig::default());
    }
}
