//! Context virtualization end to end: the spill/fill round-trip oracle
//! property, exhaustive interleaving coverage of the
//! steal-vs-in-flight-transfer race, the Machine logical-process
//! surface, and the E17 QoS acceptance bound.

use udma::{DmaMethod, Machine, MachineConfig, PostPath};
use udma_bus::{MemPort, SimTime};
use udma_iommu::IotlbConfig;
use udma_mem::{PhysAddr, PhysLayout, PhysMemory};
use udma_nic::{regs, CtxBusy, EngineConfig, EngineCore, Initiator, VirtDmaConfig};
use udma_os::{ArbiterConfig, CtxCacheConfig, CtxVictimPolicy, QosClass};
use udma_testkit::sched::{explore, Budget};
use udma_testkit::{prop_assert_eq, props};
use udma_workloads::hostile_tenant_scenario;

fn engine(contexts: u32) -> (EngineCore, MemPort) {
    let layout = PhysLayout::default();
    let mem = MemPort::flat(PhysMemory::new(1 << 22));
    let core =
        EngineCore::new(layout, EngineConfig { num_contexts: contexts, ..EngineConfig::default() });
    (core, mem)
}

props! {
    config(cases = 96);

    /// Oracle property: a context that is spilled and refilled — at any
    /// point of a random staging-operation sequence, any number of
    /// times, through any slot — is observationally identical to a
    /// context that was never touched by the cache. The oracle context
    /// receives the same operation stream with no spills; at the end,
    /// register file, key, and `CTX_VIRT_*` window must match exactly.
    fn spill_fill_round_trip_is_invisible(
        key in 1u64..1_000_000,
        ops in 0u64..u64::MAX,
        spill_mask in 0u64..u64::MAX,
        via_slot in 0u32..2,
    ) {
        let (mut subject, mut smem) = engine(4);
        let (mut oracle, mut omem) = engine(4);
        for core in [&mut subject, &mut oracle] {
            // The CTX_VIRT_* staging window belongs to the VA unit.
            core.enable_iommu(IotlbConfig::default(), VirtDmaConfig::default());
            core.set_key(0, key);
        }

        let mut op_bits = ops;
        let mut spills = spill_mask;
        for step in 0..16u64 {
            let op = op_bits % 6;
            op_bits /= 6;
            let arg = 0x1000 + step * 8;
            for (core, mem) in [(&mut subject, &mut smem), (&mut oracle, &mut omem)] {
                match op {
                    0 => core.context_mut(0).push_addr(PhysAddr::new(arg)),
                    1 => core.context_mut(0).set_size(arg),
                    2 => core.context_mut(0).set_atomic_operand((step % 2) as usize, arg),
                    3 => core.context_mut(0).set_atomic_result(arg),
                    4 => core.ctx_virt_store(0, regs::CTX_VIRT_SRC, arg, SimTime::ZERO, mem),
                    _ => core.ctx_virt_store(0, regs::CTX_VIRT_DST, arg, SimTime::ZERO, mem),
                }
            }
            // Subject only: maybe spill here, bounce through another
            // slot, and come back. The oracle never spills.
            if spills % 4 == 0 {
                let image = subject.save_context(0, SimTime::ZERO)
                    .expect("idle context must be spillable");
                prop_assert_eq!(subject.key(0), 0, "spilled slot must be scrubbed");
                if via_slot == 1 {
                    // Park the image in a different slot first — the
                    // image, not the slot, carries the state.
                    subject.restore_context(2, &image);
                    let moved = subject.save_context(2, SimTime::ZERO)
                        .expect("parked context is idle");
                    subject.restore_context(0, &moved);
                } else {
                    subject.restore_context(0, &image);
                }
            }
            spills /= 4;
        }

        prop_assert_eq!(subject.key(0), oracle.key(0), "key must survive");
        prop_assert_eq!(*subject.context(0), *oracle.context(0), "register file must survive");
        prop_assert_eq!(
            subject.virt().unwrap().ctx_load(0, regs::CTX_VIRT_SRC, SimTime::ZERO),
            oracle.virt().unwrap().ctx_load(0, regs::CTX_VIRT_SRC, SimTime::ZERO),
            "CTX_VIRT_SRC must survive"
        );
        prop_assert_eq!(
            subject.virt().unwrap().ctx_load(0, regs::CTX_VIRT_DST, SimTime::ZERO),
            oracle.virt().unwrap().ctx_load(0, regs::CTX_VIRT_DST, SimTime::ZERO),
            "CTX_VIRT_DST must survive"
        );

        // Behavioural check: both post with whatever arguments the
        // sequence staged, and must agree on accept/reject.
        let s_args = subject.context_mut(0).take_args();
        let o_args = oracle.context_mut(0).take_args();
        prop_assert_eq!(s_args, o_args, "staged arguments must survive");
    }
}

/// The steal-vs-in-flight-transfer race, explored exhaustively. Thread
/// V (victim, context 0) stages and posts a transfer, then lets the
/// wire drain; thread S (the OS) tries to steal context 0 at every
/// point. Invariants, on every one of the 10 interleavings:
/// * a save succeeds iff the context was not busy at that instant —
///   the engine, not scheduling luck, is the guard;
/// * the payload arrives at the destination intact no matter where the
///   steals landed;
/// * every denied save is counted.
#[test]
fn steal_vs_in_flight_transfer_exhaustive() {
    const SIZE: u64 = 512;
    let src = 0x2000u64;
    let dst = 0x6000u64;

    // V: [stage+post, drain]; S: [steal, steal, steal].
    let report = explore(&[2, 3], Budget::new(1_000, 0), |schedule| {
        let (mut core, mut mem) = engine(2);
        let payload: Vec<u8> = (0..SIZE as usize).map(|i| (i * 13 + 5) as u8).collect();
        mem.ram_mut().write_bytes(PhysAddr::new(src), &payload).unwrap();
        core.set_key(0, 0xFEED);

        let mut now = SimTime::ZERO;
        let mut v_step = 0;
        let mut saves = 0u64;
        let mut denials = 0u64;
        for &actor in schedule {
            if actor == 0 {
                // Victim thread.
                if v_step == 0 {
                    let idx = core
                        .start_user_dma(
                            PhysAddr::new(src),
                            PhysAddr::new(dst),
                            SIZE,
                            Initiator::Context(0),
                            now,
                            &mut mem,
                        )
                        .expect("post accepted");
                    core.context_mut(0).set_last_transfer(idx);
                } else {
                    // Drain: jump past the transfer's completion.
                    now = SimTime::from_us(100_000);
                }
                v_step += 1;
            } else {
                // OS thread: attempt the steal.
                let busy_before = core.context_busy(0, now);
                match core.save_context(0, now) {
                    Ok(image) => {
                        assert!(!busy_before, "save succeeded on a busy context");
                        saves += 1;
                        // Hand the slot to someone else, then restore
                        // the victim — the usual steal/refill cycle.
                        core.set_key(0, 0xDEAD);
                        core.restore_context(0, &image);
                    }
                    Err(e) => {
                        assert!(busy_before, "save denied on an idle context: {e:?}");
                        assert_eq!(e, CtxBusy::Transfer);
                        denials += 1;
                    }
                }
            }
        }
        assert_eq!(core.ctx_stats().busy_denials, denials);
        assert_eq!(core.ctx_stats().spills, saves);

        // The payload always lands intact: steals never corrupt an
        // in-flight transfer because busy contexts refuse to spill.
        let mut got = vec![0u8; SIZE as usize];
        mem.ram_mut().read_bytes(PhysAddr::new(dst), &mut got).unwrap();
        (got != payload).then(|| format!("payload corrupted (saves={saves} denials={denials})"))
    });
    assert!(report.exhaustive, "the 10-schedule space must be fully enumerated");
    assert_eq!(report.schedules, 10);
    assert!(report.safe(), "findings: {:?}", report.findings);
}

/// The same race through the OS cache: a hostile process tries to
/// acquire while the victim's transfer is in flight. The cache must
/// route the hostile acquisition away from the busy context (another
/// victim, or starvation) on every interleaving.
#[test]
fn cache_steal_respects_in_flight_exhaustive() {
    let report = explore(&[2, 2], Budget::new(1_000, 0), |schedule| {
        let (mut core, mut mem) = engine(1);
        let mut cache = udma_os::CtxCache::new(1, CtxCacheConfig::default());
        let victim = cache.register(QosClass::BestEffort, SimTime::ZERO);
        let hostile = cache.register(QosClass::BestEffort, SimTime::ZERO);
        cache.acquire(victim, &mut core, SimTime::ZERO);

        let mut now = SimTime::ZERO;
        let mut v_step = 0;
        for &actor in schedule {
            if actor == 0 {
                if v_step == 0 {
                    // Re-acquire first: a hostile steal may have
                    // displaced the victim before it got to post.
                    let ctx = cache
                        .acquire(victim, &mut core, now)
                        .ctx()
                        .expect("the hostile context is idle, so the victim can always win it");
                    let idx = core
                        .start_user_dma(
                            PhysAddr::new(0x2000),
                            PhysAddr::new(0x6000),
                            512,
                            Initiator::Context(ctx),
                            now,
                            &mut mem,
                        )
                        .expect("post accepted");
                    core.context_mut(ctx).set_last_transfer(idx);
                } else {
                    now = SimTime::from_us(100_000);
                }
                v_step += 1;
            } else {
                let busy =
                    cache.resident(victim).map(|c| core.context_busy(c, now)).unwrap_or(false);
                let acq = cache.acquire(hostile, &mut core, now);
                if busy {
                    // The only context belongs to a busy victim: the
                    // hostile acquisition must not get it.
                    if acq.ctx().is_some() {
                        return Some(format!("stole a busy context: {acq:?}"));
                    }
                }
            }
        }
        None
    });
    assert!(report.exhaustive);
    assert!(report.safe(), "findings: {:?}", report.findings);
}

#[test]
fn machine_logical_posts_move_real_data() {
    let mut config = MachineConfig::new(DmaMethod::KeyBased);
    config.num_contexts = 1;
    let mut m = Machine::new(config);
    m.enable_ctx_virtualization(CtxCacheConfig {
        victim: CtxVictimPolicy::Lru,
        ..CtxCacheConfig::default()
    });
    let a = m.register_logical(QosClass::BestEffort);
    let b = m.register_logical(QosClass::BestEffort);
    assert_ne!(
        m.ctx_cache().unwrap().key_of(a),
        m.ctx_cache().unwrap().key_of(b),
        "every logical process gets its own key"
    );

    let payload: Vec<u8> = (0..256).map(|i| (i * 7 + 3) as u8).collect();
    m.memory().borrow_mut().write_bytes(PhysAddr::new(0x2000), &payload).unwrap();

    // a posts, drains, then b posts (stealing a's context), drains,
    // then a posts again (stealing back).
    let mut now = SimTime::ZERO;
    let p1 = m.logical_post_at(a, PhysAddr::new(0x2000), PhysAddr::new(0x6000), 256, now);
    assert!(matches!(p1.path, PostPath::UserLevel { ctx: 0, stole: None }));
    now += SimTime::from_us(200);
    let p2 = m.logical_post_at(b, PhysAddr::new(0x2000), PhysAddr::new(0x8000), 256, now);
    assert!(
        matches!(p2.path, PostPath::UserLevel { ctx: 0, stole: Some(v) } if v == a),
        "b must steal a's context: {:?}",
        p2.path
    );
    assert!(p2.initiation > p1.initiation, "a steal costs more than a fresh fill's post");
    now += SimTime::from_us(200);
    let p3 = m.logical_post_at(a, PhysAddr::new(0x2000), PhysAddr::new(0xA000), 256, now);
    assert!(p3.stole());

    for dst in [0x6000u64, 0x8000, 0xA000] {
        let mut got = vec![0u8; 256];
        m.memory().borrow().read_bytes(PhysAddr::new(dst), &mut got).unwrap();
        assert_eq!(got, payload, "post to {dst:#x} lost data");
    }

    // The NI counters tell the story: 2 steals, 2 spills, 3 fills.
    let ni = m.engine().core().ctx_stats();
    assert_eq!(ni.steals, 2);
    assert_eq!(ni.spills, 2);
    assert_eq!(ni.fills, 3);
    assert_eq!(m.engine().core().stats().started, 3);
}

#[test]
fn machine_kernel_fallback_still_transfers() {
    // One context, one resident process with an endless transfer in
    // flight: a second process's post must take the kernel path and
    // still move the bytes.
    let mut config = MachineConfig::new(DmaMethod::KeyBased);
    config.num_contexts = 1;
    let mut m = Machine::new(config);
    m.enable_ctx_virtualization(CtxCacheConfig::default());
    let a = m.register_logical(QosClass::BestEffort);
    let b = m.register_logical(QosClass::BestEffort);

    let payload: Vec<u8> = (0..128).map(|i| (i * 3 + 1) as u8).collect();
    m.memory().borrow_mut().write_bytes(PhysAddr::new(0x2000), &payload).unwrap();

    m.logical_post_at(a, PhysAddr::new(0x2000), PhysAddr::new(0x6000), 4096, SimTime::ZERO);
    // 1 µs in, a's 4 KB transfer is still on the wire: b is starved.
    let p = m.logical_post_at(
        b,
        PhysAddr::new(0x2000),
        PhysAddr::new(0x8000),
        128,
        SimTime::from_us(1),
    );
    assert_eq!(p.path, PostPath::KernelFallback { throttled: false });
    assert!(p.record.is_some(), "the kernel path still starts the transfer");
    let mut got = vec![0u8; 128];
    m.memory().borrow().read_bytes(PhysAddr::new(0x8000), &mut got).unwrap();
    assert_eq!(got, payload);
    assert_eq!(m.engine().core().ctx_stats().starvations, 1);
}

/// E17 acceptance bound: with QoS enabled, a hostile bursty tenant
/// cannot push a well-behaved (guaranteed-tier) tenant's p99 initiation
/// above 2× its uncontended value.
#[test]
fn qos_bounds_hostile_tenant_damage() {
    let row = hostile_tenant_scenario(6, 2, 48, 50, true, 0xE17);
    assert!(
        row.degradation <= 2.0,
        "QoS on: victim p99 {} vs uncontended {} = {:.2}×",
        row.victim_p99,
        row.uncontended_p99,
        row.degradation
    );
    assert_eq!(row.victim_fallbacks, 0, "the guaranteed tier never hits the kernel fallback");

    let off = hostile_tenant_scenario(6, 2, 48, 50, false, 0xE17);
    assert!(
        off.degradation > 2.0,
        "without QoS the same burst must do real damage ({:.2}×)",
        off.degradation
    );
}

#[test]
fn victim_policies_all_sustain_pressure() {
    for policy in [CtxVictimPolicy::Lru, CtxVictimPolicy::Clock, CtxVictimPolicy::Random] {
        let rows = udma_workloads::context_pressure_sweep(&[1_000], 4, 500, policy, 42);
        let r = &rows[0];
        assert!(r.hit_rate > 0.0, "{policy:?}: some locality must survive");
        assert!(r.ni.steals > 0, "{policy:?}: pressure must steal");
        assert_eq!(r.ni.spills, r.os.spills, "{policy:?}: NI and OS must agree");
    }
}

/// Satellite guard: the OS-side allocator and the NI register map share
/// one context-count definition.
#[test]
fn context_count_is_unified() {
    assert!(std::panic::catch_unwind(|| {
        udma_os::KeyRegistry::new(regs::MAX_CONTEXTS + 1, 0, 61)
    })
    .is_err());
    assert!(std::panic::catch_unwind(|| {
        udma_os::CtxCache::new(regs::MAX_CONTEXTS + 1, CtxCacheConfig::default())
    })
    .is_err());
    let grid = udma_workloads::a3_context_grid();
    assert_eq!(grid.last().copied(), Some(regs::MAX_CONTEXTS));
    let e17 = udma_workloads::e17_context_grid();
    assert_eq!(e17.last().copied(), Some(regs::MAX_CONTEXTS));
}

/// Satellite regression: queued descriptor-ring work pins a context
/// exactly like an in-flight transfer does. A save must refuse — naming
/// the ring — while descriptors sit posted-but-undoorbelled *and* while
/// a doorbelled batch is still draining; once quiescent the spill
/// succeeds and carries the ring registration in the image.
#[test]
fn save_refuses_pending_ring_descriptors() {
    use udma_mem::{Perms, PhysFrame, VirtAddr, VirtPage, PAGE_SIZE};
    use udma_nic::{DescDst, DmaDescriptor, RingConfig, VirtDmaConfig};

    let (mut core, mut mem) = engine(2);
    core.enable_iommu(udma_iommu::IotlbConfig::default(), VirtDmaConfig::default());
    let iommu = core.iommu_mut().unwrap();
    iommu.create_context(1);
    for p in 0..2u64 {
        iommu.map(1, VirtPage::new(p), PhysFrame::new(8 + p), Perms::READ_WRITE, true).unwrap();
        iommu
            .map(1, VirtPage::new(8 + p), PhysFrame::new(16 + p), Perms::READ_WRITE, true)
            .unwrap();
    }
    core.enable_rings(RingConfig::default());
    let rings = core.rings_mut().unwrap();
    rings.set_base(1, 0x40000);
    rings.set_ctl(1, 16);

    let desc =
        DmaDescriptor::new(VirtAddr::new(0), DescDst::Local(VirtAddr::new(8 * PAGE_SIZE)), 64);
    core.ring_post(1, &desc, &mut mem).unwrap();
    // Posted but undoorbelled: the descriptor would be lost to a spill.
    assert!(core.context_busy(1, SimTime::ZERO));
    assert_eq!(core.save_context(1, SimTime::ZERO), Err(CtxBusy::RingPending));
    // Doorbelled but still draining: same answer.
    core.ring_doorbell(1, 1, SimTime::ZERO, &mut mem);
    assert_eq!(core.save_context(1, SimTime::ZERO), Err(CtxBusy::RingPending));
    assert_eq!(core.ctx_stats().busy_denials, 2);
    // Quiescent: the spill succeeds and the image carries the ring.
    let image = core.save_context(1, SimTime::from_us(100_000)).expect("drained ring spills");
    let ring = image.ring.expect("the image must carry the ring registration");
    assert_eq!((ring.base, ring.capacity), (0x40000, 16));
}

#[test]
fn arbiter_disabled_is_the_unprotected_baseline() {
    let _ = ArbiterConfig::disabled();
    let on = ArbiterConfig::default();
    assert!(on.enabled);
    assert_eq!(on.reserved, 0, "no reservation unless the operator provisions one");
}
