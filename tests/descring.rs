//! Doorbell-batched descriptor rings end to end: the batched-vs-
//! sequential oracle property, the raw-slot ring adversary property,
//! exhaustive interleaving coverage of the doorbell-ring vs
//! context-steal vs fault-service race, the chain-overflow and retired
//! remote-kind regressions, and the E20 acceptance bounds — depth-1
//! posts pin to the pre-ring per-post cost with zero SimTime delta, and
//! per-transfer initiation cost falls monotonically toward the fetch
//! asymptote as queue depth grows.

use udma::{measure_initiation, measure_ring_initiation, DmaMethod};
use udma_bus::{MemPort, SimTime};
use udma_iommu::IotlbConfig;
use udma_mem::{Perms, PhysAddr, PhysFrame, PhysLayout, PhysMemory, VirtAddr, VirtPage, PAGE_SIZE};
use udma_nic::{
    CtxBusy, DescDst, DmaDescriptor, EngineConfig, EngineCore, RejectReason, RingConfig,
    RingLaunch, VirtDmaConfig, DESC_BYTES, DESC_FLAG_CHAIN, DESC_FLAG_FRAG, DMA_FAILURE,
};
use udma_testkit::prop::{any, vec};
use udma_testkit::sched::{explore, Budget};
use udma_testkit::{prop_assert, prop_assert_eq, props};
use udma_workloads::{e20_depth_grid, ring_initiation_sweep};

/// Host-physical base of the ring [`ring_engine`] registers for
/// context 1.
const RING_BASE: u64 = 0x40000;

/// An engine with the IOMMU on, context 1 mapped (VA pages 0..4 →
/// frames 8..12 for sources, VA pages 8..12 → frames 16..20 for
/// destinations) and a 64-slot descriptor ring registered — the same
/// address plan the NIC crate's unit tests use.
fn ring_engine() -> (EngineCore, MemPort) {
    let layout = PhysLayout::default();
    let mem = MemPort::flat(PhysMemory::new(1 << 22));
    let mut core =
        EngineCore::new(layout, EngineConfig { num_contexts: 4, ..EngineConfig::default() });
    core.enable_iommu(IotlbConfig::default(), VirtDmaConfig::default());
    let iommu = core.iommu_mut().unwrap();
    iommu.create_context(1);
    for p in 0..4u64 {
        iommu.map(1, VirtPage::new(p), PhysFrame::new(8 + p), Perms::READ_WRITE, true).unwrap();
        iommu
            .map(1, VirtPage::new(8 + p), PhysFrame::new(16 + p), Perms::READ_WRITE, true)
            .unwrap();
    }
    core.enable_rings(RingConfig::default());
    let rings = core.rings_mut().unwrap();
    rings.set_base(1, RING_BASE);
    rings.set_ctl(1, 64);
    (core, mem)
}

/// Whether context 1 maps `frame` writable in [`ring_engine`].
fn writable_frame(frame: u64) -> bool {
    (8..12).contains(&frame) || (16..20).contains(&frame)
}

/// Writes one raw four-word slot into context 1's ring, the way a
/// process's own stores would.
fn write_slot(mem: &mut MemPort, slot: u64, words: [u64; 4]) {
    for (w, word) in words.iter().enumerate() {
        let pa = PhysAddr::new(RING_BASE + slot * DESC_BYTES + 8 * w as u64);
        mem.ram_mut().write_u64(pa, *word).unwrap();
    }
}

/// Fails every queued I/O fault — the OS found each unresolvable.
fn fail_queued_faults(core: &mut EngineCore, now: SimTime) {
    let virt = core.virt_mut().unwrap();
    while let Some(p) = virt.pop_fault() {
        virt.fail(p.xfer, now);
    }
}

props! {
    config(cases = 64);

    /// Oracle property: a batched post of N descriptors through one
    /// doorbell is byte- and status-identical to N sequential
    /// register-window posts of the same transfers. Only the clock may
    /// differ (the batch pays fetches, the sequence pays register
    /// writes); the data and every completion status must not.
    fn batched_doorbell_matches_sequential_posts(
        n in 1u64..7,
        lens in 0u64..u64::MAX,
        pattern in 0u64..u64::MAX,
    ) {
        let (mut subject, mut smem) = ring_engine();
        let (mut oracle, mut omem) = ring_engine();

        // Identical source bytes on both machines: fill the four source
        // frames with a pattern-seeded word stream.
        let mut word = pattern | 1;
        for w in 0..(4 * PAGE_SIZE / 8) {
            word = word
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pa = PhysAddr::new(8 * PAGE_SIZE + w * 8);
            smem.ram_mut().write_u64(pa, word).unwrap();
            omem.ram_mut().write_u64(pa, word).unwrap();
        }

        // N transfers with varying lengths, disjoint destination
        // windows, all inside the mapped pages.
        let mut lenbits = lens;
        let mut descs = Vec::new();
        for i in 0..n {
            let len = 1 + lenbits % 0x140;
            lenbits /= 0x140;
            descs.push(DmaDescriptor::new(
                VirtAddr::new(i * 0x140),
                DescDst::Local(VirtAddr::new(8 * PAGE_SIZE + i * 0x140)),
                len,
            ));
        }

        // Subject: N ring posts, one doorbell.
        for d in &descs {
            subject.ring_post(1, d, &mut smem).unwrap();
        }
        let launches = subject.ring_doorbell(1, n, SimTime::ZERO, &mut smem);
        prop_assert_eq!(launches.len(), n as usize, "every descriptor must launch");

        // Oracle: the same transfers, one register-window post each.
        let mut oracle_ids = Vec::new();
        for d in &descs {
            let DescDst::Local(dst) = d.dst;
            oracle_ids.push(oracle.post_virt_dma(1, d.src, dst, d.len, SimTime::ZERO, &mut omem).unwrap());
        }

        let late = SimTime::from_us(100_000);
        for (l, oid) in launches.iter().zip(&oracle_ids) {
            prop_assert!(
                matches!(l, RingLaunch::Virt(_)),
                "local descriptor launched as {:?}",
                l
            );
            let RingLaunch::Virt(sid) = l else { unreachable!() };
            prop_assert_eq!(
                subject.virt().unwrap().status(*sid, late),
                oracle.virt().unwrap().status(*oid, late),
                "status must match"
            );
        }
        prop_assert_eq!(
            subject.virt_stats().completed,
            oracle.virt_stats().completed,
            "completion counts must match"
        );

        // Byte identity over the whole destination region.
        let mut sbytes = vec![0u8; (4 * PAGE_SIZE) as usize];
        let mut obytes = vec![0u8; (4 * PAGE_SIZE) as usize];
        smem.ram_mut().read_bytes(PhysAddr::new(16 * PAGE_SIZE), &mut sbytes).unwrap();
        omem.ram_mut().read_bytes(PhysAddr::new(16 * PAGE_SIZE), &mut obytes).unwrap();
        prop_assert!(sbytes == obytes, "destination bytes diverged");
    }
}

props! {
    config(cases = 64);

    /// Ring adversary (the ring slice of the protection invariant): the
    /// process writes raw 4-word slots — every kind code 0–3 (1 and 2
    /// once named remote destinations), random flags, garbage node/asid
    /// bits, random chain links, lengths up to `u64::MAX` — and rings a
    /// doorbell whose tail may lie far past anything posted. Whatever
    /// the slots say: nothing panics, every fetched slot either launches
    /// or is a counted reject, and the only bytes that change lie in
    /// frames context 1 maps writable (every other frame holds sentinel
    /// bytes that must survive).
    fn raw_ring_slots_stay_inside_the_posting_context(
        slots in vec((0u64..4, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..9),
        tail_pick in any::<u64>(),
    ) {
        let (mut core, mut mem) = ring_engine();
        let frames = mem.ram_mut().size() / PAGE_SIZE;
        let sentinel = [0xA5u8; PAGE_SIZE as usize];
        for f in 0..frames {
            let base = PhysAddr::new(f * PAGE_SIZE);
            if writable_frame(f) {
                let fill: Vec<u8> = (0..PAGE_SIZE).map(|i| (f * 31 + i) as u8).collect();
                mem.ram_mut().write_bytes(base, &fill).unwrap();
            } else {
                mem.ram_mut().write_bytes(base, &sentinel).unwrap();
            }
        }
        let n = slots.len() as u64;
        for (i, &(kind, ctl, src, dst, len)) in slots.iter().enumerate() {
            // Mostly addresses context 1 maps, sometimes raw words.
            let src = if src & 3 != 0 { (src >> 2) % (4 * PAGE_SIZE) } else { src };
            let dst = if dst & 3 != 0 { 8 * PAGE_SIZE + (dst >> 2) % (4 * PAGE_SIZE) } else { dst };
            let len = match len & 3 {
                0 => (len >> 2) % (3 * PAGE_SIZE),
                1 => u64::MAX,
                2 => u64::MAX - (len >> 2) % 64,
                _ => len,
            };
            // The kind code, random flag and node/asid bits, then a
            // chain link naming one of the first few slots (0 = none).
            let link = (ctl >> 40) % (n + 2);
            write_slot(&mut mem, i as u64, [src, dst, len, kind | (ctl & 0xF_FFFF_FFFC) | (link << 36)]);
        }
        let tail = match tail_pick & 3 {
            0 => n,
            1 => n + (tail_pick >> 2) % 128,
            2 => u64::MAX,
            _ => tail_pick >> 2,
        };
        let mut before = vec![0u8; (frames * PAGE_SIZE) as usize];
        mem.ram_mut().read_bytes(PhysAddr::new(0), &mut before).unwrap();

        let launches = core.ring_doorbell(1, tail, SimTime::ZERO, &mut mem);

        let s = core.ring_stats();
        prop_assert_eq!(launches.len() as u64, s.fetched, "one outcome per fetched slot");
        prop_assert_eq!(
            s.launched + s.rejected,
            s.fetched,
            "a slot that does not launch is a counted reject"
        );
        let refused = launches.iter().filter(|l| matches!(l, RingLaunch::Rejected(_))).count();
        prop_assert_eq!(refused as u64, s.rejected);
        prop_assert!(core.stats().rejected() >= s.rejected, "ring rejects reach the engine");
        let mut after = [0u8; PAGE_SIZE as usize];
        for f in (0..frames).filter(|&f| !writable_frame(f)) {
            mem.ram_mut().read_bytes(PhysAddr::new(f * PAGE_SIZE), &mut after).unwrap();
            let r = (f * PAGE_SIZE) as usize..((f + 1) * PAGE_SIZE) as usize;
            prop_assert!(before[r] == after[..], "frame {} changed but is not mapped", f);
        }
    }
}

/// Regression: a chain whose user-written lengths overflow `u64` (a head
/// of `len = u64::MAX` plus one 8-byte fragment) used to panic debug
/// builds in the gather-offset sum. Both fetched slots are refused as
/// counted `BadRange` rejects and nothing is deposited.
#[test]
fn overflowing_chain_lengths_are_rejected_not_panicked() {
    let (mut core, mut mem) = ring_engine();
    let mut head = DmaDescriptor::new(
        VirtAddr::new(0),
        DescDst::Local(VirtAddr::new(8 * PAGE_SIZE)),
        u64::MAX,
    );
    head.flags = DESC_FLAG_CHAIN;
    head.link = Some(1);
    let mut frag = DmaDescriptor::new(VirtAddr::new(0x100), DescDst::Local(VirtAddr::new(0)), 8);
    frag.flags = DESC_FLAG_FRAG;
    core.ring_post(1, &head, &mut mem).unwrap();
    core.ring_post(1, &frag, &mut mem).unwrap();

    let launches = core.ring_doorbell(1, 2, SimTime::ZERO, &mut mem);
    assert_eq!(launches, vec![RingLaunch::Rejected(RejectReason::BadRange); 2]);
    let s = core.ring_stats();
    assert_eq!((s.fetched, s.launched, s.rejected), (2, 0, 2));
    assert_eq!(core.stats().rejected_for(RejectReason::BadRange), 2);
    assert_eq!(core.virt_stats().posted, 0);
    let mut dst = vec![0u8; (4 * PAGE_SIZE) as usize];
    mem.ram_mut().read_bytes(PhysAddr::new(16 * PAGE_SIZE), &mut dst).unwrap();
    assert!(dst.iter().all(|&b| b == 0), "a refused chain deposited bytes");
}

/// Kind codes 1 and 2 once named remote-physical and remote-VA
/// destinations. A raw slot carrying either is now an unknown kind: it
/// is refused as a counted `BadRange` reject and deposits nothing.
#[test]
fn retired_remote_kind_codes_are_counted_rejects() {
    let (mut core, mut mem) = ring_engine();
    mem.ram_mut().write_u64(PhysAddr::new(8 * PAGE_SIZE), 0x5151).unwrap();
    // Source VA 0 (mapped); destination word naming frame 16's base.
    write_slot(&mut mem, 0, [0, 16 * PAGE_SIZE, 8, 1]);
    write_slot(&mut mem, 1, [0, 16 * PAGE_SIZE, 8, 2]);
    let launches = core.ring_doorbell(1, 2, SimTime::ZERO, &mut mem);
    assert_eq!(launches, vec![RingLaunch::Rejected(RejectReason::BadRange); 2]);
    let s = core.ring_stats();
    assert_eq!((s.fetched, s.launched, s.rejected), (2, 0, 2));
    assert_eq!(core.stats().rejected_for(RejectReason::BadRange), 2);
    assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(16 * PAGE_SIZE)).unwrap(), 0);
    assert_eq!(core.virt_stats().posted, 0);
}

/// The doorbell-ring vs context-steal vs fault-service race, explored
/// exhaustively (90 interleavings). Thread V posts two local
/// descriptors — one clean, one whose source context 1 does not map —
/// rings the doorbell, then lets time pass; thread S (the OS) tries to
/// steal context 1 at every point; thread F (the OS fault service)
/// fails whatever fault is queued. Invariants on every schedule:
/// * a save succeeds iff the context was not busy at that instant, and
///   a denial while ring work is queued, draining or faulted names the
///   ring;
/// * the clean transfer completes with its bytes intact and the faulted
///   one fails with nothing deposited;
/// * once the batch settles the context is always stealable again.
#[test]
fn doorbell_vs_steal_exhaustive() {
    const LEN: u64 = 256;
    let report = explore(&[2, 2, 2], Budget::new(1_000, 0), |schedule| {
        let (mut core, mut mem) = ring_engine();
        core.set_key(1, 0xBEEF);
        let payload: Vec<u8> = (0..LEN as usize).map(|i| (i * 13 + 7) as u8).collect();
        mem.ram_mut().write_bytes(PhysAddr::new(8 * PAGE_SIZE), &payload).unwrap();
        let batch = [
            DmaDescriptor::new(VirtAddr::new(0), DescDst::Local(VirtAddr::new(8 * PAGE_SIZE)), LEN),
            // VA page 6 is not mapped for context 1: this one faults.
            DmaDescriptor::new(
                VirtAddr::new(6 * PAGE_SIZE),
                DescDst::Local(VirtAddr::new(9 * PAGE_SIZE)),
                LEN,
            ),
        ];

        let mut now = SimTime::ZERO;
        let mut v_step = 0;
        let mut launches = Vec::new();
        for &actor in schedule {
            match actor {
                0 => {
                    // Victim: post the batch and ring once, then drain.
                    if v_step == 0 {
                        for d in &batch {
                            core.ring_post(1, d, &mut mem).unwrap();
                        }
                        launches = core.ring_doorbell(1, 2, now, &mut mem);
                    } else {
                        now = SimTime::from_us(100_000);
                    }
                    v_step += 1;
                }
                1 => {
                    // OS: attempt the steal.
                    let busy_before = core.context_busy(1, now);
                    match core.save_context(1, now) {
                        Ok(image) => {
                            assert!(!busy_before, "save succeeded on a busy context");
                            core.restore_context(1, &image);
                        }
                        Err(e) => {
                            assert!(busy_before, "save denied on an idle context: {e:?}");
                            assert_eq!(e, CtxBusy::RingPending, "queued ring work names the ring");
                        }
                    }
                }
                _ => fail_queued_faults(&mut core, now),
            }
        }

        // The OS services whatever fault the schedule left queued.
        let late = SimTime::from_us(200_000);
        fail_queued_faults(&mut core, late);
        let [RingLaunch::Virt(good), RingLaunch::Virt(bad)] = launches[..] else {
            return Some(format!("batch launched as {launches:?}"));
        };
        if core.virt().unwrap().status(good, late) != 0 {
            return Some("the clean transfer did not complete".into());
        }
        let mut got = vec![0u8; LEN as usize];
        mem.ram_mut().read_bytes(PhysAddr::new(16 * PAGE_SIZE), &mut got).unwrap();
        if got != payload {
            return Some("the clean transfer's bytes are corrupted".into());
        }
        if core.virt().unwrap().status(bad, late) != DMA_FAILURE {
            return Some("the faulted transfer did not fail".into());
        }
        if mem.ram_mut().read_u64(PhysAddr::new(17 * PAGE_SIZE)).unwrap() != 0 {
            return Some("the faulted transfer deposited bytes".into());
        }
        // The settled batch releases the context: terminal states
        // (complete or failed) never wedge the steal path.
        if core.save_context(1, late).is_err() {
            return Some("context unstealable after the batch settled".into());
        }
        None
    });
    assert!(report.exhaustive, "the 90-schedule space must be fully enumerated");
    assert_eq!(report.schedules, 90);
    assert!(report.safe(), "findings: {:?}", report.findings);
}

/// E20 zero-delta pin: at queue depth 1 the descriptor-ring machine's
/// per-post cost is *exactly* the pre-ring key-based per-post cost —
/// the same SimTime, not merely close. Enabling the ring hardware
/// costs nothing until a batch is actually posted.
#[test]
fn depth_one_pins_to_the_per_post_baseline() {
    let ring = measure_ring_initiation(1, 16);
    let base = measure_initiation(DmaMethod::KeyBased, 16);
    assert_eq!(
        ring.mean, base.mean,
        "depth-1 ring cost must equal the per-post baseline with zero SimTime delta"
    );
}

/// E20 amortization bounds: per-transfer initiation cost is
/// monotonically non-increasing in queue depth, and at depth 16 the
/// batch is at least 2× cheaper than depth 1.
#[test]
fn e20_amortizes_initiation_with_depth() {
    let rows = ring_initiation_sweep(&e20_depth_grid(), 32);
    assert_eq!(rows[0].depth, 1);
    for w in rows.windows(2) {
        assert!(
            w[1].mean_initiation <= w[0].mean_initiation,
            "cost rose from depth {} ({}) to depth {} ({})",
            w[0].depth,
            w[0].mean_initiation,
            w[1].depth,
            w[1].mean_initiation
        );
    }
    let d1 = rows[0].mean_initiation;
    let d16 = rows.iter().find(|r| r.depth == 16).expect("grid includes depth 16").mean_initiation;
    assert!(
        d1.as_ps() >= 2 * d16.as_ps(),
        "depth 16 must amortize ≥ 2×: depth-1 {d1} vs depth-16 {d16}"
    );
}
