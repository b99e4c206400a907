//! End-to-end virtual-address DMA: demand paging, pin-on-post
//! registration, fault handling mid-transfer, swap interactions, the
//! protection property, and interleaving coverage of the fault-pause
//! vs context-switch race.

use udma::{
    emit_virt_dma, explore, DmaMethod, Machine, MachineConfig, ProcessSpec, SwapRefused,
    VirtDmaSetup,
};
use udma_bus::SimTime;
use udma_cpu::{Pid, ProcState, ProgramBuilder, Reg};
use udma_iommu::IotlbConfig;
use udma_mem::{MemFault, VirtAddr, PAGE_SIZE};
use udma_nic::{Initiator, PrefetchConfig, VirtState, DMA_FAILURE};
use udma_testkit::{prop_assert, prop_assert_eq, props};

fn va_machine(setup: VirtDmaSetup) -> Machine {
    Machine::new(MachineConfig { virt_dma: Some(setup), ..MachineConfig::new(DmaMethod::Kernel) })
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 11 + 7) as u8).collect()
}

/// A VA nothing maps (buffers live at much lower addresses).
const WILD_VA: u64 = 0x5000_0000;

#[test]
fn demand_paging_transfer_completes_after_fault_service() {
    let mut m = va_machine(VirtDmaSetup::default());
    let pid = m.spawn(&ProcessSpec::two_buffers_of(2), |env| {
        emit_virt_dma(env, ProgramBuilder::new(), env.buffer(0).va, env.buffer(1).va, 2 * PAGE_SIZE)
            .halt()
            .build()
    });
    let src_frame = m.env(pid).buffer(0).first_frame;
    let dst_frame = m.env(pid).buffer(1).first_frame;
    let data = payload(2 * PAGE_SIZE as usize);
    m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();

    // The program posts through its context page; the empty I/O page
    // table makes the very first chunk fault, pausing the transfer.
    m.run(10_000);
    assert_eq!(m.state(pid), ProcState::Halted);
    assert_eq!(m.engine().core().virt_stats().posted, 1);
    assert!(matches!(m.virt_xfer(0).unwrap().state, VirtState::Faulted(_)));

    // The OS fault service maps-and-pins page by page; the engine
    // resumes each time and finishes the whole two-page transfer.
    assert_eq!(m.run_virt(0, 64), VirtState::Complete);
    let mut got = vec![0u8; data.len()];
    m.memory().borrow().read_bytes(dst_frame.base(), &mut got).unwrap();
    assert_eq!(got, data, "demand-paged transfer data mismatch");

    // Two pages on each side faulted exactly once.
    assert_eq!(m.engine().core().virt_stats().faults, 4);
    assert_eq!(m.fault_service().stats().mapped, 4);
}

#[test]
fn pin_on_post_transfers_never_fault() {
    let mut m = va_machine(VirtDmaSetup::pin_on_post(IotlbConfig::default()));
    let pid = m.spawn(&ProcessSpec::two_buffers_of(2), |env| {
        emit_virt_dma(env, ProgramBuilder::new(), env.buffer(0).va, env.buffer(1).va, 2 * PAGE_SIZE)
            .halt()
            .build()
    });
    let src_frame = m.env(pid).buffer(0).first_frame;
    let dst_frame = m.env(pid).buffer(1).first_frame;
    let data = payload(2 * PAGE_SIZE as usize);
    m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();

    m.run(10_000);
    assert_ne!(m.reg(pid, Reg::R0), DMA_FAILURE);
    // Registration at spawn pinned every buffer page: the multi-page
    // transfer streamed through without a single I/O fault.
    assert_eq!(m.virt_xfer(0).unwrap().state, VirtState::Complete);
    assert_eq!(m.engine().core().virt_stats().faults, 0);
    let mut got = vec![0u8; data.len()];
    m.memory().borrow().read_bytes(dst_frame.base(), &mut got).unwrap();
    assert_eq!(got, data, "pinned transfer data mismatch");
}

#[test]
fn unresolvable_fault_fails_cleanly() {
    let mut m = va_machine(VirtDmaSetup::default());
    let pid = m.spawn(&ProcessSpec::two_buffers_of(1), |_| ProgramBuilder::new().halt().build());
    let dst = m.env(pid).buffer(1).va;
    let id = m.post_virt(pid, VirtAddr::new(WILD_VA), dst, 64).unwrap();
    assert!(matches!(m.run_virt(id, 16), VirtState::Failed(_)));
    assert_eq!(m.engine().core().virt_stats().failed, 1);
    assert_eq!(m.fault_service().stats().unresolvable, 1);
    // Status reads as the paper's -1 and the destination was never
    // touched.
    let now = m.time();
    assert_eq!(m.engine().core().virt().unwrap().status(id, now), DMA_FAILURE);
    let dst_frame = m.env(pid).buffer(1).first_frame;
    assert_eq!(m.memory().borrow().read_u64(dst_frame.base()).unwrap(), 0);
}

#[test]
fn retry_budget_exhausts_to_failure_without_os_service() {
    let mut m = va_machine(VirtDmaSetup::default());
    let pid = m.spawn(&ProcessSpec::two_buffers_of(1), |_| ProgramBuilder::new().halt().build());
    let (src, dst) = (m.env(pid).buffer(0).va, m.env(pid).buffer(1).va);
    let id = m.post_virt(pid, src, dst, 64).unwrap();
    let max_retries = m.engine().core().virt().unwrap().config().retry.max_retries;

    // Model a lost fault: the OS never services it, the engine retries
    // on its own with bounded backoff until the budget runs out.
    let mut resumes = 0;
    loop {
        let state = {
            let (engine, mem) = m.bus_mut().nic_and_port();
            let core = engine.core_mut();
            core.virt_mut().unwrap().pop_fault();
            core.resume_virt(id, SimTime::ZERO, mem)
        };
        resumes += 1;
        if matches!(state, VirtState::Failed(_)) {
            break;
        }
        assert!(resumes < 32, "retry budget never exhausted");
    }
    assert_eq!(resumes, max_retries as u64 + 1);
    let now = m.time();
    assert_eq!(m.engine().core().virt().unwrap().status(id, now), DMA_FAILURE);
    // Nothing moved: the first page never resolved.
    assert_eq!(m.virt_xfer(id).unwrap().moved, 0);
}

#[test]
fn swapped_out_page_is_paged_back_in_mid_transfer() {
    let mut m = va_machine(VirtDmaSetup::default());
    let pid = m.spawn(&ProcessSpec::two_buffers_of(1), |_| ProgramBuilder::new().halt().build());
    let (src, dst) = (m.env(pid).buffer(0).va, m.env(pid).buffer(1).va);
    let src_frame = m.env(pid).buffer(0).first_frame;
    m.memory().borrow_mut().write_u64(src_frame.base(), 0xFEED_BEEF).unwrap();

    // The swapper takes the source page while no transfer holds it.
    m.swap_out_va(pid, src).unwrap();

    let id = m.post_virt(pid, src, dst, 64).unwrap();
    assert_eq!(m.run_virt(id, 16), VirtState::Complete);
    // The fault service paid the swap-in cost, not just a mapping.
    assert_eq!(m.fault_service().stats().swapped_in, 1);
    let dst_frame = m.env(pid).buffer(1).first_frame;
    assert_eq!(m.memory().borrow().read_u64(dst_frame.base()).unwrap(), 0xFEED_BEEF);
}

#[test]
fn pinned_pages_refuse_swap_out() {
    let mut m = va_machine(VirtDmaSetup::default());
    let pid = m.spawn(&ProcessSpec::two_buffers_of(1), |_| ProgramBuilder::new().halt().build());
    let (src, dst) = (m.env(pid).buffer(0).va, m.env(pid).buffer(1).va);
    let id = m.post_virt(pid, src, dst, 64).unwrap();
    assert_eq!(m.run_virt(id, 16), VirtState::Complete);
    // Demand faulting pinned both pages; the swapper must leave them.
    assert_eq!(m.swap_out_va(pid, src), Err(SwapRefused::Pinned));
    assert_eq!(m.swap_out_va(pid, dst), Err(SwapRefused::Pinned));
    // And a VA that was never mapped has nothing to take.
    assert_eq!(m.swap_out_va(pid, VirtAddr::new(WILD_VA)), Err(SwapRefused::NotMapped));
}

/// Swapping a page out shoots the CPU's TLB entry for it down: a process
/// that already loaded from the page faults on its next load instead of
/// reading the frame the swapper took. The control swaps before the
/// first load, which faults at once.
#[test]
fn swap_out_shoots_down_the_cpu_tlb_entry() {
    for touch_first in [false, true] {
        let mut m = Machine::new(MachineConfig {
            virt_dma: Some(VirtDmaSetup::default()),
            ..MachineConfig::new(DmaMethod::KeyBased)
        });
        let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
            let va = env.addr_in(0, 0);
            ProgramBuilder::new()
                .load(Reg::R1, va.as_u64())
                .load(Reg::R1, va.as_u64())
                .halt()
                .build()
        });
        if touch_first {
            m.run(1);
        }
        let va = m.env(pid).addr_in(0, 0);
        m.swap_out_va(pid, va).unwrap();
        m.run(100);
        assert_eq!(
            m.state(pid),
            ProcState::Faulted(MemFault::Unmapped { va }),
            "load after swap-out (first load before it: {touch_first})"
        );
    }
}

/// Runs one `pages`-page registered transfer on a cold `entries`-entry
/// IOTLB under the given pipeline config; returns (machine, xfer id).
fn pinned_transfer(prefetch: PrefetchConfig, entries: usize, pages: u64) -> (Machine, usize) {
    let mut setup = VirtDmaSetup::pin_on_post(IotlbConfig::fully_associative(entries));
    setup.virt.prefetch = prefetch;
    let mut m = va_machine(setup);
    let pid =
        m.spawn(&ProcessSpec::two_buffers_of(pages), |_| ProgramBuilder::new().halt().build());
    let (src, dst) = (m.env(pid).buffer(0).va, m.env(pid).buffer(1).va);
    let src_frame = m.env(pid).buffer(0).first_frame;
    let data = payload((pages * PAGE_SIZE) as usize);
    m.memory().borrow_mut().write_bytes(src_frame.base(), &data).unwrap();
    let id = m.post_virt(pid, src, dst, pages * PAGE_SIZE).unwrap();
    assert_eq!(m.run_virt(id, (4 * pages + 16) as u32), VirtState::Complete);
    let dst_frame = m.env(pid).buffer(1).first_frame;
    let mut got = vec![0u8; data.len()];
    m.memory().borrow().read_bytes(dst_frame.base(), &mut got).unwrap();
    assert_eq!(got, data, "transfer data mismatch");
    (m, id)
}

/// Tentpole acceptance (local half): on a cold IOTLB, prewalk batches
/// replace the per-miss blocking walks of the demand path — strictly
/// less translation stall for byte-identical output — and coalescing
/// merges contiguous prewalked pages into fewer mover chunks.
#[test]
fn prefetch_strictly_reduces_translation_stall_on_a_cold_iotlb() {
    const PAGES: u64 = 8;
    let (demand, d_id) = pinned_transfer(PrefetchConfig::default(), 16, PAGES);
    let (pref, p_id) = pinned_transfer(PrefetchConfig::depth(4), 16, PAGES);
    let (piped, c_id) = pinned_transfer(PrefetchConfig::pipelined(4, 4), 16, PAGES);

    let d = demand.virt_xfer(d_id).unwrap();
    let p = pref.virt_xfer(p_id).unwrap();
    let c = piped.virt_xfer(c_id).unwrap();
    assert!(p.stall < d.stall, "prefetch stall {:?} not < demand stall {:?}", p.stall, d.stall);
    assert!(c.stall < d.stall);

    // Fewer blocking walks: every demand lookup lands on a prewalked
    // entry, so the IOTLB records no demand-path misses at all.
    let d_stats = demand.engine().core().iommu().unwrap().stats();
    let p_stats = pref.engine().core().iommu().unwrap().stats();
    assert_eq!(d_stats.tlb.misses, 2 * PAGES, "demand path walks every page of both ranges");
    assert_eq!(p_stats.tlb.misses, 0, "prewalk leaves no blocking walks");
    assert_eq!(p_stats.prefetch_hidden, 2 * PAGES);

    // Coalescing shrinks the chunk count; the pipeline never slows the
    // transfer down.
    assert!(piped.engine().core().virt_stats().chunks < pref.engine().core().virt_stats().chunks);
    let done = |t: &udma_nic::VirtTransfer| t.finished.unwrap() - t.started;
    assert!(done(&p) < done(&d));
    assert!(done(&c) <= done(&p));
}

props! {
    config(cases = 48);

    /// Acceptance property: no virtual-address transfer ever reaches a
    /// frame the posting context's page table does not map — whatever
    /// mix of mapped, second-page and wild addresses is posted, and with
    /// a second process's frames sitting right next door.
    fn va_transfers_stay_inside_the_posting_context(
        src_pick in 0u32..4,
        dst_pick in 0u32..4,
        off_words in 0u64..64,
        size_words in 1u64..64,
    ) {
        let mut m = va_machine(VirtDmaSetup::default());
        let a = m.spawn(&ProcessSpec::two_buffers_of(2), |_| {
            ProgramBuilder::new().halt().build()
        });
        let b = m.spawn(&ProcessSpec::two_buffers_of(2), |_| {
            ProgramBuilder::new().halt().build()
        });
        let off = off_words * 8;
        let size = size_words * 8;
        let pick = |k: u32| match k {
            0 => m.env(a).buffer(0).va + off,
            1 => m.env(a).buffer(1).va + off,
            2 => m.env(a).buffer(0).va + PAGE_SIZE + off,
            _ => VirtAddr::new(WILD_VA + off),
        };
        // Seed A's frames so any leak into B would be visible.
        for i in 0..2 {
            let f = m.env(a).buffer(i).first_frame;
            let fill = vec![0xA5u8; (2 * PAGE_SIZE) as usize];
            m.memory().borrow_mut().write_bytes(f.base(), &fill).unwrap();
        }

        let id = m.post_virt(a, pick(src_pick), pick(dst_pick), size).unwrap();
        let state = m.run_virt(id, 64);
        prop_assert!(
            matches!(state, VirtState::Complete | VirtState::Failed(_)),
            "transfer not driven to a terminal state: {state:?}"
        );

        // Every chunk the engine actually moved lies inside a frame
        // range process A maps.
        let asid_a = m.env(a).ctx.unwrap().ctx;
        let allowed: Vec<(u64, u64)> = m
            .env(a)
            .buffers
            .iter()
            .map(|buf| (buf.first_frame.base().as_u64(), buf.len()))
            .collect();
        for rec in m.transfers() {
            let Initiator::VirtDma { asid } = rec.initiator else { continue };
            prop_assert_eq!(asid, asid_a);
            for addr in [rec.src, rec.dst] {
                let lo = addr.as_u64();
                prop_assert!(
                    allowed.iter().any(|&(base, len)| lo >= base && lo + rec.size <= base + len),
                    "chunk {lo:#x}+{} outside process A's frames", rec.size
                );
            }
        }
        // B's frames never saw a byte.
        for i in 0..2 {
            let f = m.env(b).buffer(i).first_frame;
            let mut got = vec![0u8; (2 * PAGE_SIZE) as usize];
            m.memory().borrow().read_bytes(f.base(), &mut got).unwrap();
            prop_assert!(got.iter().all(|&x| x == 0), "process B's frames were written");
        }
    }

    /// Tentpole acceptance property: the pipelined engine (prefetch +
    /// coalescing) is byte- and status-identical to the plain
    /// demand-translation engine for every mix of mapped, unmapped and
    /// page-straddling ranges — only simulated time may differ, and for
    /// transfers that complete (lossless, local) it never increases.
    fn pipelined_engine_matches_the_demand_oracle(
        src_pick in 0u32..4,
        dst_pick in 0u32..4,
        off_words in 0u64..64,
        size_words in 1u64..512,
        tuning in 0u64..32,
    ) {
        // Pack the pipeline tuning into one draw: depth 1–4, coalesce
        // bound 1–4, and the registration discipline.
        let depth = 1 + (tuning & 3);
        let max_coalesce = 1 + ((tuning >> 2) & 3);
        let pin = (tuning >> 4) & 1;
        let run = |prefetch: PrefetchConfig| {
            let mut setup = if pin == 1 {
                VirtDmaSetup::pin_on_post(IotlbConfig::fully_associative(8))
            } else {
                VirtDmaSetup::demand(IotlbConfig::fully_associative(8))
            };
            setup.virt.prefetch = prefetch;
            let mut m = va_machine(setup);
            let pid = m.spawn(&ProcessSpec::two_buffers_of(3), |_| {
                ProgramBuilder::new().halt().build()
            });
            let src_frame = m.env(pid).buffer(0).first_frame;
            let fill = payload(3 * PAGE_SIZE as usize);
            m.memory().borrow_mut().write_bytes(src_frame.base(), &fill).unwrap();
            let off = off_words * 8;
            let pick = |k: u32| match k {
                0 => m.env(pid).buffer(0).va + off,
                1 => m.env(pid).buffer(1).va + off,
                2 => m.env(pid).buffer(0).va + 2 * PAGE_SIZE + off,
                _ => VirtAddr::new(WILD_VA + off),
            };
            let id = m.post_virt(pid, pick(src_pick), pick(dst_pick), size_words * 8).unwrap();
            let state = m.run_virt(id, 128);
            let t = m.virt_xfer(id).unwrap();
            // Snapshot every frame of both buffers: a write the oracle
            // did not make shows up wherever it lands.
            let mut mem = vec![0u8; (6 * PAGE_SIZE) as usize];
            for (i, half) in mem.chunks_mut((3 * PAGE_SIZE) as usize).enumerate() {
                let f = m.env(pid).buffer(i).first_frame;
                m.memory().borrow().read_bytes(f.base(), half).unwrap();
            }
            (state, t, mem)
        };
        let (oracle_state, oracle_t, oracle_mem) = run(PrefetchConfig::default());
        let (state, t, mem) = run(PrefetchConfig::pipelined(depth, max_coalesce));

        prop_assert_eq!(state, oracle_state, "terminal state diverged from the demand oracle");
        prop_assert_eq!(t.moved, oracle_t.moved, "byte count diverged from the demand oracle");
        prop_assert!(mem == oracle_mem, "destination bytes diverged from the demand oracle");
        if state == VirtState::Complete {
            let done = t.finished.unwrap() - t.started;
            let oracle_done = oracle_t.finished.unwrap() - oracle_t.started;
            prop_assert!(
                done <= oracle_done,
                "pipeline slowed a lossless local transfer: {done:?} > {oracle_done:?}"
            );
        }
    }
}

#[test]
fn no_interleaving_of_fault_pause_and_context_switch_leaks_bytes() {
    let build = || {
        let mut m = va_machine(VirtDmaSetup::default());
        let v = m.spawn(&ProcessSpec::two_buffers_of(2), |env| {
            emit_virt_dma(
                env,
                ProgramBuilder::new(),
                env.buffer(0).va,
                env.buffer(1).va,
                2 * PAGE_SIZE,
            )
            .halt()
            .build()
        });
        // Pre-fault the first page pair, so the program's transfer moves
        // one page and then pauses Faulted on the second.
        let (src, dst) = (m.env(v).buffer(0).va, m.env(v).buffer(1).va);
        let warm = m.post_virt(v, src, dst, 8).unwrap();
        assert_eq!(m.run_virt(warm, 16), VirtState::Complete);
        // An unrelated process scribbles its own buffers while the
        // victim's transfer sits paused.
        m.spawn(&ProcessSpec::two_buffers(), |env| {
            ProgramBuilder::new()
                .store(env.buffer(0).va.as_u64(), 0xAD5E_AD5E)
                .store(env.buffer(1).va.as_u64(), 0xAD5E_AD5E)
                .halt()
                .build()
        });
        let sf = m.env(v).buffer(0).first_frame;
        let mem = m.memory_mut();
        mem.write_u64(sf.base(), 0xFACE_0001).unwrap();
        mem.write_u64(sf.base() + PAGE_SIZE, 0xFACE_0002).unwrap();
        m
    };
    let report = explore(&build(), 10_000, |m| {
        let v = Pid::new(0);
        // Transfer 0 is the warm-up; 1 is the program's.
        let t = m.engine().core().virt_xfers()[1];
        if !matches!(t.state, VirtState::Faulted(_)) {
            return Some(format!("expected a fault pause, got {:?}", t.state));
        }
        if t.moved != PAGE_SIZE {
            return Some(format!("paused off the page boundary: moved {}", t.moved));
        }
        let dst = m.env(v).buffer(1).first_frame.base();
        let mem = m.memory();
        let mem = mem.borrow();
        let page0 = mem.read_u64(dst).unwrap();
        let page1 = mem.read_u64(dst + PAGE_SIZE).unwrap();
        if page0 != 0xFACE_0001 {
            return Some(format!("first page not copied: {page0:#x}"));
        }
        if page1 != 0 {
            return Some(format!("silent write past the fault boundary: {page1:#x}"));
        }
        None
    });
    assert!(report.exhaustive, "race space should be enumerable");
    assert!(report.schedules > 1);
    assert!(
        report.findings.is_empty(),
        "violation under some interleaving: {}",
        report.findings[0].detail
    );
}
