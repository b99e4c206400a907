//! Whole-machine flows: every initiation method actually moves bytes,
//! and the protection model holds end to end.

use udma::{emit_dma_once, DmaMethod, DmaRequest, Machine, ProcessSpec};
use udma_cpu::{ProcState, ProgramBuilder, Reg};
use udma_mem::{MemFault, Perms, PhysAddr, PAGE_SIZE};
use udma_nic::DMA_FAILURE;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + 3) as u8).collect()
}

/// Builds a machine, runs one `size`-byte transfer at `src_off`/`dst_off`
/// within the two buffers, returns the machine and the victim pid.
fn one_transfer(
    method: DmaMethod,
    src_off: u64,
    dst_off: u64,
    size: u64,
) -> (Machine, udma_cpu::Pid) {
    let mut m = Machine::with_method(method);
    let mut spec = ProcessSpec::two_buffers();
    if method == DmaMethod::Shrimp1 {
        spec.mapped_out.push((0, 1));
    }
    let pid = m.spawn(&spec, |env| {
        let req = DmaRequest::new(env.buffer(0).va + src_off, env.buffer(1).va + dst_off, size);
        emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
    });
    // Seed the source.
    let src_frame = m.env(pid).buffer(0).first_frame;
    m.memory()
        .borrow_mut()
        .write_bytes(src_frame.base() + src_off, &payload(size as usize))
        .unwrap();
    m.run(10_000);
    (m, pid)
}

#[test]
fn every_method_moves_the_bytes() {
    for method in DmaMethod::ALL {
        let (m, pid) = one_transfer(method, 0x100, 0x300, 64);
        assert_eq!(m.state(pid), ProcState::Halted, "{method}");
        assert_ne!(m.reg(pid, Reg::R0), DMA_FAILURE, "{method}: status");
        assert_eq!(m.engine().core().stats().started, 1, "{method}");

        let dst_frame = m.env(pid).buffer(1).first_frame;
        let want_off = if method == DmaMethod::Shrimp1 { 0x100 } else { 0x300 };
        let mut got = vec![0u8; 64];
        m.memory().borrow().read_bytes(dst_frame.base() + want_off, &mut got).unwrap();
        assert_eq!(got, payload(64), "{method}: data mismatch");
    }
}

#[test]
fn user_level_initiations_avoid_the_kernel() {
    for method in [DmaMethod::KeyBased, DmaMethod::ExtShadow, DmaMethod::Repeated5, DmaMethod::Pal]
    {
        let (m, _) = one_transfer(method, 0, 0, 32);
        assert_eq!(m.kernel().stats().dma_syscalls, 0, "{method}: user-level path must not trap");
        assert_eq!(m.executor().stats().syscalls, 0, "{method}");
    }
    let (m, _) = one_transfer(DmaMethod::Kernel, 0, 0, 32);
    assert_eq!(m.kernel().stats().dma_syscalls, 1);
}

#[test]
fn kernel_dma_crosses_pages_but_user_level_cannot() {
    // Kernel path: a 3-page transfer is fine (check_size walked it).
    let mut m = Machine::with_method(DmaMethod::Kernel);
    let pid = m.spawn(&ProcessSpec::two_buffers_of(4), |env| {
        let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 3 * PAGE_SIZE);
        emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
    });
    m.run(10_000);
    assert_ne!(m.reg(pid, Reg::R0), DMA_FAILURE);
    assert_eq!(m.engine().core().stats().started, 1);

    // User-level: the same request is refused — a shadow address proves
    // access to one page only.
    for method in [DmaMethod::KeyBased, DmaMethod::ExtShadow, DmaMethod::Repeated5] {
        let mut m = Machine::with_method(method);
        let pid = m.spawn(&ProcessSpec::two_buffers_of(4), |env| {
            let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 3 * PAGE_SIZE);
            emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
        });
        m.run(10_000);
        assert_eq!(m.reg(pid, Reg::R0), DMA_FAILURE, "{method}");
        assert_eq!(m.engine().core().stats().started, 0, "{method}");
        assert_eq!(
            m.engine().core().stats().rejected_for(udma_nic::RejectReason::PageCross),
            1,
            "{method}"
        );
    }
}

#[test]
fn shadow_store_to_readonly_buffer_faults_the_process() {
    // Protection flows through the shadow mapping: a process whose
    // destination is read-only cannot even *name* it to the engine.
    let mut m = Machine::with_method(DmaMethod::Repeated5);
    let spec = ProcessSpec {
        buffers: vec![
            udma::BufferSpec::rw(1),
            udma::BufferSpec { pages: 1, perms: Perms::READ, share: None },
        ],
        ..Default::default()
    };
    let pid = m.spawn(&spec, |env| {
        let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 64);
        emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
    });
    m.run(10_000);
    assert!(
        matches!(m.state(pid), ProcState::Faulted(MemFault::Protection { .. })),
        "got {:?}",
        m.state(pid)
    );
    assert_eq!(m.engine().core().stats().started, 0);
}

#[test]
fn unmapped_shadow_address_faults_the_process() {
    let mut m = Machine::with_method(DmaMethod::KeyBased);
    let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
        // A virtual address far outside any mapping, shadow bit set.
        let bogus = env.shadow_of(udma_mem::VirtAddr::new(0x7777_0000));
        ProgramBuilder::new().store(bogus.as_u64(), 1u64).halt().build()
    });
    m.run(10_000);
    assert!(matches!(m.state(pid), ProcState::Faulted(MemFault::Unmapped { .. })));
}

#[test]
fn kernel_dma_protection_checks_fail_cleanly() {
    // The kernel path refuses bad arguments without killing the process.
    let mut m = Machine::with_method(DmaMethod::Kernel);
    let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
        let req = DmaRequest::new(env.buffer(0).va, udma_mem::VirtAddr::new(0x7777_0000), 64);
        emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
    });
    m.run(10_000);
    assert_eq!(m.state(pid), ProcState::Halted);
    assert_eq!(m.reg(pid, Reg::R0), DMA_FAILURE);
    assert_eq!(m.kernel().stats().failed_syscalls, 1);
    assert_eq!(m.engine().core().stats().started, 0);
}

#[test]
fn zero_size_user_transfer_is_refused() {
    for method in [DmaMethod::KeyBased, DmaMethod::ExtShadow] {
        let (m, pid) = one_transfer(method, 0, 0, 0);
        assert_eq!(m.reg(pid, Reg::R0), DMA_FAILURE, "{method}");
        assert_eq!(m.engine().core().stats().started, 0, "{method}");
    }
}

#[test]
fn transfers_at_page_edges_work() {
    // Largest in-page transfer: full page at offset 0.
    let (m, pid) = one_transfer(DmaMethod::ExtShadow, 0, 0, PAGE_SIZE);
    assert_ne!(m.reg(pid, Reg::R0), DMA_FAILURE);

    // Last 8 bytes of the page.
    let (m, pid) = one_transfer(DmaMethod::KeyBased, PAGE_SIZE - 8, PAGE_SIZE - 8, 8);
    assert_ne!(m.reg(pid, Reg::R0), DMA_FAILURE);

    // One byte over the edge fails.
    let mut m = Machine::with_method(DmaMethod::KeyBased);
    let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
        let req = DmaRequest::new(env.buffer(0).va + (PAGE_SIZE - 8), env.buffer(1).va, 9);
        emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
    });
    m.run(10_000);
    assert_eq!(m.reg(pid, Reg::R0), DMA_FAILURE);
    let _ = pid;
}

#[test]
fn status_poll_reaches_zero_after_wire_time() {
    // The register-context status load reports bytes remaining (§3.1).
    let mut m = Machine::with_method(DmaMethod::ExtShadow);
    let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
        let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 4096);
        let ctx_page = env.ctx_page_va.unwrap().as_u64();
        let mut b = emit_dma_once(env, ProgramBuilder::new(), &req);
        // Immediately after initiation, bytes remain; poll until zero.
        let poll = b.here();
        b = b
            .compute(15_000) // 100 µs of "work"
            .load(Reg::R4, ctx_page)
            .bne(Reg::R4, 0, poll);
        b.halt().build()
    });
    let out = m.run(100_000);
    assert!(out.finished);
    assert_eq!(m.reg(pid, Reg::R4), 0);
}

#[test]
fn trace_shows_exactly_the_expected_device_accesses() {
    let mut m = Machine::with_method(DmaMethod::ExtShadow);
    m.spawn(&ProcessSpec::two_buffers(), |env| {
        let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 64);
        emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
    });
    // Ignore setup traffic (the kernel programming the key table).
    m.bus_mut().reset_stats();
    m.bus_mut().trace_mut().enable();
    m.run(10_000);
    // Extended shadow = exactly two device transactions: a store then a
    // load, both in the shadow window.
    let stats = m.bus().stats();
    assert_eq!(stats.device_writes, 1);
    assert_eq!(stats.device_reads, 1);
    let events = m.bus().trace().events();
    let device: Vec<_> =
        events.iter().filter(|e| m.config().layout.shadow.is_shadow(e.paddr)).collect();
    assert_eq!(device.len(), 2);
    assert_eq!(device[0].op, udma_bus::BusOp::Write);
    assert_eq!(device[1].op, udma_bus::BusOp::Read);
}

#[test]
fn atomic_ops_end_to_end_for_all_three_paths() {
    use udma::{emit_atomic, AtomicRequest};
    use udma_nic::AtomicOp;

    for method in [DmaMethod::Kernel, DmaMethod::KeyBased, DmaMethod::ExtShadow] {
        let mut m = Machine::with_method(method);
        let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
            let req = AtomicRequest {
                va: env.buffer(0).va,
                op: AtomicOp::CompareSwap,
                operand1: 17,
                operand2: 99,
            };
            emit_atomic(env, ProgramBuilder::new(), &req).halt().build()
        });
        let frame = m.env(pid).buffer(0).first_frame;
        m.memory().borrow_mut().write_u64(frame.base(), 17).unwrap();
        m.run(10_000);
        assert_eq!(m.reg(pid, Reg::R0), 17, "{method}: old value");
        assert_eq!(
            m.memory().borrow().read_u64(frame.base()).unwrap(),
            99,
            "{method}: swap applied"
        );
        let _ = PhysAddr::new(0);
    }
}
