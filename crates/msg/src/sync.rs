//! Synchronisation primitives on NIC-resident atomics (§3.5).
//!
//! "To facilitate shared-memory programming, these interfaces also
//! provide atomic operations that allow different processes to protect
//! their accesses to shared data." This module builds the classic
//! primitive on top of the user-level `compare_and_swap`: a spinlock, and
//! with it exact mutual exclusion for plain load/store critical sections
//! — no kernel entry anywhere.

use udma::{emit_atomic, AtomicRequest, ProcessEnv};
use udma_cpu::{ProgramBuilder, Reg};
use udma_mem::VirtAddr;
use udma_nic::AtomicOp;

/// Emits a spinlock acquire: loop on user-level `compare_and_swap(lock,
/// 0 → ticket)` until the old value reads 0. `ticket` must be nonzero
/// (use the process id + 1).
///
/// Clobbers `r0`–`r3` (the atomic sequence's registers).
pub fn emit_lock_acquire(
    env: &ProcessEnv,
    b: ProgramBuilder,
    lock: VirtAddr,
    ticket: u64,
) -> ProgramBuilder {
    assert_ne!(ticket, 0, "ticket 0 means unlocked");
    let req = AtomicRequest { va: lock, op: AtomicOp::CompareSwap, operand1: 0, operand2: ticket };
    let spin = b.here();
    let b = emit_atomic(env, b, &req);
    // Old value 0 → we won; anything else → spin.
    b.bne(Reg::R0, 0, spin)
}

/// Emits the release: user-level `fetch_and_store(lock, 0)`.
pub fn emit_lock_release(env: &ProcessEnv, b: ProgramBuilder, lock: VirtAddr) -> ProgramBuilder {
    let req = AtomicRequest { va: lock, op: AtomicOp::FetchStore, operand1: 0, operand2: 0 };
    emit_atomic(env, b, &req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma::{BufferSpec, DmaMethod, Machine, ProcessSpec, ShareRef};
    use udma_cpu::{Pid, RandomPreempt};
    use udma_mem::Perms;

    const INCREMENTS: u32 = 60;

    /// N processes increment a shared counter with plain load/add/store,
    /// each increment guarded by the user-level spinlock.
    fn locked_counter_machine(method: DmaMethod, procs: u32) -> (Machine, Pid) {
        let mut m = Machine::with_method(method);
        // Owner maps the shared page: word 0 = lock, word 8 = counter.
        let owner = m.spawn(
            &ProcessSpec { buffers: vec![BufferSpec::rw(1)], ..Default::default() },
            |env| critical_section_program(env, 1),
        );
        for i in 1..procs {
            let spec = ProcessSpec {
                buffers: vec![BufferSpec::shared(
                    ShareRef { pid: owner, buffer: 0 },
                    Perms::READ_WRITE,
                )],
                ..Default::default()
            };
            m.spawn(&spec, |env| critical_section_program(env, i as u64 + 1));
        }
        (m, owner)
    }

    fn critical_section_program(env: &udma::ProcessEnv, ticket: u64) -> udma_cpu::Program {
        let lock = env.buffer(0).va;
        let counter = env.buffer(0).va.as_u64() + 8;
        let mut b = ProgramBuilder::new();
        for _ in 0..INCREMENTS {
            b = emit_lock_acquire(env, b, lock, ticket);
            // Critical section: a plain (racy-without-the-lock) RMW.
            b = b.load(Reg::R5, counter).add_imm(Reg::R5, Reg::R5, 1).store(counter, Reg::R5).mb();
            b = emit_lock_release(env, b, lock);
        }
        b.halt().build()
    }

    #[test]
    fn spinlock_gives_exact_mutual_exclusion_under_preemption() {
        for method in [DmaMethod::KeyBased, DmaMethod::ExtShadow] {
            for seed in 0..4u64 {
                let (mut m, owner) = locked_counter_machine(method, 3);
                let out = m.run_with(&mut RandomPreempt::new(seed, 0.25), 10_000_000);
                assert!(out.finished, "{method} seed {seed}");
                let frame = m.env(owner).buffer(0).first_frame;
                let counter = m.memory().borrow().read_u64(frame.base() + 8).unwrap();
                assert_eq!(counter, 3 * INCREMENTS as u64, "{method} seed {seed}");
                // The lock word ends unlocked.
                let lock = m.memory().borrow().read_u64(frame.base()).unwrap();
                assert_eq!(lock, 0);
                // And the fast path never trapped.
                assert_eq!(m.kernel().stats().atomic_syscalls, 0, "{method}");
            }
        }
    }

    #[test]
    fn kernel_path_lock_also_works_but_traps_constantly() {
        let (mut m, owner) = locked_counter_machine(DmaMethod::Kernel, 2);
        let out = m.run_with(&mut RandomPreempt::new(1, 0.2), 10_000_000);
        assert!(out.finished);
        let frame = m.env(owner).buffer(0).first_frame;
        let counter = m.memory().borrow().read_u64(frame.base() + 8).unwrap();
        assert_eq!(counter, 2 * INCREMENTS as u64);
        // Every acquire attempt and release is a syscall — the §3.5
        // motivation in one number.
        assert!(m.kernel().stats().atomic_syscalls >= 2 * 2 * INCREMENTS as u64);
    }

    #[test]
    #[should_panic(expected = "ticket 0")]
    fn zero_ticket_rejected() {
        let mut m = Machine::with_method(DmaMethod::KeyBased);
        m.spawn(&ProcessSpec { buffers: vec![BufferSpec::rw(1)], ..Default::default() }, |env| {
            emit_lock_acquire(env, ProgramBuilder::new(), env.buffer(0).va, 0).halt().build()
        });
    }
}
