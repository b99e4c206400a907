//! §3.5 in action: two processes on the simulated workstation bump a
//! shared counter 200 times each — first with plain load/add/store
//! (updates get lost under preemption), then with NIC-resident
//! `atomic_add` issued entirely from user level through the key-based
//! context pages. No kernel call anywhere in the fast path.
//!
//! ```text
//! cargo run --release --example shared_counter
//! ```

use udma::{
    emit_atomic, AtomicRequest, BufferSpec, DmaMethod, Machine, MachineConfig, ProcessSpec,
    ShareRef,
};
use udma_cpu::{Pid, ProgramBuilder, RandomPreempt, Reg};
use udma_mem::Perms;
use udma_nic::AtomicOp;

const INCREMENTS: u32 = 200;

fn spawn_pair(m: &mut Machine, racy: bool) -> Pid {
    // First process owns the counter page; second maps it shared.
    let owner = m
        .spawn(&ProcessSpec { buffers: vec![BufferSpec::rw(1)], ..Default::default() }, |env| {
            increment_program(env, racy)
        });
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::shared(ShareRef { pid: owner, buffer: 0 }, Perms::READ_WRITE)],
        ..Default::default()
    };
    m.spawn(&spec, |env| increment_program(env, racy));
    owner
}

fn increment_program(env: &udma::ProcessEnv, racy: bool) -> udma_cpu::Program {
    let mut b = ProgramBuilder::new();
    if racy {
        // load; add 1; store — a classic lost-update window.
        let va = env.buffer(0).va.as_u64();
        b = b.imm(Reg::R2, INCREMENTS as u64);
        let top = b.here();
        b = b
            .load(Reg::R1, va)
            .add_imm(Reg::R1, Reg::R1, 1)
            .store(va, Reg::R1)
            .mb()
            .add_imm(Reg::R2, Reg::R2, -1)
            .bne(Reg::R2, 0, top);
    } else {
        // NIC-resident atomic_add through the process's register context.
        let req =
            AtomicRequest { va: env.buffer(0).va, op: AtomicOp::Add, operand1: 1, operand2: 0 };
        for _ in 0..INCREMENTS {
            b = emit_atomic(env, b, &req);
        }
    }
    b.halt().build()
}

fn run(racy: bool, seed: u64) -> (u64, u64) {
    let mut m = Machine::new(MachineConfig::new(DmaMethod::KeyBased));
    let owner = spawn_pair(&mut m, racy);
    let out = m.run_with(&mut RandomPreempt::new(seed, 0.2), 2_000_000);
    assert!(out.finished, "did not finish");
    let frame = m.env(owner).buffer(0).first_frame;
    let value = m.memory().borrow().read_u64(frame.base()).unwrap();
    (value, m.kernel().stats().atomic_syscalls)
}

fn main() {
    let expect = 2 * INCREMENTS as u64;
    println!("two processes × {INCREMENTS} increments, preemption p=0.2\n");

    let mut lost_somewhere = false;
    for seed in 0..5 {
        let (racy, _) = run(true, seed);
        let (atomic, traps) = run(false, seed);
        let note = if racy == expect { "  (lucky schedule)" } else { "  LOST UPDATES" };
        if racy != expect {
            lost_somewhere = true;
        }
        println!(
            "seed {seed}: plain load/add/store → {racy:>4}{note:<16} | \
             user-level atomic_add → {atomic:>4} (kernel atomic traps: {traps})"
        );
        assert_eq!(atomic, expect, "user-level atomics must never lose an update");
    }
    assert!(lost_somewhere, "expected at least one seed to demonstrate the lost-update race");
    println!("\nexpected total: {expect}. The atomic path is exact on every seed —");
    println!("and never enters the kernel, which is the point of §3.5.");
}
