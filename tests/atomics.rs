//! §3.5 in depth: user-level atomic operations are *atomic* under every
//! interleaving — model-checked, not just spot-tested.

use udma::{
    emit_atomic, explore, AtomicRequest, BufferSpec, DmaMethod, Machine, MachineConfig,
    ProcessSpec, ShareRef,
};
use udma_cpu::{Pid, ProgramBuilder, Reg};
use udma_mem::Perms;
use udma_nic::AtomicOp;

/// Two processes each add 1 to a shared word through the user-level
/// atomic path. Builds a fresh machine for the explorer.
fn two_adders(method: DmaMethod) -> Machine {
    let mut m = Machine::new(MachineConfig::new(method));
    let owner =
        m.spawn(&ProcessSpec { buffers: vec![BufferSpec::rw(1)], ..Default::default() }, |env| {
            let req =
                AtomicRequest { va: env.buffer(0).va, op: AtomicOp::Add, operand1: 1, operand2: 0 };
            emit_atomic(env, ProgramBuilder::new(), &req).halt().build()
        });
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::shared(ShareRef { pid: owner, buffer: 0 }, Perms::READ_WRITE)],
        ..Default::default()
    };
    m.spawn(&spec, |env| {
        let req =
            AtomicRequest { va: env.buffer(0).va, op: AtomicOp::Add, operand1: 1, operand2: 0 };
        emit_atomic(env, ProgramBuilder::new(), &req).halt().build()
    });
    m
}

fn shared_word(m: &Machine) -> u64 {
    let frame = m.env(Pid::new(0)).buffer(0).first_frame;
    m.memory().borrow().read_u64(frame.base()).unwrap()
}

#[test]
fn user_level_atomic_add_is_exact_under_every_interleaving() {
    // Key-based: 5 user instructions per atomic; two processes → a
    // nontrivial interleaving space, every schedule must end at 2.
    for method in [DmaMethod::KeyBased, DmaMethod::ExtShadow, DmaMethod::Kernel] {
        let report = explore(&two_adders(method), 10_000, |m| {
            let v = shared_word(m);
            (v != 2).then_some(v)
        });
        assert!(report.exhaustive, "{method}");
        assert!(
            report.safe(),
            "{method}: {} schedules produced a wrong sum (first: {:?})",
            report.findings.len(),
            report.findings.first().map(|f| f.detail)
        );
        assert!(report.schedules >= 20, "{method}: {}", report.schedules);
    }
}

#[test]
fn both_adders_see_distinct_old_values() {
    // Atomicity implies linearisability here: the two returned old
    // values are {0, 1} in some order, for every schedule.
    let report = explore(&two_adders(DmaMethod::KeyBased), 10_000, |m| {
        let a = m.reg(Pid::new(0), Reg::R0);
        let b = m.reg(Pid::new(1), Reg::R0);
        let mut pair = [a, b];
        pair.sort_unstable();
        (pair != [0, 1]).then_some((a, b))
    });
    assert!(report.safe(), "{:?}", report.findings.first().map(|f| f.detail));
}

#[test]
fn compare_and_swap_elects_exactly_one_winner() {
    // Classic leader election: both processes CAS(0 → own ticket); in
    // every interleaving exactly one wins and the loser reads the
    // winner's ticket.
    let build = || {
        let mut m = Machine::with_method(DmaMethod::KeyBased);
        let owner = m.spawn(
            &ProcessSpec { buffers: vec![BufferSpec::rw(1)], ..Default::default() },
            |env| {
                let req = AtomicRequest {
                    va: env.buffer(0).va,
                    op: AtomicOp::CompareSwap,
                    operand1: 0,
                    operand2: 11,
                };
                emit_atomic(env, ProgramBuilder::new(), &req).halt().build()
            },
        );
        let spec = ProcessSpec {
            buffers: vec![BufferSpec::shared(
                ShareRef { pid: owner, buffer: 0 },
                Perms::READ_WRITE,
            )],
            ..Default::default()
        };
        m.spawn(&spec, |env| {
            let req = AtomicRequest {
                va: env.buffer(0).va,
                op: AtomicOp::CompareSwap,
                operand1: 0,
                operand2: 22,
            };
            emit_atomic(env, ProgramBuilder::new(), &req).halt().build()
        });
        m
    };
    let report = explore(&build(), 10_000, |m| {
        let winner_value = shared_word(m);
        let a_old = m.reg(Pid::new(0), Reg::R0);
        let b_old = m.reg(Pid::new(1), Reg::R0);
        let ok = match winner_value {
            11 => a_old == 0 && b_old == 11,
            22 => b_old == 0 && a_old == 22,
            _ => false,
        };
        (!ok).then_some((winner_value, a_old, b_old))
    });
    assert!(report.safe(), "{:?}", report.findings.first().map(|f| f.detail));
    assert!(report.schedules >= 20);
}

#[test]
fn fetch_and_store_chains_hand_over_the_previous_value() {
    // Two fetch_and_stores: the final value is one of the tickets, and
    // the *other* ticket's owner observed either 0 (went first against
    // the initial value) — every schedule must be a valid serialisation.
    let build = || {
        let mut m = Machine::with_method(DmaMethod::ExtShadow);
        let owner = m.spawn(
            &ProcessSpec { buffers: vec![BufferSpec::rw(1)], ..Default::default() },
            |env| {
                let req = AtomicRequest {
                    va: env.buffer(0).va,
                    op: AtomicOp::FetchStore,
                    operand1: 7,
                    operand2: 0,
                };
                emit_atomic(env, ProgramBuilder::new(), &req).halt().build()
            },
        );
        let spec = ProcessSpec {
            buffers: vec![BufferSpec::shared(
                ShareRef { pid: owner, buffer: 0 },
                Perms::READ_WRITE,
            )],
            ..Default::default()
        };
        m.spawn(&spec, |env| {
            let req = AtomicRequest {
                va: env.buffer(0).va,
                op: AtomicOp::FetchStore,
                operand1: 9,
                operand2: 0,
            };
            emit_atomic(env, ProgramBuilder::new(), &req).halt().build()
        });
        m
    };
    let report = explore(&build(), 10_000, |m| {
        let final_v = shared_word(m);
        let a = m.reg(Pid::new(0), Reg::R0);
        let b = m.reg(Pid::new(1), Reg::R0);
        // Valid serialisations: a first (a=0, b=7, final 9) or b first
        // (b=0, a=9, final 7).
        let ok = (a == 0 && b == 7 && final_v == 9) || (b == 0 && a == 9 && final_v == 7);
        (!ok).then_some((final_v, a, b))
    });
    assert!(report.safe(), "{:?}", report.findings.first().map(|f| f.detail));
}
