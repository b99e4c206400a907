//! Experiment E6: the §3.3.1 correctness argument for the 5-instruction
//! repeated-passing protocol, checked by exhaustive enumeration instead
//! of the paper's hand-waved case analysis — and strengthened with an
//! adversary shape (SandwichSteal) the paper's well-formedness assumption
//! does not cover.

use udma::{
    emit_dma, explore, explore_sampled, DmaMethod, DmaRequest, Machine, MachineConfig, ProcessSpec,
};
use udma_cpu::{ProgramBuilder, RandomPreempt, Reg};
use udma_nic::DMA_FAILURE;
use udma_workloads::{any_violation, AdversaryKind, AttackScenario, VICTIM};

#[test]
fn five_instruction_protocol_is_safe_against_every_adversary_exhaustively() {
    for adv in [
        AdversaryKind::OwnInitiation,
        AdversaryKind::ProbeSharedSource,
        AdversaryKind::Figure5,
        AdversaryKind::SandwichSteal,
    ] {
        let s = AttackScenario::new(DmaMethod::Repeated5, adv);
        let report = explore(&s.build(), 10_000, any_violation);
        assert!(report.exhaustive, "{adv:?}");
        assert!(
            report.safe(),
            "{adv:?}: {} violations in {} schedules — the §3.3.1 proof \
             would be wrong",
            report.findings.len(),
            report.schedules
        );
        assert!(report.schedules >= 45, "{adv:?}: trivial space?");
    }
}

#[test]
fn misinformation_is_impossible_for_the_5_instruction_variant() {
    // The very attack that breaks the 4-instruction variant: the
    // adversary's probe load of the shared source. The fifth access (the
    // extra destination load) means only the *victim* can complete a
    // sequence whose destination is the victim's page.
    let s = AttackScenario::new(DmaMethod::Repeated5, AdversaryKind::ProbeSharedSource);
    let report = explore(&s.build(), 10_000, udma_workloads::misinformation);
    assert!(report.safe(), "{} violations", report.findings.len());
}

#[test]
fn sampled_three_process_schedules_stay_safe() {
    // Three-way interleavings (victim + two adversaries) blow up the
    // exhaustive space; sample it.
    let factory = || {
        let s = AttackScenario::new(DmaMethod::Repeated5, AdversaryKind::Figure5);
        let mut m = s.build();
        // A third process: another sandwich-style attacker.
        let spec = ProcessSpec { buffers: vec![udma::BufferSpec::rw(1)], ..Default::default() };
        m.spawn(&spec, |env| {
            let d = env.shadow_of(env.buffer(0).va).as_u64();
            ProgramBuilder::new()
                .store(d, 64u64)
                .mb()
                .store(d, 64u64)
                .mb()
                .load(Reg::R1, d)
                .halt()
                .build()
        });
        m
    };
    let report = explore_sampled(&factory(), 20_000, 3_000, 0xA77AC4, any_violation);
    assert_eq!(report.schedules, 3_000);
    assert!(!report.exhaustive);
    assert!(report.safe(), "{} violations", report.findings.len());
}

#[test]
fn victim_with_retry_loop_eventually_succeeds_despite_interference() {
    // Liveness: Figure 7's retry loop recovers from broken sequences.
    // Under heavy random preemption against an interfering process, the
    // victim's transfer still completes, correctly.
    for seed in 0..20u64 {
        let mut m = Machine::new(MachineConfig::new(DmaMethod::Repeated5));
        let victim = m.spawn(&ProcessSpec::two_buffers(), |env| {
            let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 64);
            let mut uniq = 0;
            emit_dma(env, ProgramBuilder::new(), &req, &mut uniq).halt().build()
        });
        let spec = ProcessSpec {
            buffers: vec![udma::BufferSpec::rw(1), udma::BufferSpec::rw(1)],
            ..Default::default()
        };
        m.spawn(&spec, |env| {
            let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 32);
            let mut uniq = 0;
            emit_dma(env, ProgramBuilder::new(), &req, &mut uniq).halt().build()
        });
        let out = m.run_with(&mut RandomPreempt::new(seed, 0.3), 200_000);
        assert!(out.finished, "seed {seed}: livelock under random preemption");
        assert_ne!(m.reg(victim, Reg::R0), DMA_FAILURE, "seed {seed}");
        let env = m.env(VICTIM);
        assert!(
            m.transfers().iter().any(|r| {
                r.src.page() == env.buffer(0).first_frame
                    && r.dst.page() == env.buffer(1).first_frame
            }),
            "seed {seed}: victim transfer missing"
        );
        // Interference costs retries, never correctness.
        assert!(any_violation(&m).is_none(), "seed {seed}");
    }
}

#[test]
fn schedule_space_of_the_full_scenario_is_what_the_paper_reasoned_over() {
    // Victim 8 instructions (incl. halt) × adversary 8 → 12 870 merge
    // orders; the paper's Figure 8 hand analysis covered 3 of them.
    let s = AttackScenario::new(DmaMethod::Repeated5, AdversaryKind::OwnInitiation);
    let report = explore(&s.build(), 10_000, any_violation);
    assert_eq!(report.schedules, 12_870);
    assert!(report.safe());
}
