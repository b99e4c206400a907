//! Experiment E3: the §2.5 race — SHRIMP-2 and FLASH mix arguments under
//! an unmodified kernel, and their kernel patches (or PAL execution)
//! eliminate the race. The explorer enumerates *every* interleaving of
//! two honest initiating processes.

use udma::{explore, schedule_space, DmaMethod};
use udma_workloads::{any_violation, illegal_transfer, AdversaryKind, AttackScenario};

fn explore_method(method: DmaMethod) -> udma::ExploreReport<udma_nic::TransferRecord> {
    let s = AttackScenario::new(method, AdversaryKind::OwnInitiation);
    explore(&s.build(), 5_000, any_violation)
}

#[test]
fn shrimp2_races_under_an_unmodified_kernel() {
    let report = explore_method(DmaMethod::Shrimp2 { patched_kernel: false });
    assert!(report.exhaustive);
    assert!(!report.safe(), "expected the §2.5 race among {} schedules", report.schedules);
    // The violation is argument mixing: the adversary's source landed in
    // the victim's private destination.
    let f = &report.findings[0];
    let victim_dst = {
        let s = AttackScenario::new(
            DmaMethod::Shrimp2 { patched_kernel: false },
            AdversaryKind::OwnInitiation,
        );
        let m = s.build();
        m.env(udma_workloads::VICTIM).buffer(1).first_frame
    };
    assert_eq!(f.detail.dst.page(), victim_dst);
}

#[test]
fn shrimp_kernel_patch_closes_the_race() {
    let report = explore_method(DmaMethod::Shrimp2 { patched_kernel: true });
    assert!(report.exhaustive);
    assert!(
        report.safe(),
        "SHRIMP abort-on-switch must prevent mixing; found {} violations in {} schedules",
        report.findings.len(),
        report.schedules
    );
}

#[test]
fn flash_races_without_its_kernel_patch() {
    let report = explore_method(DmaMethod::Flash { patched_kernel: false });
    assert!(
        !report.safe(),
        "FLASH degrades to the SHRIMP-2 race when the \
        kernel never updates the current-pid register"
    );
}

#[test]
fn flash_kernel_patch_closes_the_race() {
    let report = explore_method(DmaMethod::Flash { patched_kernel: true });
    assert!(report.safe(), "{} violations", report.findings.len());
}

#[test]
fn pal_code_is_safe_without_any_kernel_change() {
    // Same engine protocol as SHRIMP-2, same vanilla kernel — but the
    // two accesses execute inside one uninterruptible PAL call (§2.7).
    let report = explore_method(DmaMethod::Pal);
    assert!(report.exhaustive);
    assert!(report.safe(), "{} violations", report.findings.len());
}

#[test]
fn the_papers_methods_are_race_free_with_vanilla_kernels() {
    for method in [
        DmaMethod::KeyBased,
        DmaMethod::ExtShadow,
        DmaMethod::ExtShadowPairwise,
        DmaMethod::Repeated5,
    ] {
        assert!(method.kernel_free(), "{method}");
        let report = explore_method(method);
        assert!(report.exhaustive, "{method}");
        assert!(
            report.safe(),
            "{method}: {} violations in {} schedules",
            report.findings.len(),
            report.schedules
        );
    }
}

#[test]
fn both_processes_eventually_transfer_in_every_interleaving_for_contexts() {
    // Stronger than safety: for the context-based schemes, *both* honest
    // processes' transfers complete correctly under every interleaving.
    for method in [DmaMethod::KeyBased, DmaMethod::ExtShadow] {
        let s = AttackScenario::new(method, AdversaryKind::OwnInitiation);
        let report = explore(&s.build(), 5_000, |m| {
            let venv = m.env(udma_workloads::VICTIM);
            let aenv = m.env(udma_workloads::ADVERSARY);
            let transfers = m.transfers();
            let victim_ok = transfers.iter().any(|r| {
                r.src.page() == venv.buffer(0).first_frame
                    && r.dst.page() == venv.buffer(1).first_frame
            });
            // The "adversary" here is honest: src buffer 1 → dst 0.
            let adv_ok = transfers.iter().any(|r| {
                r.src.page() == aenv.buffer(1).first_frame
                    && r.dst.page() == aenv.buffer(0).first_frame
            });
            if victim_ok && adv_ok && transfers.len() == 2 {
                None
            } else {
                Some(transfers.len() as u64)
            }
        });
        assert!(
            report.safe(),
            "{method}: some interleaving lost a transfer ({} findings)",
            report.findings.len()
        );
    }
}

#[test]
fn schedule_spaces_match_the_multinomials() {
    let s = AttackScenario::new(
        DmaMethod::Shrimp2 { patched_kernel: false },
        AdversaryKind::OwnInitiation,
    );
    // Victim: store, load, halt = 3; adversary: 3 → C(6,3) = 20.
    assert_eq!(schedule_space(&s.build()), 20);
    let report = explore_method(DmaMethod::Shrimp2 { patched_kernel: false });
    assert_eq!(report.schedules, 20);
}

#[test]
fn pairwise_ext_shadow_refuses_mixed_pairs_instead_of_mixing() {
    // The context-less §3.2 variant: an interleaved store/load pair from
    // two processes is *detected* (CtxMismatch) — both processes fail and
    // must retry, but no wrong transfer ever starts.
    let s = AttackScenario::new(DmaMethod::ExtShadowPairwise, AdversaryKind::OwnInitiation);
    let report = explore(&s.build(), 5_000, any_violation);
    assert!(report.safe(), "{} violations", report.findings.len());
    // At least one schedule must actually hit the mismatch path.
    let mut mismatches_seen = false;
    let lens = 20; // victim 3 instrs × adversary 3 instrs → 20 schedules
    let _ = lens;
    for inter in udma_testkit::sched::interleavings(&[3, 3]) {
        let mut m = s.build();
        let schedule: Vec<udma_cpu::Pid> =
            inter.iter().map(|&i| udma_cpu::Pid::new(i as u32)).collect();
        m.run_with(&mut udma_cpu::FixedSchedule::new(schedule), 5_000);
        if m.engine().core().stats().rejected_for(udma_nic::RejectReason::CtxMismatch) > 0 {
            mismatches_seen = true;
        }
    }
    assert!(mismatches_seen, "no schedule exercised the pairwise check");
}

#[test]
fn pairwise_retry_loop_recovers_liveness() {
    use udma::{emit_dma, DmaRequest, Machine, ProcessSpec};
    use udma_cpu::{ProgramBuilder, RandomPreempt};
    for seed in 0..10u64 {
        let mut m = Machine::with_method(DmaMethod::ExtShadowPairwise);
        let mut pids = Vec::new();
        for _ in 0..2 {
            pids.push(m.spawn(&ProcessSpec::two_buffers(), |env| {
                let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 64);
                let mut uniq = 0;
                emit_dma(env, ProgramBuilder::new(), &req, &mut uniq).halt().build()
            }));
        }
        let out = m.run_with(&mut RandomPreempt::new(seed, 0.4), 100_000);
        assert!(out.finished, "seed {seed}: pairwise retry livelocked");
        for &pid in &pids {
            assert_ne!(m.reg(pid, udma_cpu::Reg::R0), udma_nic::DMA_FAILURE, "seed {seed}");
        }
        assert_eq!(m.engine().core().stats().started, 2, "seed {seed}");
    }
}

#[test]
fn illegal_transfer_predicate_ignores_correct_runs() {
    let s = AttackScenario::new(DmaMethod::KeyBased, AdversaryKind::OwnInitiation);
    let mut m = s.build();
    m.run(10_000); // run-to-completion: no interleaving at all
    assert!(illegal_transfer(&m).is_none());
}
