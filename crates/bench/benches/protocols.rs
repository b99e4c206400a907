//! E3–E6 — the race and attack explorations as benchmarks: how fast the
//! model checker covers the interleaving spaces, with the safety results
//! asserted on every run.

use std::hint::black_box;
use udma::{explore, DmaMethod};
use udma_testkit::bench::{run_target, BenchConfig};
use udma_workloads::{
    any_violation, illegal_transfer, misinformation, AdversaryKind, AttackScenario,
};

fn main() {
    run_target(
        "protocols",
        BenchConfig::iters(10),
        vec![
            (
                "E3_shrimp2_race_space",
                Box::new(|| {
                    let s = AttackScenario::new(
                        DmaMethod::Shrimp2 { patched_kernel: false },
                        AdversaryKind::OwnInitiation,
                    );
                    let report = explore(&s.build(), 5_000, any_violation);
                    assert!(!report.safe());
                    black_box(report.schedules);
                }) as Box<dyn FnMut()>,
            ),
            (
                "E4_figure5_attack_search",
                Box::new(|| {
                    let s = AttackScenario::new(DmaMethod::Repeated3, AdversaryKind::Figure5);
                    let report = explore(&s.build(), 5_000, illegal_transfer);
                    assert!(!report.safe());
                    black_box(report.findings.len());
                }),
            ),
            (
                "E5_figure6_attack_search",
                Box::new(|| {
                    let s =
                        AttackScenario::new(DmaMethod::Repeated4, AdversaryKind::ProbeSharedSource);
                    let report = explore(&s.build(), 5_000, misinformation);
                    assert!(!report.safe());
                    black_box(report.findings.len());
                }),
            ),
            // The full 12 870-schedule space is a bench in itself; use the
            // Figure5 adversary (1 287 schedules) per iteration.
            (
                "E6_repeated5_model_check",
                Box::new(|| {
                    let s = AttackScenario::new(DmaMethod::Repeated5, AdversaryKind::Figure5);
                    let report = explore(&s.build(), 10_000, any_violation);
                    assert!(report.safe());
                    black_box(report.schedules);
                }),
            ),
        ],
    );
}
