//! Experiments E4/E5: the paper's attacks on the 3- and 4-instruction
//! repeated-passing variants (Figures 5 and 6), rediscovered by
//! exhaustive interleaving search rather than by hand.

use udma::{explore, DmaMethod};
use udma_workloads::{
    illegal_transfer, misinformation, AdversaryKind, AttackScenario, ADVERSARY, VICTIM,
};

#[test]
fn figure_5_attack_is_found_on_the_3_instruction_variant() {
    // Victim: LOAD A, STORE B, LOAD A. Malicious process (read access to
    // its own pages only!) wraps loads of its page C around the victim's
    // store — and the engine launches C→B into the victim's private
    // destination.
    let s = AttackScenario::new(DmaMethod::Repeated3, AdversaryKind::Figure5);
    let report = explore(&s.build(), 5_000, illegal_transfer);
    assert!(report.exhaustive);
    assert!(!report.safe(), "expected the Figure 5 attack among {} schedules", report.schedules);

    // The stolen transfer's source is the adversary's page C (second page
    // of its buffer 0), exactly as in the figure.
    let probe = s.build();
    let c_frame = probe.env(ADVERSARY).buffer(0).first_frame.offset(1);
    let b_frame = probe.env(VICTIM).buffer(1).first_frame;
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.detail.src.page() == c_frame && f.detail.dst.page() == b_frame),
        "no finding matches the C→B transfer of Figure 5"
    );
}

#[test]
fn figure_6_misinformation_is_found_on_the_4_instruction_variant() {
    // Victim: ST B, LD A, ST B, LD A, with A readable by the adversary.
    // One adversary load of A completes the sequence: the DMA starts, the
    // adversary receives the success status, and the victim's own final
    // load is told FAILURE.
    let s = AttackScenario::new(DmaMethod::Repeated4, AdversaryKind::ProbeSharedSource);
    let report = explore(&s.build(), 5_000, misinformation);
    assert!(report.exhaustive);
    assert!(
        !report.safe(),
        "expected the Figure 6 misinformation among {} schedules",
        report.schedules
    );
    // In the misinformation case the transfer itself is the victim's own
    // (A→B) — the harm is the false failure report.
    let probe = s.build();
    let a = probe.env(VICTIM).buffer(0).first_frame;
    let b = probe.env(VICTIM).buffer(1).first_frame;
    assert!(report.findings.iter().any(|f| f.detail.src.page() == a && f.detail.dst.page() == b));
}

#[test]
fn four_instruction_variant_never_starts_a_wrong_transfer_here() {
    // Figure 6's harm is misinformation, not an illegal transfer: with
    // this adversary (one shared-source load) the bytes that move are
    // exactly the victim's request.
    let s = AttackScenario::new(DmaMethod::Repeated4, AdversaryKind::ProbeSharedSource);
    let report = explore(&s.build(), 5_000, illegal_transfer);
    assert!(report.safe());
}

#[test]
fn three_instruction_attack_needs_the_malicious_interleaving() {
    // Sanity: under run-to-completion (no preemption) even the broken
    // variant behaves.
    let s = AttackScenario::new(DmaMethod::Repeated3, AdversaryKind::Figure5);
    let mut m = s.build();
    m.run(10_000);
    assert!(illegal_transfer(&m).is_none());
    assert!(misinformation(&m).is_none());
}

#[test]
fn attack_rate_is_a_small_fraction_of_schedules() {
    // The attacks exist but need precise timing — most interleavings are
    // harmless. (This mirrors why such bugs survive testing and need
    // model checking: the paper found them by proof, we by enumeration.)
    let s = AttackScenario::new(DmaMethod::Repeated3, AdversaryKind::Figure5);
    let report = explore(&s.build(), 5_000, illegal_transfer);
    let rate = report.findings.len() as f64 / report.schedules as f64;
    assert!(rate > 0.0 && rate < 0.5, "attack rate {rate}");
}

#[test]
fn key_based_and_ext_shadow_resist_the_same_adversaries() {
    for method in [DmaMethod::KeyBased, DmaMethod::ExtShadow] {
        for adv in [AdversaryKind::Figure5, AdversaryKind::ProbeSharedSource] {
            let s = AttackScenario::new(method, adv);
            let report =
                explore(&s.build(), 5_000, |m| illegal_transfer(m).or_else(|| misinformation(m)));
            assert!(report.safe(), "{method} vs {adv:?}: {} violations", report.findings.len());
        }
    }
}
