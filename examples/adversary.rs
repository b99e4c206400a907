//! Runs the paper's attack figures as experiments: the Figure 5 attack on
//! the 3-instruction variant, the Figure 6 misinformation on the
//! 4-instruction variant, and the (failed) exhaustive attack on the
//! 5-instruction protocol the paper proves correct in §3.3.1.
//!
//! ```text
//! cargo run --release --example adversary
//! ```

use udma::{explore, DmaMethod};
use udma_workloads::{
    any_violation, illegal_transfer, misinformation, AdversaryKind, AttackScenario,
};

fn main() {
    println!("== Figure 5: 3-instruction repeated passing ==");
    let s = AttackScenario::new(DmaMethod::Repeated3, AdversaryKind::Figure5);
    let report = explore(&s.build(), 5_000, illegal_transfer);
    println!(
        "explored {} interleavings exhaustively → {} illegal transfers",
        report.schedules,
        report.findings.len()
    );
    if let Some(f) = report.findings.first() {
        println!(
            "first bad schedule : {:?}",
            f.schedule.iter().map(|p| p.as_u32()).collect::<Vec<_>>()
        );
        println!(
            "stolen transfer    : {} -> {} ({} bytes)",
            f.detail.src, f.detail.dst, f.detail.size
        );
        println!("(the malicious process wrote ITS data into the victim's private page)");
    }
    println!();

    println!("== Figure 6: 4-instruction repeated passing ==");
    let s = AttackScenario::new(DmaMethod::Repeated4, AdversaryKind::ProbeSharedSource);
    let report = explore(&s.build(), 5_000, misinformation);
    println!(
        "explored {} interleavings → {} misinformation outcomes",
        report.schedules,
        report.findings.len()
    );
    if !report.findings.is_empty() {
        println!("(the DMA started, but the victim's status load said FAILURE)");
    }
    println!();

    println!("== §3.3.1: 5-instruction repeated passing ==");
    let mut total = 0u64;
    for adv in [
        AdversaryKind::OwnInitiation,
        AdversaryKind::ProbeSharedSource,
        AdversaryKind::Figure5,
        AdversaryKind::SandwichSteal,
    ] {
        let s = AttackScenario::new(DmaMethod::Repeated5, adv);
        let report = explore(&s.build(), 10_000, any_violation);
        println!(
            "adversary {adv:?}: {} schedules, {} violations",
            report.schedules,
            report.findings.len()
        );
        assert!(report.safe(), "the paper's proof would be wrong!");
        total += report.schedules;
    }
    println!("{total} schedules, zero violations: the paper's correctness argument holds.");
}
