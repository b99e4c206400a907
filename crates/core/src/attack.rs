//! The interleaving explorer: model-checking the protocols.
//!
//! The paper proves the 5-instruction protocol correct by case analysis
//! over interleavings (§3.3.1, Figure 8) and demonstrates attacks on the
//! 3- and 4-instruction variants by exhibiting one bad interleaving each
//! (Figures 5, 6). The explorer turns both directions into computation:
//! fork the built machine once per schedule (a [`Machine`] clone is
//! deep), run the fork under a [`udma_cpu::FixedSchedule`], and evaluate
//! a safety predicate on the final state.
//!
//! The schedule spaces come from [`udma_testkit::sched`]: exhaustive
//! merge-order enumeration while the space fits a budget, seeded-random
//! sampling beyond it, so every exploration is deterministic and
//! replayable.

use crate::Machine;
use udma_cpu::{FixedSchedule, Pid};
use udma_testkit::sched;
pub use udma_testkit::sched::Budget;

/// One schedule on which the predicate fired.
#[derive(Clone, Debug)]
pub struct Finding<R> {
    /// The per-instruction pid schedule that produced the violation.
    pub schedule: Vec<Pid>,
    /// Whatever the predicate returned.
    pub detail: R,
}

/// The outcome of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport<R> {
    /// Schedules executed.
    pub schedules: u64,
    /// Whether the exploration was exhaustive (vs. sampled).
    pub exhaustive: bool,
    /// Violations found.
    pub findings: Vec<Finding<R>>,
}

impl<R> ExploreReport<R> {
    /// Whether the property held on every tested schedule.
    pub fn safe(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Static per-process instruction counts of `machine`.
fn process_lens(machine: &Machine) -> Vec<usize> {
    machine.executor().processes().iter().map(|p| p.program().len()).collect()
}

/// Runs one schedule (as process indices) on a fork of `machine` and
/// evaluates the predicate.
fn run_schedule<R>(
    machine: &Machine,
    max_steps: u64,
    indices: &[usize],
    check: &impl Fn(&Machine) -> Option<R>,
) -> Option<(Vec<Pid>, R)> {
    let schedule: Vec<Pid> = indices.iter().map(|&i| Pid::new(i as u32)).collect();
    let mut m = machine.clone();
    let mut sched = FixedSchedule::new(schedule.clone());
    m.run_with(&mut sched, max_steps);
    check(&m).map(|detail| (schedule, detail))
}

/// Explores under an explicit [`Budget`]: every interleaving of the
/// processes of `machine` while the space fits `budget.exhaustive`, else
/// `budget.sampled` seeded-random schedules. Each schedule runs on its
/// own clone of `machine`, which is left as it was.
///
/// The schedule space is every merge order of the processes' *static*
/// instruction sequences; retry loops may execute longer than their
/// static length, in which case the tail runs under run-to-completion
/// fallback — enough to decide the safety predicates, which are about
/// what transfers happened, not about timing.
///
/// `check` inspects the finished machine and returns `Some(detail)` on a
/// violation.
pub fn explore_bounded<R>(
    machine: &Machine,
    max_steps: u64,
    budget: Budget,
    check: impl Fn(&Machine) -> Option<R>,
) -> ExploreReport<R> {
    let lens = process_lens(machine);
    let outcome =
        sched::explore(&lens, budget, |indices| run_schedule(machine, max_steps, indices, &check));
    ExploreReport {
        schedules: outcome.schedules,
        exhaustive: outcome.exhaustive,
        findings: outcome
            .findings
            .into_iter()
            .map(|(_, (schedule, detail))| Finding { schedule, detail })
            .collect(),
    }
}

/// Exhaustively explores every interleaving of the machine's processes
/// (see [`explore_bounded`]).
///
/// # Panics
///
/// Panics if the interleaving space exceeds the enumeration cap; use
/// [`explore_bounded`] or [`explore_sampled`] for large spaces.
pub fn explore<R>(
    machine: &Machine,
    max_steps: u64,
    check: impl Fn(&Machine) -> Option<R>,
) -> ExploreReport<R> {
    let lens = process_lens(machine);
    let space = sched::interleaving_count(&lens);
    assert!(
        space <= 20_000_000,
        "{space} interleavings is too many to enumerate; use explore_bounded"
    );
    explore_bounded(
        machine,
        max_steps,
        Budget { exhaustive: space as u64, sampled: 0, seed: 0 },
        check,
    )
}

/// Number of schedules [`explore`] would run for this machine.
pub fn schedule_space(machine: &Machine) -> u128 {
    sched::interleaving_count(&process_lens(machine))
}

/// Randomly samples `samples` schedules from the interleaving space
/// (uniform over merge orders), for spaces too large to enumerate.
pub fn explore_sampled<R>(
    machine: &Machine,
    max_steps: u64,
    samples: u64,
    seed: u64,
    check: impl Fn(&Machine) -> Option<R>,
) -> ExploreReport<R> {
    explore_bounded(machine, max_steps, Budget { exhaustive: 0, sampled: samples, seed }, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DmaMethod, Machine, ProcessSpec};
    use udma_cpu::{ProgramBuilder, Reg};

    /// Two trivial processes, each writing its pid-specific value.
    fn factory() -> Machine {
        let mut m = Machine::with_method(DmaMethod::Repeated5);
        for v in [1u64, 2] {
            m.spawn(&ProcessSpec::two_buffers(), |env| {
                ProgramBuilder::new().store(env.buffer(0).va.as_u64(), v).mb().halt().build()
            });
        }
        m
    }

    #[test]
    fn explore_covers_the_full_multinomial() {
        // 3 instructions each → C(6,3) = 20 schedules.
        assert_eq!(schedule_space(&factory()), 20);
        let report = explore(&factory(), 1_000, |_| None::<()>);
        assert_eq!(report.schedules, 20);
        assert!(report.exhaustive);
        assert!(report.safe());
    }

    #[test]
    fn explore_reports_failing_schedules() {
        // A predicate that fires whenever process 1 finished first.
        let report = explore(&factory(), 1_000, |m| {
            let p1_done = m.executor().process(udma_cpu::Pid::new(1)).instret;
            (p1_done > 0).then_some(p1_done)
        });
        assert!(!report.safe());
        assert!(report.findings.len() < report.schedules as usize + 1);
        for f in &report.findings {
            assert_eq!(f.schedule.len(), 6);
        }
    }

    #[test]
    fn sampled_exploration_is_deterministic_per_seed() {
        let a = explore_sampled(&factory(), 1_000, 50, 9, |m| {
            Some(m.reg(udma_cpu::Pid::new(0), Reg::R0))
        });
        let b = explore_sampled(&factory(), 1_000, 50, 9, |m| {
            Some(m.reg(udma_cpu::Pid::new(0), Reg::R0))
        });
        assert_eq!(a.schedules, 50);
        assert!(!a.exhaustive);
        let sa: Vec<_> = a.findings.iter().map(|f| f.schedule.clone()).collect();
        let sb: Vec<_> = b.findings.iter().map(|f| f.schedule.clone()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn sampled_schedules_are_valid_merge_orders() {
        let report = explore_sampled(&factory(), 1_000, 30, 3, |_| Some(()));
        for f in &report.findings {
            let zeros = f.schedule.iter().filter(|p| p.as_u32() == 0).count();
            let ones = f.schedule.iter().filter(|p| p.as_u32() == 1).count();
            assert_eq!(zeros, 3);
            assert_eq!(ones, 3);
        }
    }

    #[test]
    fn bounded_explore_goes_exhaustive_within_budget_and_samples_beyond() {
        let exhaustive = explore_bounded(&factory(), 1_000, Budget::new(100, 0), |_| Some(()));
        assert!(exhaustive.exhaustive);
        assert_eq!(exhaustive.schedules, 20);

        let sampled = explore_bounded(&factory(), 1_000, Budget::new(5, 42), |_| Some(()));
        assert!(!sampled.exhaustive);
        assert_eq!(sampled.schedules, 5);
        for f in &sampled.findings {
            assert_eq!(f.schedule.len(), 6, "sampled schedules are full merge orders");
        }
    }
}
