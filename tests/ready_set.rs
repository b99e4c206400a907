//! The executor's ready set under preemption: it is refreshed only when
//! a process stops, so a scheduler must still see, at every step, the
//! set a rebuild from the process states would give. One schedule where
//! the set shrinks twice mid-run: a process killed by a store of its own
//! that a switch to another process retired, and a process that halts
//! while others still run.

use udma_bus::{Bus, BusTiming, MemPort, NoNic, WriteBufferPolicy};
use udma_cpu::{
    CostModel, Executor, FixedSchedule, NullTrapHandler, Pid, ProcState, ProgramBuilder,
    RandomPreempt, Reg, RunToCompletion, Scheduler,
};
use udma_mem::{
    FrameAllocator, MemFault, PageTable, Perms, PhysFrame, PhysLayout, PhysMemory, VirtPage,
    PAGE_SIZE,
};

/// Index of p0's barrier: the instruction it never reaches.
const STUCK_MB: usize = 4;

/// A bus with no device behind the NIC window, and four processes:
/// - p0 buffers a store to the NIC window (a bus error once it retires),
///   then loops 20 times before its own barrier;
/// - p1 runs three instructions and halts;
/// - p2 loops 30 times over a RAM store and a barrier;
/// - p3 loops 50 times.
fn world() -> (Executor, Bus<NoNic>) {
    let layout = PhysLayout::default();
    let nic_frame = PhysFrame::new(layout.nic_base.as_u64() / PAGE_SIZE);
    let bus =
        Bus::new(layout, MemPort::flat(PhysMemory::new(1 << 20)), BusTiming::turbochannel(), NoNic);
    let mut ex = Executor::new(CostModel::alpha_3000_300(), WriteBufferPolicy::default());
    let mut frames = FrameAllocator::with_range(1, 8);
    let mut table = || {
        let mut pt = PageTable::new();
        pt.map(VirtPage::new(0), frames.alloc().unwrap(), Perms::READ_WRITE).unwrap();
        pt
    };
    let counted =
        |b: ProgramBuilder, reg: Reg, n: i64, body: fn(ProgramBuilder) -> ProgramBuilder| {
            let b = b.imm(reg, n as u64);
            let top = b.here();
            body(b).add_imm(reg, reg, -1).bne(reg, 0, top)
        };

    let mut pt = table();
    pt.map(VirtPage::new(1), nic_frame, Perms::READ_WRITE).unwrap();
    let b = ProgramBuilder::new().store(PAGE_SIZE, 1u64);
    let b = counted(b, Reg::R1, 20, |b| b);
    assert_eq!(b.here().index(), STUCK_MB);
    ex.spawn(b.mb().halt().build(), pt);

    ex.spawn(ProgramBuilder::new().imm(Reg::R1, 1).imm(Reg::R2, 2).halt().build(), table());
    let b = counted(ProgramBuilder::new(), Reg::R1, 30, |b| b.store(0x40u64, Reg::R1).mb());
    ex.spawn(b.halt().build(), table());
    let b = counted(ProgramBuilder::new(), Reg::R1, 50, |b| b.add(Reg::R2, Reg::R2, Reg::R1));
    ex.spawn(b.halt().build(), table());
    (ex, bus)
}

/// A scheduler that records every ready set it is shown and every pick.
struct Recorder<S> {
    inner: S,
    seen: Vec<(Vec<Pid>, Pid)>,
}

impl<S: Scheduler> Scheduler for Recorder<S> {
    fn pick(&mut self, step: u64, current: Option<Pid>, ready: &[Pid]) -> Pid {
        let pick = self.inner.pick(step, current, ready);
        self.seen.push((ready.to_vec(), pick));
        pick
    }
}

/// Everything the run leaves behind that a different schedule would
/// change.
fn outcome(ex: &Executor) -> String {
    let procs: Vec<_> = ex
        .processes()
        .iter()
        .map(|p| (p.state(), p.pc, p.instret, p.reg(Reg::R1), p.reg(Reg::R2)))
        .collect();
    format!("{procs:?} {:?} {}", ex.stats(), ex.now())
}

#[test]
fn ready_set_matches_a_rebuild_every_step() {
    let sched = || Recorder { inner: RandomPreempt::new(7, 0.3), seen: Vec::new() };

    let (mut ex, mut bus) = world();
    let mut run = sched();
    let out = ex.run(&mut run, &mut NullTrapHandler, &mut bus, 10_000);
    assert!(out.finished);
    let fast = outcome(&ex);

    // Reference: the ready set rebuilt from the process states before
    // every instruction, the pick run as a one-step schedule.
    let (mut ex, mut bus) = world();
    let mut reference = sched();
    let mut current = None;
    loop {
        let ready: Vec<Pid> =
            ex.processes().iter().filter(|p| p.state().is_ready()).map(|p| p.pid()).collect();
        if ready.is_empty() {
            // Drains the write buffer, as the end of a run does.
            ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 1);
            break;
        }
        let pick = reference.pick(ex.stats().instructions, current, &ready);
        ex.run(&mut FixedSchedule::new(vec![pick]), &mut NullTrapHandler, &mut bus, 1);
        current = Some(pick);
    }
    assert_eq!(run.seen, reference.seen);
    assert_eq!(fast, outcome(&ex));

    // The schedule shows both ways out of the set.
    let p = ex.processes();
    assert!(matches!(p[0].state(), ProcState::Faulted(MemFault::BusError { .. })));
    assert!(p[0].pc <= STUCK_MB, "killed before its own barrier");
    assert_eq!(p[1].state(), ProcState::Halted);
    // Each left the set while others still had instructions to run.
    let gone = |pid| run.seen.iter().position(|(ready, _)| !ready.contains(&Pid::new(pid)));
    assert!(gone(0).is_some() && gone(1).is_some());
    assert_eq!(run.seen[0].0.len(), 4);
}
