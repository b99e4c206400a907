//! The executor: runs processes instruction by instruction through the
//! TLB and write buffer onto the bus.

use crate::cost::Prices;
use crate::{
    CostModel, Instr, Operand, Pid, Process, Program, Reg, Scheduler, SwitchReason, TrapHandler,
};
use std::collections::HashMap;
use udma_bus::{Bus, BusTxn, Clock, PendingStore, SimTime, WriteBuffer, WriteBufferPolicy};
use udma_mem::{Access, MemFault, PageTable, Tlb, TlbStats, VirtPage};

/// Counters kept by the executor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired (across all processes, PAL included).
    pub instructions: u64,
    /// Context switches performed (initial dispatch not counted).
    pub context_switches: u64,
    /// Syscalls handled.
    pub syscalls: u64,
    /// PAL calls executed.
    pub pal_calls: u64,
    /// Processes killed by memory faults.
    pub faults: u64,
}

/// Result of [`Executor::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Instructions executed during this call.
    pub steps: u64,
    /// Whether every process reached `Halted`/`Faulted` (as opposed to
    /// hitting the step limit).
    pub finished: bool,
}

/// The CPU: owns the processes, the TLB, the write buffer and the PAL
/// function table, and advances simulated time as it executes. Its data
/// cache sits behind the CPU side of the bus's memory port.
#[derive(Clone)]
pub struct Executor {
    processes: Vec<Process>,
    tlb: Tlb,
    wb: WriteBuffer,
    /// The CPU clock, for `Compute`'s cycle counts.
    cpu: Clock,
    /// The cost model's fixed charges, priced once.
    price: Prices,
    now: SimTime,
    current: Option<Pid>,
    pal: HashMap<u16, Program>,
    stats: ExecStats,
    /// The pids able to run, in spawn order. Refilled when a run starts
    /// and after an instruction that stopped a process (none ever
    /// becomes ready again), and kept here so it is never reallocated.
    ready: Vec<Pid>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("processes", &self.processes.len())
            .field("now", &self.now)
            .field("current", &self.current)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Executor {
    /// Creates an executor with the given cost model and write-buffer
    /// policy.
    pub fn new(cost: CostModel, wb_policy: WriteBufferPolicy) -> Self {
        Executor {
            processes: Vec::new(),
            tlb: Tlb::default(),
            wb: WriteBuffer::new(wb_policy),
            cpu: cost.cpu,
            price: Prices::of(&cost),
            now: SimTime::ZERO,
            current: None,
            pal: HashMap::new(),
            stats: ExecStats::default(),
            ready: Vec::new(),
        }
    }

    /// Spawns a ready process and returns its pid (pids are dense,
    /// starting at 0).
    pub fn spawn(&mut self, program: Program, page_table: PageTable) -> Pid {
        let pid = Pid::new(self.processes.len() as u32);
        self.processes.push(Process::new(pid, program, page_table));
        pid
    }

    /// Installs PAL function `index` (§2.7). PAL programs may use memory,
    /// register and branch instructions only; `Syscall`, `CallPal` and
    /// `Halt` inside PAL kill the calling process.
    pub fn install_pal(&mut self, index: u16, program: Program) {
        self.pal.insert(index, program);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds externally accounted time (e.g. DMA transfer completion the
    /// caller waited on).
    pub fn advance(&mut self, dt: SimTime) {
        self.now += dt;
    }

    /// The process with `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned here.
    pub fn process(&self, pid: Pid) -> &Process {
        &self.processes[pid.as_u32() as usize]
    }

    /// Mutable access to a process (test setup, kernel bookkeeping).
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned here.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        &mut self.processes[pid.as_u32() as usize]
    }

    /// All processes in spawn order.
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// Executor counters.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// TLB counters.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Shoots down the TLB entry for `page` of `pid` after the OS
    /// unmapped it. The TLB holds only the running process's
    /// translations (a switch flushes it), so another pid has none.
    pub fn invalidate_tlb_page(&mut self, pid: Pid, page: VirtPage) {
        if self.current == Some(pid) {
            self.tlb.invalidate_page(page);
        }
    }

    /// The write buffer (inspect collapse/forward counters in tests).
    pub fn write_buffer(&self) -> &WriteBuffer {
        &self.wb
    }

    /// Runs until every process halts/faults or `max_steps` instructions
    /// retire.
    pub fn run(
        &mut self,
        sched: &mut dyn Scheduler,
        kernel: &mut dyn TrapHandler,
        bus: &mut Bus,
        max_steps: u64,
    ) -> RunOutcome {
        let mut steps = 0;
        self.refresh_ready();
        while steps < max_steps {
            if self.ready.is_empty() {
                // A real write buffer drains within cycles of going idle;
                // retire whatever the last process left behind.
                self.retire_all(bus);
                return RunOutcome { steps, finished: true };
            }
            let pick = sched.pick(self.stats.instructions, self.current, &self.ready);
            debug_assert!(self.ready.contains(&pick), "scheduler picked non-ready {pick}");
            // Only a kill can stop a process other than `pick`: the
            // switch's and the instruction's write-buffer drains retire
            // other processes' stores. Every kill counts a fault.
            let faults = self.stats.faults;
            if self.current != Some(pick) {
                self.switch_to(pick, kernel, bus);
            }
            self.exec_one(pick, kernel, bus);
            if self.stats.faults != faults || !self.process(pick).state().is_ready() {
                self.refresh_ready();
            }
            steps += 1;
        }
        RunOutcome { steps, finished: !self.processes.iter().any(|p| p.state().is_ready()) }
    }

    fn refresh_ready(&mut self) {
        self.ready.clear();
        let ready = self.processes.iter().filter(|p| p.state().is_ready()).map(Process::pid);
        self.ready.extend(ready);
    }

    fn switch_to(&mut self, to: Pid, kernel: &mut dyn TrapHandler, bus: &mut Bus) {
        let from = self.current;
        let reason = match from {
            None => SwitchReason::InitialDispatch,
            Some(c) if self.processes[c.as_u32() as usize].state().is_ready() => {
                SwitchReason::Preemption
            }
            Some(_) => SwitchReason::PreviousExited,
        };
        // Kernel entry implies a barrier: pending stores retire in order.
        self.retire_all(bus);
        // No address-space tags: a switch drops the TLB and the whole
        // data cache (writing dirty lines back on a cached machine).
        self.tlb.flush_all();
        bus.port_mut().cpu_flush_all();
        if from.is_some() {
            self.now += self.price.context_switch;
            self.stats.context_switches += 1;
        }
        let extra = kernel.on_context_switch(from, to, reason, bus, self.now);
        self.now += extra;
        self.current = Some(to);
    }

    fn exec_one(&mut self, pid: Pid, kernel: &mut dyn TrapHandler, bus: &mut Bus) {
        let idx = pid.as_u32() as usize;
        let pc = self.processes[idx].pc;
        let ins = match self.processes[idx].program().fetch(pc) {
            Some(i) => *i,
            None => {
                self.processes[idx].halt();
                return;
            }
        };
        self.stats.instructions += 1;
        self.processes[idx].instret += 1;
        self.processes[idx].pc = pc + 1;
        let t0 = self.now;
        let is_syscall = matches!(ins, Instr::Syscall { .. });
        let mut next = pc + 1;
        if self.step(idx, ins, &mut next, bus).is_some() {
            // A faulting load or store has already stopped the process.
            self.processes[idx].pc = next;
        } else {
            match ins {
                Instr::Syscall { no } => {
                    self.stats.syscalls += 1;
                    // Kernel entry is a barrier.
                    self.retire_all(bus);
                    self.now += self.price.syscall_round_trip;
                    let outcome = kernel.syscall(no, &mut self.processes[idx], bus, self.now);
                    self.now += outcome.time;
                    self.processes[idx].set_reg(Reg::R0, outcome.retval);
                }
                Instr::CallPal { index } => {
                    self.stats.pal_calls += 1;
                    self.now += self.price.pal_call;
                    self.exec_pal(idx, index, bus);
                }
                // `Halt`: `step` ran every other instruction.
                _ => {
                    self.now += self.price.instr;
                    self.processes[idx].halt();
                }
            }
        }
        let dt = self.now - t0;
        if is_syscall {
            self.processes[idx].kernel_time += dt;
        } else {
            self.processes[idx].user_time += dt;
        }
    }

    /// Executes one instruction that user and PAL code share, with `pc`
    /// already advanced past it (a taken branch overwrites it). Returns
    /// `None` for the mode-specific `Syscall`, `CallPal` and `Halt`, and
    /// `Some(false)` if a load or store faulted.
    ///
    /// Inlined, like `do_load` and `do_store`, so the instruction's fields
    /// reach it in registers: passed by value, the copy `exec_one` just
    /// stored would be reloaded through the stack, a load the CPU cannot
    /// forward from its store buffer.
    #[inline(always)]
    fn step(&mut self, idx: usize, ins: Instr, pc: &mut usize, bus: &mut Bus) -> Option<bool> {
        match ins {
            Instr::Imm { dst, value } => {
                self.now += self.price.instr;
                self.processes[idx].set_reg(dst, value);
            }
            Instr::AddImm { dst, src, imm } => {
                self.now += self.price.instr;
                let v = self.processes[idx].reg(src).wrapping_add(imm as u64);
                self.processes[idx].set_reg(dst, v);
            }
            Instr::Add { dst, a, b } => {
                self.now += self.price.instr;
                let v = self.processes[idx].reg(a).wrapping_add(self.processes[idx].reg(b));
                self.processes[idx].set_reg(dst, v);
            }
            Instr::Load { dst, addr } => return Some(self.do_load(idx, dst, addr, bus).is_ok()),
            Instr::Store { addr, src } => return Some(self.do_store(idx, addr, src, bus).is_ok()),
            Instr::Mb => {
                self.now += self.price.mb;
                self.retire_all(bus);
            }
            Instr::Compute { cycles } => {
                self.now += self.cpu.cycles(cycles as u64);
            }
            Instr::Beq { reg, value, target } => {
                self.now += self.price.instr;
                if self.processes[idx].reg(reg) == value {
                    *pc = target;
                }
            }
            Instr::Bne { reg, value, target } => {
                self.now += self.price.instr;
                if self.processes[idx].reg(reg) != value {
                    *pc = target;
                }
            }
            Instr::Jmp { target } => {
                self.now += self.price.instr;
                *pc = target;
            }
            Instr::Syscall { .. } | Instr::CallPal { .. } | Instr::Halt => return None,
        }
        Some(true)
    }

    /// Executes an installed PAL function to completion, uninterrupted.
    fn exec_pal(&mut self, idx: usize, index: u16, bus: &mut Bus) {
        if !self.pal.contains_key(&index) {
            // Calling an uninstalled PAL slot is an illegal instruction.
            let va = udma_mem::VirtAddr::new(index as u64);
            self.processes[idx].fault(MemFault::Unmapped { va });
            self.stats.faults += 1;
            return;
        }
        let mut pc = 0usize;
        // PAL calls are bounded; a runaway loop in PAL code is a model
        // bug, so cap generously and kill the process if exceeded.
        let mut fuel = 4096;
        // Each instruction is copied out of the installed program, which
        // stays in place while `step` borrows the executor.
        while let Some(&ins) = self.pal.get(&index).and_then(|prog| prog.fetch(pc)) {
            fuel -= 1;
            if fuel == 0 {
                self.processes[idx].halt();
                return;
            }
            self.stats.instructions += 1;
            pc += 1;
            match self.step(idx, ins, &mut pc, bus) {
                Some(true) => {}
                Some(false) => return,
                None => {
                    // Illegal in PAL mode.
                    let va = udma_mem::VirtAddr::new(pc as u64);
                    self.processes[idx].fault(MemFault::Unmapped { va });
                    self.stats.faults += 1;
                    return;
                }
            }
        }
    }

    fn resolve(&self, idx: usize, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.processes[idx].reg(r),
            Operand::Imm(v) => v,
        }
    }

    fn translate(
        &mut self,
        idx: usize,
        va: u64,
        access: Access,
    ) -> Result<udma_mem::PhysAddr, MemFault> {
        let va = udma_mem::VirtAddr::new(va);
        let (pa, hit) = self.tlb.translate(self.processes[idx].page_table(), va, access)?;
        if !hit {
            self.now += self.price.tlb_miss;
        }
        Ok(pa)
    }

    fn kill(&mut self, idx: usize, fault: MemFault) {
        self.processes[idx].fault(fault);
        self.stats.faults += 1;
    }

    #[inline(always)]
    fn do_load(&mut self, idx: usize, dst: Reg, addr: Operand, bus: &mut Bus) -> Result<(), ()> {
        let va = self.resolve(idx, addr);
        let pa = match self.translate(idx, va, Access::Read) {
            Ok(pa) => pa,
            Err(f) => {
                self.kill(idx, f);
                return Err(());
            }
        };
        self.now += self.price.mem_instr;
        let tag = self.processes[idx].pid().as_u32();
        let loaded = if bus.layout().is_device(pa) {
            // Uncached device loads are strongly ordered with respect to
            // buffered stores (TurboChannel semantics): retire the write
            // buffer before the load reaches the NIC. Same-address
            // *stores* can still collapse in the buffer — the hazard the
            // paper's memory barriers guard against. The bus prices it.
            self.retire_all(bus);
            bus.access(BusTxn::read(pa, tag), self.now)
        } else if let Some(data) = self.wb.service_load(pa) {
            // Forwarded from the write buffer: never reaches the bus.
            self.processes[idx].set_reg(dst, data);
            return Ok(());
        } else {
            // Cacheable load through the CPU's cache: a hit costs the hit
            // cycles, a miss the DRAM latency, plus any coherence time.
            bus.cpu_read(pa, tag, self.now).map(|(data, hit, extra)| {
                let base = if hit { self.price.dcache_hit } else { bus.ram_latency() };
                (data, base + extra)
            })
        };
        match loaded {
            Ok((data, t)) => {
                self.now += t;
                self.processes[idx].set_reg(dst, data);
                Ok(())
            }
            Err(f) => {
                self.kill(idx, f);
                Err(())
            }
        }
    }

    #[inline(always)]
    fn do_store(
        &mut self,
        idx: usize,
        addr: Operand,
        src: Operand,
        bus: &mut Bus,
    ) -> Result<(), ()> {
        let va = self.resolve(idx, addr);
        let data = self.resolve(idx, src);
        let pa = match self.translate(idx, va, Access::Write) {
            Ok(pa) => pa,
            Err(f) => {
                self.kill(idx, f);
                return Err(());
            }
        };
        self.now += self.price.mem_instr;
        let tag = self.processes[idx].pid().as_u32();
        if let Some(p) = self.wb.push(PendingStore { paddr: pa, data, tag }) {
            if let Err(f) = self.retire(p, bus) {
                self.kill(idx, f);
                return Err(());
            }
        }
        Ok(())
    }

    /// Retires one buffered store. A RAM store goes through the CPU side
    /// of the memory port (into the cache on a cached machine) and costs
    /// the DRAM latency plus any ownership time.
    fn retire(&mut self, p: PendingStore, bus: &mut Bus) -> Result<(), MemFault> {
        let (_, t) = bus.access(p.into_txn(), self.now)?;
        self.now += t;
        Ok(())
    }

    fn retire_all(&mut self, bus: &mut Bus) {
        while let Some(p) = self.wb.pop_oldest() {
            // A store that faults at retirement belongs to the process
            // that issued it; kill that process if it is still around.
            if let Err(f) = self.retire(p, bus) {
                let idx = p.tag as usize;
                if idx < self.processes.len() {
                    self.kill(idx, f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullTrapHandler;
    use crate::{ProcState, ProgramBuilder, RunToCompletion};
    use udma_bus::{BusTiming, CacheConfig, CoherenceMode, CoherenceTiming, MemPort, NoNic};
    use udma_mem::{FrameAllocator, Perms, PhysLayout, PhysMemory, VirtAddr, VirtPage};

    fn world() -> (Bus<NoNic>, PageTable) {
        world_in(CoherenceMode::Flat)
    }

    fn world_in(mode: CoherenceMode) -> (Bus<NoNic>, PageTable) {
        let layout = PhysLayout::default();
        let ram = PhysMemory::new(layout.ram_size);
        let mem = MemPort::new(ram, CacheConfig::alpha_21064(), mode, CoherenceTiming::default());
        let bus = Bus::new(layout, mem, BusTiming::turbochannel(), NoNic);
        let mut pt = PageTable::new();
        let mut alloc = FrameAllocator::new(1 << 20);
        for p in 0..4u64 {
            pt.map(VirtPage::new(p), alloc.alloc().unwrap(), Perms::READ_WRITE).unwrap();
        }
        (bus, pt)
    }

    fn exec() -> Executor {
        Executor::new(CostModel::alpha_3000_300(), WriteBufferPolicy::default())
    }

    /// The executor's price table holds exactly what the cost model's
    /// methods charge, for both presets and for a model with every
    /// field changed (a clock whose cycle is no whole number of
    /// picoseconds, so rounding shows).
    #[test]
    fn price_table_equals_the_cost_model() {
        let odd = CostModel {
            cpu: udma_bus::Clock::new(333_333_333),
            instr_cycles: 3,
            mem_instr_cycles: 5,
            mb_cycles: 7,
            syscall_entry_cycles: 11,
            syscall_exit_cycles: 13,
            translation_cycles: 17,
            tlb_miss_cycles: 19,
            dcache_hit_cycles: 23,
            context_switch_cycles: 29,
            pal_call_cycles: 31,
        };
        for cost in [CostModel::alpha_3000_300(), CostModel::modern_trend_host(), odd] {
            let ex = Executor::new(cost, WriteBufferPolicy::default());
            let p = ex.price;
            assert_eq!(ex.cpu, cost.cpu);
            assert_eq!(p.instr, cost.instr());
            assert_eq!(p.mem_instr, cost.mem_instr());
            assert_eq!(p.mb, cost.mb());
            assert_eq!(p.tlb_miss, cost.tlb_miss());
            assert_eq!(p.dcache_hit, cost.cycles(cost.dcache_hit_cycles));
            assert_eq!(p.syscall_round_trip, cost.syscall_round_trip());
            assert_eq!(p.context_switch, cost.context_switch());
            assert_eq!(p.pal_call, cost.pal_call());
        }
    }

    #[test]
    fn store_load_round_trip_through_memory() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        let prog = ProgramBuilder::new()
            .store(0x100u64, 0xABu64)
            .mb()
            .load(Reg::R1, 0x100u64)
            .halt()
            .build();
        let pid = ex.spawn(prog, pt);
        let out = ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert!(out.finished);
        assert_eq!(ex.process(pid).reg(Reg::R1), 0xAB);
        assert_eq!(ex.process(pid).state(), ProcState::Halted);
    }

    #[test]
    fn load_forwarded_from_write_buffer_skips_bus() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        // No barrier between store and load to the same address.
        let prog =
            ProgramBuilder::new().store(0x100u64, 7u64).load(Reg::R1, 0x100u64).halt().build();
        let pid = ex.spawn(prog, pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert_eq!(ex.process(pid).reg(Reg::R1), 7);
        assert_eq!(ex.write_buffer().serviced_count(), 1);
        // The load never became a bus transaction.
        assert_eq!(bus.stats().ram_reads, 0);
    }

    #[test]
    fn unmapped_store_kills_process() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        let prog = ProgramBuilder::new().store(0x9999_0000u64, 1u64).halt().build();
        let pid = ex.spawn(prog, pt);
        let out = ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert!(out.finished);
        assert!(matches!(ex.process(pid).state(), ProcState::Faulted(MemFault::Unmapped { .. })));
        assert_eq!(ex.stats().faults, 1);
    }

    #[test]
    fn protection_fault_on_readonly_page() {
        let (mut bus, mut pt) = world();
        pt.protect(VirtPage::new(0), Perms::READ).unwrap();
        let mut ex = exec();
        let prog = ProgramBuilder::new().store(0x10u64, 1u64).halt().build();
        let pid = ex.spawn(prog, pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert!(matches!(ex.process(pid).state(), ProcState::Faulted(MemFault::Protection { .. })));
    }

    #[test]
    fn registers_and_branches() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        // r1 = 3; loop: r1 -= 1; bne r1, 0, loop; r2 = 99
        let b = ProgramBuilder::new().imm(Reg::R1, 3);
        let top = b.here();
        let prog =
            b.add_imm(Reg::R1, Reg::R1, -1).bne(Reg::R1, 0, top).imm(Reg::R2, 99).halt().build();
        let pid = ex.spawn(prog, pt);
        let out = ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert!(out.finished);
        assert_eq!(ex.process(pid).reg(Reg::R1), 0);
        assert_eq!(ex.process(pid).reg(Reg::R2), 99);
        // 1 imm + 3*(addi+bne) + imm + halt = 9 instructions.
        assert_eq!(ex.process(pid).instret, 9);
    }

    #[test]
    fn running_past_program_end_halts() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        let pid = ex.spawn(ProgramBuilder::new().imm(Reg::R0, 1).build(), pt);
        let out = ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert!(out.finished);
        assert_eq!(ex.process(pid).state(), ProcState::Halted);
    }

    #[test]
    fn syscall_reaches_handler_and_returns() {
        struct Adder;
        impl TrapHandler for Adder {
            fn syscall(
                &mut self,
                no: u16,
                p: &mut Process,
                _b: &mut Bus,
                _t: SimTime,
            ) -> crate::TrapOutcome {
                crate::TrapOutcome {
                    retval: p.reg(Reg::R1) + p.reg(Reg::R2) + no as u64,
                    time: SimTime::from_us(1),
                }
            }
            fn on_context_switch(
                &mut self,
                _f: Option<Pid>,
                _t: Pid,
                _r: SwitchReason,
                _b: &mut Bus,
                _n: SimTime,
            ) -> SimTime {
                SimTime::ZERO
            }
        }
        let (mut bus, pt) = world();
        let mut ex = exec();
        let prog =
            ProgramBuilder::new().imm(Reg::R1, 10).imm(Reg::R2, 20).syscall(7).halt().build();
        let pid = ex.spawn(prog, pt);
        let before = ex.now();
        ex.run(&mut RunToCompletion, &mut Adder, &mut bus, 100);
        assert_eq!(ex.process(pid).reg(Reg::R0), 37);
        assert_eq!(ex.stats().syscalls, 1);
        // Charged: syscall round trip (~14.7us) + handler (1us) + instrs.
        assert!((ex.now() - before).as_us() > 15.0);
    }

    #[test]
    fn pal_call_executes_uninterrupted_program() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        // PAL 3: r0 = mem[r1]
        let pal = ProgramBuilder::new().load(Reg::R0, Reg::R1).build();
        ex.install_pal(3, pal);
        let prog = ProgramBuilder::new()
            .store(0x80u64, 55u64)
            .mb()
            .imm(Reg::R1, 0x80)
            .call_pal(3)
            .halt()
            .build();
        let pid = ex.spawn(prog, pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert_eq!(ex.process(pid).reg(Reg::R0), 55);
        assert_eq!(ex.stats().pal_calls, 1);
    }

    #[test]
    fn uninstalled_pal_faults() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        let pid = ex.spawn(ProgramBuilder::new().call_pal(9).halt().build(), pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert!(matches!(ex.process(pid).state(), ProcState::Faulted(_)));
    }

    #[test]
    fn halt_inside_pal_is_illegal() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        ex.install_pal(1, ProgramBuilder::new().halt().build());
        let pid = ex.spawn(ProgramBuilder::new().call_pal(1).halt().build(), pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert!(matches!(ex.process(pid).state(), ProcState::Faulted(_)));
    }

    #[test]
    fn fixed_schedule_interleaves_two_processes() {
        let (mut bus, _) = world();
        let mut ex = exec();
        let mk_pt = || {
            let mut pt = PageTable::new();
            let mut alloc = FrameAllocator::with_range(10, 10);
            pt.map(VirtPage::new(0), alloc.alloc().unwrap(), Perms::READ_WRITE).unwrap();
            pt
        };
        // Both processes write their pid to the same shared frame — the
        // last writer per the schedule wins.
        let mut alloc = FrameAllocator::with_range(50, 1);
        let shared = alloc.alloc().unwrap();
        let mut pt_a = mk_pt();
        pt_a.map(VirtPage::new(1), shared, Perms::READ_WRITE).unwrap();
        let mut pt_b = mk_pt();
        pt_b.map(VirtPage::new(1), shared, Perms::READ_WRITE).unwrap();

        let page1 = VirtAddr::new(udma_mem::PAGE_SIZE).as_u64();
        let prog = |v: u64| ProgramBuilder::new().store(page1, v).mb().halt().build();
        let a = ex.spawn(prog(1), pt_a);
        let b = ex.spawn(prog(2), pt_b);
        // Schedule: a runs fully first, then b → b's store lands last.
        let mut sched = crate::FixedSchedule::new(vec![a, a, a, b, b, b]);
        let out = ex.run(&mut sched, &mut NullTrapHandler, &mut bus, 100);
        assert!(out.finished);
        assert!(ex.stats().context_switches >= 1);
        let val = bus.port_mut().ram_mut().read_u64(shared.base()).unwrap();
        assert_eq!(val, 2);
    }

    #[test]
    fn context_switch_drains_write_buffer() {
        let (mut bus, pt) = world();
        let (_, pt2) = world();
        let mut ex = exec();
        let a =
            ex.spawn(ProgramBuilder::new().store(0x100u64, 1u64).compute(10).halt().build(), pt);
        let b = ex.spawn(ProgramBuilder::new().load(Reg::R1, 0x100u64).halt().build(), pt2);
        // a stores (buffered), switch to b, b loads: because the switch
        // drains, b sees a's store in RAM (same frame via identical
        // world() mapping order — both map page 0 to frame 0 here? No:
        // separate allocators produce the same frames, so the mapping is
        // genuinely shared.)
        let mut sched = crate::FixedSchedule::new(vec![a, b, b, a, a]);
        ex.run(&mut sched, &mut NullTrapHandler, &mut bus, 100);
        assert_eq!(ex.process(b).reg(Reg::R1), 1);
    }

    #[test]
    fn time_advances_monotonically_and_with_bus_cost() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        let nic_window_miss = ex.now();
        assert_eq!(nic_window_miss, SimTime::ZERO);
        ex.spawn(ProgramBuilder::new().store(0x100u64, 1u64).mb().halt().build(), pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        // mb retirement charged the RAM latency at least.
        assert!(ex.now() > SimTime::from_ns(180));
    }

    #[test]
    fn advance_adds_external_time() {
        let mut ex = exec();
        ex.advance(SimTime::from_us(5));
        assert_eq!(ex.now(), SimTime::from_us(5));
    }

    #[test]
    fn pal_program_may_loop_and_branch() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        // PAL 4: r0 = r1 + r1 + r1 via a counted loop.
        let b = ProgramBuilder::new().imm(Reg::R0, 0).imm(Reg::R2, 3);
        let top = b.here();
        let pal = b
            .add(Reg::R0, Reg::R0, Reg::R1)
            .add_imm(Reg::R2, Reg::R2, -1)
            .bne(Reg::R2, 0, top)
            .build();
        ex.install_pal(4, pal);
        let pid = ex.spawn(ProgramBuilder::new().imm(Reg::R1, 14).call_pal(4).halt().build(), pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert_eq!(ex.process(pid).reg(Reg::R0), 42);
    }

    #[test]
    fn runaway_pal_loop_is_fuel_limited() {
        let (mut bus, pt) = world();
        let mut ex = exec();
        let b = ProgramBuilder::new();
        let spin = b.here();
        ex.install_pal(5, b.jmp(spin).build());
        let pid = ex.spawn(ProgramBuilder::new().call_pal(5).halt().build(), pt);
        let out = ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 10);
        assert!(out.finished, "PAL fuel must bound the loop");
        // The process was stopped rather than spinning forever.
        assert!(!ex.process(pid).state().is_ready());
    }

    #[test]
    fn coherent_executor_keeps_stores_in_cache_until_flush() {
        use udma_bus::MesiState;
        let (mut bus, pt) = world_in(CoherenceMode::Coherent);
        let mut ex = exec();
        let prog = ProgramBuilder::new()
            .store(0x100u64, 0xABu64)
            .mb()
            .load(Reg::R1, 0x100u64)
            .halt()
            .build();
        let pid = ex.spawn(prog, pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        // The load saw the store, but through the cache: memory itself
        // was never written (the line is Modified) — exactly the stale
        // window a non-coherent DMA engine would read through.
        assert_eq!(ex.process(pid).reg(Reg::R1), 0xAB);
        let frame0 =
            ex.process(pid).page_table().translate(VirtAddr::new(0x100), Access::Read).unwrap();
        let (domain, agent) = bus.port().coherence().unwrap();
        assert_eq!(domain.cache(agent).state_of(frame0), MesiState::Modified);
        assert_eq!(bus.port_mut().ram_mut().read_u64(frame0).unwrap(), 0);
        assert_eq!(bus.port().cpu_cache_stats().hits, 1, "agent counters behind the CPU side");
        bus.port_mut().check_invariants().unwrap();
        // A context switch (here: flushing by hand) publishes it.
        bus.port_mut().cpu_flush_all();
        assert_eq!(bus.port_mut().ram_mut().read_u64(frame0).unwrap(), 0xAB);
    }

    #[test]
    fn coherent_executor_preserves_fault_semantics() {
        let (mut bus, pt) = world_in(CoherenceMode::Coherent);
        let mut ex = exec();
        // Misaligned load kills the process, as on the flat path.
        let prog = ProgramBuilder::new().load(Reg::R1, 0x101u64).halt().build();
        let pid = ex.spawn(prog, pt);
        ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100);
        assert!(matches!(ex.process(pid).state(), ProcState::Faulted(MemFault::Misaligned { .. })));
    }

    #[test]
    fn pal_is_never_preempted_mid_sequence() {
        // Two processes; a FixedSchedule that *tries* to interleave at
        // every instruction. The PAL call is one scheduling unit, so the
        // other process can never observe r5 between the PAL's store and
        // load (the §2.7 atomicity claim at executor level).
        let (mut bus, pt) = world();
        let (_, pt2) = world();
        let mut ex = exec();
        // PAL 6: store 1 to 0x100; load r0 from 0x100.
        ex.install_pal(
            6,
            ProgramBuilder::new().store(0x100u64, 1u64).mb().load(Reg::R0, 0x100u64).build(),
        );
        let a = ex.spawn(ProgramBuilder::new().call_pal(6).halt().build(), pt);
        // b overwrites the same word (same frames via identical mapping).
        let b = ex.spawn(ProgramBuilder::new().store(0x100u64, 99u64).mb().halt().build(), pt2);
        // Alternate every step: a, b, a, b, …
        let mut sched = crate::FixedSchedule::new(vec![a, b, a, b, a, b]);
        ex.run(&mut sched, &mut NullTrapHandler, &mut bus, 100);
        // a's PAL observed its own store (1), never b's 99, because the
        // whole PAL body ran within one scheduling step.
        assert_eq!(ex.process(a).reg(Reg::R0), 1);
    }
}
