//! The CPU-side cost model.

use udma_bus::{Clock, SimTime};

/// Cycle costs charged by the [`crate::Executor`] for everything that is
/// not a bus transaction (those are priced by the bus's own
/// [`udma_bus::BusTiming`]).
///
/// [`CostModel::alpha_3000_300`] is calibrated against the paper's §3.4
/// measurements: a 150 MHz Alpha 21064 whose "kernel level DMA costs close
/// to 19 µs, which is a little more than the cost of an empty system call
/// on this workstation", consistent with lmbench's 1 000–5 000 cycles for
/// commercial UNIX syscalls that the paper cites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// The processor clock.
    pub cpu: Clock,
    /// Issue cost of a simple instruction (imm/add/branch/jmp/halt).
    pub instr_cycles: u64,
    /// Extra cost of a load/store hitting the cache or write buffer
    /// (beyond `instr_cycles`).
    pub mem_instr_cycles: u64,
    /// Cost of a memory-barrier instruction itself (draining is charged
    /// per drained transaction by the bus).
    pub mb_cycles: u64,
    /// Kernel entry: trap, register save, dispatch.
    pub syscall_entry_cycles: u64,
    /// Kernel exit: register restore, return to user.
    pub syscall_exit_cycles: u64,
    /// One software page-table walk inside the kernel
    /// (`virtual_to_physical` of Figure 1).
    pub translation_cycles: u64,
    /// Hardware TLB refill on a user-mode miss.
    pub tlb_miss_cycles: u64,
    /// A cacheable load hitting the data cache (charged instead of the
    /// DRAM latency).
    pub dcache_hit_cycles: u64,
    /// A full context switch (save, switch address space, restore),
    /// excluding TLB refill costs which accrue as misses afterwards.
    pub context_switch_cycles: u64,
    /// Entering/leaving PAL mode (§2.7: "PAL code is organized in
    /// 16-instruction long PAL calls").
    pub pal_call_cycles: u64,
}

impl CostModel {
    /// The paper's host: DEC Alpha 3000 model 300 (150 MHz 21064).
    ///
    /// Calibration targets (paper Table 1, TurboChannel at 12.5 MHz):
    /// kernel DMA ≈ 18.6 µs, dominated by an ≈16 µs empty syscall.
    pub fn alpha_3000_300() -> Self {
        CostModel {
            cpu: Clock::new(150_000_000),
            instr_cycles: 2,
            mem_instr_cycles: 1,
            mb_cycles: 8,
            syscall_entry_cycles: 1_200,
            syscall_exit_cycles: 1_000,
            translation_cycles: 160,
            tlb_miss_cycles: 30,
            dcache_hit_cycles: 2,
            context_switch_cycles: 1_800,
            pal_call_cycles: 40,
        }
    }

    /// A hypothetical "modern" host for trend experiments: a 10× faster
    /// CPU whose OS paths shrank only 2× in cycles — the Ousterhout/
    /// Rosenblum observation the paper builds its motivation on.
    pub fn modern_trend_host() -> Self {
        CostModel {
            cpu: Clock::new(1_500_000_000),
            syscall_entry_cycles: 2 * 1_300 / 2 * 5,
            syscall_exit_cycles: 2 * 1_100 / 2 * 5,
            ..Self::alpha_3000_300()
        }
    }

    /// Time for `cycles` CPU cycles.
    pub fn cycles(&self, cycles: u64) -> SimTime {
        self.cpu.cycles(cycles)
    }

    /// Time for a simple instruction.
    pub fn instr(&self) -> SimTime {
        self.cycles(self.instr_cycles)
    }

    /// Time for the CPU side of a load/store.
    pub fn mem_instr(&self) -> SimTime {
        self.cycles(self.instr_cycles + self.mem_instr_cycles)
    }

    /// Time for a memory barrier (excluding drained transactions).
    pub fn mb(&self) -> SimTime {
        self.cycles(self.mb_cycles)
    }

    /// Kernel entry + exit for one syscall, excluding the work inside.
    pub fn syscall_round_trip(&self) -> SimTime {
        self.cycles(self.syscall_entry_cycles + self.syscall_exit_cycles)
    }

    /// Time for a TLB refill.
    pub fn tlb_miss(&self) -> SimTime {
        self.cycles(self.tlb_miss_cycles)
    }

    /// Time for a context switch.
    pub fn context_switch(&self) -> SimTime {
        self.cycles(self.context_switch_cycles)
    }

    /// Entry+exit overhead of a PAL call.
    pub fn pal_call(&self) -> SimTime {
        self.cycles(self.pal_call_cycles)
    }

    /// One in-kernel page translation.
    pub fn translation(&self) -> SimTime {
        self.cycles(self.translation_cycles)
    }
}

/// The [`CostModel`]'s fixed charges, converted to time once: the
/// executor adds these per instruction instead of dividing by the clock
/// rate. Each field is what the model's method of the same name returns
/// (`dcache_hit` is `dcache_hit_cycles` of CPU time), rounding included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Prices {
    pub instr: SimTime,
    pub mem_instr: SimTime,
    pub mb: SimTime,
    pub tlb_miss: SimTime,
    pub dcache_hit: SimTime,
    pub syscall_round_trip: SimTime,
    pub context_switch: SimTime,
    pub pal_call: SimTime,
}

impl Prices {
    /// Prices every fixed charge of `cost`.
    pub fn of(cost: &CostModel) -> Self {
        Prices {
            instr: cost.instr(),
            mem_instr: cost.mem_instr(),
            mb: cost.mb(),
            tlb_miss: cost.tlb_miss(),
            dcache_hit: cost.cycles(cost.dcache_hit_cycles),
            syscall_round_trip: cost.syscall_round_trip(),
            context_switch: cost.context_switch(),
            pal_call: cost.pal_call(),
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::alpha_3000_300()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_syscall_is_about_sixteen_microseconds() {
        let m = CostModel::alpha_3000_300();
        let us = m.syscall_round_trip().as_us();
        assert!((14.0..17.0).contains(&us), "syscall round trip = {us} µs");
    }

    #[test]
    fn syscall_cycles_in_lmbench_band() {
        let m = CostModel::alpha_3000_300();
        let cycles = m.syscall_entry_cycles + m.syscall_exit_cycles;
        assert!((1_000..=5_000).contains(&cycles));
    }

    #[test]
    fn helpers_scale_with_clock() {
        let m = CostModel::alpha_3000_300();
        assert_eq!(m.cycles(150), SimTime::from_ns(1000));
        assert!(m.instr() < m.mb());
        assert!(m.mb() < m.context_switch());
    }

    #[test]
    fn default_is_alpha() {
        assert_eq!(CostModel::default(), CostModel::alpha_3000_300());
    }

    #[test]
    fn modern_host_has_relatively_slower_os() {
        let old = CostModel::alpha_3000_300();
        let new = CostModel::modern_trend_host();
        // Absolute syscall time shrinks…
        assert!(new.syscall_round_trip() < old.syscall_round_trip());
        // …but by much less than the 10× clock ratio (the paper's trend).
        let ratio = old.syscall_round_trip().as_ns() / new.syscall_round_trip().as_ns();
        assert!(ratio < 5.0, "OS sped up {ratio}×, should lag the CPU's 10×");
    }
}
