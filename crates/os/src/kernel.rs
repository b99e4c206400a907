//! The kernel proper: trap handling, the DMA driver, the switch handler.

use crate::{CtxGrant, KeyRegistry, MappedBuffer, SwitchPolicy, Sys, VmManager};
use udma_bus::{Bus, BusTxn, SimTime};
use udma_cpu::{CostModel, Pid, Process, Reg, SwitchReason, TrapHandler, TrapOutcome};
use udma_mem::{Access, PhysLayout, VirtAddr};
use udma_nic::{regs, DMA_FAILURE};

/// Kernel activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Empty syscalls served.
    pub noop_syscalls: u64,
    /// Kernel-level DMA syscalls served.
    pub dma_syscalls: u64,
    /// Kernel-path atomic syscalls served.
    pub atomic_syscalls: u64,
    /// Syscalls that failed a protection or argument check.
    pub failed_syscalls: u64,
    /// Context-switch hooks that touched the NIC (non-vanilla policies).
    pub switch_hooks: u64,
}

/// The model kernel: implements [`TrapHandler`] and owns the privileged
/// services ([`VmManager`], [`KeyRegistry`]).
#[derive(Clone, Debug)]
pub struct Kernel {
    cost: CostModel,
    policy: SwitchPolicy,
    vm: VmManager,
    keys: KeyRegistry,
    stats: KernelStats,
    nic_base: udma_mem::PhysAddr,
}

impl Kernel {
    /// Creates a kernel over `layout` with the given switch policy.
    pub fn new(
        layout: PhysLayout,
        cost: CostModel,
        policy: SwitchPolicy,
        num_contexts: u32,
        key_seed: u64,
        key_bits: u32,
    ) -> Self {
        Kernel {
            cost,
            policy,
            vm: VmManager::new(layout),
            keys: KeyRegistry::new(num_contexts, key_seed, key_bits),
            stats: KernelStats::default(),
            nic_base: layout.nic_base,
        }
    }

    /// The switch policy in force.
    pub fn policy(&self) -> SwitchPolicy {
        self.policy
    }

    /// Kernel counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The VM manager (privileged setup service).
    pub fn vm_mut(&mut self) -> &mut VmManager {
        &mut self.vm
    }

    /// The key registry.
    pub fn keys(&self) -> &KeyRegistry {
        &self.keys
    }

    /// Grants `pid` a register context and programs the context's key
    /// into the engine's (privileged) key table. Returns `None` when all
    /// contexts are taken — those processes "will have to go through the
    /// kernel" (§3.2).
    pub fn grant_context(&mut self, pid: Pid, bus: &mut Bus, now: SimTime) -> Option<CtxGrant> {
        let grant = self.keys.grant(pid)?;
        let reg = self.nic_base + regs::KEY_TABLE_BASE + 8 * grant.ctx as u64;
        bus.access(BusTxn::write(reg, grant.key, pid.as_u32()), now)
            .expect("key table is always decodable");
        Some(grant)
    }

    /// Registers a descriptor ring for `grant`'s context over the first
    /// `capacity` slots of `buf` — the §3.2 pattern again: the *kernel*
    /// validates the window (it must fit inside the process's own
    /// writable mapped buffer) and programs the privileged
    /// `RING_BASE_TABLE`/`RING_CTL_TABLE` slots; user code only ever
    /// touches its ring memory and its context-page doorbell.
    ///
    /// Returns `false` (and programs nothing) when the window does not
    /// fit the buffer or the buffer is not writable, and `false` when
    /// the NI has no ring unit (its ring tables do not decode).
    pub fn register_ring(
        &mut self,
        grant: &CtxGrant,
        buf: &MappedBuffer,
        capacity: u64,
        bus: &mut Bus,
        now: SimTime,
    ) -> bool {
        let fits = capacity > 0
            && capacity.checked_mul(udma_nic::DESC_BYTES).is_some_and(|b| b <= buf.len());
        if !fits || !buf.perms.allows(udma_mem::Perms::READ_WRITE) {
            self.stats.failed_syscalls += 1;
            return false;
        }
        let tag = 0;
        let base_reg = self.nic_base + regs::RING_BASE_TABLE + 8 * grant.ctx as u64;
        let ctl_reg = self.nic_base + regs::RING_CTL_TABLE + 8 * grant.ctx as u64;
        let programmed = bus
            .access(BusTxn::write(base_reg, buf.first_frame.base().as_u64(), tag), now)
            .and_then(|_| bus.access(BusTxn::write(ctl_reg, capacity, tag), now));
        if programmed.is_err() {
            self.stats.failed_syscalls += 1;
        }
        programmed.is_ok()
    }

    /// Deregisters `grant`'s ring (a single privileged control write of
    /// zero); stale doorbells then find nothing to dequeue. An NI
    /// without a ring unit has nothing to deregister.
    pub fn deregister_ring(&mut self, grant: &CtxGrant, bus: &mut Bus, now: SimTime) {
        let ctl_reg = self.nic_base + regs::RING_CTL_TABLE + 8 * grant.ctx as u64;
        let _ = bus.access(BusTxn::write(ctl_reg, 0, 0), now);
    }

    /// Pages a byte range touches (for translation-cost accounting).
    fn pages_touched(va: VirtAddr, size: u64) -> u64 {
        if size == 0 {
            return 1;
        }
        let first = va.page().number();
        let last = (va.as_u64() + size - 1) >> udma_mem::PAGE_SHIFT;
        last - first + 1
    }

    /// Figure 1: the kernel-level DMA driver.
    fn sys_dma(&mut self, p: &mut Process, bus: &mut Bus, now: SimTime) -> TrapOutcome {
        self.stats.dma_syscalls += 1;
        let vsrc = VirtAddr::new(p.reg(Reg::R0));
        let vdst = VirtAddr::new(p.reg(Reg::R1));
        let size = p.reg(Reg::R2);
        let mut time = SimTime::ZERO;

        // virtual_to_physical + check_size: walk and permission-check
        // every page of both ranges, charging the software walk.
        time += self.cost.cycles(
            self.cost.translation_cycles
                * (Self::pages_touched(vsrc, size) + Self::pages_touched(vdst, size)),
        );
        let psrc = match p.page_table().translate_range(vsrc, size, Access::Read) {
            Ok(pa) => pa,
            Err(_) => {
                self.stats.failed_syscalls += 1;
                return TrapOutcome { retval: DMA_FAILURE, time };
            }
        };
        let pdst = match p.page_table().translate_range(vdst, size, Access::Write) {
            Ok(pa) => pa,
            Err(_) => {
                self.stats.failed_syscalls += 1;
                return TrapOutcome { retval: DMA_FAILURE, time };
            }
        };
        if size == 0 {
            self.stats.failed_syscalls += 1;
            return TrapOutcome { retval: DMA_FAILURE, time };
        }

        // STORE psource/pdestination/size TO the engine, LOAD status.
        let tag = p.pid().as_u32();
        let mut io = |txn: BusTxn, t: &mut SimTime| -> Result<u64, ()> {
            match bus.access(txn, now) {
                Ok((data, dt)) => {
                    *t += dt;
                    Ok(data)
                }
                Err(_) => Err(()),
            }
        };
        let base = self.nic_base;
        let result = (|| {
            io(BusTxn::write(base + regs::DMA_SOURCE, psrc.as_u64(), tag), &mut time)?;
            io(BusTxn::write(base + regs::DMA_DEST, pdst.as_u64(), tag), &mut time)?;
            io(BusTxn::write(base + regs::DMA_SIZE, size, tag), &mut time)?;
            io(BusTxn::read(base + regs::DMA_STATUS, tag), &mut time)
        })();
        match result {
            Ok(status) => TrapOutcome { retval: status, time },
            Err(()) => {
                self.stats.failed_syscalls += 1;
                TrapOutcome { retval: DMA_FAILURE, time }
            }
        }
    }

    /// §3.5 kernel path: atomic operation with protection and atomicity
    /// provided by the kernel.
    fn sys_atomic(&mut self, p: &mut Process, bus: &mut Bus, now: SimTime) -> TrapOutcome {
        self.stats.atomic_syscalls += 1;
        let va = VirtAddr::new(p.reg(Reg::R0));
        let code = p.reg(Reg::R1);
        let op1 = p.reg(Reg::R2);
        let op2 = p.reg(Reg::R3);
        let mut time = self.cost.translation();
        // Read-modify-write: both permissions required.
        let pa = match p
            .page_table()
            .translate(va, Access::Write)
            .and_then(|_| p.page_table().translate(va, Access::Read))
        {
            Ok(pa) => pa,
            Err(_) => {
                self.stats.failed_syscalls += 1;
                return TrapOutcome { retval: DMA_FAILURE, time };
            }
        };
        let tag = p.pid().as_u32();
        let base = self.nic_base;
        let result = (|| -> Result<u64, ()> {
            let mut io = |txn: BusTxn| -> Result<u64, ()> {
                match bus.access(txn, now) {
                    Ok((data, dt)) => {
                        time += dt;
                        Ok(data)
                    }
                    Err(_) => Err(()),
                }
            };
            io(BusTxn::write(base + regs::ATOMIC_ADDR, pa.as_u64(), tag))?;
            io(BusTxn::write(base + regs::ATOMIC_OPERAND1, op1, tag))?;
            io(BusTxn::write(base + regs::ATOMIC_OPERAND2, op2, tag))?;
            io(BusTxn::write(base + regs::ATOMIC_CMD, code, tag))?;
            io(BusTxn::read(base + regs::ATOMIC_CMD, tag))
        })();
        match result {
            Ok(old) => TrapOutcome { retval: old, time },
            Err(()) => {
                self.stats.failed_syscalls += 1;
                TrapOutcome { retval: DMA_FAILURE, time }
            }
        }
    }
}

impl TrapHandler for Kernel {
    fn syscall(&mut self, no: u16, p: &mut Process, bus: &mut Bus, now: SimTime) -> TrapOutcome {
        match Sys::from(no) {
            Sys::Noop => {
                self.stats.noop_syscalls += 1;
                TrapOutcome { retval: 0, time: self.cost.cycles(20) }
            }
            Sys::Dma => self.sys_dma(p, bus, now),
            Sys::Atomic => self.sys_atomic(p, bus, now),
            Sys::Unknown(_) => {
                self.stats.failed_syscalls += 1;
                TrapOutcome::ret(DMA_FAILURE)
            }
        }
    }

    fn on_context_switch(
        &mut self,
        _from: Option<Pid>,
        to: Pid,
        _reason: SwitchReason,
        bus: &mut Bus,
        now: SimTime,
    ) -> SimTime {
        match self.policy {
            SwitchPolicy::Vanilla => SimTime::ZERO,
            SwitchPolicy::ShrimpAbort => {
                self.stats.switch_hooks += 1;
                match bus.access(BusTxn::write(self.nic_base + regs::ABORT, 1, 0), now) {
                    Ok((_, dt)) => dt,
                    Err(_) => SimTime::ZERO,
                }
            }
            SwitchPolicy::FlashNotify => {
                self.stats.switch_hooks += 1;
                let pid = to.as_u32() as u64;
                match bus.access(BusTxn::write(self.nic_base + regs::CURRENT_PID, pid, 0), now) {
                    Ok((_, dt)) => dt,
                    Err(_) => SimTime::ZERO,
                }
            }
        }
    }
}

/// A page-count helper is exercised here; full kernel behaviour is tested
/// through the machine in the `udma` core crate and in `tests/`.
#[cfg(test)]
mod tests {
    use super::*;
    use udma_bus::{BusTiming, MemPort, WriteBufferPolicy};
    use udma_cpu::{Executor, ProgramBuilder, RunToCompletion};
    use udma_mem::{PageTable, Perms, PhysMemory, PAGE_SIZE};
    use udma_nic::{DmaEngine, EngineConfig, ProtocolKind};

    fn machine(policy: SwitchPolicy) -> (Kernel, Bus<DmaEngine>) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(layout.ram_size));
        let engine = DmaEngine::new(layout, EngineConfig::default(), ProtocolKind::KernelOnly);
        let bus = Bus::new(layout, mem, BusTiming::turbochannel(), engine);
        let kernel = Kernel::new(layout, CostModel::alpha_3000_300(), policy, 4, 42, 61);
        (kernel, bus)
    }

    #[test]
    fn pages_touched_counts() {
        let va = VirtAddr::new(PAGE_SIZE - 8);
        assert_eq!(Kernel::pages_touched(va, 8), 1);
        assert_eq!(Kernel::pages_touched(va, 9), 2);
        assert_eq!(Kernel::pages_touched(VirtAddr::new(0), 0), 1);
        assert_eq!(Kernel::pages_touched(VirtAddr::new(0), 3 * PAGE_SIZE), 3);
    }

    #[test]
    fn kernel_dma_syscall_end_to_end() {
        let (mut kernel, mut bus) = machine(SwitchPolicy::Vanilla);
        let mut pt = PageTable::new();
        let buf = kernel
            .vm_mut()
            .map_buffer(
                &mut pt,
                VirtAddr::new(0x4000),
                2,
                Perms::READ_WRITE,
                crate::ShadowMode::None,
            )
            .unwrap();
        // Seed source data directly in RAM.
        bus.port_mut().ram_mut().write_u64(buf.first_frame.base(), 0x5EED).unwrap();

        let mut ex = Executor::new(CostModel::alpha_3000_300(), WriteBufferPolicy::default());
        let src = buf.va.as_u64();
        let dst = buf.va.as_u64() + PAGE_SIZE;
        let prog = ProgramBuilder::new()
            .imm(Reg::R0, src)
            .imm(Reg::R1, dst)
            .imm(Reg::R2, 64)
            .syscall(crate::SYS_DMA)
            .halt()
            .build();
        let pid = ex.spawn(prog, pt);
        ex.run(&mut RunToCompletion, &mut kernel, &mut bus, 100);

        assert_ne!(ex.process(pid).reg(Reg::R0), DMA_FAILURE);
        assert_eq!(kernel.stats().dma_syscalls, 1);
        assert_eq!(bus.nic().core().stats().started, 1);
        // Data arrived at the destination frame.
        let got = bus.port_mut().ram_mut().read_u64(buf.first_frame.offset(1).base()).unwrap();
        assert_eq!(got, 0x5EED);
        // ~19 µs: syscall entry/exit + translations + four bus accesses.
        let us = ex.now().as_us();
        assert!((15.0..25.0).contains(&us), "kernel DMA took {us} µs");
    }

    #[test]
    fn kernel_dma_rejects_unmapped_and_readonly() {
        let (mut kernel, mut bus) = machine(SwitchPolicy::Vanilla);
        let mut pt = PageTable::new();
        let buf = kernel
            .vm_mut()
            .map_buffer(&mut pt, VirtAddr::new(0x4000), 1, Perms::READ, crate::ShadowMode::None)
            .unwrap();
        let mut ex = Executor::new(CostModel::alpha_3000_300(), WriteBufferPolicy::default());
        // dst is the same read-only buffer → write check fails.
        let prog = ProgramBuilder::new()
            .imm(Reg::R0, buf.va.as_u64())
            .imm(Reg::R1, buf.va.as_u64())
            .imm(Reg::R2, 8)
            .syscall(crate::SYS_DMA)
            .halt()
            .build();
        let pid = ex.spawn(prog, pt);
        ex.run(&mut RunToCompletion, &mut kernel, &mut bus, 100);
        assert_eq!(ex.process(pid).reg(Reg::R0), DMA_FAILURE);
        assert_eq!(kernel.stats().failed_syscalls, 1);
        assert_eq!(bus.nic().core().stats().started, 0);
    }

    #[test]
    fn atomic_syscall_end_to_end() {
        let (mut kernel, mut bus) = machine(SwitchPolicy::Vanilla);
        let mut pt = PageTable::new();
        let buf = kernel
            .vm_mut()
            .map_buffer(
                &mut pt,
                VirtAddr::new(0x4000),
                1,
                Perms::READ_WRITE,
                crate::ShadowMode::None,
            )
            .unwrap();
        bus.port_mut().ram_mut().write_u64(buf.first_frame.base(), 100).unwrap();

        let mut ex = Executor::new(CostModel::alpha_3000_300(), WriteBufferPolicy::default());
        let prog = ProgramBuilder::new()
            .imm(Reg::R0, buf.va.as_u64())
            .imm(Reg::R1, udma_nic::AtomicOp::Add.code())
            .imm(Reg::R2, 5)
            .syscall(crate::SYS_ATOMIC)
            .halt()
            .build();
        let pid = ex.spawn(prog, pt);
        ex.run(&mut RunToCompletion, &mut kernel, &mut bus, 100);
        assert_eq!(ex.process(pid).reg(Reg::R0), 100); // old value
        assert_eq!(bus.port_mut().ram_mut().read_u64(buf.first_frame.base()).unwrap(), 105);
    }

    #[test]
    fn unknown_syscall_fails() {
        let (mut kernel, mut bus) = machine(SwitchPolicy::Vanilla);
        let mut ex = Executor::new(CostModel::alpha_3000_300(), WriteBufferPolicy::default());
        let pid = ex.spawn(ProgramBuilder::new().syscall(999).halt().build(), PageTable::new());
        ex.run(&mut RunToCompletion, &mut kernel, &mut bus, 100);
        assert_eq!(ex.process(pid).reg(Reg::R0), DMA_FAILURE);
        assert_eq!(kernel.stats().failed_syscalls, 1);
    }

    #[test]
    fn switch_policies_touch_the_engine() {
        for (policy, expect_hooks) in [
            (SwitchPolicy::Vanilla, 0),
            (SwitchPolicy::ShrimpAbort, 1),
            (SwitchPolicy::FlashNotify, 1),
        ] {
            let (mut kernel, mut bus) = machine(policy);
            let dt = kernel.on_context_switch(
                None,
                Pid::new(3),
                SwitchReason::InitialDispatch,
                &mut bus,
                SimTime::ZERO,
            );
            assert_eq!(kernel.stats().switch_hooks, expect_hooks, "{policy}");
            assert_eq!(dt > SimTime::ZERO, expect_hooks > 0);
        }
    }

    #[test]
    fn register_ring_validates_window_and_programs_tables() {
        let (mut kernel, mut bus) = machine(SwitchPolicy::Vanilla);
        bus.nic_mut()
            .core_mut()
            .enable_iommu(udma_iommu::IotlbConfig::default(), udma_nic::VirtDmaConfig::default());
        bus.nic_mut().core_mut().enable_rings(udma_nic::RingConfig::default());
        let g = kernel.grant_context(Pid::new(1), &mut bus, SimTime::ZERO).unwrap();
        let mut pt = PageTable::new();
        let buf = kernel
            .vm_mut()
            .map_buffer(
                &mut pt,
                VirtAddr::new(0x4000),
                1,
                Perms::READ_WRITE,
                crate::ShadowMode::None,
            )
            .unwrap();
        // One page holds PAGE_SIZE/DESC_BYTES slots; more must bounce.
        let max = PAGE_SIZE / udma_nic::DESC_BYTES;
        assert!(!kernel.register_ring(&g, &buf, max + 1, &mut bus, SimTime::ZERO));
        assert!(!kernel.register_ring(&g, &buf, 0, &mut bus, SimTime::ZERO));
        assert!(!bus.nic().core().rings().unwrap().ring(g.ctx).registered());
        // A read-only buffer can't back a ring the process must write.
        let ro = kernel
            .vm_mut()
            .map_buffer(&mut pt, VirtAddr::new(0x8000), 1, Perms::READ, crate::ShadowMode::None)
            .unwrap();
        assert!(!kernel.register_ring(&g, &ro, 4, &mut bus, SimTime::ZERO));

        assert!(kernel.register_ring(&g, &buf, max, &mut bus, SimTime::ZERO));
        let ring = bus.nic().core().rings().unwrap().ring(g.ctx);
        assert!(ring.registered());
        assert_eq!(ring.base, buf.first_frame.base());
        assert_eq!(ring.capacity as u64, max);
        kernel.deregister_ring(&g, &mut bus, SimTime::ZERO);
        assert!(!bus.nic().core().rings().unwrap().ring(g.ctx).registered());
    }

    #[test]
    fn register_ring_fails_without_a_ring_unit() {
        let (mut kernel, mut bus) = machine(SwitchPolicy::Vanilla);
        let g = kernel.grant_context(Pid::new(1), &mut bus, SimTime::ZERO).unwrap();
        let mut pt = PageTable::new();
        let buf = kernel
            .vm_mut()
            .map_buffer(
                &mut pt,
                VirtAddr::new(0x4000),
                1,
                Perms::READ_WRITE,
                crate::ShadowMode::None,
            )
            .unwrap();
        // The ring tables do not decode, so the kernel reports failure.
        assert!(!kernel.register_ring(&g, &buf, 4, &mut bus, SimTime::ZERO));
        assert_eq!(kernel.stats().failed_syscalls, 1);
        assert!(bus.nic().core().rings().is_none());
    }

    #[test]
    fn grant_context_programs_key_table() {
        let (mut kernel, mut bus) = machine(SwitchPolicy::Vanilla);
        let g = kernel.grant_context(Pid::new(1), &mut bus, SimTime::ZERO).unwrap();
        assert_eq!(bus.nic().core().key(g.ctx), g.key);
        // Same pid again: same grant, not reprogrammed differently.
        let g2 = kernel.grant_context(Pid::new(1), &mut bus, SimTime::ZERO).unwrap();
        assert_eq!(g, g2);
    }
}
