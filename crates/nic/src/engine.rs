//! The DMA engine as a bus device.

use crate::protocol::{InitiationProtocol, ProtocolKind};
use crate::regs;
use crate::{EngineConfig, EngineCore};
use udma_bus::{BusDevice, MemPort, SimTime};
use udma_mem::{MemFault, PhysAddr, PhysLayout, Region};

/// The FPGA: decodes the register and shadow windows and drives the
/// active [`InitiationProtocol`].
///
/// The bus owns the engine and lends it the memory port with every
/// transaction; the machine owner reaches the core (keys, mapped-out
/// tables, statistics) through the bus.
pub struct DmaEngine {
    core: EngineCore,
    protocol: Box<dyn InitiationProtocol>,
}

impl std::fmt::Debug for DmaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmaEngine")
            .field("protocol", &self.protocol.kind())
            .field("stats", self.core.stats())
            .finish()
    }
}

impl DmaEngine {
    /// Builds an engine running `kind`.
    pub fn new(layout: PhysLayout, config: EngineConfig, kind: ProtocolKind) -> Self {
        DmaEngine { core: EngineCore::new(layout, config), protocol: kind.instantiate() }
    }

    /// The active protocol.
    pub fn protocol_kind(&self) -> ProtocolKind {
        self.protocol.kind()
    }

    /// The engine core (stats, transfer records, keys).
    pub fn core(&self) -> &EngineCore {
        &self.core
    }

    /// The engine core, mutably (configuration: keys, mapped-out table,
    /// clearing records; engine work the owner posts directly).
    pub fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }
}

impl BusDevice for DmaEngine {
    fn write(
        &mut self,
        paddr: PhysAddr,
        data: u64,
        _tag: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> Result<SimTime, MemFault> {
        let DmaEngine { core, protocol } = self;
        let bus_error = MemFault::BusError { pa: paddr };
        match core.layout().region_of(paddr) {
            Region::Shadow => {
                let (pa, ctx) = core.layout().shadow.decode(paddr).ok_or(bus_error)?;
                Ok(protocol.shadow_store(core, pa, ctx, data, now, mem))
            }
            Region::NicRegs { offset } => {
                if let Some((ctx, off)) = regs::decode_ctx_offset(offset) {
                    // The virtual-address window shadows part of each
                    // context page, but only decodes on IOMMU-equipped
                    // engines; otherwise the protocol sees the store.
                    // The doorbell likewise shadows a context-page slot
                    // and only decodes on ring-enabled engines.
                    if core.virt().is_some() && regs::is_virt_offset(off) {
                        core.ctx_virt_store(ctx, off, data, now, mem);
                    } else if core.rings().is_some() && regs::is_ring_offset(off) {
                        core.ring_doorbell(ctx, data, now, mem);
                    } else {
                        protocol.ctx_store(core, ctx, off, data, now, mem);
                    }
                    return Ok(SimTime::ZERO);
                }
                match offset {
                    regs::DMA_SOURCE => core.set_dma_source(data),
                    regs::DMA_DEST => core.set_dma_dest(data),
                    regs::DMA_SIZE => core.start_kernel_dma(data, now, mem),
                    regs::CURRENT_PID => protocol.set_current_pid(data),
                    regs::ABORT => protocol.abort(),
                    regs::ATOMIC_ADDR => core.set_atomic_addr(data),
                    regs::ATOMIC_OPERAND1 => core.set_atomic_op1(data),
                    regs::ATOMIC_OPERAND2 => core.set_atomic_op2(data),
                    regs::ATOMIC_CMD => core.exec_kernel_atomic(data, mem),
                    // The per-context privileged tables. The ring tables
                    // belong to the ring unit: on an engine without one
                    // they do not decode at all.
                    o => {
                        let table = regs::MAX_CONTEXTS as u64 * 8;
                        let slot =
                            |base| (o.wrapping_sub(base) < table).then(|| (o - base) as u32 / 8);
                        if let Some(ctx) = slot(regs::KEY_TABLE_BASE) {
                            core.set_key(ctx, data);
                        } else if let Some(ctx) = slot(regs::RING_BASE_TABLE) {
                            core.rings_mut().ok_or(bus_error)?.set_base(ctx, data);
                        } else if let Some(ctx) = slot(regs::RING_CTL_TABLE) {
                            core.rings_mut().ok_or(bus_error)?.set_ctl(ctx, data);
                        } else {
                            return Err(bus_error);
                        }
                    }
                }
                Ok(SimTime::ZERO)
            }
            _ => Err(bus_error),
        }
    }

    fn read(
        &mut self,
        paddr: PhysAddr,
        _tag: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> Result<u64, MemFault> {
        let DmaEngine { core, protocol } = self;
        match core.layout().region_of(paddr) {
            Region::Shadow => {
                let (pa, ctx) =
                    core.layout().shadow.decode(paddr).ok_or(MemFault::BusError { pa: paddr })?;
                Ok(protocol.shadow_load(core, pa, ctx, now, mem))
            }
            Region::NicRegs { offset } => {
                if let Some((ctx, off)) = regs::decode_ctx_offset(offset) {
                    return Ok(match (core.virt(), core.rings()) {
                        (Some(virt), _) if regs::is_virt_offset(off) => {
                            virt.ctx_load(ctx, off, now)
                        }
                        (_, Some(rings)) if regs::is_ring_offset(off) => rings.db_load(ctx),
                        _ => protocol.ctx_load(core, ctx, off, now, mem),
                    });
                }
                match offset {
                    regs::DMA_STATUS => Ok(core.kernel_dma_status(now)),
                    regs::ATOMIC_CMD => Ok(core.kernel_atomic_result()),
                    // Staged kernel registers read back as zero (the real
                    // FPGA's write-only setup registers).
                    regs::DMA_SOURCE
                    | regs::DMA_DEST
                    | regs::DMA_SIZE
                    | regs::CURRENT_PID
                    | regs::ABORT
                    | regs::ATOMIC_ADDR
                    | regs::ATOMIC_OPERAND1
                    | regs::ATOMIC_OPERAND2 => Ok(0),
                    _ => Err(MemFault::BusError { pa: paddr }),
                }
            }
            _ => Err(MemFault::BusError { pa: paddr }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DMA_FAILURE, DMA_STARTED};
    use udma_mem::{PhysMemory, PAGE_SIZE};

    fn engine(kind: ProtocolKind) -> (DmaEngine, MemPort, PhysLayout) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        (DmaEngine::new(layout, EngineConfig::default(), kind), mem, layout)
    }

    #[test]
    fn kernel_dma_through_the_register_window() {
        let (mut e, mut mem, layout) = engine(ProtocolKind::KernelOnly);
        let base = layout.nic_base;
        e.write(base + regs::DMA_SOURCE, 2 * PAGE_SIZE, 0, SimTime::ZERO, &mut mem).unwrap();
        e.write(base + regs::DMA_DEST, 6 * PAGE_SIZE, 0, SimTime::ZERO, &mut mem).unwrap();
        e.write(base + regs::DMA_SIZE, 128, 0, SimTime::ZERO, &mut mem).unwrap();
        // Status far in the future: complete.
        let s = e.read(base + regs::DMA_STATUS, 0, SimTime::from_us(100_000), &mut mem).unwrap();
        assert_eq!(s, 0);
        assert_eq!(e.core().stats().started, 1);
    }

    #[test]
    fn shadow_window_drives_protocol() {
        let (mut e, mut mem, layout) = engine(ProtocolKind::Shrimp2);
        let shadow = |pa: u64| layout.shadow.shadow_paddr(PhysAddr::new(pa)).unwrap();
        e.write(shadow(6 * PAGE_SIZE), 64, 1, SimTime::ZERO, &mut mem).unwrap();
        let status = e.read(shadow(2 * PAGE_SIZE), 1, SimTime::ZERO, &mut mem).unwrap();
        assert_eq!(status, DMA_STARTED);
        assert_eq!(e.core().mover().records().len(), 1);
    }

    #[test]
    fn kernel_only_protocol_ignores_shadow() {
        let (mut e, mut mem, layout) = engine(ProtocolKind::KernelOnly);
        let shadow = layout.shadow.shadow_paddr(PhysAddr::new(2 * PAGE_SIZE)).unwrap();
        e.write(shadow, 64, 0, SimTime::ZERO, &mut mem).unwrap();
        assert_eq!(e.read(shadow, 0, SimTime::ZERO, &mut mem).unwrap(), DMA_FAILURE);
        assert!(e.core().mover().records().is_empty());
    }

    #[test]
    fn key_table_writes_land_in_core() {
        let (mut e, mut mem, layout) = engine(ProtocolKind::KeyBased);
        let base = layout.nic_base;
        e.write(base + regs::KEY_TABLE_BASE + 16, 0xCAFE_F00Du64, 0, SimTime::ZERO, &mut mem)
            .unwrap();
        assert_eq!(e.core().key(2), 0xCAFE_F00Du64);
    }

    #[test]
    fn unknown_offset_is_bus_error() {
        let (mut e, mut mem, layout) = engine(ProtocolKind::KernelOnly);
        let pa = layout.nic_base + 0x60;
        assert!(e.write(pa, 0, 0, SimTime::ZERO, &mut mem).is_err());
        assert!(e.read(pa, 0, SimTime::ZERO, &mut mem).is_err());
    }

    #[test]
    fn abort_and_current_pid_reach_protocol() {
        let (mut e, mut mem, layout) = engine(ProtocolKind::Shrimp2);
        let base = layout.nic_base;
        let shadow = |pa: u64| layout.shadow.shadow_paddr(PhysAddr::new(pa)).unwrap();
        e.write(shadow(6 * PAGE_SIZE), 64, 1, SimTime::ZERO, &mut mem).unwrap();
        e.write(base + regs::ABORT, 1, 0, SimTime::ZERO, &mut mem).unwrap();
        let status = e.read(shadow(2 * PAGE_SIZE), 1, SimTime::ZERO, &mut mem).unwrap();
        assert_eq!(status, DMA_FAILURE);

        // CURRENT_PID is accepted (meaningful for FLASH).
        e.write(base + regs::CURRENT_PID, 7, 0, SimTime::ZERO, &mut mem).unwrap();
    }

    #[test]
    fn kernel_atomic_through_registers() {
        let (mut e, mut mem, layout) = engine(ProtocolKind::KernelOnly);
        let base = layout.nic_base;
        e.write(base + regs::ATOMIC_ADDR, 0x100, 0, SimTime::ZERO, &mut mem).unwrap();
        e.write(base + regs::ATOMIC_OPERAND1, 5, 0, SimTime::ZERO, &mut mem).unwrap();
        e.write(base + regs::ATOMIC_CMD, crate::AtomicOp::Add.code(), 0, SimTime::ZERO, &mut mem)
            .unwrap();
        assert_eq!(e.read(base + regs::ATOMIC_CMD, 0, SimTime::ZERO, &mut mem).unwrap(), 0);
        // Twice: result is the previous value (5).
        e.write(base + regs::ATOMIC_CMD, crate::AtomicOp::Add.code(), 0, SimTime::ZERO, &mut mem)
            .unwrap();
        assert_eq!(e.read(base + regs::ATOMIC_CMD, 0, SimTime::ZERO, &mut mem).unwrap(), 5);
    }

    #[test]
    fn ring_tables_and_doorbell_decode() {
        use crate::{DescDst, DmaDescriptor, RingConfig, VirtDmaConfig};
        use udma_iommu::IotlbConfig;
        use udma_mem::{Perms, PhysFrame, VirtAddr, VirtPage};

        let (mut e, mut mem, layout) = engine(ProtocolKind::KeyBased);
        {
            let core = e.core_mut();
            core.enable_iommu(IotlbConfig::default(), VirtDmaConfig::default());
            let iommu = core.iommu_mut().unwrap();
            iommu.create_context(1);
            iommu.map(1, VirtPage::new(0), PhysFrame::new(8), Perms::READ_WRITE, true).unwrap();
            iommu.map(1, VirtPage::new(8), PhysFrame::new(16), Perms::READ_WRITE, true).unwrap();
            core.enable_rings(RingConfig::default());
        }
        let base = layout.nic_base;
        // OS-side registration through the privileged tables.
        e.write(base + regs::RING_BASE_TABLE + 8, 0x40000, 0, SimTime::ZERO, &mut mem).unwrap();
        e.write(base + regs::RING_CTL_TABLE + 8, 16, 0, SimTime::ZERO, &mut mem).unwrap();
        assert!(e.core().rings().unwrap().ring(1).registered());

        let desc =
            DmaDescriptor::new(VirtAddr::new(0), DescDst::Local(VirtAddr::new(8 * PAGE_SIZE)), 8);
        e.core_mut().ring_post(1, &desc, &mut mem).unwrap();
        let db = base + regs::ctx_page_offset(1) + regs::CTX_RING_DB;
        assert_eq!(e.read(db, 0, SimTime::ZERO, &mut mem).unwrap(), 1);
        // The doorbell store itself drives the dequeue.
        e.write(db, 1, 0, SimTime::ZERO, &mut mem).unwrap();
        assert_eq!(e.read(db, 0, SimTime::ZERO, &mut mem).unwrap(), 0);
        assert_eq!(e.core().ring_stats().launched, 1);
        // Writing 0 to the control slot deregisters.
        e.write(base + regs::RING_CTL_TABLE + 8, 0, 0, SimTime::ZERO, &mut mem).unwrap();
        assert!(!e.core().rings().unwrap().ring(1).registered());
    }

    #[test]
    fn ring_tables_do_not_decode_without_the_ring_unit() {
        use crate::VirtDmaConfig;
        use udma_iommu::IotlbConfig;

        let (mut e, mut mem, layout) = engine(ProtocolKind::KeyBased);
        let base = layout.nic_base + regs::RING_BASE_TABLE + 8;
        let ctl = layout.nic_base + regs::RING_CTL_TABLE + 8;
        // No IOMMU, then an IOMMU but no rings: the tables are absent.
        assert!(e.write(base, 0x40000, 0, SimTime::ZERO, &mut mem).is_err());
        e.core_mut().enable_iommu(IotlbConfig::default(), VirtDmaConfig::default());
        assert!(e.write(ctl, 16, 0, SimTime::ZERO, &mut mem).is_err());
        assert!(e.core().rings().is_none());
        // Nothing staged before the unit existed survives into it.
        e.core_mut().enable_rings(crate::RingConfig::default());
        assert!(!e.core().rings().unwrap().ring(1).registered());
        assert_eq!(e.write(ctl, 16, 0, SimTime::ZERO, &mut mem), Ok(SimTime::ZERO));
        assert_eq!(e.core().rings().unwrap().ring(1).base, PhysAddr::new(0));
    }

    #[test]
    fn keyed_shadow_store_returns_the_key_check_latency() {
        let (mut e, mut mem, layout) = engine(ProtocolKind::KeyBased);
        let shadow = layout.shadow.shadow_paddr(PhysAddr::new(2 * PAGE_SIZE)).unwrap();
        let check = EngineConfig::default().key_check_latency;
        assert_eq!(e.write(shadow, 0, 0, SimTime::ZERO, &mut mem), Ok(check));
        // Other windows acknowledge with no device-side latency.
        let base = layout.nic_base;
        assert_eq!(
            e.write(base + regs::DMA_SOURCE, 0, 0, SimTime::ZERO, &mut mem),
            Ok(SimTime::ZERO)
        );
    }
}
