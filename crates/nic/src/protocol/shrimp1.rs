//! SHRIMP-1: mapped-out pages (§2.4).

use crate::protocol::{InitiationProtocol, ProtocolKind};
use crate::{Destination, EngineCore, Initiator, RejectReason, DMA_FAILURE, DMA_STARTED};
use udma_bus::SimTime;
use udma_mem::PhysAddr;

/// The first SHRIMP scheme: every communication page has a fixed
/// "mapped-out" destination page on another workstation, so a single
/// atomic store suffices — the store's *address* names the source, its
/// *data* carries the size, and the destination is implied.
///
/// "This solution, although correct, is of limited functionality. A DMA
/// operation can happen only between a page and its mapped out
/// counterpart" — the engine rejects sources with no mapped-out entry.
#[derive(Clone, Debug, Default)]
pub struct Shrimp1 {
    last_status: u64,
}

impl Shrimp1 {
    /// Creates the state machine.
    pub fn new() -> Self {
        Shrimp1 { last_status: DMA_FAILURE }
    }
}

impl InitiationProtocol for Shrimp1 {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Shrimp1
    }

    fn shadow_store(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        _ctx: u32,
        size: u64,
        now: SimTime,
    ) -> SimTime {
        let dst = match core.mapped_out(pa.page()) {
            Some(Destination::Local(base)) => Destination::Local(base + pa.page_offset()),
            Some(Destination::Remote { node, addr }) => {
                Destination::Remote { node, addr: addr + pa.page_offset() }
            }
            None => {
                core.note_reject(RejectReason::MissingArgs);
                self.last_status = DMA_FAILURE;
                return SimTime::ZERO;
            }
        };
        self.last_status =
            match core.launch_checked(pa, dst, size, Initiator::Anonymous, false, now) {
                Ok(_) => DMA_STARTED,
                Err(_) => DMA_FAILURE,
            };
        SimTime::ZERO
    }

    fn shadow_load(
        &mut self,
        _core: &mut EngineCore,
        _pa: PhysAddr,
        _ctx: u32,
        _now: SimTime,
    ) -> u64 {
        // The compare-and-exchange of the real SHRIMP returns the
        // initiation result; modelled as a status load.
        self.last_status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use std::cell::RefCell;
    use std::rc::Rc;
    use udma_mem::{PhysLayout, PhysMemory, PAGE_SIZE};

    fn world() -> (Shrimp1, EngineCore) {
        let layout = PhysLayout::default();
        let mem = Rc::new(RefCell::new(PhysMemory::new(1 << 22)));
        (Shrimp1::new(), EngineCore::new(layout, mem, EngineConfig::default()))
    }

    #[test]
    fn store_to_mapped_page_starts_transfer_to_fixed_destination() {
        let (mut p, mut core) = world();
        let src = PhysAddr::new(2 * PAGE_SIZE);
        core.set_mapped_out(src.page(), Destination::Local(PhysAddr::new(40 * PAGE_SIZE)));
        p.shadow_store(&mut core, src + 0x40, 0, 128, SimTime::ZERO);
        assert_eq!(p.shadow_load(&mut core, src, 0, SimTime::ZERO), DMA_STARTED);
        let rec = &core.mover().records()[0];
        assert_eq!(rec.src, src + 0x40);
        // Destination preserves the in-page offset.
        assert_eq!(rec.dst, PhysAddr::new(40 * PAGE_SIZE + 0x40));
        assert_eq!(rec.size, 128);
    }

    #[test]
    fn unmapped_source_page_rejected() {
        let (mut p, mut core) = world();
        p.shadow_store(&mut core, PhysAddr::new(PAGE_SIZE), 0, 64, SimTime::ZERO);
        assert_eq!(
            p.shadow_load(&mut core, PhysAddr::new(PAGE_SIZE), 0, SimTime::ZERO),
            DMA_FAILURE
        );
        assert!(core.mover().records().is_empty());
        assert_eq!(core.stats().rejected_for(RejectReason::MissingArgs), 1);
    }

    #[test]
    fn page_crossing_transfer_rejected() {
        let (mut p, mut core) = world();
        let src = PhysAddr::new(2 * PAGE_SIZE);
        core.set_mapped_out(src.page(), Destination::Local(PhysAddr::new(40 * PAGE_SIZE)));
        p.shadow_store(&mut core, src + (PAGE_SIZE - 8), 0, 64, SimTime::ZERO);
        assert_eq!(p.shadow_load(&mut core, src, 0, SimTime::ZERO), DMA_FAILURE);
        assert_eq!(core.stats().rejected_for(RejectReason::PageCross), 1);
    }
}
