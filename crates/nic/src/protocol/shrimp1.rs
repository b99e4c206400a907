//! SHRIMP-1: mapped-out pages (§2.4).

use crate::protocol::started;
use crate::{EngineCore, DMA_FAILURE};
use udma_bus::{MemPort, SimTime};
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

    /// A store to the shadow of `pa` launches `size` bytes to its twin.
    pub fn shadow_store(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        size: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) {
        self.last_status = started(core.launch_mapped_out(pa, size, now, mem));
    }

    /// The last store's status. The compare-and-exchange of the real
    /// SHRIMP returns the initiation result; modelled as a status load.
    pub fn shadow_load(&self) -> u64 {
        self.last_status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Destination, EngineConfig, RejectReason, DMA_STARTED};
    use udma_mem::{PhysLayout, PhysMemory, VirtAddr, PAGE_SIZE};

    fn world() -> (Shrimp1, EngineCore, MemPort) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        (Shrimp1::new(), EngineCore::new(layout, EngineConfig::default()), mem)
    }

    #[test]
    fn store_to_mapped_page_starts_transfer_to_fixed_destination() {
        let (mut p, mut core, mut mem) = world();
        let src = PhysAddr::new(2 * PAGE_SIZE);
        core.set_mapped_out(src.page(), Destination::Local(PhysAddr::new(40 * PAGE_SIZE)));
        p.shadow_store(&mut core, src + 0x40, 128, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(), DMA_STARTED);
        let rec = &core.mover().records()[0];
        assert_eq!(rec.src, src + 0x40);
        // Destination preserves the in-page offset.
        assert_eq!(rec.dst, PhysAddr::new(40 * PAGE_SIZE + 0x40));
        assert_eq!(rec.size, 128);
    }

    #[test]
    fn store_to_remote_twin_queues_a_send_and_books_no_record() {
        let (mut p, mut core, mut mem) = world();
        let src = PhysAddr::new(2 * PAGE_SIZE);
        let va = VirtAddr::new(16 * PAGE_SIZE);
        core.set_mapped_out(src.page(), Destination::Remote { node: 1, asid: 5, va });
        p.shadow_store(&mut core, src + 0x40, 32, SimTime::from_us(3), &mut mem);
        assert_eq!(p.shadow_load(), DMA_STARTED);
        assert_eq!(core.stats().started, 1);
        assert!(core.mover().records().is_empty(), "the cluster times a remote send");
        let sends = core.take_remote_sends();
        assert_eq!(sends.len(), 1);
        // The in-page offset carries over to the remote VA.
        assert_eq!((sends[0].node, sends[0].asid, sends[0].va), (1, 5, va + 0x40));
        assert_eq!((sends[0].bytes.len(), sends[0].at), (32, SimTime::from_us(3)));
        assert!(core.take_remote_sends().is_empty(), "the drain empties the outbox");
    }

    #[test]
    fn unmapped_source_page_rejected() {
        let (mut p, mut core, mut mem) = world();
        p.shadow_store(&mut core, PhysAddr::new(PAGE_SIZE), 64, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(), DMA_FAILURE);
        assert!(core.mover().records().is_empty());
        assert_eq!(core.stats().rejected_for(RejectReason::MissingArgs), 1);
    }

    #[test]
    fn page_crossing_transfer_rejected() {
        let (mut p, mut core, mut mem) = world();
        let src = PhysAddr::new(2 * PAGE_SIZE);
        core.set_mapped_out(src.page(), Destination::Local(PhysAddr::new(40 * PAGE_SIZE)));
        p.shadow_store(&mut core, src + (PAGE_SIZE - 8), 64, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(), DMA_FAILURE);
        assert_eq!(core.stats().rejected_for(RejectReason::PageCross), 1);
    }
}
