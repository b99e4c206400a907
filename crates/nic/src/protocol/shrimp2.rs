//! SHRIMP-2: the two-access store+load scheme (§2.5, Figure 2).

use crate::protocol::{refuse, started};
use crate::{EngineCore, Initiator, RejectReason};
use udma_bus::{MemPort, SimTime};
use udma_mem::PhysAddr;

/// The second SHRIMP scheme. A store to `shadow(vdestination)` stages the
/// destination address and size; a load from `shadow(vsource)` supplies
/// the source, starts the transfer and returns the status.
///
/// The engine has **one** pending-argument slot, so "if the user process
/// is interrupted after the STORE operation, but before the LOAD
/// operation, then its arguments to the DMA operation may get mixed with
/// arguments of other processes". Safety requires either the SHRIMP
/// kernel patch (the context-switch handler writes the engine's abort
/// register → [`Shrimp2::abort`]) or PAL-mode execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shrimp2 {
    pending: Option<(PhysAddr, u64)>,
}

impl Shrimp2 {
    /// Creates the state machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store to `shadow(vdestination)` stages the destination and size.
    pub fn shadow_store(&mut self, pa: PhysAddr, size: u64) {
        self.pending = Some((pa, size));
    }

    /// A load from `shadow(vsource)` starts the staged transfer from `pa`.
    pub fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        match self.pending.take() {
            Some((dst, size)) => {
                started(core.start_user_dma(pa, dst, size, Initiator::Anonymous, now, mem))
            }
            None => refuse(core, RejectReason::MissingArgs),
        }
    }

    /// A write to the engine's abort register.
    pub fn abort(&mut self) {
        // The SHRIMP kernel patch: "the operating system must invalidate
        // any partially initiated user-level DMA transfer on every
        // context switch".
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, DMA_FAILURE, DMA_STARTED};
    use udma_mem::{PhysLayout, PhysMemory, PAGE_SIZE};

    fn world() -> (Shrimp2, EngineCore, MemPort) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        (Shrimp2::new(), EngineCore::new(layout, EngineConfig::default()), mem)
    }

    #[test]
    fn store_then_load_transfers() {
        let (mut p, mut core, mut mem) = world();
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        let src = PhysAddr::new(2 * PAGE_SIZE);
        p.shadow_store(dst, 256);
        assert!(p.pending.is_some());
        let status = p.shadow_load(&mut core, src, SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_STARTED);
        assert!(p.pending.is_none());
        let rec = &core.mover().records()[0];
        assert_eq!((rec.src, rec.dst, rec.size), (src, dst, 256));
    }

    #[test]
    fn load_without_store_fails() {
        let (mut p, mut core, mut mem) = world();
        let status = p.shadow_load(&mut core, PhysAddr::new(PAGE_SIZE), SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_FAILURE);
        assert_eq!(core.stats().rejected_for(RejectReason::MissingArgs), 1);
    }

    #[test]
    fn argument_mixing_race_is_real() {
        // Process A stores dst_a; B preempts, stores dst_b and loads
        // src_b → B's transfer uses B's args (fine); then A loads src_a
        // → *fails* (slot empty), or worse if B only stored: A's load
        // pairs with B's destination.
        let (mut p, mut core, mut mem) = world();
        let dst_a = PhysAddr::new(4 * PAGE_SIZE);
        let dst_b = PhysAddr::new(5 * PAGE_SIZE);
        let src_a = PhysAddr::new(2 * PAGE_SIZE);
        p.shadow_store(dst_a, 64); // A
        p.shadow_store(dst_b, 32); // B overwrites
        let status = p.shadow_load(&mut core, src_a, SimTime::ZERO, &mut mem); // A resumes
        assert_eq!(status, DMA_STARTED);
        let rec = &core.mover().records()[0];
        // A's data went to B's destination: the paper's race.
        assert_eq!(rec.dst, dst_b);
        assert_eq!(rec.src, src_a);
    }

    #[test]
    fn abort_clears_pending_half_initiation() {
        let (mut p, mut core, mut mem) = world();
        p.shadow_store(PhysAddr::new(4 * PAGE_SIZE), 64);
        p.abort(); // SHRIMP kernel patch at context switch
        let status =
            p.shadow_load(&mut core, PhysAddr::new(2 * PAGE_SIZE), SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_FAILURE);
        assert!(core.mover().records().is_empty());
    }
}
