//! SHRIMP-2: the two-access store+load scheme (§2.5, Figure 2).

use crate::protocol::{InitiationProtocol, ProtocolKind};
use crate::{EngineCore, Initiator, RejectReason, DMA_FAILURE, DMA_STARTED};
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
/// register → [`InitiationProtocol::abort`]) or PAL-mode execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shrimp2 {
    pending: Option<(PhysAddr, u64)>,
}

impl Shrimp2 {
    /// Creates the state machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a half-initiated transfer is staged (test inspection).
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }
}

impl InitiationProtocol for Shrimp2 {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Shrimp2
    }

    fn shadow_store(
        &mut self,
        _core: &mut EngineCore,
        pa: PhysAddr,
        _ctx: u32,
        size: u64,
        _now: SimTime,
        _mem: &mut MemPort,
    ) -> SimTime {
        self.pending = Some((pa, size));
        SimTime::ZERO
    }

    fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        _ctx: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        match self.pending.take() {
            Some((dst, size)) => {
                match core.start_user_dma(pa, dst, size, Initiator::Anonymous, now, mem) {
                    Ok(_) => DMA_STARTED,
                    Err(_) => DMA_FAILURE,
                }
            }
            None => {
                core.note_reject(RejectReason::MissingArgs);
                DMA_FAILURE
            }
        }
    }

    fn abort(&mut self) {
        // The SHRIMP kernel patch: "the operating system must invalidate
        // any partially initiated user-level DMA transfer on every
        // context switch".
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
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
        p.shadow_store(&mut core, dst, 0, 256, SimTime::ZERO, &mut mem);
        assert!(p.has_pending());
        let status = p.shadow_load(&mut core, src, 0, SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_STARTED);
        assert!(!p.has_pending());
        let rec = &core.mover().records()[0];
        assert_eq!((rec.src, rec.dst, rec.size), (src, dst, 256));
    }

    #[test]
    fn load_without_store_fails() {
        let (mut p, mut core, mut mem) = world();
        let status = p.shadow_load(&mut core, PhysAddr::new(PAGE_SIZE), 0, SimTime::ZERO, &mut mem);
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
        p.shadow_store(&mut core, dst_a, 0, 64, SimTime::ZERO, &mut mem); // A
        p.shadow_store(&mut core, dst_b, 0, 32, SimTime::ZERO, &mut mem); // B overwrites
        let status = p.shadow_load(&mut core, src_a, 0, SimTime::ZERO, &mut mem); // A resumes
        assert_eq!(status, DMA_STARTED);
        let rec = &core.mover().records()[0];
        // A's data went to B's destination: the paper's race.
        assert_eq!(rec.dst, dst_b);
        assert_eq!(rec.src, src_a);
    }

    #[test]
    fn abort_clears_pending_half_initiation() {
        let (mut p, mut core, mut mem) = world();
        p.shadow_store(&mut core, PhysAddr::new(4 * PAGE_SIZE), 0, 64, SimTime::ZERO, &mut mem);
        p.abort(); // SHRIMP kernel patch at context switch
        let status =
            p.shadow_load(&mut core, PhysAddr::new(2 * PAGE_SIZE), 0, SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_FAILURE);
        assert!(core.mover().records().is_empty());
    }
}
