//! FLASH: per-process argument slots keyed by a kernel-maintained
//! current-pid register (§2.6).

use crate::protocol::{InitiationProtocol, ProtocolKind};
use crate::{EngineCore, Initiator, RejectReason, DMA_FAILURE, DMA_STARTED};
use std::collections::HashMap;
use udma_bus::{MemPort, SimTime};
use udma_mem::PhysAddr;

/// The FLASH scheme: "the context switch handler informs the DMA engine
/// about which process is currently running. Thus, the DMA engine knows
/// which process runs, and makes sure that DMA arguments belonging to
/// different processes do not get mixed."
///
/// With an *unmodified* kernel the current-pid register is never updated,
/// every process's accesses land in the same slot, and the scheme
/// degenerates to SHRIMP-2's race — which is why FLASH counts as
/// requiring a kernel patch.
#[derive(Clone, Debug, Default)]
pub struct Flash {
    current_pid: u64,
    pending: HashMap<u64, (PhysAddr, u64)>,
}

impl Flash {
    /// Creates the state machine; the current pid starts at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pid the engine currently believes is running.
    pub fn current_pid(&self) -> u64 {
        self.current_pid
    }
}

impl InitiationProtocol for Flash {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Flash
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
        self.pending.insert(self.current_pid, (pa, size));
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
        match self.pending.remove(&self.current_pid) {
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

    fn set_current_pid(&mut self, pid: u64) {
        self.current_pid = pid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use udma_mem::{PhysLayout, PhysMemory, PAGE_SIZE};

    fn world() -> (Flash, EngineCore, MemPort) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        (Flash::new(), EngineCore::new(layout, EngineConfig::default()), mem)
    }

    #[test]
    fn per_process_slots_survive_interleaving_when_kernel_notifies() {
        let (mut p, mut core, mut mem) = world();
        let dst_a = PhysAddr::new(4 * PAGE_SIZE);
        let dst_b = PhysAddr::new(5 * PAGE_SIZE);
        let src_a = PhysAddr::new(2 * PAGE_SIZE);
        let src_b = PhysAddr::new(3 * PAGE_SIZE);

        p.set_current_pid(1); // kernel patch at dispatch of A
        p.shadow_store(&mut core, dst_a, 0, 64, SimTime::ZERO, &mut mem);
        p.set_current_pid(2); // context switch to B
        p.shadow_store(&mut core, dst_b, 0, 32, SimTime::ZERO, &mut mem);
        assert_eq!(p.shadow_load(&mut core, src_b, 0, SimTime::ZERO, &mut mem), DMA_STARTED);
        p.set_current_pid(1); // back to A
        assert_eq!(p.shadow_load(&mut core, src_a, 0, SimTime::ZERO, &mut mem), DMA_STARTED);

        let recs = core.mover().records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].src, recs[0].dst), (src_b, dst_b));
        assert_eq!((recs[1].src, recs[1].dst), (src_a, dst_a));
    }

    #[test]
    fn without_kernel_notification_arguments_mix() {
        let (mut p, mut core, mut mem) = world();
        // Unmodified kernel: current_pid stays 0 for everyone.
        let dst_a = PhysAddr::new(4 * PAGE_SIZE);
        let dst_b = PhysAddr::new(5 * PAGE_SIZE);
        let src_a = PhysAddr::new(2 * PAGE_SIZE);
        p.shadow_store(&mut core, dst_a, 0, 64, SimTime::ZERO, &mut mem); // A
        p.shadow_store(&mut core, dst_b, 0, 32, SimTime::ZERO, &mut mem); // B overwrites
        assert_eq!(p.shadow_load(&mut core, src_a, 0, SimTime::ZERO, &mut mem), DMA_STARTED);
        // A's source went to B's destination: SHRIMP-2's race reappears.
        assert_eq!(core.mover().records()[0].dst, dst_b);
    }

    #[test]
    fn load_with_no_pending_slot_fails() {
        let (mut p, mut core, mut mem) = world();
        p.set_current_pid(7);
        assert_eq!(
            p.shadow_load(&mut core, PhysAddr::new(PAGE_SIZE), 0, SimTime::ZERO, &mut mem),
            DMA_FAILURE
        );
    }
}
