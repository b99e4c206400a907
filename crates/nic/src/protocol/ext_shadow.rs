//! Extended shadow addressing (§3.2, Figure 4).

use crate::protocol::{ctx_atomic_store, refuse, start_for_ctx, started};
use crate::regs::MAX_CONTEXTS;
use crate::{EngineCore, Initiator, RejectReason};
use udma_bus::{MemPort, SimTime};
use udma_mem::PhysAddr;

/// Extended shadow addressing: the kernel embeds a 1–2-bit `CONTEXT_ID`
/// in the shadow *physical* address when it creates the mappings, so
/// "by checking the CONTEXT_ID, the DMA engine knows which process the
/// shadow address belongs to" — the FLASH property with zero kernel
/// involvement at transfer time.
///
/// The initiation sequence is SHRIMP-2's two accesses (Figure 4), but the
/// pending-argument slot is per context id, so interleavings of different
/// processes cannot mix arguments. If somehow a store and load with
/// different context ids pair up, the transfer is refused
/// ([`RejectReason::CtxMismatch`] covers the engine-without-contexts
/// variant the paper sketches).
#[derive(Clone, Debug)]
pub struct ExtShadow {
    pending: [Option<(PhysAddr, u64)>; MAX_CONTEXTS as usize],
}

impl Default for ExtShadow {
    fn default() -> Self {
        ExtShadow { pending: [None; MAX_CONTEXTS as usize] }
    }
}

impl ExtShadow {
    /// Creates the state machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store to `shadow(vdestination)` stages the destination and size
    /// in the slot of the context id the shadow address carries.
    pub fn shadow_store(&mut self, core: &mut EngineCore, pa: PhysAddr, ctx: u32, size: u64) {
        if !core.has_context(ctx) {
            core.note_reject(RejectReason::CtxMismatch);
        } else {
            self.pending[ctx as usize] = Some((pa, size));
        }
    }

    /// A load from `shadow(vsource)` starts context `ctx`'s staged
    /// transfer from `pa` and answers the bytes it has yet to move.
    pub fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        ctx: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        if !core.has_context(ctx) {
            return refuse(core, RejectReason::CtxMismatch);
        }
        match self.pending[ctx as usize].take() {
            Some((dst, size)) => start_for_ctx(core, ctx, (pa, dst, size), now, mem),
            None => refuse(core, RejectReason::MissingArgs),
        }
    }

    /// A store to context page `ctx`: an atomic register.
    pub fn ctx_store(
        &mut self,
        core: &mut EngineCore,
        ctx: u32,
        offset: u64,
        data: u64,
        mem: &mut MemPort,
    ) {
        if core.has_context(ctx) {
            // The address comes from this context's pending slot (one
            // shadow store instead of two: atomics take a single
            // address, §3.5).
            let slot = &mut self.pending[ctx as usize];
            ctx_atomic_store(core, ctx, offset, data, mem, |_| slot.take().map(|(addr, _)| addr));
        }
    }
}

/// The §3.2 variant for an engine *without* register contexts: one
/// pending-argument slot, tagged with the store's CONTEXT_ID; the load
/// completes the pair only if its own CONTEXT_ID matches ("if they are
/// different, the DMA operation is not started and an error code is
/// returned by the last LOAD instruction").
///
/// Unlike [`ExtShadow`], an interleaving of two processes makes *both*
/// fail (and retry) rather than both succeed — safe, but not wait-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtShadowPairwise {
    pending: Option<(PhysAddr, u64, u32)>,
}

impl ExtShadowPairwise {
    /// Creates the state machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store to `shadow(vdestination)` stages the destination and size,
    /// tagged with the shadow address's context id.
    pub fn shadow_store(&mut self, pa: PhysAddr, ctx: u32, size: u64) {
        self.pending = Some((pa, size, ctx));
    }

    /// A load from `shadow(vsource)` starts the staged transfer from `pa`
    /// if the store came from the same context id.
    pub fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        ctx: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        match self.pending.take() {
            Some((dst, size, store_ctx)) if store_ctx == ctx => {
                started(core.start_user_dma(pa, dst, size, Initiator::Context(ctx), now, mem))
            }
            Some(_) => refuse(core, RejectReason::CtxMismatch),
            None => refuse(core, RejectReason::MissingArgs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::poll_ctx_status;
    use crate::{regs, AtomicOp, EngineConfig, DMA_FAILURE};
    use udma_mem::{PhysLayout, PhysMemory, PAGE_SIZE};

    fn world() -> (ExtShadow, EngineCore, MemPort) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        (ExtShadow::new(), EngineCore::new(layout, EngineConfig::default()), mem)
    }

    #[test]
    fn figure_4_two_access_initiation() {
        let (mut p, mut core, mut mem) = world();
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        let src = PhysAddr::new(2 * PAGE_SIZE);
        p.shadow_store(&mut core, dst, 2, 128);
        let status = p.shadow_load(&mut core, src, 2, SimTime::ZERO, &mut mem);
        assert_ne!(status, DMA_FAILURE);
        let rec = &core.mover().records()[0];
        assert_eq!((rec.src, rec.dst, rec.size), (src, dst, 128));
        assert_eq!(rec.initiator, Initiator::Context(2));
    }

    #[test]
    fn interleaved_processes_use_disjoint_slots() {
        let (mut p, mut core, mut mem) = world();
        let dst_a = PhysAddr::new(4 * PAGE_SIZE);
        let dst_b = PhysAddr::new(5 * PAGE_SIZE);
        let src_a = PhysAddr::new(2 * PAGE_SIZE);
        let src_b = PhysAddr::new(3 * PAGE_SIZE);
        // A(ctx 0) stores, B(ctx 1) preempts and does a full initiation,
        // A resumes: exactly the schedule that breaks SHRIMP-2.
        p.shadow_store(&mut core, dst_a, 0, 64);
        p.shadow_store(&mut core, dst_b, 1, 32);
        assert_ne!(p.shadow_load(&mut core, src_b, 1, SimTime::ZERO, &mut mem), DMA_FAILURE);
        assert_ne!(p.shadow_load(&mut core, src_a, 0, SimTime::ZERO, &mut mem), DMA_FAILURE);
        let recs = core.mover().records();
        assert_eq!((recs[0].src, recs[0].dst), (src_b, dst_b));
        assert_eq!((recs[1].src, recs[1].dst), (src_a, dst_a));
    }

    #[test]
    fn load_before_store_fails() {
        let (mut p, mut core, mut mem) = world();
        assert_eq!(
            p.shadow_load(&mut core, PhysAddr::new(PAGE_SIZE), 0, SimTime::ZERO, &mut mem),
            DMA_FAILURE
        );
        assert_eq!(core.stats().rejected_for(RejectReason::MissingArgs), 1);
    }

    #[test]
    fn out_of_range_context_rejected() {
        let (mut p, mut core, mut mem) = world(); // 4 contexts configured
        p.shadow_store(&mut core, PhysAddr::new(PAGE_SIZE), 5, 64);
        assert_eq!(core.stats().rejected_for(RejectReason::CtxMismatch), 1);
        assert_eq!(
            p.shadow_load(&mut core, PhysAddr::new(PAGE_SIZE), 5, SimTime::ZERO, &mut mem),
            DMA_FAILURE
        );
    }

    #[test]
    fn status_polling_after_initiation() {
        let (mut p, mut core, mut mem) = world();
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        let src = PhysAddr::new(2 * PAGE_SIZE);
        p.shadow_store(&mut core, dst, 0, 4096);
        let r0 = p.shadow_load(&mut core, src, 0, SimTime::ZERO, &mut mem);
        assert!(r0 > 0 && r0 != DMA_FAILURE); // bytes still in flight
                                              // Long after the wire time has elapsed the context reads 0.
        let done = poll_ctx_status(&core, 0, regs::CTX_SIZE_TRIGGER, SimTime::from_us(100_000));
        assert_eq!(done, 0);
    }

    #[test]
    fn pairwise_variant_accepts_matching_ctx_pair() {
        let (_, mut core, mut mem) = world();
        let mut p = ExtShadowPairwise::new();
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        let src = PhysAddr::new(2 * PAGE_SIZE);
        p.shadow_store(dst, 1, 64);
        assert_eq!(p.shadow_load(&mut core, src, 1, SimTime::ZERO, &mut mem), crate::DMA_STARTED);
        let rec = &core.mover().records()[0];
        assert_eq!((rec.src, rec.dst), (src, dst));
    }

    #[test]
    fn pairwise_variant_rejects_mixed_ctx_pair() {
        let (_, mut core, mut mem) = world();
        let mut p = ExtShadowPairwise::new();
        // Process ctx 0 stores; process ctx 1's load arrives next — the
        // §2.5 race pattern. The engine refuses instead of mixing.
        p.shadow_store(PhysAddr::new(4 * PAGE_SIZE), 0, 64);
        assert_eq!(
            p.shadow_load(&mut core, PhysAddr::new(2 * PAGE_SIZE), 1, SimTime::ZERO, &mut mem),
            DMA_FAILURE
        );
        assert!(core.mover().records().is_empty());
        assert_eq!(core.stats().rejected_for(RejectReason::CtxMismatch), 1);
        // The slot is consumed: the victim's own late load also fails…
        assert_eq!(
            p.shadow_load(&mut core, PhysAddr::new(2 * PAGE_SIZE), 0, SimTime::ZERO, &mut mem),
            DMA_FAILURE
        );
        // …and a clean retry succeeds.
        p.shadow_store(PhysAddr::new(4 * PAGE_SIZE), 0, 64);
        assert_eq!(
            p.shadow_load(&mut core, PhysAddr::new(2 * PAGE_SIZE), 0, SimTime::ZERO, &mut mem),
            crate::DMA_STARTED
        );
    }

    #[test]
    fn atomic_fetch_store_via_ext_shadow() {
        let (mut p, mut core, mut mem) = world();
        let addr = PhysAddr::new(0x200);
        assert_eq!(core.exec_atomic(AtomicOp::FetchStore.code(), addr, 5, 0, &mut mem), 0);
        p.shadow_store(&mut core, addr, 3, 0); // address only
        p.ctx_store(&mut core, 3, regs::CTX_ATOMIC_OPERAND1, 77, &mut mem);
        p.ctx_store(&mut core, 3, regs::CTX_ATOMIC_CMD, AtomicOp::FetchStore.code(), &mut mem);
        assert_eq!(poll_ctx_status(&core, 3, regs::CTX_ATOMIC_CMD, SimTime::ZERO), 5);
    }
}
