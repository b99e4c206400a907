//! The key-based scheme (§3.1, Figure 3).

use crate::protocol::{ctx_atomic_store, poll_ctx_status, refuse, start_for_ctx};
use crate::regs::{self, decode_key_ctx};
use crate::{EngineCore, RejectReason, DMA_FAILURE, KEY_CHECK_LATENCY};
use udma_bus::{MemPort, SimTime};
use udma_mem::PhysAddr;

/// Key-based user-level DMA.
///
/// Address arguments arrive as `STORE key#context_id TO shadow(vaddr)`:
/// the engine checks the key against the per-context table the OS
/// programmed, then stages the decoded physical address in that context
/// (destination first, then source). The size arrives as an ordinary
/// store to the context's page, and a load from the context page starts
/// the transfer and returns the status / bytes remaining.
///
/// Atomic operations (§3.5) reuse the same machinery: one keyed shadow
/// store supplies the address, context-page stores supply the operands,
/// and a store of the op-code to the context's atomic command register
/// executes it.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyBased;

impl KeyBased {
    /// `STORE key#context_id TO shadow(pa)`: stages `pa` in the context
    /// if the key matches. Returns the key check's latency.
    pub fn shadow_store(&self, core: &mut EngineCore, pa: PhysAddr, data: u64) -> SimTime {
        let (key, ctx) = decode_key_ctx(data);
        if !core.has_context(ctx) || core.key(ctx) != key {
            core.note_key_mismatch();
        } else {
            core.context_mut(ctx).push_addr(pa);
        }
        // The FPGA compares the key before acknowledging, match or not.
        KEY_CHECK_LATENCY
    }

    /// A shadow load. The key-based scheme passes both addresses with
    /// stores; loads from the shadow window mean nothing here.
    pub fn shadow_load(&self, core: &mut EngineCore) -> u64 {
        refuse(core, RejectReason::BadSequence)
    }

    /// A store to context page `ctx`: the size, or an atomic register.
    pub fn ctx_store(
        &self,
        core: &mut EngineCore,
        ctx: u32,
        offset: u64,
        data: u64,
        mem: &mut MemPort,
    ) {
        if !core.has_context(ctx) {
            return;
        }
        if offset == regs::CTX_SIZE_TRIGGER {
            core.context_mut(ctx).set_size(data);
        // The staged (first) address is the atomic's operand.
        } else if ctx_atomic_store(core, ctx, offset, data, mem, |core| core.context(ctx).dest()) {
            core.context_mut(ctx).clear();
        }
    }

    /// A load from context page `ctx`: Figure 3's trigger, or a status
    /// poll.
    pub fn ctx_load(
        &self,
        core: &mut EngineCore,
        ctx: u32,
        offset: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        if !core.has_context(ctx) {
            return DMA_FAILURE;
        }
        // Figure 3's final LOAD: initiate and report. With an address
        // missing it is a status poll, and the staged one stays put.
        let args = (offset == regs::CTX_SIZE_TRIGGER && core.context(ctx).args_complete())
            .then(|| core.context_mut(ctx).take_args())
            .flatten();
        match args {
            Some(args) => start_for_ctx(core, ctx, args, now, mem),
            None => poll_ctx_status(core, ctx, offset, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::encode_key_ctx;
    use crate::{AtomicOp, EngineConfig, Initiator};
    use udma_mem::{PhysLayout, PhysMemory, PAGE_SIZE};

    fn world() -> (KeyBased, EngineCore, MemPort) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        let mut core = EngineCore::new(layout, EngineConfig::default());
        core.set_key(1, 0xFEED_BEEF);
        (KeyBased, core, mem)
    }

    #[test]
    fn figure_3_sequence_starts_transfer() {
        let (p, mut core, mut mem) = world();
        let key = encode_key_ctx(0xFEED_BEEF, 1);
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        let src = PhysAddr::new(2 * PAGE_SIZE);
        p.shadow_store(&mut core, dst, key); // dest
        p.shadow_store(&mut core, src, key); // source
        p.ctx_store(&mut core, 1, regs::CTX_SIZE_TRIGGER, 512, &mut mem);
        let status = p.ctx_load(&mut core, 1, regs::CTX_SIZE_TRIGGER, SimTime::ZERO, &mut mem);
        assert_ne!(status, DMA_FAILURE);
        let rec = &core.mover().records()[0];
        assert_eq!((rec.src, rec.dst, rec.size), (src, dst, 512));
        assert_eq!(rec.initiator, Initiator::Context(1));
    }

    #[test]
    fn wrong_key_is_dropped() {
        let (p, mut core, mut mem) = world();
        let bad = encode_key_ctx(0xBAD, 1);
        p.shadow_store(&mut core, PhysAddr::new(4 * PAGE_SIZE), bad);
        assert_eq!(core.stats().key_mismatches, 1);
        assert!(!core.context(1).args_complete());
        // The final load then fails for missing args.
        let status = p.ctx_load(&mut core, 1, regs::CTX_SIZE_TRIGGER, SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_FAILURE);
    }

    #[test]
    fn trigger_load_with_one_address_keeps_it_staged() {
        let (p, mut core, mut mem) = world();
        let key = encode_key_ctx(0xFEED_BEEF, 1);
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        p.shadow_store(&mut core, dst, key);
        let status = p.ctx_load(&mut core, 1, regs::CTX_SIZE_TRIGGER, SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_FAILURE);
        assert_eq!(core.context(1).dest(), Some(dst), "the lone address stays staged");
        assert!(core.mover().records().is_empty());
    }

    #[test]
    fn keyed_stores_of_two_processes_do_not_mix() {
        let (p, mut core, mut mem) = world();
        core.set_key(2, 0xAAAA);
        let k1 = encode_key_ctx(0xFEED_BEEF, 1);
        let k2 = encode_key_ctx(0xAAAA, 2);
        // Interleave the two processes' argument stores arbitrarily:
        p.shadow_store(&mut core, PhysAddr::new(4 * PAGE_SIZE), k1);
        p.shadow_store(&mut core, PhysAddr::new(5 * PAGE_SIZE), k2);
        p.shadow_store(&mut core, PhysAddr::new(2 * PAGE_SIZE), k1);
        p.shadow_store(&mut core, PhysAddr::new(3 * PAGE_SIZE), k2);
        p.ctx_store(&mut core, 1, regs::CTX_SIZE_TRIGGER, 64, &mut mem);
        p.ctx_store(&mut core, 2, regs::CTX_SIZE_TRIGGER, 32, &mut mem);
        assert_ne!(
            p.ctx_load(&mut core, 1, regs::CTX_SIZE_TRIGGER, SimTime::ZERO, &mut mem),
            DMA_FAILURE
        );
        assert_ne!(
            p.ctx_load(&mut core, 2, regs::CTX_SIZE_TRIGGER, SimTime::ZERO, &mut mem),
            DMA_FAILURE
        );
        let recs = core.mover().records();
        assert_eq!(recs[0].src, PhysAddr::new(2 * PAGE_SIZE));
        assert_eq!(recs[0].dst, PhysAddr::new(4 * PAGE_SIZE));
        assert_eq!(recs[1].src, PhysAddr::new(3 * PAGE_SIZE));
        assert_eq!(recs[1].dst, PhysAddr::new(5 * PAGE_SIZE));
    }

    #[test]
    fn shadow_loads_are_protocol_errors() {
        let (p, mut core, _) = world();
        assert_eq!(p.shadow_load(&mut core), DMA_FAILURE);
    }

    #[test]
    fn atomic_add_via_context() {
        let (p, mut core, mut mem) = world();
        let addr = PhysAddr::new(0x100);
        {
            let mem = core.mover().records(); // silence unused in some cfgs
            let _ = mem;
        }
        // Seed memory.
        assert_eq!(core.exec_atomic(AtomicOp::FetchStore.code(), addr, 10, 0, &mut mem), 0);
        let key = encode_key_ctx(0xFEED_BEEF, 1);
        p.shadow_store(&mut core, addr, key); // address
        p.ctx_store(&mut core, 1, regs::CTX_ATOMIC_OPERAND1, 32, &mut mem);
        p.ctx_store(&mut core, 1, regs::CTX_ATOMIC_CMD, AtomicOp::Add.code(), &mut mem);
        let old = p.ctx_load(&mut core, 1, regs::CTX_ATOMIC_CMD, SimTime::ZERO, &mut mem);
        assert_eq!(old, 10);
    }

    #[test]
    fn atomic_without_address_fails() {
        let (p, mut core, mut mem) = world();
        p.ctx_store(&mut core, 1, regs::CTX_ATOMIC_CMD, AtomicOp::Add.code(), &mut mem);
        assert_eq!(core.stats().rejected_for(RejectReason::MissingArgs), 1);
    }

    #[test]
    fn key_check_charges_device_latency() {
        let (p, mut core, _) = world();
        let check = KEY_CHECK_LATENCY;
        assert!(check > SimTime::ZERO);
        let key = encode_key_ctx(0xFEED_BEEF, 1);
        assert_eq!(p.shadow_store(&mut core, PhysAddr::new(PAGE_SIZE), key), check);
        // A mismatching key is compared too, so it pays the same check.
        let wrong = encode_key_ctx(0xBAD, 1);
        assert_eq!(p.shadow_store(&mut core, PhysAddr::new(PAGE_SIZE), wrong), check);
    }
}
