//! The key-based scheme (§3.1, Figure 3).

use crate::protocol::{poll_ctx_status, InitiationProtocol, ProtocolKind};
use crate::regs::{self, decode_key_ctx};
use crate::{AtomicOp, EngineCore, Initiator, RejectReason, DMA_FAILURE};
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
    /// Creates the state machine (all state lives in the engine's
    /// register contexts).
    pub fn new() -> Self {
        KeyBased
    }
}

impl InitiationProtocol for KeyBased {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::KeyBased
    }

    fn shadow_store(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        _ctx: u32,
        data: u64,
        _now: SimTime,
        _mem: &mut MemPort,
    ) -> SimTime {
        let (key, ctx) = decode_key_ctx(data);
        if !core.has_context(ctx) || core.key(ctx) != key {
            core.note_key_mismatch();
        } else {
            core.context_mut(ctx).push_addr(pa);
        }
        // The FPGA compares the key before acknowledging, match or not.
        core.key_check_latency()
    }

    fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        _pa: PhysAddr,
        _ctx: u32,
        _now: SimTime,
        _mem: &mut MemPort,
    ) -> u64 {
        // The key-based scheme passes both addresses with stores; loads
        // from the shadow window mean nothing here.
        core.note_reject(RejectReason::BadSequence);
        DMA_FAILURE
    }

    fn ctx_store(
        &mut self,
        core: &mut EngineCore,
        ctx: u32,
        offset: u64,
        data: u64,
        _now: SimTime,
        mem: &mut MemPort,
    ) {
        if !core.has_context(ctx) {
            return;
        }
        match offset {
            regs::CTX_SIZE_TRIGGER => core.context_mut(ctx).set_size(data),
            regs::CTX_ATOMIC_OPERAND1 => core.context_mut(ctx).set_atomic_operand(0, data),
            regs::CTX_ATOMIC_OPERAND2 => core.context_mut(ctx).set_atomic_operand(1, data),
            regs::CTX_ATOMIC_CMD => {
                // The staged (first) address is the atomic's operand.
                let Some(addr) = core.context(ctx).dest() else {
                    core.note_reject(RejectReason::MissingArgs);
                    return;
                };
                let [op1, op2] = core.context(ctx).atomic_operands();
                let result = match AtomicOp::from_code(data) {
                    Some(op) => core.exec_atomic(op, addr, op1, op2, mem).unwrap_or(DMA_FAILURE),
                    None => DMA_FAILURE,
                };
                let c = core.context_mut(ctx);
                c.set_atomic_result(result);
                c.clear();
            }
            _ => {}
        }
    }

    fn ctx_load(
        &mut self,
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
        if let Some((src, dst, size)) = args {
            return match core.start_user_dma(src, dst, size, Initiator::Context(ctx), now, mem) {
                Ok(index) => {
                    core.context_mut(ctx).set_last_transfer(index);
                    core.context_transfer(ctx).map(|r| r.remaining_at(now)).unwrap_or(DMA_FAILURE)
                }
                Err(_) => DMA_FAILURE,
            };
        }
        poll_ctx_status(core, ctx, offset, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::encode_key_ctx;
    use crate::EngineConfig;
    use udma_mem::{PhysLayout, PhysMemory, PAGE_SIZE};

    fn world() -> (KeyBased, EngineCore, MemPort) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        let mut core = EngineCore::new(layout, EngineConfig::default());
        core.set_key(1, 0xFEED_BEEF);
        (KeyBased::new(), core, mem)
    }

    #[test]
    fn figure_3_sequence_starts_transfer() {
        let (mut p, mut core, mut mem) = world();
        let key = encode_key_ctx(0xFEED_BEEF, 1);
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        let src = PhysAddr::new(2 * PAGE_SIZE);
        p.shadow_store(&mut core, dst, 0, key, SimTime::ZERO, &mut mem); // dest
        p.shadow_store(&mut core, src, 0, key, SimTime::ZERO, &mut mem); // source
        p.ctx_store(&mut core, 1, regs::CTX_SIZE_TRIGGER, 512, SimTime::ZERO, &mut mem);
        let status = p.ctx_load(&mut core, 1, regs::CTX_SIZE_TRIGGER, SimTime::ZERO, &mut mem);
        assert_ne!(status, DMA_FAILURE);
        let rec = &core.mover().records()[0];
        assert_eq!((rec.src, rec.dst, rec.size), (src, dst, 512));
        assert_eq!(rec.initiator, Initiator::Context(1));
    }

    #[test]
    fn wrong_key_is_dropped() {
        let (mut p, mut core, mut mem) = world();
        let bad = encode_key_ctx(0xBAD, 1);
        p.shadow_store(&mut core, PhysAddr::new(4 * PAGE_SIZE), 0, bad, SimTime::ZERO, &mut mem);
        assert_eq!(core.stats().key_mismatches, 1);
        assert!(!core.context(1).args_complete());
        // The final load then fails for missing args.
        let status = p.ctx_load(&mut core, 1, regs::CTX_SIZE_TRIGGER, SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_FAILURE);
    }

    #[test]
    fn trigger_load_with_one_address_keeps_it_staged() {
        let (mut p, mut core, mut mem) = world();
        let key = encode_key_ctx(0xFEED_BEEF, 1);
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        p.shadow_store(&mut core, dst, 0, key, SimTime::ZERO, &mut mem);
        let status = p.ctx_load(&mut core, 1, regs::CTX_SIZE_TRIGGER, SimTime::ZERO, &mut mem);
        assert_eq!(status, DMA_FAILURE);
        assert_eq!(core.context(1).dest(), Some(dst), "the lone address stays staged");
        assert!(core.mover().records().is_empty());
    }

    #[test]
    fn keyed_stores_of_two_processes_do_not_mix() {
        let (mut p, mut core, mut mem) = world();
        core.set_key(2, 0xAAAA);
        let k1 = encode_key_ctx(0xFEED_BEEF, 1);
        let k2 = encode_key_ctx(0xAAAA, 2);
        // Interleave the two processes' argument stores arbitrarily:
        p.shadow_store(&mut core, PhysAddr::new(4 * PAGE_SIZE), 0, k1, SimTime::ZERO, &mut mem);
        p.shadow_store(&mut core, PhysAddr::new(5 * PAGE_SIZE), 0, k2, SimTime::ZERO, &mut mem);
        p.shadow_store(&mut core, PhysAddr::new(2 * PAGE_SIZE), 0, k1, SimTime::ZERO, &mut mem);
        p.shadow_store(&mut core, PhysAddr::new(3 * PAGE_SIZE), 0, k2, SimTime::ZERO, &mut mem);
        p.ctx_store(&mut core, 1, regs::CTX_SIZE_TRIGGER, 64, SimTime::ZERO, &mut mem);
        p.ctx_store(&mut core, 2, regs::CTX_SIZE_TRIGGER, 32, SimTime::ZERO, &mut mem);
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
        let (mut p, mut core, mut mem) = world();
        assert_eq!(
            p.shadow_load(&mut core, PhysAddr::new(PAGE_SIZE), 0, SimTime::ZERO, &mut mem),
            DMA_FAILURE
        );
    }

    #[test]
    fn atomic_add_via_context() {
        let (mut p, mut core, mut mem) = world();
        let addr = PhysAddr::new(0x100);
        {
            let mem = core.mover().records(); // silence unused in some cfgs
            let _ = mem;
        }
        // Seed memory.
        core.exec_atomic(AtomicOp::FetchStore, addr, 10, 0, &mut mem).unwrap();
        let key = encode_key_ctx(0xFEED_BEEF, 1);
        p.shadow_store(&mut core, addr, 0, key, SimTime::ZERO, &mut mem); // address
        p.ctx_store(&mut core, 1, regs::CTX_ATOMIC_OPERAND1, 32, SimTime::ZERO, &mut mem);
        p.ctx_store(
            &mut core,
            1,
            regs::CTX_ATOMIC_CMD,
            AtomicOp::Add.code(),
            SimTime::ZERO,
            &mut mem,
        );
        let old = p.ctx_load(&mut core, 1, regs::CTX_ATOMIC_CMD, SimTime::ZERO, &mut mem);
        assert_eq!(old, 10);
    }

    #[test]
    fn atomic_without_address_fails() {
        let (mut p, mut core, mut mem) = world();
        p.ctx_store(
            &mut core,
            1,
            regs::CTX_ATOMIC_CMD,
            AtomicOp::Add.code(),
            SimTime::ZERO,
            &mut mem,
        );
        assert_eq!(core.stats().rejected_for(RejectReason::MissingArgs), 1);
    }

    #[test]
    fn key_check_charges_device_latency() {
        let (mut p, mut core, mut mem) = world();
        let check = EngineConfig::default().key_check_latency;
        assert!(check > SimTime::ZERO);
        let key = encode_key_ctx(0xFEED_BEEF, 1);
        assert_eq!(
            p.shadow_store(&mut core, PhysAddr::new(PAGE_SIZE), 0, key, SimTime::ZERO, &mut mem),
            check
        );
        // A mismatching key is compared too, so it pays the same check.
        let wrong = encode_key_ctx(0xBAD, 1);
        assert_eq!(
            p.shadow_store(&mut core, PhysAddr::new(PAGE_SIZE), 0, wrong, SimTime::ZERO, &mut mem),
            check
        );
    }
}
