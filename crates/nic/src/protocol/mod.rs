//! The initiation protocol state machines.
//!
//! Exactly one protocol is active in the engine at a time, chosen when
//! the engine is built (the paper's FPGA was likewise synthesised per
//! scheme): the closed [`Protocol`] enum holds its state machine. Each
//! protocol interprets the two user-visible windows:
//!
//! * **shadow accesses** — loads/stores whose physical address has the
//!   shadow bit set; the engine has already stripped the bit and
//!   extracted the embedded context id;
//! * **register-context pages** — ordinary loads/stores to the per-process
//!   context pages (§3.1).
//!
//! The kernel-only privileged window (Figure 1 registers, FLASH
//! current-pid, SHRIMP abort, key table) is handled by the engine itself
//! and merely forwarded to [`Protocol::abort`] /
//! [`Protocol::set_current_pid`] where relevant.

mod ext_shadow;
mod flash;
mod key;
mod repeated;
mod shrimp1;
mod shrimp2;

pub use ext_shadow::{ExtShadow, ExtShadowPairwise};
pub use flash::Flash;
pub use key::KeyBased;
pub use repeated::Repeated;
pub use shrimp1::Shrimp1;
pub use shrimp2::Shrimp2;

use crate::regs;
use crate::{EngineCore, Initiator, RejectReason, DMA_FAILURE, DMA_STARTED};
use std::fmt;
use udma_bus::{MemPort, SimTime};
use udma_mem::PhysAddr;

/// Which initiation scheme the engine implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Shadow window disabled: only kernel-level DMA works.
    KernelOnly,
    /// SHRIMP-1: one store per transfer; destination fixed per page
    /// ("mapped-out" pages, §2.4).
    Shrimp1,
    /// SHRIMP-2: store destination+size, load source+status (§2.5).
    /// Safe only with the SHRIMP kernel patch (abort on context switch)
    /// or under PAL-call execution (§2.7).
    Shrimp2,
    /// FLASH: like SHRIMP-2, but the engine keeps per-process argument
    /// slots selected by a kernel-maintained current-pid register (§2.6).
    Flash,
    /// Key-based register contexts (§3.1).
    KeyBased,
    /// Extended shadow addressing: context id inside the shadow physical
    /// address (§3.2).
    ExtShadow,
    /// Extended shadow addressing for an engine *without* register
    /// contexts: a single pending slot plus a pairwise CONTEXT_ID check
    /// on the store/load pair (§3.2, last sentence).
    ExtShadowPairwise,
    /// Repeated passing of arguments, 3-instruction variant (insecure,
    /// Figure 5).
    Repeated3,
    /// Repeated passing of arguments, 4-instruction variant (insecure,
    /// Figure 6).
    Repeated4,
    /// Repeated passing of arguments, 5-instruction variant (§3.3,
    /// proven safe in §3.3.1).
    Repeated5,
}

/// A shadow access's direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A store; its payload is the transfer size.
    Store,
    /// A load; it reads back a status.
    Load,
}

/// Which shadow address an access names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// `shadow(vsource)`.
    Src,
    /// `shadow(vdest)`.
    Dst,
}

/// What the issuing program does right after an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Then {
    /// Nothing.
    Next,
    /// A memory barrier, so the write buffer cannot merge repeated stores (§3.4).
    Mb,
    /// Restart the sequence if the status load read [`DMA_FAILURE`].
    RetryIfFailed,
    /// Restart unless the load read [`crate::DMA_STARTED`]: Figure 7's
    /// last load may be absorbed into another process's sequence and
    /// read `DMA_PENDING` for a transfer that never happened.
    RetryUnlessStarted,
}

/// One access of a shadow-only initiation sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowAccess {
    /// Store or load.
    pub op: Op,
    /// The shadow address it names.
    pub role: Role,
    /// What the program does next.
    pub then: Then,
}

impl ProtocolKind {
    /// The shadow accesses of one initiation, in order; `None` for the
    /// kernel path and the key-based scheme, which also uses its context
    /// page. Each sequence is written only here: `udma::emit_dma` compiles
    /// the row, and the [`Repeated`] FSM accepts exactly its row.
    #[rustfmt::skip]
    pub fn sequence(self) -> Option<&'static [ShadowAccess]> {
        use Op::{Load as Ld, Store as St};
        use ProtocolKind as K;
        use Role::{Dst, Src};
        use Then::{Mb, Next, RetryIfFailed as IfFailed, RetryUnlessStarted as UnlessStarted};
        const fn a(op: Op, role: Role, then: Then) -> ShadowAccess {
            ShadowAccess { op, role, then }
        }
        Some(match self {
            K::KernelOnly | K::KeyBased => return None,
            // The real SHRIMP's compare-and-exchange returned the status in its one access.
            K::Shrimp1 => const { &[a(St, Src, Next), a(Ld, Src, Next)] },
            K::Shrimp2 | K::Flash | K::ExtShadow => const { &[a(St, Dst, Next), a(Ld, Src, Next)] },
            // Another process's interleaved pair fails both pairs, so each retries.
            K::ExtShadowPairwise => const { &[a(St, Dst, Next), a(Ld, Src, IfFailed)] },
            K::Repeated3 => const { &[a(Ld, Src, Next), a(St, Dst, Next), a(Ld, Src, IfFailed)] },
            K::Repeated4 => const { &[a(St, Dst, Next), a(Ld, Src, Next),
                                      a(St, Dst, Next), a(Ld, Src, IfFailed)] },
            K::Repeated5 => const { &[a(St, Dst, Mb), a(Ld, Src, IfFailed),
                                      a(St, Dst, Mb), a(Ld, Src, IfFailed),
                                      a(Ld, Dst, UnlessStarted)] },
        })
    }

    /// User-mode instructions one initiation takes (the paper's "2 to 5
    /// assembly instructions"); `None` for the kernel path.
    pub fn user_instructions(self) -> Option<u32> {
        match self {
            ProtocolKind::KernelOnly => None,
            ProtocolKind::Shrimp1 => Some(1),
            ProtocolKind::Shrimp2
            | ProtocolKind::Flash
            | ProtocolKind::ExtShadow
            | ProtocolKind::ExtShadowPairwise => Some(2),
            ProtocolKind::KeyBased => Some(4),
            ProtocolKind::Repeated3 => Some(3),
            ProtocolKind::Repeated4 => Some(4),
            ProtocolKind::Repeated5 => Some(5),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::KernelOnly => "kernel-only",
            ProtocolKind::Shrimp1 => "shrimp-1 (mapped-out)",
            ProtocolKind::Shrimp2 => "shrimp-2 (store+load)",
            ProtocolKind::Flash => "flash (current-pid)",
            ProtocolKind::KeyBased => "key-based",
            ProtocolKind::ExtShadow => "extended shadow",
            ProtocolKind::ExtShadowPairwise => "extended shadow (pairwise)",
            ProtocolKind::Repeated3 => "repeated-passing/3",
            ProtocolKind::Repeated4 => "repeated-passing/4",
            ProtocolKind::Repeated5 => "repeated-passing/5",
        };
        f.write_str(s)
    }
}

/// The engine's initiation state machine: one variant per scheme, fixed
/// when the engine is built. Every access hands it the engine core and
/// the memory port the bus lent the engine for that transaction.
#[derive(Clone, Debug)]
pub enum Protocol {
    /// Shadow window disabled: every shadow access fails.
    KernelOnly,
    /// See [`Shrimp1`].
    Shrimp1(Shrimp1),
    /// See [`Shrimp2`].
    Shrimp2(Shrimp2),
    /// See [`Flash`].
    Flash(Flash),
    /// See [`KeyBased`].
    KeyBased(KeyBased),
    /// See [`ExtShadow`].
    ExtShadow(ExtShadow),
    /// See [`ExtShadowPairwise`].
    ExtShadowPairwise(ExtShadowPairwise),
    /// See [`Repeated`]: the 3-, 4- and 5-access variants.
    Repeated(Repeated),
}

impl Protocol {
    /// The state machine of scheme `kind`, reset.
    pub fn new(kind: ProtocolKind) -> Self {
        use ProtocolKind as K;
        match kind {
            K::KernelOnly => Protocol::KernelOnly,
            K::Shrimp1 => Protocol::Shrimp1(Shrimp1::new()),
            K::Shrimp2 => Protocol::Shrimp2(Shrimp2::new()),
            K::Flash => Protocol::Flash(Flash::new()),
            K::KeyBased => Protocol::KeyBased(KeyBased),
            K::ExtShadow => Protocol::ExtShadow(ExtShadow::new()),
            K::ExtShadowPairwise => Protocol::ExtShadowPairwise(ExtShadowPairwise::new()),
            K::Repeated3 | K::Repeated4 | K::Repeated5 => Protocol::Repeated(Repeated::new(kind)),
        }
    }

    /// The scheme this machine implements.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            Protocol::KernelOnly => ProtocolKind::KernelOnly,
            Protocol::Shrimp1(_) => ProtocolKind::Shrimp1,
            Protocol::Shrimp2(_) => ProtocolKind::Shrimp2,
            Protocol::Flash(_) => ProtocolKind::Flash,
            Protocol::KeyBased(_) => ProtocolKind::KeyBased,
            Protocol::ExtShadow(_) => ProtocolKind::ExtShadow,
            Protocol::ExtShadowPairwise(_) => ProtocolKind::ExtShadowPairwise,
            Protocol::Repeated(p) => p.kind(),
        }
    }

    /// A store hit the shadow window. `pa` is the decoded plain physical
    /// address, `ctx` the context id embedded in the shadow address
    /// (always 0 unless the OS created extended-shadow mappings), `data`
    /// the store payload. Returns the device-side latency the store
    /// incurred before the engine acknowledged it (the key check).
    pub fn shadow_store(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        ctx: u32,
        data: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> SimTime {
        match self {
            Protocol::KernelOnly => {}
            Protocol::Shrimp1(p) => p.shadow_store(core, pa, data, now, mem),
            Protocol::Shrimp2(p) => p.shadow_store(pa, data),
            Protocol::Flash(p) => p.shadow_store(pa, data),
            // Only the key check keeps the store waiting.
            Protocol::KeyBased(p) => return p.shadow_store(core, pa, data),
            Protocol::ExtShadow(p) => p.shadow_store(core, pa, ctx, data),
            Protocol::ExtShadowPairwise(p) => p.shadow_store(pa, ctx, data),
            Protocol::Repeated(p) => p.shadow_store(core, pa, ctx, data, now, mem),
        }
        SimTime::ZERO
    }

    /// A load hit the shadow window; returns the load's data (a status
    /// code or byte count).
    pub fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        ctx: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        match self {
            Protocol::KernelOnly => DMA_FAILURE,
            Protocol::Shrimp1(p) => p.shadow_load(),
            Protocol::Shrimp2(p) => p.shadow_load(core, pa, now, mem),
            Protocol::Flash(p) => p.shadow_load(core, pa, now, mem),
            Protocol::KeyBased(p) => p.shadow_load(core),
            Protocol::ExtShadow(p) => p.shadow_load(core, pa, ctx, now, mem),
            Protocol::ExtShadowPairwise(p) => p.shadow_load(core, pa, ctx, now, mem),
            Protocol::Repeated(p) => p.shadow_load(core, pa, ctx, now, mem),
        }
    }

    /// A store hit register-context page `ctx` at `offset`; only the
    /// schemes with register contexts decode it.
    pub fn ctx_store(
        &mut self,
        core: &mut EngineCore,
        ctx: u32,
        offset: u64,
        data: u64,
        mem: &mut MemPort,
    ) {
        match self {
            Protocol::KeyBased(p) => p.ctx_store(core, ctx, offset, data, mem),
            Protocol::ExtShadow(p) => p.ctx_store(core, ctx, offset, data, mem),
            _ => {}
        }
    }

    /// A load hit register-context page `ctx` at `offset`: the key-based
    /// trigger, otherwise a status poll.
    pub fn ctx_load(
        &mut self,
        core: &mut EngineCore,
        ctx: u32,
        offset: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64 {
        match self {
            Protocol::KeyBased(p) => p.ctx_load(core, ctx, offset, now, mem),
            _ => poll_ctx_status(core, ctx, offset, now),
        }
    }

    /// SHRIMP kernel patch: invalidate partially initiated transfers.
    pub fn abort(&mut self) {
        if let Protocol::Shrimp2(p) = self {
            p.abort();
        }
    }

    /// FLASH kernel patch: the scheduler dispatched process `pid`.
    pub fn set_current_pid(&mut self, pid: u64) {
        if let Protocol::Flash(p) = self {
            p.set_current_pid(pid);
        }
    }
}

/// Context-page load behaviour of every scheme but the key-based
/// trigger: report the context's last transfer ("a read operation from a
/// register context returns the number of bytes that need to be
/// transferred yet; -1 means failure", §3.1) or the context's atomic
/// result register.
pub(crate) fn poll_ctx_status(core: &EngineCore, ctx: u32, offset: u64, now: SimTime) -> u64 {
    if !core.has_context(ctx) {
        return DMA_FAILURE;
    }
    match offset {
        regs::CTX_ATOMIC_CMD => core.context(ctx).atomic_result(),
        _ => match core.context_transfer(ctx) {
            Some(rec) => rec.remaining_at(now),
            None => DMA_FAILURE,
        },
    }
}

/// A start attempt's status load: [`DMA_STARTED`] or [`DMA_FAILURE`].
fn started<T>(attempt: Result<T, RejectReason>) -> u64 {
    if attempt.is_ok() {
        DMA_STARTED
    } else {
        DMA_FAILURE
    }
}

/// Counts a refused initiation; its status load reads [`DMA_FAILURE`].
fn refuse(core: &mut EngineCore, reason: RejectReason) -> u64 {
    core.note_reject(reason);
    DMA_FAILURE
}

/// Starts a user transfer for context `ctx`, records it as the context's
/// last transfer and answers the bytes it has yet to move (§3.1).
fn start_for_ctx(
    core: &mut EngineCore,
    ctx: u32,
    (src, dst, size): (PhysAddr, PhysAddr, u64),
    now: SimTime,
    mem: &mut MemPort,
) -> u64 {
    let Ok(index) = core.start_user_dma(src, dst, size, Initiator::Context(ctx), now, mem) else {
        return DMA_FAILURE;
    };
    core.context_mut(ctx).set_last_transfer(index);
    core.context_transfer(ctx).map_or(DMA_FAILURE, |r| r.remaining_at(now))
}

/// The context-page atomic registers (§3.5): operand stores stage into
/// context `ctx`; a command store runs the atomic on the address `addr`
/// yields and leaves its result in the context. Returns whether an
/// atomic ran.
fn ctx_atomic_store(
    core: &mut EngineCore,
    ctx: u32,
    offset: u64,
    data: u64,
    mem: &mut MemPort,
    addr: impl FnOnce(&EngineCore) -> Option<PhysAddr>,
) -> bool {
    match offset {
        regs::CTX_ATOMIC_OPERAND1 => core.context_mut(ctx).set_atomic_operand(0, data),
        regs::CTX_ATOMIC_OPERAND2 => core.context_mut(ctx).set_atomic_operand(1, data),
        regs::CTX_ATOMIC_CMD => {
            let Some(addr) = addr(core) else {
                core.note_reject(RejectReason::MissingArgs);
                return false;
            };
            let [op1, op2] = core.context(ctx).atomic_operands();
            let result = core.exec_atomic(data, addr, op1, op2, mem);
            core.context_mut(ctx).set_atomic_result(result);
            return true;
        }
        _ => {}
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_counts_match_paper() {
        // "a DMA operation can be initiated in 2 to 5 assembly
        // instructions" — for the paper's own schemes.
        assert_eq!(ProtocolKind::ExtShadow.user_instructions(), Some(2));
        assert_eq!(ProtocolKind::KeyBased.user_instructions(), Some(4));
        assert_eq!(ProtocolKind::Repeated5.user_instructions(), Some(5));
        assert_eq!(ProtocolKind::KernelOnly.user_instructions(), None);
    }

    #[test]
    fn every_kind_builds_its_own_protocol() {
        for k in [
            ProtocolKind::KernelOnly,
            ProtocolKind::Shrimp1,
            ProtocolKind::Shrimp2,
            ProtocolKind::Flash,
            ProtocolKind::KeyBased,
            ProtocolKind::ExtShadow,
            ProtocolKind::ExtShadowPairwise,
            ProtocolKind::Repeated3,
            ProtocolKind::Repeated4,
            ProtocolKind::Repeated5,
        ] {
            assert_eq!(Protocol::new(k).kind(), k);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ProtocolKind::KeyBased.to_string(), "key-based");
        assert!(ProtocolKind::Repeated5.to_string().contains("5"));
    }
}
