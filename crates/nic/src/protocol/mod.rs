//! The initiation protocol state machines.
//!
//! Exactly one protocol is active in the engine at a time (the paper's
//! FPGA was likewise synthesised per scheme). Each protocol interprets
//! the two user-visible windows:
//!
//! * **shadow accesses** — loads/stores whose physical address has the
//!   shadow bit set; the engine has already stripped the bit and
//!   extracted the embedded context id;
//! * **register-context pages** — ordinary loads/stores to the per-process
//!   context pages (§3.1).
//!
//! The kernel-only privileged window (Figure 1 registers, FLASH
//! current-pid, SHRIMP abort, key table) is handled by the engine itself
//! and merely forwarded to [`InitiationProtocol::abort`] /
//! [`InitiationProtocol::set_current_pid`] where relevant.

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
use crate::{EngineCore, DMA_FAILURE};
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

impl ProtocolKind {
    /// Instantiates the protocol's state machine.
    pub fn instantiate(self) -> Box<dyn InitiationProtocol> {
        match self {
            ProtocolKind::KernelOnly => Box::new(KernelOnly),
            ProtocolKind::Shrimp1 => Box::new(Shrimp1::new()),
            ProtocolKind::Shrimp2 => Box::new(Shrimp2::new()),
            ProtocolKind::Flash => Box::new(Flash::new()),
            ProtocolKind::KeyBased => Box::new(KeyBased::new()),
            ProtocolKind::ExtShadow => Box::new(ExtShadow::new()),
            ProtocolKind::ExtShadowPairwise => Box::new(ExtShadowPairwise::new()),
            ProtocolKind::Repeated3 => Box::new(Repeated::three()),
            ProtocolKind::Repeated4 => Box::new(Repeated::four()),
            ProtocolKind::Repeated5 => Box::new(Repeated::five()),
        }
    }

    /// Whether the scheme needs the OS context-switch handler modified to
    /// be safe — the property the paper's own schemes avoid.
    pub fn needs_kernel_patch(self) -> bool {
        matches!(self, ProtocolKind::Shrimp2 | ProtocolKind::Flash)
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

/// A protocol state machine inside the engine. Every access hands it the
/// engine core and the memory port the bus lent the engine for that
/// transaction.
pub trait InitiationProtocol: Send {
    /// The scheme this machine implements.
    fn kind(&self) -> ProtocolKind;

    /// A store hit the shadow window. `pa` is the decoded plain physical
    /// address, `ctx` the context id embedded in the shadow address
    /// (always 0 unless the OS created extended-shadow mappings), `data`
    /// the store payload. Returns the device-side latency the store
    /// incurred before the engine acknowledged it (the key check).
    fn shadow_store(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        ctx: u32,
        data: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> SimTime;

    /// A load hit the shadow window; returns the load's data (a status
    /// code or byte count).
    fn shadow_load(
        &mut self,
        core: &mut EngineCore,
        pa: PhysAddr,
        ctx: u32,
        now: SimTime,
        mem: &mut MemPort,
    ) -> u64;

    /// A store hit register-context page `ctx` at `offset`.
    fn ctx_store(
        &mut self,
        core: &mut EngineCore,
        ctx: u32,
        offset: u64,
        data: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) {
        let _ = (core, ctx, offset, data, now, mem);
    }

    /// A load hit register-context page `ctx` at `offset`; default is
    /// transfer-status polling.
    fn ctx_load(
        &mut self,
        core: &mut EngineCore,
        ctx: u32,
        offset: u64,
        now: SimTime,
        _mem: &mut MemPort,
    ) -> u64 {
        poll_ctx_status(core, ctx, offset, now)
    }

    /// SHRIMP kernel patch: invalidate partially initiated transfers.
    fn abort(&mut self) {}

    /// FLASH kernel patch: the scheduler dispatched process `pid`.
    fn set_current_pid(&mut self, pid: u64) {
        let _ = pid;
    }
}

/// Default context-page load behaviour: report the context's last
/// transfer ("a read operation from a register context returns the number
/// of bytes that need to be transferred yet; -1 means failure", §3.1) or
/// the context's atomic result register.
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

/// The no-op protocol: every shadow access fails.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelOnly;

impl InitiationProtocol for KernelOnly {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::KernelOnly
    }

    fn shadow_store(
        &mut self,
        _core: &mut EngineCore,
        _pa: PhysAddr,
        _ctx: u32,
        _d: u64,
        _n: SimTime,
        _mem: &mut MemPort,
    ) -> SimTime {
        SimTime::ZERO
    }

    fn shadow_load(
        &mut self,
        _core: &mut EngineCore,
        _pa: PhysAddr,
        _ctx: u32,
        _n: SimTime,
        _mem: &mut MemPort,
    ) -> u64 {
        DMA_FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_report_patch_requirement() {
        assert!(ProtocolKind::Shrimp2.needs_kernel_patch());
        assert!(ProtocolKind::Flash.needs_kernel_patch());
        for k in [
            ProtocolKind::KernelOnly,
            ProtocolKind::Shrimp1,
            ProtocolKind::KeyBased,
            ProtocolKind::ExtShadow,
            ProtocolKind::ExtShadowPairwise,
            ProtocolKind::Repeated3,
            ProtocolKind::Repeated4,
            ProtocolKind::Repeated5,
        ] {
            assert!(!k.needs_kernel_patch(), "{k}");
        }
    }

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
    fn every_kind_instantiates_itself() {
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
            assert_eq!(k.instantiate().kind(), k);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ProtocolKind::KeyBased.to_string(), "key-based");
        assert!(ProtocolKind::Repeated5.to_string().contains("5"));
    }
}
