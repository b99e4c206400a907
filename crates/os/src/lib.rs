//! The model operating system kernel.
//!
//! The paper's whole point is a property of this layer: its schemes work
//! with an **unmodified kernel**, where SHRIMP and FLASH require
//! context-switch-handler patches. The kernel here is therefore built
//! with a pluggable [`SwitchPolicy`]:
//!
//! * [`SwitchPolicy::Vanilla`] — the unmodified kernel every scheme in
//!   §3 must survive;
//! * [`SwitchPolicy::ShrimpAbort`] — "the operating system must
//!   invalidate any partially initiated user-level DMA transfer on every
//!   context switch" (§2.5);
//! * [`SwitchPolicy::FlashNotify`] — "the context switch handler informs
//!   the DMA engine about which process is currently running" (§2.6).
//!
//! Beyond that the kernel provides what Figure 1 needs: syscall entry
//! ([`Kernel`] implements [`udma_cpu::TrapHandler`]), software
//! translation with protection checks, the kernel-level DMA driver, the
//! kernel-path atomic driver, and the privileged setup services
//! ([`VmManager`] shadow mappings, [`KeyRegistry`] context/key grants).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod arbiter;
mod ctx_cache;
mod fault_service;
mod kernel;
mod keys;
mod syscalls;
mod vm;

pub use arbiter::{ArbiterConfig, ArbiterStats, FairArbiter, QosClass};
pub use ctx_cache::{
    Acquired, CtxCache, CtxCacheConfig, CtxCacheStats, CtxVictimPolicy, LPid, SpillCosts,
};
pub use fault_service::{
    pin_range, FaultResolution, FaultService, FaultServiceStats, FAULT_MAP_PAGE,
    FAULT_SERVICE_BASE, FAULT_SWAP_IN,
};
pub use kernel::{Kernel, KernelStats};
pub use keys::{CtxGrant, KeyRegistry};
pub use syscalls::{Sys, SYS_ATOMIC, SYS_DMA, SYS_NOOP};
pub use vm::{MappedBuffer, ShadowMode, SwapRefused, VmManager, CTX_PAGE_VA_BASE};

use std::fmt;

/// What the kernel's context-switch handler does (the axis the paper's
/// contribution lives on).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwitchPolicy {
    /// Unmodified kernel: the handler touches no NIC state.
    Vanilla,
    /// SHRIMP kernel patch: write the engine's abort register on every
    /// switch.
    ShrimpAbort,
    /// FLASH kernel patch: write the incoming pid to the engine's
    /// current-pid register on every switch.
    FlashNotify,
}

impl fmt::Display for SwitchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchPolicy::Vanilla => write!(f, "vanilla (unmodified kernel)"),
            SwitchPolicy::ShrimpAbort => write!(f, "shrimp-abort patch"),
            SwitchPolicy::FlashNotify => write!(f, "flash-notify patch"),
        }
    }
}
