//! The network interface / DMA engine of the paper's prototype board.
//!
//! "All the logic is contained in a single FPGA that is directly
//! accessible from user applications via shadow addressing" (§3.4). This
//! crate is that FPGA:
//!
//! * a privileged register window ([`regs`]) the kernel uses for classic
//!   kernel-level DMA (Figure 1), FLASH current-pid notification, SHRIMP
//!   aborts, key programming and kernel-path atomic operations;
//! * per-process **register contexts** ([`RegisterContext`]) mapped one
//!   per page so the OS can hand each to a single process (§3.1);
//! * the **shadow window** decode and the [`Protocol`] enum, one state
//!   machine per scheme in the paper: SHRIMP-1 mapped-out pages, SHRIMP-2
//!   store+load, FLASH, key-based (§3.1), extended shadow addressing
//!   (§3.2) and repeated passing of arguments in its 3-, 4- and
//!   5-instruction variants (§3.3);
//! * the [`DmaMover`], which validates and performs local transfers and
//!   models their completion time over a configurable [`LinkModel`];
//!   a SHRIMP-1 page mapped out to another node instead reads its
//!   source and queues a [`RemoteSend`], which `udma::ClusterSim`
//!   delivers through the receiver's IOMMU;
//! * the [`AtomicOp`] unit of §3.5.
//!
//! [`EngineCore`] is that paper engine. The later extensions are
//! optional units it owns: the virtual-address unit ([`VirtUnit`]: the
//! IOMMU, translated transfers and their fault queue) and, inside it,
//! the doorbell-batched descriptor rings ([`RingUnit`]).
//!
//! The wire between boards is configured here — the [`LinkModel`], the
//! seeded chaos plan ([`FaultPlan`]), the go-back-N tunables
//! ([`ReliabilityConfig`]) and a remote transfer's identity and state
//! ([`XferId`], [`XferState`]) — but modelled by the cluster:
//! `udma::ClusterSim` owns the chaos link, the go-back-N delivery, the
//! frames, and the nodes with their OS, fault domain and failure
//! detector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod atomic;
mod context;
mod descring;
mod engine;
#[path = "core.rs"]
mod engine_core;
mod link;
mod mover;
pub mod protocol;
pub mod regs;
mod status;
mod virt;

pub use atomic::AtomicOp;
pub use context::{CtxBusy, CtxImage, CtxStats, RegisterContext};
pub use descring::{
    DescDst, DescRing, DmaDescriptor, RingConfig, RingImage, RingLaunch, RingStats, RingUnit,
    DESC_BYTES, DESC_FLAG_CHAIN, DESC_FLAG_FRAG, DESC_WORDS,
};
pub use engine::DmaEngine;
pub use engine_core::{EngineConfig, EngineCore, EngineStats, KEY_CHECK_LATENCY};
pub use link::{
    Burst, FaultPlan, LinkModel, ReliabilityConfig, RetryPolicy, XferId, XferState, MAX_BURSTS,
};
pub use mover::{Destination, DmaMover, RemoteSend, TransferRecord};
pub use protocol::{Protocol, ProtocolKind};
pub use status::{Initiator, RejectReason, DMA_FAILURE, DMA_PENDING, DMA_STARTED};
pub use virt::{
    PendingFault, PrefetchConfig, VirtDmaConfig, VirtStage, VirtState, VirtStats, VirtTransfer,
    VirtUnit, WALK_LATENCY, WALK_PIPELINED_LATENCY,
};
