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
//! * the **shadow window** decode and one [`InitiationProtocol`] state
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
//! The crate also models the wire between boards: the [`LinkModel`],
//! the seeded chaos link with its go-back-N delivery engine
//! ([`FaultyLink`], [`deliver`]), and the frames and sender-side
//! transfer state machine ([`Envelope`], [`SendXfer`]) a cluster node
//! sends over it. The cluster itself — nodes, their OS, fault domain
//! and failure detector — lives in `udma::ClusterSim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod atomic;
mod context;
mod descring;
mod engine;
#[path = "core.rs"]
mod engine_core;
mod faulty;
mod link;
mod mover;
mod net;
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
pub use faulty::{
    crc32, deliver, Burst, Crc32, DeliveryOutcome, FaultPlan, FaultyLink, FaultyLinkStats,
    FrameFate, ReliabilityConfig, MAX_BURSTS,
};
pub use link::{LinkModel, RetryPolicy};
pub use mover::{Destination, DmaMover, RemoteSend, TransferRecord};
pub use net::{
    ChunkBytes, DstAnnouncement, Envelope, NackVerdict, NetMsg, SendXfer, XferCounters, XferId,
    XferState,
};
pub use protocol::{InitiationProtocol, ProtocolKind};
pub use status::{Initiator, RejectReason, DMA_FAILURE, DMA_PENDING, DMA_STARTED};
pub use virt::{
    PendingFault, PrefetchConfig, VirtDmaConfig, VirtStage, VirtState, VirtStats, VirtTransfer,
    VirtUnit, WALK_LATENCY, WALK_PIPELINED_LATENCY,
};
