//! I/O bus substrate for the user-level DMA reproduction.
//!
//! Models the path between the CPU and the devices the paper's protocols
//! talk to:
//!
//! * [`SimTime`]/[`Clock`] — deterministic picosecond simulation time,
//! * [`BusTxn`]/[`BusOp`] — uncached single-word bus transactions,
//! * [`BusTiming`] — clocked timing presets ([TurboChannel] at 12.5 MHz as
//!   in the paper's prototype, PCI at 33/66 MHz for the §3.4 sensitivity
//!   discussion),
//! * [`Bus`] — address decoding to RAM and a pluggable NIC
//!   ([`BusDevice`]), with a transaction [`trace`](BusTrace) and counters,
//! * [`MemPort`] — the one owner of the machine's memory: a CPU side
//!   through the CPU's cache and an engine side that snoops only in
//!   [`CoherenceMode::Coherent`],
//! * [`WriteBuffer`] — the CPU-side write buffer whose *collapsing* and
//!   *load-servicing* behaviour is exactly the hazard of the paper's
//!   footnote 6 ("some hardware devices may attempt to collapse successive
//!   read/write operations to the same address ... appropriate memory
//!   barrier commands should be used"),
//! * [`CoherentCache`]/[`CoherenceDomain`] — the data-carrying MESI
//!   snooping model (agent caches holding real line contents, DMA ports
//!   that intervene on Modified lines, and the software flush/invalidate
//!   loops non-coherent DMA pays for),
//! * [`sim`] — the deterministic sharded discrete-event kernel
//!   ([`SimComponent`]/[`SimRunner`]/[`ChannelBuilder`]) the cluster
//!   experiments run on, with a sequential oracle and a
//!   conservative-lookahead parallel runner.
//!
//! [TurboChannel]: BusTiming::turbochannel

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod cache;
mod coherence;
mod device;
mod port;
pub mod sim;
mod time;
mod timing;
mod trace;
mod write_buffer;

pub use bus::{Bus, BusStats};
pub use cache::{CacheConfig, CacheStats, DataCache};
pub use coherence::{
    AgentId, CoherenceDomain, CoherenceStats, CoherenceTiming, CoherentCache, MesiState,
};
pub use device::{BusDevice, NoNic};
pub use port::{CoherenceMode, MemPort};
pub use sim::{ChannelBuilder, RunReport, RunnerKind, ShardId, SimComponent, SimRunner, Stamped};
pub use time::{Clock, SimTime};
pub use timing::BusTiming;
pub use trace::{BusTrace, TraceEvent};
pub use write_buffer::{PendingStore, WriteBuffer, WriteBufferPolicy};

use udma_mem::PhysAddr;

/// The direction of a bus transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// An uncached load.
    Read,
    /// An uncached store.
    Write,
}

impl std::fmt::Display for BusOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusOp::Read => write!(f, "R"),
            BusOp::Write => write!(f, "W"),
        }
    }
}

/// A single-word bus transaction as seen by a device.
///
/// The `tag` field exists *only* for traces and test assertions (it
/// carries the issuing process id). Real buses carry no such information —
/// that is the entire reason the FLASH approach needs the kernel to tell
/// the DMA engine who is running — and devices in this workspace must not
/// base protocol decisions on it. The one legitimate consumer is the trace
/// log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusTxn {
    /// Direction.
    pub op: BusOp,
    /// Physical address.
    pub paddr: PhysAddr,
    /// Data payload for writes; ignored for reads.
    pub data: u64,
    /// Trace-only origin tag (issuing pid); not architecturally visible.
    pub tag: u32,
}

impl BusTxn {
    /// A read transaction.
    pub fn read(paddr: PhysAddr, tag: u32) -> Self {
        BusTxn { op: BusOp::Read, paddr, data: 0, tag }
    }

    /// A write transaction.
    pub fn write(paddr: PhysAddr, data: u64, tag: u32) -> Self {
        BusTxn { op: BusOp::Write, paddr, data, tag }
    }
}
