//! Virtual-address DMA transfers: splitting, faulting, resume.
//!
//! A `VirtDma` names **virtual** addresses; the engine translates each
//! page through its [`udma_iommu::Iommu`] as the transfer streams. The
//! transfer therefore splits at page boundaries (each chunk stays inside
//! one source and one destination page — the mover's user-level
//! single-page rule holds chunk by chunk), and any chunk can fault. A
//! faulting transfer pauses *at the page boundary*: bytes before the
//! fault are transferred, bytes from the faulting page on are not — the
//! engine never writes part of a page and never silently drops a tail.

use crate::link::RetryPolicy;
use udma_bus::SimTime;
use udma_iommu::{Asid, IoFault};
use udma_mem::VirtAddr;

/// Translation-pipeline tunables: how far the engine walks ahead of the
/// streaming cursor and how many physically-contiguous pages it will
/// merge into one mover chunk. The default is the demand baseline —
/// depth 0, no coalescing — so every demand-translation number (E11,
/// E12) is unchanged unless a workload opts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Pages of each range (src and dst) prewalked ahead of the cursor
    /// at post time and at every chunk boundary. 0 disables prefetch.
    pub depth: u64,
    /// Maximum pages merged into one chunk when consecutive pages
    /// translate to physically-contiguous frames with compatible
    /// permissions. 1 disables coalescing.
    pub max_coalesce: u64,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig { depth: 0, max_coalesce: 1 }
    }
}

impl PrefetchConfig {
    /// Prefetch `depth` pages ahead, without coalescing.
    pub fn depth(depth: u64) -> Self {
        PrefetchConfig { depth, max_coalesce: 1 }
    }

    /// Prefetch `depth` pages ahead and merge up to `max_coalesce`
    /// contiguous pages per chunk.
    pub fn pipelined(depth: u64, max_coalesce: u64) -> Self {
        PrefetchConfig { depth, max_coalesce: max_coalesce.max(1) }
    }

    /// Whether any pipeline stage is enabled.
    pub fn enabled(&self) -> bool {
        self.depth > 0 || self.max_coalesce > 1
    }
}

/// Tunables of the virtual-address DMA unit.
#[derive(Clone, Copy, Debug)]
pub struct VirtDmaConfig {
    /// Latency of one I/O page-table walk (charged per IOTLB miss).
    pub walk_latency: SimTime,
    /// Latency of each *additional* walk in a prewalk batch: the first
    /// walk of a batch costs `walk_latency`, every further walk
    /// pipelines behind it at this (smaller) increment. Only prefetch
    /// batches get the amortized rate — a demand miss still blocks the
    /// chunk stream for the full `walk_latency`.
    pub walk_pipelined_latency: SimTime,
    /// Translation-pipeline stages (prefetch depth, chunk coalescing).
    pub prefetch: PrefetchConfig,
    /// Bounded-resume policy: attempts allowed per stretch of no
    /// progress before the transfer fails, and the (doubling) backoff
    /// charged per fruitless attempt. Shared shape with the link-level
    /// retransmit path ([`crate::ReliabilityConfig`]).
    pub retry: RetryPolicy,
}

impl Default for VirtDmaConfig {
    fn default() -> Self {
        VirtDmaConfig {
            // A walk is a couple of device-side memory reads.
            walk_latency: SimTime::from_ns(400),
            // A pipelined walk overlaps its memory reads with the
            // previous walk's: only the issue slot is serialized.
            walk_pipelined_latency: SimTime::from_ns(100),
            prefetch: PrefetchConfig::default(),
            retry: RetryPolicy::new(3, SimTime::from_us(2)),
        }
    }
}

/// Lifecycle of a virtual-address transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VirtState {
    /// Chunks are streaming.
    Running,
    /// Paused at a page boundary on an I/O fault; waiting for the OS
    /// fault service and a resume.
    Faulted(IoFault),
    /// All bytes transferred.
    Complete,
    /// Gave up: retry budget exhausted or the OS declared the fault
    /// unresolvable. The fault is the report; no partial page was
    /// written.
    Failed(IoFault),
}

/// One virtual-address transfer, as tracked by the engine.
#[derive(Clone, Copy, Debug)]
pub struct VirtTransfer {
    /// Index into the engine's virt-transfer table.
    pub id: usize,
    /// Posting address space.
    pub asid: Asid,
    /// Source virtual address.
    pub src: VirtAddr,
    /// Destination virtual address.
    pub dst: VirtAddr,
    /// Total bytes requested.
    pub size: u64,
    /// Bytes fully transferred (always a prefix; always ends at a page
    /// boundary of both ranges unless complete).
    pub moved: u64,
    /// Page-bounded chunks issued so far.
    pub chunks: u32,
    /// Consecutive fruitless resume attempts (reset on progress).
    pub retries: u32,
    /// Current state.
    pub state: VirtState,
    /// When the transfer was posted.
    pub started: SimTime,
    /// Engine-side clock: when the next chunk may start (advances over
    /// wire time, walks, fault stalls and backoff).
    pub clock: SimTime,
    /// When the last byte arrived, once complete (or the failure time).
    pub finished: Option<SimTime>,
    /// Time lost to walks, fault services and backoff (excluded wire
    /// time) — the fault-path cost the E12 sweep reports.
    pub stall: SimTime,
}

impl VirtTransfer {
    /// Bytes not yet transferred at `now` — what a `CTX_VIRT_GO` load
    /// returns while the transfer is live. Models the copied prefix as
    /// in flight until `clock`, linearly, like
    /// [`crate::TransferRecord::remaining_at`].
    pub fn remaining_at(&self, now: SimTime) -> u64 {
        let outstanding = self.size - self.moved;
        if now >= self.clock {
            return outstanding;
        }
        let total = (self.clock - self.started).as_ps().max(1);
        let left = (self.clock - now).as_ps();
        let in_flight = (self.moved as u128 * left as u128).div_ceil(total as u128) as u64;
        outstanding + in_flight.min(self.moved)
    }

    /// Whether the transfer reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, VirtState::Complete | VirtState::Failed(_))
    }
}

/// A fault queued for the OS, tagged with the transfer it paused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingFault {
    /// The paused transfer's id.
    pub xfer: usize,
    /// The I/O fault itself.
    pub fault: IoFault,
}

/// Counters of the virtual-address DMA unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VirtStats {
    /// Transfers posted (accepted).
    pub posted: u64,
    /// Transfers that completed.
    pub completed: u64,
    /// Transfers that failed (retry budget or unresolvable fault).
    pub failed: u64,
    /// I/O faults raised.
    pub faults: u64,
    /// Resume attempts.
    pub retries: u64,
    /// Page-bounded chunks issued.
    pub chunks: u64,
}

/// Per-context staging registers for the `CTX_VIRT_*` window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VirtStage {
    /// Staged source VA.
    pub src: Option<u64>,
    /// Staged destination VA.
    pub dst: Option<u64>,
    /// Transfer the last `CTX_VIRT_GO` store posted (None = rejected).
    pub last: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_interpolates_the_copied_prefix() {
        let t = VirtTransfer {
            id: 0,
            asid: 1,
            src: VirtAddr::new(0),
            dst: VirtAddr::new(0),
            size: 1000,
            moved: 600,
            chunks: 1,
            retries: 0,
            state: VirtState::Running,
            started: SimTime::ZERO,
            clock: SimTime::from_us(6),
            finished: None,
            stall: SimTime::ZERO,
        };
        // At the clock: only the unmoved tail remains.
        assert_eq!(t.remaining_at(SimTime::from_us(6)), 400);
        // At the start: everything.
        assert_eq!(t.remaining_at(SimTime::ZERO), 1000);
        // Midway: tail + about half the prefix still on the wire.
        let mid = t.remaining_at(SimTime::from_us(3));
        assert!(mid > 400 && mid < 1000, "mid = {mid}");
        assert!(!t.is_terminal());
    }
}
