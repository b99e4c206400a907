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

use crate::descring::{RingImage, RingUnit};
use crate::link::RetryPolicy;
use crate::mover::Backend;
use crate::regs;
use crate::{CtxImage, Initiator, RejectReason, DMA_FAILURE};
use std::collections::VecDeque;
use udma_bus::SimTime;
use udma_iommu::{Asid, IoFault, IoFaultKind, Iommu, IotlbConfig};
use udma_mem::{Access, PhysAddr, PhysFrame, VirtAddr, PAGE_SIZE};

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

/// Latency of one I/O page-table walk (charged per IOTLB miss): a walk
/// is a couple of device-side memory reads.
pub const WALK_LATENCY: SimTime = SimTime::from_ns(400);

/// Latency of each *additional* walk in a prewalk batch: the first walk
/// of a batch costs [`WALK_LATENCY`], every further walk pipelines
/// behind it at this (smaller) increment, because it overlaps its memory
/// reads with the previous walk's and only the issue slot is
/// serialized. Only prefetch batches get the amortized rate — a demand
/// miss still blocks the chunk stream for the full [`WALK_LATENCY`].
pub const WALK_PIPELINED_LATENCY: SimTime = SimTime::from_ns(100);

/// Tunables of the virtual-address DMA unit.
#[derive(Clone, Copy, Debug)]
pub struct VirtDmaConfig {
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
    /// End of the prewalk window: the byte offset (from the transfer's
    /// start) up to which the prefetcher has already issued walks.
    /// Refilled when the cursor catches up; reset to the cursor on
    /// resume so a serviced fault re-primes the window.
    pub prefetched: u64,
}

impl VirtTransfer {
    /// Bytes not yet transferred at `now` — what a `CTX_VIRT_GO` load
    /// returns while the transfer is live. Models the copied prefix as
    /// in flight until `clock`, linearly, like
    /// [`crate::TransferRecord::remaining_at`].
    pub fn remaining_at(&self, now: SimTime) -> u64 {
        let in_flight = crate::mover::in_flight(self.moved, self.started, self.clock, now);
        self.size - self.moved + in_flight.min(self.moved)
    }

    /// Whether the transfer reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, VirtState::Complete | VirtState::Failed(_))
    }

    /// Whether the transfer still pins its initiating context at `now`:
    /// live states (running, or faulted awaiting OS service) always pin;
    /// terminal states pin only until the simulated instant they
    /// settled — a transfer that already reached its outcome can never
    /// again observe the register file, so holding the context hostage
    /// past `finished` would wedge the steal path forever.
    pub(crate) fn pins(&self, now: SimTime) -> bool {
        match self.state {
            VirtState::Running | VirtState::Faulted(_) => true,
            _ => self.finished.is_some_and(|f| now < f),
        }
    }

    /// Ends the transfer in `state` at `at`.
    fn settle(&mut self, state: VirtState, at: SimTime) {
        self.state = state;
        self.finished = Some(at);
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

/// The virtual-address DMA unit, present once the engine is fitted with
/// an IOMMU. It owns everything only that unit needs: the IOMMU and its
/// tunables, the transfer table, the fault queue, the per-context
/// `CTX_VIRT_*` staging and the counters. Descriptor rings translate
/// through the same IOMMU, so the ring unit lives in here too — an
/// engine cannot have rings without one. Every launch goes through the
/// engine's back-end, which the caller lends to each operation together
/// with the memory port.
#[derive(Clone, Debug)]
pub struct VirtUnit {
    /// The IOMMU (the OS maps, unmaps and pins through it).
    pub iommu: Iommu,
    config: VirtDmaConfig,
    pub(crate) xfers: Vec<VirtTransfer>,
    faults: VecDeque<PendingFault>,
    pub(crate) stage: Vec<VirtStage>,
    pub(crate) stats: VirtStats,
    pub(crate) rings: Option<RingUnit>,
}

impl VirtUnit {
    /// A unit with an empty IOMMU and `contexts` staging windows.
    pub(crate) fn new(iotlb: IotlbConfig, config: VirtDmaConfig, contexts: usize) -> Self {
        VirtUnit {
            iommu: Iommu::new(iotlb),
            config,
            xfers: Vec::new(),
            faults: VecDeque::new(),
            stage: vec![VirtStage::default(); contexts],
            stats: VirtStats::default(),
            rings: None,
        }
    }

    /// The unit's tunables.
    pub fn config(&self) -> VirtDmaConfig {
        self.config
    }

    /// Takes the oldest unserviced I/O fault (the OS fault service polls
    /// this; hardware would raise an interrupt).
    pub fn pop_fault(&mut self) -> Option<PendingFault> {
        self.faults.pop_front()
    }

    /// Posts a transfer for address space `asid` and streams as many
    /// chunks as translate cleanly; an empty transfer is refused.
    pub(crate) fn post(
        &mut self,
        asid: Asid,
        src: VirtAddr,
        dst: VirtAddr,
        size: u64,
        now: SimTime,
        back: &mut Backend<'_>,
    ) -> Result<usize, RejectReason> {
        if size == 0 {
            return Err(back.reject(RejectReason::ZeroSize));
        }
        let id = self.xfers.len();
        self.xfers.push(VirtTransfer {
            id,
            asid,
            src,
            dst,
            size,
            moved: 0,
            chunks: 0,
            retries: 0,
            state: VirtState::Running,
            started: now,
            clock: now,
            finished: None,
            stall: SimTime::ZERO,
            prefetched: 0,
        });
        self.stats.posted += 1;
        self.pump(id, back);
        Ok(id)
    }

    /// Streams chunks of transfer `id` until it completes or faults.
    ///
    /// Each chunk ends at the nearest source *or* destination page
    /// boundary, so every chunk obeys the mover's user-level single-page
    /// rule on both sides, and a fault pauses the transfer exactly at a
    /// page boundary: the moved prefix is fully delivered, nothing past
    /// it is touched.
    fn pump(&mut self, id: usize, back: &mut Backend<'_>) {
        let config = self.config;
        let pf = config.prefetch;
        loop {
            let t = self.xfers[id];
            if t.state != VirtState::Running {
                return;
            }
            if t.moved >= t.size {
                self.xfers[id].settle(VirtState::Complete, t.clock);
                self.stats.completed += 1;
                return;
            }
            let src_va = VirtAddr::new(t.src.as_u64() + t.moved);
            let dst_va = VirtAddr::new(t.dst.as_u64() + t.moved);
            let chunk = (t.size - t.moved)
                .min(PAGE_SIZE - src_va.page_offset())
                .min(PAGE_SIZE - dst_va.page_offset());

            // Pipeline stages 1 and 2: once the cursor reaches the end
            // of the prewalked window, walk the next `depth` pages of
            // both ranges and prefill the IOTLB ahead of the chunk
            // stream. The whole batch is charged at the amortized rate —
            // the walks pipeline behind one another; only a demand miss
            // blocks a chunk for the full walk latency.
            if pf.depth > 0 && t.moved >= t.prefetched {
                let span = (pf.depth * PAGE_SIZE).min(t.size - t.moved);
                let batch = self.iommu.prewalk_range(t.asid, src_va, span, Access::Read)
                    + self.iommu.prewalk_range(t.asid, dst_va, span, Access::Write);
                let x = &mut self.xfers[id];
                x.prefetched = t.moved + span;
                if batch > 0 {
                    let cost = WALK_LATENCY
                        + SimTime::from_ps(WALK_PIPELINED_LATENCY.as_ps() * (batch - 1));
                    x.clock += cost;
                    x.stall += cost;
                }
            }

            // Both ends translate on this engine's IOMMU, the source
            // first; the destination only once the source resolved.
            let iommu = &mut self.iommu;
            let misses_before = iommu.stats().tlb.misses;
            let translated = iommu.translate(t.asid, src_va, Access::Read).and_then(|src_pa| {
                iommu.translate(t.asid, dst_va, Access::Write).map(|dst_pa| (src_pa, dst_pa))
            });
            let walks = iommu.stats().tlb.misses - misses_before;
            let walk_cost = SimTime::from_ps(WALK_LATENCY.as_ps() * walks);
            let x = &mut self.xfers[id];
            x.clock += walk_cost;
            x.stall += walk_cost;
            let (src_pa, dst_pa) = match translated {
                Ok(pas) => pas,
                Err(fault) => {
                    x.state = VirtState::Faulted(fault);
                    self.faults.push_back(PendingFault { xfer: id, fault });
                    self.stats.faults += 1;
                    return;
                }
            };

            // Pipeline stage 3: chunk coalescing. Extend the chunk over
            // following pages while their translations are already
            // IOTLB-resident, permission-compatible and physically
            // contiguous with the chunk on *both* ends. Probes count
            // hits (the frames feed the merged chunk) but never misses,
            // so the demand walk-cost accounting is untouched; any
            // lookahead failure just ends the merge and leaves the
            // demand path to translate — or fault — at that boundary.
            let mut chunk = chunk;
            let mut coalesced = false;
            if pf.max_coalesce > 1 && src_va.page_offset() == dst_va.page_offset() {
                let mut pages = 1;
                while pages < pf.max_coalesce && t.moved + chunk < t.size {
                    // Equal offsets: the chunk ends at a page start of
                    // both ranges, so the lookahead walks whole pages.
                    let ext = (t.size - t.moved - chunk).min(PAGE_SIZE);
                    let next_src = VirtAddr::new(src_va.as_u64() + chunk).page();
                    let next_dst = VirtAddr::new(dst_va.as_u64() + chunk).page();
                    let follows = |frame: Option<PhysFrame>, pa: PhysAddr| {
                        frame.is_some_and(|f| f.base().as_u64() == pa.as_u64() + chunk)
                    };
                    if !follows(self.iommu.probe(t.asid, next_src, Access::Read), src_pa)
                        || !follows(self.iommu.probe(t.asid, next_dst, Access::Write), dst_pa)
                    {
                        break;
                    }
                    chunk += ext;
                    pages += 1;
                    coalesced = true;
                }
            }

            let x = &mut self.xfers[id];
            let initiator = Initiator::VirtDma { asid: t.asid };
            match back.launch(src_pa, dst_pa, chunk, initiator, coalesced, x.clock) {
                Ok((_, finished)) => {
                    self.stats.chunks += 1;
                    x.chunks += 1;
                    x.clock = finished;
                    x.moved += chunk;
                }
                Err(_) => {
                    // Translation succeeded but the frame is not backed by
                    // installed RAM — an OS mapping bug (the reject was
                    // counted by the checked launch). Surface it as an
                    // unmapped-page failure rather than wedging.
                    let fault = IoFault {
                        asid: t.asid,
                        va: src_va,
                        access: Access::Read,
                        kind: IoFaultKind::Unmapped,
                    };
                    x.settle(VirtState::Failed(fault), x.clock);
                    self.stats.failed += 1;
                    return;
                }
            }
        }
    }

    /// Resumes a faulted transfer; see [`crate::EngineCore::resume_virt`].
    pub(crate) fn resume(&mut self, id: usize, now: SimTime, back: &mut Backend<'_>) -> VirtState {
        let t = self.xfers[id];
        let VirtState::Faulted(fault) = t.state else {
            return t.state;
        };
        if self.config.retry.exhausted(t.retries) {
            self.xfers[id].settle(VirtState::Failed(fault), t.clock.max(now));
            self.stats.failed += 1;
            return self.xfers[id].state;
        }
        let x = &mut self.xfers[id];
        x.retries += 1;
        x.state = VirtState::Running;
        let resume_at = x.clock.max(now) + self.config.retry.backoff_after(t.retries);
        x.stall += resume_at - x.clock;
        x.clock = resume_at;
        // Re-prime the prefetch window at the cursor: the fault service
        // may have mapped pages the aborted window skipped.
        x.prefetched = x.moved;
        self.stats.retries += 1;
        self.pump(id, back);
        let x = &mut self.xfers[id];
        if x.moved > t.moved {
            x.retries = 0;
        }
        x.state
    }

    /// Fails a faulted transfer outright (the OS found the fault
    /// unresolvable — e.g. the VA is simply not part of the posting
    /// address space).
    ///
    /// # Panics
    ///
    /// Panics if no transfer `id` was posted.
    pub fn fail(&mut self, id: usize, now: SimTime) -> VirtState {
        let t = &mut self.xfers[id];
        if let VirtState::Faulted(fault) = t.state {
            t.settle(VirtState::Failed(fault), t.clock.max(now));
            self.stats.failed += 1;
        }
        t.state
    }

    /// Status of a transfer, in the paper's status-load convention:
    /// bytes remaining, 0 = complete, `-1` = failed or unknown.
    pub fn status(&self, id: usize, now: SimTime) -> u64 {
        match self.xfers.get(id) {
            None => DMA_FAILURE,
            Some(t) => match t.state {
                VirtState::Failed(_) => DMA_FAILURE,
                _ => t.remaining_at(now),
            },
        }
    }

    /// Store to a `CTX_VIRT_*` offset of context `ctx`'s page; a `GO`
    /// store posts the staged transfer under `ctx` as its ASID.
    pub(crate) fn ctx_store(
        &mut self,
        ctx: u32,
        off: u64,
        data: u64,
        now: SimTime,
        back: &mut Backend<'_>,
    ) {
        let Some(stage) = self.stage.get_mut(ctx as usize) else {
            return;
        };
        match off {
            regs::CTX_VIRT_SRC => stage.src = Some(data),
            regs::CTX_VIRT_DST => stage.dst = Some(data),
            regs::CTX_VIRT_GO => {
                let posted = match (stage.src, stage.dst) {
                    (Some(src), Some(dst)) => {
                        self.post(ctx, VirtAddr::new(src), VirtAddr::new(dst), data, now, back)
                    }
                    _ => Err(back.reject(RejectReason::MissingArgs)),
                };
                self.stage[ctx as usize].last = posted.ok();
            }
            _ => {}
        }
    }

    /// Load from a `CTX_VIRT_*` offset of context `ctx`'s page.
    pub fn ctx_load(&self, ctx: u32, off: u64, now: SimTime) -> u64 {
        let Some(stage) = self.stage.get(ctx as usize) else {
            return DMA_FAILURE;
        };
        match off {
            regs::CTX_VIRT_SRC => stage.src.unwrap_or(0),
            regs::CTX_VIRT_DST => stage.dst.unwrap_or(0),
            regs::CTX_VIRT_GO => stage.last.map_or(DMA_FAILURE, |id| self.status(id, now)),
            _ => DMA_FAILURE,
        }
    }

    /// Whether transfer `id` still pins its context at `now`.
    pub(crate) fn pins(&self, id: usize, now: SimTime) -> bool {
        self.xfers.get(id).is_some_and(|x| x.pins(now))
    }

    /// Whether `ctx`'s last posted transfer still pins it at `now`.
    pub(crate) fn last_pins(&self, ctx: u32, now: SimTime) -> bool {
        self.stage.get(ctx as usize).and_then(|s| s.last).is_some_and(|id| self.pins(id, now))
    }

    /// Spills `ctx`'s staging window and ring registration, clearing
    /// both. Deregistering the ring with the slot means a stale doorbell
    /// from the evicted process finds nothing to dequeue, the same way
    /// its stale keyed stores miss the scrubbed key.
    pub(crate) fn spill(&mut self, ctx: u32) -> (VirtStage, Option<RingImage>) {
        let stage = std::mem::take(&mut self.stage[ctx as usize]);
        (stage, self.rings.as_mut().and_then(|r| r.spill(ctx)))
    }

    /// Refills `ctx` from a spilled image (the inverse of
    /// [`Self::spill`]); a ring image is dropped if rings are off.
    pub(crate) fn fill(&mut self, ctx: u32, image: &CtxImage) {
        self.stage[ctx as usize] = image.virt;
        if let Some(rings) = self.rings.as_mut() {
            rings.fill(ctx, image.ring);
        }
    }
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
            prefetched: 0,
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
