//! The engine core: registers, contexts, key table, statistics, and the
//! services protocols build on.

use crate::descring::{
    DescDst, DescRing, DmaDescriptor, RingConfig, RingImage, RingLaunch, RingStats,
    DESC_FLAG_CHAIN, DESC_FLAG_FRAG, DESC_WORDS,
};
use crate::regs::{self, MAX_CONTEXTS};
use crate::virt::{PendingFault, VirtDmaConfig, VirtStage, VirtState, VirtStats, VirtTransfer};
use crate::{
    AtomicOp, CtxBusy, CtxImage, CtxStats, Destination, DmaMover, Initiator, LinkModel,
    RegisterContext, RejectReason, RemoteDst, SharedCluster, TransferRecord, DMA_FAILURE,
};
use std::collections::{HashMap, VecDeque};
use udma_bus::{SharedMemory, SimTime};
use udma_iommu::{Asid, IoFault, IoFaultKind, Iommu, IotlbConfig};
use udma_mem::{Access, PhysAddr, PhysFrame, PhysLayout, VirtAddr, PAGE_SIZE};

/// Physical destination of a checked launch: memory on this node, or
/// a `(node, addr)` pair on a remote peer.
#[derive(Clone, Copy, Debug)]
pub enum LaunchDst {
    /// Same-node physical memory.
    Local(PhysAddr),
    /// A remote peer's physical memory.
    Remote(RemoteDst),
}

/// Configuration of the DMA engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of register contexts (≤ [`MAX_CONTEXTS`]).
    pub num_contexts: u32,
    /// The outgoing link (times transfer completion).
    pub link: LinkModel,
    /// Extra device latency of a keyed shadow store (the FPGA compares
    /// the key against its table before acknowledging).
    pub key_check_latency: SimTime,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_contexts: 4,
            link: LinkModel::default(),
            key_check_latency: SimTime::from_ns(120),
        }
    }
}

/// Counters kept by the engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transfers started (all paths).
    pub started: u64,
    /// Initiation attempts refused, by reason.
    pub rejects: HashMap<RejectReason, u64>,
    /// Keyed stores dropped for a key mismatch.
    pub key_mismatches: u64,
    /// Times a repeated-passing FSM reset on an out-of-order access.
    pub sequence_resets: u64,
    /// Atomic operations executed.
    pub atomics: u64,
}

impl EngineStats {
    /// Total rejected initiations.
    pub fn rejected(&self) -> u64 {
        self.rejects.values().sum()
    }

    /// Rejections for one reason.
    pub fn rejected_for(&self, reason: RejectReason) -> u64 {
        self.rejects.get(&reason).copied().unwrap_or(0)
    }
}

/// Shared engine state: everything below the protocol state machines.
#[derive(Clone, Debug)]
pub struct EngineCore {
    layout: PhysLayout,
    mem: SharedMemory,
    mover: DmaMover,
    contexts: Vec<RegisterContext>,
    key_table: Vec<u64>,
    stats: EngineStats,
    /// SHRIMP-1 mapped-out table: source frame → destination page base
    /// (local or on a remote node).
    mapped_out: HashMap<PhysFrame, Destination>,
    key_check_latency: SimTime,
    pending_extra: SimTime,
    // Kernel-path DMA registers (Figure 1).
    dma_source: u64,
    dma_dest: u64,
    dma_status: u64,
    // Kernel-path atomic registers.
    atomic_addr: u64,
    atomic_op1: u64,
    atomic_op2: u64,
    atomic_result: u64,
    // Virtual-address DMA unit (present when the engine has an IOMMU).
    iommu: Option<Iommu>,
    virt_config: VirtDmaConfig,
    virt_xfers: Vec<VirtTransfer>,
    /// Per-transfer prewalk window end: the byte offset (from the
    /// transfer's start) up to which the prefetcher has already issued
    /// walks. Refilled when the cursor catches up; reset to the cursor
    /// on resume so a serviced fault re-primes the window.
    virt_prefetch: Vec<u64>,
    virt_faults: VecDeque<PendingFault>,
    virt_stage: Vec<VirtStage>,
    virt_stats: VirtStats,
    ctx_stats: CtxStats,
    // Doorbell-batched descriptor rings (present once enabled).
    ring_config: Option<RingConfig>,
    rings: Vec<DescRing>,
    ring_stats: RingStats,
}

impl EngineCore {
    /// Creates the core over the machine's memory.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_contexts` exceeds [`MAX_CONTEXTS`] or is 0.
    pub fn new(layout: PhysLayout, mem: SharedMemory, config: EngineConfig) -> Self {
        assert!((1..=MAX_CONTEXTS).contains(&config.num_contexts), "context count out of range");
        let mover = DmaMover::new(mem.clone(), config.link);
        EngineCore {
            layout,
            mem,
            mover,
            contexts: vec![RegisterContext::new(); config.num_contexts as usize],
            key_table: vec![0; config.num_contexts as usize],
            stats: EngineStats::default(),
            mapped_out: HashMap::new(),
            key_check_latency: config.key_check_latency,
            pending_extra: SimTime::ZERO,
            dma_source: 0,
            dma_dest: 0,
            dma_status: DMA_FAILURE,
            atomic_addr: 0,
            atomic_op1: 0,
            atomic_op2: 0,
            atomic_result: 0,
            iommu: None,
            virt_config: VirtDmaConfig::default(),
            virt_xfers: Vec::new(),
            virt_prefetch: Vec::new(),
            virt_faults: VecDeque::new(),
            virt_stage: vec![VirtStage::default(); config.num_contexts as usize],
            virt_stats: VirtStats::default(),
            ctx_stats: CtxStats::default(),
            ring_config: None,
            rings: vec![DescRing::default(); config.num_contexts as usize],
            ring_stats: RingStats::default(),
        }
    }

    /// The machine layout (protocols need the shadow arithmetic).
    pub fn layout(&self) -> &PhysLayout {
        &self.layout
    }

    /// Number of register contexts.
    pub fn num_contexts(&self) -> u32 {
        self.contexts.len() as u32
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Counts a key mismatch (keyed protocol).
    pub fn note_key_mismatch(&mut self) {
        self.stats.key_mismatches += 1;
    }

    /// Counts a sequence reset (repeated-passing protocol).
    pub fn note_sequence_reset(&mut self) {
        self.stats.sequence_resets += 1;
    }

    /// Counts a rejected initiation.
    pub fn note_reject(&mut self, reason: RejectReason) {
        *self.stats.rejects.entry(reason).or_insert(0) += 1;
    }

    /// Charges the key-check latency to the current bus transaction.
    pub fn charge_key_check(&mut self) {
        self.pending_extra += self.key_check_latency;
    }

    /// Takes (and clears) extra latency accumulated by the last access.
    pub fn take_pending_extra(&mut self) -> SimTime {
        std::mem::take(&mut self.pending_extra)
    }

    /// The transfer history.
    pub fn mover(&self) -> &DmaMover {
        &self.mover
    }

    /// Clears transfer history (long benchmark runs).
    pub fn clear_transfer_records(&mut self) {
        self.mover.clear_records();
    }

    /// One register context.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn context(&self, ctx: u32) -> &RegisterContext {
        &self.contexts[ctx as usize]
    }

    /// Mutable register context.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn context_mut(&mut self, ctx: u32) -> &mut RegisterContext {
        &mut self.contexts[ctx as usize]
    }

    /// Whether `ctx` names an existing context.
    pub fn has_context(&self, ctx: u32) -> bool {
        (ctx as usize) < self.contexts.len()
    }

    /// Programs the key for `ctx` (privileged; the OS does this when it
    /// grants a context to a process).
    pub fn set_key(&mut self, ctx: u32, key: u64) {
        if let Some(slot) = self.key_table.get_mut(ctx as usize) {
            *slot = key;
        }
    }

    /// The programmed key for `ctx` (0 when out of range).
    pub fn key(&self, ctx: u32) -> u64 {
        self.key_table.get(ctx as usize).copied().unwrap_or(0)
    }

    // ---- context virtualization (OS spill/fill hooks) ----------------

    /// Context-virtualization counters (spills, fills, steals, busy
    /// denials, starvations).
    pub fn ctx_stats(&self) -> CtxStats {
        self.ctx_stats
    }

    /// Whether `ctx` still has a transfer it can observe on the wire:
    /// its last physical transfer has bytes remaining at `now`, or its
    /// last virtual-address transfer is running, faulted, or draining.
    /// A busy context must not be spilled — the DMA engine's streaming
    /// state (cursor, chunk registers) cannot be checkpointed mid-burst,
    /// and a faulted VA transfer still owns its resume path.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn context_busy(&self, ctx: u32, now: SimTime) -> bool {
        if let Some(idx) = self.contexts[ctx as usize].last_transfer() {
            if let Some(rec) = self.mover.record(idx) {
                if rec.remaining_at(now) > 0 {
                    return true;
                }
            }
        }
        if let Some(id) = self.virt_stage[ctx as usize].last {
            if let Some(x) = self.virt_xfers.get(id) {
                if virt_xfer_pins(x, now) {
                    return true;
                }
            }
        }
        self.ring_pending(ctx, now)
    }

    /// Whether `ctx`'s descriptor ring has queued or live work at
    /// `now`: descriptors posted but not yet doorbelled, a dequeued
    /// batch whose fetch-staggered launches have not all fired, or a
    /// ring-launched transfer still observable on the wire. Queued work makes the context unstealable exactly like
    /// a busy register file — the ring's contents belong to the process
    /// whose ASID the dequeue will translate under.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn ring_pending(&self, ctx: u32, now: SimTime) -> bool {
        let r = &self.rings[ctx as usize];
        if !r.registered() {
            return false;
        }
        if r.pending() > 0 || now < r.drain_until {
            return true;
        }
        r.live_virt
            .iter()
            .any(|&id| self.virt_xfers.get(id).is_some_and(|x| virt_xfer_pins(x, now)))
    }

    /// Spills `ctx` into an OS-held [`CtxImage`]: snapshots the key, the
    /// register file and the `CTX_VIRT_*` staging window, then clears
    /// the slot (key 0 = unprogrammed, so a stale keyed store from the
    /// evicted process misses and is dropped — the §3.1 protection
    /// argument keeps holding across steals).
    ///
    /// # Errors
    ///
    /// [`CtxBusy`] when the context can still observe an in-flight
    /// transfer ([`Self::context_busy`]); the denial is counted.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn save_context(&mut self, ctx: u32, now: SimTime) -> Result<CtxImage, CtxBusy> {
        if self.context_busy(ctx, now) {
            self.ctx_stats.busy_denials += 1;
            let phys_busy = self.contexts[ctx as usize]
                .last_transfer()
                .and_then(|i| self.mover.record(i))
                .is_some_and(|r| r.remaining_at(now) > 0);
            let virt_busy = self.virt_stage[ctx as usize]
                .last
                .is_some_and(|id| self.virt_xfers.get(id).is_some_and(|x| virt_xfer_pins(x, now)));
            // Ring work takes precedence: a ring-launched transfer also
            // registers as the context's last (virt) transfer, but the
            // ring is the root cause the OS must wait out.
            return Err(if self.ring_pending(ctx, now) {
                CtxBusy::RingPending
            } else if phys_busy {
                CtxBusy::Transfer
            } else if virt_busy {
                CtxBusy::VirtTransfer
            } else {
                CtxBusy::RingPending
            });
        }
        let i = ctx as usize;
        let ring = self.rings[i].registered().then(|| RingImage {
            base: self.rings[i].base.as_u64(),
            capacity: self.rings[i].capacity,
            cursor: self.rings[i].head,
        });
        let image = CtxImage {
            key: self.key_table[i],
            regs: self.contexts[i],
            virt: self.virt_stage[i],
            ring,
        };
        self.key_table[i] = 0;
        self.contexts[i] = RegisterContext::new();
        self.virt_stage[i] = VirtStage::default();
        // Deregister the ring with the slot: a stale doorbell from the
        // evicted process must find nothing to dequeue, the same way its
        // stale keyed stores miss the scrubbed key.
        self.rings[i] = DescRing::default();
        self.ctx_stats.spills += 1;
        Ok(image)
    }

    /// Refills `ctx` from a spilled [`CtxImage`] (key table, register
    /// file, `CTX_VIRT_*` window). The inverse of
    /// [`Self::save_context`]: a spilled-then-refilled context is
    /// observationally identical to one that was never evicted.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn restore_context(&mut self, ctx: u32, image: &CtxImage) {
        let i = ctx as usize;
        assert!(i < self.contexts.len(), "context out of range");
        self.key_table[i] = image.key;
        self.contexts[i] = image.regs;
        self.virt_stage[i] = image.virt;
        self.rings[i] = match image.ring {
            None => DescRing::default(),
            Some(ri) => DescRing {
                base: PhysAddr::new(ri.base),
                capacity: ri.capacity,
                head: ri.cursor,
                posted: ri.cursor,
                consumed: vec![false; ri.capacity as usize],
                ..DescRing::default()
            },
        };
        self.ctx_stats.fills += 1;
    }

    /// Counts a context steal (the OS evicted a live process; spills of
    /// exiting processes are not steals).
    pub fn note_ctx_steal(&mut self) {
        self.ctx_stats.steals += 1;
    }

    /// Counts a starved acquisition (no admissible victim; the caller
    /// fell back to the kernel DMA path).
    pub fn note_ctx_starvation(&mut self) {
        self.ctx_stats.starvations += 1;
    }

    /// Installs a SHRIMP-1 mapped-out destination for a source frame.
    pub fn set_mapped_out(&mut self, src: PhysFrame, dst_base: Destination) {
        self.mapped_out.insert(src, dst_base);
    }

    /// SHRIMP-1 lookup: the fixed destination for `src_frame`.
    pub fn mapped_out(&self, src_frame: PhysFrame) -> Option<Destination> {
        self.mapped_out.get(&src_frame).copied()
    }

    /// Attaches the remote cluster the link reaches.
    pub fn attach_cluster(&mut self, cluster: SharedCluster) {
        self.mover.attach_cluster(cluster);
    }

    /// Makes the engine a snooping (coherent) bus master on the host's
    /// coherence domain: every DMA read/write from now on snoops the
    /// CPU caches (see [`DmaMover::attach_coherence`]).
    pub fn attach_coherence(&mut self, coherence: udma_bus::SharedCoherence) {
        self.mover.attach_coherence(coherence);
    }

    /// Whether the engine snoops the coherence bus.
    pub fn is_coherent(&self) -> bool {
        self.mover.is_coherent()
    }

    /// The one checked launch sequence every initiation path funnels
    /// through: validates via the mover (zero-size, page-cross, range),
    /// books the started/rejected statistics exactly once, and returns
    /// the mover record index. The register paths, the kernel driver,
    /// the virtual-address chunk stream and the descriptor-ring dequeue
    /// all end here instead of keeping their own near-copies.
    pub fn launch_checked(
        &mut self,
        src: PhysAddr,
        dst: LaunchDst,
        size: u64,
        initiator: Initiator,
        multipage_ok: bool,
        now: SimTime,
    ) -> Result<usize, RejectReason> {
        let started = match dst {
            LaunchDst::Remote(rd) => self.mover.start_remote(src, rd, size, initiator, now),
            LaunchDst::Local(dst) => self.mover.start(src, dst, size, initiator, multipage_ok, now),
        };
        match started {
            Ok(_) => {
                self.stats.started += 1;
                Ok(self.mover.last_index().expect("just started"))
            }
            Err(reason) => {
                self.note_reject(reason);
                Err(reason)
            }
        }
    }

    /// Starts a user-level transfer into a remote node's memory.
    ///
    /// Returns the mover record index on success.
    pub fn start_user_dma_remote(
        &mut self,
        src: PhysAddr,
        node: u32,
        addr: PhysAddr,
        size: u64,
        initiator: Initiator,
        now: SimTime,
    ) -> Result<usize, RejectReason> {
        self.launch_checked(
            src,
            LaunchDst::Remote(RemoteDst { node, addr }),
            size,
            initiator,
            false,
            now,
        )
    }

    /// Starts a user-level transfer (single-page rule enforced).
    ///
    /// Returns the mover record index on success.
    pub fn start_user_dma(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        size: u64,
        initiator: Initiator,
        now: SimTime,
    ) -> Result<usize, RejectReason> {
        self.launch_checked(src, LaunchDst::Local(dst), size, initiator, false, now)
    }

    /// Starts a kernel-validated transfer directly (multi-page allowed,
    /// [`Initiator::Kernel`]) without staging the privileged
    /// `DMA_SOURCE`/`DMA_DEST` registers — the programmatic twin of
    /// [`start_kernel_dma`](Self::start_kernel_dma) for callers that
    /// want the record index and the reject reason.
    pub fn start_kernel_dma_direct(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        size: u64,
        now: SimTime,
    ) -> Result<usize, RejectReason> {
        self.launch_checked(src, LaunchDst::Local(dst), size, Initiator::Kernel, true, now)
    }

    // ---- privileged (kernel-path) registers -------------------------

    /// Write to `DMA_SOURCE`.
    pub fn set_dma_source(&mut self, pa: u64) {
        self.dma_source = pa;
    }

    /// Write to `DMA_DEST`.
    pub fn set_dma_dest(&mut self, pa: u64) {
        self.dma_dest = pa;
    }

    /// Write to `DMA_SIZE`: starts a kernel-level DMA with the staged
    /// source/destination. The kernel has already validated the whole
    /// range, so multi-page transfers are allowed.
    pub fn start_kernel_dma(&mut self, size: u64, now: SimTime) {
        let src = PhysAddr::new(self.dma_source);
        let dst = PhysAddr::new(self.dma_dest);
        self.dma_status = match self.launch_checked(
            src,
            LaunchDst::Local(dst),
            size,
            Initiator::Kernel,
            true,
            now,
        ) {
            Ok(idx) => self.mover.record(idx).expect("just started").size,
            Err(_) => DMA_FAILURE,
        };
    }

    /// Read of `DMA_STATUS`: bytes remaining of the last kernel DMA
    /// (`-1` = failed, 0 = complete).
    pub fn kernel_dma_status(&self, now: SimTime) -> u64 {
        if self.dma_status == DMA_FAILURE {
            return DMA_FAILURE;
        }
        self.mover
            .records()
            .iter()
            .rev()
            .find(|r| r.initiator == Initiator::Kernel)
            .map(|r| r.remaining_at(now))
            .unwrap_or(DMA_FAILURE)
    }

    /// Kernel-path atomic registers.
    pub fn set_atomic_addr(&mut self, pa: u64) {
        self.atomic_addr = pa;
    }

    /// Stages the first kernel-path atomic operand.
    pub fn set_atomic_op1(&mut self, v: u64) {
        self.atomic_op1 = v;
    }

    /// Stages the second kernel-path atomic operand.
    pub fn set_atomic_op2(&mut self, v: u64) {
        self.atomic_op2 = v;
    }

    /// Write to `ATOMIC_CMD`: executes the staged kernel-path atomic.
    pub fn exec_kernel_atomic(&mut self, code: u64) {
        self.atomic_result = match AtomicOp::from_code(code) {
            Some(op) => self
                .exec_atomic(op, PhysAddr::new(self.atomic_addr), self.atomic_op1, self.atomic_op2)
                .unwrap_or(DMA_FAILURE),
            None => DMA_FAILURE,
        };
    }

    /// Read of `ATOMIC_CMD`: result of the last kernel-path atomic.
    pub fn kernel_atomic_result(&self) -> u64 {
        self.atomic_result
    }

    /// Executes an atomic operation against memory (shared by the kernel
    /// path and the user-level context paths).
    pub fn exec_atomic(&mut self, op: AtomicOp, addr: PhysAddr, op1: u64, op2: u64) -> Option<u64> {
        match op.apply(&self.mem, addr, op1, op2) {
            Ok(old) => {
                self.stats.atomics += 1;
                Some(old)
            }
            Err(_) => {
                self.note_reject(RejectReason::BadRange);
                None
            }
        }
    }

    // ---- virtual-address DMA unit -----------------------------------

    /// Equips the engine with an IOMMU, enabling the `CTX_VIRT_*`
    /// context-page window and [`EngineCore::post_virt_dma`].
    pub fn enable_iommu(&mut self, iotlb: IotlbConfig, config: VirtDmaConfig) {
        self.iommu = Some(Iommu::new(iotlb));
        self.virt_config = config;
    }

    /// Whether the engine has an IOMMU (= virtual-address DMA decodes).
    pub fn virt_enabled(&self) -> bool {
        self.iommu.is_some()
    }

    /// The IOMMU, if enabled.
    pub fn iommu(&self) -> Option<&Iommu> {
        self.iommu.as_ref()
    }

    /// Mutable IOMMU (the OS maps/unmaps/pins through this).
    pub fn iommu_mut(&mut self) -> Option<&mut Iommu> {
        self.iommu.as_mut()
    }

    /// The virtual-address unit's tunables.
    pub fn virt_config(&self) -> VirtDmaConfig {
        self.virt_config
    }

    /// Counters of the virtual-address unit.
    pub fn virt_stats(&self) -> VirtStats {
        self.virt_stats
    }

    /// One virtual-address transfer.
    pub fn virt_xfer(&self, id: usize) -> Option<&VirtTransfer> {
        self.virt_xfers.get(id)
    }

    /// All virtual-address transfers, in posting order.
    pub fn virt_xfers(&self) -> &[VirtTransfer] {
        &self.virt_xfers
    }

    /// Takes the oldest unserviced I/O fault (the OS fault service polls
    /// this; hardware would raise an interrupt).
    pub fn pop_fault(&mut self) -> Option<PendingFault> {
        self.virt_faults.pop_front()
    }

    /// Unserviced I/O faults queued for the OS.
    pub fn fault_backlog(&self) -> usize {
        self.virt_faults.len()
    }

    /// Posts a virtual-address DMA for address space `asid` and streams
    /// as many page-bounded chunks as translate cleanly. Returns the
    /// transfer id; inspect its [`VirtState`] for faults.
    ///
    /// # Errors
    ///
    /// [`RejectReason::ZeroSize`] for an empty transfer (counted, like
    /// every engine reject).
    ///
    /// # Panics
    ///
    /// Panics if the engine has no IOMMU ([`EngineCore::enable_iommu`]).
    pub fn post_virt_dma(
        &mut self,
        asid: Asid,
        src: VirtAddr,
        dst: VirtAddr,
        size: u64,
        now: SimTime,
    ) -> Result<usize, RejectReason> {
        assert!(self.iommu.is_some(), "virtual-address DMA requires enable_iommu");
        if size == 0 {
            self.note_reject(RejectReason::ZeroSize);
            return Err(RejectReason::ZeroSize);
        }
        let id = self.virt_xfers.len();
        self.virt_xfers.push(VirtTransfer {
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
        });
        self.virt_prefetch.push(0);
        self.virt_stats.posted += 1;
        self.pump_virt(id);
        Ok(id)
    }

    /// Streams chunks of transfer `id` until it completes or faults.
    ///
    /// Each chunk ends at the nearest source *or* destination page
    /// boundary, so every chunk obeys the mover's user-level single-page
    /// rule on both sides, and a fault pauses the transfer exactly at a
    /// page boundary: the moved prefix is fully delivered, nothing past
    /// it is touched.
    fn pump_virt(&mut self, id: usize) {
        loop {
            let t = self.virt_xfers[id];
            if t.state != VirtState::Running {
                return;
            }
            if t.moved >= t.size {
                let x = &mut self.virt_xfers[id];
                x.state = VirtState::Complete;
                x.finished = Some(x.clock);
                self.virt_stats.completed += 1;
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
            let pf = self.virt_config.prefetch;
            if pf.depth > 0 && t.moved >= self.virt_prefetch[id] {
                let span = (pf.depth * PAGE_SIZE).min(t.size - t.moved);
                let iommu = self.iommu.as_mut().expect("pump without IOMMU");
                let batch = iommu.prewalk_range(t.asid, src_va, span, Access::Read)
                    + iommu.prewalk_range(t.asid, dst_va, span, Access::Write);
                self.virt_prefetch[id] = t.moved + span;
                if batch > 0 {
                    let cost = self.virt_config.walk_latency
                        + SimTime::from_ps(
                            self.virt_config.walk_pipelined_latency.as_ps() * (batch - 1),
                        );
                    let x = &mut self.virt_xfers[id];
                    x.clock += cost;
                    x.stall += cost;
                }
            }

            // Both ends translate on this engine's IOMMU, the source
            // first; the destination only once the source resolved.
            let iommu = self.iommu.as_mut().expect("pump without IOMMU");
            let misses_before = iommu.stats().tlb.misses;
            let translated = iommu.translate(t.asid, src_va, Access::Read).and_then(|src_pa| {
                iommu.translate(t.asid, dst_va, Access::Write).map(|dst_pa| (src_pa, dst_pa))
            });
            let walks = iommu.stats().tlb.misses - misses_before;
            let walk_cost = SimTime::from_ps(self.virt_config.walk_latency.as_ps() * walks);
            {
                let x = &mut self.virt_xfers[id];
                x.clock += walk_cost;
                x.stall += walk_cost;
            }
            let (src_pa, dst_pa) = match translated {
                Ok(pas) => pas,
                Err(fault) => {
                    self.virt_xfers[id].state = VirtState::Faulted(fault);
                    self.virt_faults.push_back(PendingFault { xfer: id, fault });
                    self.virt_stats.faults += 1;
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
                    let iommu = self.iommu.as_mut().expect("pump without IOMMU");
                    let follows = |frame: Option<PhysFrame>, pa: PhysAddr| {
                        frame.is_some_and(|f| f.base().as_u64() == pa.as_u64() + chunk)
                    };
                    if !follows(iommu.probe(t.asid, next_src, Access::Read), src_pa)
                        || !follows(iommu.probe(t.asid, next_dst, Access::Write), dst_pa)
                    {
                        break;
                    }
                    chunk += ext;
                    pages += 1;
                    coalesced = true;
                }
            }

            let clock = self.virt_xfers[id].clock;
            let initiator = Initiator::VirtDma { asid: t.asid };
            let started = self
                .launch_checked(
                    src_pa,
                    LaunchDst::Local(dst_pa),
                    chunk,
                    initiator,
                    coalesced,
                    clock,
                )
                .map(|idx| self.mover.record(idx).expect("just started").finished);
            match started {
                Ok(finished) => {
                    self.virt_stats.chunks += 1;
                    let x = &mut self.virt_xfers[id];
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
                    let x = &mut self.virt_xfers[id];
                    x.state = VirtState::Failed(fault);
                    x.finished = Some(x.clock);
                    self.virt_stats.failed += 1;
                    return;
                }
            }
        }
    }

    /// Resumes a faulted transfer (the OS calls this after servicing the
    /// fault; tests also call it *without* servicing to model a slow or
    /// absent OS). Each fruitless resume doubles the backoff; after
    /// [`RetryPolicy::max_retries`](crate::RetryPolicy) consecutive
    /// attempts with no progress the transfer fails with its reported
    /// fault.
    pub fn resume_virt(&mut self, id: usize, now: SimTime) -> VirtState {
        let t = self.virt_xfers[id];
        let VirtState::Faulted(fault) = t.state else {
            return t.state;
        };
        if self.virt_config.retry.exhausted(t.retries) {
            let x = &mut self.virt_xfers[id];
            x.state = VirtState::Failed(fault);
            x.finished = Some(x.clock.max(now));
            self.virt_stats.failed += 1;
            return self.virt_xfers[id].state;
        }
        let backoff = self.virt_config.retry.backoff_after(t.retries);
        let moved_before = t.moved;
        {
            let x = &mut self.virt_xfers[id];
            x.retries += 1;
            x.state = VirtState::Running;
            let resume_at = x.clock.max(now) + backoff;
            x.stall += resume_at - x.clock;
            x.clock = resume_at;
            // Re-prime the prefetch window at the cursor: the fault
            // service may have mapped pages the aborted window skipped.
            self.virt_prefetch[id] = x.moved;
        }
        self.virt_stats.retries += 1;
        self.pump_virt(id);
        let x = &mut self.virt_xfers[id];
        if x.moved > moved_before {
            x.retries = 0;
        }
        x.state
    }

    /// Fails a faulted transfer outright (the OS found the fault
    /// unresolvable — e.g. the VA is simply not part of the posting
    /// address space).
    pub fn fail_virt(&mut self, id: usize, now: SimTime) -> VirtState {
        let t = &mut self.virt_xfers[id];
        if let VirtState::Faulted(fault) = t.state {
            t.state = VirtState::Failed(fault);
            t.finished = Some(t.clock.max(now));
            self.virt_stats.failed += 1;
        }
        self.virt_xfers[id].state
    }

    /// Status of a virtual-address transfer, in the paper's status-load
    /// convention: bytes remaining, 0 = complete, `-1` = failed.
    pub fn virt_status(&self, id: usize, now: SimTime) -> u64 {
        match self.virt_xfers.get(id) {
            None => DMA_FAILURE,
            Some(t) => match t.state {
                VirtState::Failed(_) => DMA_FAILURE,
                _ => t.remaining_at(now),
            },
        }
    }

    /// Store to a `CTX_VIRT_*` offset of context `ctx`'s page.
    pub fn ctx_virt_store(&mut self, ctx: u32, off: u64, data: u64, now: SimTime) {
        if !self.has_context(ctx) {
            return;
        }
        match off {
            regs::CTX_VIRT_SRC => self.virt_stage[ctx as usize].src = Some(data),
            regs::CTX_VIRT_DST => self.virt_stage[ctx as usize].dst = Some(data),
            regs::CTX_VIRT_GO => {
                let stage = self.virt_stage[ctx as usize];
                let (Some(src), Some(dst)) = (stage.src, stage.dst) else {
                    self.note_reject(RejectReason::MissingArgs);
                    self.virt_stage[ctx as usize].last = None;
                    return;
                };
                let posted =
                    self.post_virt_dma(ctx, VirtAddr::new(src), VirtAddr::new(dst), data, now).ok();
                self.virt_stage[ctx as usize].last = posted;
            }
            _ => {}
        }
    }

    /// Load from a `CTX_VIRT_*` offset of context `ctx`'s page.
    pub fn ctx_virt_load(&self, ctx: u32, off: u64, now: SimTime) -> u64 {
        let Some(stage) = self.virt_stage.get(ctx as usize) else {
            return DMA_FAILURE;
        };
        match off {
            regs::CTX_VIRT_SRC => stage.src.unwrap_or(0),
            regs::CTX_VIRT_DST => stage.dst.unwrap_or(0),
            regs::CTX_VIRT_GO => match stage.last {
                Some(id) => self.virt_status(id, now),
                None => DMA_FAILURE,
            },
            _ => DMA_FAILURE,
        }
    }

    // ---- doorbell-batched descriptor rings ---------------------------

    /// Enables the descriptor-ring unit: the `CTX_RING_DB` doorbell
    /// offset and the privileged `RING_BASE_TABLE`/`RING_CTL_TABLE`
    /// windows decode from now on. Descriptors carry virtual addresses
    /// translated at dequeue time, so rings require the IOMMU.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no IOMMU ([`EngineCore::enable_iommu`]).
    pub fn enable_rings(&mut self, config: RingConfig) {
        assert!(self.iommu.is_some(), "descriptor rings require enable_iommu");
        self.ring_config = Some(config);
    }

    /// Whether the descriptor-ring unit is enabled.
    pub fn rings_enabled(&self) -> bool {
        self.ring_config.is_some()
    }

    /// The ring tunables in force, if enabled.
    pub fn ring_config(&self) -> Option<RingConfig> {
        self.ring_config
    }

    /// Counters of the descriptor-ring unit.
    pub fn ring_stats(&self) -> RingStats {
        self.ring_stats
    }

    /// Context `ctx`'s ring state (geometry, cursors).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn ring(&self, ctx: u32) -> &DescRing {
        &self.rings[ctx as usize]
    }

    /// Privileged `RING_BASE_TABLE` write: stages the host-physical
    /// base of context `ctx`'s ring. Out-of-range writes are ignored,
    /// like key-table writes.
    pub fn set_ring_base(&mut self, ctx: u32, base: u64) {
        if let Some(r) = self.rings.get_mut(ctx as usize) {
            r.base = PhysAddr::new(base);
        }
    }

    /// Privileged `RING_CTL_TABLE` write: registers the ring with
    /// `capacity` slots over the staged base (0 deregisters). Resets
    /// the cursors — registration starts an empty ring.
    pub fn set_ring_ctl(&mut self, ctx: u32, capacity: u64) {
        if let Some(r) = self.rings.get_mut(ctx as usize) {
            let cap = capacity.min(u32::MAX as u64) as u32;
            *r = DescRing {
                base: r.base,
                capacity: cap,
                consumed: vec![false; cap as usize],
                ..DescRing::default()
            };
        }
    }

    /// The user-library post helper: encodes `desc` into the next free
    /// ring slot in host memory (four plain word stores — the cheap
    /// part the doorbell amortizes over) and advances the posted
    /// cursor. Returns the absolute slot index; the descriptor does
    /// nothing until a doorbell covers it.
    ///
    /// # Errors
    ///
    /// [`RejectReason::RingFull`] when no ring is registered for `ctx`
    /// or all `capacity` slots hold undequeued descriptors;
    /// [`RejectReason::BadRange`] when the registered window leaves
    /// installed RAM. Both are counted like every engine reject.
    pub fn ring_post(
        &mut self,
        ctx: u32,
        desc: &DmaDescriptor,
        _now: SimTime,
    ) -> Result<u64, RejectReason> {
        if self.ring_config.is_none()
            || !self.has_context(ctx)
            || !self.rings[ctx as usize].registered()
        {
            self.note_reject(RejectReason::RingFull);
            return Err(RejectReason::RingFull);
        }
        let r = &self.rings[ctx as usize];
        if r.posted - r.head >= r.capacity as u64 {
            self.note_reject(RejectReason::RingFull);
            return Err(RejectReason::RingFull);
        }
        let slot = r.posted;
        let addr = r.slot_addr((slot % r.capacity as u64) as u32);
        let words = desc.encode();
        for (w, word) in words.iter().enumerate() {
            let wrote =
                self.mem.borrow_mut().write_u64(PhysAddr::new(addr.as_u64() + 8 * w as u64), *word);
            if wrote.is_err() {
                self.note_reject(RejectReason::BadRange);
                return Err(RejectReason::BadRange);
            }
        }
        self.rings[ctx as usize].posted = slot + 1;
        self.ring_stats.posted += 1;
        Ok(slot)
    }

    /// `CTX_RING_DB` load: descriptors posted but not yet dequeued.
    pub fn ring_db_load(&self, ctx: u32) -> u64 {
        match self.rings.get(ctx as usize) {
            Some(r) if r.registered() => r.pending(),
            _ => DMA_FAILURE,
        }
    }

    /// The doorbell: dequeues, translates and launches every
    /// descriptor from the ring's head cursor up to `tail` (absolute
    /// index, as the doorbell store's payload). Each slot fetch charges
    /// [`RingConfig::fetch_latency`] to the *launch clock*, so a batch
    /// of N descriptors launches back-to-back at `now + k·fetch` — the
    /// CPU paid one uncached store for all of them; that is the whole
    /// amortization. A [`DESC_FLAG_CHAIN`] head walks its fragment
    /// chain and gather-launches every fragment at the head's
    /// destination plus the accumulated offset; consumed fragment slots
    /// are skipped by the main scan.
    ///
    /// Every slot word is user-written, so protection holds per
    /// descriptor: each launch translates through the IOMMU under the
    /// posting context's ASID, exactly like a register-path post. Every
    /// fetched slot yields exactly one entry in the returned list — a
    /// launch, or a reject counted in [`RingStats::rejected`] and the
    /// engine's reject statistics. A tail more than one ring's worth of
    /// slots past the head is clamped: the ring cannot hold more.
    pub fn ring_doorbell(&mut self, ctx: u32, tail: u64, now: SimTime) -> Vec<RingLaunch> {
        let mut out = Vec::new();
        if self.ring_config.is_none() || !self.has_context(ctx) {
            return out;
        }
        self.ring_stats.doorbells += 1;
        if !self.rings[ctx as usize].registered() {
            self.note_reject(RejectReason::RingFull);
            return out;
        }
        let fetch = self.ring_config.expect("checked above").fetch_latency;
        // Prune drained launches so the live list (and the busy check)
        // stays proportional to in-flight work, not ring history.
        let mut live_virt = std::mem::take(&mut self.rings[ctx as usize].live_virt);
        live_virt.retain(|&id| self.virt_xfers.get(id).is_some_and(|x| virt_xfer_pins(x, now)));
        let tail = {
            let r = &mut self.rings[ctx as usize];
            r.live_virt = live_virt;
            // A raw doorbell (CPU wrote the slots itself) advances the
            // posted cursor past anything the post helper tracked, but
            // never more than a ring's worth past the head.
            let tail = tail.min(r.head.saturating_add(u64::from(r.capacity)));
            r.posted = r.posted.max(tail);
            tail
        };
        let mut clock = now;
        loop {
            let (head, limit, capacity) = {
                let r = &self.rings[ctx as usize];
                (r.head, tail.min(r.posted), r.capacity)
            };
            if head >= limit {
                break;
            }
            let rel = (head % capacity as u64) as usize;
            self.rings[ctx as usize].head = head + 1;
            if self.rings[ctx as usize].consumed[rel] {
                self.rings[ctx as usize].consumed[rel] = false;
                continue;
            }
            clock += fetch;
            self.ring_stats.fetched += 1;
            // An undecodable slot, or a fragment no chain head claimed,
            // launches nothing.
            let Some(desc) =
                self.fetch_desc(ctx, rel as u32).filter(|d| d.flags & DESC_FLAG_FRAG == 0)
            else {
                self.ring_reject(&mut out, 1);
                continue;
            };
            // Gather chain: the head descriptor is fragment 0, its link
            // names the next fragment slot. The walk is bounded by the
            // ring capacity, so a link cycle cannot wedge the engine.
            let mut frags = vec![(desc.src, desc.len, 0u64)];
            let mut walked = 0u64;
            let mut chain_ok = true;
            if desc.flags & DESC_FLAG_CHAIN != 0 {
                let mut link = desc.link;
                let mut offset = desc.len;
                while let Some(slot) = link {
                    if slot >= capacity || walked >= u64::from(capacity) {
                        chain_ok = false;
                        break;
                    }
                    clock += fetch;
                    self.ring_stats.fetched += 1;
                    walked += 1;
                    let Some(f) =
                        self.fetch_desc(ctx, slot).filter(|f| f.flags & DESC_FLAG_FRAG != 0)
                    else {
                        chain_ok = false;
                        break;
                    };
                    self.rings[ctx as usize].consumed[slot as usize] = true;
                    frags.push((f.src, f.len, offset));
                    // Lengths are user-written: a gather offset that
                    // overflows refuses the chain instead of wrapping.
                    let Some(next) = offset.checked_add(f.len) else {
                        chain_ok = false;
                        break;
                    };
                    offset = next;
                    link = f.link;
                }
            }
            if !chain_ok {
                // The head and every fragment the walk fetched.
                self.ring_reject(&mut out, 1 + walked);
                continue;
            }
            let in_chain = frags.len() > 1;
            for (i, (src, len, off)) in frags.into_iter().enumerate() {
                let launch = self.ring_launch(ctx, src, desc.dst, off, len, clock);
                match launch {
                    RingLaunch::Virt(id) => {
                        self.rings[ctx as usize].live_virt.push(id);
                        self.virt_stage[ctx as usize].last = Some(id);
                        self.ring_stats.launched += 1;
                        if in_chain && i > 0 {
                            self.ring_stats.chained += 1;
                        }
                    }
                    RingLaunch::Rejected(_) => self.ring_stats.rejected += 1,
                }
                out.push(launch);
            }
        }
        let r = &mut self.rings[ctx as usize];
        r.drain_until = r.drain_until.max(clock);
        out
    }

    /// Refuses `slots` fetched ring slots as `BadRange`: each counts once
    /// in the ring and engine statistics and appears once in `out`.
    fn ring_reject(&mut self, out: &mut Vec<RingLaunch>, slots: u64) {
        for _ in 0..slots {
            self.ring_stats.rejected += 1;
            self.note_reject(RejectReason::BadRange);
            out.push(RingLaunch::Rejected(RejectReason::BadRange));
        }
    }

    /// Fetches and decodes the descriptor in relative slot `rel` of
    /// context `ctx`'s ring (the engine-initiated host-memory read the
    /// per-descriptor fetch latency models).
    fn fetch_desc(&self, ctx: u32, rel: u32) -> Option<DmaDescriptor> {
        let base = self.rings[ctx as usize].slot_addr(rel);
        let mut words = [0u64; DESC_WORDS];
        {
            let mem = self.mem.borrow();
            for (w, word) in words.iter_mut().enumerate() {
                *word = mem.read_u64(PhysAddr::new(base.as_u64() + 8 * w as u64)).ok()?;
            }
        }
        DmaDescriptor::decode(words)
    }

    /// Launches one dequeued descriptor (or chain fragment) at launch
    /// clock `at` through the register path's checked VA post. `offset`
    /// is the fragment's accumulated gather offset into the destination;
    /// a destination past the end of the address space is refused.
    fn ring_launch(
        &mut self,
        ctx: u32,
        src: VirtAddr,
        dst: DescDst,
        offset: u64,
        len: u64,
        at: SimTime,
    ) -> RingLaunch {
        let DescDst::Local(va) = dst;
        let Some(dst) = va.as_u64().checked_add(offset) else {
            self.note_reject(RejectReason::BadRange);
            return RingLaunch::Rejected(RejectReason::BadRange);
        };
        match self.post_virt_dma(ctx, src, VirtAddr::new(dst), len, at) {
            Ok(id) => RingLaunch::Virt(id),
            Err(reason) => RingLaunch::Rejected(reason),
        }
    }

    /// The transfer record a context's status load refers to.
    pub fn context_transfer(&self, ctx: u32) -> Option<&TransferRecord> {
        self.contexts
            .get(ctx as usize)
            .and_then(|c| c.last_transfer())
            .and_then(|i| self.mover.record(i))
    }
}

/// Whether a virtual transfer still pins its initiating context at
/// `now`: live states (running, or faulted awaiting OS service) always
/// pin; terminal states (complete, failed) pin only until the simulated
/// instant they settled — a transfer that already reached its outcome
/// can never again observe the register file, so holding the context
/// hostage past `finished` would wedge the steal path forever.
fn virt_xfer_pins(x: &VirtTransfer, now: SimTime) -> bool {
    match x.state {
        VirtState::Running | VirtState::Faulted(_) => true,
        _ => x.finished.is_some_and(|f| now < f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use udma_mem::{PhysMemory, PAGE_SIZE};

    fn core() -> EngineCore {
        let layout = PhysLayout::default();
        let mem = Rc::new(RefCell::new(PhysMemory::new(1 << 22)));
        EngineCore::new(layout, mem, EngineConfig::default())
    }

    #[test]
    fn kernel_dma_round_trip() {
        let mut c = core();
        c.set_dma_source(0x2000);
        c.set_dma_dest(0x6000);
        c.start_kernel_dma(256, SimTime::ZERO);
        assert_eq!(c.stats().started, 1);
        // Far in the future the transfer is complete.
        assert_eq!(c.kernel_dma_status(SimTime::from_us(10_000)), 0);
    }

    #[test]
    fn kernel_dma_failure_status() {
        let mut c = core();
        c.set_dma_source(0x2000);
        c.set_dma_dest(0x6000);
        c.start_kernel_dma(0, SimTime::ZERO);
        assert_eq!(c.kernel_dma_status(SimTime::ZERO), DMA_FAILURE);
        assert_eq!(c.stats().rejected_for(RejectReason::ZeroSize), 1);
    }

    #[test]
    fn user_dma_rejects_page_cross() {
        let mut c = core();
        let src = PhysAddr::new(PAGE_SIZE - 8);
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        let err = c.start_user_dma(src, dst, 64, Initiator::Anonymous, SimTime::ZERO).unwrap_err();
        assert_eq!(err, RejectReason::PageCross);
        assert_eq!(c.stats().rejected(), 1);
    }

    #[test]
    fn keys_and_contexts() {
        let mut c = core();
        assert_eq!(c.num_contexts(), 4);
        c.set_key(2, 0xDEAD);
        assert_eq!(c.key(2), 0xDEAD);
        assert_eq!(c.key(0), 0);
        assert!(c.has_context(3));
        assert!(!c.has_context(4));
        // Out-of-range key writes are ignored, reads return 0.
        c.set_key(99, 1);
        assert_eq!(c.key(99), 0);
    }

    #[test]
    fn save_restore_round_trip() {
        let mut c = core();
        c.set_key(1, 0xBEEF);
        c.context_mut(1).push_addr(PhysAddr::new(0x2000));
        c.context_mut(1).push_addr(PhysAddr::new(0x1000));
        c.context_mut(1).set_size(64);
        let before = *c.context(1);

        let image = c.save_context(1, SimTime::ZERO).unwrap();
        assert_eq!(image.key, 0xBEEF);
        // The slot is scrubbed: key 0, no staged arguments.
        assert_eq!(c.key(1), 0);
        assert!(!c.context(1).args_complete());

        c.restore_context(3, &image);
        assert_eq!(c.key(3), 0xBEEF);
        assert_eq!(*c.context(3), before);
        assert_eq!(c.ctx_stats(), CtxStats { spills: 1, fills: 1, ..CtxStats::default() });
    }

    #[test]
    fn save_refused_while_transfer_in_flight() {
        let mut c = core();
        let idx = c
            .start_user_dma(
                PhysAddr::new(0x2000),
                PhysAddr::new(0x6000),
                256,
                Initiator::Context(0),
                SimTime::ZERO,
            )
            .unwrap();
        c.context_mut(0).set_last_transfer(idx);

        assert!(c.context_busy(0, SimTime::ZERO));
        assert_eq!(c.save_context(0, SimTime::ZERO), Err(CtxBusy::Transfer));
        assert_eq!(c.ctx_stats().busy_denials, 1);

        // Once the wire drains, the same save succeeds.
        let later = SimTime::from_us(10_000);
        assert!(!c.context_busy(0, later));
        assert!(c.save_context(0, later).is_ok());
        assert_eq!(c.ctx_stats().spills, 1);
    }

    #[test]
    fn steal_and_starvation_notes() {
        let mut c = core();
        c.note_ctx_steal();
        c.note_ctx_steal();
        c.note_ctx_starvation();
        assert_eq!(c.ctx_stats().steals, 2);
        assert_eq!(c.ctx_stats().starvations, 1);
    }

    #[test]
    fn kernel_atomic_path() {
        let mut c = core();
        c.mem.borrow_mut().write_u64(PhysAddr::new(0x100), 40).unwrap();
        c.set_atomic_addr(0x100);
        c.set_atomic_op1(2);
        c.exec_kernel_atomic(AtomicOp::Add.code());
        assert_eq!(c.kernel_atomic_result(), 40);
        assert_eq!(c.mem.borrow().read_u64(PhysAddr::new(0x100)).unwrap(), 42);
        assert_eq!(c.stats().atomics, 1);

        c.exec_kernel_atomic(99);
        assert_eq!(c.kernel_atomic_result(), DMA_FAILURE);
    }

    #[test]
    fn mapped_out_table() {
        let mut c = core();
        c.set_mapped_out(PhysFrame::new(3), Destination::Local(PhysAddr::new(0x8000)));
        assert_eq!(
            c.mapped_out(PhysFrame::new(3)),
            Some(Destination::Local(PhysAddr::new(0x8000)))
        );
        assert_eq!(c.mapped_out(PhysFrame::new(4)), None);
    }

    #[test]
    fn remote_user_dma_deposits_on_the_node() {
        let mut c = core();
        let cluster = crate::Cluster::new(2, 1 << 16).shared();
        c.attach_cluster(cluster.clone());
        c.mem.borrow_mut().write_u64(PhysAddr::new(0x2000), 0x77).unwrap();
        let idx = c
            .start_user_dma_remote(
                PhysAddr::new(0x2000),
                1,
                PhysAddr::new(0x400),
                8,
                Initiator::Anonymous,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(cluster.borrow().read_u64(1, PhysAddr::new(0x400)).unwrap(), 0x77);
        let rec = c.mover().record(idx).unwrap();
        assert_eq!(rec.remote_node, Some(1));
        assert_eq!(rec.destination(), Destination::Remote { node: 1, addr: PhysAddr::new(0x400) });
    }

    #[test]
    fn remote_dma_without_cluster_is_rejected() {
        let mut c = core();
        let err = c
            .start_user_dma_remote(
                PhysAddr::new(0x2000),
                0,
                PhysAddr::new(0),
                8,
                Initiator::Anonymous,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, RejectReason::BadRange);
    }

    #[test]
    fn pending_extra_latency_accumulates_and_clears() {
        let mut c = core();
        assert_eq!(c.take_pending_extra(), SimTime::ZERO);
        c.charge_key_check();
        c.charge_key_check();
        assert_eq!(c.take_pending_extra(), SimTime::from_ns(240));
        assert_eq!(c.take_pending_extra(), SimTime::ZERO);
    }

    fn virt_core() -> EngineCore {
        let mut c = core();
        c.enable_iommu(IotlbConfig::default(), VirtDmaConfig::default());
        let iommu = c.iommu_mut().unwrap();
        iommu.create_context(1);
        // VA pages 0..4 → frames 8..12 (src), VA pages 8..12 → frames
        // 16..20 (dst), read-write, resident.
        for p in 0..4u64 {
            iommu
                .map(
                    1,
                    udma_mem::VirtPage::new(p),
                    PhysFrame::new(8 + p),
                    udma_mem::Perms::READ_WRITE,
                    true,
                )
                .unwrap();
            iommu
                .map(
                    1,
                    udma_mem::VirtPage::new(8 + p),
                    PhysFrame::new(16 + p),
                    udma_mem::Perms::READ_WRITE,
                    true,
                )
                .unwrap();
        }
        c
    }

    #[test]
    fn virt_dma_splits_at_page_boundaries() {
        let mut c = virt_core();
        c.mem.borrow_mut().write_u64(PhysAddr::new(8 * PAGE_SIZE + 0x100), 0xABCD).unwrap();
        // 2.5 pages, starting mid-page: chunks must never cross a page.
        let src = VirtAddr::new(0x100);
        let dst = VirtAddr::new(8 * PAGE_SIZE + 0x100);
        let id = c.post_virt_dma(1, src, dst, 2 * PAGE_SIZE + 128, SimTime::ZERO).unwrap();
        let t = *c.virt_xfer(id).unwrap();
        assert_eq!(t.state, VirtState::Complete);
        assert_eq!(t.moved, 2 * PAGE_SIZE + 128);
        assert_eq!(t.chunks, 3); // (PAGE-0x100) + PAGE + (128+0x100)
        for rec in c.mover().records() {
            assert_eq!(rec.initiator, Initiator::VirtDma { asid: 1 });
            assert!(rec.src.page_offset() + rec.size <= PAGE_SIZE);
            assert!(rec.dst.page_offset() + rec.size <= PAGE_SIZE);
        }
        // The data actually landed (frame 16 = VA page 8).
        assert_eq!(c.mem.borrow().read_u64(PhysAddr::new(16 * PAGE_SIZE + 0x100)).unwrap(), 0xABCD);
        assert_eq!(c.virt_status(id, SimTime::from_us(100_000)), 0);
    }

    #[test]
    fn virt_fault_pauses_at_the_boundary_and_resumes() {
        let mut c = virt_core();
        // Second source page (VA page 1) is not mapped.
        c.iommu_mut().unwrap().unmap(1, udma_mem::VirtPage::new(1)).unwrap();
        let id = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                2 * PAGE_SIZE,
                SimTime::ZERO,
            )
            .unwrap();
        let t = *c.virt_xfer(id).unwrap();
        assert!(matches!(t.state, VirtState::Faulted(_)));
        // Exactly the first page moved; nothing past the fault.
        assert_eq!(t.moved, PAGE_SIZE);
        let pending = c.pop_fault().unwrap();
        assert_eq!(pending.xfer, id);
        assert_eq!(pending.fault.va.page(), udma_mem::VirtPage::new(1));
        assert_eq!(pending.fault.kind, IoFaultKind::Unmapped);
        // OS services the fault, engine resumes and completes.
        c.iommu_mut()
            .unwrap()
            .map(
                1,
                udma_mem::VirtPage::new(1),
                PhysFrame::new(9),
                udma_mem::Perms::READ_WRITE,
                true,
            )
            .unwrap();
        let state = c.resume_virt(id, SimTime::from_us(5));
        assert_eq!(state, VirtState::Complete);
        assert_eq!(c.virt_xfer(id).unwrap().moved, 2 * PAGE_SIZE);
        assert_eq!(c.virt_stats().faults, 1);
        assert_eq!(c.virt_stats().retries, 1);
    }

    #[test]
    fn virt_retries_are_bounded() {
        let mut c = virt_core();
        c.iommu_mut().unwrap().unmap(1, udma_mem::VirtPage::new(0)).unwrap();
        let id = c
            .post_virt_dma(1, VirtAddr::new(0), VirtAddr::new(8 * PAGE_SIZE), 64, SimTime::ZERO)
            .unwrap();
        let max = c.virt_config().retry.max_retries;
        let mut state = c.virt_xfer(id).unwrap().state;
        let mut resumes = 0;
        while matches!(state, VirtState::Faulted(_)) {
            state = c.resume_virt(id, SimTime::ZERO);
            resumes += 1;
            assert!(resumes <= max + 1, "resume loop did not terminate");
        }
        assert!(matches!(state, VirtState::Failed(_)));
        assert_eq!(resumes, max + 1);
        assert_eq!(c.virt_status(id, SimTime::from_us(100)), DMA_FAILURE);
        assert_eq!(c.virt_xfer(id).unwrap().moved, 0);
        // Backoff showed up as stall time.
        assert!(c.virt_xfer(id).unwrap().stall > SimTime::ZERO);
    }

    #[test]
    fn virt_fail_is_terminal_and_preserves_prefix_rule() {
        let mut c = virt_core();
        c.iommu_mut().unwrap().unmap(1, udma_mem::VirtPage::new(1)).unwrap();
        let id = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                2 * PAGE_SIZE,
                SimTime::ZERO,
            )
            .unwrap();
        let state = c.fail_virt(id, SimTime::from_us(1));
        assert!(matches!(state, VirtState::Failed(_)));
        assert_eq!(c.virt_xfer(id).unwrap().moved, PAGE_SIZE);
        assert_eq!(c.virt_status(id, SimTime::from_us(1)), DMA_FAILURE);
        // Further resumes do nothing.
        assert_eq!(c.resume_virt(id, SimTime::from_us(2)), state);
    }

    #[test]
    fn ctx_virt_window_posts_and_reports() {
        let mut c = virt_core();
        let now = SimTime::ZERO;
        // GO before staging: rejected with MissingArgs.
        c.ctx_virt_store(1, regs::CTX_VIRT_GO, 64, now);
        assert_eq!(c.ctx_virt_load(1, regs::CTX_VIRT_GO, now), DMA_FAILURE);
        assert_eq!(c.stats().rejected_for(RejectReason::MissingArgs), 1);

        c.ctx_virt_store(1, regs::CTX_VIRT_SRC, 0x40, now);
        c.ctx_virt_store(1, regs::CTX_VIRT_DST, 8 * PAGE_SIZE, now);
        c.ctx_virt_store(1, regs::CTX_VIRT_GO, 64, now);
        assert_eq!(c.ctx_virt_load(1, regs::CTX_VIRT_SRC, now), 0x40);
        assert_eq!(c.ctx_virt_load(1, regs::CTX_VIRT_GO, SimTime::from_us(100_000)), 0);
        assert_eq!(c.virt_stats().posted, 1);
        // Unknown context: store ignored, load fails.
        c.ctx_virt_store(9, regs::CTX_VIRT_GO, 64, now);
        assert_eq!(c.ctx_virt_load(9, regs::CTX_VIRT_GO, now), DMA_FAILURE);
    }

    #[test]
    fn virt_iotlb_hits_skip_the_walk_cost() {
        let mut c = virt_core();
        let id1 = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                PAGE_SIZE,
                SimTime::ZERO,
            )
            .unwrap();
        let cold = c.virt_xfer(id1).unwrap().stall;
        let id2 = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                PAGE_SIZE,
                SimTime::ZERO,
            )
            .unwrap();
        let warm = c.virt_xfer(id2).unwrap().stall;
        assert!(cold > SimTime::ZERO);
        assert_eq!(warm, SimTime::ZERO);
        assert_eq!(c.iommu().unwrap().stats().tlb.hits, 2);
    }

    #[test]
    #[should_panic(expected = "requires enable_iommu")]
    fn virt_post_without_iommu_panics() {
        let mut c = core();
        let _ = c.post_virt_dma(0, VirtAddr::new(0), VirtAddr::new(0), 8, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "context count")]
    fn too_many_contexts_panics() {
        let layout = PhysLayout::default();
        let mem = Rc::new(RefCell::new(PhysMemory::new(1 << 20)));
        let _ =
            EngineCore::new(layout, mem, EngineConfig { num_contexts: 9, ..Default::default() });
    }

    /// A virt-enabled core with rings on and a 16-slot ring registered
    /// for context 1 at physical 0x40000 (clear of the test mappings).
    fn ring_core() -> EngineCore {
        let mut c = virt_core();
        c.enable_rings(RingConfig::default());
        c.set_ring_base(1, 0x40000);
        c.set_ring_ctl(1, 16);
        c
    }

    fn local_desc(src: u64, dst: u64, len: u64) -> DmaDescriptor {
        DmaDescriptor::new(VirtAddr::new(src), DescDst::Local(VirtAddr::new(dst)), len)
    }

    #[test]
    fn ring_post_then_doorbell_launches_batch() {
        let mut c = ring_core();
        // Three sources in VA page 0, destinations in VA page 8.
        for i in 0..3u64 {
            c.mem
                .borrow_mut()
                .write_u64(PhysAddr::new(8 * PAGE_SIZE + 0x40 * i), 0xA0 + i)
                .unwrap();
            let slot =
                c.ring_post(1, &local_desc(0x40 * i, 8 * PAGE_SIZE + 0x100 * i, 8), SimTime::ZERO);
            assert_eq!(slot, Ok(i));
        }
        assert_eq!(c.ring(1).pending(), 3);
        assert_eq!(c.ring_db_load(1), 3);

        let launches = c.ring_doorbell(1, 3, SimTime::ZERO);
        assert_eq!(launches.len(), 3);
        for l in &launches {
            assert!(matches!(l, RingLaunch::Virt(_)));
        }
        assert_eq!(c.ring(1).pending(), 0);
        assert_eq!(c.ring_db_load(1), 0);
        // The bytes landed (frame 16 = dst VA page 8).
        for i in 0..3u64 {
            assert_eq!(
                c.mem.borrow().read_u64(PhysAddr::new(16 * PAGE_SIZE + 0x100 * i)).unwrap(),
                0xA0 + i
            );
        }
        let s = c.ring_stats();
        assert_eq!((s.posted, s.doorbells, s.fetched, s.launched, s.rejected), (3, 1, 3, 3, 0));
    }

    #[test]
    fn ring_fetch_latency_staggers_the_launch_clock() {
        let mut c = ring_core();
        // Warm both translations first so the ring's chunks pay no walk
        // and launch exactly at the ring clock.
        c.post_virt_dma(1, VirtAddr::new(0), VirtAddr::new(8 * PAGE_SIZE), 8, SimTime::ZERO)
            .unwrap();
        for i in 0..4u64 {
            c.ring_post(1, &local_desc(0x40 * i, 8 * PAGE_SIZE + 0x40 * i, 8), SimTime::ZERO)
                .unwrap();
        }
        c.ring_doorbell(1, 4, SimTime::ZERO);
        let fetch = RingConfig::default().fetch_latency;
        // Chunk k of the batch launched at (k+1)·fetch: the engine pays
        // one descriptor fetch per launch, the CPU paid one doorbell.
        let starts: Vec<SimTime> = c.mover().records()[1..].iter().map(|r| r.started).collect();
        assert_eq!(starts.len(), 4);
        for (k, s) in starts.iter().enumerate() {
            assert_eq!(*s, SimTime::from_ps(fetch.as_ps() * (k as u64 + 1)));
        }
        assert_eq!(c.ring(1).drain_until(), SimTime::from_ps(fetch.as_ps() * 4));
    }

    #[test]
    fn ring_gather_chain_deposits_contiguously() {
        let mut c = ring_core();
        // Three 8-byte fragments scattered across VA page 0.
        for (i, off) in [0x00u64, 0x200, 0x400].iter().enumerate() {
            c.mem
                .borrow_mut()
                .write_u64(PhysAddr::new(8 * PAGE_SIZE + off), 0xF0 + i as u64)
                .unwrap();
        }
        // Head in slot 0 links fragment slots 1 and 2.
        let mut head = local_desc(0x00, 8 * PAGE_SIZE, 8);
        head.flags = DESC_FLAG_CHAIN;
        head.link = Some(1);
        let mut f1 = local_desc(0x200, 0, 8);
        f1.flags = DESC_FLAG_FRAG;
        f1.link = Some(2);
        let mut f2 = local_desc(0x400, 0, 8);
        f2.flags = DESC_FLAG_FRAG;
        c.ring_post(1, &head, SimTime::ZERO).unwrap();
        c.ring_post(1, &f1, SimTime::ZERO).unwrap();
        c.ring_post(1, &f2, SimTime::ZERO).unwrap();
        // A plain descriptor after the chain: the main scan must skip
        // the consumed fragment slots and still launch this one.
        c.mem.borrow_mut().write_u64(PhysAddr::new(8 * PAGE_SIZE + 0x600), 0x99).unwrap();
        c.ring_post(1, &local_desc(0x600, 8 * PAGE_SIZE + 0x800, 8), SimTime::ZERO).unwrap();

        let launches = c.ring_doorbell(1, 4, SimTime::ZERO);
        // 3 gather fragments + 1 plain launch; no rejects.
        assert_eq!(launches.len(), 4);
        assert!(launches.iter().all(|l| matches!(l, RingLaunch::Virt(_))));
        // The gather landed contiguously at the head's destination.
        for i in 0..3u64 {
            assert_eq!(
                c.mem.borrow().read_u64(PhysAddr::new(16 * PAGE_SIZE + 8 * i)).unwrap(),
                0xF0 + i
            );
        }
        assert_eq!(c.mem.borrow().read_u64(PhysAddr::new(16 * PAGE_SIZE + 0x800)).unwrap(), 0x99);
        let s = c.ring_stats();
        assert_eq!((s.fetched, s.launched, s.chained, s.rejected), (4, 4, 2, 0));
        assert_eq!(c.ring(1).pending(), 0);
    }

    #[test]
    fn ring_full_and_unregistered_posts_reject() {
        let mut c = ring_core();
        // Context 0 has no ring registered.
        let err = c.ring_post(0, &local_desc(0, 8 * PAGE_SIZE, 8), SimTime::ZERO).unwrap_err();
        assert_eq!(err, RejectReason::RingFull);
        // Fill context 1's 16 slots; the 17th post bounces.
        for _ in 0..16 {
            c.ring_post(1, &local_desc(0, 8 * PAGE_SIZE, 8), SimTime::ZERO).unwrap();
        }
        let err = c.ring_post(1, &local_desc(0, 8 * PAGE_SIZE, 8), SimTime::ZERO).unwrap_err();
        assert_eq!(err, RejectReason::RingFull);
        assert_eq!(c.stats().rejected_for(RejectReason::RingFull), 2);
        // Deregister: further doorbells reject too.
        c.set_ring_ctl(1, 0);
        assert!(!c.ring(1).registered());
        assert!(c.ring_doorbell(1, 16, SimTime::ZERO).is_empty());
        assert_eq!(c.stats().rejected_for(RejectReason::RingFull), 3);
    }

    #[test]
    fn save_refused_while_ring_pending_then_spills_with_image() {
        let mut c = ring_core();
        c.set_key(1, 0x1234);
        c.ring_post(1, &local_desc(0, 8 * PAGE_SIZE, 64), SimTime::ZERO).unwrap();
        // Posted but undoorbelled work pins the context.
        assert!(c.context_busy(1, SimTime::ZERO));
        assert_eq!(c.save_context(1, SimTime::ZERO), Err(CtxBusy::RingPending));
        assert_eq!(c.ctx_stats().busy_denials, 1);

        c.ring_doorbell(1, 1, SimTime::ZERO);
        // Immediately after the doorbell the batch is still draining.
        assert_eq!(c.save_context(1, SimTime::ZERO), Err(CtxBusy::RingPending));

        // Once quiescent, the spill carries the ring registration…
        let later = SimTime::from_us(100_000);
        let image = c.save_context(1, later).unwrap();
        let ring = image.ring.unwrap();
        assert_eq!((ring.base, ring.capacity, ring.cursor), (0x40000, 16, 1));
        // …and the evicted slot no longer decodes doorbells.
        assert!(!c.ring(1).registered());
        assert!(c.ring_doorbell(1, 5, later).is_empty());

        // Restore into another slot: cursors converge, ring re-arms.
        c.restore_context(2, &image);
        assert!(c.ring(2).registered());
        assert_eq!(c.ring(2).head(), 1);
        assert_eq!(c.ring(2).posted(), 1);
        c.iommu_mut().unwrap().create_context(2);
        c.iommu_mut()
            .unwrap()
            .map(
                2,
                udma_mem::VirtPage::new(0),
                PhysFrame::new(8),
                udma_mem::Perms::READ_WRITE,
                true,
            )
            .unwrap();
        c.iommu_mut()
            .unwrap()
            .map(
                2,
                udma_mem::VirtPage::new(8),
                PhysFrame::new(16),
                udma_mem::Perms::READ_WRITE,
                true,
            )
            .unwrap();
        c.ring_post(2, &local_desc(0x8, 8 * PAGE_SIZE + 0x8, 8), later).unwrap();
        let launches = c.ring_doorbell(2, 2, later);
        assert!(matches!(launches[..], [RingLaunch::Virt(_)]));
    }

    #[test]
    #[should_panic(expected = "require enable_iommu")]
    fn rings_without_iommu_panic() {
        let mut c = core();
        c.enable_rings(RingConfig::default());
    }
}
