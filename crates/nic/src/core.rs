//! The engine core: registers, contexts, key table, statistics, and the
//! services protocols build on.

use crate::descring::{DmaDescriptor, RingConfig, RingLaunch, RingStats, RingUnit};
use crate::regs::MAX_CONTEXTS;
use crate::virt::{VirtDmaConfig, VirtState, VirtStats, VirtTransfer, VirtUnit};
use crate::{
    AtomicOp, CtxBusy, CtxImage, CtxStats, Destination, DmaMover, Initiator, LinkModel,
    RegisterContext, RejectReason, RemoteSend, TransferRecord, DMA_FAILURE,
};
use std::collections::HashMap;
use udma_bus::{MemPort, SimTime};
use udma_iommu::{Asid, Iommu, IotlbConfig};
use udma_mem::{PhysAddr, PhysFrame, PhysLayout, VirtAddr};

/// Extra device latency of a keyed shadow store: the FPGA compares the
/// key against its table before acknowledging the bus write.
pub const KEY_CHECK_LATENCY: SimTime = SimTime::from_ns(120);

/// Configuration of the DMA engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of register contexts (≤ [`MAX_CONTEXTS`]).
    pub num_contexts: u32,
    /// The outgoing link (times transfer completion).
    pub link: LinkModel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { num_contexts: 4, link: LinkModel::default() }
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

    /// Counts a refused initiation and hands the reason back.
    pub(crate) fn reject(&mut self, reason: RejectReason) -> RejectReason {
        *self.rejects.entry(reason).or_insert(0) += 1;
        reason
    }
}

/// Shared engine state: everything below the protocol state machines.
/// The register contexts, key table and kernel-path registers are the
/// paper's engine (§3.1–3.3); the virtual-address unit is optional and
/// owns its own state, including the descriptor-ring unit.
///
/// The engine holds no memory: each operation that moves bytes takes the
/// machine's [`MemPort`] and lends it, with the mover and the counters,
/// to the back-end every initiation path ends in.
#[derive(Clone, Debug)]
pub struct EngineCore {
    layout: PhysLayout,
    mover: DmaMover,
    stats: EngineStats,
    contexts: Vec<RegisterContext>,
    key_table: Vec<u64>,
    /// SHRIMP-1 mapped-out table: source frame → destination page base
    /// (local, or a granted page on a cluster node).
    mapped_out: HashMap<PhysFrame, Destination>,
    // Kernel-path DMA registers (Figure 1).
    dma_source: u64,
    dma_dest: u64,
    dma_status: u64,
    // Kernel-path atomic registers.
    atomic_addr: u64,
    atomic_op1: u64,
    atomic_op2: u64,
    atomic_result: u64,
    ctx_stats: CtxStats,
    /// The virtual-address unit, present once an IOMMU is fitted.
    virt: Option<VirtUnit>,
}

impl EngineCore {
    /// Creates the core.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_contexts` exceeds [`MAX_CONTEXTS`] or is 0.
    pub fn new(layout: PhysLayout, config: EngineConfig) -> Self {
        assert!((1..=MAX_CONTEXTS).contains(&config.num_contexts), "context count out of range");
        EngineCore {
            layout,
            mover: DmaMover::new(config.link),
            stats: EngineStats::default(),
            contexts: vec![RegisterContext::new(); config.num_contexts as usize],
            key_table: vec![0; config.num_contexts as usize],
            mapped_out: HashMap::new(),
            dma_source: 0,
            dma_dest: 0,
            dma_status: DMA_FAILURE,
            atomic_addr: 0,
            atomic_op1: 0,
            atomic_op2: 0,
            atomic_result: 0,
            ctx_stats: CtxStats::default(),
            virt: None,
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
        self.stats.reject(reason);
    }

    /// The transfer history.
    pub fn mover(&self) -> &DmaMover {
        &self.mover
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

    /// Why `ctx` still has a transfer it can observe on the wire at
    /// `now`, or `None` when it is idle. A busy context must not be
    /// spilled — the DMA engine's streaming state (cursor, chunk
    /// registers) cannot be checkpointed mid-burst, and a faulted VA
    /// transfer still owns its resume path.
    ///
    /// Ring work takes precedence: a ring-launched transfer also
    /// registers as the context's last VA transfer, but the ring is the
    /// root cause the OS must wait out ([`VirtUnit`]'s ring pending
    /// rule). Then the context's last physical transfer with bytes
    /// remaining, then its last VA transfer if running, faulted or
    /// still draining.
    pub fn busy_reason(&self, ctx: u32, now: SimTime) -> Option<CtxBusy> {
        let virt = self.virt.as_ref();
        if virt.is_some_and(|v| v.ring_pending(ctx, now)) {
            Some(CtxBusy::RingPending)
        } else if self.context_transfer(ctx).is_some_and(|r| r.remaining_at(now) > 0) {
            Some(CtxBusy::Transfer)
        } else if virt.is_some_and(|v| v.last_pins(ctx, now)) {
            Some(CtxBusy::VirtTransfer)
        } else {
            None
        }
    }

    /// Whether `ctx` is busy at `now` ([`Self::busy_reason`]).
    pub fn context_busy(&self, ctx: u32, now: SimTime) -> bool {
        self.busy_reason(ctx, now).is_some()
    }

    /// Spills `ctx` into an OS-held [`CtxImage`]: snapshots the key, the
    /// register file, the `CTX_VIRT_*` staging window and the ring
    /// registration, then clears the slot (key 0 = unprogrammed, so a
    /// stale keyed store from the evicted process misses and is dropped
    /// — the §3.1 protection argument keeps holding across steals).
    ///
    /// # Errors
    ///
    /// [`CtxBusy`] when the context can still observe an in-flight
    /// transfer ([`Self::busy_reason`]); the denial is counted.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn save_context(&mut self, ctx: u32, now: SimTime) -> Result<CtxImage, CtxBusy> {
        if let Some(reason) = self.busy_reason(ctx, now) {
            self.ctx_stats.busy_denials += 1;
            return Err(reason);
        }
        let i = ctx as usize;
        let (virt, ring) = self.virt.as_mut().map_or_else(Default::default, |v| v.spill(ctx));
        let image = CtxImage { key: self.key_table[i], regs: self.contexts[i], virt, ring };
        self.key_table[i] = 0;
        self.contexts[i] = RegisterContext::new();
        self.ctx_stats.spills += 1;
        Ok(image)
    }

    /// Refills `ctx` from a spilled [`CtxImage`] (key table, register
    /// file, `CTX_VIRT_*` window, ring registration). The inverse of
    /// [`Self::save_context`]: a spilled-then-refilled context is
    /// observationally identical to one that was never evicted. Parts
    /// of the image for a unit this engine lacks are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn restore_context(&mut self, ctx: u32, image: &CtxImage) {
        let i = ctx as usize;
        assert!(i < self.contexts.len(), "context out of range");
        self.key_table[i] = image.key;
        self.contexts[i] = image.regs;
        if let Some(v) = self.virt.as_mut() {
            v.fill(ctx, image);
        }
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

    /// A checked launch of a transfer whose whole range the caller
    /// validated (the kernel's `check_size`, Figure 1), so it may cross
    /// pages: the back-end launch every local initiation path ends in.
    /// Returns the mover record index and the time the last byte
    /// arrives.
    ///
    /// # Errors
    ///
    /// The counted [`RejectReason`] when nothing was transferred.
    pub fn launch_checked(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        size: u64,
        initiator: Initiator,
        now: SimTime,
        mem: &mut MemPort,
    ) -> Result<(usize, SimTime), RejectReason> {
        self.mover.lend(&mut self.stats, mem).launch(src, dst, size, initiator, true, now)
    }

    /// The SHRIMP-1 launch (§2.4): `size` bytes at `src` go to the fixed
    /// twin of `src`'s page, at the same in-page offset. A local twin is
    /// a checked user-level copy. A remote twin's source is read
    /// (snooped when coherent) and queued as a [`RemoteSend`] for
    /// [`take_remote_sends`](Self::take_remote_sends): it books a start
    /// but no [`TransferRecord`], because the cluster times the
    /// delivery.
    ///
    /// # Errors
    ///
    /// The counted [`RejectReason`]: [`RejectReason::MissingArgs`] for a
    /// page with no twin, otherwise why the mover refused.
    pub(crate) fn launch_mapped_out(
        &mut self,
        src: PhysAddr,
        size: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> Result<(), RejectReason> {
        let off = src.page_offset();
        let dst = self.mapped_out.get(&src.page()).copied();
        let mut back = self.mover.lend(&mut self.stats, mem);
        match dst {
            Some(Destination::Local(base)) => {
                back.launch(src, base + off, size, Initiator::Anonymous, false, now).map(drop)
            }
            Some(Destination::Remote { node, asid, va }) => {
                back.send(src, node, asid, va + off, size, now)
            }
            None => Err(back.reject(RejectReason::MissingArgs)),
        }
    }

    /// Takes every remote send started so far, in launch order.
    pub fn take_remote_sends(&mut self) -> Vec<RemoteSend> {
        self.mover.take_sends()
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
        mem: &mut MemPort,
    ) -> Result<usize, RejectReason> {
        let launched =
            self.mover.lend(&mut self.stats, mem).launch(src, dst, size, initiator, false, now);
        launched.map(|(index, _)| index)
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
    pub fn start_kernel_dma(&mut self, size: u64, now: SimTime, mem: &mut MemPort) {
        let src = PhysAddr::new(self.dma_source);
        let dst = PhysAddr::new(self.dma_dest);
        self.dma_status = match self.launch_checked(src, dst, size, Initiator::Kernel, now, mem) {
            Ok(_) => size,
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
    pub fn exec_kernel_atomic(&mut self, code: u64, mem: &mut MemPort) {
        let (addr, op1, op2) = (PhysAddr::new(self.atomic_addr), self.atomic_op1, self.atomic_op2);
        self.atomic_result = self.exec_atomic(code, addr, op1, op2, mem);
    }

    /// Read of `ATOMIC_CMD`: result of the last kernel-path atomic.
    pub fn kernel_atomic_result(&self) -> u64 {
        self.atomic_result
    }

    /// Executes the atomic command `code` against memory through the
    /// port's engine side: the one decoder behind the kernel path and the
    /// user-level context pages. Returns the old value, or `DMA_FAILURE`
    /// for an unknown code or an address outside memory (a `BadRange`
    /// reject). The initiation is not charged the snoop time; the port's
    /// coherence statistics count it.
    pub fn exec_atomic(
        &mut self,
        code: u64,
        addr: PhysAddr,
        op1: u64,
        op2: u64,
        mem: &mut MemPort,
    ) -> u64 {
        let Some(op) = AtomicOp::from_code(code) else {
            return DMA_FAILURE;
        };
        match op.apply(mem, addr, op1, op2) {
            Ok(old) => {
                self.stats.atomics += 1;
                old
            }
            Err(_) => {
                self.stats.reject(RejectReason::BadRange);
                DMA_FAILURE
            }
        }
    }

    // ---- virtual-address DMA unit -----------------------------------

    /// Equips the engine with an IOMMU, enabling the `CTX_VIRT_*`
    /// context-page window and [`EngineCore::post_virt_dma`].
    pub fn enable_iommu(&mut self, iotlb: IotlbConfig, config: VirtDmaConfig) {
        self.virt = Some(VirtUnit::new(iotlb, config, self.contexts.len()));
    }

    /// The virtual-address unit, if the engine has an IOMMU.
    pub fn virt(&self) -> Option<&VirtUnit> {
        self.virt.as_ref()
    }

    /// Mutable virtual-address unit (fault service, transfer failure).
    pub fn virt_mut(&mut self) -> Option<&mut VirtUnit> {
        self.virt.as_mut()
    }

    /// The IOMMU, if enabled.
    pub fn iommu(&self) -> Option<&Iommu> {
        self.virt.as_ref().map(|v| &v.iommu)
    }

    /// Mutable IOMMU (the OS maps/unmaps/pins through this).
    pub fn iommu_mut(&mut self) -> Option<&mut Iommu> {
        self.virt.as_mut().map(|v| &mut v.iommu)
    }

    /// Counters of the virtual-address unit (zero without one).
    pub fn virt_stats(&self) -> VirtStats {
        self.virt.as_ref().map(|v| v.stats).unwrap_or_default()
    }

    /// All virtual-address transfers, in posting order (none without
    /// the unit).
    pub fn virt_xfers(&self) -> &[VirtTransfer] {
        self.virt.as_ref().map_or(&[], |v| &v.xfers)
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
        mem: &mut MemPort,
    ) -> Result<usize, RejectReason> {
        let Some(virt) = self.virt.as_mut() else {
            panic!("virtual-address DMA requires enable_iommu");
        };
        virt.post(asid, src, dst, size, now, &mut self.mover.lend(&mut self.stats, mem))
    }

    /// Resumes a faulted transfer (the OS calls this after servicing the
    /// fault; tests also call it *without* servicing to model a slow or
    /// absent OS). Each fruitless resume doubles the backoff; after
    /// [`RetryPolicy::max_retries`](crate::RetryPolicy) consecutive
    /// attempts with no progress the transfer fails with its reported
    /// fault. Any other state is returned unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no IOMMU or no transfer `id` was posted.
    pub fn resume_virt(&mut self, id: usize, now: SimTime, mem: &mut MemPort) -> VirtState {
        let Some(virt) = self.virt.as_mut() else {
            panic!("no virtual-address transfer {id} to resume");
        };
        virt.resume(id, now, &mut self.mover.lend(&mut self.stats, mem))
    }

    /// Store to a `CTX_VIRT_*` offset of context `ctx`'s page (ignored
    /// without the unit).
    pub fn ctx_virt_store(
        &mut self,
        ctx: u32,
        off: u64,
        data: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) {
        if let Some(virt) = self.virt.as_mut() {
            virt.ctx_store(ctx, off, data, now, &mut self.mover.lend(&mut self.stats, mem));
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
        let Some(virt) = self.virt.as_mut() else {
            panic!("descriptor rings require enable_iommu");
        };
        virt.rings = Some(RingUnit::new(config, self.contexts.len()));
    }

    /// The descriptor-ring unit, if enabled.
    pub fn rings(&self) -> Option<&RingUnit> {
        self.virt.as_ref().and_then(|v| v.rings.as_ref())
    }

    /// Mutable descriptor-ring unit (the privileged ring tables).
    pub fn rings_mut(&mut self) -> Option<&mut RingUnit> {
        self.virt.as_mut().and_then(|v| v.rings.as_mut())
    }

    /// Counters of the descriptor-ring unit (zero without one).
    pub fn ring_stats(&self) -> RingStats {
        self.rings().map(|r| r.stats).unwrap_or_default()
    }

    /// The user-library post helper: encodes `desc` into the next free
    /// ring slot in host memory (four word stores through the port's
    /// engine side — the cheap part the doorbell amortizes over) and
    /// advances the posted cursor. Returns the absolute slot index; the descriptor does
    /// nothing until a doorbell covers it.
    ///
    /// # Errors
    ///
    /// [`RejectReason::RingFull`] when rings are off, no ring is
    /// registered for `ctx`, or all `capacity` slots hold undequeued
    /// descriptors; [`RejectReason::BadRange`] when the registered
    /// window leaves installed RAM. Both are counted like every engine
    /// reject.
    pub fn ring_post(
        &mut self,
        ctx: u32,
        desc: &DmaDescriptor,
        mem: &mut MemPort,
    ) -> Result<u64, RejectReason> {
        let rings = self.virt.as_mut().and_then(|v| v.rings.as_mut());
        let posted = rings.map_or(Err(RejectReason::RingFull), |r| r.post(ctx, desc, mem));
        posted.map_err(|reason| self.stats.reject(reason))
    }

    /// The doorbell: dequeues, translates and launches every
    /// descriptor from the ring's head cursor up to `tail` (absolute
    /// index, as the doorbell store's payload). Each slot fetch charges
    /// [`RingConfig::fetch_latency`] to the *launch clock*, so a batch
    /// of N descriptors launches back-to-back at `now + k·fetch` — the
    /// CPU paid one uncached store for all of them; that is the whole
    /// amortization. A [`DESC_FLAG_CHAIN`](crate::DESC_FLAG_CHAIN) head
    /// walks its fragment chain and gather-launches every fragment at
    /// the head's destination plus the accumulated offset; consumed
    /// fragment slots are skipped by the main scan.
    ///
    /// Every slot word is user-written, so protection holds per
    /// descriptor: each launch translates through the IOMMU under the
    /// posting context's ASID, exactly like a register-path post. Every
    /// fetched slot yields exactly one entry in the returned list — a
    /// launch, or a reject counted in [`RingStats::rejected`] and the
    /// engine's reject statistics. A tail more than one ring's worth of
    /// slots past the head is clamped: the ring cannot hold more.
    /// Without the ring unit a doorbell does nothing.
    pub fn ring_doorbell(
        &mut self,
        ctx: u32,
        tail: u64,
        now: SimTime,
        mem: &mut MemPort,
    ) -> Vec<RingLaunch> {
        let mut launches = Vec::new();
        self.doorbell(ctx, tail, now, mem, Some(&mut launches));
        launches
    }

    /// [`Self::ring_doorbell`], listing each fetched slot's outcome in
    /// `launches` if there is a list. A user-level doorbell store passes
    /// none: a bus store has no value to return one in.
    pub(crate) fn doorbell(
        &mut self,
        ctx: u32,
        tail: u64,
        now: SimTime,
        mem: &mut MemPort,
        launches: Option<&mut Vec<RingLaunch>>,
    ) {
        if let Some(virt) = self.virt.as_mut() {
            virt.doorbell(ctx, tail, now, &mut self.mover.lend(&mut self.stats, mem), launches);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{regs, DescDst, DESC_FLAG_CHAIN, DESC_FLAG_FRAG};
    use udma_iommu::IoFaultKind;
    use udma_mem::{PhysMemory, PAGE_SIZE};

    fn core() -> (EngineCore, MemPort) {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(1 << 22));
        (EngineCore::new(layout, EngineConfig::default()), mem)
    }

    #[test]
    fn kernel_dma_round_trip() {
        let (mut c, mut mem) = core();
        c.set_dma_source(0x2000);
        c.set_dma_dest(0x6000);
        c.start_kernel_dma(256, SimTime::ZERO, &mut mem);
        assert_eq!(c.stats().started, 1);
        // Far in the future the transfer is complete.
        assert_eq!(c.kernel_dma_status(SimTime::from_us(10_000)), 0);
    }

    #[test]
    fn kernel_dma_failure_status() {
        let (mut c, mut mem) = core();
        c.set_dma_source(0x2000);
        c.set_dma_dest(0x6000);
        c.start_kernel_dma(0, SimTime::ZERO, &mut mem);
        assert_eq!(c.kernel_dma_status(SimTime::ZERO), DMA_FAILURE);
        assert_eq!(c.stats().rejected_for(RejectReason::ZeroSize), 1);
    }

    #[test]
    fn user_dma_rejects_page_cross() {
        let (mut c, mut mem) = core();
        let src = PhysAddr::new(PAGE_SIZE - 8);
        let dst = PhysAddr::new(4 * PAGE_SIZE);
        let err = c
            .start_user_dma(src, dst, 64, Initiator::Anonymous, SimTime::ZERO, &mut mem)
            .unwrap_err();
        assert_eq!(err, RejectReason::PageCross);
        assert_eq!(c.stats().rejected(), 1);
    }

    #[test]
    fn keys_and_contexts() {
        let (mut c, _) = core();
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
        let (mut c, _) = core();
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
        let (mut c, mut mem) = core();
        let idx = c
            .start_user_dma(
                PhysAddr::new(0x2000),
                PhysAddr::new(0x6000),
                256,
                Initiator::Context(0),
                SimTime::ZERO,
                &mut mem,
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
    fn save_refused_while_virt_transfer_paused_at_fault() {
        let (mut c, mut mem) = virt_core();
        // Second source page unmapped: the GO posts, moves one page and
        // pauses at the fault, still owning its resume path.
        c.iommu_mut().unwrap().unmap(1, udma_mem::VirtPage::new(1)).unwrap();
        c.ctx_virt_store(1, regs::CTX_VIRT_SRC, 0, SimTime::ZERO, &mut mem);
        c.ctx_virt_store(1, regs::CTX_VIRT_DST, 8 * PAGE_SIZE, SimTime::ZERO, &mut mem);
        c.ctx_virt_store(1, regs::CTX_VIRT_GO, 2 * PAGE_SIZE, SimTime::ZERO, &mut mem);
        assert!(matches!(c.virt_xfers()[0].state, VirtState::Faulted(_)));
        // No wire time can drain a paused transfer.
        let later = SimTime::from_us(100_000);
        assert_eq!(c.busy_reason(1, later), Some(CtxBusy::VirtTransfer));
        assert_eq!(c.save_context(1, later), Err(CtxBusy::VirtTransfer));
        assert_eq!(c.ctx_stats().busy_denials, 1);
        // Failing the transfer settles it; after that instant the slot spills.
        c.virt_mut().unwrap().fail(0, later);
        let image = c.save_context(1, later + SimTime::from_us(1)).unwrap();
        assert_eq!(image.virt.last, Some(0));
    }

    #[test]
    fn steal_and_starvation_notes() {
        let (mut c, _) = core();
        c.note_ctx_steal();
        c.note_ctx_steal();
        c.note_ctx_starvation();
        assert_eq!(c.ctx_stats().steals, 2);
        assert_eq!(c.ctx_stats().starvations, 1);
    }

    #[test]
    fn kernel_atomic_path() {
        let (mut c, mut mem) = core();
        mem.ram_mut().write_u64(PhysAddr::new(0x100), 40).unwrap();
        c.set_atomic_addr(0x100);
        c.set_atomic_op1(2);
        c.exec_kernel_atomic(AtomicOp::Add.code(), &mut mem);
        assert_eq!(c.kernel_atomic_result(), 40);
        assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(0x100)).unwrap(), 42);
        assert_eq!(c.stats().atomics, 1);

        c.exec_kernel_atomic(99, &mut mem);
        assert_eq!(c.kernel_atomic_result(), DMA_FAILURE);
    }

    fn virt_core() -> (EngineCore, MemPort) {
        let (mut c, mem) = core();
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
        (c, mem)
    }

    #[test]
    fn virt_dma_splits_at_page_boundaries() {
        let (mut c, mut mem) = virt_core();
        mem.ram_mut().write_u64(PhysAddr::new(8 * PAGE_SIZE + 0x100), 0xABCD).unwrap();
        // 2.5 pages, starting mid-page: chunks must never cross a page.
        let src = VirtAddr::new(0x100);
        let dst = VirtAddr::new(8 * PAGE_SIZE + 0x100);
        let id =
            c.post_virt_dma(1, src, dst, 2 * PAGE_SIZE + 128, SimTime::ZERO, &mut mem).unwrap();
        let t = c.virt_xfers()[id];
        assert_eq!(t.state, VirtState::Complete);
        assert_eq!(t.moved, 2 * PAGE_SIZE + 128);
        assert_eq!(t.chunks, 3); // (PAGE-0x100) + PAGE + (128+0x100)
        for rec in c.mover().records() {
            assert_eq!(rec.initiator, Initiator::VirtDma { asid: 1 });
            assert!(rec.src.page_offset() + rec.size <= PAGE_SIZE);
            assert!(rec.dst.page_offset() + rec.size <= PAGE_SIZE);
        }
        // The data actually landed (frame 16 = VA page 8).
        assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(16 * PAGE_SIZE + 0x100)).unwrap(), 0xABCD);
        assert_eq!(c.virt().unwrap().status(id, SimTime::from_us(100_000)), 0);
    }

    #[test]
    fn virt_fault_pauses_at_the_boundary_and_resumes() {
        let (mut c, mut mem) = virt_core();
        // Second source page (VA page 1) is not mapped.
        c.iommu_mut().unwrap().unmap(1, udma_mem::VirtPage::new(1)).unwrap();
        let id = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                2 * PAGE_SIZE,
                SimTime::ZERO,
                &mut mem,
            )
            .unwrap();
        let t = c.virt_xfers()[id];
        assert!(matches!(t.state, VirtState::Faulted(_)));
        // Exactly the first page moved; nothing past the fault.
        assert_eq!(t.moved, PAGE_SIZE);
        let pending = c.virt_mut().unwrap().pop_fault().unwrap();
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
        let state = c.resume_virt(id, SimTime::from_us(5), &mut mem);
        assert_eq!(state, VirtState::Complete);
        assert_eq!(c.virt_xfers()[id].moved, 2 * PAGE_SIZE);
        assert_eq!(c.virt_stats().faults, 1);
        assert_eq!(c.virt_stats().retries, 1);
    }

    #[test]
    fn virt_retries_are_bounded() {
        let (mut c, mut mem) = virt_core();
        c.iommu_mut().unwrap().unmap(1, udma_mem::VirtPage::new(0)).unwrap();
        let id = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                64,
                SimTime::ZERO,
                &mut mem,
            )
            .unwrap();
        let max = c.virt().unwrap().config().retry.max_retries;
        let mut state = c.virt_xfers()[id].state;
        let mut resumes = 0;
        while matches!(state, VirtState::Faulted(_)) {
            state = c.resume_virt(id, SimTime::ZERO, &mut mem);
            resumes += 1;
            assert!(resumes <= max + 1, "resume loop did not terminate");
        }
        assert!(matches!(state, VirtState::Failed(_)));
        assert_eq!(resumes, max + 1);
        assert_eq!(c.virt().unwrap().status(id, SimTime::from_us(100)), DMA_FAILURE);
        assert_eq!(c.virt_xfers()[id].moved, 0);
        // Backoff showed up as stall time.
        assert!(c.virt_xfers()[id].stall > SimTime::ZERO);
    }

    #[test]
    fn virt_fail_is_terminal_and_preserves_prefix_rule() {
        let (mut c, mut mem) = virt_core();
        c.iommu_mut().unwrap().unmap(1, udma_mem::VirtPage::new(1)).unwrap();
        let id = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                2 * PAGE_SIZE,
                SimTime::ZERO,
                &mut mem,
            )
            .unwrap();
        let state = c.virt_mut().unwrap().fail(id, SimTime::from_us(1));
        assert!(matches!(state, VirtState::Failed(_)));
        assert_eq!(c.virt_xfers()[id].moved, PAGE_SIZE);
        assert_eq!(c.virt().unwrap().status(id, SimTime::from_us(1)), DMA_FAILURE);
        // Further resumes do nothing.
        assert_eq!(c.resume_virt(id, SimTime::from_us(2), &mut mem), state);
    }

    #[test]
    fn ctx_virt_window_posts_and_reports() {
        let (mut c, mut mem) = virt_core();
        let now = SimTime::ZERO;
        // GO before staging: rejected with MissingArgs.
        c.ctx_virt_store(1, regs::CTX_VIRT_GO, 64, now, &mut mem);
        assert_eq!(c.virt().unwrap().ctx_load(1, regs::CTX_VIRT_GO, now), DMA_FAILURE);
        assert_eq!(c.stats().rejected_for(RejectReason::MissingArgs), 1);

        c.ctx_virt_store(1, regs::CTX_VIRT_SRC, 0x40, now, &mut mem);
        c.ctx_virt_store(1, regs::CTX_VIRT_DST, 8 * PAGE_SIZE, now, &mut mem);
        c.ctx_virt_store(1, regs::CTX_VIRT_GO, 64, now, &mut mem);
        assert_eq!(c.virt().unwrap().ctx_load(1, regs::CTX_VIRT_SRC, now), 0x40);
        assert_eq!(c.virt().unwrap().ctx_load(1, regs::CTX_VIRT_GO, SimTime::from_us(100_000)), 0);
        assert_eq!(c.virt_stats().posted, 1);
        // Unknown context: store ignored, load fails.
        c.ctx_virt_store(9, regs::CTX_VIRT_GO, 64, now, &mut mem);
        assert_eq!(c.virt().unwrap().ctx_load(9, regs::CTX_VIRT_GO, now), DMA_FAILURE);
    }

    #[test]
    fn virt_iotlb_hits_skip_the_walk_cost() {
        let (mut c, mut mem) = virt_core();
        let id1 = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                PAGE_SIZE,
                SimTime::ZERO,
                &mut mem,
            )
            .unwrap();
        let cold = c.virt_xfers()[id1].stall;
        let id2 = c
            .post_virt_dma(
                1,
                VirtAddr::new(0),
                VirtAddr::new(8 * PAGE_SIZE),
                PAGE_SIZE,
                SimTime::ZERO,
                &mut mem,
            )
            .unwrap();
        let warm = c.virt_xfers()[id2].stall;
        assert!(cold > SimTime::ZERO);
        assert_eq!(warm, SimTime::ZERO);
        assert_eq!(c.iommu().unwrap().stats().tlb.hits, 2);
    }

    #[test]
    #[should_panic(expected = "requires enable_iommu")]
    fn virt_post_without_iommu_panics() {
        let (mut c, mut mem) = core();
        let _ = c.post_virt_dma(0, VirtAddr::new(0), VirtAddr::new(0), 8, SimTime::ZERO, &mut mem);
    }

    #[test]
    #[should_panic(expected = "context count")]
    fn too_many_contexts_panics() {
        let layout = PhysLayout::default();
        let _ = EngineCore::new(layout, EngineConfig { num_contexts: 9, ..Default::default() });
    }

    /// A virt-enabled core with rings on and a 16-slot ring registered
    /// for context 1 at physical 0x40000 (clear of the test mappings).
    fn ring_core() -> (EngineCore, MemPort) {
        let (mut c, mem) = virt_core();
        c.enable_rings(RingConfig::default());
        c.rings_mut().unwrap().set_base(1, 0x40000);
        c.rings_mut().unwrap().set_ctl(1, 16);
        (c, mem)
    }

    fn local_desc(src: u64, dst: u64, len: u64) -> DmaDescriptor {
        DmaDescriptor::new(VirtAddr::new(src), DescDst::Local(VirtAddr::new(dst)), len)
    }

    #[test]
    fn ring_post_then_doorbell_launches_batch() {
        let (mut c, mut mem) = ring_core();
        // Three sources in VA page 0, destinations in VA page 8.
        for i in 0..3u64 {
            mem.ram_mut().write_u64(PhysAddr::new(8 * PAGE_SIZE + 0x40 * i), 0xA0 + i).unwrap();
            let slot =
                c.ring_post(1, &local_desc(0x40 * i, 8 * PAGE_SIZE + 0x100 * i, 8), &mut mem);
            assert_eq!(slot, Ok(i));
        }
        assert_eq!(c.rings().unwrap().ring(1).pending(), 3);
        assert_eq!(c.rings().unwrap().db_load(1), 3);

        let launches = c.ring_doorbell(1, 3, SimTime::ZERO, &mut mem);
        assert_eq!(launches.len(), 3);
        for l in &launches {
            assert!(matches!(l, RingLaunch::Virt(_)));
        }
        assert_eq!(c.rings().unwrap().ring(1).pending(), 0);
        assert_eq!(c.rings().unwrap().db_load(1), 0);
        // The bytes landed (frame 16 = dst VA page 8).
        for i in 0..3u64 {
            assert_eq!(
                mem.ram_mut().read_u64(PhysAddr::new(16 * PAGE_SIZE + 0x100 * i)).unwrap(),
                0xA0 + i
            );
        }
        let s = c.ring_stats();
        assert_eq!((s.posted, s.doorbells, s.fetched, s.launched, s.rejected), (3, 1, 3, 3, 0));
    }

    #[test]
    fn ring_fetch_latency_staggers_the_launch_clock() {
        let (mut c, mut mem) = ring_core();
        // Warm both translations first so the ring's chunks pay no walk
        // and launch exactly at the ring clock.
        c.post_virt_dma(
            1,
            VirtAddr::new(0),
            VirtAddr::new(8 * PAGE_SIZE),
            8,
            SimTime::ZERO,
            &mut mem,
        )
        .unwrap();
        for i in 0..4u64 {
            c.ring_post(1, &local_desc(0x40 * i, 8 * PAGE_SIZE + 0x40 * i, 8), &mut mem).unwrap();
        }
        c.ring_doorbell(1, 4, SimTime::ZERO, &mut mem);
        let fetch = RingConfig::default().fetch_latency;
        // Chunk k of the batch launched at (k+1)·fetch: the engine pays
        // one descriptor fetch per launch, the CPU paid one doorbell.
        let starts: Vec<SimTime> = c.mover().records()[1..].iter().map(|r| r.started).collect();
        assert_eq!(starts.len(), 4);
        for (k, s) in starts.iter().enumerate() {
            assert_eq!(*s, SimTime::from_ps(fetch.as_ps() * (k as u64 + 1)));
        }
        assert_eq!(c.rings().unwrap().ring(1).drain_until, SimTime::from_ps(fetch.as_ps() * 4));
    }

    #[test]
    fn ring_gather_chain_deposits_contiguously() {
        let (mut c, mut mem) = ring_core();
        // Three 8-byte fragments scattered across VA page 0.
        for (i, off) in [0x00u64, 0x200, 0x400].iter().enumerate() {
            mem.ram_mut().write_u64(PhysAddr::new(8 * PAGE_SIZE + off), 0xF0 + i as u64).unwrap();
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
        c.ring_post(1, &head, &mut mem).unwrap();
        c.ring_post(1, &f1, &mut mem).unwrap();
        c.ring_post(1, &f2, &mut mem).unwrap();
        // A plain descriptor after the chain: the main scan must skip
        // the consumed fragment slots and still launch this one.
        mem.ram_mut().write_u64(PhysAddr::new(8 * PAGE_SIZE + 0x600), 0x99).unwrap();
        c.ring_post(1, &local_desc(0x600, 8 * PAGE_SIZE + 0x800, 8), &mut mem).unwrap();

        let launches = c.ring_doorbell(1, 4, SimTime::ZERO, &mut mem);
        // 3 gather fragments + 1 plain launch; no rejects.
        assert_eq!(launches.len(), 4);
        assert!(launches.iter().all(|l| matches!(l, RingLaunch::Virt(_))));
        // The gather landed contiguously at the head's destination.
        for i in 0..3u64 {
            assert_eq!(
                mem.ram_mut().read_u64(PhysAddr::new(16 * PAGE_SIZE + 8 * i)).unwrap(),
                0xF0 + i
            );
        }
        assert_eq!(mem.ram_mut().read_u64(PhysAddr::new(16 * PAGE_SIZE + 0x800)).unwrap(), 0x99);
        let s = c.ring_stats();
        assert_eq!((s.fetched, s.launched, s.chained, s.rejected), (4, 4, 2, 0));
        assert_eq!(c.rings().unwrap().ring(1).pending(), 0);
    }

    #[test]
    fn ring_full_and_unregistered_posts_reject() {
        let (mut c, mut mem) = ring_core();
        // Context 0 has no ring registered.
        let err = c.ring_post(0, &local_desc(0, 8 * PAGE_SIZE, 8), &mut mem).unwrap_err();
        assert_eq!(err, RejectReason::RingFull);
        // Fill context 1's 16 slots; the 17th post bounces.
        for _ in 0..16 {
            c.ring_post(1, &local_desc(0, 8 * PAGE_SIZE, 8), &mut mem).unwrap();
        }
        let err = c.ring_post(1, &local_desc(0, 8 * PAGE_SIZE, 8), &mut mem).unwrap_err();
        assert_eq!(err, RejectReason::RingFull);
        assert_eq!(c.stats().rejected_for(RejectReason::RingFull), 2);
        // Deregister: further doorbells reject too.
        c.rings_mut().unwrap().set_ctl(1, 0);
        assert!(!c.rings().unwrap().ring(1).registered());
        assert!(c.ring_doorbell(1, 16, SimTime::ZERO, &mut mem).is_empty());
        assert_eq!(c.stats().rejected_for(RejectReason::RingFull), 3);
    }

    #[test]
    fn save_refused_while_ring_pending_then_spills_with_image() {
        let (mut c, mut mem) = ring_core();
        c.set_key(1, 0x1234);
        c.ring_post(1, &local_desc(0, 8 * PAGE_SIZE, 64), &mut mem).unwrap();
        // Posted but undoorbelled work pins the context.
        assert!(c.context_busy(1, SimTime::ZERO));
        assert_eq!(c.save_context(1, SimTime::ZERO), Err(CtxBusy::RingPending));
        assert_eq!(c.ctx_stats().busy_denials, 1);

        c.ring_doorbell(1, 1, SimTime::ZERO, &mut mem);
        // Immediately after the doorbell the batch is still draining.
        assert_eq!(c.save_context(1, SimTime::ZERO), Err(CtxBusy::RingPending));

        // Once quiescent, the spill carries the ring registration…
        let later = SimTime::from_us(100_000);
        let image = c.save_context(1, later).unwrap();
        let ring = image.ring.unwrap();
        assert_eq!((ring.base, ring.capacity, ring.cursor), (0x40000, 16, 1));
        // …and the evicted slot no longer decodes doorbells.
        assert!(!c.rings().unwrap().ring(1).registered());
        assert!(c.ring_doorbell(1, 5, later, &mut mem).is_empty());

        // Restore into another slot: cursors converge, ring re-arms.
        c.restore_context(2, &image);
        assert!(c.rings().unwrap().ring(2).registered());
        assert_eq!(c.rings().unwrap().ring(2).head, 1);
        assert_eq!(c.rings().unwrap().ring(2).posted, 1);
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
        c.ring_post(2, &local_desc(0x8, 8 * PAGE_SIZE + 0x8, 8), &mut mem).unwrap();
        let launches = c.ring_doorbell(2, 2, later, &mut mem);
        assert!(matches!(launches[..], [RingLaunch::Virt(_)]));
    }

    #[test]
    #[should_panic(expected = "require enable_iommu")]
    fn rings_without_iommu_panic() {
        let (mut c, _) = core();
        c.enable_rings(RingConfig::default());
    }
}
