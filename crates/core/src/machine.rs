//! The simulated workstation: substrates wired together.

use crate::coherence::CoherenceSetup;
use crate::ctx_virt::{LogicalPost, PostPath};
use crate::va::{VaMode, VirtDmaSetup};
use crate::DmaMethod;
use std::cell::RefCell;
use udma_bus::{Bus, BusTiming, CacheConfig, MemPort, SimTime, WriteBufferPolicy};
use udma_cpu::{
    CostModel, Executor, Operand, Pid, ProcState, Program, ProgramBuilder, Reg, RunOutcome,
    RunToCompletion, Scheduler,
};
use udma_iommu::Asid;
use udma_mem::{PageTable, Perms, PhysAddr, PhysLayout, PhysMemory, VirtAddr, PAGE_SIZE};
use udma_nic::{
    Destination, DmaDescriptor, DmaEngine, EngineConfig, EngineCore, Initiator, LinkModel,
    RejectReason, RemoteSend, RingConfig, RingLaunch, RingStats, TransferRecord, VirtState,
    VirtTransfer,
};
use udma_os::{
    pin_range, Acquired, CtxCache, CtxCacheConfig, CtxGrant, FaultResolution, FaultService, Kernel,
    LPid, MappedBuffer, QosClass, ShadowMode, SwapRefused,
};

/// PAL function index of the installed user-level DMA call (§2.7).
pub const PAL_DMA: u16 = 1;

/// Virtual address of the first data buffer; buffers are spaced
/// [`BUF_VA_STRIDE`] apart.
const BUF_VA_BASE: u64 = 16 * PAGE_SIZE;
const BUF_VA_STRIDE: u64 = 64 * PAGE_SIZE;

/// Full machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// The initiation method under test (decides NIC protocol, kernel
    /// switch policy, and compiled sequences).
    pub method: DmaMethod,
    /// CPU-side cost model.
    pub cost: CostModel,
    /// I/O bus timing.
    pub bus_timing: BusTiming,
    /// Outgoing link model.
    pub link: LinkModel,
    /// Write-buffer behaviour.
    pub wb_policy: WriteBufferPolicy,
    /// Data-cache geometry (timing only on a flat machine; the CPU's
    /// coherence agent otherwise).
    pub cache: CacheConfig,
    /// Physical address map.
    pub layout: PhysLayout,
    /// Register contexts in the engine.
    pub num_contexts: u32,
    /// Seed for key generation (deterministic experiments).
    pub key_seed: u64,
    /// Significant bits in generated keys (61 in the paper's layout;
    /// shrink to make key-guessing experiments tractable).
    pub key_bits: u32,
    /// Virtual-address DMA subsystem (NI-side IOMMU/IOTLB). `None` —
    /// the default — leaves the machine exactly as the paper built it.
    pub virt_dma: Option<VirtDmaSetup>,
    /// Cache-coherence model. The default
    /// ([`CoherenceMode::Flat`](crate::CoherenceMode::Flat)) keeps the
    /// data cache timing-only, exactly as the paper's testbed measured
    /// it; the other modes make it carry data and force DMA to deal with
    /// it (software flushes or hardware snooping).
    pub coherence: CoherenceSetup,
}

impl MachineConfig {
    /// The paper's testbed configuration for `method`: Alpha 3000/300,
    /// 12.5 MHz TurboChannel, ATM-class link, 4 register contexts.
    pub fn new(method: DmaMethod) -> Self {
        MachineConfig {
            method,
            cost: CostModel::alpha_3000_300(),
            bus_timing: BusTiming::turbochannel(),
            link: LinkModel::atm155(),
            wb_policy: WriteBufferPolicy::default(),
            cache: CacheConfig::alpha_21064(),
            layout: PhysLayout::default(),
            num_contexts: 4,
            key_seed: 0x5EED,
            key_bits: 61,
            virt_dma: None,
            coherence: CoherenceSetup::default(),
        }
    }
}

/// A buffer requested for a process.
#[derive(Clone, Copy, Debug)]
pub struct BufferSpec {
    /// Pages to allocate (or to alias when shared).
    pub pages: u64,
    /// Permissions of this process's mapping.
    pub perms: Perms,
    /// Alias an existing buffer of another process instead of allocating.
    pub share: Option<ShareRef>,
}

impl BufferSpec {
    /// A fresh read-write buffer.
    pub fn rw(pages: u64) -> Self {
        BufferSpec { pages, perms: Perms::READ_WRITE, share: None }
    }

    /// A view of another process's buffer.
    pub fn shared(of: ShareRef, perms: Perms) -> Self {
        BufferSpec { pages: 0, perms, share: Some(of) }
    }
}

/// Reference to another process's buffer.
#[derive(Clone, Copy, Debug)]
pub struct ShareRef {
    /// Owning process.
    pub pid: Pid,
    /// Buffer index within that process.
    pub buffer: usize,
}

/// What a process needs from the kernel before it starts.
#[derive(Clone, Debug, Default)]
pub struct ProcessSpec {
    /// Buffers to map (index order = [`ProcessEnv::buffer`] order).
    pub buffers: Vec<BufferSpec>,
    /// Request a register context? `None` = whatever the method needs.
    pub want_ctx: Option<bool>,
    /// SHRIMP-1 mapped-out links: `(src_buffer, dst_buffer)` pairs; every
    /// page of the source buffer is mapped out to the corresponding page
    /// of the destination buffer.
    pub mapped_out: Vec<(usize, usize)>,
    /// SHRIMP-1 mapped-out links to *remote* nodes:
    /// `(src_buffer, node, asid, va)` — page `i` of the source buffer
    /// maps out to `va + i·PAGE_SIZE` in address space `asid` on
    /// cluster node `node`. A store to such a page queues a
    /// [`RemoteSend`] ([`Machine::take_remote_sends`]); the receiver's
    /// IOMMU must map the page, or the delivery fails there.
    pub mapped_out_remote: Vec<(usize, u32, Asid, VirtAddr)>,
}

impl ProcessSpec {
    /// The common case: a source and a destination buffer, one page each.
    pub fn two_buffers() -> Self {
        ProcessSpec { buffers: vec![BufferSpec::rw(1), BufferSpec::rw(1)], ..Default::default() }
    }

    /// Source/destination buffers with `pages` pages each.
    pub fn two_buffers_of(pages: u64) -> Self {
        ProcessSpec {
            buffers: vec![BufferSpec::rw(pages), BufferSpec::rw(pages)],
            ..Default::default()
        }
    }
}

/// Everything a spawned process knows about its environment; program
/// builders receive this.
#[derive(Clone, Debug)]
pub struct ProcessEnv {
    /// The process id.
    pub pid: Pid,
    /// The machine's initiation method.
    pub method: DmaMethod,
    /// Mapped buffers, in [`ProcessSpec::buffers`] order.
    pub buffers: Vec<MappedBuffer>,
    /// Register-context grant, if the kernel gave one.
    pub ctx: Option<CtxGrant>,
    /// VA of the mapped register-context page, if granted.
    pub ctx_page_va: Option<VirtAddr>,
    shadow_mask: u64,
}

impl ProcessEnv {
    /// Buffer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn buffer(&self, i: usize) -> &MappedBuffer {
        &self.buffers[i]
    }

    /// The shadow twin of a data virtual address (same offset, shadow bit
    /// set — the kernel created both mappings at allocation time).
    pub fn shadow_of(&self, va: VirtAddr) -> VirtAddr {
        VirtAddr::new(va.as_u64() | self.shadow_mask)
    }

    /// An address `offset` bytes into buffer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `offset` exceeds the buffer.
    pub fn addr_in(&self, i: usize, offset: u64) -> VirtAddr {
        let b = self.buffer(i);
        assert!(offset < b.len(), "offset outside buffer");
        b.va + offset
    }

    /// Whether this process can use the machine's user-level method (it
    /// may lack a register context when contexts ran out — §3.2: "the
    /// rest will have to go through the kernel").
    pub fn can_use_user_level(&self) -> bool {
        !self.method.needs_ctx() || self.ctx.is_some()
    }
}

/// Compile-time check: the engine and the CPU hold no shared handle, so
/// each can move into a `Send` [`SimComponent`](udma_bus::SimComponent).
const _: fn() = || {
    fn send<T: Send>() {}
    send::<EngineCore>();
    send::<DmaEngine>();
    send::<Executor>();
};

/// The assembled workstation. The bus is the one owner of the memory
/// port (RAM and, on a cached machine, the coherence domain) and of the
/// DMA engine; everything else borrows them from it.
pub struct Machine {
    config: MachineConfig,
    bus: Bus<DmaEngine>,
    executor: Executor,
    kernel: Kernel,
    envs: Vec<ProcessEnv>,
    fault_service: FaultService,
    /// Context virtualization: the OS context cache multiplexing
    /// logical processes onto the NI's register contexts (enabled by
    /// [`Machine::enable_ctx_virtualization`]).
    ctx_cache: Option<CtxCache>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("method", &self.config.method)
            .field("processes", &self.envs.len())
            .field("now", &self.executor.now())
            .finish()
    }
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let mut engine = DmaEngine::new(
            config.layout,
            EngineConfig { num_contexts: config.num_contexts, link: config.link },
            config.method.protocol(),
        );
        if let Some(setup) = config.virt_dma {
            engine.core_mut().enable_iommu(setup.iotlb, setup.virt);
        }
        // Both non-flat coherence modes make the CPU a data-carrying MESI
        // agent (so stale-data hazards are real, not assumed); only
        // `Coherent` also puts the engine side of the port on the snoop
        // bus.
        let (mode, timing) = (config.coherence.mode, config.coherence.timing);
        let mem = MemPort::new(PhysMemory::new(config.layout.ram_size), config.cache, mode, timing);
        let bus = Bus::new(config.layout, mem, config.bus_timing, engine);
        let kernel = Kernel::new(
            config.layout,
            config.cost,
            config.method.switch_policy(),
            config.num_contexts,
            config.key_seed,
            config.key_bits,
        );
        let mut executor = Executor::new(config.cost, config.wb_policy);
        if config.method.needs_pal() {
            // PAL_DMA(r1 = shadow(vdst), r2 = size, r3 = shadow(vsrc)):
            // the SHRIMP-2 sequence, uninterruptible (§2.7).
            let pal = ProgramBuilder::new()
                .store(Operand::Reg(Reg::R1), Operand::Reg(Reg::R2))
                .load(Reg::R0, Operand::Reg(Reg::R3))
                .build();
            executor.install_pal(PAL_DMA, pal);
        }
        Machine {
            config,
            bus,
            executor,
            kernel,
            envs: Vec::new(),
            fault_service: FaultService::default(),
            ctx_cache: None,
        }
    }

    /// A machine with the default (paper-testbed) configuration.
    pub fn with_method(method: DmaMethod) -> Self {
        Machine::new(MachineConfig::new(method))
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Creates a process: maps its buffers (with the shadow mode the
    /// method needs), grants a register context if applicable, then asks
    /// `build` for the program.
    ///
    /// # Panics
    ///
    /// Panics if buffer mapping fails (address-space collision or
    /// exhausted RAM) — a configuration error, not a runtime condition.
    pub fn spawn(&mut self, spec: &ProcessSpec, build: impl FnOnce(&ProcessEnv) -> Program) -> Pid {
        let pid = Pid::new(self.executor.processes().len() as u32);
        let mut pt = PageTable::new();
        let now = self.executor.now();

        // Register context first: extended shadow mappings need the ctx
        // id — and virtual-address DMA posts through the context page, so
        // a VA-DMA machine grants one regardless of method.
        let want_ctx = spec.want_ctx.unwrap_or_else(|| self.config.method.needs_ctx())
            || self.config.virt_dma.is_some();
        let ctx = if want_ctx { self.kernel.grant_context(pid, &mut self.bus, now) } else { None };
        let shadow_mode = match (self.config.method, ctx) {
            (DmaMethod::ExtShadow | DmaMethod::ExtShadowPairwise, Some(g)) => {
                ShadowMode::WithCtx(g.ctx)
            }
            (DmaMethod::ExtShadow | DmaMethod::ExtShadowPairwise, None) => ShadowMode::None,
            _ => ShadowMode::Plain,
        };

        let mut buffers = Vec::with_capacity(spec.buffers.len());
        for (i, bspec) in spec.buffers.iter().enumerate() {
            let va = VirtAddr::new(BUF_VA_BASE + i as u64 * BUF_VA_STRIDE);
            let buf = match bspec.share {
                Some(r) => {
                    let src = *self.envs[r.pid.as_u32() as usize].buffer(r.buffer);
                    self.kernel
                        .vm_mut()
                        .map_shared(
                            &mut pt,
                            va,
                            src.first_frame,
                            src.pages,
                            bspec.perms,
                            shadow_mode,
                        )
                        .expect("shared mapping failed")
                }
                None => self
                    .kernel
                    .vm_mut()
                    .map_buffer(&mut pt, va, bspec.pages, bspec.perms, shadow_mode)
                    .expect("buffer mapping failed"),
            };
            buffers.push(buf);
        }

        let ctx_page_va = ctx.map(|g| {
            self.kernel.vm_mut().map_ctx_page(&mut pt, g.ctx).expect("context page mapping failed")
        });

        // Virtual-address DMA: the granted context id doubles as the
        // process's ASID in the NI-side IOMMU.
        if let (Some(setup), Some(g)) = (self.config.virt_dma, ctx) {
            let core = self.bus.nic_mut().core_mut();
            let iommu = core.iommu_mut().expect("virt_dma config enables the IOMMU");
            iommu.create_context(g.ctx);
            if setup.mode == VaMode::PinOnPost {
                for buf in &buffers {
                    pin_range(g.ctx, buf.va, buf.len(), &pt, iommu)
                        .expect("pin-on-post registration of a just-mapped buffer");
                }
            }
        }

        // SHRIMP-1 mapped-out table (local twins).
        for &(src_i, dst_i) in &spec.mapped_out {
            let src = &buffers[src_i];
            let dst = &buffers[dst_i];
            assert!(dst.pages >= src.pages, "mapped-out target too small");
            let core = self.bus.nic_mut().core_mut();
            for p in 0..src.pages {
                core.set_mapped_out(
                    src.first_frame.offset(p),
                    Destination::Local(dst.first_frame.offset(p).base()),
                );
            }
        }
        // SHRIMP-1 mapped-out table (remote twins on cluster nodes).
        for &(src_i, node, asid, va) in &spec.mapped_out_remote {
            let src = &buffers[src_i];
            let core = self.bus.nic_mut().core_mut();
            for p in 0..src.pages {
                let va = va + p * PAGE_SIZE;
                core.set_mapped_out(
                    src.first_frame.offset(p),
                    Destination::Remote { node, asid, va },
                );
            }
        }

        let env = ProcessEnv {
            pid,
            method: self.config.method,
            buffers,
            ctx,
            ctx_page_va,
            shadow_mask: self.config.layout.shadow.shadow_mask(),
        };
        let program = build(&env);
        let spawned = self.executor.spawn(program, pt);
        debug_assert_eq!(spawned, pid);
        self.envs.push(env);
        pid
    }

    /// The environment of a spawned process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned here.
    pub fn env(&self, pid: Pid) -> &ProcessEnv {
        &self.envs[pid.as_u32() as usize]
    }

    /// Runs to completion (no preemption).
    pub fn run(&mut self, max_steps: u64) -> RunOutcome {
        self.run_with(&mut RunToCompletion, max_steps)
    }

    /// Runs under an explicit scheduler.
    pub fn run_with(&mut self, sched: &mut dyn Scheduler, max_steps: u64) -> RunOutcome {
        self.executor.run(sched, &mut self.kernel, &mut self.bus, max_steps)
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.executor.now()
    }

    /// Charges externally-computed time (software coherence loops)
    /// against the machine clock.
    pub(crate) fn advance_time(&mut self, dt: SimTime) {
        self.executor.advance(dt);
    }

    /// A process register (results land in `r0` by convention).
    pub fn reg(&self, pid: Pid, reg: Reg) -> u64 {
        self.executor.process(pid).reg(reg)
    }

    /// A process's lifecycle state.
    pub fn state(&self, pid: Pid) -> ProcState {
        self.executor.process(pid).state()
    }

    /// The DMA engine (stats, transfer records, protocol kind).
    pub fn engine(&self) -> &DmaEngine {
        self.bus.nic()
    }

    /// The DMA engine, mutably (configuration the owner programs
    /// directly: keys, mapped-out pages, IOMMU mappings).
    pub fn engine_mut(&mut self) -> &mut DmaEngine {
        self.bus.nic_mut()
    }

    /// The kernel (stats, switch policy).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    // ---- context virtualization -------------------------------------

    /// Hands the NI's register contexts to an OS context cache
    /// ([`CtxCache`]), so thousands of [logical
    /// processes](Self::register_logical) can share them. Must be
    /// called before any key-based process receives a *static* grant —
    /// the cache assumes it owns every context.
    ///
    /// # Panics
    ///
    /// Panics if a static context grant is already outstanding.
    pub fn enable_ctx_virtualization(&mut self, config: CtxCacheConfig) {
        assert_eq!(
            self.kernel.keys().available(),
            self.config.num_contexts as usize,
            "enable context virtualization before spawning key-based processes: \
             static grants would collide with cache-managed contexts"
        );
        self.ctx_cache = Some(CtxCache::new(self.config.num_contexts, config));
    }

    /// The OS context cache, when enabled.
    pub fn ctx_cache(&self) -> Option<&CtxCache> {
        self.ctx_cache.as_ref()
    }

    /// Registers a logical process at `class`. Logical processes are
    /// *not* executor processes: they carry no program, no page table
    /// and no register file — just a minted key and a spill slot —
    /// which is what makes registering 100k of them tractable. They
    /// post DMA through [`Self::logical_post_at`].
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::enable_ctx_virtualization`] was called.
    pub fn register_logical(&mut self, class: QosClass) -> LPid {
        self.ctx_cache
            .as_mut()
            .expect("call enable_ctx_virtualization first")
            .register(class, SimTime::ZERO)
    }

    /// Posts a physical-address DMA for logical process `p` at
    /// simulated time `now`, acquiring a register context
    /// transparently:
    ///
    /// * resident → the keyed 4-access user-level sequence, no OS;
    /// * not resident → the kernel spills a victim (LRU/clock/random,
    ///   QoS- and busy-filtered) and refills `p`'s context, charging
    ///   the §3.2 per-operation spill/fill cost, then posts user-level;
    /// * throttled or starved → the Figure-1 kernel DMA path.
    ///
    /// The returned [`LogicalPost`] carries the path taken, the full
    /// initiation cost, and the mover record of the started transfer.
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::enable_ctx_virtualization`] was called.
    pub fn logical_post_at(
        &mut self,
        p: LPid,
        src: PhysAddr,
        dst: PhysAddr,
        size: u64,
        now: SimTime,
    ) -> LogicalPost {
        let cache = self.ctx_cache.as_mut().expect("call enable_ctx_virtualization first");
        let cost = &self.config.cost;
        let (engine, mem) = self.bus.nic_and_port();
        let core = engine.core_mut();
        let acq = cache.acquire(p, core, now);
        match acq {
            Acquired::Hit { ctx } | Acquired::Filled { ctx, .. } => {
                // The keyed user-level sequence: two keyed address
                // stores, the size store, one status load (§3.1).
                let user = SimTime::from_ps(cost.mem_instr().as_ps() * 4);
                let initiation = acq.cost() + user;
                let at = now + initiation;
                let record =
                    core.start_user_dma(src, dst, size, Initiator::Context(ctx), at, mem).ok();
                if let Some(idx) = record {
                    core.context_mut(ctx).set_last_transfer(idx);
                }
                let stole = match acq {
                    Acquired::Filled { stole, .. } => stole,
                    _ => None,
                };
                LogicalPost { path: PostPath::UserLevel { ctx, stole }, initiation, record }
            }
            Acquired::Throttled { .. } | Acquired::Starved { .. } => {
                // The Figure-1 kernel path: syscall round trip,
                // software translation of both addresses, three
                // register programs and the status read.
                let pages = size.div_ceil(PAGE_SIZE).max(1);
                let kernel_path = cost.syscall_round_trip().as_ps()
                    + 2 * pages * cost.translation().as_ps()
                    + 4 * cost.mem_instr().as_ps();
                let initiation = acq.cost() + SimTime::from_ps(kernel_path);
                let at = now + initiation;
                let record = core.start_user_dma(src, dst, size, Initiator::Kernel, at, mem).ok();
                let throttled = matches!(acq, Acquired::Throttled { .. });
                LogicalPost { path: PostPath::KernelFallback { throttled }, initiation, record }
            }
        }
    }

    /// The bus (trace, counters).
    pub fn bus(&self) -> &Bus<DmaEngine> {
        &self.bus
    }

    /// Mutable bus access (enable tracing before a run).
    pub fn bus_mut(&mut self) -> &mut Bus<DmaEngine> {
        &mut self.bus
    }

    /// The executor (instruction counts, TLB stats, process inspection).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Physical memory, bypassing every cache (seed/inspect data in
    /// tests). The simulator itself never borrows this cell: it reaches
    /// memory through the bus's port.
    pub fn memory(&self) -> &RefCell<PhysMemory> {
        self.bus.port().ram()
    }

    /// Physical memory, bypassing every cache.
    pub fn memory_mut(&mut self) -> &mut PhysMemory {
        self.bus.port_mut().ram_mut()
    }

    /// Takes the SHRIMP-1 sends to remote twins started since the last
    /// call, in launch order. Post each to a `ClusterSim` with
    /// [`ClusterSim::post_bytes`](crate::ClusterSim::post_bytes): the
    /// status the process read is final at initiation, so the cluster
    /// can run after the machine.
    pub fn take_remote_sends(&mut self) -> Vec<RemoteSend> {
        self.engine_mut().core_mut().take_remote_sends()
    }

    /// Snapshot of all local transfers the engine performed.
    pub fn transfers(&self) -> Vec<TransferRecord> {
        self.engine().core().mover().records().to_vec()
    }

    // ---- virtual-address DMA ----------------------------------------

    /// The OS I/O-fault service (statistics).
    pub fn fault_service(&self) -> &FaultService {
        &self.fault_service
    }

    /// Posts a virtual-address DMA on behalf of `pid` directly (the
    /// programmatic twin of the `CTX_VIRT_*` store sequence). Returns
    /// the engine's transfer id.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no [`VirtDmaSetup`] or the process has
    /// no register context.
    pub fn post_virt(
        &mut self,
        pid: Pid,
        src: VirtAddr,
        dst: VirtAddr,
        size: u64,
    ) -> Result<usize, RejectReason> {
        let asid =
            self.envs[pid.as_u32() as usize].ctx.expect("virtual-address DMA needs a context").ctx;
        let now = self.executor.now();
        let (engine, mem) = self.bus.nic_and_port();
        engine.core_mut().post_virt_dma(asid, src, dst, size, now, mem)
    }

    /// Snapshot of a virtual-address transfer.
    pub fn virt_xfer(&self, id: usize) -> Option<VirtTransfer> {
        self.engine().core().virt_xfers().get(id).copied()
    }

    // ---- doorbell-batched descriptor rings ---------------------------

    /// Enables the NI's descriptor-ring unit: the per-context doorbell
    /// offset and the privileged ring tables decode from now on.
    /// Machines that never call this are bit-for-bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics unless the machine was built with a [`VirtDmaSetup`] —
    /// descriptors carry virtual addresses the ring engine translates
    /// through the NI-side IOMMU.
    pub fn enable_desc_rings(&mut self, config: RingConfig) {
        assert!(
            self.config.virt_dma.is_some(),
            "descriptor rings need a VirtDmaSetup: the engine translates descriptors through the IOMMU"
        );
        self.engine_mut().core_mut().enable_rings(config);
    }

    /// OS-mediated ring registration (the §3.2 grant path): validates
    /// that `capacity` descriptor slots fit inside `pid`'s own writable
    /// buffer `buffer`, then programs the privileged ring tables over
    /// the bus. Returns `false` when the kernel refuses the window.
    ///
    /// # Panics
    ///
    /// Panics if `pid` has no register context (rings ride on the same
    /// grant as every user-level path).
    pub fn register_ring(&mut self, pid: Pid, buffer: usize, capacity: u64) -> bool {
        let env = &self.envs[pid.as_u32() as usize];
        let grant = env.ctx.expect("ring registration needs a register context");
        let buf = *env.buffer(buffer);
        let now = self.executor.now();
        self.kernel.register_ring(&grant, &buf, capacity, &mut self.bus, now)
    }

    /// Posts one descriptor into `pid`'s ring — the programmatic twin
    /// of the user library's four slot stores. Nothing launches until
    /// [`Machine::ring_doorbell`]. Returns the absolute slot index.
    ///
    /// # Panics
    ///
    /// Panics if `pid` has no register context.
    pub fn post_ring(&mut self, pid: Pid, desc: &DmaDescriptor) -> Result<u64, RejectReason> {
        let ctx = self.envs[pid.as_u32() as usize].ctx.expect("ring post needs a context").ctx;
        let (engine, mem) = self.bus.nic_and_port();
        engine.core_mut().ring_post(ctx, desc, mem)
    }

    /// Rings `pid`'s doorbell — the programmatic twin of the single
    /// user-level store to `CTX_RING_DB` — covering everything posted
    /// so far. The engine dequeues and launches the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `pid` has no register context.
    pub fn ring_doorbell(&mut self, pid: Pid) -> Vec<RingLaunch> {
        let ctx = self.envs[pid.as_u32() as usize].ctx.expect("doorbell needs a context").ctx;
        let now = self.executor.now();
        let (engine, mem) = self.bus.nic_and_port();
        let core = engine.core_mut();
        let tail = core.rings().map_or(0, |r| r.ring(ctx).posted);
        core.ring_doorbell(ctx, tail, now, mem)
    }

    /// Counters of the NI's descriptor-ring unit.
    pub fn ring_stats(&self) -> RingStats {
        self.engine().core().ring_stats()
    }

    /// Drains the engine's I/O fault queue through the OS fault service:
    /// each fault is checked against the faulting process's CPU page
    /// table, then its transfer is resumed (fault resolved) or failed
    /// (fault unresolvable). Returns the number of faults serviced.
    pub fn service_va_faults(&mut self) -> u64 {
        let mut serviced = 0;
        loop {
            let (engine, mem) = self.bus.nic_and_port();
            let core = engine.core_mut();
            let Some(virt) = core.virt_mut() else {
                return serviced;
            };
            let Some(pending) = virt.pop_fault() else {
                return serviced;
            };
            serviced += 1;
            let now = self.executor.now();
            let pid = self
                .envs
                .iter()
                .find(|e| e.ctx.map(|g| g.ctx) == Some(pending.fault.asid))
                .map(|e| e.pid);
            let (resolution, cost) = match pid {
                Some(pid) => {
                    let pt = self.executor.process_mut(pid).page_table_mut();
                    let vm = self.kernel.vm_mut();
                    self.fault_service.service(&pending.fault, None, pt, vm, &mut virt.iommu)
                }
                // An ASID no process owns: nothing to consult, fail it.
                None => (FaultResolution::Unresolvable, SimTime::ZERO),
            };
            match resolution {
                FaultResolution::Unresolvable => {
                    virt.fail(pending.xfer, now + cost);
                }
                FaultResolution::Mapped | FaultResolution::SwappedIn => {
                    core.resume_virt(pending.xfer, now + cost, mem);
                }
            }
        }
    }

    /// Drives one virtual-address transfer to a terminal state: services
    /// faults as the OS would, resorting to spontaneous engine retries
    /// when no fault is queued. Bounded by `max_rounds`.
    pub fn run_virt(&mut self, id: usize, max_rounds: u32) -> VirtState {
        for _ in 0..max_rounds {
            let Some(t) = self.virt_xfer(id) else {
                break;
            };
            if t.is_terminal() {
                return t.state;
            }
            if self.service_va_faults() == 0 {
                let now = self.executor.now();
                let (engine, mem) = self.bus.nic_and_port();
                engine.core_mut().resume_virt(id, now, mem);
            }
        }
        self.virt_xfer(id).map(|t| t.state).unwrap_or(VirtState::Running)
    }

    /// The model swapper: takes one page of `pid`'s address space out of
    /// memory through [`VmManager::swap_out`](udma_os::VmManager::swap_out),
    /// which refuses pages the IOMMU holds pinned and shoots the I/O
    /// translation of any other down.
    ///
    /// # Errors
    ///
    /// [`SwapRefused`] naming why the page stayed resident.
    pub fn swap_out_va(&mut self, pid: Pid, va: VirtAddr) -> Result<(), SwapRefused> {
        let asid = self.envs[pid.as_u32() as usize].ctx.map(|g| g.ctx);
        let iommu = asid.and(self.bus.nic_mut().core_mut().iommu_mut());
        let pt = self.executor.process_mut(pid).page_table_mut();
        self.kernel.vm_mut().swap_out(asid.unwrap_or(pid.as_u32()), pt, iommu, va.page())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_mem::Access;

    #[test]
    fn spawn_maps_buffers_and_shadows() {
        let mut m = Machine::with_method(DmaMethod::Repeated5);
        let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
            assert_eq!(env.buffers.len(), 2);
            assert!(env.can_use_user_level());
            ProgramBuilder::new().halt().build()
        });
        let env = m.env(pid).clone();
        let pt = m.executor().process(pid).page_table().clone();
        // Data and shadow both mapped.
        assert!(pt.translate(env.buffer(0).va, Access::Write).is_ok());
        assert!(pt.translate(env.shadow_of(env.buffer(0).va), Access::Write).is_ok());
        // No context for repeated passing.
        assert!(env.ctx.is_none());
    }

    #[test]
    fn key_based_processes_get_context_and_page() {
        let mut m = Machine::with_method(DmaMethod::KeyBased);
        let pid = m.spawn(&ProcessSpec::two_buffers(), |_| ProgramBuilder::new().halt().build());
        let env = m.env(pid);
        let grant = env.ctx.expect("key-based process needs a context");
        assert!(env.ctx_page_va.is_some());
        // The engine's key table was programmed.
        assert_eq!(m.engine().core().key(grant.ctx), grant.key);
    }

    #[test]
    fn context_exhaustion_falls_back_to_kernel() {
        let mut m = Machine::new(MachineConfig {
            num_contexts: 2,
            ..MachineConfig::new(DmaMethod::KeyBased)
        });
        let mut granted = 0;
        for _ in 0..4 {
            let pid =
                m.spawn(&ProcessSpec::two_buffers(), |_| ProgramBuilder::new().halt().build());
            if m.env(pid).ctx.is_some() {
                granted += 1;
            } else {
                assert!(!m.env(pid).can_use_user_level());
            }
        }
        assert_eq!(granted, 2);
    }

    #[test]
    fn ext_shadow_mappings_carry_the_granted_ctx() {
        let mut m = Machine::with_method(DmaMethod::ExtShadow);
        let pid = m.spawn(&ProcessSpec::two_buffers(), |_| ProgramBuilder::new().halt().build());
        let env = m.env(pid).clone();
        let grant = env.ctx.unwrap();
        let pt = m.executor().process(pid).page_table().clone();
        let spa = pt.translate(env.shadow_of(env.buffer(0).va), Access::Write).unwrap();
        let (_, ctx) = m.config().layout.shadow.decode(spa).unwrap();
        assert_eq!(ctx, grant.ctx);
    }

    #[test]
    fn shared_buffers_alias_frames() {
        let mut m = Machine::with_method(DmaMethod::Repeated5);
        let owner = m.spawn(&ProcessSpec::two_buffers(), |_| ProgramBuilder::new().halt().build());
        let spec = ProcessSpec {
            buffers: vec![BufferSpec::shared(ShareRef { pid: owner, buffer: 0 }, Perms::READ)],
            ..Default::default()
        };
        let reader = m.spawn(&spec, |_| ProgramBuilder::new().halt().build());
        assert_eq!(m.env(owner).buffer(0).first_frame, m.env(reader).buffer(0).first_frame);
        assert_eq!(m.env(reader).buffer(0).perms, Perms::READ);
    }

    #[test]
    fn machine_runs_to_completion() {
        let mut m = Machine::with_method(DmaMethod::Kernel);
        let pid = m.spawn(&ProcessSpec::two_buffers(), |_| {
            ProgramBuilder::new().imm(Reg::R5, 7).halt().build()
        });
        let out = m.run(100);
        assert!(out.finished);
        assert_eq!(m.reg(pid, Reg::R5), 7);
        assert_eq!(m.state(pid), ProcState::Halted);
        assert!(m.time() > SimTime::ZERO);
    }
}
