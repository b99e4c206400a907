//! The system under test: every call the benchmark makes into the
//! `udma*` crates lives in this module, behind types the benchmark owns,
//! so an API rename in the simulator touches this one file.
//!
//! Each method wraps one public call (or one tight loop of the same
//! call), so the workloads can time and trace the calls one by one.

use udma::{
    emit_dma, BufferSpec, ClusterConfig, ClusterSim, DmaMethod, DmaRequest, Machine, MachineConfig,
    ProcessSpec, VirtDmaSetup,
};
use udma_bus::SimTime;
use udma_cpu::{Pid, ProgramBuilder};
use udma_iommu::IotlbConfig;
use udma_mem::{Perms, PhysAddr, VirtAddr};
use udma_nic::{regs, DescDst, DmaDescriptor, FaultPlan, RingConfig, XferId, XferState};

pub use udma_mem::PAGE_SIZE;
pub use udma_nic::DESC_BYTES;

/// The Table-1 rows the paper measured, in [`DmaMethod::TABLE1`] order.
pub const TABLE1_ROWS: usize = 4;

/// Metric-name stem of Table-1 row `row`.
#[cfg(test)]
pub fn table1_row_name(row: usize) -> &'static str {
    match DmaMethod::TABLE1[row] {
        DmaMethod::Kernel => "kernel",
        DmaMethod::ExtShadow => "ext_shadow",
        DmaMethod::Repeated5 => "rep5",
        DmaMethod::KeyBased => "key_based",
        _ => "other",
    }
}

/// The paper's Table-1 figure for row `row`, in µs.
pub fn table1_paper_us(row: usize) -> f64 {
    DmaMethod::TABLE1[row].paper_us().expect("every Table-1 row has a paper figure")
}

/// One transfer a workload asks for: byte offsets into the source and
/// destination buffers, and a length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub src: u64,
    pub dst: u64,
    pub len: u64,
}

/// A transfer as the engine recorded it, in simulated picoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct XferRecord {
    pub started_ps: u64,
    pub finished_ps: u64,
    pub moved: u64,
    pub complete: bool,
    /// Engine-side stall (walks, fault pauses, backoff; link timeouts
    /// for cluster transfers).
    pub stall_ps: u64,
}

/// Layer counters of one machine, read from its stats accessors.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineStats {
    pub instructions: u64,
    pub syscalls: u64,
    pub device_ops: u64,
    pub device_busy_ps: u64,
    pub ram_ops: u64,
    pub engine_rejects: u64,
    pub key_mismatches: u64,
    pub sequence_resets: u64,
    pub dma_syscalls: u64,
    pub doorbells: u64,
    pub ring_launched: u64,
    pub ring_rejected: u64,
    pub virt_chunks: u64,
    pub virt_faults: u64,
    pub virt_retries: u64,
    pub iotlb_hits: u64,
    pub iotlb_misses: u64,
    pub iotlb_evictions: u64,
    pub faults_serviced: u64,
    pub fault_busy_ps: u64,
}

/// Field-wise `+=`, for summing counters over rounds and machines.
macro_rules! summable {
    ($t:ty { $($f:ident),* $(,)? }) => {
        impl std::ops::AddAssign for $t {
            fn add_assign(&mut self, o: Self) {
                $(self.$f += o.$f;)*
            }
        }
    };
}

summable!(MachineStats {
    instructions,
    syscalls,
    device_ops,
    device_busy_ps,
    ram_ops,
    engine_rejects,
    key_mismatches,
    sequence_resets,
    dma_syscalls,
    doorbells,
    ring_launched,
    ring_rejected,
    virt_chunks,
    virt_faults,
    virt_retries,
    iotlb_hits,
    iotlb_misses,
    iotlb_evictions,
    faults_serviced,
    fault_busy_ps,
});
summable!(WireCounters { retransmits, nacks, launches, wire_bytes });
summable!(ClusterStats {
    events,
    remote_hits,
    remote_misses,
    remote_faults_serviced,
    remote_fault_busy_ps,
    ooo_discarded,
    dup_ignored,
});

/// A single workstation with one process (pid 0) holding its buffers.
pub struct Node {
    m: Machine,
    pid: Option<Pid>,
}

impl Node {
    /// The paper's testbed for Table-1 row `row`.
    pub fn table1(row: usize) -> Node {
        Node { m: Machine::with_method(DmaMethod::TABLE1[row]), pid: None }
    }

    /// A key-based machine with pin-on-post VA DMA (default IOTLB).
    pub fn ring() -> Node {
        let config = MachineConfig {
            virt_dma: Some(VirtDmaSetup::pin_on_post(IotlbConfig::default())),
            ..MachineConfig::new(DmaMethod::KeyBased)
        };
        Node { m: Machine::new(config), pid: None }
    }

    /// Turns on the descriptor-ring unit.
    pub fn enable_rings(&mut self) {
        self.m.enable_desc_rings(RingConfig::default());
    }

    /// A demand-paging VA-DMA machine with a fully associative IOTLB.
    pub fn demand_paging(iotlb_entries: usize) -> Node {
        let setup = VirtDmaSetup::demand(IotlbConfig::fully_associative(iotlb_entries));
        let config =
            MachineConfig { virt_dma: Some(setup), ..MachineConfig::new(DmaMethod::Kernel) };
        Node { m: Machine::new(config), pid: None }
    }

    fn pid(&self) -> Pid {
        self.pid.expect("spawn a process first")
    }

    /// Spawns the §3.4 program: one 8-byte-class initiation per copy,
    /// back to back, between two `pages`-page buffers.
    pub fn spawn_initiations(&mut self, pages: u64, copies: &[Transfer]) {
        let pid = self.m.spawn(&ProcessSpec::two_buffers_of(pages), |env| {
            let mut b = ProgramBuilder::new();
            let mut uniq = 0;
            for c in copies {
                let req = DmaRequest::new(env.addr_in(0, c.src), env.addr_in(1, c.dst), c.len);
                b = emit_dma(env, b, &req, &mut uniq);
            }
            b.halt().build()
        });
        self.pid = Some(pid);
    }

    /// Spawns a program that writes `copies` into a one-page descriptor
    /// ring (buffer 2) and rings the doorbell once per batch of
    /// `batches` descriptors, as `measure_ring_initiation` does.
    pub fn spawn_ring_program(&mut self, pages: u64, copies: &[Transfer], batches: &[usize]) {
        let spec = ProcessSpec {
            buffers: vec![BufferSpec::rw(pages), BufferSpec::rw(pages), BufferSpec::rw(1)],
            ..Default::default()
        };
        let slots = PAGE_SIZE / DESC_BYTES;
        let pid = self.m.spawn(&spec, |env| {
            let mut b = ProgramBuilder::new();
            let ring_va = env.buffer(2).va.as_u64();
            let db = env.ctx_page_va.expect("ring machines grant a context page").as_u64()
                + regs::CTX_RING_DB;
            let mut posted = 0;
            for &batch in batches {
                for c in &copies[posted..posted + batch] {
                    let desc = DmaDescriptor::new(
                        env.addr_in(0, c.src),
                        DescDst::Local(env.addr_in(1, c.dst)),
                        c.len,
                    );
                    let slot = (posted as u64 % slots) * DESC_BYTES;
                    for (w, word) in desc.encode().iter().enumerate() {
                        b = b.store(ring_va + slot + 8 * w as u64, *word);
                    }
                    posted += 1;
                }
                // Drain the descriptor stores, then one uncached doorbell
                // store covers the batch.
                b = b.mb().store(db, posted as u64);
            }
            b.mb().halt().build()
        });
        self.pid = Some(pid);
    }

    /// Spawns a process that runs no program, holding two buffers.
    pub fn spawn_idle(&mut self, pages: u64) {
        let pid = self
            .m
            .spawn(&ProcessSpec::two_buffers_of(pages), |_| ProgramBuilder::new().halt().build());
        self.pid = Some(pid);
    }

    /// OS-mediated registration of the one-page ring in buffer 2.
    pub fn register_ring(&mut self) -> bool {
        self.m.register_ring(self.pid(), 2, PAGE_SIZE / DESC_BYTES)
    }

    fn buffer_base(&self, buffer: usize) -> PhysAddr {
        self.m.env(self.pid()).buffer(buffer).first_frame.base()
    }

    fn buffer_va(&self, buffer: usize, off: u64) -> VirtAddr {
        self.m.env(self.pid()).addr_in(buffer, off)
    }

    /// Writes `bytes` at the start of a buffer (its frames are contiguous).
    pub fn fill(&self, buffer: usize, bytes: &[u8]) {
        let base = self.buffer_base(buffer);
        self.m.memory().borrow_mut().write_bytes(base, bytes).expect("buffer lies in RAM");
    }

    /// Reads `out.len()` bytes from the start of a buffer.
    pub fn read(&self, buffer: usize, out: &mut [u8]) {
        let base = self.buffer_base(buffer);
        self.m.memory().borrow().read_bytes(base, out).expect("buffer lies in RAM");
    }

    /// Runs the spawned program to completion; false if it did not halt.
    pub fn run(&mut self) -> bool {
        self.m.run(50_000_000).finished
    }

    /// Posts one VA transfer between the process's two buffers.
    pub fn post_virt(&mut self, c: Transfer) -> Option<usize> {
        let (src, dst) = (self.buffer_va(0, c.src), self.buffer_va(1, c.dst));
        self.m.post_virt(self.pid(), src, dst, c.len).ok()
    }

    /// Services queued I/O faults; returns how many.
    pub fn service_va_faults(&mut self) -> u64 {
        self.m.service_va_faults()
    }

    /// Drives a VA transfer to a terminal state; true if it completed.
    pub fn run_virt(&mut self, id: usize) -> bool {
        self.m.run_virt(id, 1_000) == udma_nic::VirtState::Complete
    }

    /// Simulated time of the machine clock.
    pub fn time_ps(&self) -> u64 {
        self.m.time().as_ps()
    }

    /// Transfers started by the engine (all paths).
    pub fn started(&self) -> u64 {
        self.m.engine().core().stats().started
    }

    /// The mover's physical-transfer records.
    pub fn phys_records(&self) -> Vec<XferRecord> {
        self.m
            .transfers()
            .iter()
            .map(|t| XferRecord {
                started_ps: t.started.as_ps(),
                finished_ps: t.finished.as_ps(),
                moved: t.size,
                complete: true,
                stall_ps: 0,
            })
            .collect()
    }

    /// The engine's virtual-address transfer records.
    pub fn virt_records(&self) -> Vec<XferRecord> {
        let core = self.m.engine().core();
        core.virt_xfers()
            .iter()
            .map(|t| XferRecord {
                started_ps: t.started.as_ps(),
                finished_ps: t.finished.unwrap_or(t.clock).as_ps(),
                moved: t.moved,
                complete: t.is_terminal() && t.state == udma_nic::VirtState::Complete,
                stall_ps: t.stall.as_ps(),
            })
            .collect()
    }

    /// Every layer's counters, read once.
    pub fn stats(&self) -> MachineStats {
        let exec = self.m.executor().stats();
        let bus = self.m.bus().stats();
        let kernel = self.m.kernel().stats();
        let core = self.m.engine().core();
        let engine = core.stats();
        let ring = core.ring_stats();
        let virt = core.virt_stats();
        let iotlb = core.iommu().map(|i| i.stats().tlb).unwrap_or_default();
        let faults = self.m.fault_service().stats();
        MachineStats {
            instructions: exec.instructions,
            syscalls: exec.syscalls,
            device_ops: bus.device_total(),
            device_busy_ps: bus.device_busy.as_ps(),
            ram_ops: bus.ram_reads + bus.ram_writes,
            engine_rejects: engine.rejected(),
            key_mismatches: engine.key_mismatches,
            sequence_resets: engine.sequence_resets,
            dma_syscalls: kernel.dma_syscalls,
            doorbells: ring.doorbells,
            ring_launched: ring.launched,
            ring_rejected: ring.rejected,
            virt_chunks: virt.chunks,
            virt_faults: virt.faults,
            virt_retries: virt.retries,
            iotlb_hits: iotlb.hits,
            iotlb_misses: iotlb.misses,
            iotlb_evictions: iotlb.evictions,
            faults_serviced: faults.serviced,
            fault_busy_ps: faults.busy.as_ps(),
        }
    }
}

/// The ASID every cluster buffer lives in.
const CLUSTER_ASID: u32 = 1;

/// A handle on one posted cluster transfer.
#[derive(Clone, Copy, Debug)]
pub struct ClusterXfer(XferId);

/// Wire counters of one cluster transfer.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireCounters {
    pub retransmits: u64,
    pub nacks: u64,
    pub launches: u64,
    pub wire_bytes: u64,
}

/// Node-side counters summed over a cluster, read from its digest.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterStats {
    pub events: u64,
    pub remote_hits: u64,
    pub remote_misses: u64,
    pub remote_faults_serviced: u64,
    pub remote_fault_busy_ps: u64,
    pub ooo_discarded: u64,
    pub dup_ignored: u64,
}

/// A sequential single-shard `ClusterSim`: the surviving remote path.
pub struct Cluster {
    sim: ClusterSim,
}

impl Cluster {
    /// `nodes` nodes of `node_bytes` each with a 4-way receive-side
    /// IOTLB of `iotlb_entries`, demand paging, frames dropped with
    /// probability `drop` under `chaos_seed`.
    pub fn new(
        nodes: u32,
        node_bytes: u64,
        iotlb_entries: usize,
        drop: f64,
        chaos_seed: u64,
    ) -> Cluster {
        let mut cfg = ClusterConfig::new(nodes);
        cfg.node_bytes = node_bytes;
        cfg.iotlb = IotlbConfig { entries: iotlb_entries, ways: 4, ..IotlbConfig::default() };
        cfg.chaos = Some(FaultPlan::lossless(chaos_seed).with_drop(drop));
        Cluster { sim: ClusterSim::new(cfg) }
    }

    /// Exposes `pages` fresh pages at `va` on `node`.
    pub fn grant(&mut self, node: u32, va: u64, pages: u64) -> bool {
        self.sim.grant(node, CLUSTER_ASID, VirtAddr::new(va), pages, Perms::READ_WRITE).is_ok()
    }

    /// Pins `[va, va + len)` on `node` so it never faults.
    pub fn pin(&mut self, node: u32, va: u64, len: u64) -> bool {
        self.sim.pin(node, CLUSTER_ASID, VirtAddr::new(va), len).is_ok()
    }

    /// Posts `len` pattern bytes from `src` into `va` on `dst` at `at_ps`.
    pub fn post(&mut self, src: u32, dst: u32, va: u64, len: u64, at_ps: u64) -> ClusterXfer {
        let at = SimTime::from_ps(at_ps);
        ClusterXfer(self.sim.post(src, dst, CLUSTER_ASID, VirtAddr::new(va), len, at))
    }

    /// Runs to quiescence; returns the events processed.
    pub fn run(&mut self) -> u64 {
        self.sim.run().events
    }

    /// The transfer's outcome.
    pub fn record(&self, x: ClusterXfer) -> (XferRecord, WireCounters) {
        let d = self.sim.xfer(x.0);
        let rec = XferRecord {
            started_ps: d.posted_at.as_ps(),
            finished_ps: d.finished.unwrap_or(d.posted_at).as_ps(),
            moved: d.counters.moved,
            complete: d.state == XferState::Complete,
            stall_ps: d.counters.stall.as_ps(),
        };
        let wire = WireCounters {
            retransmits: d.counters.retransmits,
            nacks: d.counters.nacks,
            launches: d.counters.launches,
            wire_bytes: d.counters.wire_bytes,
        };
        (rec, wire)
    }

    /// The bytes the transfer was posted with.
    pub fn expected(x: ClusterXfer, len: u64) -> Vec<u8> {
        ClusterSim::expected_payload(x.0, len)
    }

    /// Reads `out.len()` bytes at `va` on `node`, page by page through
    /// the node's IOTLB; false if a page's translation is not resident.
    /// A resident translation counts as an IOTLB hit.
    pub fn read_va(&mut self, node: u32, va: u64, out: &mut [u8]) -> bool {
        for (i, page) in out.chunks_mut(PAGE_SIZE as usize).enumerate() {
            let page_va = VirtAddr::new(va + i as u64 * PAGE_SIZE);
            let Some(pa) = self.sim.probe(node, CLUSTER_ASID, page_va) else {
                return false;
            };
            if self.sim.read_mem(node, pa, page).is_err() {
                return false;
            }
        }
        true
    }

    /// Node-side counters from the cluster digest (read them before
    /// [`Cluster::read_va`], whose probes count IOTLB hits).
    pub fn stats(&self) -> ClusterStats {
        let d = self.sim.digest();
        let mut s = ClusterStats { events: d.events, ..ClusterStats::default() };
        for n in &d.nodes {
            s.remote_hits += n.iotlb.tlb.hits;
            s.remote_misses += n.iotlb.tlb.misses;
            s.remote_faults_serviced += n.faults.serviced;
            s.remote_fault_busy_ps += n.faults.busy.as_ps();
            s.ooo_discarded += n.link.ooo_discarded;
            s.dup_ignored += n.link.dup_ignored;
        }
        s
    }
}
