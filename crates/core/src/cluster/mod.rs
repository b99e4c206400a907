//! The sharded cluster simulation: every node a full sender.
//!
//! The single-machine [`Machine`](crate::Machine) world advances one
//! sequential clock and has no remote nodes of its own: a SHRIMP-1 page
//! mapped out to another workstation queues its bytes as a
//! [`RemoteSend`](udma_nic::RemoteSend), and a `ClusterSim` with the
//! workstation as one of its nodes delivers it
//! ([`ClusterSim::post_bytes`]). This module is the cluster-scale
//! re-architecture on top of the deterministic sim kernel in
//! [`udma_bus::sim`]: a [`ClusterSim`] partitions its nodes over
//! shards, and each node owns its *complete* local state in three units
//! — its OS (`node_os`: RAM, receive-side IOMMU, fault service, grant
//! and pin ledgers), its link (`link`: a seeded chaos link, the
//! go-back-N transfers it posted, the windows announced to it) and,
//! once a [`CrashPlan`] is injected, its fault domain (`crash`). All
//! cross-node traffic (data chunks, ACK/NACK, destination
//! announcements) travels as latency-stamped
//! `Envelope`s: over an explicit channel to
//! another shard, or straight into the event queue of the sender's own
//! shard. Both paths refuse an arrival inside the lookahead.
//!
//! # Why the result is independent of the shard count
//!
//! A node's state evolves only through the events addressed to it,
//! processed in `(arrival, src_node, seq)` order, where `seq` is the
//! *emitting node's* monotonic counter — a key that never mentions
//! shards. Whatever the layout, all of a node's events live in the one
//! queue of the shard that owns it and pop in key order, and the
//! runner's conservative-lookahead rounds give every layout the same
//! horizon sequence. So 1, 2, 4 and 8 shards — sequential or parallel —
//! replay byte-identical histories, which `tests/sharded_determinism.rs`
//! verifies against the sequential oracle, seed by seed.

mod crash;
mod event;
mod health;
mod link;
mod node_os;
mod shard;
mod wire;

pub use crash::{CrashKind, CrashPlan, CrashStats};
pub use event::{AckEffect, EventKind, LaunchWire, LogLine};
pub use health::{HealthState, HealthStats};
pub use link::{NackVerdict, NodeLinkStats, XferCounters};

use crash::FaultDomain;
use link::{Envelope, LinkUnit, SendXfer};
use node_os::NodeOs;
use shard::{EventQueue, Node, Outbox, Shard, Work};
use std::time::{Duration, Instant};
use udma_bus::sim::{ChannelBuilder, RunReport, RunnerKind, SimReceiver, SimRunner, SimSender};
use udma_bus::SimTime;
use udma_iommu::{Asid, IotlbConfig, IotlbStats};
use udma_mem::{MemFault, Perms, PhysAddr, PhysMemory, VirtAddr, VirtPage, PAGE_SIZE};
use udma_nic::{FaultPlan, LinkModel, ReliabilityConfig, XferId, XferState};
use udma_os::{FaultServiceStats, SwapRefused};
use udma_testkit::{Crc32, TestRng};
use wire::FaultyLink;

/// Configuration of a [`ClusterSim`]: topology, backend runner, link
/// and fault models. All existing single-machine knobs keep their
/// defaults; the two new ones are `shards` and `runner`.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Cluster size.
    pub nodes: u32,
    /// Shards the nodes are partitioned over (node `n` lives on shard
    /// `n % shards`). Clamped to `nodes` at build time.
    pub shards: usize,
    /// Sequential oracle or one-thread-per-shard parallel runner.
    pub runner: RunnerKind,
    /// Node-local RAM.
    pub node_bytes: u64,
    /// The wire between any two nodes; its propagation latency is the
    /// runner's conservative lookahead.
    pub link: LinkModel,
    /// Go-back-N parameters; `reliability.retry` doubles as the NACK
    /// retry budget and as the failure detector's probe schedule.
    pub reliability: ReliabilityConfig,
    /// Chaos plan applied to every node's *sending* link. Each node
    /// derives its own decorrelated PRNG seed from `plan.seed`.
    pub chaos: Option<FaultPlan>,
    /// Receive-side IOTLB geometry of every node.
    pub iotlb: IotlbConfig,
    /// Whether [`ClusterSim::grant`] registers (pins) buffers up front —
    /// the no-NACK discipline of E14 — instead of demand-faulting.
    pub pin_on_post: bool,
    /// Whether transfers announce their destination range ahead of the
    /// first chunk, buying the one-NACK-per-range service of E15.
    pub announce: bool,
    /// The failure detector's ACK lease: how long after a chunk launch
    /// the sender waits for byte progress before counting a miss. It
    /// must exceed a chunk's worst-case round trip (serialisation + NACK
    /// service + backoff) or a merely slow peer is declared dead.
    /// Consulted only once a [`CrashPlan`] is injected — a cluster with
    /// no crash plans schedules no lease or probe events.
    pub ack_lease: SimTime,
    /// Record a per-event log for differential divergence reporting
    /// (costs allocations; leave off in benches).
    pub record_log: bool,
}

impl ClusterConfig {
    /// A sequential single-shard cluster of `nodes` nodes — the oracle
    /// configuration.
    pub fn new(nodes: u32) -> Self {
        ClusterConfig {
            nodes,
            shards: 1,
            runner: RunnerKind::Sequential,
            node_bytes: 1 << 20,
            link: LinkModel::atm155(),
            reliability: ReliabilityConfig::default(),
            chaos: None,
            iotlb: IotlbConfig::default(),
            pin_on_post: false,
            announce: false,
            ack_lease: SimTime::from_us(1_250),
            record_log: false,
        }
    }

    /// The same cluster on `shards` shards under the parallel runner.
    pub fn sharded(nodes: u32, shards: usize) -> Self {
        ClusterConfig { shards, runner: RunnerKind::Parallel, ..ClusterConfig::new(nodes) }
    }
}

/// Everything observable about one node after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeDigest {
    /// The node.
    pub node: u32,
    /// CRC-32 over the node's entire physical memory.
    pub mem_crc: u32,
    /// Receive-side IOTLB counters.
    pub iotlb: IotlbStats,
    /// Node-OS fault-service counters.
    pub faults: FaultServiceStats,
    /// Receive-side link counters.
    pub link: NodeLinkStats,
    /// NACKs this node raised.
    pub nacks_raised: u64,
    /// Incarnation epoch (bumped by every reboot).
    pub inc: u64,
    /// Node-failure accounting (crashes, reboots, fenced frames,
    /// replayed grants).
    pub crash: CrashStats,
    /// This node's failure-detector counters, summed over every peer it
    /// watched.
    pub health: HealthStats,
}

/// Everything observable about one transfer after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XferDigest {
    /// The transfer.
    pub id: XferId,
    /// Terminal (or stuck) state.
    pub state: XferState,
    /// Wire/accounting counters.
    pub counters: XferCounters,
    /// Posting time.
    pub posted_at: SimTime,
    /// Completion/failure time.
    pub finished: Option<SimTime>,
}

impl XferDigest {
    fn of(x: &SendXfer) -> Self {
        XferDigest {
            id: x.id,
            state: x.state(),
            counters: x.counters,
            posted_at: x.posted_at,
            finished: x.finished,
        }
    }
}

/// The full observable outcome of a run: compare two of these to prove
/// two backends replayed the same history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterDigest {
    /// Per-node state and counters, in node order.
    pub nodes: Vec<NodeDigest>,
    /// Per-transfer outcomes, in `(node, index)` order.
    pub xfers: Vec<XferDigest>,
    /// Events processed.
    pub events: u64,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// The merged event log in key order (empty unless
    /// [`ClusterConfig::record_log`]).
    pub log: Vec<LogLine>,
}

impl ClusterDigest {
    /// The first observable difference between two runs, rendered for a
    /// failure message — the event log divergence if logs were
    /// recorded, otherwise the first differing node/transfer summary.
    /// `None` when the digests are identical.
    pub fn diff(&self, other: &ClusterDigest) -> Option<String> {
        if self == other {
            return None;
        }
        for (i, (a, b)) in self.log.iter().zip(other.log.iter()).enumerate() {
            if a != b {
                return Some(format!("first diverging event #{i}:\n  a: {a}\n  b: {b}"));
            }
        }
        if self.log.len() != other.log.len() {
            let (longer, tag) =
                if self.log.len() > other.log.len() { (self, "a") } else { (other, "b") };
            let extra = &longer.log[self.log.len().min(other.log.len())];
            return Some(format!("{tag} has extra event: {extra}"));
        }
        for (a, b) in self.nodes.iter().zip(other.nodes.iter()) {
            if a != b {
                return Some(format!("node {} digests differ:\n  a: {a:?}\n  b: {b:?}", a.node));
            }
        }
        for (a, b) in self.xfers.iter().zip(other.xfers.iter()) {
            if a != b {
                return Some(format!("transfer {} digests differ:\n  a: {a:?}\n  b: {b:?}", a.id));
            }
        }
        Some(format!(
            "digests differ in counters: events {} vs {}, rounds {} vs {}",
            self.events, other.events, self.rounds, other.rounds
        ))
    }
}

/// Why [`ClusterSim::post_bytes`] refused a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostError {
    /// The cluster has no node with this index.
    NoSuchNode {
        /// The requested node index.
        node: u32,
    },
    /// The payload is empty.
    Empty,
}

impl std::fmt::Display for PostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PostError::NoSuchNode { node } => write!(f, "node {node} out of range"),
            PostError::Empty => f.write_str("zero-byte transfer"),
        }
    }
}

impl std::error::Error for PostError {}

/// A cluster of user-level-DMA nodes on the sharded deterministic
/// simulation core. Build, [`grant`](Self::grant) destination buffers,
/// [`post`](Self::post) transfers, [`run`](Self::run), then compare
/// [`digest`](Self::digest)s or read memories. A call naming a node out
/// of range panics, unless it returns an `Option` or `Result` that can
/// say so.
pub struct ClusterSim {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    runner: SimRunner,
    report: RunReport,
    wall: Duration,
    posted: u32,
}

impl ClusterSim {
    /// Builds the cluster: every node gets its memory, IOMMU, node OS
    /// and (under chaos) its own decorrelated chaos-link PRNG; every
    /// ordered pair of distinct shards gets a channel.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(mut cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0, "a cluster needs at least one node");
        cfg.shards = cfg.shards.clamp(1, cfg.nodes as usize);
        let num_shards = cfg.shards;
        let builder = ChannelBuilder::new(cfg.link.latency());
        // Channels between distinct shards: tx[src][dst] pairs with one
        // of rx[dst]. A shard's frames to its own nodes take no channel.
        let mut tx_grid: Vec<Vec<Option<SimSender<Envelope>>>> =
            (0..num_shards).map(|_| Vec::new()).collect();
        let mut rx_grid: Vec<Vec<SimReceiver<Envelope>>> =
            (0..num_shards).map(|_| Vec::new()).collect();
        for (src, tx_row) in tx_grid.iter_mut().enumerate() {
            for (dst, rx_row) in rx_grid.iter_mut().enumerate() {
                if src == dst {
                    tx_row.push(None);
                    continue;
                }
                let (tx, rx) = builder.channel(src);
                tx_row.push(Some(tx));
                rx_row.push(rx);
            }
        }
        let mut shards: Vec<Shard> = tx_grid
            .into_iter()
            .zip(rx_grid)
            .map(|(tx, rx)| Shard {
                nodes: Vec::new(),
                rx,
                scratch: Vec::new(),
                out: Outbox {
                    cfg,
                    tx,
                    queue: EventQueue::default(),
                    log: cfg.record_log.then(Vec::new),
                },
            })
            .collect();
        for id in 0..cfg.nodes {
            let chaos = cfg.chaos.map(|plan| {
                // Decorrelate the per-node packet stories while keeping
                // the whole cluster reproducible from one seed.
                let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(id) + 1);
                FaultyLink::new(FaultPlan { seed: plan.seed ^ salt, ..plan })
            });
            // Nodes are symmetric: every node can receive into any ASID
            // a grant later creates; contexts are created on grant.
            shards[id as usize % num_shards].nodes.push(Node {
                id,
                os: NodeOs::new(cfg.node_bytes, cfg.iotlb),
                link: LinkUnit::new(chaos),
                fault: None,
            });
        }
        let runner = SimRunner::new(cfg.runner, cfg.link.latency());
        ClusterSim {
            cfg,
            shards,
            runner,
            report: RunReport::default(),
            wall: Duration::ZERO,
            posted: 0,
        }
    }

    /// The (clamped) configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// `node`'s state, or `None` out of range.
    fn node(&self, node: u32) -> Option<&Node> {
        let shards = self.cfg.shards;
        self.shards[node as usize % shards].nodes.get(node as usize / shards)
    }

    /// `node`'s state for a public call documented to panic on a node
    /// out of range.
    fn node_mut(&mut self, node: u32) -> &mut Node {
        let shards = self.cfg.shards;
        self.shards[node as usize % shards]
            .nodes
            .get_mut(node as usize / shards)
            .expect("node out of range")
    }

    /// `node`'s state for a public call documented to panic on a node
    /// out of range.
    fn node_ref(&self, node: u32) -> &Node {
        self.node(node).expect("node out of range")
    }

    /// Queues `work` on `node` at `at`.
    fn schedule(&mut self, node: u32, at: SimTime, work: Work) {
        let shard = &mut self.shards[node as usize % self.cfg.shards];
        shard.nodes[node as usize / self.cfg.shards].schedule(&mut shard.out, at, work);
    }

    /// Exposes `pages` fresh frames at `va` in `asid` on `node` — the
    /// remote process offering memory for incoming RDMA. Creates the
    /// IOMMU context on first use; under
    /// [`pin_on_post`](ClusterConfig::pin_on_post) also registers the
    /// whole buffer so no chunk ever NACKs. Grants are durable: a
    /// reboot replays them.
    ///
    /// # Errors
    ///
    /// [`MemFault::AlreadyMapped`] if a page is taken,
    /// [`MemFault::BusError`] if the node is out of frames.
    pub fn grant(
        &mut self,
        node: u32,
        asid: Asid,
        va: VirtAddr,
        pages: u64,
        perms: Perms,
    ) -> Result<(), MemFault> {
        let pin = self.cfg.pin_on_post;
        self.node_mut(node).os.grant(asid, va, pages, perms, pin)
    }

    /// Registers (pins) `[va, va + len)` of `asid` into `node`'s IOMMU —
    /// the warm fraction of an E13-style partially prefaulted buffer.
    /// Pins are durable: a reboot replays them.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] at the first hole.
    pub fn pin(&mut self, node: u32, asid: Asid, va: VirtAddr, len: u64) -> Result<u64, MemFault> {
        self.node_mut(node).os.pin(asid, va, len)
    }

    /// Swaps `page` of `asid` out of `node` (cold-page setup for the
    /// swap-in fault path).
    ///
    /// # Errors
    ///
    /// [`SwapRefused::Pinned`] while a transfer relies on the
    /// page, [`SwapRefused::NotMapped`] if `asid` does not map it.
    pub fn swap_out(&mut self, node: u32, asid: Asid, page: VirtPage) -> Result<(), SwapRefused> {
        self.node_mut(node).os.swap_out(asid, page)
    }

    /// Schedules a scripted node failure (and, if the plan recovers, the
    /// matching recovery) on the victim's own shard, ordered by the
    /// victim's emission counter like any other event.
    ///
    /// The first injection arms a fault domain on every node: ACK
    /// leases, incarnation fences and health tracking come alive. A run
    /// with no injected plan carries no fault state at all and is
    /// bit-for-bit the digest of a build without the fault domain.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a node out of range.
    pub fn inject_crash(&mut self, plan: CrashPlan) {
        assert!(plan.node < self.cfg.nodes, "crash on node out of range");
        for node in self.shards.iter_mut().flat_map(|s| &mut s.nodes) {
            node.fault.get_or_insert_with(FaultDomain::default);
        }
        let until = plan.recovery_at();
        self.schedule(plan.node, plan.at, Work::Crash { kind: plan.kind, until });
        // A stall's end is data (`until` rides on the crash event).
        if let Some(when) = until.filter(|_| plan.kind != CrashKind::FaultStall) {
            self.schedule(plan.node, when, Work::Recover { kind: plan.kind });
        }
    }

    /// `node`'s current incarnation epoch (0 until its first reboot).
    pub fn node_incarnation(&self, node: u32) -> u64 {
        self.node_ref(node).inc()
    }

    /// `node`'s crash/fence/replay counters.
    pub fn crash_stats(&self, node: u32) -> CrashStats {
        self.node_ref(node).fault.as_ref().map_or_else(CrashStats::default, |fd| fd.stats)
    }

    /// What `node`'s failure detector currently believes about `peer`.
    pub fn node_health(&self, node: u32, peer: u32) -> HealthState {
        self.node_ref(node).fault.as_ref().map_or(HealthState::Up, |fd| fd.health(peer))
    }

    /// Closed outage samples — detector-trip to first fresh progress —
    /// concatenated in node order (the E19 recovery-latency input).
    pub fn recovery_samples(&self) -> Vec<SimTime> {
        (0..self.cfg.nodes)
            .filter_map(|n| self.node_ref(n).fault.as_ref())
            .flat_map(|fd| fd.recovery_samples.iter().copied())
            .collect()
    }

    /// Posts a transfer of `len` deterministic pattern bytes from
    /// `src_node` into `(asid, va)` on `dst_node`, launching at `at`:
    /// [`post_bytes`](Self::post_bytes) with the
    /// [`expected_payload`](Self::expected_payload). Returns the
    /// transfer's cluster-wide id.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `len` is zero.
    pub fn post(
        &mut self,
        src_node: u32,
        dst_node: u32,
        asid: Asid,
        va: VirtAddr,
        len: u64,
        at: SimTime,
    ) -> XferId {
        let index = self.node_ref(src_node).link.xfers.len() as u32;
        let payload = pattern_bytes(XferId { node: src_node, index }, len);
        self.post_bytes(src_node, dst_node, asid, va, payload, at).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Posts a transfer of `bytes` from `src_node` into `(asid, va)` on
    /// `dst_node`, launching at `at`. Returns the transfer's
    /// cluster-wide id. The receiver's IOMMU decides where the bytes
    /// land: a page `asid` never granted NACKs and fails the transfer.
    ///
    /// # Errors
    ///
    /// [`PostError::NoSuchNode`] for a node out of range,
    /// [`PostError::Empty`] for an empty payload. A refused post
    /// changes nothing.
    pub fn post_bytes(
        &mut self,
        src_node: u32,
        dst_node: u32,
        asid: Asid,
        va: VirtAddr,
        bytes: Vec<u8>,
        at: SimTime,
    ) -> Result<XferId, PostError> {
        if let Some(node) = [src_node, dst_node].into_iter().find(|&n| n >= self.cfg.nodes) {
            return Err(PostError::NoSuchNode { node });
        }
        if bytes.is_empty() {
            return Err(PostError::Empty);
        }
        let xfers = &mut self.node_mut(src_node).link.xfers;
        let id = XferId { node: src_node, index: xfers.len() as u32 };
        xfers.push(SendXfer::new(id, dst_node, asid, va, bytes, at));
        self.schedule(src_node, at, Work::Launch { index: id.index });
        self.posted += 1;
        Ok(id)
    }

    /// The deterministic payload a [`post`](Self::post) generated —
    /// tests compare destination memory against this.
    pub fn expected_payload(id: XferId, len: u64) -> Vec<u8> {
        pattern_bytes(id, len)
    }

    /// Runs to global quiescence and returns the runner's report.
    pub fn run(&mut self) -> RunReport {
        let start = Instant::now();
        let report = self.runner.run(&mut self.shards);
        self.wall += start.elapsed();
        self.report.events += report.events;
        self.report.rounds += report.rounds;
        report
    }

    /// Cumulative runner report across all [`run`](Self::run) calls.
    pub fn report(&self) -> RunReport {
        self.report
    }

    /// Host wall-clock time spent inside [`run`](Self::run).
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Simulation events per host second — the self-benchmark metric.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.report.events as f64 / self.wall.as_secs_f64()
    }

    /// Transfers posted so far.
    pub fn posted(&self) -> u32 {
        self.posted
    }

    /// Reads `node`'s physical memory (test inspection).
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] outside the node's RAM or for a node out
    /// of range.
    pub fn read_mem(&self, node: u32, pa: PhysAddr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.node(node).ok_or(MemFault::BusError { pa })?.os.mem().read_bytes(pa, buf)
    }

    /// Translates `(asid, va)` through `node`'s resident IOTLB entries
    /// without counting stats or touching replacement state (test
    /// inspection of where a deposit landed): probing leaves
    /// [`digest`](Self::digest) unchanged. `None` for a node out of
    /// range.
    pub fn probe(&self, node: u32, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        self.node(node)?.os.probe(asid, va)
    }

    /// The digest of one transfer.
    ///
    /// # Panics
    ///
    /// Panics if the transfer was never posted.
    pub fn xfer(&self, id: XferId) -> XferDigest {
        XferDigest::of(&self.node_ref(id.node).link.xfers[id.index as usize])
    }

    /// The full observable outcome: per-node memory CRCs and counters,
    /// per-transfer outcomes, event totals, and (if recorded) the
    /// merged event log in key order.
    pub fn digest(&self) -> ClusterDigest {
        let mut nodes = Vec::with_capacity(self.cfg.nodes as usize);
        let mut xfers = Vec::new();
        for node in 0..self.cfg.nodes {
            let n = self.node_ref(node);
            let fault = n.fault.as_ref();
            nodes.push(NodeDigest {
                node,
                mem_crc: mem_crc(n.os.mem()),
                iotlb: n.os.iotlb_stats(),
                faults: n.os.stats(),
                link: n.link.stats,
                nacks_raised: n.link.nacks_raised,
                inc: n.inc(),
                crash: fault.map_or_else(CrashStats::default, |fd| fd.stats),
                health: fault.map_or_else(HealthStats::default, |fd| fd.health_stats()),
            });
            xfers.extend(n.link.xfers.iter().map(XferDigest::of));
        }
        let mut log: Vec<LogLine> =
            self.shards.iter().filter_map(|s| s.out.log.as_ref()).flatten().copied().collect();
        // `(src_node, seq)` names exactly one event, so this key is a
        // total order and the merge is independent of the shard layout.
        log.sort_unstable_by_key(|l| (l.at, l.src_node, l.seq, l.node));
        ClusterDigest { nodes, xfers, events: self.report.events, rounds: self.report.rounds, log }
    }
}

/// Deterministic per-transfer payload pattern: the seeded xoshiro
/// stream's words, little-endian, cut to `len` bytes. Words are
/// generated a 64-byte block at a time into a stack buffer and appended,
/// so the heap buffer is written once (a zero-filled `vec!` would cost
/// a second pass over every payload byte).
fn pattern_bytes(id: XferId, len: u64) -> Vec<u8> {
    let seed = 0xDA7A_5EED_0000_0000 ^ (u64::from(id.node) << 20) ^ u64::from(id.index);
    let mut rng = TestRng::seed_from_u64(seed);
    let len = len as usize;
    let mut block = [0u8; 64];
    let mut out = Vec::with_capacity(len.next_multiple_of(block.len()));
    while out.len() < len {
        for w in block.chunks_exact_mut(8) {
            w.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.extend_from_slice(&block);
    }
    out.truncate(len);
    out
}

/// CRC-32 over a node's entire memory, streamed a page at a time.
fn mem_crc(mem: &PhysMemory) -> u32 {
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    let mut crc = Crc32::new();
    let mut pa = 0u64;
    while pa < mem.size() {
        let take = (mem.size() - pa).min(PAGE_SIZE) as usize;
        mem.read_bytes(PhysAddr::new(pa), &mut buf[..take]).expect("in range");
        crc.update(&buf[..take]);
        pa += take as u64;
    }
    crc.finish()
}
#[cfg(test)]
mod tests {
    use super::*;

    const ASID: Asid = 7;
    const DST_VA: u64 = 16 * PAGE_SIZE;

    fn granted(cfg: ClusterConfig, pages: u64) -> ClusterSim {
        let mut sim = ClusterSim::new(cfg);
        for node in 0..cfg.nodes {
            sim.grant(node, ASID, VirtAddr::new(DST_VA), pages, Perms::READ_WRITE).unwrap();
        }
        sim
    }

    #[test]
    fn clean_transfer_completes_and_deposits_the_pattern() {
        let mut cfg = ClusterConfig::new(2);
        cfg.pin_on_post = true;
        let mut sim = granted(cfg, 2);
        let id = sim.post(0, 1, ASID, VirtAddr::new(DST_VA), 2 * PAGE_SIZE, SimTime::ZERO);
        sim.run();
        let x = sim.xfer(id);
        assert_eq!(x.state, XferState::Complete);
        assert_eq!(x.counters.moved, 2 * PAGE_SIZE);
        assert_eq!(x.counters.nacks, 0, "pin-on-post never NACKs");
        let pa = sim.probe(1, ASID, VirtAddr::new(DST_VA)).expect("pinned translation");
        let mut got = vec![0u8; 2 * PAGE_SIZE as usize];
        // Pages are contiguous frames for a fresh expose.
        sim.read_mem(1, pa, &mut got).unwrap();
        assert_eq!(got, ClusterSim::expected_payload(id, 2 * PAGE_SIZE));
    }

    #[test]
    fn cold_buffer_nacks_once_per_page_without_announce() {
        let cfg = ClusterConfig::new(2); // demand paging, no announce
        let mut sim = granted(cfg, 3);
        let id = sim.post(0, 1, ASID, VirtAddr::new(DST_VA), 3 * PAGE_SIZE, SimTime::ZERO);
        sim.run();
        let x = sim.xfer(id);
        assert_eq!(x.state, XferState::Complete);
        assert_eq!(x.counters.nacks, 3, "every cold page costs one NACK round trip");
        let d = sim.digest();
        assert_eq!(d.nodes[1].nacks_raised, 3);
        assert_eq!(d.nodes[1].faults.mapped, 3);
    }

    #[test]
    fn announce_buys_one_nack_per_range() {
        let mut cfg = ClusterConfig::new(2);
        cfg.announce = true;
        let mut sim = granted(cfg, 4);
        let id = sim.post(0, 1, ASID, VirtAddr::new(DST_VA), 4 * PAGE_SIZE, SimTime::ZERO);
        sim.run();
        let x = sim.xfer(id);
        assert_eq!(x.state, XferState::Complete);
        assert_eq!(x.counters.nacks, 1, "the announced range services in one kernel entry");
        assert!(sim.digest().nodes[1].faults.range_prefilled >= 3);
    }

    #[test]
    fn unknown_asid_fails_the_transfer() {
        let cfg = ClusterConfig::new(2);
        let mut sim = granted(cfg, 1);
        let id = sim.post(0, 1, 99, VirtAddr::new(DST_VA), PAGE_SIZE, SimTime::ZERO);
        sim.run();
        assert_eq!(sim.xfer(id).state, XferState::Failed);
    }

    /// The payload pattern is part of every pinned memory CRC: it must
    /// stay byte-identical, including the partial last word.
    #[test]
    fn pattern_payload_is_pinned() {
        let crc = |node, index, len| {
            udma_testkit::crc32(&ClusterSim::expected_payload(XferId { node, index }, len))
        };
        assert_eq!(crc(0, 0, 5000), 0x9812_CBC1);
        assert_eq!(crc(3, 17, 8192), 0x7AD1_D646);
        let long = ClusterSim::expected_payload(XferId { node: 1, index: 2 }, 21);
        assert_eq!(ClusterSim::expected_payload(XferId { node: 1, index: 2 }, 13), long[..13]);
    }

    #[test]
    fn sequential_and_parallel_digests_match_on_a_small_mesh() {
        let run = |shards: usize, runner: RunnerKind| {
            let mut cfg = ClusterConfig::new(4);
            cfg.shards = shards;
            cfg.runner = runner;
            cfg.record_log = true;
            cfg.chaos = Some(FaultPlan::lossless(0xC1A5).with_drop(0.2));
            let mut sim = granted(cfg, 2);
            for src in 0..4u32 {
                let dst = (src + 1) % 4;
                sim.post(src, dst, ASID, VirtAddr::new(DST_VA), 2 * PAGE_SIZE, SimTime::ZERO);
            }
            sim.run();
            sim.digest()
        };
        let oracle = run(1, RunnerKind::Sequential);
        for shards in [1usize, 2, 4] {
            let par = run(shards, RunnerKind::Parallel);
            if let Some(diff) = oracle.diff(&par) {
                panic!("{shards}-shard parallel run diverged:\n{diff}");
            }
        }
    }

    /// Inspection calls that already return a fallible type answer a
    /// node out of range with that type instead of panicking.
    #[test]
    fn inspecting_a_node_out_of_range_is_an_error_not_a_panic() {
        let mut cfg = ClusterConfig::new(3);
        cfg.shards = 2;
        let sim = granted(cfg, 1);
        let pa = PhysAddr::new(0);
        let mut buf = [0u8; 8];
        for node in [3, 4, 5, u32::MAX] {
            assert_eq!(sim.read_mem(node, pa, &mut buf), Err(MemFault::BusError { pa }));
            assert_eq!(sim.probe(node, ASID, VirtAddr::new(DST_VA)), None);
        }
        assert_eq!(sim.read_mem(2, pa, &mut buf), Ok(()));
    }

    /// A send a user configuration can name — a node out of range, an
    /// empty payload — is refused with an error and leaves the cluster
    /// untouched.
    #[test]
    fn a_refused_post_bytes_is_an_error_and_changes_nothing() {
        let mut sim = granted(ClusterConfig::new(2), 1);
        let before = sim.digest();
        let va = VirtAddr::new(DST_VA);
        assert_eq!(
            sim.post_bytes(0, 2, ASID, va, vec![1; 8], SimTime::ZERO),
            Err(PostError::NoSuchNode { node: 2 })
        );
        assert_eq!(
            sim.post_bytes(u32::MAX, 1, ASID, va, vec![1; 8], SimTime::ZERO),
            Err(PostError::NoSuchNode { node: u32::MAX })
        );
        assert_eq!(
            sim.post_bytes(0, 1, ASID, va, Vec::new(), SimTime::ZERO),
            Err(PostError::Empty)
        );
        sim.run();
        assert_eq!(sim.posted(), 0);
        assert_eq!(sim.digest(), before);
    }

    /// The detector's one knob keeps the lease the removed health
    /// config derived: a 20 ms no-progress horizon over 16.
    #[test]
    fn default_ack_lease_is_pinned() {
        assert_eq!(ClusterConfig::new(2).ack_lease, SimTime::from_us(20_000 / 16));
    }

    /// A hang that strikes a powered-off node ends with its reboot: the
    /// rebooted NI runs, even though the hang's own end fell into the
    /// downtime.
    #[test]
    fn a_reboot_clears_a_hang_that_struck_while_the_node_was_down() {
        let mut cfg = ClusterConfig::new(2);
        cfg.pin_on_post = true;
        let mut sim = granted(cfg, 1);
        sim.inject_crash(CrashPlan::crash(1, SimTime::from_us(100), SimTime::from_us(200)));
        sim.inject_crash(CrashPlan::hang(1, SimTime::from_us(150), SimTime::from_us(100)));
        let id = sim.post(0, 1, ASID, VirtAddr::new(DST_VA), PAGE_SIZE, SimTime::from_us(400));
        sim.run();
        assert!(sim.node_ref(1).fault.as_ref().is_none_or(|fd| !fd.down));
        assert_eq!(sim.node_incarnation(1), 1);
        assert_eq!(sim.xfer(id).state, XferState::Complete);
        assert_eq!(sim.crash_stats(1).dropped_down, 0);
    }
}
