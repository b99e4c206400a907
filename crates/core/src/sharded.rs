//! The sharded cluster simulation: every node a full sender.
//!
//! The single-machine [`Machine`](crate::Machine) world advances one
//! sequential clock and models remote nodes as passive memories behind
//! the sender's DMA engine. This module is the cluster-scale
//! re-architecture on top of the deterministic sim kernel in
//! [`udma_bus::sim`]: a [`ClusterSim`] partitions its nodes over
//! shards, each node owns its *complete* local state — physical
//! memory, receive-side IOMMU, node OS ([`RemoteFaultService`]), and a
//! seeded chaos link — and all cross-node traffic (data chunks,
//! ACK/NACK, destination announcements) travels as
//! [`Envelope`]s over explicit latency-stamped channels, even between
//! nodes that happen to share a shard.
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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::{Duration, Instant};
use udma_bus::sim::{
    ChannelBuilder, RunReport, RunnerKind, SimComponent, SimReceiver, SimRunner, SimSender, Stamped,
};
use udma_bus::SimTime;
use udma_iommu::{Asid, Iommu, IotlbConfig, IotlbStats};
use udma_mem::{Access, MemFault, Perms, PhysAddr, PhysMemory, VirtAddr, VirtPage, PAGE_SIZE};
use udma_nic::{
    CrashKind, CrashPlan, CrashStats, Crc32, DstAnnouncement, Envelope, FaultPlan, FaultyLink,
    HealthConfig, HealthState, HealthStats, LinkModel, NackVerdict, NetMsg, NodeLinkStats,
    PeerHealth, ReliabilityConfig, SendXfer, XferCounters, XferId, XferState,
};
use udma_os::{
    FaultCosts, FaultResolution, FaultServiceStats, RemoteFaultService, RemoteSwapRefused,
};
use udma_testkit::rng::TestRng;

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
    /// retry budget, as in the single-machine world.
    pub reliability: ReliabilityConfig,
    /// Chaos plan applied to every node's *sending* link. Each node
    /// derives its own decorrelated PRNG seed from `plan.seed`.
    pub chaos: Option<FaultPlan>,
    /// Receive-side IOTLB geometry of every node.
    pub iotlb: IotlbConfig,
    /// Fault-service costs of every node OS.
    pub costs: FaultCosts,
    /// Whether [`ClusterSim::grant`] registers (pins) buffers up front —
    /// the no-NACK discipline of E14 — instead of demand-faulting.
    pub pin_on_post: bool,
    /// Whether transfers announce their destination range ahead of the
    /// first chunk, buying the one-NACK-per-range service of E15.
    pub announce: bool,
    /// Failure-detector tunables (ACK lease, `Down` threshold, probe
    /// policy). Consulted only once a [`CrashPlan`] is injected — a
    /// cluster with no crash plans schedules no lease or probe events
    /// and replays byte-identical histories with or without this field.
    pub health: HealthConfig,
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
            costs: FaultCosts::default(),
            pin_on_post: false,
            announce: false,
            health: HealthConfig::default(),
            record_log: false,
        }
    }

    /// The same cluster on `shards` shards under the parallel runner.
    pub fn sharded(nodes: u32, shards: usize) -> Self {
        ClusterConfig { shards, runner: RunnerKind::Parallel, ..ClusterConfig::new(nodes) }
    }
}

/// One line of the differential event log: the processing node, the
/// event's layout-invariant ordering key, and what happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogLine {
    /// Simulated event time.
    pub at: SimTime,
    /// The emitting node (ties on `at` break here, then on `seq`).
    pub src_node: u32,
    /// The emitting node's emission counter.
    pub seq: u64,
    /// The node whose state the event touched.
    pub node: u32,
    /// What the event did, rendered only on demand.
    pub kind: EventKind,
}

impl std::fmt::Display for LogLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} src=n{} seq={}] node {}: {}",
            self.at, self.src_node, self.seq, self.node, self.kind
        )
    }
}

/// How a chunk launch left the board.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchWire {
    /// The frame went out.
    Ok,
    /// The link layer's retry budget ran dry mid-chunk.
    LinkFailed,
    /// The sender's NI is hung: the launch was billed, no frame left.
    HungNi,
}

/// What an ACK did to its transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckEffect {
    /// The last byte was acked.
    Complete,
    /// The next chunk launches.
    NextChunk,
    /// The ACK was for a stale chunk or a terminal transfer.
    Stale,
}

/// One typed event of the differential log. Every variant is plain
/// `Copy` data, so recording costs a push and a disabled log costs
/// nothing; [`Display`](std::fmt::Display) renders the text form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A scheduled launch found its transfer already terminal.
    LaunchSkipped {
        /// Posting index of the transfer.
        index: u32,
    },
    /// A launch fell into the posting node's downtime.
    LaunchOnDeadNode {
        /// Posting index of the transfer.
        index: u32,
    },
    /// The sender's detector holds the destination `Down`.
    LaunchFailFast {
        /// Posting index of the transfer.
        index: u32,
        /// The destination held `Down`.
        dst: u32,
    },
    /// A chunk launched.
    Launch {
        /// The transfer.
        xfer: XferId,
        /// Destination node.
        dst: u32,
        /// When the chunk's frames arrive.
        arrival: SimTime,
        /// How the launch left the board.
        wire: LaunchWire,
    },
    /// A node crashed.
    Crash {
        /// In-flight transfers of its own that died with it.
        killed: u32,
    },
    /// A node's NI engine hung.
    NiHang,
    /// A node's fault service stalled.
    FaultStall {
        /// When NACK servicing resumes.
        until: SimTime,
    },
    /// A node rebooted.
    Reboot {
        /// Its new incarnation.
        inc: u64,
    },
    /// A hung NI resumed.
    Unhang,
    /// An ACK lease fired after progress: not a miss.
    LeaseSuperseded {
        /// Posting index of the transfer.
        index: u32,
    },
    /// A lease miss tripped the detector.
    LeaseDown {
        /// Posting index of the transfer.
        index: u32,
        /// The peer now held `Down`.
        peer: u32,
        /// Transfers to that peer aborted.
        aborted: u32,
    },
    /// A lease miss short of `Down`: the chunk relaunches.
    LeaseRelaunch {
        /// Posting index of the transfer.
        index: u32,
        /// The detector's state after the miss.
        state: HealthState,
    },
    /// A probe timer found its peer no longer `Down`.
    ProbeCancelled {
        /// The probed peer.
        peer: u32,
    },
    /// A probe went out to a `Down` peer.
    Probe {
        /// The probed peer.
        peer: u32,
        /// The detector's state when it fired.
        state: HealthState,
    },
    /// A frame reached a dead or hung node.
    FrameDropped,
    /// A frame addressed to a previous incarnation of the receiver.
    FencedForInc {
        /// The incarnation the frame was stamped for.
        sent_for: u64,
        /// The receiver's incarnation.
        current: u64,
    },
    /// A frame sent by a previous incarnation of its sender.
    FencedStale {
        /// The stale sender incarnation.
        inc: u64,
        /// The sender.
        from: u32,
    },
    /// A destination range was announced.
    Announce {
        /// The announcing transfer.
        xfer: XferId,
        /// Range base.
        va: VirtAddr,
        /// Range length in bytes.
        len: u64,
    },
    /// A data frame arrived with no accepted bytes.
    DataEmpty {
        /// The transfer.
        xfer: XferId,
        /// The chunk.
        chunk: u32,
    },
    /// A chunk was deposited and acked.
    Data {
        /// The transfer.
        xfer: XferId,
        /// The chunk.
        chunk: u32,
        /// Bytes deposited.
        accepted: u64,
        /// Where they landed.
        va: VirtAddr,
    },
    /// A chunk's deposit faulted and was NACKed after fault service.
    DataNack {
        /// The transfer.
        xfer: XferId,
        /// The chunk.
        chunk: u32,
        /// What the node OS's fault service did.
        res: FaultResolution,
    },
    /// An ACK reached the sender.
    Ack {
        /// The transfer.
        xfer: XferId,
        /// The acked chunk.
        chunk: u32,
        /// What the ACK did.
        effect: AckEffect,
    },
    /// A NACK reached the sender.
    Nack {
        /// The transfer.
        xfer: XferId,
        /// The NACKed chunk.
        chunk: u32,
        /// The sender's decision.
        verdict: NackVerdict,
    },
    /// A Hello or Pong showed a peer in service.
    Alive {
        /// The peer.
        peer: u32,
        /// Its incarnation.
        inc: u64,
        /// Whether that incarnation is newer than the one known.
        advanced: bool,
    },
    /// A probe arrived and was answered.
    Ping {
        /// The prober.
        from: u32,
    },
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EventKind::LaunchSkipped { index } => write!(f, "launch {index} skipped"),
            EventKind::LaunchOnDeadNode { index } => write!(f, "launch {index} on dead node"),
            EventKind::LaunchFailFast { index, dst } => {
                write!(f, "launch {index} fail-fast: n{dst} down")
            }
            EventKind::Launch { xfer, dst, arrival, wire } => {
                let wire = match wire {
                    LaunchWire::Ok => "ok",
                    LaunchWire::LinkFailed => "link-failed",
                    LaunchWire::HungNi => "hung-ni",
                };
                write!(f, "launch {xfer} -> n{dst} arriving {arrival} ({wire})")
            }
            EventKind::Crash { killed } => write!(f, "crash ({killed} own transfers died)"),
            EventKind::NiHang => f.write_str("ni-hang"),
            EventKind::FaultStall { until } => write!(f, "fault-service stall until {until}"),
            EventKind::Reboot { inc } => write!(f, "reboot -> inc {inc}"),
            EventKind::Unhang => f.write_str("unhang"),
            EventKind::LeaseSuperseded { index } => write!(f, "lease {index} superseded"),
            EventKind::LeaseDown { index, peer, aborted } => {
                write!(f, "lease {index} miss: n{peer} down, {aborted} transfers aborted")
            }
            EventKind::LeaseRelaunch { index, state } => {
                write!(f, "lease {index} miss ({state:?}): relaunch")
            }
            EventKind::ProbeCancelled { peer } => write!(f, "probe n{peer} cancelled"),
            EventKind::Probe { peer, state } => write!(f, "probe n{peer} ({state:?})"),
            EventKind::FrameDropped => f.write_str("frame dropped: node dead"),
            EventKind::FencedForInc { sent_for, current } => {
                write!(f, "fenced: for inc {sent_for} but node is inc {current}")
            }
            EventKind::FencedStale { inc, from } => {
                write!(f, "fenced: stale inc {inc} from n{from}")
            }
            EventKind::Announce { xfer, va, len } => write!(f, "announce {xfer} [{va}, +{len}B]"),
            EventKind::DataEmpty { xfer, chunk } => write!(f, "data {xfer} chunk {chunk} empty"),
            EventKind::Data { xfer, chunk, accepted, va } => {
                write!(f, "data {xfer} chunk {chunk} +{accepted}B @ {va}")
            }
            EventKind::DataNack { xfer, chunk, res } => {
                let fate =
                    if res == FaultResolution::Unresolvable { "fatal" } else { "resolvable" };
                write!(f, "data {xfer} chunk {chunk} nack {res:?} ({fate})")
            }
            EventKind::Ack { xfer, chunk, effect } => {
                let effect = match effect {
                    AckEffect::Complete => "complete",
                    AckEffect::NextChunk => "next chunk",
                    AckEffect::Stale => "stale",
                };
                write!(f, "ack {xfer} chunk {chunk} ({effect})")
            }
            EventKind::Nack { xfer, chunk, verdict } => {
                write!(f, "nack {xfer} chunk {chunk} -> {verdict:?}")
            }
            EventKind::Alive { peer, inc, advanced } => {
                let new = if advanced { " (new)" } else { "" };
                write!(f, "n{peer} alive at inc {inc}{new}")
            }
            EventKind::Ping { from } => write!(f, "ping from n{from}"),
        }
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

/// What a shard's queue holds.
#[derive(Clone, Debug)]
enum Work {
    /// A cross-node message that arrived over a channel.
    Net(Envelope),
    /// Launch (or relaunch) the next chunk of a local transfer.
    Launch {
        /// The posting node.
        node: u32,
        /// Index of the transfer on that node.
        index: u32,
    },
    /// A scripted node failure strikes (crash / NI hang / fault-service
    /// stall). `until` carries the recovery instant for stalls, whose
    /// end needs no event of its own.
    Crash { node: u32, kind: CrashKind, until: Option<SimTime> },
    /// A scripted recovery: reboot after a crash (new incarnation,
    /// grant-ledger replay, Hello broadcast) or the end of an NI hang
    /// (same incarnation, Hello broadcast).
    Recover { node: u32, kind: CrashKind },
    /// ACK-lease expiry check for one chunk launch: if the transfer's
    /// launch counter still equals `snapshot`, no ACK or NACK moved it
    /// since the launch — a detector miss.
    Lease { node: u32, index: u32, snapshot: u64 },
    /// Probe timer for a `Down` peer: send a Ping, reschedule under the
    /// shared retry policy's backoff.
    Probe { node: u32, peer: u32 },
}

/// A queued event with the layout-invariant ordering key.
#[derive(Clone, Debug)]
struct Ordered {
    at: SimTime,
    src_node: u32,
    seq: u64,
    work: Work,
}

impl Ordered {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.src_node, self.seq)
    }
}

impl PartialEq for Ordered {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Ordered {}

impl PartialOrd for Ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One persistent grant record on a node: replayed at reboot.
#[derive(Clone, Copy, Debug)]
struct GrantRecord {
    asid: Asid,
    va: VirtAddr,
    pages: u64,
    perms: Perms,
    pinned: bool,
}

/// One persistent pin record ([`ClusterSim::pin`]): replayed at reboot.
#[derive(Clone, Copy, Debug)]
struct PinRecord {
    asid: Asid,
    va: VirtAddr,
    len: u64,
}

/// One cluster node's complete local state.
#[derive(Clone, Debug)]
struct NodeWorld {
    mem: PhysMemory,
    iommu: Iommu,
    os: RemoteFaultService,
    /// The node's *sending* chaos link (None on an ideal wire).
    chaos: Option<FaultyLink>,
    /// Transfers this node posted, by posting index.
    xfers: Vec<SendXfer>,
    /// Destination ranges announced *to* this node, by sender transfer.
    announced: BTreeMap<XferId, DstAnnouncement>,
    /// Receive-side link counters.
    link_stats: NodeLinkStats,
    /// NACKs raised by this node's receive path.
    nacks_raised: u64,
    /// Monotonic emission counter — the `seq` of every event and
    /// message this node originates. Survives a crash: it is the
    /// link-level serial that keeps the ordering key sound across
    /// incarnations.
    seq: u64,
    /// Powered and running (false between a crash and its reboot).
    up: bool,
    /// NI engine hung: frames to and from the node vanish, state stays.
    hung: bool,
    /// Incarnation epoch, bumped by every reboot.
    inc: u64,
    /// Fault-service stall: NACK servicing is deferred until here.
    stall_until: SimTime,
    /// This node's failure detector, one per destination peer
    /// (`BTreeMap` for deterministic aggregation).
    peers: BTreeMap<u32, PeerHealth>,
    /// Persistent grant ledger — the only node state a reboot replays.
    grants: Vec<GrantRecord>,
    /// Persistent pin ledger (partial pins via [`ClusterSim::pin`]).
    pins: Vec<PinRecord>,
    /// Node-failure accounting.
    crash: CrashStats,
    /// Outage durations this node's detector measured end-to-end (peer
    /// went `Down` → first byte of progress after recovery).
    recovery_samples: Vec<SimTime>,
}

impl NodeWorld {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// The incarnation this node believes `peer` is at (what it stamps
    /// as `dst_inc` on envelopes to `peer`).
    fn believed_inc(&self, peer: u32) -> u64 {
        self.peers.get(&peer).map_or(0, |p| p.incarnation())
    }
}

/// One shard: the nodes it owns, its event queue, and its channel
/// endpoints (one channel per ordered shard pair, self included).
struct Shard {
    num_shards: usize,
    num_nodes: u32,
    nodes: BTreeMap<u32, NodeWorld>,
    rx: Vec<SimReceiver<Envelope>>,
    tx: Vec<SimSender<Envelope>>,
    queue: BinaryHeap<Reverse<Ordered>>,
    scratch: Vec<Stamped<Envelope>>,
    link: LinkModel,
    rel: ReliabilityConfig,
    announce: bool,
    health: HealthConfig,
    /// Node fault domain armed: at least one [`CrashPlan`] was
    /// injected. While false, no lease, probe, crash or fencing code
    /// runs at all — the zero-delta guarantee for crash-free configs.
    fault_active: bool,
    /// Rebuild parameters for a rebooting node's volatile state.
    node_bytes: u64,
    iotlb: IotlbConfig,
    costs: FaultCosts,
    log: Option<Vec<LogLine>>,
}

impl Shard {
    fn shard_of(&self, node: u32) -> usize {
        node as usize % self.num_shards
    }

    fn log_event(&mut self, at: SimTime, src_node: u32, seq: u64, node: u32, kind: EventKind) {
        if let Some(log) = &mut self.log {
            log.push(LogLine { at, src_node, seq, node, kind });
        }
    }

    /// Processes one event. All sends happen here, stamped from the
    /// event's own time, so the lookahead contract holds by
    /// construction.
    fn dispatch(&mut self, ev: Ordered) {
        let Ordered { at, src_node, seq, work } = ev;
        match work {
            Work::Launch { node, index } => self.dispatch_launch(at, src_node, seq, node, index),
            Work::Net(env) => self.dispatch_net(at, seq, env),
            Work::Crash { node, kind, until } => self.dispatch_crash(at, seq, node, kind, until),
            Work::Recover { node, kind } => self.dispatch_recover(at, seq, node, kind),
            Work::Lease { node, index, snapshot } => {
                self.dispatch_lease(at, seq, node, index, snapshot)
            }
            Work::Probe { node, peer } => self.dispatch_probe(at, seq, node, peer),
        }
    }

    fn dispatch_launch(&mut self, at: SimTime, src_node: u32, seq: u64, node: u32, index: u32) {
        let fault_active = self.fault_active;
        let n = self.nodes.get_mut(&node).expect("launch on foreign node");
        let x = &mut n.xfers[index as usize];
        if x.state().terminal() {
            // A retry raced a link failure; nothing to send.
            self.log_event(at, src_node, seq, node, EventKind::LaunchSkipped { index });
            return;
        }
        let dst_shard = x.dst_node as usize % self.num_shards;
        let dst_node = x.dst_node;
        if fault_active {
            // A crashed node posts nothing: a launch scheduled into its
            // downtime dies on the floor of a machine that is off.
            if !n.up {
                let x = &mut n.xfers[index as usize];
                x.abort_node_down(at);
                self.log_event(at, src_node, seq, node, EventKind::LaunchOnDeadNode { index });
                return;
            }
            // Fail fast while this sender's detector holds the
            // destination `Down`: the in-order prefix stands, status
            // reads node-down, no frame is wasted on a dead peer.
            if !n.peers.entry(dst_node).or_default().admit() {
                let x = &mut n.xfers[index as usize];
                x.abort_node_down(at);
                let kind = EventKind::LaunchFailFast { index, dst: dst_node };
                self.log_event(at, src_node, seq, node, kind);
                return;
            }
        }
        let src_inc = n.inc;
        let dst_inc = n.believed_inc(dst_node);
        // The first launch of an announcing transfer carries the
        // destination range ahead of its data (same emitter, so the
        // announce's smaller seq orders it first even on an arrival
        // tie). A transfer restarted into a rebooted destination
        // re-announces into the fresh receive state.
        let hung = n.hung;
        if self.announce && n.xfers[index as usize].take_announce() {
            let x = &n.xfers[index as usize];
            let env = Envelope {
                src_node: node,
                dst_node,
                seq: n.seq,
                src_inc,
                dst_inc,
                msg: NetMsg::Announce { xfer: x.id, ann: x.announcement() },
            };
            n.seq += 1;
            if hung {
                n.crash.dropped_down += 1;
            } else {
                self.tx[dst_shard].send(at, env);
            }
        }
        let (msg, arrival) =
            n.xfers[index as usize].launch_chunk(at, &self.link, &self.rel, n.chaos.as_mut());
        let x = &n.xfers[index as usize];
        let wire = if x.state() == XferState::LinkFailed {
            LaunchWire::LinkFailed
        } else if hung {
            LaunchWire::HungNi
        } else {
            LaunchWire::Ok
        };
        let kind = EventKind::Launch { xfer: x.id, dst: dst_node, arrival, wire };
        let launches = x.counters.launches;
        let env = Envelope { src_node: node, dst_node, seq: n.seq, src_inc, dst_inc, msg };
        n.seq += 1;
        if hung {
            // The NI is hung: the go-back-N engine ran (and billed) the
            // launch, but no frame left the board.
            n.crash.dropped_down += 1;
        } else {
            self.tx[dst_shard].send_arriving(at, arrival, env);
        }
        // Arm the ACK lease for this launch: if neither an ACK nor a
        // NACK has moved the launch counter when it fires, that is a
        // detector miss. Crash-free clusters schedule no lease at all.
        if fault_active && !n.xfers[index as usize].state().terminal() {
            let lease_at = at + self.health.lease;
            let lease_seq = n.next_seq();
            self.queue.push(Reverse(Ordered {
                at: lease_at,
                src_node: node,
                seq: lease_seq,
                work: Work::Lease { node, index, snapshot: launches },
            }));
        }
        self.log_event(at, src_node, seq, node, kind);
    }

    /// A scripted failure strikes `node`.
    fn dispatch_crash(
        &mut self,
        at: SimTime,
        seq: u64,
        node: u32,
        kind: CrashKind,
        until: Option<SimTime>,
    ) {
        let n = self.nodes.get_mut(&node).expect("crash on foreign node");
        let event = match kind {
            CrashKind::Crash => {
                n.up = false;
                n.hung = false;
                n.crash.crashes += 1;
                // Volatile receive state dies now: announced windows are
                // fenced; memory/IOMMU/OS are rebuilt at reboot.
                n.crash.fenced_faults += n.announced.len() as u64;
                n.announced.clear();
                // The node was mid-sentence as a sender too: every
                // transfer it had in flight dies with it. Posts whose
                // launch time lies beyond the crash stay pending — if
                // the node is back up by then, they run.
                let mut killed = 0;
                for x in &mut n.xfers {
                    if x.state() == XferState::Streaming && x.abort_node_down(at) {
                        killed += 1;
                    }
                }
                EventKind::Crash { killed }
            }
            CrashKind::NiHang => {
                n.hung = true;
                n.crash.hangs += 1;
                EventKind::NiHang
            }
            CrashKind::FaultStall => {
                n.crash.stalls += 1;
                n.stall_until = until.unwrap_or(at);
                EventKind::FaultStall { until: n.stall_until }
            }
        };
        self.log_event(at, node, seq, node, event);
    }

    /// A scripted recovery: reboot (new incarnation, ledger replay,
    /// Hello broadcast) or hang end (same incarnation, Hello broadcast).
    fn dispatch_recover(&mut self, at: SimTime, seq: u64, node: u32, kind: CrashKind) {
        let n = self.nodes.get_mut(&node).expect("recover on foreign node");
        let event = match kind {
            CrashKind::Crash => {
                if n.up {
                    // Overlapping crash windows merged: an earlier reboot
                    // already brought the node back.
                    return;
                }
                n.up = true;
                n.inc += 1;
                n.crash.reboots += 1;
                // Fresh volatile state: zeroed memory, an empty IOMMU,
                // a new OS. Then the recovery handshake replays the
                // persistent grant and pin ledgers into it.
                n.mem = PhysMemory::new(self.node_bytes);
                n.iommu = Iommu::new(self.iotlb);
                n.os = RemoteFaultService::new(self.node_bytes, self.costs);
                n.announced.clear();
                n.stall_until = SimTime::ZERO;
                for g in n.grants.clone() {
                    if !n.iommu.has_context(g.asid) {
                        n.iommu.create_context(g.asid);
                    }
                    if g.pinned {
                        n.os.expose_pinned(g.asid, g.va, g.pages, g.perms, &mut n.iommu)
                            .expect("replaying a grant that fit before the crash");
                        n.crash.repins += 1;
                    } else {
                        n.os.expose(g.asid, g.va, g.pages, g.perms)
                            .expect("replaying a grant that fit before the crash");
                    }
                    n.crash.regrants += 1;
                }
                for p in n.pins.clone() {
                    n.os.pin_into(p.asid, p.va, p.len, &mut n.iommu)
                        .expect("re-pinning a replayed range into a fresh IOMMU");
                    n.crash.repins += 1;
                }
                EventKind::Reboot { inc: n.inc }
            }
            CrashKind::NiHang => {
                if !n.up {
                    // The node crashed under the hang; the reboot, not
                    // the unhang, will announce it.
                    return;
                }
                n.hung = false;
                EventKind::Unhang
            }
            // Stall ends are data (`stall_until`), not events.
            CrashKind::FaultStall => return,
        };
        // Back in service either way: announce it. The Hello broadcast
        // moves peers `Down → Recovering` (rescuing probers whose
        // budget ran dry) and, after a reboot, carries the advanced
        // incarnation that fences every pre-crash frame.
        let inc = n.inc;
        for peer in 0..self.num_nodes {
            if peer == node {
                continue;
            }
            let n = self.nodes.get_mut(&node).expect("recover on foreign node");
            let env = Envelope {
                src_node: node,
                dst_node: peer,
                seq: n.next_seq(),
                src_inc: inc,
                dst_inc: n.believed_inc(peer),
                msg: NetMsg::Hello { inc },
            };
            self.tx[peer as usize % self.num_shards].send(at, env);
        }
        self.log_event(at, node, seq, node, event);
    }

    /// An ACK lease fired: decide whether it was a miss, and what the
    /// miss means.
    fn dispatch_lease(&mut self, at: SimTime, seq: u64, node: u32, index: u32, snapshot: u64) {
        let n = self.nodes.get_mut(&node).expect("lease on foreign node");
        let x = &n.xfers[index as usize];
        if x.state().terminal() || x.counters.launches != snapshot {
            // An ACK, NACK or relaunch moved the transfer since this
            // lease was armed — not a miss.
            self.log_event(at, node, seq, node, EventKind::LeaseSuperseded { index });
            return;
        }
        let dst = x.dst_node;
        let state = n.peers.entry(dst).or_default().on_miss(&self.health, at);
        if state == HealthState::Down {
            // The detector tripped: abort everything in flight toward
            // the dead peer — each keeps exactly its acked prefix — and
            // start probing under the shared retry policy.
            let mut killed = 0;
            for x in n.xfers.iter_mut().filter(|x| x.dst_node == dst) {
                if x.abort_node_down(at) {
                    killed += 1;
                }
            }
            let probe = n.peers.get_mut(&dst).expect("entry above").next_probe(&self.health);
            if let Some(backoff) = probe {
                let probe_seq = n.next_seq();
                self.queue.push(Reverse(Ordered {
                    at: at + backoff,
                    src_node: node,
                    seq: probe_seq,
                    work: Work::Probe { node, peer: dst },
                }));
            }
            let kind = EventKind::LeaseDown { index, peer: dst, aborted: killed };
            self.log_event(at, node, seq, node, kind);
        } else {
            // Suspect (or still counting): go-back-N resends the unacked
            // chunk; the relaunch arms the next lease.
            let launch_seq = n.next_seq();
            self.queue.push(Reverse(Ordered {
                at,
                src_node: node,
                seq: launch_seq,
                work: Work::Launch { node, index },
            }));
            self.log_event(at, node, seq, node, EventKind::LeaseRelaunch { index, state });
        }
    }

    /// A probe timer fired for a `Down` peer.
    fn dispatch_probe(&mut self, at: SimTime, seq: u64, node: u32, peer: u32) {
        let n = self.nodes.get_mut(&node).expect("probe on foreign node");
        if !n.up {
            // The prober itself died in the meantime.
            return;
        }
        let state = n.peers.get(&peer).map_or(HealthState::Up, |p| p.state());
        if state != HealthState::Down {
            self.log_event(at, node, seq, node, EventKind::ProbeCancelled { peer });
            return;
        }
        let env = Envelope {
            src_node: node,
            dst_node: peer,
            seq: n.next_seq(),
            src_inc: n.inc,
            dst_inc: n.believed_inc(peer),
            msg: NetMsg::Ping,
        };
        if n.hung {
            n.crash.dropped_down += 1;
        } else {
            self.tx[peer as usize % self.num_shards].send(at, env);
        }
        // Next attempt, until the budget runs dry — after that only the
        // peer's own Hello can rescue it.
        let next = n.peers.get_mut(&peer).expect("state above").next_probe(&self.health);
        if let Some(backoff) = next {
            let probe_seq = n.next_seq();
            self.queue.push(Reverse(Ordered {
                at: at + backoff,
                src_node: node,
                seq: probe_seq,
                work: Work::Probe { node, peer },
            }));
        }
        self.log_event(at, node, seq, node, EventKind::Probe { peer, state });
    }

    fn dispatch_net(&mut self, at: SimTime, seq: u64, env: Envelope) {
        let Envelope { src_node, dst_node, seq: _, src_inc, dst_inc, msg } = env;
        if self.fault_active {
            let n = self.nodes.get_mut(&dst_node).expect("net to foreign node");
            // A dead or hung node hears nothing; the frame evaporates.
            if !n.up || n.hung {
                n.crash.dropped_down += 1;
                self.log_event(at, src_node, seq, dst_node, EventKind::FrameDropped);
                return;
            }
            if msg.stateful() {
                // Incarnation fence, both directions: a frame aimed at a
                // previous life of this node, or sent by a previous life
                // of the peer, is a ghost — drop it before it touches
                // receive or transfer state. Hello/Ping/Pong are exempt:
                // they are how epochs propagate.
                if dst_inc != n.inc {
                    n.crash.fenced += 1;
                    let kind = EventKind::FencedForInc { sent_for: dst_inc, current: n.inc };
                    self.log_event(at, src_node, seq, dst_node, kind);
                    return;
                }
                if n.peers.entry(src_node).or_default().note_epoch(src_inc) {
                    n.crash.fenced += 1;
                    let kind = EventKind::FencedStale { inc: src_inc, from: src_node };
                    self.log_event(at, src_node, seq, dst_node, kind);
                    return;
                }
            }
        }
        match msg {
            NetMsg::Announce { xfer, ann } => {
                let n = self.nodes.get_mut(&dst_node).expect("announce to foreign node");
                n.announced.insert(xfer, ann);
                let kind = EventKind::Announce { xfer, va: ann.va, len: ann.len };
                self.log_event(at, src_node, seq, dst_node, kind);
            }
            NetMsg::Data { xfer, chunk, asid, va, bytes, outcome } => {
                let n = self.nodes.get_mut(&dst_node).expect("data to foreign node");
                // The receive PHY saw the frames whether or not anything
                // useful arrived.
                n.link_stats.deliveries += 1;
                n.link_stats.bytes_accepted += outcome.delivered;
                n.link_stats.retransmits += u64::from(outcome.retransmits);
                n.link_stats.crc_dropped += u64::from(outcome.crc_dropped);
                n.link_stats.dup_ignored += u64::from(outcome.dup_ignored);
                n.link_stats.ooo_discarded += u64::from(outcome.ooo_discarded);
                if bytes.is_empty() {
                    self.log_event(
                        at,
                        src_node,
                        seq,
                        dst_node,
                        EventKind::DataEmpty { xfer, chunk },
                    );
                    return;
                }
                match n.iommu.translate(asid, va, Access::Write) {
                    Ok(pa) => {
                        n.mem.write_bytes(pa, &bytes).expect("translated deposit in range");
                        let accepted = bytes.len() as u64;
                        let env = Envelope {
                            src_node: dst_node,
                            dst_node: src_node,
                            seq: n.seq,
                            src_inc: n.inc,
                            // The reply is for the life of the peer that
                            // sent the data, echoed off the frame itself.
                            dst_inc: src_inc,
                            msg: NetMsg::Ack { xfer, chunk, accepted },
                        };
                        n.seq += 1;
                        let back = self.shard_of(src_node);
                        self.tx[back].send(at, env);
                        let kind = EventKind::Data { xfer, chunk, accepted, va };
                        self.log_event(at, src_node, seq, dst_node, kind);
                    }
                    Err(fault) => {
                        n.nacks_raised += 1;
                        // The node OS services the fault before the NACK
                        // departs; the service time rides on the NACK's
                        // arrival stamp, exactly the "link round trip
                        // plus a fault service" of the follow-on papers.
                        let (res, cost) = match n.announced.get(&xfer).copied() {
                            Some(ann) => {
                                n.os.service_announced(&fault, ann.va, ann.len, &mut n.iommu)
                            }
                            None => n.os.service(&fault, &mut n.iommu),
                        };
                        let resolvable = res != FaultResolution::Unresolvable;
                        let env = Envelope {
                            src_node: dst_node,
                            dst_node: src_node,
                            seq: n.seq,
                            src_inc: n.inc,
                            dst_inc: src_inc,
                            msg: NetMsg::Nack { xfer, chunk, fault, resolvable },
                        };
                        n.seq += 1;
                        // A stalled fault service queues the miss behind
                        // whatever it is stuck on; the NACK departs only
                        // once the stall clears.
                        let service_at = if self.fault_active { at.max(n.stall_until) } else { at };
                        let back = self.shard_of(src_node);
                        self.tx[back].send_arriving(
                            at,
                            service_at + cost + self.link.latency(),
                            env,
                        );
                        let kind = EventKind::DataNack { xfer, chunk, res };
                        self.log_event(at, src_node, seq, dst_node, kind);
                    }
                }
            }
            NetMsg::Ack { xfer, chunk, accepted } => {
                let n = self.nodes.get_mut(&dst_node).expect("ack to foreign node");
                if self.fault_active && accepted > 0 {
                    // Fresh progress from the peer: clear the miss streak
                    // and, if it had been down, close the outage sample.
                    if let Some(outage) = n.peers.entry(src_node).or_default().on_progress(at) {
                        n.recovery_samples.push(outage);
                    }
                }
                let x = &mut n.xfers[xfer.index as usize];
                let done = x.on_ack(chunk, accepted, at);
                let more = !x.state().terminal();
                let effect = if done {
                    AckEffect::Complete
                } else if more {
                    AckEffect::NextChunk
                } else {
                    AckEffect::Stale
                };
                if more {
                    let launch_seq = n.next_seq();
                    self.queue.push(Reverse(Ordered {
                        at,
                        src_node: dst_node,
                        seq: launch_seq,
                        work: Work::Launch { node: dst_node, index: xfer.index },
                    }));
                }
                self.log_event(at, src_node, seq, dst_node, EventKind::Ack { xfer, chunk, effect });
            }
            NetMsg::Nack { xfer, chunk, resolvable, .. } => {
                let n = self.nodes.get_mut(&dst_node).expect("nack to foreign node");
                if self.fault_active {
                    // Even a NACK proves the peer is alive at `src_inc`.
                    n.peers.entry(src_node).or_default().on_alive(src_inc);
                }
                let x = &mut n.xfers[xfer.index as usize];
                let verdict = x.on_nack(chunk, resolvable, at, &self.rel.retry);
                if let NackVerdict::Retry(when) = verdict {
                    let launch_seq = n.next_seq();
                    self.queue.push(Reverse(Ordered {
                        at: when,
                        src_node: dst_node,
                        seq: launch_seq,
                        work: Work::Launch { node: dst_node, index: xfer.index },
                    }));
                }
                let kind = EventKind::Nack { xfer, chunk, verdict };
                self.log_event(at, src_node, seq, dst_node, kind);
            }
            NetMsg::Hello { inc } | NetMsg::Pong { inc } => {
                self.on_peer_alive(at, seq, src_node, dst_node, inc);
            }
            NetMsg::Ping => {
                let n = self.nodes.get_mut(&dst_node).expect("ping to foreign node");
                n.peers.entry(src_node).or_default().on_alive(src_inc);
                let env = Envelope {
                    src_node: dst_node,
                    dst_node: src_node,
                    seq: n.next_seq(),
                    src_inc: n.inc,
                    dst_inc: src_inc,
                    msg: NetMsg::Pong { inc: n.inc },
                };
                let back = self.shard_of(src_node);
                self.tx[back].send(at, env);
                self.log_event(at, src_node, seq, dst_node, EventKind::Ping { from: src_node });
            }
        }
    }

    /// A `Hello` or `Pong` announced that `src_node` is in service at
    /// incarnation `inc`. Moves it out of `Down`, and resumes (or, if
    /// its reboot tore their prefix, fails) in-flight transfers to it.
    fn on_peer_alive(&mut self, at: SimTime, seq: u64, src_node: u32, dst_node: u32, inc: u64) {
        let n = self.nodes.get_mut(&dst_node).expect("hello to foreign node");
        let advanced = n.peers.entry(src_node).or_default().on_alive(inc);
        let mut relaunch = Vec::new();
        for (i, x) in n.xfers.iter_mut().enumerate() {
            if x.dst_node != src_node || x.state().terminal() || x.state() == XferState::Pending {
                continue;
            }
            if advanced && x.cursor() > 0 {
                // The destination rebooted under this transfer's feet:
                // its acked prefix landed in memory that no longer
                // exists. Resuming mid-stream would hand the app a torn
                // buffer — fail it, keeping the honest prefix count.
                x.abort_node_down(at);
            } else {
                if advanced {
                    // Nothing acked yet: restart from byte zero into the
                    // new incarnation, announcing the window afresh.
                    x.restart_for_new_epoch();
                }
                relaunch.push(i as u32);
            }
        }
        for index in relaunch {
            let launch_seq = n.next_seq();
            self.queue.push(Reverse(Ordered {
                at,
                src_node: dst_node,
                seq: launch_seq,
                work: Work::Launch { node: dst_node, index },
            }));
        }
        let kind = EventKind::Alive { peer: src_node, inc, advanced };
        self.log_event(at, src_node, seq, dst_node, kind);
    }
}

impl SimComponent for Shard {
    fn drain(&mut self) {
        for r in &mut self.rx {
            r.drain_into(&mut self.scratch);
        }
        for m in self.scratch.drain(..) {
            self.queue.push(Reverse(Ordered {
                at: m.at,
                src_node: m.payload.src_node,
                seq: m.payload.seq,
                work: Work::Net(m.payload),
            }));
        }
    }

    fn next_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(ev)| ev.at)
    }

    fn advance(&mut self, horizon: SimTime) -> u64 {
        let mut done = 0;
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at >= horizon {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.dispatch(ev);
            done += 1;
        }
        done
    }
}

/// A cluster of user-level-DMA nodes on the sharded deterministic
/// simulation core. Build, [`grant`](Self::grant) destination buffers,
/// [`post`](Self::post) transfers, [`run`](Self::run), then compare
/// [`digest`](Self::digest)s or read memories.
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
    /// ordered shard pair gets a channel.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(mut cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0, "a cluster needs at least one node");
        cfg.shards = cfg.shards.clamp(1, cfg.nodes as usize);
        let num_shards = cfg.shards;
        let builder = ChannelBuilder::new(cfg.link.latency());
        // Channel matrix: tx[src][dst] pairs with rx[dst][src].
        let mut rx_grid: Vec<Vec<Option<SimReceiver<Envelope>>>> =
            (0..num_shards).map(|_| (0..num_shards).map(|_| None).collect()).collect();
        let mut tx_grid: Vec<Vec<SimSender<Envelope>>> = Vec::with_capacity(num_shards);
        for src in 0..num_shards {
            let mut row = Vec::with_capacity(num_shards);
            for rx_row in rx_grid.iter_mut() {
                let (tx, rx) = builder.channel(src);
                row.push(tx);
                rx_row[src] = Some(rx);
            }
            tx_grid.push(row);
        }
        let mut shards: Vec<Shard> = tx_grid
            .into_iter()
            .zip(rx_grid)
            .map(|(tx, rx_row)| Shard {
                num_shards,
                num_nodes: cfg.nodes,
                nodes: BTreeMap::new(),
                rx: rx_row.into_iter().map(|r| r.expect("full matrix")).collect(),
                tx,
                queue: BinaryHeap::new(),
                scratch: Vec::new(),
                link: cfg.link,
                rel: cfg.reliability,
                announce: cfg.announce,
                health: cfg.health,
                fault_active: false,
                node_bytes: cfg.node_bytes,
                iotlb: cfg.iotlb,
                costs: cfg.costs,
                log: cfg.record_log.then(Vec::new),
            })
            .collect();
        for node in 0..cfg.nodes {
            let chaos = cfg.chaos.map(|plan| {
                // Decorrelate the per-node packet stories while keeping
                // the whole cluster reproducible from one seed.
                let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(node) + 1);
                FaultyLink::new(FaultPlan { seed: plan.seed ^ salt, ..plan })
            });
            // Nodes are symmetric: every node can receive into any ASID
            // a grant later creates; contexts are created on grant.
            let world = NodeWorld {
                mem: PhysMemory::new(cfg.node_bytes),
                iommu: Iommu::new(cfg.iotlb),
                os: RemoteFaultService::new(cfg.node_bytes, cfg.costs),
                chaos,
                xfers: Vec::new(),
                announced: BTreeMap::new(),
                link_stats: NodeLinkStats::default(),
                nacks_raised: 0,
                seq: 0,
                up: true,
                hung: false,
                inc: 0,
                stall_until: SimTime::ZERO,
                peers: BTreeMap::new(),
                grants: Vec::new(),
                pins: Vec::new(),
                crash: CrashStats::default(),
                recovery_samples: Vec::new(),
            };
            shards[node as usize % num_shards].nodes.insert(node, world);
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

    fn node_mut(&mut self, node: u32) -> &mut NodeWorld {
        let shard = node as usize % self.cfg.shards;
        self.shards[shard].nodes.get_mut(&node).expect("node exists")
    }

    fn node_ref(&self, node: u32) -> &NodeWorld {
        let shard = node as usize % self.cfg.shards;
        self.shards[shard].nodes.get(&node).expect("node exists")
    }

    /// Exposes `pages` fresh frames at `va` in `asid` on `node` — the
    /// remote process offering memory for incoming RDMA. Creates the
    /// IOMMU context on first use; under
    /// [`pin_on_post`](ClusterConfig::pin_on_post) also registers the
    /// whole buffer so no chunk ever NACKs.
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
        let n = self.node_mut(node);
        if !n.iommu.has_context(asid) {
            n.iommu.create_context(asid);
        }
        if pin {
            n.os.expose_pinned(asid, va, pages, perms, &mut n.iommu)?;
        } else {
            n.os.expose(asid, va, pages, perms)?;
        }
        // Grants are durable control-plane state: a reboot replays this
        // ledger into the fresh OS and IOMMU before saying Hello.
        n.grants.push(GrantRecord { asid, va, pages, perms, pinned: pin });
        Ok(())
    }

    /// Registers (pins) `[va, va + len)` of `asid` into `node`'s IOMMU —
    /// the warm fraction of an E13-style partially prefaulted buffer.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] at the first hole.
    pub fn pin(&mut self, node: u32, asid: Asid, va: VirtAddr, len: u64) -> Result<u64, MemFault> {
        let n = self.node_mut(node);
        let pinned = n.os.pin_into(asid, va, len, &mut n.iommu)?;
        n.pins.push(PinRecord { asid, va, len });
        Ok(pinned)
    }

    /// Swaps `page` of `asid` out of `node` (cold-page setup for the
    /// swap-in fault path).
    ///
    /// # Errors
    ///
    /// As for [`RemoteFaultService::swap_out`].
    pub fn swap_out(
        &mut self,
        node: u32,
        asid: Asid,
        page: VirtPage,
    ) -> Result<(), RemoteSwapRefused> {
        let n = self.node_mut(node);
        n.os.swap_out(asid, page, &mut n.iommu)
    }

    /// Schedules a scripted node failure (and, if the plan recovers, the
    /// matching recovery) on the victim's own shard, ordered by the
    /// victim's emission counter like any other event.
    ///
    /// The first injection arms the fault domain on every shard: ACK
    /// leases, incarnation fences and health tracking come alive. A run
    /// with no injected plan schedules none of it and is bit-for-bit the
    /// digest of a build without the fault domain at all.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a node out of range.
    pub fn inject_crash(&mut self, plan: CrashPlan) {
        assert!(plan.node < self.cfg.nodes, "crash on node out of range");
        for s in &mut self.shards {
            s.fault_active = true;
        }
        let shard = plan.node as usize % self.cfg.shards;
        let until = plan.recovery_at();
        let n = self.shards[shard].nodes.get_mut(&plan.node).expect("node exists");
        let seq = n.next_seq();
        self.shards[shard].queue.push(Reverse(Ordered {
            at: plan.at,
            src_node: plan.node,
            seq,
            work: Work::Crash { node: plan.node, kind: plan.kind, until },
        }));
        if plan.kind != CrashKind::FaultStall {
            if let Some(when) = until {
                let n = self.shards[shard].nodes.get_mut(&plan.node).expect("node exists");
                let seq = n.next_seq();
                self.shards[shard].queue.push(Reverse(Ordered {
                    at: when,
                    src_node: plan.node,
                    seq,
                    work: Work::Recover { node: plan.node, kind: plan.kind },
                }));
            }
        }
    }

    /// True while `node` has not crashed (or has rebooted).
    pub fn node_up(&self, node: u32) -> bool {
        self.node_ref(node).up
    }

    /// `node`'s current incarnation epoch (0 until its first reboot).
    pub fn node_incarnation(&self, node: u32) -> u64 {
        self.node_ref(node).inc
    }

    /// `node`'s crash/fence/replay counters.
    pub fn crash_stats(&self, node: u32) -> CrashStats {
        self.node_ref(node).crash
    }

    /// What `node`'s failure detector currently believes about `peer`.
    pub fn node_health(&self, node: u32, peer: u32) -> HealthState {
        self.node_ref(node).peers.get(&peer).map_or(HealthState::Up, |p| p.state())
    }

    /// Closed outage samples — detector-trip to first fresh progress —
    /// concatenated in node order (the E19 recovery-latency input).
    pub fn recovery_samples(&self) -> Vec<SimTime> {
        (0..self.cfg.nodes)
            .flat_map(|n| self.node_ref(n).recovery_samples.iter().copied())
            .collect()
    }

    /// Posts a transfer of `len` deterministic pattern bytes from
    /// `src_node` into `(asid, va)` on `dst_node`, launching at `at`.
    /// Returns the transfer's cluster-wide id.
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
        assert!(src_node < self.cfg.nodes && dst_node < self.cfg.nodes, "node out of range");
        assert!(len > 0, "zero-byte transfer");
        let shard = src_node as usize % self.cfg.shards;
        let n = self.shards[shard].nodes.get_mut(&src_node).expect("node exists");
        let id = XferId { node: src_node, index: n.xfers.len() as u32 };
        let data = pattern_bytes(id, len);
        n.xfers.push(SendXfer::new(id, dst_node, asid, va, data, at));
        let seq = n.next_seq();
        self.shards[shard].queue.push(Reverse(Ordered {
            at,
            src_node,
            seq,
            work: Work::Launch { node: src_node, index: id.index },
        }));
        self.posted += 1;
        id
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
    /// [`MemFault::BusError`] outside the node's RAM.
    pub fn read_mem(&self, node: u32, pa: PhysAddr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.node_ref(node).mem.read_bytes(pa, buf)
    }

    /// Translates `(asid, va)` through `node`'s resident IOTLB entries
    /// without counting stats or touching replacement state (test
    /// inspection of where a deposit landed): probing leaves
    /// [`digest`](Self::digest) unchanged.
    pub fn probe(&self, node: u32, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        let n = self.node_ref(node);
        n.iommu.peek(asid, va.page(), Access::Read).map(|frame| frame.base() + va.page_offset())
    }

    /// The digest of one transfer.
    pub fn xfer(&self, id: XferId) -> XferDigest {
        let x = &self.node_ref(id.node).xfers[id.index as usize];
        XferDigest {
            id: x.id,
            state: x.state(),
            counters: x.counters,
            posted_at: x.posted_at,
            finished: x.finished,
        }
    }

    /// The full observable outcome: per-node memory CRCs and counters,
    /// per-transfer outcomes, event totals, and (if recorded) the
    /// merged event log in key order.
    pub fn digest(&self) -> ClusterDigest {
        let mut nodes = Vec::with_capacity(self.cfg.nodes as usize);
        let mut xfers = Vec::new();
        for node in 0..self.cfg.nodes {
            let n = self.node_ref(node);
            let mut health = HealthStats::default();
            for p in n.peers.values() {
                health.absorb(&p.stats);
            }
            nodes.push(NodeDigest {
                node,
                mem_crc: mem_crc(&n.mem),
                iotlb: n.iommu.stats(),
                faults: n.os.stats(),
                link: n.link_stats,
                nacks_raised: n.nacks_raised,
                inc: n.inc,
                crash: n.crash,
                health,
            });
            for x in &n.xfers {
                xfers.push(XferDigest {
                    id: x.id,
                    state: x.state(),
                    counters: x.counters,
                    posted_at: x.posted_at,
                    finished: x.finished,
                });
            }
        }
        let mut log: Vec<LogLine> =
            self.shards.iter().filter_map(|s| s.log.as_ref()).flatten().copied().collect();
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
            udma_nic::crc32(&ClusterSim::expected_payload(XferId { node, index }, len))
        };
        assert_eq!(crc(0, 0, 5000), 0x9812_CBC1);
        assert_eq!(crc(3, 17, 8192), 0x7AD1_D646);
        let long = ClusterSim::expected_payload(XferId { node: 1, index: 2 }, 21);
        assert_eq!(ClusterSim::expected_payload(XferId { node: 1, index: 2 }, 13), long[..13]);
    }

    /// Every event kind renders the text the string log used to carry.
    #[test]
    fn event_kinds_render_the_legacy_text() {
        let xfer = XferId { node: 2, index: 5 };
        let at = SimTime::from_us(7);
        let cases = [
            (EventKind::LaunchSkipped { index: 3 }, "launch 3 skipped"),
            (EventKind::LaunchOnDeadNode { index: 3 }, "launch 3 on dead node"),
            (EventKind::LaunchFailFast { index: 3, dst: 4 }, "launch 3 fail-fast: n4 down"),
            (
                EventKind::Launch { xfer, dst: 4, arrival: at, wire: LaunchWire::Ok },
                "launch n2.x5 -> n4 arriving 7.000us (ok)",
            ),
            (
                EventKind::Launch { xfer, dst: 4, arrival: at, wire: LaunchWire::LinkFailed },
                "launch n2.x5 -> n4 arriving 7.000us (link-failed)",
            ),
            (
                EventKind::Launch { xfer, dst: 4, arrival: at, wire: LaunchWire::HungNi },
                "launch n2.x5 -> n4 arriving 7.000us (hung-ni)",
            ),
            (EventKind::Crash { killed: 2 }, "crash (2 own transfers died)"),
            (EventKind::NiHang, "ni-hang"),
            (EventKind::FaultStall { until: at }, "fault-service stall until 7.000us"),
            (EventKind::Reboot { inc: 1 }, "reboot -> inc 1"),
            (EventKind::Unhang, "unhang"),
            (EventKind::LeaseSuperseded { index: 3 }, "lease 3 superseded"),
            (
                EventKind::LeaseDown { index: 3, peer: 4, aborted: 2 },
                "lease 3 miss: n4 down, 2 transfers aborted",
            ),
            (
                EventKind::LeaseRelaunch { index: 3, state: HealthState::Suspect },
                "lease 3 miss (Suspect): relaunch",
            ),
            (EventKind::ProbeCancelled { peer: 4 }, "probe n4 cancelled"),
            (EventKind::Probe { peer: 4, state: HealthState::Down }, "probe n4 (Down)"),
            (EventKind::FrameDropped, "frame dropped: node dead"),
            (
                EventKind::FencedForInc { sent_for: 0, current: 1 },
                "fenced: for inc 0 but node is inc 1",
            ),
            (EventKind::FencedStale { inc: 0, from: 4 }, "fenced: stale inc 0 from n4"),
            (
                EventKind::Announce { xfer, va: VirtAddr::new(0x20000), len: 9 },
                "announce n2.x5 [0x20000, +9B]",
            ),
            (EventKind::DataEmpty { xfer, chunk: 1 }, "data n2.x5 chunk 1 empty"),
            (
                EventKind::Data { xfer, chunk: 1, accepted: 9, va: VirtAddr::new(0x20000) },
                "data n2.x5 chunk 1 +9B @ 0x20000",
            ),
            (
                EventKind::DataNack { xfer, chunk: 1, res: FaultResolution::Unresolvable },
                "data n2.x5 chunk 1 nack Unresolvable (fatal)",
            ),
            (
                EventKind::DataNack { xfer, chunk: 1, res: FaultResolution::Mapped },
                "data n2.x5 chunk 1 nack Mapped (resolvable)",
            ),
            (
                EventKind::Ack { xfer, chunk: 1, effect: AckEffect::Complete },
                "ack n2.x5 chunk 1 (complete)",
            ),
            (
                EventKind::Ack { xfer, chunk: 1, effect: AckEffect::NextChunk },
                "ack n2.x5 chunk 1 (next chunk)",
            ),
            (
                EventKind::Ack { xfer, chunk: 1, effect: AckEffect::Stale },
                "ack n2.x5 chunk 1 (stale)",
            ),
            (
                EventKind::Nack { xfer, chunk: 1, verdict: NackVerdict::Abort },
                "nack n2.x5 chunk 1 -> Abort",
            ),
            (
                EventKind::Nack { xfer, chunk: 1, verdict: NackVerdict::Retry(at) },
                "nack n2.x5 chunk 1 -> Retry(SimTime(7.000us))",
            ),
            (EventKind::Alive { peer: 4, inc: 1, advanced: true }, "n4 alive at inc 1 (new)"),
            (EventKind::Alive { peer: 4, inc: 0, advanced: false }, "n4 alive at inc 0"),
            (EventKind::Ping { from: 4 }, "ping from n4"),
        ];
        for (kind, want) in cases {
            assert_eq!(kind.to_string(), want, "{kind:?}");
        }
        let line = LogLine { at, src_node: 2, seq: 9, node: 4, kind: EventKind::NiHang };
        assert_eq!(line.to_string(), "[7.000us src=n2 seq=9] node 4: ni-hang");
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
}
