//! One shard of the cluster: its nodes, its event queue and its channel
//! endpoints, and the per-event handlers of a node.
//!
//! A handler is a method on the one [`Node`] the event is addressed to,
//! and reaches the rest of the cluster only through the shard's
//! [`Outbox`]: [`Node::emit`] sends a frame, [`Node::schedule`] queues
//! local work, and [`Outbox::log`] records the event. Every send is
//! stamped from the event's own time, so the lookahead contract holds
//! by construction.

use super::crash::{CrashKind, FaultDomain};
use super::event::{AckEffect, EventKind, LaunchWire, LogLine};
use super::health::HealthState;
use super::link::LinkUnit;
use super::node_os::NodeOs;
use super::ClusterConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use udma_bus::sim::{SimComponent, SimReceiver, SimSender, Stamped};
use udma_bus::SimTime;
use udma_nic::{Envelope, NackVerdict, NetMsg, XferState};
use udma_os::FaultResolution;

/// Work a node schedules for itself, or a frame addressed to it.
#[derive(Clone, Debug)]
pub(super) enum Work {
    /// A cross-node message; it runs on its `dst_node`. Every other
    /// kind runs on the node that queued it.
    Net(Envelope),
    /// Launch (or relaunch) the next chunk of a local transfer.
    Launch {
        /// Posting index of the transfer.
        index: u32,
    },
    /// A scripted node failure strikes (crash / NI hang / fault-service
    /// stall). `until` carries the recovery instant for stalls, whose
    /// end needs no event of its own.
    Crash { kind: CrashKind, until: Option<SimTime> },
    /// A scripted recovery: reboot after a crash (new incarnation,
    /// ledger replay, Hello broadcast) or the end of an NI hang (same
    /// incarnation, Hello broadcast).
    Recover { kind: CrashKind },
    /// ACK-lease expiry check for one chunk launch: if the transfer's
    /// launch counter still equals `snapshot`, no ACK or NACK moved it
    /// since the launch — a detector miss.
    Lease { index: u32, snapshot: u64 },
    /// Probe timer for a `Down` peer: send a Ping, reschedule under the
    /// shared retry policy's backoff.
    Probe { peer: u32 },
}

/// The ordering key of a queued event, `(at, src_node, seq)`, plus the
/// slab slot holding its work. `(src_node, seq)` names exactly one
/// event, so the slot never decides the order.
type Key = (SimTime, u32, u64, u32);

/// A shard's event queue: a min-heap of ordering keys over a slab of
/// queued [`Work`] with a free list. A heap sift moves a key, never the
/// work (a data frame's whole envelope), and a popped event's slot is
/// reused by the next push.
#[derive(Debug, Default)]
pub(super) struct EventQueue {
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<Option<Work>>,
    free: Vec<u32>,
}

impl EventQueue {
    /// Queues `work` under the key `(at, src_node, seq)`.
    pub(super) fn push(&mut self, at: SimTime, src_node: u32, seq: u64, work: Work) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(work);
                slot
            }
            None => {
                self.slab.push(Some(work));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at, src_node, seq, slot)));
    }

    /// The earliest queued event's time.
    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    /// Removes and returns the earliest event, `(at, src_node, seq,
    /// work)`, if it lies strictly before `horizon`.
    fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, u32, u64, Work)> {
        if self.next_time()? >= horizon {
            return None;
        }
        let Reverse((at, src_node, seq, slot)) = self.heap.pop()?;
        let work = self.slab[slot as usize].take().expect("a queued key's slot holds its work");
        self.free.push(slot);
        Some((at, src_node, seq, work))
    }
}

/// Everything of a shard a node handler may touch besides its own node:
/// the configuration, the channel senders to the other shards, the
/// event queue and the optional event log.
pub(super) struct Outbox {
    pub(super) cfg: ClusterConfig,
    /// `tx[s]` carries frames to shard `s`; `None` at this shard's own
    /// index, whose frames go straight into `queue`.
    pub(super) tx: Vec<Option<SimSender<Envelope>>>,
    pub(super) queue: EventQueue,
    pub(super) log: Option<Vec<LogLine>>,
}

impl Outbox {
    /// Records one event if the log is on.
    fn log(&mut self, at: SimTime, src_node: u32, seq: u64, node: u32, kind: EventKind) {
        if let Some(log) = &mut self.log {
            log.push(LogLine { at, src_node, seq, node, kind });
        }
    }

    /// When a frame sent at `at` arrives over the bare wire.
    fn hop(&self, at: SimTime) -> SimTime {
        at + self.cfg.link.latency()
    }

    /// Sends `env` at `at`, arriving at `arrival`: over the channel to
    /// the destination's shard, or straight into this shard's queue.
    ///
    /// # Panics
    ///
    /// Panics if `arrival < at + latency`, on either path — a frame that
    /// landed inside the round that sent it would break the lookahead
    /// contract the runner's determinism rests on.
    fn send(&mut self, at: SimTime, arrival: SimTime, env: Envelope) {
        match &mut self.tx[env.dst_node as usize % self.cfg.shards] {
            Some(tx) => {
                tx.send_arriving(at, arrival, env);
            }
            None => {
                let latency = self.cfg.link.latency();
                assert!(
                    arrival >= at + latency,
                    "lookahead violation: arrival {arrival} < now {at} + latency {latency}"
                );
                self.queue.push(arrival, env.src_node, env.seq, Work::Net(env));
            }
        }
    }
}

/// Panic message of a fault-domain event on an unarmed node: only
/// [`ClusterSim::inject_crash`](super::ClusterSim::inject_crash) queues
/// such events, and it arms every node first.
const UNARMED: &str = "fault-domain event on a node with no fault domain";

/// One cluster node: its OS, its link unit, and — only once a crash
/// plan was injected — its fault domain.
#[derive(Clone, Debug)]
pub(super) struct Node {
    pub(super) id: u32,
    pub(super) os: NodeOs,
    pub(super) link: LinkUnit,
    pub(super) fault: Option<FaultDomain>,
}

impl Node {
    /// This node's incarnation (0 without a fault domain).
    pub(super) fn inc(&self) -> u64 {
        self.fault.as_ref().map_or(0, |fd| fd.inc)
    }

    fn believed_inc(&self, peer: u32) -> u64 {
        self.fault.as_ref().map_or(0, |fd| fd.believed_inc(peer))
    }

    /// Stamps `msg` with this node's next emission serial and
    /// incarnation and sends it to `dst`, arriving at `arrival`.
    /// A hung NI ran (and billed) the send, but no frame leaves the
    /// board.
    fn emit(
        &mut self,
        out: &mut Outbox,
        at: SimTime,
        arrival: SimTime,
        dst: u32,
        dst_inc: u64,
        msg: NetMsg,
    ) {
        let seq = self.link.next_seq();
        let env =
            Envelope { src_node: self.id, dst_node: dst, seq, src_inc: self.inc(), dst_inc, msg };
        match &mut self.fault {
            Some(fd) if fd.hung => fd.stats.dropped_down += 1,
            _ => out.send(at, arrival, env),
        }
    }

    /// Queues `work` on this node at `at`, keyed by its next emission
    /// serial.
    pub(super) fn schedule(&mut self, out: &mut Outbox, at: SimTime, work: Work) {
        let seq = self.link.next_seq();
        out.queue.push(at, self.id, seq, work);
    }

    fn on_launch(&mut self, out: &mut Outbox, at: SimTime, seq: u64, index: u32) {
        let i = index as usize;
        let x = &mut self.link.xfers[i];
        if x.state().terminal() {
            // A retry raced a link failure; nothing to send.
            out.log(at, self.id, seq, self.id, EventKind::LaunchSkipped { index });
            return;
        }
        let dst = x.dst_node;
        if let Some(fd) = &mut self.fault {
            // A crashed node posts nothing: a launch scheduled into its
            // downtime dies on the floor of a machine that is off. And
            // while this sender's detector holds the destination `Down`,
            // it fails fast: the in-order prefix stands, status reads
            // node-down, no frame is wasted on a dead peer.
            let refused = if fd.down {
                Some(EventKind::LaunchOnDeadNode { index })
            } else if !fd.peer(dst).admit() {
                Some(EventKind::LaunchFailFast { index, dst })
            } else {
                None
            };
            if let Some(kind) = refused {
                x.abort_node_down(at);
                out.log(at, self.id, seq, self.id, kind);
                return;
            }
        }
        let dst_inc = self.believed_inc(dst);
        // The first launch of an announcing transfer carries the
        // destination range ahead of its data (same emitter, so the
        // announce's smaller seq orders it first even on an arrival
        // tie). A transfer restarted into a rebooted destination
        // re-announces into the fresh receive state.
        if out.cfg.announce && self.link.xfers[i].take_announce() {
            let x = &self.link.xfers[i];
            let msg = NetMsg::Announce { xfer: x.id, ann: x.announcement() };
            self.emit(out, at, out.hop(at), dst, dst_inc, msg);
        }
        let (msg, arrival) = self.link.launch(i, at, &out.cfg);
        let x = &self.link.xfers[i];
        let wire = if x.state() == XferState::LinkFailed {
            LaunchWire::LinkFailed
        } else if self.fault.as_ref().is_some_and(|fd| fd.hung) {
            LaunchWire::HungNi
        } else {
            LaunchWire::Ok
        };
        let kind = EventKind::Launch { xfer: x.id, dst, arrival, wire };
        let (snapshot, terminal) = (x.counters.launches, x.state().terminal());
        self.emit(out, at, arrival, dst, dst_inc, msg);
        // Arm the ACK lease for this launch: if neither an ACK nor a
        // NACK has moved the launch counter when it fires, that is a
        // detector miss. Crash-free clusters schedule no lease at all.
        if self.fault.is_some() && !terminal {
            self.schedule(out, at + out.cfg.ack_lease, Work::Lease { index, snapshot });
        }
        out.log(at, self.id, seq, self.id, kind);
    }

    /// A scripted failure strikes.
    fn on_crash(
        &mut self,
        out: &mut Outbox,
        at: SimTime,
        seq: u64,
        kind: CrashKind,
        until: Option<SimTime>,
    ) {
        let fd = self.fault.as_mut().expect(UNARMED);
        let event = match kind {
            CrashKind::Crash => {
                fd.down = true;
                fd.hung = false;
                fd.stats.crashes += 1;
                // Volatile receive state dies now: announced windows are
                // fenced; memory/IOMMU/OS are rebuilt at reboot.
                fd.stats.fenced_faults += self.link.announced.len() as u64;
                self.link.announced.clear();
                // The node was mid-sentence as a sender too: every
                // transfer it had in flight dies with it. Posts whose
                // launch time lies beyond the crash stay pending — if
                // the node is back up by then, they run.
                let mut killed = 0;
                for x in &mut self.link.xfers {
                    if x.state() == XferState::Streaming && x.abort_node_down(at) {
                        killed += 1;
                    }
                }
                EventKind::Crash { killed }
            }
            CrashKind::NiHang => {
                fd.hung = true;
                fd.stats.hangs += 1;
                EventKind::NiHang
            }
            CrashKind::FaultStall => {
                fd.stats.stalls += 1;
                fd.stall_until = until.unwrap_or(at);
                EventKind::FaultStall { until: fd.stall_until }
            }
        };
        out.log(at, self.id, seq, self.id, event);
    }

    /// A scripted recovery: reboot (new incarnation, ledger replay,
    /// Hello broadcast) or hang end (same incarnation, Hello broadcast).
    fn on_recover(&mut self, out: &mut Outbox, at: SimTime, seq: u64, kind: CrashKind) {
        let fd = self.fault.as_mut().expect(UNARMED);
        let event = match kind {
            CrashKind::Crash => {
                if !fd.down {
                    // Overlapping crash windows merged: an earlier reboot
                    // already brought the node back.
                    return;
                }
                fd.down = false;
                fd.hung = false;
                fd.inc += 1;
                fd.stats.reboots += 1;
                fd.stall_until = SimTime::ZERO;
                self.link.announced.clear();
                let replayed = self.os.reboot();
                fd.stats.regrants += replayed.regrants;
                fd.stats.repins += replayed.repins;
                EventKind::Reboot { inc: fd.inc }
            }
            CrashKind::NiHang => {
                if fd.down {
                    // The node crashed under the hang; the reboot, not
                    // the unhang, will announce it.
                    return;
                }
                fd.hung = false;
                EventKind::Unhang
            }
            // Stall ends are data (`stall_until`), not events.
            CrashKind::FaultStall => return,
        };
        // Back in service either way: announce it. The Hello broadcast
        // moves peers `Down → Recovering` (rescuing probers whose
        // budget ran dry) and, after a reboot, carries the advanced
        // incarnation that fences every pre-crash frame.
        let inc = self.inc();
        let me = self.id;
        for peer in (0..out.cfg.nodes).filter(|&p| p != me) {
            let dst_inc = self.believed_inc(peer);
            self.emit(out, at, out.hop(at), peer, dst_inc, NetMsg::Hello { inc });
        }
        out.log(at, self.id, seq, self.id, event);
    }

    /// An ACK lease fired: decide whether it was a miss, and what the
    /// miss means.
    fn on_lease(&mut self, out: &mut Outbox, at: SimTime, seq: u64, index: u32, snapshot: u64) {
        let x = &self.link.xfers[index as usize];
        if x.state().terminal() || x.counters.launches != snapshot {
            // An ACK, NACK or relaunch moved the transfer since this
            // lease was armed — not a miss.
            out.log(at, self.id, seq, self.id, EventKind::LeaseSuperseded { index });
            return;
        }
        let dst = x.dst_node;
        let fd = self.fault.as_mut().expect(UNARMED);
        let state = fd.peer(dst).on_miss(at);
        if state == HealthState::Down {
            // The detector tripped: abort everything in flight toward
            // the dead peer — each keeps exactly its acked prefix — and
            // start probing under the shared retry policy.
            let mut aborted = 0;
            for x in self.link.xfers.iter_mut().filter(|x| x.dst_node == dst) {
                if x.abort_node_down(at) {
                    aborted += 1;
                }
            }
            if let Some(backoff) = fd.peer(dst).next_probe(&out.cfg.reliability.retry) {
                self.schedule(out, at + backoff, Work::Probe { peer: dst });
            }
            out.log(at, self.id, seq, self.id, EventKind::LeaseDown { index, peer: dst, aborted });
        } else {
            // Suspect (or still counting): go-back-N resends the unacked
            // chunk; the relaunch arms the next lease.
            self.schedule(out, at, Work::Launch { index });
            out.log(at, self.id, seq, self.id, EventKind::LeaseRelaunch { index, state });
        }
    }

    /// A probe timer fired for a `Down` peer.
    fn on_probe(&mut self, out: &mut Outbox, at: SimTime, seq: u64, peer: u32) {
        let fd = self.fault.as_mut().expect(UNARMED);
        if fd.down {
            // The prober itself died in the meantime.
            return;
        }
        let state = fd.health(peer);
        if state != HealthState::Down {
            out.log(at, self.id, seq, self.id, EventKind::ProbeCancelled { peer });
            return;
        }
        // Next attempt, until the budget runs dry — after that only the
        // peer's own Hello can rescue it.
        let next = fd.peer(peer).next_probe(&out.cfg.reliability.retry);
        let dst_inc = fd.believed_inc(peer);
        self.emit(out, at, out.hop(at), peer, dst_inc, NetMsg::Ping);
        if let Some(backoff) = next {
            self.schedule(out, at + backoff, Work::Probe { peer });
        }
        out.log(at, self.id, seq, self.id, EventKind::Probe { peer, state });
    }

    /// A frame arrived.
    fn on_frame(&mut self, out: &mut Outbox, at: SimTime, seq: u64, env: Envelope) {
        let src = env.src_node;
        if let Some(kind) = self.fault.as_mut().and_then(|fd| fd.screen(&env)) {
            out.log(at, src, seq, self.id, kind);
            return;
        }
        // Replies are for the life of the peer that sent the frame,
        // echoed off the frame itself.
        let src_inc = env.src_inc;
        let kind = match env.msg {
            NetMsg::Announce { xfer, ann } => {
                self.link.announced.insert(xfer, ann);
                EventKind::Announce { xfer, va: ann.va, len: ann.len }
            }
            NetMsg::Data { xfer, chunk, asid, va, bytes, outcome } => {
                // The receive PHY saw the frames whether or not anything
                // useful arrived.
                self.link.stats.record(&outcome);
                if bytes.is_empty() {
                    EventKind::DataEmpty { xfer, chunk }
                } else if let Err(fault) = self.os.deposit(asid, va, &bytes) {
                    self.link.nacks_raised += 1;
                    // The node OS services the fault before the NACK
                    // departs; the service time rides on the NACK's
                    // arrival stamp, exactly the "link round trip plus a
                    // fault service" of the follow-on papers.
                    let announced = self.link.announced.get(&xfer).map(|a| (a.va, a.len));
                    let (res, cost) = self.os.service(&fault, announced);
                    let resolvable = res != FaultResolution::Unresolvable;
                    // A stalled fault service queues the miss behind
                    // whatever it is stuck on; the NACK departs only once
                    // the stall clears.
                    let service_at = self.fault.as_ref().map_or(at, |fd| at.max(fd.stall_until));
                    let nack = NetMsg::Nack { xfer, chunk, fault, resolvable };
                    self.emit(out, at, out.hop(service_at + cost), src, src_inc, nack);
                    EventKind::DataNack { xfer, chunk, res }
                } else {
                    let accepted = bytes.len() as u64;
                    let ack = NetMsg::Ack { xfer, chunk, accepted };
                    self.emit(out, at, out.hop(at), src, src_inc, ack);
                    EventKind::Data { xfer, chunk, accepted, va }
                }
            }
            NetMsg::Ack { xfer, chunk, accepted } => {
                if accepted > 0 {
                    if let Some(fd) = &mut self.fault {
                        fd.on_progress(src, at);
                    }
                }
                let x = &mut self.link.xfers[xfer.index as usize];
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
                    self.schedule(out, at, Work::Launch { index: xfer.index });
                }
                EventKind::Ack { xfer, chunk, effect }
            }
            NetMsg::Nack { xfer, chunk, resolvable, .. } => {
                if let Some(fd) = &mut self.fault {
                    // Even a NACK proves the peer is alive at `src_inc`.
                    fd.peer(src).on_alive(src_inc);
                }
                let x = &mut self.link.xfers[xfer.index as usize];
                let verdict = x.on_nack(chunk, resolvable, at, &out.cfg.reliability.retry);
                if let NackVerdict::Retry(when) = verdict {
                    self.schedule(out, when, Work::Launch { index: xfer.index });
                }
                EventKind::Nack { xfer, chunk, verdict }
            }
            NetMsg::Hello { inc } | NetMsg::Pong { inc } => self.on_peer_alive(out, at, src, inc),
            NetMsg::Ping => {
                let fd = self.fault.as_mut().expect(UNARMED);
                fd.peer(src).on_alive(src_inc);
                let pong = NetMsg::Pong { inc: fd.inc };
                self.emit(out, at, out.hop(at), src, src_inc, pong);
                EventKind::Ping { from: src }
            }
        };
        out.log(at, src, seq, self.id, kind);
    }

    /// A `Hello` or `Pong` announced that `peer` is in service at
    /// incarnation `inc`. Moves it out of `Down`, and resumes (or, if
    /// its reboot tore their prefix, fails) in-flight transfers to it.
    fn on_peer_alive(&mut self, out: &mut Outbox, at: SimTime, peer: u32, inc: u64) -> EventKind {
        let advanced = self.fault.as_mut().expect(UNARMED).peer(peer).on_alive(inc);
        for index in 0..self.link.xfers.len() {
            let x = &mut self.link.xfers[index];
            if x.dst_node != peer || x.state().terminal() || x.state() == XferState::Pending {
                continue;
            }
            if advanced && x.cursor() > 0 {
                // The destination rebooted under this transfer's feet:
                // its acked prefix landed in memory that no longer
                // exists. Resuming mid-stream would hand the app a torn
                // buffer — fail it, keeping the honest prefix count.
                x.abort_node_down(at);
                continue;
            }
            if advanced {
                // Nothing acked yet: restart from byte zero into the new
                // incarnation, announcing the window afresh.
                x.restart_for_new_epoch();
            }
            self.schedule(out, at, Work::Launch { index: index as u32 });
        }
        EventKind::Alive { peer, inc, advanced }
    }
}

/// One shard: the nodes it owns (node `n` at index `n / shards`), its
/// receive channel endpoints (one per other shard) and its outbox.
pub(super) struct Shard {
    pub(super) nodes: Vec<Node>,
    pub(super) rx: Vec<SimReceiver<Envelope>>,
    pub(super) scratch: Vec<Stamped<Envelope>>,
    pub(super) out: Outbox,
}

impl Shard {
    /// Processes one event on the node it is addressed to.
    fn dispatch(&mut self, at: SimTime, src_node: u32, seq: u64, work: Work) {
        let target = match &work {
            Work::Net(env) => env.dst_node,
            _ => src_node,
        };
        let node = &mut self.nodes[target as usize / self.out.cfg.shards];
        let out = &mut self.out;
        match work {
            Work::Net(env) => node.on_frame(out, at, seq, env),
            Work::Launch { index } => node.on_launch(out, at, seq, index),
            Work::Crash { kind, until } => node.on_crash(out, at, seq, kind, until),
            Work::Recover { kind } => node.on_recover(out, at, seq, kind),
            Work::Lease { index, snapshot } => node.on_lease(out, at, seq, index, snapshot),
            Work::Probe { peer } => node.on_probe(out, at, seq, peer),
        }
    }
}

impl SimComponent for Shard {
    fn drain(&mut self) {
        for r in &mut self.rx {
            r.drain_into(&mut self.scratch);
        }
        for m in self.scratch.drain(..) {
            let env = m.payload;
            self.out.queue.push(m.at, env.src_node, env.seq, Work::Net(env));
        }
    }

    fn next_time(&self) -> Option<SimTime> {
        self.out.queue.next_time()
    }

    fn advance(&mut self, horizon: SimTime) -> u64 {
        let mut done = 0;
        while let Some((at, src_node, seq, work)) = self.out.queue.pop_before(horizon) {
            self.dispatch(at, src_node, seq, work);
            done += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_testkit::prop::vec;
    use udma_testkit::{prop_assert, prop_assert_eq, props};

    props! {
        config(cases = 128);

        /// Random pushes and pops, most of them on a handful of equal
        /// times: every pop returns the least queued `(at, src_node,
        /// seq)` before its horizon, and the slab never outgrows the
        /// most events ever in flight at once.
        fn queue_pops_in_key_order_and_reuses_slots(
            ops in vec((0u8..3, 0u64..4, 0u32..3), 0..200)
        ) {
            let mut q = EventQueue::default();
            let mut model: Vec<(SimTime, u32, u64, u32)> = Vec::new();
            let mut seqs = [0u64; 3];
            let (mut pushed, mut peak) = (0u32, 0usize);
            for &(op, t, src) in &ops {
                if op < 2 {
                    // A push from `src`, keyed by its next serial.
                    let (at, seq) = (SimTime::from_ps(t), seqs[src as usize]);
                    seqs[src as usize] += 1;
                    q.push(at, src, seq, Work::Launch { index: pushed });
                    model.push((at, src, seq, pushed));
                    pushed += 1;
                    peak = peak.max(model.len());
                } else {
                    let horizon = SimTime::from_ps(t + 1);
                    let least = model.iter().copied().min().filter(|k| k.0 < horizon);
                    model.retain(|k| Some(*k) != least);
                    let got = q.pop_before(horizon).map(|(at, src, seq, work)| match work {
                        Work::Launch { index } => (at, src, seq, index),
                        other => panic!("queued only launches, popped {other:?}"),
                    });
                    prop_assert_eq!(got, least);
                }
                prop_assert!(q.slab.len() <= peak, "slab {} > peak {peak}", q.slab.len());
            }
            // Draining the rest pops it in sorted order.
            model.sort_unstable();
            let mut rest = Vec::new();
            while let Some((at, src, seq, work)) = q.pop_before(SimTime::from_ps(u64::MAX)) {
                let Work::Launch { index } = work else { panic!("queued only launches") };
                rest.push((at, src, seq, index));
            }
            prop_assert_eq!(rest, model);
        }
    }

    fn lone_node(cfg: &ClusterConfig) -> (Node, Outbox) {
        let node = Node {
            id: 0,
            os: NodeOs::new(cfg.node_bytes, cfg.iotlb, cfg.costs),
            link: LinkUnit::new(None),
            fault: None,
        };
        let out = Outbox { cfg: *cfg, tx: vec![None], queue: EventQueue::default(), log: None };
        (node, out)
    }

    #[test]
    fn a_frame_to_the_own_shard_is_queued_at_its_arrival() {
        let cfg = ClusterConfig::new(2);
        let (mut node, mut out) = lone_node(&cfg);
        let at = SimTime::from_us(10);
        let arrival = at + cfg.link.latency();
        node.emit(&mut out, at, arrival, 1, 0, NetMsg::Ping);
        assert_eq!(out.queue.next_time(), Some(arrival));
        assert!(out.queue.pop_before(arrival).is_none(), "nothing lands before its arrival");
        let (popped_at, src, seq, work) =
            out.queue.pop_before(arrival + SimTime::from_ps(1)).unwrap();
        assert_eq!((popped_at, src, seq), (arrival, 0, 0));
        assert!(matches!(work, Work::Net(Envelope { dst_node: 1, msg: NetMsg::Ping, .. })));
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn an_early_arrival_to_the_own_shard_panics_like_a_channel_send() {
        let cfg = ClusterConfig::new(2);
        let (mut node, mut out) = lone_node(&cfg);
        let at = SimTime::from_us(10);
        let early = at + cfg.link.latency() - SimTime::from_ps(1);
        node.emit(&mut out, at, early, 1, 0, NetMsg::Ping);
    }
}
