//! A node's link unit: its end of the wire, as sender and as receiver.
//!
//! Every node is a *sender*: it owns its transfers ([`SendXfer`]), its
//! seeded chaos link and its go-back-N scratch space, and talks to other
//! nodes only through [`Envelope`]s — data chunks, cumulative ACKs,
//! translation-fault NACKs, destination announcements and the failure
//! detector's control frames, exactly the message kinds the Telegraphos
//! follow-on receive side exchanges. Every chunk launch crosses the wire
//! through the one [`deliver`] path, chaos link or none.
//!
//! Ordering is the load-bearing design point: an [`Envelope`] carries
//! `(src_node, seq)` where `seq` is the *node's* monotonic emission
//! counter — not a per-channel counter. A receiver that processes its
//! merged traffic in `(arrival, src_node, seq)` order therefore behaves
//! identically whether the cluster runs on one shard or eight, which is
//! what the differential-determinism harness pins.

use super::wire::{deliver, Arrival, DeliveryOutcome, FaultyLink};
use super::ClusterConfig;
use std::collections::BTreeMap;
use udma_bus::SimTime;
use udma_iommu::{Asid, IoFault};
use udma_mem::{ByteView, VirtAddr, PAGE_SIZE};
use udma_nic::{RetryPolicy, XferId, XferState};

/// What a node's receive-side delivery engine saw cross the (possibly
/// lossy) link: the counters the go-back-N layer reports per deposit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeLinkStats {
    /// Reliable deliveries addressed to this node.
    pub deliveries: u64,
    /// Bytes accepted in order (the deposited payload).
    pub bytes_accepted: u64,
    /// Data frames retransmitted to this node.
    pub retransmits: u64,
    /// Frames discarded for a bad CRC — none of these were ever acked.
    pub crc_dropped: u64,
    /// Duplicate frames ignored (cumulative ACK already covered them).
    pub dup_ignored: u64,
    /// Out-of-order frames a go-back-N receiver discards.
    pub ooo_discarded: u64,
}

impl NodeLinkStats {
    /// Counts one delivery, whether or not anything useful arrived.
    pub(super) fn record(&mut self, o: &DeliveryOutcome) {
        self.deliveries += 1;
        self.bytes_accepted += o.delivered;
        self.retransmits += u64::from(o.retransmits);
        self.crc_dropped += u64::from(o.crc_dropped);
        self.dup_ignored += u64::from(o.dup_ignored);
        self.ooo_discarded += u64::from(o.ooo_discarded);
    }
}

/// A transfer's destination range, carried by [`NetMsg::Announce`] ahead
/// of its first data chunk. When a page of the range faults, the
/// receiving node's OS can service the *entire remaining range* in one
/// go, so a cold contiguous buffer costs one NACK round trip instead of
/// one per page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DstAnnouncement {
    /// Destination address space on the node.
    pub(crate) asid: Asid,
    /// Start of the announced destination range.
    pub(crate) va: VirtAddr,
    /// Length of the announced range in bytes.
    pub(crate) len: u64,
}

/// One protocol message between two cluster nodes.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum NetMsg {
    /// The transfer's whole destination range, carried ahead of its
    /// first data chunk so the receiving node's OS can service a cold
    /// range in one kernel entry (E15's one-NACK-per-range discipline).
    Announce {
        /// The announcing transfer.
        xfer: XferId,
        /// Destination range on the receiving node.
        ann: DstAnnouncement,
    },
    /// One go-back-N delivery's worth of payload (at most a page, so a
    /// chunk never crosses a translation boundary).
    Data {
        /// The owning transfer.
        xfer: XferId,
        /// Chunk index within the transfer (resent chunks reuse it).
        chunk: u32,
        /// Destination address space on the receiving node.
        asid: Asid,
        /// Destination VA of this chunk.
        va: VirtAddr,
        /// The in-order payload prefix the link layer delivered: a view
        /// of the posting transfer's payload buffer, not a copy. It
        /// keeps the buffer alive after its transfer turned terminal
        /// and released it, so a link-failed prefix still lands.
        bytes: ByteView,
        /// What the go-back-N engine saw on the wire for this chunk
        /// (retransmits, CRC drops, …) — folded into the receiver's
        /// link counters on arrival.
        outcome: DeliveryOutcome,
    },
    /// Cumulative ACK for a deposited chunk.
    Ack {
        /// The acked transfer.
        xfer: XferId,
        /// The acked chunk.
        chunk: u32,
        /// Bytes of the chunk the receiver deposited.
        accepted: u64,
    },
    /// Receive-side translation fault, NACKed back to the sender. The
    /// receiving node's OS has already run its fault service by the
    /// time the NACK departs; `resolvable` tells the sender whether a
    /// retry can succeed.
    Nack {
        /// The faulting transfer.
        xfer: XferId,
        /// The chunk whose deposit faulted (the sender must resend it).
        chunk: u32,
        /// The fault the receiving NI raised.
        fault: IoFault,
        /// Whether the receiver's fault service resolved it.
        resolvable: bool,
    },
    /// Broadcast by a node returning to service: after a reboot (with a
    /// freshly bumped incarnation) or an NI-hang ending (same
    /// incarnation). Moves the sender `Down → Recovering` and, when the
    /// incarnation advanced, fences every pre-crash frame.
    Hello {
        /// The announcing node's current incarnation epoch.
        inc: u64,
    },
    /// A health probe from a sender whose detector holds the
    /// destination `Down`; a live node answers with [`NetMsg::Pong`].
    Ping,
    /// A probe answer, carrying the responder's incarnation so the
    /// prober learns about reboots it slept through.
    Pong {
        /// The responding node's current incarnation epoch.
        inc: u64,
    },
}

impl NetMsg {
    /// Whether the message merges payload or transfer state on receipt
    /// (Data/Ack/Nack/Announce) as opposed to the epoch-establishing
    /// control plane (Hello/Ping/Pong). Only stateful messages are
    /// subject to incarnation fencing — control messages are how epochs
    /// are *learned*.
    pub(crate) fn stateful(&self) -> bool {
        !matches!(self, NetMsg::Hello { .. } | NetMsg::Ping | NetMsg::Pong { .. })
    }
}

/// A routed protocol message with the shard-layout-invariant ordering
/// key (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Envelope {
    /// The emitting node.
    pub(crate) src_node: u32,
    /// The node this message is addressed to.
    pub(crate) dst_node: u32,
    /// The emitting node's monotonic emission counter.
    pub(crate) seq: u64,
    /// The emitting node's incarnation epoch at emission time. A
    /// receiver fences stateful frames whose `src_inc` is older than an
    /// epoch it has already seen from that node.
    pub(crate) src_inc: u64,
    /// The destination incarnation the emitter believed in. A rebooted
    /// node fences stateful frames stamped with its pre-crash epoch —
    /// they were addressed to state that no longer exists.
    pub(crate) dst_inc: u64,
    /// The message.
    pub(crate) msg: NetMsg,
}

/// Wire/accounting counters of one sender-side transfer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XferCounters {
    /// Bytes the destination acked: the deposited in-order prefix. A
    /// link-failed chunk's delivered prefix counts once its ACK comes
    /// back; a prefix the receiver NACKed instead never landed and
    /// adds nothing.
    pub moved: u64,
    /// Data-frame retransmissions across all chunks.
    pub retransmits: u64,
    /// Bytes that crossed the wire, retransmissions included.
    pub wire_bytes: u64,
    /// NACKs this transfer's chunks drew.
    pub nacks: u64,
    /// Chunk launches (first sends plus NACK resends).
    pub launches: u64,
    /// Time lost to link-layer timeouts and backoff.
    pub stall: SimTime,
}

/// What the sender should do after a NACK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NackVerdict {
    /// Resend the chunk at the given time (NACK backoff applied).
    Retry(SimTime),
    /// Give up: unresolvable fault or exhausted retry budget.
    Abort,
}

/// Sender-side state machine of one remote transfer: chunking, the
/// go-back-N launch step, ACK/NACK bookkeeping, and terminal-state
/// accounting. The shard that owns the posting node drives this.
///
/// The transfer holds its payload only while it can still launch a
/// chunk: every terminal transition goes through
/// [`settle`](Self::settle), which releases it. A chunk already on the
/// wire keeps its own view of the buffer.
#[derive(Clone, Debug)]
pub(crate) struct SendXfer {
    /// The transfer's cluster-wide id.
    pub(crate) id: XferId,
    /// Destination node.
    pub(crate) dst_node: u32,
    /// Destination address space on that node.
    pub(crate) dst_asid: Asid,
    /// Destination base VA.
    pub(crate) dst_va: VirtAddr,
    /// The payload, shared with every in-flight chunk view of it and
    /// every destination frame that adopted one; `None` once the
    /// transfer is terminal.
    data: Option<ByteView>,
    /// Payload length in bytes (outlives the payload).
    len: u64,
    /// Bytes acked so far (the next chunk starts here).
    cursor: u64,
    /// Next chunk index (increments on ACK, not on resend).
    chunk: u32,
    /// Consecutive NACK retries of the current chunk.
    retries: u32,
    /// Whether the destination announcement still needs to ride ahead
    /// of the next launch (set at post time; set again when an epoch
    /// advance forces a replay into freshly rebooted state).
    announce_pending: bool,
    /// Current state.
    state: XferState,
    /// Posting time.
    pub(crate) posted_at: SimTime,
    /// Terminal-state time.
    pub(crate) finished: Option<SimTime>,
    /// Wire/accounting counters.
    pub(crate) counters: XferCounters,
}

impl SendXfer {
    /// A freshly posted transfer.
    pub(crate) fn new(
        id: XferId,
        dst_node: u32,
        dst_asid: Asid,
        dst_va: VirtAddr,
        data: Vec<u8>,
        posted_at: SimTime,
    ) -> Self {
        assert!(!data.is_empty(), "zero-byte transfers are rejected at post time");
        SendXfer {
            id,
            dst_node,
            dst_asid,
            dst_va,
            len: data.len() as u64,
            data: Some(ByteView::from(data)),
            cursor: 0,
            chunk: 0,
            retries: 0,
            announce_pending: true,
            state: XferState::Pending,
            posted_at,
            finished: None,
            counters: XferCounters::default(),
        }
    }

    /// Current state.
    pub(crate) fn state(&self) -> XferState {
        self.state
    }

    /// Bytes acked so far — the delivered in-order prefix.
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Takes the pending-announcement flag: `true` exactly once per
    /// (re)start of the transfer, before its next data launch.
    pub(crate) fn take_announce(&mut self) -> bool {
        std::mem::take(&mut self.announce_pending)
    }

    /// Payload length in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The whole destination range, as announced ahead of the first
    /// chunk.
    pub(crate) fn announcement(&self) -> DstAnnouncement {
        DstAnnouncement { asid: self.dst_asid, va: self.dst_va, len: self.len() }
    }

    /// Destination VA and length of the next unacked chunk: up to the
    /// next page boundary, so one chunk needs exactly one translation.
    pub(crate) fn chunk_span(&self) -> (VirtAddr, u64) {
        let va = self.dst_va + self.cursor;
        let to_boundary = PAGE_SIZE - va.page_offset();
        (va, to_boundary.min(self.len() - self.cursor))
    }

    /// Launches the next unacked chunk at `now`: carries it across the
    /// wire with [`deliver`] over `chaos` (`None` is the ideal wire),
    /// folds the wire outcome into the counters, and returns the
    /// [`NetMsg::Data`] to put on the channel plus its arrival time. If
    /// the link layer's retry budget ran dry the transfer transitions to
    /// [`XferState::LinkFailed`] here and the message carries the
    /// delivered prefix; that prefix counts as `moved` only once its
    /// ACK returns. The message shares the payload buffer; no chunk
    /// bytes are copied.
    ///
    /// # Panics
    ///
    /// Panics if the transfer is already terminal or fully acked.
    pub(crate) fn launch_chunk(
        &mut self,
        now: SimTime,
        cfg: &ClusterConfig,
        chaos: Option<&mut FaultyLink>,
        arrivals: &mut Vec<Arrival>,
    ) -> (NetMsg, SimTime) {
        assert!(!self.state.terminal(), "launch on terminal transfer {}", self.id);
        assert!(self.cursor < self.len(), "launch with nothing left to send on {}", self.id);
        self.state = XferState::Streaming;
        let (va, len) = self.chunk_span();
        let outcome = deliver(&cfg.link, &cfg.reliability, chaos, arrivals, len);
        let start = self.cursor as usize;
        let bytes = self
            .data
            .as_ref()
            .and_then(|data| data.slice(start..start + outcome.delivered as usize))
            .expect("a live transfer holds its payload");
        self.counters.launches += 1;
        self.counters.retransmits += u64::from(outcome.retransmits);
        self.counters.wire_bytes += outcome.wire_bytes;
        self.counters.stall += outcome.stall;
        let arrival = now + outcome.elapsed;
        if !outcome.completed {
            // The reliability layer gave up mid-chunk: terminal on the
            // sender's clock at the moment it stopped listening. The
            // in-order prefix still rides the message; it counts when
            // the receiver acks it.
            self.settle(XferState::LinkFailed, arrival);
        }
        let msg = NetMsg::Data {
            xfer: self.id,
            chunk: self.chunk,
            asid: self.dst_asid,
            va,
            bytes,
            outcome,
        };
        (msg, arrival)
    }

    /// Records a cumulative ACK arriving at `now`. Returns `true` when
    /// the transfer just completed. The ACK of a link-failed chunk's
    /// prefix adds the deposited bytes to `moved` and nothing else; ACKs
    /// for stale chunks or other terminal transfers are ignored.
    pub(crate) fn on_ack(&mut self, chunk: u32, accepted: u64, now: SimTime) -> bool {
        if chunk != self.chunk {
            return false;
        }
        if self.state == XferState::LinkFailed {
            // `max`: a lease relaunch may bring back an older, longer
            // ACK of the same chunk.
            self.counters.moved = self.counters.moved.max(self.cursor + accepted);
            return false;
        }
        if self.state != XferState::Streaming {
            return false;
        }
        self.cursor += accepted;
        self.counters.moved = self.cursor;
        self.chunk += 1;
        self.retries = 0;
        if self.cursor >= self.len() {
            self.settle(XferState::Complete, now);
            return true;
        }
        false
    }

    /// Records a NACK arriving at `now` and decides the retry. An
    /// unresolvable fault or an exhausted budget fails the transfer
    /// here; otherwise the chunk resends after the policy's backoff.
    /// NACKs for terminal transfers are ignored (`Abort` without
    /// double-counting).
    pub(crate) fn on_nack(
        &mut self,
        chunk: u32,
        resolvable: bool,
        now: SimTime,
        policy: &RetryPolicy,
    ) -> NackVerdict {
        if self.state.terminal() || chunk != self.chunk {
            return NackVerdict::Abort;
        }
        self.counters.nacks += 1;
        if !resolvable {
            self.settle(XferState::Failed, now);
            return NackVerdict::Abort;
        }
        self.retries += 1;
        if policy.exhausted(self.retries) {
            self.settle(XferState::Failed, now);
            return NackVerdict::Abort;
        }
        NackVerdict::Retry(now + policy.backoff_after(self.retries))
    }

    /// Aborts the transfer because its destination node failed: the
    /// acked in-order prefix stands as `moved`, nothing else will ever
    /// arrive. Idempotent on terminal transfers.
    pub(crate) fn abort_node_down(&mut self, now: SimTime) -> bool {
        if self.state.terminal() {
            return false;
        }
        self.settle(XferState::NodeDown, now);
        self.counters.moved = self.cursor;
        true
    }

    /// Ends the transfer in the terminal `state` at `at` and releases
    /// its payload: nothing launches from it again, and a chunk still
    /// on the wire holds its own view.
    fn settle(&mut self, state: XferState, at: SimTime) {
        debug_assert!(state.terminal(), "settle into non-terminal {state:?}");
        self.state = state;
        self.finished = Some(at);
        self.data = None;
    }

    /// Restarts a transfer whose destination rebooted into a new
    /// incarnation before any byte was acked: back to `Pending`, the
    /// announcement rides again ahead of the next launch. Callers must
    /// only replay zero-progress transfers — a rebooted node wiped any
    /// delivered prefix, so a partially-acked transfer must
    /// [`abort_node_down`](Self::abort_node_down) instead of silently
    /// leaving a hole.
    ///
    /// # Panics
    ///
    /// Panics if any byte was already acked or the transfer is terminal.
    pub(crate) fn restart_for_new_epoch(&mut self) {
        assert!(!self.state.terminal(), "restart of a terminal transfer {}", self.id);
        assert_eq!(self.cursor, 0, "restart would tear the acked prefix of {}", self.id);
        self.chunk = 0;
        self.retries = 0;
        self.announce_pending = true;
        self.state = XferState::Pending;
    }
}

/// A node's link state: the chaos link it sends over and the go-back-N
/// scratch space its launches share, the transfers it posted, the
/// destination windows announced to it, and its emission counter.
#[derive(Clone, Debug, Default)]
pub(super) struct LinkUnit {
    /// The node's *sending* chaos link (None on an ideal wire).
    pub(super) chaos: Option<FaultyLink>,
    /// [`deliver`]'s arrival buffer, reused by every launch.
    pub(super) arrivals: Vec<Arrival>,
    /// Transfers this node posted, by posting index.
    pub(super) xfers: Vec<SendXfer>,
    /// Destination ranges announced *to* this node, by sender transfer.
    pub(super) announced: BTreeMap<XferId, DstAnnouncement>,
    /// Receive-side link counters.
    pub(super) stats: NodeLinkStats,
    /// NACKs raised by this node's receive path.
    pub(super) nacks_raised: u64,
    /// Monotonic emission counter — the `seq` of every event and
    /// message this node originates. Survives a crash: it is the
    /// link-level serial that keeps the ordering key sound across
    /// incarnations.
    seq: u64,
}

impl LinkUnit {
    pub(super) fn new(chaos: Option<FaultyLink>) -> Self {
        LinkUnit { chaos, ..LinkUnit::default() }
    }

    /// The next emission serial.
    pub(super) fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_nic::{FaultPlan, ReliabilityConfig};

    /// Launches `x`'s next chunk over `chaos` with fresh scratch space.
    fn launch(
        x: &mut SendXfer,
        now: SimTime,
        cfg: &ClusterConfig,
        chaos: Option<&mut FaultyLink>,
    ) -> (NetMsg, SimTime) {
        x.launch_chunk(now, cfg, chaos, &mut Vec::new())
    }

    fn xfer(bytes: u64) -> SendXfer {
        SendXfer::new(
            XferId { node: 0, index: 0 },
            1,
            7,
            VirtAddr::new(4 * PAGE_SIZE),
            vec![0xAB; bytes as usize],
            SimTime::ZERO,
        )
    }

    #[test]
    fn chunks_never_cross_page_boundaries() {
        let mut x = xfer(3 * PAGE_SIZE);
        // Unaligned start: first chunk stops at the boundary.
        x.dst_va = VirtAddr::new(4 * PAGE_SIZE + 0x100);
        let (va, len) = x.chunk_span();
        assert_eq!(va, VirtAddr::new(4 * PAGE_SIZE + 0x100));
        assert_eq!(len, PAGE_SIZE - 0x100);
        x.cursor = len;
        let (va2, len2) = x.chunk_span();
        assert_eq!(va2, VirtAddr::new(5 * PAGE_SIZE));
        assert_eq!(len2, PAGE_SIZE);
    }

    #[test]
    fn clean_wire_streams_to_completion() {
        let cfg = ClusterConfig::new(2);
        let mut x = xfer(2 * PAGE_SIZE);
        let mut now = SimTime::ZERO;
        let mut chunks = 0;
        while x.state() != XferState::Complete {
            let (msg, arrival) = launch(&mut x, now, &cfg, None);
            let NetMsg::Data { chunk, bytes, outcome, .. } = msg else { panic!("data") };
            assert_eq!(outcome.retransmits, 0);
            assert_eq!(bytes.len() as u64, PAGE_SIZE);
            now = arrival + cfg.link.latency(); // the ACK's flight back
            x.on_ack(chunk, bytes.len() as u64, now);
            chunks += 1;
        }
        assert_eq!(chunks, 2);
        assert_eq!(x.counters.moved, 2 * PAGE_SIZE);
        assert_eq!(x.counters.retransmits, 0);
        assert_eq!(x.finished, Some(now));
    }

    #[test]
    fn nack_retries_are_bounded_by_the_policy() {
        let policy = RetryPolicy::new(2, SimTime::from_us(5));
        let mut x = xfer(PAGE_SIZE);
        let cfg = ClusterConfig::new(2);
        let (_, _) = launch(&mut x, SimTime::ZERO, &cfg, None);
        let fault_nack = |x: &mut SendXfer, now| x.on_nack(0, true, now, &policy);
        let NackVerdict::Retry(at) = fault_nack(&mut x, SimTime::from_us(100)) else {
            panic!("first NACK retries")
        };
        assert!(at > SimTime::from_us(100), "backoff applies");
        assert_eq!(fault_nack(&mut x, at), NackVerdict::Abort, "budget of 2 exhausts");
        assert_eq!(x.state(), XferState::Failed);
        assert_eq!(x.counters.nacks, 2);
        // Further NACKs for the dead transfer change nothing.
        assert_eq!(fault_nack(&mut x, at), NackVerdict::Abort);
        assert_eq!(x.counters.nacks, 2);
    }

    #[test]
    fn unresolvable_nack_fails_immediately() {
        let policy = RetryPolicy::new(6, SimTime::from_us(5));
        let mut x = xfer(PAGE_SIZE);
        let cfg = ClusterConfig::new(2);
        launch(&mut x, SimTime::ZERO, &cfg, None);
        assert_eq!(x.on_nack(0, false, SimTime::from_us(40), &policy), NackVerdict::Abort);
        assert_eq!(x.state(), XferState::Failed);
        assert_eq!(x.finished, Some(SimTime::from_us(40)));
    }

    #[test]
    fn chaos_exhaustion_is_link_failed_with_prefix_accounting() {
        // A zero-retry budget under total loss dies on the first chunk.
        let cfg = ClusterConfig {
            reliability: ReliabilityConfig {
                retry: RetryPolicy::new(0, SimTime::from_us(5)),
                ..ReliabilityConfig::default()
            },
            ..ClusterConfig::new(2)
        };
        let mut chaos = FaultyLink::new(FaultPlan::lossless(9).with_drop(1.0));
        let mut x = xfer(PAGE_SIZE);
        let (msg, arrival) = launch(&mut x, SimTime::ZERO, &cfg, Some(&mut chaos));
        let NetMsg::Data { outcome, .. } = msg else { panic!("data") };
        assert!(!outcome.completed);
        assert_eq!(x.state(), XferState::LinkFailed);
        assert_eq!(x.finished, Some(arrival));
        assert_eq!(x.counters.moved, outcome.delivered);
    }

    /// Whatever the chaos plan, the bytes a data message carries are
    /// exactly the payload's in-order prefix from the chunk's cursor —
    /// the shared view never shifts, overruns or includes an unaccepted
    /// frame.
    #[test]
    fn chunk_views_carry_exactly_the_delivered_prefix() {
        let cfg = ClusterConfig {
            reliability: ReliabilityConfig {
                retry: RetryPolicy::new(2, SimTime::from_us(5)),
                ..ReliabilityConfig::default()
            },
            ..ClusterConfig::new(2)
        };
        let len = 3 * PAGE_SIZE + 100;
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let plans = [
            FaultPlan::lossless(1).with_drop(0.3),
            FaultPlan::lossless(2).with_corrupt(0.3),
            // Swallows the second chunk from its third frame on.
            FaultPlan::lossless(3).with_burst(10, 1_000_000),
        ];
        let mut partial = 0;
        for plan in plans {
            let mut chaos = FaultyLink::new(plan);
            let mut x = SendXfer::new(
                XferId { node: 0, index: 0 },
                1,
                7,
                VirtAddr::new(4 * PAGE_SIZE),
                payload.clone(),
                SimTime::ZERO,
            );
            let mut now = SimTime::ZERO;
            while !x.state().terminal() {
                let cursor = x.cursor() as usize;
                let span_len = x.chunk_span().1;
                let (msg, arrival) = launch(&mut x, now, &cfg, Some(&mut chaos));
                let NetMsg::Data { chunk, bytes, outcome, .. } = msg else { panic!("data") };
                let end = cursor + outcome.delivered as usize;
                assert_eq!(&bytes[..], &payload[cursor..end], "{plan:?} at cursor {cursor}");
                if outcome.delivered < span_len {
                    partial += 1;
                    assert_eq!(x.state(), XferState::LinkFailed, "{plan:?}");
                    // The prefix counts once the receiver acks it.
                    assert_eq!(x.counters.moved, cursor as u64);
                    x.on_ack(chunk, bytes.len() as u64, arrival);
                    assert_eq!(x.counters.moved, end as u64);
                    break;
                }
                now = arrival;
                x.on_ack(chunk, bytes.len() as u64, now);
            }
        }
        assert!(partial > 0, "the burst plan must cut a chunk short");
    }

    /// A link-failed prefix counts as moved only when its ACK comes
    /// back: a NACK adds nothing, and an older, longer ACK of the same
    /// chunk (a lease relaunch's) is not shortened by a later one.
    #[test]
    fn a_link_failed_prefix_counts_only_once_acked() {
        let cfg = ClusterConfig::new(2);
        let policy = RetryPolicy::new(6, SimTime::from_us(5));
        let mut chaos = FaultyLink::new(FaultPlan::lossless(5).with_burst(2, 1_000_000));
        let mut x = xfer(2 * PAGE_SIZE);
        let (msg, arrival) = launch(&mut x, SimTime::ZERO, &cfg, Some(&mut chaos));
        let NetMsg::Data { chunk, bytes, .. } = msg else { panic!("data") };
        let delivered = bytes.len() as u64;
        assert!(delivered > 0 && delivered < PAGE_SIZE, "the burst cuts the first chunk short");
        assert_eq!(x.state(), XferState::LinkFailed);
        assert_eq!(x.counters.moved, 0, "nothing acked yet");
        assert_eq!(x.on_nack(chunk, true, arrival, &policy), NackVerdict::Abort);
        assert_eq!(x.counters.moved, 0, "a NACKed prefix never landed");
        assert!(!x.on_ack(chunk, PAGE_SIZE, arrival));
        assert!(!x.on_ack(chunk, delivered, arrival));
        assert_eq!(x.counters.moved, PAGE_SIZE, "the longer ACK stands");
        assert!(!x.on_ack(chunk + 1, PAGE_SIZE, arrival), "wrong chunk index");
        assert_eq!(x.counters.moved, PAGE_SIZE);
        assert_eq!(x.state(), XferState::LinkFailed);
    }

    /// Checks that `x` settled into `state`, released its payload, and
    /// still reports its length and destination range.
    fn assert_released(x: &SendXfer, state: XferState, len: u64) {
        assert_eq!(x.state(), state);
        assert!(x.data.is_none(), "{state:?} still holds the payload");
        assert_eq!(x.len(), len);
        let ann = DstAnnouncement { asid: 7, va: VirtAddr::new(4 * PAGE_SIZE), len };
        assert_eq!(x.announcement(), ann);
    }

    /// Each of the five terminal transitions drops the payload, keeps
    /// length, announcement and counters, and leaves a chunk view taken
    /// before the release reading its bytes.
    #[test]
    fn every_terminal_transition_releases_the_payload() {
        let cfg = ClusterConfig::new(2);
        let policy = RetryPolicy::new(1, SimTime::from_us(5));
        let len = 2 * PAGE_SIZE;
        let at = SimTime::from_us(40);
        let counters = |moved, launches, nacks| XferCounters {
            moved,
            launches,
            nacks,
            wire_bytes: launches * PAGE_SIZE,
            ..XferCounters::default()
        };

        // Complete, on the last chunk's ACK.
        let mut x = xfer(len);
        for chunk in 0..2 {
            launch(&mut x, SimTime::ZERO, &cfg, None);
            x.on_ack(chunk, PAGE_SIZE, at);
        }
        assert_released(&x, XferState::Complete, len);
        assert_eq!(x.counters, counters(len, 2, 0));

        // LinkFailed, at the launch that cut its chunk short.
        let mut chaos = FaultyLink::new(FaultPlan::lossless(5).with_burst(2, 1_000_000));
        let mut x = xfer(len);
        let (msg, _) = launch(&mut x, SimTime::ZERO, &cfg, Some(&mut chaos));
        let NetMsg::Data { bytes, .. } = msg else { panic!("data") };
        assert_released(&x, XferState::LinkFailed, len);
        assert_eq!(x.counters.moved, 0);
        assert_eq!(x.counters.launches, 1);
        assert!(!bytes.is_empty(), "the burst lets a prefix through");
        assert!(bytes.iter().all(|&b| b == 0xAB), "the view outlives the release");

        // Failed, on an unresolvable NACK.
        let mut x = xfer(len);
        launch(&mut x, SimTime::ZERO, &cfg, None);
        assert_eq!(x.on_nack(0, false, at, &policy), NackVerdict::Abort);
        assert_released(&x, XferState::Failed, len);
        assert_eq!(x.counters, counters(0, 1, 1));

        // Failed, on the NACK that exhausts the retry budget.
        let mut x = xfer(len);
        launch(&mut x, SimTime::ZERO, &cfg, None);
        assert_eq!(x.on_nack(0, true, at, &policy), NackVerdict::Abort);
        assert_released(&x, XferState::Failed, len);
        assert_eq!(x.counters, counters(0, 1, 1));

        // NodeDown, with the first chunk acked.
        let mut x = xfer(len);
        launch(&mut x, SimTime::ZERO, &cfg, None);
        x.on_ack(0, PAGE_SIZE, at);
        assert!(x.data.is_some(), "a streaming transfer keeps its payload");
        assert!(x.abort_node_down(at));
        assert_released(&x, XferState::NodeDown, len);
        assert_eq!(x.counters, counters(PAGE_SIZE, 1, 0));
    }

    #[test]
    fn stale_acks_and_wrong_chunks_are_ignored() {
        let cfg = ClusterConfig::new(2);
        let mut x = xfer(2 * PAGE_SIZE);
        launch(&mut x, SimTime::ZERO, &cfg, None);
        assert!(!x.on_ack(5, PAGE_SIZE, SimTime::from_us(1)), "wrong chunk index");
        assert_eq!(x.counters.moved, 0);
        assert!(!x.on_ack(0, PAGE_SIZE, SimTime::from_us(2)));
        assert_eq!(x.counters.moved, PAGE_SIZE);
        assert_eq!(x.state(), XferState::Streaming);
    }
}
