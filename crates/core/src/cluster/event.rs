//! The cluster's typed event log: one `Copy` value per event, rendered
//! to text only on demand.

use super::health::HealthState;
use super::link::NackVerdict;
use udma_bus::SimTime;
use udma_mem::VirtAddr;
use udma_nic::XferId;
use udma_os::FaultResolution;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
