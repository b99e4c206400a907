//! A node's link unit: its end of the wire, as sender and as receiver.

use super::ClusterConfig;
use std::collections::BTreeMap;
use udma_bus::SimTime;
use udma_nic::{DeliveryOutcome, DstAnnouncement, FaultyLink, NetMsg, SendXfer, XferId};

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

/// A node's link state: the chaos link it sends over, the go-back-N
/// transfers it posted, the destination windows announced to it, and its
/// emission counter.
#[derive(Clone, Debug, Default)]
pub(super) struct LinkUnit {
    /// The node's *sending* chaos link (None on an ideal wire).
    chaos: Option<FaultyLink>,
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

    /// Launches (or relaunches) the next chunk of transfer `index` at
    /// `at`. Returns the frame and its arrival: the wire time is the
    /// arrival's distance from `at`.
    pub(super) fn launch(
        &mut self,
        index: usize,
        at: SimTime,
        cfg: &ClusterConfig,
    ) -> (NetMsg, SimTime) {
        self.xfers[index].launch_chunk(at, &cfg.link, &cfg.reliability, self.chaos.as_mut())
    }
}
