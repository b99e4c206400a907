//! The node fault domain: seeded crash plans, the per-node fault state
//! they arm, and its accounting.
//!
//! A [`CrashPlan`] scripts one failure of one node — a full
//! crash-and-reboot that loses all volatile NI/OS state, an NI-engine
//! hang that drops frames but keeps state, or an OS fault-service stall
//! that defers NACK servicing — at a fixed simulated time. Plans are
//! plain data so the same schedule replays identically at every shard
//! count of the `ClusterSim`, and so a property harness can shrink over
//! them.
//!
//! The state-partitioning question MProtect raises — *exactly which*
//! NI/OS state survives a reboot — is answered here, explicitly:
//!
//! | state                              | survives a [`CrashKind::Crash`]? |
//! |------------------------------------|----------------------------------|
//! | physical memory contents           | no (zeroed)                      |
//! | receive-side IOMMU + IOTLB         | no (rebuilt from grant records)  |
//! | exposed/pinned grants (OS ledger)  | re-created from persistent records |
//! | in-flight receive windows/announces| no (fenced by incarnation)       |
//! | sender-side in-flight transfers    | no (aborted `NodeDown`)          |
//! | incarnation counter                | bumped (monotonic)               |
//! | link emission counter (`seq`)      | yes (link-level serial)          |
//! | NI hang state                      | no (a rebooted NI runs)          |
//!
//! A [`CrashKind::NiHang`] keeps *everything* and merely drops frames
//! for its duration, so transfers may resume where they paused; a
//! [`CrashKind::FaultStall`] only delays the NACK path.
//!
//! The state a failure acts on lives in a [`FaultDomain`] per node,
//! which only [`ClusterSim::inject_crash`](super::ClusterSim::inject_crash)
//! creates: a cluster with no plan carries no fault state at all.

use super::event::EventKind;
use super::health::{HealthState, HealthStats, PeerHealth};
use super::link::Envelope;
use std::collections::BTreeMap;
use udma_bus::SimTime;

/// What kind of node failure a [`CrashPlan`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// Power-fail crash: the node goes silent at `at` and loses all
    /// volatile state. If the plan carries a recovery delay the node
    /// reboots under a **new incarnation epoch**, re-exposes and re-pins
    /// its granted buffers, and announces itself to every peer.
    Crash,
    /// NI-engine hang: every frame to or from the node is dropped for
    /// the duration, but no state is lost and the incarnation does not
    /// change — in-flight transfers may resume where they paused.
    NiHang,
    /// OS fault-service stall: data deposits flow, but receive-side
    /// fault servicing (the NACK path) is deferred until the stall
    /// window ends.
    FaultStall,
}

/// One scripted failure of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// The failing node.
    pub node: u32,
    /// The failure mode.
    pub kind: CrashKind,
    /// When the failure strikes.
    pub at: SimTime,
    /// How long until recovery (reboot / unhang / stall end). `None`
    /// means the node never recovers — peers must converge on `Down`
    /// and fail fast forever after.
    pub recover_after: Option<SimTime>,
}

impl CrashPlan {
    /// A crash at `at` that reboots `reboot_after` later.
    pub fn crash(node: u32, at: SimTime, reboot_after: SimTime) -> Self {
        CrashPlan { node, kind: CrashKind::Crash, at, recover_after: Some(reboot_after) }
    }

    /// A crash at `at` with no reboot, ever.
    pub fn crash_forever(node: u32, at: SimTime) -> Self {
        CrashPlan { node, kind: CrashKind::Crash, at, recover_after: None }
    }

    /// An NI-engine hang of `duration` starting at `at`.
    pub fn hang(node: u32, at: SimTime, duration: SimTime) -> Self {
        CrashPlan { node, kind: CrashKind::NiHang, at, recover_after: Some(duration) }
    }

    /// An OS fault-service stall of `duration` starting at `at`.
    pub fn stall(node: u32, at: SimTime, duration: SimTime) -> Self {
        CrashPlan { node, kind: CrashKind::FaultStall, at, recover_after: Some(duration) }
    }

    /// When the node recovers, if it ever does.
    pub fn recovery_at(&self) -> Option<SimTime> {
        self.recover_after.map(|d| self.at + d)
    }
}

/// Per-node failure accounting, part of the node digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashStats {
    /// Crashes suffered.
    pub crashes: u64,
    /// Reboots completed (each bumps the incarnation).
    pub reboots: u64,
    /// NI-engine hangs suffered.
    pub hangs: u64,
    /// Fault-service stalls suffered.
    pub stalls: u64,
    /// Envelopes dropped because the node was down or hung.
    pub dropped_down: u64,
    /// Stale-incarnation envelopes fenced and discarded after a reboot
    /// (pre-crash Data/Ack/Nack that must never merge into fresh state).
    pub fenced: u64,
    /// Queued pre-crash faults discarded at crash time (the NACK
    /// backlog died with the node).
    pub fenced_faults: u64,
    /// Grant records replayed (re-exposed) during reboots.
    pub regrants: u64,
    /// Pin records replayed (re-pinned) during reboots.
    pub repins: u64,
}

/// One node's fault state: power, NI hang, incarnation, fault-service
/// stall, its failure detector per peer, and the accounting.
#[derive(Clone, Debug, Default)]
pub(super) struct FaultDomain {
    /// Crashed and not yet rebooted.
    pub(super) down: bool,
    /// NI engine hung: frames to and from the node vanish, state stays.
    pub(super) hung: bool,
    /// Incarnation epoch, bumped by every reboot.
    pub(super) inc: u64,
    /// Fault-service stall: NACK servicing is deferred until here.
    pub(super) stall_until: SimTime,
    /// This node's failure detector, one per destination peer
    /// (`BTreeMap` for deterministic aggregation).
    peers: BTreeMap<u32, PeerHealth>,
    /// Node-failure accounting.
    pub(super) stats: CrashStats,
    /// Outage durations this node's detector measured end-to-end (peer
    /// went `Down` → first byte of progress after recovery).
    pub(super) recovery_samples: Vec<SimTime>,
}

impl FaultDomain {
    /// The detector's record of `peer`, created on first contact.
    pub(super) fn peer(&mut self, peer: u32) -> &mut PeerHealth {
        self.peers.entry(peer).or_default()
    }

    /// What the detector believes about `peer`.
    pub(super) fn health(&self, peer: u32) -> HealthState {
        self.peers.get(&peer).map_or(HealthState::Up, |p| p.state())
    }

    /// The incarnation this node believes `peer` is at (what it stamps
    /// as `dst_inc` on envelopes to `peer`).
    pub(super) fn believed_inc(&self, peer: u32) -> u64 {
        self.peers.get(&peer).map_or(0, |p| p.incarnation())
    }

    /// The detector's counters, summed over every peer.
    pub(super) fn health_stats(&self) -> HealthStats {
        let mut sum = HealthStats::default();
        for p in self.peers.values() {
            sum.absorb(&p.stats);
        }
        sum
    }

    /// Fresh byte progress from `peer`: clears its miss streak and, if
    /// it had been down, closes the outage sample.
    pub(super) fn on_progress(&mut self, peer: u32, now: SimTime) {
        if let Some(outage) = self.peer(peer).on_progress(now) {
            self.recovery_samples.push(outage);
        }
    }

    /// Screens an arriving frame: `Some` names why it is dropped before
    /// it touches receive or transfer state. A dead or hung node hears
    /// nothing. A stateful frame aimed at a previous life of this node,
    /// or sent by a previous life of the peer, is a ghost and is fenced;
    /// Hello/Ping/Pong are exempt, since they are how epochs propagate.
    pub(super) fn screen(&mut self, env: &Envelope) -> Option<EventKind> {
        if self.down || self.hung {
            self.stats.dropped_down += 1;
            return Some(EventKind::FrameDropped);
        }
        if !env.msg.stateful() {
            return None;
        }
        if env.dst_inc != self.inc {
            self.stats.fenced += 1;
            return Some(EventKind::FencedForInc { sent_for: env.dst_inc, current: self.inc });
        }
        if self.peer(env.src_node).note_epoch(env.src_inc) {
            self.stats.fenced += 1;
            return Some(EventKind::FencedStale { inc: env.src_inc, from: env.src_node });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_time_is_offset_from_the_crash() {
        let p = CrashPlan::crash(3, SimTime::from_us(100), SimTime::from_us(40));
        assert_eq!(p.recovery_at(), Some(SimTime::from_us(140)));
        assert_eq!(p.kind, CrashKind::Crash);
        let h = CrashPlan::hang(1, SimTime::from_us(5), SimTime::from_us(10));
        assert_eq!(h.recovery_at(), Some(SimTime::from_us(15)));
        assert_eq!(h.kind, CrashKind::NiHang);
        let s = CrashPlan::stall(0, SimTime::ZERO, SimTime::from_us(7));
        assert_eq!(s.recovery_at(), Some(SimTime::from_us(7)));
    }

    #[test]
    fn crash_forever_never_recovers() {
        let p = CrashPlan::crash_forever(2, SimTime::from_us(9));
        assert_eq!(p.recover_after, None);
        assert_eq!(p.recovery_at(), None);
    }
}
