//! Per-destination node health: the failure detector and its state
//! machine.
//!
//! The go-back-N link layer survives a *lossy* link; this module
//! survives a *silent peer*, acting as a circuit breaker per
//! destination. Every sender keeps one [`PeerHealth`] per destination
//! and drives it from ACK-lease outcomes:
//!
//! ```text
//!        lease miss ×SUSPECT_AFTER        lease miss ×DOWN_AFTER
//!   Up ───────────────────────► Suspect ───────────────────────► Down
//!    ▲                              │                              │
//!    │ byte progress                │ byte progress                │ Pong / Hello
//!    │                              ▼                              ▼
//!    └──────────────────────── (back to Up) ◄────────────── Recovering
//! ```
//!
//! `Down` is the fail-fast state: transfers toward the peer, launching
//! or in flight, end [`udma_nic::XferState::NodeDown`], delivering
//! exactly their in-order acked prefix. Probes (bounded by the link's
//! own [`RetryPolicy`]) and the rebooted peer's own Hello broadcast move
//! the peer to `Recovering`; the first completed byte of progress
//! closes the loop back to `Up`. The one tunable is the lease itself,
//! [`ClusterConfig::ack_lease`](super::ClusterConfig::ack_lease).

use udma_bus::SimTime;
use udma_nic::RetryPolicy;

/// Consecutive lease misses that move `Up → Suspect`.
const SUSPECT_AFTER: u32 = 1;

/// Consecutive lease misses that move a peer to `Down`.
const DOWN_AFTER: u32 = 3;

/// Health of one destination node, as seen by one sender.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HealthState {
    /// Leases are being met; posts flow normally.
    #[default]
    Up,
    /// One or more leases missed; the sender keeps retransmitting but
    /// the peer is on notice.
    Suspect,
    /// The miss threshold tripped: posts fail fast, in-flight transfers
    /// abort `NodeDown`, probes back off under the shared retry policy.
    Down,
    /// A probe answered or the peer announced a reboot; transfers may
    /// relaunch, and the first byte of progress confirms `Up`.
    Recovering,
}

/// Aggregate detector counters (per sender, summed over peers in the
/// cluster digest).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// ACK leases that expired without progress.
    pub misses: u64,
    /// `Up/Suspect → Down` transitions.
    pub downs: u64,
    /// `Down/Recovering → Up` transitions (service restored).
    pub recoveries: u64,
    /// Probes sent.
    pub probes: u64,
    /// Posts or launches rejected fail-fast because the peer was `Down`.
    pub fail_fast: u64,
}

impl HealthStats {
    /// Folds another sender's counters in (digest aggregation).
    pub fn absorb(&mut self, other: &HealthStats) {
        self.misses += other.misses;
        self.downs += other.downs;
        self.recoveries += other.recoveries;
        self.probes += other.probes;
        self.fail_fast += other.fail_fast;
    }
}

/// One sender's view of one destination node.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct PeerHealth {
    state: HealthState,
    /// Consecutive lease misses (reset on progress).
    misses_in_row: u32,
    /// Highest incarnation epoch seen from the peer.
    incarnation: u64,
    /// Probes sent since the peer went `Down` (bounds the probe loop).
    probes_sent: u32,
    /// When the peer went `Down`, for recovery-latency accounting.
    down_since: Option<SimTime>,
    /// Detector counters.
    pub(super) stats: HealthStats,
}

impl PeerHealth {
    /// Current state.
    pub(super) fn state(&self) -> HealthState {
        self.state
    }

    /// Highest incarnation epoch seen from the peer.
    pub(super) fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Whether a new post targeting the peer should fail fast. Counts
    /// the rejection when it should.
    pub(super) fn admit(&mut self) -> bool {
        if self.state == HealthState::Down {
            self.stats.fail_fast += 1;
            return false;
        }
        true
    }

    /// An ACK lease expired without byte progress. Returns the state
    /// after the miss; the caller aborts in-flight transfers when it
    /// sees `Down`.
    pub(super) fn on_miss(&mut self, now: SimTime) -> HealthState {
        self.stats.misses += 1;
        self.misses_in_row += 1;
        match self.state {
            HealthState::Up | HealthState::Recovering | HealthState::Suspect => {
                if self.misses_in_row >= DOWN_AFTER {
                    self.state = HealthState::Down;
                    self.stats.downs += 1;
                    self.down_since = Some(now);
                    self.probes_sent = 0;
                } else if self.misses_in_row >= SUSPECT_AFTER {
                    self.state = HealthState::Suspect;
                }
            }
            HealthState::Down => {}
        }
        self.state
    }

    /// Byte progress from the peer: leases are being met again.
    /// Returns the duration of the outage this progress ended, if it
    /// ended one (the recovery-latency sample).
    pub(super) fn on_progress(&mut self, now: SimTime) -> Option<SimTime> {
        self.misses_in_row = 0;
        let was_down = self.down_since.take();
        if matches!(self.state, HealthState::Down | HealthState::Recovering) {
            self.stats.recoveries += 1;
        }
        self.state = HealthState::Up;
        was_down.map(|t| now.saturating_sub(t))
    }

    /// The peer spoke with incarnation `inc` (Hello broadcast or Pong).
    /// Moves `Down → Recovering` and returns `true` when the epoch
    /// *advanced* — the caller must then treat all pre-epoch progress
    /// toward the peer as lost.
    pub(super) fn on_alive(&mut self, inc: u64) -> bool {
        let advanced = inc > self.incarnation;
        self.incarnation = self.incarnation.max(inc);
        if matches!(self.state, HealthState::Down) {
            self.state = HealthState::Recovering;
            self.misses_in_row = 0;
        }
        advanced
    }

    /// Records a frame from the peer with epoch `inc` and tells whether
    /// it is stale (older than an epoch this sender has already seen) —
    /// stale frames are fenced, never merged.
    pub(super) fn note_epoch(&mut self, inc: u64) -> bool {
        if inc < self.incarnation {
            return true;
        }
        self.incarnation = inc;
        false
    }

    /// Whether to probe now, and when to try again: consumes one probe
    /// attempt of `policy` and returns the backoff until the next.
    /// `None` once the budget is exhausted (the peer's own Hello is then
    /// the only way back) or when the peer is not `Down`.
    pub(super) fn next_probe(&mut self, policy: &RetryPolicy) -> Option<SimTime> {
        if self.state != HealthState::Down || policy.exhausted(self.probes_sent) {
            return None;
        }
        let backoff = policy.backoff_after(self.probes_sent);
        self.probes_sent += 1;
        self.stats.probes += 1;
        Some(backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_nic::ReliabilityConfig;

    #[test]
    fn misses_walk_up_suspect_down_and_progress_resets() {
        let mut p = PeerHealth::default();
        assert_eq!(p.state(), HealthState::Up);
        assert!(p.admit());
        assert_eq!(p.on_miss(SimTime::from_us(1)), HealthState::Suspect);
        assert_eq!(p.on_miss(SimTime::from_us(2)), HealthState::Suspect);
        assert_eq!(p.on_miss(SimTime::from_us(3)), HealthState::Down, "down after exactly 3");
        assert!(!p.admit(), "down peers fail fast");
        assert_eq!(p.stats.fail_fast, 1);
        assert_eq!(p.down_since, Some(SimTime::from_us(3)));
        // Progress ends the outage and reports its length.
        assert_eq!(p.on_progress(SimTime::from_us(10)), Some(SimTime::from_us(7)));
        assert_eq!(p.state(), HealthState::Up);
        assert_eq!(p.stats.recoveries, 1);
        // A lone miss only suspects; progress clears it silently.
        p.on_miss(SimTime::from_us(11));
        assert_eq!(p.state(), HealthState::Suspect);
        assert_eq!(p.on_progress(SimTime::from_us(12)), None);
        assert_eq!(p.state(), HealthState::Up);
    }

    #[test]
    fn hello_recovers_and_advances_the_epoch() {
        let mut p = PeerHealth::default();
        for t in 1..=3 {
            p.on_miss(SimTime::from_us(t));
        }
        assert_eq!(p.state(), HealthState::Down);
        assert!(p.on_alive(1), "first reboot advances the epoch");
        assert_eq!(p.state(), HealthState::Recovering);
        assert_eq!(p.incarnation(), 1);
        assert!(!p.on_alive(1), "same epoch again is not an advance");
        // Stale frames from the dead incarnation are fenced.
        assert!(p.note_epoch(0));
        assert!(!p.note_epoch(1));
        assert!(!p.note_epoch(2), "newer epochs are learned, not fenced");
        assert_eq!(p.incarnation(), 2);
    }

    #[test]
    fn probes_are_bounded_by_the_shared_retry_policy() {
        let retry = ReliabilityConfig::default().retry;
        let mut p = PeerHealth::default();
        for t in 1..=3 {
            p.on_miss(SimTime::from_us(t));
        }
        let mut sent = 0;
        while let Some(backoff) = p.next_probe(&retry) {
            assert_eq!(backoff, retry.backoff_after(sent));
            sent += 1;
            assert!(sent <= retry.max_retries, "probe loop must terminate");
        }
        assert_eq!(sent, retry.max_retries);
        assert_eq!(p.stats.probes, u64::from(sent));
        // Not down — no probes.
        let mut up = PeerHealth::default();
        assert_eq!(up.next_probe(&retry), None);
    }
}
