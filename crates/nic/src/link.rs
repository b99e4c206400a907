//! The network link the DMA engine transfers over, and the
//! configuration of the wire between boards.
//!
//! [`LinkModel`] times a transfer; [`RetryPolicy`] bounds every retry
//! over the link. The cluster's wire model (`udma::ClusterSim`) is
//! configured here too: the seeded chaos plan ([`FaultPlan`]), the
//! go-back-N tunables ([`ReliabilityConfig`]), and the identity and
//! state of a remote transfer ([`XferId`], [`XferState`]).

use std::fmt;
use udma_bus::SimTime;

/// A point-to-point link with fixed bandwidth and latency.
///
/// Used to model the *data transfer* half of the paper's motivation: "the
/// operating system overhead keeps getting an ever-increasing percentage
/// of the DMA transfer time, while the time for the data transfer per se
/// continues to decrease" (§2.2). The presets are the networks the paper
/// names: 155/622 Mb/s ATM and gigabit LANs, plus 10 Mb/s Ethernet as the
/// previous-decade baseline.
///
/// ```
/// use udma_nic::LinkModel;
///
/// let link = LinkModel::gigabit();
/// // A 4 KiB page takes its latency plus ~33 µs of serialisation.
/// assert!(link.transfer_time(4096) > link.latency());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkModel {
    bits_per_second: u64,
    latency: SimTime,
    name: &'static str,
}

impl LinkModel {
    /// Creates a custom link.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_second` is zero.
    pub fn new(name: &'static str, bits_per_second: u64, latency: SimTime) -> Self {
        assert!(bits_per_second > 0, "link bandwidth must be nonzero");
        LinkModel { bits_per_second, latency, name }
    }

    /// 10 Mb/s Ethernet.
    pub fn ethernet10() -> Self {
        LinkModel::new("Ethernet 10Mb/s", 10_000_000, SimTime::from_us(50))
    }

    /// 155 Mb/s ATM ("common today", 1997).
    pub fn atm155() -> Self {
        LinkModel::new("ATM 155Mb/s", 155_000_000, SimTime::from_us(10))
    }

    /// 622 Mb/s ATM ("will soon be upgraded to").
    pub fn atm622() -> Self {
        LinkModel::new("ATM 622Mb/s", 622_000_000, SimTime::from_us(8))
    }

    /// Gigabit LAN ("have already started to appear in the market").
    pub fn gigabit() -> Self {
        LinkModel::new("Gigabit LAN", 1_000_000_000, SimTime::from_us(5))
    }

    /// Name of the preset.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bandwidth in bits per second.
    pub fn bits_per_second(&self) -> u64 {
        self.bits_per_second
    }

    /// Fixed per-transfer latency.
    pub fn latency(&self) -> SimTime {
        self.latency
    }

    /// Wire time for a transfer of `bytes` (latency + serialisation).
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        let ps = (bytes as u128 * 8 * 1_000_000_000_000u128) / self.bits_per_second as u128;
        self.latency + SimTime::from_ps(ps as u64)
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::atm155()
    }
}

/// Bounded retry with exponential backoff — the one policy shared by
/// every layer that retries over the link: the virtual-address unit's
/// fruitless-resume budget and the go-back-N retransmit path both
/// consult the same struct, so the constants live in exactly one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive fruitless attempts allowed before giving up. The
    /// counter resets whenever the layer makes byte progress.
    pub max_retries: u32,
    /// Base backoff; doubles on each consecutive fruitless attempt.
    pub backoff: SimTime,
}

impl RetryPolicy {
    /// A policy with `max_retries` attempts starting at `backoff`.
    pub fn new(max_retries: u32, backoff: SimTime) -> Self {
        RetryPolicy { max_retries, backoff }
    }

    /// The stall charged before fruitless attempt number `attempt`
    /// (0-based): `backoff << attempt`, shift capped so the arithmetic
    /// never overflows.
    pub fn backoff_after(&self, attempt: u32) -> SimTime {
        SimTime::from_ps(self.backoff.as_ps() << attempt.min(16))
    }

    /// Whether `retries` consecutive fruitless attempts exhaust the
    /// budget.
    pub fn exhausted(&self, retries: u32) -> bool {
        retries >= self.max_retries
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, backoff: SimTime::from_us(2) }
    }
}

/// A scripted outage: every data frame whose global transmission index
/// (counting retransmissions) falls in `[start, start + frames)` is
/// dropped, whatever the probabilistic plan says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Burst {
    /// First global data-frame transmission index the outage swallows.
    pub start: u64,
    /// Consecutive transmissions swallowed.
    pub frames: u64,
}

/// Maximum scripted bursts per plan (keeps the plan `Copy`, so it can
/// ride on a `Copy` cluster configuration).
pub const MAX_BURSTS: usize = 4;

/// A deterministic fault plan: seed plus per-frame fault probabilities
/// and scripted burst outages. The same plan always yields the same
/// fault sequence — chaos you can replay from a CI log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed (testkit xoshiro256**).
    pub seed: u64,
    /// Probability a frame (data or ACK) is dropped.
    pub drop: f64,
    /// Probability a data frame arrives twice.
    pub duplicate: f64,
    /// Probability a data frame swaps places with its successor.
    pub reorder: f64,
    /// Probability a data frame arrives with flipped bits (caught by
    /// the CRC; the receiver NACKs instead of acking).
    pub corrupt: f64,
    /// Scripted burst outages (fixed-size so the plan stays `Copy`).
    pub bursts: [Option<Burst>; MAX_BURSTS],
}

impl FaultPlan {
    /// A plan that never faults — the reliability layer's control run.
    pub fn lossless(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            bursts: [None; MAX_BURSTS],
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the corrupt probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Adds a scripted burst outage.
    ///
    /// # Panics
    ///
    /// Panics if all [`MAX_BURSTS`] slots are taken.
    #[allow(
        clippy::expect_used,
        reason = "a plan builder with too many bursts is a configuration error, documented above"
    )]
    pub fn with_burst(mut self, start: u64, frames: u64) -> Self {
        let slot = self
            .bursts
            .iter_mut()
            .find(|s| s.is_none())
            .expect("fault plan already has MAX_BURSTS bursts");
        *slot = Some(Burst { start, frames });
        self
    }

    /// Checks the plan is a valid probability mix.
    ///
    /// # Panics
    ///
    /// Panics if any probability leaves `[0, 1]` or their sum exceeds 1
    /// (the per-frame fates are drawn from one partition of `[0, 1)`).
    pub fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("corrupt", self.corrupt),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} probability {p} outside [0, 1]");
        }
        let sum = self.drop + self.duplicate + self.reorder + self.corrupt;
        assert!(sum <= 1.0, "fault probabilities sum to {sum} > 1");
    }
}

/// Tunables of the reliability layer: framing, the go-back-N window and
/// the retransmit policy, which the cluster's failure detector also
/// probes under. One struct so "how robust is the link" is configured
/// in one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Frame payload size in bytes.
    pub mtu: u64,
    /// Go-back-N window: unacked frames in flight.
    pub window: u32,
    /// Retransmit-timer expiry when no ACK (and no NACK) is heard.
    pub ack_timeout: SimTime,
    /// Retransmit rounds allowed per stretch of no ACK progress, with
    /// the per-round (doubling) backoff — the link-level twin of the
    /// virtual-address unit's resume policy.
    pub retry: RetryPolicy,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            mtu: 1024,
            window: 8,
            // Two ATM-class round trips of headroom.
            ack_timeout: SimTime::from_us(40),
            retry: RetryPolicy::new(6, SimTime::from_us(5)),
        }
    }
}

/// Globally unique transfer id: source node plus the node's posting
/// index. Stable across shard layouts by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct XferId {
    /// The posting (sending) node.
    pub node: u32,
    /// Posting index on that node.
    pub index: u32,
}

impl fmt::Display for XferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}.x{}", self.node, self.index)
    }
}

/// Terminal and in-flight states of a sender-side transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XferState {
    /// Posted; the first chunk has not launched yet.
    Pending,
    /// Chunks are crossing the wire.
    Streaming,
    /// Every byte deposited and acked.
    Complete,
    /// A NACK was unresolvable or the NACK retry budget ran dry.
    Failed,
    /// The link layer's retry budget ran dry mid-chunk; an in-order
    /// prefix may have landed.
    LinkFailed,
    /// The destination node failed (crash, hang, or lease expiry).
    /// Exactly the in-order prefix acked before the failure was
    /// delivered, and if the node rebooted even that prefix died with
    /// its volatile state.
    NodeDown,
}

impl XferState {
    /// Whether the transfer reached a terminal state.
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            XferState::Complete | XferState::Failed | XferState::LinkFailed | XferState::NodeDown
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_serialisation_time() {
        let l = LinkModel::new("t", 1_000_000_000, SimTime::ZERO);
        // 125 bytes = 1000 bits = 1 µs at 1 Gb/s.
        assert_eq!(l.transfer_time(125), SimTime::from_us(1));
    }

    #[test]
    fn latency_added_once() {
        let l = LinkModel::new("t", 1_000_000_000, SimTime::from_us(5));
        assert_eq!(l.transfer_time(0), SimTime::from_us(5));
    }

    #[test]
    fn faster_links_transfer_faster() {
        let b = 64 * 1024;
        assert!(LinkModel::gigabit().transfer_time(b) < LinkModel::atm622().transfer_time(b));
        assert!(LinkModel::atm622().transfer_time(b) < LinkModel::atm155().transfer_time(b));
        assert!(LinkModel::atm155().transfer_time(b) < LinkModel::ethernet10().transfer_time(b));
    }

    #[test]
    fn default_is_atm155() {
        assert_eq!(LinkModel::default(), LinkModel::atm155());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_bandwidth_panics() {
        let _ = LinkModel::new("t", 0, SimTime::ZERO);
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let p = RetryPolicy::new(3, SimTime::from_us(2));
        assert_eq!(p.backoff_after(0), SimTime::from_us(2));
        assert_eq!(p.backoff_after(1), SimTime::from_us(4));
        assert_eq!(p.backoff_after(2), SimTime::from_us(8));
        // The shift saturates at 16 rather than overflowing.
        assert_eq!(p.backoff_after(40), p.backoff_after(16));
        assert!(!p.exhausted(2));
        assert!(p.exhausted(3));
        assert!(p.exhausted(4));
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn overcommitted_probabilities_panic() {
        FaultPlan::lossless(0).with_drop(0.7).with_corrupt(0.7).validate();
    }
}
