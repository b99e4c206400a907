//! A lossy link and the reliability layer that survives it.
//!
//! The paper's protocols assume the Telegraphos link delivers every
//! word. This module drops that assumption: a [`FaultyLink`] wraps the
//! cluster link with a *seeded, deterministic* fault plan — per-frame
//! drop/duplicate/reorder/corrupt probabilities plus scripted burst
//! outages — and a go-back-N delivery protocol ([`deliver`]) carries
//! remote transfers across it anyway: MTU-sized frames with sequence
//! numbers and a CRC-32, cumulative ACKs, NACK on checksum failure,
//! retransmit on timeout with exponential backoff and a bounded retry
//! budget. Every recovery action is charged through [`SimTime`], so a
//! lossless plan costs *exactly* what the bare [`LinkModel`] charges —
//! the reliability layer is free until the link actually misbehaves.

use crate::link::{LinkModel, RetryPolicy};
use udma_bus::SimTime;
use udma_testkit::TestRng;

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// frame checksum the receiver verifies before acking anything.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Slicing-by-8 lookup tables for the reflected polynomial
/// `0xEDB8_8320`: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` advances byte `b` through `k` further zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Incremental [`crc32`]: feeding a buffer in any split yields the same
/// value as hashing it whole, so large images (a node's memory) hash
/// page by page without being copied into one buffer first.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A hasher over the empty message.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Appends `data` to the hashed message.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The CRC of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
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
/// ride on a `MachineConfig`).
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

/// What the link did to one data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Arrived intact.
    Deliver,
    /// Vanished on the wire.
    Drop,
    /// Arrived twice.
    Duplicate,
    /// Swapped places with the next frame.
    Reorder,
    /// Arrived with flipped bits (CRC catches it).
    Corrupt,
}

/// Counters of everything the chaos link ever did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultyLinkStats {
    /// Data frames pushed onto the wire (incl. retransmissions).
    pub data_frames: u64,
    /// Data frames dropped (probabilistic + burst).
    pub dropped: u64,
    /// Data frames delivered twice.
    pub duplicated: u64,
    /// Data frames swapped with their successor.
    pub reordered: u64,
    /// Data frames delivered with flipped bits.
    pub corrupted: u64,
    /// ACK/NACK frames lost on the return path.
    pub acks_dropped: u64,
}

/// The seeded chaos wrapper around a node's sending link: every data
/// frame the node sends, and every ACK it waits for, consults this for
/// its fate. Deterministic — replaying the same plan against the same
/// traffic yields the same faults.
#[derive(Clone, Debug)]
pub struct FaultyLink {
    plan: FaultPlan,
    rng: TestRng,
    /// Global data-frame transmission counter (burst outages key on it).
    sent: u64,
    stats: FaultyLinkStats,
}

impl FaultyLink {
    /// Wraps a link with `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's probabilities are invalid
    /// ([`FaultPlan::validate`]).
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        FaultyLink {
            plan,
            rng: TestRng::seed_from_u64(plan.seed),
            sent: 0,
            stats: FaultyLinkStats::default(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Everything the link has done so far.
    pub fn stats(&self) -> FaultyLinkStats {
        self.stats
    }

    /// Decides the fate of the next data frame (consumes one PRNG draw;
    /// burst outages override the draw but still consume it, so a plan
    /// with and without bursts stays comparable frame for frame).
    pub fn data_fate(&mut self) -> FrameFate {
        let idx = self.sent;
        self.sent += 1;
        self.stats.data_frames += 1;
        let r = self.rng.gen_f64();
        let in_burst = self
            .plan
            .bursts
            .iter()
            .flatten()
            .any(|b| idx >= b.start && idx < b.start.saturating_add(b.frames));
        if in_burst {
            self.stats.dropped += 1;
            return FrameFate::Drop;
        }
        let p = &self.plan;
        if r < p.drop {
            self.stats.dropped += 1;
            FrameFate::Drop
        } else if r < p.drop + p.duplicate {
            self.stats.duplicated += 1;
            FrameFate::Duplicate
        } else if r < p.drop + p.duplicate + p.reorder {
            self.stats.reordered += 1;
            FrameFate::Reorder
        } else if r < p.drop + p.duplicate + p.reorder + p.corrupt {
            self.stats.corrupted += 1;
            FrameFate::Corrupt
        } else {
            FrameFate::Deliver
        }
    }

    /// Whether the next ACK/NACK frame on the return path is lost
    /// (same drop probability as data frames).
    pub fn ack_lost(&mut self) -> bool {
        let lost = self.rng.gen_bool(self.plan.drop);
        if lost {
            self.stats.acks_dropped += 1;
        }
        lost
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

/// What one reliable delivery did: the in-order prefix that landed, the
/// wire and stall time it cost, and every recovery counter. `elapsed`
/// is the whole story on the sender's clock: serialisation of every
/// byte that crossed the wire (retransmissions included) plus every
/// timeout and backoff stall.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryOutcome {
    /// Bytes of the contiguous in-order prefix the receiver accepted.
    pub delivered: u64,
    /// Total time on the sender's clock (wire + stalls).
    pub elapsed: SimTime,
    /// Bytes that crossed the wire, retransmissions and duplicates
    /// included.
    pub wire_bytes: u64,
    /// Data-frame transmissions (first sends + retransmissions).
    pub frames_sent: u32,
    /// Frames sent again after their first transmission.
    pub retransmits: u32,
    /// Retransmit-timer / NACK-recovery rounds charged.
    pub timeouts: u32,
    /// Time lost to timeouts and backoff alone (subset of `elapsed`).
    pub stall: SimTime,
    /// Frames the receiver discarded for a bad CRC (never acked).
    pub crc_dropped: u32,
    /// Duplicate frames the receiver ignored (already past them).
    pub dup_ignored: u32,
    /// Out-of-order frames a go-back-N receiver discards.
    pub ooo_discarded: u32,
    /// Whether the sender heard the final cumulative ACK. When false
    /// the retry budget ran dry; `delivered` is still an exact in-order
    /// prefix (possibly the whole payload if only the last ACK died).
    pub completed: bool,
}

/// Carries a `len`-byte payload across the chaos link with go-back-N:
/// frames of [`ReliabilityConfig::mtu`] bytes, sequence numbers, CRC-32,
/// a cumulative ACK per window round, NACK-accelerated recovery on CRC
/// failure, retransmit on timeout with exponential backoff, bounded by
/// the retry budget. The bytes the receiver accepted are always a
/// contiguous in-order prefix of the payload, so the outcome's
/// `delivered` length names them exactly: the caller deposits
/// `&payload[..delivered]` straight from its own buffer.
///
/// Timing: the elapsed time is `link.transfer_time(wire_bytes)` plus
/// the accumulated stalls, so a run in which nothing goes wrong costs
/// *exactly* `link.transfer_time(len)` — the reliability layer adds
/// zero `SimTime` until the link actually faults.
pub fn deliver(
    link: &LinkModel,
    rel: &ReliabilityConfig,
    faulty: &mut FaultyLink,
    len: u64,
) -> DeliveryOutcome {
    let len = len as usize;
    let mtu = rel.mtu.max(1) as usize;
    let nframes = len.div_ceil(mtu);
    let window = rel.window.max(1) as usize;
    let mut o = DeliveryOutcome::default();
    let mut sender_base = 0usize; // frames the sender knows are acked
    let mut next_expected = 0usize; // receiver's in-order progress

    // Windows start at the acked base and only move forward, so a frame
    // was sent before exactly when it lies below the highest window end.
    let mut sent_hi = 0usize;
    let mut retries = 0u32;
    // One arrival buffer for every window round (a duplicated frame
    // arrives twice).
    let mut arrivals: Vec<(usize, bool)> = Vec::with_capacity(2 * window);

    while sender_base < nframes {
        if retries > rel.retry.max_retries {
            break;
        }
        let end = (sender_base + window).min(nframes);

        // Transmit the window; the chaos link decides each frame's fate.
        // An arrival is (seq, crc_ok): a corrupted frame is one whose
        // recomputed CRC cannot match its header.
        arrivals.clear();
        let mut swap_with_next: Option<usize> = None;
        for seq in sender_base..end {
            let lo = seq * mtu;
            let frame_len = (len - lo).min(mtu) as u64;
            o.wire_bytes += frame_len;
            o.frames_sent += 1;
            if seq < sent_hi {
                o.retransmits += 1;
            }
            let mut push = |arrivals: &mut Vec<(usize, bool)>, a: (usize, bool)| {
                arrivals.push(a);
                if let Some(i) = swap_with_next.take() {
                    let last = arrivals.len() - 1;
                    arrivals.swap(i, last);
                }
            };
            match faulty.data_fate() {
                FrameFate::Drop => {}
                FrameFate::Deliver => push(&mut arrivals, (seq, true)),
                FrameFate::Corrupt => push(&mut arrivals, (seq, false)),
                FrameFate::Duplicate => {
                    o.wire_bytes += frame_len;
                    push(&mut arrivals, (seq, true));
                    push(&mut arrivals, (seq, true));
                }
                FrameFate::Reorder => {
                    push(&mut arrivals, (seq, true));
                    swap_with_next = Some(arrivals.len() - 1);
                }
            }
        }
        sent_hi = sent_hi.max(end);

        // Receive: a go-back-N receiver accepts only the next in-order
        // CRC-good frame; everything else is ignored or NACKed.
        let mut crc_failed = false;
        for &(seq, crc_ok) in &arrivals {
            if !crc_ok {
                o.crc_dropped += 1;
                crc_failed = true;
                continue;
            }
            if seq == next_expected {
                next_expected += 1;
            } else if seq < next_expected {
                o.dup_ignored += 1;
            } else {
                o.ooo_discarded += 1;
            }
        }

        // The cumulative ACK rides the same lossy wire back.
        let prev_base = sender_base;
        if next_expected > sender_base && !faulty.ack_lost() {
            sender_base = next_expected;
        }
        if sender_base >= nframes {
            break;
        }

        // Something transmitted is still unacked: recovery costs one
        // round. A CRC NACK that survives the return path lets the
        // sender retransmit after a round trip instead of a full timer.
        let nack_heard = crc_failed && !faulty.ack_lost();
        let wait = if nack_heard { link.latency() + link.latency() } else { rel.ack_timeout };
        o.timeouts += 1;
        let backoff = if sender_base > prev_base {
            retries = 0;
            SimTime::ZERO
        } else {
            let b = rel.retry.backoff_after(retries);
            retries += 1;
            b
        };
        o.stall += wait + backoff;
    }

    o.completed = sender_base >= nframes;
    o.delivered = (next_expected * mtu).min(len) as u64;
    o.elapsed = link.transfer_time(o.wire_bytes) + o.stall;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The CRC-32/ISO-HDLC check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"123456789"), crc32(b"123456788"));
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_crc_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn lossless_delivery_costs_exactly_the_bare_link() {
        let link = LinkModel::atm155();
        let rel = ReliabilityConfig::default();
        let len: u64 = 3 * 1024 + 100;
        let mut faulty = FaultyLink::new(FaultPlan::lossless(42));
        let o = deliver(&link, &rel, &mut faulty, len);
        assert!(o.completed);
        assert_eq!(o.delivered, len);
        assert_eq!(o.wire_bytes, len);
        assert_eq!(o.retransmits, 0);
        assert_eq!(o.timeouts, 0);
        assert_eq!(o.stall, SimTime::ZERO);
        assert_eq!(o.elapsed, link.transfer_time(len));
    }

    #[test]
    fn drops_force_retransmits_but_bytes_arrive_intact() {
        let link = LinkModel::gigabit();
        let rel = ReliabilityConfig::default();
        let len: u64 = 8 * 1024;
        let mut faulty = FaultyLink::new(FaultPlan::lossless(7).with_drop(0.3));
        let o = deliver(&link, &rel, &mut faulty, len);
        assert!(o.completed, "30% loss with budget 6 should get through: {o:?}");
        assert_eq!(o.delivered, len);
        assert!(o.retransmits > 0);
        assert!(o.timeouts > 0);
        assert!(o.stall > SimTime::ZERO);
        assert!(o.wire_bytes > len);
        assert_eq!(o.elapsed, link.transfer_time(o.wire_bytes) + o.stall);
    }

    #[test]
    fn corrupted_frames_are_never_accepted() {
        let link = LinkModel::atm155();
        let rel = ReliabilityConfig::default();
        let len: u64 = 6 * 1024;
        let mut faulty = FaultyLink::new(FaultPlan::lossless(11).with_corrupt(0.4));
        let o = deliver(&link, &rel, &mut faulty, len);
        assert!(o.crc_dropped > 0, "40% corruption must trip the CRC");
        // Corruption costs retransmits, never integrity: only CRC-good
        // in-order frames count toward the delivered prefix.
        assert!(o.completed);
        assert_eq!(o.delivered, len);
        assert_eq!(faulty.stats().corrupted as u32, o.crc_dropped);
    }

    #[test]
    fn duplicates_and_reorders_cost_little_and_corrupt_nothing() {
        let link = LinkModel::atm155();
        let rel = ReliabilityConfig::default();
        let len: u64 = 8 * 1024;
        let mut faulty =
            FaultyLink::new(FaultPlan::lossless(3).with_duplicate(0.2).with_reorder(0.2));
        let o = deliver(&link, &rel, &mut faulty, len);
        assert!(o.completed);
        assert_eq!(o.delivered, len);
        assert!(o.dup_ignored > 0 || o.ooo_discarded > 0);
    }

    #[test]
    fn burst_outage_past_the_budget_leaves_an_exact_prefix() {
        let link = LinkModel::atm155();
        let rel = ReliabilityConfig::default();
        let len: u64 = 8 * 1024;
        // Everything from frame 2 on is swallowed, far past any budget.
        let mut faulty = FaultyLink::new(FaultPlan::lossless(5).with_burst(2, 1_000_000));
        let o = deliver(&link, &rel, &mut faulty, len);
        assert!(!o.completed);
        assert_eq!(o.delivered, 2 * 1024);
        assert!(o.timeouts > rel.retry.max_retries);
    }

    #[test]
    fn same_seed_same_story() {
        let link = LinkModel::atm622();
        let rel = ReliabilityConfig::default();
        let len: u64 = 16 * 1024;
        let plan = FaultPlan::lossless(99).with_drop(0.2).with_corrupt(0.1);
        let a = deliver(&link, &rel, &mut FaultyLink::new(plan), len);
        let b = deliver(&link, &rel, &mut FaultyLink::new(plan), len);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn overcommitted_probabilities_panic() {
        let _ = FaultyLink::new(FaultPlan::lossless(0).with_drop(0.7).with_corrupt(0.7));
    }
}
