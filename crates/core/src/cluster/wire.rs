//! The wire between two nodes, and the reliability layer that crosses it.
//!
//! The paper's protocols assume the Telegraphos link delivers every
//! word. The cluster drops that assumption: a [`FaultyLink`] wraps a
//! node's sending link with a *seeded, deterministic* [`FaultPlan`] —
//! per-frame drop/duplicate/reorder/corrupt probabilities plus scripted
//! burst outages — and a go-back-N delivery protocol ([`deliver`])
//! carries every chunk across it anyway: MTU-sized frames with sequence
//! numbers and a CRC, cumulative ACKs, NACK on checksum failure,
//! retransmit on timeout with exponential backoff and a bounded retry
//! budget. Every recovery action is charged through [`SimTime`].
//!
//! An ideal wire is the same [`deliver`] with no chaos link: every frame
//! arrives and every ACK is heard. So a clean run costs *exactly* what
//! the bare [`LinkModel`] charges, whether or not a plan is attached —
//! the reliability layer is free until the link actually misbehaves.

use udma_bus::SimTime;
use udma_nic::{FaultPlan, LinkModel, ReliabilityConfig};
use udma_testkit::TestRng;

/// What the link did to one data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FrameFate {
    /// Arrived intact.
    Deliver,
    /// Vanished on the wire.
    Drop,
    /// Arrived twice.
    Duplicate,
    /// Swapped places with the next frame.
    Reorder,
    /// Arrived with flipped bits (the CRC catches it).
    Corrupt,
}

/// The seeded chaos wrapper around a node's sending link: every data
/// frame the node sends, and every ACK it waits for, consults this for
/// its fate. Deterministic — replaying the same plan against the same
/// traffic yields the same faults.
#[derive(Clone, Debug)]
pub(crate) struct FaultyLink {
    plan: FaultPlan,
    rng: TestRng,
    /// Global data-frame transmission counter (burst outages key on it).
    sent: u64,
}

impl FaultyLink {
    /// Wraps a link with `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's probabilities are invalid
    /// ([`FaultPlan::validate`]).
    pub(crate) fn new(plan: FaultPlan) -> Self {
        plan.validate();
        FaultyLink { plan, rng: TestRng::seed_from_u64(plan.seed), sent: 0 }
    }

    /// Decides the fate of the next data frame (consumes one PRNG draw;
    /// burst outages override the draw but still consume it, so a plan
    /// with and without bursts stays comparable frame for frame).
    pub(crate) fn data_fate(&mut self) -> FrameFate {
        let idx = self.sent;
        self.sent += 1;
        let r = self.rng.gen_f64();
        let in_burst = self
            .plan
            .bursts
            .iter()
            .flatten()
            .any(|b| idx >= b.start && idx < b.start.saturating_add(b.frames));
        if in_burst {
            return FrameFate::Drop;
        }
        let p = &self.plan;
        if r < p.drop {
            FrameFate::Drop
        } else if r < p.drop + p.duplicate {
            FrameFate::Duplicate
        } else if r < p.drop + p.duplicate + p.reorder {
            FrameFate::Reorder
        } else if r < p.drop + p.duplicate + p.reorder + p.corrupt {
            FrameFate::Corrupt
        } else {
            FrameFate::Deliver
        }
    }

    /// Whether the next ACK/NACK frame on the return path is lost
    /// (same drop probability as data frames).
    pub(crate) fn ack_lost(&mut self) -> bool {
        self.rng.gen_bool(self.plan.drop)
    }
}

/// What one reliable delivery did: the in-order prefix that landed, the
/// wire and stall time it cost, and every recovery counter. `elapsed`
/// is the whole story on the sender's clock: serialisation of every
/// byte that crossed the wire (retransmissions included) plus every
/// timeout and backoff stall.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct DeliveryOutcome {
    /// Bytes of the contiguous in-order prefix the receiver accepted.
    pub(crate) delivered: u64,
    /// Total time on the sender's clock (wire + stalls).
    pub(crate) elapsed: SimTime,
    /// Bytes that crossed the wire, retransmissions and duplicates
    /// included.
    pub(crate) wire_bytes: u64,
    /// Frames sent again after their first transmission.
    pub(crate) retransmits: u32,
    /// Retransmit-timer / NACK-recovery rounds charged.
    pub(crate) timeouts: u32,
    /// Time lost to timeouts and backoff alone (subset of `elapsed`).
    pub(crate) stall: SimTime,
    /// Frames the receiver discarded for a bad CRC (never acked).
    pub(crate) crc_dropped: u32,
    /// Duplicate frames the receiver ignored (already past them).
    pub(crate) dup_ignored: u32,
    /// Out-of-order frames a go-back-N receiver discards.
    pub(crate) ooo_discarded: u32,
    /// Whether the sender heard the final cumulative ACK. When false
    /// the retry budget ran dry; `delivered` is still an exact in-order
    /// prefix (possibly the whole payload if only the last ACK died).
    pub(crate) completed: bool,
}

/// One frame as the receiver sees it: its sequence number and whether
/// its CRC checks out (a corrupted frame's recomputed CRC cannot match
/// its header).
pub(crate) type Arrival = (usize, bool);

/// Carries a `len`-byte payload across the wire with go-back-N: frames
/// of [`ReliabilityConfig::mtu`] bytes, sequence numbers, a CRC, a
/// cumulative ACK per window round, NACK-accelerated recovery on CRC
/// failure, retransmit on timeout with exponential backoff, bounded by
/// the retry budget. The bytes the receiver accepted are always a
/// contiguous in-order prefix of the payload, so the outcome's
/// `delivered` length names them exactly: the caller deposits
/// `&payload[..delivered]` straight from its own buffer.
///
/// `chaos` decides each frame's and each ACK's fate; `None` is the ideal
/// wire, which never drops a frame or an ACK and draws no random
/// numbers. `arrivals` is scratch space the caller keeps between
/// deliveries, so a delivery allocates nothing once it has grown.
///
/// Timing: the elapsed time is `link.transfer_time(wire_bytes)` plus
/// the accumulated stalls. Recovery is charged only while something
/// transmitted is still unacked, so a run in which nothing goes wrong
/// costs *exactly* `link.transfer_time(len)`, over any window — the
/// reliability layer adds zero `SimTime` until the link actually faults.
pub(crate) fn deliver(
    link: &LinkModel,
    rel: &ReliabilityConfig,
    mut chaos: Option<&mut FaultyLink>,
    arrivals: &mut Vec<Arrival>,
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

    while sender_base < nframes {
        if retries > rel.retry.max_retries {
            break;
        }
        let end = (sender_base + window).min(nframes);

        // Transmit the window; the chaos link decides each frame's fate.
        arrivals.clear();
        let mut swap_with_next: Option<usize> = None;
        for seq in sender_base..end {
            let lo = seq * mtu;
            let frame_len = (len - lo).min(mtu) as u64;
            o.wire_bytes += frame_len;
            if seq < sent_hi {
                o.retransmits += 1;
            }
            let mut push = |arrivals: &mut Vec<Arrival>, a: Arrival| {
                arrivals.push(a);
                if let Some(i) = swap_with_next.take() {
                    let last = arrivals.len() - 1;
                    arrivals.swap(i, last);
                }
            };
            match chaos.as_deref_mut().map_or(FrameFate::Deliver, FaultyLink::data_fate) {
                FrameFate::Drop => {}
                FrameFate::Deliver => push(arrivals, (seq, true)),
                FrameFate::Corrupt => push(arrivals, (seq, false)),
                FrameFate::Duplicate => {
                    o.wire_bytes += frame_len;
                    push(arrivals, (seq, true));
                    push(arrivals, (seq, true));
                }
                FrameFate::Reorder => {
                    push(arrivals, (seq, true));
                    swap_with_next = Some(arrivals.len() - 1);
                }
            }
        }
        sent_hi = sent_hi.max(end);

        // Receive: a go-back-N receiver accepts only the next in-order
        // CRC-good frame; everything else is ignored or NACKed.
        let mut crc_failed = false;
        for &(seq, crc_ok) in arrivals.iter() {
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

        // The cumulative ACK rides the same wire back.
        let mut ack_lost = || chaos.as_deref_mut().is_some_and(FaultyLink::ack_lost);
        let prev_base = sender_base;
        if next_expected > sender_base && !ack_lost() {
            sender_base = next_expected;
        }
        if sender_base >= sent_hi {
            // Everything transmitted is acked: the next window (if any)
            // goes out at once, with a fresh retry budget.
            retries = 0;
            continue;
        }

        // Something transmitted is still unacked: recovery costs one
        // round. A CRC NACK that survives the return path lets the
        // sender retransmit after a round trip instead of a full timer.
        let nack_heard = crc_failed && !ack_lost();
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

    /// One delivery over `chaos` with fresh scratch space.
    fn run(
        link: &LinkModel,
        rel: &ReliabilityConfig,
        chaos: Option<&mut FaultyLink>,
        len: u64,
    ) -> DeliveryOutcome {
        deliver(link, rel, chaos, &mut Vec::new(), len)
    }

    /// A clean wire charges no recovery round, however many windows the
    /// payload spans: the ideal wire and a lossless plan both cost
    /// exactly the bare link, partial last frame included.
    #[test]
    fn a_clean_wire_costs_the_bare_link_over_every_window() {
        let link = LinkModel::atm155();
        let page = udma_mem::PAGE_SIZE;
        for window in [1, 2, 8] {
            let rel = ReliabilityConfig { window, ..ReliabilityConfig::default() };
            for len in [3 * 1024 + 100, page, 2 * page, 3 * page, 4 * page] {
                let mut lossless = FaultyLink::new(FaultPlan::lossless(5));
                for (wire, chaos) in [("ideal", None), ("lossless", Some(&mut lossless))] {
                    let o = run(&link, &rel, chaos, len);
                    let at = format!("{wire} wire, window {window}, {len} bytes");
                    assert_eq!(o.elapsed, link.transfer_time(len), "{at}");
                    assert_eq!(o.stall, SimTime::ZERO, "{at}");
                    assert_eq!(o.timeouts, 0, "{at}");
                    assert_eq!((o.wire_bytes, o.retransmits), (len, 0), "{at}");
                    assert!(o.completed && o.delivered == len, "{at}");
                }
            }
        }
    }

    #[test]
    fn drops_force_retransmits_but_bytes_arrive_intact() {
        let link = LinkModel::gigabit();
        let rel = ReliabilityConfig::default();
        let len: u64 = 8 * 1024;
        let mut faulty = FaultyLink::new(FaultPlan::lossless(7).with_drop(0.3));
        let o = run(&link, &rel, Some(&mut faulty), len);
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
        let o = run(&link, &rel, Some(&mut faulty), len);
        assert!(o.crc_dropped > 0, "40% corruption must trip the CRC");
        // Corruption costs retransmits, never integrity: only CRC-good
        // in-order frames count toward the delivered prefix.
        assert!(o.completed);
        assert_eq!(o.delivered, len);
        // When every frame is corrupted, every transmission (six first
        // sends plus each retransmission) is discarded and none lands.
        let mut faulty = FaultyLink::new(FaultPlan::lossless(11).with_corrupt(1.0));
        let o = run(&link, &rel, Some(&mut faulty), len);
        assert!(!o.completed);
        assert_eq!(o.delivered, 0);
        assert_eq!(o.crc_dropped, 6 + o.retransmits);
    }

    #[test]
    fn duplicates_and_reorders_cost_little_and_corrupt_nothing() {
        let link = LinkModel::atm155();
        let rel = ReliabilityConfig::default();
        let len: u64 = 8 * 1024;
        let mut faulty =
            FaultyLink::new(FaultPlan::lossless(3).with_duplicate(0.2).with_reorder(0.2));
        let o = run(&link, &rel, Some(&mut faulty), len);
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
        let o = run(&link, &rel, Some(&mut faulty), len);
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
        let a = run(&link, &rel, Some(&mut FaultyLink::new(plan)), len);
        let b = run(&link, &rel, Some(&mut FaultyLink::new(plan)), len);
        assert_eq!(a, b);
    }
}
