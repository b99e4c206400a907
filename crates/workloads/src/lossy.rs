//! Lossy-link reliability workload (E14).
//!
//! [`lossy_link_sweep`] drives a stream of remote transfers between the
//! two nodes of a [`ClusterSim`] over a seeded chaos link for every
//! (loss-rate, retry-budget) pair and reports what the go-back-N layer
//! salvages: goodput, tail (p99) completion latency, retransmit volume
//! and link-layer aborts. The sweep is fully deterministic — the fault
//! plan's PRNG seed is derived from the grid point, so every run of the
//! same grid reproduces the same packet story.

use crate::percentile;
use udma::{ClusterConfig, ClusterSim};
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{FaultPlan, ReliabilityConfig, RetryPolicy, XferState};

/// Address space and base VA the remote node exposes for E14.
const REMOTE_ASID: u32 = 14;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;

/// One (loss-rate, retry-budget) point of the E14 sweep.
#[derive(Clone, Copy, Debug)]
pub struct LossyLinkRow {
    /// Per-frame drop probability, in percent.
    pub loss_pct: u32,
    /// Link-level retransmit rounds allowed before the transfer aborts.
    pub retry_budget: u32,
    /// Transfers posted.
    pub transfers: u32,
    /// Transfers that completed (all bytes delivered, bit-exact).
    pub completed: u32,
    /// Transfers that ended `LinkFailed` (retry budget exhausted).
    pub link_failed: u32,
    /// Data frames retransmitted across the whole stream.
    pub retransmits: u64,
    /// Bytes that actually arrived (completions plus in-order prefixes).
    pub delivered_bytes: u64,
    /// `delivered_bytes` over the summed modeled transfer time, in
    /// MB/s — the paper-style goodput figure chaos erodes.
    pub goodput_mb_s: f64,
    /// Mean completion latency of the transfers that completed.
    pub mean_completion: SimTime,
    /// 99th-percentile completion latency of the completed transfers —
    /// the tail the retransmit/backoff machinery creates.
    pub p99_completion: SimTime,
}

/// Experiment E14: for every (loss %, retry budget) pair, streams
/// `transfers` sequential `pages`-page transfers from node 0 into node 1
/// over a chaos link dropping that fraction of data frames (ACKs share
/// the same fate), with the go-back-N retransmit budget set to the
/// pair's budget; each transfer posts when the previous one settled.
/// Pin-on-post, so the link layer is the only source of disturbance.
/// Goodput falls and the p99 tail stretches as loss rises; a larger
/// budget converts aborts into (slower) completions, trading tail
/// latency for delivery.
pub fn lossy_link_sweep(
    loss_pcts: &[u32],
    retry_budgets: &[u32],
    pages: u64,
    transfers: u32,
) -> Vec<LossyLinkRow> {
    let mut rows = Vec::new();
    for &loss in loss_pcts {
        for &budget in retry_budgets {
            // One seed per grid point: deterministic, yet decorrelated
            // across points.
            let seed = 0xE14_0000 + (loss as u64) * 101 + budget as u64;
            let mut cfg = ClusterConfig::new(2);
            cfg.pin_on_post = true;
            cfg.chaos = Some(FaultPlan::lossless(seed).with_drop(loss.min(99) as f64 / 100.0));
            cfg.reliability = ReliabilityConfig {
                retry: RetryPolicy::new(budget, SimTime::from_us(5)),
                ..ReliabilityConfig::default()
            };
            let mut sim = ClusterSim::new(cfg);
            let va = VirtAddr::new(REMOTE_VA);
            sim.grant(1, REMOTE_ASID, va, pages, Perms::READ_WRITE).expect("fresh node has room");

            let mut row = LossyLinkRow {
                loss_pct: loss,
                retry_budget: budget,
                transfers,
                completed: 0,
                link_failed: 0,
                retransmits: 0,
                delivered_bytes: 0,
                goodput_mb_s: 0.0,
                mean_completion: SimTime::ZERO,
                p99_completion: SimTime::ZERO,
            };
            let mut completions: Vec<SimTime> = Vec::new();
            let mut total_time = SimTime::ZERO;
            let mut at = SimTime::ZERO;
            for _ in 0..transfers {
                let id = sim.post(0, 1, REMOTE_ASID, va, pages * PAGE_SIZE, at);
                sim.run();
                let x = sim.xfer(id);
                let finished = x.finished.expect("a crash-free transfer settles");
                let duration = finished - x.posted_at;
                row.delivered_bytes += x.counters.moved;
                row.retransmits += x.counters.retransmits;
                total_time += duration;
                match x.state {
                    XferState::Complete => {
                        row.completed += 1;
                        completions.push(duration);
                    }
                    XferState::LinkFailed => row.link_failed += 1,
                    other => panic!("non-terminal end state {other:?}"),
                }
                at = finished;
            }
            if total_time > SimTime::ZERO {
                row.goodput_mb_s =
                    row.delivered_bytes as f64 / (total_time.as_us() / 1e6) / (1024.0 * 1024.0);
            }
            if !completions.is_empty() {
                row.mean_completion = SimTime::from_ps(
                    (completions.iter().map(|c| c.as_ps() as u128).sum::<u128>()
                        / completions.len() as u128) as u64,
                );
                row.p99_completion = percentile(&completions, 99.0);
            }
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_point_is_perfect_and_free() {
        let rows = lossy_link_sweep(&[0], &[4], 2, 6);
        let r = &rows[0];
        assert_eq!(r.completed, 6);
        assert_eq!(r.link_failed, 0);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.delivered_bytes, 6 * 2 * PAGE_SIZE);
        // With zero loss every transfer takes the same time.
        assert!(r.p99_completion >= r.mean_completion);
        assert!((r.p99_completion - r.mean_completion) < SimTime::from_us(5));
    }

    #[test]
    fn loss_erodes_goodput_and_stretches_the_tail() {
        let rows = lossy_link_sweep(&[0, 30], &[6], 2, 8);
        let (clean, lossy) = (&rows[0], &rows[1]);
        assert!(lossy.retransmits > 0, "30% loss must force retransmits");
        assert!(
            lossy.goodput_mb_s < clean.goodput_mb_s,
            "goodput {} not below clean {}",
            lossy.goodput_mb_s,
            clean.goodput_mb_s
        );
        assert!(lossy.p99_completion > clean.p99_completion, "tail must stretch under loss");
    }

    #[test]
    fn larger_retry_budget_trades_aborts_for_completions() {
        let rows = lossy_link_sweep(&[35], &[1, 8], 2, 8);
        let (tight, roomy) = (&rows[0], &rows[1]);
        assert!(
            roomy.completed >= tight.completed,
            "budget 8 completed {} < budget 1's {}",
            roomy.completed,
            tight.completed
        );
        assert!(roomy.delivered_bytes >= tight.delivered_bytes);
        // The stream stays fully accounted either way.
        assert_eq!(tight.completed + tight.link_failed, 8);
        assert_eq!(roomy.completed + roomy.link_failed, 8);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = lossy_link_sweep(&[25], &[3], 1, 5);
        let b = lossy_link_sweep(&[25], &[3], 1, 5);
        assert_eq!(a[0].retransmits, b[0].retransmits);
        assert_eq!(a[0].completed, b[0].completed);
        assert_eq!(a[0].p99_completion, b[0].p99_completion);
    }
}
