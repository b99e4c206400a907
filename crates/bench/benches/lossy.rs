//! E14 — reliable delivery over a lossy cluster link: what the go-back-N
//! layer salvages as the drop rate rises, and what the retry budget buys.

use std::hint::black_box;
use udma_workloads::lossy_link_sweep;

fn main() {
    for row in lossy_link_sweep(&[0, 10, 25, 40], &[2, 6], 2, 8) {
        println!(
            "E14 loss {:>2}% budget {}: {:>2}/{} completed, {:>2} aborted, {:>3} retransmits, \
             goodput {:>8.2} MB/s, p99 {:>8.2} µs",
            row.loss_pct,
            row.retry_budget,
            row.completed,
            row.transfers,
            row.link_failed,
            row.retransmits,
            row.goodput_mb_s,
            row.p99_completion.as_us()
        );
    }
    udma_testkit::bench::run_target(
        "lossy",
        udma_testkit::bench::BenchConfig::iters(10),
        vec![
            (
                "E14_lossy_link_sweep",
                Box::new(|| {
                    let rows = lossy_link_sweep(&[0, 30], &[6], 2, 6);
                    // Loss erodes goodput and forces retransmits
                    // (acceptance: E14).
                    assert_eq!(rows[0].retransmits, 0);
                    assert!(rows[1].retransmits > 0);
                    assert!(rows[1].goodput_mb_s < rows[0].goodput_mb_s);
                    black_box(rows);
                }) as Box<dyn FnMut()>,
            ),
            (
                "E14_budget_tradeoff",
                Box::new(|| {
                    let rows = lossy_link_sweep(&[35], &[1, 8], 2, 6);
                    // A roomier budget converts aborts into completions.
                    assert!(rows[1].completed >= rows[0].completed);
                    black_box(rows);
                }),
            ),
        ],
    );
}
