//! E11–E13, E15 — virtual-address DMA: IOTLB capacity, the cost of page
//! faults taken mid-transfer, the cross-link remote-fault path on the
//! cluster simulation, and the translation pipeline (prefetch, batched
//! walks, chunk coalescing, announced remote ranges).

use std::hint::black_box;
use udma_nic::LinkModel;
use udma_testkit::bench::{run_target, BenchConfig};
use udma_workloads::{
    fault_rate_sweep, iotlb_sweep, pipeline_sweep, remote_announce_sweep, remote_fault_sweep,
};

fn main() {
    for row in iotlb_sweep(&[4, 8, 16, 32, 64], 16, 4) {
        println!(
            "E11 iotlb {:>3} entries: hit ratio {:.3} ({} hits / {} misses, {} evictions)",
            row.entries, row.hit_ratio, row.hits, row.misses, row.evictions
        );
    }
    for row in fault_rate_sweep(&[0, 25, 50, 75, 100], 16) {
        println!(
            "E12 {:>3}% prefaulted: {:>2} faults, stall {:>7.2} µs, completion {:>8.2} µs",
            row.prefaulted_pct,
            row.faults,
            row.stall.as_us(),
            row.completion.as_us()
        );
    }
    let links =
        [LinkModel::ethernet10(), LinkModel::atm155(), LinkModel::atm622(), LinkModel::gigabit()];
    for row in remote_fault_sweep(&links, &[0, 50, 100], 8) {
        println!(
            "E13 {:<15} {:>3}% prefaulted: {:>2} NACKs, nack stall {:>7.2} µs, \
             completion {:>9.2} µs",
            row.link,
            row.prefaulted_pct,
            row.remote_faults,
            row.nack_stall.as_us(),
            row.completion.as_us()
        );
    }
    for row in pipeline_sweep(&[0, 2, 8], &[8, 64], &[1, 8], 16) {
        println!(
            "E15 local  depth {:>2} × {:>3} entries × coalesce {:>2}: {:>3} chunks, \
             {:>3} misses ({:>3} hidden), stall {:>7.2} µs, completion {:>8.2} µs",
            row.depth,
            row.entries,
            row.max_coalesce,
            row.chunks,
            row.misses,
            row.prefetch_hidden,
            row.stall.as_us(),
            row.completion.as_us()
        );
    }
    for row in remote_announce_sweep(64, 8) {
        println!(
            "E15 {:<15} × {:>3} entries: {:>3} chunks, {:>2} NACKs, stall {:>8.2} µs, \
             completion {:>9.2} µs",
            row.variant,
            row.entries,
            row.chunks,
            row.nacks,
            row.stall.as_us(),
            row.completion.as_us()
        );
    }
    run_target(
        "va",
        BenchConfig::iters(10),
        vec![
            (
                "E11_iotlb_sweep",
                Box::new(|| {
                    let rows = iotlb_sweep(&[8, 32, 128], 16, 4);
                    // Hit ratio rises with capacity (acceptance: E11).
                    assert!(rows[0].hit_ratio < rows[2].hit_ratio);
                    black_box(rows);
                }) as Box<dyn FnMut()>,
            ),
            (
                "E12_fault_rate_sweep",
                Box::new(|| {
                    let rows = fault_rate_sweep(&[0, 100], 8);
                    // Fault-path cost ≫ IOTLB-hit cost (acceptance: E12).
                    assert!(rows[0].stall.as_ns() > 10.0 * rows[1].stall.as_ns().max(1.0));
                    black_box(rows);
                }),
            ),
            (
                "E13_remote_fault_sweep",
                Box::new(|| {
                    let links = [LinkModel::gigabit(), LinkModel::ethernet10()];
                    let rows = remote_fault_sweep(&links, &[0, 100], 4);
                    // The NACK round trip scales with wire latency: the
                    // slow link pays 10× the fast one (acceptance: E13).
                    assert_eq!(rows[2].nack_stall.as_ps(), rows[0].nack_stall.as_ps() * 10);
                    assert_eq!(rows[1].remote_faults, 0);
                    black_box(rows);
                }),
            ),
            (
                "E15_pipeline_sweep",
                Box::new(|| {
                    let rows = pipeline_sweep(&[0, 4], &[64], &[1, 4], 8);
                    // Prefetch hides blocking walks; coalescing (behind
                    // the prefetcher) shrinks chunks (acceptance: E15).
                    assert!(rows[2].stall < rows[0].stall);
                    assert!(rows[3].chunks < rows[2].chunks);
                    black_box(rows);
                }),
            ),
            (
                "E15_remote_announce_sweep",
                Box::new(|| {
                    let rows = remote_announce_sweep(64, 4);
                    // An announced cold range costs one NACK round trip
                    // instead of one per page (acceptance: E15).
                    assert_eq!(rows[0].nacks, 4);
                    assert_eq!(rows[1].nacks, 1);
                    black_box(rows);
                }),
            ),
        ],
    );
}
