//! What DMA really costs on a cached host: the flat (paper) machine vs
//! non-coherent DMA (software flush/invalidate brackets) vs a snooping
//! NI — plus the missing-flush stale-data hazard, demonstrated live.
//!
//! ```text
//! cargo run --release --example coherence
//! ```

use udma::{CoherenceSetup, DmaMethod, Machine, MachineConfig};
use udma_mem::PhysAddr;
use udma_nic::Initiator;
use udma_workloads::{coherence_cost_sweep, false_sharing_adversary, mode_label};

fn main() {
    println!("== E18: coherence extras per post (cold/warm/dirty producer) ==");
    for row in coherence_cost_sweep(&[1024, 8192, 65536]) {
        println!(
            "{:>6} {:>5} {:>6}B: +{:>8.2} µs (flush {:>7.2}, snoop {:>7.2}, inval {:>7.2})  \
             {:>4} lines flushed, {:>4} interventions",
            mode_label(row.mode),
            row.prep.label(),
            row.bytes,
            row.total_extra.as_us(),
            row.initiation_extra.as_us(),
            row.snoop_extra.as_us(),
            row.completion_extra.as_us(),
            row.flush_lines,
            row.interventions
        );
    }

    println!("\n== the missing-flush hazard, live ==");
    let mut m = Machine::new(MachineConfig {
        coherence: CoherenceSetup::non_coherent(),
        ..MachineConfig::new(DmaMethod::Kernel)
    });
    let (src, dst) = (PhysAddr::new(0x10_000), PhysAddr::new(0x20_000));
    // The producer writes through the CPU cache: the fresh bytes live
    // only in Modified lines, memory still holds zeroes.
    m.bus_mut().port_mut().cpu_write(src, 0xFEED_FACE_CAFE_F00D).unwrap();
    // A forgetful driver posts without the flush bracket...
    let now = m.time();
    let (engine, mem) = m.bus_mut().nic_and_port();
    engine.core_mut().launch_checked(src, dst, 8, Initiator::Kernel, now, mem).unwrap();
    let mut stale = [0u8; 8];
    m.memory().borrow().read_bytes(dst, &mut stale).unwrap();
    println!("raw post, no flush:      dst = {stale:02x?}   <- stale memory, not the producer");
    // ...and the coherence-aware post runs the bracket and gets it right.
    let report = m.post_dma_coherence_aware(src, dst, 8).unwrap();
    let mut fresh = [0u8; 8];
    m.memory().borrow().read_bytes(dst, &mut fresh).unwrap();
    println!(
        "bracketed post:          dst = {fresh:02x?}   ({} line flushed, +{:.2} µs)",
        report.flush_dirty,
        report.total_extra().as_us()
    );

    println!("\n== false-sharing adversary: CPU vs DMA on one line ==");
    let fs = false_sharing_adversary(32);
    println!(
        "{} rounds: {} writeback-interventions, {} invalidations, {:.2} µs snoop time, merge {}",
        fs.rounds,
        fs.interventions,
        fs.invalidations,
        fs.dma_snoop_time.as_us(),
        if fs.merge_exact && fs.consumer_reads_ok { "exact" } else { "CORRUPT" }
    );
}
