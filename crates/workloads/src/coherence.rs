//! Coherence-cost workload (E18).
//!
//! The paper's testbed measured DMA on cold caches by construction
//! ("successive DMA operations were done to(from) different addresses,
//! so as to eliminate any caching effects", §3.4). E18 measures what
//! that methodology hid: the cost of keeping DMA and a data-carrying
//! cache consistent, under the three machine models
//! [`CoherenceMode`] offers.
//!
//! [`coherence_cost_sweep`] drives the cross product of
//! {flat, non-coherent, coherent} × {cold, warm, dirty producer} ×
//! buffer size through [`Machine::post_dma_coherence_aware`] and
//! itemises where the time went. The headline shape it charts:
//!
//! * **non-coherent** pays a per-line software flush + invalidate on
//!   *every* post — cost scales with the buffer footprint even when the
//!   cache is cold, because software cannot know which lines are dirty
//!   without sweeping them;
//! * **coherent** pays per *touched* line — zero on cold/warm caches,
//!   one intervention per dirty line on a dirty producer;
//! * **flat** pays nothing, which is exactly the paper's (optimistic)
//!   Table-1 world.
//!
//! [`false_sharing_adversary`] is the pathological case: the CPU and
//! the DMA engine ping-pong ownership of *one* line (CPU owns bytes
//! 8..16, DMA owns bytes 0..8). Every round forces a
//! writeback-intervention before the DMA write and an invalidation
//! after it — and the byte merge must still come out exact, which is
//! precisely the ordering hazard DESIGN.md §4h documents.

use udma::{CoherenceMode, CoherenceSetup, DmaMethod, Machine, MachineConfig};
use udma_bus::SimTime;
use udma_mem::PhysAddr;

/// Source buffer base (page-aligned, well inside the 64 MiB of RAM).
const SRC_PA: u64 = 0x10_0000;
/// Destination buffer base, far from the source.
const DST_PA: u64 = 0x20_0000;
/// Line granularity the producer dirties at (the Alpha 21064's 32 B).
const LINE: u64 = 32;

/// How the producer leaves the CPU cache before the post.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProducerPrep {
    /// Cache untouched: the cold-cache world the paper measured.
    Cold,
    /// Producer *read* every source line: clean copies resident.
    Warm,
    /// Producer *wrote* every source line: Modified copies resident —
    /// the fresh data exists only in the cache.
    Dirty,
}

impl ProducerPrep {
    /// All preps, in sweep order.
    pub fn all() -> [ProducerPrep; 3] {
        [ProducerPrep::Cold, ProducerPrep::Warm, ProducerPrep::Dirty]
    }

    /// Fixed-width label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ProducerPrep::Cold => "cold",
            ProducerPrep::Warm => "warm",
            ProducerPrep::Dirty => "dirty",
        }
    }
}

/// Fixed-width label for a machine mode.
pub fn mode_label(mode: CoherenceMode) -> &'static str {
    match mode {
        CoherenceMode::Flat => "flat",
        CoherenceMode::NonCoherent => "noncoh",
        CoherenceMode::Coherent => "snoop",
    }
}

/// One (mode, prep, size) point of the E18 sweep.
#[derive(Clone, Copy, Debug)]
pub struct CoherenceCostRow {
    /// Machine model.
    pub mode: CoherenceMode,
    /// Producer cache state at post time.
    pub prep: ProducerPrep,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Software flush cost charged before the engine started.
    pub initiation_extra: SimTime,
    /// Engine snoop time folded into the transfer.
    pub snoop_extra: SimTime,
    /// Software invalidate cost charged at completion.
    pub completion_extra: SimTime,
    /// Everything coherence added over the flat machine.
    pub total_extra: SimTime,
    /// Lines the source flush swept.
    pub flush_lines: u64,
    /// Dirty lines the flush wrote back.
    pub flush_dirty: u64,
    /// Modified lines the engine pulled via intervention.
    pub interventions: u64,
    /// Whether the destination ended up byte-identical to what the
    /// producer last wrote (the correctness half of the experiment).
    pub payload_ok: bool,
}

/// Experiment E18: for each buffer size and machine mode, runs the
/// producer prep, posts one coherence-aware kernel DMA of the whole
/// buffer, and reports the itemised coherence cost plus a payload check
/// against what the producer actually produced.
pub fn coherence_cost_sweep(sizes: &[u64]) -> Vec<CoherenceCostRow> {
    let mut rows = Vec::new();
    for &bytes in sizes {
        for mode in [CoherenceMode::Flat, CoherenceMode::NonCoherent, CoherenceMode::Coherent] {
            for prep in ProducerPrep::all() {
                rows.push(coherence_cost_point(mode, prep, bytes));
            }
        }
    }
    rows
}

fn setup_for(mode: CoherenceMode) -> CoherenceSetup {
    match mode {
        CoherenceMode::Flat => CoherenceSetup::flat(),
        CoherenceMode::NonCoherent => CoherenceSetup::non_coherent(),
        CoherenceMode::Coherent => CoherenceSetup::coherent(),
    }
}

fn coherence_cost_point(mode: CoherenceMode, prep: ProducerPrep, bytes: u64) -> CoherenceCostRow {
    assert!(bytes >= LINE && bytes.is_multiple_of(LINE), "E18 sizes are whole lines");
    let mut m = Machine::new(MachineConfig {
        coherence: setup_for(mode),
        ..MachineConfig::new(DmaMethod::Kernel)
    });
    let src = PhysAddr::new(SRC_PA);

    // Seed memory with a base pattern so every byte is accounted for.
    let mem = m.memory_mut();
    for off in (0..bytes).step_by(8) {
        mem.write_u64(PhysAddr::new(SRC_PA + off), 0x5EED_0000 + off).unwrap();
    }
    let mut expected = vec![0u8; bytes as usize];
    mem.read_bytes(src, &mut expected).unwrap();

    // Producer: touch every line through the CPU side of the memory
    // port — the CPU's cache agent when one exists; on the flat machine
    // the same stores go straight to memory (which is what "flat"
    // means), and there is no data cache to warm.
    let cpu = m.bus_mut().port_mut();
    match prep {
        ProducerPrep::Cold => {}
        ProducerPrep::Warm => {
            if mode != CoherenceMode::Flat {
                for off in (0..bytes).step_by(LINE as usize) {
                    cpu.cpu_read(PhysAddr::new(SRC_PA + off)).unwrap();
                }
            }
        }
        ProducerPrep::Dirty => {
            for off in (0..bytes).step_by(LINE as usize) {
                let word = (0xD1_5EA5E_u64 << 16) | off;
                expected[off as usize..off as usize + 8].copy_from_slice(&word.to_le_bytes());
                cpu.cpu_write(PhysAddr::new(SRC_PA + off), word).unwrap();
            }
        }
    }

    let report = m.post_dma_coherence_aware(src, PhysAddr::new(DST_PA), bytes).unwrap();
    m.check_coherence_invariants().unwrap();

    // The correctness half: did the destination get what the producer
    // last wrote? (In non-coherent mode this holds *because* the post
    // flushed; tests/coherence.rs shows skipping the flush breaks it.)
    let mut got = vec![0u8; bytes as usize];
    m.memory_mut().read_bytes(PhysAddr::new(DST_PA), &mut got).unwrap();

    CoherenceCostRow {
        mode,
        prep,
        bytes,
        initiation_extra: report.initiation_extra,
        snoop_extra: report.snoop_extra,
        completion_extra: report.completion_extra,
        total_extra: report.total_extra(),
        flush_lines: report.flush_lines,
        flush_dirty: report.flush_dirty,
        interventions: report.interventions,
        payload_ok: got == expected,
    }
}

/// Outcome of the false-sharing adversary.
#[derive(Clone, Copy, Debug)]
pub struct FalseSharingRow {
    /// Ping-pong rounds run.
    pub rounds: u64,
    /// Writeback-interventions the snoop bus performed.
    pub interventions: u64,
    /// Sharer invalidations broadcast.
    pub invalidations: u64,
    /// Snoop time the DMA side accumulated.
    pub dma_snoop_time: SimTime,
    /// Whether the final line held the exact byte merge (DMA's low
    /// half, CPU's high half of the last round).
    pub merge_exact: bool,
    /// Whether the consumer read of each round saw exactly the bytes
    /// the DMA had just written (coherent visibility, no stale reads).
    pub consumer_reads_ok: bool,
}

/// The E18 adversary: the CPU and the DMA engine fight over ONE line.
/// Each round the CPU stores to bytes 8..16 (taking the line Modified)
/// and a DMA write then lands on bytes 0..8 of the same line — which
/// must write the CPU's dirty line back *first*, then deposit its 8
/// bytes, or the stale cached copy clobbers fresh DMA data. Runs on the
/// snooping machine; returns the traffic bill and an exactness check.
pub fn false_sharing_adversary(rounds: u64) -> FalseSharingRow {
    let mut m = Machine::new(MachineConfig {
        coherence: CoherenceSetup::coherent(),
        ..MachineConfig::new(DmaMethod::Kernel)
    });
    let shared_line = PhysAddr::new(DST_PA);

    let mut last_cpu = [0u8; 8];
    let mut last_dma = [0u8; 8];
    let mut consumer_reads_ok = true;
    let post = |m: &mut Machine, word: u64| {
        m.memory_mut().write_u64(PhysAddr::new(SRC_PA), word).unwrap();
        m.post_dma_coherence_aware(PhysAddr::new(SRC_PA), shared_line, 8).unwrap();
        m.check_coherence_invariants().unwrap();
    };
    for round in 0..rounds {
        // CPU claims the line: store to the high half → Modified.
        let cpu_word = 0xC0FFEE_u64.wrapping_mul(round + 1);
        last_cpu = cpu_word.to_le_bytes();
        m.bus_mut().port_mut().cpu_write(PhysAddr::new(DST_PA + 8), cpu_word).unwrap();
        // DMA lands on bytes 0..8 while the line is Modified: the snoop
        // bus must writeback-intervene before depositing the DMA bytes.
        let dma_word = 0xD00D_5000_u64 | (round << 1);
        post(&mut m, dma_word);
        // Consumer: the CPU reads back what the DMA wrote (pulling a
        // clean copy into its cache)…
        let (readback, _, _) = m.bus_mut().port_mut().cpu_read(shared_line).unwrap();
        consumer_reads_ok &= readback == dma_word;
        // …so the *next* DMA write hits a clean holder and must
        // broadcast an invalidation instead of an intervention.
        let dma_word2 = dma_word | 1;
        last_dma = dma_word2.to_le_bytes();
        post(&mut m, dma_word2);
    }

    let stats = m.coherence_stats();
    m.cache_sync();
    let mut line = [0u8; 16];
    m.memory_mut().read_bytes(shared_line, &mut line).unwrap();
    FalseSharingRow {
        rounds,
        interventions: stats.interventions,
        invalidations: stats.invalidations,
        dma_snoop_time: stats.snoop_time,
        merge_exact: line[..8] == last_dma && line[8..] == last_cpu,
        consumer_reads_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_payloads_are_always_correct() {
        for row in coherence_cost_sweep(&[1024, 8192]) {
            assert!(
                row.payload_ok,
                "{} {} {}B moved wrong bytes",
                mode_label(row.mode),
                row.prep.label(),
                row.bytes
            );
        }
    }

    #[test]
    fn noncoherent_cost_scales_with_footprint_even_cold() {
        let rows = coherence_cost_sweep(&[1024, 8192]);
        let cold = |bytes| {
            *rows
                .iter()
                .find(|r| {
                    r.mode == CoherenceMode::NonCoherent
                        && r.prep == ProducerPrep::Cold
                        && r.bytes == bytes
                })
                .unwrap()
        };
        let (small, big) = (cold(1024), cold(8192));
        assert_eq!(small.flush_lines, 1024 / LINE);
        assert_eq!(big.flush_lines, 8192 / LINE);
        assert_eq!(big.total_extra.as_ps(), small.total_extra.as_ps() * 8);
        assert!(big.total_extra > SimTime::ZERO, "software sweep is never free");
    }

    #[test]
    fn coherent_cost_is_per_touched_line_only() {
        let rows = coherence_cost_sweep(&[8192]);
        let pick = |prep| {
            *rows.iter().find(|r| r.mode == CoherenceMode::Coherent && r.prep == prep).unwrap()
        };
        assert_eq!(pick(ProducerPrep::Cold).total_extra, SimTime::ZERO);
        let dirty = pick(ProducerPrep::Dirty);
        assert_eq!(dirty.interventions, 8192 / LINE, "one intervention per dirty line");
        assert!(dirty.snoop_extra > SimTime::ZERO);
        assert_eq!(dirty.initiation_extra, SimTime::ZERO, "no software sweep on the snoop path");
    }

    #[test]
    fn flat_rows_cost_nothing() {
        for row in coherence_cost_sweep(&[1024]) {
            if row.mode == CoherenceMode::Flat {
                assert_eq!(row.total_extra, SimTime::ZERO);
                assert_eq!(row.interventions, 0);
            }
        }
    }

    #[test]
    fn false_sharing_ping_pong_bills_every_round_and_merges_exactly() {
        let row = false_sharing_adversary(16);
        assert!(row.merge_exact, "byte merge corrupted under false sharing");
        assert!(row.consumer_reads_ok, "consumer saw stale bytes after a DMA write");
        assert!(row.interventions >= 16, "every round forces a writeback-intervention");
        assert!(row.invalidations >= 16, "every clean-holder DMA write broadcasts invalidate");
        assert!(row.dma_snoop_time > SimTime::ZERO);
    }
}
