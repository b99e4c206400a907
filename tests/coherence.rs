//! Coherence-aware DMA (E18 infrastructure): differential oracles, MESI
//! safety under explored snoop races, the missing-flush hazard, and the
//! zero-overhead pin for the flat/disabled configurations.
//!
//! The differential property: a MESI world (CPU agents + snooping DMA)
//! and a non-coherent world (cached CPU + raw DMA bracketed by software
//! flushes) must both be byte-identical to a flat `Vec<u8>` oracle — on
//! every load, every DMA payload, and the final memory image. The
//! negative test shows the bracket is load-bearing: skip the flush and
//! the DMA observably moves stale bytes.

use std::cell::RefCell;
use std::rc::Rc;
use udma::{
    emit_dma_once, CoherenceMode, CoherenceSetup, DmaMethod, DmaRequest, Machine, MachineConfig,
    ProcessSpec,
};
use udma_bus::{CacheConfig, CoherenceDomain, CoherenceTiming, SharedCoherence, SimTime};
use udma_cpu::{ProgramBuilder, Reg};
use udma_mem::{PhysAddr, PhysMemory};
use udma_nic::Initiator;
use udma_testkit::prop::vec;
use udma_testkit::sched::{explore, Budget};
use udma_testkit::{prop_assert, prop_assert_eq, props};

/// Arena the random ops play in: 1 KiB at a page-aligned base.
const ARENA_BASE: u64 = 0x8000;
const ARENA: u64 = 1024;
/// Scratch range DMA reads deposit into / writes are staged from.
const MEM_BYTES: u64 = 1 << 16;

/// One random step of the differential workload, decoded from a
/// `(kind, slot, value)` tuple: `slot` picks an 8-aligned arena offset.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// CPU `agent` stores `val` at the slot.
    CpuStore { agent: usize, off: u64, val: u64 },
    /// CPU `agent` loads the slot (checked against the oracle).
    CpuLoad { agent: usize, off: u64 },
    /// DMA writes `len` bytes of pattern at the slot.
    DmaWrite { off: u64, len: u64, val: u64 },
    /// DMA reads `len` bytes at the slot (payload checked).
    DmaRead { off: u64, len: u64 },
}

fn decode(kind: u64, slot: u64, val: u64) -> Op {
    let off = (slot % (ARENA / 8)) * 8;
    // DMA lengths stress partial-line handling: sub-line, odd multiples
    // of a word, and runs that cross line boundaries, clamped to the
    // arena end.
    let len = (8 + (val % 13) * 8).min(ARENA - off);
    match kind % 6 {
        0 => Op::CpuStore { agent: 0, off, val },
        1 => Op::CpuStore { agent: 1, off, val: val ^ 0xFFFF },
        2 => Op::CpuLoad { agent: 0, off },
        3 => Op::CpuLoad { agent: 1, off },
        4 => Op::DmaWrite { off, len, val },
        _ => Op::DmaRead { off, len },
    }
}

fn fresh_domain(agents: usize) -> (SharedCoherence, Vec<usize>) {
    let mem = Rc::new(RefCell::new(PhysMemory::new(MEM_BYTES)));
    let domain = CoherenceDomain::new(mem, CoherenceTiming::default()).shared();
    let ids =
        (0..agents).map(|_| domain.borrow_mut().add_agent(CacheConfig::alpha_21064())).collect();
    (domain, ids)
}

fn pattern(val: u64, len: u64) -> Vec<u8> {
    (0..len).map(|i| (val as u8).wrapping_add(i as u8).wrapping_mul(31)).collect()
}

props! {
    config(cases = 96);

    /// The tentpole differential: MESI world and flush-bracketed
    /// non-coherent world both track the flat oracle byte for byte —
    /// every CPU load, every DMA payload, and the final image — and the
    /// MESI invariants hold after every single operation.
    fn coherent_and_flushed_noncoherent_match_flat_oracle(
        raw_ops in vec((0u64..6, 0u64..(ARENA / 8), 0u64..1 << 32), 1..48),
    ) {
        // World 0: the oracle — flat bytes, no caches anywhere.
        let mut oracle = vec![0u8; ARENA as usize];
        // World 1: two CPU agents + snooping DMA.
        let (coh, coh_agents) = fresh_domain(2);
        // World 2: two CPU agents, raw DMA bracketed by software
        // flushes (the non-coherent contract).
        let (ncoh, ncoh_agents) = fresh_domain(2);

        let base = |off: u64| PhysAddr::new(ARENA_BASE + off);
        for &(kind, slot, val) in &raw_ops {
            match decode(kind, slot, val) {
                Op::CpuStore { agent, off, val } => {
                    let bytes = val.to_le_bytes();
                    oracle[off as usize..off as usize + 8].copy_from_slice(&bytes);
                    coh.borrow_mut()
                        .agent_write(coh_agents[agent], base(off), &bytes)
                        .unwrap();
                    ncoh.borrow_mut()
                        .agent_write(ncoh_agents[agent], base(off), &bytes)
                        .unwrap();
                }
                Op::CpuLoad { agent, off } => {
                    let want = &oracle[off as usize..off as usize + 8];
                    let mut got = [0u8; 8];
                    coh.borrow_mut()
                        .agent_read(coh_agents[agent], base(off), &mut got)
                        .unwrap();
                    prop_assert_eq!(&got, want, "coherent load at {off}");
                    ncoh.borrow_mut()
                        .agent_read(ncoh_agents[agent], base(off), &mut got)
                        .unwrap();
                    prop_assert_eq!(&got, want, "non-coherent load at {off}");
                }
                Op::DmaWrite { off, len, val } => {
                    let bytes = pattern(val, len);
                    oracle[off as usize..(off + len) as usize].copy_from_slice(&bytes);
                    // Coherent: the engine's write snoops for itself.
                    coh.borrow_mut().dma_write(base(off), &bytes).unwrap();
                    // Non-coherent: software must flush the target range
                    // from EVERY cache first (dirty lines written back,
                    // clean copies discarded), then DMA raw.
                    for &a in &ncoh_agents {
                        ncoh.borrow_mut().flush_range(a, base(off), len);
                    }
                    let mem = ncoh.borrow().memory();
                    mem.borrow_mut().write_bytes(base(off), &bytes).unwrap();
                }
                Op::DmaRead { off, len } => {
                    let want = &oracle[off as usize..(off + len) as usize];
                    let mut got = vec![0u8; len as usize];
                    coh.borrow_mut().dma_read(base(off), &mut got).unwrap();
                    prop_assert_eq!(&got[..], want, "coherent DMA payload at {off}");
                    for &a in &ncoh_agents {
                        ncoh.borrow_mut().flush_range(a, base(off), len);
                    }
                    let mem = ncoh.borrow().memory();
                    mem.borrow().read_bytes(base(off), &mut got).unwrap();
                    prop_assert_eq!(&got[..], want, "non-coherent DMA payload at {off}");
                }
            }
            let inv = coh.borrow().check_invariants();
            prop_assert!(inv.is_ok(), "MESI invariant broken: {:?}", inv);
        }

        // Final image: write everything back and compare both worlds to
        // the oracle byte for byte.
        coh.borrow_mut().sync();
        ncoh.borrow_mut().sync();
        for world in [&coh, &ncoh] {
            let mem = world.borrow().memory();
            let mut image = vec![0u8; ARENA as usize];
            mem.borrow().read_bytes(PhysAddr::new(ARENA_BASE), &mut image).unwrap();
            prop_assert_eq!(&image, &oracle, "final memory image diverged");
        }
    }
}

/// Bounded exploration of the snoop races on ONE line: a CPU store
/// thread, a DMA-write thread, and a second CPU's store thread (each
/// field disjoint — false sharing, not data races). Every interleaving
/// must keep the MESI invariants and converge to the same final bytes:
/// last (= only) writer per field wins, no schedule can leak a stale
/// writeback over DMA data.
#[test]
fn snoop_race_exploration_is_safe_and_exhaustive() {
    const LINE: u64 = ARENA_BASE;
    let cpu0_word = 0x1111_2222_3333_4444u64;
    let cpu1_word = 0x5555_6666_7777_8888u64;
    let dma_bytes = pattern(0xD0, 8);

    // Thread op counts: CPU0 does store+readback, DMA one write, CPU1
    // one store → 3!·4 / … = 12 schedules, fully enumerable.
    let lens = [2usize, 1, 1];
    let exploration = explore(&lens, Budget::new(10_000, 0xE18), |schedule| {
        let (domain, agents) = fresh_domain(2);
        let mut next = [0usize; 3];
        let mut cpu0_read = None;
        for &t in schedule {
            let step = next[t];
            next[t] += 1;
            let r: Result<_, udma_mem::MemFault> = match (t, step) {
                // CPU0: store its field, then read it back.
                (0, 0) => domain
                    .borrow_mut()
                    .agent_write(agents[0], PhysAddr::new(LINE + 8), &cpu0_word.to_le_bytes())
                    .map(|_| ()),
                (0, 1) => {
                    let mut buf = [0u8; 8];
                    let res = domain
                        .borrow_mut()
                        .agent_read(agents[0], PhysAddr::new(LINE + 8), &mut buf)
                        .map(|_| ());
                    cpu0_read = Some(buf);
                    res
                }
                // DMA: partial-line write to bytes 0..8.
                (1, 0) => {
                    domain.borrow_mut().dma_write(PhysAddr::new(LINE), &dma_bytes).map(|_| ())
                }
                // CPU1: store the third field.
                (2, 0) => domain
                    .borrow_mut()
                    .agent_write(agents[1], PhysAddr::new(LINE + 16), &cpu1_word.to_le_bytes())
                    .map(|_| ()),
                _ => unreachable!("schedule exceeded thread lengths"),
            };
            if let Err(f) = r {
                return Some(format!("fault {f:?} under {schedule:?}"));
            }
            if let Err(e) = domain.borrow().check_invariants() {
                return Some(format!("invariant: {e} under {schedule:?}"));
            }
        }
        // CPU0's read-back happens program-order after its own store and
        // nothing else writes that field: it must see its own bytes.
        if cpu0_read != Some(cpu0_word.to_le_bytes()) {
            return Some(format!("CPU0 read back stale bytes under {schedule:?}"));
        }
        // Convergence: every field holds its only writer's value.
        domain.borrow_mut().sync();
        let mem = domain.borrow().memory();
        let mut line = [0u8; 24];
        mem.borrow().read_bytes(PhysAddr::new(LINE), &mut line).unwrap();
        if line[..8] != dma_bytes[..]
            || line[8..16] != cpu0_word.to_le_bytes()
            || line[16..24] != cpu1_word.to_le_bytes()
        {
            return Some(format!("final bytes diverged: {line:?} under {schedule:?}"));
        }
        None
    });
    assert!(exploration.exhaustive, "12-schedule space must enumerate fully");
    assert_eq!(exploration.schedules, 12);
    assert!(
        exploration.safe(),
        "snoop races found: {:?}",
        exploration.findings.first().map(|(s, d)| (s.clone(), d.clone()))
    );
}

/// The negative test the whole non-coherent design hangs on: skip the
/// producer's `flush_range` and the raw engine observably reads stale
/// memory; run the same post through the coherence-aware path (or on
/// the snooping machine) and the fresh bytes arrive.
#[test]
fn missing_flush_moves_stale_bytes_and_the_bracket_fixes_it() {
    let fresh: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(17).wrapping_add(5)).collect();

    let run = |setup: CoherenceSetup, flush: bool| -> Vec<u8> {
        let mut m = Machine::new(MachineConfig {
            coherence: setup,
            ..MachineConfig::new(DmaMethod::Kernel)
        });
        let src = PhysAddr::new(0x10_000);
        let dst = PhysAddr::new(0x20_000);
        // Producer writes through the CPU cache: fresh bytes live in
        // Modified lines, memory still holds zeroes.
        let (domain, agent) = m.executor().coherence().expect("cached machine");
        for (i, chunk) in fresh.chunks(8).enumerate() {
            domain
                .borrow_mut()
                .agent_write(agent, PhysAddr::new(0x10_000 + i as u64 * 8), chunk)
                .unwrap();
        }
        drop(domain);
        if flush {
            m.post_dma_coherence_aware(src, dst, 64).unwrap();
        } else {
            // The raw post: exactly what a driver that forgot the
            // flush would run.
            let now = m.time();
            let mut core = m.engine().core_mut();
            core.launch_checked(src, dst, 64, Initiator::Kernel, true, now).unwrap();
        }
        let mut got = vec![0u8; 64];
        m.memory().borrow().read_bytes(dst, &mut got).unwrap();
        got
    };

    // Non-coherent + no flush: the hazard is real — stale zeroes moved.
    let stale = run(CoherenceSetup::non_coherent(), false);
    assert_eq!(stale, vec![0u8; 64], "raw DMA must observably read stale memory");
    // Non-coherent + the bracket: correct.
    assert_eq!(run(CoherenceSetup::non_coherent(), true), fresh);
    // Coherent: even the forgetful driver is safe — the engine snoops.
    assert_eq!(run(CoherenceSetup::coherent(), false), fresh);
    assert_eq!(run(CoherenceSetup::coherent(), true), fresh);
}

/// Zero-overhead pin: with the cache disabled (`ways == 0`, the
/// first-class miss-everything geometry) the coherence layer must add
/// literally nothing — identical end-to-end SimTime to the flat
/// machine on the same end-to-end kernel-DMA flow, zero snoop time,
/// zero coherence bus traffic.
#[test]
fn disabled_cache_coherence_is_free() {
    let run = |setup: CoherenceSetup| {
        let mut m = Machine::new(MachineConfig {
            coherence: setup,
            cache: CacheConfig::disabled(),
            ..MachineConfig::new(DmaMethod::Kernel)
        });
        let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
            let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 256);
            emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
        });
        let src = m.env(pid).buffer(0).first_frame;
        m.memory().borrow_mut().write_bytes(src.base(), &pattern(0xEE, 256)).unwrap();
        m.run(10_000);
        let dst = m.env(pid).buffer(1).first_frame;
        let mut got = vec![0u8; 256];
        m.memory().borrow().read_bytes(dst.base(), &mut got).unwrap();
        (m.time(), got, m.coherence_stats())
    };

    let (flat_time, flat_bytes, _) = run(CoherenceSetup::flat());
    assert_eq!(flat_bytes, pattern(0xEE, 256));
    for setup in [CoherenceSetup::non_coherent(), CoherenceSetup::coherent()] {
        let (time, bytes, stats) = run(setup);
        assert_eq!(bytes, flat_bytes, "{:?}: data diverged", setup.mode);
        assert_eq!(
            time, flat_time,
            "{:?}: disabled-cache coherence must not change timing",
            setup.mode
        );
        assert_eq!(stats.snoop_time, SimTime::ZERO, "{:?}", setup.mode);
        assert_eq!(stats.coherence_traffic(), 0, "{:?}", setup.mode);
    }
}

/// Differential pin for the bus-accounting hook: a coherent machine's
/// loads and stores are served by MESI caches and never touch the RAM
/// device, but the bus must still account them — the same program
/// reports identical `ram_reads`/`ram_writes` on the flat,
/// non-coherent and coherent machines.
#[test]
fn coherent_ram_accounting_matches_flat() {
    let run = |setup: CoherenceSetup| {
        let mut m = Machine::new(MachineConfig {
            coherence: setup,
            ..MachineConfig::new(DmaMethod::Kernel)
        });
        m.spawn(&ProcessSpec::two_buffers(), |env| {
            let base = env.buffer(0).va.as_u64();
            let mut p = ProgramBuilder::new();
            // Stores first, a barrier to drain the write buffer, then
            // loads — so the loads actually reach the bus instead of
            // forwarding from the buffer in every world alike.
            for i in 0..16u64 {
                p = p.store(base + i * 8, i * 0x0101 + 1);
            }
            p = p.mb();
            for i in 0..16u64 {
                p = p.load(Reg::R1, base + i * 8);
            }
            p.halt().build()
        });
        m.run(100_000);
        m.bus().stats()
    };

    let flat = run(CoherenceSetup::flat());
    assert!(flat.ram_writes >= 16 && flat.ram_reads >= 16, "workload must reach RAM");
    for setup in [CoherenceSetup::non_coherent(), CoherenceSetup::coherent()] {
        let s = run(setup);
        assert_eq!(s.ram_reads, flat.ram_reads, "{:?}: RAM read accounting diverged", setup.mode);
        assert_eq!(
            s.ram_writes, flat.ram_writes,
            "{:?}: RAM write accounting diverged",
            setup.mode
        );
    }
}

/// The coherence-aware post on a *flat* machine is exactly the plain
/// post: zero extras, no sweeps, no interventions.
#[test]
fn flat_coherence_aware_post_adds_nothing() {
    let mut m = Machine::new(MachineConfig::new(DmaMethod::Kernel));
    assert_eq!(m.config().coherence.mode, CoherenceMode::Flat);
    m.memory().borrow_mut().write_bytes(PhysAddr::new(0x4000), &pattern(9, 128)).unwrap();
    let report =
        m.post_dma_coherence_aware(PhysAddr::new(0x4000), PhysAddr::new(0x6000), 128).unwrap();
    assert_eq!(report.total_extra(), SimTime::ZERO);
    assert_eq!(report.flush_lines, 0);
    assert_eq!(report.interventions, 0);
    let mut got = vec![0u8; 128];
    m.memory().borrow().read_bytes(PhysAddr::new(0x6000), &mut got).unwrap();
    assert_eq!(got, pattern(9, 128));
}
