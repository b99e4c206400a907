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

use udma::{
    emit_atomic, emit_dma_once, AtomicRequest, CoherenceMode, CoherenceSetup, DmaMethod,
    DmaRequest, Machine, MachineConfig, ProcessSpec,
};
use udma_bus::{CacheConfig, CoherenceDomain, CoherenceTiming, MemPort, SimTime};
use udma_cpu::{ProgramBuilder, Reg};
use udma_mem::{PhysAddr, PhysMemory};
use udma_nic::{AtomicOp, Initiator};
use udma_testkit::prop::{any, vec};
use udma_testkit::sched::{explore, Budget};
use udma_testkit::{prop_assert, prop_assert_eq, props};

/// Arena the random ops play in: 1 KiB at a page-aligned base.
const ARENA_BASE: u64 = 0x8000;
const ARENA: u64 = 1024;
/// Scratch range DMA reads deposit into / writes are staged from.
const MEM_BYTES: u64 = 1 << 16;
/// The copy differential's span: 2 KiB straddling the page boundary at
/// 16 KiB.
const COPY_BASE: u64 = 0x4000 - 1024;
const COPY_SPAN: u64 = 2048;

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

fn fresh_domain(agents: usize) -> (CoherenceDomain, PhysMemory, Vec<usize>) {
    let mem = PhysMemory::new(MEM_BYTES);
    let mut domain = CoherenceDomain::new(CoherenceTiming::default());
    let ids = (0..agents).map(|_| domain.add_agent(CacheConfig::alpha_21064())).collect();
    (domain, mem, ids)
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
        let (mut coh, mut coh_mem, coh_agents) = fresh_domain(2);
        // World 2: two CPU agents, raw DMA bracketed by software
        // flushes (the non-coherent contract).
        let (mut ncoh, mut ncoh_mem, ncoh_agents) = fresh_domain(2);

        let base = |off: u64| PhysAddr::new(ARENA_BASE + off);
        for &(kind, slot, val) in &raw_ops {
            match decode(kind, slot, val) {
                Op::CpuStore { agent, off, val } => {
                    let bytes = val.to_le_bytes();
                    oracle[off as usize..off as usize + 8].copy_from_slice(&bytes);
                    coh.agent_write(coh_agents[agent], base(off), &bytes, &mut coh_mem).unwrap();
                    ncoh.agent_write(ncoh_agents[agent], base(off), &bytes, &mut ncoh_mem)
                        .unwrap();
                }
                Op::CpuLoad { agent, off } => {
                    let want = &oracle[off as usize..off as usize + 8];
                    let mut got = [0u8; 8];
                    coh.agent_read(coh_agents[agent], base(off), &mut got, &mut coh_mem).unwrap();
                    prop_assert_eq!(&got, want, "coherent load at {off}");
                    ncoh.agent_read(ncoh_agents[agent], base(off), &mut got, &mut ncoh_mem)
                        .unwrap();
                    prop_assert_eq!(&got, want, "non-coherent load at {off}");
                }
                Op::DmaWrite { off, len, val } => {
                    let bytes = pattern(val, len);
                    oracle[off as usize..(off + len) as usize].copy_from_slice(&bytes);
                    // Coherent: the engine's write snoops for itself.
                    coh.dma_write(base(off), &bytes, &mut coh_mem).unwrap();
                    // Non-coherent: software must flush the target range
                    // from EVERY cache first (dirty lines written back,
                    // clean copies discarded), then DMA raw.
                    for &a in &ncoh_agents {
                        ncoh.flush_range(a, base(off), len, &mut ncoh_mem);
                    }
                    ncoh_mem.write_bytes(base(off), &bytes).unwrap();
                }
                Op::DmaRead { off, len } => {
                    let want = &oracle[off as usize..(off + len) as usize];
                    let mut got = vec![0u8; len as usize];
                    coh.dma_read(base(off), &mut got, &mut coh_mem).unwrap();
                    prop_assert_eq!(&got[..], want, "coherent DMA payload at {off}");
                    for &a in &ncoh_agents {
                        ncoh.flush_range(a, base(off), len, &mut ncoh_mem);
                    }
                    ncoh_mem.read_bytes(base(off), &mut got).unwrap();
                    prop_assert_eq!(&got[..], want, "non-coherent DMA payload at {off}");
                }
            }
            let inv = coh.check_invariants(&coh_mem);
            prop_assert!(inv.is_ok(), "MESI invariant broken: {:?}", inv);
        }

        // Final image: write everything back and compare both worlds to
        // the oracle byte for byte.
        coh.sync(&mut coh_mem);
        ncoh.sync(&mut ncoh_mem);
        for mem in [&coh_mem, &ncoh_mem] {
            let mut image = vec![0u8; ARENA as usize];
            mem.read_bytes(PhysAddr::new(ARENA_BASE), &mut image).unwrap();
            prop_assert_eq!(&image, &oracle, "final memory image diverged");
        }
    }

    /// The engine's frame-to-frame copy is indistinguishable from a read
    /// of the source followed by a write of the destination, in every
    /// coherence mode: same returned snoop time, same snoop counters,
    /// same CPU line states and, after a sync, the same memory. CPU
    /// stores and loads first leave dirty and clean lines on the source,
    /// the destination and their overlap; the copy's ranges start at any
    /// byte, cross the page boundary inside the span and overlap in
    /// either direction.
    fn dma_copy_matches_dma_read_then_dma_write(
        cpu_ops in vec((any::<bool>(), 0u64..COPY_SPAN / 8, any::<u64>()), 0..32),
        src in 0u64..COPY_SPAN,
        dst in 0u64..COPY_SPAN,
        len in 1u64..COPY_SPAN / 2,
    ) {
        let len = len.min(COPY_SPAN - src.max(dst));
        let at = |off: u64| PhysAddr::new(COPY_BASE + off);
        for mode in [CoherenceMode::Flat, CoherenceMode::NonCoherent, CoherenceMode::Coherent] {
            let mut copy = MemPort::new(
                PhysMemory::new(MEM_BYTES),
                CacheConfig::alpha_21064(),
                mode,
                CoherenceTiming::default(),
            );
            for &(store, slot, val) in &cpu_ops {
                if store {
                    copy.cpu_write(at(slot * 8), val).unwrap();
                } else {
                    copy.cpu_read(at(slot * 8)).unwrap();
                }
            }
            let mut pair = copy.clone();
            let copied = copy.dma_copy(at(src), at(dst), len).unwrap();
            let mut buf = vec![0u8; len as usize];
            let read = pair.dma_read(at(src), &mut buf).unwrap();
            let written = pair.dma_write(at(dst), &buf).unwrap();
            prop_assert_eq!(copied, read + written, "{:?}: snoop time", mode);
            prop_assert_eq!(copy.coherence_stats(), pair.coherence_stats(), "{:?}", mode);
            prop_assert_eq!(copy.cpu_cache_stats(), pair.cpu_cache_stats(), "{:?}", mode);
            let lines = |port: &MemPort| {
                port.coherence().map(|(domain, cpu)| domain.cache(cpu).resident())
            };
            prop_assert_eq!(lines(&copy), lines(&pair), "{:?}: CPU line states", mode);
            copy.sync();
            pair.sync();
            let image = |port: &mut MemPort| {
                let mut out = vec![0u8; MEM_BYTES as usize];
                port.ram_mut().read_bytes(PhysAddr::new(0), &mut out).unwrap();
                out
            };
            prop_assert_eq!(image(&mut copy), image(&mut pair), "{:?}: memory after sync", mode);
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
        let (mut domain, mut mem, agents) = fresh_domain(2);
        let mut next = [0usize; 3];
        let mut cpu0_read = None;
        for &t in schedule {
            let step = next[t];
            next[t] += 1;
            let r: Result<_, udma_mem::MemFault> = match (t, step) {
                // CPU0: store its field, then read it back.
                (0, 0) => domain
                    .agent_write(
                        agents[0],
                        PhysAddr::new(LINE + 8),
                        &cpu0_word.to_le_bytes(),
                        &mut mem,
                    )
                    .map(|_| ()),
                (0, 1) => {
                    let mut buf = [0u8; 8];
                    let res = domain
                        .agent_read(agents[0], PhysAddr::new(LINE + 8), &mut buf, &mut mem)
                        .map(|_| ());
                    cpu0_read = Some(buf);
                    res
                }
                // DMA: partial-line write to bytes 0..8.
                (1, 0) => domain.dma_write(PhysAddr::new(LINE), &dma_bytes, &mut mem).map(|_| ()),
                // CPU1: store the third field.
                (2, 0) => domain
                    .agent_write(
                        agents[1],
                        PhysAddr::new(LINE + 16),
                        &cpu1_word.to_le_bytes(),
                        &mut mem,
                    )
                    .map(|_| ()),
                _ => unreachable!("schedule exceeded thread lengths"),
            };
            if let Err(f) = r {
                return Some(format!("fault {f:?} under {schedule:?}"));
            }
            if let Err(e) = domain.check_invariants(&mem) {
                return Some(format!("invariant: {e} under {schedule:?}"));
            }
        }
        // CPU0's read-back happens program-order after its own store and
        // nothing else writes that field: it must see its own bytes.
        if cpu0_read != Some(cpu0_word.to_le_bytes()) {
            return Some(format!("CPU0 read back stale bytes under {schedule:?}"));
        }
        // Convergence: every field holds its only writer's value.
        domain.sync(&mut mem);
        let mut line = [0u8; 24];
        mem.read_bytes(PhysAddr::new(LINE), &mut line).unwrap();
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
        let cpu = m.bus_mut().port_mut();
        for (i, chunk) in fresh.chunks(8).enumerate() {
            let word = u64::from_le_bytes(chunk.try_into().unwrap());
            cpu.cpu_write(PhysAddr::new(0x10_000 + i as u64 * 8), word).unwrap();
        }
        if flush {
            m.post_dma_coherence_aware(src, dst, 64).unwrap();
        } else {
            // The raw post: exactly what a driver that forgot the
            // flush would run.
            let now = m.time();
            let (engine, mem) = m.bus_mut().nic_and_port();
            engine.core_mut().launch_checked(src, dst, 64, Initiator::Kernel, now, mem).unwrap();
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

/// The bus traces cached RAM traffic alike in every mode: the same
/// program leaves the same RAM loads and stores (address, data, issuer)
/// in the trace of the flat, non-coherent and coherent machines. Only
/// their times may differ.
#[test]
fn coherent_ram_trace_matches_flat() {
    let run = |setup: CoherenceSetup| {
        let mut m = Machine::new(MachineConfig {
            coherence: setup,
            ..MachineConfig::new(DmaMethod::Kernel)
        });
        m.bus_mut().trace_mut().enable();
        m.spawn(&ProcessSpec::two_buffers(), |env| {
            let base = env.buffer(0).va.as_u64();
            let mut p = ProgramBuilder::new();
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
        let layout = *m.bus().layout();
        let ram = m.bus().trace().filter(move |e| !layout.is_device(e.paddr));
        ram.map(|e| (e.op, e.paddr, e.data, e.tag)).collect::<Vec<_>>()
    };

    let flat = run(CoherenceSetup::flat());
    assert!(flat.len() >= 32, "workload must reach RAM");
    for setup in [CoherenceSetup::non_coherent(), CoherenceSetup::coherent()] {
        assert_eq!(run(setup), flat, "{:?}: RAM trace diverged", setup.mode);
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

/// Regression: on a snooping machine a NIC atomic sees the word the CPU
/// just stored while that store still sits Modified in the CPU's cache,
/// and its result survives the line's later writeback. When atomics read
/// and wrote raw memory, the process below read old value 0 and, after
/// the sync, memory held the CPU's 5 instead of 6 — on every path.
#[test]
fn coherent_atomics_see_and_keep_cached_stores() {
    for method in [DmaMethod::Kernel, DmaMethod::ExtShadow, DmaMethod::KeyBased] {
        let mut m = Machine::new(MachineConfig {
            coherence: CoherenceSetup::coherent(),
            ..MachineConfig::new(method)
        });
        let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
            let va = env.buffer(0).va;
            let req = AtomicRequest { va, op: AtomicOp::Add, operand1: 1, operand2: 0 };
            let b = ProgramBuilder::new().store(va.as_u64(), 5u64).mb();
            emit_atomic(env, b, &req).halt().build()
        });
        m.run(10_000);
        assert_eq!(m.reg(pid, Reg::R0), 5, "{method}: the atomic's old value");
        m.cache_sync();
        let frame = m.env(pid).buffer(0).first_frame;
        let word = m.memory().borrow().read_u64(frame.base()).unwrap();
        assert_eq!(word, 6, "{method}: the final word");
        m.check_coherence_invariants().unwrap();
    }
}
