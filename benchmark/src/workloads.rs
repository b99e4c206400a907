//! The four workloads. Each is closed-loop: a round builds fresh
//! simulator state from inputs drawn from (seed, round index), runs it,
//! then checks every output against the inputs.

use crate::rng::Rng;
use crate::sut::{
    Cluster, ClusterStats, MachineStats, Node, Transfer, WireCounters, XferRecord, PAGE_SIZE,
    TABLE1_ROWS,
};
use crate::trace::{Phase, Round};

/// A workload: its name, how many leading rounds feed the sim-clock
/// metrics, and its round body.
pub struct Workload {
    pub name: &'static str,
    /// Rounds `0..sim_rounds` make up the sim set: at least 1,000
    /// latency samples, and the same rounds on every host.
    pub sim_rounds: u64,
    pub round: fn(&mut Round, &mut Acc, u64) -> Tally,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "table1", sim_rounds: 1, round: table1 },
    Workload { name: "ring", sim_rounds: 16, round: ring },
    Workload { name: "va_fault", sim_rounds: 400, round: va_fault },
    Workload { name: "cluster", sim_rounds: 4, round: cluster },
];

/// Counts tied to one round's timed calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Transfers the timed calls carried out.
    pub xfers: u64,
    /// I/O faults the OS serviced inside the timed calls.
    pub faults: u64,
    /// Simulation events the cluster runner processed.
    pub events: u64,
}

/// What a run accumulates across rounds.
#[derive(Default)]
pub struct Acc {
    pub attempted: u64,
    pub failed: u64,
    /// Sim set: simulated time charged, and the transfers it covers.
    pub sim_ps: u64,
    pub sim_xfers: u64,
    /// Sim set: engine post stamp to last byte, per transfer.
    pub latencies_ps: Vec<u64>,
    /// Sim set, table1: simulated time and initiations per Table-1 row.
    pub row_ps: [u64; TABLE1_ROWS],
    pub row_xfers: [u64; TABLE1_ROWS],
    /// Sim set, traced runs: layer counters.
    pub layers: Layers,
}

/// Layer counters summed over the sim set.
#[derive(Default)]
pub struct Layers {
    pub xfers: u64,
    pub machine: MachineStats,
    pub cluster: ClusterStats,
    pub wire: WireCounters,
    pub remote_moved: u64,
    pub virt_stall_ps: Vec<u64>,
    pub link_stall_ps: Vec<u64>,
}

/// How many transfers' destination ranges differ from the expected
/// image.
fn mismatches(transfers: &[Transfer], expected: &[u8], actual: &[u8]) -> u64 {
    let differs = |t: &&Transfer| {
        let r = t.dst as usize..(t.dst + t.len) as usize;
        expected[r.clone()] != actual[r]
    };
    transfers.iter().filter(differs).count() as u64
}

/// The destination image `transfers` leave behind when applied in order
/// to a zeroed buffer: the reference the simulator's bytes must match.
fn apply(transfers: &[Transfer], src: &[u8]) -> Vec<u8> {
    let mut dst = vec![0u8; src.len()];
    for t in transfers {
        let (s, d, n) = (t.src as usize, t.dst as usize, t.len as usize);
        dst[d..d + n].copy_from_slice(&src[s..s + n]);
    }
    dst
}

/// Transfers whose record is missing, incomplete, or moved the wrong
/// byte count.
fn incomplete(records: &[XferRecord], transfers: &[Transfer]) -> u64 {
    let missing = transfers.len().saturating_sub(records.len()) as u64;
    let bad = records.iter().zip(transfers).filter(|(r, t)| !r.complete || r.moved != t.len);
    missing + bad.count() as u64
}

fn latencies(records: &[XferRecord]) -> impl Iterator<Item = u64> + '_ {
    records.iter().map(|r| r.finished_ps.saturating_sub(r.started_ps))
}

/// Sim-set bookkeeping shared by the single-machine workloads.
fn record_machine(rd: &mut Round, acc: &mut Acc, node: &Node, records: &[XferRecord], sim_ps: u64) {
    let n = records.len() as u64;
    if rd.in_sim_set {
        acc.latencies_ps.extend(latencies(records));
        acc.sim_ps += sim_ps;
        acc.sim_xfers += n;
    }
    if rd.read_stats {
        let s = rd.call(Phase::Bench, "stats", "trace", || node.stats());
        acc.layers.machine += s;
        acc.layers.xfers += n;
        acc.layers.virt_stall_ps.extend(records.iter().map(|r| r.stall_ps));
    }
}

const TABLE1_PAGES: u64 = 8;

/// §3.4: each Table-1 method initiates about 2,000 back-to-back 8-byte
/// DMAs at rotating pages and offsets. The seed permutes the page order
/// and draws the count from 1,900–2,100, which moves only how the
/// machine's start-up cost amortizes.
fn table1(rd: &mut Round, acc: &mut Acc, seed: u64) -> Tally {
    let index = rd.index;
    let (transfers, pattern) = rd.call(Phase::Bench, "inputs", "bench", || {
        let mut rng = Rng::for_round(seed, index);
        let pages = rng.permutation(TABLE1_PAGES as usize);
        let transfers: Vec<Transfer> = (0..rng.range(1_900, 2_100))
            .map(|i| {
                let page = pages[(i % TABLE1_PAGES) as usize] as u64;
                let off = page * PAGE_SIZE + (i * 64) % (PAGE_SIZE - 64);
                Transfer { src: off, dst: off, len: 8 }
            })
            .collect();
        (transfers, rng.bytes((TABLE1_PAGES * PAGE_SIZE) as usize))
    });
    let n = transfers.len() as u64;
    let mut tally = Tally::default();
    for row in 0..TABLE1_ROWS {
        let mut node = rd.call(Phase::Setup, "Machine::new", "core.setup", || Node::table1(row));
        rd.call(Phase::Setup, "Machine::spawn", "cpu.compile", || {
            node.spawn_initiations(TABLE1_PAGES, &transfers)
        });
        rd.call(Phase::Setup, "PhysMemory::write_bytes", "mem", || node.fill(0, &pattern));
        let halted = rd.call(Phase::Run, "Machine::run", "core.run", || node.run());
        let started = node.started();
        tally.xfers += started;
        let (failed, records) = rd.call(Phase::Verify, "verify", "verify", || {
            let mut dst = vec![0u8; pattern.len()];
            node.read(1, &mut dst);
            let bad = if halted { mismatches(&transfers, &pattern, &dst) } else { n };
            ((bad + n.saturating_sub(started)).min(n), node.phys_records())
        });
        acc.attempted += n;
        acc.failed += failed;
        if rd.in_sim_set {
            acc.row_ps[row] += node.time_ps();
            acc.row_xfers[row] += n;
        }
        record_machine(rd, acc, &node, &records, node.time_ps());
    }
    tally
}

const RING_PAGES: u64 = 8;
const RING_DESCRIPTORS: usize = 1_024;

/// Descriptors of seeded 64 B–4 KiB sizes at seeded offsets, written by
/// the CPU into a one-page ring; the doorbell rings after batches of a
/// seeded 12–20 descriptors (16 on average).
fn ring(rd: &mut Round, acc: &mut Acc, seed: u64) -> Tally {
    let index = rd.index;
    let buf = RING_PAGES * PAGE_SIZE;
    let (transfers, batches, pattern) = rd.call(Phase::Bench, "inputs", "bench", || {
        let mut rng = Rng::for_round(seed, index);
        let transfers: Vec<Transfer> = (0..RING_DESCRIPTORS)
            .map(|_| {
                let len = 8 * rng.range(8, 512);
                let src = 8 * rng.range(0, (buf - len) / 8);
                let dst = 8 * rng.range(0, (buf - len) / 8);
                Transfer { src, dst, len }
            })
            .collect();
        let mut batches = Vec::new();
        let mut left = RING_DESCRIPTORS;
        while left > 0 {
            let b = (rng.range(12, 20) as usize).min(left);
            batches.push(b);
            left -= b;
        }
        (transfers, batches, rng.bytes(buf as usize))
    });
    let mut node = rd.call(Phase::Setup, "Machine::new", "core.setup", || {
        let mut node = Node::ring();
        node.enable_rings();
        node
    });
    rd.call(Phase::Setup, "Machine::spawn", "cpu.compile", || {
        node.spawn_ring_program(RING_PAGES, &transfers, &batches)
    });
    let registered =
        rd.call(Phase::Setup, "Machine::register_ring", "os.ring", || node.register_ring());
    rd.call(Phase::Setup, "PhysMemory::write_bytes", "mem", || node.fill(0, &pattern));
    let halted = rd.call(Phase::Run, "Machine::run", "core.run", || node.run());
    let (failed, records) = rd.call(Phase::Verify, "verify", "verify", || {
        let records = node.virt_records();
        let mut dst = vec![0u8; buf as usize];
        node.read(1, &mut dst);
        let bad = if halted && registered {
            mismatches(&transfers, &apply(&transfers, &pattern), &dst)
                + incomplete(&records, &transfers)
        } else {
            transfers.len() as u64
        };
        (bad.min(transfers.len() as u64), records)
    });
    acc.attempted += transfers.len() as u64;
    acc.failed += failed;
    record_machine(rd, acc, &node, &records, node.time_ps());
    Tally { xfers: records.len() as u64, ..Tally::default() }
}

const VA_PAGES: u64 = 64;
const VA_IOTLB_ENTRIES: usize = 16;

/// One pass over the buffers: consecutive transfers of seeded 1–8-page
/// lengths (8-byte granular) tiling `[0, VA_PAGES)` pages.
fn tiling(rng: &mut Rng) -> Vec<Transfer> {
    let end = VA_PAGES * PAGE_SIZE;
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < end {
        let len = (8 * rng.range(PAGE_SIZE / 8, PAGE_SIZE)).min(end - pos);
        out.push(Transfer { src: pos, dst: pos, len });
        pos += len;
    }
    out
}

/// A fresh demand-paging machine per round: pass 1 faults every page
/// in, pass 2 misses the 16-entry IOTLB on every page and walks.
fn va_fault(rd: &mut Round, acc: &mut Acc, seed: u64) -> Tally {
    let index = rd.index;
    let (transfers, pattern) = rd.call(Phase::Bench, "inputs", "bench", || {
        let mut rng = Rng::for_round(seed, index);
        let mut transfers = tiling(&mut rng);
        transfers.extend(tiling(&mut rng));
        (transfers, rng.bytes((VA_PAGES * PAGE_SIZE) as usize))
    });
    let mut node = rd
        .call(Phase::Setup, "Machine::new", "core.setup", || Node::demand_paging(VA_IOTLB_ENTRIES));
    rd.call(Phase::Setup, "Machine::spawn", "core.setup", || node.spawn_idle(VA_PAGES));
    rd.call(Phase::Setup, "PhysMemory::write_bytes", "mem", || node.fill(0, &pattern));
    let mut tally = Tally::default();
    let mut rejected = 0;
    for &t in &transfers {
        let Some(id) = rd.call(Phase::Run, "Machine::post_virt", "core.post", || node.post_virt(t))
        else {
            rejected += 1;
            continue;
        };
        loop {
            let n = rd.call(Phase::Run, "Machine::service_va_faults", "os.fault_service", || {
                node.service_va_faults()
            });
            tally.faults += n;
            if n == 0 {
                break;
            }
        }
        if rd.call(Phase::Run, "Machine::run_virt", "core.run", || node.run_virt(id)) {
            tally.xfers += 1;
        }
    }
    let (failed, records) = rd.call(Phase::Verify, "verify", "verify", || {
        let records = node.virt_records();
        let mut dst = vec![0u8; pattern.len()];
        node.read(1, &mut dst);
        let bad = mismatches(&transfers, &pattern, &dst) + incomplete(&records, &transfers);
        ((bad + rejected).min(transfers.len() as u64), records)
    });
    acc.attempted += transfers.len() as u64;
    acc.failed += failed;
    // One transfer runs at a time, so the round's simulated time is the
    // sum of their post-to-completion latencies.
    let sim_ps = latencies(&records).sum();
    record_machine(rd, acc, &node, &records, sim_ps);
    tally
}

const CLUSTER_NODES: u32 = 32;
const CLUSTER_NODE_BYTES: u64 = 2 << 20;
const CLUSTER_SLOTS: u64 = 64;
const CLUSTER_XFER_PAGES: u64 = 2;
const CLUSTER_DROP: f64 = 0.05;
const CLUSTER_DST_BASE: u64 = 32 * PAGE_SIZE;
/// Receive-side IOTLB entries (4-way): enough to keep every destination
/// page's translation resident, so each deposit reads back through the
/// node's own translation after the run.
const CLUSTER_IOTLB_ENTRIES: usize = 256;

/// One cluster transfer of the plan.
struct Post {
    src: u32,
    dst: u32,
    va: u64,
    len: u64,
    at_us: u64,
}

/// A fresh 32-node cluster per round. Every node sends one transfer per
/// slot into a two-page destination slot; the seed draws each slot's
/// source→destination derangement, each length (past the first page, up
/// to two pages), the launch jitter and the chaos seed. Even slots are
/// pinned, odd slots demand-fault through a NACK per page.
fn cluster(rd: &mut Round, acc: &mut Acc, seed: u64) -> Tally {
    let index = rd.index;
    let slot_bytes = CLUSTER_XFER_PAGES * PAGE_SIZE;
    let slot_va = |slot: u64| CLUSTER_DST_BASE + slot * slot_bytes;
    let (plan, chaos_seed) = rd.call(Phase::Bench, "inputs", "bench", || {
        let mut rng = Rng::for_round(seed, index);
        let chaos_seed = rng.next_u64();
        let mut plan = Vec::with_capacity((CLUSTER_SLOTS * u64::from(CLUSTER_NODES)) as usize);
        for slot in 0..CLUSTER_SLOTS {
            let dsts = rng.derangement(CLUSTER_NODES as usize);
            for (src, &dst) in dsts.iter().enumerate() {
                let post = Post {
                    src: src as u32,
                    dst: dst as u32,
                    va: slot_va(slot),
                    // Always reaches into the slot's second page.
                    len: PAGE_SIZE + 8 * rng.range(1, PAGE_SIZE / 8),
                    at_us: slot * 11 + rng.range(0, 6) * 3,
                };
                plan.push(post);
            }
        }
        (plan, chaos_seed)
    });
    let mut sim = rd.call(Phase::Setup, "ClusterSim::new", "core.setup", || {
        Cluster::new(
            CLUSTER_NODES,
            CLUSTER_NODE_BYTES,
            CLUSTER_IOTLB_ENTRIES,
            CLUSTER_DROP,
            chaos_seed,
        )
    });
    let granted = rd.call(Phase::Setup, "ClusterSim::grant", "os.remote", || {
        (0..CLUSTER_NODES).all(|node| {
            (0..CLUSTER_SLOTS).all(|slot| sim.grant(node, slot_va(slot), CLUSTER_XFER_PAGES))
        })
    });
    let pinned = rd.call(Phase::Setup, "ClusterSim::pin", "os.remote", || {
        (0..CLUSTER_NODES).all(|node| {
            (0..CLUSTER_SLOTS).step_by(2).all(|slot| sim.pin(node, slot_va(slot), slot_bytes))
        })
    });
    let xfers = rd.call(Phase::Setup, "ClusterSim::post", "core.post", || {
        let post = |p: &Post| sim.post(p.src, p.dst, p.va, p.len, p.at_us * 1_000_000);
        plan.iter().map(post).collect::<Vec<_>>()
    });
    let events = rd.call(Phase::Run, "ClusterSim::run", "core.run", || sim.run());
    // Node stats first: the read-back probes below count IOTLB hits.
    let stats =
        rd.read_stats.then(|| rd.call(Phase::Bench, "ClusterSim::digest", "trace", || sim.stats()));
    let (failed, records) = rd.call(Phase::Verify, "verify", "verify", || {
        let mut bad = 0;
        let mut records = Vec::with_capacity(xfers.len());
        for (&x, p) in xfers.iter().zip(&plan) {
            let (rec, wire) = sim.record(x);
            let mut got = vec![0u8; p.len as usize];
            let ok = rec.complete
                && rec.moved == p.len
                && sim.read_va(p.dst, p.va, &mut got)
                && got == Cluster::expected(x, p.len);
            bad += u64::from(!ok);
            records.push((rec, wire));
        }
        (if granted && pinned { bad } else { xfers.len() as u64 }, records)
    });
    acc.attempted += xfers.len() as u64;
    acc.failed += failed;
    let n = records.len() as u64;
    if rd.in_sim_set {
        acc.latencies_ps
            .extend(records.iter().map(|(r, _)| r.finished_ps.saturating_sub(r.started_ps)));
        // Nodes send in parallel: the round's simulated time is each
        // node's busy span, first post to last completion, summed.
        let mut spans = vec![(u64::MAX, 0u64); CLUSTER_NODES as usize];
        for ((r, _), p) in records.iter().zip(&plan) {
            let s = &mut spans[p.src as usize];
            *s = (s.0.min(r.started_ps), s.1.max(r.finished_ps));
        }
        acc.sim_ps += spans.iter().map(|&(first, last)| last.saturating_sub(first)).sum::<u64>();
        acc.sim_xfers += n;
    }
    if let Some(s) = stats {
        let l = &mut acc.layers;
        l.cluster += s;
        l.xfers += n;
        for (r, w) in &records {
            l.wire += *w;
            l.remote_moved += r.moved;
            l.link_stall_ps.push(r.stall_ps);
        }
    }
    Tally { xfers: records.iter().filter(|(r, _)| r.complete).count() as u64, faults: 0, events }
}
