//! Node failure walkthrough: a destination crashes mid-stream, its
//! peers detect the outage over missed ACK leases and fail fast, the
//! node reboots under a new incarnation epoch (stale frames fenced,
//! grant ledger replayed), probes find it, and service resumes — all
//! deterministically, digest-identical on the sharded parallel runner.
//!
//! ```bash
//! cargo run --release --example node_failure
//! ```

use udma::{ClusterConfig, ClusterSim, CrashPlan};
use udma_bus::sim::RunnerKind;
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::XferState;

const ASID: u32 = 1;
const VA: u64 = 16 * PAGE_SIZE;
const NODES: u32 = 8;
const VICTIM: u32 = 3;

fn build(shards: usize, runner: RunnerKind) -> ClusterSim {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.shards = shards;
    cfg.runner = runner;
    cfg.pin_on_post = true;
    cfg.announce = true;
    cfg.record_log = true;
    // A tight ACK lease so detection happens inside the example's span.
    cfg.ack_lease = SimTime::from_us(200);
    let mut sim = ClusterSim::new(cfg);
    for node in 0..NODES {
        sim.grant(node, ASID, VirtAddr::new(VA), 8, Perms::READ_WRITE).expect("fresh region");
    }
    // A ring over the victim: node 2's stream is mid-flight when node 3
    // dies; the rest of the ring never notices.
    for src in 0..NODES {
        sim.post(src, (src + 1) % NODES, ASID, VirtAddr::new(VA), 2 * PAGE_SIZE, SimTime::ZERO);
    }
    // Late traffic into the rebooted victim: posted long after the
    // crash, it completes into the replayed grants of incarnation 1.
    sim.post(
        VICTIM + 2,
        VICTIM,
        ASID,
        VirtAddr::new(VA + 4 * PAGE_SIZE),
        PAGE_SIZE,
        SimTime::from_us(4_000),
    );
    // The victim dies at 600 µs and reboots 1.5 ms later.
    sim.inject_crash(CrashPlan::crash(VICTIM, SimTime::from_us(600), SimTime::from_us(1_500)));
    sim
}

fn main() {
    let mut oracle = build(1, RunnerKind::Sequential);
    oracle.run();
    let expect = oracle.digest();

    let stats = oracle.crash_stats(VICTIM);
    println!(
        "victim n{VICTIM}: {} crash, {} reboot → incarnation {}",
        stats.crashes,
        stats.reboots,
        oracle.node_incarnation(VICTIM)
    );
    println!(
        "  fenced {} stale frame(s); replayed {} grant(s), {} pin(s) on reboot",
        stats.fenced, stats.regrants, stats.repins
    );
    for x in &expect.xfers {
        let into_victim = x.id.node == (VICTIM + NODES - 1) % NODES || x.id.node == VICTIM + 2;
        if into_victim || x.id.node == VICTIM {
            println!(
                "  {}: {:?}, {} bytes delivered in order{}",
                x.id,
                x.state,
                x.counters.moved,
                x.finished.map_or_else(String::new, |t| format!(", settled at {t}")),
            );
        }
    }
    let outages = oracle.recovery_samples();
    if let Some(worst) = outages.iter().max() {
        println!("  sender-observed outage(s): {:?} (worst {worst})", outages.len());
    }
    let done = expect.xfers.iter().filter(|x| x.state == XferState::Complete).count();
    let down = expect.xfers.iter().filter(|x| x.state == XferState::NodeDown).count();
    println!("cluster: {done} complete, {down} node-down of {} posted", expect.xfers.len());

    // The whole story — crash, fences, probes, Hello, replayed grants —
    // replays bit-identically on the parallel runner.
    for shards in [2usize, 4, 8] {
        let mut sim = build(shards, RunnerKind::Parallel);
        sim.run();
        match expect.diff(&sim.digest()) {
            None => println!("{shards}-shard parallel run: digest identical to the oracle"),
            Some(diff) => panic!("{shards}-shard run diverged:\n{diff}"),
        }
    }
}
