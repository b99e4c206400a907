//! Reliable delivery over a lossy link, end to end on the cluster
//! simulation: the acceptance property against a lossless oracle
//! cluster, and the zero-overhead guarantee of an attached-but-quiet
//! chaos plan.

use udma::{ClusterConfig, ClusterSim};
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{FaultPlan, ReliabilityConfig, RetryPolicy, XferState};
use udma_testkit::{prop_assert, prop_assert_eq, props};

const NODE: u32 = 1;
const REMOTE_ASID: u32 = 7;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;

/// A two-node cluster, pin-on-post (no VA fault can NACK — every
/// disturbance is the link layer's), whose node 1 exposes `pages` pages.
fn lossy_cluster(pages: u64, chaos: Option<FaultPlan>, rel: ReliabilityConfig) -> ClusterSim {
    let mut cfg = ClusterConfig::new(2);
    cfg.node_bytes = 1 << 18;
    cfg.pin_on_post = true;
    cfg.chaos = chaos;
    cfg.reliability = rel;
    let mut sim = ClusterSim::new(cfg);
    sim.grant(NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), pages, Perms::READ_WRITE).unwrap();
    sim
}

/// Bytes node 1's grant holds, read page by page through its resident
/// translations. A page no deposit ever translated holds no bytes and
/// reads as zeros.
fn remote_bytes(sim: &ClusterSim, pages: u64) -> Vec<u8> {
    let mut got = vec![0u8; (pages * PAGE_SIZE) as usize];
    for (p, page) in got.chunks_mut(PAGE_SIZE as usize).enumerate() {
        let va = VirtAddr::new(REMOTE_VA + p as u64 * PAGE_SIZE);
        if let Some(pa) = sim.probe(NODE, REMOTE_ASID, va) {
            sim.read_mem(NODE, pa, page).unwrap();
        }
    }
    got
}

props! {
    config(cases = 48);

    /// Acceptance property: under ANY seeded fault plan with loss < 1
    /// and any retry budget, every remote transfer either completes
    /// byte-identical to a lossless oracle cluster, or ends `LinkFailed`
    /// leaving exactly a contiguous in-order prefix. A plan with zero
    /// fault probability adds zero extra `SimTime`.
    fn chaos_transfers_match_the_lossless_oracle(
        seed in 0u64..100_000,
        drop_pct in 0u32..45,
        corrupt_pct in 0u32..25,
        budget in 1u32..8,
        pages in 1u64..4,
    ) {
        let plan = FaultPlan::lossless(seed)
            .with_drop(drop_pct as f64 / 100.0)
            .with_corrupt(corrupt_pct as f64 / 100.0);
        let rel = ReliabilityConfig {
            retry: RetryPolicy::new(budget, SimTime::from_us(5)),
            ..ReliabilityConfig::default()
        };
        let size = pages * PAGE_SIZE;
        let mut sim = lossy_cluster(pages, Some(plan), rel);
        let mut oracle = lossy_cluster(pages, None, rel);
        let id = sim.post(0, NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), size, SimTime::ZERO);
        let oid = oracle.post(0, NODE, REMOTE_ASID, VirtAddr::new(REMOTE_VA), size, SimTime::ZERO);
        sim.run();
        oracle.run();

        let (x, ox) = (sim.xfer(id), oracle.xfer(oid));
        prop_assert_eq!(ox.state, XferState::Complete);
        let want = ClusterSim::expected_payload(id, size);
        prop_assert!(remote_bytes(&oracle, pages) == want, "the oracle deposit is not the payload");
        let got = remote_bytes(&sim, pages);
        match x.state {
            XferState::Complete => {
                prop_assert_eq!(x.counters.moved, size);
                prop_assert!(got == want, "completed transfer deviates from the oracle bytes");
            }
            XferState::LinkFailed => {
                let cut = x.counters.moved as usize;
                prop_assert!(got[..cut] == want[..cut], "in-order prefix corrupted");
                prop_assert!(got[cut..].iter().all(|&b| b == 0),
                    "bytes leaked past the abort point");
            }
            other => prop_assert!(false, "non-terminal end state {other:?}"),
        }

        // A quiet plan is free: identical completion instant, no
        // retransmits, no link stall — the framing costs nothing extra.
        if drop_pct == 0 && corrupt_pct == 0 {
            prop_assert_eq!(x.state, XferState::Complete);
            prop_assert_eq!(x.counters.retransmits, 0);
            prop_assert_eq!(x.counters.stall, SimTime::ZERO);
            prop_assert_eq!(x.finished, ox.finished, "a zero-loss plan must add zero SimTime");
        }
    }
}

/// A lossless chaos plan on the sending link costs exactly nothing
/// against a cluster built without one: over multi-chunk transfers, the
/// same finish times, no stall, and an identical digest.
#[test]
fn attached_lossless_plan_adds_zero_sim_time() {
    let run = |chaos: Option<FaultPlan>| {
        let mut sim = lossy_cluster(3, chaos, ReliabilityConfig::default());
        let va = VirtAddr::new(REMOTE_VA);
        sim.post(0, NODE, REMOTE_ASID, va, 3 * PAGE_SIZE, SimTime::ZERO);
        sim.post(0, NODE, REMOTE_ASID, va + 100, PAGE_SIZE + 7, SimTime::from_us(40));
        sim.run();
        sim.digest()
    };
    let quiet = run(Some(FaultPlan::lossless(42)));
    let bare = run(None);
    for (a, b) in quiet.xfers.iter().zip(&bare.xfers) {
        assert_eq!(a.state, XferState::Complete);
        assert_eq!(a.finished, b.finished, "framing must be free on a clean link");
        assert_eq!(a.counters.stall, SimTime::ZERO);
        assert_eq!(a.counters.retransmits, 0);
    }
    if let Some(diff) = bare.diff(&quiet) {
        panic!("an attached lossless plan changed the run:\n{diff}");
    }
}
