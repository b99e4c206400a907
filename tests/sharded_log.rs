//! The typed event log and the read-only inspection paths of
//! [`ClusterSim`].
//!
//! The contracts under test:
//!
//! - **Same text**: the typed log renders exactly the lines the former
//!   string log produced. A fixed chaos + crash run is pinned by a CRC
//!   over its whole rendered log and by representative lines of every
//!   common event kind.
//! - **Zero cost when off**: with `record_log = false` the log is empty
//!   and every other part of the digest equals the recorded run's.
//! - **Inspection is free**: [`ClusterSim::probe`] counts nothing and
//!   touches no replacement state, so it leaves the digest unchanged.

use udma::{ClusterConfig, ClusterSim};
use udma_bus::SimTime;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{crc32, CrashPlan, FaultPlan};

const ASID: u32 = 7;
const DST_VA: u64 = 16 * PAGE_SIZE;
const NODES: u32 = 5;
const GRANT_PAGES: u64 = 16;

/// Five demand-paged, announcing nodes on a lossy, corrupting,
/// duplicating wire with a burst outage; a fatal unknown-ASID post; and
/// one crash/reboot, one NI hang, one fault-service stall and one
/// permanent crash. `lease_us` sets the ACK lease: 150 µs sits below a
/// page's round trip (relaunch storms, probes, pings), 1500 µs above it
/// (completions, NACK retries, fencing).
fn chaos_crash_run(record_log: bool, lease_us: u64) -> ClusterSim {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.record_log = record_log;
    cfg.announce = true;
    cfg.node_bytes = 1 << 19;
    cfg.health.lease = SimTime::from_us(lease_us);
    cfg.chaos = Some(
        FaultPlan::lossless(0x601D)
            .with_drop(0.1)
            .with_corrupt(0.05)
            .with_duplicate(0.05)
            .with_burst(30, 60),
    );
    let mut sim = ClusterSim::new(cfg);
    for node in 0..NODES {
        sim.grant(node, ASID, VirtAddr::new(DST_VA), GRANT_PAGES, Perms::READ_WRITE).unwrap();
    }
    for i in 0..10u64 {
        let src = (i % 5) as u32;
        let dst = ((i + 1 + i / 5) % 5) as u32;
        let va = VirtAddr::new(DST_VA + (i / 5) * 4 * PAGE_SIZE);
        sim.post(src, dst, ASID, va, PAGE_SIZE + 512 * (i + 1), SimTime::from_us(i * 40));
    }
    // No context for ASID 99 on node 3: a fatal NACK.
    sim.post(0, 3, 99, VirtAddr::new(DST_VA), 256, SimTime::from_us(30));
    let tail = VirtAddr::new(DST_VA + 12 * PAGE_SIZE);
    sim.post(4, 1, ASID, tail, 600, SimTime::from_us(5000));
    sim.post(1, 2, ASID, tail, 700, SimTime::from_us(500));
    sim.post(
        3,
        4,
        ASID,
        VirtAddr::new(DST_VA + 8 * PAGE_SIZE),
        3 * PAGE_SIZE,
        SimTime::from_us(2400),
    );
    sim.post(3, 4, ASID, tail, 800, SimTime::from_us(40_000));
    sim.inject_crash(CrashPlan::crash(1, SimTime::from_us(300), SimTime::from_us(400)));
    sim.inject_crash(CrashPlan::hang(2, SimTime::from_us(200), SimTime::from_us(300)));
    sim.inject_crash(CrashPlan::stall(3, SimTime::from_us(100), SimTime::from_us(250)));
    sim.inject_crash(CrashPlan::crash_forever(4, SimTime::from_us(2500)));
    sim.run();
    sim
}

/// Rendered lines of the two runs, pinned when the log was a list of
/// formatted strings: `(index, line)`.
const SHORT_LEASE_LINES: &[(usize, &str)] = &[
    (13, "[150.000us src=n0 seq=5] node 0: lease 0 miss (Suspect): relaunch"),
    (17, "[180.000us src=n0 seq=8] node 0: lease 2 superseded"),
    (21, "[200.000us src=n2 seq=2] node 2: ni-hang"),
    (22, "[210.000us src=n0 seq=12] node 2: frame dropped: node dead"),
    (25, "[240.000us src=n1 seq=1] node 1: launch n1.x1 -> n3 arriving 4237.542us (link-failed)"),
    (32, "[300.000us src=n1 seq=3] node 1: crash (1 own transfers died)"),
    (60, "[545.000us src=n2 seq=20] node 3: ping from n2"),
    (64, "[565.000us src=n2 seq=23] node 2: probe n3 cancelled"),
    (125, "[2400.000us src=n3 seq=2] node 3: launch 2 skipped"),
];

const LONG_LEASE_LINES: &[(usize, &str)] = &[
    (0, "[0ps src=n0 seq=0] node 0: launch n0.x0 -> n1 arriving 684.219us (ok)"),
    (1, "[10.000us src=n0 seq=3] node 1: announce n0.x0 [0x20000, +8704B]"),
    (6, "[53.213us src=n0 seq=7] node 3: data n0.x2 chunk 0 nack Unresolvable (fatal)"),
    (10, "[100.000us src=n3 seq=4] node 3: fault-service stall until 350.000us"),
    (20, "[280.000us src=n2 seq=1] node 2: launch n2.x1 -> n4 arriving 858.516us (hung-ni)"),
    (27, "[500.000us src=n1 seq=2] node 1: launch 2 on dead node"),
    (28, "[500.000us src=n2 seq=3] node 2: unhang"),
    (30, "[510.000us src=n2 seq=10] node 0: n2 alive at inc 0"),
    (34, "[678.516us src=n3 seq=7] node 4: data n3.x0 chunk 0 nack Mapped (resolvable)"),
    (37, "[695.516us src=n4 seq=9] node 3: nack n3.x0 chunk 0 -> Retry(SimTime(705.516us))"),
    (38, "[700.000us src=n1 seq=4] node 1: reboot -> inc 1"),
    (42, "[710.000us src=n1 seq=11] node 0: n1 alive at inc 1 (new)"),
    (48, "[725.665us src=n1 seq=9] node 3: fenced: stale inc 0 from n1"),
    (51, "[1005.665us src=n2 seq=15] node 0: ack n0.x1 chunk 0 (next chunk)"),
    (65, "[1612.329us src=n0 seq=25] node 2: data n0.x1 chunk 1 +3072B @ 0x2a000"),
    (67, "[1622.329us src=n2 seq=19] node 0: ack n0.x1 chunk 1 (complete)"),
    (93, "[3227.658us src=n4 seq=8] node 1: fenced: for inc 0 but node is inc 1"),
    (117, "[4780.000us src=n2 seq=26] node 2: lease 1 miss: n4 down, 1 transfers aborted"),
    (118, "[4785.000us src=n2 seq=27] node 2: probe n4 (Down)"),
];

#[test]
fn typed_log_renders_the_pinned_text() {
    let cases =
        [(150, 138, 0x23AD_9BEC, SHORT_LEASE_LINES), (1500, 153, 0x622E_5A4B, LONG_LEASE_LINES)];
    for (lease_us, count, crc, picks) in cases {
        let digest = chaos_crash_run(true, lease_us).digest();
        let lines: Vec<String> = digest.log.iter().map(|l| l.to_string()).collect();
        for &(i, want) in picks {
            assert_eq!(lines[i], want, "lease {lease_us} µs, line {i}");
        }
        assert_eq!(lines.len(), count, "lease {lease_us} µs");
        assert_eq!(digest.events, count as u64, "one log line per event");
        let rendered = lines.join("\n");
        assert_eq!(crc32(rendered.as_bytes()), crc, "lease {lease_us} µs: whole-log CRC");
    }
}

/// Node memory CRCs of the long-lease run, pinned alongside its log:
/// the streamed digest CRC equals the former whole-image CRC.
#[test]
fn node_memory_crcs_are_pinned() {
    let digest = chaos_crash_run(false, 1500).digest();
    let crcs: Vec<u32> = digest.nodes.iter().map(|n| n.mem_crc).collect();
    assert_eq!(crcs, [0x31B1_5DF9, 0x7566_0AAC, 0xD916_7881, 0xD03A_A906, 0x7566_0AAC]);
}

#[test]
fn unrecorded_run_has_an_empty_log_and_an_identical_digest() {
    for lease_us in [150, 1500] {
        let off = chaos_crash_run(false, lease_us).digest();
        let mut on = chaos_crash_run(true, lease_us).digest();
        assert!(off.log.is_empty(), "record_log = false must record nothing");
        assert_eq!(on.log.len() as u64, on.events);
        on.log.clear();
        assert_eq!(off, on, "recording the log must not change the run");
    }
}

#[test]
fn probing_leaves_the_digest_unchanged() {
    let sim = chaos_crash_run(true, 1500);
    let before = sim.digest();
    let mut resident = 0;
    for node in 0..NODES {
        for page in 0..GRANT_PAGES {
            let va = VirtAddr::new(DST_VA + page * PAGE_SIZE);
            resident += usize::from(sim.probe(node, ASID, va).is_some());
        }
    }
    assert!(resident > 0, "the run must leave translations to probe");
    assert_eq!(sim.digest(), before, "probe counted or reordered IOTLB state");
}
