//! Network-of-workstations workloads: fan-out over the cluster.

use udma::{BufferSpec, ClusterConfig, ClusterSim, DmaMethod, Machine, ProcessSpec};
use udma_bus::SimTime;
use udma_cpu::{ProgramBuilder, Reg};
use udma_iommu::Asid;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{Destination, XferState};

/// The address space every receiver grants for its twin page.
const TWIN_ASID: Asid = 1;
/// Where each receiver's twin page sits in that address space.
const TWIN_VA: VirtAddr = VirtAddr::new(16 * PAGE_SIZE);

/// Result of a broadcast run.
#[derive(Clone, Copy, Debug)]
pub struct BroadcastResult {
    /// Remote nodes addressed.
    pub nodes: u32,
    /// Bytes sent to each node.
    pub bytes_per_node: u64,
    /// Time until the *initiations* were all issued (CPU-side cost).
    pub initiation_time: SimTime,
    /// When the workstation held the last receiver's ACK, as the
    /// cluster's transfer digest reports it: the last send, plus the
    /// wire time of its one page-bounded chunk (latency and
    /// serialisation), plus one link latency for the ACK's flight back.
    /// The receiver's pinned IOMMU translation adds no time. Each
    /// receiver's transfer runs on its own: nothing serialises them on
    /// the workstation's link, so this trails the last initiation by
    /// the same amount at every fan-out.
    pub completion_time: SimTime,
    /// Whether every transfer completed and every receiver holds the
    /// correct payload at its twin page.
    pub verified: bool,
}

/// Broadcasts one page-resident message to `nodes` remote workstations
/// with SHRIMP-1 mapped-out pages — one store + one status load per node
/// from user level.
///
/// The workstation is node 0 of a [`ClusterSim`] and receiver `n` is
/// node `n + 1`; page `n` of the send buffer maps out to receiver `n`'s
/// twin page, which the receiver granted and pinned up front (the kernel
/// proved SHRIMP-1's remote page at map-out time, so no chunk NACKs).
/// The machine runs the initiations; the cluster then carries each
/// page's bytes through its receiver's IOMMU.
///
/// The interesting shape: the *initiation* side scales with a couple of
/// bus transactions per node, while each delivery takes the same wire
/// time and ACK flight after its own initiation, so completion trails
/// the last initiation by a constant (see
/// [`BroadcastResult::completion_time`]).
///
/// # Panics
///
/// Panics if the run does not complete.
pub fn broadcast(nodes: u32, bytes: u64) -> BroadcastResult {
    assert!(bytes <= PAGE_SIZE, "one page per mapped-out transfer");
    let mut m = Machine::with_method(DmaMethod::Shrimp1);
    // One source page per node (mapped-out destinations are per-frame).
    let spec = ProcessSpec { buffers: vec![BufferSpec::rw(nodes as u64)], ..Default::default() };
    let pid = m.spawn(&spec, |env| {
        let mut b = ProgramBuilder::new();
        for n in 0..nodes as u64 {
            let s = env.shadow_of(env.addr_in(0, n * PAGE_SIZE));
            b = b.store(s.as_u64(), bytes).load(Reg::R0, s.as_u64());
        }
        b.halt().build()
    });
    // Mapped-out table: page n → the twin page on node n + 1.
    {
        let env = m.env(pid).clone();
        let engine = m.engine().clone();
        let mut core = engine.core_mut();
        for n in 0..nodes {
            core.set_mapped_out(
                env.buffer(0).first_frame.offset(u64::from(n)),
                Destination::Remote { node: n + 1, asid: TWIN_ASID, va: TWIN_VA },
            );
        }
    }
    // Distinct payload per node.
    let payload = |n: u64| (0..bytes).map(|i| (i as u8).wrapping_add(n as u8)).collect::<Vec<u8>>();
    for n in 0..nodes as u64 {
        let frame = m.env(pid).buffer(0).first_frame.offset(n);
        m.memory().borrow_mut().write_bytes(frame.base(), &payload(n)).unwrap();
    }

    let out = m.run(1_000_000);
    assert!(out.finished, "broadcast did not complete");
    let initiation_time = m.time();

    let mut cfg = ClusterConfig::new(nodes + 1);
    cfg.link = m.config().link;
    cfg.pin_on_post = true;
    let mut sim = ClusterSim::new(cfg);
    for n in 1..=nodes {
        sim.grant(n, TWIN_ASID, TWIN_VA, 1, Perms::READ_WRITE).expect("a fresh node has frames");
    }
    let ids: Vec<_> = m
        .take_remote_sends()
        .into_iter()
        .map(|s| sim.post_bytes(0, s.node, s.asid, s.va, s.bytes, s.at).expect("twin node exists"))
        .collect();
    sim.run();

    let completion_time =
        ids.iter().filter_map(|&id| sim.xfer(id).finished).max().unwrap_or(initiation_time);
    let verified = ids.len() == nodes as usize
        && ids.iter().all(|&id| sim.xfer(id).state == XferState::Complete)
        && (1..=nodes).all(|node| {
            let mut buf = vec![0u8; bytes as usize];
            sim.probe(node, TWIN_ASID, TWIN_VA)
                .is_some_and(|pa| sim.read_mem(node, pa, &mut buf).is_ok())
                && buf == payload(u64::from(node - 1))
        });

    BroadcastResult { nodes, bytes_per_node: bytes, initiation_time, completion_time, verified }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_reaches_every_node_correctly() {
        let r = broadcast(4, 1024);
        assert!(r.verified);
        assert_eq!(r.nodes, 4);
    }

    #[test]
    fn initiation_scales_linearly_but_stays_cheap() {
        let r2 = broadcast(2, 512);
        let r6 = broadcast(6, 512);
        let per_node_2 = r2.initiation_time.as_ns() / 2.0;
        let per_node_6 = r6.initiation_time.as_ns() / 6.0;
        // Per-node initiation cost is flat (≈ one SHRIMP-1 store+load).
        assert!((per_node_2 / per_node_6 - 1.0).abs() < 0.3);
        // And each initiation is on the order of a microsecond, not a
        // syscall.
        assert!(per_node_6 < 2_000.0, "{per_node_6} ns per node");
    }

    #[test]
    fn completion_is_wire_bound() {
        let r = broadcast(3, 4096);
        assert!(r.completion_time >= r.initiation_time);
        // The last transfer cannot finish before its serialisation time.
        let wire = udma_nic::LinkModel::atm155().transfer_time(4096);
        assert!(r.completion_time >= wire);
    }

    /// Completion trails the last initiation by the same constant at
    /// every fan-out: the deliveries run side by side.
    #[test]
    fn completion_trails_the_last_initiation_by_a_constant() {
        let tail = |n| {
            let r = broadcast(n, 1024);
            r.completion_time - r.initiation_time
        };
        assert_eq!(tail(1), tail(5));
    }
}
