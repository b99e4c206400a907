//! Network-of-workstations flows: SHRIMP-1 mapped-out pages whose twins
//! live on remote cluster nodes (§1, §2.4). The workstation runs the
//! initiations; a `ClusterSim`, with the workstation as node 0, carries
//! each send through the receiver's IOMMU.

use udma::{BufferSpec, ClusterConfig, ClusterSim, DmaMethod, EventKind, Machine, ProcessSpec};
use udma_cpu::{ProgramBuilder, Reg};
use udma_iommu::Asid;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{XferId, XferState, DMA_FAILURE, DMA_STARTED};

/// The address space the receivers grant.
const ASID: Asid = 4;
/// Base of the twin pages each receiver grants.
const TWIN_VA: VirtAddr = VirtAddr::new(8 * PAGE_SIZE);

fn now_machine() -> Machine {
    Machine::with_method(DmaMethod::Shrimp1)
}

/// A three-node cluster: node 0 is the workstation, nodes 1 and 2 each
/// grant and pin two twin pages at [`TWIN_VA`] in [`ASID`].
fn cluster(m: &Machine) -> ClusterSim {
    let mut cfg = ClusterConfig::new(3);
    cfg.link = m.config().link;
    cfg.pin_on_post = true;
    cfg.record_log = true;
    let mut sim = ClusterSim::new(cfg);
    for node in 1..3 {
        sim.grant(node, ASID, TWIN_VA, 2, Perms::READ_WRITE).unwrap();
    }
    sim
}

/// Posts every send the machine started and runs the cluster.
fn deliver(m: &mut Machine, sim: &mut ClusterSim) -> Vec<XferId> {
    let ids = m
        .take_remote_sends()
        .into_iter()
        .map(|s| sim.post_bytes(0, s.node, s.asid, s.va, s.bytes, s.at).unwrap())
        .collect();
    sim.run();
    ids
}

/// Reads `len` bytes at `va` of [`ASID`] on `node`, through the
/// receiver's translation.
fn read_twin(sim: &ClusterSim, node: u32, va: VirtAddr, len: usize) -> Vec<u8> {
    let pa = sim.probe(node, ASID, va).expect("the deposit left a translation");
    let mut buf = vec![0u8; len];
    sim.read_mem(node, pa, &mut buf).unwrap();
    buf
}

#[test]
fn remote_mapped_out_send_delivers_bytes() {
    let mut m = now_machine();
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::rw(2)],
        mapped_out_remote: vec![(0, 1, ASID, TWIN_VA)],
        ..Default::default()
    };
    let pid = m.spawn(&spec, |env| {
        let s = env.shadow_of(env.addr_in(0, 0x40));
        ProgramBuilder::new().store(s.as_u64(), 32u64).load(Reg::R0, s.as_u64()).halt().build()
    });
    let frame = m.env(pid).buffer(0).first_frame;
    m.memory()
        .borrow_mut()
        .write_bytes(frame.base() + 0x40, b"across the wire, 32 bytes long!!")
        .unwrap();

    m.run(10_000);
    assert_eq!(m.reg(pid, Reg::R0), DMA_STARTED);
    assert!(m.transfers().is_empty(), "a remote send books no local record");

    let mut sim = cluster(&m);
    let before = sim.digest();
    let ids = deliver(&mut m, &mut sim);
    assert_eq!(ids.len(), 1);
    assert_eq!(sim.xfer(ids[0]).state, XferState::Complete);
    // Page 0 of the buffer maps out to node 1 at TWIN_VA; the in-page
    // offset is preserved.
    assert_eq!(read_twin(&sim, 1, TWIN_VA + 0x40, 32), b"across the wire, 32 bytes long!!");
    // Nothing landed on node 2.
    assert_eq!(sim.digest().nodes[2], before.nodes[2]);
}

#[test]
fn second_page_maps_to_the_next_remote_page() {
    let mut m = now_machine();
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::rw(2)],
        mapped_out_remote: vec![(0, 2, ASID, TWIN_VA)],
        ..Default::default()
    };
    let pid = m.spawn(&spec, |env| {
        let s = env.shadow_of(env.addr_in(0, PAGE_SIZE));
        ProgramBuilder::new().store(s.as_u64(), 8u64).load(Reg::R0, s.as_u64()).halt().build()
    });
    let frame = m.env(pid).buffer(0).first_frame.offset(1);
    m.memory().borrow_mut().write_u64(frame.base(), 0xFEED).unwrap();
    m.run(10_000);
    assert_eq!(m.reg(pid, Reg::R0), DMA_STARTED);
    let mut sim = cluster(&m);
    let ids = deliver(&mut m, &mut sim);
    assert_eq!(sim.xfer(ids[0]).state, XferState::Complete);
    assert_eq!(read_twin(&sim, 2, TWIN_VA + PAGE_SIZE, 8), 0xFEEDu64.to_le_bytes());
}

#[test]
fn remote_transfer_cannot_cross_the_remote_page() {
    let mut m = now_machine();
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::rw(1)],
        mapped_out_remote: vec![(0, 1, ASID, TWIN_VA)],
        ..Default::default()
    };
    let pid = m.spawn(&spec, |env| {
        let s = env.shadow_of(env.addr_in(0, PAGE_SIZE - 8));
        ProgramBuilder::new()
            .store(s.as_u64(), 64u64) // 64 bytes from 8 before the edge
            .load(Reg::R0, s.as_u64())
            .halt()
            .build()
    });
    m.run(10_000);
    assert_eq!(m.reg(pid, Reg::R0), DMA_FAILURE);
    // Refused at the sender: nothing for the cluster to carry.
    assert!(m.take_remote_sends().is_empty());
    assert!(m.transfers().is_empty());
}

#[test]
fn remote_arrival_time_follows_the_link_model() {
    let mut m = now_machine();
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::rw(1)],
        mapped_out_remote: vec![(0, 1, ASID, TWIN_VA)],
        ..Default::default()
    };
    m.spawn(&spec, |env| {
        let s = env.shadow_of(env.buffer(0).va);
        ProgramBuilder::new().store(s.as_u64(), 4096u64).mb().halt().build()
    });
    m.run(10_000);
    let mut sim = cluster(&m);
    let ids = deliver(&mut m, &mut sim);
    let x = sim.xfer(ids[0]);
    assert_eq!(x.state, XferState::Complete);
    // The one page-sized chunk reaches node 1 exactly one wire time
    // after the store launched it, and the ACK returns after that.
    let wire = m.config().link.transfer_time(4096);
    let arrivals: Vec<_> = sim
        .digest()
        .log
        .iter()
        .filter_map(|l| match l.kind {
            EventKind::Launch { dst: 1, arrival, .. } => Some(arrival),
            _ => None,
        })
        .collect();
    assert_eq!(arrivals, vec![x.posted_at + wire]);
    assert!(x.finished.unwrap() > x.posted_at + wire);
}

/// The receiver, not the sender, decides whether a deposit lands: a
/// twin page the receiver never granted, or a twin named under an
/// address space it never granted, deposits nothing and fails.
#[test]
fn ungranted_or_wrong_asid_twin_deposits_nothing_and_fails() {
    for (asid, va) in [(ASID, TWIN_VA + 4 * PAGE_SIZE), (ASID + 1, TWIN_VA)] {
        let mut m = now_machine();
        let spec = ProcessSpec {
            buffers: vec![BufferSpec::rw(1)],
            mapped_out_remote: vec![(0, 1, asid, va)],
            ..Default::default()
        };
        let pid = m.spawn(&spec, |env| {
            let s = env.shadow_of(env.buffer(0).va);
            ProgramBuilder::new().store(s.as_u64(), 64u64).load(Reg::R0, s.as_u64()).halt().build()
        });
        let frame = m.env(pid).buffer(0).first_frame;
        m.memory().borrow_mut().write_bytes(frame.base(), &[0xAB; 64]).unwrap();
        m.run(10_000);
        // SHRIMP-1's status is final at initiation: the sender started.
        assert_eq!(m.reg(pid, Reg::R0), DMA_STARTED);
        let mut sim = cluster(&m);
        let before = sim.digest().nodes;
        let ids = deliver(&mut m, &mut sim);
        let x = sim.xfer(ids[0]);
        assert_eq!(x.state, XferState::Failed, "asid {asid}, va {va}");
        assert_eq!(x.counters.moved, 0);
        let after = sim.digest().nodes;
        for node in 0..3 {
            assert_eq!(after[node].mem_crc, before[node].mem_crc, "node {node} memory changed");
        }
    }
}
