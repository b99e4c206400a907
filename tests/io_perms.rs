//! I/O permissions on every virtual-address path: a DMA write into a
//! page the posting address space maps **read-only** must be refused,
//! whether the page's I/O translation is installed by the OS fault
//! service on demand or registered up front (pin-on-post).
//!
//! Three paths, each under both disciplines: a local VA post
//! (`Machine::post_virt`), a descriptor-ring post and doorbell, and a
//! remote VA transfer on `ClusterSim` into a read-only grant. Each test
//! checks that the transfer ends failed, that the destination bytes are
//! unchanged, and that the OS fault service counted the fault
//! unresolvable and installed nothing — on the remote path that is the
//! receiver's service, so the grant is never upgraded to writable.

use udma::{
    BufferSpec, ClusterConfig, ClusterSim, DmaMethod, Machine, MachineConfig, ProcessSpec,
    VirtDmaSetup,
};
use udma_bus::SimTime;
use udma_cpu::{Pid, ProgramBuilder};
use udma_iommu::IotlbConfig;
use udma_mem::{Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use udma_nic::{DescDst, DmaDescriptor, RingConfig, RingLaunch, VirtState, XferState};
use udma_os::{pin_range, FaultServiceStats};

/// Bytes each transfer tries to write.
const LEN: u64 = 256;

/// What every destination byte holds before the transfer.
const SENTINEL: u8 = 0x5A;

/// Asserts the fault service refused the write and installed nothing.
fn assert_refused_by_the_os(stats: FaultServiceStats) {
    assert!(stats.unresolvable >= 1, "the OS never refused the fault: {stats:?}");
    assert_eq!(stats.mapped, 0, "the OS installed a translation: {stats:?}");
    assert_eq!(stats.swapped_in, 0, "the OS installed a translation: {stats:?}");
    assert_eq!(stats.range_prefilled, 0, "the OS installed a translation: {stats:?}");
}

/// A VA machine whose process has a read-write source (buffer 0), a
/// read-only destination (buffer 1) filled with [`SENTINEL`], and a
/// read-write ring page (buffer 2). In the demand case the source is
/// registered up front, so the destination's is the only fault.
fn local_machine(pin_on_post: bool) -> (Machine, Pid) {
    let iotlb = IotlbConfig::default();
    let setup =
        if pin_on_post { VirtDmaSetup::pin_on_post(iotlb) } else { VirtDmaSetup::demand(iotlb) };
    let mut m = Machine::new(MachineConfig {
        virt_dma: Some(setup),
        ..MachineConfig::new(DmaMethod::Kernel)
    });
    let read_only = BufferSpec { perms: Perms::READ, ..BufferSpec::rw(1) };
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::rw(1), read_only, BufferSpec::rw(1)],
        ..ProcessSpec::default()
    };
    let pid = m.spawn(&spec, |_| ProgramBuilder::new().halt().build());
    let env = m.env(pid).clone();
    m.memory_mut().write_bytes(env.buffer(0).first_frame.base(), &[0xC3; LEN as usize]).unwrap();
    m.memory_mut()
        .write_bytes(env.buffer(1).first_frame.base(), &[SENTINEL; LEN as usize])
        .unwrap();
    if !pin_on_post {
        let pt = m.executor().process(pid).page_table().clone();
        let iommu = m.engine_mut().core_mut().iommu_mut().unwrap();
        let src = env.buffer(0);
        pin_range(env.ctx.unwrap().ctx, src.va, src.len(), &pt, iommu).unwrap();
    }
    (m, pid)
}

/// Drives local transfer `id` to its end and checks the refusal.
fn assert_local_write_refused(mut m: Machine, pid: Pid, id: usize) {
    assert!(matches!(m.run_virt(id, 64), VirtState::Failed(_)), "the write was not refused");
    let mut dst = [0u8; LEN as usize];
    m.memory().borrow().read_bytes(m.env(pid).buffer(1).first_frame.base(), &mut dst).unwrap();
    assert!(dst.iter().all(|&b| b == SENTINEL), "the read-only destination changed");
    assert_refused_by_the_os(m.fault_service().stats());
}

fn local_va_write(pin_on_post: bool) {
    let (mut m, pid) = local_machine(pin_on_post);
    let (src, dst) = (m.env(pid).buffer(0).va, m.env(pid).buffer(1).va);
    let id = m.post_virt(pid, src, dst, LEN).unwrap();
    assert_local_write_refused(m, pid, id);
}

fn ring_write(pin_on_post: bool) {
    let (mut m, pid) = local_machine(pin_on_post);
    m.enable_desc_rings(RingConfig::default());
    assert!(m.register_ring(pid, 2, 4));
    let (src, dst) = (m.env(pid).buffer(0).va, m.env(pid).buffer(1).va);
    m.post_ring(pid, &DmaDescriptor::new(src, DescDst::Local(dst), LEN)).unwrap();
    let launches = m.ring_doorbell(pid);
    let [RingLaunch::Virt(id)] = launches[..] else {
        panic!("expected one launched transfer, got {launches:?}");
    };
    assert_local_write_refused(m, pid, id);
}

#[test]
fn local_va_write_into_read_only_page_fails_on_demand() {
    local_va_write(false);
}

#[test]
fn local_va_write_into_read_only_page_fails_pinned() {
    local_va_write(true);
}

#[test]
fn ring_write_into_read_only_page_fails_on_demand() {
    ring_write(false);
}

#[test]
fn ring_write_into_read_only_page_fails_pinned() {
    ring_write(true);
}

/// Node 0 writes into a read-only grant on node 1; checks the refusal
/// against node 1's whole memory and its fault service.
fn remote_va_write(pin_on_post: bool) {
    const NODE: u32 = 1;
    const ASID: u32 = 7;
    const VA: u64 = 32 * PAGE_SIZE;
    const NODE_BYTES: u64 = 1 << 18;
    let mut cfg = ClusterConfig::new(2);
    cfg.node_bytes = NODE_BYTES;
    cfg.pin_on_post = pin_on_post;
    let mut sim = ClusterSim::new(cfg);
    sim.grant(NODE, ASID, VirtAddr::new(VA), 1, Perms::READ).unwrap();
    let memory = |sim: &ClusterSim| {
        let mut bytes = vec![0u8; NODE_BYTES as usize];
        sim.read_mem(NODE, PhysAddr::new(0), &mut bytes).unwrap();
        bytes
    };
    let before = memory(&sim);
    let id = sim.post(0, NODE, ASID, VirtAddr::new(VA), LEN, SimTime::ZERO);
    sim.run();
    assert_eq!(sim.xfer(id).state, XferState::Failed, "the write was not refused");
    assert!(memory(&sim) == before, "the read-only grant's node memory changed");
    assert_refused_by_the_os(sim.digest().nodes[NODE as usize].faults);
}

#[test]
fn remote_va_write_into_read_only_grant_fails_on_demand() {
    remote_va_write(false);
}

#[test]
fn remote_va_write_into_read_only_grant_fails_pinned() {
    remote_va_write(true);
}
