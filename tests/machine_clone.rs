//! A `Machine` clone is a deep, independent fork. The interleaving
//! explorer runs every schedule on its own clone of one built machine,
//! so nothing a clone does may reach the original, and a clone must run
//! exactly as the original would.

use udma::{
    emit_dma, emit_virt_dma, BufferSpec, CoherenceSetup, DmaMethod, DmaRequest, Machine,
    MachineConfig, ProcessSpec, VirtDmaSetup,
};
use udma_bus::SimTime;
use udma_cpu::{Pid, ProgramBuilder, Reg};
use udma_iommu::IotlbConfig;
use udma_mem::PAGE_SIZE;
use udma_nic::{DescDst, DmaDescriptor, EngineStats, RingConfig, RingStats, TransferRecord};
use udma_os::{CtxCacheConfig, FaultServiceStats, QosClass};

/// A key-based machine with every optional unit: virtual-address DMA,
/// descriptor rings, context virtualization and non-coherent caches. One
/// process holds a keyed physical initiation and a virtual-address one.
fn loaded_machine() -> (Machine, Pid) {
    let mut m = Machine::new(MachineConfig {
        virt_dma: Some(VirtDmaSetup::pin_on_post(IotlbConfig::default())),
        coherence: CoherenceSetup::non_coherent(),
        ..MachineConfig::new(DmaMethod::KeyBased)
    });
    m.enable_desc_rings(RingConfig::default());
    m.enable_ctx_virtualization(CtxCacheConfig::default());
    m.register_logical(QosClass::BestEffort);
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::rw(2), BufferSpec::rw(2), BufferSpec::rw(1)],
        ..Default::default()
    };
    let pid = m.spawn(&spec, |env| {
        let req = DmaRequest::new(env.addr_in(0, 0), env.addr_in(1, 0), 256);
        let b = emit_dma(env, ProgramBuilder::new(), &req, &mut 0);
        emit_virt_dma(env, b, env.addr_in(0, PAGE_SIZE), env.addr_in(1, PAGE_SIZE), PAGE_SIZE)
            .halt()
            .build()
    });
    assert!(m.register_ring(pid, 2, 8));
    let src = m.env(pid).buffer(0).first_frame.base();
    let pattern: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i * 7 + 3) as u8).collect();
    m.memory().borrow_mut().write_bytes(src, &pattern).unwrap();
    (m, pid)
}

/// Runs the program, then a ring transfer and one more logical process.
fn finish(m: &mut Machine, pid: Pid) {
    assert!(m.run(100_000).finished);
    let env = m.env(pid);
    let desc = DmaDescriptor::new(env.addr_in(0, 512), DescDst::Local(env.addr_in(1, 512)), 128);
    m.post_ring(pid, &desc).unwrap();
    m.ring_doorbell(pid);
    m.register_logical(QosClass::Guaranteed);
}

/// What the test compares between machines.
#[derive(Debug, PartialEq)]
struct Observed {
    now: SimTime,
    r0: u64,
    bytes: Vec<u8>,
    transfers: Vec<TransferRecord>,
    /// `VirtTransfer` has no `PartialEq`; its debug form stands in.
    virt_xfers: String,
    engine: EngineStats,
    rings: RingStats,
    faults: FaultServiceStats,
    logical: Option<u32>,
}

fn observe(m: &Machine, pid: Pid) -> Observed {
    let env = m.env(pid);
    let mut bytes = Vec::new();
    for i in 0..3 {
        let buf = env.buffer(i);
        let mut page = vec![0u8; (buf.pages * PAGE_SIZE) as usize];
        m.memory().borrow().read_bytes(buf.first_frame.base(), &mut page).unwrap();
        bytes.extend(page);
    }
    let core = m.engine().core();
    Observed {
        now: m.time(),
        r0: m.reg(pid, Reg::R0),
        bytes,
        transfers: m.transfers(),
        virt_xfers: format!("{:?}", core.virt_xfers()),
        engine: core.stats().clone(),
        rings: core.ring_stats(),
        faults: m.fault_service().stats(),
        logical: m.ctx_cache().map(|c| c.processes()),
    }
}

#[test]
fn a_clone_runs_without_touching_the_original() {
    let (mut original, pid) = loaded_machine();
    let before = observe(&original, pid);

    let mut fork = original.clone();
    finish(&mut fork, pid);
    assert_eq!(observe(&original, pid), before, "running the clone changed the original");

    let forked = observe(&fork, pid);
    assert!(forked.now > before.now);
    // The keyed, the virtual-address and the ring transfer all ran.
    assert_eq!(forked.transfers.len(), 3);
    assert_eq!(forked.rings.launched, 1);
    assert_eq!(forked.logical, Some(2));

    finish(&mut original, pid);
    assert_eq!(observe(&original, pid), forked, "the original and its clone diverged");
}
