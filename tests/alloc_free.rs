//! Allocation gate for the local transfer path: in steady state a
//! transfer makes no heap allocation, and a demand-paged transfer's
//! whole-page copies share their source frames. And two gates for the
//! cluster path: a deposit adopts its chunk instead of allocating a
//! frame, and a finished transfer holds no payload.
//!
//! A counting global allocator counts every `alloc`, `alloc_zeroed` and
//! `realloc` made on the calling thread while one call runs, and tracks
//! the thread's live heap bytes, so tests running in parallel do not
//! leak into each other's counts. Seven shapes are gated:
//!
//! * `Machine::run` on the ring shape (key-based, pin-on-post VA DMA,
//!   1,024 descriptors written by the CPU into a one-page ring, one
//!   doorbell per 16): at most 0.05 allocations per transfer. Before
//!   the mover copied frame to frame, this shape made 10.7 per transfer:
//!   a staging `Vec` per launch, a ready-set `Vec` per instruction, a
//!   `Vec` per retiring store and per barrier, and a fragment list per
//!   descriptor. Until the doorbell store stopped building a launch
//!   list nobody reads, it made 0.1 (103 in all, 64 of them lists).
//! * `Machine::run` on the §3.4 shape for each `DmaMethod::TABLE1` row
//!   and for PAL (2,000 back-to-back 8-byte initiations): at most 0.02
//!   per initiation, against 5.0, 4.0, 13.0 and 6.0 before (kernel,
//!   extended shadow, repeated passing, key-based), and 1.011 for PAL
//!   while each `CallPal` cloned the installed PAL program.
//! * Compiling that §3.4 program, for every `DmaMethod`: at most 16
//!   allocations, the growth of one instruction vector. While branch
//!   targets were string labels, the five-access retry loop made 10,037
//!   (a label name, a label-table entry and three fixup names per
//!   initiation).
//! * `Machine::post_virt` on a pin-on-post machine over pages already
//!   installed (512 three-page posts, four chunks each): at most 0.05
//!   per post, against 4.0 before (one staged buffer per chunk).
//!
//! What remains is amortized growth of the engine's history (transfer
//! records, VA transfer table).
//!
//! * Demand-paged `Machine::post_virt`, fault service and `run_virt` in
//!   the benchmark's va_fault shape (two 64-page buffers, a 16-entry
//!   IOTLB, two passes of 1–8-page transfers): at most 98 allocations
//!   over its 128 serviced faults, the count of the B-tree page tables.
//!   That was one destination frame per destination page plus amortized
//!   table growth; the hashed tables made 84. A table that reallocated
//!   on every insert would make about 210. Since a whole aligned page
//!   copy shares its source frame, it makes 94: one `Arc` per shared
//!   source page, and a second allocation for each page shared in the
//!   first pass and cut by a transfer boundary in the second. The live
//!   heap grows by at most the destination pages some transfer
//!   boundary cuts, 8 KiB each, plus 48 KiB of tables (29 KiB
//!   measured): the 41 pages that only take whole-page copies hold no
//!   frame of their own. While every chunk was a byte copy it grew by
//!   all 64 destination frames.
//! * A sequential lossy `ClusterSim` in the repository benchmark's
//!   cluster shape, scaled down (8 nodes, 16 two-page slots of 1–2-page
//!   posts, 5% frame loss, even slots pinned): from before the posts to
//!   after the run, the live heap grows by at most the destination
//!   frames the run wrote plus 1 KiB per transfer. While every transfer
//!   kept its payload until the cluster was dropped, it also grew by
//!   every posted byte. Since deposits adopt their chunks, the frames
//!   hold the posted buffers themselves, which are no larger.
//! * `ClusterSim::run` in the benchmark's full cluster shape (32 nodes,
//!   64 two-page slots of posts reaching into the second page, 5% frame
//!   loss, even slots pinned): at most 0.25 allocations per transfer.
//!   It makes 0.15. While every deposit copied its chunk into a fresh
//!   8 KiB frame, it made 2.15, two of them the frames.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use udma::{
    emit_dma, BufferSpec, ClusterConfig, ClusterSim, DmaMethod, DmaRequest, Machine, MachineConfig,
    ProcessEnv, ProcessSpec, VirtDmaSetup,
};
use udma_bus::SimTime;
use udma_cpu::{ProcState, Program, ProgramBuilder};
use udma_iommu::IotlbConfig;
use udma_mem::{Perms, VirtAddr, PAGE_SIZE};
use udma_nic::{
    regs, DescDst, DmaDescriptor, FaultPlan, RingConfig, VirtState, XferState, DESC_BYTES,
};
use udma_testkit::TestRng;

/// The system allocator, counting the calling thread's allocations and
/// live bytes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation that changes the live heap by `delta` bytes
/// (`count` is false for a free).
fn record(count: bool, delta: i64) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + u64::from(count)));
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(true, layout.size() as i64);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(true, layout.size() as i64);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(true, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(false, -(layout.size() as i64));
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the growth of this thread's
/// live heap across it, in bytes (negative if it freed more than it
/// allocated).
fn live_growth<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

/// A key-based machine with pin-on-post VA DMA.
fn pin_on_post_machine() -> Machine {
    Machine::new(MachineConfig {
        virt_dma: Some(VirtDmaSetup::pin_on_post(IotlbConfig::default())),
        ..MachineConfig::new(DmaMethod::KeyBased)
    })
}

#[test]
fn ring_run_allocates_nothing_per_transfer() {
    const PAGES: u64 = 8;
    const DESCRIPTORS: u64 = 1_024;
    const BATCH: u64 = 16;
    let mut m = pin_on_post_machine();
    m.enable_desc_rings(RingConfig::default());
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::rw(PAGES), BufferSpec::rw(PAGES), BufferSpec::rw(1)],
        ..Default::default()
    };
    let buf = PAGES * PAGE_SIZE;
    let mut rng = TestRng::seed_from_u64(7);
    let pid = m.spawn(&spec, |env| {
        let ring_va = env.buffer(2).va.as_u64();
        let db =
            env.ctx_page_va.expect("VA machines grant a context page").as_u64() + regs::CTX_RING_DB;
        let slots = PAGE_SIZE / DESC_BYTES;
        let mut b = ProgramBuilder::new();
        for i in 0..DESCRIPTORS {
            // 64 B – 4 KiB at 8-byte offsets, as the benchmark's ring shape.
            let len = 8 * rng.gen_range(8..512);
            let src = 8 * rng.gen_range(0..(buf - len) / 8);
            let dst = 8 * rng.gen_range(0..(buf - len) / 8);
            let desc =
                DmaDescriptor::new(env.addr_in(0, src), DescDst::Local(env.addr_in(1, dst)), len);
            let slot = (i % slots) * DESC_BYTES;
            for (w, word) in desc.encode().iter().enumerate() {
                b = b.store(ring_va + slot + 8 * w as u64, *word);
            }
            if (i + 1) % BATCH == 0 {
                b = b.mb().store(db, i + 1);
            }
        }
        b.mb().halt().build()
    });
    assert!(m.register_ring(pid, 2, PAGE_SIZE / DESC_BYTES));
    let (outcome, allocs) = counting(|| m.run(50_000_000));
    assert!(outcome.finished);
    let launched = m.engine().core().ring_stats().launched;
    assert_eq!(launched, DESCRIPTORS, "every descriptor launches");
    let per = allocs as f64 / launched as f64;
    assert!(per <= 0.05, "{allocs} allocations over {launched} ring transfers ({per:.3} each)");
}

/// Pages per buffer of the §3.4 shape.
const TABLE1_PAGES: u64 = 8;
/// Back-to-back initiations of the §3.4 shape.
const INITIATIONS: u64 = 2_000;

/// The §3.4 program: `INITIATIONS` 8-byte initiations between two
/// `TABLE1_PAGES`-page buffers, each at a different page and offset.
fn table1_program(env: &ProcessEnv) -> Program {
    let mut b = ProgramBuilder::new();
    let mut uniq = 0;
    for i in 0..INITIATIONS {
        let off = (i % TABLE1_PAGES) * PAGE_SIZE + (i * 64) % (PAGE_SIZE - 64);
        let req = DmaRequest::new(env.addr_in(0, off), env.addr_in(1, off), 8);
        b = emit_dma(env, b, &req, &mut uniq);
    }
    b.halt().build()
}

#[test]
fn table1_compile_allocates_only_the_instruction_vector() {
    let per_method = DmaMethod::ALL.map(|method| {
        let mut m = Machine::with_method(method);
        let mut allocs = 0;
        m.spawn(&ProcessSpec::two_buffers_of(TABLE1_PAGES), |env| {
            assert!(env.can_use_user_level(), "{method:?} compiles its own sequence");
            let (prog, n) = counting(|| table1_program(env));
            allocs = n;
            prog
        });
        (method, allocs)
    });
    assert!(per_method.iter().all(|&(_, n)| n <= 16), "allocations per compile: {per_method:?}");
}

#[test]
fn table1_run_allocates_nothing_per_initiation() {
    let rows = DmaMethod::TABLE1.into_iter().chain([DmaMethod::Pal]);
    let per_row: Vec<_> = rows
        .map(|method| {
            let mut m = Machine::with_method(method);
            let pid = m.spawn(&ProcessSpec::two_buffers_of(TABLE1_PAGES), table1_program);
            let (outcome, allocs) = counting(|| m.run(50_000_000));
            assert!(outcome.finished);
            assert_eq!(m.executor().process(pid).state(), ProcState::Halted);
            assert_eq!(m.engine().core().stats().started, INITIATIONS, "{method:?}");
            (method, allocs as f64 / INITIATIONS as f64)
        })
        .collect();
    assert!(per_row.iter().all(|&(_, per)| per <= 0.02), "allocations per initiation: {per_row:?}");
}

#[test]
fn pinned_virt_post_allocates_nothing_per_post() {
    const PAGES: u64 = 8;
    const POSTS: u64 = 512;
    let mut m = pin_on_post_machine();
    let pid =
        m.spawn(&ProcessSpec::two_buffers_of(PAGES), |_| ProgramBuilder::new().halt().build());
    let env = m.env(pid).clone();
    let len = 3 * PAGE_SIZE;
    let post = |m: &mut Machine, i: u64| {
        let off = (i % (PAGES - 3)) * PAGE_SIZE + 8 * (i % 64);
        let id = m.post_virt(pid, env.addr_in(0, off), env.addr_in(1, off), len).unwrap();
        assert_eq!(m.virt_xfer(id).unwrap().moved, len, "a pinned post completes at once");
    };
    // Install every page's translation first.
    for i in 0..PAGES {
        post(&mut m, i);
    }
    let ((), allocs) = counting(|| (0..POSTS).for_each(|i| post(&mut m, i)));
    let per = allocs as f64 / POSTS as f64;
    assert!(per <= 0.05, "{allocs} allocations over {POSTS} posts ({per:.3} each)");
}

/// Pages per buffer of the demand-paged shape.
const VA_PAGES: u64 = 64;
/// Allocations per serviced fault of the demand-paged shape: 98 over
/// its 128 faults, as the B-tree page tables made them. That was the
/// destination frame (64 of them) plus amortized table growth; hashed
/// tables made 84, and shared whole pages make 94.
const ALLOCS_PER_FAULT: f64 = 98.0 / 128.0;
/// Live heap the demand-paged shape may grow by besides the
/// destination frames it owns: page tables, IOTLB, transfer records and
/// the shared views' `Arc`s, 29,032 B when measured.
const VA_TABLE_BYTES: i64 = 48 << 10;

#[test]
fn demand_paged_faults_allocate_a_frame_and_amortized_growth() {
    let setup = VirtDmaSetup::demand(IotlbConfig::fully_associative(16));
    let mut m = Machine::new(MachineConfig {
        virt_dma: Some(setup),
        ..MachineConfig::new(DmaMethod::Kernel)
    });
    let pid =
        m.spawn(&ProcessSpec::two_buffers_of(VA_PAGES), |_| ProgramBuilder::new().halt().build());
    let env = m.env(pid).clone();
    let end = VA_PAGES * PAGE_SIZE;
    let pattern: Vec<u8> = (0..end).map(|i| (i % 251) as u8).collect();
    m.memory_mut().write_bytes(env.buffer(0).first_frame.base(), &pattern).unwrap();
    // Two passes of consecutive 1–8-page transfers tiling the buffers,
    // as the benchmark's va_fault shape: the first faults every page of
    // both buffers in, the second misses the 16-entry IOTLB and walks.
    let mut rng = TestRng::seed_from_u64(3);
    let mut transfers = Vec::new();
    for _ in 0..2 {
        let mut pos = 0;
        while pos < end {
            let len = (8 * rng.gen_range(PAGE_SIZE / 8..PAGE_SIZE)).min(end - pos);
            transfers.push((pos, len));
            pos += len;
        }
    }
    let ((faults, allocs), growth) = live_growth(|| {
        counting(|| {
            let mut faults = 0;
            for &(off, len) in &transfers {
                let id = m.post_virt(pid, env.addr_in(0, off), env.addr_in(1, off), len).unwrap();
                loop {
                    let n = m.service_va_faults();
                    faults += n;
                    if n == 0 {
                        break;
                    }
                }
                assert_eq!(m.run_virt(id, 1_000), VirtState::Complete);
            }
            faults
        })
    });
    // A destination page that no transfer boundary cuts, in either
    // pass, only ever takes whole-page copies, so it shares its source
    // frame instead of owning one.
    let whole = (0..VA_PAGES)
        .filter(|&p| {
            let inside = p * PAGE_SIZE + 1..(p + 1) * PAGE_SIZE;
            transfers.iter().all(|&(off, _)| !inside.contains(&off))
        })
        .count() as u64;
    assert_eq!(faults, 2 * VA_PAGES, "every page of both buffers faults in once");
    let mut dst = vec![0u8; end as usize];
    m.memory().borrow().read_bytes(env.buffer(1).first_frame.base(), &mut dst).unwrap();
    assert!(dst == pattern, "the destination holds the source");
    let per = allocs as f64 / faults as f64;
    assert!(
        per <= ALLOCS_PER_FAULT,
        "{allocs} allocations over {faults} serviced faults ({per:.3} each)"
    );
    let bound = ((VA_PAGES - whole) * PAGE_SIZE) as i64 + VA_TABLE_BYTES;
    assert!(
        growth <= bound,
        "live heap grew {growth} B with {whole} of {VA_PAGES} destination pages copied only whole \
         (bound {bound})"
    );
}

#[test]
fn cluster_run_holds_no_finished_payload() {
    const NODES: u32 = 8;
    const SLOTS: u64 = 16;
    const SLOT_PAGES: u64 = 2;
    const ASID: u32 = 1;
    const SLACK_PER_XFER: i64 = 1024;
    let slot_va = |slot: u64| VirtAddr::new((32 + slot * SLOT_PAGES) * PAGE_SIZE);
    let mut cfg = ClusterConfig::new(NODES);
    cfg.node_bytes = 2 << 20;
    cfg.iotlb = IotlbConfig { entries: 256, ways: 4, ..IotlbConfig::default() };
    cfg.chaos = Some(FaultPlan::lossless(3).with_drop(0.05));
    let mut sim = ClusterSim::new(cfg);
    for node in 0..NODES {
        for slot in 0..SLOTS {
            sim.grant(node, ASID, slot_va(slot), SLOT_PAGES, Perms::READ_WRITE).unwrap();
            if slot % 2 == 0 {
                sim.pin(node, ASID, slot_va(slot), SLOT_PAGES * PAGE_SIZE).unwrap();
            }
        }
    }
    let mut rng = TestRng::seed_from_u64(5);
    let (frames, growth) = live_growth(|| {
        let mut posts = Vec::with_capacity((SLOTS * u64::from(NODES)) as usize);
        // Each slot, every node sends into a different node's copy of it.
        for slot in 0..SLOTS {
            let shift = 1 + (slot as u32) % (NODES - 1);
            for src in 0..NODES {
                let len = 8 * rng.gen_range(PAGE_SIZE / 8..2 * PAGE_SIZE / 8 + 1);
                let at = SimTime::from_us(slot * 11 + 3 * rng.gen_range(0..6));
                let id = sim.post(src, (src + shift) % NODES, ASID, slot_va(slot), len, at);
                posts.push((id, len));
            }
        }
        sim.run();
        let mut frames = 0;
        for &(id, len) in &posts {
            assert_eq!(sim.xfer(id).state, XferState::Complete, "{id}");
            frames += len.div_ceil(PAGE_SIZE) as i64;
        }
        frames
    });
    let xfers = (SLOTS * u64::from(NODES)) as i64;
    let bound = frames * PAGE_SIZE as i64 + xfers * SLACK_PER_XFER;
    assert!(
        growth <= bound,
        "live heap grew {growth} B over {xfers} transfers writing {frames} frames (bound {bound})"
    );
}

#[test]
fn cluster_run_adopts_chunks_instead_of_allocating_frames() {
    const NODES: u32 = 32;
    const SLOTS: u64 = 64;
    const SLOT_PAGES: u64 = 2;
    const ASID: u32 = 1;
    const ALLOCS_PER_XFER: f64 = 0.25;
    let slot_va = |slot: u64| VirtAddr::new((32 + slot * SLOT_PAGES) * PAGE_SIZE);
    let mut cfg = ClusterConfig::new(NODES);
    cfg.node_bytes = 2 << 20;
    cfg.iotlb = IotlbConfig { entries: 256, ways: 4, ..IotlbConfig::default() };
    cfg.chaos = Some(FaultPlan::lossless(1).with_drop(0.05));
    let mut sim = ClusterSim::new(cfg);
    for node in 0..NODES {
        for slot in 0..SLOTS {
            sim.grant(node, ASID, slot_va(slot), SLOT_PAGES, Perms::READ_WRITE).unwrap();
            if slot % 2 == 0 {
                sim.pin(node, ASID, slot_va(slot), SLOT_PAGES * PAGE_SIZE).unwrap();
            }
        }
    }
    let mut rng = TestRng::seed_from_u64(11);
    let mut posts = Vec::with_capacity((SLOTS * u64::from(NODES)) as usize);
    // Each slot, every node sends into a different node's copy of it,
    // always reaching into the slot's second page.
    for slot in 0..SLOTS {
        let shift = 1 + (slot as u32) % (NODES - 1);
        for src in 0..NODES {
            let len = PAGE_SIZE + 8 * rng.gen_range(1..PAGE_SIZE / 8);
            let at = SimTime::from_us(slot * 11 + 3 * rng.gen_range(0..6));
            posts.push(sim.post(src, (src + shift) % NODES, ASID, slot_va(slot), len, at));
        }
    }
    let (_, allocs) = counting(|| sim.run());
    for &id in &posts {
        assert_eq!(sim.xfer(id).state, XferState::Complete, "{id}");
    }
    let per = allocs as f64 / posts.len() as f64;
    assert!(
        per <= ALLOCS_PER_XFER,
        "{allocs} allocations over {} transfers ({per:.3} each)",
        posts.len()
    );
}
