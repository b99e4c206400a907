//! Allocation gate for the local transfer path: in steady state a
//! transfer makes no heap allocation.
//!
//! A counting global allocator counts every `alloc`, `alloc_zeroed` and
//! `realloc` made on the calling thread while one call runs, so tests
//! running in parallel do not leak into each other's counts. Three
//! shapes are gated:
//!
//! * `Machine::run` on the ring shape (key-based, pin-on-post VA DMA,
//!   1,024 descriptors written by the CPU into a one-page ring, one
//!   doorbell per 16): at most 0.125 allocations per transfer. Before
//!   the mover copied frame to frame, this shape made 10.7 per transfer:
//!   a staging `Vec` per launch, a ready-set `Vec` per instruction, a
//!   `Vec` per retiring store and per barrier, and a fragment list per
//!   descriptor.
//! * `Machine::run` on the §3.4 shape for each `DmaMethod::TABLE1` row
//!   (2,000 back-to-back 8-byte initiations): at most 0.02 per
//!   initiation, against 5.0, 4.0, 13.0 and 6.0 before (kernel,
//!   extended shadow, repeated passing, key-based).
//! * `Machine::post_virt` on a pin-on-post machine over pages already
//!   installed (512 three-page posts, four chunks each): at most 0.05
//!   per post, against 4.0 before (one staged buffer per chunk).
//!
//! What remains is amortized growth of the engine's history (transfer
//! records, VA transfer table) and the one launch list a doorbell
//! returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use udma::{
    emit_dma, BufferSpec, DmaMethod, DmaRequest, Machine, MachineConfig, ProcessSpec, VirtDmaSetup,
};
use udma_cpu::{ProcState, ProgramBuilder};
use udma_iommu::IotlbConfig;
use udma_mem::PAGE_SIZE;
use udma_nic::{regs, DescDst, DmaDescriptor, RingConfig, DESC_BYTES};
use udma_testkit::TestRng;

/// The system allocator, counting the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
    assert!(per <= 0.125, "{allocs} allocations over {launched} ring transfers ({per:.3} each)");
}

#[test]
fn table1_run_allocates_nothing_per_initiation() {
    const PAGES: u64 = 8;
    const INITIATIONS: u64 = 2_000;
    let per_row = DmaMethod::TABLE1.map(|method| {
        let mut m = Machine::with_method(method);
        let pid = m.spawn(&ProcessSpec::two_buffers_of(PAGES), |env| {
            let mut b = ProgramBuilder::new();
            let mut uniq = 0;
            for i in 0..INITIATIONS {
                let off = (i % PAGES) * PAGE_SIZE + (i * 64) % (PAGE_SIZE - 64);
                let req = DmaRequest::new(env.addr_in(0, off), env.addr_in(1, off), 8);
                b = emit_dma(env, b, &req, &mut uniq);
            }
            b.halt().build()
        });
        let (outcome, allocs) = counting(|| m.run(50_000_000));
        assert!(outcome.finished);
        assert_eq!(m.executor().process(pid).state(), ProcState::Halted);
        assert_eq!(m.engine().core().stats().started, INITIATIONS, "{method:?}");
        (method, allocs as f64 / INITIATIONS as f64)
    });
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
