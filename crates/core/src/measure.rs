//! The §3.4 measurement harness: Table 1 and the atomic-operation
//! comparison.

use crate::va::VirtDmaSetup;
use crate::{
    emit_atomic, emit_dma, AtomicRequest, BufferSpec, DmaMethod, DmaRequest, Machine,
    MachineConfig, ProcessSpec,
};
use udma_bus::SimTime;
use udma_cpu::ProgramBuilder;
use udma_iommu::IotlbConfig;
use udma_mem::PAGE_SIZE;
use udma_nic::{regs, AtomicOp, DescDst, DmaDescriptor, RingConfig, DESC_BYTES};

/// The measured cost of one initiation under a method.
#[derive(Clone, Copy, Debug)]
pub struct InitiationCost {
    /// The method measured.
    pub method: DmaMethod,
    /// Mean time per initiation.
    pub mean: SimTime,
    /// Iterations averaged over.
    pub iters: u32,
    /// User-mode instructions per initiation (`None` for the kernel
    /// path's "thousands").
    pub user_instructions: Option<u32>,
    /// The paper's Table 1 number, where it reports one.
    pub paper_us: Option<f64>,
}

impl InitiationCost {
    /// Ratio of our measurement to the paper's, where comparable.
    pub fn vs_paper(&self) -> Option<f64> {
        self.paper_us.map(|p| self.mean.as_us() / p)
    }
}

/// Measures the mean initiation cost of `method` over `iters`
/// initiations, reproducing the paper's §3.4 procedure: "a simple test of
/// initiating 1,000 DMA operations. Successive DMA operations were done
/// to(from) different addresses, so as to eliminate any caching effects."
/// No payload matters (size is 8 bytes; the paper passed arguments only).
///
/// ```
/// use udma::{measure_initiation, DmaMethod};
///
/// let cost = measure_initiation(DmaMethod::ExtShadow, 50);
/// // Two TurboChannel accesses: around a microsecond.
/// assert!((0.5..2.0).contains(&cost.mean.as_us()));
/// ```
///
/// # Panics
///
/// Panics if the run does not complete or an initiation fails — both
/// indicate a broken protocol wiring, not a measurement result.
pub fn measure_initiation(method: DmaMethod, iters: u32) -> InitiationCost {
    measure_initiation_with(crate::MachineConfig::new(method), iters)
}

/// Regenerates **Table 1**: the paper's four rows, measured on this
/// simulator.
pub fn table1(iters: u32) -> Vec<InitiationCost> {
    DmaMethod::TABLE1.iter().map(|&m| measure_initiation(m, iters)).collect()
}

/// Measures the mean cost of one user-level (or kernel-path) atomic
/// operation under `method` (experiment E9, §3.5).
///
/// # Panics
///
/// Panics if the run does not complete.
pub fn measure_atomic(method: DmaMethod, iters: u32) -> InitiationCost {
    assert!(iters > 0, "need at least one iteration");
    let mut m = Machine::with_method(method);
    let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
        let mut b = ProgramBuilder::new();
        for i in 0..iters as u64 {
            let va = env.addr_in(0, (i * 8) % PAGE_SIZE);
            let req = AtomicRequest { va, op: AtomicOp::Add, operand1: 1, operand2: 0 };
            b = emit_atomic(env, b, &req);
        }
        b.halt().build()
    });
    let out = m.run(iters as u64 * 64 + 10_000);
    assert!(out.finished, "measurement did not complete");
    assert_eq!(m.engine().core().stats().atomics, iters as u64);
    let _ = pid;
    InitiationCost {
        method,
        mean: SimTime::from_ps(m.time().as_ps() / iters as u64),
        iters,
        user_instructions: None,
        paper_us: None,
    }
}

/// [`measure_initiation`] on a custom machine configuration (bus
/// sweeps, cost-model variants).
///
/// # Panics
///
/// As for [`measure_initiation`].
pub fn measure_initiation_with(config: crate::MachineConfig, iters: u32) -> InitiationCost {
    assert!(iters > 0, "need at least one iteration");
    let method = config.method;
    let mut m = Machine::new(config);
    let pages = 8u64;
    let mut spec = ProcessSpec::two_buffers_of(pages);
    if method == DmaMethod::Shrimp1 {
        spec.mapped_out.push((0, 1));
    }
    m.spawn(&spec, |env| {
        let mut b = ProgramBuilder::new();
        let mut uniq = 0;
        for i in 0..iters as u64 {
            // Different page and different offset every time.
            let page = i % pages;
            let off = (i * 64) % (PAGE_SIZE - 64);
            let src = env.addr_in(0, page * PAGE_SIZE + off);
            let dst = env.addr_in(1, page * PAGE_SIZE + off);
            b = emit_dma(env, b, &DmaRequest::new(src, dst, 8), &mut uniq);
        }
        b.halt().build()
    });
    let out = m.run(iters as u64 * 64 + 10_000);
    assert!(out.finished, "measurement did not complete");
    assert_eq!(
        m.engine().core().stats().started,
        iters as u64,
        "{method}: not every initiation started a transfer"
    );
    InitiationCost {
        method,
        mean: SimTime::from_ps(m.time().as_ps() / iters as u64),
        iters,
        user_instructions: method.protocol().user_instructions(),
        paper_us: method.paper_us(),
    }
}

/// E20: mean per-transfer initiation cost through a **doorbell-batched
/// descriptor ring** at queue depth `depth`, over `iters` transfers on
/// the key-based machine (the paper's own best register path is the
/// baseline the ring must beat).
///
/// `depth == 1` deliberately takes the plain keyed register path — the
/// ring is enabled and registered but idle — so its cost pins *exactly*
/// to the method's per-post number: the ring is pure opt-in. Deeper
/// batches write `depth` descriptors with plain cached memory stores,
/// issue one memory barrier and one uncached doorbell store, so the
/// TurboChannel device access is paid once per batch and the
/// per-transfer cost falls toward the four-stores-per-descriptor
/// asymptote.
///
/// # Panics
///
/// Panics unless `0 < depth ≤ 128`, `iters` is a positive multiple of
/// `depth`, or if any post or launch fails — wiring bugs, not results.
pub fn measure_ring_initiation(depth: u32, iters: u32) -> InitiationCost {
    assert!(depth > 0, "need a positive queue depth");
    assert!(iters > 0 && iters.is_multiple_of(depth), "iters must be a positive multiple of depth");
    let slots = PAGE_SIZE / DESC_BYTES;
    assert!(depth as u64 <= slots, "depth exceeds the one-page ring ({slots} slots)");

    let method = DmaMethod::KeyBased;
    let mut m = Machine::new(MachineConfig {
        virt_dma: Some(VirtDmaSetup::pin_on_post(IotlbConfig::default())),
        ..MachineConfig::new(method)
    });
    m.enable_desc_rings(RingConfig::default());
    let pages = 8u64;
    // Buffers 0/1 carry the transfers; buffer 2 is the one-page ring.
    let spec = ProcessSpec {
        buffers: vec![BufferSpec::rw(pages), BufferSpec::rw(pages), BufferSpec::rw(1)],
        ..Default::default()
    };
    let pid = m.spawn(&spec, |env| {
        let mut b = ProgramBuilder::new();
        if depth == 1 {
            // The register fast path: rings stay idle, cost pins to the
            // method's own per-post number.
            let mut uniq = 0;
            for i in 0..iters as u64 {
                let page = i % pages;
                let off = (i * 64) % (PAGE_SIZE - 64);
                let src = env.addr_in(0, page * PAGE_SIZE + off);
                let dst = env.addr_in(1, page * PAGE_SIZE + off);
                b = emit_dma(env, b, &DmaRequest::new(src, dst, 8), &mut uniq);
            }
            return b.halt().build();
        }
        let ring_va = env.buffer(2).va.as_u64();
        let db = env.ctx_page_va.expect("ring machines grant a context page").as_u64()
            + regs::CTX_RING_DB;
        for batch in 0..(iters / depth) as u64 {
            for k in 0..depth as u64 {
                let i = batch * depth as u64 + k;
                let page = i % pages;
                let off = (i * 64) % (PAGE_SIZE - 64);
                let src = env.addr_in(0, page * PAGE_SIZE + off);
                let dst = env.addr_in(1, page * PAGE_SIZE + off);
                let words = DmaDescriptor::new(src, DescDst::Local(dst), 8).encode();
                let slot = (i % slots) * DESC_BYTES;
                for (w, word) in words.iter().enumerate() {
                    b = b.store(ring_va + slot + 8 * w as u64, *word);
                }
            }
            // Drain the descriptor stores (and keep successive doorbell
            // stores to the same address from collapsing in the write
            // buffer), then one uncached store covers the whole batch.
            b = b.mb().store(db, (batch + 1) * depth as u64);
        }
        b.mb().halt().build()
    });
    let registered = m.register_ring(pid, 2, slots);
    assert!(registered, "kernel refused a ring window that fits its own buffer");
    let out = m.run(iters as u64 * 64 + 10_000);
    assert!(out.finished, "ring measurement did not complete");
    if depth == 1 {
        assert_eq!(m.engine().core().stats().started, iters as u64);
    } else {
        let s = m.ring_stats();
        assert_eq!(s.launched, iters as u64, "not every descriptor launched");
        assert_eq!(s.rejected, 0, "descriptor rejected during measurement");
        assert_eq!(m.engine().core().virt_stats().completed, iters as u64);
    }
    InitiationCost {
        method,
        mean: SimTime::from_ps(m.time().as_ps() / iters as u64),
        iters,
        user_instructions: None,
        paper_us: None,
    }
}

/// End-to-end latency of ONE transfer of `size` bytes: initiate, then
/// poll the context status word until the wire drains (user-level
/// methods with contexts) or the kernel status reads zero. Message sizes
/// must fit a page for user-level methods.
///
/// # Panics
///
/// Panics if the transfer fails or polling never completes.
pub fn measure_transfer_latency(method: DmaMethod, size: u64) -> SimTime {
    use udma_cpu::Reg;
    let mut m = Machine::with_method(method);
    let mut spec = ProcessSpec::two_buffers();
    if method == DmaMethod::Shrimp1 {
        spec.mapped_out.push((0, 1));
    }
    m.spawn(&spec, |env| {
        let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, size);
        let mut uniq = 0;
        let mut b = emit_dma(env, ProgramBuilder::new(), &req, &mut uniq);
        // Poll for completion where a status word exists.
        match (method, env.ctx_page_va) {
            (DmaMethod::Kernel, _) => {
                // The syscall returned remaining bytes; poll by repeating
                // a cheap status syscall? The driver returns remaining at
                // initiation; emulate completion wait with computed wire
                // time via context-free polling: re-issue status reads is
                // not part of the ABI, so just burn the wire time.
                // (Kernel path: r0 holds bytes remaining at start.)
            }
            (_, Some(page)) => {
                let wait = b.here();
                b = b
                    .compute(150) // 1 µs between polls
                    .load(Reg::R4, page.as_u64())
                    .bne(Reg::R4, 0, wait);
            }
            _ => {}
        }
        b.halt().build()
    });
    let out = m.run(10_000_000);
    assert!(out.finished, "{method}: transfer latency run did not finish");
    assert_eq!(m.engine().core().stats().started, 1, "{method}");
    // For methods without a pollable status word, add the residual wire
    // time analytically (initiation time is already in m.time()).
    let rec = m.transfers()[0];
    let finished = rec.finished;
    let now = m.time();
    if finished > now {
        SimTime::from_ps(finished.as_ps())
    } else {
        now
    }
}
