//! Initiation compilers: method → instruction sequence.
//!
//! These functions emit, instruction for instruction, the sequences the
//! paper lists: Figure 1's syscall for the kernel baseline, Figure 2/4's
//! two accesses, Figure 3's four, and Figure 7's five-access retry loop.

use crate::machine::PAL_DMA;
use crate::{DmaMethod, DmaRequest, ProcessEnv};
use udma_cpu::{ProgramBuilder, Reg};
use udma_mem::VirtAddr;
use udma_nic::{regs, AtomicOp, DMA_FAILURE, DMA_STARTED};
use udma_os::{SYS_ATOMIC, SYS_DMA};

/// A user-level atomic operation request (§3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtomicRequest {
    /// Target virtual address (must be shadow-mapped for user-level
    /// methods).
    pub va: VirtAddr,
    /// The operation.
    pub op: AtomicOp,
    /// First operand.
    pub operand1: u64,
    /// Second operand (compare-and-swap's new value).
    pub operand2: u64,
}

/// Appends one DMA initiation to `b`. The status ends up in `r0`
/// (`udma_nic::DMA_FAILURE` = not started).
///
/// `_uniq` is unused: retry loops branch back to their head by position,
/// so initiations need no unique names. It stays for callers that still
/// pass a counter.
///
/// Methods that need a register context fall back to the kernel syscall
/// when the environment holds no grant — the paper's own stance: "if
/// more processes would like to start DMA operations, the rest will have
/// to go through the kernel" (§3.2).
pub fn emit_dma(
    env: &ProcessEnv,
    b: ProgramBuilder,
    req: &DmaRequest,
    _uniq: &mut u32,
) -> ProgramBuilder {
    let method = if env.can_use_user_level() { env.method } else { DmaMethod::Kernel };
    let s_src = env.shadow_of(req.src).as_u64();
    let s_dst = env.shadow_of(req.dst).as_u64();
    // The head of the retry loop, for the methods that have one.
    let retry = b.here();
    match method {
        DmaMethod::Kernel => b
            .imm(Reg::R0, req.src.as_u64())
            .imm(Reg::R1, req.dst.as_u64())
            .imm(Reg::R2, req.size)
            .syscall(SYS_DMA),
        // One argument-passing access; the destination is the source
        // page's mapped-out twin. A status load follows (the real SHRIMP
        // used a compare-and-exchange that returned it in one go).
        DmaMethod::Shrimp1 => b.store(s_src, req.size).load(Reg::R0, s_src),
        // Figure 2 / Figure 4: STORE size TO shadow(vdest); LOAD status
        // FROM shadow(vsource).
        DmaMethod::Shrimp2 { .. } | DmaMethod::Flash { .. } | DmaMethod::ExtShadow => {
            b.store(s_dst, req.size).load(Reg::R0, s_src)
        }
        // Same two accesses, but an interleaved pair of another process
        // makes *both* fail with CtxMismatch — so the canonical sequence
        // retries (safe, not wait-free).
        DmaMethod::ExtShadowPairwise => {
            b.store(s_dst, req.size).load(Reg::R0, s_src).beq(Reg::R0, DMA_FAILURE, retry)
        }
        // §2.7: the same two accesses, inside an uninterruptible PAL call.
        DmaMethod::Pal => {
            b.imm(Reg::R1, s_dst).imm(Reg::R2, req.size).imm(Reg::R3, s_src).call_pal(PAL_DMA)
        }
        // Figure 3: two keyed address stores, a size store, a status load.
        DmaMethod::KeyBased => {
            let grant = env.ctx.expect("can_use_user_level checked");
            let keyctx = regs::encode_key_ctx(grant.key, grant.ctx);
            let ctx_page = env.ctx_page_va.expect("granted ctx has a page").as_u64();
            b.store(s_dst, keyctx)
                .store(s_src, keyctx)
                .store(ctx_page + regs::CTX_SIZE_TRIGGER, req.size)
                .load(Reg::R0, ctx_page + regs::CTX_SIZE_TRIGGER)
        }
        DmaMethod::Repeated3 => b
            .load(Reg::R0, s_src)
            .store(s_dst, req.size)
            .load(Reg::R0, s_src)
            .beq(Reg::R0, DMA_FAILURE, retry),
        DmaMethod::Repeated4 => b
            .store(s_dst, req.size)
            .load(Reg::R0, s_src)
            .store(s_dst, req.size)
            .load(Reg::R0, s_src)
            .beq(Reg::R0, DMA_FAILURE, retry),
        // Figure 7, verbatim — including the memory barriers §3.4 says
        // the measurement used so the write buffer cannot collapse the
        // repeated stores. The final load must observe DMA_STARTED, not
        // merely non-failure: with a single shared FSM, a broken final
        // load can be absorbed as an argument-passing access of another
        // process's in-flight sequence and read back DMA_PENDING, which
        // would otherwise end the retry loop on a transfer that never
        // happened.
        DmaMethod::Repeated5 => b
            .store(s_dst, req.size)
            .mb()
            .load(Reg::R0, s_src)
            .beq(Reg::R0, DMA_FAILURE, retry)
            .store(s_dst, req.size)
            .mb()
            .load(Reg::R0, s_src)
            .beq(Reg::R0, DMA_FAILURE, retry)
            .load(Reg::R0, s_dst)
            .bne(Reg::R0, DMA_STARTED, retry),
    }
}

/// Appends one atomic operation to `b`; the old value (or
/// `udma_nic::DMA_FAILURE`) ends up in `r0`.
///
/// User-level atomics are supported by the key-based and extended-shadow
/// methods (which have per-process context pages); every other method
/// goes through the kernel, as §3.5's motivation assumes.
pub fn emit_atomic(env: &ProcessEnv, b: ProgramBuilder, req: &AtomicRequest) -> ProgramBuilder {
    let kernel_path = |b: ProgramBuilder| {
        b.imm(Reg::R0, req.va.as_u64())
            .imm(Reg::R1, req.op.code())
            .imm(Reg::R2, req.operand1)
            .imm(Reg::R3, req.operand2)
            .syscall(SYS_ATOMIC)
    };
    if !env.can_use_user_level() {
        return kernel_path(b);
    }
    let s_va = env.shadow_of(req.va).as_u64();
    match env.method {
        DmaMethod::KeyBased => {
            let grant = env.ctx.expect("can_use_user_level checked");
            let keyctx = regs::encode_key_ctx(grant.key, grant.ctx);
            let page = env.ctx_page_va.expect("granted ctx has a page").as_u64();
            b.store(s_va, keyctx)
                .store(page + regs::CTX_ATOMIC_OPERAND1, req.operand1)
                .store(page + regs::CTX_ATOMIC_OPERAND2, req.operand2)
                .store(page + regs::CTX_ATOMIC_CMD, req.op.code())
                .load(Reg::R0, page + regs::CTX_ATOMIC_CMD)
        }
        DmaMethod::ExtShadow => {
            let page = env.ctx_page_va.expect("granted ctx has a page").as_u64();
            b.store(s_va, 0)
                .store(page + regs::CTX_ATOMIC_OPERAND1, req.operand1)
                .store(page + regs::CTX_ATOMIC_OPERAND2, req.operand2)
                .store(page + regs::CTX_ATOMIC_CMD, req.op.code())
                .load(Reg::R0, page + regs::CTX_ATOMIC_CMD)
        }
        _ => kernel_path(b),
    }
}

/// Builds a complete program issuing `reqs` in order, then halting.
pub fn dma_program(env: &ProcessEnv, reqs: &[DmaRequest]) -> udma_cpu::Program {
    let mut b = ProgramBuilder::new();
    let mut uniq = 0;
    for req in reqs {
        b = emit_dma(env, b, req, &mut uniq);
    }
    b.halt().build()
}
