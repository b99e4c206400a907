//! Initiation compilers: method → instruction sequence.
//!
//! These functions emit, instruction for instruction, the sequences the
//! paper lists: Figure 1's syscall for the kernel baseline, Figure 3's
//! four key-based accesses, and every shadow-only sequence (Figure 2/4's
//! two accesses up to Figure 7's five-access retry loop) as the row
//! [`udma_nic::ProtocolKind::sequence`] gives it.

use crate::machine::PAL_DMA;
use crate::{DmaMethod, DmaRequest, ProcessEnv};
use udma_cpu::{Instr, Operand, ProgramBuilder, Reg};
use udma_mem::VirtAddr;
use udma_nic::protocol::{Op, Role, Then};
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
    emit(env, b, req, true)
}

/// Appends one initiation **without retry loops**; `r0` ends with the
/// final status load's value. For methods whose sequence has no loop this
/// is identical to [`emit_dma`].
///
/// The attack figures of the paper (Figures 5, 6, 8) show the *plain*
/// access sequences, without Figure 7's retry loop — the misinformation
/// attack on the 4-instruction variant is only visible when the victim
/// does not retry. Victims in the attack scenarios use these.
pub fn emit_dma_once(env: &ProcessEnv, b: ProgramBuilder, req: &DmaRequest) -> ProgramBuilder {
    emit(env, b, req, false)
}

fn emit(
    env: &ProcessEnv,
    mut b: ProgramBuilder,
    req: &DmaRequest,
    retries: bool,
) -> ProgramBuilder {
    let method = if env.can_use_user_level() { env.method } else { DmaMethod::Kernel };
    let s_src = env.shadow_of(req.src).as_u64();
    let s_dst = env.shadow_of(req.dst).as_u64();
    let fixed = match method {
        DmaMethod::Kernel => [
            imm(Reg::R0, req.src.as_u64()),
            imm(Reg::R1, req.dst.as_u64()),
            imm(Reg::R2, req.size),
            Instr::Syscall { no: SYS_DMA },
        ],
        // §2.7: SHRIMP-2's two accesses inside an uninterruptible PAL call.
        DmaMethod::Pal => [
            imm(Reg::R1, s_dst),
            imm(Reg::R2, req.size),
            imm(Reg::R3, s_src),
            Instr::CallPal { index: PAL_DMA },
        ],
        // Figure 3: two keyed address stores, a size store, a status load.
        DmaMethod::KeyBased => {
            let grant = env.ctx.expect("can_use_user_level checked");
            let keyctx = regs::encode_key_ctx(grant.key, grant.ctx);
            let trigger =
                env.ctx_page_va.expect("granted ctx has a page").as_u64() + regs::CTX_SIZE_TRIGGER;
            [store(s_dst, keyctx), store(s_src, keyctx), store(trigger, req.size), load(trigger)]
        }
        // Every other method walks its protocol's row; retries branch
        // back to its first access.
        _ => {
            let row = method.protocol().sequence().expect("shadow-only method has a row");
            let (reg, size, target) = (Reg::R0, Operand::Imm(req.size), b.here().index());
            for access in row {
                let addr = Operand::Imm(if access.role == Role::Src { s_src } else { s_dst });
                b.push(match access.op {
                    Op::Store => Instr::Store { addr, src: size },
                    Op::Load => Instr::Load { dst: reg, addr },
                });
                match access.then {
                    Then::Next => {}
                    Then::Mb => b.push(Instr::Mb),
                    _ if !retries => {}
                    Then::RetryIfFailed => b.push(Instr::Beq { reg, value: DMA_FAILURE, target }),
                    Then::RetryUnlessStarted => {
                        b.push(Instr::Bne { reg, value: DMA_STARTED, target })
                    }
                }
            }
            return b;
        }
    };
    for ins in fixed {
        b.push(ins);
    }
    b
}

/// `dst ← value`.
fn imm(dst: Reg, value: u64) -> Instr {
    Instr::Imm { dst, value }
}

/// `mem64[addr] ← value`.
pub(crate) fn store(addr: u64, value: u64) -> Instr {
    Instr::Store { addr: Operand::Imm(addr), src: Operand::Imm(value) }
}

/// `r0 ← mem64[addr]`: the status load that ends an initiation.
pub(crate) fn load(addr: u64) -> Instr {
    Instr::Load { dst: Reg::R0, addr: Operand::Imm(addr) }
}

/// Appends one atomic operation to `b`; the old value (or
/// `udma_nic::DMA_FAILURE`) ends up in `r0`.
///
/// User-level atomics are supported by the key-based and extended-shadow
/// methods (which have per-process context pages); every other method
/// goes through the kernel, as §3.5's motivation assumes.
pub fn emit_atomic(env: &ProcessEnv, mut b: ProgramBuilder, req: &AtomicRequest) -> ProgramBuilder {
    // The address store carries the key and context under the key-based
    // scheme; extended shadow addressing embeds the context in the address.
    let tag = match env.method {
        _ if !env.can_use_user_level() => None,
        DmaMethod::KeyBased => {
            let grant = env.ctx.expect("can_use_user_level checked");
            Some(regs::encode_key_ctx(grant.key, grant.ctx))
        }
        DmaMethod::ExtShadow => Some(0),
        _ => None,
    };
    let seq = match tag {
        Some(tag) => {
            let page = env.ctx_page_va.expect("granted ctx has a page").as_u64();
            [
                store(env.shadow_of(req.va).as_u64(), tag),
                store(page + regs::CTX_ATOMIC_OPERAND1, req.operand1),
                store(page + regs::CTX_ATOMIC_OPERAND2, req.operand2),
                store(page + regs::CTX_ATOMIC_CMD, req.op.code()),
                load(page + regs::CTX_ATOMIC_CMD),
            ]
        }
        None => [
            imm(Reg::R0, req.va.as_u64()),
            imm(Reg::R1, req.op.code()),
            imm(Reg::R2, req.operand1),
            imm(Reg::R3, req.operand2),
            Instr::Syscall { no: SYS_ATOMIC },
        ],
    };
    for ins in seq {
        b.push(ins);
    }
    b
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emit_virt_dma, Machine, MachineConfig, ProcessSpec, VirtDmaSetup};

    /// The by-value builder chains the emitters append in place, written
    /// out call by call after a one-instruction prefix (so that loops
    /// branch to a non-zero head).
    fn chained_dma(env: &ProcessEnv, req: &DmaRequest, retries: bool) -> Vec<Instr> {
        let b = ProgramBuilder::new().mb();
        let method = if env.can_use_user_level() { env.method } else { DmaMethod::Kernel };
        let s_src = env.shadow_of(req.src).as_u64();
        let s_dst = env.shadow_of(req.dst).as_u64();
        let b = match method {
            DmaMethod::Kernel => b
                .imm(Reg::R0, req.src.as_u64())
                .imm(Reg::R1, req.dst.as_u64())
                .imm(Reg::R2, req.size)
                .syscall(SYS_DMA),
            DmaMethod::Pal => {
                b.imm(Reg::R1, s_dst).imm(Reg::R2, req.size).imm(Reg::R3, s_src).call_pal(PAL_DMA)
            }
            DmaMethod::KeyBased => {
                let grant = env.ctx.unwrap();
                let keyctx = regs::encode_key_ctx(grant.key, grant.ctx);
                let page = env.ctx_page_va.unwrap().as_u64();
                b.store(s_dst, keyctx)
                    .store(s_src, keyctx)
                    .store(page + regs::CTX_SIZE_TRIGGER, req.size)
                    .load(Reg::R0, page + regs::CTX_SIZE_TRIGGER)
            }
            _ => {
                let head = b.here();
                let mut b = b;
                for access in method.protocol().sequence().unwrap() {
                    let addr = if access.role == Role::Src { s_src } else { s_dst };
                    b = match access.op {
                        Op::Store => b.store(addr, req.size),
                        Op::Load => b.load(Reg::R0, addr),
                    };
                    b = match access.then {
                        Then::Next => b,
                        Then::Mb => b.mb(),
                        _ if !retries => b,
                        Then::RetryIfFailed => b.beq(Reg::R0, DMA_FAILURE, head),
                        Then::RetryUnlessStarted => b.bne(Reg::R0, DMA_STARTED, head),
                    };
                }
                b
            }
        };
        b.build().instrs().to_vec()
    }

    fn chained_atomic(env: &ProcessEnv, req: &AtomicRequest) -> Vec<Instr> {
        let b = ProgramBuilder::new().mb();
        let tag = match env.method {
            DmaMethod::KeyBased => env.ctx.map(|g| regs::encode_key_ctx(g.key, g.ctx)),
            DmaMethod::ExtShadow => env.ctx.map(|_| 0),
            _ => None,
        };
        let b = match tag {
            Some(tag) => {
                let page = env.ctx_page_va.unwrap().as_u64();
                b.store(env.shadow_of(req.va).as_u64(), tag)
                    .store(page + regs::CTX_ATOMIC_OPERAND1, req.operand1)
                    .store(page + regs::CTX_ATOMIC_OPERAND2, req.operand2)
                    .store(page + regs::CTX_ATOMIC_CMD, req.op.code())
                    .load(Reg::R0, page + regs::CTX_ATOMIC_CMD)
            }
            None => b
                .imm(Reg::R0, req.va.as_u64())
                .imm(Reg::R1, req.op.code())
                .imm(Reg::R2, req.operand1)
                .imm(Reg::R3, req.operand2)
                .syscall(SYS_ATOMIC),
        };
        b.build().instrs().to_vec()
    }

    /// Runs `check` on the environment of a fresh two-buffer process of
    /// `config`, with or without the register context it would get.
    fn with_env(config: MachineConfig, want_ctx: Option<bool>, check: impl FnOnce(&ProcessEnv)) {
        let spec = ProcessSpec { want_ctx, ..ProcessSpec::two_buffers_of(1) };
        Machine::new(config).spawn(&spec, |env| {
            check(env);
            ProgramBuilder::new().halt().build()
        });
    }

    /// Every method's initiation, with and without retry loops, and its
    /// kernel fallback when refused a context, is the instruction vector
    /// of the by-value chain.
    #[test]
    fn in_place_emitters_match_the_by_value_chains() {
        let methods = DmaMethod::ALL.into_iter().chain([
            DmaMethod::Shrimp2 { patched_kernel: false },
            DmaMethod::Flash { patched_kernel: false },
        ]);
        for method in methods {
            for want_ctx in [None, Some(false)] {
                with_env(MachineConfig::new(method), want_ctx, |env| {
                    let req = DmaRequest::new(env.addr_in(0, 8), env.addr_in(1, 16), 64);
                    let once = emit_dma_once(env, ProgramBuilder::new().mb(), &req);
                    assert_eq!(once.build().instrs(), chained_dma(env, &req, false), "{method:?}");
                    let full = emit_dma(env, ProgramBuilder::new().mb(), &req, &mut 0);
                    assert_eq!(full.build().instrs(), chained_dma(env, &req, true), "{method:?}");
                    let req = AtomicRequest {
                        va: env.addr_in(0, 24),
                        op: AtomicOp::CompareSwap,
                        operand1: 3,
                        operand2: 5,
                    };
                    let atomic = emit_atomic(env, ProgramBuilder::new().mb(), &req);
                    assert_eq!(atomic.build().instrs(), chained_atomic(env, &req), "{method:?}");
                });
            }
        }
        let config = MachineConfig {
            virt_dma: Some(VirtDmaSetup::default()),
            ..MachineConfig::new(DmaMethod::Kernel)
        };
        with_env(config, None, |env| {
            let (src, dst) = (env.buffer(0).va, env.buffer(1).va);
            let page = env.ctx_page_va.unwrap().as_u64();
            let chained = ProgramBuilder::new()
                .mb()
                .store(page + regs::CTX_VIRT_SRC, src.as_u64())
                .store(page + regs::CTX_VIRT_DST, dst.as_u64())
                .store(page + regs::CTX_VIRT_GO, 4096u64)
                .load(Reg::R0, page + regs::CTX_VIRT_GO)
                .build();
            let virt = emit_virt_dma(env, ProgramBuilder::new().mb(), src, dst, 4096);
            assert_eq!(virt.build().instrs(), chained.instrs());
        });
    }
}
