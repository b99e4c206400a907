//! Differential property tests: the executor against an independent
//! reference interpreter, over random terminating programs.

use udma_testkit::prop::{any, vec, Just, Strategy};
use udma_testkit::{one_of, prop_assert, prop_assert_eq, props};

use udma_bus::{Bus, BusTiming, MemPort, NoNic, WriteBufferPolicy};
use udma_cpu::{
    CostModel, Executor, Instr, NullTrapHandler, Operand, Program, Reg, RunToCompletion,
};
use udma_mem::{FrameAllocator, PageTable, Perms, PhysLayout, PhysMemory, VirtPage, PAGE_SIZE};

/// Register-and-memory reference interpreter (no timing, no devices).
fn reference_run(prog: &[Instr], max_steps: usize) -> ([u64; 16], Vec<u64>) {
    let mut regs = [0u64; 16];
    let mut mem = vec![0u64; (PAGE_SIZE / 8) as usize]; // one data page
    let mut pc = 0usize;
    let mut steps = 0;
    while pc < prog.len() && steps < max_steps {
        steps += 1;
        match prog[pc] {
            Instr::Imm { dst, value } => regs[dst.index()] = value,
            Instr::AddImm { dst, src, imm } => {
                regs[dst.index()] = regs[src.index()].wrapping_add(imm as u64)
            }
            Instr::Add { dst, a, b } => {
                regs[dst.index()] = regs[a.index()].wrapping_add(regs[b.index()])
            }
            Instr::Load { dst, addr } => {
                let va = match addr {
                    Operand::Imm(v) => v,
                    Operand::Reg(r) => regs[r.index()],
                };
                regs[dst.index()] = mem[((va % PAGE_SIZE) / 8) as usize];
            }
            Instr::Store { addr, src } => {
                let va = match addr {
                    Operand::Imm(v) => v,
                    Operand::Reg(r) => regs[r.index()],
                };
                let v = match src {
                    Operand::Imm(v) => v,
                    Operand::Reg(r) => regs[r.index()],
                };
                mem[((va % PAGE_SIZE) / 8) as usize] = v;
            }
            Instr::Mb | Instr::Compute { .. } => {}
            Instr::Beq { reg, value, target } => {
                if regs[reg.index()] == value {
                    pc = target;
                    continue;
                }
            }
            Instr::Bne { reg, value, target } => {
                if regs[reg.index()] != value {
                    pc = target;
                    continue;
                }
            }
            Instr::Jmp { target } => {
                pc = target;
                continue;
            }
            Instr::Syscall { .. } | Instr::CallPal { .. } => {}
            Instr::Halt => break,
        }
        pc += 1;
    }
    (regs, mem)
}

/// Random terminating instructions: register ops, loads/stores into one
/// page (word-aligned immediates), and *forward-only* branches.
fn instrs() -> impl Strategy<Value = Vec<Instr>> {
    let reg = || (0u8..8).prop_map(Reg::new);
    vec(
        one_of![
            (reg(), any::<u64>()).prop_map(|(dst, value)| Instr::Imm { dst, value }),
            (reg(), reg(), -100i64..100).prop_map(|(dst, src, imm)| Instr::AddImm {
                dst,
                src,
                imm
            }),
            (reg(), reg(), reg()).prop_map(|(dst, a, b)| Instr::Add { dst, a, b }),
            (reg(), 0u64..(PAGE_SIZE / 8))
                .prop_map(|(dst, w)| Instr::Load { dst, addr: Operand::Imm(w * 8) }),
            (0u64..(PAGE_SIZE / 8), reg()).prop_map(|(w, src)| Instr::Store {
                addr: Operand::Imm(w * 8),
                src: Operand::Reg(src)
            }),
            Just(Instr::Mb),
            (1u32..50).prop_map(|cycles| Instr::Compute { cycles }),
            // Forward branches only (skip 1–4 instructions): termination
            // is structural.
            (reg(), 0u64..4, 1usize..5).prop_map(|(r, value, skip)| Instr::Beq {
                reg: r,
                value,
                target: usize::MAX - skip
            }),
            (reg(), 0u64..4, 1usize..5).prop_map(|(r, value, skip)| Instr::Bne {
                reg: r,
                value,
                target: usize::MAX - skip
            }),
        ],
        0..40,
    )
    .prop_map(|mut v| {
        // Resolve the encoded "skip" into absolute forward targets.
        let len = v.len();
        for (i, ins) in v.iter_mut().enumerate() {
            if let Instr::Beq { target, .. } | Instr::Bne { target, .. } = ins {
                let skip = usize::MAX - *target;
                *target = (i + skip).min(len);
            }
        }
        v
    })
}

fn machine() -> (Executor, Bus<NoNic>, PageTable) {
    let layout = PhysLayout::default();
    let mem = MemPort::flat(PhysMemory::new(layout.ram_size));
    let bus = Bus::new(layout, mem, BusTiming::turbochannel(), NoNic);
    let mut pt = PageTable::new();
    let mut alloc = FrameAllocator::with_range(1, 16);
    pt.map(VirtPage::new(0), alloc.alloc().unwrap(), Perms::READ_WRITE).unwrap();
    (Executor::new(CostModel::alpha_3000_300(), WriteBufferPolicy::default()), bus, pt)
}

props! {
    config(cases = 256);

    /// For any terminating straight-line-with-forward-branches program,
    /// the executor's architectural state (registers + the data page)
    /// matches the reference interpreter exactly — independent of the
    /// write buffer, cache and TLB machinery in between.
    fn executor_matches_reference_interpreter(body in instrs()) {
        let (expect_regs, expect_mem) = reference_run(&body, 10_000);

        let (mut ex, mut bus, pt) = machine();
        let frame = pt.entry(VirtPage::new(0)).unwrap().frame;
        let pid = ex.spawn(Program::from_instrs(body), pt);
        let out = ex.run(&mut RunToCompletion, &mut NullTrapHandler, &mut bus, 100_000);
        prop_assert!(out.finished, "forward branches must terminate");

        for i in 0..8u8 {
            prop_assert_eq!(
                ex.process(pid).reg(Reg::new(i)),
                expect_regs[i as usize],
                "r{} differs", i
            );
        }
        // Memory: the executor drains the write buffer at end of run, so
        // the page must match the reference word for word.
        prop_assert!(ex.write_buffer().is_empty());
        let mem = bus.port_mut().ram_mut();
        for (w, &want) in expect_mem.iter().enumerate() {
            let pa = frame.base() + (w as u64) * 8;
            let got = mem.read_u64(pa).unwrap();
            prop_assert_eq!(got, want, "word {} differs", w);
        }
    }
}
