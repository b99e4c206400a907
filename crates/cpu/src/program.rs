//! Programs and their builder.
//!
//! A [`ProgramBuilder`] appends instructions in order. A branch names its
//! target by position: [`ProgramBuilder::here`] returns the [`Label`] of
//! the next instruction to be appended, so a loop takes its head before
//! emitting the body and branches back to it. Every target is known when
//! its branch is emitted, so building resolves nothing and allocates
//! only the instruction vector.

use crate::{Instr, Operand, Reg};
use std::fmt;

/// An immutable instruction sequence.
///
/// Build one with [`ProgramBuilder`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Creates a program directly from instructions (branch targets must
    /// be in range).
    ///
    /// # Panics
    ///
    /// Panics if any branch target is out of range.
    pub fn from_instrs(instrs: Vec<Instr>) -> Self {
        for (i, ins) in instrs.iter().enumerate() {
            if let Instr::Beq { target, .. } | Instr::Bne { target, .. } | Instr::Jmp { target } =
                ins
            {
                assert!(
                    *target <= instrs.len(),
                    "instruction {i}: branch target {target} out of range"
                );
            }
        }
        Program { instrs }
    }

    /// The instruction at `pc`, or `None` past the end (which halts the
    /// process).
    pub fn fetch(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The raw instruction slice.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Concatenates two programs, rebasing the second one's branch
    /// targets. Useful for prefixing setup code to a protocol sequence.
    pub fn concat(&self, other: &Program) -> Program {
        let base = self.instrs.len();
        let mut out = self.instrs.clone();
        // Drop a trailing Halt of the first program so control falls
        // through into the second.
        if out.last() == Some(&Instr::Halt) {
            out.pop();
        }
        let base = if out.len() < base { out.len() } else { base };
        let rebased = other.instrs.iter().map(|ins| match *ins {
            Instr::Beq { reg, value, target } => Instr::Beq { reg, value, target: target + base },
            Instr::Bne { reg, value, target } => Instr::Bne { reg, value, target: target + base },
            Instr::Jmp { target } => Instr::Jmp { target: target + base },
            other => other,
        });
        out.extend(rebased);
        Program { instrs: out }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ins) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:4}: {ins}")?;
        }
        Ok(())
    }
}

/// A branch target: the index of an instruction in the program being
/// built.
///
/// Only [`ProgramBuilder::here`] makes one, so a label names a position
/// the builder has already reached: a loop head, or the end of the
/// program so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Label(usize);

impl Label {
    /// The index of the instruction it names: a raw branch's `target`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Builds a [`Program`] with a fluent interface.
///
/// ```
/// use udma_cpu::{ProgramBuilder, Reg};
///
/// // Figure-7-style retry loop skeleton: retry while r0 == 0.
/// let b = ProgramBuilder::new();
/// let retry = b.here();
/// let prog = b.load(Reg::R0, 0x1000u64).beq(Reg::R0, 0, retry).halt().build();
/// assert_eq!(prog.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The label of the next instruction to be appended.
    pub fn here(&self) -> Label {
        Label(self.instrs.len())
    }

    /// `dst ← value`.
    pub fn imm(mut self, dst: Reg, value: u64) -> Self {
        self.instrs.push(Instr::Imm { dst, value });
        self
    }

    /// `dst ← src + imm`.
    pub fn add_imm(mut self, dst: Reg, src: Reg, imm: i64) -> Self {
        self.instrs.push(Instr::AddImm { dst, src, imm });
        self
    }

    /// `dst ← a + b`.
    pub fn add(mut self, dst: Reg, a: Reg, b: Reg) -> Self {
        self.instrs.push(Instr::Add { dst, a, b });
        self
    }

    /// `dst ← mem64[addr]`.
    pub fn load(mut self, dst: Reg, addr: impl Into<Operand>) -> Self {
        self.instrs.push(Instr::Load { dst, addr: addr.into() });
        self
    }

    /// `mem64[addr] ← src`.
    pub fn store(mut self, addr: impl Into<Operand>, src: impl Into<Operand>) -> Self {
        self.instrs.push(Instr::Store { addr: addr.into(), src: src.into() });
        self
    }

    /// Memory barrier.
    pub fn mb(mut self) -> Self {
        self.instrs.push(Instr::Mb);
        self
    }

    /// Burn CPU cycles.
    pub fn compute(mut self, cycles: u32) -> Self {
        self.instrs.push(Instr::Compute { cycles });
        self
    }

    /// Branch to `to` if `reg == value`.
    pub fn beq(mut self, reg: Reg, value: u64, to: Label) -> Self {
        self.instrs.push(Instr::Beq { reg, value, target: to.0 });
        self
    }

    /// Branch to `to` if `reg != value`.
    pub fn bne(mut self, reg: Reg, value: u64, to: Label) -> Self {
        self.instrs.push(Instr::Bne { reg, value, target: to.0 });
        self
    }

    /// Unconditional jump to `to`.
    pub fn jmp(mut self, to: Label) -> Self {
        self.instrs.push(Instr::Jmp { target: to.0 });
        self
    }

    /// Trap into the kernel.
    pub fn syscall(mut self, no: u16) -> Self {
        self.instrs.push(Instr::Syscall { no });
        self
    }

    /// Invoke PAL function `index`.
    pub fn call_pal(mut self, index: u16) -> Self {
        self.instrs.push(Instr::CallPal { index });
        self
    }

    /// Stop the process.
    pub fn halt(mut self) -> Self {
        self.instrs.push(Instr::Halt);
        self
    }

    /// Appends a raw instruction in place. A loop that appends a
    /// data-driven sequence uses this: moving the builder through a
    /// by-value call per instruction costs more than the push.
    #[inline]
    pub fn push(&mut self, ins: Instr) {
        self.instrs.push(ins);
    }

    /// Appends a raw instruction.
    pub fn raw(mut self, ins: Instr) -> Self {
        self.instrs.push(ins);
        self
    }

    /// Produces the program.
    ///
    /// # Panics
    ///
    /// Panics if a [`raw`](Self::raw) or [`push`](Self::push) branch, or
    /// a label taken from another builder, targets past the end.
    pub fn build(self) -> Program {
        Program::from_instrs(self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branches_target_the_labelled_position() {
        let b = ProgramBuilder::new().imm(Reg::R0, 1);
        let top = b.here();
        let p = b.imm(Reg::R1, 2).beq(Reg::R0, 0, top).bne(Reg::R1, 0, top).jmp(top).halt().build();
        assert_eq!(p.len(), 6);
        assert_eq!(p.instrs()[2], Instr::Beq { reg: Reg::R0, value: 0, target: 1 });
        assert_eq!(p.instrs()[3], Instr::Bne { reg: Reg::R1, value: 0, target: 1 });
        assert_eq!(p.instrs()[4], Instr::Jmp { target: 1 });
    }

    #[test]
    fn push_appends_what_the_by_value_calls_append() {
        let b = ProgramBuilder::new().mb();
        let top = b.here();
        let by_value = b.load(Reg::R0, 8u64).beq(Reg::R0, 0, top).build();
        let mut b = ProgramBuilder::new().mb();
        let target = b.here().index();
        b.push(Instr::Load { dst: Reg::R0, addr: Operand::Imm(8) });
        b.push(Instr::Beq { reg: Reg::R0, value: 0, target });
        assert_eq!(b.build().instrs(), by_value.instrs());
    }

    #[test]
    fn a_label_may_name_its_own_branch() {
        let b = ProgramBuilder::new().mb();
        let spin = b.here();
        let p = b.jmp(spin).build();
        assert_eq!(p.instrs()[1], Instr::Jmp { target: 1 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_instrs_validates_targets() {
        let _ = Program::from_instrs(vec![Instr::Jmp { target: 5 }]);
    }

    #[test]
    fn concat_rebases_targets_and_drops_halt() {
        let a = ProgramBuilder::new().imm(Reg::R0, 1).halt().build();
        let b = ProgramBuilder::new();
        let top = b.here();
        let b = b.imm(Reg::R1, 2).jmp(top).build();
        let c = a.concat(&b);
        assert_eq!(c.len(), 3); // halt dropped
        assert_eq!(c.instrs()[2], Instr::Jmp { target: 1 });
    }

    #[test]
    fn display_lists_instructions() {
        let p = ProgramBuilder::new().mb().halt().build();
        let s = p.to_string();
        assert!(s.contains("0: mb"));
        assert!(s.contains("1: halt"));
    }

    #[test]
    fn fetch_past_end_is_none() {
        let p = ProgramBuilder::new().halt().build();
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
    }
}
