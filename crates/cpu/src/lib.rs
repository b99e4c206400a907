//! CPU substrate: a small deterministic multi-process processor model.
//!
//! The paper's protocols are sequences of a handful of loads, stores and
//! memory barriers whose *atomicity under preemption* is the entire
//! question. This crate therefore models exactly what matters:
//!
//! * a tiny register machine ([`Instr`], [`Program`]) rich enough to
//!   express every initiation sequence in the paper, including the
//!   retry loops of Figure 7 and arbitrary adversary code;
//! * [`Process`]es with their own page tables and registers;
//! * an [`Executor`] that runs processes one instruction at a time through
//!   a TLB and a write buffer onto the bus, charging a calibrated
//!   [`CostModel`] ([`CostModel::alpha_3000_300`] reproduces the paper's
//!   DEC Alpha 3000/300 host);
//! * pluggable [`Scheduler`]s — crucially [`FixedSchedule`], which lets
//!   the interleaving explorer (`udma_testkit::sched::interleavings`)
//!   enumerate *every* possible preemption pattern of an attack scenario
//!   instead of hoping a timer hits the window;
//! * Alpha-style **PAL mode**: [`Executor::install_pal`] registers an
//!   uninterruptible instruction sequence that any process may invoke
//!   with [`Instr::CallPal`] (§2.7 of the paper);
//! * a [`TrapHandler`] trait through which the model OS (the `udma-os`
//!   crate) receives syscalls and context-switch notifications.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cost;
mod executor;
mod instr;
mod process;
mod program;
mod sched;
mod trap;

pub use cost::CostModel;
pub use executor::{ExecStats, Executor, RunOutcome};
pub use instr::{Instr, Operand, Reg};
pub use process::{Pid, ProcState, Process};
pub use program::{Label, Program, ProgramBuilder};
pub use sched::{FixedSchedule, RandomPreempt, RoundRobin, RunToCompletion, Scheduler};
pub use trap::{NullTrapHandler, SwitchReason, TrapHandler, TrapOutcome};
