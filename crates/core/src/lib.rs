//! **udma** — user-level DMA initiation without OS kernel modification.
//!
//! This crate is the reproduction's public API for the paper
//! *"User-Level DMA without Operating System Kernel Modification"*
//! (Markatos & Katevenis, HPCA-3, 1997). It assembles the substrates
//! (`udma-mem`, `udma-bus`, `udma-cpu`, `udma-os`, `udma-nic`) into a
//! [`Machine`] — a DEC-Alpha-3000/300-like workstation with a
//! TurboChannel NIC — and exposes:
//!
//! * [`DmaMethod`] — every initiation scheme the paper discusses, from
//!   the kernel baseline through SHRIMP/FLASH/PAL to the paper's own
//!   key-based, extended-shadow and repeated-passing protocols;
//! * initiation compilers ([`emit_dma`], [`emit_atomic`]) that turn a
//!   [`DmaRequest`] into the exact 1–5-instruction user-mode sequences of
//!   the paper (or the Figure-1 syscall for the baseline);
//! * the measurement harness ([`measure_initiation`], [`table1`]) that
//!   regenerates **Table 1**;
//! * the interleaving explorer ([`explore`]) that regenerates the
//!   **Figure 5/6 attacks** and model-checks the §3.3.1 correctness
//!   argument;
//! * the **crossover** trend analysis behind the paper's motivation
//!   ([`crossover_rows`]).
//!
//! # Quickstart
//!
//! ```
//! use udma::{DmaMethod, DmaRequest, Machine, ProcessSpec, emit_dma};
//! use udma_cpu::Reg;
//!
//! let mut m = Machine::with_method(DmaMethod::KeyBased);
//! let pid = m.spawn(&ProcessSpec::two_buffers(), |env| {
//!     let req = DmaRequest::new(env.buffer(0).va, env.buffer(1).va, 64);
//!     let mut uniq = 0;
//!     emit_dma(env, udma_cpu::ProgramBuilder::new(), &req, &mut uniq)
//!         .halt()
//!         .build()
//! });
//! m.run(10_000);
//! assert_ne!(m.reg(pid, Reg::R0), udma_nic::DMA_FAILURE);
//! assert_eq!(m.engine().core().stats().started, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod cluster;
mod coherence;
mod crossover;
mod ctx_virt;
mod initiate;
mod machine;
mod measure;
mod method;
mod report;
mod request;
mod trace_report;
mod va;

pub use attack::{
    explore, explore_bounded, explore_sampled, schedule_space, Budget, ExploreReport, Finding,
};
pub use cluster::{
    AckEffect, ClusterConfig, ClusterDigest, ClusterSim, CrashKind, CrashPlan, CrashStats,
    EventKind, HealthState, HealthStats, LaunchWire, LogLine, NackVerdict, NodeDigest,
    NodeLinkStats, PostError, XferCounters, XferDigest,
};
pub use coherence::{CoherenceMode, CoherenceSetup, CoherentPostReport};
pub use crossover::{crossover_rows, os_bound_message_size, CrossoverRow};
pub use ctx_virt::{LogicalPost, PostPath};
pub use initiate::{dma_program, emit_atomic, emit_dma, emit_dma_once, AtomicRequest};
pub use machine::{BufferSpec, Machine, MachineConfig, ProcessEnv, ProcessSpec, ShareRef, PAL_DMA};
pub use measure::{
    measure_atomic, measure_initiation, measure_initiation_with, measure_ring_initiation,
    measure_transfer_latency, table1, InitiationCost,
};
pub use method::DmaMethod;
pub use report::Table;
pub use request::DmaRequest;
pub use trace_report::device_trace_report;
pub use udma_os::SwapRefused;
pub use va::{emit_virt_dma, VaMode, VirtDmaSetup};
