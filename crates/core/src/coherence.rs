//! Machine-level cache coherence: what shadow-addressed DMA really costs
//! on a cached host.
//!
//! The paper's testbed dodges the question ("successive DMA operations
//! were done to(from) different addresses, so as to eliminate any caching
//! effects", §3.4). This module puts it back, in two config-gated modes
//! on [`MachineConfig`](crate::MachineConfig):
//!
//! * [`CoherenceMode::NonCoherent`] — the engine bypasses the CPU cache.
//!   Software must [`flush_range`](crate::Machine::flush_range) the
//!   source before a from-memory post and
//!   [`invalidate_range`](crate::Machine::invalidate_range) the
//!   destination after a to-memory completion; both are charged per line
//!   on the hot path, so the initiation cost grows with the buffer
//!   footprint — the Table-1 costs stop being size-independent.
//! * [`CoherenceMode::Coherent`] — the NI snoops the coherence bus: its
//!   reads pull Modified lines via intervention, its writes invalidate
//!   sharers. The cost is per *touched* line, charged on the wire.
//!
//! [`Machine::post_dma_coherence_aware`](crate::Machine::post_dma_coherence_aware)
//! runs the correct protocol for the configured mode and itemises where
//! the time went in a [`CoherentPostReport`].

use crate::Machine;
use udma_bus::{CacheConfig, CoherenceStats, CoherenceTiming, SharedCoherence, SimTime};
use udma_mem::PhysAddr;
use udma_nic::{Initiator, RejectReason, TransferRecord};

/// How DMA and the CPU cache relate on this machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoherenceMode {
    /// The pre-coherence model: memory is flat, the data cache is
    /// timing-only, DMA is coherent by construction and pays nothing.
    #[default]
    Flat,
    /// The CPU cache carries real data; the engine bypasses it. Correct
    /// DMA requires software flush/invalidate around every transfer —
    /// skipping the flush observably moves stale bytes.
    NonCoherent,
    /// The CPU cache carries real data; the engine snoops the bus, so
    /// transfers are always correct and pay per-touched-line snoop time.
    Coherent,
}

/// Coherence configuration on [`MachineConfig`](crate::MachineConfig).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceSetup {
    /// The mode (default [`CoherenceMode::Flat`]: exactly the machine
    /// the paper built).
    pub mode: CoherenceMode,
    /// Snoop-bus and software-loop latency constants.
    pub timing: CoherenceTiming,
}

impl CoherenceSetup {
    /// The flat (paper-testbed) machine.
    pub fn flat() -> Self {
        CoherenceSetup::default()
    }

    /// Non-coherent DMA with default timing.
    pub fn non_coherent() -> Self {
        CoherenceSetup { mode: CoherenceMode::NonCoherent, timing: CoherenceTiming::default() }
    }

    /// Snooping (coherent) DMA with default timing.
    pub fn coherent() -> Self {
        CoherenceSetup { mode: CoherenceMode::Coherent, timing: CoherenceTiming::default() }
    }
}

/// Where the time of one coherence-aware DMA post went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoherentPostReport {
    /// The mode the post ran under.
    pub mode: CoherenceMode,
    /// Software cost charged before the engine started (the source
    /// flush loop in non-coherent mode; zero otherwise).
    pub initiation_extra: SimTime,
    /// Software cost charged at completion (the destination invalidate
    /// loop in non-coherent mode; zero otherwise).
    pub completion_extra: SimTime,
    /// Snoop time the engine's own reads/writes paid (coherent mode;
    /// zero otherwise).
    pub snoop_extra: SimTime,
    /// Lines swept by the source flush loop.
    pub flush_lines: u64,
    /// Dirty lines the flush actually wrote back.
    pub flush_dirty: u64,
    /// Lines swept by the destination invalidate loop.
    pub invalidate_lines: u64,
    /// Modified lines the engine pulled via intervention.
    pub interventions: u64,
    /// The mover's record of the transfer.
    pub record: TransferRecord,
}

impl CoherentPostReport {
    /// Everything coherence added on top of the flat-machine post.
    pub fn total_extra(&self) -> SimTime {
        self.initiation_extra + self.completion_extra + self.snoop_extra
    }
}

impl Machine {
    /// The coherence domain, when the machine runs in a non-`Flat` mode.
    pub fn coherence(&self) -> Option<SharedCoherence> {
        self.coherence_domain()
    }

    /// Snoop-bus counters (zeroes in `Flat` mode).
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.coherence_domain().map(|d| d.borrow().stats()).unwrap_or_default()
    }

    /// The MESI safety invariants over every cache in the domain
    /// (trivially holds in `Flat` mode).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn check_coherence_invariants(&self) -> Result<(), String> {
        match self.coherence_domain() {
            Some(d) => d.borrow().check_invariants(),
            None => Ok(()),
        }
    }

    /// Software flush (writeback + invalidate) of `[pa, pa + len)` from
    /// the CPU cache, charged per line against simulation time — what
    /// the OS/user library must run before a non-coherent DMA reads the
    /// range. Returns `(lines_swept, dirty_lines, time_charged)`; a
    /// no-op returning zeroes in `Flat` mode.
    pub fn flush_range(&mut self, pa: PhysAddr, len: u64) -> (u64, u64, SimTime) {
        let Some((domain, agent)) = self.cpu_coherence() else {
            return (0, 0, SimTime::ZERO);
        };
        let (lines, dirty, time) = domain.borrow_mut().flush_range(agent, pa, len);
        self.advance_time(time);
        (lines, dirty, time)
    }

    /// Software invalidate (discard) of `[pa, pa + len)` from the CPU
    /// cache, charged per line against simulation time — what must run
    /// after a non-coherent DMA wrote the range. Returns
    /// `(lines_swept, time_charged)`; a no-op in `Flat` mode.
    pub fn invalidate_range(&mut self, pa: PhysAddr, len: u64) -> (u64, SimTime) {
        let Some((domain, agent)) = self.cpu_coherence() else {
            return (0, SimTime::ZERO);
        };
        let (lines, time) = domain.borrow_mut().invalidate_range(agent, pa, len);
        self.advance_time(time);
        (lines, time)
    }

    /// Writes every Modified line back to memory, leaving caches clean.
    /// Test/inspection surface (not charged): after this, the flat
    /// memory image is authoritative. No-op in `Flat` mode.
    pub fn cache_sync(&mut self) {
        if let Some(domain) = self.coherence_domain() {
            domain.borrow_mut().sync();
        }
    }

    /// Posts a kernel-validated physical DMA the *correct* way for the
    /// configured [`CoherenceMode`], charging every coherence cost where
    /// it belongs:
    ///
    /// * `Flat` — post; nothing else to do.
    /// * `NonCoherent` — flush the source range (per line, on the
    ///   initiation path), post, invalidate the destination range (per
    ///   line, on the completion path).
    /// * `Coherent` — post; the engine's snoops price themselves into
    ///   the transfer.
    ///
    /// # Errors
    ///
    /// The [`RejectReason`] when the engine refused the transfer (range
    /// errors; a refused transfer charges no flush/invalidate beyond the
    /// source flush already performed).
    pub fn post_dma_coherence_aware(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        size: u64,
    ) -> Result<CoherentPostReport, RejectReason> {
        let mode = self.config().coherence.mode;
        let before: CoherenceStats = self.coherence_stats();
        let (initiation_extra, flush_lines, flush_dirty) = match mode {
            CoherenceMode::NonCoherent => {
                let (lines, dirty, t) = self.flush_range(src, size);
                (t, lines, dirty)
            }
            _ => (SimTime::ZERO, 0, 0),
        };
        let now = self.time();
        let (idx, _) = self.engine().core_mut().launch_checked(
            src,
            dst,
            size,
            Initiator::Kernel,
            true,
            now,
        )?;
        let record = self.engine().core().mover().records()[idx];
        let (completion_extra, invalidate_lines) = match mode {
            CoherenceMode::NonCoherent => {
                let (lines, t) = self.invalidate_range(dst, size);
                (t, lines)
            }
            _ => (SimTime::ZERO, 0),
        };
        let after = self.coherence_stats();
        let snoop_extra = match mode {
            // The engine folded its snoop time into the record; recover
            // it as the wire time beyond the link model's.
            CoherenceMode::Coherent => (record.finished - record.started)
                .saturating_sub(self.config().link.transfer_time(size)),
            _ => SimTime::ZERO,
        };
        Ok(CoherentPostReport {
            mode,
            initiation_extra,
            completion_extra,
            snoop_extra,
            flush_lines,
            flush_dirty,
            invalidate_lines,
            interventions: after.interventions - before.interventions,
            record,
        })
    }

    /// The geometry the CPU coherence agent runs with (the machine's
    /// cache config), when a domain exists.
    pub fn coherent_cache_config(&self) -> Option<CacheConfig> {
        let (domain, agent) = self.cpu_coherence()?;
        let cfg = domain.borrow().cache(agent).config();
        Some(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DmaMethod, MachineConfig, ProcessSpec};
    use udma_cpu::ProgramBuilder;

    fn machine(setup: CoherenceSetup) -> Machine {
        Machine::new(MachineConfig { coherence: setup, ..MachineConfig::new(DmaMethod::Kernel) })
    }

    fn spawn_idle(m: &mut Machine) -> udma_cpu::Pid {
        m.spawn(&ProcessSpec::two_buffers(), |_| ProgramBuilder::new().halt().build())
    }

    #[test]
    fn flat_machine_has_no_domain_and_noop_surface() {
        let mut m = machine(CoherenceSetup::flat());
        assert!(m.coherence().is_none());
        assert_eq!(m.flush_range(PhysAddr::new(0), 4096), (0, 0, SimTime::ZERO));
        assert_eq!(m.invalidate_range(PhysAddr::new(0), 4096), (0, SimTime::ZERO));
        assert_eq!(m.coherence_stats(), CoherenceStats::default());
        m.check_coherence_invariants().unwrap();
    }

    #[test]
    fn noncoherent_post_charges_per_line_flush_and_invalidate() {
        let mut m = machine(CoherenceSetup::non_coherent());
        let pid = spawn_idle(&mut m);
        let (src, dst) = {
            let env = m.env(pid);
            (env.buffer(0).first_frame.base(), env.buffer(1).first_frame.base())
        };
        let size = 4096u64;
        let report = m.post_dma_coherence_aware(src, dst, size).unwrap();
        assert_eq!(report.mode, CoherenceMode::NonCoherent);
        let lines = size / 32;
        assert_eq!(report.flush_lines, lines);
        assert_eq!(report.invalidate_lines, lines);
        let t = m.config().coherence.timing;
        assert_eq!(report.initiation_extra, SimTime::from_ps(lines * t.flush_line.as_ps()));
        assert_eq!(report.completion_extra, SimTime::from_ps(lines * t.invalidate_line.as_ps()));
        assert_eq!(report.snoop_extra, SimTime::ZERO);
        // The software loops advanced the machine clock.
        assert!(m.time() >= report.initiation_extra + report.completion_extra);
    }

    #[test]
    fn coherent_post_pays_nothing_with_clean_caches() {
        let mut m = machine(CoherenceSetup::coherent());
        let pid = spawn_idle(&mut m);
        let (src, dst) = {
            let env = m.env(pid);
            (env.buffer(0).first_frame.base(), env.buffer(1).first_frame.base())
        };
        let report = m.post_dma_coherence_aware(src, dst, 4096).unwrap();
        assert_eq!(report.total_extra(), SimTime::ZERO, "nothing cached → nothing to snoop");
        assert_eq!(report.interventions, 0);
    }

    #[test]
    fn coherent_post_intervenes_per_dirty_line() {
        let mut m = machine(CoherenceSetup::coherent());
        let pid = spawn_idle(&mut m);
        let (src, dst) = {
            let env = m.env(pid);
            (env.buffer(0).first_frame.base(), env.buffer(1).first_frame.base())
        };
        // Dirty 3 source lines in the CPU cache only.
        let (domain, agent) = {
            let d = m.coherence().unwrap();
            let a = m.executor().coherence().unwrap().1;
            (d, a)
        };
        for i in 0..3u64 {
            domain
                .borrow_mut()
                .agent_write(agent, PhysAddr::new(src.as_u64() + i * 32), &[0xA5u8; 8])
                .unwrap();
        }
        let report = m.post_dma_coherence_aware(src, dst, 4096).unwrap();
        assert_eq!(report.interventions, 3, "one intervention per touched dirty line");
        let t = m.config().coherence.timing;
        assert!(report.snoop_extra >= SimTime::from_ps(3 * t.intervention.as_ps()));
        // The DMA moved the cached (fresh) bytes, not the stale memory.
        let mut b = [0u8; 8];
        m.memory().borrow().read_bytes(dst, &mut b).unwrap();
        assert_eq!(b, [0xA5u8; 8]);
        m.check_coherence_invariants().unwrap();
    }

    #[test]
    fn rejected_post_reports_reason() {
        let mut m = machine(CoherenceSetup::non_coherent());
        let err = m.post_dma_coherence_aware(PhysAddr::new(0), PhysAddr::new(64), 0).unwrap_err();
        assert_eq!(err, RejectReason::ZeroSize);
    }
}
