//! The memory port: the one owner of a machine's physical memory and
//! the one place that decides whether an access snoops.
//!
//! The **CPU side** ([`cpu_read`](MemPort::cpu_read),
//! [`cpu_write`](MemPort::cpu_write)) goes through the CPU's cache: the
//! timing-only [`DataCache`] on a flat machine, the CPU's agent of the
//! data-carrying [`CoherenceDomain`] otherwise. The **engine side**
//! ([`dma_read`](MemPort::dma_read), [`dma_write`](MemPort::dma_write),
//! [`dma_copy`](MemPort::dma_copy))
//! snoops that cache only in [`CoherenceMode::Coherent`]. The `RefCell`
//! exists only to lend `&RefCell<PhysMemory>` to callers holding a
//! shared reference; every simulator path uses [`RefCell::get_mut`].

use crate::{AgentId, CacheConfig, CacheStats, CoherenceDomain, CoherenceStats, CoherenceTiming};
use crate::{DataCache, SimTime};
use std::cell::RefCell;
use udma_mem::{MemFault, PhysAddr, PhysMemory};

/// How DMA and the CPU cache relate on a machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoherenceMode {
    /// The paper's machine: memory is flat, the data cache is
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

/// The CPU's cache behind the port.
#[derive(Clone, Debug)]
enum CpuCache {
    /// Timing only: data always comes from memory.
    Flat(DataCache),
    /// The CPU is `agent` of `domain`; `snoop`: the engine snoops it.
    Mesi { domain: CoherenceDomain, agent: AgentId, snoop: bool },
}

/// A machine's physical memory behind its one port (see the module
/// docs).
#[derive(Clone, Debug)]
pub struct MemPort {
    ram: RefCell<PhysMemory>,
    cpu: CpuCache,
}

impl MemPort {
    /// A port over `ram` whose CPU cache has geometry `cache`. In a
    /// non-flat `mode` the CPU is the one agent of a domain with `timing`.
    pub fn new(
        ram: PhysMemory,
        cache: CacheConfig,
        mode: CoherenceMode,
        timing: CoherenceTiming,
    ) -> Self {
        let cpu = match mode {
            CoherenceMode::Flat => CpuCache::Flat(DataCache::new(cache)),
            mode => {
                let mut domain = CoherenceDomain::new(timing);
                let agent = domain.add_agent(cache);
                CpuCache::Mesi { domain, agent, snoop: mode == CoherenceMode::Coherent }
            }
        };
        MemPort { ram: RefCell::new(ram), cpu }
    }

    /// A flat port with the Alpha 21064's timing-only cache.
    pub fn flat(ram: PhysMemory) -> Self {
        Self::new(ram, CacheConfig::alpha_21064(), CoherenceMode::Flat, CoherenceTiming::default())
    }

    /// The memory, for seeding and inspection through `&self`.
    pub fn ram(&self) -> &RefCell<PhysMemory> {
        &self.ram
    }

    /// The memory, bypassing every cache.
    pub fn ram_mut(&mut self) -> &mut PhysMemory {
        self.ram.get_mut()
    }

    /// The coherence domain and the CPU's agent in it (non-flat only).
    pub fn coherence(&self) -> Option<(&CoherenceDomain, AgentId)> {
        match &self.cpu {
            CpuCache::Flat(_) => None,
            CpuCache::Mesi { domain, agent, .. } => Some((domain, *agent)),
        }
    }

    /// Snoop-bus counters (zeroes on a flat machine).
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.coherence().map(|(d, _)| d.stats()).unwrap_or_default()
    }

    /// The MESI safety invariants (trivially hold on a flat machine).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        match &self.cpu {
            CpuCache::Flat(_) => Ok(()),
            CpuCache::Mesi { domain, .. } => domain.check_invariants(self.ram.get_mut()),
        }
    }

    /// A CPU load of the word at `pa`: the word, whether its line hit
    /// (the caller prices hits and misses) and the coherence time on top.
    ///
    /// # Errors
    ///
    /// [`MemFault::Misaligned`], or [`MemFault::BusError`] outside RAM.
    pub fn cpu_read(&mut self, pa: PhysAddr) -> Result<(u64, bool, SimTime), MemFault> {
        let ram = self.ram.get_mut();
        match &mut self.cpu {
            CpuCache::Flat(cache) => {
                let hit = cache.access(pa);
                Ok((ram.read_u64(pa)?, hit, SimTime::ZERO))
            }
            CpuCache::Mesi { domain, agent, .. } => {
                check_aligned(pa)?;
                let mut b = [0u8; 8];
                let (hit, extra) = domain.agent_read(*agent, pa, &mut b, ram)?;
                Ok((u64::from_le_bytes(b), hit, extra))
            }
        }
    }

    /// A CPU store of `data` at `pa` (into the cache, Modified, on a
    /// cached machine). Returns the coherence time on top.
    ///
    /// # Errors
    ///
    /// As for [`cpu_read`](Self::cpu_read).
    pub fn cpu_write(&mut self, pa: PhysAddr, data: u64) -> Result<SimTime, MemFault> {
        let ram = self.ram.get_mut();
        match &mut self.cpu {
            CpuCache::Flat(_) => ram.write_u64(pa, data).map(|()| SimTime::ZERO),
            CpuCache::Mesi { domain, agent, .. } => {
                check_aligned(pa)?;
                Ok(domain.agent_write(*agent, pa, &data.to_le_bytes(), ram)?.1)
            }
        }
    }

    /// Drops the whole CPU cache, writing dirty lines back (a context
    /// switch without address-space tags). Not charged.
    pub fn cpu_flush_all(&mut self) {
        match &mut self.cpu {
            CpuCache::Flat(cache) => cache.flush_all(),
            CpuCache::Mesi { domain, agent, .. } => domain.flush_all(*agent, self.ram.get_mut()),
        }
    }

    /// The CPU cache's hit/miss counters.
    pub fn cpu_cache_stats(&self) -> CacheStats {
        match &self.cpu {
            CpuCache::Flat(cache) => cache.stats(),
            CpuCache::Mesi { domain, agent, .. } => domain.cache(*agent).stats(),
        }
    }

    /// Software flush of `[pa, pa + len)` from the CPU cache:
    /// `(lines_swept, dirty_lines, time)`, zeroes on a flat machine.
    pub fn flush_range(&mut self, pa: PhysAddr, len: u64) -> (u64, u64, SimTime) {
        match &mut self.cpu {
            CpuCache::Flat(_) => (0, 0, SimTime::ZERO),
            CpuCache::Mesi { domain, agent, .. } => {
                domain.flush_range(*agent, pa, len, self.ram.get_mut())
            }
        }
    }

    /// Software invalidate of `[pa, pa + len)` from the CPU cache:
    /// `(lines_swept, time)`, zeroes on a flat machine.
    pub fn invalidate_range(&mut self, pa: PhysAddr, len: u64) -> (u64, SimTime) {
        match &mut self.cpu {
            CpuCache::Flat(_) => (0, SimTime::ZERO),
            CpuCache::Mesi { domain, agent, .. } => domain.invalidate_range(*agent, pa, len),
        }
    }

    /// Writes every Modified line back, leaving the caches clean.
    pub fn sync(&mut self) {
        if let CpuCache::Mesi { domain, .. } = &mut self.cpu {
            domain.sync(self.ram.get_mut());
        }
    }

    /// An engine read of `buf.len()` bytes at `pa`. A coherent engine
    /// first pulls Modified lines out of the CPU cache; the snoop time
    /// is returned.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the range leaves installed memory.
    pub fn dma_read(&mut self, pa: PhysAddr, buf: &mut [u8]) -> Result<SimTime, MemFault> {
        let ram = self.ram.get_mut();
        match &mut self.cpu {
            CpuCache::Mesi { domain, snoop: true, .. } => domain.dma_read(pa, buf, ram),
            _ => ram.read_bytes(pa, buf).map(|()| SimTime::ZERO),
        }
    }

    /// An engine write of `bytes` at `pa`. A coherent engine invalidates
    /// the CPU's copies first, writing back a partially overwritten
    /// Modified line; the snoop time is returned.
    ///
    /// # Errors
    ///
    /// As for [`dma_read`](Self::dma_read).
    pub fn dma_write(&mut self, pa: PhysAddr, bytes: &[u8]) -> Result<SimTime, MemFault> {
        let ram = self.ram.get_mut();
        match &mut self.cpu {
            CpuCache::Mesi { domain, snoop: true, .. } => domain.dma_write(pa, bytes, ram),
            _ => ram.write_bytes(pa, bytes).map(|()| SimTime::ZERO),
        }
    }

    /// An engine copy of `len` bytes from `src` to `dst`, frame to frame
    /// with nothing staged. A coherent engine snoops as
    /// [`dma_read`](Self::dma_read) of the source followed by
    /// [`dma_write`](Self::dma_write) of the destination would, and
    /// returns the same snoop time; the bytes land as that pair would
    /// leave them, overlap included.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if either range leaves installed memory.
    pub fn dma_copy(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        len: u64,
    ) -> Result<SimTime, MemFault> {
        let ram = self.ram.get_mut();
        match &mut self.cpu {
            CpuCache::Mesi { domain, snoop: true, .. } => domain.dma_copy(src, dst, len, ram),
            _ => ram.copy(src, dst, len).map(|()| SimTime::ZERO),
        }
    }

    /// An engine read of the aligned word at `pa` (ring fetches,
    /// atomics); its snoop time shows only in the domain's statistics.
    ///
    /// # Errors
    ///
    /// [`MemFault::Misaligned`], or as for [`dma_read`](Self::dma_read).
    pub fn dma_read_u64(&mut self, pa: PhysAddr) -> Result<u64, MemFault> {
        check_aligned(pa)?;
        let mut b = [0u8; 8];
        self.dma_read(pa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// An engine write of the aligned word at `pa`; see
    /// [`dma_read_u64`](Self::dma_read_u64).
    ///
    /// # Errors
    ///
    /// As for [`dma_read_u64`](Self::dma_read_u64).
    pub fn dma_write_u64(&mut self, pa: PhysAddr, value: u64) -> Result<(), MemFault> {
        check_aligned(pa)?;
        self.dma_write(pa, &value.to_le_bytes()).map(drop)
    }
}

fn check_aligned(pa: PhysAddr) -> Result<(), MemFault> {
    pa.is_aligned_to(8).then_some(()).ok_or(MemFault::Misaligned { addr: pa.as_u64(), size: 8 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MesiState;

    fn port(mode: CoherenceMode) -> MemPort {
        let ram = PhysMemory::new(1 << 20);
        MemPort::new(ram, CacheConfig::alpha_21064(), mode, CoherenceTiming::default())
    }

    #[test]
    fn flat_cpu_side_reads_memory_and_times_with_the_tag_cache() {
        let mut p = port(CoherenceMode::Flat);
        assert_eq!(p.cpu_write(PhysAddr::new(0x100), 7), Ok(SimTime::ZERO));
        // Stores go straight to memory; the first load misses, the next hits.
        assert_eq!(p.ram().borrow().read_u64(PhysAddr::new(0x100)), Ok(7));
        assert_eq!(p.cpu_read(PhysAddr::new(0x100)), Ok((7, false, SimTime::ZERO)));
        assert_eq!(p.cpu_read(PhysAddr::new(0x100)), Ok((7, true, SimTime::ZERO)));
        assert_eq!(p.cpu_cache_stats().hits, 1);
        assert!(p.coherence().is_none());
        assert_eq!(p.flush_range(PhysAddr::new(0), 4096), (0, 0, SimTime::ZERO));
    }

    #[test]
    fn misaligned_and_out_of_range_words_fault_on_both_sides() {
        for mode in [CoherenceMode::Flat, CoherenceMode::NonCoherent, CoherenceMode::Coherent] {
            let mut p = port(mode);
            let odd = PhysAddr::new(0x101);
            let far = PhysAddr::new(1 << 20);
            assert!(matches!(p.cpu_read(odd), Err(MemFault::Misaligned { .. })), "{mode:?}");
            assert!(matches!(p.cpu_write(odd, 1), Err(MemFault::Misaligned { .. })), "{mode:?}");
            assert!(p.cpu_read(far).is_err(), "{mode:?}");
            assert!(matches!(p.dma_read_u64(odd), Err(MemFault::Misaligned { .. })), "{mode:?}");
            assert!(p.dma_write_u64(far, 1).is_err(), "{mode:?}");
        }
    }

    #[test]
    fn only_a_coherent_engine_snoops_the_cpu_cache() {
        let pa = PhysAddr::new(0x200);
        let cached = |mode| {
            let mut p = port(mode);
            p.cpu_write(pa, 0xFEED).unwrap();
            assert_eq!(p.ram().borrow().read_u64(pa), Ok(0), "the store sits in the cache");
            (p.dma_read_u64(pa).unwrap(), p)
        };
        // Non-coherent: the engine reads stale memory and leaves the line.
        let (stale, p) = cached(CoherenceMode::NonCoherent);
        assert_eq!(stale, 0);
        let (domain, cpu) = p.coherence().unwrap();
        assert_eq!(domain.cache(cpu).state_of(pa), MesiState::Modified);
        // Coherent: the snoop pulls the dirty line first.
        let (fresh, mut p) = cached(CoherenceMode::Coherent);
        assert_eq!(fresh, 0xFEED);
        let (domain, cpu) = p.coherence().unwrap();
        assert_eq!(domain.cache(cpu).state_of(pa), MesiState::Shared);
        assert_eq!(p.coherence_stats().interventions, 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn coherent_engine_write_survives_the_cpu_writeback() {
        let mut p = port(CoherenceMode::Coherent);
        let pa = PhysAddr::new(0x300);
        p.cpu_write(pa, 5).unwrap();
        let old = p.dma_read_u64(pa).unwrap();
        p.dma_write_u64(pa, old + 1).unwrap();
        p.sync();
        assert_eq!(p.ram().borrow().read_u64(pa), Ok(6));
        let (word, hit, _) = p.cpu_read(pa).unwrap();
        assert_eq!((word, hit), (6, false), "the engine write invalidated the CPU's copy");
    }
}
