//! A data-carrying MESI snooping cache model.
//!
//! [`crate::DataCache`] is timing-only: data always comes from memory,
//! so DMA is coherent by construction and a stale line
//! can cost the model nothing but time. The paper leans on that same
//! simplification ("successive DMA operations were done to(from)
//! different addresses, so as to eliminate any caching effects", §3.4).
//! Real user-level DMA on a cached host gets no such grace: either the
//! OS/user library flushes and invalidates around every transfer, or the
//! NI snoops the coherence bus. This module models both prices with real
//! line *contents*:
//!
//! * [`CoherentCache`] — one per caching agent (CPU cores; the NI never
//!   allocates), holding line data in Modified/Exclusive/Shared state;
//! * [`CoherenceDomain`] — the snoop bus over memory the caller lends
//!   to each operation: agent reads/writes broadcast
//!   BusRd/BusRdX/BusUpgrade, DMA ports snoop without allocating, and
//!   software [`flush_range`](CoherenceDomain::flush_range) /
//!   [`invalidate_range`](CoherenceDomain::invalidate_range) charge the
//!   per-line costs a non-coherent DMA path pays on the hot path.
//!
//! # Charging model
//!
//! The domain charges only the *extra* time coherence introduces —
//! interventions, invalidation broadcasts, writebacks, and the software
//! flush/invalidate loops. Base memory costs (cache-hit cycles, DRAM
//! latency, wire time) stay where they always lived: in the executor's
//! load/store path and in the DMA link model. This keeps a machine whose
//! caches never conflict byte- and cycle-identical to the flat-memory
//! machine, which the test suite pins.
//!
//! # Ordering
//!
//! Every operation is one atomic bus transaction; within a transaction
//! the order is fixed and load-bearing. In particular, a DMA write that
//! hits a line some cache holds Modified *first* retires that line's
//! writeback and *then* deposits the DMA bytes — the reverse order would
//! let the CPU's stale bytes overwrite the freshly-DMA'd ones whenever
//! the two agents share a line (the false-sharing hazard the race
//! explorer in `tests/coherence.rs` enumerates).

use crate::cache::{CacheConfig, LineCache};
use crate::SimTime;
use udma_mem::{Fill, MemFault, PhysAddr, PhysMemory};

/// Index of a caching agent within a [`CoherenceDomain`].
pub type AgentId = usize;

/// The four MESI states. A line absent from a cache is `Invalid`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MesiState {
    /// Dirty and exclusive: memory is stale, this cache owns the data.
    Modified,
    /// Clean and exclusive: matches memory, no other cache holds it.
    Exclusive,
    /// Clean, possibly held by several caches.
    Shared,
    /// Not present.
    Invalid,
}

/// Latency constants of the snoop bus (the *extra* time coherence adds;
/// see the module docs for what is charged where).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoherenceTiming {
    /// Cache-to-cache supply of a Modified line (snoop hit + writeback
    /// on the way past).
    pub intervention: SimTime,
    /// One invalidation broadcast claiming a line (BusUpgrade/BusRdX).
    pub invalidate: SimTime,
    /// Writing one dirty line back to memory (eviction, flush).
    pub writeback: SimTime,
    /// One iteration of the software flush loop (address generation +
    /// the cache-op itself), charged per line of the range.
    pub flush_line: SimTime,
    /// One iteration of the software invalidate loop.
    pub invalidate_line: SimTime,
}

impl Default for CoherenceTiming {
    /// Constants in the Alpha 3000/300 band: an intervention is a bit
    /// cheaper than the 180 ns DRAM round trip, a writeback costs one,
    /// and the software loops pay a handful of cycles per line.
    fn default() -> Self {
        CoherenceTiming {
            intervention: SimTime::from_ns(140),
            invalidate: SimTime::from_ns(60),
            writeback: SimTime::from_ns(180),
            flush_line: SimTime::from_ns(80),
            invalidate_line: SimTime::from_ns(60),
        }
    }
}

/// Counters kept by the snoop bus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// BusRd transactions (agent read misses).
    pub bus_rd: u64,
    /// BusRdX transactions (agent write misses).
    pub bus_rdx: u64,
    /// BusUpgrade transactions (Shared → Modified without a data fetch).
    pub upgrades: u64,
    /// Modified lines supplied cache-to-cache (to an agent or the DMA
    /// engine).
    pub interventions: u64,
    /// Lines invalidated in peer caches by snoops.
    pub invalidations: u64,
    /// Dirty lines written back to memory (evictions, snoops, flushes).
    pub writebacks: u64,
    /// Line-grain coherent DMA reads that snooped the bus.
    pub dma_reads: u64,
    /// Line-grain coherent DMA writes that snooped the bus.
    pub dma_writes: u64,
    /// Lines swept by software [`CoherenceDomain::flush_range`].
    pub flush_lines: u64,
    /// Lines swept by software [`CoherenceDomain::invalidate_range`].
    pub invalidate_lines: u64,
    /// Total extra time charged by the domain.
    pub snoop_time: SimTime,
}

impl CoherenceStats {
    /// Total snoop-bus transactions beyond plain memory fills.
    pub fn coherence_traffic(&self) -> u64 {
        self.upgrades + self.interventions + self.invalidations + self.writebacks
    }
}

/// A data-carrying, physically-indexed, LRU, write-back cache with MESI
/// state per line: a [`LineCache`] whose lines hold their state and
/// bytes. Geometry comes from [`CacheConfig`]; `ways == 0` is the
/// first-class miss-everything mode (no storage at all — the agent
/// behaves like an uncached master and its writes take the DMA path).
/// Hits include silent E→M upgrades.
pub type CoherentCache = LineCache<(MesiState, Box<[u8]>)>;

impl CoherentCache {
    /// The MESI state of the line containing `pa`.
    pub fn state_of(&self, pa: PhysAddr) -> MesiState {
        let line = self.line(pa.as_u64());
        self.lines.peek(line, |_| true).map_or(MesiState::Invalid, |&(state, _)| state)
    }

    /// Iterates `(line_base, state)` over every resident line.
    pub fn resident(&self) -> Vec<(u64, MesiState)> {
        let line_bytes = self.config.line_bytes;
        let mut out: Vec<_> =
            self.lines.iter().map(|(line, &(state, _))| (line * line_bytes, state)).collect();
        out.sort_unstable();
        out
    }
}

/// Writes one dirty line back to memory, counting it.
fn write_back(
    stats: &mut CoherenceStats,
    base: u64,
    data: &[u8],
    mem: &mut PhysMemory,
) -> Result<(), MemFault> {
    stats.writebacks += 1;
    mem.write_bytes(PhysAddr::new(base), data)
}

/// [`write_back`] of a resident line.
///
/// # Panics
///
/// Panics if `mem` refuses the write. A line becomes resident only by a
/// fill that read its range from `mem`, so a refusal is a bug.
#[allow(clippy::expect_used, reason = "a resident line's range was validated by its fill")]
fn write_back_resident(stats: &mut CoherenceStats, base: u64, data: &[u8], mem: &mut PhysMemory) {
    write_back(stats, base, data, mem).expect("resident line is backed");
}

/// The snoop bus: every caching agent plus the coherent DMA port. The
/// backing memory is not the domain's: every operation that reaches it
/// takes it as a parameter.
#[derive(Clone, Debug)]
pub struct CoherenceDomain {
    caches: Vec<CoherentCache>,
    timing: CoherenceTiming,
    stats: CoherenceStats,
}

impl CoherenceDomain {
    /// Creates an empty domain.
    pub fn new(timing: CoherenceTiming) -> Self {
        CoherenceDomain { caches: Vec::new(), timing, stats: CoherenceStats::default() }
    }

    /// Adds a caching agent with the given geometry, returning its id.
    pub fn add_agent(&mut self, config: CacheConfig) -> AgentId {
        self.caches.push(CoherentCache::new(config));
        self.caches.len() - 1
    }

    /// The timing constants in force.
    pub fn timing(&self) -> CoherenceTiming {
        self.timing
    }

    /// Snoop-bus counters.
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// An agent's cache (state inspection, hit/miss counters).
    ///
    /// # Panics
    ///
    /// Panics if `agent` was not added here.
    pub fn cache(&self, agent: AgentId) -> &CoherentCache {
        &self.caches[agent]
    }

    fn line_bytes_of(&self, agent: AgentId) -> u64 {
        self.caches[agent].config.line_bytes
    }

    /// The widest line in the domain (DMA snoops sweep at this grain;
    /// 32 bytes when no agent caches at all).
    fn dma_line_bytes(&self) -> u64 {
        self.caches.iter().map(|c| c.config.line_bytes).max().unwrap_or(32)
    }

    fn charge(&mut self, t: SimTime) -> SimTime {
        self.stats.snoop_time += t;
        t
    }

    /// Writes back a peer's Modified copy of `base` (if any) and leaves
    /// the supplier in `after`. Returns whether an intervention happened.
    fn snoop_flush_modified(
        &mut self,
        requester: Option<AgentId>,
        base: u64,
        after: MesiState,
        mem: &mut PhysMemory,
    ) -> Result<bool, MemFault> {
        for (i, cache) in self.caches.iter_mut().enumerate() {
            if Some(i) == requester {
                continue;
            }
            let line = cache.line(base);
            let line_base = line * cache.config.line_bytes;
            let modified = |&(state, _): &(MesiState, _)| state == MesiState::Modified;
            let Some((state, data)) = cache.lines.get(line, modified) else {
                continue;
            };
            write_back(&mut self.stats, line_base, data, mem)?;
            *state = after;
            if after == MesiState::Invalid {
                cache.lines.remove(line);
            }
            self.stats.interventions += 1;
            return Ok(true);
        }
        Ok(false)
    }

    /// Invalidates every peer copy of `base`; returns how many were
    /// dropped.
    fn snoop_invalidate(&mut self, requester: Option<AgentId>, base: u64) -> u64 {
        let mut dropped = 0;
        for (i, cache) in self.caches.iter_mut().enumerate() {
            if Some(i) != requester && cache.lines.remove(cache.line(base)).is_some() {
                dropped += 1;
            }
        }
        self.stats.invalidations += dropped;
        dropped
    }

    /// Whether any peer (not `requester`) holds `base` in a valid state.
    fn any_peer_holds(&self, requester: Option<AgentId>, base: u64) -> bool {
        self.caches
            .iter()
            .enumerate()
            .any(|(i, c)| Some(i) != requester && c.lines.peek(c.line(base), |_| true).is_some())
    }

    /// Downgrades every peer copy of `base` to Shared (BusRd snoop on
    /// clean holders).
    fn snoop_downgrade(&mut self, requester: Option<AgentId>, base: u64) {
        for (i, cache) in self.caches.iter_mut().enumerate() {
            if Some(i) == requester {
                continue;
            }
            let line = cache.line(base);
            if let Some((state, _)) = cache.lines.get(line, |_| true) {
                debug_assert_ne!(*state, MesiState::Modified, "flushed before downgrade");
                *state = MesiState::Shared;
            }
        }
    }

    /// Writes back a Modified line a fill evicted from a cache of
    /// `line_bytes`-byte lines, charging the writeback.
    fn evict_victim(
        &mut self,
        line_bytes: u64,
        fill: Fill<u64, (MesiState, Box<[u8]>)>,
        mem: &mut PhysMemory,
    ) -> Result<SimTime, MemFault> {
        match fill {
            Fill::Evicted(line, (MesiState::Modified, data)) => {
                write_back(&mut self.stats, line * line_bytes, &data, mem)?;
                Ok(self.charge(self.timing.writeback))
            }
            _ => Ok(SimTime::ZERO),
        }
    }

    /// An agent load of `buf.len()` bytes at `pa`. Returns `(hit,
    /// extra)`: whether every touched line was resident (the caller
    /// charges its base hit/miss cost from that) and the coherence time
    /// to add on top.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the range leaves installed memory.
    pub fn agent_read(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        buf: &mut [u8],
        mem: &mut PhysMemory,
    ) -> Result<(bool, SimTime), MemFault> {
        let line_bytes = self.line_bytes_of(agent);
        let mut extra = SimTime::ZERO;
        let mut all_hit = true;
        let (start, end) = (pa.as_u64(), pa.as_u64() + buf.len() as u64);
        let mut base = start & !(line_bytes - 1);
        while base < end {
            let lo = base.max(start);
            let hi = (base + line_bytes).min(end);
            let dst = &mut buf[(lo - start) as usize..(hi - start) as usize];
            let off = (lo - base) as usize;
            let cache = &mut self.caches[agent];
            let line = cache.line(base);
            if let Some((_, data)) = cache.lines.get(line, |_| true) {
                dst.copy_from_slice(&data[off..off + dst.len()]);
                cache.stats.hits += 1;
            } else {
                all_hit = false;
                cache.stats.misses += 1;
                // BusRd: a Modified peer supplies via intervention (and
                // memory is updated on the way past); clean peers
                // downgrade to Shared.
                self.stats.bus_rd += 1;
                if self.snoop_flush_modified(Some(agent), base, MesiState::Shared, mem)? {
                    extra += self.charge(self.timing.intervention);
                } else {
                    self.snoop_downgrade(Some(agent), base);
                }
                let shared = self.any_peer_holds(Some(agent), base);
                let mut data = vec![0u8; line_bytes as usize].into_boxed_slice();
                mem.read_bytes(PhysAddr::new(base), &mut data)?;
                dst.copy_from_slice(&data[off..off + dst.len()]);
                // A zero-way cache hands the line straight back, clean.
                let state = if shared { MesiState::Shared } else { MesiState::Exclusive };
                let fill = self.caches[agent].lines.fill(line, (state, data));
                extra += self.evict_victim(line_bytes, fill, mem)?;
            }
            base += line_bytes;
        }
        Ok((all_hit, extra))
    }

    /// An agent store of `bytes` at `pa`. Data lands in the cache
    /// (Modified) — memory is updated only by writebacks — except for
    /// `ways == 0` agents, which take the uncached-master path. Returns
    /// `(hit, extra)` as for [`agent_read`](Self::agent_read).
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the range leaves installed memory.
    pub fn agent_write(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        bytes: &[u8],
        mem: &mut PhysMemory,
    ) -> Result<(bool, SimTime), MemFault> {
        if self.caches[agent].config.ways == 0 {
            self.caches[agent].stats.misses += 1;
            let extra = self.dma_write_inner(pa, bytes, false, mem)?;
            return Ok((false, extra));
        }
        // Bounds-check the whole range up front so a partially-applied
        // store cannot leave a line allocated for unbacked memory.
        check_range(pa, bytes.len() as u64, mem)?;
        let line_bytes = self.line_bytes_of(agent);
        let mut extra = SimTime::ZERO;
        let mut all_hit = true;
        let (start, end) = (pa.as_u64(), pa.as_u64() + bytes.len() as u64);
        let mut base = start & !(line_bytes - 1);
        while base < end {
            let lo = base.max(start);
            let hi = (base + line_bytes).min(end);
            let src = &bytes[(lo - start) as usize..(hi - start) as usize];
            let off = (lo - base) as usize;
            let cache = &mut self.caches[agent];
            let line = cache.line(base);
            let hit = cache.lines.get(line, |_| true).map(|(state, data)| {
                data[off..off + src.len()].copy_from_slice(src);
                std::mem::replace(state, MesiState::Modified) // silent E → M
            });
            match hit {
                Some(before) => {
                    cache.stats.hits += 1;
                    if before == MesiState::Shared {
                        // BusUpgrade: claim ownership without a data fetch.
                        self.stats.upgrades += 1;
                        self.snoop_invalidate(Some(agent), base);
                        extra += self.charge(self.timing.invalidate);
                    }
                }
                None => {
                    all_hit = false;
                    cache.stats.misses += 1;
                    // BusRdX: fetch the line for ownership; a Modified
                    // peer writes back first, everyone else drops it.
                    self.stats.bus_rdx += 1;
                    if self.snoop_flush_modified(Some(agent), base, MesiState::Invalid, mem)? {
                        extra += self.charge(self.timing.intervention);
                    }
                    if self.snoop_invalidate(Some(agent), base) > 0 {
                        extra += self.charge(self.timing.invalidate);
                    }
                    let mut data = vec![0u8; line_bytes as usize].into_boxed_slice();
                    mem.read_bytes(PhysAddr::new(base), &mut data)?;
                    data[off..off + src.len()].copy_from_slice(src);
                    let fill = self.caches[agent].lines.fill(line, (MesiState::Modified, data));
                    extra += self.evict_victim(line_bytes, fill, mem)?;
                }
            }
            base += line_bytes;
        }
        Ok((all_hit, extra))
    }

    /// A coherent DMA read (the NI snooping the bus, never allocating):
    /// Modified lines are pulled via intervention — written back and
    /// downgraded to Shared — then the bytes come from memory.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the range leaves installed memory.
    pub fn dma_read(
        &mut self,
        pa: PhysAddr,
        buf: &mut [u8],
        mem: &mut PhysMemory,
    ) -> Result<SimTime, MemFault> {
        let extra = self.snoop_dma_read(pa, buf.len() as u64, mem)?;
        mem.read_bytes(pa, buf)?;
        Ok(extra)
    }

    /// A coherent DMA write: sharers are invalidated; a Modified holder
    /// of a *partially* overwritten line is written back **first** so
    /// the CPU's bytes outside the DMA range survive (see the module
    /// docs on ordering), then the DMA bytes land in memory.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the range leaves installed memory.
    pub fn dma_write(
        &mut self,
        pa: PhysAddr,
        bytes: &[u8],
        mem: &mut PhysMemory,
    ) -> Result<SimTime, MemFault> {
        self.dma_write_inner(pa, bytes, true, mem)
    }

    /// A coherent DMA copy of `len` bytes from `src` to `dst`: the
    /// snoops of [`dma_read`](Self::dma_read) over the source, then those
    /// of [`dma_write`](Self::dma_write) over the destination, then one
    /// frame-to-frame copy in memory. Time and counters are exactly what
    /// the read followed by the write would give, and so are the bytes:
    /// the source snoop leaves no line touching the source Modified, so
    /// no destination writeback can change a source byte before the copy.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if either range leaves installed memory.
    pub fn dma_copy(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        len: u64,
        mem: &mut PhysMemory,
    ) -> Result<SimTime, MemFault> {
        let read = self.snoop_dma_read(src, len, mem)?;
        check_range(src, len, mem)?;
        check_range(dst, len, mem)?;
        let write = self.snoop_dma_write(dst, len, true, mem)?;
        mem.copy(src, dst, len)?;
        Ok(read + write)
    }

    fn dma_write_inner(
        &mut self,
        pa: PhysAddr,
        bytes: &[u8],
        count_stat: bool,
        mem: &mut PhysMemory,
    ) -> Result<SimTime, MemFault> {
        check_range(pa, bytes.len() as u64, mem)?;
        let extra = self.snoop_dma_write(pa, bytes.len() as u64, count_stat, mem)?;
        mem.write_bytes(pa, bytes)?;
        Ok(extra)
    }

    /// The snoops a DMA read of `len` bytes at `pa` makes: every
    /// Modified line is written back and left Shared.
    fn snoop_dma_read(
        &mut self,
        pa: PhysAddr,
        len: u64,
        mem: &mut PhysMemory,
    ) -> Result<SimTime, MemFault> {
        let line_bytes = self.dma_line_bytes();
        let mut extra = SimTime::ZERO;
        let (start, end) = (pa.as_u64(), pa.as_u64() + len);
        let mut base = start & !(line_bytes - 1);
        while base < end {
            self.stats.dma_reads += 1;
            if self.snoop_flush_modified(None, base, MesiState::Shared, mem)? {
                extra += self.charge(self.timing.intervention);
            }
            base += line_bytes;
        }
        Ok(extra)
    }

    /// The snoops a DMA write of `len` bytes at `pa` makes: a Modified
    /// holder of a partially covered line is written back, then every
    /// copy is invalidated.
    fn snoop_dma_write(
        &mut self,
        pa: PhysAddr,
        len: u64,
        count_stat: bool,
        mem: &mut PhysMemory,
    ) -> Result<SimTime, MemFault> {
        let line_bytes = self.dma_line_bytes();
        let mut extra = SimTime::ZERO;
        let (start, end) = (pa.as_u64(), pa.as_u64() + len);
        let mut base = start & !(line_bytes - 1);
        while base < end {
            if count_stat {
                self.stats.dma_writes += 1;
            }
            let full = start <= base && base + line_bytes <= end;
            if !full {
                // Partial-line write: a Modified holder's bytes outside
                // the DMA range must reach memory before ours do.
                if self.snoop_flush_modified(None, base, MesiState::Invalid, mem)? {
                    extra += self.charge(self.timing.writeback);
                }
            }
            if self.snoop_invalidate(None, base) > 0 {
                extra += self.charge(self.timing.invalidate);
            }
            base += line_bytes;
        }
        Ok(extra)
    }

    /// Software flush (writeback + invalidate) of every line in
    /// `[pa, pa + len)` from `agent`'s cache — what the OS/user library
    /// runs *before* a non-coherent DMA reads the range. Charged per
    /// line of the range (the loop runs whether or not the line is
    /// resident), plus a writeback per dirty line. Returns
    /// `(lines_swept, dirty_lines, time)`.
    pub fn flush_range(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        len: u64,
        mem: &mut PhysMemory,
    ) -> (u64, u64, SimTime) {
        let line_bytes = self.line_bytes_of(agent);
        let mut time = SimTime::ZERO;
        let mut lines = 0;
        let mut dirty = 0;
        let (start, end) = (pa.as_u64(), pa.as_u64() + len);
        let mut base = start & !(line_bytes - 1);
        while base < end {
            lines += 1;
            time += self.charge(self.timing.flush_line);
            let cache = &mut self.caches[agent];
            if let Some((MesiState::Modified, data)) = cache.lines.remove(cache.line(base)) {
                dirty += 1;
                write_back_resident(&mut self.stats, base, &data, mem);
                time += self.charge(self.timing.writeback);
            }
            base += line_bytes;
        }
        self.stats.flush_lines += lines;
        (lines, dirty, time)
    }

    /// Software invalidate (discard, no writeback) of every line in
    /// `[pa, pa + len)` from `agent`'s cache — what the OS/user library
    /// runs *after* a non-coherent DMA wrote the range, so later loads
    /// refetch. Charged per line of the range. Returns
    /// `(lines_swept, time)`.
    pub fn invalidate_range(&mut self, agent: AgentId, pa: PhysAddr, len: u64) -> (u64, SimTime) {
        let line_bytes = self.line_bytes_of(agent);
        let mut time = SimTime::ZERO;
        let mut lines = 0;
        let (start, end) = (pa.as_u64(), pa.as_u64() + len);
        let mut base = start & !(line_bytes - 1);
        while base < end {
            lines += 1;
            time += self.charge(self.timing.invalidate_line);
            let cache = &mut self.caches[agent];
            cache.lines.remove(cache.line(base));
            base += line_bytes;
        }
        self.stats.invalidate_lines += lines;
        (lines, time)
    }

    /// Writes back and drops every line of `agent`'s cache (context
    /// switch on a machine without address-space tags). Not charged —
    /// the executor's switch path already prices switches; stats only.
    pub fn flush_all(&mut self, agent: AgentId, mem: &mut PhysMemory) {
        let cache = &mut self.caches[agent];
        let line_bytes = cache.config.line_bytes;
        cache.stats.flushes += 1;
        cache.lines.drain(|line, (state, data)| {
            if state == MesiState::Modified {
                write_back_resident(&mut self.stats, line * line_bytes, &data, mem);
            }
        });
    }

    /// Writes every Modified line of every cache back to memory, leaving
    /// the lines resident and clean (Exclusive). Test/inspection surface:
    /// after `sync`, the flat memory image is the authoritative state.
    pub fn sync(&mut self, mem: &mut PhysMemory) {
        for cache in &mut self.caches {
            // In address order, each written-back line counting as used.
            for (base, _) in cache.resident() {
                let line = cache.line(base);
                let modified = |&(state, _): &(MesiState, _)| state == MesiState::Modified;
                if let Some((state, data)) = cache.lines.get(line, modified) {
                    write_back_resident(&mut self.stats, base, data, mem);
                    *state = MesiState::Exclusive;
                }
            }
        }
    }

    /// Checks the MESI safety invariants over every line any cache
    /// holds:
    ///
    /// 1. at most one cache holds a line Modified or Exclusive, and if
    ///    one does, no other cache holds the line at all
    ///    (single-writer);
    /// 2. every Exclusive or Shared copy is byte-identical to memory
    ///    (clean means clean).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn check_invariants(&self, mem: &PhysMemory) -> Result<(), String> {
        use std::collections::HashMap;
        let mut holders: HashMap<u64, Vec<(AgentId, MesiState)>> = HashMap::new();
        for (i, c) in self.caches.iter().enumerate() {
            for (base, state) in c.resident() {
                holders.entry(base).or_default().push((i, state));
            }
        }
        for (base, who) in holders {
            let exclusive = who
                .iter()
                .filter(|(_, s)| matches!(s, MesiState::Modified | MesiState::Exclusive))
                .count();
            if exclusive > 1 || (exclusive == 1 && who.len() > 1) {
                return Err(format!("line {base:#x}: M/E held alongside other copies: {who:?}"));
            }
        }
        for (agent, c) in self.caches.iter().enumerate() {
            for (line, (state, data)) in c.lines.iter() {
                if matches!(state, MesiState::Exclusive | MesiState::Shared) {
                    let base = line * c.config.line_bytes;
                    let mut memline = vec![0u8; data.len()];
                    mem.read_bytes(PhysAddr::new(base), &mut memline)
                        .map_err(|e| format!("line {base:#x}: unbacked clean line: {e:?}"))?;
                    if memline.as_slice() != &data[..] {
                        return Err(format!(
                            "line {base:#x}: agent {agent} holds {state:?} ≠ memory"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Whether `len` bytes at `pa` lie inside installed memory (an empty
/// range must start inside it, as for [`PhysMemory`]'s accessors).
fn check_range(pa: PhysAddr, len: u64, mem: &PhysMemory) -> Result<(), MemFault> {
    let end = pa.checked_add(len).ok_or(MemFault::BusError { pa })?;
    if end.as_u64() > mem.size() || len == 0 && pa.as_u64() >= mem.size() {
        return Err(MemFault::BusError { pa });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain(agents: usize) -> (CoherenceDomain, PhysMemory, Vec<AgentId>) {
        let mem = PhysMemory::new(1 << 20);
        let mut d = CoherenceDomain::new(CoherenceTiming::default());
        let ids = (0..agents)
            .map(|_| d.add_agent(CacheConfig { sets: 8, ways: 2, line_bytes: 32 }))
            .collect();
        (d, mem, ids)
    }

    fn pa(v: u64) -> PhysAddr {
        PhysAddr::new(v)
    }

    #[test]
    fn read_fills_exclusive_then_peer_read_shares() {
        let (mut d, mut mem, a) = domain(2);
        let mut b = [0u8; 8];
        d.agent_read(a[0], pa(0x100), &mut b, &mut mem).unwrap();
        assert_eq!(d.cache(a[0]).state_of(pa(0x100)), MesiState::Exclusive);
        d.agent_read(a[1], pa(0x104), &mut b[..4], &mut mem).unwrap();
        assert_eq!(d.cache(a[0]).state_of(pa(0x100)), MesiState::Shared);
        assert_eq!(d.cache(a[1]).state_of(pa(0x100)), MesiState::Shared);
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn write_is_cached_not_in_memory_until_writeback() {
        let (mut d, mut mem, a) = domain(1);
        d.agent_write(a[0], pa(0x200), &7u64.to_le_bytes(), &mut mem).unwrap();
        assert_eq!(d.cache(a[0]).state_of(pa(0x200)), MesiState::Modified);
        assert_eq!(mem.read_u64(pa(0x200)).unwrap(), 0, "memory still stale");
        let mut b = [0u8; 8];
        d.agent_read(a[0], pa(0x200), &mut b, &mut mem).unwrap();
        assert_eq!(u64::from_le_bytes(b), 7, "own cache serves the store");
        d.sync(&mut mem);
        assert_eq!(mem.read_u64(pa(0x200)).unwrap(), 7);
        assert_eq!(d.cache(a[0]).state_of(pa(0x200)), MesiState::Exclusive);
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn peer_read_of_modified_line_intervenes() {
        let (mut d, mut mem, a) = domain(2);
        d.agent_write(a[0], pa(0x300), &1u64.to_le_bytes(), &mut mem).unwrap();
        let mut b = [0u8; 8];
        let (_, extra) = d.agent_read(a[1], pa(0x300), &mut b, &mut mem).unwrap();
        assert_eq!(u64::from_le_bytes(b), 1, "intervention supplied the dirty data");
        assert_eq!(extra, d.timing().intervention);
        assert_eq!(d.stats().interventions, 1);
        assert_eq!(d.cache(a[0]).state_of(pa(0x300)), MesiState::Shared);
        assert_eq!(d.cache(a[1]).state_of(pa(0x300)), MesiState::Shared);
        assert_eq!(mem.read_u64(pa(0x300)).unwrap(), 1, "writeback on the way");
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn shared_write_upgrades_and_invalidates_peers() {
        let (mut d, mut mem, a) = domain(2);
        let mut b = [0u8; 8];
        d.agent_read(a[0], pa(0x400), &mut b, &mut mem).unwrap();
        d.agent_read(a[1], pa(0x400), &mut b, &mut mem).unwrap();
        let (hit, extra) = d.agent_write(a[0], pa(0x400), &9u64.to_le_bytes(), &mut mem).unwrap();
        assert!(hit, "upgrade is a hit");
        assert_eq!(extra, d.timing().invalidate);
        assert_eq!(d.stats().upgrades, 1);
        assert_eq!(d.cache(a[1]).state_of(pa(0x400)), MesiState::Invalid);
        assert_eq!(d.cache(a[0]).state_of(pa(0x400)), MesiState::Modified);
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn write_miss_with_modified_peer_pulls_then_owns() {
        let (mut d, mut mem, a) = domain(2);
        d.agent_write(a[0], pa(0x500), &0xAAu64.to_le_bytes(), &mut mem).unwrap();
        // Peer writes a *different word of the same line*: the merge must
        // keep a0's word.
        d.agent_write(a[1], pa(0x508), &0xBBu64.to_le_bytes(), &mut mem).unwrap();
        assert_eq!(d.cache(a[0]).state_of(pa(0x500)), MesiState::Invalid);
        assert_eq!(d.cache(a[1]).state_of(pa(0x500)), MesiState::Modified);
        let mut b = [0u8; 8];
        d.agent_read(a[1], pa(0x500), &mut b, &mut mem).unwrap();
        assert_eq!(u64::from_le_bytes(b), 0xAA, "earlier store survived the ownership transfer");
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn eviction_writes_back_dirty_victim() {
        let (mut d, mut mem, a) = domain(1);
        // 8 sets × 32-byte lines, 2 ways: three lines with the same set
        // index force an eviction.
        let stride = 8 * 32;
        d.agent_write(a[0], pa(0), &5u64.to_le_bytes(), &mut mem).unwrap();
        d.agent_write(a[0], pa(stride), &6u64.to_le_bytes(), &mut mem).unwrap();
        d.agent_write(a[0], pa(2 * stride), &7u64.to_le_bytes(), &mut mem).unwrap();
        assert_eq!(d.stats().writebacks, 1);
        assert_eq!(mem.read_u64(pa(0)).unwrap(), 5, "LRU victim written back");
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn dma_read_pulls_modified_lines() {
        let (mut d, mut mem, a) = domain(1);
        d.agent_write(a[0], pa(0x600), &0x11u64.to_le_bytes(), &mut mem).unwrap();
        let mut buf = [0u8; 8];
        let extra = d.dma_read(pa(0x600), &mut buf, &mut mem).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 0x11);
        assert_eq!(extra, d.timing().intervention);
        assert_eq!(d.cache(a[0]).state_of(pa(0x600)), MesiState::Shared);
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn dma_write_invalidates_sharers_and_merges_partial_lines() {
        let (mut d, mut mem, a) = domain(1);
        // CPU dirties bytes 8..16 of the line; DMA writes bytes 0..8.
        d.agent_write(a[0], pa(0x708), &0xCCu64.to_le_bytes(), &mut mem).unwrap();
        let extra = d.dma_write(pa(0x700), &0xDDu64.to_le_bytes(), &mut mem).unwrap();
        assert!(extra >= d.timing().writeback, "partial overlap forces the writeback first");
        assert_eq!(d.cache(a[0]).state_of(pa(0x700)), MesiState::Invalid);
        assert_eq!(mem.read_u64(pa(0x700)).unwrap(), 0xDD);
        assert_eq!(mem.read_u64(pa(0x708)).unwrap(), 0xCC, "CPU bytes survived");
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn dma_write_of_full_line_skips_the_writeback() {
        let (mut d, mut mem, a) = domain(1);
        d.agent_write(a[0], pa(0x800), &[1u8; 32], &mut mem).unwrap();
        let extra = d.dma_write(pa(0x800), &[2u8; 32], &mut mem).unwrap();
        // Full-line overwrite: the dirty data is dead, only the
        // invalidation is charged.
        assert_eq!(extra, d.timing().invalidate);
        assert_eq!(d.stats().writebacks, 0);
        assert_eq!(mem.read_u64(pa(0x800)).unwrap(), u64::from_le_bytes([2; 8]));
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn flush_range_charges_per_line_and_writes_back_dirty() {
        let (mut d, mut mem, a) = domain(1);
        d.agent_write(a[0], pa(0x900), &3u64.to_le_bytes(), &mut mem).unwrap();
        let (lines, dirty, time) = d.flush_range(a[0], pa(0x900), 4 * 32, &mut mem);
        assert_eq!((lines, dirty), (4, 1));
        let t = d.timing();
        assert_eq!(time, SimTime::from_ps(4 * t.flush_line.as_ps() + t.writeback.as_ps()));
        assert_eq!(mem.read_u64(pa(0x900)).unwrap(), 3);
        assert_eq!(d.cache(a[0]).state_of(pa(0x900)), MesiState::Invalid);
    }

    #[test]
    fn invalidate_range_discards_without_writeback() {
        let (mut d, mut mem, a) = domain(1);
        d.agent_write(a[0], pa(0xA00), &4u64.to_le_bytes(), &mut mem).unwrap();
        let (lines, time) = d.invalidate_range(a[0], pa(0xA00), 32);
        assert_eq!(lines, 1);
        assert_eq!(time, d.timing().invalidate_line);
        assert_eq!(d.stats().writebacks, 0);
        assert_eq!(d.cache(a[0]).state_of(pa(0xA00)), MesiState::Invalid);
        // The dirty data was deliberately dropped.
        assert_eq!(mem.read_u64(pa(0xA00)).unwrap(), 0);
    }

    #[test]
    fn disabled_agents_add_zero_time_and_zero_traffic() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut d = CoherenceDomain::new(CoherenceTiming::default());
        let a = d.add_agent(CacheConfig::disabled());
        let mut b = [0u8; 8];
        let (hit, extra) = d.agent_read(a, pa(0x100), &mut b, &mut mem).unwrap();
        assert!(!hit);
        assert_eq!(extra, SimTime::ZERO);
        let (hit, extra) = d.agent_write(a, pa(0x100), &1u64.to_le_bytes(), &mut mem).unwrap();
        assert!(!hit);
        assert_eq!(extra, SimTime::ZERO);
        // ways == 0 writes go straight to memory (uncached master).
        assert_eq!(mem.read_u64(pa(0x100)).unwrap(), 1);
        let mut buf = [0u8; 8];
        assert_eq!(d.dma_read(pa(0x100), &mut buf, &mut mem).unwrap(), SimTime::ZERO);
        assert_eq!(d.dma_write(pa(0x100), &buf, &mut mem).unwrap(), SimTime::ZERO);
        assert_eq!(d.stats().coherence_traffic(), 0);
        assert_eq!(d.stats().snoop_time, SimTime::ZERO);
        d.check_invariants(&mem).unwrap();
    }

    #[test]
    fn out_of_range_accesses_fault() {
        let (mut d, mut mem, a) = domain(1);
        let far = pa(1 << 20);
        let mut b = [0u8; 8];
        assert!(d.agent_read(a[0], far, &mut b, &mut mem).is_err());
        assert!(d.agent_write(a[0], far, &b, &mut mem).is_err());
        assert!(d.dma_read(far, &mut b, &mut mem).is_err());
        assert!(d.dma_write(far, &b, &mut mem).is_err());
    }

    #[test]
    fn flush_all_writes_back_everything() {
        let (mut d, mut mem, a) = domain(1);
        d.agent_write(a[0], pa(0x40), &8u64.to_le_bytes(), &mut mem).unwrap();
        d.agent_write(a[0], pa(0x80), &9u64.to_le_bytes(), &mut mem).unwrap();
        d.flush_all(a[0], &mut mem);
        assert!(d.cache(a[0]).resident().is_empty());
        assert_eq!(mem.read_u64(pa(0x40)).unwrap(), 8);
        assert_eq!(mem.read_u64(pa(0x80)).unwrap(), 9);
    }

    #[test]
    fn invariant_checker_catches_a_violation() {
        let (mut d, mut mem, a) = domain(2);
        let mut b = [0u8; 8];
        d.agent_read(a[0], pa(0x100), &mut b, &mut mem).unwrap();
        // Corrupt memory behind the domain's back: the clean Exclusive
        // copy no longer matches.
        mem.write_u64(pa(0x100), 0xBAD).unwrap();
        assert!(d.check_invariants(&mem).is_err());
    }
}
