//! A timing-only data cache.
//!
//! The Alpha 21064 carries an 8 KiB direct-mapped write-through data
//! cache with 32-byte lines; cacheable loads hit in a cycle or two, while
//! misses pay a DRAM round trip. The paper's methodology is shaped by
//! caches and buffers ("successive DMA operations were done to(from)
//! different addresses, so as to eliminate any caching effects", §3.4),
//! so the simulator models one — for *timing only*: data always comes
//! from memory (see [`crate::MemPort`]), which keeps DMA traffic coherent by
//! construction (the engine writes memory directly; a stale cache line
//! can cost the model nothing but time, never correctness).
//!
//! Device (NIC) accesses never touch the cache: they are uncached by
//! definition, which is the entire premise of shadow addressing.

use udma_mem::PhysAddr;

/// Geometry and behaviour of the data cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (1 = direct-mapped).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The 21064's D-cache: 8 KiB, direct-mapped, 32-byte lines.
    pub fn alpha_21064() -> Self {
        CacheConfig { sets: 256, ways: 1, line_bytes: 32 }
    }

    /// A disabled cache: every access misses (the pre-cache model).
    ///
    /// `ways == 0` is a first-class geometry: no storage is allocated,
    /// every access misses, and a coherence agent built from it behaves
    /// as an uncached bus master (see `coherence`).
    pub fn disabled() -> Self {
        CacheConfig { sets: 1, ways: 0, line_bytes: 32 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Checks the geometry: set count and line size must be powers of
    /// two (set indexing and line masking are bit operations), and a
    /// line must hold at least one 8-byte word. `ways == 0` is valid.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated constraint.
    pub fn validate(&self) {
        assert!(self.sets > 0, "cache needs at least one set");
        assert!(self.sets.is_power_of_two(), "set count must be a power of two");
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.line_bytes >= 8, "a line must hold at least one 8-byte word");
    }

    /// The base address of the line containing `pa` (line masking).
    pub fn line_base(&self, pa: u64) -> u64 {
        pa & !(self.line_bytes - 1)
    }

    /// The set index of the line containing `pa`.
    pub fn set_index(&self, pa: u64) -> usize {
        ((pa / self.line_bytes) & (self.sets as u64 - 1)) as usize
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses satisfied by the cache.
    pub hits: u64,
    /// Accesses that had to fill from memory.
    pub misses: u64,
    /// Whole-cache invalidations (context switches).
    pub flushes: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no accesses happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A physically-indexed, physically-tagged, LRU, tags-only cache.
#[derive(Clone, Debug)]
pub struct DataCache {
    config: CacheConfig,
    /// `tags[set][way] = Some(tag)`; parallel `lru[set][way]` ticks.
    tags: Vec<Vec<Option<u64>>>,
    lru: Vec<Vec<u64>>,
    tick: u64,
    stats: CacheStats,
}

impl DataCache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        DataCache {
            config,
            tags: vec![vec![None; config.ways]; config.sets],
            lru: vec![vec![0; config.ways]; config.sets],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Looks up (and on miss, fills) the line containing `pa`. Returns
    /// whether the access hit.
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        if self.config.ways == 0 {
            self.stats.misses += 1;
            return false;
        }
        self.tick += 1;
        let line = pa.as_u64() / self.config.line_bytes;
        let set = self.config.set_index(pa.as_u64());
        let tag = line >> self.config.sets.trailing_zeros();

        if let Some(way) = self.tags[set].iter().position(|&t| t == Some(tag)) {
            self.lru[set][way] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Fill into the LRU way (or the first invalid one).
        let way = match self.tags[set].iter().position(|t| t.is_none()) {
            Some(w) => w,
            None => {
                let (w, _) =
                    self.lru[set].iter().enumerate().min_by_key(|&(_, &t)| t).expect("ways > 0");
                w
            }
        };
        self.tags[set][way] = Some(tag);
        self.lru[set][way] = self.tick;
        false
    }

    /// Invalidates everything (context switch on a machine without
    /// address-space tags).
    pub fn flush_all(&mut self) {
        for set in &mut self.tags {
            set.fill(None);
        }
        self.stats.flushes += 1;
    }

    /// The counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl Default for DataCache {
    fn default() -> Self {
        DataCache::new(CacheConfig::alpha_21064())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(v: u64) -> PhysAddr {
        PhysAddr::new(v)
    }

    #[test]
    fn second_access_to_a_line_hits() {
        let mut c = DataCache::default();
        assert!(!c.access(pa(0x1000)));
        assert!(c.access(pa(0x1000)));
        // Same 32-byte line, different word: still a hit.
        assert!(c.access(pa(0x1008)));
        // Next line: miss.
        assert!(!c.access(pa(0x1020)));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let c8k = CacheConfig::alpha_21064();
        let mut c = DataCache::new(c8k);
        // Two addresses one cache-capacity apart share a set.
        let a = pa(0x0);
        let b = pa(c8k.capacity());
        assert!(!c.access(a));
        assert!(!c.access(b)); // evicts a
        assert!(!c.access(a)); // miss again
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn two_way_lru_keeps_both_then_evicts_oldest() {
        let mut c = DataCache::new(CacheConfig { sets: 4, ways: 2, line_bytes: 32 });
        let stride = 4 * 32; // same set, different tags
        assert!(!c.access(pa(0)));
        assert!(!c.access(pa(stride)));
        assert!(c.access(pa(0)));
        assert!(c.access(pa(stride)));
        // Third tag evicts the LRU (which is `0`? no: 0 touched after
        // stride, so stride… both touched; LRU is the *least recently*
        // touched = pa(0)? order: 0,stride,0,stride → LRU = 0? last
        // touches: 0@3, stride@4 → evict 0.
        assert!(!c.access(pa(2 * stride)));
        assert!(!c.access(pa(0)), "pa(0) was the LRU victim");
        assert!(c.access(pa(2 * stride)));
    }

    #[test]
    fn flush_empties_everything() {
        let mut c = DataCache::default();
        c.access(pa(0x40));
        c.flush_all();
        assert!(!c.access(pa(0x40)));
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = DataCache::new(CacheConfig::disabled());
        assert!(!c.access(pa(0)));
        assert!(!c.access(pa(0)));
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().hit_ratio(), 0.0);
    }

    #[test]
    fn alpha_geometry() {
        let c = CacheConfig::alpha_21064();
        assert_eq!(c.capacity(), 8 * 1024);
    }

    #[test]
    fn hit_ratio_counts() {
        let mut c = DataCache::default();
        c.access(pa(0));
        c.access(pa(0));
        c.access(pa(0));
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = DataCache::new(CacheConfig { sets: 4, ways: 1, line_bytes: 24 });
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = DataCache::new(CacheConfig { sets: 3, ways: 1, line_bytes: 32 });
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_rejected() {
        let _ = DataCache::new(CacheConfig { sets: 0, ways: 1, line_bytes: 32 });
    }

    #[test]
    #[should_panic(expected = "8-byte word")]
    fn sub_word_lines_rejected() {
        let _ = DataCache::new(CacheConfig { sets: 4, ways: 1, line_bytes: 4 });
    }

    #[test]
    fn one_way_one_set_still_works() {
        // The degenerate fully-shared geometry: one set, one way.
        let mut c = DataCache::new(CacheConfig { sets: 1, ways: 1, line_bytes: 32 });
        assert!(!c.access(pa(0)));
        assert!(c.access(pa(8)));
        assert!(!c.access(pa(32))); // evicts the only line
        assert!(!c.access(pa(0)));
    }

    #[test]
    fn line_masking_helpers() {
        let c = CacheConfig { sets: 8, ways: 2, line_bytes: 64 };
        assert_eq!(c.line_base(0x1234), 0x1200);
        assert_eq!(c.line_base(0x1200), 0x1200);
        assert_eq!(c.set_index(0x1234), ((0x1234 / 64) % 8) as usize);
        // Addresses one set-stride apart land in the same set.
        let stride = 8 * 64;
        assert_eq!(c.set_index(0x40), c.set_index(0x40 + stride));
    }

    #[test]
    fn disabled_geometry_is_valid_and_empty() {
        let c = CacheConfig::disabled();
        c.validate();
        assert_eq!(c.capacity(), 0);
    }
}
