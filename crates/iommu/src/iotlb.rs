//! The IOTLB: a set-associative, ASID-tagged translation cache on the
//! network interface.
//!
//! ASID tagging is the point: a host context switch does **not** flush
//! the IOTLB (entries of the switched-out process stay valid and keep
//! serving its in-flight transfers), and an OS shootdown invalidates
//! only the one page of the one address space it names
//! ([`Iotlb::invalidate_page`]).

use crate::Asid;
use udma_mem::{Perms, PhysFrame, TlbStats, VirtPage};

/// Replacement policy within a set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IotlbReplacement {
    /// Replace the oldest fill (per-set round-robin pointer).
    #[default]
    Fifo,
    /// Replace the least recently used entry.
    Lru,
    /// Replace a pseudo-random way (deterministic splitmix stream).
    Random,
}

/// IOTLB geometry and policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IotlbConfig {
    /// Total entries (must be a multiple of `ways`).
    pub entries: usize,
    /// Associativity; `entries == ways` makes the IOTLB fully
    /// associative.
    pub ways: usize,
    /// Replacement policy within a set.
    pub replacement: IotlbReplacement,
    /// Seed for the `Random` policy's deterministic stream.
    pub seed: u64,
}

impl Default for IotlbConfig {
    fn default() -> Self {
        // The ARMv8 SMMU the follow-on work targets has small per-TBU
        // micro-TLBs; 32 × 4-way is in that class.
        IotlbConfig { entries: 32, ways: 4, replacement: IotlbReplacement::Fifo, seed: 0 }
    }
}

impl IotlbConfig {
    /// A fully associative IOTLB of `entries` entries.
    pub fn fully_associative(entries: usize) -> Self {
        IotlbConfig { entries, ways: entries, ..IotlbConfig::default() }
    }
}

/// IOTLB counters: the shared [`TlbStats`] shape plus the
/// invalidation traffic that only exists on the device side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IotlbStats {
    /// Hit/miss/flush/eviction counters (same shape as the CPU TLB).
    pub tlb: TlbStats,
    /// Single-page invalidations (OS unmap/swap-out shootdowns).
    pub shootdowns: u64,
    /// Lines filled by the prefetcher ([`Iotlb::insert_prefetched`]),
    /// i.e. page-table walks done ahead of the streaming cursor.
    pub prefetch_fills: u64,
    /// Demand lookups that hit a prefetched line on its first use —
    /// compulsory misses the prefetcher hid.
    pub prefetch_hidden: u64,
    /// Prefetched lines dropped (evicted, shot down, flushed or
    /// overwritten) before any demand access used them: wasted walks.
    pub prefetch_unused: u64,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    asid: Asid,
    page: VirtPage,
    frame: PhysFrame,
    perms: Perms,
    /// LRU timestamp (monotonic fill/touch tick).
    stamp: u64,
    /// Filled ahead of demand and not yet used by a demand access.
    prefetched: bool,
}

/// The translation cache proper.
#[derive(Clone, Debug)]
pub struct Iotlb {
    sets: Vec<Vec<Option<Line>>>,
    ways: usize,
    replacement: IotlbReplacement,
    fifo_ptr: Vec<usize>,
    tick: u64,
    rng_state: u64,
    stats: IotlbStats,
    /// Valid-line count, maintained on every fill/invalidate so
    /// [`Iotlb::len`] is O(1) instead of a full scan.
    live: usize,
}

impl Iotlb {
    /// Builds an IOTLB from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `ways` is zero, or `entries` is not
    /// a multiple of `ways`.
    pub fn new(config: IotlbConfig) -> Self {
        assert!(config.entries > 0, "IOTLB must have entries");
        assert!(config.ways > 0, "IOTLB associativity must be nonzero");
        assert!(
            config.entries.is_multiple_of(config.ways),
            "IOTLB entries must be a multiple of the associativity"
        );
        let num_sets = config.entries / config.ways;
        Iotlb {
            sets: vec![vec![None; config.ways]; num_sets],
            ways: config.ways,
            replacement: config.replacement,
            fifo_ptr: vec![0; num_sets],
            tick: 0,
            rng_state: config.seed,
            stats: IotlbStats::default(),
            live: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Valid entries currently cached (O(1): a live counter maintained
    /// on fill and invalidation, not a scan over every set).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the IOTLB caches nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current statistics.
    pub fn stats(&self) -> IotlbStats {
        self.stats
    }

    fn set_index(&self, asid: Asid, page: VirtPage) -> usize {
        // Hash the ASID into the index so two processes touching the
        // same page numbers (the common buffer layout) don't contend
        // for the same sets.
        ((page.number() ^ (asid as u64).wrapping_mul(0x9E37_79B9)) % self.sets.len() as u64)
            as usize
    }

    fn next_random(&mut self) -> u64 {
        // splitmix64 step: deterministic per seed.
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Looks up `(asid, page)`; counts a hit only when the cached entry
    /// also allows `needed`. A permission-insufficient entry counts as
    /// a miss so the caller re-walks the I/O page table (the same
    /// rewalk-on-permission-miss rule as the CPU TLB).
    pub fn lookup(
        &mut self,
        asid: Asid,
        page: VirtPage,
        needed: Perms,
    ) -> Option<(PhysFrame, Perms)> {
        let idx = self.set_index(asid, page);
        self.tick += 1;
        let tick = self.tick;
        let hit = self.sets[idx]
            .iter_mut()
            .flatten()
            .find(|l| l.asid == asid && l.page == page && l.perms.allows(needed));
        match hit {
            Some(line) => {
                line.stamp = tick;
                if line.prefetched {
                    line.prefetched = false;
                    self.stats.prefetch_hidden += 1;
                }
                self.stats.tlb.hits += 1;
                Some((line.frame, line.perms))
            }
            None => {
                self.stats.tlb.misses += 1;
                None
            }
        }
    }

    /// Like [`Iotlb::lookup`] but a miss counts **nothing**: the
    /// coalescing lookahead uses this to peek at the next page without
    /// distorting the miss-delta walk-cost accounting in the engine. A
    /// hit is a real use (the translation feeds a merged chunk), so it
    /// still counts a hit, touches the LRU stamp and retires the
    /// prefetched flag.
    pub fn probe(
        &mut self,
        asid: Asid,
        page: VirtPage,
        needed: Perms,
    ) -> Option<(PhysFrame, Perms)> {
        let idx = self.set_index(asid, page);
        let hit = self.sets[idx]
            .iter_mut()
            .flatten()
            .find(|l| l.asid == asid && l.page == page && l.perms.allows(needed))?;
        self.tick += 1;
        hit.stamp = self.tick;
        if hit.prefetched {
            hit.prefetched = false;
            self.stats.prefetch_hidden += 1;
        }
        self.stats.tlb.hits += 1;
        Some((hit.frame, hit.perms))
    }

    /// Read-only lookup: the resident line for `(asid, page)` if it
    /// allows `needed`, with no counters, no LRU touch and no flag
    /// retirement — inspection that leaves the IOTLB exactly as it was.
    pub fn peek(&self, asid: Asid, page: VirtPage, needed: Perms) -> Option<(PhysFrame, Perms)> {
        let idx = self.set_index(asid, page);
        self.sets[idx]
            .iter()
            .flatten()
            .find(|l| l.asid == asid && l.page == page && l.perms.allows(needed))
            .map(|l| (l.frame, l.perms))
    }

    /// Pure residency check ([`Iotlb::peek`] without the frame). The
    /// prefetcher uses this to skip pages that are already cached with
    /// sufficient permissions.
    pub fn contains(&self, asid: Asid, page: VirtPage, needed: Perms) -> bool {
        self.peek(asid, page, needed).is_some()
    }

    /// Fills a translation, evicting within the set per the replacement
    /// policy. An existing line for the same `(asid, page)` is updated
    /// in place (permission upgrade after a `protect`).
    pub fn insert(&mut self, asid: Asid, page: VirtPage, frame: PhysFrame, perms: Perms) {
        self.fill(asid, page, frame, perms, false);
    }

    /// Fills a translation the prefetcher walked ahead of demand. The
    /// line is tagged so its first demand use counts a hidden miss
    /// ([`IotlbStats::prefetch_hidden`]) and a drop before any use
    /// counts a wasted walk ([`IotlbStats::prefetch_unused`]).
    pub fn insert_prefetched(
        &mut self,
        asid: Asid,
        page: VirtPage,
        frame: PhysFrame,
        perms: Perms,
    ) {
        self.stats.prefetch_fills += 1;
        self.fill(asid, page, frame, perms, true);
    }

    fn fill(
        &mut self,
        asid: Asid,
        page: VirtPage,
        frame: PhysFrame,
        perms: Perms,
        prefetched: bool,
    ) {
        let idx = self.set_index(asid, page);
        self.tick += 1;
        let tick = self.tick;
        if let Some(line) =
            self.sets[idx].iter_mut().flatten().find(|l| l.asid == asid && l.page == page)
        {
            if line.prefetched && !prefetched {
                // A demand walk overwrote the line before it served a
                // demand access (e.g. a permission upgrade): the
                // prefetched walk bought nothing.
                self.stats.prefetch_unused += 1;
            }
            *line = Line { asid, page, frame, perms, stamp: tick, prefetched };
            return;
        }
        let way = match self.sets[idx].iter().position(|l| l.is_none()) {
            Some(free) => free,
            None => {
                self.stats.tlb.evictions += 1;
                match self.replacement {
                    IotlbReplacement::Fifo => {
                        let w = self.fifo_ptr[idx];
                        self.fifo_ptr[idx] = (w + 1) % self.ways;
                        w
                    }
                    // Oldest *valid* line only: a vacant way must never
                    // shadow a real victim with its default stamp (the
                    // eviction branch implies a full set today, but the
                    // invariant should not depend on that).
                    IotlbReplacement::Lru => self.sets[idx]
                        .iter()
                        .enumerate()
                        .filter_map(|(w, l)| l.map(|l| (w, l.stamp)))
                        .min_by_key(|&(_, stamp)| stamp)
                        .map(|(w, _)| w)
                        .expect("eviction requires a full set"),
                    IotlbReplacement::Random => (self.next_random() % self.ways as u64) as usize,
                }
            }
        };
        match self.sets[idx][way] {
            Some(victim) => {
                if victim.prefetched {
                    self.stats.prefetch_unused += 1;
                }
            }
            None => self.live += 1,
        }
        self.sets[idx][way] = Some(Line { asid, page, frame, perms, stamp: tick, prefetched });
    }

    /// Shoots down one page of one address space (OS unmap/swap-out).
    pub fn invalidate_page(&mut self, asid: Asid, page: VirtPage) {
        self.stats.shootdowns += 1;
        let idx = self.set_index(asid, page);
        let mut dropped = 0;
        let mut unused = 0;
        for line in self.sets[idx].iter_mut() {
            if let Some(l) = line {
                if l.asid == asid && l.page == page {
                    dropped += 1;
                    unused += u64::from(l.prefetched);
                    *line = None;
                }
            }
        }
        self.live -= dropped;
        self.stats.prefetch_unused += unused;
    }

    /// Invalidates everything (device reset).
    pub fn flush_all(&mut self) {
        self.stats.tlb.flushes += 1;
        for set in self.sets.iter_mut() {
            for line in set.iter_mut() {
                if let Some(l) = line {
                    self.stats.prefetch_unused += u64::from(l.prefetched);
                    *line = None;
                }
            }
        }
        self.live = 0;
        self.fifo_ptr.iter_mut().for_each(|p| *p = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: usize, ways: usize, replacement: IotlbReplacement) -> Iotlb {
        Iotlb::new(IotlbConfig { entries, ways, replacement, seed: 7 })
    }

    #[test]
    fn miss_fill_hit() {
        let mut t = tlb(8, 2, IotlbReplacement::Fifo);
        assert!(t.lookup(1, VirtPage::new(5), Perms::READ).is_none());
        t.insert(1, VirtPage::new(5), PhysFrame::new(9), Perms::READ_WRITE);
        let (frame, perms) = t.lookup(1, VirtPage::new(5), Perms::READ).unwrap();
        assert_eq!(frame, PhysFrame::new(9));
        assert!(perms.allows(Perms::WRITE));
        assert_eq!(t.stats().tlb.hits, 1);
        assert_eq!(t.stats().tlb.misses, 1);
    }

    #[test]
    fn asid_tags_separate_address_spaces() {
        let mut t = tlb(8, 2, IotlbReplacement::Fifo);
        t.insert(1, VirtPage::new(5), PhysFrame::new(9), Perms::READ_WRITE);
        // Same page number, different ASID: miss — never another
        // context's frame.
        assert!(t.lookup(2, VirtPage::new(5), Perms::READ).is_none());
        t.insert(2, VirtPage::new(5), PhysFrame::new(22), Perms::READ);
        assert_eq!(t.lookup(1, VirtPage::new(5), Perms::READ).unwrap().0, PhysFrame::new(9));
        assert_eq!(t.lookup(2, VirtPage::new(5), Perms::READ).unwrap().0, PhysFrame::new(22));
    }

    #[test]
    fn permission_insufficient_line_counts_as_miss() {
        let mut t = tlb(4, 4, IotlbReplacement::Fifo);
        t.insert(1, VirtPage::new(0), PhysFrame::new(1), Perms::READ);
        assert!(t.lookup(1, VirtPage::new(0), Perms::WRITE).is_none());
        assert_eq!(t.stats().tlb.misses, 1);
        // Upgrade in place after the caller re-walks.
        t.insert(1, VirtPage::new(0), PhysFrame::new(1), Perms::READ_WRITE);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(1, VirtPage::new(0), Perms::WRITE).is_some());
    }

    #[test]
    fn eviction_within_a_full_set() {
        // 2 sets × 2 ways; same set gets 3 pages → one eviction.
        let mut t = tlb(4, 2, IotlbReplacement::Fifo);
        let idx = t.set_index(1, VirtPage::new(0));
        let same_set: Vec<u64> =
            (0..64).filter(|&p| t.set_index(1, VirtPage::new(p)) == idx).take(3).collect();
        for &p in &same_set {
            t.insert(1, VirtPage::new(p), PhysFrame::new(p), Perms::READ);
        }
        assert_eq!(t.stats().tlb.evictions, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lru_keeps_the_recently_touched_line() {
        let mut t = tlb(2, 2, IotlbReplacement::Lru);
        t.insert(1, VirtPage::new(0), PhysFrame::new(0), Perms::READ);
        t.insert(1, VirtPage::new(1), PhysFrame::new(1), Perms::READ);
        // Touch page 0 so page 1 is the LRU victim.
        t.lookup(1, VirtPage::new(0), Perms::READ).unwrap();
        t.insert(1, VirtPage::new(2), PhysFrame::new(2), Perms::READ);
        assert!(t.lookup(1, VirtPage::new(0), Perms::READ).is_some());
        assert!(t.lookup(1, VirtPage::new(1), Perms::READ).is_none());
    }

    #[test]
    fn random_replacement_is_deterministic_per_seed() {
        let fills = |seed| {
            let mut t = Iotlb::new(IotlbConfig {
                entries: 2,
                ways: 2,
                replacement: IotlbReplacement::Random,
                seed,
            });
            for p in 0..16u64 {
                t.insert(1, VirtPage::new(p), PhysFrame::new(p), Perms::READ);
            }
            (0..16u64)
                .map(|p| t.lookup(1, VirtPage::new(p), Perms::READ).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(fills(1), fills(1));
    }

    #[test]
    fn shootdown_is_selective() {
        let mut t = tlb(8, 4, IotlbReplacement::Fifo);
        t.insert(1, VirtPage::new(0), PhysFrame::new(0), Perms::READ);
        t.insert(1, VirtPage::new(1), PhysFrame::new(1), Perms::READ);
        t.insert(2, VirtPage::new(0), PhysFrame::new(2), Perms::READ);
        t.invalidate_page(1, VirtPage::new(0));
        assert!(t.lookup(1, VirtPage::new(0), Perms::READ).is_none());
        assert!(t.lookup(1, VirtPage::new(1), Perms::READ).is_some());
        assert!(t.lookup(2, VirtPage::new(0), Perms::READ).is_some());
        assert_eq!(t.stats().shootdowns, 1);
        t.flush_all();
        assert!(t.is_empty());
        assert_eq!(t.stats().tlb.flushes, 1);
    }

    #[test]
    #[should_panic(expected = "multiple of the associativity")]
    fn bad_geometry_panics() {
        let _ = Iotlb::new(IotlbConfig { entries: 6, ways: 4, ..IotlbConfig::default() });
    }

    #[test]
    fn lru_victim_is_the_oldest_valid_line() {
        // A shootdown leaves a vacancy whose absent stamp must never be
        // mistaken for "oldest". Refill through the vacancy, then force
        // an eviction: the victim must be the stalest *valid* line.
        let mut t = tlb(2, 2, IotlbReplacement::Lru);
        t.insert(1, VirtPage::new(0), PhysFrame::new(0), Perms::READ); // stamp 1
        t.insert(1, VirtPage::new(1), PhysFrame::new(1), Perms::READ); // stamp 2
        t.lookup(1, VirtPage::new(0), Perms::READ).unwrap(); // page 0 → stamp 3
        t.invalidate_page(1, VirtPage::new(1));
        t.insert(1, VirtPage::new(2), PhysFrame::new(2), Perms::READ); // fills vacancy, stamp 4
        assert_eq!(t.len(), 2);
        t.insert(1, VirtPage::new(3), PhysFrame::new(3), Perms::READ); // evicts oldest valid: page 0
        assert!(t.lookup(1, VirtPage::new(0), Perms::READ).is_none());
        assert!(t.lookup(1, VirtPage::new(2), Perms::READ).is_some());
        assert!(t.lookup(1, VirtPage::new(3), Perms::READ).is_some());
        assert_eq!(t.stats().tlb.evictions, 1);
    }

    #[test]
    fn prefetched_lines_count_hidden_and_unused() {
        let mut t = tlb(8, 4, IotlbReplacement::Fifo);
        t.insert_prefetched(1, VirtPage::new(0), PhysFrame::new(0), Perms::READ);
        t.insert_prefetched(1, VirtPage::new(1), PhysFrame::new(1), Perms::READ);
        assert_eq!(t.stats().prefetch_fills, 2);
        // First demand use retires the flag exactly once.
        t.lookup(1, VirtPage::new(0), Perms::READ).unwrap();
        t.lookup(1, VirtPage::new(0), Perms::READ).unwrap();
        assert_eq!(t.stats().prefetch_hidden, 1);
        // The never-used line dropped by a shootdown is a wasted walk.
        t.invalidate_page(1, VirtPage::new(1));
        assert_eq!(t.stats().prefetch_unused, 1);
        // A used line dropped later is not.
        t.invalidate_page(1, VirtPage::new(0));
        assert_eq!(t.stats().prefetch_unused, 1);
    }

    #[test]
    fn probe_counts_no_miss() {
        let mut t = tlb(4, 4, IotlbReplacement::Fifo);
        assert!(t.probe(1, VirtPage::new(0), Perms::READ).is_none());
        assert_eq!(t.stats().tlb.misses, 0);
        t.insert_prefetched(1, VirtPage::new(0), PhysFrame::new(7), Perms::READ);
        let (frame, _) = t.probe(1, VirtPage::new(0), Perms::READ).unwrap();
        assert_eq!(frame, PhysFrame::new(7));
        assert_eq!(t.stats().tlb.hits, 1);
        assert_eq!(t.stats().prefetch_hidden, 1);
        assert!(t.contains(1, VirtPage::new(0), Perms::READ));
        assert!(!t.contains(1, VirtPage::new(0), Perms::WRITE));
        // contains() is pure: counters unchanged.
        assert_eq!(t.stats().tlb.hits, 1);
        assert_eq!(t.stats().tlb.misses, 0);
    }

    #[test]
    fn live_counter_matches_a_full_scan_after_random_ops() {
        // O(1) len() selftest: drive every mutating op from a seeded
        // stream and check the counter against an exhaustive scan.
        for seed in 0..4u64 {
            let mut t = tlb(16, 4, IotlbReplacement::Lru);
            let mut state = 0x9E37_79B9_97F4_A7C1u64 ^ seed;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for _ in 0..2_000 {
                let page = VirtPage::new(next() % 24);
                let asid = (next() % 3) as Asid;
                match next() % 8 {
                    0..=2 => t.insert(asid, page, PhysFrame::new(next() % 64), Perms::READ_WRITE),
                    3..=4 => {
                        t.insert_prefetched(asid, page, PhysFrame::new(next() % 64), Perms::READ)
                    }
                    5 => t.invalidate_page(asid, page),
                    6 => {
                        let _ = t.lookup(asid, page, Perms::READ);
                    }
                    _ => {
                        if next() % 16 == 0 {
                            t.flush_all();
                        } else {
                            t.invalidate_page(asid, page);
                        }
                    }
                }
                let scanned = t.sets.iter().flatten().filter(|l| l.is_some()).count();
                assert_eq!(t.len(), scanned, "live counter diverged from scan (seed {seed})");
            }
        }
    }
}
