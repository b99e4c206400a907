//! Property tests: the IOMMU against the CPU page table as oracle, and
//! the flat IOTLB against a reference model of its nested layout.
//!
//! The OS populates the I/O page table *from* the process's page table,
//! so for any populated page the two must agree exactly — same frame,
//! same permission verdicts — no matter the IOTLB geometry, replacement
//! policy, or access history in between.

use udma_iommu::{Asid, IoFaultKind, Iommu, Iotlb, IotlbConfig, IotlbReplacement, IotlbStats};
use udma_mem::{Access, PageTable, Perms, PhysFrame, VirtAddr, VirtPage, PAGE_SIZE};
use udma_testkit::prop::{any, vec};
use udma_testkit::{prop_assert, prop_assert_eq, props};

fn perms_of(bits: u8) -> Perms {
    let mut p = Perms::NONE;
    if bits & 1 != 0 {
        p |= Perms::READ;
    }
    if bits & 2 != 0 {
        p |= Perms::WRITE;
    }
    p
}

props! {
    /// Translation correctness: for every access to every mapped page,
    /// the IOMMU's answer equals the CPU page table's answer — same
    /// physical address on success, matching fault class on failure —
    /// regardless of IOTLB geometry/policy and with repeated lookups
    /// exercising hit, miss and eviction paths.
    fn iommu_agrees_with_cpu_page_table(
        page_specs in vec((0u64..48, 0u8..4), 1..24),
        entries_log in 0u32..4,
        ways_choice in 0usize..3,
        policy_choice in 0usize..3,
        probes in vec((0u64..48, 0u64..PAGE_SIZE, any::<bool>()), 1..64),
    ) {
        let entries = 1usize << (entries_log + 1); // 2..16
        let ways = [1, 2, entries][ways_choice].min(entries);
        let entries = entries - entries % ways;
        let replacement = [
            IotlbReplacement::Fifo,
            IotlbReplacement::Lru,
            IotlbReplacement::Random,
        ][policy_choice];
        let mut iommu = Iommu::new(IotlbConfig { entries, ways, replacement, seed: 42 });
        iommu.create_context(1);

        // Build both tables from the same spec (first spec per page wins,
        // as `map` rejects duplicates in both).
        let mut pt = PageTable::new();
        for (i, &(page, perm_bits)) in page_specs.iter().enumerate() {
            let frame = PhysFrame::new(100 + i as u64);
            let perms = perms_of(perm_bits);
            if pt.map(VirtPage::new(page), frame, perms).is_ok() {
                iommu.map(1, VirtPage::new(page), frame, perms, true).unwrap();
            }
        }

        for &(page, offset, write) in &probes {
            let va = VirtAddr::new(page * PAGE_SIZE + offset);
            let access = if write { Access::Write } else { Access::Read };
            match (pt.translate(va, access), iommu.translate(1, va, access)) {
                (Ok(cpu_pa), Ok(io_pa)) => prop_assert_eq!(cpu_pa, io_pa),
                (Err(udma_mem::MemFault::Unmapped { .. }), Err(f)) => {
                    prop_assert_eq!(f.kind, IoFaultKind::Unmapped);
                }
                (Err(udma_mem::MemFault::Protection { .. }), Err(f)) => {
                    prop_assert!(matches!(f.kind, IoFaultKind::Protection { .. }));
                }
                (cpu, io) => prop_assert!(
                    false,
                    "oracle disagreement at {:?}: cpu {:?}, iommu {:?}",
                    va, cpu, io
                ),
            }
        }
    }

    /// The IOTLB never invents rights: after an arbitrary interleaving
    /// of maps, unmaps, protects and translations, a successful
    /// translation always has a live, permission-sufficient entry in the
    /// authoritative I/O page table.
    fn iotlb_never_outlives_the_table(
        ops in vec((0u8..4, 0u64..12, 0u8..4), 1..64),
    ) {
        let mut iommu = Iommu::new(IotlbConfig { entries: 4, ways: 2, ..IotlbConfig::default() });
        iommu.create_context(7);
        for &(op, page, perm_bits) in &ops {
            let vp = VirtPage::new(page);
            match op {
                0 => {
                    let _ = iommu.map(7, vp, PhysFrame::new(50 + page), perms_of(perm_bits), false);
                }
                1 => {
                    let _ = iommu.unmap(7, vp);
                }
                2 => {
                    let _ = iommu.protect(7, vp, perms_of(perm_bits));
                }
                _ => {
                    let access = if perm_bits & 2 != 0 { Access::Write } else { Access::Read };
                    let result = iommu.translate(7, vp.base(), access);
                    let authoritative = iommu
                        .table(7)
                        .unwrap()
                        .entry(vp)
                        .filter(|e| e.perms.allows(access.required_perms()))
                        .copied();
                    match (result, authoritative) {
                        (Ok(pa), Some(e)) => prop_assert_eq!(pa, e.frame.base()),
                        (Err(_), None) => {}
                        (got, want) => prop_assert!(
                            false,
                            "IOTLB and table disagree on page {}: {:?} vs {:?}",
                            page, got, want
                        ),
                    }
                }
            }
        }
    }
}

/// One line of the reference IOTLB.
#[derive(Clone, Copy, Debug)]
struct RefLine {
    asid: Asid,
    page: VirtPage,
    frame: PhysFrame,
    perms: Perms,
    stamp: u64,
    prefetched: bool,
}

/// The IOTLB as a `Vec` of ways per set, the set picked by `%`, every
/// operation a scan of `Option` slots: the layout the flat [`Iotlb`]
/// replaced, kept here as the specification it must match operation by
/// operation.
struct RefIotlb {
    sets: Vec<Vec<Option<RefLine>>>,
    ways: usize,
    replacement: IotlbReplacement,
    fifo_ptr: Vec<usize>,
    tick: u64,
    rng_state: u64,
    stats: IotlbStats,
}

impl RefIotlb {
    fn new(config: IotlbConfig) -> Self {
        let num_sets = config.entries / config.ways;
        RefIotlb {
            sets: vec![vec![None; config.ways]; num_sets],
            ways: config.ways,
            replacement: config.replacement,
            fifo_ptr: vec![0; num_sets],
            tick: 0,
            rng_state: config.seed,
            stats: IotlbStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.is_some()).count()
    }

    fn set_index(&self, asid: Asid, page: VirtPage) -> usize {
        ((page.number() ^ (asid as u64).wrapping_mul(0x9E37_79B9)) % self.sets.len() as u64)
            as usize
    }

    fn next_random(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn lookup(&mut self, asid: Asid, page: VirtPage, needed: Perms) -> Option<(PhysFrame, Perms)> {
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

    fn probe(&mut self, asid: Asid, page: VirtPage, needed: Perms) -> Option<(PhysFrame, Perms)> {
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

    fn peek(&self, asid: Asid, page: VirtPage, needed: Perms) -> Option<(PhysFrame, Perms)> {
        self.sets[self.set_index(asid, page)]
            .iter()
            .flatten()
            .find(|l| l.asid == asid && l.page == page && l.perms.allows(needed))
            .map(|l| (l.frame, l.perms))
    }

    fn fill(&mut self, asid: Asid, page: VirtPage, frame: PhysFrame, perms: Perms, pf: bool) {
        if pf {
            self.stats.prefetch_fills += 1;
        }
        let idx = self.set_index(asid, page);
        self.tick += 1;
        let line = RefLine { asid, page, frame, perms, stamp: self.tick, prefetched: pf };
        if let Some(l) =
            self.sets[idx].iter_mut().flatten().find(|l| l.asid == asid && l.page == page)
        {
            if l.prefetched && !pf {
                self.stats.prefetch_unused += 1;
            }
            *l = line;
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
                    IotlbReplacement::Lru => self.sets[idx]
                        .iter()
                        .enumerate()
                        .filter_map(|(w, l)| l.map(|l| (w, l.stamp)))
                        .min_by_key(|&(_, stamp)| stamp)
                        .map(|(w, _)| w)
                        .unwrap(),
                    IotlbReplacement::Random => (self.next_random() % self.ways as u64) as usize,
                }
            }
        };
        if self.sets[idx][way].is_some_and(|victim| victim.prefetched) {
            self.stats.prefetch_unused += 1;
        }
        self.sets[idx][way] = Some(line);
    }

    fn invalidate_page(&mut self, asid: Asid, page: VirtPage) {
        self.stats.shootdowns += 1;
        let idx = self.set_index(asid, page);
        for slot in self.sets[idx].iter_mut() {
            if slot.is_some_and(|l| l.asid == asid && l.page == page) {
                self.stats.prefetch_unused += u64::from(slot.is_some_and(|l| l.prefetched));
                *slot = None;
            }
        }
    }

    fn flush_all(&mut self) {
        self.stats.tlb.flushes += 1;
        for slot in self.sets.iter_mut().flatten() {
            if let Some(l) = slot.take() {
                self.stats.prefetch_unused += u64::from(l.prefetched);
            }
        }
        self.fifo_ptr.iter_mut().for_each(|p| *p = 0);
    }
}

/// `(entries, ways)` of the differential property: one set, power-of-two
/// set counts, and set counts that are not powers of two.
const GEOMETRIES: [(usize, usize); 11] =
    [(1, 1), (4, 4), (16, 16), (2, 1), (8, 2), (16, 4), (8, 1), (6, 2), (12, 4), (10, 2), (5, 1)];

props! {
    /// The flat IOTLB is the nested one: after every `lookup`, `probe`,
    /// `peek`, `insert`, `insert_prefetched`, `invalidate_page` and
    /// `flush_all` of a random sequence, both return the same result and
    /// hold the same `len` and every `IotlbStats` counter, over single-set,
    /// power-of-two and other set counts and all three replacement
    /// policies.
    fn flat_iotlb_matches_the_nested_reference(
        geometry in 0usize..GEOMETRIES.len(),
        policy in 0usize..3,
        seed in any::<u64>(),
        ops in vec((0u8..8, 0u32..3, 0u64..24, 0u64..64, 0u8..4), 1..160),
    ) {
        let (entries, ways) = GEOMETRIES[geometry];
        let replacement =
            [IotlbReplacement::Fifo, IotlbReplacement::Lru, IotlbReplacement::Random][policy];
        let config = IotlbConfig { entries, ways, replacement, seed };
        let (mut flat, mut nested) = (Iotlb::new(config), RefIotlb::new(config));
        for (i, &(op, asid, page, frame, perm_bits)) in ops.iter().enumerate() {
            let (page, frame, perms) = (VirtPage::new(page), PhysFrame::new(frame), perms_of(perm_bits));
            let (got, want) = match op {
                0 => (flat.lookup(asid, page, perms), nested.lookup(asid, page, perms)),
                1 => (flat.probe(asid, page, perms), nested.probe(asid, page, perms)),
                2 => (flat.peek(asid, page, perms), nested.peek(asid, page, perms)),
                3 | 4 => {
                    flat.insert(asid, page, frame, perms);
                    nested.fill(asid, page, frame, perms, false);
                    (None, None)
                }
                5 => {
                    flat.insert_prefetched(asid, page, frame, perms);
                    nested.fill(asid, page, frame, perms, true);
                    (None, None)
                }
                6 => {
                    flat.invalidate_page(asid, page);
                    nested.invalidate_page(asid, page);
                    (None, None)
                }
                _ => {
                    // Rare, so the sets stay full enough to evict.
                    if frame.number() % 8 == 0 {
                        flat.flush_all();
                        nested.flush_all();
                    }
                    (None, None)
                }
            };
            prop_assert_eq!(got, want, "op {} ({}) of {:?}", i, op, config);
            prop_assert_eq!(flat.stats(), nested.stats, "after op {} ({}) of {:?}", i, op, config);
            prop_assert_eq!(flat.len(), nested.len(), "after op {} ({}) of {:?}", i, op, config);
        }
    }
}
