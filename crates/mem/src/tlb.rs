//! A small translation lookaside buffer with statistics.

use crate::{Access, Fill, MemFault, PageTable, Perms, PhysAddr, PhysFrame, Replacement};
use crate::{SetAssoc, VirtAddr, VirtPage};

/// Hit/miss/flush/eviction counters.
///
/// Shared by the CPU-side [`Tlb`] and the NI-side IOTLB (`udma-iommu`),
/// so sweeps can report both through one shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups satisfied by the TLB.
    pub hits: u64,
    /// Lookups that had to walk the page table.
    pub misses: u64,
    /// Whole-TLB flushes (context switches).
    pub flushes: u64,
    /// Valid entries displaced to make room for a fill (capacity
    /// pressure, as opposed to flushes or targeted invalidations).
    pub evictions: u64,
}

impl TlbStats {
    /// Hit ratio in `[0, 1]`; zero if no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A fully associative TLB with FIFO replacement: one set of
/// `capacity` ways caching each page's frame and permissions.
///
/// The Alpha 21064 has a 32-entry data TLB; the default capacity matches.
/// The simulated kernel flushes it on every context switch (the 21064's
/// ASNs are not modelled — a flush is the conservative choice and charges
/// the refill cost to the switched-to process, which is one of the reasons
/// "operating systems are not getting faster" [Ousterhout 90] that the
/// paper leans on).
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: SetAssoc<VirtPage, (PhysFrame, Perms)>,
    stats: TlbStats,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new(32)
    }
}

impl Tlb {
    /// Creates a TLB holding up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be nonzero");
        Tlb {
            entries: SetAssoc::new(1, capacity, Replacement::Fifo, 0),
            stats: TlbStats::default(),
        }
    }

    /// Translates `va` through the TLB, walking `pt` on a miss and
    /// inserting the result.
    ///
    /// Returns the physical address and whether the lookup hit.
    ///
    /// # Errors
    ///
    /// Propagates the page-table fault on a miss, or raises a protection
    /// fault if the cached entry lacks the needed permission (a cached
    /// entry never grants *more* than the page table did at fill time).
    pub fn translate(
        &mut self,
        pt: &PageTable,
        va: VirtAddr,
        access: Access,
    ) -> Result<(PhysAddr, bool), MemFault> {
        let page = va.page();
        let needed = access.required_perms();
        // A cached entry without the permission is a miss: the
        // authoritative walk lets a `protect()` upgrade take effect
        // (hardware would fault to the kernel, which would then upgrade
        // the entry).
        if let Some(&mut (frame, _)) = self.entries.get(page, |(_, perms)| perms.allows(needed)) {
            self.stats.hits += 1;
            return Ok((frame.base() + va.page_offset(), true));
        }
        self.stats.misses += 1;
        let pte = *pt.walk(va, access)?;
        if let Fill::Evicted(..) = self.entries.fill(page, (pte.frame, pte.perms)) {
            self.stats.evictions += 1;
        }
        Ok((pte.frame.base() + va.page_offset(), false))
    }

    /// Drops the entry for `page`, if cached: the single-page shootdown
    /// the OS issues after unmapping a page of the running process.
    pub fn invalidate_page(&mut self, page: VirtPage) {
        self.entries.remove(page);
    }

    /// Invalidates everything (context switch).
    pub fn flush_all(&mut self) {
        self.entries.drain(|_, _| {});
        self.stats.flushes += 1;
    }

    /// Current statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameAllocator, PAGE_SIZE};

    fn small_world() -> (PageTable, Tlb) {
        let mut pt = PageTable::new();
        let mut alloc = FrameAllocator::new(64 * PAGE_SIZE);
        for p in 0..8u64 {
            let f = alloc.alloc().unwrap();
            pt.map(VirtPage::new(p), f, Perms::READ_WRITE).unwrap();
        }
        (pt, Tlb::new(4))
    }

    #[test]
    fn miss_then_hit() {
        let (pt, mut tlb) = small_world();
        let va = VirtAddr::new(0x18);
        let (pa1, hit1) = tlb.translate(&pt, va, Access::Read).unwrap();
        assert!(!hit1);
        let (pa2, hit2) = tlb.translate(&pt, va, Access::Read).unwrap();
        assert!(hit2);
        assert_eq!(pa1, pa2);
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1, flushes: 0, evictions: 0 });
    }

    #[test]
    fn fifo_eviction() {
        let (pt, mut tlb) = small_world();
        for p in 0..5u64 {
            tlb.translate(&pt, VirtPage::new(p).base(), Access::Read).unwrap();
        }
        assert_eq!(tlb.len(), 4);
        assert_eq!(tlb.stats().evictions, 1);
        // Page 0 was the FIFO victim; touching it again misses.
        let (_, hit) = tlb.translate(&pt, VirtAddr::new(0), Access::Read).unwrap();
        assert!(!hit);
        assert_eq!(tlb.stats().evictions, 2);
        // Page 2 is still resident.
        let (_, hit) = tlb.translate(&pt, VirtPage::new(2).base(), Access::Read).unwrap();
        assert!(hit);
    }

    #[test]
    fn flush_all_counts_and_clears() {
        let (pt, mut tlb) = small_world();
        tlb.translate(&pt, VirtAddr::new(0), Access::Read).unwrap();
        tlb.flush_all();
        assert!(tlb.is_empty());
        assert_eq!(tlb.stats().flushes, 1);
        let (_, hit) = tlb.translate(&pt, VirtAddr::new(0), Access::Read).unwrap();
        assert!(!hit);
    }

    #[test]
    fn cached_entry_enforces_perms_via_rewalk() {
        let mut pt = PageTable::new();
        pt.map(VirtPage::new(0), PhysFrame::new(0), Perms::READ).unwrap();
        let mut tlb = Tlb::new(4);
        tlb.translate(&pt, VirtAddr::new(0), Access::Read).unwrap();
        // Write through a read-only cached entry faults via the table walk.
        assert!(tlb.translate(&pt, VirtAddr::new(0), Access::Write).is_err());
        // After an upgrade the rewalk picks up the new permission.
        pt.protect(VirtPage::new(0), Perms::READ_WRITE).unwrap();
        assert!(tlb.translate(&pt, VirtAddr::new(0), Access::Write).is_ok());
    }

    #[test]
    fn fault_propagates_and_counts_miss() {
        let pt = PageTable::new();
        let mut tlb = Tlb::new(4);
        assert!(tlb.translate(&pt, VirtAddr::new(0x9000), Access::Read).is_err());
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn hit_ratio() {
        let (pt, mut tlb) = small_world();
        assert_eq!(tlb.stats().hit_ratio(), 0.0);
        tlb.translate(&pt, VirtAddr::new(0), Access::Read).unwrap();
        tlb.translate(&pt, VirtAddr::new(8), Access::Read).unwrap();
        assert!((tlb.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rewalk_replaces_the_same_page_in_place() {
        let mut pt = PageTable::new();
        pt.map(VirtPage::new(1), PhysFrame::new(1), Perms::READ).unwrap();
        let mut tlb = Tlb::new(2);
        tlb.translate(&pt, VirtPage::new(1).base(), Access::Read).unwrap();
        pt.protect(VirtPage::new(1), Perms::READ_WRITE).unwrap();
        tlb.translate(&pt, VirtPage::new(1).base(), Access::Write).unwrap();
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.stats().evictions, 0);
    }

    #[test]
    fn invalidate_page_is_selective() {
        let (pt, mut tlb) = small_world();
        tlb.translate(&pt, VirtPage::new(0).base(), Access::Read).unwrap();
        tlb.translate(&pt, VirtPage::new(1).base(), Access::Read).unwrap();
        tlb.invalidate_page(VirtPage::new(0));
        assert_eq!(tlb.len(), 1);
        assert!(!tlb.translate(&pt, VirtPage::new(0).base(), Access::Read).unwrap().1);
        assert!(tlb.translate(&pt, VirtPage::new(1).base(), Access::Read).unwrap().1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }
}
