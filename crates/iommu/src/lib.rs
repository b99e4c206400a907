//! NI-side address translation for virtual-address DMA.
//!
//! The paper's shadow-addressing protocols make the *user* prove a
//! physical address, so every transfer in the base reproduction names a
//! pre-translated, resident frame. The Telegraphos follow-on work
//! (Psistakis et al., *IOMMU Support for Virtual-Address Remote DMA*
//! and *Handling of Memory Page Faults during Virtual-Address RDMA*)
//! moves the translation into the network interface instead: user code
//! posts **virtual** addresses, the NI walks an I/O page table, caches
//! translations in an ASID-tagged **IOTLB**, and raises an I/O page
//! fault when a page is unmapped or swapped out.
//!
//! This crate is that translation unit, deliberately free of any engine
//! or OS dependency so both sides can share it:
//!
//! * [`IoPageTable`] — per-ASID authoritative translations, with a pin
//!   bit the swapper honours, in the page-keyed hash map
//!   ([`udma_mem::PageMap`]) the CPU page table uses too;
//! * [`Iotlb`] — set-associative, ASID-tagged translation cache on the
//!   shared [`udma_mem::SetAssoc`] array, with
//!   configurable replacement and full hit/miss/eviction/shootdown
//!   statistics ([`IotlbStats`] embeds the CPU-side
//!   [`udma_mem::TlbStats`] shape);
//! * [`IoFault`]/[`FaultQueue`] — what the engine reports to the OS
//!   fault service when a translation fails mid-transfer;
//! * [`Iommu`] — the unit itself: context lifecycle, map/unmap with
//!   IOTLB shootdown, and [`Iommu::translate`], the one call the DMA
//!   engine makes per page of a virtual-address transfer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod fault;
mod iopt;
mod iotlb;

pub use fault::{FaultQueue, IoFault, IoFaultKind};
pub use iopt::{IoPageTable, IoPte};
pub use iotlb::{Iotlb, IotlbConfig, IotlbReplacement, IotlbStats};

use std::collections::BTreeMap;
use udma_mem::{Access, MemFault, Perms, PhysAddr, PhysFrame, VirtAddr, VirtPage, PAGE_SIZE};

/// Address-space identifier. The machine uses the granted register
/// context id: the OS hands each process at most one context, so the
/// context id already names the posting address space uniquely.
pub type Asid = u32;

/// Why a pin/unpin request failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinError {
    /// The page has no I/O page-table entry.
    Unmapped,
    /// The ASID has no I/O page table.
    NoContext,
}

/// The IOMMU: per-ASID I/O page tables behind one shared IOTLB.
#[derive(Clone, Debug)]
pub struct Iommu {
    tables: BTreeMap<Asid, IoPageTable>,
    tlb: Iotlb,
}

impl Iommu {
    /// Creates an IOMMU with the given IOTLB geometry.
    pub fn new(config: IotlbConfig) -> Self {
        Iommu { tables: BTreeMap::new(), tlb: Iotlb::new(config) }
    }

    /// Registers an address space (idempotent).
    pub fn create_context(&mut self, asid: Asid) {
        self.tables.entry(asid).or_default();
    }

    /// Whether `asid` is registered.
    pub fn has_context(&self, asid: Asid) -> bool {
        self.tables.contains_key(&asid)
    }

    /// The I/O page table of one address space.
    pub fn table(&self, asid: Asid) -> Option<&IoPageTable> {
        self.tables.get(&asid)
    }

    /// Installs a translation for `asid`.
    ///
    /// # Errors
    ///
    /// [`MemFault::AlreadyMapped`] if the page already has an entry;
    /// [`MemFault::Unmapped`] if the ASID is not registered.
    pub fn map(
        &mut self,
        asid: Asid,
        page: VirtPage,
        frame: PhysFrame,
        perms: Perms,
        pinned: bool,
    ) -> Result<(), MemFault> {
        self.tables
            .get_mut(&asid)
            .ok_or(MemFault::Unmapped { va: page.base() })?
            .map(page, frame, perms, pinned)
    }

    /// Removes a translation and shoots the page down from the IOTLB.
    /// Returns the removed entry, if any.
    pub fn unmap(&mut self, asid: Asid, page: VirtPage) -> Option<IoPte> {
        let old = self.tables.get_mut(&asid)?.unmap(page)?;
        self.tlb.invalidate_page(asid, page);
        Some(old)
    }

    /// Changes the permissions of an installed translation and shoots
    /// the stale IOTLB line down.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] if the ASID or page is not installed.
    pub fn protect(&mut self, asid: Asid, page: VirtPage, perms: Perms) -> Result<(), MemFault> {
        self.tables
            .get_mut(&asid)
            .ok_or(MemFault::Unmapped { va: page.base() })?
            .protect(page, perms)?;
        self.tlb.invalidate_page(asid, page);
        Ok(())
    }

    /// Sets or clears the pin bit of an installed translation.
    ///
    /// # Errors
    ///
    /// [`PinError`] naming what was missing.
    pub fn set_pinned(&mut self, asid: Asid, page: VirtPage, pinned: bool) -> Result<(), PinError> {
        self.tables.get_mut(&asid).ok_or(PinError::NoContext)?.set_pinned(page, pinned)
    }

    /// Installs a pinned translation in one table operation, the fault
    /// service's step. A page without an entry maps `frame`; a page with
    /// one (a stale, narrower entry behind a protection fault) keeps its
    /// frame, takes `perms`, and has its IOTLB line shot down.
    ///
    /// # Errors
    ///
    /// [`PinError::NoContext`] if the ASID is not registered.
    pub fn install_pinned(
        &mut self,
        asid: Asid,
        page: VirtPage,
        frame: PhysFrame,
        perms: Perms,
    ) -> Result<(), PinError> {
        let table = self.tables.get_mut(&asid).ok_or(PinError::NoContext)?;
        if table.install_pinned(page, frame, perms) {
            self.tlb.invalidate_page(asid, page);
        }
        Ok(())
    }

    /// Translates a device access: IOTLB first, one I/O page-table walk
    /// on a miss (filling the IOTLB), fault if the walk fails. This is
    /// the per-page step of every virtual-address DMA.
    ///
    /// # Errors
    ///
    /// The [`IoFault`] the engine should queue for the OS.
    pub fn translate(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        access: Access,
    ) -> Result<PhysAddr, IoFault> {
        let fault = |kind| IoFault { asid, va, access, kind };
        let needed = access.required_perms();
        let page = va.page();
        if let Some((frame, _)) = self.tlb.lookup(asid, page, needed) {
            return Ok(frame.base() + va.page_offset());
        }
        let table = self.tables.get(&asid).ok_or(fault(IoFaultKind::NoContext))?;
        let pte = *table.entry(page).ok_or(fault(IoFaultKind::Unmapped))?;
        if !pte.perms.allows(needed) {
            return Err(fault(IoFaultKind::Protection { needed, granted: pte.perms }));
        }
        self.tlb.insert(asid, page, pte.frame, pte.perms);
        Ok(pte.frame.base() + va.page_offset())
    }

    /// Peeks at the IOTLB for the frame backing `page`, without ever
    /// counting a miss: the engine's chunk coalescer uses this to ask
    /// "is the next page's translation already resident and does it
    /// continue the current chunk physically?" A hit is a real use
    /// (the frame feeds a merged chunk) so it counts as one; a miss
    /// counts nothing and the demand path translates — or faults — at
    /// that boundary as if the probe never happened.
    pub fn probe(&mut self, asid: Asid, page: VirtPage, access: Access) -> Option<PhysFrame> {
        self.tlb.probe(asid, page, access.required_perms()).map(|(frame, _)| frame)
    }

    /// The frame a resident IOTLB entry maps `page` to, read without
    /// counting a hit or miss and without touching replacement state
    /// (inspection only; see [`Iotlb::peek`]).
    pub fn peek(&self, asid: Asid, page: VirtPage, access: Access) -> Option<PhysFrame> {
        self.tlb.peek(asid, page, access.required_perms()).map(|(frame, _)| frame)
    }

    /// Walks the I/O page table ahead of the streaming cursor and
    /// prefills the IOTLB for every page of `[va, va + len)` not
    /// already cached with permissions sufficient for `access`.
    ///
    /// Prefetch is best-effort and **never raises a fault**: the walk
    /// stops at the first page the table cannot resolve (unmapped,
    /// swapped out, or permission-insufficient) and leaves the demand
    /// path to fault at exactly that boundary. Already-resident pages
    /// are skipped without touching any hit/miss counter.
    ///
    /// Returns the number of table walks performed, so the caller can
    /// charge them at an amortized batch latency (the walks pipeline
    /// behind one another instead of each blocking the chunk stream).
    pub fn prewalk_range(&mut self, asid: Asid, va: VirtAddr, len: u64, access: Access) -> u64 {
        if len == 0 {
            return 0;
        }
        let needed = access.required_perms();
        let Some(table) = self.tables.get(&asid) else { return 0 };
        let first = va.page().number();
        let pages = (va.page_offset() + len).div_ceil(PAGE_SIZE);
        let mut walks = 0;
        for n in first..first + pages {
            let page = VirtPage::new(n);
            if self.tlb.contains(asid, page, needed) {
                continue;
            }
            match table.entry(page) {
                Some(pte) if pte.perms.allows(needed) => {
                    self.tlb.insert_prefetched(asid, page, pte.frame, pte.perms);
                    walks += 1;
                }
                _ => break,
            }
        }
        walks
    }

    /// Combined IOTLB statistics.
    pub fn stats(&self) -> IotlbStats {
        self.tlb.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_mem::PAGE_SIZE;

    fn iommu() -> Iommu {
        let mut i = Iommu::new(IotlbConfig::default());
        i.create_context(1);
        i
    }

    #[test]
    fn translate_walks_then_hits() {
        let mut i = iommu();
        i.map(1, VirtPage::new(4), PhysFrame::new(11), Perms::READ_WRITE, true).unwrap();
        let va = VirtAddr::new(4 * PAGE_SIZE + 8);
        let pa = i.translate(1, va, Access::Write).unwrap();
        assert_eq!(pa, PhysFrame::new(11).base() + 8);
        assert_eq!(i.stats().tlb.misses, 1);
        let pa2 = i.translate(1, va, Access::Read).unwrap();
        assert_eq!(pa, pa2);
        assert_eq!(i.stats().tlb.hits, 1);
    }

    #[test]
    fn faults_carry_asid_and_kind() {
        let mut i = iommu();
        let f = i.translate(1, VirtAddr::new(0), Access::Read).unwrap_err();
        assert_eq!(f.kind, IoFaultKind::Unmapped);
        assert_eq!(f.asid, 1);
        let f = i.translate(9, VirtAddr::new(0), Access::Read).unwrap_err();
        assert_eq!(f.kind, IoFaultKind::NoContext);
    }

    #[test]
    fn unmap_shoots_down_the_iotlb() {
        let mut i = iommu();
        i.map(1, VirtPage::new(4), PhysFrame::new(11), Perms::READ, false).unwrap();
        i.translate(1, VirtPage::new(4).base(), Access::Read).unwrap();
        i.unmap(1, VirtPage::new(4)).unwrap();
        // A stale IOTLB line must not survive the unmap.
        assert!(i.translate(1, VirtPage::new(4).base(), Access::Read).is_err());
        assert_eq!(i.stats().shootdowns, 1);
    }

    #[test]
    fn protect_invalidates_stale_permissions() {
        let mut i = iommu();
        i.map(1, VirtPage::new(2), PhysFrame::new(5), Perms::READ_WRITE, false).unwrap();
        i.translate(1, VirtPage::new(2).base(), Access::Write).unwrap();
        i.protect(1, VirtPage::new(2), Perms::READ).unwrap();
        let f = i.translate(1, VirtPage::new(2).base(), Access::Write).unwrap_err();
        assert!(matches!(f.kind, IoFaultKind::Protection { .. }));
        assert!(i.translate(1, VirtPage::new(2).base(), Access::Read).is_ok());
    }

    #[test]
    fn prewalk_stops_at_the_first_hole_and_raises_no_fault() {
        let mut i = iommu();
        for p in 0..3u64 {
            i.map(1, VirtPage::new(p), PhysFrame::new(10 + p), Perms::READ_WRITE, true).unwrap();
        }
        // Page 3 is a hole; pages 4.. are mapped but unreachable by a
        // straight-line prefetch.
        i.map(1, VirtPage::new(4), PhysFrame::new(20), Perms::READ_WRITE, true).unwrap();
        let walks = i.prewalk_range(1, VirtAddr::new(0), 6 * PAGE_SIZE, Access::Write);
        assert_eq!(walks, 3);
        assert_eq!(i.stats().prefetch_fills, 3);
        assert_eq!(i.stats().tlb.misses, 0, "prefetch walks are not demand misses");
        // Demand hits on the prefilled pages take no walk and are
        // counted as hidden misses.
        for p in 0..3u64 {
            i.translate(1, VirtPage::new(p).base(), Access::Write).unwrap();
        }
        assert_eq!(i.stats().tlb.hits, 3);
        assert_eq!(i.stats().prefetch_hidden, 3);
        // A second prewalk of the same range skips resident pages.
        assert_eq!(i.prewalk_range(1, VirtAddr::new(0), 3 * PAGE_SIZE, Access::Write), 0);
    }

    #[test]
    fn prewalk_respects_shootdown() {
        let mut i = iommu();
        i.map(1, VirtPage::new(0), PhysFrame::new(3), Perms::READ_WRITE, false).unwrap();
        assert_eq!(i.prewalk_range(1, VirtAddr::new(0), PAGE_SIZE, Access::Write), 1);
        // Swap-out between prewalk and use: the prefetched line must not
        // serve a stale frame.
        i.unmap(1, VirtPage::new(0));
        let f = i.translate(1, VirtAddr::new(0), Access::Write).unwrap_err();
        assert_eq!(f.kind, IoFaultKind::Unmapped);
        assert_eq!(i.stats().prefetch_unused, 1);
    }

    #[test]
    fn map_translate_round_trip() {
        let mut i = iommu();
        i.map(1, VirtPage::new(2), PhysFrame::new(7), Perms::READ_WRITE, true).unwrap();
        let pa = i.translate(1, VirtAddr::new(2 * PAGE_SIZE + 0x18), Access::Write).unwrap();
        assert_eq!(pa, PhysFrame::new(7).base() + 0x18);
        assert!(i.table(1).unwrap().entry(VirtPage::new(2)).unwrap().pinned);
    }

    #[test]
    fn unmapped_and_protection_faults() {
        let mut i = iommu();
        let f = i.translate(1, VirtAddr::new(0), Access::Read).unwrap_err();
        assert_eq!(f.kind, IoFaultKind::Unmapped);
        i.map(1, VirtPage::new(0), PhysFrame::new(1), Perms::READ, false).unwrap();
        assert!(i.translate(1, VirtAddr::new(0), Access::Read).is_ok());
        // The read's IOTLB line refuses the write, which walks.
        let f = i.translate(1, VirtAddr::new(8), Access::Write).unwrap_err();
        assert_eq!(f.kind, IoFaultKind::Protection { needed: Perms::WRITE, granted: Perms::READ });
        assert_eq!(f.va, VirtAddr::new(8));
    }

    #[test]
    fn double_map_rejected_unmap_clears() {
        let mut i = iommu();
        i.map(1, VirtPage::new(1), PhysFrame::new(1), Perms::READ, false).unwrap();
        assert!(matches!(
            i.map(1, VirtPage::new(1), PhysFrame::new(2), Perms::READ, false),
            Err(MemFault::AlreadyMapped { .. })
        ));
        let old = i.unmap(1, VirtPage::new(1)).unwrap();
        assert_eq!(old.frame, PhysFrame::new(1));
        let f = i.translate(1, VirtPage::new(1).base(), Access::Read).unwrap_err();
        assert_eq!(f.kind, IoFaultKind::Unmapped);
        assert!(i.unmap(1, VirtPage::new(1)).is_none());
    }

    #[test]
    fn protect_and_pin_update_entries() {
        let mut i = iommu();
        i.map(1, VirtPage::new(3), PhysFrame::new(3), Perms::READ, false).unwrap();
        i.protect(1, VirtPage::new(3), Perms::READ_WRITE).unwrap();
        assert!(i.translate(1, VirtPage::new(3).base(), Access::Write).is_ok());
        i.set_pinned(1, VirtPage::new(3), true).unwrap();
        assert!(i.table(1).unwrap().entry(VirtPage::new(3)).unwrap().pinned);
        assert!(i.protect(1, VirtPage::new(9), Perms::READ).is_err());
        assert_eq!(i.set_pinned(1, VirtPage::new(9), true), Err(PinError::Unmapped));
    }

    #[test]
    fn install_pinned_maps_or_refreshes_in_place() {
        let mut i = iommu();
        // Absent: mapped pinned, no shootdown.
        i.install_pinned(1, VirtPage::new(5), PhysFrame::new(8), Perms::READ).unwrap();
        let pte = *i.table(1).unwrap().entry(VirtPage::new(5)).unwrap();
        assert_eq!(pte, IoPte { frame: PhysFrame::new(8), perms: Perms::READ, pinned: true });
        assert_eq!(i.stats().shootdowns, 0);
        i.translate(1, VirtPage::new(5).base(), Access::Read).unwrap();
        // Present: the frame stays, the permissions widen, and the
        // cached read-only line is shot down.
        i.install_pinned(1, VirtPage::new(5), PhysFrame::new(99), Perms::READ_WRITE).unwrap();
        let pte = *i.table(1).unwrap().entry(VirtPage::new(5)).unwrap();
        assert_eq!(pte, IoPte { frame: PhysFrame::new(8), perms: Perms::READ_WRITE, pinned: true });
        assert_eq!(i.stats().shootdowns, 1);
        assert!(i.translate(1, VirtPage::new(5).base(), Access::Write).is_ok());
        assert_eq!(
            i.install_pinned(4, VirtPage::new(5), PhysFrame::new(8), Perms::READ),
            Err(PinError::NoContext)
        );
    }

    #[test]
    fn map_requires_a_context() {
        let mut i = Iommu::new(IotlbConfig::default());
        assert!(i.map(3, VirtPage::new(0), PhysFrame::new(1), Perms::READ, false).is_err());
        assert_eq!(i.set_pinned(3, VirtPage::new(0), true), Err(PinError::NoContext));
    }
}
