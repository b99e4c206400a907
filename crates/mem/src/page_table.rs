//! Per-process page tables.

use crate::{MemFault, PageMap, Perms, PhysAddr, PhysFrame, VirtAddr, VirtPage};
use std::collections::hash_map::Entry;

/// The kind of access an instruction performs, used for permission checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl Access {
    /// The permission this access requires.
    pub fn required_perms(self) -> Perms {
        match self {
            Access::Read => Perms::READ,
            Access::Write => Perms::WRITE,
        }
    }
}

/// A single page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PteEntry {
    /// Backing physical frame.
    pub frame: PhysFrame,
    /// Granted permissions.
    pub perms: Perms,
}

/// A per-process virtual→physical mapping with protection bits.
///
/// This models what the OSF/1 kernel keeps per process and what the TLB
/// caches. The paper's shadow mappings are ordinary entries here whose
/// frames happen to lie inside the DMA engine's shadow window — exactly
/// the trick of §2.3: "the operating system is responsible for creating
/// both mappings at memory allocation time".
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    entries: PageMap<PteEntry>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a mapping from `page` to `frame` with `perms`.
    ///
    /// # Errors
    ///
    /// [`MemFault::AlreadyMapped`] if `page` already has an entry; unmap it
    /// first (the model kernel never silently remaps).
    pub fn map(&mut self, page: VirtPage, frame: PhysFrame, perms: Perms) -> Result<(), MemFault> {
        match self.entries.entry(page) {
            Entry::Occupied(_) => Err(MemFault::AlreadyMapped { va: page.base() }),
            Entry::Vacant(slot) => {
                slot.insert(PteEntry { frame, perms });
                Ok(())
            }
        }
    }

    /// Removes the mapping for `page`, returning the old entry if any.
    pub fn unmap(&mut self, page: VirtPage) -> Option<PteEntry> {
        self.entries.remove(&page)
    }

    /// Changes the permissions of an existing mapping.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] if `page` has no entry.
    pub fn protect(&mut self, page: VirtPage, perms: Perms) -> Result<(), MemFault> {
        match self.entries.get_mut(&page) {
            Some(e) => {
                e.perms = perms;
                Ok(())
            }
            None => Err(MemFault::Unmapped { va: page.base() }),
        }
    }

    /// Looks up the entry for `page` without a permission check.
    pub fn entry(&self, page: VirtPage) -> Option<&PteEntry> {
        self.entries.get(&page)
    }

    /// Translates `va` for an access of kind `access`.
    ///
    /// This is the software walk the kernel performs in Figure 1's
    /// `virtual_to_physical`, and the ground truth the [`crate::Tlb`]
    /// caches.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] if no entry exists;
    /// [`MemFault::Protection`] if the entry lacks the needed permission.
    pub fn translate(&self, va: VirtAddr, access: Access) -> Result<PhysAddr, MemFault> {
        self.walk(va, access).map(|e| e.frame.base() + va.page_offset())
    }

    /// The entry for `va`'s page, if it allows `access`: the walk behind
    /// [`translate`](Self::translate), for callers that cache the entry.
    ///
    /// # Errors
    ///
    /// As for [`translate`](Self::translate).
    pub fn walk(&self, va: VirtAddr, access: Access) -> Result<&PteEntry, MemFault> {
        let e = self.entries.get(&va.page()).ok_or(MemFault::Unmapped { va })?;
        let needed = access.required_perms();
        if !e.perms.allows(needed) {
            return Err(MemFault::Protection { va, needed, granted: e.perms });
        }
        Ok(e)
    }

    /// Translates a whole byte range, checking every page it touches.
    ///
    /// This is the `check_size()` of Figure 1: kernel-level DMA validates
    /// the *entire* transfer range, which is what lets it safely cross page
    /// boundaries (user-level DMA cannot, see the NIC crate).
    ///
    /// Returns the physical address of the first byte.
    ///
    /// # Errors
    ///
    /// As for [`translate`](Self::translate), for the first failing page.
    pub fn translate_range(
        &self,
        va: VirtAddr,
        len: u64,
        access: Access,
    ) -> Result<PhysAddr, MemFault> {
        let first = self.translate(va, access)?;
        if len == 0 {
            return Ok(first);
        }
        let last = va.checked_add(len - 1).ok_or(MemFault::Unmapped { va })?;
        let mut page = va.page();
        while page <= last.page() {
            self.translate(page.base(), access)?;
            page = page.offset(1);
        }
        Ok(first)
    }

    /// Number of mappings installed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no mappings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(page, entry)` pairs in virtual-address order.
    /// The table is hashed, so this sorts a list of its entries first.
    pub fn iter(&self) -> impl Iterator<Item = (&VirtPage, &PteEntry)> {
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_unstable_by_key(|&(page, _)| *page);
        entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    fn table_with(page: u64, frame: u64, perms: Perms) -> PageTable {
        let mut pt = PageTable::new();
        pt.map(VirtPage::new(page), PhysFrame::new(frame), perms).unwrap();
        pt
    }

    #[test]
    fn translate_preserves_offset() {
        let pt = table_with(2, 7, Perms::READ_WRITE);
        let va = VirtAddr::new(2 * PAGE_SIZE + 0x123);
        let pa = pt.translate(va, Access::Read).unwrap();
        assert_eq!(pa, PhysAddr::new(7 * PAGE_SIZE + 0x123));
    }

    #[test]
    fn unmapped_faults() {
        let pt = PageTable::new();
        let va = VirtAddr::new(0x5000);
        assert_eq!(pt.translate(va, Access::Read), Err(MemFault::Unmapped { va }));
    }

    #[test]
    fn protection_faults_on_write_to_readonly() {
        let pt = table_with(0, 0, Perms::READ);
        let va = VirtAddr::new(0x8);
        assert!(pt.translate(va, Access::Read).is_ok());
        assert_eq!(
            pt.translate(va, Access::Write),
            Err(MemFault::Protection { va, needed: Perms::WRITE, granted: Perms::READ })
        );
    }

    #[test]
    fn write_only_page_rejects_reads() {
        let pt = table_with(0, 0, Perms::WRITE);
        let va = VirtAddr::new(0x8);
        assert!(pt.translate(va, Access::Write).is_ok());
        assert!(matches!(pt.translate(va, Access::Read), Err(MemFault::Protection { .. })));
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = table_with(1, 1, Perms::READ);
        assert_eq!(
            pt.map(VirtPage::new(1), PhysFrame::new(2), Perms::READ),
            Err(MemFault::AlreadyMapped { va: VirtPage::new(1).base() })
        );
    }

    #[test]
    fn unmap_then_translate_faults() {
        let mut pt = table_with(1, 1, Perms::READ);
        let old = pt.unmap(VirtPage::new(1)).unwrap();
        assert_eq!(old.frame, PhysFrame::new(1));
        assert!(pt.translate(VirtPage::new(1).base(), Access::Read).is_err());
        assert!(pt.unmap(VirtPage::new(1)).is_none());
    }

    #[test]
    fn protect_changes_perms() {
        let mut pt = table_with(1, 1, Perms::READ);
        pt.protect(VirtPage::new(1), Perms::READ_WRITE).unwrap();
        assert!(pt.translate(VirtPage::new(1).base(), Access::Write).is_ok());
        assert!(pt.protect(VirtPage::new(9), Perms::READ).is_err());
    }

    #[test]
    fn translate_range_checks_every_page() {
        let mut pt = PageTable::new();
        pt.map(VirtPage::new(0), PhysFrame::new(10), Perms::READ_WRITE).unwrap();
        pt.map(VirtPage::new(1), PhysFrame::new(11), Perms::READ).unwrap();
        // page 2 unmapped

        // Read across pages 0..=1 ok.
        let pa =
            pt.translate_range(VirtAddr::new(0x10), 2 * PAGE_SIZE - 0x20, Access::Read).unwrap();
        assert_eq!(pa, PhysAddr::new(10 * PAGE_SIZE + 0x10));

        // Write across pages 0..=1 faults on page 1.
        assert!(matches!(
            pt.translate_range(VirtAddr::new(0x10), PAGE_SIZE, Access::Write),
            Err(MemFault::Protection { .. })
        ));

        // Range reaching page 2 faults unmapped.
        assert!(matches!(
            pt.translate_range(VirtAddr::new(0x0), 3 * PAGE_SIZE, Access::Read),
            Err(MemFault::Unmapped { .. })
        ));
    }

    #[test]
    fn translate_range_zero_len() {
        let pt = table_with(0, 0, Perms::READ);
        assert!(pt.translate_range(VirtAddr::new(0x8), 0, Access::Read).is_ok());
    }

    #[test]
    fn iter_in_va_order() {
        let mut pt = PageTable::new();
        pt.map(VirtPage::new(5), PhysFrame::new(1), Perms::READ).unwrap();
        pt.map(VirtPage::new(2), PhysFrame::new(2), Perms::READ).unwrap();
        let pages: Vec<u64> = pt.iter().map(|(p, _)| p.number()).collect();
        assert_eq!(pages, vec![2, 5]);
        assert_eq!(pt.len(), 2);
        assert!(!pt.is_empty());
    }
}
