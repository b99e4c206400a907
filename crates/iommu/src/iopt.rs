//! Per-ASID I/O page tables: the authoritative NI-side translation
//! structure the IOTLB caches.

use crate::PinError;
use std::collections::hash_map::Entry;
use udma_mem::{MemFault, PageMap, Perms, PhysFrame, VirtPage};

/// One I/O page-table entry.
///
/// Unlike a CPU PTE it carries a *pin* bit: the OS must not swap out a
/// page while the NI may still DMA to it, so the fault service pins
/// pages as it maps them and the swapper refuses pinned pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoPte {
    /// Backing physical frame.
    pub frame: PhysFrame,
    /// Permissions granted to device accesses.
    pub perms: Perms,
    /// Whether the frame is pinned (not swappable).
    pub pinned: bool,
}

/// The I/O page table of one address space (one ASID).
#[derive(Clone, Debug, Default)]
pub struct IoPageTable {
    entries: PageMap<IoPte>,
}

impl IoPageTable {
    /// Installs a translation.
    ///
    /// # Errors
    ///
    /// [`MemFault::AlreadyMapped`] if the page already has an entry.
    pub fn map(
        &mut self,
        page: VirtPage,
        frame: PhysFrame,
        perms: Perms,
        pinned: bool,
    ) -> Result<(), MemFault> {
        match self.entries.entry(page) {
            Entry::Occupied(_) => Err(MemFault::AlreadyMapped { va: page.base() }),
            Entry::Vacant(slot) => {
                slot.insert(IoPte { frame, perms, pinned });
                Ok(())
            }
        }
    }

    /// Installs `page` pinned with `perms` in one table operation: a
    /// missing entry maps `frame`, an existing one keeps its frame and
    /// takes the new permissions. Returns whether the page had an entry.
    pub fn install_pinned(&mut self, page: VirtPage, frame: PhysFrame, perms: Perms) -> bool {
        match self.entries.entry(page) {
            Entry::Occupied(mut e) => {
                let e = e.get_mut();
                e.perms = perms;
                e.pinned = true;
                true
            }
            Entry::Vacant(slot) => {
                slot.insert(IoPte { frame, perms, pinned: true });
                false
            }
        }
    }

    /// Removes a translation, returning the old entry if present.
    pub fn unmap(&mut self, page: VirtPage) -> Option<IoPte> {
        self.entries.remove(&page)
    }

    /// Changes the permissions of an existing entry.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] if the page has no entry.
    pub fn protect(&mut self, page: VirtPage, perms: Perms) -> Result<(), MemFault> {
        match self.entries.get_mut(&page) {
            Some(e) => {
                e.perms = perms;
                Ok(())
            }
            None => Err(MemFault::Unmapped { va: page.base() }),
        }
    }

    /// Sets or clears the pin bit of an existing entry.
    ///
    /// # Errors
    ///
    /// [`PinError::Unmapped`] if the page has no entry.
    pub fn set_pinned(&mut self, page: VirtPage, pinned: bool) -> Result<(), PinError> {
        match self.entries.get_mut(&page) {
            Some(e) => {
                e.pinned = pinned;
                Ok(())
            }
            None => Err(PinError::Unmapped),
        }
    }

    /// The entry for a page.
    pub fn entry(&self, page: VirtPage) -> Option<&IoPte> {
        self.entries.get(&page)
    }
}
