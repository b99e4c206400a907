//! OS-side service of I/O page faults raised during virtual-address DMA.
//!
//! When the engine's IOMMU cannot translate a page mid-transfer it pauses
//! the transfer and queues an [`IoFault`]. This module is the kernel
//! handler that drains the queue: it consults the faulting process's
//! **CPU page table** — the ground truth of what the process may touch —
//! and either installs the missing I/O translation (pinning the page so
//! the swapper keeps its hands off until the transfer drains), swaps the
//! page back in first, or declares the fault unresolvable, after which
//! the OS fails the transfer. Costs are charged in simulated time so the
//! fault path's expense relative to an IOTLB hit is measurable (the E12
//! experiment).
//!
//! The alternative discipline, pin-on-post ([`pin_range`]), registers a
//! whole buffer up front — RDMA-style memory registration: transfers
//! then never fault, at the cost of eager pinning.

use crate::VmManager;
use udma_bus::SimTime;
use udma_iommu::{Asid, IoFault, IoFaultKind, Iommu};
use udma_mem::{MemFault, PageTable, Perms, VirtAddr, VirtPage, PAGE_SIZE};

/// Fault-service entry cost: interrupt delivery, queue pop, table
/// lookup.
pub const FAULT_SERVICE_BASE: SimTime = SimTime::from_us(5);

/// Installing one I/O page-table entry (plus shootdown bookkeeping).
pub const FAULT_MAP_PAGE: SimTime = SimTime::from_us(1);

/// Bringing a swapped-out page back from backing store. Dominates the
/// other fault-service costs, as a real page-in does.
pub const FAULT_SWAP_IN: SimTime = SimTime::from_us(50);

/// How a fault was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultResolution {
    /// The page was resident and accessible; its I/O translation was
    /// installed (pinned).
    Mapped,
    /// The page was swapped out; it was brought back and its I/O
    /// translation installed (pinned).
    SwappedIn,
    /// The posting address space has no right to the page (or no such
    /// page at all). The transfer must be failed.
    Unresolvable,
}

/// Counters of the fault service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultServiceStats {
    /// Faults serviced (all outcomes).
    pub serviced: u64,
    /// Resolved by installing a translation for a resident page.
    pub mapped: u64,
    /// Resolved by swapping the page back in first.
    pub swapped_in: u64,
    /// Declared unresolvable.
    pub unresolvable: u64,
    /// Extra pages of an announced range pre-installed beyond the
    /// faulting page itself (the one-NACK-per-range discipline).
    pub range_prefilled: u64,
    /// Total simulated time spent servicing.
    pub busy: SimTime,
}

/// The kernel's I/O fault handler.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultService {
    stats: FaultServiceStats,
}

impl FaultService {
    /// Service counters.
    pub fn stats(&self) -> FaultServiceStats {
        self.stats
    }

    /// Services one fault against the faulting process's CPU page table.
    /// Returns the resolution of the faulting page and the simulated
    /// time the service took; the caller resumes (or fails) the paused
    /// transfer accordingly.
    ///
    /// `announced` is the destination range `(va, len)` of the incoming
    /// transfer, when its sender announced one. Then, in the same kernel
    /// entry, every further page of the range gets a pinned I/O
    /// translation too, so the device takes **one** fault for the whole
    /// range instead of one per page. The entry cost
    /// ([`FAULT_SERVICE_BASE`]) is charged once; each extra page adds
    /// [`FAULT_MAP_PAGE`] (plus [`FAULT_SWAP_IN`] if it was paged out).
    /// Pages already translated are skipped, which keeps the call
    /// idempotent under retransmitted fault notifications; the walk
    /// stops at the first page the table does not map or whose
    /// permissions refuse the access (the transfer faults there on its
    /// own if it ever reaches it).
    pub fn service(
        &mut self,
        fault: &IoFault,
        announced: Option<(VirtAddr, u64)>,
        pt: &mut PageTable,
        vm: &mut VmManager,
        iommu: &mut Iommu,
    ) -> (FaultResolution, SimTime) {
        let (asid, needed) = (fault.asid, fault.access.required_perms());
        let mut cost = FAULT_SERVICE_BASE;
        let resolution = if fault.kind == IoFaultKind::NoContext || !iommu.has_context(asid) {
            FaultResolution::Unresolvable
        } else {
            let page = self.bring_in(asid, fault.va.page(), needed, pt, vm, iommu);
            cost += page.cost;
            match page {
                PageIn { installed: false, .. } => FaultResolution::Unresolvable,
                PageIn { swapped_in: true, .. } => FaultResolution::SwappedIn,
                PageIn { .. } => FaultResolution::Mapped,
            }
        };
        self.stats.serviced += 1;
        match resolution {
            FaultResolution::Mapped => self.stats.mapped += 1,
            FaultResolution::SwappedIn => self.stats.swapped_in += 1,
            FaultResolution::Unresolvable => self.stats.unresolvable += 1,
        }
        let resolved = resolution != FaultResolution::Unresolvable;
        if let Some((va, len)) = announced.filter(|&(_, len)| resolved && len > 0) {
            let first = va.page().number();
            let pages = (va.page_offset() + len).div_ceil(PAGE_SIZE);
            for page in (first..first + pages).map(VirtPage::new) {
                if page == fault.va.page()
                    || iommu.table(asid).is_some_and(|t| t.entry(page).is_some())
                {
                    continue;
                }
                let extra = self.bring_in(asid, page, needed, pt, vm, iommu);
                cost += extra.cost;
                self.stats.swapped_in += u64::from(extra.swapped_in);
                if !extra.installed {
                    break;
                }
                self.stats.range_prefilled += 1;
            }
        }
        self.stats.busy += cost;
        (resolution, cost)
    }

    /// Brings one page of `asid` in for an access needing `needed`: swaps
    /// it back in if the swapper took it, then, if the CPU page table
    /// grants the access, installs its PTE pinned in the I/O page table.
    fn bring_in(
        &self,
        asid: Asid,
        page: VirtPage,
        needed: Perms,
        pt: &mut PageTable,
        vm: &mut VmManager,
        iommu: &mut Iommu,
    ) -> PageIn {
        let mut cost = SimTime::ZERO;
        // Refused unless the swap ledger holds the page.
        let swapped_in = vm.swap_in(asid, pt, page).is_ok();
        if swapped_in {
            cost += FAULT_SWAP_IN;
        }
        // A stale I/O entry with narrower permissions (a protection
        // fault) is refreshed in place; a missing one is mapped.
        let installed = pt.entry(page).is_some_and(|pte| {
            pte.perms.allows(needed)
                && iommu.install_pinned(asid, page, pte.frame, pte.perms).is_ok()
        });
        if installed {
            cost += FAULT_MAP_PAGE;
        }
        PageIn { cost, swapped_in, installed }
    }
}

/// What [`FaultService::bring_in`] did for one page.
struct PageIn {
    cost: SimTime,
    swapped_in: bool,
    installed: bool,
}

/// Pin-on-post registration: installs pinned I/O translations for every
/// page of `[va, va + len)` from the process's CPU page table, so
/// transfers over the range never fault (the RDMA memory-registration
/// discipline). Returns the number of pages registered; pages already
/// registered are left pinned.
///
/// # Errors
///
/// [`MemFault::Unmapped`] at the first page the CPU table does not map;
/// nothing past it is registered.
pub fn pin_range(
    asid: u32,
    va: VirtAddr,
    len: u64,
    pt: &PageTable,
    iommu: &mut Iommu,
) -> Result<u64, MemFault> {
    let first = va.page().number();
    let last = (va.as_u64() + len.max(1) - 1) / PAGE_SIZE;
    let mut registered = 0;
    for n in first..=last {
        let page = VirtPage::new(n);
        let pte = *pt.entry(page).ok_or(MemFault::Unmapped { va: page.base() })?;
        match iommu.map(asid, page, pte.frame, pte.perms, true) {
            Ok(()) => registered += 1,
            // The entry exists, so pinning it only fails if it vanished.
            Err(MemFault::AlreadyMapped { .. }) => iommu
                .set_pinned(asid, page, true)
                .map_err(|_| MemFault::Unmapped { va: page.base() })?,
            Err(e) => return Err(e),
        }
    }
    Ok(registered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShadowMode;
    use udma_mem::{Access, Perms, PhysLayout};

    fn setup() -> (FaultService, VmManager, PageTable, Iommu) {
        let mut vm = VmManager::new(PhysLayout::default());
        let mut pt = PageTable::new();
        vm.map_buffer(&mut pt, VirtAddr::new(0x4000), 2, Perms::READ_WRITE, ShadowMode::None)
            .unwrap();
        let mut iommu = Iommu::new(udma_iommu::IotlbConfig::default());
        iommu.create_context(1);
        (FaultService::default(), vm, pt, iommu)
    }

    fn fault(asid: u32, va: u64, kind: IoFaultKind) -> IoFault {
        IoFault { asid, va: VirtAddr::new(va), access: Access::Read, kind }
    }

    #[test]
    fn resident_page_gets_mapped_and_pinned() {
        let (mut svc, mut vm, mut pt, mut iommu) = setup();
        let f = fault(1, 0x4000, IoFaultKind::Unmapped);
        let (res, cost) = svc.service(&f, None, &mut pt, &mut vm, &mut iommu);
        assert_eq!(res, FaultResolution::Mapped);
        assert_eq!(cost, FAULT_SERVICE_BASE + FAULT_MAP_PAGE);
        assert!(iommu.translate(1, VirtAddr::new(0x4000), Access::Read).is_ok());
        let page = VirtAddr::new(0x4000).page();
        assert!(iommu.table(1).unwrap().entry(page).unwrap().pinned);
        assert_eq!(svc.stats().mapped, 1);
    }

    #[test]
    fn swapped_out_page_costs_a_page_in() {
        let (mut svc, mut vm, mut pt, mut iommu) = setup();
        vm.swap_out(1, &mut pt, None, VirtAddr::new(0x4000).page()).unwrap();
        let f = fault(1, 0x4000, IoFaultKind::Unmapped);
        let (res, cost) = svc.service(&f, None, &mut pt, &mut vm, &mut iommu);
        assert_eq!(res, FaultResolution::SwappedIn);
        assert_eq!(cost, FAULT_SERVICE_BASE + FAULT_SWAP_IN + FAULT_MAP_PAGE);
        assert!(pt.translate(VirtAddr::new(0x4000), Access::Read).is_ok());
        assert_eq!(svc.stats().swapped_in, 1);
        assert_eq!(svc.stats().busy, cost);
    }

    #[test]
    fn foreign_or_absent_pages_are_unresolvable() {
        let (mut svc, mut vm, mut pt, mut iommu) = setup();
        // A VA the process simply does not map.
        let f = fault(1, 0x9000_0000, IoFaultKind::Unmapped);
        assert_eq!(
            svc.service(&f, None, &mut pt, &mut vm, &mut iommu).0,
            FaultResolution::Unresolvable
        );
        // A context the IOMMU does not know.
        let f = fault(9, 0x4000, IoFaultKind::NoContext);
        assert_eq!(
            svc.service(&f, None, &mut pt, &mut vm, &mut iommu).0,
            FaultResolution::Unresolvable
        );
        assert_eq!(svc.stats().unresolvable, 2);
    }

    #[test]
    fn protection_fault_refreshes_stale_io_perms() {
        let (mut svc, mut vm, mut pt, mut iommu) = setup();
        // I/O table has a stale read-only entry; the CPU table says RW.
        let page = VirtAddr::new(0x4000).page();
        let pte = *pt.entry(page).unwrap();
        iommu.map(1, page, pte.frame, Perms::READ, false).unwrap();
        let f = IoFault {
            asid: 1,
            va: VirtAddr::new(0x4000),
            access: Access::Write,
            kind: IoFaultKind::Protection { needed: Perms::WRITE, granted: Perms::READ },
        };
        let (res, _) = svc.service(&f, None, &mut pt, &mut vm, &mut iommu);
        assert_eq!(res, FaultResolution::Mapped);
        assert!(iommu.translate(1, VirtAddr::new(0x4000), Access::Write).is_ok());
    }

    #[test]
    fn announced_range_is_installed_for_one_base_cost() {
        let (mut svc, mut vm, mut pt, mut iommu) = setup();
        // Two pages mapped at 0x4000; page the second one out so the
        // range walk exercises the swap-in path too.
        vm.swap_out(1, &mut pt, None, VirtAddr::new(0x4000 + PAGE_SIZE).page()).unwrap();
        let f = fault(1, 0x4000, IoFaultKind::Unmapped);
        let range = VirtAddr::new(0x4000);
        let announced = Some((range, 3 * PAGE_SIZE));
        let (res, cost) = svc.service(&f, announced, &mut pt, &mut vm, &mut iommu);
        assert_eq!(res, FaultResolution::Mapped);
        // One base + map for the faulting page, then swap_in + map for
        // the second; the third page is a hole and stops the walk
        // without affecting the fault's resolution.
        assert_eq!(cost, FAULT_SERVICE_BASE + FAULT_MAP_PAGE + FAULT_SWAP_IN + FAULT_MAP_PAGE);
        let second = VirtAddr::new(0x4000 + PAGE_SIZE);
        assert!(iommu.translate(1, second, Access::Read).is_ok());
        assert!(iommu.table(1).unwrap().entry(second.page()).unwrap().pinned);
        assert_eq!(svc.stats().range_prefilled, 1);
        // Idempotent under a duplicated NACK: everything is installed,
        // so the retry costs one ordinary single-page service.
        let (res2, cost2) = svc.service(&f, announced, &mut pt, &mut vm, &mut iommu);
        assert_eq!(res2, FaultResolution::Mapped);
        assert_eq!(cost2, FAULT_SERVICE_BASE + FAULT_MAP_PAGE);
        assert_eq!(svc.stats().range_prefilled, 1, "no double prefill");
        assert_eq!(svc.stats().swapped_in, 1, "no phantom swap-in on the duplicate");
    }

    #[test]
    fn pin_range_registers_every_page_or_nothing_past_a_hole() {
        let (_, _, pt, mut iommu) = setup();
        // Two mapped pages: both register.
        assert_eq!(pin_range(1, VirtAddr::new(0x4000), 2 * PAGE_SIZE, &pt, &mut iommu), Ok(2));
        // Idempotent: re-registration pins, doesn't duplicate.
        assert_eq!(pin_range(1, VirtAddr::new(0x4100), 64, &pt, &mut iommu), Ok(0));
        // A range running past the buffer stops at the hole.
        assert!(pin_range(1, VirtAddr::new(0x4000), 3 * PAGE_SIZE, &pt, &mut iommu).is_err());
        assert!(iommu.translate(1, VirtAddr::new(0x4000 + PAGE_SIZE + 8), Access::Write).is_ok());
    }
}
