//! A cluster node's OS: its RAM, its receive-side IOMMU, the page
//! tables and fault service that answer NACKed I/O faults, and the
//! durable grant and pin ledgers a reboot replays.
//!
//! When a virtual-address transfer targets another workstation, the
//! receiving NI translates the destination VA on its own IOMMU; a miss is
//! NACKed back to the sender and serviced here by the same
//! [`FaultService`] the local path uses — map-and-pin a resident page,
//! swap a paged-out one back in first, or declare the fault
//! unresolvable so the sender fails the transfer with `-1`.
//!
//! This mirrors the receive-side design of the Telegraphos follow-on
//! work (Psistakis 2017, 2019 — see PAPERS.md): the I/O page table lives
//! at the *destination*, so the sender never needs to know the remote
//! physical layout, and a remote page fault costs a link round trip plus
//! an ordinary fault service on the far side.

use std::collections::BTreeMap;
use udma_bus::SimTime;
use udma_iommu::{Asid, IoFault, Iommu, IotlbConfig, IotlbStats};
use udma_mem::{
    Access, ByteView, MemFault, PageTable, Perms, PhysAddr, PhysLayout, PhysMemory, VirtAddr,
    VirtPage, PAGE_SIZE,
};
use udma_os::{
    pin_range, FaultResolution, FaultService, FaultServiceStats, MappedBuffer, ShadowMode,
    SwapRefused, VmManager,
};

/// One durable grant: replayed at reboot.
#[derive(Clone, Copy, Debug)]
struct GrantRecord {
    asid: Asid,
    va: VirtAddr,
    pages: u64,
    perms: Perms,
    pinned: bool,
}

/// One durable pin of part of a granted buffer: replayed at reboot.
#[derive(Clone, Copy, Debug)]
struct PinRecord {
    asid: Asid,
    va: VirtAddr,
    len: u64,
}

/// What a [`NodeOs::reboot`] replayed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Replayed {
    /// Grant records re-exposed.
    pub(super) regrants: u64,
    /// Ranges re-pinned: every pinned grant plus every pin record.
    pub(super) repins: u64,
}

/// One cluster node's OS and the volatile state it manages.
#[derive(Clone, Debug)]
pub(super) struct NodeOs {
    mem: PhysMemory,
    iommu: Iommu,
    tables: BTreeMap<Asid, PageTable>,
    vm: VmManager,
    service: FaultService,
    /// Durable grant ledger.
    grants: Vec<GrantRecord>,
    /// Durable pin ledger.
    pins: Vec<PinRecord>,
    /// IOTLB geometry a reboot rebuilds the IOMMU with.
    iotlb: IotlbConfig,
}

impl NodeOs {
    /// Boots a node OS over `node_bytes` of zeroed RAM and an empty
    /// IOMMU.
    pub(super) fn new(node_bytes: u64, iotlb: IotlbConfig) -> Self {
        let layout = PhysLayout { ram_size: node_bytes, ..PhysLayout::default() };
        NodeOs {
            mem: PhysMemory::new(node_bytes),
            iommu: Iommu::new(iotlb),
            tables: BTreeMap::new(),
            vm: VmManager::new(layout),
            service: FaultService::default(),
            grants: Vec::new(),
            pins: Vec::new(),
            iotlb,
        }
    }

    /// Exposes a buffer of `pages` fresh node frames at `va` in address
    /// space `asid` — the remote process offering memory for incoming
    /// RDMA. Creates the address space and its IOMMU context on first
    /// use. No I/O translation is installed here; that happens on fault
    /// (demand) or via [`pin_into`](Self::pin_into) (registration).
    ///
    /// # Errors
    ///
    /// [`MemFault::AlreadyMapped`] if a page is taken,
    /// [`MemFault::BusError`] if the node is out of frames.
    pub(super) fn expose(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        pages: u64,
        perms: Perms,
    ) -> Result<MappedBuffer, MemFault> {
        self.iommu.create_context(asid);
        let pt = self.tables.entry(asid).or_default();
        self.vm.map_buffer(pt, va, pages, perms, ShadowMode::None)
    }

    /// Pin-on-post registration of `[va, va + len)` into the node's
    /// IOMMU (the receive-side analogue of RDMA memory registration).
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] at the first hole in the ASID's table.
    pub(super) fn pin_into(&mut self, asid: Asid, va: VirtAddr, len: u64) -> Result<u64, MemFault> {
        let pt = self.tables.get(&asid).ok_or(MemFault::Unmapped { va })?;
        pin_range(asid, va, len, pt, &mut self.iommu)
    }

    /// [`expose`](Self::expose)s a buffer, also pins all of it when
    /// `pinned`, and records the grant in the durable ledger.
    ///
    /// # Errors
    ///
    /// As for [`expose`](Self::expose); nothing is recorded on error.
    pub(super) fn grant(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        pages: u64,
        perms: Perms,
        pinned: bool,
    ) -> Result<(), MemFault> {
        self.expose(asid, va, pages, perms)?;
        if pinned {
            self.pin_into(asid, va, pages * PAGE_SIZE)?;
        }
        self.grants.push(GrantRecord { asid, va, pages, perms, pinned });
        Ok(())
    }

    /// [`pin_into`](Self::pin_into) that records the pin in the durable
    /// ledger. Returns the pages newly registered.
    ///
    /// # Errors
    ///
    /// As for [`pin_into`](Self::pin_into); nothing is recorded on
    /// error.
    pub(super) fn pin(&mut self, asid: Asid, va: VirtAddr, len: u64) -> Result<u64, MemFault> {
        let pinned = self.pin_into(asid, va, len)?;
        self.pins.push(PinRecord { asid, va, len });
        Ok(pinned)
    }

    /// Reboots the node: zeroed RAM, an empty IOMMU, fresh page tables
    /// and fault service. Then the recovery handshake replays the grant
    /// ledger and the pin ledger, in that order, into the new state,
    /// which records them afresh.
    pub(super) fn reboot(&mut self) -> Replayed {
        let old = std::mem::replace(self, NodeOs::new(self.mem.size(), self.iotlb));
        for g in &old.grants {
            self.grant(g.asid, g.va, g.pages, g.perms, g.pinned)
                .expect("replaying a grant that fit before the crash");
        }
        for p in &old.pins {
            self.pin(p.asid, p.va, p.len).expect("re-pinning a replayed range into a fresh IOMMU");
        }
        let pinned = old.grants.iter().filter(|g| g.pinned).count() + old.pins.len();
        Replayed { regrants: old.grants.len() as u64, repins: pinned as u64 }
    }

    /// Deposits `bytes` at `(asid, va)` through the receive IOMMU. The
    /// translation decides where the bytes land; a chunk that starts a
    /// fresh page is adopted as that page rather than copied
    /// ([`PhysMemory::write_view`]).
    ///
    /// # Errors
    ///
    /// The I/O fault the translation raised; nothing is written.
    pub(super) fn deposit(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        bytes: &ByteView,
    ) -> Result<(), IoFault> {
        let pa = self.iommu.translate(asid, va, Access::Write)?;
        self.mem.write_view(pa, bytes).expect("translated deposit in range");
        Ok(())
    }

    /// Services one NACKed fault against the node's own tables,
    /// installing translations into the node's IOMMU. Returns the
    /// resolution and the service time (charged on top of the NACK round
    /// trip the sender already paid). An ASID the node never created is
    /// unresolvable.
    ///
    /// `announced` is the transfer's announced destination range: the
    /// same kernel entry then pre-installs the rest of it (see
    /// [`FaultService::service`]), the receive-side half of the
    /// translation pipeline. A multi-page transfer over a cold remote
    /// buffer then costs exactly one NACK round trip instead of one per
    /// page.
    ///
    /// **Idempotent under retransmission.** A lossy link may deliver the
    /// same fault notification twice (the sender retransmits control
    /// traffic it cannot confirm). Servicing an already-serviced fault
    /// re-resolves to the same translation — it never remaps the page to
    /// a fresh frame, never double-charges a swap-in, and never flips a
    /// resolvable fault to unresolvable.
    pub(super) fn service(
        &mut self,
        fault: &IoFault,
        announced: Option<(VirtAddr, u64)>,
    ) -> (FaultResolution, SimTime) {
        match self.tables.get_mut(&fault.asid) {
            Some(pt) => self.service.service(fault, announced, pt, &mut self.vm, &mut self.iommu),
            None => (FaultResolution::Unresolvable, SimTime::ZERO),
        }
    }

    /// Swaps `page` of `asid` out of the node through
    /// [`VmManager::swap_out`], which refuses a page a transfer has
    /// pinned.
    ///
    /// # Errors
    ///
    /// [`SwapRefused::Pinned`] while the IOMMU holds a pin,
    /// [`SwapRefused::NotMapped`] if the ASID does not map it.
    pub(super) fn swap_out(&mut self, asid: Asid, page: VirtPage) -> Result<(), SwapRefused> {
        let pt = self.tables.get_mut(&asid).ok_or(SwapRefused::NotMapped)?;
        self.vm.swap_out(asid, pt, Some(&mut self.iommu), page)
    }

    /// Translates `(asid, va)` through the resident IOTLB entries
    /// without counting stats or touching replacement state.
    pub(super) fn probe(&self, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        self.iommu.peek(asid, va.page(), Access::Read).map(|frame| frame.base() + va.page_offset())
    }

    /// The node's RAM.
    pub(super) fn mem(&self) -> &PhysMemory {
        &self.mem
    }

    /// Receive-side IOTLB counters.
    pub(super) fn iotlb_stats(&self) -> IotlbStats {
        self.iommu.stats()
    }

    /// Fault-service counters of this node.
    pub(super) fn stats(&self) -> FaultServiceStats {
        self.service.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_iommu::IoFaultKind;

    fn fault(asid: u32, va: u64) -> IoFault {
        IoFault { asid, va: VirtAddr::new(va), access: Access::Write, kind: IoFaultKind::Unmapped }
    }

    fn node_os() -> NodeOs {
        NodeOs::new(1 << 20, IotlbConfig::default())
    }

    #[test]
    fn exposed_buffer_is_serviced_on_demand() {
        let mut os = node_os();
        os.expose(7, VirtAddr::new(0x4000), 2, Perms::READ_WRITE).unwrap();
        let (res, cost) = os.service(&fault(7, 0x4000), None);
        assert_eq!(res, FaultResolution::Mapped);
        assert!(cost > SimTime::ZERO);
        assert!(os.iommu.translate(7, VirtAddr::new(0x4000), Access::Write).is_ok());
        // Installed pinned: the swapper must refuse while the pin holds.
        assert_eq!(os.swap_out(7, VirtAddr::new(0x4000).page()), Err(SwapRefused::Pinned));
        assert_eq!(os.stats().mapped, 1);
    }

    #[test]
    fn unknown_asid_and_foreign_va_are_unresolvable() {
        let mut os = node_os();
        // ASID never exposed anything: no table at all.
        assert_eq!(os.service(&fault(9, 0x4000), None).0, FaultResolution::Unresolvable);
        // Known ASID, but a VA it does not map.
        os.expose(7, VirtAddr::new(0x4000), 1, Perms::READ_WRITE).unwrap();
        assert_eq!(os.service(&fault(7, 0x9000_0000), None).0, FaultResolution::Unresolvable);
    }

    #[test]
    fn swap_out_and_fault_driven_swap_in() {
        let mut os = node_os();
        os.expose(7, VirtAddr::new(0x4000), 1, Perms::READ_WRITE).unwrap();
        let page = VirtAddr::new(0x4000).page();
        os.swap_out(7, page).unwrap();
        assert!(os.vm.swapped_out(7, page));
        // The next fault pages it back in (at swap-in cost) and pins it.
        let (res, cost) = os.service(&fault(7, 0x4000), None);
        assert_eq!(res, FaultResolution::SwappedIn);
        assert!(cost >= udma_os::FAULT_SWAP_IN);
        assert!(!os.vm.swapped_out(7, page));
        assert_eq!(os.swap_out(7, page), Err(SwapRefused::Pinned));
        // Unpin, and the swapper may take it again.
        os.iommu.set_pinned(7, page, false).unwrap();
        assert_eq!(os.swap_out(7, page), Ok(()));
    }

    #[test]
    fn retransmitted_fault_notification_is_serviced_idempotently() {
        let mut os = node_os();
        os.expose(7, VirtAddr::new(0x4000), 1, Perms::READ_WRITE).unwrap();
        // First delivery of the notification: maps and pins the page.
        let (first, _) = os.service(&fault(7, 0x4000), None);
        assert_eq!(first, FaultResolution::Mapped);
        let frame = os.iommu.translate(7, VirtAddr::new(0x4000), Access::Write).unwrap();
        // The link duplicated the notification: the second service must
        // resolve identically, to the *same* frame, without a second
        // swap-in or a remap.
        let (second, _) = os.service(&fault(7, 0x4000), None);
        assert!(matches!(second, FaultResolution::Mapped | FaultResolution::SwappedIn));
        assert_eq!(os.iommu.translate(7, VirtAddr::new(0x4000), Access::Write).unwrap(), frame);
        assert_eq!(os.stats().serviced, 2, "both deliveries are accounted");
        assert_eq!(os.stats().swapped_in, 0, "no phantom swap-in on the duplicate");
        assert!(!os.vm.swapped_out(7, VirtAddr::new(0x4000).page()));
    }

    #[test]
    fn pin_into_registers_the_whole_buffer() {
        let mut os = node_os();
        os.expose(7, VirtAddr::new(0x4000), 2, Perms::READ_WRITE).unwrap();
        assert_eq!(os.pin_into(7, VirtAddr::new(0x4000), 2 * PAGE_SIZE), Ok(2));
        assert!(os.iommu.translate(7, VirtAddr::new(0x4000 + PAGE_SIZE), Access::Write).is_ok());
        // Unknown ASID refuses.
        assert!(os.pin_into(9, VirtAddr::new(0x4000), 8).is_err());
    }

    /// A reboot forgets every translation, then replays both ledgers:
    /// pinned grants and recorded pins translate again, a demand grant
    /// does not until its next fault.
    #[test]
    fn reboot_replays_the_grant_and_pin_ledgers() {
        let mut os = node_os();
        let pinned = VirtAddr::new(0x4000);
        let demand = VirtAddr::new(0x10_0000);
        let partly = VirtAddr::new(0x20_0000);
        os.grant(7, pinned, 2, Perms::READ_WRITE, true).unwrap();
        os.grant(7, demand, 1, Perms::READ_WRITE, false).unwrap();
        os.grant(8, partly, 3, Perms::READ_WRITE, false).unwrap();
        assert_eq!(os.pin(8, partly, 2 * PAGE_SIZE), Ok(2));
        // Demand-fault the demand grant in before the crash.
        assert_eq!(os.service(&fault(7, demand.as_u64()), None).0, FaultResolution::Mapped);
        let word = ByteView::from(vec![0xAB; 8]);
        os.deposit(7, demand, &word).unwrap();
        os.deposit(7, pinned, &word).unwrap();
        assert!(os.probe(7, demand).is_some());
        let failed = os.grant(7, pinned, 1, Perms::READ_WRITE, false);
        assert!(failed.is_err(), "a refused grant is not recorded");

        let replayed = os.reboot();
        assert_eq!(replayed.regrants, os.grants.len() as u64);
        let pinned_grants = os.grants.iter().filter(|g| g.pinned).count();
        assert_eq!(replayed.repins, (pinned_grants + os.pins.len()) as u64);
        assert_eq!(replayed, Replayed { regrants: 3, repins: 2 });

        // A translation hit leaves the page resident, so `peek` (via
        // `probe`) then sees where a deposit would land.
        let translates = |os: &mut NodeOs, asid, va: VirtAddr, page: u64| {
            let va = va + page * PAGE_SIZE;
            os.iommu.translate(asid, va, Access::Write).is_ok() && os.probe(asid, va).is_some()
        };
        assert!(translates(&mut os, 7, pinned, 0) && translates(&mut os, 7, pinned, 1));
        assert!(translates(&mut os, 8, partly, 0) && translates(&mut os, 8, partly, 1));
        assert!(!translates(&mut os, 8, partly, 2), "beyond the recorded pin");
        assert!(!translates(&mut os, 7, demand, 0), "a demand grant waits for its next fault");
        // Fresh RAM and counters; the demand page still services.
        let mut word = [0xFFu8; 8];
        let pa = os.probe(7, pinned).expect("replayed pin");
        os.mem().read_bytes(pa, &mut word).unwrap();
        assert_eq!(word, [0; 8], "RAM is zeroed by the reboot");
        assert_eq!(os.stats(), FaultServiceStats::default());
        assert_eq!(os.service(&fault(7, demand.as_u64()), None).0, FaultResolution::Mapped);
        // A second reboot replays the same ledgers again.
        assert_eq!(os.reboot(), replayed);
    }
}
