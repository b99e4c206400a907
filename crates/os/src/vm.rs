//! Virtual-memory management: user buffers and their shadow mappings.

use std::collections::BTreeMap;
use udma_iommu::Iommu;
use udma_mem::{
    FrameAllocator, MemFault, PageTable, Perms, PhysFrame, PhysLayout, PteEntry, VirtAddr,
    VirtPage, PAGE_SIZE,
};
use udma_nic::regs;

/// Conventional virtual address at which a process's register-context
/// page is mapped (well above any data buffer).
pub const CTX_PAGE_VA_BASE: u64 = 1 << 30;

/// How the kernel shadow-maps a buffer at allocation time (§2.3 footnote:
/// "the operating system is responsible for creating both mappings at
/// memory allocation (initialization) time").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShadowMode {
    /// No shadow twin: the buffer cannot be named in user-level DMA.
    None,
    /// Plain shadow mapping (context id 0 in the shadow physical
    /// address) — what §2.3–§3.1 and §3.3 use.
    Plain,
    /// Extended shadow mapping carrying this context id (§3.2).
    WithCtx(u32),
}

/// A user buffer the kernel has mapped (and possibly shadow-mapped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MappedBuffer {
    /// Base virtual address of the data mapping.
    pub va: VirtAddr,
    /// Base virtual address of the shadow mapping (valid only if a shadow
    /// mode other than `None` was requested).
    pub shadow_va: VirtAddr,
    /// Number of pages.
    pub pages: u64,
    /// First backing frame (frames are contiguous for a multi-page
    /// buffer).
    pub first_frame: PhysFrame,
    /// Permissions of the data (and shadow) mapping.
    pub perms: Perms,
}

impl MappedBuffer {
    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    /// Whether the buffer has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }
}

/// Why [`VmManager::swap_out`] refused to take a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapRefused {
    /// The page is pinned in the I/O page table: a device transfer may
    /// be in flight over it, so the swapper must leave it alone.
    Pinned,
    /// The page is not mapped in the address space's page table.
    NotMapped,
}

/// Allocates frames and installs data + shadow mappings.
#[derive(Clone, Debug)]
pub struct VmManager {
    layout: PhysLayout,
    frames: FrameAllocator,
    /// Swap ledger: PTEs the swapper has taken out of address spaces,
    /// keyed by (address-space id, page). The model keeps the frame
    /// contents in place — only the *mapping* disappears, which is what
    /// a device-side translation observes — so swap-in restores the
    /// original entry.
    swapped: BTreeMap<(u32, VirtPage), PteEntry>,
}

impl VmManager {
    /// Creates a VM manager over the machine's RAM.
    pub fn new(layout: PhysLayout) -> Self {
        // Frame 0 is reserved (null-page hygiene).
        let total = layout.ram_size >> udma_mem::PAGE_SHIFT;
        VmManager {
            layout,
            frames: FrameAllocator::with_range(1, total - 1),
            swapped: BTreeMap::new(),
        }
    }

    /// The swapper: takes `page` of address space `asid` out of memory.
    /// The CPU PTE moves into the swap ledger, then the I/O translation
    /// (if `iommu` holds one) is shot down. A page the IOMMU holds
    /// pinned is refused untouched: a device transfer may be streaming
    /// over it.
    ///
    /// # Errors
    ///
    /// [`SwapRefused`] naming why the page stayed resident.
    pub fn swap_out(
        &mut self,
        asid: u32,
        pt: &mut PageTable,
        iommu: Option<&mut Iommu>,
        page: VirtPage,
    ) -> Result<(), SwapRefused> {
        let pinned =
            |i: &Iommu| i.table(asid).and_then(|t| t.entry(page)).is_some_and(|e| e.pinned);
        if iommu.as_deref().is_some_and(pinned) {
            return Err(SwapRefused::Pinned);
        }
        let pte = pt.unmap(page).ok_or(SwapRefused::NotMapped)?;
        self.swapped.insert((asid, page), pte);
        if let Some(iommu) = iommu {
            iommu.unmap(asid, page);
        }
        Ok(())
    }

    /// Swaps a page back in: reinstalls the remembered PTE (same frame,
    /// same permissions). Returns the restored entry.
    ///
    /// # Errors
    ///
    /// [`MemFault::Unmapped`] if the page is not in the swap ledger.
    pub fn swap_in(
        &mut self,
        asid: u32,
        pt: &mut PageTable,
        page: VirtPage,
    ) -> Result<PteEntry, MemFault> {
        let pte =
            self.swapped.remove(&(asid, page)).ok_or(MemFault::Unmapped { va: page.base() })?;
        pt.map(page, pte.frame, pte.perms)?;
        Ok(pte)
    }

    /// Whether `page` of address space `asid` is swapped out.
    pub fn swapped_out(&self, asid: u32, page: VirtPage) -> bool {
        self.swapped.contains_key(&(asid, page))
    }

    /// The machine layout.
    pub fn layout(&self) -> &PhysLayout {
        &self.layout
    }

    /// Maps `pages` fresh frames at `va` with `perms`, plus a shadow twin
    /// per `mode`. The shadow PTE points into the NIC's shadow window and
    /// carries the same permissions, which is exactly what makes shadow
    /// addressing safe: a process can only name physical pages it could
    /// access anyway.
    ///
    /// # Errors
    ///
    /// [`MemFault::AlreadyMapped`] if any target page is taken;
    /// [`MemFault::BusError`] if physical memory is exhausted, or if a
    /// shadow twin is asked for a frame the shadow window cannot name.
    pub fn map_buffer(
        &mut self,
        pt: &mut PageTable,
        va: VirtAddr,
        pages: u64,
        perms: Perms,
        mode: ShadowMode,
    ) -> Result<MappedBuffer, MemFault> {
        assert!(va.is_page_aligned(), "buffer base must be page aligned");
        assert!(pages > 0, "buffer must have at least one page");
        let first_frame = self.alloc_frame()?;
        for i in 0..pages {
            let frame = if i == 0 { first_frame } else { self.alloc_frame()? };
            // Contiguity is guaranteed by the bump allocator as long as
            // nothing frees in between; assert it.
            debug_assert_eq!(frame.number(), first_frame.number() + i, "frames not contiguous");
            let page = va.page().offset(i);
            pt.map(page, frame, perms)?;
            self.install_shadow(pt, page, frame, perms, mode)?;
        }
        Ok(MappedBuffer {
            va,
            shadow_va: self.layout.shadow.shadow_vaddr(va),
            pages,
            first_frame,
            perms,
        })
    }

    /// One fresh frame, or [`MemFault::BusError`] past the end of RAM
    /// when physical memory is exhausted.
    fn alloc_frame(&mut self) -> Result<PhysFrame, MemFault> {
        self.frames
            .alloc()
            .ok_or(MemFault::BusError { pa: udma_mem::PhysAddr::new(self.layout.ram_size) })
    }

    /// Maps an *existing* frame range into another process (shared
    /// memory), with shadow twins per `mode`.
    ///
    /// # Errors
    ///
    /// [`MemFault::AlreadyMapped`] if any target page is taken;
    /// [`MemFault::BusError`] if a shadow twin is asked for a frame the
    /// shadow window cannot name.
    pub fn map_shared(
        &mut self,
        pt: &mut PageTable,
        va: VirtAddr,
        first_frame: PhysFrame,
        pages: u64,
        perms: Perms,
        mode: ShadowMode,
    ) -> Result<MappedBuffer, MemFault> {
        assert!(va.is_page_aligned(), "buffer base must be page aligned");
        for i in 0..pages {
            let frame = first_frame.offset(i);
            let page = va.page().offset(i);
            pt.map(page, frame, perms)?;
            self.install_shadow(pt, page, frame, perms, mode)?;
        }
        Ok(MappedBuffer {
            va,
            shadow_va: self.layout.shadow.shadow_vaddr(va),
            pages,
            first_frame,
            perms,
        })
    }

    fn install_shadow(
        &self,
        pt: &mut PageTable,
        page: VirtPage,
        frame: PhysFrame,
        perms: Perms,
        mode: ShadowMode,
    ) -> Result<(), MemFault> {
        let ctx = match mode {
            ShadowMode::None => return Ok(()),
            ShadowMode::Plain => 0,
            ShadowMode::WithCtx(c) => c,
        };
        // A validated layout makes all of RAM shadow-addressable.
        let shadow_pa = self
            .layout
            .shadow
            .shadow_paddr_ctx(frame.base(), ctx)
            .ok_or(MemFault::BusError { pa: frame.base() })?;
        let shadow_page = self.layout.shadow.shadow_vaddr(page.base()).page();
        pt.map(shadow_page, shadow_pa.page(), perms)
    }

    /// Maps register-context page `ctx` into the process at the
    /// conventional VA, read-write (§3.1: "each context is mapped into
    /// memory address space so that the processor can access it").
    ///
    /// Returns the VA of the context page.
    ///
    /// # Errors
    ///
    /// [`MemFault::AlreadyMapped`] if the process already has a context
    /// page mapped there.
    pub fn map_ctx_page(&self, pt: &mut PageTable, ctx: u32) -> Result<VirtAddr, MemFault> {
        let va = VirtAddr::new(CTX_PAGE_VA_BASE);
        let pa = self.layout.nic_base + regs::ctx_page_offset(ctx);
        pt.map(va.page(), pa.page(), Perms::READ_WRITE)?;
        Ok(va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_mem::{Access, PhysAddr};

    fn vm() -> (VmManager, PageTable) {
        (VmManager::new(PhysLayout::default()), PageTable::new())
    }

    #[test]
    fn map_buffer_installs_data_and_shadow() {
        let (mut vm, mut pt) = vm();
        let buf = vm
            .map_buffer(&mut pt, VirtAddr::new(0x4000), 2, Perms::READ_WRITE, ShadowMode::Plain)
            .unwrap();
        assert_eq!(buf.len(), 2 * PAGE_SIZE);
        assert!(!buf.is_empty());
        // Data mapping translates to RAM.
        let pa = pt.translate(buf.va, Access::Write).unwrap();
        assert_eq!(pa, buf.first_frame.base());
        // Shadow mapping translates into the shadow window and decodes
        // back to the same frame.
        let spa = pt.translate(buf.shadow_va, Access::Write).unwrap();
        let layout = PhysLayout::default();
        assert!(layout.shadow.is_shadow(spa));
        let (plain, ctx) = layout.shadow.decode(spa).unwrap();
        assert_eq!(plain, pa);
        assert_eq!(ctx, 0);
        // Second page also shadow-mapped.
        let spa2 = pt.translate(buf.shadow_va + PAGE_SIZE, Access::Read).unwrap();
        assert_eq!(layout.shadow.decode(spa2).unwrap().0, pa + PAGE_SIZE);
    }

    #[test]
    fn shadow_mode_none_has_no_twin() {
        let (mut vm, mut pt) = vm();
        let buf = vm
            .map_buffer(&mut pt, VirtAddr::new(0x4000), 1, Perms::READ_WRITE, ShadowMode::None)
            .unwrap();
        assert!(pt.translate(buf.shadow_va, Access::Read).is_err());
    }

    #[test]
    fn ext_shadow_mapping_carries_ctx() {
        let (mut vm, mut pt) = vm();
        let buf = vm
            .map_buffer(
                &mut pt,
                VirtAddr::new(0x4000),
                1,
                Perms::READ_WRITE,
                ShadowMode::WithCtx(2),
            )
            .unwrap();
        let spa = pt.translate(buf.shadow_va, Access::Write).unwrap();
        let (_, ctx) = PhysLayout::default().shadow.decode(spa).unwrap();
        assert_eq!(ctx, 2);
    }

    #[test]
    fn shadow_mapping_inherits_perms() {
        let (mut vm, mut pt) = vm();
        let buf = vm
            .map_buffer(&mut pt, VirtAddr::new(0x4000), 1, Perms::READ, ShadowMode::Plain)
            .unwrap();
        assert!(pt.translate(buf.shadow_va, Access::Read).is_ok());
        // Can't *store* to the shadow of a read-only page: protection
        // extends to the DMA path.
        assert!(matches!(
            pt.translate(buf.shadow_va, Access::Write),
            Err(MemFault::Protection { .. })
        ));
    }

    #[test]
    fn map_shared_aliases_frames() {
        let (mut vm, mut pt_a) = vm();
        let mut pt_b = PageTable::new();
        let buf = vm
            .map_buffer(&mut pt_a, VirtAddr::new(0x4000), 1, Perms::READ_WRITE, ShadowMode::Plain)
            .unwrap();
        let shared = vm
            .map_shared(
                &mut pt_b,
                VirtAddr::new(0x8000),
                buf.first_frame,
                1,
                Perms::READ,
                ShadowMode::Plain,
            )
            .unwrap();
        let pa_a = pt_a.translate(buf.va, Access::Read).unwrap();
        let pa_b = pt_b.translate(shared.va, Access::Read).unwrap();
        assert_eq!(pa_a, pa_b);
    }

    #[test]
    fn ctx_page_mapping_points_into_nic_window() {
        let (vm, mut pt) = {
            let (v, p) = vm();
            (v, p)
        };
        let mut pt2 = pt.clone();
        let va = vm.map_ctx_page(&mut pt, 1).unwrap();
        assert_eq!(va, VirtAddr::new(CTX_PAGE_VA_BASE));
        let pa = pt.translate(va, Access::Write).unwrap();
        let layout = PhysLayout::default();
        assert_eq!(pa, layout.nic_base + regs::ctx_page_offset(1));
        // Distinct contexts map to distinct pages.
        let va2 = vm.map_ctx_page(&mut pt2, 2).unwrap();
        let pa2 = pt2.translate(va2, Access::Write).unwrap();
        assert_ne!(pa, pa2);
        assert_eq!(PhysAddr::new(pa2.as_u64() - pa.as_u64()), PhysAddr::new(PAGE_SIZE));
    }

    #[test]
    fn frames_run_out_eventually() {
        let layout = PhysLayout { ram_size: 4 * PAGE_SIZE, ..PhysLayout::default() };
        let mut vm = VmManager::new(layout);
        let mut pt = PageTable::new();
        // 3 usable frames (frame 0 reserved).
        assert_eq!(vm.frames.available(), 3);
        assert!(vm
            .map_buffer(&mut pt, VirtAddr::new(0x4000), 3, Perms::READ_WRITE, ShadowMode::None)
            .is_ok());
        assert!(vm
            .map_buffer(&mut pt, VirtAddr::new(0x40000), 1, Perms::READ_WRITE, ShadowMode::None)
            .is_err());
    }

    #[test]
    fn swap_ledger_round_trip() {
        let (mut vm, mut pt) = vm();
        let buf = vm
            .map_buffer(&mut pt, VirtAddr::new(0x4000), 1, Perms::READ_WRITE, ShadowMode::None)
            .unwrap();
        let page = buf.va.page();
        assert!(!vm.swapped_out(1, page));
        vm.swap_out(1, &mut pt, None, page).unwrap();
        assert!(vm.swapped_out(1, page));
        assert!(pt.translate(buf.va, Access::Read).is_err());
        // Swapping an unmapped page fails; swapping in for the wrong
        // address space fails.
        assert_eq!(vm.swap_out(1, &mut pt, None, page), Err(SwapRefused::NotMapped));
        assert!(vm.swap_in(2, &mut pt, page).is_err());
        let pte = vm.swap_in(1, &mut pt, page).unwrap();
        assert_eq!(pte.frame, buf.first_frame);
        assert_eq!(pt.translate(buf.va, Access::Write).unwrap(), buf.first_frame.base());
        assert!(!vm.swapped_out(1, page));
    }

    #[test]
    fn swap_out_honours_io_pins_and_shoots_the_translation_down() {
        let (mut vm, mut pt) = vm();
        let buf = vm
            .map_buffer(&mut pt, VirtAddr::new(0x4000), 2, Perms::READ_WRITE, ShadowMode::None)
            .unwrap();
        let mut iommu = Iommu::new(udma_iommu::IotlbConfig::default());
        iommu.create_context(1);
        let (pinned, loose) = (buf.va.page(), buf.va.page().offset(1));
        iommu.map(1, pinned, buf.first_frame, Perms::READ_WRITE, true).unwrap();
        iommu.map(1, loose, buf.first_frame.offset(1), Perms::READ_WRITE, false).unwrap();
        // A pinned page is refused before anything changes.
        assert_eq!(vm.swap_out(1, &mut pt, Some(&mut iommu), pinned), Err(SwapRefused::Pinned));
        assert!(pt.entry(pinned).is_some() && !vm.swapped_out(1, pinned));
        // An unpinned one leaves both tables.
        vm.swap_out(1, &mut pt, Some(&mut iommu), loose).unwrap();
        assert!(vm.swapped_out(1, loose));
        assert!(iommu.table(1).unwrap().entry(loose).is_none());
    }

    #[test]
    fn double_map_rejected() {
        let (mut vm, mut pt) = vm();
        vm.map_buffer(&mut pt, VirtAddr::new(0x4000), 1, Perms::READ, ShadowMode::None).unwrap();
        assert!(matches!(
            vm.map_buffer(&mut pt, VirtAddr::new(0x4000), 1, Perms::READ, ShadowMode::None),
            Err(MemFault::AlreadyMapped { .. })
        ));
    }
}
