//! Virtual-address DMA: machine-level configuration and initiation.
//!
//! The base reproduction's protocols all pass **physical** (shadow)
//! addresses, as the paper's hardware demanded. The follow-on
//! Telegraphos IOMMU work lets user code pass **virtual** addresses and
//! puts the translation in the NI. This module is the machine-level
//! surface of that extension: configure a [`VirtDmaSetup`] on the
//! [`crate::MachineConfig`] and processes with a register context can
//! post transfers by virtual address through their context page
//! ([`emit_virt_dma`]), with the OS servicing any I/O page faults the
//! engine raises mid-transfer ([`crate::Machine::service_va_faults`]).

use crate::initiate::{load, store};
use crate::ProcessEnv;
use udma_cpu::ProgramBuilder;
use udma_iommu::IotlbConfig;
use udma_nic::{regs, VirtDmaConfig};

/// How the OS keeps the I/O page table in step with process memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VaMode {
    /// Demand paging: the I/O page table starts empty; the first transfer
    /// touching a page faults, the OS maps-and-pins it, the transfer
    /// resumes. Cheap setup, expensive first touch.
    Demand,
    /// Pin-on-post: every buffer is registered (mapped and pinned) when
    /// the process is spawned — RDMA-style memory registration. Transfers
    /// never fault; setup pays for it.
    PinOnPost,
}

/// Machine-level configuration of the virtual-address DMA subsystem.
#[derive(Clone, Copy, Debug)]
pub struct VirtDmaSetup {
    /// IOTLB geometry and replacement.
    pub iotlb: IotlbConfig,
    /// Engine-side tunables (walk latency, retry policy).
    pub virt: VirtDmaConfig,
    /// I/O page-table population discipline.
    pub mode: VaMode,
}

impl Default for VirtDmaSetup {
    fn default() -> Self {
        VirtDmaSetup {
            iotlb: IotlbConfig::default(),
            virt: VirtDmaConfig::default(),
            mode: VaMode::Demand,
        }
    }
}

impl VirtDmaSetup {
    /// Demand-paging setup with a given IOTLB geometry.
    pub fn demand(iotlb: IotlbConfig) -> Self {
        VirtDmaSetup { iotlb, ..VirtDmaSetup::default() }
    }

    /// Pin-on-post setup with a given IOTLB geometry.
    pub fn pin_on_post(iotlb: IotlbConfig) -> Self {
        VirtDmaSetup { iotlb, mode: VaMode::PinOnPost, ..VirtDmaSetup::default() }
    }
}

/// Appends one virtual-address DMA initiation to `b`: three context-page
/// stores (source VA, destination VA, size/GO) and a status load into
/// `r0`. No shadow arithmetic, no physical address, no size limit — the
/// engine's IOMMU translates page by page as the transfer streams.
///
/// # Panics
///
/// Panics if the process has no register context (virtual-address DMA is
/// posted through the context page; the machine grants one automatically
/// when a [`VirtDmaSetup`] is configured).
pub fn emit_virt_dma(
    env: &ProcessEnv,
    mut b: ProgramBuilder,
    src: udma_mem::VirtAddr,
    dst: udma_mem::VirtAddr,
    size: u64,
) -> ProgramBuilder {
    let page = env.ctx_page_va.expect("virtual-address DMA needs a context page").as_u64();
    for ins in [
        store(page + regs::CTX_VIRT_SRC, src.as_u64()),
        store(page + regs::CTX_VIRT_DST, dst.as_u64()),
        store(page + regs::CTX_VIRT_GO, size),
        load(page + regs::CTX_VIRT_GO),
    ] {
        b.push(ins);
    }
    b
}
