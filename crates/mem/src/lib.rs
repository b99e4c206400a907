//! Memory substrate for the user-level DMA reproduction.
//!
//! This crate models everything the paper's machine needs below the bus:
//!
//! * typed physical and virtual addresses ([`PhysAddr`], [`VirtAddr`]) and
//!   page/frame numbers ([`VirtPage`], [`PhysFrame`]),
//! * byte-addressable [`PhysMemory`], materialised frame by frame on
//!   first write, with a [`FrameAllocator`]; a fresh frame may adopt a
//!   shared read-only [`ByteView`] instead of copying it, a whole-page
//!   copy between aligned frames shares the source's bytes the same
//!   way, and either side copies them on its first write,
//! * per-process [`PageTable`]s with protection bits ([`Perms`]), over
//!   the seedless page-keyed hash map [`PageMap`] that the NI's I/O
//!   page tables share,
//! * a small [`Tlb`] with hit/miss statistics, over the flat
//!   set-associative array [`SetAssoc`] that every TLB and cache of the
//!   machine is built on, and
//! * the *shadow addressing* arithmetic ([`ShadowLayout`]) that every
//!   user-level DMA protocol in the paper relies on (§2.3, §3.2).
//!
//! The page size is the DEC Alpha's 8 KiB ([`PAGE_SIZE`]), matching the
//! machine the paper evaluates on (Alpha 3000 model 300).
//!
//! # Example
//!
//! ```
//! use udma_mem::{FrameAllocator, PageTable, Perms, PhysMemory, VirtAddr, Access};
//!
//! # fn main() -> Result<(), udma_mem::MemFault> {
//! let mut mem = PhysMemory::new(1 << 24);
//! let mut alloc = FrameAllocator::new(1 << 24);
//! let mut pt = PageTable::new();
//!
//! let frame = alloc.alloc().expect("out of frames");
//! let va = VirtAddr::new(0x10000);
//! pt.map(va.page(), frame, Perms::READ_WRITE)?;
//!
//! let pa = pt.translate(va, Access::Write)?;
//! mem.write_u64(pa, 0xDEAD_BEEF)?;
//! assert_eq!(mem.read_u64(pa)?, 0xDEAD_BEEF);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod addr;
mod fault;
mod layout;
mod page_map;
mod page_table;
mod perms;
mod phys;
mod set_assoc;
mod shadow;
mod tlb;
mod view;

pub use addr::{PhysAddr, PhysFrame, VirtAddr, VirtPage, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
pub use fault::MemFault;
pub use layout::{PhysLayout, Region};
pub use page_map::{PageHasher, PageMap};
pub use page_table::{Access, PageTable, PteEntry};
pub use perms::Perms;
pub use phys::{FrameAllocator, PhysMemory};
pub use set_assoc::{splitmix64, Fill, Replacement, SetAssoc, SetKey};
pub use shadow::ShadowLayout;
pub use tlb::{Tlb, TlbStats};
pub use view::ByteView;
