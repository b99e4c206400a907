//! Typed physical/virtual addresses and page/frame numbers.
//!
//! The paper's protocols live and die on the distinction between a virtual
//! address (what user code names), a physical address (what the bus and the
//! DMA engine see) and a *shadow* physical address (a physical address with
//! extra meaning to the DMA engine). Newtypes keep those worlds apart at
//! compile time.

use std::fmt;

/// Log2 of the page size. 13 → 8 KiB pages, as on the DEC Alpha 21064.
pub const PAGE_SHIFT: u32 = 13;
/// Page size in bytes (8 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Mask selecting the offset-within-page bits of an address.
pub const PAGE_MASK: u64 = PAGE_SIZE - 1;

macro_rules! addr_type {
    ($(#[$doc:meta])* $name:ident, $page:ident, $(#[$pdoc:meta])*) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// The zero address.
            pub const ZERO: $name = $name(0);

            /// Creates an address from a raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// Returns the raw 64-bit value of the address.
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Returns the byte offset of the address within its page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & PAGE_MASK
            }

            /// Returns the page (frame) containing this address.
            #[inline]
            pub const fn page(self) -> $page {
                $page(self.0 >> PAGE_SHIFT)
            }

            /// Whether the address lies on a page boundary.
            #[inline]
            pub const fn is_page_aligned(self) -> bool {
                self.0 & PAGE_MASK == 0
            }

            /// Whether the address is naturally aligned for an access of
            /// `size` bytes (`size` must be a power of two).
            #[inline]
            pub const fn is_aligned_to(self, size: u64) -> bool {
                self.0 & (size - 1) == 0
            }

            /// Adds a byte offset, returning `None` on overflow.
            #[inline]
            pub const fn checked_add(self, rhs: u64) -> Option<Self> {
                match self.0.checked_add(rhs) {
                    Some(v) => Some($name(v)),
                    None => None,
                }
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(a: $name) -> u64 {
                a.0
            }
        }

        impl core::ops::Add<u64> for $name {
            type Output = $name;
            fn add(self, rhs: u64) -> $name {
                $name(self.0 + rhs)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        $(#[$pdoc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $page(u64);

        impl $page {
            /// Creates a page number from its index.
            #[inline]
            pub const fn new(num: u64) -> Self {
                $page(num)
            }

            /// Returns the page index.
            #[inline]
            pub const fn number(self) -> u64 {
                self.0
            }

            /// Returns the address of the first byte of the page.
            #[inline]
            pub const fn base(self) -> $name {
                $name(self.0 << PAGE_SHIFT)
            }

            /// Returns the page `n` pages after this one.
            #[inline]
            pub const fn offset(self, n: u64) -> Self {
                $page(self.0 + n)
            }
        }

        impl fmt::Debug for $page {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($page), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $page {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }
    };
}

addr_type!(
    /// A physical address: what the memory controller, the bus and the DMA
    /// engine operate on. User code can never fabricate one — only the
    /// TLB/page-table path produces them.
    PhysAddr,
    PhysFrame,
    /// A physical page frame number.
);

addr_type!(
    /// A virtual address: what user instructions name. It is meaningless
    /// without a process's [`crate::PageTable`].
    VirtAddr,
    VirtPage,
    /// A virtual page number.
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic_round_trips() {
        let a = VirtAddr::new(3 * PAGE_SIZE + 17);
        assert_eq!(a.page_offset(), 17);
        assert_eq!(a.page().number(), 3);
        assert_eq!(a.page().base(), VirtAddr::new(3 * PAGE_SIZE));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(PhysAddr::new(10).checked_add(5), Some(PhysAddr::new(15)));
        assert!(PhysAddr::new(u64::MAX).checked_add(1).is_none());
    }

    #[test]
    fn natural_alignment() {
        assert!(PhysAddr::new(0x1000).is_aligned_to(8));
        assert!(!PhysAddr::new(0x1004).is_aligned_to(8));
        assert!(PhysAddr::new(0x1004).is_aligned_to(4));
    }

    #[test]
    fn display_and_debug_are_hex() {
        let a = PhysAddr::new(0xBEEF);
        assert_eq!(format!("{a}"), "0xbeef");
        assert_eq!(format!("{a:?}"), "PhysAddr(0xbeef)");
        assert_eq!(format!("{a:x}"), "beef");
        assert_eq!(format!("{a:X}"), "BEEF");
    }

    #[test]
    fn phys_and_virt_are_distinct_types() {
        // This is a compile-time property; we just exercise From impls.
        let p: PhysAddr = 0x42u64.into();
        let v: VirtAddr = 0x42u64.into();
        assert_eq!(u64::from(p), u64::from(v));
    }

    #[test]
    fn frame_offset() {
        let f = PhysFrame::new(7);
        assert_eq!(f.offset(3).number(), 10);
    }

    #[test]
    fn add_operator() {
        assert_eq!(VirtAddr::new(8) + 8, VirtAddr::new(16));
    }
}
