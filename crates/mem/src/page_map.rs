//! The page-keyed hash map behind every page table.
//!
//! Both the CPU-side [`crate::PageTable`] and the NI's I/O page tables
//! look a page up on every walk, and an I/O table inserts one entry per
//! fault serviced. A hash map keyed by page number does each in one
//! probe. Its hasher is fixed and seedless, so a run's table layout, and
//! any iteration over it, depends on the pages inserted alone: no
//! `RandomState`, and every run replays.

use crate::VirtPage;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map from virtual page to `V`, hashed by [`PageHasher`]. Iteration
/// order is unspecified; callers that need address order sort.
pub type PageMap<V> = HashMap<VirtPage, V, BuildHasherDefault<PageHasher>>;

/// Fibonacci hashing of a page number: one multiply by 2⁶⁴/φ. Its low
/// bits keep consecutive pages in distinct buckets and its high bits
/// mix every input bit, which is what the table's bucket index and
/// control byte each read.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageHasher(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(GOLDEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_pages_fill_distinct_buckets() {
        let h = BuildHasherDefault::<PageHasher>::default();
        let mut low: Vec<u64> = (0..64).map(|n| h.hash_one(VirtPage::new(n)) & 63).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 64);
    }
}
