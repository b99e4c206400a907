//! A shared, read-only view into a byte buffer.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// A shared read-only view of `data[range]`: cloning it clones one
/// `Arc`, never the bytes.
///
/// A remote transfer's payload travels as views of the one buffer the
/// sender posted: each chunk on the wire is a view of its slice, and
/// [`PhysMemory::write_view`](crate::PhysMemory::write_view) can store
/// a view as a destination frame instead of copying it;
/// [`PhysMemory::copy`](crate::PhysMemory::copy) shares a whole page as
/// a view the same way. Nothing ever writes through a view, so every
/// holder sees the buffer as it was posted. Equality compares the
/// viewed bytes, not the buffer identity.
///
/// ```
/// use udma_mem::ByteView;
///
/// let whole = ByteView::from(vec![1, 2, 3, 4]);
/// let tail = whole.slice(2..4).expect("in range");
/// assert_eq!(&*tail, &[3, 4]);
/// assert!(whole.slice(3..5).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct ByteView {
    data: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl ByteView {
    /// The sub-view of `range`, relative to this view's start; `None`
    /// if `range` does not lie within the view.
    pub fn slice(&self, range: Range<usize>) -> Option<ByteView> {
        if range.start > range.end || range.end > self.len() {
            return None;
        }
        let start = self.range.start + range.start;
        Some(ByteView { data: Arc::clone(&self.data), range: start..start + range.len() })
    }
}

impl From<Vec<u8>> for ByteView {
    /// A view of all of `data`.
    fn from(data: Vec<u8>) -> Self {
        ByteView { range: 0..data.len(), data: Arc::new(data) }
    }
}

impl Deref for ByteView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.range.clone()]
    }
}

impl PartialEq for ByteView {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for ByteView {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_the_buffer_and_nest() {
        let whole = ByteView::from((0u8..16).collect::<Vec<_>>());
        let mid = whole.slice(4..12).unwrap();
        assert_eq!(&*mid, &[4, 5, 6, 7, 8, 9, 10, 11]);
        assert!(Arc::ptr_eq(&whole.data, &mid.data));
        assert_eq!(&*mid.slice(2..4).unwrap(), &[6, 7]);
        assert_eq!(mid.slice(8..8).unwrap().len(), 0);
        assert!(mid.slice(4..9).is_none());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = mid.slice(3..2);
        assert!(reversed.is_none());
    }

    #[test]
    fn equality_compares_bytes_not_buffers() {
        let a = ByteView::from(vec![9, 1, 2]);
        let b = ByteView::from(vec![1, 2, 7]);
        assert_eq!(a.slice(1..3), b.slice(0..2));
        assert_ne!(a, b);
    }
}
