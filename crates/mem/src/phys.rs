//! Physical memory and frame allocation.

use crate::{ByteView, MemFault, PhysAddr, PhysFrame, PAGE_SHIFT, PAGE_SIZE};

/// Byte-addressable physical memory, stored one frame at a time in a
/// table indexed by frame number.
///
/// A frame is materialised on its first write, and the table grows to
/// the highest frame written, so a machine with a multi-gigabyte
/// physical address space pays a slot per frame up to that one plus
/// the frames it actually uses. Unwritten memory reads as zero. All
/// multi-byte accesses are little-endian, like the Alpha.
///
/// A frame is either an owned page or an *adopted* [`ByteView`]:
/// [`write_view`](Self::write_view) stores a view that starts a fresh
/// frame as the frame itself, so a deposit costs one `Arc` clone
/// instead of a page allocation and a copy. An adopted frame reads as
/// its view followed by zeros, and its first write copies it into an
/// owned page (copy-on-write), so the viewed buffer never changes. A
/// clone of the memory shares adopted buffers and diverges on write.
///
/// [`copy`](Self::copy) shares too: a whole page copied from one
/// page-aligned frame to another that holds no owned page makes both
/// frames views of the source's bytes (an owned source page is wrapped
/// in place, with no byte copy), and the first write to either side
/// copies it. Since a share is a snapshot, a copy still ends exactly
/// as a read of the source followed by a write would leave it.
///
/// ```
/// use udma_mem::{ByteView, PhysMemory, PhysAddr, PAGE_SIZE};
///
/// # fn main() -> Result<(), udma_mem::MemFault> {
/// let mut mem = PhysMemory::new(1 << 20);
/// mem.write_u64(PhysAddr::new(0x100), 42)?;
/// assert_eq!(mem.read_u64(PhysAddr::new(0x100))?, 42);
/// // Untouched memory reads as zero.
/// assert_eq!(mem.read_u64(PhysAddr::new(0x8000))?, 0);
/// // A view adopted as frame 3 reads back; the write after it copies.
/// let page = PhysAddr::new(3 * PAGE_SIZE);
/// mem.write_view(page, &ByteView::from(vec![7u8; 8]))?;
/// assert_eq!(mem.read_u64(page)?, 0x0707_0707_0707_0707);
/// mem.write_u64(page, 1)?;
/// assert_eq!(mem.read_u64(page)?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct PhysMemory {
    /// `frames[n]` is frame `n`, `None` until first written.
    frames: Vec<Option<Frame>>,
    size: u64,
}

/// One materialised frame.
#[derive(Clone, Debug)]
enum Frame {
    /// A page of bytes the memory owns.
    Owned(Box<[u8]>),
    /// An adopted view: the frame's first `len()` bytes, zeros after.
    /// Nothing writes through it; the first write replaces it with an
    /// owned copy.
    Adopted(ByteView),
}

impl Frame {
    /// The frame's stored bytes from offset 0: the whole page, or an
    /// adopted view that may end early (the rest reads as zeros).
    fn bytes(&self) -> &[u8] {
        match self {
            Frame::Owned(data) => data,
            Frame::Adopted(view) => view,
        }
    }

    /// The frame as an owned page, copying an adopted view.
    fn into_owned(self) -> Box<[u8]> {
        match self {
            Frame::Owned(data) => data,
            Frame::Adopted(view) => fresh_frame(&view, 0, &[]),
        }
    }
}

/// The stored bytes of `slot` from offset `off`, at most `len` of them;
/// the rest of `[off, off + len)` reads as zeros.
fn stored(slot: Option<&Frame>, off: usize, len: usize) -> &[u8] {
    let bytes = slot.map_or(&[][..], Frame::bytes);
    let bytes = bytes.get(off..).unwrap_or(&[]);
    &bytes[..len.min(bytes.len())]
}

/// Reads `buf.len()` bytes of `slot` from offset `off`.
fn read_slot(slot: Option<&Frame>, off: usize, buf: &mut [u8]) {
    let src = stored(slot, off, buf.len());
    let (head, tail) = buf.split_at_mut(src.len());
    head.copy_from_slice(src);
    tail.fill(0);
}

impl PhysMemory {
    /// Creates a physical memory of `size` bytes (rounded up to whole
    /// pages). Accesses at or beyond `size` raise [`MemFault::BusError`].
    pub fn new(size: u64) -> Self {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        PhysMemory { frames: Vec::new(), size }
    }

    /// Total installed bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    fn check(&self, pa: PhysAddr, len: u64) -> Result<(), MemFault> {
        let end = pa.checked_add(len).ok_or(MemFault::BusError { pa })?;
        if end.as_u64() > self.size || len == 0 && pa.as_u64() >= self.size {
            return Err(MemFault::BusError { pa });
        }
        Ok(())
    }

    /// The table slot of frame `frame`, growing the table to reach it.
    fn slot_mut(&mut self, frame: usize) -> &mut Option<Frame> {
        if frame >= self.frames.len() {
            self.frames.resize(frame + 1, None);
        }
        &mut self.frames[frame]
    }

    /// Reads `buf.len()` bytes at offset `off` of frame `frame`.
    fn read_frame(&self, frame: u64, off: usize, buf: &mut [u8]) {
        match self.frames.get(frame as usize) {
            Some(Some(Frame::Owned(data))) => buf.copy_from_slice(&data[off..off + buf.len()]),
            slot => read_slot(slot.and_then(Option::as_ref), off, buf),
        }
    }

    /// Writes `bytes` at offset `off` of frame `frame`. An owned page is
    /// written in place; a fresh or adopted frame becomes an owned page
    /// built in one pass around the bytes.
    fn write_frame(&mut self, frame: u64, off: usize, bytes: &[u8]) {
        match self.slot_mut(frame as usize) {
            Some(Frame::Owned(data)) => data[off..off + bytes.len()].copy_from_slice(bytes),
            slot => {
                let data = fresh_frame(stored(slot.as_ref(), 0, PAGE_SIZE as usize), off, bytes);
                *slot = Some(Frame::Owned(data));
            }
        }
    }

    /// Reads `buf.len()` bytes starting at `pa`, crossing frame boundaries
    /// as needed.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if any byte of the range is outside installed
    /// memory.
    pub fn read_bytes(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), MemFault> {
        self.check(pa, buf.len() as u64)?;
        let mut addr = pa.as_u64();
        let mut done = 0usize;
        while done < buf.len() {
            let frame = addr >> PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - done);
            self.read_frame(frame, off, &mut buf[done..done + chunk]);
            done += chunk;
            addr += chunk as u64;
        }
        Ok(())
    }

    /// Writes `buf` starting at `pa`, crossing frame boundaries as needed.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if any byte of the range is outside installed
    /// memory.
    pub fn write_bytes(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<(), MemFault> {
        self.check(pa, buf.len() as u64)?;
        let mut addr = pa.as_u64();
        let mut done = 0usize;
        while done < buf.len() {
            let frame = addr >> PAGE_SHIFT;
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - done);
            self.write_frame(frame, off, &buf[done..done + chunk]);
            done += chunk;
            addr += chunk as u64;
        }
        Ok(())
    }

    /// Writes `view` at `pa`, leaving memory exactly as
    /// [`write_bytes`](Self::write_bytes) of its bytes would. A
    /// non-empty view that starts at a page-aligned `pa`, fits in the
    /// page and lands on a frame not yet materialised is *adopted*: the
    /// frame stores the view (one `Arc` clone, no byte copy) and is
    /// copied into an owned page on its first write. Any other write
    /// copies, as `write_bytes` does.
    ///
    /// # Errors
    ///
    /// As for [`write_bytes`](Self::write_bytes); nothing is written.
    pub fn write_view(&mut self, pa: PhysAddr, view: &ByteView) -> Result<(), MemFault> {
        self.check(pa, view.len() as u64)?;
        let frame = (pa.as_u64() >> PAGE_SHIFT) as usize;
        let adopt = pa.is_aligned_to(PAGE_SIZE)
            && !view.is_empty()
            && view.len() as u64 <= PAGE_SIZE
            && self.frames.get(frame).is_none_or(Option::is_none);
        if !adopt {
            return self.write_bytes(pa, view);
        }
        *self.slot_mut(frame) = Some(Frame::Adopted(view.clone()));
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` frame to frame, with
    /// memmove semantics: overlapping ranges end up exactly as a read of
    /// the whole source followed by a write of it would leave them.
    /// Allocates nothing but destination frames on first touch (or on
    /// the first write of an adopted one), and not even those for a
    /// whole page:
    ///
    /// * A whole page aligned at both ends, into a frame that holds no
    ///   owned page, is *shared*: the destination adopts a view of the
    ///   source's bytes, wrapping an owned source page in place (one
    ///   `Arc`, no byte copy), and an unwritten source leaves the
    ///   destination unwritten. The first write to either frame copies
    ///   it, as for any adopted frame.
    /// * Any other chunk is copied: in place into an owned page,
    ///   otherwise into a page built around it. An unwritten source
    ///   frame reads as zeros and still materialises the destination
    ///   frame, as [`write_bytes`](Self::write_bytes) does.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] (at `src` first, then at `dst`) if any byte
    /// of either range is outside installed memory; nothing is written.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) -> Result<(), MemFault> {
        self.check(src, len)?;
        self.check(dst, len)?;
        let (src, dst) = (src.as_u64(), dst.as_u64());
        // A destination above an overlapping source is copied from the
        // end down, so no source byte is overwritten before it is read.
        let backward = src < dst && dst - src < len;
        let mut left = len;
        while left > 0 {
            // Each chunk stays inside one source and one destination
            // frame: the first uncopied bytes going forward, the last
            // ones going backward. `off` is its offset into the range.
            let (off, chunk) = if backward {
                let tail = |a: u64| (a + left - 1) % PAGE_SIZE + 1;
                let chunk = tail(src).min(tail(dst)).min(left);
                (left - chunk, chunk)
            } else {
                let off = len - left;
                let head = |a: u64| PAGE_SIZE - (a + off) % PAGE_SIZE;
                (off, head(src).min(head(dst)).min(left))
            };
            self.copy_in_frames(src + off, dst + off, chunk as usize);
            left -= chunk;
        }
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst`, both inside one frame each
    /// (possibly the same one).
    fn copy_in_frames(&mut self, src: u64, dst: u64, len: usize) {
        let (sf, df) = ((src >> PAGE_SHIFT) as usize, (dst >> PAGE_SHIFT) as usize);
        let (so, doff) = ((src % PAGE_SIZE) as usize, (dst % PAGE_SIZE) as usize);
        if let Ok([Some(Frame::Owned(s)), Some(Frame::Owned(d))]) =
            self.frames.get_disjoint_mut([sf, df])
        {
            d[doff..doff + len].copy_from_slice(&s[so..so + len]);
            return;
        }
        // A whole page (so aligned on both sides) into a frame holding
        // no owned page shares the source's bytes.
        if len == PAGE_SIZE as usize
            && sf != df
            && !matches!(self.frames.get(df), Some(Some(Frame::Owned(_))))
        {
            self.share_frame(sf, df);
            return;
        }
        // Take the destination frame out of its slot so the source can
        // be borrowed from the table alongside it.
        let data = match self.slot_mut(df).take() {
            Some(frame) => {
                let mut data = frame.into_owned();
                if sf == df {
                    data.copy_within(so..so + len, doff);
                } else {
                    let src = self.frames.get(sf).and_then(Option::as_ref);
                    read_slot(src, so, &mut data[doff..doff + len]);
                }
                data
            }
            // A fresh destination frame is built in one pass around the
            // source bytes. An unwritten source reads as zeros, and so
            // does a fresh frame copied onto itself (its slot is empty).
            None => {
                let s = stored(self.frames.get(sf).and_then(Option::as_ref), so, len);
                fresh_frame(&[], doff, s)
            }
        };
        self.frames[df] = Some(Frame::Owned(data));
    }

    /// Makes frame `df` hold what frame `sf` holds, sharing its bytes:
    /// an owned source page becomes a view of its own buffer (one `Arc`
    /// allocation, no byte copy) that both frames adopt, an adopted
    /// source's view is cloned, and an unwritten source leaves `df`
    /// unwritten. A later write to either frame copies it first.
    fn share_frame(&mut self, sf: usize, df: usize) {
        let view = match self.frames.get_mut(sf).and_then(Option::take) {
            Some(Frame::Owned(data)) => ByteView::from(data.into_vec()),
            Some(Frame::Adopted(view)) => view,
            None => {
                if let Some(slot) = self.frames.get_mut(df) {
                    *slot = None;
                }
                return;
            }
        };
        self.frames[sf] = Some(Frame::Adopted(view.clone()));
        *self.slot_mut(df) = Some(Frame::Adopted(view));
    }

    /// Reads a naturally aligned little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`MemFault::Misaligned`] if `pa` is not 8-byte aligned;
    /// [`MemFault::BusError`] if outside installed memory.
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64, MemFault> {
        if !pa.is_aligned_to(8) {
            return Err(MemFault::Misaligned { addr: pa.as_u64(), size: 8 });
        }
        // Aligned, so inside one frame.
        self.check(pa, 8)?;
        let mut b = [0u8; 8];
        self.read_frame(pa.as_u64() >> PAGE_SHIFT, (pa.as_u64() % PAGE_SIZE) as usize, &mut b);
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a naturally aligned little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`MemFault::Misaligned`] if `pa` is not 8-byte aligned;
    /// [`MemFault::BusError`] if outside installed memory.
    pub fn write_u64(&mut self, pa: PhysAddr, value: u64) -> Result<(), MemFault> {
        if !pa.is_aligned_to(8) {
            return Err(MemFault::Misaligned { addr: pa.as_u64(), size: 8 });
        }
        // Aligned, so inside one frame.
        self.check(pa, 8)?;
        let (frame, off) = (pa.as_u64() >> PAGE_SHIFT, (pa.as_u64() % PAGE_SIZE) as usize);
        self.write_frame(frame, off, &value.to_le_bytes());
        Ok(())
    }
}

/// A fresh page holding `bytes` at offset `off` over `base`, built in
/// one pass: `base`'s bytes (zeros past its end) around the range, the
/// bytes inside it.
fn fresh_frame(base: &[u8], off: usize, bytes: &[u8]) -> Box<[u8]> {
    let mut data = Vec::with_capacity(PAGE_SIZE as usize);
    data.extend_from_slice(&base[..off.min(base.len())]);
    data.resize(off, 0);
    data.extend_from_slice(bytes);
    data.extend_from_slice(base.get(data.len()..).unwrap_or(&[]));
    data.resize(PAGE_SIZE as usize, 0);
    data.into_boxed_slice()
}

/// A bump allocator of physical page frames. The model kernel never
/// returns a frame, so there is no free list.
///
/// The model kernel uses this to back user mappings and shadow windows.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    next: u64,
    limit: u64,
}

impl FrameAllocator {
    /// Creates an allocator over `[0, size)` bytes of physical memory.
    pub fn new(size: u64) -> Self {
        FrameAllocator { next: 0, limit: size >> PAGE_SHIFT }
    }

    /// Creates an allocator over frames `[base_frame, base_frame + count)`.
    pub fn with_range(base_frame: u64, count: u64) -> Self {
        FrameAllocator { next: base_frame, limit: base_frame + count }
    }

    /// Allocates a frame. Returns `None` when physical memory is
    /// exhausted.
    pub fn alloc(&mut self) -> Option<PhysFrame> {
        if self.next < self.limit {
            let f = PhysFrame::new(self.next);
            self.next += 1;
            Some(f)
        } else {
            None
        }
    }

    /// Number of frames still available.
    pub fn available(&self) -> u64 {
        self.limit - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of frames materialised so far.
    fn resident_frames(mem: &PhysMemory) -> usize {
        mem.frames.iter().filter(|f| f.is_some()).count()
    }

    #[test]
    fn zero_fill_on_first_touch() {
        let mem = PhysMemory::new(1 << 20);
        let mut buf = [0xFFu8; 16];
        mem.read_bytes(PhysAddr::new(0x4000), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(resident_frames(&mem), 0);
    }

    #[test]
    fn read_write_round_trip_across_frame_boundary() {
        let mut mem = PhysMemory::new(1 << 20);
        let pa = PhysAddr::new(PAGE_SIZE - 4);
        let data: Vec<u8> = (0..32).collect();
        mem.write_bytes(pa, &data).unwrap();
        let mut back = vec![0u8; 32];
        mem.read_bytes(pa, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(resident_frames(&mem), 2);
    }

    #[test]
    fn write_inside_a_fresh_frame_leaves_zeros_around_it() {
        let mut mem = PhysMemory::new(1 << 20);
        mem.write_bytes(PhysAddr::new(3 * PAGE_SIZE + 100), &[0xAB; 20]).unwrap();
        let mut frame = vec![0xFFu8; PAGE_SIZE as usize];
        mem.read_bytes(PhysAddr::new(3 * PAGE_SIZE), &mut frame).unwrap();
        assert!(frame[..100].iter().all(|&b| b == 0));
        assert!(frame[100..120].iter().all(|&b| b == 0xAB));
        assert!(frame[120..].iter().all(|&b| b == 0));
    }

    #[test]
    fn write_spanning_three_fresh_frames_reads_back() {
        let mut mem = PhysMemory::new(1 << 20);
        let pa = PhysAddr::new(2 * PAGE_SIZE - 8);
        let data: Vec<u8> = (0..PAGE_SIZE + 16).map(|i| (i % 251) as u8 + 1).collect();
        mem.write_bytes(pa, &data).unwrap();
        assert_eq!(resident_frames(&mem), 3);
        let mut back = vec![0u8; data.len()];
        mem.read_bytes(pa, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn untouched_frame_below_a_written_one_reads_as_zeros() {
        let mut mem = PhysMemory::new(1 << 20);
        mem.write_u64(PhysAddr::new(9 * PAGE_SIZE), 7).unwrap();
        let mut buf = [0xFFu8; 64];
        mem.read_bytes(PhysAddr::new(4 * PAGE_SIZE + 8), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(resident_frames(&mem), 1);
    }

    #[test]
    fn write_to_the_last_frame_works() {
        let mut mem = PhysMemory::new(4 * PAGE_SIZE);
        let pa = PhysAddr::new(4 * PAGE_SIZE - 8);
        mem.write_u64(pa, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(pa).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(resident_frames(&mem), 1);
    }

    #[test]
    fn out_of_range_write_materialises_no_frame() {
        let mut mem = PhysMemory::new(4 * PAGE_SIZE);
        let pa = PhysAddr::new(4 * PAGE_SIZE);
        assert_eq!(mem.write_bytes(pa, &[1u8; 8]), Err(MemFault::BusError { pa }));
        let pa = PhysAddr::new(4 * PAGE_SIZE - 4);
        assert_eq!(mem.write_bytes(pa, &[1u8; 8]), Err(MemFault::BusError { pa }));
        assert_eq!(resident_frames(&mem), 0);
        assert!(mem.frames.is_empty(), "a refused write grows no table");
    }

    #[test]
    fn resident_frames_counts_only_written_frames() {
        let mut mem = PhysMemory::new(1 << 20);
        assert_eq!(resident_frames(&mem), 0);
        mem.write_u64(PhysAddr::new(5 * PAGE_SIZE), 1).unwrap();
        mem.write_u64(PhysAddr::new(5 * PAGE_SIZE + 8), 2).unwrap();
        assert_eq!(resident_frames(&mem), 1, "frames 0..5 are table slots, not frames");
        mem.write_u64(PhysAddr::new(PAGE_SIZE), 3).unwrap();
        let mut buf = [0u8; 8];
        mem.read_bytes(PhysAddr::new(2 * PAGE_SIZE), &mut buf).unwrap();
        assert_eq!(resident_frames(&mem), 2, "reads materialise nothing");
    }

    #[test]
    fn copy_from_unwritten_frames_materialises_only_the_destination() {
        let mut mem = PhysMemory::new(1 << 20);
        // Source frames 2 and 3 were never written; the destination
        // spans frames 6 and 7.
        mem.copy(PhysAddr::new(2 * PAGE_SIZE + 8), PhysAddr::new(7 * PAGE_SIZE - 16), 64).unwrap();
        assert_eq!(resident_frames(&mem), 2);
        assert!(mem.frames[6].is_some() && mem.frames[7].is_some());
        let mut buf = [0xFFu8; 64];
        mem.read_bytes(PhysAddr::new(7 * PAGE_SIZE - 16), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn refused_copy_materialises_nothing() {
        let mut mem = PhysMemory::new(4 * PAGE_SIZE);
        let end = PhysAddr::new(4 * PAGE_SIZE - 4);
        let inside = PhysAddr::new(PAGE_SIZE);
        assert_eq!(mem.copy(end, inside, 8), Err(MemFault::BusError { pa: end }));
        assert_eq!(mem.copy(inside, end, 8), Err(MemFault::BusError { pa: end }));
        assert!(mem.frames.is_empty(), "a refused copy grows no table");
    }

    /// Whether frame `n` holds an adopted view.
    fn adopted(mem: &PhysMemory, n: usize) -> bool {
        matches!(mem.frames.get(n), Some(Some(Frame::Adopted(_))))
    }

    #[test]
    fn aligned_view_into_a_fresh_frame_is_adopted_and_reads_zero_past_it() {
        let mut mem = PhysMemory::new(1 << 20);
        let view = ByteView::from(vec![0xCD; 100]);
        mem.write_view(PhysAddr::new(2 * PAGE_SIZE), &view).unwrap();
        assert!(adopted(&mem, 2));
        let mut frame = vec![0xFFu8; PAGE_SIZE as usize];
        mem.read_bytes(PhysAddr::new(2 * PAGE_SIZE), &mut frame).unwrap();
        assert!(frame[..100].iter().all(|&b| b == 0xCD));
        assert!(frame[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn first_write_copies_an_adopted_frame_and_leaves_the_view_alone() {
        let mut mem = PhysMemory::new(1 << 20);
        let view = ByteView::from((0u8..64).collect::<Vec<_>>());
        mem.write_view(PhysAddr::new(PAGE_SIZE), &view).unwrap();
        let snapshot = mem.clone();
        mem.write_bytes(PhysAddr::new(PAGE_SIZE + 60), &[0xEE; 8]).unwrap();
        assert!(!adopted(&mem, 1) && adopted(&snapshot, 1));
        assert_eq!(&*view, (0u8..64).collect::<Vec<_>>().as_slice());
        let mut back = [0u8; 72];
        mem.read_bytes(PhysAddr::new(PAGE_SIZE), &mut back).unwrap();
        assert_eq!(&back[..60], &view[..60]);
        assert_eq!(&back[60..68], &[0xEE; 8]);
        assert_eq!(&back[68..], &[0; 4]);
        snapshot.read_bytes(PhysAddr::new(PAGE_SIZE), &mut back).unwrap();
        assert_eq!(&back[..64], &*view);
    }

    #[test]
    fn unaligned_oversized_or_resident_targets_copy_instead() {
        let mut mem = PhysMemory::new(1 << 20);
        let small = ByteView::from(vec![1u8; 16]);
        mem.write_view(PhysAddr::new(PAGE_SIZE + 8), &small).unwrap();
        let big = ByteView::from(vec![2u8; PAGE_SIZE as usize + 8]);
        mem.write_view(PhysAddr::new(3 * PAGE_SIZE), &big).unwrap();
        mem.write_u64(PhysAddr::new(6 * PAGE_SIZE + 64), 9).unwrap();
        mem.write_view(PhysAddr::new(6 * PAGE_SIZE), &small).unwrap();
        mem.write_view(PhysAddr::new(8 * PAGE_SIZE), &ByteView::from(Vec::new())).unwrap();
        assert!((0..mem.frames.len()).all(|n| !adopted(&mem, n)));
        assert_eq!(resident_frames(&mem), 4, "frames 1, 3, 4 and 6; the empty view adds none");
        assert_eq!(
            mem.read_u64(PhysAddr::new(6 * PAGE_SIZE + 8)).unwrap(),
            u64::from_le_bytes([1; 8])
        );
        assert_eq!(mem.read_u64(PhysAddr::new(6 * PAGE_SIZE + 64)).unwrap(), 9);
        // A refused view writes nothing.
        let end = PhysAddr::new((1 << 20) - 8);
        assert_eq!(mem.write_view(end, &small), Err(MemFault::BusError { pa: end }));
    }

    #[test]
    fn copies_read_from_and_write_over_adopted_frames() {
        let mut mem = PhysMemory::new(1 << 20);
        let view = ByteView::from((1u8..=32).collect::<Vec<_>>());
        mem.write_view(PhysAddr::new(0), &view).unwrap();
        mem.write_view(PhysAddr::new(PAGE_SIZE), &view).unwrap();
        // Out of an adopted frame, past the view's end, into a fresh one.
        mem.copy(PhysAddr::new(16), PhysAddr::new(4 * PAGE_SIZE), 32).unwrap();
        let mut buf = [0xFFu8; 32];
        mem.read_bytes(PhysAddr::new(4 * PAGE_SIZE), &mut buf).unwrap();
        assert_eq!(&buf[..16], &view[16..]);
        assert_eq!(&buf[16..], &[0; 16]);
        // Within one adopted frame, overlapping: copy-on-write first.
        mem.copy(PhysAddr::new(PAGE_SIZE), PhysAddr::new(PAGE_SIZE + 8), 32).unwrap();
        assert!(!adopted(&mem, 1) && adopted(&mem, 0));
        mem.read_bytes(PhysAddr::new(PAGE_SIZE + 8), &mut buf).unwrap();
        assert_eq!(buf, *view);
    }

    /// The address of frame `n`'s owned page, if it holds one.
    fn owned_page(mem: &PhysMemory, n: usize) -> Option<*const u8> {
        match mem.frames.get(n) {
            Some(Some(Frame::Owned(data))) => Some(data.as_ptr()),
            _ => None,
        }
    }

    /// Frame `n` read whole.
    fn page(mem: &PhysMemory, n: u64) -> Vec<u8> {
        let mut buf = vec![0xFFu8; PAGE_SIZE as usize];
        mem.read_bytes(PhysAddr::new(n * PAGE_SIZE), &mut buf).unwrap();
        buf
    }

    #[test]
    fn whole_page_copy_into_a_fresh_frame_shares_the_source() {
        let mut mem = PhysMemory::new(1 << 20);
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        mem.write_bytes(PhysAddr::new(2 * PAGE_SIZE), &bytes).unwrap();
        let source = owned_page(&mem, 2);
        mem.copy(PhysAddr::new(2 * PAGE_SIZE), PhysAddr::new(5 * PAGE_SIZE), PAGE_SIZE).unwrap();
        assert!(adopted(&mem, 2) && adopted(&mem, 5), "both frames view the source's bytes");
        let Some(Frame::Adopted(view)) = &mem.frames[5] else { unreachable!() };
        assert_eq!(Some(view.as_ptr()), source, "the owned page was wrapped, not copied");
        assert_eq!(page(&mem, 5), bytes);
        // Sharing the shared page again clones the view.
        mem.copy(PhysAddr::new(5 * PAGE_SIZE), PhysAddr::new(7 * PAGE_SIZE), PAGE_SIZE).unwrap();
        assert!(adopted(&mem, 7));
        assert_eq!(page(&mem, 7), bytes);
    }

    #[test]
    fn whole_page_copy_into_an_owned_page_copies_in_place() {
        let mut mem = PhysMemory::new(1 << 20);
        mem.write_bytes(PhysAddr::new(PAGE_SIZE), &[0x5A; 64]).unwrap();
        mem.write_u64(PhysAddr::new(4 * PAGE_SIZE + 8), 3).unwrap();
        let dst = owned_page(&mem, 4);
        mem.copy(PhysAddr::new(PAGE_SIZE), PhysAddr::new(4 * PAGE_SIZE), PAGE_SIZE).unwrap();
        assert!(dst.is_some() && owned_page(&mem, 4) == dst, "written in place");
        assert!(owned_page(&mem, 1).is_some(), "the source stays owned");
        assert_eq!(page(&mem, 4), page(&mem, 1));
        // An unwritten source zeroes an owned page in place too.
        mem.copy(PhysAddr::new(9 * PAGE_SIZE), PhysAddr::new(4 * PAGE_SIZE), PAGE_SIZE).unwrap();
        assert!(owned_page(&mem, 4) == dst);
        assert_eq!(page(&mem, 4), vec![0; PAGE_SIZE as usize]);
    }

    #[test]
    fn a_write_to_either_side_of_a_shared_page_leaves_the_other_alone() {
        let mut mem = PhysMemory::new(1 << 20);
        let bytes = vec![0x11u8; PAGE_SIZE as usize];
        mem.write_bytes(PhysAddr::new(0), &bytes).unwrap();
        mem.copy(PhysAddr::new(0), PhysAddr::new(3 * PAGE_SIZE), PAGE_SIZE).unwrap();
        mem.copy(PhysAddr::new(0), PhysAddr::new(6 * PAGE_SIZE), PAGE_SIZE).unwrap();
        // A write to the source copies it; both copies keep the old bytes.
        mem.write_u64(PhysAddr::new(16), 0xAA).unwrap();
        assert!(!adopted(&mem, 0) && adopted(&mem, 3) && adopted(&mem, 6));
        assert_eq!(page(&mem, 3), bytes);
        assert_eq!(mem.read_u64(PhysAddr::new(16)).unwrap(), 0xAA);
        // A write to one copy leaves the source and the other copy alone.
        mem.write_bytes(PhysAddr::new(3 * PAGE_SIZE + 100), &[0xBB; 8]).unwrap();
        assert!(!adopted(&mem, 3) && adopted(&mem, 6));
        assert_eq!(page(&mem, 6), bytes);
        assert_eq!(mem.read_u64(PhysAddr::new(16)).unwrap(), 0xAA);
        let mut back = [0u8; 8];
        mem.read_bytes(PhysAddr::new(3 * PAGE_SIZE + 100), &mut back).unwrap();
        assert_eq!(back, [0xBB; 8]);
    }

    #[test]
    fn unaligned_or_partial_chunks_copy_and_unwritten_sources_share_nothing() {
        let mut mem = PhysMemory::new(1 << 20);
        let bytes: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 249) as u8 + 1).collect();
        mem.write_bytes(PhysAddr::new(0), &bytes).unwrap();
        // A page starting mid-frame is two partial chunks.
        mem.copy(PhysAddr::new(8), PhysAddr::new(4 * PAGE_SIZE + 8), PAGE_SIZE).unwrap();
        // A page-aligned range short of a page.
        mem.copy(PhysAddr::new(0), PhysAddr::new(6 * PAGE_SIZE), PAGE_SIZE - 8).unwrap();
        assert!((0..mem.frames.len()).all(|n| !adopted(&mem, n)), "nothing shared");
        assert_eq!(resident_frames(&mem), 5, "frames 0, 1, 4, 5 and 6");
        let mut back = vec![0u8; PAGE_SIZE as usize];
        mem.read_bytes(PhysAddr::new(4 * PAGE_SIZE + 8), &mut back).unwrap();
        assert_eq!(back, bytes[8..PAGE_SIZE as usize + 8]);
        // A whole unwritten page leaves a fresh destination unwritten
        // and turns an adopted one back into zeros.
        mem.copy(PhysAddr::new(9 * PAGE_SIZE), PhysAddr::new(10 * PAGE_SIZE), PAGE_SIZE).unwrap();
        mem.copy(PhysAddr::new(0), PhysAddr::new(11 * PAGE_SIZE), PAGE_SIZE).unwrap();
        assert!(adopted(&mem, 11));
        mem.copy(PhysAddr::new(9 * PAGE_SIZE), PhysAddr::new(11 * PAGE_SIZE), PAGE_SIZE).unwrap();
        assert_eq!(resident_frames(&mem), 5, "the unwritten page materialised nothing");
        assert_eq!(page(&mem, 11), vec![0; PAGE_SIZE as usize]);
    }

    #[test]
    fn u64_alignment_enforced() {
        let mut mem = PhysMemory::new(1 << 20);
        assert_eq!(
            mem.write_u64(PhysAddr::new(0x101), 1),
            Err(MemFault::Misaligned { addr: 0x101, size: 8 })
        );
        assert_eq!(
            mem.read_u64(PhysAddr::new(0x104)),
            Err(MemFault::Misaligned { addr: 0x104, size: 8 })
        );
    }

    #[test]
    fn u64_little_endian() {
        let mut mem = PhysMemory::new(1 << 20);
        mem.write_u64(PhysAddr::new(0x200), 0x0102_0304_0506_0708).unwrap();
        let mut b = [0u8; 8];
        mem.read_bytes(PhysAddr::new(0x200), &mut b).unwrap();
        assert_eq!(b, [8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn out_of_range_is_bus_error() {
        let mut mem = PhysMemory::new(PAGE_SIZE);
        let pa = PhysAddr::new(PAGE_SIZE);
        assert!(matches!(mem.read_u64(pa), Err(MemFault::BusError { .. })));
        let pa = PhysAddr::new(PAGE_SIZE - 4);
        assert!(matches!(mem.write_bytes(pa, &[0u8; 8]), Err(MemFault::BusError { .. })));
    }

    #[test]
    fn overflowing_range_is_bus_error() {
        let mem = PhysMemory::new(PAGE_SIZE);
        let mut buf = [0u8; 4];
        assert!(matches!(
            mem.read_bytes(PhysAddr::new(u64::MAX - 1), &mut buf),
            Err(MemFault::BusError { .. })
        ));
    }

    #[test]
    fn size_rounds_up_to_pages() {
        let mem = PhysMemory::new(1);
        assert_eq!(mem.size(), PAGE_SIZE);
    }

    #[test]
    fn allocator_unique_frames_until_exhausted() {
        let mut a = FrameAllocator::new(4 * PAGE_SIZE);
        let f0 = a.alloc().unwrap();
        let f1 = a.alloc().unwrap();
        assert_ne!(f0, f1);
        assert_eq!(a.available(), 2);
        let _ = a.alloc().unwrap();
        let _ = a.alloc().unwrap();
        assert_eq!(a.available(), 0);
        assert_eq!(a.alloc(), None);
    }

    #[test]
    fn allocator_with_range() {
        let mut a = FrameAllocator::with_range(100, 2);
        assert_eq!(a.alloc().unwrap().number(), 100);
        assert_eq!(a.alloc().unwrap().number(), 101);
        assert_eq!(a.alloc(), None);
    }
}
