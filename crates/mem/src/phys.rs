//! Physical memory and frame allocation.

use crate::{MemFault, PhysAddr, PhysFrame, PAGE_SHIFT, PAGE_SIZE};

/// Byte-addressable physical memory, stored one frame at a time in a
/// table indexed by frame number.
///
/// A frame is materialised on its first write, and the table grows to
/// the highest frame written, so a machine with a multi-gigabyte
/// physical address space pays a pointer per frame up to that one plus
/// the frames it actually uses. Unwritten memory reads as zero. All
/// multi-byte accesses are little-endian, like the Alpha.
///
/// ```
/// use udma_mem::{PhysMemory, PhysAddr};
///
/// # fn main() -> Result<(), udma_mem::MemFault> {
/// let mut mem = PhysMemory::new(1 << 20);
/// mem.write_u64(PhysAddr::new(0x100), 42)?;
/// assert_eq!(mem.read_u64(PhysAddr::new(0x100))?, 42);
/// // Untouched memory reads as zero.
/// assert_eq!(mem.read_u64(PhysAddr::new(0x8000))?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct PhysMemory {
    /// `frames[n]` is frame `n`'s bytes, `None` until first written.
    frames: Vec<Option<Box<[u8]>>>,
    size: u64,
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

    /// Writes `bytes` at offset `off` of frame `frame`, materialising it
    /// with [`fresh_frame`] on first touch.
    fn write_frame(&mut self, frame: u64, off: usize, bytes: &[u8]) {
        let frame = frame as usize;
        if frame >= self.frames.len() {
            self.frames.resize(frame + 1, None);
        }
        match &mut self.frames[frame] {
            Some(data) => data[off..off + bytes.len()].copy_from_slice(bytes),
            slot @ None => *slot = Some(fresh_frame(off, bytes)),
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
            match self.frames.get(frame as usize).and_then(Option::as_deref) {
                Some(data) => buf[done..done + chunk].copy_from_slice(&data[off..off + chunk]),
                None => buf[done..done + chunk].fill(0),
            }
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

    /// Copies `len` bytes from `src` to `dst` frame to frame, with
    /// memmove semantics: overlapping ranges end up exactly as a read of
    /// the whole source followed by a write of it would leave them.
    /// Allocates nothing but destination frames on first touch; an
    /// unwritten source frame reads as zeros and still materialises the
    /// destination frame, as [`write_bytes`](Self::write_bytes) does.
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
        if df >= self.frames.len() {
            self.frames.resize(df + 1, None);
        }
        // Take the destination frame out of its slot so the source can
        // be borrowed from the table alongside it.
        let data = match self.frames[df].take() {
            Some(mut data) => {
                if sf == df {
                    data.copy_within(so..so + len, doff);
                } else {
                    match self.frames.get(sf).and_then(Option::as_deref) {
                        Some(s) => data[doff..doff + len].copy_from_slice(&s[so..so + len]),
                        None => data[doff..doff + len].fill(0),
                    }
                }
                data
            }
            // A fresh destination frame is built in one pass around the
            // source bytes. An unwritten source reads as zeros, and so
            // does a fresh frame copied onto itself (its slot is empty).
            None => match self.frames.get(sf).and_then(Option::as_deref) {
                Some(s) => fresh_frame(doff, &s[so..so + len]),
                None => fresh_frame(0, &[]),
            },
        };
        self.frames[df] = Some(data);
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
        let mut b = [0u8; 8];
        self.read_bytes(pa, &mut b)?;
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
        self.write_bytes(pa, &value.to_le_bytes())
    }
}

/// A fresh frame holding `bytes` at offset `off`, built in one pass:
/// zeros before the range, the bytes, zeros after.
fn fresh_frame(off: usize, bytes: &[u8]) -> Box<[u8]> {
    let mut data = Vec::with_capacity(PAGE_SIZE as usize);
    data.resize(off, 0);
    data.extend_from_slice(bytes);
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
