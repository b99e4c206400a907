//! Property-based tests for the memory substrate.

use udma_testkit::prop::{any, vec};
use udma_testkit::{prop_assert, prop_assert_eq, props};

use udma_mem::{
    Access, FrameAllocator, MemFault, PageTable, Perms, PhysAddr, PhysMemory, ShadowLayout,
    VirtAddr, VirtPage, PAGE_SIZE,
};

/// Frames of the memory the copy property runs on.
const COPY_FRAMES: u64 = 6;

/// Every byte of `mem`.
fn image(mem: &PhysMemory) -> Vec<u8> {
    let mut out = vec![0u8; mem.size() as usize];
    mem.read_bytes(PhysAddr::new(0), &mut out).unwrap();
    out
}

props! {
    /// shadow ∘ decode is the identity on (paddr, ctx) for every layout.
    fn shadow_round_trip(
        shadow_bit in 20u32..60,
        ctx_bits in 0u32..3,
        pa_raw in 0u64..(1 << 19),
        ctx in 0u32..8,
    ) {
        let ctx_shift = shadow_bit - ctx_bits;
        let layout = ShadowLayout::new(shadow_bit, ctx_shift, ctx_bits);
        let pa = PhysAddr::new(pa_raw);
        if pa_raw >= layout.plain_limit() {
            prop_assert!(layout.shadow_paddr_ctx(pa, ctx.min(layout.num_contexts() - 1)).is_none());
        } else if ctx < layout.num_contexts() {
            let s = layout.shadow_paddr_ctx(pa, ctx).unwrap();
            prop_assert!(layout.is_shadow(s));
            prop_assert_eq!(layout.decode(s), Some((pa, ctx)));
        } else {
            prop_assert!(layout.shadow_paddr_ctx(pa, ctx).is_none());
        }
    }

    /// Distinct (paddr, ctx) pairs produce distinct shadow addresses.
    fn shadow_is_injective(
        a in 0u64..(1 << 16),
        b in 0u64..(1 << 16),
        ca in 0u32..4,
        cb in 0u32..4,
    ) {
        let layout = ShadowLayout::default();
        let sa = layout.shadow_paddr_ctx(PhysAddr::new(a * 8), ca).unwrap();
        let sb = layout.shadow_paddr_ctx(PhysAddr::new(b * 8), cb).unwrap();
        prop_assert_eq!(sa == sb, a == b && ca == cb);
    }

    /// What you write is what you read back, for arbitrary ranges that may
    /// cross frame boundaries.
    fn phys_memory_write_read_round_trip(
        start in 0u64..(4 * PAGE_SIZE),
        data in vec(any::<u8>(), 1..512),
    ) {
        let mut mem = PhysMemory::new(8 * PAGE_SIZE);
        let pa = PhysAddr::new(start);
        mem.write_bytes(pa, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        mem.read_bytes(pa, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Writes to one range never disturb a disjoint range.
    fn phys_memory_writes_are_local(
        a_start in 0u64..PAGE_SIZE,
        a_data in vec(any::<u8>(), 1..128),
        b_off in 0u64..PAGE_SIZE,
        b_data in vec(any::<u8>(), 1..128),
    ) {
        let mut mem = PhysMemory::new(16 * PAGE_SIZE);
        let a = PhysAddr::new(a_start);
        // Place b in a region guaranteed disjoint from a.
        let b = PhysAddr::new(8 * PAGE_SIZE + b_off);
        mem.write_bytes(a, &a_data).unwrap();
        mem.write_bytes(b, &b_data).unwrap();
        let mut back = vec![0u8; a_data.len()];
        mem.read_bytes(a, &mut back).unwrap();
        prop_assert_eq!(back, a_data);
    }

    /// A frame-to-frame copy leaves exactly the image a read of the whole
    /// source followed by a write of it leaves: overlap in either
    /// direction, ranges crossing frames, unwritten source and
    /// destination frames, and ranges running out of memory (where both
    /// refuse with the same fault and write nothing).
    fn phys_memory_copy_matches_read_then_write(
        written in vec(any::<bool>(), COPY_FRAMES as usize..COPY_FRAMES as usize + 1),
        seed in any::<u64>(),
        src in 0u64..(COPY_FRAMES + 1) * PAGE_SIZE,
        dst in (0u8..3, 0u64..(COPY_FRAMES + 1) * PAGE_SIZE),
        len in 0u64..3 * PAGE_SIZE,
    ) {
        let mut mem = PhysMemory::new(COPY_FRAMES * PAGE_SIZE);
        let mut state = seed;
        for (f, _) in written.iter().enumerate().filter(|&(_, &w)| w) {
            let bytes: Vec<u8> = (0..PAGE_SIZE)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (state >> 56) as u8
                })
                .collect();
            mem.write_bytes(PhysAddr::new(f as u64 * PAGE_SIZE), &bytes).unwrap();
        }
        // Half the cases place the destination within two frames of the
        // source, above or below it, so the ranges often overlap.
        let dst = match dst {
            (0, d) => d,
            (1, d) => src + d % (2 * PAGE_SIZE),
            (_, d) => src.saturating_sub(d % (2 * PAGE_SIZE)),
        };
        let (src, dst) = (PhysAddr::new(src), PhysAddr::new(dst));
        let mut oracle = mem.clone();
        let mut buf = vec![0u8; len as usize];
        let expected =
            oracle.read_bytes(src, &mut buf).and_then(|()| oracle.write_bytes(dst, &buf));
        prop_assert_eq!(mem.copy(src, dst, len), expected);
        prop_assert_eq!(image(&mem), image(&oracle));
    }

    /// Translation preserves the page offset and respects permissions.
    fn page_table_translate_properties(
        page in 0u64..64,
        offset in 0u64..PAGE_SIZE,
        readable in any::<bool>(),
        writable in any::<bool>(),
    ) {
        let mut pt = PageTable::new();
        let mut perms = Perms::NONE;
        if readable { perms |= Perms::READ; }
        if writable { perms |= Perms::WRITE; }
        let mut alloc = FrameAllocator::with_range(1000, 4096);
        let frame = alloc.alloc().unwrap();
        pt.map(VirtPage::new(page), frame, perms).unwrap();

        let va = VirtAddr::new(page * PAGE_SIZE + offset);
        for (access, allowed) in [(Access::Read, readable), (Access::Write, writable)] {
            match pt.translate(va, access) {
                Ok(pa) => {
                    prop_assert!(allowed);
                    prop_assert_eq!(pa.page_offset(), offset);
                    prop_assert_eq!(pa.page(), frame);
                }
                Err(MemFault::Protection { .. }) => prop_assert!(!allowed),
                Err(other) => prop_assert!(false, "unexpected fault {other:?}"),
            }
        }
    }

    /// Evictions are exactly the fills that exceeded capacity: after
    /// touching `pages` distinct pages through a cold TLB of `cap`
    /// entries, `evictions == misses - len` and the TLB never overfills.
    fn tlb_evictions_account_for_capacity(
        cap in 1usize..8,
        pages in 1u64..32,
    ) {
        let mut pt = PageTable::new();
        let mut alloc = FrameAllocator::with_range(1, 4096);
        for p in 0..pages {
            pt.map(VirtPage::new(p), alloc.alloc().unwrap(), Perms::READ).unwrap();
        }
        let mut tlb = udma_mem::Tlb::new(cap);
        for p in 0..pages {
            tlb.translate(&pt, VirtPage::new(p).base(), Access::Read).unwrap();
        }
        let stats = tlb.stats();
        prop_assert_eq!(stats.misses, pages);
        prop_assert!(tlb.len() <= cap);
        prop_assert_eq!(stats.evictions, pages.saturating_sub(cap as u64));
        prop_assert_eq!(stats.evictions, stats.misses - tlb.len() as u64);
    }

    /// The frame allocator never hands out the same frame twice while it
    /// is live, and never exceeds its range.
    fn allocator_uniqueness(count in 1u64..128, take in 1usize..200) {
        let mut alloc = FrameAllocator::with_range(0, count);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..take {
            match alloc.alloc() {
                Some(f) => {
                    prop_assert!(f.number() < count);
                    prop_assert!(seen.insert(f), "frame {f} handed out twice");
                }
                None => {
                    prop_assert!(seen.len() as u64 == count);
                    break;
                }
            }
        }
    }
}

/// Regression pinned from the retired proptest suite's saved failure
/// (`props.proptest-regressions`): the boundary where `pa_raw` equals
/// `plain_limit` exactly, with the narrowest shadow bit.
#[test]
fn shadow_round_trip_regression_at_plain_limit() {
    let (shadow_bit, ctx_bits, pa_raw, ctx) = (20u32, 2u32, 262_144u64, 0u32);
    let layout = ShadowLayout::new(shadow_bit, shadow_bit - ctx_bits, ctx_bits);
    let pa = PhysAddr::new(pa_raw);
    assert!(pa_raw >= layout.plain_limit(), "the saved case sits on the plain-limit boundary");
    assert!(layout.shadow_paddr_ctx(pa, ctx.min(layout.num_contexts() - 1)).is_none());
}
