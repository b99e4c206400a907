//! Property-based tests for the memory substrate, and the flat
//! set-associative array against a reference model of the nested layout.

use udma_testkit::prop::{any, vec};
use udma_testkit::{prop_assert, prop_assert_eq, props};

use udma_mem::{
    Access, ByteView, Fill, FrameAllocator, MemFault, PageTable, Perms, PhysAddr, PhysMemory,
    Replacement, SetAssoc, ShadowLayout, VirtAddr, VirtPage, PAGE_SIZE,
};

/// Frames of the memory the copy property runs on.
const COPY_FRAMES: u64 = 6;

/// Every byte of `mem`.
fn image(mem: &PhysMemory) -> Vec<u8> {
    let mut out = vec![0u8; mem.size() as usize];
    mem.read_bytes(PhysAddr::new(0), &mut out).unwrap();
    out
}

/// Frames of the memory the `PhysMemory` model property runs on.
const MODEL_FRAMES: u64 = 5;

/// `len` pseudo-random bytes drawn from `seed`.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect()
}

/// A flat byte vector with `PhysMemory`'s range checks: the reference
/// model of every byte-level operation.
#[derive(Clone)]
struct FlatMemory(Vec<u8>);

impl FlatMemory {
    fn range(&self, pa: u64, len: u64) -> Result<std::ops::Range<usize>, MemFault> {
        let fault = MemFault::BusError { pa: PhysAddr::new(pa) };
        let end = pa.checked_add(len).ok_or(fault)?;
        let size = self.0.len() as u64;
        if end > size || len == 0 && pa >= size {
            return Err(fault);
        }
        Ok(pa as usize..end as usize)
    }

    fn read(&self, pa: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let r = self.range(pa, buf.len() as u64)?;
        buf.copy_from_slice(&self.0[r]);
        Ok(())
    }

    fn write(&mut self, pa: u64, buf: &[u8]) -> Result<(), MemFault> {
        let r = self.range(pa, buf.len() as u64)?;
        self.0[r].copy_from_slice(buf);
        Ok(())
    }

    fn copy(&mut self, src: u64, dst: u64, len: u64) -> Result<(), MemFault> {
        let s = self.range(src, len)?;
        let d = self.range(dst, len)?;
        self.0.copy_within(s, d.start);
        Ok(())
    }
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

    /// `PhysMemory` behaves as a flat byte vector under random
    /// sequences of byte writes, view writes (page-aligned or not,
    /// whole-page or partial, into fresh or already-written frames),
    /// copies (overlapping ones too, and whole-page ones that share
    /// frames), byte reads, `u64` reads and writes, and clones. Two
    /// memories run side by side: a clone step makes the second a clone
    /// of the first, and every other step acts on one of them, so a
    /// clone and its original must diverge independently. After each
    /// step both read back whole as their models, and every buffer a
    /// view was written from is unchanged.
    fn phys_memory_matches_a_flat_model(
        ops in vec((0u8..7, any::<u64>(), any::<u64>(), 0u64..2 * PAGE_SIZE + 16), 1..32),
    ) {
        let size = MODEL_FRAMES * PAGE_SIZE;
        let fresh = || (PhysMemory::new(size), FlatMemory(vec![0; size as usize]));
        let mut pair = [fresh(), fresh()];
        let mut views: Vec<(ByteView, Vec<u8>)> = Vec::new();
        for &(kind, a, b, len) in &ops {
            // Addresses reach a page past the end, so some ops refuse.
            let addr = (a >> 8) % (size + PAGE_SIZE);
            let (mem, flat) = &mut pair[(a & 1) as usize];
            match kind {
                0 => {
                    let bytes = pattern(b, len as usize);
                    let pa = PhysAddr::new(addr);
                    prop_assert_eq!(mem.write_bytes(pa, &bytes), flat.write(addr, &bytes));
                }
                1 => {
                    // Mostly page-aligned, often exactly one page long,
                    // and viewed from inside a larger buffer.
                    let pa = if a & 6 == 0 { addr } else { addr & !(PAGE_SIZE - 1) };
                    let len = if a & 8 == 0 { len } else { PAGE_SIZE };
                    let skip = (b >> 48) % 64;
                    let whole = ByteView::from(pattern(b, (skip + len + 8) as usize));
                    let view = whole.slice(skip as usize..(skip + len) as usize).unwrap();
                    views.push((whole.clone(), whole.to_vec()));
                    prop_assert_eq!(
                        mem.write_view(PhysAddr::new(pa), &view),
                        flat.write(pa, &view)
                    );
                }
                2 => {
                    // Half the copies land within two frames of their
                    // source, so the ranges often overlap. A third run
                    // whole pages (one to three) between page-aligned
                    // addresses, so they share frames: unwritten ones,
                    // owned ones and adopted short views alike.
                    let whole = (b >> 58) % 3 == 0;
                    let (src, len, near, mask) = if whole {
                        let pages = 1 + (b >> 48) % 3;
                        let near = (b >> 44) % 3 * PAGE_SIZE;
                        (addr & !(PAGE_SIZE - 1), pages * PAGE_SIZE, near, !(PAGE_SIZE - 1))
                    } else {
                        (addr, len, b % (2 * PAGE_SIZE), !0)
                    };
                    let dst = match (b >> 32) % 4 {
                        0 => src + near,
                        1 => src.saturating_sub(near),
                        _ => ((b >> 8) % (size + PAGE_SIZE)) & mask,
                    };
                    let (src_pa, dst_pa) = (PhysAddr::new(src), PhysAddr::new(dst));
                    prop_assert_eq!(mem.copy(src_pa, dst_pa, len), flat.copy(src, dst, len));
                }
                3 => {
                    let (mut got, mut want) = (vec![0xA5; len as usize], vec![0xA5; len as usize]);
                    prop_assert_eq!(
                        mem.read_bytes(PhysAddr::new(addr), &mut got),
                        flat.read(addr, &mut want)
                    );
                    prop_assert_eq!(got, want);
                }
                4 | 5 => {
                    // Mostly aligned; a misaligned access faults alike.
                    let pa = if b & 7 == 0 { addr } else { addr & !7 };
                    let misaligned = MemFault::Misaligned { addr: pa, size: 8 };
                    if kind == 4 {
                        let want = if pa % 8 != 0 {
                            Err(misaligned)
                        } else {
                            flat.write(pa, &b.to_le_bytes())
                        };
                        prop_assert_eq!(mem.write_u64(PhysAddr::new(pa), b), want);
                    } else {
                        let mut word = [0u8; 8];
                        let want = if pa % 8 != 0 {
                            Err(misaligned)
                        } else {
                            flat.read(pa, &mut word).map(|()| u64::from_le_bytes(word))
                        };
                        prop_assert_eq!(mem.read_u64(PhysAddr::new(pa)), want);
                    }
                }
                _ => pair[1] = pair[0].clone(),
            }
            for (mem, flat) in &pair {
                prop_assert!(image(mem) == flat.0, "memory differs from its model after {:?}", (kind, a, b, len));
            }
            for (view, bytes) in &views {
                prop_assert!(**view == **bytes, "a viewed buffer changed");
            }
        }
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

/// One resident `(key, value, stamp)` of the reference model.
type RefSlot = (u64, u64, u64);

/// The set-associative array as a `Vec` of ways per set, the set picked
/// by `%`, every operation a scan of `Option` ways: the specification the
/// flat [`SetAssoc`] must match operation by operation.
struct RefSetAssoc {
    sets: Vec<Vec<Option<RefSlot>>>,
    replacement: Replacement,
    fifo: Vec<usize>,
    tick: u64,
    rng_state: u64,
}

impl RefSetAssoc {
    fn new(sets: usize, ways: usize, replacement: Replacement, seed: u64) -> Self {
        RefSetAssoc {
            sets: vec![vec![None; ways]; sets],
            replacement,
            fifo: vec![0; sets],
            tick: 0,
            rng_state: seed,
        }
    }

    fn set(&mut self, key: u64) -> &mut Vec<Option<RefSlot>> {
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    fn len(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }

    fn next_random(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A touching lookup that accepts values `>= min` and increments the
    /// accepted value in place.
    fn get_bump(&mut self, key: u64, min: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.set(key).iter_mut().flatten().find(|s| s.0 == key)?;
        if slot.1 < min {
            return None;
        }
        slot.1 += 1;
        slot.2 = tick;
        Some(slot.1)
    }

    fn peek(&mut self, key: u64, min: u64) -> Option<u64> {
        self.set(key).iter().flatten().find(|s| s.0 == key && s.1 >= min).map(|s| s.1)
    }

    fn fill(&mut self, key: u64, value: u64) -> Fill<u64, u64> {
        let idx = (key % self.sets.len() as u64) as usize;
        let ways = self.sets[idx].len();
        if ways == 0 {
            return Fill::Evicted(key, value);
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(s) = self.sets[idx].iter_mut().flatten().find(|s| s.0 == key) {
            let old = s.1;
            *s = (key, value, tick);
            return Fill::Replaced(old);
        }
        if let Some(free) = self.sets[idx].iter().position(Option::is_none) {
            self.sets[idx][free] = Some((key, value, tick));
            return Fill::Vacant;
        }
        let way = match self.replacement {
            Replacement::Fifo => {
                let w = self.fifo[idx];
                self.fifo[idx] = (w + 1) % ways;
                w
            }
            Replacement::Lru => {
                let stamps = self.sets[idx].iter().map(|s| s.map_or(u64::MAX, |s| s.2));
                let oldest = stamps.clone().min().unwrap();
                stamps.clone().position(|t| t == oldest).unwrap()
            }
            Replacement::Random => (self.next_random() % ways as u64) as usize,
        };
        let (vk, vv, _) = self.sets[idx][way].replace((key, value, tick)).unwrap();
        Fill::Evicted(vk, vv)
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let slot = self.set(key).iter_mut().find(|s| s.is_some_and(|s| s.0 == key))?;
        slot.take().map(|s| s.1)
    }

    fn pairs(&self) -> Vec<(u64, u64)> {
        self.sets.iter().flatten().flatten().map(|s| (s.0, s.1)).collect()
    }

    fn drain(&mut self) -> Vec<(u64, u64)> {
        let out = self.pairs();
        self.sets.iter_mut().flatten().for_each(|s| *s = None);
        self.fifo.fill(0);
        out
    }
}

props! {
    /// The flat array is the nested one: after every fill, touching
    /// lookup (which also writes through the returned value), peek,
    /// remove and drain of a random sequence, both return the same value,
    /// fill result (every victim included), resident pairs in order and
    /// `len`, over 1–8 sets (powers of two and not), 0–8 ways, each
    /// replacement policy and random seeds.
    fn flat_set_assoc_matches_the_nested_reference(
        sets in 1usize..9,
        ways in 0usize..9,
        policy in 0usize..3,
        seed in any::<u64>(),
        ops in vec((0u8..8, 0u64..24, 0u64..8), 1..200),
    ) {
        let replacement = [Replacement::Fifo, Replacement::Lru, Replacement::Random][policy];
        let mut flat = SetAssoc::new(sets, ways, replacement, seed);
        let mut nested = RefSetAssoc::new(sets, ways, replacement, seed);
        let shape = (sets, ways, replacement);
        for (i, &(op, key, arg)) in ops.iter().enumerate() {
            match op {
                0..=2 => prop_assert_eq!(flat.fill(key, arg), nested.fill(key, arg), "op {} of {:?}", i, shape),
                3 => {
                    let got = flat.get(key, |&v| v >= arg).map(|v| {
                        *v += 1;
                        *v
                    });
                    prop_assert_eq!(got, nested.get_bump(key, arg), "op {} of {:?}", i, shape);
                }
                4 => prop_assert_eq!(flat.peek(key, |&v| v >= arg).copied(), nested.peek(key, arg), "op {} of {:?}", i, shape),
                5 | 6 => prop_assert_eq!(flat.remove(key), nested.remove(key), "op {} of {:?}", i, shape),
                // Rare, so the sets stay full enough to evict.
                _ if arg == 0 => {
                    let mut drained = Vec::new();
                    flat.drain(|k, v| drained.push((k, v)));
                    prop_assert_eq!(drained, nested.drain(), "op {} of {:?}", i, shape);
                }
                _ => {}
            }
            let resident: Vec<_> = flat.iter().map(|(k, &v)| (k, v)).collect();
            prop_assert_eq!(resident, nested.pairs(), "after op {} of {:?}", i, shape);
            prop_assert_eq!(flat.len(), nested.len(), "after op {} of {:?}", i, shape);
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
