//! Doorbell-batched descriptor rings: amortizing DMA initiation cost.
//!
//! Every initiation scheme in the paper pays its full register-write /
//! protection-check sequence *per transfer* — the NI accepts exactly one
//! in-flight request per context. A descriptor ring turns that cost
//! structure around: user code writes N [`DmaDescriptor`]s into an
//! in-memory ring (plain cached stores), then *rings a doorbell* with a
//! single user-level store to its context page. The engine dequeues the
//! descriptors back-to-back, translating and launching each one, so the
//! expensive uncached device access is paid once per batch instead of
//! once per transfer; only the (cheap) per-descriptor memory fetch
//! scales with N.
//!
//! Protection still holds per descriptor, through the same §3.2 grant
//! path as everything else:
//! * the ring itself is registered by the **OS** (privileged
//!   `RING_BASE_TABLE` / `RING_CTL_TABLE` writes) against a window the
//!   OS validated inside the process's own mapped buffer;
//! * descriptors carry **virtual** addresses, translated at dequeue
//!   time by the engine's IOMMU under the posting context's ASID — a
//!   descriptor naming memory the process cannot access faults exactly
//!   like a mis-addressed `CTX_VIRT_*` post;
//! * the doorbell is a store to the process's own context page, so the
//!   §3.1 one-page-per-process mapping keeps contexts apart.
//!
//! Scatter/gather: a descriptor with [`DESC_FLAG_CHAIN`] heads a linked
//! chain of [`DESC_FLAG_FRAG`] slots; the engine walks the chain and
//! deposits every fragment at the head's destination plus the
//! accumulated offset — one doorbell, one destination, many fragments.

use crate::mover::Backend;
use crate::status::RejectReason;
use crate::{VirtUnit, DMA_FAILURE};
use udma_bus::{MemPort, SimTime};
use udma_mem::{PhysAddr, VirtAddr};

/// Words per in-memory descriptor.
pub const DESC_WORDS: usize = 4;
/// Bytes per in-memory descriptor (slot stride in the ring).
pub const DESC_BYTES: u64 = 8 * DESC_WORDS as u64;

/// Descriptor flag: this descriptor heads a scatter/gather chain; its
/// `link` names the next fragment slot.
pub const DESC_FLAG_CHAIN: u64 = 1 << 0;
/// Descriptor flag: this slot is a fragment of a chain. The main
/// dequeue scan skips it; only a chain walk consumes it.
pub const DESC_FLAG_FRAG: u64 = 1 << 1;

/// Kind code of a local destination, the only kind the engine decodes.
/// Codes 1 and 2 once named remote-physical and remote-VA destinations;
/// a slot carrying either now decodes like any unknown kind, and the
/// dequeue refuses it as a counted reject.
const KIND_LOCAL: u64 = 0;
const KIND_MASK: u64 = 0b11;

const FLAG_SHIFT: u32 = 2;
const FLAG_MASK: u64 = 0b11;
const LINK_SHIFT: u32 = 36;
const FIELD_MASK: u64 = 0xFFFF;

/// Where a descriptor's data lands. Rings are a local initiation path:
/// remote transfers go through the cluster simulation, whose receiving
/// node checks every deposit against its own grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DescDst {
    /// A local virtual address, translated by this engine's IOMMU under
    /// the posting context's ASID.
    Local(VirtAddr),
}

/// One user-posted DMA descriptor: what a single keyed register
/// sequence would have carried, as four memory words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// Source virtual address (translated at dequeue under the posting
    /// context's ASID).
    pub src: VirtAddr,
    /// Destination.
    pub dst: DescDst,
    /// Bytes to transfer.
    pub len: u64,
    /// [`DESC_FLAG_CHAIN`] | [`DESC_FLAG_FRAG`].
    pub flags: u64,
    /// Ring slot of the next fragment when chaining (`flags` must carry
    /// [`DESC_FLAG_CHAIN`] on the head or [`DESC_FLAG_FRAG`] mid-chain).
    pub link: Option<u32>,
}

impl DmaDescriptor {
    /// A plain single-transfer descriptor.
    pub fn new(src: VirtAddr, dst: DescDst, len: u64) -> Self {
        DmaDescriptor { src, dst, len, flags: 0, link: None }
    }

    /// Encodes the descriptor into its four in-memory words:
    /// `[src, dst, len, ctl]` where `ctl` packs the kind, the flags and
    /// the (link+1) slot index.
    ///
    /// # Panics
    ///
    /// Panics if a link index overflows its 16-bit field.
    pub fn encode(&self) -> [u64; DESC_WORDS] {
        let DescDst::Local(va) = self.dst;
        let link = match self.link {
            None => 0,
            Some(slot) => {
                assert!((slot as u64) < FIELD_MASK, "link slot too wide for a descriptor");
                slot as u64 + 1
            }
        };
        let ctl = KIND_LOCAL | ((self.flags & FLAG_MASK) << FLAG_SHIFT) | (link << LINK_SHIFT);
        [self.src.as_u64(), va.as_u64(), self.len, ctl]
    }

    /// Decodes four in-memory words back into a descriptor. `None` when
    /// the kind field is not a destination the engine knows; bits
    /// outside the kind, flag and link fields are ignored.
    pub fn decode(words: [u64; DESC_WORDS]) -> Option<Self> {
        let [src, dst_word, len, ctl] = words;
        if ctl & KIND_MASK != KIND_LOCAL {
            return None;
        }
        let link_raw = (ctl >> LINK_SHIFT) & FIELD_MASK;
        Some(DmaDescriptor {
            src: VirtAddr::new(src),
            dst: DescDst::Local(VirtAddr::new(dst_word)),
            len,
            flags: (ctl >> FLAG_SHIFT) & FLAG_MASK,
            link: link_raw.checked_sub(1).map(|s| s as u32),
        })
    }
}

/// Engine-side ring tunables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Engine-side latency of fetching one descriptor from host memory
    /// (one device-initiated memory read of a slot). Charged to the
    /// *launch clock* of each dequeued descriptor — the CPU has long
    /// since moved on; this is where the amortization asymptote comes
    /// from.
    pub fetch_latency: SimTime,
}

impl Default for RingConfig {
    fn default() -> Self {
        // One TurboChannel-priced read of the 32-byte slot.
        RingConfig { fetch_latency: SimTime::from_ns(480) }
    }
}

/// Counters of the descriptor-ring unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Descriptors posted through the engine-side post helper.
    pub posted: u64,
    /// Doorbell stores decoded.
    pub doorbells: u64,
    /// Descriptor slots fetched from host memory.
    pub fetched: u64,
    /// Transfers launched from dequeued descriptors (fragments count).
    pub launched: u64,
    /// Fragments launched as part of scatter/gather chains.
    pub chained: u64,
    /// Descriptors refused (undecodable, bad chain, or launch reject).
    pub rejected: u64,
}

/// What one dequeued descriptor (or chain fragment) became.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingLaunch {
    /// Launched as a virtual-address transfer (id into the engine's
    /// virt-transfer table — poll [`crate::VirtUnit::status`]).
    Virt(usize),
    /// Refused; the reason is also counted in the engine stats.
    Rejected(RejectReason),
}

/// Per-context ring state, as the engine tracks it. The descriptors
/// themselves live in *host memory* (a window of the owning process's
/// own buffer, validated and registered by the OS); the engine holds
/// only the base, geometry and cursors.
#[derive(Clone, Debug, Default)]
pub struct DescRing {
    /// Host-physical base of slot 0.
    pub base: PhysAddr,
    /// Slots in the ring (0 = not registered).
    pub capacity: u32,
    /// Absolute index of the next slot the engine will fetch.
    pub head: u64,
    /// Absolute index one past the last posted slot (tracked by the
    /// engine-side post helper; a raw doorbell advances it too).
    pub posted: u64,
    /// Relative slots already consumed as chain fragments — the main
    /// dequeue scan skips (and clears) them.
    pub(crate) consumed: Vec<bool>,
    /// When the last dequeued batch finishes launching (fetch-staggered
    /// launch clock of the final descriptor).
    pub drain_until: SimTime,
    /// Live virtual transfers launched from this ring.
    pub(crate) live_virt: Vec<usize>,
}

impl DescRing {
    /// Whether a ring is registered for this context.
    pub fn registered(&self) -> bool {
        self.capacity > 0
    }

    /// Descriptors posted but not yet doorbelled/dequeued.
    pub fn pending(&self) -> u64 {
        self.posted - self.head
    }

    /// A freshly registered ring of `capacity` slots at `base`, both
    /// cursors at `cursor`.
    fn registered_at(base: PhysAddr, capacity: u32, cursor: u64) -> Self {
        let consumed = vec![false; capacity as usize];
        DescRing { base, capacity, head: cursor, posted: cursor, consumed, ..DescRing::default() }
    }

    /// Host-physical address of relative slot `rel`.
    pub fn slot_addr(&self, rel: u32) -> PhysAddr {
        PhysAddr::new(self.base.as_u64() + rel as u64 * DESC_BYTES)
    }

    /// Fetches and decodes the descriptor in relative slot `rel` (the
    /// engine-initiated host-memory read the per-descriptor fetch
    /// latency models): one burst through the port's engine side. A
    /// slot off word alignment fails like a word read would.
    fn fetch(&self, rel: u32, mem: &mut MemPort) -> Option<DmaDescriptor> {
        let base = self.slot_addr(rel);
        let mut bytes = [0u8; DESC_BYTES as usize];
        if !base.is_aligned_to(8) || mem.dma_read(base, &mut bytes).is_err() {
            return None;
        }
        let (words, _) = bytes.as_chunks::<8>();
        DmaDescriptor::decode(std::array::from_fn(|w| u64::from_le_bytes(words[w])))
    }
}

/// The descriptor-ring unit: the tunables, one ring per register context
/// and the counters. It exists only inside a [`VirtUnit`], because
/// descriptors carry virtual addresses translated at dequeue time.
#[derive(Clone, Debug)]
pub struct RingUnit {
    config: RingConfig,
    rings: Vec<DescRing>,
    pub(crate) stats: RingStats,
    /// The gather list of the chain being dequeued, as `(src, len,
    /// offset)`: scratch reused by every descriptor.
    frags: Vec<(VirtAddr, u64, u64)>,
}

impl RingUnit {
    /// A unit with `contexts` unregistered rings.
    pub(crate) fn new(config: RingConfig, contexts: usize) -> Self {
        RingUnit {
            config,
            rings: vec![DescRing::default(); contexts],
            stats: RingStats::default(),
            frags: Vec::new(),
        }
    }

    /// Context `ctx`'s ring state (geometry, cursors).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn ring(&self, ctx: u32) -> &DescRing {
        &self.rings[ctx as usize]
    }

    /// Privileged `RING_BASE_TABLE` write: stages the host-physical
    /// base of context `ctx`'s ring. Out-of-range writes are ignored,
    /// like key-table writes.
    pub fn set_base(&mut self, ctx: u32, base: u64) {
        if let Some(r) = self.rings.get_mut(ctx as usize) {
            r.base = PhysAddr::new(base);
        }
    }

    /// Privileged `RING_CTL_TABLE` write: registers the ring with
    /// `capacity` slots over the staged base (0 deregisters). Resets
    /// the cursors — registration starts an empty ring.
    pub fn set_ctl(&mut self, ctx: u32, capacity: u64) {
        if let Some(r) = self.rings.get_mut(ctx as usize) {
            *r = DescRing::registered_at(r.base, capacity.min(u32::MAX as u64) as u32, 0);
        }
    }

    /// `CTX_RING_DB` load: descriptors posted but not yet dequeued.
    pub fn db_load(&self, ctx: u32) -> u64 {
        self.rings
            .get(ctx as usize)
            .filter(|r| r.registered())
            .map_or(DMA_FAILURE, DescRing::pending)
    }

    /// Encodes `desc` into `ctx`'s next free slot, in one burst through
    /// the port's engine side, and advances the posted cursor; see
    /// [`crate::EngineCore::ring_post`].
    pub(crate) fn post(
        &mut self,
        ctx: u32,
        desc: &DmaDescriptor,
        mem: &mut MemPort,
    ) -> Result<u64, RejectReason> {
        let Some(r) = self.rings.get_mut(ctx as usize).filter(|r| r.registered()) else {
            return Err(RejectReason::RingFull);
        };
        if r.pending() >= u64::from(r.capacity) {
            return Err(RejectReason::RingFull);
        }
        let slot = r.posted;
        let addr = r.slot_addr((slot % u64::from(r.capacity)) as u32);
        let mut bytes = [0u8; DESC_BYTES as usize];
        for (chunk, word) in bytes.as_chunks_mut::<8>().0.iter_mut().zip(desc.encode()) {
            *chunk = word.to_le_bytes();
        }
        if !addr.is_aligned_to(8) || mem.dma_write(addr, &bytes).is_err() {
            return Err(RejectReason::BadRange);
        }
        r.posted = slot + 1;
        self.stats.posted += 1;
        Ok(slot)
    }

    /// Deregisters `ctx`'s ring, returning its registration if it had
    /// one. Only quiescent rings are spilled, so the head is the whole
    /// dynamic state.
    pub(crate) fn spill(&mut self, ctx: u32) -> Option<RingImage> {
        let r = std::mem::take(&mut self.rings[ctx as usize]);
        r.registered().then(|| RingImage {
            base: r.base.as_u64(),
            capacity: r.capacity,
            cursor: r.head,
        })
    }

    /// Reinstalls a spilled registration (or none) in slot `ctx`.
    pub(crate) fn fill(&mut self, ctx: u32, image: Option<RingImage>) {
        self.rings[ctx as usize] = image.map_or_else(DescRing::default, |ri| {
            DescRing::registered_at(PhysAddr::new(ri.base), ri.capacity, ri.cursor)
        });
    }
}

impl VirtUnit {
    /// Whether `ctx`'s ring has queued or live work at `now`:
    /// descriptors posted but not yet doorbelled, a dequeued batch whose
    /// fetch-staggered launches have not all fired, or a ring-launched
    /// transfer still observable on the wire. Queued work makes the
    /// context unstealable exactly like a busy register file — the
    /// ring's contents belong to the process whose ASID the dequeue will
    /// translate under.
    pub(crate) fn ring_pending(&self, ctx: u32, now: SimTime) -> bool {
        let Some(r) = self.rings.as_ref().and_then(|u| u.rings.get(ctx as usize)) else {
            return false;
        };
        r.registered()
            && (r.pending() > 0
                || now < r.drain_until
                || r.live_virt.iter().any(|&id| self.pins(id, now)))
    }

    /// The doorbell; see [`crate::EngineCore::ring_doorbell`].
    pub(crate) fn doorbell(
        &mut self,
        ctx: u32,
        tail: u64,
        now: SimTime,
        back: &mut Backend<'_>,
    ) -> Vec<RingLaunch> {
        // The ring unit, with its gather scratch, is lent out for the
        // dequeue so each launch can post through this unit while the
        // cursors advance; it goes back before returning, whatever the
        // dequeue's exit path.
        let Some(mut unit) = self.rings.take() else {
            return Vec::new();
        };
        let out = self.dequeue(&mut unit, ctx, tail, now, back);
        self.rings = Some(unit);
        out
    }

    fn dequeue(
        &mut self,
        unit: &mut RingUnit,
        ctx: u32,
        tail: u64,
        now: SimTime,
        back: &mut Backend<'_>,
    ) -> Vec<RingLaunch> {
        let mut out = Vec::new();
        let Some(ring) = unit.rings.get_mut(ctx as usize) else {
            return out;
        };
        let stats = &mut unit.stats;
        stats.doorbells += 1;
        if !ring.registered() {
            back.reject(RejectReason::RingFull);
            return out;
        }
        let fetch = unit.config.fetch_latency;
        // Prune drained launches so the live list (and the busy check)
        // stays proportional to in-flight work, not ring history.
        ring.live_virt.retain(|&id| self.pins(id, now));
        // A raw doorbell (CPU wrote the slots itself) advances the
        // posted cursor past anything the post helper tracked, but never
        // more than a ring's worth past the head.
        let tail = tail.min(ring.head.saturating_add(u64::from(ring.capacity)));
        ring.posted = ring.posted.max(tail);
        // One result per covered slot, unless a chain gathers fragments
        // from outside the batch.
        out.reserve_exact(tail.saturating_sub(ring.head) as usize);
        let frags = &mut unit.frags;
        let capacity = ring.capacity;
        let mut clock = now;
        while ring.head < tail {
            let rel = (ring.head % u64::from(capacity)) as usize;
            ring.head += 1;
            if std::mem::take(&mut ring.consumed[rel]) {
                continue;
            }
            clock += fetch;
            stats.fetched += 1;
            // An undecodable slot, or a fragment no chain head claimed,
            // launches nothing.
            let Some(desc) =
                ring.fetch(rel as u32, back.mem).filter(|d| d.flags & DESC_FLAG_FRAG == 0)
            else {
                refuse(stats, back, &mut out, 1);
                continue;
            };
            // Gather chain: the head descriptor is fragment 0, its link
            // names the next fragment slot. The walk is bounded by the
            // ring capacity, so a link cycle cannot wedge the engine.
            frags.clear();
            frags.push((desc.src, desc.len, 0u64));
            let mut walked = 0u64;
            let mut chain_ok = true;
            if desc.flags & DESC_FLAG_CHAIN != 0 {
                let mut link = desc.link;
                let mut offset = desc.len;
                while let Some(slot) = link {
                    if slot >= capacity || walked >= u64::from(capacity) {
                        chain_ok = false;
                        break;
                    }
                    clock += fetch;
                    stats.fetched += 1;
                    walked += 1;
                    let Some(f) =
                        ring.fetch(slot, back.mem).filter(|f| f.flags & DESC_FLAG_FRAG != 0)
                    else {
                        chain_ok = false;
                        break;
                    };
                    ring.consumed[slot as usize] = true;
                    frags.push((f.src, f.len, offset));
                    // Lengths are user-written: a gather offset that
                    // overflows refuses the chain instead of wrapping.
                    let Some(next) = offset.checked_add(f.len) else {
                        chain_ok = false;
                        break;
                    };
                    offset = next;
                    link = f.link;
                }
            }
            if !chain_ok {
                // The head and every fragment the walk fetched.
                refuse(stats, back, &mut out, 1 + walked);
                continue;
            }
            // Each fragment launches through the register path's checked
            // VA post at the head's destination plus its gather offset; a
            // destination past the end of the address space is refused.
            let DescDst::Local(dst) = desc.dst;
            for (i, &(src, len, off)) in frags.iter().enumerate() {
                let posted = match dst.as_u64().checked_add(off) {
                    None => Err(back.reject(RejectReason::BadRange)),
                    Some(dst) => self.post(ctx, src, VirtAddr::new(dst), len, clock, back),
                };
                out.push(match posted {
                    Ok(id) => {
                        ring.live_virt.push(id);
                        self.stage[ctx as usize].last = Some(id);
                        stats.launched += 1;
                        stats.chained += u64::from(i > 0);
                        RingLaunch::Virt(id)
                    }
                    Err(reason) => {
                        stats.rejected += 1;
                        RingLaunch::Rejected(reason)
                    }
                });
            }
        }
        ring.drain_until = ring.drain_until.max(clock);
        out
    }
}

/// Refuses `slots` fetched ring slots as `BadRange`: each counts once in
/// the ring and engine statistics and appears once in `out`.
fn refuse(stats: &mut RingStats, back: &mut Backend<'_>, out: &mut Vec<RingLaunch>, slots: u64) {
    for _ in 0..slots {
        stats.rejected += 1;
        out.push(RingLaunch::Rejected(back.reject(RejectReason::BadRange)));
    }
}

/// A quiescent ring's registration, carried by a spilled
/// [`crate::CtxImage`]: enough to reinstall the ring bit-for-bit at
/// refill. Only quiescent rings spill — [`crate::EngineCore::save_context`]
/// refuses while descriptors are pending or launched work is live — so
/// the cursor is the whole dynamic state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingImage {
    /// Host-physical base of slot 0.
    pub base: u64,
    /// Slots in the ring.
    pub capacity: u32,
    /// The (converged) head = posted cursor.
    pub cursor: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let descs = [
            DmaDescriptor::new(VirtAddr::new(0x1000), DescDst::Local(VirtAddr::new(0x9000)), 64),
            DmaDescriptor {
                src: VirtAddr::new(0x2000),
                dst: DescDst::Local(VirtAddr::new(0x4000)),
                len: 128,
                flags: DESC_FLAG_CHAIN,
                link: Some(5),
            },
            DmaDescriptor {
                src: VirtAddr::new(0x3000),
                dst: DescDst::Local(VirtAddr::new(0x8000)),
                len: 8,
                flags: DESC_FLAG_FRAG,
                link: None,
            },
        ];
        for d in descs {
            assert_eq!(DmaDescriptor::decode(d.encode()), Some(d), "{d:?}");
        }
    }

    #[test]
    fn decode_rejects_every_kind_but_local() {
        for kind in 1..4u64 {
            assert_eq!(DmaDescriptor::decode([0, 0, 8, kind]), None, "kind {kind}");
        }
    }

    #[test]
    fn link_zero_is_distinct_from_none() {
        let d = DmaDescriptor {
            src: VirtAddr::new(0),
            dst: DescDst::Local(VirtAddr::new(0)),
            len: 8,
            flags: DESC_FLAG_CHAIN,
            link: Some(0),
        };
        assert_eq!(DmaDescriptor::decode(d.encode()).unwrap().link, Some(0));
        let plain = DmaDescriptor::new(VirtAddr::new(0), DescDst::Local(VirtAddr::new(0)), 8);
        assert_eq!(DmaDescriptor::decode(plain.encode()).unwrap().link, None);
    }

    #[test]
    fn ring_geometry() {
        let r = DescRing { base: PhysAddr::new(0x8000), capacity: 16, ..DescRing::default() };
        assert!(r.registered());
        assert_eq!(r.slot_addr(0), PhysAddr::new(0x8000));
        assert_eq!(r.slot_addr(3), PhysAddr::new(0x8000 + 3 * DESC_BYTES));
        assert_eq!(r.pending(), 0);
    }
}
