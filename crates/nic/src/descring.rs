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

use crate::status::RejectReason;
use udma_bus::SimTime;
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
    /// virt-transfer table — poll [`crate::EngineCore::virt_status`]).
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
    pub(crate) base: PhysAddr,
    /// Slots in the ring (0 = not registered).
    pub(crate) capacity: u32,
    /// Absolute index of the next slot the engine will fetch.
    pub(crate) head: u64,
    /// Absolute index one past the last posted slot (tracked by the
    /// engine-side post helper; a raw doorbell advances it too).
    pub(crate) posted: u64,
    /// Relative slots already consumed as chain fragments — the main
    /// dequeue scan skips (and clears) them.
    pub(crate) consumed: Vec<bool>,
    /// When the last dequeued batch finishes launching (fetch-staggered
    /// launch clock of the final descriptor).
    pub(crate) drain_until: SimTime,
    /// Live virtual transfers launched from this ring.
    pub(crate) live_virt: Vec<usize>,
}

impl DescRing {
    /// Whether a ring is registered for this context.
    pub fn registered(&self) -> bool {
        self.capacity > 0
    }

    /// Host-physical base of slot 0.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Absolute index of the next slot the engine will fetch.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Absolute index one past the last posted slot.
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Descriptors posted but not yet doorbelled/dequeued.
    pub fn pending(&self) -> u64 {
        self.posted - self.head
    }

    /// When the last dequeued batch finishes launching.
    pub fn drain_until(&self) -> SimTime {
        self.drain_until
    }

    /// Host-physical address of relative slot `rel`.
    pub fn slot_addr(&self, rel: u32) -> PhysAddr {
        PhysAddr::new(self.base.as_u64() + rel as u64 * DESC_BYTES)
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
