//! Property tests for the repeated-passing FSM: spec-level soundness
//! against arbitrary shadow-access streams.
//!
//! The §3.3 rule: a transfer starts exactly when the last five shadow
//! accesses are `STORE, LOAD, STORE, LOAD, LOAD` with addresses
//! `D, S, D, S, D` and equal store payloads. Because any non-matching
//! access resets the machine, the five accesses of a started transfer
//! are always the *five most recent* ones — which this test checks
//! directly on the recorded stream, independently of the FSM's
//! internal bookkeeping.

use udma_testkit::prop::{any, vec, Strategy};
use udma_testkit::{prop_assert, prop_assert_eq, prop_assert_ne, props};

use udma_bus::{MemPort, SimTime};
use udma_mem::{PhysAddr, PhysLayout, PhysMemory, PAGE_SIZE};
use udma_nic::protocol::{InitiationProtocol, Repeated};
use udma_nic::{EngineConfig, EngineCore, DMA_STARTED};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    St,
    Ld,
}

#[derive(Clone, Copy, Debug)]
struct Access {
    kind: Kind,
    /// Page index into a small pool (distinct pages, no page crossing).
    page: u64,
    /// Store payload (transfer size); small and nonzero.
    data: u64,
}

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    vec(
        (any::<bool>(), 0u64..4, 1u64..4).prop_map(|(st, page, words)| Access {
            kind: if st { Kind::St } else { Kind::Ld },
            page,
            data: words * 8,
        }),
        0..64,
    )
}

fn pa(page: u64) -> PhysAddr {
    PhysAddr::new((2 + page) * PAGE_SIZE)
}

/// The declarative §3.3 window check for the 5-instruction variant.
fn window_matches_5(w: &[Access]) -> bool {
    assert_eq!(w.len(), 5);
    let kinds_ok = w[0].kind == Kind::St
        && w[1].kind == Kind::Ld
        && w[2].kind == Kind::St
        && w[3].kind == Kind::Ld
        && w[4].kind == Kind::Ld;
    kinds_ok
        && w[0].page == w[2].page
        && w[2].page == w[4].page
        && w[1].page == w[3].page
        && w[0].data == w[2].data
}

props! {
    config(cases = 512);

    /// Soundness: whenever the engine starts a transfer, the last five
    /// accesses of the stream satisfy the paper's rule, and the transfer
    /// carries exactly (src = loads' page, dst = stores' page, size =
    /// store payload).
    fn repeated5_transfers_only_on_valid_windows(stream in accesses()) {
        let layout = PhysLayout::default();
        let mut mem = MemPort::flat(PhysMemory::new(1 << 22));
        let mut core = EngineCore::new(layout, EngineConfig::default());
        let mut fsm = Repeated::five();

        let mut started_at = Vec::new();
        for (i, a) in stream.iter().enumerate() {
            match a.kind {
                Kind::St => {
                    fsm.shadow_store(&mut core, pa(a.page), 0, a.data, SimTime::ZERO, &mut mem);
                }
                Kind::Ld => {
                    let status = fsm.shadow_load(&mut core, pa(a.page), 0, SimTime::ZERO, &mut mem);
                    if status == DMA_STARTED {
                        started_at.push(i);
                    }
                }
            }
        }

        // One record per observed start, in order.
        let records = core.mover().records().to_vec();
        prop_assert_eq!(records.len(), started_at.len());

        for (rec, &i) in records.iter().zip(&started_at) {
            prop_assert!(i >= 4, "a start needs five accesses");
            let w = &stream[i - 4..=i];
            prop_assert!(
                window_matches_5(w),
                "transfer at access {i} without a valid window: {w:?}"
            );
            prop_assert_eq!(rec.dst, pa(w[0].page));
            prop_assert_eq!(rec.src, pa(w[1].page));
            prop_assert_eq!(rec.size, w[0].data);
        }
    }

    /// Completeness on clean streams: a stream that is a concatenation of
    /// valid 5-windows starts a transfer for every window.
    fn repeated5_accepts_back_to_back_valid_sequences(
        pairs in vec((0u64..3, 0u64..3, 1u64..4), 1..8),
    ) {
        let layout = PhysLayout::default();
        let mut mem = MemPort::flat(PhysMemory::new(1 << 22));
        let mut core = EngineCore::new(layout, EngineConfig::default());
        let mut fsm = Repeated::five();

        let mut expected = 0;
        for (dst_page, src_page, words) in pairs {
            let size = words * 8;
            let (d, s) = (pa(dst_page), pa(4 + src_page)); // disjoint pools
            fsm.shadow_store(&mut core, d, 0, size, SimTime::ZERO, &mut mem);
            prop_assert_ne!(fsm.shadow_load(&mut core, s, 0, SimTime::ZERO, &mut mem), udma_nic::DMA_FAILURE);
            fsm.shadow_store(&mut core, d, 0, size, SimTime::ZERO, &mut mem);
            prop_assert_ne!(fsm.shadow_load(&mut core, s, 0, SimTime::ZERO, &mut mem), udma_nic::DMA_FAILURE);
            let status = fsm.shadow_load(&mut core, d, 0, SimTime::ZERO, &mut mem);
            prop_assert_eq!(status, DMA_STARTED);
            expected += 1;
        }
        prop_assert_eq!(core.mover().records().len(), expected);
    }

    /// The 3-instruction FSM obeys its own (weaker) window rule:
    /// LOAD A, STORE B, LOAD A.
    fn repeated3_transfers_only_on_valid_windows(stream in accesses()) {
        let layout = PhysLayout::default();
        let mut mem = MemPort::flat(PhysMemory::new(1 << 22));
        let mut core = EngineCore::new(layout, EngineConfig::default());
        let mut fsm = Repeated::three();

        let mut started_at = Vec::new();
        for (i, a) in stream.iter().enumerate() {
            match a.kind {
                Kind::St => {
                    fsm.shadow_store(&mut core, pa(a.page), 0, a.data, SimTime::ZERO, &mut mem);
                }
                Kind::Ld => {
                    if fsm.shadow_load(&mut core, pa(a.page), 0, SimTime::ZERO, &mut mem) == DMA_STARTED {
                        started_at.push(i);
                    }
                }
            }
        }
        prop_assert_eq!(core.mover().records().len(), started_at.len());
        for (rec, &i) in core.mover().records().iter().zip(&started_at) {
            prop_assert!(i >= 2);
            let w = &stream[i - 2..=i];
            prop_assert!(
                w[0].kind == Kind::Ld && w[1].kind == Kind::St && w[2].kind == Kind::Ld
                    && w[0].page == w[2].page,
                "invalid 3-window at {i}: {w:?}"
            );
            prop_assert_eq!(rec.src, pa(w[0].page));
            prop_assert_eq!(rec.dst, pa(w[1].page));
        }
    }
}
