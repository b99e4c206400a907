//! Property tests for the write buffer: whatever the policy, memory
//! semantics are preserved.

use udma_testkit::prop::{any, vec, Strategy};
use udma_testkit::{prop_assert, prop_assert_eq, props};

use udma_bus::{PendingStore, WriteBuffer, WriteBufferPolicy};
use udma_mem::PhysAddr;

#[derive(Clone, Copy, Debug)]
struct Op {
    addr: u64,
    data: u64,
    is_store: bool,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        (0u64..8, any::<u64>(), any::<bool>()).prop_map(|(a, data, is_store)| Op {
            addr: a * 8,
            data,
            is_store,
        }),
        0..64,
    )
}

fn policies() -> impl Strategy<Value = WriteBufferPolicy> {
    (any::<bool>(), any::<bool>(), 0usize..8).prop_map(|(collapse, service, capacity)| {
        WriteBufferPolicy { collapse_stores: collapse, service_loads: service, capacity }
    })
}

/// A reference "memory": replay stores in program order.
fn reference_memory(ops: &[Op]) -> std::collections::HashMap<u64, u64> {
    let mut mem = std::collections::HashMap::new();
    for op in ops {
        if op.is_store {
            mem.insert(op.addr, op.data);
        }
    }
    mem
}

props! {
    /// Single-processor consistency: after draining, the combination of
    /// retired stores (in retirement order) equals the reference memory,
    /// regardless of policy. Collapsing may *remove* intermediate values
    /// but never reorders same-address stores or loses the final value.
    fn drain_preserves_final_memory_state(ops in ops(), policy in policies()) {
        let mut wb = WriteBuffer::new(policy);
        let mut retired: Vec<PendingStore> = Vec::new();
        for op in &ops {
            if op.is_store {
                retired.extend(wb.push(PendingStore {
                    paddr: PhysAddr::new(op.addr),
                    data: op.data,
                    tag: 0,
                }));
            } else {
                // Loads may be serviced; they must then return the value
                // a serial execution would see (checked below).
                let _ = wb.service_load(PhysAddr::new(op.addr));
            }
        }
        retired.extend(wb.drain());

        let mut replayed = std::collections::HashMap::new();
        for st in &retired {
            replayed.insert(st.paddr.as_u64(), st.data);
        }
        prop_assert_eq!(replayed, reference_memory(&ops));
        prop_assert!(wb.is_empty());
    }

    /// Store-to-load forwarding always returns the program-order value of
    /// the most recent store to that address, when it forwards at all.
    fn forwarding_returns_program_order_value(ops in ops()) {
        let policy = WriteBufferPolicy { capacity: 64, ..WriteBufferPolicy::default() };
        let mut wb = WriteBuffer::new(policy);
        let mut last_store: std::collections::HashMap<u64, u64> = Default::default();
        for op in &ops {
            if op.is_store {
                let retired = wb.push(PendingStore {
                    paddr: PhysAddr::new(op.addr),
                    data: op.data,
                    tag: 0,
                });
                prop_assert!(retired.is_none(), "capacity 64 never overflows here");
                last_store.insert(op.addr, op.data);
            } else if let Some(v) = wb.service_load(PhysAddr::new(op.addr)) {
                prop_assert_eq!(Some(&v), last_store.get(&op.addr));
            }
        }
    }

    /// FIFO order among distinct addresses survives any collapse pattern.
    fn distinct_addresses_retire_in_issue_order(
        addrs in vec(0u64..32, 1..24),
    ) {
        let mut wb = WriteBuffer::new(WriteBufferPolicy {
            capacity: 64,
            ..WriteBufferPolicy::default()
        });
        for (i, &a) in addrs.iter().enumerate() {
            wb.push(PendingStore { paddr: PhysAddr::new(a * 8), data: i as u64, tag: 0 });
        }
        let drained = wb.drain();
        // First-occurrence order of addresses must be preserved.
        let mut seen = Vec::new();
        for &a in &addrs {
            if !seen.contains(&(a * 8)) {
                seen.push(a * 8);
            }
        }
        let drained_addrs: Vec<u64> = drained.iter().map(|s| s.paddr.as_u64()).collect();
        prop_assert_eq!(drained_addrs, seen);
    }
}
