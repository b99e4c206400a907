//! The CPU-side write buffer.
//!
//! The paper's footnote 6 warns that "some hardware devices (e.g. write
//! buffers) may attempt to collapse successive read/write operations to
//! the same address. In these cases appropriate memory barrier commands
//! should be used to ensure that all issued instructions will reach the
//! DMA engine." §3.4 adds that the Repeated-Passing measurement used a
//! memory barrier "to make sure that repeated accesses to the same address
//! were not collapsed in (or serviced by) the write buffer".
//!
//! This module models both hazards precisely:
//!
//! * **collapsing** — a store whose address matches a pending store merges
//!   into it; the bus (and the DMA engine's sequence FSM) sees *one*
//!   transaction where the program issued two;
//! * **load servicing** (store forwarding) — a load whose address matches
//!   a pending store is satisfied from the buffer and never reaches the
//!   bus at all.
//!
//! Programs flush the buffer with a memory-barrier instruction, which the
//! CPU carries out by retiring [`WriteBuffer::pop_oldest`] until the
//! buffer is empty.

use crate::BusTxn;
use std::collections::VecDeque;
use udma_mem::PhysAddr;

/// A store waiting in the write buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingStore {
    /// Target physical address.
    pub paddr: PhysAddr,
    /// Data to be written.
    pub data: u64,
    /// Issuing process id (trace metadata).
    pub tag: u32,
}

impl PendingStore {
    /// Converts the pending store into the bus transaction that retires it.
    pub fn into_txn(self) -> BusTxn {
        BusTxn::write(self.paddr, self.data, self.tag)
    }
}

/// Behavioural knobs of the write buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteBufferPolicy {
    /// Merge a new store into a pending store with the same address.
    pub collapse_stores: bool,
    /// Satisfy loads from a pending store with the same address
    /// (store-to-load forwarding).
    pub service_loads: bool,
    /// Maximum pending stores; pushing into a full buffer retires the
    /// oldest entry to the bus.
    pub capacity: usize,
}

impl Default for WriteBufferPolicy {
    /// Alpha-21064-like: 4 entries, merging and forwarding enabled.
    fn default() -> Self {
        WriteBufferPolicy { collapse_stores: true, service_loads: true, capacity: 4 }
    }
}

impl WriteBufferPolicy {
    /// A pass-through policy: nothing is buffered (every store goes
    /// straight to the bus). Useful to isolate protocol behaviour from
    /// buffer behaviour in tests.
    pub fn disabled() -> Self {
        WriteBufferPolicy { collapse_stores: false, service_loads: false, capacity: 0 }
    }
}

/// FIFO write buffer with optional collapsing and load servicing.
///
/// ```
/// use udma_bus::{PendingStore, WriteBuffer, WriteBufferPolicy};
/// use udma_mem::PhysAddr;
///
/// let mut wb = WriteBuffer::new(WriteBufferPolicy::default());
/// assert_eq!(wb.push(PendingStore { paddr: PhysAddr::new(0x100), data: 1, tag: 0 }), None);
/// assert_eq!(wb.push(PendingStore { paddr: PhysAddr::new(0x100), data: 2, tag: 0 }), None);
/// // Same address: collapsed — the bus will see ONE store (footnote 6).
/// assert_eq!(wb.drain().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WriteBuffer {
    queue: VecDeque<PendingStore>,
    policy: WriteBufferPolicy,
    collapsed: u64,
    serviced: u64,
}

impl WriteBuffer {
    /// Creates a buffer with the given policy.
    pub fn new(policy: WriteBufferPolicy) -> Self {
        WriteBuffer { queue: VecDeque::new(), policy, collapsed: 0, serviced: 0 }
    }

    /// The active policy.
    pub fn policy(&self) -> WriteBufferPolicy {
        self.policy
    }

    /// Buffers a store. Returns the one store that must retire to the
    /// bus *now*, if any: the overflow victim, or the store itself when
    /// the buffer is disabled.
    pub fn push(&mut self, store: PendingStore) -> Option<PendingStore> {
        if self.policy.capacity == 0 {
            return Some(store);
        }
        if self.policy.collapse_stores {
            if let Some(p) = self.queue.iter_mut().rev().find(|p| p.paddr == store.paddr) {
                p.data = store.data;
                p.tag = store.tag;
                self.collapsed += 1;
                return None;
            }
        }
        let retired =
            if self.queue.len() == self.policy.capacity { self.queue.pop_front() } else { None };
        self.queue.push_back(store);
        retired
    }

    /// Attempts to satisfy a load from the buffer. Returns the forwarded
    /// data if a pending store matches and forwarding is enabled — in that
    /// case the load never reaches the bus (the §3.4 hazard).
    pub fn service_load(&mut self, paddr: PhysAddr) -> Option<u64> {
        if !self.policy.service_loads {
            return None;
        }
        let hit = self.queue.iter().rev().find(|p| p.paddr == paddr).map(|p| p.data);
        if hit.is_some() {
            self.serviced += 1;
        }
        hit
    }

    /// Takes the oldest pending store. A memory barrier retires these
    /// one by one until the buffer is empty.
    pub fn pop_oldest(&mut self) -> Option<PendingStore> {
        self.queue.pop_front()
    }

    /// Empties the buffer, returning the pending stores oldest first.
    pub fn drain(&mut self) -> Vec<PendingStore> {
        self.queue.drain(..).collect()
    }

    /// Number of pending stores.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no stores are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// How many stores were merged away (never reached the bus).
    pub fn collapsed_count(&self) -> u64 {
        self.collapsed
    }

    /// How many loads were satisfied without a bus transaction.
    pub fn serviced_count(&self) -> u64 {
        self.serviced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(pa: u64, data: u64) -> PendingStore {
        PendingStore { paddr: PhysAddr::new(pa), data, tag: 1 }
    }

    #[test]
    fn same_address_stores_collapse() {
        let mut wb = WriteBuffer::new(WriteBufferPolicy::default());
        assert!(wb.push(st(0x100, 1)).is_none());
        assert!(wb.push(st(0x100, 2)).is_none());
        assert_eq!(wb.len(), 1);
        assert_eq!(wb.collapsed_count(), 1);
        let drained = wb.drain();
        assert_eq!(drained, vec![st(0x100, 2)]);
    }

    #[test]
    fn collapse_disabled_keeps_both() {
        let policy = WriteBufferPolicy { collapse_stores: false, ..Default::default() };
        let mut wb = WriteBuffer::new(policy);
        wb.push(st(0x100, 1));
        wb.push(st(0x100, 2));
        assert_eq!(wb.len(), 2);
        assert_eq!(wb.collapsed_count(), 0);
    }

    #[test]
    fn loads_serviced_from_buffer() {
        let mut wb = WriteBuffer::new(WriteBufferPolicy::default());
        wb.push(st(0x200, 42));
        assert_eq!(wb.service_load(PhysAddr::new(0x200)), Some(42));
        assert_eq!(wb.service_load(PhysAddr::new(0x300)), None);
        assert_eq!(wb.serviced_count(), 1);
        // Servicing does not consume the pending store.
        assert_eq!(wb.len(), 1);
    }

    #[test]
    fn forwarding_returns_newest_value() {
        let policy = WriteBufferPolicy { collapse_stores: false, ..Default::default() };
        let mut wb = WriteBuffer::new(policy);
        wb.push(st(0x200, 1));
        wb.push(st(0x200, 2));
        assert_eq!(wb.service_load(PhysAddr::new(0x200)), Some(2));
    }

    #[test]
    fn overflow_retires_oldest() {
        let policy = WriteBufferPolicy { capacity: 2, ..Default::default() };
        let mut wb = WriteBuffer::new(policy);
        assert!(wb.push(st(8, 1)).is_none());
        assert!(wb.push(st(2 * 8, 2)).is_none());
        let retired = wb.push(st(3 * 8, 3));
        assert_eq!(retired, Some(st(8, 1)));
        assert_eq!(wb.len(), 2);
    }

    #[test]
    fn drain_is_fifo() {
        let mut wb = WriteBuffer::new(WriteBufferPolicy::default());
        wb.push(st(8, 1));
        wb.push(st(16, 2));
        wb.push(st(24, 3));
        let order: Vec<u64> = wb.drain().iter().map(|p| p.paddr.as_u64()).collect();
        assert_eq!(order, vec![8, 16, 24]);
        assert!(wb.is_empty());
    }

    #[test]
    fn pop_oldest_is_fifo() {
        let mut wb = WriteBuffer::new(WriteBufferPolicy::default());
        wb.push(st(8, 1));
        wb.push(st(16, 2));
        assert_eq!(wb.pop_oldest(), Some(st(8, 1)));
        assert_eq!(wb.pop_oldest(), Some(st(16, 2)));
        assert_eq!(wb.pop_oldest(), None);
    }

    #[test]
    fn disabled_policy_passes_through() {
        let mut wb = WriteBuffer::new(WriteBufferPolicy::disabled());
        let retired = wb.push(st(8, 1));
        assert_eq!(retired, Some(st(8, 1)));
        assert!(wb.is_empty());
        assert_eq!(wb.service_load(PhysAddr::new(8)), None);
    }

    #[test]
    fn into_txn_preserves_fields() {
        let txn = st(0x40, 9).into_txn();
        assert_eq!(txn.paddr, PhysAddr::new(0x40));
        assert_eq!(txn.data, 9);
        assert_eq!(txn.op, crate::BusOp::Write);
    }
}
