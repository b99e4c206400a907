//! Bus transaction tracing.

use crate::{BusOp, SimTime};
use std::fmt;
use udma_mem::PhysAddr;

/// One completed bus transaction, as recorded by the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Time the transaction started.
    pub time: SimTime,
    /// Direction.
    pub op: BusOp,
    /// Physical address.
    pub paddr: PhysAddr,
    /// Data written, or data returned for a read.
    pub data: u64,
    /// Issuing process id (trace metadata only).
    pub tag: u32,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] p{} {} {} = {:#x}", self.time, self.tag, self.op, self.paddr, self.data)
    }
}

/// A bounded in-order log of bus transactions.
///
/// Tests use it to assert exactly what the DMA engine saw — e.g. that a
/// collapsed pair of stores produced a single transaction, or that the
/// five accesses of the repeated-passing protocol arrived in order.
#[derive(Clone, Debug)]
pub struct BusTrace {
    events: Vec<TraceEvent>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl Default for BusTrace {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl BusTrace {
    /// Creates a disabled trace that will keep at most `capacity` events
    /// once enabled.
    pub fn new(capacity: usize) -> Self {
        BusTrace { events: Vec::new(), capacity, enabled: false, dropped: 0 }
    }

    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records an event if enabled; counts it as dropped when full.
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// The captured events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears captured events (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Events matching a predicate, for test assertions.
    pub fn filter<'a>(
        &'a self,
        pred: impl Fn(&TraceEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| pred(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, op: BusOp, pa: u64) -> TraceEvent {
        TraceEvent { time: SimTime::from_ns(t), op, paddr: PhysAddr::new(pa), data: 0, tag: 1 }
    }

    #[test]
    fn disabled_by_default() {
        let mut tr = BusTrace::default();
        tr.record(ev(0, BusOp::Read, 0));
        assert!(tr.events().is_empty());
        assert!(!tr.enabled);
    }

    #[test]
    fn records_in_order_when_enabled() {
        let mut tr = BusTrace::new(8);
        tr.enable();
        tr.record(ev(1, BusOp::Write, 0x10));
        tr.record(ev(2, BusOp::Read, 0x20));
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.events()[0].paddr, PhysAddr::new(0x10));
        assert_eq!(tr.events()[1].op, BusOp::Read);
    }

    #[test]
    fn drops_when_full() {
        let mut tr = BusTrace::new(1);
        tr.enable();
        tr.record(ev(1, BusOp::Read, 1));
        tr.record(ev(2, BusOp::Read, 2));
        assert_eq!(tr.events().len(), 1);
        assert_eq!(tr.dropped(), 1);
        tr.clear();
        assert_eq!(tr.dropped(), 0);
        assert!(tr.events().is_empty());
        assert!(tr.enabled);
    }

    #[test]
    fn filter_selects() {
        let mut tr = BusTrace::new(8);
        tr.enable();
        tr.record(ev(1, BusOp::Write, 1));
        tr.record(ev(2, BusOp::Read, 2));
        tr.record(ev(3, BusOp::Write, 3));
        let writes: Vec<_> = tr.filter(|e| e.op == BusOp::Write).collect();
        assert_eq!(writes.len(), 2);
    }

    #[test]
    fn display_is_informative() {
        let e = ev(1, BusOp::Write, 0x40);
        let s = e.to_string();
        assert!(s.contains('W'), "{s}");
        assert!(s.contains("0x40"), "{s}");
    }
}
