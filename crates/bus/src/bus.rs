//! The bus: address decoding, routing, timing and statistics.

use crate::{
    BusDevice, BusOp, BusTiming, BusTrace, BusTxn, RamDevice, SharedMemory, SimTime, TraceEvent,
};
use udma_mem::{MemFault, PhysLayout, Region};

/// Counters kept by the bus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Uncached reads routed to the NIC (register or shadow window).
    pub device_reads: u64,
    /// Uncached writes routed to the NIC.
    pub device_writes: u64,
    /// Reads served by RAM.
    pub ram_reads: u64,
    /// Writes served by RAM.
    pub ram_writes: u64,
    /// Total time the I/O bus was occupied by device transactions.
    pub device_busy: SimTime,
}

impl BusStats {
    /// Total transactions routed to the NIC.
    pub fn device_total(&self) -> u64 {
        self.device_reads + self.device_writes
    }
}

/// The system interconnect: routes physical accesses to RAM or the NIC,
/// charges bus time, and records a trace.
///
/// Only NIC accesses (register window and shadow window) cross the clocked
/// I/O bus and pay [`BusTiming`] costs; RAM accesses pay a flat DRAM
/// latency. This matches the machine the paper measures: the expensive
/// thing about every DMA-initiation protocol is its *uncached
/// TurboChannel transactions*.
pub struct Bus {
    layout: PhysLayout,
    ram: RamDevice,
    nic: Option<Box<dyn BusDevice>>,
    timing: BusTiming,
    ram_latency: SimTime,
    trace: BusTrace,
    stats: BusStats,
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bus")
            .field("layout", &self.layout)
            .field("timing", &self.timing)
            .field("nic_attached", &self.nic.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Bus {
    /// Creates a bus over `layout`, backed by shared RAM, with the given
    /// I/O-bus timing.
    pub fn new(layout: PhysLayout, mem: SharedMemory, timing: BusTiming) -> Self {
        layout.validate();
        Bus {
            layout,
            ram: RamDevice::new(mem),
            nic: None,
            timing,
            ram_latency: SimTime::from_ns(180),
            trace: BusTrace::default(),
            stats: BusStats::default(),
        }
    }

    /// Attaches the NIC/DMA engine. Replaces any previous device.
    pub fn attach_nic(&mut self, nic: Box<dyn BusDevice>) {
        self.nic = Some(nic);
    }

    /// The physical layout the bus decodes with.
    pub fn layout(&self) -> &PhysLayout {
        &self.layout
    }

    /// The I/O bus timing in force.
    pub fn timing(&self) -> BusTiming {
        self.timing
    }

    /// Latency of a DRAM access (what a cache miss costs the CPU).
    pub fn ram_latency(&self) -> SimTime {
        self.ram_latency
    }

    /// Shared handle to physical memory (for DMA movers and test setup).
    pub fn memory(&self) -> SharedMemory {
        self.ram.memory()
    }

    /// Mutable access to the attached NIC, for configuration and
    /// inspection by the machine owner (not by simulated software).
    pub fn nic_mut(&mut self) -> Option<&mut (dyn BusDevice + 'static)> {
        self.nic.as_deref_mut()
    }

    /// The transaction trace.
    pub fn trace(&self) -> &BusTrace {
        &self.trace
    }

    /// Mutable access to the trace (enable/disable/clear).
    pub fn trace_mut(&mut self) -> &mut BusTrace {
        &mut self.trace
    }

    /// Counters so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Resets counters and trace contents.
    pub fn reset_stats(&mut self) {
        self.stats = BusStats::default();
        self.trace.clear();
    }

    /// Accounting-only entry for coherent agents whose data path bypasses
    /// the bus (the line lives in a cache, not in RAM): bumps the RAM
    /// counters exactly as [`access`](Self::access) would, so flat and
    /// coherent runs of the same program report identical traffic.
    pub fn note_ram_access(&mut self, op: BusOp) {
        match op {
            BusOp::Read => self.stats.ram_reads += 1,
            BusOp::Write => self.stats.ram_writes += 1,
        }
    }

    /// Performs one transaction at simulation time `now`.
    ///
    /// Returns the data (for reads; zero for writes) and the time the
    /// access occupied.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] for unmapped physical addresses or if a NIC
    /// window is addressed with no NIC attached; device faults propagate.
    pub fn access(&mut self, txn: BusTxn, now: SimTime) -> Result<(u64, SimTime), MemFault> {
        let region = self.layout.region_of(txn.paddr);
        let (data, cost) = match region {
            Region::Ram { .. } => {
                let data = match txn.op {
                    BusOp::Read => {
                        self.stats.ram_reads += 1;
                        self.ram.read(txn.paddr, txn.tag, now)?
                    }
                    BusOp::Write => {
                        self.stats.ram_writes += 1;
                        self.ram.write(txn.paddr, txn.data, txn.tag, now)?;
                        0
                    }
                };
                (data, self.ram_latency)
            }
            Region::NicRegs { .. } | Region::Shadow => {
                let nic = self.nic.as_deref_mut().ok_or(MemFault::BusError { pa: txn.paddr })?;
                let (data, device) = match txn.op {
                    BusOp::Read => {
                        self.stats.device_reads += 1;
                        (nic.read(txn.paddr, txn.tag, now)?, SimTime::ZERO)
                    }
                    BusOp::Write => {
                        self.stats.device_writes += 1;
                        (0, nic.write(txn.paddr, txn.data, txn.tag, now)?)
                    }
                };
                let cost = self.timing.time_for(txn.op) + device;
                self.stats.device_busy += cost;
                (data, cost)
            }
            Region::Unmapped => return Err(MemFault::BusError { pa: txn.paddr }),
        };
        self.trace.record(TraceEvent {
            time: now,
            op: txn.op,
            paddr: txn.paddr,
            data: if txn.op == BusOp::Write { txn.data } else { data },
            tag: txn.tag,
        });
        Ok((data, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use udma_mem::{PhysAddr, PhysMemory};

    fn bus() -> Bus {
        let layout = PhysLayout::default();
        let mem = Rc::new(RefCell::new(PhysMemory::new(layout.ram_size)));
        Bus::new(layout, mem, BusTiming::turbochannel())
    }

    /// A scratch NIC that remembers the last write and answers reads with
    /// its complement.
    struct EchoNic {
        last: u64,
        latency: SimTime,
    }

    impl BusDevice for EchoNic {
        fn read(&mut self, _pa: PhysAddr, _tag: u32, _now: SimTime) -> Result<u64, MemFault> {
            Ok(!self.last)
        }
        fn write(
            &mut self,
            _pa: PhysAddr,
            data: u64,
            _tag: u32,
            _now: SimTime,
        ) -> Result<SimTime, MemFault> {
            self.last = data;
            Ok(self.latency)
        }
    }

    #[test]
    fn ram_round_trip_and_stats() {
        let mut b = bus();
        let pa = PhysAddr::new(0x100);
        b.access(BusTxn::write(pa, 7, 1), SimTime::ZERO).unwrap();
        let (v, _) = b.access(BusTxn::read(pa, 1), SimTime::ZERO).unwrap();
        assert_eq!(v, 7);
        assert_eq!(b.stats().ram_reads, 1);
        assert_eq!(b.stats().ram_writes, 1);
        assert_eq!(b.stats().device_total(), 0);
    }

    #[test]
    fn nic_window_without_nic_is_bus_error() {
        let mut b = bus();
        let pa = b.layout().nic_base;
        assert!(matches!(
            b.access(BusTxn::read(pa, 0), SimTime::ZERO),
            Err(MemFault::BusError { .. })
        ));
    }

    #[test]
    fn nic_routing_and_timing() {
        let mut b = bus();
        b.attach_nic(Box::new(EchoNic { last: 0, latency: SimTime::from_ns(20) }));
        let pa = b.layout().nic_base;
        let (_, w) = b.access(BusTxn::write(pa, 0xAB, 2), SimTime::ZERO).unwrap();
        assert_eq!(w, SimTime::from_ns(500)); // 480 bus + 20 device
                                              // Reads carry no device-side latency: only writes return one.
        let (v, r) = b.access(BusTxn::read(pa, 2), SimTime::ZERO).unwrap();
        assert_eq!(v, !0xABu64);
        assert_eq!(r, SimTime::from_ns(480));
        assert_eq!(b.stats().device_reads, 1);
        assert_eq!(b.stats().device_writes, 1);
        assert_eq!(b.stats().device_busy, SimTime::from_ns(980));
    }

    #[test]
    fn shadow_window_routes_to_nic() {
        let mut b = bus();
        b.attach_nic(Box::new(EchoNic { last: 0, latency: SimTime::ZERO }));
        let s = b.layout().shadow.shadow_paddr(PhysAddr::new(0x2000)).unwrap();
        b.access(BusTxn::write(s, 5, 3), SimTime::ZERO).unwrap();
        assert_eq!(b.stats().device_writes, 1);
    }

    #[test]
    fn unmapped_is_bus_error() {
        let mut b = bus();
        let hole = PhysAddr::new(1 << 30);
        assert!(matches!(
            b.access(BusTxn::read(hole, 0), SimTime::ZERO),
            Err(MemFault::BusError { .. })
        ));
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut b = bus();
        b.trace_mut().enable();
        let pa = PhysAddr::new(0x80);
        b.access(BusTxn::write(pa, 1, 7), SimTime::from_ns(5)).unwrap();
        b.access(BusTxn::read(pa, 7), SimTime::from_ns(9)).unwrap();
        let evs = b.trace().events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].op, BusOp::Write);
        assert_eq!(evs[0].data, 1);
        assert_eq!(evs[1].op, BusOp::Read);
        assert_eq!(evs[1].data, 1); // read returns the stored value
        assert_eq!(evs[1].tag, 7);
    }

    #[test]
    fn reset_stats_clears_everything() {
        let mut b = bus();
        b.trace_mut().enable();
        b.access(BusTxn::write(PhysAddr::new(0x80), 1, 0), SimTime::ZERO).unwrap();
        b.reset_stats();
        assert_eq!(b.stats(), BusStats::default());
        assert!(b.trace().events().is_empty());
    }
}
