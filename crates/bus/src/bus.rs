//! The bus: address decoding, routing, timing and statistics.

use crate::{BusDevice, BusOp, BusTiming, BusTrace, BusTxn, MemPort, SimTime, TraceEvent};
use udma_mem::{MemFault, PhysAddr, PhysLayout, Region};

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
///
/// The bus owns the machine's memory port and its NIC, typed so the
/// machine reaches its own engine; the CPU and the kernel take `&mut Bus`,
/// which a `&mut Bus<N>` coerces to.
#[derive(Clone)]
pub struct Bus<N: ?Sized = dyn BusDevice> {
    layout: PhysLayout,
    mem: MemPort,
    timing: BusTiming,
    ram_latency: SimTime,
    trace: BusTrace,
    stats: BusStats,
    nic: N,
}

impl<N: BusDevice> Bus<N> {
    /// Creates a bus over `layout` with the given I/O-bus timing, owning
    /// the memory port and the NIC ([`NoNic`](crate::NoNic) for none).
    pub fn new(layout: PhysLayout, mem: MemPort, timing: BusTiming, nic: N) -> Self {
        layout.validate();
        Bus {
            layout,
            mem,
            timing,
            ram_latency: SimTime::from_ns(180),
            trace: BusTrace::default(),
            stats: BusStats::default(),
            nic,
        }
    }
}

impl<N: BusDevice + ?Sized> Bus<N> {
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

    /// The memory port.
    pub fn port(&self) -> &MemPort {
        &self.mem
    }

    /// The memory port, mutably (seeding memory, CPU-cache operations).
    pub fn port_mut(&mut self) -> &mut MemPort {
        &mut self.mem
    }

    /// The NIC, for inspection by the machine owner.
    pub fn nic(&self) -> &N {
        &self.nic
    }

    /// The NIC, mutably, for configuration by the machine owner.
    pub fn nic_mut(&mut self) -> &mut N {
        &mut self.nic
    }

    /// The NIC and the memory port at once, for engine work the machine
    /// owner posts directly (not through a bus transaction).
    pub fn nic_and_port(&mut self) -> (&mut N, &mut MemPort) {
        (&mut self.nic, &mut self.mem)
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

    /// A cacheable CPU load of the RAM word at `pa` through the port's
    /// CPU side ([`MemPort::cpu_read`]), counted and traced.
    ///
    /// # Errors
    ///
    /// Memory faults propagate (misaligned, outside installed RAM).
    pub fn cpu_read(
        &mut self,
        pa: PhysAddr,
        tag: u32,
        now: SimTime,
    ) -> Result<(u64, bool, SimTime), MemFault> {
        self.stats.ram_reads += 1;
        let read = self.mem.cpu_read(pa)?;
        self.record(BusTxn::read(pa, tag), read.0, now);
        Ok(read)
    }

    /// Performs one transaction at simulation time `now`. RAM goes
    /// through the CPU side of the memory port and costs the DRAM latency
    /// plus any coherence time; the NIC windows cost the I/O-bus time
    /// plus the device's own latency.
    ///
    /// Returns the data (for reads; zero for writes) and the time the
    /// access occupied.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] for unmapped physical addresses or if a NIC
    /// window is addressed with no NIC fitted; device faults propagate.
    pub fn access(&mut self, txn: BusTxn, now: SimTime) -> Result<(u64, SimTime), MemFault> {
        let (data, cost) = match self.layout.region_of(txn.paddr) {
            Region::Ram { .. } if txn.op == BusOp::Read => {
                let (data, _, extra) = self.cpu_read(txn.paddr, txn.tag, now)?;
                return Ok((data, self.ram_latency + extra));
            }
            Region::Ram { .. } => {
                self.stats.ram_writes += 1;
                (0, self.ram_latency + self.mem.cpu_write(txn.paddr, txn.data)?)
            }
            Region::NicRegs { .. } | Region::Shadow => {
                let (nic, mem) = (&mut self.nic, &mut self.mem);
                let (data, device) = match txn.op {
                    BusOp::Read => {
                        self.stats.device_reads += 1;
                        (nic.read(txn.paddr, txn.tag, now, mem)?, SimTime::ZERO)
                    }
                    BusOp::Write => {
                        self.stats.device_writes += 1;
                        (0, nic.write(txn.paddr, txn.data, txn.tag, now, mem)?)
                    }
                };
                let cost = self.timing.time_for(txn.op) + device;
                self.stats.device_busy += cost;
                (data, cost)
            }
            Region::Unmapped => return Err(MemFault::BusError { pa: txn.paddr }),
        };
        self.record(txn, data, now);
        Ok((data, cost))
    }

    fn record(&mut self, txn: BusTxn, data: u64, now: SimTime) {
        self.trace.record(TraceEvent {
            time: now,
            op: txn.op,
            paddr: txn.paddr,
            data: if txn.op == BusOp::Write { txn.data } else { data },
            tag: txn.tag,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoNic;
    use udma_mem::PhysMemory;

    fn bus_with<N: BusDevice>(nic: N) -> Bus<N> {
        let layout = PhysLayout::default();
        let mem = MemPort::flat(PhysMemory::new(layout.ram_size));
        Bus::new(layout, mem, BusTiming::turbochannel(), nic)
    }

    fn bus() -> Bus<NoNic> {
        bus_with(NoNic)
    }

    /// A scratch NIC that remembers the last write and answers reads with
    /// its complement.
    struct EchoNic {
        last: u64,
        latency: SimTime,
    }

    impl BusDevice for EchoNic {
        fn read(
            &mut self,
            _: PhysAddr,
            _: u32,
            _: SimTime,
            _: &mut MemPort,
        ) -> Result<u64, MemFault> {
            Ok(!self.last)
        }
        fn write(
            &mut self,
            _pa: PhysAddr,
            data: u64,
            _tag: u32,
            _now: SimTime,
            _mem: &mut MemPort,
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
        let mut b = bus_with(EchoNic { last: 0, latency: SimTime::from_ns(20) });
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
        let mut b = bus_with(EchoNic { last: 0, latency: SimTime::ZERO });
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
