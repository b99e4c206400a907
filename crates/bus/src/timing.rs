//! Bus timing presets.

use crate::{BusOp, Clock, SimTime};

/// Cycle-level timing of a clocked I/O bus.
///
/// The paper's prototype board sits on a 12.5 MHz TurboChannel; §3.4 notes
/// that "recent buses, like the PCI bus run at frequencies as high as
/// 66 MHz", which experiment E7 sweeps over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusTiming {
    clock: Clock,
    /// Bus cycles a single-word write transaction occupies.
    write_cycles: u64,
    /// Bus cycles a single-word read transaction occupies (reads need the
    /// round trip: address out, device turnaround, data back).
    read_cycles: u64,
    /// `write_cycles` of bus time, priced once.
    write_time: SimTime,
    /// `read_cycles` of bus time, priced once.
    read_time: SimTime,
    name: &'static str,
}

impl BusTiming {
    /// Creates a custom timing.
    pub fn new(name: &'static str, hz: u64, write_cycles: u64, read_cycles: u64) -> Self {
        let clock = Clock::new(hz);
        BusTiming {
            clock,
            write_cycles,
            read_cycles,
            write_time: clock.cycles(write_cycles),
            read_time: clock.cycles(read_cycles),
            name,
        }
    }

    /// The 12.5 MHz TurboChannel of the paper's DEC Alpha 3000/300
    /// prototype. Calibrated so that the two-access Extended Shadow
    /// initiation costs ≈1.1 µs and the four/five-access methods land at
    /// 2.3/2.6 µs, as in Table 1.
    pub fn turbochannel() -> Self {
        BusTiming::new("TurboChannel 12.5MHz", 12_500_000, 6, 6)
    }

    /// 66 MHz PCI.
    pub fn pci66() -> Self {
        BusTiming::new("PCI 66MHz", 66_000_000, 4, 6)
    }

    /// A custom bus at `hz` with the TurboChannel transaction shape; used
    /// by the bus-frequency sweep (E7).
    pub fn scaled(hz: u64) -> Self {
        BusTiming::new("custom", hz, 6, 6)
    }

    /// Human-readable name of the preset.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bus clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Wall time one transaction of kind `op` occupies the bus.
    pub fn time_for(&self, op: BusOp) -> SimTime {
        match op {
            BusOp::Read => self.read_time,
            BusOp::Write => self.write_time,
        }
    }
}

impl Default for BusTiming {
    fn default() -> Self {
        BusTiming::turbochannel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turbochannel_transaction_times() {
        let t = BusTiming::turbochannel();
        assert_eq!(t.time_for(BusOp::Write).as_ns(), 480.0);
        assert_eq!(t.time_for(BusOp::Read).as_ns(), 480.0);
    }

    #[test]
    fn faster_bus_is_faster() {
        let tc = BusTiming::turbochannel();
        let pci = BusTiming::pci66();
        assert!(pci.time_for(BusOp::Write) < tc.time_for(BusOp::Write));
        assert!(pci.time_for(BusOp::Read) < tc.time_for(BusOp::Read));
    }

    #[test]
    fn names() {
        assert!(BusTiming::turbochannel().name().contains("TurboChannel"));
        assert_eq!(BusTiming::default(), BusTiming::turbochannel());
    }

    /// The prices `new` stores are the clock's own conversions of the
    /// cycle counts, rounding included (33.3 MHz and 7 Hz do not divide
    /// a second into whole picoseconds per cycle).
    #[test]
    fn transaction_times_are_the_clock_s_cycles() {
        let presets = [
            BusTiming::turbochannel(),
            BusTiming::pci66(),
            BusTiming::scaled(33_333_333),
            BusTiming::scaled(7),
        ];
        for t in presets {
            assert_eq!(t.time_for(BusOp::Read), t.clock().cycles(t.read_cycles), "{}", t.name());
            assert_eq!(t.time_for(BusOp::Write), t.clock().cycles(t.write_cycles), "{}", t.name());
        }
    }

    #[test]
    fn scaled_uses_requested_frequency() {
        let t = BusTiming::scaled(25_000_000);
        assert_eq!(t.clock().hz(), 25_000_000);
        // Twice the TurboChannel clock → half the transaction time.
        assert_eq!(t.time_for(BusOp::Write).as_ns(), 240.0);
    }
}
