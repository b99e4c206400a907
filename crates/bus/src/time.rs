//! Deterministic simulation time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in integer picoseconds.
///
/// Picoseconds keep every clock in the model exact or near-exact: one
/// 12.5 MHz TurboChannel cycle is exactly 80 000 ps, one 150 MHz Alpha
/// cycle is 6 667 ps (rounded once, at conversion).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero / the zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Constructs from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Constructs from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Value in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (fractional).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds (fractional).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ns", self.as_ns())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// A fixed-frequency clock that converts cycle counts to [`SimTime`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clock {
    hz: u64,
}

impl Clock {
    /// Creates a clock running at `hz` hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn new(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be nonzero");
        Clock { hz }
    }

    /// The clock frequency in hertz.
    pub fn hz(self) -> u64 {
        self.hz
    }

    /// Duration of `cycles` clock cycles (rounded to the nearest
    /// picosecond). Exact: computed in 64-bit while `cycles · 10¹² +
    /// hz / 2` fits, in 128-bit beyond that.
    pub fn cycles(self, cycles: u64) -> SimTime {
        let ps = match cycles.checked_mul(PS_PER_S).and_then(|ps| ps.checked_add(self.hz / 2)) {
            Some(scaled) => scaled / self.hz,
            None => {
                ((cycles as u128 * PS_PER_S as u128 + self.hz as u128 / 2) / self.hz as u128) as u64
            }
        };
        SimTime::from_ps(ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udma_testkit::prop::any;
    use udma_testkit::{prop_assert_eq, props};

    /// The 128-bit conversion the 64-bit path must reproduce exactly.
    fn cycles_in_u128(hz: u64, cycles: u64) -> u64 {
        ((cycles as u128 * PS_PER_S as u128 + hz as u128 / 2) / hz as u128) as u64
    }

    props! {
        /// `Clock::cycles` equals the 128-bit formula for clocks of
        /// every magnitude, at random cycle counts, small ones, and the
        /// counts on both sides of the largest one whose `cycles · 10¹²
        /// + hz / 2` still fits in 64 bits.
        fn cycles_match_the_128_bit_formula(
            hz_bits in any::<u64>(),
            hz_shift in 0u32..64,
            cycles in any::<u64>(),
            small in 0u64..1_000_000,
            near in 0u64..4,
        ) {
            let hz = (hz_bits >> hz_shift).max(1);
            let clock = Clock::new(hz);
            let boundary = (u64::MAX - hz / 2) / PS_PER_S;
            for c in [cycles, small, boundary - near.min(boundary), boundary + 1 + near] {
                prop_assert_eq!(clock.cycles(c).as_ps(), cycles_in_u128(hz, c), "{} cycles", c);
            }
        }
    }

    #[test]
    fn turbochannel_cycle_is_exact() {
        let c = Clock::new(12_500_000);
        assert_eq!(c.cycles(1).as_ps(), 80_000);
        assert_eq!(c.cycles(6).as_ns(), 480.0);
    }

    #[test]
    fn alpha_cycle_rounds_once() {
        let c = Clock::new(150_000_000);
        assert_eq!(c.cycles(1).as_ps(), 6_667);
        // 2400 cycles = 16 microseconds exactly.
        assert_eq!(c.cycles(2400).as_ps(), 16_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ns(), 14.0);
        assert_eq!((a - b).as_ns(), 6.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ns(), 14.0);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4u64).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ps(500).to_string(), "500ps");
        assert_eq!(SimTime::from_ns(42).to_string(), "42.0ns");
        assert_eq!(SimTime::from_us(3).to_string(), "3.000us");
    }

    #[test]
    fn constructors_convert() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1000));
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1000));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_hz_panics() {
        let _ = Clock::new(0);
    }
}
