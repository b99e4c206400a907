//! Seedable, portable PRNG: xoshiro256** with a SplitMix64 seed
//! expander — the standard pairing recommended by the xoshiro authors.
//!
//! Not cryptographic. The point is *determinism*: the same seed yields
//! the same stream on every platform and every run, so a failing
//! randomized test is always replayable from its printed seed.

use std::ops::Range;

/// Advances a SplitMix64 state and returns the next output. Used to
/// expand a 64-bit seed into the 256-bit xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro's state must not be all zero; splitmix64 cannot
        // produce four zero outputs in a row, so this is unreachable,
        // but keep the guard explicit.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        TestRng { s }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.gen_f64() < p
    }

    /// Uniform over a non-empty half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Uniform index into a collection of `len` elements.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn gen_index(&mut self, len: usize) -> usize {
        self.gen_range(0..len)
    }

    /// Uniform in `[0, span)` without modulo bias (rejection sampling).
    fn uniform_below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        // Accept v in [0, zone]; zone + 1 is the largest multiple of
        // `span` that fits in 2^64, so `v % span` is exactly uniform.
        let rem = (u64::MAX % span).wrapping_add(1) % span;
        let zone = u64::MAX - rem;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }
}

/// Types [`TestRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Sized + Copy {
    /// Uniform sample from a non-empty half-open range.
    fn sample(rng: &mut TestRng, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut TestRng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range on empty range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                range.start + rng.uniform_below(span) as $t
            }
        }
    )*};
}

macro_rules! impl_sample_signed {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut TestRng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range on empty range");
                let span = (range.end as $u).wrapping_sub(range.start as $u) as u64;
                range.start.wrapping_add(rng.uniform_below(span) as $t)
            }
        }
    )*};
}

impl_sample_unsigned!(u8, u16, u32, u64, usize);
impl_sample_signed!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TestRng::seed_from_u64(7);
        let mut b = TestRng::seed_from_u64(7);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TestRng::seed_from_u64(1);
        let mut b = TestRng::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = TestRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(17u64..29);
            assert!((17..29).contains(&v));
            let s = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&s));
            let i = rng.gen_index(3);
            assert!(i < 3);
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = TestRng::seed_from_u64(4);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "8-value range not covered in 1000 draws");
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = TestRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = TestRng::seed_from_u64(6);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }
}
