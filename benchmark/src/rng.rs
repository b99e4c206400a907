//! Seeded input generation: a splitmix64 stream per (seed, round).

/// A deterministic 64-bit generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    /// The input stream of round `round` under workload seed `seed`.
    pub fn for_round(seed: u64, round: u64) -> Rng {
        let mut r = Rng(seed ^ 0x5EED_0000_0000_0000);
        let mixed = r.next_u64() ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng(mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.range(0, i as u64) as usize);
        }
        p
    }

    /// A uniformly drawn permutation of `0..n` with no fixed point
    /// (rejection sampling; about e draws on average).
    pub fn derangement(&mut self, n: usize) -> Vec<usize> {
        loop {
            let p = self.permutation(n);
            if p.iter().enumerate().all(|(i, &j)| i != j) {
                return p;
            }
        }
    }

    /// `len` pattern bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_round() {
        let a: Vec<u64> = (0..4).map(|_| Rng::for_round(7, 3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::for_round(7, 3).next_u64(), Rng::for_round(7, 4).next_u64());
        assert_ne!(Rng::for_round(7, 3).next_u64(), Rng::for_round(8, 3).next_u64());
    }

    #[test]
    fn derangements_have_no_fixed_points() {
        let mut r = Rng::for_round(1, 0);
        for _ in 0..100 {
            let p = r.derangement(5);
            assert!(p.iter().enumerate().all(|(i, &j)| i != j));
            let mut sorted = p.clone();
            sorted.sort();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }
}
