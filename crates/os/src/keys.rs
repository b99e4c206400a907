//! Context and key grants (§3.1).

use std::collections::HashMap;
use udma_cpu::Pid;

/// What a process receives when the kernel grants it user-level DMA
/// rights: a register context and the 61-bit key that authorises writes
/// into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtxGrant {
    /// The register-context index.
    pub ctx: u32,
    /// The key ("given to the user process by the operating system.
    /// Possession of the key implies that the user process is allowed to
    /// write to this register context").
    pub key: u64,
}

/// The one key-minting rule, for the key registry and the context cache:
/// a seeded splitmix64 stream masked to the key width.
#[derive(Clone, Debug)]
pub(crate) struct KeyMint {
    state: u64,
    bits: u32,
}

impl KeyMint {
    /// A mint of `bits`-bit keys, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 61 (the paper's key width).
    pub(crate) fn new(seed: u64, bits: u32) -> Self {
        assert!((1..=61).contains(&bits), "key width out of range");
        KeyMint { state: seed, bits }
    }

    /// The next key. Key 0 is reserved (unprogrammed context slots read
    /// 0), so a 0 draw becomes 1.
    pub(crate) fn next_key(&mut self) -> u64 {
        (udma_mem::splitmix64(&mut self.state) & ((1u64 << self.bits) - 1)).max(1)
    }
}

/// Allocates register contexts to processes and mints their keys.
///
/// Key generation is a deterministic splitmix64 stream seeded at kernel
/// construction — deterministic so experiments replay exactly, yet with
/// the full key width so the guessing analysis (E10) is meaningful.
#[derive(Clone, Debug)]
pub struct KeyRegistry {
    free: Vec<u32>,
    grants: HashMap<Pid, CtxGrant>,
    keys: KeyMint,
}

impl KeyRegistry {
    /// Creates a registry over `num_contexts` contexts with keys of
    /// `key_bits` significant bits (61 in the paper's 64-bit layout;
    /// tests shrink it to make guessing attacks tractable).
    ///
    /// # Panics
    ///
    /// Panics if `key_bits` is 0 or exceeds 61, or if `num_contexts`
    /// exceeds the NI's [`udma_nic::regs::MAX_CONTEXTS`] — the register
    /// map is the one source of truth for the context count, so the
    /// OS-side allocator cannot assume contexts the hardware lacks.
    pub fn new(num_contexts: u32, seed: u64, key_bits: u32) -> Self {
        let keys = KeyMint::new(seed, key_bits);
        assert!(
            num_contexts <= udma_nic::regs::MAX_CONTEXTS,
            "context count out of range (NI supports at most {})",
            udma_nic::regs::MAX_CONTEXTS
        );
        KeyRegistry { free: (0..num_contexts).rev().collect(), grants: HashMap::new(), keys }
    }

    /// Grants a context to `pid`, or returns `None` when all contexts
    /// are taken — "if more processes would like to start DMA
    /// operations, the rest will have to go through the kernel" (§3.2).
    pub fn grant(&mut self, pid: Pid) -> Option<CtxGrant> {
        if let Some(&g) = self.grants.get(&pid) {
            return Some(g);
        }
        let ctx = self.free.pop()?;
        let grant = CtxGrant { ctx, key: self.keys.next_key() };
        self.grants.insert(pid, grant);
        Some(grant)
    }

    /// Takes back `pid`'s grant, if it holds one, and returns its
    /// context to the free list, so the next grant may hand it out
    /// again under a fresh key.
    pub(crate) fn release(&mut self, pid: Pid) {
        if let Some(grant) = self.grants.remove(&pid) {
            self.free.push(grant.ctx);
        }
    }

    /// Contexts still available.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_distinct_contexts_and_keys() {
        let mut r = KeyRegistry::new(4, 42, 61);
        let a = r.grant(Pid::new(0)).unwrap();
        let b = r.grant(Pid::new(1)).unwrap();
        assert_ne!(a.ctx, b.ctx);
        assert_ne!(a.key, b.key);
        assert_eq!(r.available(), 2);
    }

    #[test]
    fn regrant_is_idempotent() {
        let mut r = KeyRegistry::new(4, 42, 61);
        let a = r.grant(Pid::new(0)).unwrap();
        let again = r.grant(Pid::new(0)).unwrap();
        assert_eq!(a, again);
        assert_eq!(r.available(), 3);
    }

    #[test]
    fn release_returns_the_context_and_regrants_it_under_a_new_key() {
        let mut r = KeyRegistry::new(2, 42, 61);
        let a = r.grant(Pid::new(0)).unwrap();
        r.release(Pid::new(0));
        r.release(Pid::new(0));
        assert_eq!(r.available(), 2, "a second release frees nothing");
        let b = r.grant(Pid::new(1)).unwrap();
        assert_eq!(b.ctx, a.ctx);
        assert_ne!(b.key, a.key);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut r = KeyRegistry::new(2, 42, 61);
        assert!(r.grant(Pid::new(0)).is_some());
        assert!(r.grant(Pid::new(1)).is_some());
        assert!(r.grant(Pid::new(2)).is_none());
    }

    #[test]
    fn keys_are_deterministic_per_seed_and_never_zero() {
        let keys = |seed| {
            let mut r = KeyRegistry::new(8, seed, 8);
            (0..8).map(|i| r.grant(Pid::new(i)).unwrap().key).collect::<Vec<_>>()
        };
        assert_eq!(keys(7), keys(7));
        assert_ne!(keys(7), keys(8));
        for k in keys(7) {
            assert_ne!(k, 0);
            assert!(k < 256);
        }
    }

    #[test]
    fn a_zero_draw_mints_key_one() {
        // 1-bit keys draw 0 about half the time; key 0 is reserved.
        let mut mint = KeyMint::new(3, 1);
        assert!((0..64).all(|_| mint.next_key() == 1));
    }

    #[test]
    #[should_panic(expected = "key width")]
    fn bad_key_width_panics() {
        let _ = KeyRegistry::new(1, 0, 62);
    }
}
