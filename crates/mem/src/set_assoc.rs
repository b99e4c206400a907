//! A flat set-associative array: the storage and victim choice of every
//! translation and caching structure of the machine — the CPU's TLB,
//! its data caches and the NI's IOTLB.
//!
//! Set `s` of a `sets × ways` array is `slots[s * ways..(s + 1) * ways]`;
//! a key's set is its [`SetKey::set_hash`] masked when the set count is a
//! power of two and taken `%` the set count otherwise (the same set).

use crate::VirtPage;
use std::num::NonZeroU64;
use std::ops::Range;

/// A key of a [`SetAssoc`]: its hash picks the set. Vacant slots hold
/// the default key until their first fill.
pub trait SetKey: Copy + Eq + Default {
    /// The hash whose residue modulo the set count is the key's set.
    fn set_hash(&self) -> u64;
}

/// A line number indexes its own set.
impl SetKey for u64 {
    fn set_hash(&self) -> u64 {
        *self
    }
}

impl SetKey for VirtPage {
    fn set_hash(&self) -> u64 {
        self.number()
    }
}

/// How a full set picks its victim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Replacement {
    /// Replace the oldest fill (per-set round-robin pointer).
    #[default]
    Fifo,
    /// Replace the least recently used entry.
    Lru,
    /// Replace a pseudo-random way (deterministic splitmix stream).
    Random,
}

/// What a [`SetAssoc::fill`] displaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fill<K, V> {
    /// The key took a vacant way.
    Vacant,
    /// The key was resident; its value was replaced in place.
    Replaced(V),
    /// The set was full: the victim's key and value. A zero-way array
    /// hands the filled pair straight back.
    Evicted(K, V),
}

/// One way. The key sits outside the entry so a scan compares keys
/// first; a vacant slot keeps a stale key and no entry.
#[derive(Clone, Debug)]
struct Slot<K, V> {
    key: K,
    /// The value and its fill/touch tick. Stamps are unique among the
    /// live slots, so the LRU victim is the one oldest stamp; never zero,
    /// so the `Option` needs no tag of its own.
    entry: Option<(V, NonZeroU64)>,
}

/// `sets × ways` slots of `(key, value)` with a victim policy. Every
/// fill, and under [`Replacement::Lru`] every touching
/// [`get`](SetAssoc::get), takes a fresh stamp; `ways == 0` allocates
/// nothing and never fills.
#[derive(Clone, Debug)]
pub struct SetAssoc<K, V> {
    slots: Vec<Slot<K, V>>,
    ways: usize,
    sets: usize,
    /// `sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    replacement: Replacement,
    /// Per-set next victim (FIFO only); advances only on eviction.
    fifo: Vec<usize>,
    tick: NonZeroU64,
    rng_state: u64,
    len: usize,
}

impl<K: SetKey, V> SetAssoc<K, V> {
    /// An empty array of `sets × ways` slots; `seed` starts the
    /// [`Replacement::Random`] stream.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: usize, ways: usize, replacement: Replacement, seed: u64) -> Self {
        assert!(sets > 0, "a set-associative array needs at least one set");
        let fifo_sets = if replacement == Replacement::Fifo && ways > 0 { sets } else { 0 };
        SetAssoc {
            slots: (0..sets * ways).map(|_| Slot { key: K::default(), entry: None }).collect(),
            ways,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            replacement,
            fifo: vec![0; fifo_sets],
            tick: NonZeroU64::MIN,
            rng_state: seed,
            len: 0,
        }
    }

    /// Resident entries (O(1)).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn set_index(&self, key: K) -> usize {
        let h = key.set_hash();
        match self.set_mask {
            Some(mask) => (h & mask) as usize,
            None => (h % self.sets as u64) as usize,
        }
    }

    fn set_of(&self, key: K) -> Range<usize> {
        let idx = self.set_index(key);
        idx * self.ways..(idx + 1) * self.ways
    }

    /// The value of `key` if `accept` takes it, stamped as just used. A
    /// resident value `accept` refuses is left untouched. Only LRU reads
    /// the use stamps, so the others skip them.
    pub fn get(&mut self, key: K, accept: impl FnOnce(&V) -> bool) -> Option<&mut V> {
        let set = self.set_of(key);
        let (value, stamp) =
            self.slots[set].iter_mut().filter(|s| s.key == key).find_map(|s| s.entry.as_mut())?;
        if !accept(value) {
            return None;
        }
        if self.replacement == Replacement::Lru {
            self.tick = self.tick.saturating_add(1);
            *stamp = self.tick;
        }
        Some(value)
    }

    /// The value of `key` if `accept` takes it; no stamp moves.
    pub fn peek(&self, key: K, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
        let set = self.set_of(key);
        let (value, _) =
            self.slots[set].iter().filter(|s| s.key == key).find_map(|s| s.entry.as_ref())?;
        accept(value).then_some(value)
    }

    /// Stores `value` under `key`: in place if `key` is resident, else in
    /// the set's first vacant way, else over the policy's victim. One
    /// pass over the set finds all three.
    pub fn fill(&mut self, key: K, value: V) -> Fill<K, V> {
        if self.ways == 0 {
            return Fill::Evicted(key, value);
        }
        let idx = self.set_index(key);
        let start = idx * self.ways;
        self.tick = self.tick.saturating_add(1);
        let stamp = self.tick;
        let mut vacant = None;
        let mut oldest = (0, NonZeroU64::MAX);
        for (way, slot) in self.slots[start..start + self.ways].iter_mut().enumerate() {
            match &mut slot.entry {
                Some(entry) if slot.key == key => {
                    let (old, _) = std::mem::replace(entry, (value, stamp));
                    return Fill::Replaced(old);
                }
                Some((_, s)) if *s < oldest.1 => oldest = (way, *s),
                Some(_) => {}
                None => {
                    vacant.get_or_insert(way);
                }
            }
        }
        let way = match vacant {
            Some(way) => way,
            None => match self.replacement {
                Replacement::Fifo => {
                    let way = self.fifo[idx];
                    self.fifo[idx] = (way + 1) % self.ways;
                    way
                }
                Replacement::Lru => oldest.0,
                Replacement::Random => {
                    (splitmix64(&mut self.rng_state) % self.ways as u64) as usize
                }
            },
        };
        let slot = &mut self.slots[start + way];
        let victim = std::mem::replace(&mut slot.key, key);
        match slot.entry.replace((value, stamp)) {
            Some((old, _)) => Fill::Evicted(victim, old),
            None => {
                self.len += 1;
                Fill::Vacant
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let set = self.set_of(key);
        let (value, _) =
            self.slots[set].iter_mut().filter(|s| s.key == key).find_map(|s| s.entry.take())?;
        self.len -= 1;
        Some(value)
    }

    /// Empties the array, handing every resident pair to `f`, and resets
    /// the FIFO pointers.
    pub fn drain(&mut self, mut f: impl FnMut(K, V)) {
        for slot in &mut self.slots {
            if let Some((value, _)) = slot.entry.take() {
                f(slot.key, value);
            }
        }
        self.len = 0;
        self.fifo.fill(0);
    }

    /// Every resident pair, set by set.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().filter_map(|s| s.entry.as_ref().map(|(value, _)| (s.key, value)))
    }
}

/// One splitmix64 step: advances `state` and returns the next value of
/// its stream. Random victims, key minting and E17's process picks draw
/// from these deterministic streams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(sets: usize, ways: usize, replacement: Replacement) -> SetAssoc<u64, u64> {
        SetAssoc::new(sets, ways, replacement, 7)
    }

    #[test]
    fn fill_then_get_replace_and_remove() {
        let mut a = array(2, 2, Replacement::Fifo);
        assert_eq!(a.fill(4, 40), Fill::Vacant);
        assert_eq!(a.get(4, |_| true).copied(), Some(40));
        assert_eq!(a.fill(4, 41), Fill::Replaced(40));
        assert_eq!(a.len(), 1);
        assert_eq!(a.remove(4), Some(41));
        assert_eq!(a.remove(4), None);
        assert!(a.is_empty());
    }

    #[test]
    fn a_refused_value_is_a_miss_and_keeps_its_stamp() {
        let mut a = array(1, 2, Replacement::Lru);
        a.fill(0, 0);
        a.fill(1, 1);
        // Key 0 is the LRU line; a refused lookup must not refresh it.
        assert!(a.get(0, |&v| v > 5).is_none());
        assert_eq!(a.fill(2, 2), Fill::Evicted(0, 0));
        assert_eq!(a.peek(1, |_| true), Some(&1));
        assert_eq!(a.peek(1, |&v| v > 5), None);
    }

    #[test]
    fn fifo_ignores_use_and_lru_follows_it() {
        for (replacement, victim) in [(Replacement::Fifo, 0), (Replacement::Lru, 1)] {
            let mut a = array(1, 2, replacement);
            a.fill(0, 0);
            a.fill(1, 1);
            a.get(0, |_| true);
            assert_eq!(a.fill(2, 2), Fill::Evicted(victim, victim), "{replacement:?}");
        }
    }

    #[test]
    fn sets_are_disjoint_and_vacancies_fill_before_evictions() {
        // Three sets (not a power of two): keys 0, 3, 6 share set 0.
        let mut a = array(3, 2, Replacement::Fifo);
        assert_eq!(a.fill(0, 0), Fill::Vacant);
        assert_eq!(a.fill(1, 1), Fill::Vacant);
        assert_eq!(a.fill(3, 3), Fill::Vacant);
        a.remove(0);
        assert_eq!(a.fill(6, 6), Fill::Vacant);
        assert_eq!(a.fill(9, 9), Fill::Evicted(6, 6));
        assert_eq!(a.peek(1, |_| true), Some(&1));
    }

    #[test]
    fn drain_empties_and_resets_the_fifo_pointers() {
        let mut a = array(1, 2, Replacement::Fifo);
        for k in 0..3 {
            a.fill(k, k);
        }
        let mut drained = Vec::new();
        a.drain(|k, v| drained.push((k, v)));
        drained.sort_unstable();
        assert_eq!(drained, [(1, 1), (2, 2)]);
        assert!(a.is_empty() && a.iter().next().is_none());
        a.fill(5, 5);
        a.fill(6, 6);
        assert_eq!(a.fill(7, 7), Fill::Evicted(5, 5));
    }

    #[test]
    fn zero_ways_store_nothing() {
        let mut a = array(4, 0, Replacement::Lru);
        assert_eq!(a.fill(1, 1), Fill::Evicted(1, 1));
        assert!(a.get(1, |_| true).is_none());
        assert_eq!(a.remove(1), None);
        assert!(a.is_empty());
    }

    #[test]
    fn random_victims_replay_per_seed() {
        let victims = |seed| {
            let mut a = SetAssoc::new(1, 4, Replacement::Random, seed);
            (0..32u64)
                .map(|k| match a.fill(k, ()) {
                    Fill::Evicted(v, ()) => Some(v),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(victims(1), victims(1));
        assert_ne!(victims(1), victims(2));
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panic() {
        let _ = array(0, 1, Replacement::Fifo);
    }
}
