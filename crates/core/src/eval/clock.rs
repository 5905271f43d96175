//! A fingerprint-keyed map of bounded size with second-chance (CLOCK)
//! eviction (Corbató, 1968).
//!
//! Keys sit on a ring in insertion order and each held value carries a
//! reference bit. A read through [`ClockMap::get`] sets the bit, which
//! needs only `&self`, so hits stay under a shared read lock. An insert
//! into a full map walks a hand over the ring: an entry whose bit is set
//! has it cleared and is passed over once, and the first entry found with
//! a clear bit is evicted and its ring slot taken by the new key. The new
//! key is never the one evicted, and the hand moves past it, so it is the
//! last entry the next sweep reaches. With no bits set the map evicts in
//! insertion order.
//!
//! Nothing is allocated up front: the ring and the map grow with use, up
//! to the capacity.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// One held value and its reference bit.
struct Slot<V> {
    value: V,
    referenced: AtomicBool,
}

/// A map of at most `capacity` values keyed by `u64` fingerprints; see the
/// [module documentation](self).
pub(super) struct ClockMap<V> {
    slots: HashMap<u64, Slot<V>>,
    /// Held keys in insertion order; eviction replaces keys in place.
    ring: Vec<u64>,
    /// The ring position the next eviction sweep starts from.
    hand: usize,
    capacity: usize,
}

impl<V> ClockMap<V> {
    /// An empty map that will hold at most `capacity` (≥ 1) values.
    pub(super) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a ClockMap holds at least one value");
        ClockMap {
            slots: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            capacity,
        }
    }

    /// The value held for `key`, marking it recently used.
    pub(super) fn get(&self, key: u64) -> Option<&V> {
        let slot = self.slots.get(&key)?;
        // Skip the store when the bit is already set, so hot entries do not
        // bounce their cache line between readers.
        if !slot.referenced.load(Ordering::Relaxed) {
            slot.referenced.store(true, Ordering::Relaxed);
        }
        Some(&slot.value)
    }

    /// The value held for `key`, leaving its reference bit alone.
    pub(super) fn peek(&self, key: u64) -> Option<&V> {
        self.slots.get(&key).map(|slot| &slot.value)
    }

    /// True if a value is held for `key` (does not mark it used).
    pub(super) fn contains_key(&self, key: u64) -> bool {
        self.slots.contains_key(&key)
    }

    /// Number of values held.
    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Every held key and value, in no particular order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots.iter().map(|(&key, slot)| (key, &slot.value))
    }

    /// Stores `value` under `key` with its reference bit clear, returning
    /// the value this evicted to make room, if any. Replacing the value of
    /// a held key keeps its ring position and evicts nothing.
    pub(super) fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.value = value;
            return None;
        }
        let mut evicted = None;
        if self.ring.len() < self.capacity {
            self.ring.push(key);
        } else {
            // Terminates within two turns of the ring: the first turn
            // clears every bit it passes.
            loop {
                let victim = self.ring[self.hand];
                let slot = self.slots.get_mut(&victim).expect("every ring key is held");
                if std::mem::take(slot.referenced.get_mut()) {
                    self.hand = (self.hand + 1) % self.ring.len();
                    continue;
                }
                evicted = self.slots.remove(&victim).map(|slot| slot.value);
                self.ring[self.hand] = key;
                self.hand = (self.hand + 1) % self.ring.len();
                break;
            }
        }
        self.slots.insert(
            key,
            Slot {
                value,
                referenced: AtomicBool::new(false),
            },
        );
        evicted
    }

    /// Drops the value held for `key`, if any. Linear in the ring; the
    /// store only removes entries it finds corrupt.
    pub(super) fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.slots.remove(&key)?;
        let at = self
            .ring
            .iter()
            .position(|&k| k == key)
            .expect("every held key is on the ring");
        self.ring.remove(at);
        if at < self.hand {
            self.hand -= 1;
        }
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
        Some(slot.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(map: &ClockMap<u64>) -> Vec<u64> {
        let mut keys: Vec<u64> = map.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn a_hit_buys_one_pass_and_peek_buys_none() {
        let mut map = ClockMap::new(3);
        for k in 0..3 {
            map.insert(k, k);
        }
        assert_eq!(map.get(0), Some(&0));
        assert_eq!(map.peek(1), Some(&1));
        // The hand passes over 0 (clearing its bit) and takes 1, then 2.
        assert_eq!(map.insert(3, 3), Some(1));
        assert_eq!(map.insert(4, 4), Some(2));
        assert!(map.contains_key(0));
        // 0 was not hit again: the next sweep takes it.
        assert_eq!(map.insert(5, 5), Some(0));
        assert_eq!(held(&map), [3, 4, 5]);
    }

    #[test]
    fn when_every_entry_is_hot_the_oldest_goes_after_one_turn() {
        let mut map = ClockMap::new(2);
        map.insert(0, 0);
        map.insert(1, 1);
        map.get(0);
        map.get(1);
        assert_eq!(map.insert(2, 2), Some(0));
        assert!(map.contains_key(2));
    }

    #[test]
    fn replacing_a_held_key_evicts_nothing() {
        let mut map = ClockMap::new(2);
        map.insert(0, 0);
        map.insert(1, 1);
        assert_eq!(map.insert(1, 11), None);
        assert_eq!(map.peek(1), Some(&11));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn removal_keeps_the_hand_on_the_same_next_victim() {
        let mut map = ClockMap::new(4);
        for k in 0..4 {
            map.insert(k, k);
        }
        // Evicting 0 leaves the ring [4, 1, 2, 3] with the hand on 1.
        assert_eq!(map.insert(4, 4), Some(0));
        // Removing a key behind the hand keeps 1 next in line.
        assert_eq!(map.remove(4), Some(4));
        assert_eq!(map.remove(4), None);
        map.insert(5, 5);
        assert_eq!(map.insert(6, 6), Some(1));
        // Removing the key under the hand moves the hand to its successor.
        assert_eq!(held(&map), [2, 3, 5, 6]);
        assert_eq!(map.remove(2), Some(2));
        map.insert(7, 7);
        assert_eq!(map.insert(8, 8), Some(3));
    }
}
