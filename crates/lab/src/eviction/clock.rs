//! Second-chance CLOCK replacement.

use super::Policy;
use std::collections::HashMap;

/// CLOCK: an LRU approximation with O(1) access cost.
///
/// Resident keys sit on a circular list with a reference bit. The hand
/// sweeps, clearing set bits and evicting the first key found with a clear
/// bit.
#[derive(Debug, Default)]
pub struct Clock {
    /// Circular buffer of slots; `None` marks holes left by removals.
    ring: Vec<Option<(u64, bool)>>,
    slot_of: HashMap<u64, usize>,
    hand: usize,
    live: usize,
}

impl Clock {
    /// An empty CLOCK policy.
    pub fn new() -> Clock {
        Clock::default()
    }
}

impl Policy for Clock {
    fn name(&self) -> &'static str {
        "CLOCK"
    }

    fn on_access(&mut self, key: u64) {
        if let Some(&slot) = self.slot_of.get(&key) {
            if let Some(entry) = self.ring[slot].as_mut() {
                entry.1 = true;
            }
        }
    }

    fn on_insert(&mut self, key: u64) {
        // Reuse a hole if one exists, else grow the ring.
        if let Some(hole) = self.ring.iter().position(|e| e.is_none()) {
            self.ring[hole] = Some((key, false));
            self.slot_of.insert(key, hole);
        } else {
            self.slot_of.insert(key, self.ring.len());
            self.ring.push(Some((key, false)));
        }
        self.live += 1;
    }

    fn evict(&mut self) -> Option<u64> {
        if self.live == 0 {
            return None;
        }
        // The first pass clears every set bit it passes, so the hand finds a
        // clear bit within two passes.
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.ring.len();
            match self.ring[slot] {
                Some((key, true)) => self.ring[slot] = Some((key, false)),
                Some((key, false)) => {
                    self.ring[slot] = None;
                    self.slot_of.remove(&key);
                    self.live -= 1;
                    return Some(key);
                }
                None => {}
            }
        }
    }

    fn on_remove(&mut self, key: u64) {
        if let Some(slot) = self.slot_of.remove(&key) {
            self.ring[slot] = None;
            self.live -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_chance_given_to_referenced() {
        let mut p = Clock::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(1); // 1 gets its reference bit set
                        // Hand starts at 1: bit set -> cleared, move on; 2: bit clear -> victim.
        assert_eq!(p.evict(), Some(2));
        // Now 1's bit was cleared during the sweep.
        assert_eq!(p.evict(), Some(1));
    }

    #[test]
    fn empty_ring() {
        let mut p = Clock::new();
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn holes_are_reused() {
        let mut p = Clock::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_remove(1);
        p.on_insert(3);
        assert_eq!(p.ring.len(), 2, "hole should be reused, ring must not grow");
        let mut victims = vec![p.evict().unwrap(), p.evict().unwrap()];
        victims.sort_unstable();
        assert_eq!(victims, vec![2, 3]);
    }
}
