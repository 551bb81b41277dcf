//! Simplified 2Q replacement (Johnson & Shasha, VLDB '94).

use super::Policy;
use std::collections::{HashMap, HashSet, VecDeque};

/// Simplified 2Q: a probationary FIFO (`A1in`) absorbs first-time accesses; a
/// re-access — including one recorded in the `A1out` ghost list of recently
/// evicted probationers — promotes the key to the protected LRU (`Am`).
///
/// Like LRU-K this is scan-resistant: one-shot scans churn only the
/// probationary quarter of the cache.
#[derive(Debug)]
pub struct TwoQ {
    /// Target size for the probationary queue (¼ of capacity, >= 1).
    a1in_target: usize,
    /// Ghost-list capacity (½ of capacity, >= 1).
    a1out_cap: usize,
    a1in: VecDeque<u64>,
    a1in_set: HashSet<u64>,
    /// Protected LRU, most recent at back.
    am: VecDeque<u64>,
    am_set: HashSet<u64>,
    /// Ghost list of keys recently evicted from A1in (metadata only).
    a1out: VecDeque<u64>,
    a1out_set: HashSet<u64>,
    /// Promotion hints for currently-resident probationary keys.
    promote: HashMap<u64, bool>,
}

impl TwoQ {
    /// A 2Q policy tuned for a cache of `capacity` entries.
    pub fn new(capacity: usize) -> TwoQ {
        TwoQ {
            a1in_target: (capacity / 4).max(1),
            a1out_cap: (capacity / 2).max(1),
            a1in: VecDeque::new(),
            a1in_set: HashSet::new(),
            am: VecDeque::new(),
            am_set: HashSet::new(),
            a1out: VecDeque::new(),
            a1out_set: HashSet::new(),
            promote: HashMap::new(),
        }
    }

    fn touch_am(&mut self, key: u64) {
        if let Some(pos) = self.am.iter().position(|&k| k == key) {
            self.am.remove(pos);
        }
        self.am.push_back(key);
        self.am_set.insert(key);
    }

    fn ghost_insert(&mut self, key: u64) {
        self.a1out.push_back(key);
        self.a1out_set.insert(key);
        while self.a1out.len() > self.a1out_cap {
            if let Some(old) = self.a1out.pop_front() {
                self.a1out_set.remove(&old);
            }
        }
    }
}

impl Policy for TwoQ {
    fn name(&self) -> &'static str {
        "2Q"
    }

    fn on_access(&mut self, key: u64) {
        if self.am_set.contains(&key) {
            self.touch_am(key);
        } else if self.a1in_set.contains(&key) {
            // Re-accessed while probationary: promote to Am now.
            if let Some(pos) = self.a1in.iter().position(|&k| k == key) {
                self.a1in.remove(pos);
            }
            self.a1in_set.remove(&key);
            self.touch_am(key);
        }
        self.promote.remove(&key);
    }

    fn on_insert(&mut self, key: u64) {
        if self.a1out_set.contains(&key) {
            // Was a ghost: it has proven reuse, go straight to Am.
            if let Some(pos) = self.a1out.iter().position(|&k| k == key) {
                self.a1out.remove(pos);
            }
            self.a1out_set.remove(&key);
            self.touch_am(key);
        } else {
            self.a1in.push_back(key);
            self.a1in_set.insert(key);
        }
    }

    fn evict(&mut self) -> Option<u64> {
        // Prefer probationers when A1in exceeds its share (or Am is empty);
        // otherwise take Am's LRU end (the front).
        if self.a1in.len() > self.a1in_target || self.am.is_empty() {
            let key = self.a1in.pop_front()?;
            self.a1in_set.remove(&key);
            self.ghost_insert(key);
            return Some(key);
        }
        let key = self.am.pop_front()?;
        self.am_set.remove(&key);
        Some(key)
    }

    fn on_remove(&mut self, key: u64) {
        if self.a1in_set.remove(&key) {
            if let Some(pos) = self.a1in.iter().position(|&k| k == key) {
                self.a1in.remove(pos);
            }
        }
        if self.am_set.remove(&key) {
            if let Some(pos) = self.am.iter().position(|&k| k == key) {
                self.am.remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_scans_stay_probationary() {
        let mut p = TwoQ::new(8); // a1in_target = 2
                                  // Hot key accessed twice -> Am.
        p.on_insert(100);
        p.on_access(100);
        // Scan of one-shot keys.
        for k in 1..=4 {
            p.on_insert(k);
        }
        // A1in (len 4) exceeds target 2: scan keys evicted before the hot key.
        assert_eq!(p.evict(), Some(1));
        assert_eq!(p.evict(), Some(2));
    }

    #[test]
    fn ghost_readmission_promotes() {
        let mut p = TwoQ::new(4); // a1in_target 1, ghost cap 2
        p.on_insert(1);
        p.on_insert(2); // a1in over target
        assert_eq!(p.evict(), Some(1)); // 1 goes to ghost list
                                        // Re-insert 1: ghost hit -> protected Am.
        p.on_insert(1);
        p.on_insert(3);
        p.on_insert(4);
        // A1in = [2,3,4] is over its target: probationers drain first.
        assert_eq!(p.evict(), Some(2));
        assert_eq!(p.evict(), Some(3));
        // A1in = [4] is now within target; simplified 2Q then takes Am's LRU
        // end, so the protected key goes before the remaining probationer.
        assert_eq!(p.evict(), Some(1));
        assert_eq!(p.evict(), Some(4));
    }

    #[test]
    fn am_is_lru_ordered() {
        let mut p = TwoQ::new(4);
        p.on_insert(1);
        p.on_access(1); // promote
        p.on_insert(2);
        p.on_access(2); // promote
        p.on_access(1); // 1 most recent in Am
        assert_eq!(p.evict(), Some(2));
        assert_eq!(p.evict(), Some(1));
    }
}
