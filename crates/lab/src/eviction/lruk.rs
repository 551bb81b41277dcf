//! LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD '93).

use super::Policy;
use std::collections::{HashMap, VecDeque};

/// LRU-K: evicts the key with the oldest K-th most recent access.
///
/// Keys with fewer than K recorded accesses have no K-distance and are
/// preferred victims (classic behaviour: one-shot scans get evicted before
/// repeatedly-used pages — the property that makes LRU-K scan-resistant,
/// which E4 measures on scan-polluted KV-cache mixes).
#[derive(Debug)]
pub struct LruK {
    k: usize,
    clock: u64,
    /// Last K access times per resident key, newest at the back.
    history: HashMap<u64, VecDeque<u64>>,
}

impl LruK {
    /// A new LRU-K policy with history depth `k` (k >= 1).
    pub fn new(k: usize) -> LruK {
        assert!(k >= 1, "LRU-K requires k >= 1");
        LruK {
            k,
            clock: 0,
            history: HashMap::new(),
        }
    }

    fn record(&mut self, key: u64) {
        self.clock += 1;
        let h = self.history.entry(key).or_default();
        h.push_back(self.clock);
        while h.len() > self.k {
            h.pop_front();
        }
    }

    /// The eviction priority: keys lacking K accesses sort first (priority
    /// (0, first-access)), then by K-distance (oldest K-th access first).
    fn priority(&self, times: &VecDeque<u64>) -> (u8, u64) {
        if times.len() < self.k {
            (0, *times.front().unwrap_or(&0))
        } else {
            (1, *times.front().unwrap())
        }
    }
}

impl Policy for LruK {
    fn name(&self) -> &'static str {
        "LRU-K"
    }

    fn on_access(&mut self, key: u64) {
        self.record(key);
    }

    fn on_insert(&mut self, key: u64) {
        self.record(key);
    }

    fn evict(&mut self) -> Option<u64> {
        let victim = self
            .history
            .iter()
            .min_by_key(|(&k, times)| (self.priority(times), k))
            .map(|(&k, _)| k)?;
        self.history.remove(&victim);
        Some(victim)
    }

    fn on_remove(&mut self, key: u64) {
        self.history.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_resistance() {
        // Key 1 accessed twice (has K=2 history); keys 2,3 scanned once.
        let mut p = LruK::new(2);
        p.on_insert(1);
        p.on_access(1);
        p.on_insert(2);
        p.on_insert(3);
        // Despite 2 and 3 being more recent, they lack K accesses: evicted first.
        assert_eq!(p.evict(), Some(2));
        assert_eq!(p.evict(), Some(3));
        assert_eq!(p.evict(), Some(1));
    }

    #[test]
    fn k_distance_ordering() {
        let mut p = LruK::new(2);
        // Both keys get 2 accesses; key 1's 2nd-most-recent is older.
        p.on_insert(1); // t=1
        p.on_insert(2); // t=2
        p.on_access(1); // t=3 -> key1 history [1,3]
        p.on_access(2); // t=4 -> key2 history [2,4]
                        // K-th most recent: key1 -> 1, key2 -> 2. Evict key1.
        assert_eq!(p.evict(), Some(1));
    }

    #[test]
    fn k1_degenerates_to_lru() {
        let mut p = LruK::new(1);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(1);
        assert_eq!(p.evict(), Some(2));
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        LruK::new(0);
    }
}
