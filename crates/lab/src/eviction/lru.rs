//! Least-recently-used replacement.

use super::Policy;
use std::collections::{BTreeMap, HashMap};

/// LRU: evicts the key whose last access is oldest.
///
/// Recency is tracked with a logical clock; `BTreeMap<time, key>` gives
/// O(log n) victim selection.
#[derive(Debug, Default)]
pub struct Lru {
    clock: u64,
    by_time: BTreeMap<u64, u64>,
    time_of: HashMap<u64, u64>,
}

impl Lru {
    /// An empty LRU policy.
    pub fn new() -> Lru {
        Lru::default()
    }

    fn touch(&mut self, key: u64) {
        if let Some(old) = self.time_of.get(&key).copied() {
            self.by_time.remove(&old);
        }
        self.clock += 1;
        self.by_time.insert(self.clock, key);
        self.time_of.insert(key, self.clock);
    }
}

impl Policy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_access(&mut self, key: u64) {
        self.touch(key);
    }

    fn on_insert(&mut self, key: u64) {
        self.touch(key);
    }

    fn evict(&mut self) -> Option<u64> {
        let (_, key) = self.by_time.pop_first()?;
        self.time_of.remove(&key);
        Some(key)
    }

    fn on_remove(&mut self, key: u64) {
        if let Some(t) = self.time_of.remove(&key) {
            self.by_time.remove(&t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recent() {
        let mut p = Lru::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_insert(3);
        p.on_access(1); // 1 is now most recent
        assert_eq!(p.evict(), Some(2));
        assert_eq!(p.evict(), Some(3));
        assert_eq!(p.evict(), Some(1));
    }

    #[test]
    fn repeated_access_keeps_key_hot() {
        let mut p = Lru::new();
        for k in 0..5 {
            p.on_insert(k);
        }
        for _ in 0..10 {
            p.on_access(0);
        }
        for expected in [1, 2, 3, 4] {
            assert_eq!(p.evict(), Some(expected));
        }
        assert_eq!(p.evict(), Some(0));
    }
}
