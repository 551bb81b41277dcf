//! Least-frequently-used replacement with LRU tie-breaking.

use super::Policy;
use std::collections::{BTreeSet, HashMap};

/// LFU: evicts the key with the fewest accesses; ties broken by recency
/// (older last-access evicted first).
#[derive(Debug, Default)]
pub struct Lfu {
    clock: u64,
    /// (count, last_access, key) ordered set for O(log n) victim selection.
    ordered: BTreeSet<(u64, u64, u64)>,
    state: HashMap<u64, (u64, u64)>,
}

impl Lfu {
    /// An empty LFU policy.
    pub fn new() -> Lfu {
        Lfu::default()
    }

    fn bump(&mut self, key: u64) {
        self.clock += 1;
        let (count, last) = self.state.get(&key).copied().unwrap_or((0, 0));
        if count > 0 {
            self.ordered.remove(&(count, last, key));
        }
        let new = (count + 1, self.clock);
        self.state.insert(key, new);
        self.ordered.insert((new.0, new.1, key));
    }
}

impl Policy for Lfu {
    fn name(&self) -> &'static str {
        "LFU"
    }

    fn on_access(&mut self, key: u64) {
        self.bump(key);
    }

    fn on_insert(&mut self, key: u64) {
        self.bump(key);
    }

    fn evict(&mut self) -> Option<u64> {
        let (_, _, key) = self.ordered.pop_first()?;
        self.state.remove(&key);
        Some(key)
    }

    fn on_remove(&mut self, key: u64) {
        if let Some((count, last)) = self.state.remove(&key) {
            self.ordered.remove(&(count, last, key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut p = Lfu::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(1);
        p.on_access(1);
        p.on_access(2);
        p.on_insert(3); // count 1
        assert_eq!(p.evict(), Some(3));
        assert_eq!(p.evict(), Some(2));
        assert_eq!(p.evict(), Some(1));
    }

    #[test]
    fn lru_tiebreak() {
        let mut p = Lfu::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(1);
        p.on_access(2); // equal counts; 1's last access older
        assert_eq!(p.evict(), Some(1));
    }

    #[test]
    fn frequency_survives_recency() {
        // A hot-then-idle key outlives a fresh one-hit key.
        let mut p = Lfu::new();
        p.on_insert(1);
        for _ in 0..5 {
            p.on_access(1);
        }
        p.on_insert(2);
        assert_eq!(p.evict(), Some(2));
    }
}
