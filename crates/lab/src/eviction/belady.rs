//! Belady's offline-optimal replacement (the MIN oracle).

use super::Policy;
use std::collections::{HashMap, HashSet, VecDeque};

/// Belady's MIN: evicts the resident key whose next use is farthest in the
/// future (or that is never used again). Requires the complete access trace
/// up front, so it serves as the *upper bound* all online policies in E4 are
/// compared against.
///
/// The caller must replay accesses in exactly trace order: each `on_access`
/// or `on_insert` consumes one trace position.
#[derive(Debug)]
pub struct Belady {
    /// Future positions per key, front = soonest.
    future: HashMap<u64, VecDeque<usize>>,
    resident: HashSet<u64>,
}

impl Belady {
    /// Build the oracle from the full access trace.
    pub fn new(trace: &[u64]) -> Belady {
        let mut future: HashMap<u64, VecDeque<usize>> = HashMap::new();
        for (i, &k) in trace.iter().enumerate() {
            future.entry(k).or_default().push_back(i);
        }
        Belady {
            future,
            resident: HashSet::new(),
        }
    }

    fn consume(&mut self, key: u64) {
        if let Some(q) = self.future.get_mut(&key) {
            q.pop_front();
            if q.is_empty() {
                self.future.remove(&key);
            }
        }
    }

    /// Next-use distance for a resident key: `None` means never used again.
    fn next_use(&self, key: u64) -> Option<usize> {
        self.future.get(&key).and_then(|q| q.front().copied())
    }
}

impl Policy for Belady {
    fn name(&self) -> &'static str {
        "BELADY"
    }

    fn on_access(&mut self, key: u64) {
        self.consume(key);
    }

    fn on_insert(&mut self, key: u64) {
        self.consume(key);
        self.resident.insert(key);
    }

    fn evict(&mut self) -> Option<u64> {
        // Prefer keys never used again, then the farthest next use.
        let victim = self
            .resident
            .iter()
            .max_by_key(|&&k| match self.next_use(k) {
                None => (1u8, usize::MAX, k),
                Some(pos) => (0, pos, k),
            })
            .copied()?;
        self.resident.remove(&victim);
        Some(victim)
    }

    fn on_remove(&mut self, key: u64) {
        self.resident.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_farthest_future_use() {
        // Trace: A B C A B ... with capacity 2, after inserting A(0), B(1),
        // C(2) must evict the key used farthest ahead.
        let trace = [1u64, 2, 3, 1, 2];
        let mut p = Belady::new(&trace);
        p.on_insert(1); // consumes pos 0; next use of 1 = pos 3
        p.on_insert(2); // consumes pos 1; next use of 2 = pos 4
                        // Need room for 3: optimal evicts 2 (used at 4) — farther than 1 (at 3).
        assert_eq!(p.evict(), Some(2));
    }

    #[test]
    fn prefers_never_used_again() {
        let trace = [1u64, 2, 3, 1];
        let mut p = Belady::new(&trace);
        p.on_insert(1);
        p.on_insert(2); // 2 never appears again
        assert_eq!(p.evict(), Some(2));
    }

    #[test]
    fn belady_beats_lru_on_looping_trace() {
        // The classic case: a cyclic scan of N+1 keys through an N-slot cache
        // gives LRU a 0% hit rate while MIN achieves (N-1)/N per cycle.
        use crate::cache::CacheSim;
        use crate::eviction::PolicyKind;

        let mut trace = Vec::new();
        for _ in 0..50 {
            for k in 0..5u64 {
                trace.push(k);
            }
        }
        let mut lru = CacheSim::new(4, PolicyKind::Lru.build(4, None));
        let mut min = CacheSim::new(4, PolicyKind::Belady.build(4, Some(&trace)));
        for &k in &trace {
            lru.access(k);
            min.access(k);
        }
        assert_eq!(
            lru.stats().hits,
            0,
            "LRU thrashes on a loop one larger than the cache"
        );
        assert!(
            min.stats().hit_rate() > 0.5,
            "MIN should retain most of the loop: {:?}",
            min.stats()
        );
    }
}
