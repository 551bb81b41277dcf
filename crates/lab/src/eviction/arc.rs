//! ARC: adaptive replacement cache (Megiddo & Modha, FAST '03).

use super::Policy;
use std::collections::{HashSet, VecDeque};

/// ARC balances a recency list (`T1`) against a frequency list (`T2`),
/// steering the split `p` with ghost hits: a hit in ghost `B1` (recently
/// evicted recency entries) grows the recency side, a hit in `B2` grows the
/// frequency side. Unlike 2Q's fixed quarters, ARC adapts to the workload —
/// the property E4 measures on mixed LLM/DB traces.
#[derive(Debug)]
pub struct Arc {
    capacity: usize,
    /// Adaptive target size for T1.
    p: usize,
    t1: VecDeque<u64>,
    t1_set: HashSet<u64>,
    t2: VecDeque<u64>,
    t2_set: HashSet<u64>,
    b1: VecDeque<u64>,
    b1_set: HashSet<u64>,
    b2: VecDeque<u64>,
    b2_set: HashSet<u64>,
}

fn remove_from(q: &mut VecDeque<u64>, set: &mut HashSet<u64>, key: u64) -> bool {
    if set.remove(&key) {
        if let Some(pos) = q.iter().position(|&k| k == key) {
            q.remove(pos);
        }
        true
    } else {
        false
    }
}

impl Arc {
    /// An ARC policy for a cache of `capacity` entries.
    pub fn new(capacity: usize) -> Arc {
        Arc {
            capacity: capacity.max(1),
            p: 0,
            t1: VecDeque::new(),
            t1_set: HashSet::new(),
            t2: VecDeque::new(),
            t2_set: HashSet::new(),
            b1: VecDeque::new(),
            b1_set: HashSet::new(),
            b2: VecDeque::new(),
            b2_set: HashSet::new(),
        }
    }

    fn push_t2(&mut self, key: u64) {
        self.t2.push_back(key);
        self.t2_set.insert(key);
    }

    fn trim_ghosts(&mut self) {
        while self.t1.len() + self.b1.len() > self.capacity {
            if let Some(old) = self.b1.pop_front() {
                self.b1_set.remove(&old);
            } else {
                break;
            }
        }
        let total = self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len();
        if total > 2 * self.capacity {
            let excess = total - 2 * self.capacity;
            for _ in 0..excess {
                if let Some(old) = self.b2.pop_front() {
                    self.b2_set.remove(&old);
                } else {
                    break;
                }
            }
        }
    }
}

impl Policy for Arc {
    fn name(&self) -> &'static str {
        "ARC"
    }

    fn on_access(&mut self, key: u64) {
        // Promotion: a T1 hit moves to T2's MRU end; a T2 hit refreshes its
        // MRU position. Either way the key ends at T2's back.
        let was_resident = remove_from(&mut self.t1, &mut self.t1_set, key)
            || remove_from(&mut self.t2, &mut self.t2_set, key);
        if was_resident {
            self.push_t2(key);
        }
    }

    fn on_insert(&mut self, key: u64) {
        if remove_from(&mut self.b1, &mut self.b1_set, key) {
            // Recency ghost hit: favour recency.
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(self.capacity);
            self.push_t2(key);
        } else if remove_from(&mut self.b2, &mut self.b2_set, key) {
            // Frequency ghost hit: favour frequency.
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            self.push_t2(key);
        } else {
            self.t1.push_back(key);
            self.t1_set.insert(key);
        }
        self.trim_ghosts();
    }

    fn evict(&mut self) -> Option<u64> {
        // REPLACE: evict T1's LRU end into ghost B1 when T1 exceeds the
        // adaptive target (or T2 is empty), else T2's into B2.
        let prefer_t1 = self.t1.len() > self.p.max(1) || self.t2.is_empty();
        let victim = if prefer_t1 && !self.t1.is_empty() {
            let key = self.t1.pop_front()?;
            self.t1_set.remove(&key);
            self.b1.push_back(key);
            self.b1_set.insert(key);
            key
        } else {
            let key = self.t2.pop_front()?;
            self.t2_set.remove(&key);
            self.b2.push_back(key);
            self.b2_set.insert(key);
            key
        };
        self.trim_ghosts();
        Some(victim)
    }

    fn on_remove(&mut self, key: u64) {
        let _ = remove_from(&mut self.t1, &mut self.t1_set, key)
            || remove_from(&mut self.t2, &mut self.t2_set, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_goes_to_recency_side() {
        let mut p = Arc::new(4);
        p.on_insert(1);
        p.on_insert(2);
        assert_eq!(p.t1.len(), 2);
        assert!(p.t2.is_empty());
    }

    #[test]
    fn reuse_promotes_to_frequency_side() {
        let mut p = Arc::new(4);
        p.on_insert(1);
        p.on_access(1);
        assert!(p.t1.is_empty());
        assert_eq!(p.t2.len(), 1);
    }

    #[test]
    fn ghost_hit_adapts_target() {
        let mut p = Arc::new(2);
        p.on_insert(1);
        p.on_insert(2);
        let v = p.evict().unwrap(); // 1 -> B1
        assert_eq!(v, 1);
        assert!(p.b1_set.contains(&1));
        let before = p.p;
        p.on_insert(1); // B1 ghost hit: p grows
        assert!(p.p > before);
        assert!(p.t2_set.contains(&1));
    }

    #[test]
    fn scan_resistance_via_frequency_list() {
        // A reused key in T2 must survive a one-shot scan through T1.
        let mut p = Arc::new(4);
        p.on_insert(100);
        p.on_access(100); // -> T2
        for k in 1..=4 {
            p.on_insert(k);
        }
        // Evict twice: scan pages in T1 (over target) go first.
        let a = p.evict().unwrap();
        let b = p.evict().unwrap();
        assert!(a != 100 && b != 100, "ARC evicted the hot key");
    }

    #[test]
    fn ghost_lists_are_bounded() {
        let mut p = Arc::new(4);
        for k in 0..200u64 {
            p.on_insert(k);
            if k >= 4 {
                p.evict();
            }
        }
        assert!(p.b1.len() + p.b2.len() <= 2 * 4);
        assert!(p.t1.len() + p.b1.len() <= 4 + 1);
    }
}
