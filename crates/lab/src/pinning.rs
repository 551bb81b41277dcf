//! Prefix-aware pinning: domain knowledge on top of generic policies.
//!
//! A serving system *knows* which KV blocks belong to shared system-prompt
//! prefixes (they are content-addressed). Pinning them — classic buffer-pool
//! practice for index roots — lets any generic replacement policy manage
//! only the per-session tail. This is the "smarter admission" headroom the
//! Belady gap in E4 points at.

use crate::eviction::{Policy, PolicyKind};
use std::collections::HashSet;

/// Wraps a policy so that a fixed set of keys is never evicted.
///
/// The pin set must be smaller than the cache capacity, otherwise eviction
/// could become impossible; [`PinnedPolicy::new`] enforces this.
pub struct PinnedPolicy {
    inner: Box<dyn Policy>,
    pinned: HashSet<u64>,
}

impl PinnedPolicy {
    /// Wrap `inner`, never evicting keys in `pinned`. Panics if the pin set
    /// would fill the whole cache.
    pub fn new(inner: Box<dyn Policy>, pinned: HashSet<u64>, capacity: usize) -> PinnedPolicy {
        assert!(
            pinned.len() < capacity,
            "pin set ({}) must be smaller than capacity ({capacity})",
            pinned.len()
        );
        PinnedPolicy { inner, pinned }
    }

    /// Convenience: a pinned variant of a [`PolicyKind`].
    pub fn of_kind(kind: PolicyKind, pinned: HashSet<u64>, capacity: usize) -> PinnedPolicy {
        PinnedPolicy::new(kind.build(capacity, None), pinned, capacity)
    }
}

impl Policy for PinnedPolicy {
    fn name(&self) -> &'static str {
        // Names must be 'static; the experiment harness labels pinned runs.
        "PINNED"
    }

    fn on_access(&mut self, key: u64) {
        if !self.pinned.contains(&key) {
            self.inner.on_access(key);
        }
    }

    fn on_insert(&mut self, key: u64) {
        if !self.pinned.contains(&key) {
            self.inner.on_insert(key);
        }
    }

    fn evict(&mut self) -> Option<u64> {
        // The inner policy never learned about pinned keys, so it can only
        // return unpinned victims.
        self.inner.evict()
    }

    fn on_remove(&mut self, key: u64) {
        if !self.pinned.contains(&key) {
            self.inner.on_remove(key);
        }
    }
}

/// The `n` most frequently accessed keys of a trace — the pin-set heuristic
/// a profile-guided server would use.
pub fn hottest_keys(trace: &[u64], n: usize) -> HashSet<u64> {
    let mut freq: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for &k in trace {
        *freq.entry(k).or_insert(0) += 1;
    }
    let mut by_freq: Vec<(u64, usize)> = freq.into_iter().collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    by_freq.into_iter().take(n).map(|(k, _)| k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSim;
    use crate::sim::CostModel;
    use crate::trace::{generate_llm_trace, LlmTraceConfig};

    #[test]
    fn pinned_keys_are_never_evicted() {
        let pinned: HashSet<u64> = [1, 2].into_iter().collect();
        let policy = PinnedPolicy::of_kind(PolicyKind::Lru, pinned, 4);
        let mut sim = CacheSim::new(4, Box::new(policy));
        sim.access(1);
        sim.access(2);
        for k in 10..200 {
            sim.access(k);
        }
        assert!(sim.contains(1), "pinned key 1 evicted");
        assert!(sim.contains(2), "pinned key 2 evicted");
    }

    #[test]
    fn hottest_keys_finds_the_head() {
        let trace = vec![5, 5, 5, 7, 7, 9];
        let hot = hottest_keys(&trace, 2);
        assert!(hot.contains(&5) && hot.contains(&7));
    }

    #[test]
    fn pinning_prefixes_beats_plain_lru_on_llm_trace() {
        let config = LlmTraceConfig {
            sessions: 32,
            templates: 4,
            shared_prefix_blocks: 16,
            ..Default::default()
        };
        let trace = generate_llm_trace(&config);
        let capacity = 96;
        let cost = CostModel::default();

        let plain = {
            let mut sim = CacheSim::new(capacity, PolicyKind::Lru.build(capacity, None));
            let s = sim.run(&trace.accesses);
            cost.total(s.hits, s.misses)
        };
        // Pin the hottest blocks (= the shared template prefixes).
        let pin = hottest_keys(&trace.accesses, 48);
        let pinned = {
            let policy = PinnedPolicy::of_kind(PolicyKind::Lru, pin, capacity);
            let mut sim = CacheSim::new(capacity, Box::new(policy));
            let s = sim.run(&trace.accesses);
            cost.total(s.hits, s.misses)
        };
        assert!(
            pinned < plain,
            "prefix pinning should cut cost: pinned {pinned} vs plain {plain}"
        );
    }

    #[test]
    #[should_panic]
    fn pin_set_must_fit() {
        let pinned: HashSet<u64> = (0..4).collect();
        PinnedPolicy::of_kind(PolicyKind::Lru, pinned, 4);
    }
}
