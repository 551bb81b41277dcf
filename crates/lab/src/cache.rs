//! A policy-driven cache simulator.
//!
//! [`CacheSim`] owns residency and delegates victim selection to a
//! [`Policy`]. It is the engine behind experiment E4 (eviction policies on
//! LLM KV-cache traces) and the unit-test harness for the policies
//! themselves.

use crate::eviction::Policy;
use backbone_storage::metrics::{CacheCounters, Metrics};
use std::collections::HashSet;

/// Hit/miss statistics for a simulated cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the key resident.
    pub hits: u64,
    /// Accesses that did not.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits / total accesses (0.0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A fixed-capacity cache simulator over opaque `u64` keys.
pub struct CacheSim {
    capacity: usize,
    resident: HashSet<u64>,
    policy: Box<dyn Policy>,
    stats: CacheStats,
    counters: Option<CacheCounters>,
}

impl CacheSim {
    /// A cache holding at most `capacity` keys (capacity >= 1).
    pub fn new(capacity: usize, policy: Box<dyn Policy>) -> CacheSim {
        assert!(capacity >= 1, "cache capacity must be positive");
        CacheSim {
            capacity,
            resident: HashSet::with_capacity(capacity),
            policy,
            stats: CacheStats::default(),
            counters: None,
        }
    }

    /// Mirror this cache's hits/misses/evictions into `{scope}.*` counters
    /// of a shared registry (in addition to the local [`CacheStats`]).
    pub fn with_metrics(mut self, metrics: &Metrics, scope: &str) -> CacheSim {
        self.counters = Some(CacheCounters::resolve(metrics, scope));
        self
    }

    /// Access `key`; returns whether it was a hit. On a miss the key is
    /// admitted, evicting if full.
    pub fn access(&mut self, key: u64) -> bool {
        if self.resident.contains(&key) {
            self.stats.hits += 1;
            if let Some(c) = &self.counters {
                c.hit();
            }
            self.policy.on_access(key);
            return true;
        }
        self.stats.misses += 1;
        if let Some(c) = &self.counters {
            c.miss();
        }
        if self.resident.len() >= self.capacity {
            let victim = self
                .policy
                .evict()
                .expect("a full cache always yields a victim");
            self.resident.remove(&victim);
            self.stats.evictions += 1;
            if let Some(c) = &self.counters {
                c.evict();
            }
        }
        self.resident.insert(key);
        self.policy.on_insert(key);
        false
    }

    /// Replay a whole trace, returning final stats.
    pub fn run(&mut self, trace: &[u64]) -> CacheStats {
        for &k in trace {
            self.access(k);
        }
        self.stats
    }

    /// Whether `key` is currently resident.
    pub fn contains(&self, key: u64) -> bool {
        self.resident.contains(&key)
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// The cache's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::PolicyKind;

    #[test]
    fn capacity_never_exceeded() {
        for kind in PolicyKind::online() {
            let mut sim = CacheSim::new(3, kind.build(3, None));
            for k in 0..100u64 {
                sim.access(k % 10);
                assert!(sim.len() <= 3, "policy {} overflowed", sim.policy_name());
            }
        }
    }

    #[test]
    fn repeated_key_always_hits_after_first() {
        let mut sim = CacheSim::new(2, PolicyKind::Lru.build(2, None));
        assert!(!sim.access(7));
        for _ in 0..5 {
            assert!(sim.access(7));
        }
        let s = sim.stats();
        assert_eq!(s.hits, 5);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn working_set_within_capacity_has_no_evictions() {
        let mut sim = CacheSim::new(4, PolicyKind::TwoQ.build(4, None));
        let trace: Vec<u64> = (0..400).map(|i| i % 4).collect();
        let s = sim.run(&trace);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 396);
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn registry_mirror_matches_local_stats() {
        let metrics = Metrics::new();
        let mut sim =
            CacheSim::new(2, PolicyKind::Lru.build(2, None)).with_metrics(&metrics, "kvcache");
        let trace: Vec<u64> = (0..50).map(|i| i % 5).collect();
        let s = sim.run(&trace);
        assert_eq!(metrics.value("kvcache.hits"), s.hits);
        assert_eq!(metrics.value("kvcache.misses"), s.misses);
        assert_eq!(metrics.value("kvcache.evictions"), s.evictions);
        assert_eq!(metrics.value("kvcache.lookups"), s.hits + s.misses);
    }

    #[test]
    fn belady_dominates_online_policies() {
        // On a skewed random trace MIN must be >= every online policy.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        // Zipf-ish: small keys much more likely.
        let trace: Vec<u64> = (0..5000)
            .map(|_| {
                let r: f64 = rng.gen();
                (r * r * r * 50.0) as u64
            })
            .collect();
        let cap = 8;
        let min_rate = CacheSim::new(cap, PolicyKind::Belady.build(cap, Some(&trace)))
            .run(&trace)
            .hit_rate();
        for kind in PolicyKind::online() {
            let rate = CacheSim::new(cap, kind.build(cap, None))
                .run(&trace)
                .hit_rate();
            assert!(
                min_rate >= rate - 1e-9,
                "{} ({rate:.4}) beat Belady ({min_rate:.4})",
                kind.name()
            );
        }
    }
}
