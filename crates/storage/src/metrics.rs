//! A zero-dependency metrics registry.
//!
//! [`Metrics`] is a clone-shareable registry of named [`Counter`]s (plain
//! `u64` atomics). It lives in the storage crate — the bottom of the
//! workspace dependency DAG — so the buffer pool, the cache simulator, the
//! query executor, and the `Database` facade can all record into **one**
//! registry; `backbone_query` and `backbone_core` re-export it.
//!
//! Counters are cheap (one relaxed atomic add) and the registry lookup is
//! done once, at wiring time: components resolve their counters up front and
//! hold [`Counter`] handles, so the hot path never touches the name map.
//!
//! Durations are recorded as nanosecond counters via [`Counter::add_elapsed`]
//! so timers need no extra machinery.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A named monotonic counter handle. Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter starting at zero, detached from any registry.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add the nanoseconds elapsed since `start`.
    pub fn add_elapsed(&self, start: Instant) {
        self.add(start.elapsed().as_nanos() as u64);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Replace the value with `n` in one store — how a gauge riding on a
    /// counter publishes, so a concurrent reader sees the old value or the
    /// new one, never a zero in between.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
}

/// A shareable registry of named counters.
///
/// Names are dot-separated paths by convention (`bufferpool.hits`,
/// `op.hash_join.rows_out`, `hybrid.vector_ns`). `clone()` is shallow: all
/// clones observe the same counters, which is how one registry spans the
/// storage, query, and facade layers.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<RwLock<BTreeMap<String, Counter>>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The counter named `name`, created at zero on first use. The returned
    /// handle stays valid (and shared) for the registry's lifetime; resolve
    /// once and keep the handle rather than calling this on a hot path.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.read().get(name) {
            return c.clone();
        }
        self.inner
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Current value of `name` (zero when absent).
    pub fn value(&self, name: &str) -> u64 {
        self.inner.read().get(name).map(Counter::get).unwrap_or(0)
    }

    /// A point-in-time copy of every counter, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Reset every counter to zero (handles stay valid).
    pub fn reset(&self) {
        for c in self.inner.read().values() {
            c.set(0);
        }
    }

    /// Render the non-zero counters as aligned `name value` lines.
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let width = snap
            .iter()
            .filter(|(_, v)| **v != 0)
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &snap {
            if *value != 0 {
                out.push_str(&format!("{name:<width$}  {value}\n"));
            }
        }
        out
    }
}

/// Counter handles for one cache-like component (buffer pool or simulated
/// cache), resolved once at wiring time.
#[derive(Debug, Clone)]
pub struct CacheCounters {
    /// Total lookups (hits + misses).
    pub lookups: Counter,
    /// Lookups served from memory.
    pub hits: Counter,
    /// Lookups that required fetching.
    pub misses: Counter,
    /// Entries evicted.
    pub evictions: Counter,
}

impl CacheCounters {
    /// Resolve `{scope}.lookups` / `.hits` / `.misses` / `.evictions`.
    pub fn resolve(metrics: &Metrics, scope: &str) -> CacheCounters {
        CacheCounters {
            lookups: metrics.counter(&format!("{scope}.lookups")),
            hits: metrics.counter(&format!("{scope}.hits")),
            misses: metrics.counter(&format!("{scope}.misses")),
            evictions: metrics.counter(&format!("{scope}.evictions")),
        }
    }

    /// Record a hit.
    pub fn hit(&self) {
        self.lookups.incr();
        self.hits.incr();
    }

    /// Record a miss.
    pub fn miss(&self) {
        self.lookups.incr();
        self.misses.incr();
    }

    /// Record an eviction.
    pub fn evict(&self) {
        self.evictions.incr();
    }

    /// Hits / lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones() {
        let m = Metrics::new();
        let a = m.counter("x.hits");
        let b = m.counter("x.hits");
        a.add(2);
        b.incr();
        assert_eq!(m.value("x.hits"), 3);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn registry_clones_are_shallow() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.counter("a").add(5);
        assert_eq!(m2.value("a"), 5);
        m2.reset();
        assert_eq!(m.value("a"), 0);
    }

    #[test]
    fn set_publishes_a_gauge_in_one_store() {
        let m = Metrics::new();
        let gauge = m.counter("g.bytes");
        gauge.add(7);
        gauge.set(3);
        assert_eq!(m.value("g.bytes"), 3);
        // A reader racing the republishing writer sees only published
        // values: never the zero a reset-then-add would expose.
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for n in 1..=20_000 {
                    gauge.set(n);
                }
                done.store(true, Ordering::SeqCst);
            });
            while !done.load(Ordering::SeqCst) {
                assert_ne!(m.value("g.bytes"), 0);
            }
        });
        assert_eq!(gauge.get(), 20_000);
    }

    #[test]
    fn snapshot_is_sorted_and_render_skips_zeros() {
        let m = Metrics::new();
        m.counter("b.second").add(2);
        m.counter("a.first").add(1);
        m.counter("c.zero");
        let keys: Vec<String> = m.snapshot().into_keys().collect();
        assert_eq!(keys, vec!["a.first", "b.second", "c.zero"]);
        let rendered = m.render();
        assert!(rendered.contains("a.first"));
        assert!(!rendered.contains("c.zero"));
    }

    #[test]
    fn cache_counters_maintain_lookup_invariant() {
        let m = Metrics::new();
        let c = CacheCounters::resolve(&m, "pool");
        for _ in 0..3 {
            c.hit();
        }
        c.miss();
        c.evict();
        assert_eq!(
            m.value("pool.lookups"),
            m.value("pool.hits") + m.value("pool.misses")
        );
        assert_eq!(m.value("pool.evictions"), 1);
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn elapsed_accumulates_nanos() {
        let c = Counter::new();
        let t = Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        c.add_elapsed(t);
        c.add_elapsed(t);
        assert!(c.get() > 0);
    }
}
