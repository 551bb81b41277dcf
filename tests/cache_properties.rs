//! Property tests for the replacement-policy family, the buffer pool's
//! counters, and the serving-path result cache's key.

use backbone_core::Database;
use backbone_lab::cache::CacheSim;
use backbone_lab::eviction::PolicyKind;
use backbone_query::{ExecOptions, Parallelism};
use backbone_storage::bufferpool::BufferPool;
use backbone_storage::disk::DiskManager;
use backbone_storage::page::PAGE_SIZE;
use backbone_storage::{DataType, Field, Metrics, Schema, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A pool of `capacity` frames over a fresh `pages`-page file. The file is
/// unlinked once open; the pool's handle keeps it readable.
fn file_pool(pages: usize, capacity: usize, metrics: &Metrics) -> Arc<BufferPool> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "backbone-cache-properties-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, vec![0u8; pages * PAGE_SIZE]).unwrap();
    let disk = Arc::new(DiskManager::open_file(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    BufferPool::with_metrics(disk, capacity, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No policy may ever exceed capacity or miscount hits+misses.
    #[test]
    fn capacity_and_accounting_invariants(
        trace in proptest::collection::vec(0u64..40, 1..400),
        capacity in 1usize..24,
    ) {
        for kind in PolicyKind::online() {
            let mut sim = CacheSim::new(capacity, kind.build(capacity, None));
            for &k in &trace {
                sim.access(k);
                prop_assert!(sim.len() <= capacity, "{} overflowed", kind.name());
            }
            let s = sim.stats();
            prop_assert_eq!(s.hits + s.misses, trace.len() as u64);
            // Evictions = misses - residents at the end.
            prop_assert_eq!(s.evictions, s.misses - sim.len() as u64);
        }
    }

    /// Belady's MIN is optimal: no online policy beats its hit count.
    #[test]
    fn belady_dominates(
        trace in proptest::collection::vec(0u64..30, 1..300),
        capacity in 1usize..16,
    ) {
        let min_hits = {
            let mut sim = CacheSim::new(capacity, PolicyKind::Belady.build(capacity, Some(&trace)));
            sim.run(&trace).hits
        };
        for kind in PolicyKind::online() {
            let mut sim = CacheSim::new(capacity, kind.build(capacity, None));
            let hits = sim.run(&trace).hits;
            prop_assert!(
                hits <= min_hits,
                "{} got {hits} hits > Belady's {min_hits}",
                kind.name()
            );
        }
    }

    /// LRU has the inclusion (stack) property: more capacity never hurts.
    #[test]
    fn lru_inclusion_property(
        trace in proptest::collection::vec(0u64..50, 1..300),
        small in 1usize..10,
        extra in 1usize..10,
    ) {
        let hits_small = CacheSim::new(small, PolicyKind::Lru.build(small, None)).run(&trace).hits;
        let big = small + extra;
        let hits_big = CacheSim::new(big, PolicyKind::Lru.build(big, None)).run(&trace).hits;
        prop_assert!(hits_big >= hits_small, "LRU lost hits with more capacity");
    }

    /// A trace whose working set fits sees only cold misses, any policy.
    #[test]
    fn fitting_working_set_never_evicts(
        keys in 1u64..12,
        rounds in 1usize..30,
    ) {
        let trace: Vec<u64> = (0..rounds).flat_map(|_| 0..keys).collect();
        for kind in PolicyKind::online() {
            let capacity = keys as usize;
            let mut sim = CacheSim::new(capacity, kind.build(capacity, None));
            let s = sim.run(&trace);
            prop_assert_eq!(s.evictions, 0, "{} evicted needlessly", kind.name());
            prop_assert_eq!(s.misses, keys);
        }
    }

    /// A cache mirrored into the shared [`Metrics`] registry holds
    /// `hits + misses == lookups` there, and the registry agrees with the
    /// local stats — for every policy.
    #[test]
    fn registry_counters_hold_invariant(
        trace in proptest::collection::vec(0u64..40, 1..300),
        capacity in 1usize..16,
    ) {
        for kind in PolicyKind::online() {
            let metrics = Metrics::new();
            let mut sim = CacheSim::new(capacity, kind.build(capacity, None))
                .with_metrics(&metrics, "cache");
            let s = sim.run(&trace);
            let v = |c: &str| metrics.value(&format!("cache.{c}"));
            prop_assert_eq!(v("hits") + v("misses"), v("lookups"), "{}", kind.name());
            prop_assert_eq!(v("lookups"), trace.len() as u64);
            prop_assert_eq!(
                (v("hits"), v("misses"), v("evictions")),
                (s.hits, s.misses, s.evictions)
            );
        }
    }

    /// A file-backed buffer pool's `bufferpool.*` counters obey the same
    /// invariant under random page traffic: every fetch is one lookup, and
    /// every miss past the pool's capacity is one eviction.
    #[test]
    fn bufferpool_registry_counters_hold_invariant(
        accesses in proptest::collection::vec(0u64..24, 1..200),
        capacity in 1usize..8,
    ) {
        let metrics = Metrics::new();
        let pool = file_pool(24, capacity, &metrics);
        for &a in &accesses {
            pool.fetch(a).unwrap();
        }
        let v = |c: &str| metrics.value(&format!("bufferpool.{c}"));
        prop_assert_eq!(v("hits") + v("misses"), v("lookups"));
        prop_assert_eq!(v("lookups"), accesses.len() as u64);
        prop_assert_eq!(v("evictions"), v("misses") - pool.resident() as u64);
        prop_assert!(pool.resident() <= capacity);
    }

    /// Policies must stay correct when the same key is accessed repeatedly
    /// between inserts (regression guard for bookkeeping bugs).
    #[test]
    fn repeated_access_bookkeeping(
        key in 0u64..5,
        repeats in 1usize..50,
    ) {
        for kind in PolicyKind::online() {
            let mut sim = CacheSim::new(2, kind.build(2, None));
            sim.access(key);
            for _ in 0..repeats {
                prop_assert!(sim.access(key), "{} lost a resident key", kind.name());
            }
        }
    }
}

#[test]
fn belady_matches_hand_computed_optimum() {
    // Textbook example: capacity 3, trace from the OS course slides.
    let trace = [
        7u64, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1,
    ];
    let mut sim = CacheSim::new(3, PolicyKind::Belady.build(3, Some(&trace)));
    let stats = sim.run(&trace);
    // Known MIN result for this trace: 9 faults (with 3 cold) -> 11 hits.
    assert_eq!(stats.misses, 9, "{stats:?}");
    assert_eq!(stats.hits, 11);
}

/// A parallel `ORDER BY … LIMIT` keeps the tied rows its batches delivered
/// first; a serial one keeps them in table order. So the result cache keys
/// on the worker count, and a serial read is never served the rows a
/// parallel run cached.
#[test]
fn serial_reads_never_hit_a_parallel_runs_cached_result() {
    let db = Database::new();
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    db.create_table("t", schema).unwrap();
    let rows = (0..3_000i64)
        .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
        .collect();
    db.insert("t", rows).unwrap();
    let sql = "SELECT k, v FROM t ORDER BY k LIMIT 10";
    let hits = || db.metrics().value("cache.result.hits");
    let parallel = ExecOptions::serial().parallel(Parallelism::Fixed(2));
    db.sql_with(sql, &parallel).unwrap();
    db.sql_with(sql, &parallel).unwrap();
    let after_parallel = hits();
    assert_eq!(
        after_parallel, 1,
        "the parallel run's result was not cached"
    );
    let serial = db.sql_with(sql, &ExecOptions::serial()).unwrap();
    assert_eq!(hits(), after_parallel, "a serial read hit a parallel entry");
    let cold = db
        .sql_with(sql, &ExecOptions::serial().without_caches())
        .unwrap();
    assert_eq!(serial.to_rows(), cold.to_rows());
}
