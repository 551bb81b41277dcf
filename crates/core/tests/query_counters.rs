//! The counters per-query observability and perfbench read.
//!
//! - perfbench turns `op.*.kernel.*` registry counters into its per-layer
//!   `query.kernel.*` metrics; a renamed counter would silently read zero
//!   there, so the names are pinned here.
//! - EXPLAIN ANALYZE reports only its own query: its `spill:` line sums the
//!   plan's stats blocks, never a shared registry another session also
//!   records into.

use backbone_core::Database;
use backbone_query::ExecOptions;
use backbone_storage::{DataType, Field, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `orders(o_id, o_cust, o_total)` and `custs(c_id, c_region)`, with many
/// distinct `o_id` groups so a one-byte budget has state to spill.
fn db() -> Database {
    let db = Database::new();
    let orders = Schema::new(vec![
        Field::new("o_id", DataType::Int64),
        Field::new("o_cust", DataType::Int64),
        Field::new("o_total", DataType::Int64),
    ]);
    let custs = Schema::new(vec![
        Field::new("c_id", DataType::Int64),
        Field::new("c_region", DataType::Utf8),
    ]);
    db.create_table("orders", orders).unwrap();
    db.create_table("custs", custs).unwrap();
    let rows = (0..3_000)
        .map(|i| vec![Value::Int(i), Value::Int(i % 50), Value::Int(i * 7 % 101)])
        .collect();
    db.insert("orders", rows).unwrap();
    let rows = (0..50)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(["east", "west", "north"][i as usize % 3]),
            ]
        })
        .collect();
    db.insert("custs", rows).unwrap();
    db
}

/// The registry names behind perfbench's `query.kernel.*` readouts.
const KERNEL_COUNTERS: [&str; 5] = [
    "op.scan.kernel.filter_ns",
    "op.aggregate.kernel.hash_ns",
    "op.aggregate.kernel.update_ns",
    "op.hash_join.kernel.build_ns",
    "op.hash_join.kernel.probe_ns",
];

#[test]
fn perfbench_kernel_counters_are_recorded_by_name() {
    let db = db();
    let out = db
        .sql(
            "SELECT c_region, SUM(o_total) AS total FROM orders JOIN custs ON o_cust = c_id \
             WHERE o_total > 10 GROUP BY c_region ORDER BY total DESC LIMIT 2",
        )
        .unwrap();
    assert_eq!(out.num_rows(), 2);
    let m = db.metrics();
    for name in KERNEL_COUNTERS {
        assert!(m.value(name) > 0, "{name} stayed zero");
    }
    // A serial run is one inline worker: per-worker counters are written
    // only when two or more workers ran.
    let workers: Vec<String> = m
        .snapshot()
        .into_keys()
        .filter(|k| k.contains(".worker."))
        .collect();
    assert!(workers.is_empty(), "serial run wrote {workers:?}");
}

#[test]
fn spill_line_is_per_query_under_a_shared_registry() {
    let db = Arc::new(db());
    let spilling = ExecOptions::serial().with_mem_budget(1).without_caches();
    let grouped = "SELECT o_id, COUNT(*) AS n FROM orders GROUP BY o_id";
    let explain = |session: &backbone_core::Session, sql: &str| -> String {
        let out = session.sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        (0..out.num_rows())
            .map(|i| out.row(i)[0].as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    // Positive control: the budgeted query itself reports its spill.
    let budgeted = db.session().with_options(spilling.clone());
    assert!(explain(&budgeted, grouped).contains("spill: partitions="));

    let stop = Arc::new(AtomicBool::new(false));
    let spiller = {
        let (db, stop) = (db.clone(), stop.clone());
        std::thread::spawn(move || {
            let session = db.session().with_options(spilling);
            let mut runs = 0u64;
            while !stop.load(Ordering::Relaxed) {
                session.sql(grouped).unwrap();
                runs += 1;
            }
            runs
        })
    };
    let plain = db
        .session()
        .with_options(ExecOptions::serial().without_caches());
    // Count only reports during which the other session wrote a partition
    // into the shared registry: those are the reports a delta of registry
    // counters would pollute.
    let mut overlapped = 0;
    while overlapped < 5 && !spiller.is_finished() {
        let before = db.metrics().value("storage.spill.partitions");
        let report = explain(&plain, grouped);
        assert!(
            !report.contains("spill:"),
            "a non-spilling query shows\n{report}"
        );
        if db.metrics().value("storage.spill.partitions") > before {
            overlapped += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    assert!(spiller.join().unwrap() > 0);
    assert_eq!(overlapped, 5);
}
