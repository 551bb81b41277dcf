//! Concurrent multi-session property tests: M writer sessions and N reader
//! sessions share one database, and every reader observation must be a
//! consistent snapshot.
//!
//! The invariants, checked continuously while writers churn:
//!
//! - **prefix consistency**: each writer appends an ordered stream of rows;
//!   any reader query sees a contiguous prefix of every writer's stream —
//!   never a hole, never a reordering;
//! - **no torn inserts**: writers insert in multi-row batches; a reader
//!   sees a batch entirely or not at all;
//! - **snapshot stability**: a query pinned to an explicit epoch returns
//!   the identical answer no matter how much commits after the pin;
//! - **freshness**: once every writer has finished, a new snapshot sees
//!   everything.

use backbone_core::Database;
use backbone_query::{col, lit, Catalog, ExecOptions, Parallelism};
use backbone_storage::{DataType, Field, Schema, Table, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const BATCH: usize = 3;

fn stream_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("writer", DataType::Int64),
        Field::new("seq", DataType::Int64),
    ])
}

/// The `seq` values reader saw, grouped per writer.
fn observed_seqs(rows: &[Vec<Value>], writers: usize) -> Vec<Vec<i64>> {
    let mut per_writer = vec![Vec::new(); writers];
    for row in rows {
        let (Value::Int(w), Value::Int(s)) = (&row[0], &row[1]) else {
            panic!("non-int cells in stream row: {row:?}");
        };
        per_writer[*w as usize].push(*s);
    }
    per_writer
}

/// Assert one observation is snapshot-consistent: every writer's stream is
/// a contiguous, batch-aligned prefix.
fn assert_consistent(rows: &[Vec<Value>], writers: usize, label: &str) {
    for (w, mut seqs) in observed_seqs(rows, writers).into_iter().enumerate() {
        // Scans may interleave row groups from different commits, but the
        // *set* of visible seqs is what snapshot semantics promise.
        seqs.sort_unstable();
        let expect: Vec<i64> = (0..seqs.len() as i64).collect();
        assert_eq!(
            seqs, expect,
            "{label}: writer {w} stream has a hole or duplicate"
        );
        assert_eq!(
            seqs.len() % BATCH,
            0,
            "{label}: writer {w} shows a torn {BATCH}-row batch ({} rows)",
            seqs.len()
        );
    }
}

#[test]
fn readers_see_prefix_consistent_snapshots_while_writers_churn() {
    let writers = 4;
    let readers = 3;
    let batches_per_writer = 30;

    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // Writers start only once every reader has completed one read, so all
    // the inserts cannot finish before a reader's first query does.
    let started = Arc::new(Barrier::new(readers + 1));
    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let session = db.session();
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut observations = 0usize;
                let mut max_seen = 0usize;
                loop {
                    let rows = session
                        .sql("SELECT writer, seq FROM stream")
                        .unwrap()
                        .to_rows();
                    assert_consistent(&rows, writers, "live reader");
                    max_seen = max_seen.max(rows.len());
                    observations += 1;
                    if observations == 1 {
                        started.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (observations, max_seen)
            })
        })
        .collect();
    started.wait();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let session = db.session();
            std::thread::spawn(move || {
                for b in 0..batches_per_writer {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w as i64), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    session.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in reader_handles {
        let (observations, max_seen) = h.join().unwrap();
        assert!(observations > 0, "reader thread never got a query in");
        assert!(max_seen <= writers * batches_per_writer * BATCH);
    }

    // Freshness: with all writers done, a new snapshot sees every row.
    let rows = db.sql("SELECT writer, seq FROM stream").unwrap().to_rows();
    assert_eq!(rows.len(), writers * batches_per_writer * BATCH);
    assert_consistent(&rows, writers, "final read");
}

#[test]
fn pinned_snapshot_is_immune_to_later_commits() {
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    db.insert(
        "stream",
        (0..BATCH)
            .map(|i| vec![Value::Int(0), Value::Int(i as i64)])
            .collect(),
    )
    .unwrap();

    let session = db.session();
    let pin = session.pin_snapshot();
    let at_pin = ExecOptions::serial().at_snapshot(pin.epoch());
    let before = db
        .execute_with(db.query("stream").unwrap(), &at_pin)
        .unwrap()
        .to_rows();
    assert_eq!(before.len(), BATCH);

    // Concurrent churn after the pin.
    let handles: Vec<_> = (1..4)
        .map(|w| {
            let session = db.session();
            std::thread::spawn(move || {
                for b in 0..10 {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w as i64), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    session.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The pinned epoch still answers exactly as before the churn...
    let after = db
        .execute_with(db.query("stream").unwrap(), &at_pin)
        .unwrap()
        .to_rows();
    assert_eq!(before, after, "pinned snapshot drifted under churn");
    drop(pin);
    // ...while an unpinned query sees all of it.
    assert_eq!(db.row_count("stream"), Some(BATCH + 3 * 10 * BATCH));
    let fresh = db.sql("SELECT writer, seq FROM stream").unwrap();
    assert_eq!(fresh.num_rows(), BATCH + 3 * 10 * BATCH);
}

#[test]
fn pinned_prefix_ending_in_the_tail_or_across_a_seal_stays_exact() {
    // A 64-row-group table bulk-loaded through `register_table` (sealed: 64
    // + 36 rows); commits then append to its tail, which seals at 64.
    let db = Database::new();
    let mut table = Table::with_group_size(stream_schema(), 64);
    for i in 0..100 {
        table
            .append_row(vec![Value::Int(0), Value::Int(i)])
            .unwrap();
    }
    db.register_table("stream", table).unwrap();
    let mut next = 0i64;
    let mut commit = |n: usize| {
        let rows = (0..n)
            .map(|_| {
                next += 1;
                vec![Value::Int(1), Value::Int(next - 1)]
            })
            .collect();
        db.insert("stream", rows).unwrap();
    };
    let shape = || {
        let t = db.catalog().table("stream").unwrap();
        (t.num_groups(), t.tail_rows())
    };
    // Writer 1's seqs visible at `epoch`, checked against the exact prefix
    // under both a plain scan and a filter, serially and morsel-parallel.
    let seqs_at = |epoch: u64, want: usize| {
        for p in [Parallelism::Serial, Parallelism::Fixed(4)] {
            let opts = ExecOptions::serial().parallel(p).at_snapshot(epoch);
            let rows = db
                .execute_with(db.query("stream").unwrap(), &opts)
                .unwrap()
                .to_rows();
            assert_eq!(rows.len(), 100 + want, "{p:?}");
            let mut seqs = observed_seqs(&rows, 2).remove(1);
            seqs.sort_unstable();
            assert_eq!(seqs, (0..want as i64).collect::<Vec<_>>(), "{p:?}");
            let plan = db
                .query("stream")
                .unwrap()
                .filter(col("writer").eq(lit(1i64)));
            let filtered = db.execute_with(plan, &opts).unwrap();
            assert_eq!(filtered.num_rows(), want, "{p:?} filtered");
        }
    };

    commit(10);
    assert_eq!(shape(), (2, 10));
    // The pinned prefix ends inside the tail.
    let in_tail = db.pin_snapshot();
    commit(20);
    assert_eq!(shape(), (2, 30), "no seal below the group size");
    seqs_at(in_tail.epoch(), 10);
    // This prefix ends in rows that the next commit seals into a group
    // together with rows the pin must not see.
    let across_seal = db.pin_snapshot();
    commit(50);
    assert_eq!(shape(), (3, 16), "the tail sealed exactly one 64-row group");
    seqs_at(in_tail.epoch(), 10);
    seqs_at(across_seal.epoch(), 30);
    drop((in_tail, across_seal));
    let fresh = db.sql("SELECT writer, seq FROM stream").unwrap();
    assert_eq!(fresh.num_rows(), 180);
}

#[test]
fn session_snapshots_compose_with_aggregates_and_filters() {
    // A reader aggregating under churn must count whole batches: COUNT(*)
    // runs over the same clamped scan as a plain select.
    let writers = 3;
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let agg_reader = {
        let session = db.session();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let out = session.sql("SELECT COUNT(*) AS n FROM stream").unwrap();
                let n = match out.row(0)[0] {
                    Value::Int(n) => n as usize,
                    ref v => panic!("count returned {v:?}"),
                };
                assert_eq!(n % BATCH, 0, "aggregate saw a torn batch: {n} rows");
            }
        })
    };
    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let session = db.session();
            std::thread::spawn(move || {
                for b in 0..25 {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w as i64), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    session.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    agg_reader.join().unwrap();

    let out = db
        .sql("SELECT writer, COUNT(*) AS n FROM stream GROUP BY writer ORDER BY writer")
        .unwrap();
    assert_eq!(out.num_rows(), writers);
    for i in 0..writers {
        assert_eq!(out.row(i)[1], Value::Int((25 * BATCH) as i64));
    }
}

// ---------------------------------------------------------------------------
// Serving-path cache properties: the epoch-tagged result cache must be
// invisible except for speed. Cached hits are byte-identical to cold
// execution pinned at the same epoch, and commits are never masked by a
// stale hit — all checked while writers churn.
// ---------------------------------------------------------------------------

#[test]
fn cached_hits_equal_cold_execution_at_same_epoch() {
    let writers = 3;
    let batches_per_writer = 30;
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    let q = "SELECT writer, seq FROM stream";

    let stop = Arc::new(AtomicBool::new(false));
    let checkers: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let pin = db.pin_snapshot();
                    let hot = ExecOptions::serial().at_snapshot(pin.epoch());
                    let cold = hot.clone().without_caches();
                    // Twice through the caching path (the second is a result
                    // hit whenever no commit raced the first), once cold.
                    let a = db.sql_with(q, &hot).unwrap().to_rows();
                    let b = db.sql_with(q, &hot).unwrap().to_rows();
                    let c = db.sql_with(q, &cold).unwrap().to_rows();
                    assert_eq!(a, b, "same epoch, same statement, same rows");
                    assert_eq!(a, c, "cached path diverged from cold execution");
                    assert_consistent(&a, writers, "cached read");
                }
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let session = db.session();
            std::thread::spawn(move || {
                for b in 0..batches_per_writer {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w as i64), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    session.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in checkers {
        h.join().unwrap();
    }

    // Quiesced: a repeat at one epoch is a deterministic result-cache hit,
    // still byte-identical to a cold run at that epoch.
    let pin = db.pin_snapshot();
    let hot = ExecOptions::serial().at_snapshot(pin.epoch());
    let warmup = db.sql_with(q, &hot).unwrap().to_rows();
    let hits_before = db.metrics().value("cache.result.hits");
    let hit = db.sql_with(q, &hot).unwrap().to_rows();
    assert_eq!(db.metrics().value("cache.result.hits"), hits_before + 1);
    let cold = db
        .sql_with(q, &hot.clone().without_caches())
        .unwrap()
        .to_rows();
    assert_eq!(warmup, hit);
    assert_eq!(hit, cold, "quiesced hit differs from cold execution");
    assert_eq!(hit.len(), writers * batches_per_writer * BATCH);
}

#[test]
fn post_commit_reads_never_serve_stale_hits() {
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    let q = "SELECT COUNT(*) AS n FROM stream";
    let count = |db: &Database| match db.sql(q).unwrap().row(0)[0] {
        Value::Int(n) => n as usize,
        ref v => panic!("count returned {v:?}"),
    };

    // Interleave commits with fully-cached reads: every read after a commit
    // must see it, no matter how hot the statement is.
    let mut expected = 0usize;
    for round in 0..20 {
        assert_eq!(count(&db), expected, "round {round}: stale hit");
        assert_eq!(count(&db), expected, "round {round}: repeat drifted");
        let rows = (0..BATCH)
            .map(|i| vec![Value::Int(0), Value::Int((expected + i) as i64)])
            .collect();
        db.insert("stream", rows).unwrap();
        expected += BATCH;
    }
    assert_eq!(count(&db), expected);
    // The loop above must have been served from the cache at least once per
    // repeated read — otherwise this test exercised nothing.
    assert!(db.metrics().value("cache.result.hits") >= 20);

    // Same law under concurrency: after every writer joins, one fresh read
    // sees everything, even though the statement stayed cache-hot throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let n = match db.sql(q).unwrap().row(0)[0] {
                    Value::Int(n) => n as usize,
                    ref v => panic!("count returned {v:?}"),
                };
                assert!(n >= last, "count regressed under churn: {n} < {last}");
                last = n;
            }
        })
    };
    let writer_handles: Vec<_> = (0..3)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                for b in 0..20 {
                    let rows = (0..BATCH)
                        .map(|i| vec![Value::Int(w + 1), Value::Int((b * BATCH + i) as i64)])
                        .collect();
                    db.insert("stream", rows).unwrap();
                }
            })
        })
        .collect();
    for h in writer_handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    assert_eq!(count(&db), expected + 3 * 20 * BATCH);
}

/// Regression for the plan-cache key: execution knobs that only steer
/// *physical* planning (memory budget, parallelism, batch size) are not part
/// of the fingerprint, so a budget-capped session reuses the logical plan a
/// comfortable session cached — and still makes its own physical decision
/// (it spills; the uncapped run did not). Identical results prove the shared
/// entry never leaks a physical choice.
#[test]
fn plan_cache_shares_logical_plans_across_physical_budgets() {
    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    // Enough distinct groups that a few-KB budget cannot hold the hash table.
    let rows: Vec<Vec<Value>> = (0..6000)
        .map(|i| vec![Value::Int(i % 2000), Value::Int(i)])
        .collect();
    db.insert("stream", rows).unwrap();
    let q = "SELECT writer, COUNT(*) AS n FROM stream GROUP BY writer";
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort_by_key(|r| match r[0] {
            Value::Int(w) => w,
            _ => unreachable!(),
        });
        rows
    };

    let uncapped = db.session();
    let comfortable = sorted(uncapped.sql(q).unwrap().to_rows());
    assert_eq!(db.metrics().value("storage.spill.partitions"), 0);
    let hits_before = db.metrics().value("cache.plan.hits");

    // Result cache off so the capped run really executes; plan cache on so
    // it reuses the logical plan cached by the uncapped session.
    let capped = db.session().with_options(
        ExecOptions::serial()
            .with_mem_budget(4 * 1024)
            .without_result_cache(),
    );
    let tight = sorted(capped.sql(q).unwrap().to_rows());

    assert_eq!(comfortable, tight, "budget changed the answer");
    assert!(
        db.metrics().value("cache.plan.hits") > hits_before,
        "capped session did not reuse the cached logical plan"
    );
    assert!(
        db.metrics().value("storage.spill.partitions") > 0,
        "capped run should have spilled — physical planning must stay per-execution"
    );
}

#[test]
fn prepare_execute_roundtrip_over_the_wire() {
    use backbone_server::{Client, Server, ServerOptions};

    let db = Database::new();
    db.create_table("stream", stream_schema()).unwrap();
    db.insert(
        "stream",
        (0..10)
            .map(|i| vec![Value::Int(i % 2), Value::Int(i)])
            .collect(),
    )
    .unwrap();
    let server = Server::start(db, "127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let stmt = client
        .prepare("SELECT seq FROM stream WHERE writer = $1 AND seq >= $2")
        .unwrap();
    let a = client
        .execute(stmt, vec![Value::Int(0), Value::Int(0)])
        .unwrap();
    assert_eq!(a.rows.len(), 5);
    let b = client
        .execute(stmt, vec![Value::Int(1), Value::Int(5)])
        .unwrap();
    assert_eq!(b.rows.len(), 3);
    // Re-executing the same binding replays the identical rows (served from
    // the result cache server-side; the wire can't tell — that's the point).
    let a2 = client
        .execute(stmt, vec![Value::Int(0), Value::Int(0)])
        .unwrap();
    assert_eq!(a, a2);
    // Unknown handles and handles from other connections are typed errors.
    assert!(client.execute(stmt + 99, vec![]).is_err());
    let mut other = Client::connect(server.addr()).unwrap();
    assert!(other
        .execute(stmt, vec![Value::Int(0), Value::Int(0)])
        .is_err());
    server.shutdown();
}
