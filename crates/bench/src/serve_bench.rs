//! Concurrent serving baseline (`repro serve`).
//!
//! Drives N concurrent client sessions — half writers, half readers — over
//! TCP against a durable database behind [`backbone_server::Server`], and
//! emits `BENCH_serve.json`. Three properties are measured *and gated*:
//!
//! 1. **Readers never block on writers.** Every reader query pins a
//!    snapshot; pin acquisition past 1 ms counts as a reader stall
//!    (`mvcc.reader_stalls`), and the gate holds the stall rate at ~0.
//! 2. **Concurrent commits batch their fsyncs.** Group commit must need
//!    strictly fewer `fsync` calls than there were commits, or the WAL is
//!    serializing writers.
//! 3. **Concurrency changes nothing about the answer.** The final table
//!    contents must equal a serial replay of the same inserts.
//!
//! A second rung measures the serving-path caches: a **hot-query mix**
//! (~80% repeated statements, 20% unique) replayed over identical
//! per-thread transcripts against a cache-enabled and a cache-disabled
//! server. Gated: the cached side must beat the no-cache baseline by the
//! committed floor at byte-identical wire responses, and the result-cache
//! hit rate must clear 50%.
//!
//! A third rung measures **commit cost against tail size**: embedded
//! 10-row commits alternate between a table whose unsealed tail holds ~1k
//! rows and one whose tail holds ~60k. Gated: the 60k-tail insert p50 must
//! stay within 1.5x of the 1k-tail p50 — a commit costs O(rows inserted),
//! not O(tail). The machine's core count rides along in the rungs.
//!
//! [`GATES`] holds the verdicts; `repro serve` exits non-zero when one fails.

use crate::ledger::{Gate, Over, Rung};
use backbone_core::{Database, DurabilityOptions};
use backbone_query::{Catalog, ExecOptions};
use backbone_server::{Client, Server, ServerOptions};
use backbone_storage::{DataType, Field, Schema, Value};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Sizing for one serve-bench run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Concurrent client sessions (half write, half read).
    pub sessions: usize,
    /// Requests each session issues after the start barrier.
    pub requests: usize,
}

impl ServeConfig {
    /// Committed baseline size: 64 concurrent sessions.
    pub fn full() -> ServeConfig {
        ServeConfig {
            sessions: 64,
            requests: 25,
        }
    }

    /// CI smoke size.
    pub fn quick() -> ServeConfig {
        ServeConfig {
            sessions: 8,
            requests: 10,
        }
    }
}

/// A writer's row for (session, sequence) — deterministic so the serial
/// replay can rebuild the exact same table.
fn writer_row(session: usize, seq: usize) -> Vec<Value> {
    let id = (session as i64) * 1_000_000 + seq as i64;
    vec![Value::Int(id), Value::Int((id * 7) % 1000)]
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Run the serve benchmark. `quick` shrinks the fleet for CI smoke runs.
pub fn run(quick: bool) -> Vec<Rung> {
    let cfg = if quick {
        ServeConfig::quick()
    } else {
        ServeConfig::full()
    };
    let writers = cfg.sessions / 2;

    let dir = std::env::temp_dir().join(format!("backbone-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("serve bench temp dir");
    // Auto-checkpoints off so every fsync in the run is commit-driven and
    // the fsyncs-vs-commits gate measures group commit, nothing else.
    let opts = DurabilityOptions::default().checkpoint_every(0);
    let db = Database::open_with(&dir, opts).expect("open durable db");
    db.create_table(
        "kv",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("val", DataType::Int64),
        ]),
    )
    .expect("create kv");
    // A seeded baseline so readers always have rows to aggregate.
    db.insert("kv", (0..100).map(|i| writer_row(999, i)).collect())
        .expect("seed rows");

    let metrics = db.metrics().clone();
    let commits_before = metrics.value("wal.commits");
    let fsyncs_before = db.wal_fsyncs().unwrap_or(0);
    let stalls_before = metrics.value("mvcc.reader_stalls");

    let server = Server::start(
        db.clone(),
        "127.0.0.1:0",
        ServerOptions {
            max_sessions: cfg.sessions + 1,
            queue_depth: 8,
        },
    )
    .expect("start server");
    let addr = server.addr();

    // Connect every session and prove it holds a worker before the clock
    // starts, so the measurement window is pure request traffic.
    let barrier = Arc::new(Barrier::new(cfg.sessions + 1));
    let handles: Vec<_> = (0..cfg.sessions)
        .map(|s| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect session");
                client.ping().expect("session admitted");
                barrier.wait();
                let mut latencies_ms: Vec<f64> = Vec::with_capacity(cfg.requests);
                for seq in 0..cfg.requests {
                    let start = Instant::now();
                    if s < writers {
                        client
                            .insert("kv", vec![writer_row(s, seq)])
                            .expect("serve insert");
                    } else {
                        let out = client
                            .sql("SELECT COUNT(*), SUM(val) FROM kv")
                            .expect("serve read");
                        assert_eq!(out.rows.len(), 1, "aggregate read returns one row");
                    }
                    latencies_ms.push(start.elapsed().as_secs_f64() * 1000.0);
                }
                latencies_ms
            })
        })
        .collect();

    barrier.wait();
    let bench_start = Instant::now();
    let mut write_ms: Vec<f64> = Vec::new();
    let mut read_ms: Vec<f64> = Vec::new();
    for (s, h) in handles.into_iter().enumerate() {
        let lat = h.join().expect("session thread");
        if s < writers {
            write_ms.extend(lat);
        } else {
            read_ms.extend(lat);
        }
    }
    let elapsed_ms = bench_start.elapsed().as_secs_f64() * 1000.0;

    // Post-run ground truth, read over the same wire the bench used.
    let mut checker = Client::connect(addr).expect("checker connect");
    let concurrent_rows = checker
        .sql("SELECT id, val FROM kv ORDER BY id")
        .expect("final read")
        .rows;
    server.shutdown();

    let commits = metrics.value("wal.commits") - commits_before;
    let fsyncs = db.wal_fsyncs().unwrap_or(0) - fsyncs_before;
    let reader_stalls = metrics.value("mvcc.reader_stalls") - stalls_before;
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    // Serial replay: the same inserts, one session, no server. Identical
    // final contents or the concurrent run corrupted something.
    let serial = Database::new();
    serial
        .create_table(
            "kv",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("val", DataType::Int64),
            ]),
        )
        .expect("serial create");
    serial
        .insert("kv", (0..100).map(|i| writer_row(999, i)).collect())
        .expect("serial seed");
    for s in 0..writers {
        for seq in 0..cfg.requests {
            serial
                .insert("kv", vec![writer_row(s, seq)])
                .expect("serial insert");
        }
    }
    let serial_rows = serial
        .sql("SELECT id, val FROM kv ORDER BY id")
        .expect("serial read")
        .to_rows();
    assert_eq!(
        concurrent_rows, serial_rows,
        "concurrent serving diverged from the serial replay"
    );

    write_ms.sort_by(f64::total_cmp);
    read_ms.sort_by(f64::total_cmp);
    let total_ops = cfg.sessions * cfg.requests;
    let throughput = total_ops as f64 / (elapsed_ms / 1000.0);

    let mut rungs = vec![
        Rung::count("sessions", cfg.sessions),
        Rung::count("writer_sessions", writers),
        Rung::count("requests_total", total_ops),
        Rung::count("reads_total", read_ms.len()),
        Rung::ms("elapsed_ms", elapsed_ms, total_ops),
        Rung::new("throughput_ops_per_s", throughput, "ops/s", total_ops),
        Rung::ms("insert_p50_ms", percentile(&write_ms, 0.50), write_ms.len()),
        Rung::ms("insert_p99_ms", percentile(&write_ms, 0.99), write_ms.len()),
        Rung::ms("read_p50_ms", percentile(&read_ms, 0.50), read_ms.len()),
        Rung::ms("read_p99_ms", percentile(&read_ms, 0.99), read_ms.len()),
        Rung::count("reader_stalls", reader_stalls as usize),
        Rung::count("wal_commits", commits as usize),
        Rung::count("wal_fsyncs", fsyncs as usize),
    ];
    rungs.extend(hot_mix(quick));
    rungs.extend(tail_growth(quick));
    rungs
}

/// Tail sizes the tail-growth rung compares, in rows.
const SMALL_TAIL: usize = 1_000;
const LARGE_TAIL: usize = 60_000;

/// Rows per embedded commit in the tail-growth rung.
const TAIL_COMMIT_ROWS: usize = 10;

/// Gate: insert p50 at [`LARGE_TAIL`] over insert p50 at [`SMALL_TAIL`].
const TAIL_GROWTH_CEILING: f64 = 1.5;

/// The tail-growth rung: two in-memory tables are prefilled to a
/// [`SMALL_TAIL`]- and a [`LARGE_TAIL`]-row unsealed tail, then receive
/// alternating 10-row embedded commits, so machine noise lands on both
/// sides alike. Both tails stay below the 65,536-row group size throughout,
/// so no commit in the window seals.
fn tail_growth(quick: bool) -> Vec<Rung> {
    let commits = if quick { 200 } else { 500 };
    let row = |i: usize| {
        vec![
            Value::Int(i as i64),
            Value::Int((i % 97) as i64),
            Value::str(["click", "view", "buy"][i % 3]),
        ]
    };
    let db = Database::new();
    let mut next = [0usize; 2];
    for (t, tail) in [SMALL_TAIL, LARGE_TAIL].into_iter().enumerate() {
        let name = format!("tail{t}");
        db.create_table(
            &name,
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("user_id", DataType::Int64),
                Field::new("kind", DataType::Utf8),
            ]),
        )
        .expect("create tail table");
        for start in (0..tail).step_by(1_000) {
            db.insert(&name, (start..start + 1_000).map(row).collect())
                .expect("prefill tail");
        }
        next[t] = tail;
    }
    let mut samples = [Vec::with_capacity(commits), Vec::with_capacity(commits)];
    for _ in 0..commits {
        for t in 0..2 {
            let rows = (next[t]..next[t] + TAIL_COMMIT_ROWS).map(row).collect();
            let start = Instant::now();
            db.insert(&format!("tail{t}"), rows).expect("tail commit");
            samples[t].push(start.elapsed().as_secs_f64() * 1000.0);
            next[t] += TAIL_COMMIT_ROWS;
        }
    }
    for (t, tail) in [SMALL_TAIL, LARGE_TAIL].into_iter().enumerate() {
        let table = db.catalog().table(&format!("tail{t}")).expect("tail table");
        assert_eq!(
            table.num_groups(),
            0,
            "the tail-growth window must not seal"
        );
        assert_eq!(table.num_rows(), tail + commits * TAIL_COMMIT_ROWS);
    }
    let [mut small, mut large] = samples;
    small.sort_by(f64::total_cmp);
    large.sort_by(f64::total_cmp);
    let (p_small, p_large) = (percentile(&small, 0.5), percentile(&large, 0.5));
    vec![
        Rung::ms("tail_1k_insert_p50_ms", p_small, small.len()),
        Rung::ms("tail_60k_insert_p50_ms", p_large, large.len()),
        Rung::new(
            "tail_growth_ratio",
            p_large / p_small.max(1e-9),
            "x",
            large.len(),
        ),
        Rung::cores(),
    ]
}

/// Statements in the hot pool: heavy full-scan aggregates a production
/// serving tier would see repeated thousands of times.
const HOT_POOL: usize = 8;

fn hot_statement(j: usize) -> String {
    format!(
        "SELECT COUNT(*) AS n, SUM(val) AS s FROM kv WHERE (val * 3 + id) % {HOT_POOL} = {}",
        j % HOT_POOL
    )
}

/// A statement no other request repeats: always a plan-cache and
/// result-cache miss, like the long tail of ad-hoc queries.
fn unique_statement(thread: usize, seq: usize, rows: usize) -> String {
    let pivot = (thread * 7919 + seq * 31) % rows;
    format!("SELECT COUNT(*) AS n, SUM(val) AS s FROM kv WHERE id >= {pivot} AND (id * 5) % 11 = 3")
}

/// The hot-query-mix rung: identical deterministic transcripts (80% from
/// the hot pool, 20% unique) replayed against a cache-enabled and a
/// cache-disabled server; wire responses must match byte for byte.
fn hot_mix(quick: bool) -> Vec<Rung> {
    let rows = if quick { 30_000 } else { 200_000 };
    let threads = 4usize;
    let requests = if quick { 100 } else { 400 };
    // Committed full runs must clear 2x; the quick CI rung keeps a lower
    // floor to absorb debug builds and noisy shared boxes.
    let floor = if quick { 1.2 } else { 2.0 };

    let build_db = |caches: bool| {
        let opts = if caches {
            ExecOptions::serial()
        } else {
            ExecOptions::serial().without_caches()
        };
        let db = Database::with_options(opts);
        db.create_table(
            "kv",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("val", DataType::Int64),
            ]),
        )
        .expect("hot-mix create");
        for start in (0..rows).step_by(10_000) {
            let end = (start + 10_000).min(rows);
            db.insert(
                "kv",
                (start..end)
                    .map(|i| vec![Value::Int(i as i64), Value::Int(((i as i64) * 37) % 1000)])
                    .collect(),
            )
            .expect("hot-mix load");
        }
        db
    };

    // One side: serve every thread's transcript, return elapsed seconds and
    // the full per-thread response transcripts for the identity check.
    let run_side = |db: &Database| {
        let server = Server::start(
            db.clone(),
            "127.0.0.1:0",
            ServerOptions {
                max_sessions: threads + 1,
                queue_depth: 8,
            },
        )
        .expect("hot-mix server");
        let addr = server.addr();
        let barrier = Arc::new(Barrier::new(threads + 1));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("hot-mix connect");
                    client.ping().expect("hot-mix admitted");
                    barrier.wait();
                    // Deterministic per-thread LCG: both servers replay the
                    // exact same request sequence.
                    let mut state: u64 = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1) | 1;
                    let mut transcript = Vec::with_capacity(requests);
                    for seq in 0..requests {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let q = if (state >> 33) % 100 < 80 {
                            hot_statement(((state >> 40) as usize) % HOT_POOL)
                        } else {
                            unique_statement(t, seq, rows)
                        };
                        transcript.push(client.sql(&q).expect("hot-mix read"));
                    }
                    transcript
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let transcripts: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("hot-mix thread"))
            .collect();
        let elapsed_s = start.elapsed().as_secs_f64();
        server.shutdown();
        (elapsed_s, transcripts)
    };

    let cached_db = build_db(true);
    let nocache_db = build_db(false);
    let (cached_s, cached_tr) = run_side(&cached_db);
    let (nocache_s, nocache_tr) = run_side(&nocache_db);
    assert_eq!(
        cached_tr, nocache_tr,
        "cached serving changed a wire response"
    );

    let pct = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 * 100.0 / (hits + misses) as f64
        }
    };
    let m = cached_db.metrics();
    let plan_pct = pct(m.value("cache.plan.hits"), m.value("cache.plan.misses"));
    let result_pct = pct(m.value("cache.result.hits"), m.value("cache.result.misses"));
    let total = threads * requests;
    vec![
        Rung::count("hot_requests_total", total),
        Rung::new(
            "hot_cached_ops_per_s",
            total as f64 / cached_s,
            "ops/s",
            total,
        ),
        Rung::new(
            "hot_nocache_ops_per_s",
            total as f64 / nocache_s,
            "ops/s",
            total,
        ),
        Rung::new("hot_speedup", nocache_s / cached_s, "x", total),
        Rung::new("hot_gate_floor", floor, "x", total),
        Rung::new("hot_plan_hit_pct", plan_pct, "pct", total),
        Rung::new("hot_result_hit_pct", result_pct, "pct", total),
    ]
}

/// `fsyncs < commits` as a ceiling on their ratio: for integer counts
/// below 2^52 a ratio under 1 is at most `1 - EPSILON`.
const FEWER_THAN_ONE: f64 = 1.0 - f64::EPSILON;

/// The verdicts `repro serve` enforces.
pub const GATES: &[Gate] = &[
    // Snapshot readers must not queue behind writers. The stall counter
    // triggers at >=1 ms pin acquisition; at most 1% of reads may stall, to
    // absorb scheduler blips on a shared box.
    Gate::ceiling(
        "serve reader stalls per read",
        Over::Ratio("reader_stalls", "reads_total"),
        0.01,
    ),
    // Group commit must share fsyncs across concurrent commits.
    Gate::ceiling(
        "serve batched commits (fewer fsyncs than commits)",
        Over::Ratio("wal_fsyncs", "wal_commits"),
        FEWER_THAN_ONE,
    ),
    // The committed baseline runs 64 sessions; the floor keeps it concurrent.
    Gate::floor("serve concurrency", Over::Rung("sessions"), 8.0),
    // The serving-path caches must pay for themselves on the hot mix. The
    // floor travels in the rungs (2x committed, lower for the quick CI
    // rung), and the bench already asserted wire-identical responses.
    Gate::floor(
        "serve hot-mix speedup over its floor",
        Over::Ratio("hot_speedup", "hot_gate_floor"),
        1.0,
    ),
    // An 80%-repeated mix must mostly hit the result cache.
    Gate::floor(
        "serve cache hit rate (result, pct)",
        Over::Rung("hot_result_hit_pct"),
        50.0,
    ),
    // Commit latency must not grow with the unsealed tail.
    Gate::ceiling(
        "serve tail growth (60k vs 1k tail insert p50)",
        Over::Rung("tail_growth_ratio"),
        TAIL_GROWTH_CEILING,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Verdict;

    fn verdict(label: &str, rungs: &[Rung]) -> Verdict {
        let gate = GATES.iter().find(|g| g.label.starts_with(label));
        gate.expect("known gate").evaluate(rungs)
    }

    #[test]
    fn quick_serve_bench_runs_and_gates_pass() {
        let rungs = run(true);
        let json = crate::ledger::to_json(&rungs, true);
        for key in [
            "sessions",
            "reads_total",
            "throughput_ops_per_s",
            "insert_p99_ms",
            "read_p99_ms",
            "reader_stalls",
            "wal_commits",
            "wal_fsyncs",
            "hot_requests_total",
            "hot_cached_ops_per_s",
            "hot_nocache_ops_per_s",
            "hot_speedup",
            "hot_plan_hit_pct",
            "hot_result_hit_pct",
            "tail_1k_insert_p50_ms",
            "tail_60k_insert_p50_ms",
            "tail_growth_ratio",
            "cores",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "{json}");
        }
        for gate in GATES {
            let v = gate.evaluate(&rungs);
            assert!(matches!(v, Verdict::Ok(_)), "{}: {v:?}", gate.label);
        }
    }

    #[test]
    fn tail_growth_gate_trips_above_ceiling() {
        let rungs = |ratio: f64| {
            [
                Rung::ms("tail_1k_insert_p50_ms", 0.1, 200),
                Rung::ms("tail_60k_insert_p50_ms", 0.1 * ratio, 200),
                Rung::new("tail_growth_ratio", ratio, "x", 200),
                Rung::count("cores", 2),
            ]
        };
        assert_eq!(
            verdict("serve tail growth", &rungs(8.0)),
            Verdict::Fail(8.0)
        );
        assert_eq!(verdict("serve tail growth", &rungs(1.1)), Verdict::Ok(1.1));
    }

    #[test]
    fn hot_mix_gate_trips_below_floor() {
        let rungs = |speedup: f64, result_pct: f64| {
            [
                Rung::new("hot_speedup", speedup, "x", 0),
                Rung::new("hot_gate_floor", 2.0, "x", 0),
                Rung::new("hot_result_hit_pct", result_pct, "pct", 0),
                Rung::new("hot_plan_hit_pct", 90.0, "pct", 0),
            ]
        };
        assert_eq!(
            verdict("serve hot-mix", &rungs(1.4, 80.0)),
            Verdict::Fail(0.7)
        );
        assert_eq!(
            verdict("serve cache hit rate", &rungs(1.4, 80.0)),
            Verdict::Ok(80.0)
        );
        assert_eq!(
            verdict("serve hot-mix", &rungs(2.6, 30.0)),
            Verdict::Ok(1.3)
        );
        assert_eq!(
            verdict("serve cache hit rate", &rungs(2.6, 30.0)),
            Verdict::Fail(30.0)
        );
    }

    #[test]
    fn stall_gate_trips_on_blocked_readers() {
        let rungs = |stalls: usize| {
            [
                Rung::count("reader_stalls", stalls),
                Rung::count("reads_total", 400),
            ]
        };
        assert_eq!(
            verdict("serve reader stalls", &rungs(50)),
            Verdict::Fail(0.125)
        );
        assert_eq!(verdict("serve reader stalls", &rungs(4)), Verdict::Ok(0.01));
    }

    #[test]
    fn batching_gate_requires_fewer_fsyncs_than_commits() {
        let rungs = |fsyncs: usize| {
            [
                Rung::count("wal_commits", 100),
                Rung::count("wal_fsyncs", fsyncs),
            ]
        };
        assert_eq!(
            verdict("serve batched commits", &rungs(100)),
            Verdict::Fail(1.0)
        );
        assert_eq!(
            verdict("serve batched commits", &rungs(99)),
            Verdict::Ok(0.99)
        );
        assert_eq!(
            verdict("serve batched commits", &rungs(12)),
            Verdict::Ok(0.12)
        );
    }
}
