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
//! not O(tail). The machine's core count rides along in the entries.

use crate::exec_bench::BenchEntry;
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
pub fn run(quick: bool) -> Vec<BenchEntry> {
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

    let mut entries = vec![
        BenchEntry {
            name: "sessions",
            ms: 0.0,
            rows: cfg.sessions,
        },
        BenchEntry {
            name: "writer_sessions",
            ms: 0.0,
            rows: writers,
        },
        BenchEntry {
            name: "requests_total",
            ms: 0.0,
            rows: total_ops,
        },
        BenchEntry {
            name: "elapsed_ms",
            ms: elapsed_ms,
            rows: total_ops,
        },
        BenchEntry {
            name: "throughput_ops_per_s",
            ms: throughput,
            rows: total_ops,
        },
        BenchEntry {
            name: "insert_p50_ms",
            ms: percentile(&write_ms, 0.50),
            rows: write_ms.len(),
        },
        BenchEntry {
            name: "insert_p99_ms",
            ms: percentile(&write_ms, 0.99),
            rows: write_ms.len(),
        },
        BenchEntry {
            name: "read_p50_ms",
            ms: percentile(&read_ms, 0.50),
            rows: read_ms.len(),
        },
        BenchEntry {
            name: "read_p99_ms",
            ms: percentile(&read_ms, 0.99),
            rows: read_ms.len(),
        },
        BenchEntry {
            name: "reader_stalls",
            ms: 0.0,
            rows: reader_stalls as usize,
        },
        BenchEntry {
            name: "wal_commits",
            ms: 0.0,
            rows: commits as usize,
        },
        BenchEntry {
            name: "wal_fsyncs",
            ms: 0.0,
            rows: fsyncs as usize,
        },
    ];
    entries.extend(hot_mix(quick));
    entries.extend(tail_growth(quick));
    entries
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
fn tail_growth(quick: bool) -> Vec<BenchEntry> {
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        BenchEntry {
            name: "tail_1k_insert_p50_ms",
            ms: p_small,
            rows: small.len(),
        },
        BenchEntry {
            name: "tail_60k_insert_p50_ms",
            ms: p_large,
            rows: large.len(),
        },
        BenchEntry {
            name: "tail_growth_ratio",
            ms: p_large / p_small.max(1e-9),
            rows: large.len(),
        },
        BenchEntry {
            name: "cores",
            ms: 0.0,
            rows: cores,
        },
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
fn hot_mix(quick: bool) -> Vec<BenchEntry> {
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
        BenchEntry {
            name: "hot_requests_total",
            ms: 0.0,
            rows: total,
        },
        BenchEntry {
            name: "hot_cached_ops_per_s",
            ms: total as f64 / cached_s,
            rows: total,
        },
        BenchEntry {
            name: "hot_nocache_ops_per_s",
            ms: total as f64 / nocache_s,
            rows: total,
        },
        BenchEntry {
            name: "hot_speedup",
            ms: nocache_s / cached_s,
            rows: total,
        },
        BenchEntry {
            name: "hot_gate_floor",
            ms: floor,
            rows: total,
        },
        BenchEntry {
            name: "hot_plan_hit_pct",
            ms: plan_pct,
            rows: total,
        },
        BenchEntry {
            name: "hot_result_hit_pct",
            ms: result_pct,
            rows: total,
        },
    ]
}

/// Render entries as the same stable JSON shape as `BENCH_exec.json`.
pub fn to_json(entries: &[BenchEntry], quick: bool) -> String {
    crate::exec_bench::to_json(entries, quick)
}

/// Human summary plus the `PERF_OK`/`PERF_FAIL` verdict lines CI greps for.
pub fn report(entries: &[BenchEntry]) -> String {
    let mut out = String::from("concurrent serving baseline:\n");
    for e in entries {
        out.push_str(&format!(
            "  {:<22} {:>10.2}  rows={}\n",
            e.name, e.ms, e.rows
        ));
    }
    let rows = |name: &str| entries.iter().find(|e| e.name == name).map(|e| e.rows);

    // Gate 1: snapshot readers must not queue behind writers. The stall
    // counter triggers at >=1 ms pin acquisition; allow at most 1% of reads
    // to absorb scheduler blips on a shared box.
    match (rows("reader_stalls"), rows("read_p50_ms")) {
        (Some(stalls), Some(reads)) if reads > 0 => {
            let verdict = if stalls * 100 <= reads {
                "PERF_OK"
            } else {
                "PERF_FAIL"
            };
            out.push_str(&format!(
                "{verdict} serve reader stalls = {stalls} of {reads} reads (gate <=1%)\n"
            ));
        }
        _ => out.push_str("PERF_FAIL missing reader-stall measurements\n"),
    }

    // Gate 2: group commit must share fsyncs across concurrent commits.
    match (rows("wal_commits"), rows("wal_fsyncs")) {
        (Some(commits), Some(fsyncs)) if commits > 0 => {
            let verdict = if fsyncs < commits {
                "PERF_OK"
            } else {
                "PERF_FAIL"
            };
            out.push_str(&format!(
                "{verdict} serve batched commits = {fsyncs} fsyncs for {commits} commits (gate: fewer fsyncs than commits)\n"
            ));
        }
        _ => out.push_str("PERF_FAIL missing commit-batching measurements\n"),
    }

    // Gate 3: the committed baseline must actually exercise concurrency.
    match rows("sessions") {
        Some(n) if n >= 8 => out.push_str(&format!(
            "PERF_OK serve concurrency = {n} sessions (floor 8; committed baseline runs 64)\n"
        )),
        Some(n) => out.push_str(&format!(
            "PERF_FAIL serve concurrency = {n} sessions (floor 8)\n"
        )),
        None => out.push_str("PERF_FAIL missing session count\n"),
    }

    let ms = |name: &str| entries.iter().find(|e| e.name == name).map(|e| e.ms);

    // Gate 4: the serving-path caches must pay for themselves on the hot
    // mix. The floor travels in the entries (2x committed, lower for the
    // quick CI rung), and the bench already asserted wire-identical results.
    match (ms("hot_speedup"), ms("hot_gate_floor")) {
        (Some(speedup), Some(floor)) => {
            let verdict = if speedup >= floor {
                "PERF_OK"
            } else {
                "PERF_FAIL"
            };
            out.push_str(&format!(
                "{verdict} serve hot-mix = {speedup:.2}x over no-cache baseline (floor {floor}x, identical responses)\n"
            ));
        }
        _ => out.push_str("PERF_FAIL missing hot-mix measurements\n"),
    }

    // Gate 5: an 80%-repeated mix must mostly hit the result cache.
    match (ms("hot_result_hit_pct"), ms("hot_plan_hit_pct")) {
        (Some(result), Some(plan)) => {
            let verdict = if result >= 50.0 {
                "PERF_OK"
            } else {
                "PERF_FAIL"
            };
            out.push_str(&format!(
                "{verdict} serve cache hit rate = {result:.0}% result, {plan:.0}% plan (floor 50% result)\n"
            ));
        }
        _ => out.push_str("PERF_FAIL missing cache hit-rate measurements\n"),
    }

    // Gate 6: commit latency must not grow with the unsealed tail.
    match (
        ms("tail_growth_ratio"),
        ms("tail_1k_insert_p50_ms"),
        ms("tail_60k_insert_p50_ms"),
    ) {
        (Some(ratio), Some(small), Some(large)) => {
            let verdict = if ratio <= TAIL_GROWTH_CEILING {
                "PERF_OK"
            } else {
                "PERF_FAIL"
            };
            let cores = rows("cores").unwrap_or(0);
            out.push_str(&format!(
                "{verdict} serve tail growth = {ratio:.2}x insert p50 at a 60k vs a 1k tail ({large:.3} vs {small:.3} ms, ceiling {TAIL_GROWTH_CEILING}x, {cores} cores)\n"
            ));
        }
        _ => out.push_str("PERF_FAIL missing tail-growth measurements\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &'static str, ms: f64, rows: usize) -> BenchEntry {
        BenchEntry { name, ms, rows }
    }

    #[test]
    fn quick_serve_bench_runs_and_gates_pass() {
        let entries = run(true);
        let json = to_json(&entries, true);
        for key in [
            "sessions",
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
        let rep = report(&entries);
        assert!(rep.contains("PERF_OK serve reader stalls"), "{rep}");
        assert!(rep.contains("PERF_OK serve batched commits"), "{rep}");
        assert!(rep.contains("PERF_OK serve concurrency"), "{rep}");
        assert!(rep.contains("PERF_OK serve hot-mix"), "{rep}");
        assert!(rep.contains("PERF_OK serve cache hit rate"), "{rep}");
        assert!(rep.contains("PERF_OK serve tail growth"), "{rep}");
        assert!(!rep.contains("PERF_FAIL"), "{rep}");
    }

    #[test]
    fn tail_growth_gate_trips_above_ceiling() {
        let entries = |ratio: f64| {
            vec![
                entry("tail_1k_insert_p50_ms", 0.1, 200),
                entry("tail_60k_insert_p50_ms", 0.1 * ratio, 200),
                entry("tail_growth_ratio", ratio, 200),
                entry("cores", 0.0, 2),
            ]
        };
        let rep = report(&entries(8.0));
        assert!(rep.contains("PERF_FAIL serve tail growth = 8.00x"), "{rep}");
        let rep = report(&entries(1.1));
        assert!(
            rep.contains("PERF_OK serve tail growth = 1.10x insert p50 at a 60k vs a 1k tail"),
            "{rep}"
        );
        assert!(rep.contains("2 cores"), "{rep}");
    }

    #[test]
    fn hot_mix_gate_trips_below_floor() {
        let entries = vec![
            entry("hot_speedup", 1.4, 0),
            entry("hot_gate_floor", 2.0, 0),
            entry("hot_result_hit_pct", 80.0, 0),
            entry("hot_plan_hit_pct", 90.0, 0),
        ];
        let rep = report(&entries);
        assert!(
            rep.contains("PERF_FAIL serve hot-mix = 1.40x over no-cache baseline (floor 2x"),
            "{rep}"
        );
        assert!(
            rep.contains("PERF_OK serve cache hit rate = 80% result"),
            "{rep}"
        );

        let entries = vec![
            entry("hot_speedup", 2.6, 0),
            entry("hot_gate_floor", 2.0, 0),
            entry("hot_result_hit_pct", 30.0, 0),
            entry("hot_plan_hit_pct", 90.0, 0),
        ];
        let rep = report(&entries);
        assert!(rep.contains("PERF_OK serve hot-mix = 2.60x"), "{rep}");
        assert!(
            rep.contains("PERF_FAIL serve cache hit rate = 30% result"),
            "{rep}"
        );
    }

    #[test]
    fn stall_gate_trips_on_blocked_readers() {
        let entries = vec![
            entry("reader_stalls", 0.0, 50),
            entry("read_p50_ms", 1.0, 400),
        ];
        let rep = report(&entries);
        assert!(rep.contains("PERF_FAIL serve reader stalls = 50"), "{rep}");
    }

    #[test]
    fn batching_gate_requires_fewer_fsyncs_than_commits() {
        let entries = vec![
            entry("wal_commits", 0.0, 100),
            entry("wal_fsyncs", 0.0, 100),
        ];
        let rep = report(&entries);
        assert!(rep.contains("PERF_FAIL serve batched commits"), "{rep}");
        let entries = vec![entry("wal_commits", 0.0, 100), entry("wal_fsyncs", 0.0, 12)];
        let rep = report(&entries);
        assert!(
            rep.contains("PERF_OK serve batched commits = 12 fsyncs for 100 commits"),
            "{rep}"
        );
    }
}
