//! `read_mix`: the read path with its caches, and no writes.
//!
//! TPC-H-like data at scale factor 0.05 (75k orders, ~300k lineitems) is
//! registered into an in-memory database behind the TCP server. Two wire
//! connections run a closed loop over six SQL templates with seeded
//! parameters; about 60% of the requests repeat an earlier statement of the
//! same connection, so the plan and result caches see hits and misses. No
//! WAL or commit work happens here: a commit-path change must show no
//! change on this workload.

use crate::ingest::hit_frac;
use crate::replay;
use crate::report::{peak_rss_mb, Outcome};
use crate::rng::Rng;
use crate::stats::{geomean, median};
use crate::trace::{Role, Trace, Tracer};
use crate::{repeat_setup, trace_path, Args, Window, CLIENTS};
use backbone_core::Database;
use backbone_query::{Catalog, ExecOptions};
use backbone_server::{Client, RowSet, Server, ServerOptions};
use backbone_storage::Value;
use backbone_workloads::tpch::{self, TpchSizes, DATE_DAYS, Q1_CUTOFF_DAY};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

/// TPC-H scale factor.
pub const SCALE: f64 = 0.05;
/// Share of requests that repeat an earlier statement. Kept clear of one
/// half so the median read lies inside the cache-hit mode of the latency
/// distribution instead of on the edge between hits and misses.
pub const REPEAT: f64 = 0.6;
/// Fresh statements a connection remembers for repeats.
const HISTORY: usize = 256;
/// Set-ups per untraced run; `setup_s` is the median of their CPU time.
const SETUPS: usize = 5;
const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "part", "customer", "orders", "lineitem", "partsupp",
];

/// The statement templates with their relative weights. Every template
/// draws from tens of thousands of parameter combinations, so a fresh
/// statement is almost never a repeat by accident and the share of cache
/// hits stays at about [`REPEAT`] whatever the seed.
pub const TEMPLATES: [(&str, u64); 6] = [
    ("point_orders", 4),
    ("point_lineitem", 4),
    ("range_topk", 3),
    ("q1_agg", 1),
    ("q6_sum", 1),
    ("join_agg", 1),
];

fn fresh(rng: &mut Rng, sizes: &TpchSizes) -> (usize, String) {
    let total: u64 = TEMPLATES.iter().map(|t| t.1).sum();
    let mut pick = rng.below(total);
    let t = TEMPLATES
        .iter()
        .position(|&(_, w)| {
            let hit = pick < w;
            pick = pick.saturating_sub(w);
            hit
        })
        .expect("weights cover the range");
    let orders = sizes.orders as u64;
    let sql = match TEMPLATES[t].0 {
        "point_orders" => format!(
            "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderstatus \
             FROM orders WHERE o_orderkey = {}",
            rng.below(orders)
        ),
        "point_lineitem" => format!(
            "SELECT l_linenumber, l_quantity, l_extendedprice, l_discount, l_shipdate \
             FROM lineitem WHERE l_orderkey = {} ORDER BY l_linenumber",
            rng.below(orders)
        ),
        "range_topk" => {
            let d = rng.below(DATE_DAYS as u64 - 60);
            format!(
                "SELECT o_orderkey, o_totalprice FROM orders \
                 WHERE o_orderdate BETWEEN {d} AND {} ORDER BY o_totalprice DESC LIMIT 10",
                d + 30 + rng.below(30)
            )
        }
        "q1_agg" => format!(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
             SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n \
             FROM lineitem WHERE l_shipdate <= {} AND l_quantity <= {} \
             GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
            Q1_CUTOFF_DAY - rng.below(600) as i64,
            40 + rng.below(11)
        ),
        "q6_sum" => {
            let d = rng.below(DATE_DAYS as u64 - 365);
            let disc = 2 + rng.below(8);
            format!(
                "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
                 WHERE l_shipdate >= {d} AND l_shipdate < {} \
                 AND l_discount BETWEEN 0.0{} AND 0.{:02} AND l_quantity < {}",
                d + 365,
                disc - 1,
                disc + 1,
                24 + rng.below(2)
            )
        }
        _ => {
            let d = rng.below(DATE_DAYS as u64 - 90);
            format!(
                "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS total \
                 FROM orders JOIN customer ON o_custkey = c_custkey \
                 WHERE o_orderdate BETWEEN {d} AND {} \
                 GROUP BY c_mktsegment ORDER BY c_mktsegment",
                d + 30 + rng.below(60)
            )
        }
    };
    (t, sql)
}

/// One connection's statement stream: a pure function of (seed, client).
struct Gen {
    rng: Rng,
    sizes: TpchSizes,
    history: Vec<(usize, String)>,
}

impl Gen {
    fn new(seed: u64, client: usize) -> Gen {
        Gen {
            rng: Rng::new(seed, 200 + client as u64),
            sizes: TpchSizes::at(SCALE),
            history: Vec::new(),
        }
    }

    /// The next (template index, statement).
    fn next(&mut self) -> (usize, String) {
        if !self.history.is_empty() && self.rng.unit() < REPEAT {
            let i = self.rng.below(self.history.len() as u64) as usize;
            return self.history[i].clone();
        }
        let s = fresh(&mut self.rng, &self.sizes);
        if self.history.len() == HISTORY {
            let i = self.rng.below(HISTORY as u64) as usize;
            self.history[i] = s.clone();
        } else {
            self.history.push(s.clone());
        }
        s
    }
}

/// The first `n` statements of every connection, one per line.
#[cfg(test)]
fn transcript(seed: u64, n: usize) -> String {
    let mut out = String::new();
    for c in 0..CLIENTS {
        let mut g = Gen::new(seed, c);
        for _ in 0..n {
            out.push_str(&g.next().1);
            out.push('\n');
        }
    }
    out
}

struct Env {
    db: Database,
    server: Server,
    clients: Vec<Client>,
    rows: usize,
}

fn setup(seed: u64) -> Result<Env, String> {
    let generated = tpch::generate(SCALE, seed);
    let db = Database::new();
    let mut rows = 0;
    for name in TABLES {
        if let Some(t) = generated.table(name) {
            rows += t.num_rows();
            db.register_table(name, (*t).clone())
                .map_err(|e| format!("register {name}: {e}"))?;
        }
    }
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("server: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Env {
        db,
        server,
        clients,
        rows,
    })
}

#[derive(Default)]
struct Log {
    attempted: u64,
    failed: Vec<String>,
    /// Requests turned away by admission control.
    rejected: Vec<String>,
    /// Per request: (template, whether it repeats a statement this
    /// connection sent before, wire latency in ms).
    reads: Vec<(usize, bool, f64)>,
    /// First wire answer of every distinct statement.
    answers: HashMap<String, RowSet>,
    /// Traced: execution ms of first-seen statements, by template.
    execute: Vec<(usize, f64)>,
    /// Traced: wire minus embedded latency of repeated statements.
    overhead: Vec<f64>,
}

fn client_loop(
    db: &Database,
    window: &Window,
    seen: &Mutex<HashSet<String>>,
    c: usize,
    mut client: Client,
    seed: u64,
    tracer: &mut Tracer,
) -> Log {
    let mut log = Log::default();
    let mut gen = Gen::new(seed, c);
    let session = db.session();
    while !window.done() {
        let (t, q) = gen.next();
        log.attempted += 1;
        tracer.begin_request("request");
        let t0 = Instant::now();
        let res = tracer.time("server.wire.sql", Role::EndToEnd, || client.sql(&q));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(rs) => {
                window.record(0);
                log.reads.push((t, log.answers.contains_key(&q), ms));
                match log.answers.get(&q) {
                    Some(first) if *first != rs => log
                        .failed
                        .push(format!("{q}: a repeat answered differently")),
                    Some(_) => {}
                    None => {
                        log.answers.insert(q.clone(), rs.clone());
                    }
                }
                if tracer.on() {
                    let miss = seen.lock().expect("seen").insert(q.clone());
                    match replay::sql_read(db, &session, tracer, &q, &rs, miss) {
                        Ok(r) => {
                            if let Some(x) = r.execute_ms {
                                log.execute.push((t, x));
                            }
                            if let Some(x) = r.session_ms {
                                log.overhead.push(ms - x);
                            }
                        }
                        Err(e) => log.failed.push(e),
                    }
                }
            }
            Err(e) if e.is_overloaded() => log.rejected.push(format!("{q}: {e}")),
            Err(e) => log.failed.push(format!("{q}: {e}")),
        }
        tracer.end_request();
    }
    log
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

/// Every distinct statement's wire answer must equal an embedded execution
/// with both caches off. The statements are split over [`CLIENTS`]
/// threads; the window is over, so this does not disturb the timing.
fn check(db: &Database, logs: &[Log], out: &mut Outcome) {
    let mut distinct: BTreeMap<&String, &RowSet> = BTreeMap::new();
    for (q, wire) in logs.iter().flat_map(|l| l.answers.iter()) {
        distinct.entry(q).or_insert(wire);
    }
    let distinct: Vec<(&String, &RowSet)> = distinct.into_iter().collect();
    let per = distinct.len().div_ceil(CLIENTS).max(1);
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(per)
            .map(|chunk| {
                s.spawn(move || {
                    let cold = db
                        .session()
                        .with_options(ExecOptions::serial().without_caches());
                    chunk
                        .iter()
                        .filter_map(|(q, wire)| match cold.sql(q) {
                            Ok(batch) => {
                                let names: Vec<String> = batch
                                    .schema()
                                    .fields()
                                    .iter()
                                    .map(|f| f.name.clone())
                                    .collect();
                                let rows = batch.to_rows();
                                let same = names == wire.columns
                                    && rows.len() == wire.rows.len()
                                    && rows.iter().zip(&wire.rows).all(|(a, b)| {
                                        a.len() == b.len()
                                            && a.iter().zip(b).all(|(x, y)| close(x, y))
                                    });
                                (!same).then(|| {
                                    format!("{q}: wire answer differs from a cold execution")
                                })
                            }
                            Err(e) => Some(format!("{q}: cold execution failed: {e}")),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for f in failures {
        out.fail(f);
    }
}

struct Pass {
    window_s: f64,
    cpu_s: f64,
    /// Share of the machine's CPU time stolen during the window.
    steal: f64,
    /// The process's high-water mark when the window closed, before the
    /// output check allocates.
    peak_rss_mb: f64,
    logs: Vec<Log>,
    trace: Trace,
    counters: BTreeMap<String, u64>,
    table_bytes: usize,
    rows: usize,
}

impl Pass {
    fn reads(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.reads.iter().map(|r| r.2))
            .collect()
    }

    /// The geometric mean, over the classes (template, first or repeated
    /// statement) that have samples, of each class's median wire latency.
    ///
    /// The median of all reads sits where cache hits give way to misses
    /// (~0.1 ms against 1–30 ms), so a small shift in the hit share or in
    /// loopback wake-ups moves it by a quarter between runs of the same
    /// code. Each class's median lies inside one mode, and weighting the
    /// classes equally leaves out how a seed mixes them. A slower hit path
    /// moves the repeat classes; a slower executor, or a cache that stops
    /// hitting, moves the others or both.
    fn class_p50_ms(&self) -> (f64, usize) {
        let mut classes: BTreeMap<(usize, bool), Vec<f64>> = BTreeMap::new();
        for &(t, repeat, ms) in self.logs.iter().flat_map(|l| l.reads.iter()) {
            classes.entry((t, repeat)).or_default().push(ms);
        }
        let medians: Vec<f64> = classes.values().map(|v| median(v)).collect();
        (geomean(&medians), medians.len())
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

fn measure(env: Env, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Pass {
    let Env {
        db,
        server,
        clients,
        rows,
    } = env;
    let window = Window::new(seconds, 1);
    let seen = Mutex::new(HashSet::new());
    let (logs, tracers): (Vec<Log>, Vec<Tracer>) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let (db, window, seen) = (&db, &window, &seen);
                s.spawn(move || {
                    let mut tracer = Tracer::new(traced, c as u64, window.clocks().origin());
                    let log = client_loop(db, window, seen, c, client, seed, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    let window_s = window.clocks().elapsed_s();
    let cpu_s = window.clocks().cpu_s();
    let steal = window.clocks().steal_share();
    let peak_rss_mb = peak_rss_mb();
    server.shutdown();
    let counters = db.metrics().snapshot();
    for log in &logs {
        out.attempted += log.attempted;
        for e in &log.failed {
            out.fail(e.clone());
        }
        for e in &log.rejected {
            out.reject(e.clone());
        }
    }
    check(&db, &logs, out);
    let table_bytes = TABLES
        .iter()
        .filter_map(|t| db.catalog().table(t))
        .map(|t| t.byte_size())
        .sum();
    Pass {
        window_s,
        cpu_s,
        steal,
        peak_rss_mb,
        logs,
        trace: Trace::merge(tracers),
        counters,
        table_bytes,
        rows,
    }
}

fn describe(out: &mut Outcome, pass: &Pass) {
    let distinct: HashSet<&String> = pass.logs.iter().flat_map(|l| l.answers.keys()).collect();
    out.meta_num("window_s", pass.window_s);
    out.meta_num("window_cpu_s", pass.cpu_s);
    out.meta_num("steal_share", pass.steal);
    out.meta_num("scale_factor", SCALE);
    out.meta_num("rows_loaded", pass.rows);
    out.meta_num("read_samples", pass.reads().len());
    out.meta_num("distinct_statements", distinct.len());
    out.meta_num("repeat_share", REPEAT);
}

/// Kernel counters the engine records, as (metric, counter).
const KERNELS: [(&str, &str); 5] = [
    ("query.kernel.scan_filter_us", "op.scan.kernel.filter_ns"),
    ("query.kernel.agg_hash_us", "op.aggregate.kernel.hash_ns"),
    (
        "query.kernel.agg_update_us",
        "op.aggregate.kernel.update_ns",
    ),
    ("query.kernel.join_build_us", "op.hash_join.kernel.build_ns"),
    ("query.kernel.join_probe_us", "op.hash_join.kernel.probe_ns"),
];

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !args.trace {
        let (env, setup_time) = repeat_setup(SETUPS, || setup(args.seed))?;
        let pass = measure(env, args.seed, args.seconds, false, &mut out);
        describe(&mut out, &pass);
        let reads = pass.reads();
        out.metric("setup_s", setup_time.cpu_s, "s");
        out.meta_num("setup_wall_s", setup_time.wall_s);
        let ops = reads.len() as f64;
        out.metric("ops_per_cpu_s", ops / pass.cpu_s, "1/cpu-s");
        out.meta_num("ops_per_s", ops / pass.window_s);
        let (p50, classes) = pass.class_p50_ms();
        out.metric("p50_ms", p50, "ms");
        out.meta_num("p50_classes", classes);
        out.metric("peak_rss_mb", pass.peak_rss_mb, "MB");
        out.meta_num("read_p50_ms", median(&reads));
        out.meta_tail("read_p99_ms", &reads, 0.99);
        return Ok(out);
    }
    let base = measure(setup(args.seed)?, args.seed, args.seconds, false, &mut out);
    let traced = measure(setup(args.seed)?, args.seed, args.seconds, true, &mut out);
    describe(&mut out, &traced);
    let trace = &traced.trace;
    trace
        .write_jsonl(&trace_path("read_mix"))
        .map_err(|e| format!("write spans: {e}"))?;
    let own = trace.self_ms();
    let med = |name: &str| own.get(name).map_or(0.0, |v| median(v));
    let overhead: Vec<f64> = traced
        .logs
        .iter()
        .flat_map(|l| l.overhead.iter().copied())
        .collect();
    out.metric(
        "trace.overhead_frac",
        median(&traced.reads()) / median(&base.reads()) - 1.0,
        "frac",
    );
    out.metric(
        "read_mix.unaccounted_frac",
        trace.unaccounted_frac(),
        "frac",
    );
    out.metric("server.wire_overhead_ms", median(&overhead), "ms");
    out.metric("server.codec_us", med("server.codec") * 1e3, "us");
    out.metric("server.rejected", out.rejected as f64, "count");
    out.metric(
        "core.plan_cache.hit_frac",
        hit_frac(&base.counters, "cache.plan"),
        "frac",
    );
    out.metric(
        "core.result_cache.hit_frac",
        hit_frac(&base.counters, "cache.result"),
        "frac",
    );
    out.metric(
        "core.result_cache.bytes",
        base.counter("cache.result.bytes") as f64,
        "bytes",
    );
    out.metric("core.snapshot_pin_us", med("core.snapshot_pin") * 1e3, "us");
    out.metric("query.parse_us", med("query.parse") * 1e3, "us");
    out.metric("query.optimize_us", med("query.optimize") * 1e3, "us");
    for (t, (name, _)) in TEMPLATES.iter().enumerate() {
        let ms: Vec<f64> = traced
            .logs
            .iter()
            .flat_map(|l| l.execute.iter())
            .filter(|(tt, _)| *tt == t)
            .map(|(_, ms)| *ms)
            .collect();
        out.metric(format!("query.execute_ms.{name}"), median(&ms), "ms");
    }
    let ops = base.reads().len().max(1) as f64;
    for (metric, counter) in KERNELS {
        out.metric(metric, base.counter(counter) as f64 / 1e3 / ops, "us/op");
    }
    out.metric("storage.table_bytes", base.table_bytes as f64, "bytes");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_is_a_function_of_the_seed() {
        assert_eq!(transcript(3, 400), transcript(3, 400));
        assert_ne!(transcript(3, 400), transcript(4, 400));
        let t = transcript(3, 400);
        let lines: Vec<&str> = t.lines().collect();
        let distinct: HashSet<&&str> = lines.iter().collect();
        let repeated = 1.0 - distinct.len() as f64 / lines.len() as f64;
        assert!((0.5..0.7).contains(&repeated), "repeat share {repeated}");
        for (name, _) in TEMPLATES {
            let probe = match name {
                "point_orders" => "FROM orders WHERE o_orderkey",
                "point_lineitem" => "WHERE l_orderkey",
                "range_topk" => "LIMIT 10",
                "q1_agg" => "sum_qty",
                "q6_sum" => "revenue",
                _ => "JOIN customer",
            };
            assert!(t.contains(probe), "{name} never generated");
        }
    }
}
