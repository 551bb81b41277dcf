//! `ingest`: the commit path under a growing table.
//!
//! Two wire connections to a durable database (`FsyncPolicy::Group`, no
//! simulated fsync latency, a checkpoint every 1024 logged ops: the
//! defaults) run a closed loop. The work goes in rounds: each round fills a
//! fresh `events_<r>(id, user_id, kind, amount)` table to [`ROUND_ROWS`]
//! rows in [`ROWS_PER_COMMIT`]-row commits, half from each connection.
//! Every round so sweeps the same range of tail sizes. A pass is a fixed
//! number of rounds, not a timed window, so the database ends at the same
//! size, and its memory at the same high-water mark, however fast the
//! engine is. Every
//! [`READ_EVERY`]th request of a connection is a `COUNT`/`SUM` over one of
//! the users it just committed rows for; user ids are disjoint between
//! connections, so the exact answer is known.

use crate::replay;
use crate::report::{peak_rss_mb, Outcome};
use crate::rng::Rng;
use crate::stats::{linear_fit, median, unstolen_median};
use crate::trace::{Role, Trace, Tracer};
use crate::{repeat_setup, scratch_dir, trace_path, Args, Clocks, CLIENTS};
use backbone_core::durability::{encode_insert, CHECKPOINT_FILE, WAL_FILE};
use backbone_core::{Database, DurabilityOptions};
use backbone_query::stats::analyze_table;
use backbone_query::Catalog;
use backbone_server::proto::{Request, Response};
use backbone_server::{Client, Server, ServerOptions};
use backbone_storage::{DataType, Field, Schema, Table, Value};
use backbone_txn::wal::{Wal, WalConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Rows in one commit.
pub const ROWS_PER_COMMIT: usize = 100;
/// Rows one round's table grows to: tens of thousands, all in the
/// unsealed tail (a row group seals at 65,536 rows).
pub const ROUND_ROWS: usize = 20_000;
/// Commits each connection makes per round.
const COMMITS_PER_ROUND: usize = ROUND_ROWS / ROWS_PER_COMMIT / CLIENTS;
/// Rounds per second of `--seconds`: about the rate of the 2-vCPU machine
/// the benchmark was sized on.
const ROUNDS_PER_S: f64 = 0.5;
/// Each round brings about `ROUND_ROWS / ROWS_PER_COMMIT` reads, so six
/// give every op kind [`crate::MIN_SAMPLES`].
const MIN_ROUNDS: usize = 6;
const MAX_ROUNDS: usize = 30;
/// One request in this many is a read. Reads cost well under a millisecond
/// against commits of several, so the time still goes almost all into the
/// commit path, while reads reach [`crate::MIN_SAMPLES`] in one pass.
pub const READ_EVERY: u64 = 2;
/// Users per connection.
const USERS: u64 = 50;
/// Set-ups per untraced run; `setup_s` is the median of their CPU time.
const SETUPS: usize = 101;
/// The default checkpoint cadence, stated in the output.
const CHECKPOINT_EVERY: u64 = 1024;
/// Tail-size bands of `core.insert_ms`, in rows.
const BANDS: [(usize, usize, &str); 4] = [
    (0, 5_000, "tail_0_5k"),
    (5_000, 10_000, "tail_5k_10k"),
    (10_000, 15_000, "tail_10k_15k"),
    (15_000, ROUND_ROWS, "tail_15k_20k"),
];
const KINDS: [&str; 6] = [
    "click",
    "view",
    "purchase",
    "signup",
    "logout",
    "search_query",
];

/// Rounds in a pass: [`ROUNDS_PER_S`] per second asked for, within
/// [`MIN_ROUNDS`, `MAX_ROUNDS`].
fn rounds(seconds: f64) -> usize {
    ((seconds * ROUNDS_PER_S).round() as usize).clamp(MIN_ROUNDS, MAX_ROUNDS)
}

fn table_name(round: usize) -> String {
    format!("events_{round}")
}

fn read_sql(round: usize, user: i64) -> String {
    format!(
        "SELECT COUNT(*) AS n, SUM(amount) AS total FROM {} WHERE user_id = {user}",
        table_name(round)
    )
}

fn schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("user_id", DataType::Int64),
        Field::new("kind", DataType::Utf8),
        Field::new("amount", DataType::Int64),
    ])
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
enum Req {
    Insert { round: usize, rows: Vec<Vec<Value>> },
    Read { round: usize, user: i64 },
}

#[cfg(test)]
impl Req {
    /// The request as it goes over the wire.
    fn line(&self) -> String {
        match self {
            Req::Insert { round, rows } => Request::Insert {
                table: table_name(*round),
                rows: rows.clone(),
            }
            .encode(),
            Req::Read { round, user } => Request::Sql {
                query: read_sql(*round, *user),
            }
            .encode(),
        }
    }
}

/// One connection's request stream: a pure function of (seed, client).
struct Gen {
    rng: Rng,
    client: usize,
    seq: u64,
    commits: usize,
    next_id: i64,
    last_users: Vec<i64>,
}

impl Gen {
    fn new(seed: u64, client: usize) -> Gen {
        Gen {
            rng: Rng::new(seed, 100 + client as u64),
            client,
            seq: 0,
            commits: 0,
            next_id: client as i64 * 1_000_000_000_000,
            last_users: Vec::new(),
        }
    }

    /// The next request, and whether it is the first commit of a new round
    /// (all connections meet at a barrier before it).
    fn next(&mut self) -> (Req, bool) {
        let i = self.seq;
        self.seq += 1;
        if i % READ_EVERY == READ_EVERY - 1 && !self.last_users.is_empty() {
            let pick = self.rng.below(self.last_users.len() as u64) as usize;
            let read = Req::Read {
                round: (self.commits - 1) / COMMITS_PER_ROUND,
                user: self.last_users[pick],
            };
            return (read, false);
        }
        let round = self.commits / COMMITS_PER_ROUND;
        let opens = self.commits > 0 && self.commits.is_multiple_of(COMMITS_PER_ROUND);
        self.commits += 1;
        self.last_users.clear();
        let mut rows = Vec::with_capacity(ROWS_PER_COMMIT);
        for _ in 0..ROWS_PER_COMMIT {
            let user = self.client as i64 * 1000 + self.rng.below(USERS) as i64;
            let kind = KINDS[self.rng.below(KINDS.len() as u64) as usize];
            self.last_users.push(user);
            rows.push(vec![
                Value::Int(self.next_id),
                Value::Int(user),
                Value::str(kind),
                Value::Int(self.rng.below(100_000) as i64),
            ]);
            self.next_id += 1;
        }
        (Req::Insert { round, rows }, opens)
    }
}

/// The first `n` requests of every connection, one wire line each.
#[cfg(test)]
fn transcript(seed: u64, n: usize) -> String {
    let mut out = String::new();
    for c in 0..CLIENTS {
        let mut g = Gen::new(seed, c);
        for _ in 0..n {
            out.push_str(&g.next().0.line());
            out.push('\n');
        }
    }
    out
}

/// A ready database, server, connections and request streams.
struct Env {
    dir: PathBuf,
    db: Database,
    server: Server,
    clients: Vec<Client>,
    gens: Vec<Gen>,
}

fn setup(seed: u64) -> Result<Env, String> {
    let gens = (0..CLIENTS).map(|c| Gen::new(seed, c)).collect();
    let dir = scratch_dir("ingest")?;
    let opts = DurabilityOptions::default().checkpoint_every(CHECKPOINT_EVERY);
    let db = Database::open_with(&dir, opts).map_err(|e| format!("open: {e}"))?;
    db.create_table(table_name(0), schema())
        .map_err(|e| format!("create: {e}"))?;
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("server: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Env {
        dir,
        db,
        server,
        clients,
        gens,
    })
}

/// State the connections share during a pass.
struct Shared<'a> {
    db: &'a Database,
    barrier: Barrier,
    stop: AtomicBool,
    /// Rounds the pass runs.
    total_rounds: usize,
    /// Rounds opened so far.
    rounds: AtomicUsize,
    /// Rows acked in the current round.
    round_rows: AtomicUsize,
    errors: Mutex<Vec<String>>,
    /// Traced only: the current round's acked rows (the unsealed tail).
    tail: Mutex<Vec<Vec<Value>>>,
    /// Traced only: the standalone log `txn.wal.commit` is timed on.
    probe_wal: Option<Wal>,
}

/// What one connection saw.
#[derive(Default)]
struct Log {
    attempted: u64,
    failed: Vec<String>,
    /// Requests turned away by admission control.
    rejected: Vec<String>,
    /// Wire commit latencies (ms).
    commits: Vec<f64>,
    /// Wire read latencies (ms).
    reads: Vec<f64>,
    /// Traced: embedded `Database::insert` as (tail rows before, ms).
    embedded: Vec<(f64, f64)>,
    /// Traced: a wire commit's latency minus the next embedded one's.
    overhead: Vec<f64>,
    /// Acked rows by round.
    acked: Vec<(usize, Vec<Value>)>,
    /// Traced: WAL payload bytes of the commits replayed.
    payload_bytes: u64,
    payloads: u64,
}

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(n) => Some(*n),
        Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

fn client_loop(sh: &Shared, mut client: Client, mut gen: Gen, tracer: &mut Tracer) -> Log {
    let mut log = Log::default();
    let mut commits = 0usize;
    let session = sh.db.session();
    let mut expect: HashMap<(usize, i64), (i64, i64)> = HashMap::new();
    let mut last_wire: Option<f64> = None;
    let schema = schema();
    loop {
        let (req, opens_round) = gen.next();
        if opens_round {
            if sh.barrier.wait().is_leader() {
                if sh.rounds.load(Ordering::SeqCst) == sh.total_rounds {
                    sh.stop.store(true, Ordering::SeqCst);
                } else {
                    let r = sh.rounds.fetch_add(1, Ordering::SeqCst);
                    if let Err(e) = sh.db.create_table(table_name(r), schema.clone()) {
                        sh.errors
                            .lock()
                            .expect("errors")
                            .push(format!("create round {r}: {e}"));
                        sh.stop.store(true, Ordering::SeqCst);
                    }
                    sh.round_rows.store(0, Ordering::SeqCst);
                    sh.tail.lock().expect("tail").clear();
                }
            }
            sh.barrier.wait();
        }
        if sh.stop.load(Ordering::SeqCst) {
            break;
        }
        log.attempted += 1;
        tracer.begin_request("request");
        match req {
            Req::Insert { round, rows } => {
                let table = table_name(round);
                let tail_before = sh.round_rows.load(Ordering::SeqCst) as f64;
                commits += 1;
                let embedded = tracer.on() && commits.is_multiple_of(2);
                let sent = rows.clone();
                let t0 = Instant::now();
                let res = if embedded {
                    tracer
                        .time("core.insert", Role::EndToEnd, || sh.db.insert(&table, sent))
                        .map_err(|e| (false, e.to_string()))
                } else {
                    tracer
                        .time("server.wire.insert", Role::EndToEnd, || {
                            client.insert(&table, sent)
                        })
                        .map(|_| ())
                        .map_err(|e| (e.is_overloaded(), e.to_string()))
                };
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if let Err((overloaded, e)) = res {
                    let msg = format!("insert into {table}: {e}");
                    if overloaded {
                        log.rejected.push(msg);
                    } else {
                        log.failed.push(msg);
                    }
                    tracer.end_request();
                    continue;
                }
                if embedded {
                    log.embedded.push((tail_before, ms));
                    if let Some(w) = last_wire.take() {
                        log.overhead.push(w - ms);
                    }
                } else {
                    log.commits.push(ms);
                    last_wire = Some(ms);
                }
                sh.round_rows.fetch_add(rows.len(), Ordering::SeqCst);
                for row in &rows {
                    let e = expect
                        .entry((round, int(&row[1]).unwrap_or(0)))
                        .or_default();
                    e.0 += 1;
                    e.1 += int(&row[3]).unwrap_or(0);
                }
                if tracer.on() {
                    sh.tail.lock().expect("tail").extend(rows.iter().cloned());
                    replay_commit(sh, tracer, &table, &rows, embedded, &schema, &mut log);
                }
                log.acked.extend(rows.into_iter().map(|r| (round, r)));
            }
            Req::Read { round, user } => {
                let q = read_sql(round, user);
                let t0 = Instant::now();
                let res = tracer.time("server.wire.sql", Role::EndToEnd, || client.sql(&q));
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                match res {
                    Ok(rs) => {
                        log.reads.push(ms);
                        let want = expect.get(&(round, user)).copied().unwrap_or_default();
                        let got = rs
                            .rows
                            .first()
                            .map(|r| (r.first().and_then(int), r.get(1).and_then(int)));
                        if got != Some((Some(want.0), Some(want.1))) {
                            log.failed
                                .push(format!("{q}: got {:?}, want {want:?}", rs.rows));
                        }
                        if tracer.on() {
                            if let Err(e) = replay::sql_read(sh.db, &session, tracer, &q, &rs, true)
                            {
                                log.failed.push(e);
                            }
                        }
                    }
                    Err(e) if e.is_overloaded() => log.rejected.push(format!("{q}: {e}")),
                    Err(e) => log.failed.push(format!("{q}: {e}")),
                }
            }
        }
        tracer.end_request();
    }
    log
}

/// The traced replays of one acked commit: the steps `Database::insert`
/// takes, each on this commit's own rows.
fn replay_commit(
    sh: &Shared,
    tracer: &mut Tracer,
    table: &str,
    rows: &[Vec<Value>],
    embedded: bool,
    schema: &Arc<Schema>,
    log: &mut Log,
) {
    if !embedded {
        let request = Request::Insert {
            table: table.to_string(),
            rows: rows.to_vec(),
        };
        tracer.time("server.codec", Role::Component, || {
            let line = request.encode();
            let decoded = Request::decode(&line);
            let reply = Response::Inserted { rows: rows.len() }.encode();
            let _ = std::hint::black_box((decoded, reply));
        });
    }
    let payload = tracer.time("core.durability.encode", Role::Component, || {
        encode_insert(table, rows)
    });
    log.payload_bytes += payload.len() as u64;
    log.payloads += 1;
    if let Some(wal) = &sh.probe_wal {
        // A log of its own, not a step of the measured commit: it waits for
        // its own fsync, which the real group commit shares.
        let res = tracer.time("txn.wal.commit", Role::Probe, || wal.commit(&payload));
        if let Err(e) = res {
            log.failed.push(format!("probe wal commit: {e}"));
        }
    }
    // `register` copies the whole unsealed tail and seals it into a row
    // group on every commit; this replays exactly that work.
    tracer.time("storage.tail_seal", Role::Component, || {
        let pending = sh.tail.lock().expect("tail").clone();
        let mut t = Table::new(schema.clone());
        for row in pending {
            let _ = t.append_row(row);
        }
        let _ = t.flush();
        std::hint::black_box(t.num_groups());
    });
    if let Some(snapshot) = sh.db.catalog().table(table) {
        tracer.time("query.analyze", Role::Probe, || {
            std::hint::black_box(analyze_table(&snapshot));
        });
    }
}

/// One measured pass and what it left behind.
struct Pass {
    dir: PathBuf,
    window_s: f64,
    cpu_s: f64,
    /// Share of the machine's CPU time stolen during the pass.
    steal: f64,
    /// The process's high-water mark when the pass ended, before the
    /// output checks allocate.
    peak_rss_mb: f64,
    logs: Vec<Log>,
    trace: Trace,
    rounds: usize,
    counters: BTreeMap<String, u64>,
    fsyncs: u64,
    checkpoint_ms: f64,
    checkpoint_bytes: u64,
    disk_bytes: u64,
    hot_groups: usize,
    hot_rows: usize,
    hot_bytes: usize,
}

impl Pass {
    fn commits(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.commits.iter().copied())
            .collect()
    }

    fn reads(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.reads.iter().copied())
            .collect()
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

fn measure(env: Env, total_rounds: usize, traced: bool) -> Result<Pass, String> {
    let Env {
        dir,
        db,
        server,
        clients,
        gens,
    } = env;
    let probe_wal = if traced {
        Some(
            Wal::open(dir.join("probe_wal.log"), WalConfig::default())
                .map_err(|e| format!("probe wal: {e}"))?,
        )
    } else {
        None
    };
    let clocks = Clocks::start();
    let sh = Shared {
        db: &db,
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
        total_rounds,
        rounds: AtomicUsize::new(1),
        round_rows: AtomicUsize::new(0),
        errors: Mutex::new(Vec::new()),
        tail: Mutex::new(Vec::new()),
        probe_wal,
    };
    let (mut logs, tracers): (Vec<Log>, Vec<Tracer>) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(gens)
            .enumerate()
            .map(|(c, (client, gen))| {
                let sh = &sh;
                let origin = clocks.origin();
                s.spawn(move || {
                    let mut tracer = Tracer::new(traced, c as u64, origin);
                    let log = client_loop(sh, client, gen, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    let window_s = clocks.elapsed_s();
    let cpu_s = clocks.cpu_s();
    let steal = clocks.steal_share();
    let peak_rss_mb = peak_rss_mb();
    server.shutdown();
    if let Some(first) = logs.first_mut() {
        first
            .failed
            .extend(sh.errors.lock().expect("errors").drain(..));
    }
    let rounds = sh.rounds.load(Ordering::SeqCst);
    drop(sh);
    let counters = db.metrics().snapshot();
    let fsyncs = db.wal_fsyncs().unwrap_or(0);
    let hot = db.catalog().table(&table_name(rounds - 1));
    let (hot_groups, hot_rows, hot_bytes) =
        hot.map_or((0, 0, 0), |t| (t.num_groups(), t.num_rows(), t.byte_size()));
    // A final checkpoint leaves the directory at its steady footprint, so
    // `disk_bytes_per_user_byte` does not depend on where in the
    // checkpoint cycle the window ended.
    let t0 = Instant::now();
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let size = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    let checkpoint_bytes = size(CHECKPOINT_FILE);
    let disk_bytes = checkpoint_bytes + size(WAL_FILE);
    drop(db);
    Ok(Pass {
        dir,
        window_s,
        cpu_s,
        steal,
        peak_rss_mb,
        logs,
        trace: Trace::merge(tracers),
        rounds,
        counters,
        fsyncs,
        checkpoint_ms,
        checkpoint_bytes,
        disk_bytes,
        hot_groups,
        hot_rows,
        hot_bytes,
    })
}

/// Count the pass's ops and failures into `out`, then reopen its directory
/// and compare every round table with a serial replay of the acked rows:
/// count and sums must match exactly, and match the acked rows themselves.
fn account(out: &mut Outcome, pass: &Pass) -> Result<(), String> {
    for log in &pass.logs {
        out.attempted += log.attempted;
        for e in &log.failed {
            out.fail(e.clone());
        }
        for e in &log.rejected {
            out.reject(e.clone());
        }
    }
    let mut by_round: BTreeMap<usize, Vec<Vec<Value>>> = BTreeMap::new();
    for log in &pass.logs {
        for (round, row) in &log.acked {
            by_round.entry(*round).or_default().push(row.clone());
        }
    }
    let reopened = Database::open(&pass.dir).map_err(|e| format!("reopen: {e}"))?;
    let serial = Database::new();
    for (round, rows) in by_round {
        let t = table_name(round);
        let sum = |col: usize| rows.iter().map(|r| int(&r[col]).unwrap_or(0)).sum::<i64>();
        let direct = vec![
            Value::Int(rows.len() as i64),
            Value::Int(sum(3)),
            Value::Int(sum(0)),
        ];
        serial
            .create_table(&t, schema())
            .and_then(|_| serial.insert(&t, rows))
            .map_err(|e| format!("serial replay of {t}: {e}"))?;
        let q = format!("SELECT COUNT(*) AS n, SUM(amount) AS a, SUM(id) AS i FROM {t}");
        let want = serial.sql(&q).map_err(|e| format!("{q}: {e}"))?.to_rows();
        match reopened.sql(&q) {
            Ok(got) if got.to_rows() == want && want.first() == Some(&direct) => {}
            Ok(got) => out.fail(format!(
                "{t} after reopen: {:?}, serial replay {want:?}, acked {direct:?}",
                got.to_rows()
            )),
            Err(e) => out.fail(format!("{t} after reopen: {e}")),
        }
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&pass.dir);
    Ok(())
}

/// WAL plus checkpoint bytes after a final checkpoint, over the raw bytes
/// of the rows acked.
fn disk_per_user_byte(pass: &Pass) -> f64 {
    pass.disk_bytes as f64 / user_bytes(pass).max(1) as f64
}

fn user_bytes(pass: &Pass) -> u64 {
    let raw = |row: &[Value]| -> u64 {
        row.iter()
            .map(|v| match v {
                Value::Str(s) => s.len() as u64,
                _ => 8,
            })
            .sum()
    };
    pass.logs
        .iter()
        .flat_map(|l| l.acked.iter())
        .map(|(_, row)| raw(row))
        .sum()
}

fn describe(out: &mut Outcome, pass: &Pass) {
    let rows: usize = pass.logs.iter().map(|l| l.acked.len()).sum();
    out.meta_num("window_s", pass.window_s);
    out.meta_num("window_cpu_s", pass.cpu_s);
    out.meta_num("steal_share", pass.steal);
    out.meta_num("rows_committed", rows);
    out.meta_num("rounds", pass.rounds);
    out.meta_num("round_rows", ROUND_ROWS);
    out.meta_num("rows_per_commit", ROWS_PER_COMMIT);
    out.meta_num("read_every", READ_EVERY);
    out.meta_num("commit_samples", pass.commits().len());
    out.meta_num("read_samples", pass.reads().len());
    out.meta_str("fsync_policy", "group");
    out.meta_num("fsync_latency_ms", 0);
    out.meta_num("checkpoint_every_ops", CHECKPOINT_EVERY);
    out.meta_num("checkpoints", pass.counter("wal.checkpoints"));
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rounds = rounds(args.seconds);
    if !args.trace {
        let (env, setup_time) = repeat_setup(SETUPS, || setup(args.seed))?;
        let pass = measure(env, rounds, false)?;
        account(&mut out, &pass)?;
        describe(&mut out, &pass);
        let (commits, reads) = (pass.commits(), pass.reads());
        out.metric("setup_s", setup_time.cpu_s, "s");
        out.meta_num("setup_wall_s", setup_time.wall_s);
        let ops = (commits.len() + reads.len()) as f64;
        out.metric("ops_per_cpu_s", ops / pass.cpu_s, "1/cpu-s");
        out.meta_num("ops_per_s", ops / pass.window_s);
        // Wire commits: the gated figure that sees a commit blocked on
        // fsync, a lost group commit or the other connection's lock.
        out.metric("p50_ms", unstolen_median(&commits, pass.steal), "ms");
        out.metric("peak_rss_mb", pass.peak_rss_mb, "MB");
        out.meta_num("commit_p50_ms", median(&commits));
        out.meta_num("read_p50_ms", median(&reads));
        out.meta_tail("commit_p99_ms", &commits, 0.99);
        out.meta_tail("read_p99_ms", &reads, 0.99);
        out.meta_num("disk_bytes_per_user_byte", disk_per_user_byte(&pass));
        return Ok(out);
    }
    // Counters come from the untraced pass; spans from the traced replay
    // of the same seeded input on a fresh set-up.
    let base = measure(setup(args.seed)?, rounds, false)?;
    account(&mut out, &base)?;
    let traced = measure(setup(args.seed)?, rounds, true)?;
    account(&mut out, &traced)?;
    describe(&mut out, &traced);
    let trace = &traced.trace;
    trace
        .write_jsonl(&trace_path("ingest"))
        .map_err(|e| format!("write spans: {e}"))?;
    let own = trace.self_ms();
    let med = |name: &str| own.get(name).map_or(0.0, |v| median(v));
    let embedded: Vec<(f64, f64)> = traced
        .logs
        .iter()
        .flat_map(|l| l.embedded.iter().copied())
        .collect();
    let overhead: Vec<f64> = traced
        .logs
        .iter()
        .flat_map(|l| l.overhead.iter().copied())
        .collect();
    out.metric(
        "trace.overhead_frac",
        median(&traced.commits()) / median(&base.commits()) - 1.0,
        "frac",
    );
    out.metric("ingest.unaccounted_frac", trace.unaccounted_frac(), "frac");
    out.metric("server.wire_overhead_ms", median(&overhead), "ms");
    out.metric("server.rejected", out.rejected as f64, "count");
    for (lo, hi, band) in BANDS {
        let in_band: Vec<f64> = embedded
            .iter()
            .filter(|(rows, _)| *rows >= lo as f64 && *rows < hi as f64)
            .map(|&(_, ms)| ms)
            .collect();
        out.metric(format!("core.insert_ms.{band}"), median(&in_band), "ms");
    }
    let xs: Vec<f64> = embedded.iter().map(|(rows, _)| rows / 1e3).collect();
    let ys: Vec<f64> = embedded.iter().map(|(_, ms)| ms * 1e3).collect();
    out.metric(
        "core.insert_slope_us_per_krow",
        linear_fit(&xs, &ys).0,
        "us/krow",
    );
    out.metric("core.snapshot_pin_us", med("core.snapshot_pin") * 1e3, "us");
    out.metric(
        "mvcc.reader_stalls",
        base.counter("mvcc.reader_stalls") as f64,
        "count",
    );
    out.metric(
        "core.result_cache.hit_frac",
        hit_frac(&base.counters, "cache.result"),
        "frac",
    );
    out.metric("query.analyze_ms", med("query.analyze"), "ms");
    out.metric("query.execute_ms.ingest_read", med("query.execute"), "ms");
    out.metric("storage.tail_seal_ms", med("storage.tail_seal"), "ms");
    out.metric("storage.row_groups", traced.hot_groups as f64, "count");
    out.metric(
        "storage.rows_per_group",
        traced.hot_rows as f64 / traced.hot_groups.max(1) as f64,
        "rows",
    );
    out.metric("storage.table_bytes", traced.hot_bytes as f64, "bytes");
    out.metric("storage.checkpoint_ms", traced.checkpoint_ms, "ms");
    out.metric(
        "storage.disk_bytes_per_user_byte",
        disk_per_user_byte(&base),
        "ratio",
    );
    out.metric(
        "storage.checkpoint_bytes",
        traced.checkpoint_bytes as f64,
        "bytes",
    );
    out.metric(
        "txn.fsyncs_per_commit",
        base.fsyncs as f64 / base.counter("wal.commits").max(1) as f64,
        "ratio",
    );
    let (bytes, payloads) = traced
        .logs
        .iter()
        .fold((0, 0), |(b, n), l| (b + l.payload_bytes, n + l.payloads));
    out.metric(
        "txn.wal_bytes_per_commit",
        bytes as f64 / payloads.max(1) as f64,
        "bytes",
    );
    out.metric("txn.wal_commit_ms", med("txn.wal.commit"), "ms");
    out.metric(
        "core.durability.encode_us",
        med("core.durability.encode") * 1e3,
        "us",
    );
    Ok(out)
}

/// Hits over lookups of the cache whose counters are `<scope>.hits` and
/// `<scope>.misses`.
pub fn hit_frac(counters: &BTreeMap<String, u64>, scope: &str) -> f64 {
    let get = |k: &str| counters.get(&format!("{scope}.{k}")).copied().unwrap_or(0) as f64;
    let (hits, misses) = (get("hits"), get("misses"));
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_is_a_function_of_the_seed() {
        assert_eq!(transcript(7, 300), transcript(7, 300));
        assert_ne!(transcript(7, 300), transcript(8, 300));
        let t = transcript(7, 3 * COMMITS_PER_ROUND);
        assert!(t.contains("events_1"), "requests move on to the next round");
    }
}
