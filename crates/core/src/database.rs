//! The `Database` handle: tables, indexes, query execution, and the
//! durable open/recover lifecycle.

use crate::cache::{self, CachedPlan, PlanCache, ResultCache};
use crate::durability::{
    self, DbOp, Durability, DurabilityOptions, RecoveredState, RecoveryReport, WAL_FILE,
};
use crate::error::{Error, Result};
use crate::hybrid::HybridCounters;
use crate::index::VectorIndexSpec;
use crate::session::{SearchRequest, Session};
use backbone_query::{Catalog, ExecOptions, LogicalPlan, MemCatalog, Metrics, Statement};
use backbone_storage::checkpoint::write_checkpoint;
use backbone_storage::{Counter, DataType, Field, RecordBatch, Schema, StorageError, Table, Value};
use backbone_text::InvertedIndex;
use backbone_txn::wal::{FileDevice, LogDevice, WalError};
use backbone_txn::{EpochClock, SnapshotGuard};
use backbone_vector::{Dataset, VectorIndex};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long acquiring a snapshot pin may take before it counts as a reader
/// stall (`mvcc.reader_stalls`). Pinning is a lock-free load plus one brief
/// mutex, so anything past this means a reader queued behind a writer.
const READER_STALL_THRESHOLD: Duration = Duration::from_millis(1);

/// An embedded multi-workload database.
///
/// Rows are addressed by ordinal (0-based insertion order); text and vector
/// indexes use the same ordinals as document/vector ids, which is what lets
/// the hybrid engine intersect the three worlds without any id mapping.
///
/// Constructed in-memory ([`Database::open_in_memory`]) or durable
/// ([`Database::open`]): a durable database write-ahead-logs every
/// `create_table`/`insert`, checkpoints periodically, and recovers its
/// state on reopen — committed data survives a crash, and a torn log tail
/// is truncated instead of panicking.
///
/// Every method returns the unified [`Error`]; lower-layer causes stay
/// reachable through [`std::error::Error::source`].
///
/// `Database` is a cheap, cloneable handle: all state lives behind one
/// shared `Arc`, so handles (and the owned [`Session`]s minted from them)
/// can move freely across threads — the server hands every connection its
/// own session. The WAL flush-on-shutdown runs when the *last* handle
/// drops.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

/// The shared state every [`Database`] handle points at.
struct DbInner {
    /// The only copy of every table: each commit publishes a new
    /// `Arc<Table>` snapshot here, and every reader goes through it.
    catalog: MemCatalog,
    /// Serializes commits: epoch reservation, WAL append order and catalog
    /// registration order all follow the order commits take this lock.
    commit: Mutex<()>,
    text_indexes: RwLock<HashMap<String, Arc<InvertedIndex>>>,
    vector_indexes: RwLock<HashMap<String, Arc<dyn VectorIndex>>>,
    exec: ExecOptions,
    metrics: Metrics,
    durability: Option<Durability>,
    recovery: Option<RecoveryReport>,
    /// Commit epochs + snapshot pins — the same clock type the MVCC engine
    /// uses, here stamping every relational commit so readers can pin a
    /// consistent prefix of each table.
    clock: Arc<EpochClock>,
    /// Fingerprint-keyed cache of optimized logical plans (see [`cache`]).
    plan_cache: PlanCache,
    /// Epoch-tagged cache of read-only result batches (see [`cache`]).
    result_cache: ResultCache,
    /// The `hybrid.*` counters, resolved once.
    hybrid: HybridCounters,
    /// `wal.commits`, `mvcc.snapshots_pinned` and `mvcc.reader_stalls`,
    /// resolved once: every commit and every pinned query ticks one.
    commits: Counter,
    snapshots_pinned: Counter,
    reader_stalls: Counter,
}

impl DbInner {
    fn with_options(mut exec: ExecOptions) -> DbInner {
        let metrics = exec.metrics.get_or_insert_with(Metrics::new).clone();
        DbInner {
            catalog: MemCatalog::new(),
            commit: Mutex::new(()),
            text_indexes: RwLock::new(HashMap::new()),
            vector_indexes: RwLock::new(HashMap::new()),
            exec,
            metrics: metrics.clone(),
            durability: None,
            recovery: None,
            clock: Arc::new(EpochClock::new()),
            plan_cache: PlanCache::new(metrics.clone()),
            hybrid: HybridCounters::resolve(&metrics),
            commits: metrics.counter("wal.commits"),
            snapshots_pinned: metrics.counter("mvcc.snapshots_pinned"),
            reader_stalls: metrics.counter("mvcc.reader_stalls"),
            result_cache: ResultCache::new(cache::RESULT_CACHE_BYTES, metrics),
        }
    }
}

/// Apply a recovered op to the replay map without re-logging it. Nothing is
/// published here: recovery registers every table once, after the whole log
/// has replayed.
fn replay_op(tables: &mut HashMap<String, Table>, op: DbOp) -> Result<()> {
    match op {
        DbOp::CreateTable { name, schema } => match tables.entry(name) {
            Entry::Occupied(e) => Err(Error::TableExists(e.key().clone())),
            Entry::Vacant(e) => {
                e.insert(Table::new(schema));
                Ok(())
            }
        },
        DbOp::Insert { table, rows } => Ok(tables
            .get_mut(&table)
            .ok_or(Error::TableNotFound(table))?
            .append_rows(&rows)?),
    }
}

impl Drop for DbInner {
    fn drop(&mut self) {
        // Best-effort: push any policy-deferred WAL records to disk when the
        // last handle drops. A crash (the whole point of the WAL) skips this.
        if let Some(d) = &self.durability {
            let _ = d.wal().flush_all();
        }
    }
}

impl Database {
    /// An empty in-memory database with default execution options.
    pub fn new() -> Database {
        Database::with_options(ExecOptions::default())
    }

    /// An empty in-memory database — nothing is persisted. Alias of
    /// [`Database::new`] that reads naturally next to [`Database::open`].
    pub fn open_in_memory() -> Database {
        Database::new()
    }

    /// An empty database with custom execution options (parallelism,
    /// optimizer rules). If the options carry no metrics registry, the
    /// database creates one, so [`Database::metrics`] is always live.
    pub fn with_options(exec: ExecOptions) -> Database {
        Database {
            inner: Arc::new(DbInner::with_options(exec)),
        }
    }

    /// Open (or create) a durable database in directory `dir` with default
    /// durability options (group-commit fsync, checkpoint every 1024 ops).
    ///
    /// Recovery runs before this returns: the newest checkpoint is loaded,
    /// the WAL tail is replayed on top of it, and a torn or corrupt tail is
    /// truncated at the last valid record. [`Database::recovery_report`]
    /// says what was found.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(dir, DurabilityOptions::default())
    }

    /// [`Database::open`] with explicit [`DurabilityOptions`]: creates `dir`
    /// and opens the log on `dir/wal.log`.
    pub fn open_with(dir: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Database> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Storage(StorageError::Io(format!("create db dir: {e}"))))?;
        let device = FileDevice::open(dir.join(WAL_FILE))
            .map_err(|e| Error::Wal(WalError::Device(e.to_string())))?;
        Database::open_with_device(dir, Box::new(device), opts)
    }

    /// Open a durable database whose WAL writes go through a caller-supplied
    /// [`LogDevice`] — the fault-injection entry point: pass a
    /// [`backbone_txn::fault::FaultFile`] to crash the log deterministically
    /// mid-run, then reopen the directory with [`Database::open`] to
    /// exercise recovery. The checkpoint file lives in `dir`.
    pub fn open_with_device(
        dir: impl AsRef<Path>,
        device: Box<dyn LogDevice>,
        opts: DurabilityOptions,
    ) -> Result<Database> {
        // The registry is created before recovery so a paged open's
        // buffer-pool traffic lands in the database's own metrics.
        let metrics = Metrics::new();
        let (durability, state) = Durability::open(dir.as_ref(), device, opts, &metrics)?;
        Database::recover(durability, state, metrics)
    }

    /// Rebuild in-memory state from a checkpoint plus the WAL tail.
    fn recover(
        durability: Durability,
        state: RecoveredState,
        metrics: Metrics,
    ) -> Result<Database> {
        let mut inner = DbInner::with_options(ExecOptions::default().with_metrics(metrics));
        let mut report = RecoveryReport {
            wal_bytes_dropped: state.replay.bytes_dropped,
            ..RecoveryReport::default()
        };
        let mut tables = HashMap::new();
        if let Some(ckpt) = state.checkpoint {
            report.checkpoint_lsn = ckpt.lsn;
            report.checkpoint_tables = ckpt.tables.len();
            tables.extend(ckpt.tables);
        }
        // Replay only the log suffix the checkpoint does not cover; records
        // at or below its LSN are already in the snapshot (this is what
        // keeps replay idempotent even if a crash separated the checkpoint
        // rename from the log truncation).
        for rec in &state.replay.records {
            if rec.lsn <= report.checkpoint_lsn {
                continue;
            }
            replay_op(&mut tables, durability::decode_op(&rec.payload)?)?;
            report.replayed_records += 1;
        }
        // Everything recovered is committed: stamp it at epoch 0, visible
        // to every future snapshot (the clock restarts at 0 per process —
        // epochs order commits within a run, they are not persistent LSNs).
        for (name, mut t) in tables {
            t.record_commit(0, 0);
            inner.catalog.register_arc(name, Arc::new(t));
        }
        inner
            .metrics
            .counter("wal.recovered_records")
            .add(report.replayed_records as u64);
        inner
            .metrics
            .counter("wal.bytes_dropped")
            .add(report.wal_bytes_dropped);
        inner.durability = Some(durability);
        inner.recovery = Some(report);
        let db = Database {
            inner: Arc::new(inner),
        };
        db.record_encoding_stats();
        Ok(db)
    }

    /// The shared metrics registry: operator counters (`op.*`), buffer-pool
    /// traffic (`bufferpool.*` when storage is wired to the same registry),
    /// and hybrid-search stage timings (`hybrid.*`) all land here.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Create an empty table. On a durable database the operation is
    /// write-ahead-logged and acknowledged only once durable under the
    /// configured fsync policy.
    pub fn create_table(&self, name: impl Into<String>, schema: Arc<Schema>) -> Result<()> {
        let name = name.into();
        let record = self
            .inner
            .durability
            .as_ref()
            .map(|_| durability::encode_create(&name, &schema));
        let (epoch, lsn) = {
            let _commit = self.inner.commit.lock();
            if self.inner.catalog.table(&name).is_some() {
                return Err(Error::TableExists(name));
            }
            let lsn = self.log(record)?;
            // The (empty) table carries its creation epoch, so snapshots
            // pinned before this point keep seeing nothing even after later
            // inserts add marks.
            (self.publish_commit(&name, Table::new(schema)), lsn)
        };
        self.commit_epoch(&name, epoch, lsn)
    }

    /// Register a pre-built table (e.g. from a workload generator). The
    /// table is stamped committed at the currently published epoch: visible
    /// whole to every new snapshot, like a bulk load that just committed.
    ///
    /// On a durable database the table is durable before it is visible: a
    /// bulk load is not write-ahead-logged, so registration writes a
    /// checkpoint of the published tables plus this one at the appended WAL
    /// position, under the checkpoint lock and then the commit lock (the
    /// order [`Database::checkpoint`] takes them), and publishes the table
    /// only after that write. On an error nothing is published; a retry is
    /// safe, because registration replaces the table.
    pub fn register_table(&self, name: impl Into<String>, mut table: Table) -> Result<()> {
        let name = name.into();
        table.flush()?;
        let durability = self.inner.durability.as_ref();
        let _serialize = durability.map(|d| d.checkpoint_lock().lock());
        {
            let _commit = self.inner.commit.lock();
            table.record_commit(self.inner.clock.published(), self.inner.clock.horizon());
            let table = Arc::new(table);
            if let Some(d) = durability {
                let mut snapshot = self.tables();
                snapshot.retain(|(n, _)| *n != name);
                snapshot.push((name.clone(), table.clone()));
                self.persist(d, &snapshot, d.wal().appended_lsn())?;
            }
            self.inner.catalog.register_arc(&name, table);
        }
        // Wholesale replacement: even if the row count happens to match the
        // old content, the generation bump retires every cached result.
        self.inner.result_cache.invalidate_table(&name);
        Ok(())
    }

    /// Append rows to a table by publishing a new catalog snapshot that
    /// holds them.
    ///
    /// Under the commit mutex the insert clones the table's published
    /// snapshot, appends to the clone, logs, and registers the clone. The
    /// rows land in the columnar tail, which seals into a row group only at
    /// the group size; the clone shares sealed groups and frozen tail
    /// chunks with the snapshot (`Arc`, not copies), so a commit costs
    /// O(rows inserted), not O(tail). Registration order equals commit
    /// order, so concurrent inserters never regress the catalog, and
    /// readers never wait: they query the previously published snapshot
    /// throughout.
    ///
    /// Nothing is registered unless the commit validates and, on a durable
    /// database, its WAL append succeeds: a bad row or a dead log leaves
    /// every reader, checkpoint and recovery exactly as before. The call
    /// returns only once the record is durable under the fsync policy —
    /// concurrent inserters share fsyncs via group commit. The commit epoch
    /// is published only after the durability ack, so snapshot readers
    /// never observe an unacknowledged write.
    pub fn insert(&self, name: &str, rows: Vec<Vec<Value>>) -> Result<()> {
        let record = self
            .inner
            .durability
            .as_ref()
            .map(|_| durability::encode_insert(name, &rows));
        let (epoch, lsn) = {
            let _commit = self.inner.commit.lock();
            let mut table = Table::clone(&*self.table(name)?);
            table.append_rows(&rows)?;
            let lsn = self.log(record)?;
            (self.publish_commit(name, table), lsn)
        };
        self.commit_epoch(name, epoch, lsn)
    }

    /// Append a commit's WAL record, if the database is durable. Call under
    /// the commit mutex, so log order equals commit order.
    fn log(&self, record: Option<Vec<u8>>) -> Result<Option<u64>> {
        match (&self.inner.durability, record) {
            (Some(d), Some(rec)) => Ok(Some(d.log(&rec)?)),
            _ => Ok(None),
        }
    }

    /// Stamp `table` with the next epoch and register it as `name`'s
    /// snapshot. Call under the commit mutex, after the WAL append
    /// succeeded, so epoch order equals log order. Returns the epoch for
    /// [`Database::commit_epoch`] to publish.
    fn publish_commit(&self, name: &str, mut table: Table) -> u64 {
        let epoch = self.inner.clock.reserve();
        table.record_commit(epoch, self.inner.clock.horizon());
        self.inner.catalog.register_arc(name, Arc::new(table));
        epoch
    }

    /// Wait for a commit's durability, publish its epoch, and run the
    /// checkpoint cadence. Called outside every lock so group commit can
    /// batch concurrent waiters into shared fsyncs.
    ///
    /// Publication happens *after* the durability wait: a snapshot reader
    /// can never pin an epoch whose write was not acknowledged. Group
    /// commit acks whole batches, so publishes may arrive out of epoch
    /// order — the clock's `fetch_max` handles that (every epoch below a
    /// durable epoch is durable, because epochs are reserved in log order).
    /// When the durability wait fails, the record was appended and the
    /// snapshot registered, so the epoch is still published — but the
    /// commit is not acknowledged to the caller.
    /// After publication the touched table's cached results are invalidated:
    /// the generation bump makes every pre-commit result-cache key
    /// unreachable (keys embed the generation), and the indexed entries are
    /// reclaimed eagerly. Correctness never depends on this timing — a
    /// reader pinned below `epoch` still hits its own epoch-keyed entries.
    fn commit_epoch(&self, table: &str, epoch: u64, lsn: Option<u64>) -> Result<()> {
        let waited = match lsn {
            Some(lsn) => {
                let d = self
                    .inner
                    .durability
                    .as_ref()
                    .expect("lsn implies durability");
                d.wait(lsn)
            }
            None => Ok(()),
        };
        self.inner.clock.publish(epoch);
        self.inner.result_cache.invalidate_table(table);
        waited?;
        self.inner.commits.incr();
        if let Some(d) = &self.inner.durability {
            // The commit is durable and visible, so a failed checkpoint is
            // not its error: it is counted, the cadence restarts as after a
            // success, and the next due checkpoint retries.
            if d.checkpoint_due() && self.checkpoint().is_err() {
                d.checkpoint_done();
                self.inner.metrics.counter("wal.checkpoint_failures").incr();
            }
        }
        Ok(())
    }

    /// Pin the current snapshot: queries planned against the returned
    /// guard's epoch read a stable committed prefix of every table for as
    /// long as the guard lives. Pinning never blocks on writers; if it ever
    /// takes longer than a millisecond the `mvcc.reader_stalls` counter
    /// records it (the serve bench gates this at ~0).
    pub fn pin_snapshot(&self) -> SnapshotGuard {
        let t0 = Instant::now();
        let guard = self.inner.clock.pin();
        self.inner.snapshots_pinned.incr();
        if t0.elapsed() >= READER_STALL_THRESHOLD {
            self.inner.reader_stalls.incr();
        }
        guard
    }

    /// Options for one query execution: the caller's options with a pinned
    /// snapshot epoch filled in (unless the caller pinned one explicitly).
    /// The guard must stay alive for the duration of the query — it holds
    /// the GC horizon at or below the pinned epoch.
    fn pinned_opts(&self, opts: &ExecOptions) -> (ExecOptions, Option<SnapshotGuard>) {
        if opts.snapshot_epoch.is_some() {
            return (opts.clone(), None);
        }
        let guard = self.pin_snapshot();
        let mut pinned = opts.clone();
        pinned.snapshot_epoch = Some(guard.epoch());
        (pinned, Some(guard))
    }

    /// Take a checkpoint now: snapshot every table to disk atomically,
    /// stamp it with the current WAL position, and truncate the log through
    /// that position. A no-op on in-memory databases. Unsealed tails are
    /// written as tails and reopen as tails: a checkpoint never seals.
    ///
    /// Safe against concurrent writers: the catalog snapshots and the WAL
    /// position are read together under the commit mutex, and a commit
    /// registers exactly when its record is appended, so the LSN covers
    /// exactly the rows in the snapshots; anything logged after it survives
    /// truncation and replays on top of this checkpoint.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(d) = &self.inner.durability else {
            return Ok(());
        };
        let _serialize = d.checkpoint_lock().lock();
        let (snapshot, lsn) = {
            let _commit = self.inner.commit.lock();
            (self.tables(), d.wal().appended_lsn())
        };
        self.persist(d, &snapshot, lsn)?;
        self.record_encoding_stats();
        Ok(())
    }

    /// Write `snapshot` as the checkpoint at `lsn`, then truncate the log
    /// through `lsn`. Call under the checkpoint lock, with `lsn` read
    /// together with the snapshot under the commit mutex.
    fn persist(&self, d: &Durability, snapshot: &[(String, Arc<Table>)], lsn: u64) -> Result<()> {
        let refs: Vec<(&str, &Table)> = snapshot.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
        write_checkpoint(d.checkpoint_path(), lsn, &refs)?;
        d.wal().truncate_through(lsn)?;
        d.checkpoint_done();
        self.inner.metrics.counter("wal.checkpoints").incr();
        if let Ok(meta) = std::fs::metadata(d.checkpoint_path()) {
            self.inner
                .metrics
                .counter("storage.encoding.checkpoint_bytes")
                .set(meta.len());
        }
        Ok(())
    }

    /// Refresh the `storage.encoding.*` gauges from sealed table state:
    /// how many columns (and rows) are dictionary- or integer-encoded right
    /// now, and how many row groups live on disk behind the buffer pool.
    fn record_encoding_stats(&self) {
        let (mut dict_cols, mut dict_rows) = (0u64, 0u64);
        let (mut int_cols, mut int_rows) = (0u64, 0u64);
        let mut paged_groups = 0u64;
        for (_, t) in self.tables() {
            let (c, r) = t.encoding_stats();
            dict_cols += c as u64;
            dict_rows += r as u64;
            let (c, r) = t.int_encoding_stats();
            int_cols += c as u64;
            int_rows += r as u64;
            paged_groups += t.num_paged_groups() as u64;
        }
        for (name, value) in [
            ("storage.encoding.dict_columns", dict_cols),
            ("storage.encoding.dict_rows", dict_rows),
            ("storage.encoding.int_columns", int_cols),
            ("storage.encoding.int_rows", int_rows),
            ("storage.pager.paged_groups", paged_groups),
        ] {
            self.inner.metrics.counter(name).set(value);
        }
    }

    /// Force every logged op to stable storage regardless of fsync policy
    /// (the durability point under [`FsyncPolicy::Never`]). A no-op on
    /// in-memory databases.
    ///
    /// [`FsyncPolicy::Never`]: backbone_txn::wal::FsyncPolicy::Never
    pub fn wal_sync(&self) -> Result<()> {
        if let Some(d) = &self.inner.durability {
            d.wal().flush_all()?;
        }
        Ok(())
    }

    /// What recovery found when this database was opened (`None` for
    /// in-memory databases).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.inner.recovery.as_ref()
    }

    /// Number of WAL fsyncs performed since open (`None` in-memory). Group
    /// commit makes this grow slower than the commit count under load.
    pub fn wal_fsyncs(&self) -> Option<u64> {
        self.inner.durability.as_ref().map(|d| d.wal().fsyncs())
    }

    /// Start an interactive [`Session`]: an owned handle carrying its own
    /// execution options that routes queries back to this database. Owned
    /// means it can be moved to another thread (the server gives every
    /// connection one); the database state stays shared behind the `Arc`.
    pub fn session(&self) -> Session {
        Session::new(self.clone())
    }

    /// Start building a hybrid search against `table` (relational filter +
    /// keyword + vector in one request). Shorthand for
    /// [`Session::search`] on a default session.
    pub fn search(&self, table: impl Into<String>) -> SearchRequest<'_> {
        SearchRequest::new(self, table.into())
    }

    /// Start a declarative query against a table.
    pub fn query(&self, table: &str) -> Result<LogicalPlan> {
        Ok(LogicalPlan::scan(table, &self.inner.catalog)?)
    }

    /// Execute a plan to a single result batch.
    pub fn execute(&self, plan: LogicalPlan) -> Result<RecordBatch> {
        self.execute_with(plan, &self.inner.exec)
    }

    /// Parse and execute a SQL statement: a `SELECT`, or `EXPLAIN [ANALYZE]
    /// SELECT ...` — the latter returns the rendered plan report as a
    /// single-column (`plan`, one row per line) batch, like mainstream
    /// engines do.
    ///
    /// SQL and the builder API lower into the same logical algebra, so they
    /// optimize and execute identically.
    pub fn sql(&self, query: &str) -> Result<RecordBatch> {
        self.sql_with(query, &self.inner.exec)
    }

    /// [`Database::sql`] with explicit execution options (the [`Session`]
    /// routing point).
    ///
    /// This is the plan-cache fast path: when the options allow it, the
    /// statement is fingerprinted (normalized text x catalog plan version x
    /// rule selection) and a hit skips parsing and optimization entirely.
    /// `EXPLAIN` statements never take the fast path — they must render a
    /// report, not replay rows — but they probe the same fingerprints to
    /// annotate the report with `plan: cached` / `result: cached@epoch N`.
    pub fn sql_with(&self, query: &str, opts: &ExecOptions) -> Result<RecordBatch> {
        let fp = if opts.plan_cache || opts.result_cache {
            self.statement_fingerprint(query, opts)
        } else {
            None
        };
        if opts.plan_cache {
            if let Some(info) = &fp {
                if !info.explain {
                    if let Some(cached) = self.inner.plan_cache.get(info.fp) {
                        return self.execute_cached(&cached, &[], opts);
                    }
                }
            }
        }
        match backbone_query::parse_statement(query, &self.inner.catalog)? {
            Statement::Select(plan) => match &fp {
                Some(info) => {
                    let cached = self.optimize_into_cache(info.fp, plan, opts)?;
                    self.execute_cached(&cached, &[], opts)
                }
                None => self.execute_with(plan, opts),
            },
            Statement::Explain {
                plan,
                analyze: false,
            } => {
                let mut report = self.explain_with(&plan, opts)?;
                if let Some(info) = &fp {
                    self.annotate_plan_cached(&mut report, info.fp);
                }
                report_batch(&report)
            }
            Statement::Explain {
                plan,
                analyze: true,
            } => {
                let (opts_pinned, _pin) = self.pinned_opts(opts);
                let (mut report, _rows) =
                    backbone_query::explain_analyze(&plan, &self.inner.catalog, &opts_pinned)
                        .map_err(Error::from)?;
                if let Some(info) = &fp {
                    self.annotate_plan_cached(&mut report, info.fp);
                    let epoch = opts_pinned.snapshot_epoch.unwrap_or_default();
                    let line = match self.table_versions(&plan.referenced_tables(), epoch) {
                        Some(versions) if opts.result_cache => {
                            let key = cache::result_key(info.fp, opts.parallelism, &[], &versions);
                            if self.inner.result_cache.contains(key) {
                                format!("result: cached@epoch {epoch}")
                            } else {
                                "result: fresh".to_string()
                            }
                        }
                        _ => "result: fresh".to_string(),
                    };
                    report.push_str(&line);
                    report.push('\n');
                }
                report_batch(&report)
            }
        }
    }

    /// Append the `plan: cached|fresh` line to an EXPLAIN report. Probes the
    /// cache without counting a hit or miss, so EXPLAIN never distorts the
    /// serving hit rate.
    fn annotate_plan_cached(&self, report: &mut String, fp: u64) {
        let state = if self.inner.plan_cache.contains(fp) {
            "cached"
        } else {
            "fresh"
        };
        report.push_str(&format!("plan: {state}\n"));
    }

    /// Fingerprint a statement under these options, or `None` when the text
    /// does not even lex (the parse below will produce the real error). The
    /// leading `EXPLAIN [ANALYZE]` words are stripped so an EXPLAIN probes
    /// the fingerprint of the statement it wraps.
    fn statement_fingerprint(&self, query: &str, opts: &ExecOptions) -> Option<FingerprintInfo> {
        let normalized = backbone_query::normalize(query).ok()?;
        let (body, explain) = strip_explain_prefix(&normalized);
        Some(FingerprintInfo {
            fp: cache::fingerprint(body, self.inner.catalog.plan_version(), &opts.rules),
            explain,
        })
    }

    /// Optimize a parsed SELECT and (when the options allow) publish it in
    /// the plan cache under `fp`.
    fn optimize_into_cache(
        &self,
        fp: u64,
        plan: LogicalPlan,
        opts: &ExecOptions,
    ) -> Result<Arc<CachedPlan>> {
        let optimized = backbone_query::optimize_plan(plan, &self.inner.catalog, opts)?;
        let cached = Arc::new(CachedPlan {
            tables: optimized.referenced_tables(),
            params: optimized.param_count(),
            plan: optimized,
            fingerprint: fp,
        });
        if opts.plan_cache {
            self.inner.plan_cache.insert(cached.clone());
        }
        Ok(cached)
    }

    /// Execute an already-optimized plan with `params` bound, serving from
    /// (and feeding) the result cache when the options allow it.
    ///
    /// The result-cache key embeds, per table the plan reads, the pair
    /// `(generation, visible_rows_at(pinned epoch))` — the complete content
    /// version of an append-only table at that snapshot. A hit therefore
    /// proves the cached bytes are exactly what executing at this epoch
    /// would produce; invalidation timing never matters for correctness.
    pub(crate) fn execute_cached(
        &self,
        cached: &CachedPlan,
        params: &[Value],
        opts: &ExecOptions,
    ) -> Result<RecordBatch> {
        let (opts, _pin) = self.pinned_opts(opts);
        let key = if opts.result_cache {
            let epoch = opts
                .snapshot_epoch
                .unwrap_or_else(|| self.inner.clock.published());
            self.table_versions(&cached.tables, epoch).map(|versions| {
                let gens = versions.iter().map(|&(g, _)| g).collect::<Vec<_>>();
                (
                    cache::result_key(cached.fingerprint, opts.parallelism, params, &versions),
                    gens,
                )
            })
        } else {
            None
        };
        if let Some((k, _)) = &key {
            if let Some(hit) = self.inner.result_cache.get(*k) {
                return Ok(hit);
            }
        }
        let bound = cached.plan.bind_params(params)?;
        let batch = backbone_query::execute_optimized(&bound, &self.inner.catalog, &opts)?;
        if let Some((k, gens)) = &key {
            self.inner
                .result_cache
                .insert(*k, &batch, &cached.tables, gens);
        }
        Ok(batch)
    }

    /// The `(generation, visible_rows_at(epoch))` content version of each
    /// named table, or `None` if any is missing from the catalog (then the
    /// query is uncacheable — let execution produce the real error).
    fn table_versions(&self, tables: &[String], epoch: u64) -> Option<Vec<(u64, u64)>> {
        let gens = self.inner.result_cache.generations(tables);
        tables
            .iter()
            .zip(gens)
            .map(|(name, g)| {
                let t = self.inner.catalog.table(name)?;
                Some((g, t.visible_rows_at(epoch) as u64))
            })
            .collect()
    }

    /// Parse and optimize a statement for repeated execution, reusing the
    /// plan cache when possible. Only `SELECT` (with optional `$n`
    /// placeholders) can be prepared. The serving entry point is
    /// [`Session::prepare`], which wraps the returned plan in a handle.
    pub(crate) fn prepare_statement(
        &self,
        query: &str,
        opts: &ExecOptions,
    ) -> Result<Arc<CachedPlan>> {
        let fp = self.statement_fingerprint(query, opts);
        if opts.plan_cache {
            if let Some(info) = &fp {
                if !info.explain {
                    if let Some(cached) = self.inner.plan_cache.get(info.fp) {
                        return Ok(cached);
                    }
                }
            }
        }
        match backbone_query::parse_statement(query, &self.inner.catalog)? {
            Statement::Select(plan) => {
                // `fp` is Some whenever the statement lexed, which parsing
                // just proved; 0 would only key an unreachable result entry.
                let fp = fp.map(|i| i.fp).unwrap_or(0);
                self.optimize_into_cache(fp, plan, opts)
            }
            Statement::Explain { .. } => Err(Error::InvalidInput(
                "only SELECT statements can be prepared".into(),
            )),
        }
    }

    /// Execute with explicit options (e.g. parallel scans, optimizer off).
    ///
    /// Unless the options already carry a `snapshot_epoch`, a snapshot is
    /// pinned here for the duration of the query: scans read each table's
    /// committed prefix as of this instant, untouched by concurrent
    /// inserts — readers never block writers and never see a torn batch.
    pub fn execute_with(&self, plan: LogicalPlan, opts: &ExecOptions) -> Result<RecordBatch> {
        let (opts, _pin) = self.pinned_opts(opts);
        Ok(backbone_query::execute(plan, &self.inner.catalog, &opts)?)
    }

    /// EXPLAIN a plan: logical and optimized forms with estimates.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String> {
        self.explain_with(plan, &self.inner.exec)
    }

    /// [`Database::explain`] with explicit execution options.
    pub fn explain_with(&self, plan: &LogicalPlan, opts: &ExecOptions) -> Result<String> {
        Ok(backbone_query::executor::explain(
            plan,
            &self.inner.catalog,
            opts,
        )?)
    }

    /// EXPLAIN ANALYZE a plan: run it instrumented and return the physical
    /// plan annotated with measured per-operator rows-in/rows-out, batch
    /// counts, and elapsed time, alongside the query result. Operator
    /// totals also accumulate into [`Database::metrics`] (`op.*`).
    ///
    /// Takes `&LogicalPlan`, same as [`Database::explain`] — the two share
    /// a signature so callers can explain and then analyze the same plan
    /// without cloning at the call site.
    pub fn explain_analyze(&self, plan: &LogicalPlan) -> Result<(String, RecordBatch)> {
        self.explain_analyze_with(plan, &self.inner.exec)
    }

    /// [`Database::explain_analyze`] with explicit execution options.
    /// Pins a snapshot exactly like [`Database::execute_with`].
    pub fn explain_analyze_with(
        &self,
        plan: &LogicalPlan,
        opts: &ExecOptions,
    ) -> Result<(String, RecordBatch)> {
        let (opts, _pin) = self.pinned_opts(opts);
        Ok(backbone_query::explain_analyze(
            plan,
            &self.inner.catalog,
            &opts,
        )?)
    }

    /// The database's baseline execution options (sessions start from a
    /// clone of these).
    pub(crate) fn exec_options(&self) -> &ExecOptions {
        &self.inner.exec
    }

    /// The underlying catalog (for the query layer's free functions).
    pub fn catalog(&self) -> &MemCatalog {
        &self.inner.catalog
    }

    /// Rows of a table visible at the published epoch — what a fresh
    /// `SELECT COUNT(*)` returns.
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.pinned_snapshot(table).ok().map(|(_, rows)| rows)
    }

    /// `table`'s published snapshot.
    fn table(&self, table: &str) -> Result<Arc<Table>> {
        self.inner
            .catalog
            .table(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))
    }

    /// Every table's published snapshot, by name.
    fn tables(&self) -> Vec<(String, Arc<Table>)> {
        let catalog = &self.inner.catalog;
        catalog
            .table_names()
            .into_iter()
            .filter_map(|name| {
                let t = catalog.table(&name)?;
                Some((name, t))
            })
            .collect()
    }

    /// Build a full-text index over a UTF-8 column of `table`. Document ids
    /// are row ordinals. Sibling of
    /// [`create_vector_index`](Database::create_vector_index), which ingests
    /// external per-row data the way
    /// [`create_text_index_from`](Database::create_text_index_from) does.
    ///
    /// Reads the published snapshot at a pinned epoch: it neither blocks
    /// writers nor seals the table's tail.
    pub fn create_text_index(&self, table: &str, column: &str) -> Result<()> {
        let (snapshot, visible) = self.pinned_snapshot(table)?;
        self.install_text_index(table, visible, |index| {
            let mut doc = 0u64;
            for batch in snapshot.prefix_batches(visible) {
                let batch = batch?;
                let col = batch.column_by_name(column)?;
                // Dictionary-encoded columns decode here: the inverted index
                // wants per-row text, not code space.
                let flat = col.decoded();
                let texts = flat.as_ref().unwrap_or_else(|| col.as_ref()).utf8_data()?;
                for text in texts {
                    index.add_document(doc, text);
                    doc += 1;
                }
            }
            Ok(())
        })
    }

    /// Build a full-text index for `table` from external documents (one per
    /// row ordinal) — for text that lives outside the relational schema,
    /// e.g. long descriptions kept in an object store.
    ///
    /// The table must exist and the document count must equal its row count;
    /// anything else would silently break the ordinal alignment the hybrid
    /// engine depends on.
    pub fn create_text_index_from<'a>(
        &self,
        table: &str,
        texts: impl Iterator<Item = &'a str>,
    ) -> Result<()> {
        let rows = self
            .row_count(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))?;
        self.install_text_index(table, rows, |index| {
            for (doc, text) in texts.enumerate() {
                index.add_document(doc as u64, text);
            }
            Ok(())
        })
    }

    /// The one text-index builder: `fill` adds documents by row ordinal, the
    /// result must hold exactly the `rows` the caller pinned, and only then
    /// is it published for `table`.
    fn install_text_index(
        &self,
        table: &str,
        rows: usize,
        fill: impl FnOnce(&mut InvertedIndex) -> Result<()>,
    ) -> Result<()> {
        let mut index = InvertedIndex::new();
        fill(&mut index)?;
        if index.num_docs() != rows {
            return Err(Error::IndexCardinality {
                table: table.to_string(),
                rows,
                entries: index.num_docs(),
            });
        }
        self.inner
            .text_indexes
            .write()
            .insert(table.to_string(), Arc::new(index));
        Ok(())
    }

    /// Attach embedding vectors to a table's rows (slot i = row ordinal i)
    /// and build the vector index described by `spec` — algorithm, metric,
    /// and tuning knobs all travel in the typed [`VectorIndexSpec`].
    pub fn create_vector_index(
        &self,
        table: &str,
        vectors: Dataset,
        spec: VectorIndexSpec,
    ) -> Result<()> {
        let rows = self
            .row_count(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))?;
        if vectors.len() != rows {
            return Err(Error::IndexCardinality {
                table: table.to_string(),
                rows,
                entries: vectors.len(),
            });
        }
        self.inner
            .vector_indexes
            .write()
            .insert(table.to_string(), spec.build(vectors));
        Ok(())
    }

    /// The text index of a table, if built.
    pub fn text_index(&self, table: &str) -> Option<Arc<InvertedIndex>> {
        self.inner.text_indexes.read().get(table).cloned()
    }

    /// The vector index of a table, if built.
    pub fn vector_index(&self, table: &str) -> Option<Arc<dyn VectorIndex>> {
        self.inner.vector_indexes.read().get(table).cloned()
    }

    /// `table`'s published snapshot and its row count visible at a freshly
    /// pinned epoch. The snapshot is immutable, so the pin can drop once
    /// the count is read.
    /// The `hybrid.*` counters of [`Database::metrics`].
    pub(crate) fn hybrid_counters(&self) -> &HybridCounters {
        &self.inner.hybrid
    }

    pub(crate) fn pinned_snapshot(&self, table: &str) -> Result<(Arc<Table>, usize)> {
        let pin = self.pin_snapshot();
        let snapshot = self.table(table)?;
        let visible = snapshot.visible_rows_at(pin.epoch());
        Ok((snapshot, visible))
    }

    /// Names of registered tables.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.table_names()
    }
}

/// What fingerprinting learned about a statement before parsing it.
struct FingerprintInfo {
    /// Fingerprint of the statement body (EXPLAIN prefix stripped).
    fp: u64,
    /// Whether the statement is an `EXPLAIN [ANALYZE]` wrapper — those must
    /// never be served from the plan-cache fast path (they render a report).
    explain: bool,
}

/// Split a normalized statement into its body and whether it carried an
/// `EXPLAIN [ANALYZE]` prefix. Normalization already single-spaced the text.
fn strip_explain_prefix(normalized: &str) -> (&str, bool) {
    let Some((head, rest)) = normalized.split_once(' ') else {
        return (normalized, false);
    };
    if !head.eq_ignore_ascii_case("EXPLAIN") {
        return (normalized, false);
    }
    match rest.split_once(' ') {
        Some((w, body)) if w.eq_ignore_ascii_case("ANALYZE") => (body, true),
        _ => (rest, true),
    }
}

/// Render a plan report as a single-column batch, one row per line.
fn report_batch(report: &str) -> Result<RecordBatch> {
    let schema = Schema::new(vec![Field::new("plan", DataType::Utf8)]);
    let rows: Vec<Vec<Value>> = report.lines().map(|l| vec![Value::str(l)]).collect();
    Ok(RecordBatch::from_rows(schema, &rows)?)
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_query::{col, lit};
    use backbone_storage::{DataType, Field};
    use backbone_vector::Metric;

    fn db_with_table() -> Database {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("txt", DataType::Utf8),
            ]),
        )
        .unwrap();
        db.insert(
            "t",
            vec![
                vec![Value::Int(1), Value::str("red fox")],
                vec![Value::Int(2), Value::str("blue whale")],
                vec![Value::Int(3), Value::str("red panda")],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_query() {
        let db = db_with_table();
        let out = db
            .execute(db.query("t").unwrap().filter(col("id").gt(lit(1i64))))
            .unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = db_with_table();
        assert!(matches!(
            db.create_table("t", Schema::new(vec![Field::new("x", DataType::Int64)])),
            Err(Error::TableExists(_))
        ));
    }

    #[test]
    fn insert_into_missing_table() {
        let db = Database::new();
        assert!(matches!(
            db.insert("ghost", vec![]),
            Err(Error::TableNotFound(_))
        ));
    }

    #[test]
    fn inserts_visible_incrementally() {
        let db = db_with_table();
        db.insert("t", vec![vec![Value::Int(4), Value::str("green newt")]])
            .unwrap();
        let out = db.execute(db.query("t").unwrap()).unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(db.row_count("t"), Some(4));
    }

    #[test]
    fn concurrent_inserts_and_queries() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let db = Arc::new(Database::new());
        db.create_table("t", Schema::new(vec![Field::new("id", DataType::Int64)]))
            .unwrap();
        let done = Arc::new(AtomicBool::new(false));

        let writer = {
            let db = db.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                for i in 0..500i64 {
                    db.insert("t", vec![vec![Value::Int(i)]]).unwrap();
                }
                done.store(true, Ordering::Release);
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let db = db.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut last = 0usize;
                    while !done.load(Ordering::Acquire) {
                        let out = db.execute(db.query("t").unwrap()).unwrap();
                        // Row counts only grow, and every visible id is valid.
                        assert!(out.num_rows() >= last, "snapshot went backwards");
                        last = out.num_rows();
                    }
                    last
                })
            })
            .collect();

        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        let out = db.execute(db.query("t").unwrap()).unwrap();
        assert_eq!(out.num_rows(), 500);
    }

    #[test]
    fn text_index_over_rows() {
        let db = db_with_table();
        db.create_text_index("t", "txt").unwrap();
        let ix = db.text_index("t").unwrap();
        assert_eq!(ix.num_docs(), 3);
        assert_eq!(ix.doc_freq("red"), 2);
    }

    #[test]
    fn external_text_index_validates_alignment() {
        let db = db_with_table();
        // Too few documents: ordinal alignment would break.
        assert!(matches!(
            db.create_text_index_from("t", ["only one"].into_iter()),
            Err(Error::IndexCardinality {
                rows: 3,
                entries: 1,
                ..
            })
        ));
        // Missing table.
        assert!(matches!(
            db.create_text_index_from("ghost", ["a"].into_iter()),
            Err(Error::TableNotFound(_))
        ));
        // Aligned documents build fine.
        db.create_text_index_from("t", ["ash oak", "oak", "fir"].into_iter())
            .unwrap();
        assert_eq!(db.text_index("t").unwrap().doc_freq("oak"), 2);
    }

    #[test]
    fn vector_index_requires_matching_rows() {
        let db = db_with_table();
        let mut ds = Dataset::new(2);
        ds.push(0, &[0.0, 0.0]);
        assert!(matches!(
            db.create_vector_index("t", ds, VectorIndexSpec::exact(Metric::L2)),
            Err(Error::IndexCardinality {
                rows: 3,
                entries: 1,
                ..
            })
        ));
        let mut ds = Dataset::new(2);
        for i in 0..3 {
            ds.push(i, &[i as f32, 0.0]);
        }
        db.create_vector_index("t", ds, VectorIndexSpec::exact(Metric::L2))
            .unwrap();
        let ix = db.vector_index("t").unwrap();
        assert_eq!(ix.search(&[2.1, 0.0], 1)[0].id, 2);
    }

    #[test]
    fn explain_works_through_db() {
        let db = db_with_table();
        let plan = db.query("t").unwrap().filter(col("id").eq(lit(2i64)));
        let text = db.explain(&plan).unwrap();
        assert!(text.contains("Optimized plan"));
    }

    #[test]
    fn sql_explain_analyze_returns_plan_rows() {
        let db = db_with_table();
        let out = db
            .sql("EXPLAIN ANALYZE SELECT id FROM t WHERE id > 1")
            .unwrap();
        assert_eq!(out.schema().field(0).name, "plan");
        let lines: Vec<String> = (0..out.num_rows())
            .map(|i| out.row(i)[0].as_str().unwrap().to_string())
            .collect();
        let text = lines.join("\n");
        assert!(text.contains("== Analyzed plan"), "{text}");
        assert!(text.contains("rows_out="), "{text}");
        assert!(text.contains("time="), "{text}");
        // Plain EXPLAIN renders without running.
        let out = db.sql("EXPLAIN SELECT id FROM t").unwrap();
        assert!(out.row(0)[0]
            .as_str()
            .unwrap()
            .contains("== Logical plan =="));
    }

    #[test]
    fn db_metrics_accumulate_operator_truth() {
        let db = db_with_table();
        db.explain_analyze(&db.query("t").unwrap()).unwrap();
        assert_eq!(db.metrics().value("op.scan.rows_out"), 3);
    }

    #[test]
    fn sql_serves_repeats_from_both_caches() {
        let db = db_with_table();
        let q = "SELECT id FROM t WHERE id > 1";
        let cold = db.sql(q).unwrap();
        assert_eq!(db.metrics().value("cache.plan.misses"), 1);
        assert_eq!(db.metrics().value("cache.plan.hits"), 0);
        let warm = db.sql(q).unwrap();
        assert_eq!(db.metrics().value("cache.plan.hits"), 1);
        assert_eq!(db.metrics().value("cache.result.hits"), 1);
        assert_eq!(cold.to_rows(), warm.to_rows());
        // Formatting differences normalize to the same fingerprint.
        db.sql("SELECT id\n  FROM t -- comment\n  WHERE id > 1")
            .unwrap();
        assert_eq!(db.metrics().value("cache.plan.hits"), 2);
    }

    #[test]
    fn commit_invalidates_only_touched_tables() {
        let db = db_with_table();
        db.create_table("u", Schema::new(vec![Field::new("x", DataType::Int64)]))
            .unwrap();
        db.insert("u", vec![vec![Value::Int(9)]]).unwrap();
        db.sql("SELECT id FROM t").unwrap();
        db.sql("SELECT x FROM u").unwrap();
        db.sql("SELECT id FROM t").unwrap();
        db.sql("SELECT x FROM u").unwrap();
        assert_eq!(db.metrics().value("cache.result.hits"), 2);
        // A commit to `u` retires u's results; t's entries keep serving.
        db.insert("u", vec![vec![Value::Int(10)]]).unwrap();
        assert!(db.metrics().value("cache.result.invalidations") >= 1);
        db.sql("SELECT id FROM t").unwrap();
        assert_eq!(db.metrics().value("cache.result.hits"), 3);
        // And the refreshed `u` query sees the new row, not the cached one.
        let out = db.sql("SELECT x FROM u").unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn result_cache_opt_out_always_executes() {
        let db = db_with_table();
        let opts = db.exec_options().clone().without_caches();
        let q = "SELECT id FROM t";
        db.sql_with(q, &opts).unwrap();
        db.sql_with(q, &opts).unwrap();
        assert_eq!(db.metrics().value("cache.plan.hits"), 0);
        assert_eq!(db.metrics().value("cache.plan.misses"), 0);
        assert_eq!(db.metrics().value("cache.result.hits"), 0);
    }

    #[test]
    fn explain_reports_cache_state() {
        let db = db_with_table();
        let q = "SELECT id FROM t WHERE id > 1";
        let text_of = |b: &RecordBatch| {
            (0..b.num_rows())
                .map(|i| b.row(i)[0].as_str().unwrap().to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let cold = db.sql(&format!("EXPLAIN ANALYZE {q}")).unwrap();
        let cold = text_of(&cold);
        assert!(cold.contains("plan: fresh"), "{cold}");
        assert!(cold.contains("result: fresh"), "{cold}");
        db.sql(q).unwrap();
        let warm = db.sql(&format!("EXPLAIN ANALYZE {q}")).unwrap();
        let warm = text_of(&warm);
        assert!(warm.contains("plan: cached"), "{warm}");
        assert!(warm.contains("result: cached@epoch"), "{warm}");
        // Plain EXPLAIN annotates the plan line too.
        let plain = db.sql(&format!("EXPLAIN {q}")).unwrap();
        assert!(text_of(&plain).contains("plan: cached"));
        // EXPLAIN itself must not replay cached rows: it still reports.
        assert!(warm.contains("== Analyzed plan"), "{warm}");
    }

    #[test]
    fn prepared_statements_bind_params() {
        let db = db_with_table();
        let session = db.session();
        let info = session.prepare("SELECT id FROM t WHERE id >= $1").unwrap();
        assert_eq!(info.params, 1);
        let two = session.execute_prepared(info.id, &[Value::Int(2)]).unwrap();
        assert_eq!(two.num_rows(), 2);
        let three = session.execute_prepared(info.id, &[Value::Int(3)]).unwrap();
        assert_eq!(three.num_rows(), 1);
        // Same binding again: served from the result cache.
        session.execute_prepared(info.id, &[Value::Int(2)]).unwrap();
        assert!(db.metrics().value("cache.result.hits") >= 1);
        // Errors: missing binding, unknown handle, non-SELECT.
        assert!(session.execute_prepared(info.id, &[]).is_err());
        assert!(session.execute_prepared(999, &[Value::Int(1)]).is_err());
        assert!(session.prepare("EXPLAIN SELECT id FROM t").is_err());
        assert!(session.close_prepared(info.id));
        assert!(!session.close_prepared(info.id));
        assert!(session.execute_prepared(info.id, &[Value::Int(2)]).is_err());
    }

    #[test]
    fn register_table_retires_cached_results() {
        let db = db_with_table();
        let q = "SELECT COUNT(*) FROM t";
        let before = db.sql(q).unwrap();
        assert_eq!(before.row(0)[0], Value::Int(3));
        // Replace `t` wholesale with same-schema content of equal cardinality
        // — row counts alone cannot distinguish it; the generation bump must.
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("txt", DataType::Utf8),
        ]);
        let mut table = Table::new(schema);
        for i in 10..13 {
            table
                .append_row(vec![Value::Int(i), Value::str("x")])
                .unwrap();
        }
        db.register_table("t", table).unwrap();
        let after = db.sql("SELECT id FROM t WHERE id >= 10").unwrap();
        assert_eq!(after.num_rows(), 3);
    }
}
