//! Table scan with zone-map pruning, scan-time filtering, projection, and
//! morsel-style parallelism.

use super::parallel::{record_worker, ParallelProfile, StealQueues};
use super::pool::{spawn_detached, PoolHandle};
use super::Operator;
use crate::error::Result;
use crate::eval::eval_predicate;
use crate::expr::{BinOp, Expr};
use backbone_storage::table::ZoneMap;
use backbone_storage::{Metrics, RecordBatch, Schema, Table, Value};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

/// Counters exposed for pruning experiments (E6 reports them).
#[derive(Debug, Default, Clone, Copy)]
pub struct ScanStats {
    /// Row groups skipped via zone maps.
    pub groups_pruned: usize,
    /// Segments actually scanned: row groups plus unsealed tail chunks.
    pub groups_scanned: usize,
}

/// Scans a table's segments — sealed row groups, then the unsealed tail's
/// chunks — skipping groups whose zone maps refute a pushed-down filter,
/// evaluating remaining filters per batch, and projecting early. With
/// `workers >= 1` segments become morsels on per-worker work-stealing queues
/// processed by that many threads, with no change to semantics — the
/// paper's "automatic scalability" principle.
pub struct TableScanExec {
    schema: Arc<Schema>,
    mode: Mode,
    stats: ScanStats,
    /// Split emitted batches to at most this many logical rows (0 = segment
    /// size). On filtered scans the split narrows the selection vector, so
    /// no column data is copied.
    batch_rows: usize,
    pending: VecDeque<RecordBatch>,
    metrics: Option<Metrics>,
    profile: Option<ParallelProfile>,
    /// Snapshot clamp: scan only this visible row prefix (see
    /// [`TableScanExec::with_snapshot`]). `None` = scan everything.
    clamp: Option<ScanClamp>,
}

/// The segment-level shape of a snapshot's visible row prefix.
#[derive(Debug, Clone, Copy)]
struct ScanClamp {
    /// Leading segments that intersect the prefix; later segments hold only
    /// rows committed after the snapshot and are never touched.
    segments: usize,
    /// When the prefix ends inside segment `segments - 1`: how many of its
    /// leading rows are visible. `None` = the last segment is wholly visible.
    last_rows: Option<usize>,
}

enum Mode {
    Serial {
        table: Arc<Table>,
        filters: Vec<Expr>,
        projection: Option<Vec<usize>>,
        segment_idx: usize,
    },
    /// Parallel scan not yet started: workers spawn lazily on the first
    /// `next()` so the builder methods (`with_metrics`, profile) apply.
    Pending {
        table: Arc<Table>,
        filters: Vec<Expr>,
        projection: Option<Vec<usize>>,
        workers: usize,
    },
    Running {
        rx: Receiver<Result<RecordBatch>>,
        /// Keep handles so worker panics surface at join.
        handles: Vec<PoolHandle>,
    },
}

impl TableScanExec {
    /// Build a scan.
    ///
    /// `projection` lists output column names (in order); `filters` are
    /// conjunctive predicates applied during the scan; `workers` is the
    /// number of worker threads (0 or 1 = serial, on the calling thread).
    pub fn new(
        table: Arc<Table>,
        projection: Option<Vec<String>>,
        filters: Vec<Expr>,
        workers: usize,
    ) -> Result<TableScanExec> {
        let table_schema = table.schema().clone();
        let proj_indices: Option<Vec<usize>> = match &projection {
            None => None,
            Some(names) => {
                let mut idx = Vec::with_capacity(names.len());
                for n in names {
                    idx.push(table_schema.index_of(n)?);
                }
                Some(idx)
            }
        };
        let schema = match &proj_indices {
            None => table_schema.clone(),
            Some(idx) => table_schema.project(idx),
        };
        let mode = if workers <= 1 {
            Mode::Serial {
                table,
                filters,
                projection: proj_indices,
                segment_idx: 0,
            }
        } else {
            Mode::Pending {
                table,
                filters,
                projection: proj_indices,
                workers,
            }
        };
        Ok(TableScanExec {
            schema,
            mode,
            stats: ScanStats::default(),
            batch_rows: 0,
            pending: VecDeque::new(),
            metrics: None,
            profile: None,
            clamp: None,
        })
    }

    /// Cap emitted batches at `n` logical rows (0 = one batch per segment).
    pub fn with_batch_rows(mut self, n: usize) -> Self {
        self.batch_rows = n;
        self
    }

    /// Pin the scan to a snapshot epoch: only the table's row prefix
    /// committed at or before `epoch` (per its commit marks) is read.
    /// Segments past the prefix are never materialized; the segment
    /// straddling the boundary is sliced to its visible leading rows
    /// *before* filters run. Zone-map pruning stays sound on a sliced group
    /// — full-group zones over-approximate any prefix, so a refutation
    /// still holds.
    pub fn with_snapshot(mut self, epoch: Option<u64>) -> Self {
        let Some(epoch) = epoch else { return self };
        let table = match &self.mode {
            Mode::Serial { table, .. } | Mode::Pending { table, .. } => table,
            Mode::Running { .. } => unreachable!("snapshot set before the scan starts"),
        };
        let mut remaining = table.visible_rows_at(epoch);
        let mut segments = 0usize;
        let mut last_rows = None;
        for s in 0..table.num_segments() {
            if remaining == 0 {
                break;
            }
            let rows = table.segment_rows(s);
            segments += 1;
            if rows > remaining {
                last_rows = Some(remaining);
                break;
            }
            remaining -= rows;
        }
        self.clamp = Some(ScanClamp {
            segments,
            last_rows,
        });
        self
    }

    /// Record scan kernel time (`op.scan.kernel.*`) and, in parallel mode,
    /// per-worker morsel/row/steal counters (`op.scan.worker.*`,
    /// `op.scan.steals`) into `metrics`.
    pub fn with_metrics(mut self, metrics: Option<Metrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attach shared parallel counters for EXPLAIN ANALYZE.
    pub fn with_parallel_profile(mut self, profile: Option<ParallelProfile>) -> Self {
        self.profile = profile;
        self
    }

    /// Morsel-parallel start: segments go onto per-worker work-stealing
    /// queues; workers prune, filter, and project their morsels and feed
    /// surviving batches through a bounded channel.
    fn start(&mut self) {
        let placeholder = Mode::Running {
            rx: sync_channel(0).1,
            handles: Vec::new(),
        };
        let Mode::Pending {
            table,
            filters,
            projection,
            workers,
        } = std::mem::replace(&mut self.mode, placeholder)
        else {
            unreachable!("start is only called on a pending parallel scan");
        };
        let (tx, rx) = sync_channel(workers * 2);
        let n_segments = visible_segments(&table, self.clamp);
        // (segment index, visible leading rows) when the snapshot boundary
        // falls inside the final visible segment.
        let boundary = self
            .clamp
            .and_then(|c| c.last_rows.map(|n| (c.segments - 1, n)));
        let queues = Arc::new(StealQueues::split(n_segments, workers));
        if let Some(p) = &self.profile {
            p.workers.add(workers as u64);
        }
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let table = table.clone();
            let filters = filters.clone();
            let projection = projection.clone();
            let tx = tx.clone();
            let queues = queues.clone();
            let metrics = self.metrics.clone();
            let profile = self.profile.clone();
            handles.push(spawn_detached(move || {
                // Workers record eval-kernel counters through their own
                // thread-local handle; all counters are shared atomics.
                let _kernel = crate::kernel_metrics::install(metrics.clone());
                let (mut morsels, mut rows, mut steals) = (0u64, 0u64, 0u64);
                while let Some((g, stolen)) = queues.pop(w) {
                    morsels += 1;
                    steals += u64::from(stolen);
                    // Zone maps are always resident: refuted groups are
                    // skipped before their payload is ever read (for paged
                    // tables, before any I/O happens at all).
                    let zones = segment_zones(&table, g);
                    if prunable(&zones, table.schema(), &filters) {
                        continue;
                    }
                    let visible = boundary.and_then(|(bg, n)| (bg == g).then_some(n));
                    let batch = match read_segment(&table, g, visible) {
                        Ok(b) => b,
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            break;
                        }
                    };
                    match process_group(&batch, zones, &filters, &projection) {
                        Ok(Some(batch)) => {
                            rows += batch.num_rows() as u64;
                            if tx.send(Ok(batch)).is_err() {
                                break;
                            }
                        }
                        Ok(None) => {}
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            break;
                        }
                    }
                }
                record_worker(metrics.as_ref(), "scan", w, morsels, rows);
                if let Some(m) = &metrics {
                    m.counter("op.scan.steals").add(steals);
                }
                if let Some(p) = &profile {
                    p.morsels.add(morsels);
                    p.steals.add(steals);
                }
            }));
        }
        drop(tx);
        self.mode = Mode::Running { rx, handles };
    }

    /// Split `batch` per `batch_rows`, queueing the tail; returns the head.
    fn emit(&mut self, batch: RecordBatch) -> Result<RecordBatch> {
        let n = batch.num_rows();
        if self.batch_rows == 0 || n <= self.batch_rows {
            return Ok(batch);
        }
        let mut offset = self.batch_rows;
        while offset < n {
            let len = self.batch_rows.min(n - offset);
            self.pending.push_back(batch.slice(offset, len)?);
            offset += len;
        }
        Ok(batch.slice(0, self.batch_rows)?)
    }

    /// Pruning counters (serial mode only; parallel workers don't report).
    pub fn stats(&self) -> ScanStats {
        self.stats
    }
}

fn segment_zones(table: &Table, s: usize) -> Vec<(usize, ZoneMap)> {
    table.segment_zones(s).iter().cloned().enumerate().collect()
}

/// Segments the scan may touch: all of them, or the snapshot's prefix.
fn visible_segments(table: &Table, clamp: Option<ScanClamp>) -> usize {
    clamp.map_or(table.num_segments(), |c| {
        c.segments.min(table.num_segments())
    })
}

/// Materialize segment `s`, sliced to its leading `visible` rows when the
/// snapshot boundary falls inside it.
fn read_segment(table: &Table, s: usize, visible: Option<usize>) -> Result<RecordBatch> {
    let batch = table.segment(s)?;
    Ok(match visible {
        Some(n) => batch.slice(0, n)?,
        None => batch,
    })
}

/// Can the zone maps refute every row of this group for some filter?
fn prunable(zones: &[(usize, ZoneMap)], schema: &Schema, filters: &[Expr]) -> bool {
    filters.iter().any(|f| zone_refutes(zones, schema, f))
}

/// Returns true when `filter` provably matches no row of the group.
fn zone_refutes(zones: &[(usize, ZoneMap)], schema: &Schema, filter: &Expr) -> bool {
    let Expr::Binary { left, op, right } = filter else {
        return false;
    };
    // Normalize to (column op literal).
    let (name, op, value) = match (left.as_ref(), right.as_ref()) {
        (Expr::Column(n), Expr::Literal(v)) => (n, *op, v),
        (Expr::Literal(v), Expr::Column(n)) => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::LtEq => BinOp::GtEq,
                BinOp::Gt => BinOp::Lt,
                BinOp::GtEq => BinOp::LtEq,
                other => *other,
            };
            (n, flipped, v)
        }
        _ => return false,
    };
    if matches!(value, Value::Null) {
        return false;
    }
    let Ok(idx) = schema.index_of(name) else {
        return false;
    };
    let Some((_, zone)) = zones.iter().find(|(i, _)| *i == idx) else {
        return false;
    };
    match op {
        BinOp::Eq => !zone.may_contain_eq(value),
        BinOp::Lt => !zone.may_contain_lt(value, false),
        BinOp::LtEq => !zone.may_contain_lt(value, true),
        BinOp::Gt => !zone.may_contain_gt(value, false),
        BinOp::GtEq => !zone.may_contain_gt(value, true),
        _ => false,
    }
}

fn process_group(
    batch: &RecordBatch,
    zones: Vec<(usize, ZoneMap)>,
    filters: &[Expr],
    projection: &Option<Vec<usize>>,
) -> Result<Option<RecordBatch>> {
    if prunable(&zones, batch.schema(), filters) {
        return Ok(None);
    }
    let mut current = batch.clone();
    for f in filters {
        let mask = eval_predicate(f, &current)?;
        // Survivors become a narrower selection over the same columns;
        // downstream kernels and the projection late-materialize.
        current = current.select_mask(&mask)?;
        if current.is_empty() {
            return Ok(None);
        }
    }
    if let Some(idx) = projection {
        current = current.project(idx)?;
    }
    Ok(Some(current))
}

impl Operator for TableScanExec {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<RecordBatch>> {
        if let Some(b) = self.pending.pop_front() {
            return Ok(Some(b));
        }
        if matches!(self.mode, Mode::Pending { .. }) {
            self.start();
        }
        let produced = match &mut self.mode {
            Mode::Serial {
                table,
                filters,
                projection,
                segment_idx,
            } => {
                let clamp = self.clamp;
                let total = visible_segments(table, clamp);
                let mut found = None;
                loop {
                    if *segment_idx >= total {
                        break;
                    }
                    let g = *segment_idx;
                    *segment_idx += 1;
                    // Resident zone maps decide pruning before the group is
                    // materialized — paged groups refuted here cost no I/O.
                    let zones = segment_zones(table, g);
                    if prunable(&zones, table.schema(), filters) {
                        self.stats.groups_pruned += 1;
                        continue;
                    }
                    self.stats.groups_scanned += 1;
                    let visible = clamp.and_then(|c| c.last_rows.filter(|_| g + 1 == c.segments));
                    let batch = read_segment(table, g, visible)?;
                    let t0 = Instant::now();
                    let out = process_group(&batch, zones, filters, projection)?;
                    if let Some(m) = &self.metrics {
                        m.counter("op.scan.kernel.filter_ns")
                            .add(t0.elapsed().as_nanos() as u64);
                    }
                    if let Some(batch) = out {
                        found = Some(batch);
                        break;
                    }
                }
                found
            }
            Mode::Pending { .. } => unreachable!("pending scan started above"),
            Mode::Running { rx, handles } => match rx.recv() {
                Ok(item) => Some(item?),
                Err(_) => {
                    for h in handles.drain(..) {
                        h.join().expect("scan worker panicked");
                    }
                    None
                }
            },
        };
        match produced {
            Some(batch) => Ok(Some(self.emit(batch)?)),
            None => Ok(None),
        }
    }

    fn name(&self) -> &'static str {
        "TableScan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::physical::drain_one;
    use backbone_storage::{DataType, Field};

    fn table(rows: i64, group_size: usize) -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("val", DataType::Int64),
        ]);
        let mut t = Table::with_group_size(schema, group_size);
        for i in 0..rows {
            t.append_row(vec![Value::Int(i), Value::Int(i * 10)])
                .unwrap();
        }
        t.flush().unwrap();
        Arc::new(t)
    }

    #[test]
    fn full_scan() {
        let t = table(10, 4);
        let mut scan = TableScanExec::new(t, None, vec![], 1).unwrap();
        let all = drain_one(&mut scan).unwrap();
        assert_eq!(all.num_rows(), 10);
    }

    #[test]
    fn filtered_scan() {
        let t = table(100, 10);
        let mut scan = TableScanExec::new(t, None, vec![col("id").gt_eq(lit(95i64))], 1).unwrap();
        let out = drain_one(&mut scan).unwrap();
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn zone_maps_prune_groups() {
        // Ten groups of 10 sorted ids: id >= 95 touches only the last group.
        let t = table(100, 10);
        let mut scan = TableScanExec::new(t, None, vec![col("id").gt_eq(lit(95i64))], 1).unwrap();
        while scan.next().unwrap().is_some() {}
        let stats = scan.stats();
        assert_eq!(stats.groups_pruned, 9);
        assert_eq!(stats.groups_scanned, 1);
    }

    #[test]
    fn pruning_eq_and_flipped_literal() {
        let t = table(100, 10);
        // literal on the left: 5 > id  <=>  id < 5 — only group 0 survives.
        let mut scan = TableScanExec::new(t, None, vec![lit(5i64).gt(col("id"))], 1).unwrap();
        let out = drain_one(&mut scan).unwrap();
        assert_eq!(out.num_rows(), 5);
        assert_eq!(scan.stats().groups_scanned, 1);
    }

    #[test]
    fn projection_narrows_schema() {
        let t = table(10, 4);
        let mut scan = TableScanExec::new(t, Some(vec!["val".into()]), vec![], 1).unwrap();
        let out = drain_one(&mut scan).unwrap();
        assert_eq!(out.num_columns(), 1);
        assert_eq!(out.schema().field(0).name, "val");
        assert_eq!(out.column(0).i64_data().unwrap()[3], 30);
    }

    #[test]
    fn unknown_projection_column_errors() {
        let t = table(4, 4);
        assert!(TableScanExec::new(t, Some(vec!["nope".into()]), vec![], 1).is_err());
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let t = table(1000, 32);
        let filters = vec![col("id").modulo(lit(7i64)).eq(lit(0i64))];
        let mut serial = TableScanExec::new(t.clone(), None, filters.clone(), 1).unwrap();
        let mut parallel = TableScanExec::new(t, None, filters, 4).unwrap();
        let a = drain_one(&mut serial).unwrap();
        let b = drain_one(&mut parallel).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        // Parallel output order is nondeterministic: compare as sorted sets.
        let mut ra: Vec<i64> = a.column(0).i64_data().unwrap().to_vec();
        let mut rb: Vec<i64> = b.column(0).i64_data().unwrap().to_vec();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb);
    }

    /// 10 rows committed at epoch 1, 7 more at epoch 2, groups of 4 — the
    /// epoch-1 boundary falls mid-group.
    fn marked_table() -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("val", DataType::Int64),
        ]);
        let mut t = Table::with_group_size(schema, 4);
        for i in 0..10 {
            t.append_row(vec![Value::Int(i), Value::Int(i * 10)])
                .unwrap();
        }
        t.record_commit(1, 0);
        for i in 10..17 {
            t.append_row(vec![Value::Int(i), Value::Int(i * 10)])
                .unwrap();
        }
        t.record_commit(2, 0);
        t.flush().unwrap();
        Arc::new(t)
    }

    #[test]
    fn snapshot_clamps_to_visible_prefix() {
        let t = marked_table();
        // Epoch 1: only the first 10 rows; the 3rd group is sliced to 2.
        let mut scan = TableScanExec::new(t.clone(), None, vec![], 1)
            .unwrap()
            .with_snapshot(Some(1));
        let out = drain_one(&mut scan).unwrap();
        let ids: Vec<i64> = out.column(0).i64_data().unwrap().to_vec();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        // Epoch 2 (and beyond): everything.
        let mut scan = TableScanExec::new(t.clone(), None, vec![], 1)
            .unwrap()
            .with_snapshot(Some(5));
        assert_eq!(drain_one(&mut scan).unwrap().num_rows(), 17);
        // Epoch 0 predates every commit: nothing visible.
        let mut scan = TableScanExec::new(t.clone(), None, vec![], 1)
            .unwrap()
            .with_snapshot(Some(0));
        assert!(scan.next().unwrap().is_none());
        // No snapshot: the pre-MVCC full scan.
        let mut scan = TableScanExec::new(t, None, vec![], 1)
            .unwrap()
            .with_snapshot(None);
        assert_eq!(drain_one(&mut scan).unwrap().num_rows(), 17);
    }

    #[test]
    fn snapshot_parallel_matches_serial() {
        let t = marked_table();
        for epoch in [0u64, 1, 2] {
            let mut serial = TableScanExec::new(t.clone(), None, vec![], 1)
                .unwrap()
                .with_snapshot(Some(epoch));
            let mut parallel = TableScanExec::new(t.clone(), None, vec![], 4)
                .unwrap()
                .with_snapshot(Some(epoch));
            let a = drain_one(&mut serial).unwrap();
            let b = drain_one(&mut parallel).unwrap();
            let collect = |x: &RecordBatch| {
                let mut ids: Vec<i64> = x.column(0).i64_data().unwrap().to_vec();
                ids.sort_unstable();
                ids
            };
            assert_eq!(collect(&a), collect(&b), "epoch {epoch}");
        }
    }

    #[test]
    fn snapshot_respects_filters_on_sliced_group() {
        let t = marked_table();
        // id >= 8 under epoch 1 must see exactly rows 8 and 9 — rows 10+ are
        // in the same physical groups but invisible.
        let mut scan = TableScanExec::new(t, None, vec![col("id").gt_eq(lit(8i64))], 1)
            .unwrap()
            .with_snapshot(Some(1));
        let out = drain_one(&mut scan).unwrap();
        let ids: Vec<i64> = out.column(0).i64_data().unwrap().to_vec();
        assert_eq!(ids, vec![8, 9]);
    }

    #[test]
    fn empty_table_scan() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let t = Arc::new(Table::new(schema));
        let mut scan = TableScanExec::new(t, None, vec![], 1).unwrap();
        assert!(scan.next().unwrap().is_none());
    }
}
