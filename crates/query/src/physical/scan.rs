//! Table scan with zone-map pruning, scan-time filtering, projection, and
//! morsel-style parallelism.

use super::context::{ExecContext, Scope};
use super::parallel::StealQueues;
use super::pool::{spawn_detached, PoolHandle};
use super::Operator;
use crate::error::Result;
use crate::eval::refine_selection;
use crate::expr::{BinOp, Expr};
use crate::profile::OpStats;
use backbone_storage::table::ZoneMap;
use backbone_storage::{RecordBatch, Schema, Table, Value};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

/// Rows per emitted batch: large enough to amortize per-batch dispatch,
/// small enough that a handful of live columns stay in L2. Splitting a
/// filtered segment narrows its selection vector, so no column data is
/// copied.
const BATCH_ROWS: usize = 16 * 1024;

/// Scans a table's segments — sealed row groups, then the unsealed tail's
/// chunks — skipping groups whose zone maps refute a pushed-down filter,
/// evaluating remaining filters per batch, and projecting early. One worker
/// reads the segments in table order on the calling thread; two or more
/// take them as morsels off per-worker work-stealing queues, with no change
/// to semantics — the paper's "automatic scalability" principle. Both run
/// one per-segment prune/read/filter function.
pub struct TableScanExec {
    schema: Arc<Schema>,
    scan: Arc<SegmentScan>,
    mode: Mode,
    pending: VecDeque<RecordBatch>,
}

/// What reading one segment needs, shared by the inline scan and the
/// workers.
struct SegmentScan {
    table: Arc<Table>,
    /// The pushed-down filters' conjunction, in their order.
    filter: Option<Expr>,
    projection: Option<Vec<usize>>,
    /// Leading segments the scan may touch: all of them, or those that
    /// intersect a snapshot's visible row prefix.
    segments: usize,
    /// `(segment, visible leading rows)` when the snapshot boundary falls
    /// inside the last visible segment.
    boundary: Option<(usize, usize)>,
    ctx: ExecContext,
    stats: OpStats,
}

impl SegmentScan {
    /// Prune, read, filter and project segment `g`; `None` when its zone
    /// maps refute a filter or no row survives. Zone maps are always
    /// resident, so a refuted group costs no read (for a paged table, no
    /// I/O at all).
    fn scan(&self, g: usize) -> Result<Option<RecordBatch>> {
        self.stats.morsels.incr();
        let zones = self.table.segment_zones(g);
        let schema = self.table.schema();
        if (self.filter.as_ref()).is_some_and(|f| zone_refutes(zones, schema, f)) {
            self.stats.segments_pruned.incr();
            return Ok(None);
        }
        self.stats.segments_scanned.incr();
        let visible = self.boundary.and_then(|(bg, n)| (bg == g).then_some(n));
        let batch = read_segment(&self.table, g, visible)?;
        let t0 = Instant::now();
        let out = process_group(&batch, self.filter.as_ref(), &self.projection);
        self.ctx.counters.scan_filter_ns.add_elapsed(t0);
        out
    }
}

enum Mode {
    /// One worker: segments are read on the calling thread, in table
    /// order; `next` is the next segment.
    Inline { next: usize },
    /// Workers start lazily on the first `next()`, after
    /// [`TableScanExec::with_snapshot`] has clamped the scan.
    Pending,
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
    /// conjunctive predicates applied during the scan. The scan runs the
    /// context's workers and records into `stats`.
    pub fn new(
        table: Arc<Table>,
        projection: Option<Vec<String>>,
        filters: Vec<Expr>,
        ctx: &ExecContext,
        stats: OpStats,
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
        stats.workers.add(ctx.workers as u64);
        let mode = if ctx.workers == 1 {
            Mode::Inline { next: 0 }
        } else {
            Mode::Pending
        };
        let scan = SegmentScan {
            segments: table.num_segments(),
            table,
            filter: Expr::conjunction(filters),
            projection: proj_indices,
            boundary: None,
            ctx: ctx.clone(),
            stats,
        };
        Ok(TableScanExec {
            schema,
            scan: Arc::new(scan),
            mode,
            pending: VecDeque::new(),
        })
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
        let scan = Arc::get_mut(&mut self.scan).expect("snapshot set before the scan starts");
        let mut remaining = scan.table.visible_rows_at(epoch);
        let mut segments = 0usize;
        for s in 0..scan.table.num_segments() {
            if remaining == 0 {
                break;
            }
            let rows = scan.table.segment_rows(s);
            segments += 1;
            if rows > remaining {
                scan.boundary = Some((s, remaining));
                break;
            }
            remaining -= rows;
        }
        scan.segments = segments;
        self
    }

    /// Morsel-parallel start: segments go onto per-worker work-stealing
    /// queues; workers scan their morsels and feed surviving batches
    /// through a bounded channel.
    fn start(&mut self) {
        let workers = self.scan.ctx.workers;
        let (tx, rx) = sync_channel(workers * 2);
        let queues = Arc::new(StealQueues::split(self.scan.segments, workers));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let scan = self.scan.clone();
            let tx = tx.clone();
            let queues = queues.clone();
            handles.push(spawn_detached(move || {
                // Workers record eval-kernel counters through the query's
                // handles; all counters are shared atomics.
                let _kernel = crate::kernel_metrics::install(&scan.ctx);
                let (mut morsels, mut rows, mut steals) = (0u64, 0u64, 0u64);
                while let Some((g, stolen)) = queues.pop(w) {
                    morsels += 1;
                    steals += u64::from(stolen);
                    match scan.scan(g) {
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
                scan.ctx.record_worker(Scope::Scan, w, morsels, rows);
                scan.ctx.counters.scan_steals.add(steals);
                scan.stats.steals.add(steals);
            }));
        }
        self.mode = Mode::Running { rx, handles };
    }

    /// Split `batch` into [`BATCH_ROWS`]-row pieces, queueing the
    /// tail; returns the head. Pieces are selection views over the batch's
    /// own columns, since slicing a dense batch copies every plain column.
    /// The exception is a dense batch with a run-length column: its slices
    /// stay run-length encoded and keep the run-aware kernels, while a view
    /// would make every read of it search the runs.
    fn emit(&mut self, batch: RecordBatch) -> Result<RecordBatch> {
        let n = batch.num_rows();
        if n <= BATCH_ROWS {
            return Ok(batch);
        }
        let runs = |c: &Arc<backbone_storage::Column>| {
            c.encoded_parts()
                .is_some_and(|(data, _)| data.runs().is_some())
        };
        if batch.selection().is_none() && batch.columns().iter().any(runs) {
            let mut offset = BATCH_ROWS;
            while offset < n {
                let len = BATCH_ROWS.min(n - offset);
                self.pending.push_back(batch.slice(offset, len)?);
                offset += len;
            }
            return Ok(batch.slice(0, BATCH_ROWS)?);
        }
        let rows: Vec<u32> = match batch.selection() {
            Some(sel) => sel.to_vec(),
            None => (0..n as u32).collect(),
        };
        let mut pieces = rows
            .chunks(BATCH_ROWS)
            .map(|piece| batch.with_selection(Arc::new(piece.to_vec())));
        let head = pieces.next().expect("a batch over BATCH_ROWS has pieces")?;
        for piece in pieces {
            self.pending.push_back(piece?);
        }
        Ok(head)
    }
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

/// Returns true when `filter` provably matches no row of the group: some
/// conjunct of it can be refuted by the zone maps. `zones` is indexed by
/// column ordinal; a segment without zone maps (the unsealed tail) has none
/// and is never refuted.
fn zone_refutes(zones: &[ZoneMap], schema: &Schema, filter: &Expr) -> bool {
    let Expr::Binary { left, op, right } = filter else {
        return false;
    };
    if *op == BinOp::And {
        return zone_refutes(zones, schema, left) || zone_refutes(zones, schema, right);
    }
    // Normalize to (column op literal).
    let (name, op, value) = match (left.as_ref(), right.as_ref()) {
        (Expr::Column(n), Expr::Literal(v)) => (n, *op, v),
        (Expr::Literal(v), Expr::Column(n)) => (n, op.flipped(), v),
        _ => return false,
    };
    if matches!(value, Value::Null) {
        return false;
    }
    let Ok(idx) = schema.index_of(name) else {
        return false;
    };
    let Some(zone) = zones.get(idx) else {
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

/// Apply the scan's filter and projection to a segment its zone maps did
/// not refute (callers prune before reading the segment).
fn process_group(
    batch: &RecordBatch,
    filter: Option<&Expr>,
    projection: &Option<Vec<usize>>,
) -> Result<Option<RecordBatch>> {
    let mut current = batch.clone();
    if let Some(f) = filter {
        // Survivors become a narrower selection over the same columns;
        // downstream kernels and the projection late-materialize.
        current = refine_selection(f, &current)?;
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
        if matches!(self.mode, Mode::Pending) {
            self.start();
        }
        let produced = match &mut self.mode {
            Mode::Inline { next } => {
                let mut found = None;
                while found.is_none() && *next < self.scan.segments {
                    *next += 1;
                    found = self.scan.scan(*next - 1)?;
                }
                found
            }
            Mode::Pending => unreachable!("pending scan started above"),
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
    use crate::physical::test_util::ctx;
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
        let mut scan = TableScanExec::new(t, None, vec![], &ctx(1), OpStats::default()).unwrap();
        let all = drain_one(&mut scan).unwrap();
        assert_eq!(all.num_rows(), 10);
    }

    #[test]
    fn large_unfiltered_segment_splits_into_views_not_copies() {
        let rows = 2 * BATCH_ROWS as i64 + 100;
        let t = table(rows, rows as usize);
        let group = t.segment(0).unwrap();
        let mut scan = TableScanExec::new(t, None, vec![], &ctx(1), OpStats::default()).unwrap();
        let mut batches = Vec::new();
        while let Some(b) = scan.next().unwrap() {
            batches.push(b);
        }
        assert_eq!(batches.len(), 3);
        for b in &batches {
            assert!(b.num_rows() <= BATCH_ROWS);
            for (col, base) in b.columns().iter().zip(group.columns()) {
                assert!(Arc::ptr_eq(col, base), "a piece copied its columns");
            }
        }
        let all = RecordBatch::concat(scan.schema(), &batches).unwrap();
        assert_eq!(all.to_rows(), group.to_rows());

        // A run-length column slices in encoded form instead, keeping its
        // run-aware kernels.
        let schema = Schema::new(vec![Field::new("flag", DataType::Int64)]);
        let mut t = Table::with_group_size(schema, rows as usize);
        for i in 0..rows {
            t.append_row(vec![Value::Int(i / 1000)]).unwrap();
        }
        t.flush().unwrap();
        let mut scan =
            TableScanExec::new(Arc::new(t), None, vec![], &ctx(1), OpStats::default()).unwrap();
        let mut pieces = 0;
        while let Some(b) = scan.next().unwrap() {
            assert!(b.selection().is_none());
            let (data, _) = b.column(0).encoded_parts().expect("still encoded");
            assert!(data.runs().is_some());
            pieces += 1;
        }
        assert_eq!(pieces, 3);
    }

    #[test]
    fn filtered_scan() {
        let t = table(100, 10);
        let mut scan = TableScanExec::new(
            t,
            None,
            vec![col("id").gt_eq(lit(95i64))],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut scan).unwrap();
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn zone_maps_prune_groups() {
        // Ten groups of 10 sorted ids: id >= 95 touches only the last group.
        // Both the inline scan and the workers count them.
        for workers in [1, 2] {
            let t = table(100, 10);
            let stats = OpStats::default();
            let filters = vec![col("id").gt_eq(lit(95i64))];
            let mut scan =
                TableScanExec::new(t, None, filters, &ctx(workers), stats.clone()).unwrap();
            while scan.next().unwrap().is_some() {}
            assert_eq!(stats.segments_pruned.get(), 9, "{workers} workers");
            assert_eq!(stats.segments_scanned.get(), 1, "{workers} workers");
            assert_eq!(stats.morsels.get(), 10, "{workers} workers");
        }
    }

    #[test]
    fn pruning_eq_and_flipped_literal() {
        let t = table(100, 10);
        // literal on the left: 5 > id  <=>  id < 5 — only group 0 survives.
        let stats = OpStats::default();
        let filters = vec![lit(5i64).gt(col("id"))];
        let mut scan = TableScanExec::new(t, None, filters, &ctx(1), stats.clone()).unwrap();
        let out = drain_one(&mut scan).unwrap();
        assert_eq!(out.num_rows(), 5);
        assert_eq!(stats.segments_scanned.get(), 1);
    }

    #[test]
    fn projection_narrows_schema() {
        let t = table(10, 4);
        let mut scan = TableScanExec::new(
            t,
            Some(vec!["val".into()]),
            vec![],
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut scan).unwrap();
        assert_eq!(out.num_columns(), 1);
        assert_eq!(out.schema().field(0).name, "val");
        assert_eq!(out.column(0).i64_data().unwrap()[3], 30);
    }

    #[test]
    fn unknown_projection_column_errors() {
        let t = table(4, 4);
        assert!(TableScanExec::new(
            t,
            Some(vec!["nope".into()]),
            vec![],
            &ctx(1),
            OpStats::default()
        )
        .is_err());
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let t = table(1000, 32);
        let filters = vec![col("id").modulo(lit(7i64)).eq(lit(0i64))];
        let mut serial = TableScanExec::new(
            t.clone(),
            None,
            filters.clone(),
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let mut parallel =
            TableScanExec::new(t, None, filters, &ctx(4), OpStats::default()).unwrap();
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
        let mut scan = TableScanExec::new(t.clone(), None, vec![], &ctx(1), OpStats::default())
            .unwrap()
            .with_snapshot(Some(1));
        let out = drain_one(&mut scan).unwrap();
        let ids: Vec<i64> = out.column(0).i64_data().unwrap().to_vec();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        // Epoch 2 (and beyond): everything.
        let mut scan = TableScanExec::new(t.clone(), None, vec![], &ctx(1), OpStats::default())
            .unwrap()
            .with_snapshot(Some(5));
        assert_eq!(drain_one(&mut scan).unwrap().num_rows(), 17);
        // Epoch 0 predates every commit: nothing visible.
        let mut scan = TableScanExec::new(t.clone(), None, vec![], &ctx(1), OpStats::default())
            .unwrap()
            .with_snapshot(Some(0));
        assert!(scan.next().unwrap().is_none());
        // No snapshot: the pre-MVCC full scan.
        let mut scan = TableScanExec::new(t, None, vec![], &ctx(1), OpStats::default())
            .unwrap()
            .with_snapshot(None);
        assert_eq!(drain_one(&mut scan).unwrap().num_rows(), 17);
    }

    #[test]
    fn snapshot_parallel_matches_serial() {
        let t = marked_table();
        for epoch in [0u64, 1, 2] {
            let mut serial =
                TableScanExec::new(t.clone(), None, vec![], &ctx(1), OpStats::default())
                    .unwrap()
                    .with_snapshot(Some(epoch));
            let mut parallel =
                TableScanExec::new(t.clone(), None, vec![], &ctx(4), OpStats::default())
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
        let mut scan = TableScanExec::new(
            t,
            None,
            vec![col("id").gt_eq(lit(8i64))],
            &ctx(1),
            OpStats::default(),
        )
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
        let mut scan = TableScanExec::new(t, None, vec![], &ctx(1), OpStats::default()).unwrap();
        assert!(scan.next().unwrap().is_none());
    }
}
