//! Row-grouped tables with zone-map pruning statistics.
//!
//! A [`Table`] is an append-only collection of [`RowGroup`]s. Each row group
//! carries a [`ZoneMap`] per column (min/max/null-count) so scans can skip
//! groups that cannot satisfy a predicate — the physical-side half of the
//! "logical/physical independence" principle: the query layer expresses
//! *what* rows it wants and the table decides *which groups* to touch.

use crate::batch::RecordBatch;
use crate::column::Column;
use crate::compress::EncodedInts;
use crate::error::{Result, StorageError};
use crate::pager::PagedFile;
use crate::schema::Schema;
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Default number of rows per row group.
pub const DEFAULT_ROW_GROUP_SIZE: usize = 65_536;

/// Minimum rows before seal-time dictionary encoding is considered; below
/// this the bookkeeping outweighs the win and tiny test tables stay plain.
pub const DICT_MIN_SEAL_ROWS: usize = 64;

/// A Utf8 column dictionary-encodes when `distinct * DICT_RATIO_DEN <= rows`
/// (distinct ratio at most 1/4) — low enough that per-entry predicate
/// evaluation and u32 code scans beat per-row string work.
pub const DICT_RATIO_DEN: usize = 4;

/// An Int64 column seals RLE-encoded only when the runs take at most
/// `1 / ENC_RATIO_DEN` of the plain value bytes — a 2x floor, so marginal
/// wins never pay the per-run indirection. Frame-of-reference lanes clear
/// the floor by construction: `u32`, the widest lane, is half of an `i64`.
pub const ENC_RATIO_DEN: usize = 2;

/// How [`Table::flush`] physically represents Utf8 columns when sealing a
/// row group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingPolicy {
    /// Dictionary-encode Utf8 columns whose distinct ratio qualifies
    /// (the default).
    #[default]
    Auto,
    /// Keep every column plain (tests and decoded-twin baselines).
    Plain,
}

/// Min/max/null statistics for one column of one row group.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// Minimum non-null value, if any non-null value exists.
    pub min: Option<Value>,
    /// Maximum non-null value, if any non-null value exists.
    pub max: Option<Value>,
    /// Number of NULL rows.
    pub null_count: usize,
    /// Total rows covered.
    pub row_count: usize,
}

impl ZoneMap {
    /// Compute the zone map for a column. Dictionary columns scan their
    /// entries instead of rows: O(distinct) rather than O(rows), and still
    /// sound (entries bound every stored value). NaN is left out of the
    /// bounds: it satisfies no comparison, and as a bound it would compare
    /// equal to everything and refute groups holding matching rows.
    pub fn from_column(col: &Column) -> ZoneMap {
        if let Some((dict, _, validity)) = col.dict_parts() {
            let mut min: Option<Value> = None;
            let mut max: Option<Value> = None;
            for s in dict.iter() {
                let v = Value::str(s);
                match &min {
                    None => min = Some(v.clone()),
                    Some(m) if v.sql_cmp(m) == Ordering::Less => min = Some(v.clone()),
                    _ => {}
                }
                match &max {
                    None => max = Some(v),
                    Some(m) if v.sql_cmp(m) == Ordering::Greater => max = Some(v),
                    _ => {}
                }
            }
            return ZoneMap {
                min,
                max,
                null_count: validity.count_null(),
                row_count: col.len(),
            };
        }
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut null_count = 0;
        for i in 0..col.len() {
            let v = col.value(i);
            if v.is_null() {
                null_count += 1;
                continue;
            }
            if matches!(v, Value::Float(f) if f.is_nan()) {
                continue;
            }
            match &min {
                None => min = Some(v.clone()),
                Some(m) if v.sql_cmp(m) == Ordering::Less => min = Some(v.clone()),
                _ => {}
            }
            match &max {
                None => max = Some(v),
                Some(m) if v.sql_cmp(m) == Ordering::Greater => max = Some(v),
                _ => {}
            }
        }
        ZoneMap {
            min,
            max,
            null_count,
            row_count: col.len(),
        }
    }

    /// Could any row in this zone equal `v`?
    pub fn may_contain_eq(&self, v: &Value) -> bool {
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => {
                v.sql_cmp(min) != Ordering::Less && v.sql_cmp(max) != Ordering::Greater
            }
            // All-null group: equality with a non-null constant is impossible.
            _ => false,
        }
    }

    /// Could any row satisfy `row < v` (strict) / `row <= v`?
    pub fn may_contain_lt(&self, v: &Value, inclusive: bool) -> bool {
        match &self.min {
            Some(min) => {
                let c = min.sql_cmp(v);
                c == Ordering::Less || (inclusive && c == Ordering::Equal)
            }
            None => false,
        }
    }

    /// Could any row satisfy `row > v` (strict) / `row >= v`?
    pub fn may_contain_gt(&self, v: &Value, inclusive: bool) -> bool {
        match &self.max {
            Some(max) => {
                let c = max.sql_cmp(v);
                c == Ordering::Greater || (inclusive && c == Ordering::Equal)
            }
            None => false,
        }
    }
}

/// A horizontal partition of a table: one immutable batch plus per-column
/// zone maps.
#[derive(Debug, Clone)]
pub struct RowGroup {
    batch: RecordBatch,
    zones: Vec<ZoneMap>,
}

impl RowGroup {
    /// Seal a batch into a row group, computing zone maps.
    pub fn new(batch: RecordBatch) -> RowGroup {
        let zones = batch
            .columns()
            .iter()
            .map(|c| ZoneMap::from_column(c))
            .collect();
        RowGroup { batch, zones }
    }

    /// Rebuild a row group from a batch plus zone maps that were computed
    /// when it was first sealed (the paged checkpoint reader keeps zones
    /// resident and re-reads payloads on demand; recomputing zones on every
    /// fetch would defeat the point of keeping them in the directory).
    pub fn with_zones(batch: RecordBatch, zones: Vec<ZoneMap>) -> RowGroup {
        debug_assert_eq!(batch.columns().len(), zones.len());
        RowGroup { batch, zones }
    }

    /// The underlying batch.
    pub fn batch(&self) -> &RecordBatch {
        &self.batch
    }

    /// Zone map for column ordinal `i`.
    pub fn zone(&self, i: usize) -> &ZoneMap {
        &self.zones[i]
    }

    /// All zone maps, in column order.
    pub fn zones(&self) -> &[ZoneMap] {
        &self.zones
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.batch.num_rows()
    }
}

/// Where a sealed row group's data lives.
///
/// Memory-resident groups hold their batch directly; paged groups hold only
/// zone maps plus a `(offset, len)` window into a checkpoint file, and
/// materialize their batch through the buffer pool on every
/// [`Table::group`] call — deliberately uncached, so a scan over a paged
/// table holds at most one group (plus the pool's frames) in memory.
#[derive(Debug, Clone)]
pub enum GroupSlot {
    /// Resident in memory (the normal append/flush path).
    Mem(Arc<RowGroup>),
    /// On disk inside a checkpoint file, read through the buffer pool.
    Paged {
        /// The checkpoint file, served through a buffer pool.
        pager: Arc<PagedFile>,
        /// Byte offset of the group payload ([`crate::checkpoint::put_batch`]
        /// bytes) within the file.
        offset: u64,
        /// Payload length in bytes.
        len: usize,
        /// Row count (from the checkpoint group directory).
        rows: usize,
        /// Zone maps kept resident so pruning never touches the disk.
        zones: Arc<Vec<ZoneMap>>,
    },
}

/// Rows per tail chunk (capped at the table's group size). Frozen chunks are
/// shared by every published clone; only the open chunk is ever copied.
pub const TAIL_CHUNK_ROWS: usize = 1024;

/// Rows appended since the last seal, stored columnar in chunks.
///
/// Frozen chunks hold exactly `TAIL_CHUNK_ROWS.min(group_size)` rows and
/// never change; their list is itself shared and copied only when a chunk
/// freezes. The open chunk's columns are `Arc`s mutated through
/// [`Arc::make_mut`]: a clone shares them, and the next append copies at
/// most one chunk. Publishing a snapshot (cloning the table) therefore
/// costs O(1) here, and the commit after it O(open chunk) — never O(tail).
#[derive(Debug, Clone)]
struct Tail {
    frozen: Arc<Vec<RecordBatch>>,
    open: Vec<Arc<Column>>,
    open_rows: usize,
    rows: usize,
}

impl Tail {
    fn new(schema: &Schema) -> Tail {
        Tail {
            frozen: Arc::new(Vec::new()),
            open: empty_columns(schema),
            open_rows: 0,
            rows: 0,
        }
    }

    /// The open chunk as a batch (shares its columns).
    fn open_batch(&self, schema: &Arc<Schema>) -> RecordBatch {
        RecordBatch::try_new(schema.clone(), self.open.clone())
            .expect("open tail chunk matches its schema")
    }
}

fn empty_columns(schema: &Schema) -> Vec<Arc<Column>> {
    schema
        .fields()
        .iter()
        .map(|f| Arc::new(Column::empty(f.data_type)))
        .collect()
}

/// An append-only, row-grouped columnar table.
///
/// A table is *(sealed row groups, tail chunks, commit marks)*. Sealed groups
/// are immutable and `Arc`-shared; appends land in a columnar tail that seals
/// into a group (encoded under the [`EncodingPolicy`]) only once it reaches
/// the group size. Cloning a table — the catalog does this to publish a
/// snapshot after every commit — copies pointers plus at most one open tail
/// chunk, never column data of sealed groups or frozen chunks.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    groups: Vec<GroupSlot>,
    tail: Tail,
    group_size: usize,
    rows: usize,
    encoding: EncodingPolicy,
    /// Commit marks: `(epoch, cumulative rows)` in ascending epoch order.
    /// A snapshot pinned at epoch `e` sees the row-count prefix recorded by
    /// the newest mark at or below `e` — appends after that mark exist
    /// physically but are invisible to the snapshot. Empty means "no commit
    /// tracking": every row is visible (tables built outside a `Database`,
    /// e.g. bench catalogs, keep the pre-MVCC behavior).
    marks: Vec<(u64, usize)>,
}

impl Table {
    /// An empty table with the default row-group size.
    pub fn new(schema: Arc<Schema>) -> Table {
        Table::with_group_size(schema, DEFAULT_ROW_GROUP_SIZE)
    }

    /// An empty table with a custom row-group size (useful for testing
    /// pruning with small groups).
    pub fn with_group_size(schema: Arc<Schema>, group_size: usize) -> Table {
        assert!(group_size > 0, "row group size must be positive");
        Table {
            tail: Tail::new(&schema),
            schema,
            groups: Vec::new(),
            group_size,
            rows: 0,
            encoding: EncodingPolicy::default(),
            marks: Vec::new(),
        }
    }

    /// Set the seal-time encoding policy (builder style).
    pub fn with_encoding(mut self, encoding: EncodingPolicy) -> Table {
        self.encoding = encoding;
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Total rows (sealed + tail).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of sealed row groups (tail rows excluded until sealed).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Rows appended since the last seal (not yet in any row group).
    pub fn tail_rows(&self) -> usize {
        self.tail.rows
    }

    /// Append one row.
    pub fn append_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.append_rows(std::slice::from_ref(&row))
    }

    /// Append rows, all or nothing: every row is checked against the schema
    /// before any is appended, so a bad row leaves the table untouched.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        for row in rows {
            self.check_row(row)?;
        }
        for row in rows {
            for (col, v) in self.tail.open.iter_mut().zip(row) {
                Arc::make_mut(col).push_value(v)?;
            }
            self.tail.open_rows += 1;
            self.tail.rows += 1;
            self.rows += 1;
            if self.tail.rows >= self.group_size {
                self.flush()?;
            } else if self.tail.open_rows >= TAIL_CHUNK_ROWS.min(self.group_size) {
                let chunk = self.tail.open_batch(&self.schema);
                Arc::make_mut(&mut self.tail.frozen).push(chunk);
                self.tail.open = empty_columns(&self.schema);
                self.tail.open_rows = 0;
            }
        }
        Ok(())
    }

    /// Arity and type check of one row (ints widen into float columns,
    /// NULL fits anywhere), mirroring what [`Column::push_value`] accepts.
    fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "row has {} values, schema has {} fields",
                row.len(),
                self.schema.len()
            )));
        }
        for (f, v) in self.schema.fields().iter().zip(row) {
            match v.data_type() {
                None => {}
                Some(DataType::Int64) if f.data_type == DataType::Float64 => {}
                Some(got) if got == f.data_type => {}
                Some(got) => {
                    return Err(StorageError::TypeMismatch {
                        expected: f.data_type.to_string(),
                        found: got.to_string(),
                    })
                }
            }
        }
        Ok(())
    }

    /// Seal the tail into a row group now, even if it is short of the group
    /// size (bulk loads do this once at the end), encoding qualifying
    /// columns under the table's [`EncodingPolicy`].
    pub fn flush(&mut self) -> Result<()> {
        if self.tail.rows == 0 {
            return Ok(());
        }
        let mut chunks: Vec<RecordBatch> = self.tail_batches().collect();
        self.tail = Tail::new(&self.schema);
        let batch = if chunks.len() == 1 {
            chunks.swap_remove(0)
        } else {
            RecordBatch::concat(self.schema.clone(), &chunks)?
        };
        let batch = match self.encoding {
            EncodingPolicy::Auto => encode_for_seal(batch),
            EncodingPolicy::Plain => batch,
        };
        self.groups
            .push(GroupSlot::Mem(Arc::new(RowGroup::new(batch))));
        Ok(())
    }

    /// Seal an already-built batch directly as a row group, keeping whatever
    /// physical encodings its columns carry (checkpoint replay restores
    /// dictionary columns without a re-encode pass). A non-empty tail seals
    /// first, so row order is preserved.
    pub fn push_sealed_batch(&mut self, batch: RecordBatch) -> Result<()> {
        if batch.schema().fields() != self.schema.fields() {
            return Err(StorageError::SchemaMismatch(
                "sealed batch schema differs from table schema".into(),
            ));
        }
        self.flush()?;
        self.rows += batch.num_rows();
        self.groups
            .push(GroupSlot::Mem(Arc::new(RowGroup::new(batch))));
        Ok(())
    }

    /// Register a row group that stays on disk: only its zone maps are
    /// resident; [`Table::group`] re-reads the payload window through the
    /// buffer pool on every access. This is how the paged checkpoint open
    /// publishes tables whose working set exceeds memory.
    pub fn push_paged_group(
        &mut self,
        pager: Arc<PagedFile>,
        offset: u64,
        len: usize,
        rows: usize,
        zones: Vec<ZoneMap>,
    ) {
        debug_assert_eq!(self.tail.rows, 0, "paged groups precede the tail");
        self.rows += rows;
        self.groups.push(GroupSlot::Paged {
            pager,
            offset,
            len,
            rows,
            zones: Arc::new(zones),
        });
    }

    /// Materialize sealed row group `i`.
    ///
    /// Memory-resident groups return a shared `Arc` (no copy). Paged groups
    /// read their payload through the buffer pool and decode it fresh on
    /// every call — deliberately uncached so concurrent scans of a paged
    /// table stay within the pool's memory budget.
    pub fn group(&self, i: usize) -> Result<Arc<RowGroup>> {
        let slot = self.groups.get(i).ok_or(StorageError::OutOfBounds {
            index: i,
            len: self.groups.len(),
        })?;
        match slot {
            GroupSlot::Mem(g) => Ok(g.clone()),
            GroupSlot::Paged {
                pager,
                offset,
                len,
                rows,
                zones,
            } => {
                let bytes = pager.read_at(*offset, *len)?;
                let mut cur = crate::codec::Cursor::new(&bytes);
                let batch = crate::checkpoint::read_batch(&mut cur, &self.schema)?;
                if batch.num_rows() != *rows {
                    return Err(StorageError::Corrupt(format!(
                        "paged group {i}: payload has {} rows, directory says {rows}",
                        batch.num_rows()
                    )));
                }
                Ok(Arc::new(RowGroup::with_zones(
                    batch,
                    zones.as_ref().clone(),
                )))
            }
        }
    }

    /// Row count of sealed group `i` without materializing it.
    pub fn group_rows(&self, i: usize) -> usize {
        match &self.groups[i] {
            GroupSlot::Mem(g) => g.num_rows(),
            GroupSlot::Paged { rows, .. } => *rows,
        }
    }

    /// Zone maps of sealed group `i`, in column order — always resident,
    /// even for paged groups, so pruning never costs an I/O.
    pub fn group_zones(&self, i: usize) -> &[ZoneMap] {
        match &self.groups[i] {
            GroupSlot::Mem(g) => g.zones(),
            GroupSlot::Paged { zones, .. } => zones,
        }
    }

    /// Number of sealed groups whose payload lives on disk.
    pub fn num_paged_groups(&self) -> usize {
        self.groups
            .iter()
            .filter(|s| matches!(s, GroupSlot::Paged { .. }))
            .count()
    }

    /// The tail as batches, in row order: frozen chunks, then the open
    /// chunk when it holds rows. Batches share the tail's columns.
    pub fn tail_batches(&self) -> impl Iterator<Item = RecordBatch> + '_ {
        let open = (self.tail.open_rows > 0).then(|| self.tail.open_batch(&self.schema));
        self.tail.frozen.iter().cloned().chain(open)
    }

    /// Number of scan segments: sealed groups first, then tail chunks, in
    /// row order. Scans, ANALYZE and snapshot readers walk segments so the
    /// tail is read in place, never sealed on their behalf.
    pub fn num_segments(&self) -> usize {
        self.groups.len() + self.tail.frozen.len() + usize::from(self.tail.open_rows > 0)
    }

    /// Row count of segment `i` without materializing it.
    pub fn segment_rows(&self, i: usize) -> usize {
        match i.checked_sub(self.groups.len()) {
            None => self.group_rows(i),
            Some(c) => match self.tail.frozen.get(c) {
                Some(chunk) => chunk.num_rows(),
                None => self.tail.open_rows,
            },
        }
    }

    /// Zone maps of segment `i`: a sealed group's, or none for a tail chunk
    /// (tail chunks are never pruned).
    pub fn segment_zones(&self, i: usize) -> &[ZoneMap] {
        if i < self.groups.len() {
            self.group_zones(i)
        } else {
            &[]
        }
    }

    /// Materialize segment `i` (see [`Table::group`] for paged groups).
    pub fn segment(&self, i: usize) -> Result<RecordBatch> {
        match i.checked_sub(self.groups.len()) {
            None => Ok(self.group(i)?.batch().clone()),
            Some(c) => match self.tail.frozen.get(c) {
                Some(chunk) => Ok(chunk.clone()),
                None if c == self.tail.frozen.len() && self.tail.open_rows > 0 => {
                    Ok(self.tail.open_batch(&self.schema))
                }
                None => Err(StorageError::OutOfBounds {
                    index: i,
                    len: self.num_segments(),
                }),
            },
        }
    }

    /// The first `rows` rows as one batch per segment, the last one sliced
    /// at the boundary — how a reader walks a snapshot's visible prefix.
    pub fn prefix_batches(&self, rows: usize) -> impl Iterator<Item = Result<RecordBatch>> + '_ {
        let mut remaining = rows.min(self.rows);
        (0..self.num_segments()).map_while(move |i| {
            if remaining == 0 {
                return None;
            }
            let n = self.segment_rows(i);
            let take = n.min(remaining);
            remaining -= take;
            Some(
                self.segment(i)
                    .and_then(|b| if take < n { b.slice(0, take) } else { Ok(b) }),
            )
        })
    }

    /// Record that every row appended so far is committed at `epoch`.
    ///
    /// Call with the epoch reserved inside the commit critical section, so
    /// marks are appended in ascending epoch order. `horizon` is the oldest
    /// epoch any live snapshot can still pin (`EpochClock::horizon` in
    /// `backbone-txn`): marks strictly older than the newest mark at or
    /// below the horizon can never be selected again and are pruned here,
    /// keeping the mark vector O(active snapshots), not O(commits).
    pub fn record_commit(&mut self, epoch: u64, horizon: u64) {
        debug_assert!(
            self.marks.last().is_none_or(|(e, _)| *e < epoch),
            "commit marks must arrive in ascending epoch order"
        );
        self.marks.push((epoch, self.rows));
        if let Some(base) = self.marks.iter().rposition(|(e, _)| *e <= horizon) {
            if base > 0 {
                self.marks.drain(..base);
            }
        }
    }

    /// Rows visible to a snapshot pinned at `epoch`.
    ///
    /// With no marks recorded the whole table is visible (pre-MVCC tables
    /// and catalogs assembled by hand). Otherwise the newest mark at or
    /// below `epoch` bounds the visible prefix; a snapshot older than every
    /// mark sees nothing.
    pub fn visible_rows_at(&self, epoch: u64) -> usize {
        if self.marks.is_empty() {
            return self.rows;
        }
        self.marks
            .iter()
            .rev()
            .find(|(e, _)| *e <= epoch)
            .map(|(_, rows)| *rows)
            .unwrap_or(0)
    }

    /// Number of live commit marks (diagnostics / pruning tests).
    pub fn num_commit_marks(&self) -> usize {
        self.marks.len()
    }

    /// Materialize the whole table as one batch (testing / small tables;
    /// paged groups are read through the pool one at a time).
    pub fn to_batch(&self) -> Result<RecordBatch> {
        let batches = self.prefix_batches(self.rows).collect::<Result<Vec<_>>>()?;
        RecordBatch::concat(self.schema.clone(), &batches)
    }

    /// Approximate in-memory size in bytes of sealed groups and the tail.
    /// Paged groups count only their resident zone maps (their payloads
    /// live on disk).
    pub fn byte_size(&self) -> usize {
        let sealed: usize = self
            .groups
            .iter()
            .map(|s| match s {
                GroupSlot::Mem(g) => g.batch().byte_size(),
                GroupSlot::Paged { zones, .. } => zones.len() * std::mem::size_of::<ZoneMap>(),
            })
            .sum();
        sealed + self.tail_batches().map(|b| b.byte_size()).sum::<usize>()
    }

    /// (dictionary-encoded columns, rows they cover) across memory-resident
    /// sealed groups — the source for `storage.encoding.*` counters. Paged
    /// groups are excluded: counting them would force a full decode of data
    /// deliberately left on disk.
    pub fn encoding_stats(&self) -> (usize, usize) {
        let mut cols = 0;
        let mut rows = 0;
        for s in &self.groups {
            let GroupSlot::Mem(g) = s else { continue };
            for c in g.batch().columns() {
                if c.is_dict() {
                    cols += 1;
                    rows += c.len();
                }
            }
        }
        (cols, rows)
    }

    /// (encoded Int64 columns, rows they cover) across memory-resident
    /// sealed groups — the source for `storage.encoding.int_*` counters.
    pub fn int_encoding_stats(&self) -> (usize, usize) {
        let mut cols = 0;
        let mut rows = 0;
        for s in &self.groups {
            let GroupSlot::Mem(g) = s else { continue };
            for c in g.batch().columns() {
                if c.is_encoded() {
                    cols += 1;
                    rows += c.len();
                }
            }
        }
        (cols, rows)
    }
}

/// Re-encode every qualifying column of a freshly sealed batch: Utf8
/// columns dictionary-encode when at least [`DICT_MIN_SEAL_ROWS`] rows and
/// distinct ratio at most `1 / DICT_RATIO_DEN`; Int64 columns switch to
/// [`crate::compress::EncodedInts`] — frame-of-reference lanes whenever the
/// value range fits 32 bits, RLE when its runs are smaller still or clear
/// the [`ENC_RATIO_DEN`] floor on their own. One encode pass per column;
/// non-qualifying columns keep their plain vectors.
fn encode_for_seal(batch: RecordBatch) -> RecordBatch {
    let rows = batch.num_rows();
    if rows < DICT_MIN_SEAL_ROWS {
        return batch;
    }
    let mut changed = false;
    let columns: Vec<Arc<Column>> = batch
        .columns()
        .iter()
        .map(|c| {
            if let Some(dict) = c.dict_encode() {
                if dict.utf8_distinct().unwrap_or(usize::MAX) * DICT_RATIO_DEN <= rows {
                    changed = true;
                    return Arc::new(dict);
                }
            }
            if let Some(enc) = c.int64_encode() {
                let keep = match enc.encoded_parts() {
                    Some((EncodedInts::For(_), _)) => true,
                    Some((data, _)) => data.byte_size() * ENC_RATIO_DEN <= rows * 8,
                    None => false,
                };
                if keep {
                    changed = true;
                    return Arc::new(enc);
                }
            }
            c.clone()
        })
        .collect();
    if !changed {
        return batch;
    }
    let schema = batch.schema().clone();
    RecordBatch::try_new(schema, columns).expect("re-encoded batch keeps schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::nullable("v", DataType::Utf8),
        ])
    }

    #[test]
    fn append_and_group_sealing() {
        let mut t = Table::with_group_size(schema(), 4);
        for i in 0..10 {
            t.append_row(vec![Value::Int(i), Value::str(format!("r{i}"))])
                .unwrap();
        }
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.num_groups(), 2); // two sealed groups of 4, 2 pending
        t.flush().unwrap();
        assert_eq!(t.num_groups(), 3);
    }

    #[test]
    fn zone_map_min_max() {
        let col = Column::from_i64(vec![5, 1, 9, 3]);
        let z = ZoneMap::from_column(&col);
        assert_eq!(z.min, Some(Value::Int(1)));
        assert_eq!(z.max, Some(Value::Int(9)));
        assert_eq!(z.null_count, 0);
    }

    #[test]
    fn zone_map_nulls() {
        let col = Column::from_opt_i64(vec![None, Some(2), None]);
        let z = ZoneMap::from_column(&col);
        assert_eq!(z.min, Some(Value::Int(2)));
        assert_eq!(z.null_count, 2);
    }

    #[test]
    fn zone_map_all_null() {
        let col = Column::from_opt_i64(vec![None, None]);
        let z = ZoneMap::from_column(&col);
        assert_eq!(z.min, None);
        assert!(!z.may_contain_eq(&Value::Int(0)));
        assert!(!z.may_contain_lt(&Value::Int(100), true));
        assert!(!z.may_contain_gt(&Value::Int(-100), true));
    }

    #[test]
    fn zone_map_bounds_skip_nan() {
        // A leading NaN must not become a bound that compares equal to
        // everything: `f < 2.0` has a match here.
        let col = Column::from_f64(vec![f64::NAN, 1.5, 3.0]);
        let z = ZoneMap::from_column(&col);
        assert_eq!(z.min, Some(Value::Float(1.5)));
        assert!(z.may_contain_lt(&Value::Float(2.0), false));
        assert_eq!(
            ZoneMap::from_column(&Column::from_f64(vec![f64::NAN])).min,
            None
        );
    }

    #[test]
    fn zone_pruning_predicates() {
        let col = Column::from_i64(vec![10, 20, 30]);
        let z = ZoneMap::from_column(&col);
        assert!(z.may_contain_eq(&Value::Int(20)));
        assert!(z.may_contain_eq(&Value::Int(15))); // within range: may contain
        assert!(!z.may_contain_eq(&Value::Int(5)));
        assert!(!z.may_contain_eq(&Value::Int(35)));
        // row < 10? min is 10, strict: no. inclusive (<=10): yes.
        assert!(!z.may_contain_lt(&Value::Int(10), false));
        assert!(z.may_contain_lt(&Value::Int(10), true));
        // row > 30? strict no, inclusive yes.
        assert!(!z.may_contain_gt(&Value::Int(30), false));
        assert!(z.may_contain_gt(&Value::Int(30), true));
    }

    /// Every sealed group and frozen tail-chunk column of `t`, as pointers.
    fn shared_parts(t: &Table) -> (Vec<Arc<RowGroup>>, Vec<Arc<Column>>) {
        let groups = t
            .groups
            .iter()
            .map(|s| match s {
                GroupSlot::Mem(g) => g.clone(),
                GroupSlot::Paged { .. } => unreachable!("in-memory table"),
            })
            .collect();
        let chunks = t
            .tail
            .frozen
            .iter()
            .flat_map(|c| c.columns().iter().cloned())
            .collect();
        (groups, chunks)
    }

    #[test]
    fn published_snapshots_share_groups_and_frozen_chunks() {
        // Groups of 4 chunks: commits of 10 rows cross chunk and group
        // boundaries at different points.
        let mut t = Table::with_group_size(schema(), 4 * TAIL_CHUNK_ROWS);
        let mut next = 0i64;
        let mut commit = |t: &mut Table, n: usize| {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|_| {
                    next += 1;
                    vec![Value::Int(next), Value::str(format!("r{next}"))]
                })
                .collect();
            t.append_rows(&rows).unwrap();
        };
        commit(&mut t, 5 * TAIL_CHUNK_ROWS + 7);
        assert_eq!(t.num_groups(), 1);
        assert_eq!(t.tail_rows(), TAIL_CHUNK_ROWS + 7);
        for _ in 0..400 {
            let before = t.clone();
            commit(&mut t, 10);
            let after = t.clone();
            let (g0, c0) = shared_parts(&before);
            let (g1, c1) = shared_parts(&after);
            // Everything the earlier snapshot had sealed or frozen is the
            // very same allocation in the later one: a publish copies at
            // most the open chunk.
            assert!(g0.len() <= g1.len());
            assert!(g0.iter().zip(&g1).all(|(a, b)| Arc::ptr_eq(a, b)));
            if g0.len() == g1.len() {
                assert!(c0.len() <= c1.len());
                assert!(c0.iter().zip(&c1).all(|(a, b)| Arc::ptr_eq(a, b)));
            }
            // The earlier snapshot still reads exactly its own rows.
            assert_eq!(before.num_rows() + 10, after.num_rows());
            assert_eq!(before.to_batch().unwrap().num_rows(), before.num_rows());
        }
        // The loop crossed one more seal; nothing else was sealed.
        assert_eq!(t.num_groups(), 2);
        assert_eq!(t.tail_rows(), t.num_rows() - 2 * 4 * TAIL_CHUNK_ROWS);
    }

    #[test]
    fn tail_seals_only_at_group_size() {
        let mut t = Table::with_group_size(schema(), 100);
        for i in 0..250 {
            t.append_row(vec![Value::Int(i), Value::Null]).unwrap();
            assert_eq!(t.num_groups(), (i as usize + 1) / 100);
            assert_eq!(t.tail_rows(), (i as usize + 1) % 100);
        }
        // Segments walk groups, then the tail, in row order.
        assert_eq!(t.num_segments(), 3);
        let ids: Vec<Value> = t
            .prefix_batches(t.num_rows())
            .flat_map(|b| b.unwrap().to_rows())
            .map(|row| row[0].clone())
            .collect();
        assert_eq!(ids, (0..250).map(Value::Int).collect::<Vec<_>>());
        // A prefix ending inside the tail is sliced there.
        let n: usize = t.prefix_batches(230).map(|b| b.unwrap().num_rows()).sum();
        assert_eq!(n, 230);
    }

    #[test]
    fn append_rows_is_all_or_nothing() {
        let mut t = Table::new(schema());
        let rows = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::str("bad"), Value::Null],
        ];
        assert!(t.append_rows(&rows).is_err());
        assert_eq!(t.num_rows(), 0);
        assert!(t.to_batch().unwrap().is_empty());
        // Ints widen into float columns; NULL fits any column.
        let fs = Schema::new(vec![Field::nullable("f", DataType::Float64)]);
        let mut f = Table::new(fs);
        f.append_rows(&[vec![Value::Int(2)], vec![Value::Null]])
            .unwrap();
        assert_eq!(f.to_batch().unwrap().row(0), vec![Value::Float(2.0)]);
    }

    #[test]
    fn to_batch_includes_pending() {
        let mut t = Table::with_group_size(schema(), 100);
        t.append_row(vec![Value::Int(1), Value::Null]).unwrap();
        t.append_row(vec![Value::Int(2), Value::str("x")]).unwrap();
        let b = t.to_batch().unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(0)[1], Value::Null);
    }

    #[test]
    fn arity_check() {
        let mut t = Table::new(schema());
        assert!(t.append_row(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn seal_encodes_low_cardinality_strings() {
        let mut t = Table::with_group_size(schema(), 256);
        for i in 0..256 {
            t.append_row(vec![
                Value::Int(i),
                Value::str(["A", "B", "C"][i as usize % 3]),
            ])
            .unwrap();
        }
        let g = t.group(0).unwrap();
        let col = &g.batch().columns()[1];
        assert!(col.is_dict(), "low-cardinality Utf8 should seal as dict");
        assert_eq!(col.utf8_distinct(), Some(3));
        // Zone maps still bound the values.
        assert!(g.zone(1).may_contain_eq(&Value::str("B")));
        assert!(!g.zone(1).may_contain_eq(&Value::str("Z")));
        assert_eq!(t.encoding_stats(), (1, 256));
        // High-cardinality columns stay plain.
        let mut hi = Table::with_group_size(schema(), 256);
        for i in 0..256 {
            hi.append_row(vec![Value::Int(i), Value::str(format!("v{i}"))])
                .unwrap();
        }
        assert!(!hi.group(0).unwrap().batch().columns()[1].is_dict());
        // Plain policy disables encoding entirely.
        let mut plain = Table::with_group_size(schema(), 256).with_encoding(EncodingPolicy::Plain);
        for i in 0..256 {
            plain
                .append_row(vec![Value::Int(i), Value::str("same")])
                .unwrap();
        }
        assert!(!plain.group(0).unwrap().batch().columns()[1].is_dict());
        assert_eq!(plain.encoding_stats(), (0, 0));
    }

    #[test]
    fn seal_encodes_compressible_ints() {
        // Long runs: RLE crushes this column, so it seals encoded.
        let mut t = Table::with_group_size(schema(), 256);
        for i in 0..256 {
            t.append_row(vec![Value::Int(i / 64), Value::str(format!("v{i}"))])
                .unwrap();
        }
        let g = t.group(0).unwrap();
        let col = &g.batch().columns()[0];
        assert!(col.is_encoded(), "run-heavy Int64 should seal encoded");
        for i in 0..256usize {
            assert_eq!(col.value(i), Value::Int(i as i64 / 64));
        }
        assert!(g.zone(0).may_contain_eq(&Value::Int(3)));
        assert!(!g.zone(0).may_contain_eq(&Value::Int(9)));
        assert_eq!(t.int_encoding_stats(), (1, 256));
        // Wide-range values miss the 2x floor and stay plain.
        let mut hi = Table::with_group_size(schema(), 256);
        for i in 0..256i64 {
            hi.append_row(vec![Value::Int(i * i * 9_999_991), Value::str("s")])
                .unwrap();
        }
        assert!(!hi.group(0).unwrap().batch().columns()[0].is_encoded());
        // Plain policy disables numeric encoding too.
        let mut plain = Table::with_group_size(schema(), 256).with_encoding(EncodingPolicy::Plain);
        for _ in 0..256 {
            plain
                .append_row(vec![Value::Int(1), Value::str("s")])
                .unwrap();
        }
        assert!(!plain.group(0).unwrap().batch().columns()[0].is_encoded());
        assert_eq!(plain.int_encoding_stats(), (0, 0));
    }

    #[test]
    fn push_sealed_batch_keeps_encoding() {
        let s = schema();
        let cols = vec![
            Arc::new(Column::from_i64(vec![1, 2])),
            Arc::new(
                Column::from_strings(vec!["a".into(), "a".into()])
                    .dict_encode()
                    .unwrap(),
            ),
        ];
        let batch = RecordBatch::try_new(s.clone(), cols).unwrap();
        let mut t = Table::new(s);
        t.push_sealed_batch(batch).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert!(t.group(0).unwrap().batch().columns()[1].is_dict());
    }

    #[test]
    fn commit_marks_bound_visibility() {
        let mut t = Table::with_group_size(schema(), 4);
        // No marks: everything visible at any epoch (pre-MVCC behavior).
        t.append_row(vec![Value::Int(0), Value::Null]).unwrap();
        assert_eq!(t.visible_rows_at(0), 1);
        // Commit 1 covers rows [0, 2); commit 5 covers [0, 3).
        t.append_row(vec![Value::Int(1), Value::Null]).unwrap();
        t.record_commit(1, 0);
        t.append_row(vec![Value::Int(2), Value::Null]).unwrap();
        t.record_commit(5, 0);
        assert_eq!(t.visible_rows_at(0), 0, "older than every mark");
        assert_eq!(t.visible_rows_at(1), 2);
        assert_eq!(
            t.visible_rows_at(3),
            2,
            "epochs between marks see the older"
        );
        assert_eq!(t.visible_rows_at(5), 3);
        assert_eq!(t.visible_rows_at(99), 3);
    }

    #[test]
    fn commit_marks_prune_to_horizon() {
        let mut t = Table::with_group_size(schema(), 64);
        for e in 1..=10u64 {
            t.append_row(vec![Value::Int(e as i64), Value::Null])
                .unwrap();
            // Horizon trails two epochs behind the commit.
            t.record_commit(e, e.saturating_sub(2));
        }
        // Only marks at or above the newest mark <= horizon (8) survive.
        assert_eq!(t.num_commit_marks(), 3);
        assert_eq!(t.visible_rows_at(8), 8);
        assert_eq!(t.visible_rows_at(10), 10);
        // Epochs below the pruned base degrade to the base mark being the
        // oldest answer available — callers never pin below the horizon.
        assert_eq!(t.visible_rows_at(7), 0);
    }

    #[test]
    fn row_group_zones_accessible() {
        let mut t = Table::with_group_size(schema(), 2);
        t.append_row(vec![Value::Int(7), Value::str("a")]).unwrap();
        t.append_row(vec![Value::Int(3), Value::str("b")]).unwrap();
        let g = t.group(0).unwrap();
        assert_eq!(g.zone(0).min, Some(Value::Int(3)));
        assert_eq!(g.zone(0).max, Some(Value::Int(7)));
        assert_eq!(g.num_rows(), 2);
    }
}
