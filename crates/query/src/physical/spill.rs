//! Out-of-core support: memory-budget accounting and Grace-style spill files.
//!
//! A query with [`ExecOptions::mem_budget`](crate::executor::ExecOptions) set
//! gets one shared [`BudgetAccountant`]; every memory-hungry operator (hash
//! aggregate, hash join build) and every morsel worker reports its resident
//! state through a [`BudgetLease`]. When the shared total crosses the limit,
//! the operator partitions its state by key hash into [`SpillFile`]s —
//! serialized with the storage codec's `put_batch`/`read_batch` — and
//! re-reads one partition at a time. Partitions that are still too big
//! repartition recursively with deeper hash bits, up to [`MAX_SPILL_DEPTH`],
//! unless every row shares one key hash ([`one_key_hash`]): no deeper bits
//! can split such a partition, so it finishes in memory at once.
//!
//! Partition bits come from the *upper* half of the 64-bit key hash
//! (`(hash >> 32) >> (3 * depth)`), leaving the low bits free for the hash
//! table's bucket index, so one partition's keys still spread across buckets.

use crate::error::{QueryError, Result};
use backbone_storage::codec::{put_batch, read_batch, Cursor};
use backbone_storage::{Counter, RecordBatch, Schema, StorageError};
use std::fs::File;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Fan-out of one partitioning pass.
pub const SPILL_PARTITIONS: usize = 8;

/// Hash bits consumed per recursion level (`log2(SPILL_PARTITIONS)`).
const PART_BITS: usize = 3;

/// Deepest recursive repartitioning. A partition that still exceeds the
/// budget at this depth is processed in memory anyway: correctness wins over
/// the ceiling (adversarial key distributions could otherwise recurse
/// forever on one hot key).
pub const MAX_SPILL_DEPTH: usize = 4;

/// Partition index for a key hash at the given recursion depth.
#[inline]
pub fn partition_of(hash: u64, depth: usize) -> usize {
    (((hash >> 32) >> (PART_BITS * depth)) as usize) & (SPILL_PARTITIONS - 1)
}

/// Shared memory-budget accountant: one per query, shared by every spilling
/// operator and every morsel worker, so parallel workers collectively stay
/// under one ceiling instead of each claiming the full budget.
#[derive(Debug)]
pub struct BudgetAccountant {
    limit: usize,
    used: AtomicUsize,
}

impl BudgetAccountant {
    /// A fresh accountant with the given byte limit.
    pub fn new(limit: usize) -> Arc<BudgetAccountant> {
        Arc::new(BudgetAccountant {
            limit,
            used: AtomicUsize::new(0),
        })
    }

    /// The configured ceiling in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes currently reserved across all leases.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Whether reservations currently exceed the ceiling.
    pub fn over(&self) -> bool {
        self.used() > self.limit
    }

    fn add(&self, bytes: usize) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
    }

    fn sub(&self, bytes: usize) {
        // Saturate rather than wrap if a lease over-releases.
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// One holder's slice of the shared budget. `set` reports the holder's
/// current resident bytes (adjusting the accountant by the delta); dropping
/// the lease releases whatever it still holds.
#[derive(Debug)]
pub struct BudgetLease {
    acct: Arc<BudgetAccountant>,
    held: usize,
}

impl BudgetLease {
    /// A lease holding zero bytes.
    pub fn new(acct: Arc<BudgetAccountant>) -> BudgetLease {
        BudgetLease { acct, held: 0 }
    }

    /// Report this holder's current resident size.
    pub fn set(&mut self, bytes: usize) {
        if bytes >= self.held {
            self.acct.add(bytes - self.held);
        } else {
            self.acct.sub(self.held - bytes);
        }
        self.held = bytes;
    }

    /// Whether the *shared* total is over the ceiling.
    pub fn over(&self) -> bool {
        self.acct.over()
    }

    /// The shared accountant backing this lease.
    pub fn accountant(&self) -> &Arc<BudgetAccountant> {
        &self.acct
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        self.acct.sub(self.held);
    }
}

/// Spill traffic counters: `storage.spill.{partitions,bytes_written,bytes_read}`.
#[derive(Debug, Clone, Default)]
pub struct SpillCounters {
    /// Partition files created.
    pub partitions: Counter,
    /// Bytes appended to partition files.
    pub bytes_written: Counter,
    /// Bytes read back from partition files.
    pub bytes_read: Counter,
}

/// Where one operator's spill traffic is counted: its own stats block,
/// which EXPLAIN ANALYZE's per-query `spill:` line sums, and the registry's
/// `storage.spill.*` totals.
#[derive(Debug, Clone, Default)]
pub struct SpillMeter {
    /// The operator's per-query counters.
    pub op: SpillCounters,
    /// The registry's running totals.
    pub total: SpillCounters,
}

impl SpillMeter {
    fn each(&self, f: impl Fn(&SpillCounters)) {
        f(&self.op);
        f(&self.total);
    }
}

/// Monotonic spill-file sequence: unique names without touching the clock.
static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn spill_dir() -> PathBuf {
    std::env::temp_dir().join(format!("backbone-spill-{}", std::process::id()))
}

fn io_err(e: std::io::Error) -> QueryError {
    QueryError::Storage(StorageError::Io(e.to_string()))
}

/// One spill partition on disk: a sequence of length-prefixed `put_batch`
/// payloads. Created lazily on first append, deleted on drop.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    writer: Option<File>,
    rows: u64,
    batches: u64,
}

impl SpillFile {
    /// A handle to a not-yet-created partition file.
    pub fn new() -> SpillFile {
        let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        SpillFile {
            path: spill_dir().join(format!("part-{seq}.spill")),
            writer: None,
            rows: 0,
            batches: 0,
        }
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one batch (dense; selections are materialized here). Counts a
    /// partition on the first write and the bytes of every write.
    pub fn append(&mut self, batch: &RecordBatch, meter: &SpillMeter) -> Result<()> {
        if batch.num_rows() == 0 {
            return Ok(());
        }
        let dense;
        let batch = if batch.selection().is_some() {
            dense = batch.materialize();
            &dense
        } else {
            batch
        };
        let mut buf = Vec::new();
        put_batch(&mut buf, batch);
        let writer = match &mut self.writer {
            Some(w) => w,
            None => {
                std::fs::create_dir_all(spill_dir()).map_err(io_err)?;
                meter.each(|c| c.partitions.incr());
                self.writer
                    .insert(File::create(&self.path).map_err(io_err)?)
            }
        };
        let len = (buf.len() as u32).to_le_bytes();
        writer.write_all(&len).map_err(io_err)?;
        writer.write_all(&buf).map_err(io_err)?;
        self.rows += batch.num_rows() as u64;
        self.batches += 1;
        meter.each(|c| c.bytes_written.add((buf.len() + 4) as u64));
        Ok(())
    }

    /// Read every batch back, counting the bytes read.
    pub fn read_all(
        &mut self,
        schema: &Arc<Schema>,
        meter: &SpillMeter,
    ) -> Result<Vec<RecordBatch>> {
        if self.rows == 0 {
            return Ok(Vec::new());
        }
        // Flush and drop the write handle before re-opening for read.
        if let Some(mut w) = self.writer.take() {
            w.flush().map_err(io_err)?;
        }
        let mut bytes = Vec::new();
        File::open(&self.path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(io_err)?;
        meter.each(|c| c.bytes_read.add(bytes.len() as u64));
        let mut out = Vec::with_capacity(self.batches as usize);
        let mut pos = 0usize;
        while pos < bytes.len() {
            let end = pos + 4;
            if end > bytes.len() {
                return Err(StorageError::Corrupt("truncated spill frame header".into()).into());
            }
            let len = u32::from_le_bytes(bytes[pos..end].try_into().expect("4 bytes")) as usize;
            let Some(frame) = bytes.get(end..end + len) else {
                return Err(StorageError::Corrupt("truncated spill frame".into()).into());
            };
            let mut cur = Cursor::new(frame);
            out.push(read_batch(&mut cur, schema)?);
            pos = end + len;
        }
        Ok(out)
    }
}

impl Default for SpillFile {
    fn default() -> Self {
        SpillFile::new()
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if self.writer.take().is_some() || self.rows > 0 {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A full fan-out of [`SPILL_PARTITIONS`] partition files at one depth.
#[derive(Debug, Default)]
pub struct SpillSet {
    files: Vec<SpillFile>,
}

impl SpillSet {
    /// Fresh (lazily created) partition files.
    pub fn new() -> SpillSet {
        SpillSet {
            files: (0..SPILL_PARTITIONS).map(|_| SpillFile::new()).collect(),
        }
    }

    /// Whether every partition is still empty.
    pub fn is_empty(&self) -> bool {
        self.files.iter().all(|f| f.is_empty())
    }

    /// Hash `key_idx` columns of a dense view of `batch` and append each
    /// row to its partition at `depth`.
    pub fn append_partitioned(
        &mut self,
        batch: &RecordBatch,
        key_idx: &[usize],
        depth: usize,
        meter: &SpillMeter,
    ) -> Result<()> {
        for (p, part) in partition_batch(batch, key_idx, depth)?
            .into_iter()
            .enumerate()
        {
            if let Some(b) = part {
                self.files[p].append(&b, meter)?;
            }
        }
        Ok(())
    }

    /// Consume the set, yielding its partition files.
    pub fn into_files(self) -> Vec<SpillFile> {
        self.files
    }
}

/// Whether every row of the dense `batches` has one hash over the
/// `key_idx` columns. Every depth puts such rows in one partition, so
/// repartitioning could only rewrite them: an aggregate partition holding
/// one group, or a grace-join build partition whose rows share one key.
pub fn one_key_hash(batches: &[RecordBatch], key_idx: &[usize]) -> bool {
    let mut first = None;
    for b in batches {
        let mut hashes = vec![0u64; b.num_rows()];
        for &k in key_idx {
            b.column(k).hash_combine(None, &mut hashes);
        }
        if hashes.iter().any(|&h| *first.get_or_insert(h) != h) {
            return false;
        }
    }
    true
}

/// Split a batch into per-partition dense batches by hashing `key_idx`
/// columns with [`Column::hash_combine`](backbone_storage::Column) and
/// taking the depth-appropriate bits. `None` marks an empty partition.
pub fn partition_batch(
    batch: &RecordBatch,
    key_idx: &[usize],
    depth: usize,
) -> Result<Vec<Option<RecordBatch>>> {
    let dense = batch.materialize();
    let n = dense.num_rows();
    let mut hashes = vec![0u64; n];
    for &k in key_idx {
        dense.column(k).hash_combine(None, &mut hashes);
    }
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); SPILL_PARTITIONS];
    for (row, &h) in hashes.iter().enumerate() {
        parts[partition_of(h, depth)].push(row as u32);
    }
    parts
        .into_iter()
        .map(|rows| {
            if rows.is_empty() {
                return Ok(None);
            }
            let cols = dense
                .columns()
                .iter()
                .map(|c| Arc::new(c.gather(&rows)))
                .collect();
            Ok(Some(RecordBatch::try_new(dense.schema().clone(), cols)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::test_util::int_batch;

    #[test]
    fn accountant_tracks_leases_across_holders() {
        let acct = BudgetAccountant::new(100);
        let mut a = BudgetLease::new(acct.clone());
        let mut b = BudgetLease::new(acct.clone());
        a.set(60);
        assert!(!acct.over());
        b.set(50);
        assert!(a.over() && b.over(), "budget is shared, not per-lease");
        a.set(10);
        assert!(!acct.over());
        assert_eq!(acct.used(), 60);
        drop(b);
        assert_eq!(acct.used(), 10);
        drop(a);
        assert_eq!(acct.used(), 0);
    }

    #[test]
    fn lease_over_release_saturates() {
        let acct = BudgetAccountant::new(10);
        let mut a = BudgetLease::new(acct.clone());
        let mut b = BudgetLease::new(acct.clone());
        a.set(5);
        b.set(5);
        drop(a);
        b.set(0);
        b.set(3);
        assert_eq!(acct.used(), 3);
    }

    #[test]
    fn spill_file_round_trips_batches() {
        let b1 = int_batch(&[("k", vec![1, 2, 3]), ("v", vec![10, 20, 30])]);
        let b2 = int_batch(&[("k", vec![4]), ("v", vec![40])]);
        let meter = SpillMeter::default();
        let mut f = SpillFile::new();
        f.append(&b1, &meter).unwrap();
        f.append(&b2, &meter).unwrap();
        assert_eq!(f.rows(), 4);
        let back = f.read_all(&b1.schema().clone(), &meter).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].to_rows(), b1.to_rows());
        assert_eq!(back[1].to_rows(), b2.to_rows());
        for c in [&meter.op, &meter.total] {
            assert_eq!(c.partitions.get(), 1);
            assert!(c.bytes_written.get() > 0);
            assert_eq!(c.bytes_read.get(), c.bytes_written.get());
        }
        let path = f.path.clone();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists(), "spill files are deleted on drop");
    }

    #[test]
    fn empty_append_creates_nothing() {
        let b = int_batch(&[("k", vec![])]);
        let mut f = SpillFile::new();
        let meter = SpillMeter::default();
        f.append(&b, &meter).unwrap();
        assert!(f.is_empty());
        assert!(!f.path.exists());
        assert!(f.read_all(&b.schema().clone(), &meter).unwrap().is_empty());
        assert_eq!(meter.total.partitions.get(), 0);
    }

    #[test]
    fn partition_batch_covers_all_rows_consistently() {
        let b = int_batch(&[
            ("k", (0..256).map(|i| i % 37).collect()),
            ("v", (0..256).collect()),
        ]);
        let parts = partition_batch(&b, &[0], 0).unwrap();
        let total: usize = parts.iter().flatten().map(|p| p.num_rows()).sum();
        assert_eq!(total, 256);
        // Same key always lands in the same partition; distinct partitions
        // are key-disjoint.
        let mut key_part: std::collections::HashMap<i64, usize> = Default::default();
        for (p, part) in parts.iter().enumerate() {
            let Some(part) = part else { continue };
            for &k in part.column(0).i64_data().unwrap() {
                assert_eq!(*key_part.entry(k).or_insert(p), p, "key {k} split");
            }
        }
        // Deeper depths shift to different bits but stay consistent per key.
        let deep = partition_batch(&b, &[0], 2).unwrap();
        let total: usize = deep.iter().flatten().map(|p| p.num_rows()).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn one_key_hash_spots_partitions_no_depth_can_split() {
        let one = int_batch(&[("k", vec![7, 7, 7]), ("v", vec![1, 2, 3])]);
        let other = int_batch(&[("k", vec![7, 8]), ("v", vec![4, 5])]);
        assert!(one_key_hash(&[one.clone(), one.clone()], &[0]));
        assert!(!one_key_hash(&[one.clone(), other], &[0]));
        assert!(!one_key_hash(&[one], &[0, 1]), "the key spans both columns");
        assert!(one_key_hash(&[], &[0]));
    }

    #[test]
    fn selection_views_are_densified_before_spilling() {
        let b = int_batch(&[("k", vec![1, 2, 3, 4]), ("v", vec![10, 20, 30, 40])]);
        let view = b.with_selection(Arc::new(vec![1, 3])).unwrap();
        let mut f = SpillFile::new();
        let meter = SpillMeter::default();
        f.append(&view, &meter).unwrap();
        let back = f.read_all(&b.schema().clone(), &meter).unwrap();
        assert_eq!(back[0].num_rows(), 2);
        assert_eq!(back[0].column(1).i64_data().unwrap(), &[20, 40]);
    }
}
