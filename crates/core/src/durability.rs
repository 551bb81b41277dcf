//! The durable backbone: WAL-logged facade operations, checkpointed
//! recovery, and the record codec that ties them together.
//!
//! A durable [`crate::Database`] (see [`crate::Database::open`]) persists
//! two files in its directory:
//!
//! - `wal.log` — the write-ahead log ([`backbone_txn::wal::Wal`]). Every
//!   `create_table` and `insert` appends one [`DbOp`] record *inside* the
//!   database's commit mutex (log order = commit order) and acknowledges only
//!   after the record is durable under the configured
//!   [`FsyncPolicy`].
//! - `checkpoint.bin` — an atomic snapshot of every table
//!   ([`backbone_storage::checkpoint`]) stamped with the WAL LSN it covers.
//!
//! Recovery loads the checkpoint, replays only log records with a higher
//! LSN, and reports what it did in a [`RecoveryReport`]. A torn or corrupt
//! log tail is truncated at the last valid record — never a panic — and the
//! dropped byte count is surfaced in the report and in the
//! `wal.bytes_dropped` metric.

use crate::error::{Error, Result};
use backbone_storage::checkpoint::{open_checkpoint_paged, read_checkpoint, CheckpointData};
use backbone_storage::codec::{self, Cursor};
use backbone_storage::{Metrics, Schema, StorageError, Value};
use backbone_txn::wal::{FsyncPolicy, LogDevice, Replay, Wal, WalConfig};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File name of the write-ahead log inside a database directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the checkpoint snapshot inside a database directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Tuning knobs for a durable database. Built with the same consuming
/// builder style as [`crate::VectorIndexSpec`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// When commits fsync (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Take a checkpoint after this many logged operations (0 disables
    /// automatic checkpoints; [`crate::Database::checkpoint`] still works).
    pub checkpoint_every: u64,
    /// When `Some(n)`, open the checkpoint *paged*: sealed row groups stay
    /// on disk behind a buffer pool of `n` 4 KiB frames and stream in on
    /// demand, so recovery memory is `O(n)` instead of `O(data)`. `None`
    /// (the default) loads every table fully into memory.
    pub pool_pages: Option<usize>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::Group,
            checkpoint_every: 1024,
            pool_pages: None,
        }
    }
}

impl DurabilityOptions {
    /// Set the commit fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> DurabilityOptions {
        self.fsync = policy;
        self
    }

    /// Checkpoint after every `n` logged operations (0 = never
    /// automatically).
    pub fn checkpoint_every(mut self, n: u64) -> DurabilityOptions {
        self.checkpoint_every = n;
        self
    }

    /// Open checkpointed row groups through a buffer pool of `pool_pages`
    /// frames instead of loading them into memory (out-of-core mode).
    pub fn paged(mut self, pool_pages: usize) -> DurabilityOptions {
        self.pool_pages = Some(pool_pages);
        self
    }
}

/// One logged facade operation — the WAL record vocabulary of the
/// `Database` layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DbOp {
    /// `create_table(name, schema)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Table schema.
        schema: Arc<Schema>,
    },
    /// `insert(table, rows)`.
    Insert {
        /// Target table.
        table: String,
        /// The inserted rows, in order.
        rows: Vec<Vec<Value>>,
    },
}

const OP_CREATE: u8 = 1;
const OP_INSERT: u8 = 2;

/// Encode a `create_table` record.
pub fn encode_create(name: &str, schema: &Schema) -> Vec<u8> {
    let mut out = vec![OP_CREATE];
    codec::put_str(&mut out, name);
    codec::put_schema(&mut out, schema);
    out
}

/// Encode an `insert` record.
pub fn encode_insert(table: &str, rows: &[Vec<Value>]) -> Vec<u8> {
    let mut out = vec![OP_INSERT];
    codec::put_str(&mut out, table);
    codec::put_u32(&mut out, rows.len() as u32);
    for row in rows {
        codec::put_u32(&mut out, row.len() as u32);
        for v in row {
            codec::put_value(&mut out, v);
        }
    }
    out
}

/// Decode one WAL record back into a [`DbOp`]. Malformed bytes surface as
/// [`StorageError::Corrupt`] (wrapped), never a panic.
pub fn decode_op(bytes: &[u8]) -> Result<DbOp> {
    let mut cur = Cursor::new(bytes);
    let op = match cur.u8().map_err(Error::from)? {
        OP_CREATE => {
            let name = cur.str().map_err(Error::from)?.to_string();
            let schema = codec::read_schema(&mut cur).map_err(Error::from)?;
            DbOp::CreateTable { name, schema }
        }
        OP_INSERT => {
            let table = cur.str().map_err(Error::from)?.to_string();
            // A row is at least its width word, a value at least its tag.
            let n_rows = cur.u32().map_err(Error::from)?;
            let n_rows = cur.count(n_rows.into(), 4).map_err(Error::from)?;
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let width = cur.u32().map_err(Error::from)?;
                let width = cur.count(width.into(), 1).map_err(Error::from)?;
                let mut row = Vec::with_capacity(width);
                for _ in 0..width {
                    row.push(codec::read_value(&mut cur).map_err(Error::from)?);
                }
                rows.push(row);
            }
            DbOp::Insert { table, rows }
        }
        tag => {
            return Err(Error::Storage(StorageError::Corrupt(format!(
                "unknown db op tag {tag}"
            ))))
        }
    };
    Ok(op)
}

/// What recovery found and did when a durable database was opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// LSN the loaded checkpoint covered (0 when there was none).
    pub checkpoint_lsn: u64,
    /// Tables restored from the checkpoint.
    pub checkpoint_tables: usize,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: usize,
    /// Torn/corrupt tail bytes truncated away instead of panicking.
    pub wal_bytes_dropped: u64,
}

/// The durable half of a [`crate::Database`]: the WAL, the checkpoint
/// location, and the checkpoint cadence counter.
pub struct Durability {
    wal: Wal,
    checkpoint_path: PathBuf,
    opts: DurabilityOptions,
    ops_since_checkpoint: AtomicU64,
    /// Serializes checkpoints (never held while waiting on the commit mutex
    /// holders — the commit mutex is taken *inside* a checkpoint, and no
    /// caller takes this lock while holding the commit mutex).
    checkpoint_lock: Mutex<()>,
}

/// Everything recovery needs to rebuild in-memory state.
pub struct RecoveredState {
    /// The checkpoint snapshot, if one existed.
    pub checkpoint: Option<CheckpointData>,
    /// The full durable log; apply records with `lsn > checkpoint.lsn`.
    pub replay: Replay,
}

impl Durability {
    /// Open the durable state in `dir` over the log `device` (`dir/wal.log`
    /// for a file-backed database), returning the state recovery must
    /// apply. Buffer-pool traffic from a paged open lands in `metrics`
    /// (`bufferpool.*`) — pass the registry the database will own so
    /// EXPLAIN ANALYZE sees the recovery I/O.
    pub fn open(
        dir: &Path,
        device: Box<dyn LogDevice>,
        opts: DurabilityOptions,
        metrics: &Metrics,
    ) -> Result<(Durability, RecoveredState)> {
        let wal = Wal::with_device(device, WalConfig::with_policy(opts.fsync))?;
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let checkpoint = match opts.pool_pages {
            Some(pages) => open_checkpoint_paged(&checkpoint_path, pages, metrics)?,
            None => read_checkpoint(&checkpoint_path)?,
        };
        let replay = wal.replay()?;
        Ok((
            Durability {
                wal,
                checkpoint_path,
                opts,
                ops_since_checkpoint: AtomicU64::new(0),
                checkpoint_lock: Mutex::new(()),
            },
            RecoveredState { checkpoint, replay },
        ))
    }

    /// Append one encoded op without waiting (call inside the commit mutex
    /// so log order matches commit order). Returns the record's LSN.
    pub fn log(&self, payload: &[u8]) -> Result<u64> {
        Ok(self.wal.append(payload)?)
    }

    /// Block until the record at `lsn` is durable under the policy (call
    /// *outside* the commit mutex so group commit can batch waiters).
    pub fn wait(&self, lsn: u64) -> Result<()> {
        Ok(self.wal.wait_durable(lsn)?)
    }

    /// Count one logged op toward the checkpoint cadence; true when a
    /// checkpoint is due.
    pub fn checkpoint_due(&self) -> bool {
        if self.opts.checkpoint_every == 0 {
            return false;
        }
        let n = self.ops_since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
        n >= self.opts.checkpoint_every
    }

    /// Reset the cadence counter (after a checkpoint completed).
    pub fn checkpoint_done(&self) {
        self.ops_since_checkpoint.store(0, Ordering::Relaxed);
    }

    /// The checkpoint serialization lock.
    pub fn checkpoint_lock(&self) -> &Mutex<()> {
        &self.checkpoint_lock
    }

    /// Where the checkpoint file lives.
    pub fn checkpoint_path(&self) -> &Path {
        &self.checkpoint_path
    }

    /// The underlying log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The options this database was opened with.
    pub fn options(&self) -> &DurabilityOptions {
        &self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_storage::{DataType, Field};

    #[test]
    fn ops_round_trip() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("note", DataType::Utf8),
        ]);
        let create = encode_create("events", &schema);
        match decode_op(&create).unwrap() {
            DbOp::CreateTable { name, schema: s } => {
                assert_eq!(name, "events");
                assert_eq!(*s, *schema);
            }
            other => panic!("wrong op: {other:?}"),
        }
        let rows = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::Null],
        ];
        let insert = encode_insert("events", &rows);
        match decode_op(&insert).unwrap() {
            DbOp::Insert { table, rows: r } => {
                assert_eq!(table, "events");
                assert_eq!(r, rows);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn malformed_ops_error_not_panic() {
        assert!(decode_op(&[]).is_err());
        assert!(decode_op(&[99]).is_err());
        let mut truncated = encode_insert("t", &[vec![Value::Int(5)]]);
        truncated.truncate(truncated.len() - 3);
        assert!(decode_op(&truncated).is_err());
    }
}
