//! Multi-version concurrency control with snapshot isolation.

use crate::error::TxnError;
use crate::ops::{KvEngine, TxnOp};
use crate::serial::encode_record;
use backbone_txn::snapshot::EpochClock;
use backbone_txn::wal::Wal;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

const SHARDS: usize = 64;

/// Versions of one key: `(commit_ts, value)`, ascending by timestamp.
type VersionChain = Vec<(u64, u64)>;

/// MVCC engine with snapshot isolation — rung 3 of the E5 ladder.
///
/// Reads never block: a transaction reads the newest version at or below its
/// begin snapshot. Writes buffer locally and validate at commit with
/// first-committer-wins (any version newer than the snapshot on a written
/// key aborts the transaction with [`TxnError::Conflict`]).
///
/// Commit timestamps, snapshot refcounts, and the GC horizon all come from
/// a shared [`EpochClock`] — the same machinery the relational facade uses
/// to pin query snapshots, so "a snapshot" means one thing engine-wide.
pub struct MvccEngine {
    shards: Vec<RwLock<HashMap<u64, VersionChain>>>,
    clock: EpochClock,
    /// Serializes validate+install; held briefly (never across the WAL).
    commit_lock: Mutex<()>,
    wal: Option<Arc<Wal>>,
}

fn shard_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize & (SHARDS - 1)
}

impl MvccEngine {
    /// An empty engine, optionally durable via `wal`.
    pub fn new(wal: Option<Arc<Wal>>) -> MvccEngine {
        MvccEngine {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            clock: EpochClock::new(),
            commit_lock: Mutex::new(()),
            wal,
        }
    }

    /// Bulk-load initial state as version 0, without logging.
    pub fn load(&self, pairs: impl IntoIterator<Item = (u64, u64)>) {
        for (k, v) in pairs {
            self.shards[shard_of(k)].write().insert(k, vec![(0, v)]);
        }
    }

    fn read_at(&self, key: u64, snapshot: u64) -> Option<u64> {
        let shard = self.shards[shard_of(key)].read();
        let chain = shard.get(&key)?;
        chain
            .iter()
            .rev()
            .find(|(ts, _)| *ts <= snapshot)
            .map(|(_, v)| *v)
    }

    fn release_snapshot(&self, ts: u64) {
        self.clock.release(ts);
    }

    /// Oldest snapshot any transaction might still read at.
    fn gc_horizon(&self) -> u64 {
        self.clock.horizon()
    }

    /// Drop versions no active snapshot can see (all but the newest version
    /// at or below the horizon).
    fn gc_chain(chain: &mut VersionChain, horizon: u64) {
        if chain.len() <= 1 {
            return;
        }
        // Index of the newest version visible at the horizon.
        let keep_from = chain
            .iter()
            .rposition(|(ts, _)| *ts <= horizon)
            .unwrap_or(0);
        if keep_from > 0 {
            chain.drain(..keep_from);
        }
    }

    /// Total stored versions (test/diagnostic hook).
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|c| c.len()).sum::<usize>())
            .sum()
    }
}

impl KvEngine for MvccEngine {
    fn name(&self) -> &'static str {
        "MVCC"
    }

    fn execute(&self, ops: &[TxnOp]) -> Result<Vec<Option<u64>>, TxnError> {
        // Atomic read+register: a prune between the two would GC versions
        // this snapshot still needs (see EpochClock::pin_epoch).
        let snapshot = self.clock.pin_epoch();
        let result = self.execute_at(ops, snapshot);
        self.release_snapshot(snapshot);
        result
    }
}

impl MvccEngine {
    fn execute_at(&self, ops: &[TxnOp], snapshot: u64) -> Result<Vec<Option<u64>>, TxnError> {
        let mut write_set: HashMap<u64, u64> = HashMap::new();
        let mut reads = Vec::new();
        for op in ops {
            match op {
                TxnOp::Read(k) => {
                    let v = write_set
                        .get(k)
                        .copied()
                        .or_else(|| self.read_at(*k, snapshot));
                    reads.push(v);
                }
                TxnOp::Write(k, v) => {
                    write_set.insert(*k, *v);
                }
                TxnOp::Add(k, delta) => {
                    let cur = write_set
                        .get(k)
                        .copied()
                        .or_else(|| self.read_at(*k, snapshot))
                        .unwrap_or(0) as i128;
                    let next = cur + *delta as i128;
                    if next < 0 || next > u64::MAX as i128 {
                        return Err(TxnError::ConstraintViolation);
                    }
                    write_set.insert(*k, next as u64);
                }
            }
        }
        if write_set.is_empty() {
            return Ok(reads);
        }

        // Validate + install under the commit lock (first committer wins).
        let commit_ts;
        let wal_seq;
        {
            let _commit = self.commit_lock.lock();
            for k in write_set.keys() {
                let shard = self.shards[shard_of(*k)].read();
                if let Some(chain) = shard.get(k) {
                    if let Some((newest, _)) = chain.last() {
                        if *newest > snapshot {
                            return Err(TxnError::Conflict);
                        }
                    }
                }
            }
            commit_ts = self.clock.reserve();
            let horizon = self.gc_horizon();
            for (k, v) in &write_set {
                let mut shard = self.shards[shard_of(*k)].write();
                let chain = shard.entry(*k).or_default();
                chain.push((commit_ts, *v));
                Self::gc_chain(chain, horizon);
            }
            // Append the log record inside the critical section so the log
            // order equals the commit-timestamp order (replay correctness
            // for non-commutative writes)...
            wal_seq = self.wal.as_ref().map(|w| w.append(&encode_record(ops)));
            // Publishing the timestamp makes the versions visible. On a WAL
            // failure we still publish — the versions are already installed
            // and later validators key off them — but the commit is NOT
            // acknowledged below.
            self.clock.publish(commit_ts);
        }

        // ...but wait for durability outside it, so group commit can batch
        // many committers into one fsync.
        if let Some(seq) = wal_seq {
            let wal = self.wal.as_ref().expect("wal_seq implies wal");
            wal.wait_durable(seq?)?;
        }
        Ok(reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::execute_with_retry;

    #[test]
    fn snapshot_reads_and_writes() {
        let e = MvccEngine::new(None);
        e.execute(&[TxnOp::Write(1, 10)]).unwrap();
        let r = e
            .execute(&[TxnOp::Read(1), TxnOp::Add(1, 5), TxnOp::Read(1)])
            .unwrap();
        assert_eq!(r, vec![Some(10), Some(15)]);
        assert_eq!(e.read(1), Some(15));
    }

    #[test]
    fn write_write_conflict_detected() {
        let e = MvccEngine::new(None);
        e.load([(1, 100)]);
        // Simulate two concurrent transactions on the same snapshot.
        let snapshot = e.clock.published();
        e.execute_at(&[TxnOp::Add(1, 1)], snapshot).unwrap();
        let err = e.execute_at(&[TxnOp::Add(1, 1)], snapshot).unwrap_err();
        assert_eq!(err, TxnError::Conflict);
    }

    #[test]
    fn readers_never_conflict() {
        let e = MvccEngine::new(None);
        e.load([(1, 5)]);
        let snapshot = e.clock.published();
        e.execute_at(&[TxnOp::Write(1, 6)], snapshot).unwrap();
        // A read-only transaction on the old snapshot still succeeds and
        // sees the old value (repeatable reads).
        let r = e.execute_at(&[TxnOp::Read(1)], snapshot).unwrap();
        assert_eq!(r, vec![Some(5)]);
    }

    #[test]
    fn concurrent_transfers_preserve_total() {
        let e = Arc::new(MvccEngine::new(None));
        e.load((0..8).map(|k| (k, 1000u64)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let e = e.clone();
                std::thread::spawn(move || {
                    let mut aborts = 0u64;
                    for i in 0..400u64 {
                        let from = (t + i) % 8;
                        let to = (t + i + 3) % 8;
                        if from == to {
                            continue;
                        }
                        let ops = [TxnOp::Add(from, -1), TxnOp::Add(to, 1)];
                        let (res, a) = execute_with_retry(e.as_ref(), &ops);
                        aborts += a;
                        let _ = res;
                    }
                    aborts
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..8).map(|k| e.read(k).unwrap_or(0)).sum();
        assert_eq!(total, 8000, "snapshot isolation lost money");
    }

    #[test]
    fn old_versions_are_garbage_collected() {
        let e = MvccEngine::new(None);
        for i in 0..100 {
            e.execute(&[TxnOp::Write(1, i)]).unwrap();
        }
        // With no active snapshots, only the newest version must survive the
        // next commit's GC pass.
        e.execute(&[TxnOp::Write(1, 999)]).unwrap();
        assert!(
            e.version_count() <= 2,
            "expected GC to prune, found {} versions",
            e.version_count()
        );
    }

    #[test]
    fn gc_respects_active_snapshots() {
        let e = MvccEngine::new(None);
        e.load([(1, 1)]);
        let old_snapshot = e.clock.pin_epoch();
        for i in 0..10 {
            e.execute(&[TxnOp::Write(1, i + 100)]).unwrap();
        }
        // The version visible at old_snapshot must still exist.
        assert_eq!(e.read_at(1, old_snapshot), Some(1));
        e.release_snapshot(old_snapshot);
    }

    #[test]
    fn read_only_txn_needs_no_commit() {
        let e = MvccEngine::new(None);
        e.load([(5, 50)]);
        let before = e.clock.published();
        e.execute(&[TxnOp::Read(5)]).unwrap();
        assert_eq!(e.clock.published(), before);
    }
}
