//! Crash-recovery integration tests for the durable `Database` backbone.
//!
//! The core matrix: kill point × fault kind × fsync policy. A faulty log
//! device ([`FaultFile`]) crashes the WAL deterministically mid-run; the
//! directory is then reopened with [`Database::open`] exactly as a restart
//! would. Invariants, by fault honesty class:
//!
//! - every kind, every policy: recovery never panics, and the recovered
//!   table is a contiguous prefix of the attempted insert sequence — no
//!   holes, no reordering, no garbage rows;
//! - honest kinds (clean crash, torn write, partial tail): every
//!   acknowledged insert survives — committed data is never lost;
//! - lying kinds (dropped fsync, bit flip): loss is unavoidable by
//!   construction, but recovery still lands on a clean acknowledged prefix
//!   (or an explicit corrupt-log error — never a panic).

use backbone_core::durability::WAL_FILE;
use backbone_core::{Database, DurabilityOptions, FsyncPolicy};
use backbone_query::Catalog;
use backbone_storage::table::DEFAULT_ROW_GROUP_SIZE;
use backbone_storage::{DataType, Field, Schema, Table, Value};
use backbone_txn::{FaultFile, FaultKind, FaultPlan};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("backbone-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn events_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("note", DataType::Utf8),
    ])
}

fn event_row(i: usize) -> Vec<Value> {
    vec![Value::Int(i as i64), Value::str(format!("event-{i}"))]
}

/// Ids currently in the events table, in row order (`None` if the table
/// does not exist).
fn recovered_ids(db: &Database) -> Option<Vec<i64>> {
    let batch = db.table_batch("events").ok()?;
    Some(
        (0..batch.num_rows())
            .map(|i| match batch.row(i)[0] {
                Value::Int(v) => v,
                ref other => panic!("non-int id in recovered row: {other:?}"),
            })
            .collect(),
    )
}

/// Create the table and insert rows one committed transaction at a time
/// until the injected fault kills the device. Returns the number of
/// *acknowledged* inserts, or `None` if not even `create_table` was acked.
/// The `Database` is leaked, not dropped — a crash runs no destructors.
fn drive_until_crash(
    dir: &Path,
    policy: FsyncPolicy,
    plan: FaultPlan,
    attempts: usize,
) -> Option<usize> {
    std::fs::create_dir_all(dir).unwrap();
    let device = FaultFile::open(dir.join(WAL_FILE), plan).unwrap();
    let opts = DurabilityOptions::default().fsync(policy);
    let db = match Database::open_with_device(dir, Box::new(device), opts) {
        Ok(db) => db,
        Err(_) => return None, // fault fired while writing the log header
    };
    let acked = (|| {
        db.create_table("events", events_schema()).ok()?;
        let mut acked = 0;
        for i in 0..attempts {
            if db.insert("events", vec![event_row(i)]).is_err() {
                break;
            }
            acked += 1;
        }
        Some(acked)
    })();
    std::mem::forget(db);
    acked
}

/// Reopen after a crash and check the universal invariants; returns the
/// recovered row count (`None` when recovery refused a corrupt log, which
/// only lying faults may cause).
fn check_recovery(dir: &Path, honest: bool, acked: Option<usize>, label: &str) -> Option<usize> {
    let db = match Database::open(dir) {
        Ok(db) => db,
        Err(e) => {
            assert!(
                !honest,
                "{label}: recovery errored after an honest fault: {e}"
            );
            return None;
        }
    };
    let ids = recovered_ids(&db);
    match (&ids, acked) {
        (None, None) => {} // nothing acked, nothing recovered: fine
        (None, Some(_)) => {
            assert!(!honest, "{label}: table vanished after acked create");
        }
        (Some(got), _) => {
            // Contiguous prefix of the attempted sequence, always.
            let expect: Vec<i64> = (0..got.len() as i64).collect();
            assert_eq!(got, &expect, "{label}: holes or reordering in recovery");
            if honest {
                let acked = acked.unwrap_or(0);
                assert!(
                    got.len() >= acked,
                    "{label}: lost acked inserts ({} < {acked})",
                    got.len()
                );
            }
        }
    }
    ids.map(|v| v.len())
}

#[test]
fn crash_matrix_kill_point_by_fault_kind_by_policy() {
    for policy in [FsyncPolicy::Always, FsyncPolicy::Group] {
        for kind in FaultKind::ALL {
            // Trigger 1 hits the log header write/sync; later triggers hit
            // the create and the first few inserts.
            for trigger in 1..=6u64 {
                let label = format!("{policy:?}/{kind:?}@{trigger}");
                let dir = scratch_dir(&format!("matrix-{policy:?}-{kind:?}-{trigger}"));
                let acked = drive_until_crash(
                    &dir,
                    policy,
                    FaultPlan::new(kind, trigger, trigger.wrapping_mul(7919)),
                    12,
                );
                check_recovery(&dir, kind.is_honest(), acked, &label);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn kill_and_reopen_loses_no_committed_rows() {
    // The acceptance path: no injected fault, just a hard kill (no Drop).
    let dir = scratch_dir("kill-reopen");
    {
        let db = Database::open_with(
            &dir,
            DurabilityOptions::default().fsync(FsyncPolicy::Always),
        )
        .unwrap();
        db.create_table("events", events_schema()).unwrap();
        for i in 0..50 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        std::mem::forget(db);
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(recovered_ids(&db).unwrap(), (0..50).collect::<Vec<i64>>());
    // The recovered database keeps working and keeps committing.
    db.insert("events", vec![event_row(50)]).unwrap();
    assert_eq!(db.row_count("events"), Some(51));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_is_idempotent_across_reopens() {
    let dir = scratch_dir("idempotent");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("events", events_schema()).unwrap();
        for i in 0..10 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        std::mem::forget(db);
    }
    let first = {
        let db = Database::open(&dir).unwrap();
        recovered_ids(&db).unwrap()
    };
    let second = {
        let db = Database::open(&dir).unwrap();
        recovered_ids(&db).unwrap()
    };
    assert_eq!(first, second, "reopening must not duplicate or drop rows");
    assert_eq!(first.len(), 10);
    // A checkpoint between reopens must not change the recovered state
    // either — records at or below its LSN are skipped on replay.
    {
        let db = Database::open(&dir).unwrap();
        db.checkpoint().unwrap();
    }
    let third = {
        let db = Database::open(&dir).unwrap();
        let report = *db.recovery_report().unwrap();
        assert_eq!(report.replayed_records, 0, "checkpoint should cover all");
        assert_eq!(report.checkpoint_tables, 1);
        recovered_ids(&db).unwrap()
    };
    assert_eq!(first, third);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_is_rejected_by_checksum() {
    let dir = scratch_dir("checksum");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("events", events_schema()).unwrap();
        for i in 0..8 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        std::mem::forget(db);
    }
    // Flip one bit in the middle of the log body (past the 16-byte header).
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let mid = 16 + (bytes.len() - 16) / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&wal_path, &bytes).unwrap();

    let db = Database::open(&dir).unwrap();
    let report = *db.recovery_report().unwrap();
    assert!(
        report.wal_bytes_dropped > 0,
        "checksum rejection must report dropped bytes"
    );
    let ids = recovered_ids(&db).unwrap();
    // Everything before the flipped record survives, in order.
    assert!(ids.len() < 8);
    assert_eq!(ids, (0..ids.len() as i64).collect::<Vec<i64>>());
    assert_eq!(
        db.metrics().value("wal.bytes_dropped"),
        report.wal_bytes_dropped
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_truncates_cleanly_and_log_stays_writable() {
    let dir = scratch_dir("torn-tail");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("events", events_schema()).unwrap();
        for i in 0..5 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        std::mem::forget(db);
    }
    // A torn append: half a record frame at the tail.
    let wal_path = dir.join(WAL_FILE);
    use std::io::Write;
    let garbage = [0xFFu8, 0x03, 0x02];
    std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_path)
        .unwrap()
        .write_all(&garbage)
        .unwrap();

    let db = Database::open(&dir).unwrap();
    let report = *db.recovery_report().unwrap();
    assert_eq!(report.wal_bytes_dropped, garbage.len() as u64);
    assert_eq!(
        recovered_ids(&db).unwrap().len(),
        5,
        "no committed row lost"
    );
    // The repaired log accepts new commits, and they survive the next
    // reopen.
    for i in 5..9 {
        db.insert("events", vec![event_row(i)]).unwrap();
    }
    std::mem::forget(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(recovered_ids(&db).unwrap(), (0..9).collect::<Vec<i64>>());
    assert_eq!(db.recovery_report().unwrap().wal_bytes_dropped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_log_and_recovery_starts_from_it() {
    let dir = scratch_dir("checkpoint");
    {
        // Manual checkpoints only.
        let db =
            Database::open_with(&dir, DurabilityOptions::default().checkpoint_every(0)).unwrap();
        db.create_table("events", events_schema()).unwrap();
        for i in 0..20 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        let before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        db.checkpoint().unwrap();
        let after = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(
            after < before,
            "checkpoint must shrink the log ({after} >= {before})"
        );
        // Post-checkpoint writes land in the truncated log.
        for i in 20..25 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        std::mem::forget(db);
    }
    let db = Database::open(&dir).unwrap();
    let report = *db.recovery_report().unwrap();
    assert!(report.checkpoint_lsn > 0);
    assert_eq!(report.checkpoint_tables, 1);
    assert_eq!(
        report.replayed_records, 5,
        "only the post-checkpoint tail replays"
    );
    assert_eq!(recovered_ids(&db).unwrap(), (0..25).collect::<Vec<i64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn small_commits_seal_whole_groups_and_checkpoints_keep_the_tail() {
    let dir = scratch_dir("no-fragmentation");
    let commits = 670;
    let per_commit = 100;
    let group_size = DEFAULT_ROW_GROUP_SIZE;
    // Sealed groups and tail rows of the published snapshot.
    let shape = |db: &Database| {
        let t = db.catalog().table("events").unwrap();
        (t.num_groups(), t.tail_rows())
    };
    let answers = |db: &Database| {
        db.sql("SELECT COUNT(*) AS n, SUM(id) AS s, MAX(note) AS m FROM events WHERE id >= 60000")
            .unwrap()
            .to_rows()
    };
    let (want, expected_shape) = {
        let opts = DurabilityOptions::default()
            .checkpoint_every(0)
            .fsync(FsyncPolicy::Never);
        let db = Database::open_with(&dir, opts).unwrap();
        db.create_table("events", events_schema()).unwrap();
        for c in 0..commits {
            let rows = (c * per_commit..(c + 1) * per_commit)
                .map(event_row)
                .collect();
            db.insert("events", rows).unwrap();
        }
        let rows = commits * per_commit;
        let expected_shape = (rows / group_size, rows % group_size);
        assert_eq!(shape(&db), expected_shape, "commits fragmented the table");
        let want = answers(&db);
        db.checkpoint().unwrap();
        assert_eq!(shape(&db), expected_shape, "the checkpoint sealed the tail");
        assert_eq!(answers(&db), want);
        db.wal_sync().unwrap();
        (want, expected_shape)
    };
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.recovery_report().unwrap().replayed_records, 0);
    assert_eq!(shape(&db), expected_shape, "reopen sealed the tail");
    assert_eq!(answers(&db), want);
    assert_eq!(
        recovered_ids(&db).unwrap(),
        (0..(commits * per_commit) as i64).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn automatic_checkpoints_fire_on_cadence() {
    let dir = scratch_dir("cadence");
    {
        let db =
            Database::open_with(&dir, DurabilityOptions::default().checkpoint_every(8)).unwrap();
        db.create_table("events", events_schema()).unwrap();
        for i in 0..20 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        assert!(
            db.metrics().value("wal.checkpoints") >= 2,
            "21 ops at cadence 8 should checkpoint at least twice"
        );
        std::mem::forget(db);
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(recovered_ids(&db).unwrap(), (0..20).collect::<Vec<i64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_shares_fsyncs_across_concurrent_inserters() {
    let dir = scratch_dir("group-commit");
    let db = Arc::new(
        Database::open_with(
            &dir,
            DurabilityOptions::default()
                .fsync(FsyncPolicy::Group)
                .fsync_latency(Duration::from_millis(2)),
        )
        .unwrap(),
    );
    db.create_table("events", events_schema()).unwrap();
    let threads = 4;
    let per_thread = 20;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    db.insert("events", vec![event_row(t * per_thread + i)])
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let commits = (threads * per_thread) as u64 + 1; // + create_table
    let fsyncs = db.wal_fsyncs().unwrap();
    assert!(
        fsyncs < commits,
        "group commit should batch: {fsyncs} fsyncs for {commits} commits"
    );
    assert_eq!(db.row_count("events"), Some(threads * per_thread));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_acked_write_from_batched_group_commit_is_lost_on_crash() {
    // Concurrent writers push acked ids into a shared ledger the instant
    // insert() returns; then the process "crashes" (no Drop, no final
    // flush). Group commit may batch many commits into one fsync, but an
    // ack means *this* commit's fsync happened — every ledgered id must
    // survive recovery.
    let dir = scratch_dir("group-commit-crash");
    let acked = Arc::new(std::sync::Mutex::new(Vec::<i64>::new()));
    {
        let db = Database::open_with(
            &dir,
            DurabilityOptions::default()
                .fsync(FsyncPolicy::Group)
                .fsync_latency(Duration::from_millis(1)),
        )
        .unwrap();
        db.create_table("events", events_schema()).unwrap();
        let threads = 4;
        let per_thread = 15;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = db.clone();
                let acked = Arc::clone(&acked);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let id = (t * per_thread + i) as i64;
                        db.insert("events", vec![event_row(id as usize)]).unwrap();
                        acked.lock().unwrap().push(id);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let commits = (threads * per_thread) as u64 + 1;
        assert!(
            db.wal_fsyncs().unwrap() < commits,
            "run must actually batch fsyncs to test the batched-ack path"
        );
        std::mem::forget(db); // crash: no destructors, no deferred flush
    }
    let db = Database::open(&dir).unwrap();
    let recovered = recovered_ids(&db).unwrap();
    let mut expected = acked.lock().unwrap().clone();
    expected.sort_unstable();
    let mut got = recovered.clone();
    got.sort_unstable();
    assert_eq!(
        got, expected,
        "batched group commit lost or invented an acked write"
    );
    // Recovered rows are visible to snapshot reads immediately.
    assert_eq!(
        db.sql("SELECT id FROM events").unwrap().num_rows(),
        expected.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_never_policy_is_durable_after_explicit_sync() {
    let dir = scratch_dir("never-sync");
    {
        let db = Database::open_with(&dir, DurabilityOptions::default().fsync(FsyncPolicy::Never))
            .unwrap();
        db.create_table("events", events_schema()).unwrap();
        for i in 0..7 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        db.wal_sync().unwrap(); // the explicit durability point
        std::mem::forget(db);
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(recovered_ids(&db).unwrap(), (0..7).collect::<Vec<i64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paged_reopen_streams_groups_through_the_pool() {
    let dir = scratch_dir("paged-reopen");
    {
        let db =
            Database::open_with(&dir, DurabilityOptions::default().checkpoint_every(0)).unwrap();
        // A bulk load sealed in 256-row groups: the checkpoint writes them
        // as row groups, which a paged open keeps on disk. (Committed rows
        // stay in the unsealed tail until it reaches the group size, and a
        // checkpoint writes and reopens a tail as a tail.)
        let mut table = Table::with_group_size(events_schema(), 256);
        for i in 0..2000 {
            table.append_row(event_row(i)).unwrap();
        }
        db.register_table("events", table).unwrap();
        db.checkpoint().unwrap();
        // A few post-checkpoint rows exercise WAL replay on top of paged
        // groups.
        for i in 2000..2010 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        std::mem::forget(db);
    }
    // Reopen out-of-core: a 16-page (64 KiB) pool, far below the table.
    let db = Database::open_with(&dir, DurabilityOptions::default().paged(16)).unwrap();
    assert_eq!(recovered_ids(&db).unwrap(), (0..2010).collect::<Vec<i64>>());
    assert!(
        db.metrics().value("storage.pager.paged_groups") > 0,
        "checkpointed groups must stay on disk"
    );
    assert!(
        db.metrics().value("bufferpool.misses") > 0,
        "recovery reads must go through the pool"
    );
    // Queries work against paged groups, and repeated scans keep working
    // (payloads are re-read, not consumed).
    let out = db
        .session()
        .sql("SELECT id FROM events WHERE id >= 1995")
        .unwrap();
    assert_eq!(out.num_rows(), 15);
    let out = db
        .session()
        .sql("SELECT id FROM events WHERE id >= 1995")
        .unwrap();
    assert_eq!(out.num_rows(), 15);
    // Checkpointing a paged database round-trips: the next plain open sees
    // every row.
    db.insert("events", vec![event_row(2010)]).unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(recovered_ids(&db).unwrap(), (0..2011).collect::<Vec<i64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sql_sees_recovered_state() {
    let dir = scratch_dir("sql-after-recovery");
    {
        let db = Database::open(&dir).unwrap();
        db.create_table("events", events_schema()).unwrap();
        for i in 0..12 {
            db.insert("events", vec![event_row(i)]).unwrap();
        }
        std::mem::forget(db);
    }
    let db = Database::open(&dir).unwrap();
    let session = db.session();
    let out = session.sql("SELECT id FROM events WHERE id > 7").unwrap();
    assert_eq!(out.num_rows(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
