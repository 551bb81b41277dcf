//! Cross-engine isolation and durability tests: every engine must conserve
//! invariants under concurrency, and the WAL must reconstruct committed
//! state.

use backbone_lab::harness::{load_initial, run_workload, WorkloadConfig, INITIAL_BALANCE};
use backbone_lab::ops::execute_with_retry;
use backbone_lab::{KvEngine, MvccEngine, SerialEngine, TwoPlEngine, TxnOp};
use backbone_txn::{FsyncPolicy, Wal, WalConfig};
use std::sync::Arc;

fn engines_with_wal() -> Vec<(Arc<dyn KvEngine>, Arc<Wal>)> {
    let wal_cfg = WalConfig::with_policy(FsyncPolicy::Group);
    let w1 = Arc::new(Wal::new(wal_cfg));
    let w2 = Arc::new(Wal::new(wal_cfg));
    let w3 = Arc::new(Wal::new(wal_cfg));
    vec![
        (
            Arc::new(SerialEngine::new(Some(w1.clone()))) as Arc<dyn KvEngine>,
            w1,
        ),
        (
            Arc::new(TwoPlEngine::new(Some(w2.clone()))) as Arc<dyn KvEngine>,
            w2,
        ),
        (
            Arc::new(MvccEngine::new(Some(w3.clone()))) as Arc<dyn KvEngine>,
            w3,
        ),
    ]
}

#[test]
fn money_conservation_under_heavy_contention() {
    let config = WorkloadConfig {
        threads: 8,
        txns_per_thread: 300,
        keys: 16, // tiny key space = maximal contention
        skew: 0.9,
        read_ratio: 0.2,
        ops_per_txn: 4,
        seed: 77,
    };
    for (engine, _) in engines_with_wal() {
        load_initial_dyn(engine.as_ref(), config.keys);
        let report = run_workload(engine.clone(), &config);
        assert_eq!(
            report.committed,
            (config.threads * config.txns_per_thread) as u64,
            "{}",
            engine.name()
        );
        let total: u64 = (0..config.keys).map(|k| engine.read(k).unwrap_or(0)).sum();
        assert_eq!(
            total,
            config.keys * INITIAL_BALANCE,
            "{} lost money",
            engine.name()
        );
    }
}

fn load_initial_dyn(engine: &dyn KvEngine, keys: u64) {
    // Engines share no loading trait object-safely here; use transactions.
    for k in 0..keys {
        engine
            .execute(&[TxnOp::Write(k, INITIAL_BALANCE)])
            .expect("load");
    }
}

#[test]
fn wal_replay_reconstructs_committed_state() {
    // Run a workload against MVCC + WAL, then replay the log into a fresh
    // serial engine and compare every key.
    let wal = Arc::new(Wal::new(WalConfig::with_policy(FsyncPolicy::Group)));
    let engine = Arc::new(MvccEngine::new(Some(wal.clone())));
    load_initial(engine.as_ref(), 64);
    let config = WorkloadConfig {
        threads: 4,
        txns_per_thread: 200,
        keys: 64,
        skew: 0.5,
        read_ratio: 0.0, // all writers so the log is busy
        ops_per_txn: 4,
        seed: 99,
    };
    run_workload(engine.clone(), &config);

    // Recovery: fresh engine, initial state, replay records in log order.
    let recovered = SerialEngine::new(None);
    recovered.load((0..64).map(|k| (k, INITIAL_BALANCE)));
    let replay = wal.replay().expect("clean log replays");
    assert_eq!(replay.bytes_dropped, 0, "no torn tail on a clean shutdown");
    for record in &replay.records {
        apply_record(&recovered, &record.payload);
    }
    for k in 0..64 {
        assert_eq!(
            recovered.read(k),
            engine.read(k),
            "key {k} diverged after replay"
        );
    }
}

/// Decode the record format written by the engines (see `encode_record`).
fn apply_record(engine: &SerialEngine, record: &[u8]) {
    let mut ops = Vec::new();
    let mut pos = 0;
    while pos + 17 <= record.len() {
        let tag = record[pos];
        let k = u64::from_le_bytes(record[pos + 1..pos + 9].try_into().unwrap());
        match tag {
            b'W' => {
                let v = u64::from_le_bytes(record[pos + 9..pos + 17].try_into().unwrap());
                ops.push(TxnOp::Write(k, v));
            }
            b'A' => {
                let d = i64::from_le_bytes(record[pos + 9..pos + 17].try_into().unwrap());
                ops.push(TxnOp::Add(k, d));
            }
            other => panic!("unknown record tag {other}"),
        }
        pos += 17;
    }
    engine.execute(&ops).expect("replay op");
}

#[test]
fn wal_order_matches_commit_order_for_blind_writes() {
    // Non-commutative Writes: replay is only correct if the log order
    // equals the commit-timestamp order (the WAL appends inside the commit
    // critical section).
    let wal = Arc::new(Wal::new(WalConfig::with_policy(FsyncPolicy::Group)));
    let engine = Arc::new(MvccEngine::new(Some(wal.clone())));
    engine.load([(1, 0), (2, 0)]);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let e = engine.clone();
            std::thread::spawn(move || {
                for i in 0..250u64 {
                    let v = t * 1000 + i;
                    let (res, _) = execute_with_retry(
                        e.as_ref(),
                        &[TxnOp::Write(1, v), TxnOp::Write(2, v + 7)],
                    );
                    res.expect("blind write");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let recovered = SerialEngine::new(None);
    recovered.load([(1, 0), (2, 0)]);
    for record in &wal.replay().expect("clean log").records {
        apply_record(&recovered, &record.payload);
    }
    assert_eq!(
        recovered.read(1),
        engine.read(1),
        "last-writer diverged on key 1"
    );
    assert_eq!(
        recovered.read(2),
        engine.read(2),
        "last-writer diverged on key 2"
    );
}

#[test]
fn snapshot_isolation_prevents_lost_updates() {
    // 4 threads x 500 increments on one key: the classic lost-update test.
    let engine = Arc::new(MvccEngine::new(None));
    engine.load([(1, 0)]);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let e = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..500 {
                    let (res, _) = execute_with_retry(e.as_ref(), &[TxnOp::Add(1, 1)]);
                    res.expect("increment");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(engine.read(1), Some(2000));
}

#[test]
fn readers_see_consistent_snapshots_during_writes() {
    // Writers keep two keys equal; readers must never observe inequality.
    let engine = Arc::new(MvccEngine::new(None));
    engine.load([(10, 100), (20, 100)]);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let e = engine.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (res, _) =
                    execute_with_retry(e.as_ref(), &[TxnOp::Add(10, 1), TxnOp::Add(20, 1)]);
                res.expect("writer");
            }
        })
    };
    for _ in 0..2000 {
        let r = engine.execute(&[TxnOp::Read(10), TxnOp::Read(20)]).unwrap();
        assert_eq!(r[0], r[1], "reader saw a torn snapshot");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn constraint_violations_abort_cleanly_under_concurrency() {
    // Draining an account below zero must abort without corrupting totals.
    let engine = Arc::new(TwoPlEngine::new(None));
    engine.load([(1, 10), (2, 0)]);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let e = engine.clone();
            std::thread::spawn(move || {
                let mut violations = 0;
                for _ in 0..50 {
                    match e.execute(&[TxnOp::Add(1, -1), TxnOp::Add(2, 1)]) {
                        Ok(_) => {}
                        Err(backbone_lab::TxnError::ConstraintViolation) => violations += 1,
                        Err(e) => panic!("unexpected {e}"),
                    }
                }
                violations
            })
        })
        .collect();
    let total_violations: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // Exactly 10 transfers could succeed; the rest violated the constraint.
    assert_eq!(engine.read(1), Some(0));
    assert_eq!(engine.read(2), Some(10));
    assert_eq!(total_violations, 4 * 50 - 10);
}
