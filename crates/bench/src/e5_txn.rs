//! E5 — "increase transaction throughput from one gazillion TAs/sec to 2
//! gazillion TAs/sec ... How many people/companies in the world need this
//! kind of insane performance?" (Dittrich, §3.5).
//!
//! The engine ladder (serial → 2PL → MVCC → MVCC + group commit) under a
//! contended multi-threaded workload. Expectations: large jumps early in
//! the ladder, then diminishing marginal gains — the shape behind the
//! "gazillion" quip.

use backbone_lab::harness::{load_initial, run_workload, WorkloadConfig};
use backbone_lab::{MvccEngine, SerialEngine, TwoPlEngine};
use backbone_txn::{FsyncPolicy, Wal, WalConfig};
use std::sync::Arc;
use std::time::Duration;

/// One measured rung of the ladder.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Engine / configuration name.
    pub engine: String,
    /// Worker threads.
    pub threads: usize,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Optimistic aborts.
    pub aborts: u64,
    /// Fsyncs issued (durable configurations only).
    pub fsyncs: Option<u64>,
}

/// An in-memory WAL with modeled fsync latency (the ladder measures the
/// concurrency/batching story, not disk bandwidth).
fn wal(policy: FsyncPolicy) -> Arc<Wal> {
    Arc::new(Wal::new(WalConfig {
        fsync_latency: Duration::from_micros(100),
        policy,
    }))
}

/// A real file-backed WAL in a scratch path: actual `fsync` cost.
fn file_wal(tag: &str, threads: usize) -> Arc<Wal> {
    let path = std::env::temp_dir().join(format!(
        "backbone-e5-{tag}-{threads}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    Arc::new(
        Wal::open(&path, WalConfig::with_policy(FsyncPolicy::Group))
            .expect("open scratch wal file"),
    )
}

/// Run the full ladder at each thread count.
pub fn run(thread_counts: &[usize], txns_per_thread: usize, skew: f64, seed: u64) -> Vec<E5Row> {
    let mut out = Vec::new();
    for &threads in thread_counts {
        let config = WorkloadConfig {
            threads,
            txns_per_thread,
            keys: 1024,
            skew,
            read_ratio: 0.5,
            ops_per_txn: 4,
            seed,
        };
        // Rung 1: serial with per-commit fsync.
        {
            let w = wal(FsyncPolicy::Always);
            let e = Arc::new(SerialEngine::new(Some(w.clone())));
            load_initial(e.as_ref(), config.keys);
            let r = run_workload(e, &config);
            out.push(E5Row {
                engine: "serial+fsync".into(),
                threads,
                throughput: r.throughput(),
                aborts: r.aborts,
                fsyncs: Some(w.fsyncs()),
            });
        }
        // Rung 2: 2PL with per-commit fsync.
        {
            let w = wal(FsyncPolicy::Always);
            let e = Arc::new(TwoPlEngine::new(Some(w.clone())));
            load_initial(e.as_ref(), config.keys);
            let r = run_workload(e, &config);
            out.push(E5Row {
                engine: "2PL+fsync".into(),
                threads,
                throughput: r.throughput(),
                aborts: r.aborts,
                fsyncs: Some(w.fsyncs()),
            });
        }
        // Rung 3: MVCC with per-commit fsync.
        {
            let w = wal(FsyncPolicy::Always);
            let e = Arc::new(MvccEngine::new(Some(w.clone())));
            load_initial(e.as_ref(), config.keys);
            let r = run_workload(e, &config);
            out.push(E5Row {
                engine: "MVCC+fsync".into(),
                threads,
                throughput: r.throughput(),
                aborts: r.aborts,
                fsyncs: Some(w.fsyncs()),
            });
        }
        // Rung 4: MVCC with group commit.
        {
            let w = wal(FsyncPolicy::Group);
            let e = Arc::new(MvccEngine::new(Some(w.clone())));
            load_initial(e.as_ref(), config.keys);
            let r = run_workload(e, &config);
            out.push(E5Row {
                engine: "MVCC+group".into(),
                threads,
                throughput: r.throughput(),
                aborts: r.aborts,
                fsyncs: Some(w.fsyncs()),
            });
        }
        // Rung 4b: MVCC with group commit against a real file — the same
        // batching, with actual fsync syscalls instead of modeled latency.
        {
            let w = file_wal("mvcc-group", threads);
            let e = Arc::new(MvccEngine::new(Some(w.clone())));
            load_initial(e.as_ref(), config.keys);
            let r = run_workload(e, &config);
            out.push(E5Row {
                engine: "MVCC+grp+file".into(),
                threads,
                throughput: r.throughput(),
                aborts: r.aborts,
                fsyncs: Some(w.fsyncs()),
            });
        }
        // Concurrency-only rungs (durability off) to isolate the locking
        // story from the fsync story.
        {
            let e = Arc::new(SerialEngine::new(None));
            load_initial(e.as_ref(), config.keys);
            let r = run_workload(e, &config);
            out.push(E5Row {
                engine: "serial+nowal".into(),
                threads,
                throughput: r.throughput(),
                aborts: r.aborts,
                fsyncs: None,
            });
        }
        {
            let e = Arc::new(TwoPlEngine::new(None));
            load_initial(e.as_ref(), config.keys);
            let r = run_workload(e, &config);
            out.push(E5Row {
                engine: "2PL+nowal".into(),
                threads,
                throughput: r.throughput(),
                aborts: r.aborts,
                fsyncs: None,
            });
        }
        // Rung 5: MVCC, durability off — the in-memory ceiling.
        {
            let e = Arc::new(MvccEngine::new(None));
            load_initial(e.as_ref(), config.keys);
            let r = run_workload(e, &config);
            out.push(E5Row {
                engine: "MVCC+nowal".into(),
                threads,
                throughput: r.throughput(),
                aborts: r.aborts,
                fsyncs: None,
            });
        }
    }
    out
}

/// Print the experiment's table.
pub fn report(thread_counts: &[usize], txns_per_thread: usize, seed: u64) -> String {
    let rows = run(thread_counts, txns_per_thread, 0.6, seed);
    let mut out = String::new();
    out.push_str("E5: the transaction-throughput ladder (marginal gains)\n");
    out.push_str("claim: \"from one gazillion TAs/sec to 2 gazillion ... who needs this?\"\n\n");
    out.push_str(&format!(
        "{:>14} {:>8} {:>14} {:>8} {:>10}\n",
        "engine", "threads", "txn/s", "aborts", "fsyncs"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:>14} {:>8} {:>14} {:>8} {:>10}\n",
            r.engine,
            r.threads,
            crate::fmt_count(r.throughput),
            r.aborts,
            r.fsyncs
                .map(|f| f.to_string())
                .unwrap_or_else(|| "-".into())
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_runs_and_group_commit_reduces_fsyncs() {
        let rows = run(&[4], 100, 0.5, 11);
        assert_eq!(rows.len(), 8);
        let per_commit = rows.iter().find(|r| r.engine == "MVCC+fsync").unwrap();
        let grouped = rows.iter().find(|r| r.engine == "MVCC+group").unwrap();
        assert!(
            grouped.fsyncs.unwrap() < per_commit.fsyncs.unwrap(),
            "group commit should batch: {rows:?}"
        );
        assert!(grouped.throughput > per_commit.throughput * 0.8);
        // The file-backed rung really fsyncs and really commits.
        let file = rows.iter().find(|r| r.engine == "MVCC+grp+file").unwrap();
        assert!(file.fsyncs.unwrap() > 0);
        assert!(file.throughput > 0.0);
    }
}
