//! Experiment implementations for the reproduction harness.
//!
//! Each `eN` module implements one experiment from EXPERIMENTS.md (the
//! paper is a position paper; experiments reproduce its quantified claims —
//! see DESIGN.md). The `repro` binary prints their tables. The gated
//! suites `exec_bench`, `ann_bench` and `serve_bench` record typed rungs
//! and declare gate tables on the shared [`ledger`]. [`bolton`] and
//! [`topk`] are the hybrid-search comparators E3 measures the engine
//! against.

pub mod e1_tpch;
pub mod e2_orm;
pub mod e3_hybrid;
pub mod e4_kvcache;
pub mod e5_txn;
pub mod e6_optimizer;
pub mod e7_disciplines;
pub mod e8_usability;
pub mod e9_ann;

pub mod ann_bench;
pub mod bolton;
pub mod exec_bench;
pub mod ledger;
pub mod serve_bench;
pub mod topk;

/// Format a number with thousands separators.
pub fn fmt_count(n: f64) -> String {
    let s = format!("{n:.0}");
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Measure wall-clock seconds of a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_thousands() {
        assert_eq!(fmt_count(1234567.0), "1,234,567");
        assert_eq!(fmt_count(12.0), "12");
        assert_eq!(fmt_count(0.0), "0");
    }

    #[test]
    fn time_returns_value() {
        let (v, s) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }
}
