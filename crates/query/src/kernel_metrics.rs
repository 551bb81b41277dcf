//! Thread-local `op.eval.kernel.*` counter handles for expression-level
//! kernels.
//!
//! Operators receive a `Metrics` registry explicitly, but expression
//! evaluation is a free function called from deep inside every operator —
//! threading a handle through each `eval` call would put a metrics argument
//! on the hottest signature in the engine. Instead the executor installs the
//! registry for the current thread before draining a plan; installing
//! resolves the fixed `op.eval.kernel.*` counter set once, and encoded
//! kernels record through those handles. Morsel-parallel worker threads
//! (scan, aggregate, join probe, top-k) install their own handles on the
//! same shared registry at spawn, so parallel runs report the same
//! `op.eval.kernel.*` totals as serial ones.

use backbone_storage::metrics::Counter;
use backbone_storage::Metrics;
use std::cell::RefCell;

/// The `op.eval.kernel.*` counters, resolved once per [`install`] so a
/// kernel call records through handles and never touches the registry's
/// name map.
pub(crate) struct EvalCounters {
    /// `op.eval.kernel.dict_cmp_ns`: dictionary comparison kernels.
    pub dict_cmp_ns: Counter,
    /// `op.eval.kernel.dict_in_ns`: dictionary `IN` lists.
    pub dict_in_ns: Counter,
    /// `op.eval.kernel.dict_like_ns`: dictionary `LIKE`.
    pub dict_like_ns: Counter,
    /// `op.eval.kernel.dict_rows`: lanes the dictionary kernels visited.
    pub dict_rows: Counter,
    /// `op.eval.kernel.dict_fallback`: dictionary inputs decoded per row.
    pub dict_fallback: Counter,
    /// `op.eval.kernel.enc_cmp_ns`: encoded-integer comparison kernels.
    pub enc_cmp_ns: Counter,
    /// `op.eval.kernel.enc_rows`: lanes the encoded-integer kernels visited.
    pub enc_rows: Counter,
}

impl EvalCounters {
    fn resolve(m: &Metrics) -> EvalCounters {
        EvalCounters {
            dict_cmp_ns: m.counter("op.eval.kernel.dict_cmp_ns"),
            dict_in_ns: m.counter("op.eval.kernel.dict_in_ns"),
            dict_like_ns: m.counter("op.eval.kernel.dict_like_ns"),
            dict_rows: m.counter("op.eval.kernel.dict_rows"),
            dict_fallback: m.counter("op.eval.kernel.dict_fallback"),
            enc_cmp_ns: m.counter("op.eval.kernel.enc_cmp_ns"),
            enc_rows: m.counter("op.eval.kernel.enc_rows"),
        }
    }
}

thread_local! {
    static EVAL_COUNTERS: RefCell<Option<EvalCounters>> = const { RefCell::new(None) };
}

/// Install `metrics` as this thread's eval-kernel registry, resolving its
/// `op.eval.kernel.*` counters now; the previous handles are restored when
/// the guard drops (nesting-safe for sub-queries).
pub fn install(metrics: Option<Metrics>) -> EvalMetricsGuard {
    let counters = metrics.as_ref().map(EvalCounters::resolve);
    let prev = EVAL_COUNTERS.with(|tl| tl.replace(counters));
    EvalMetricsGuard { prev }
}

/// Restores the previously installed handles on drop.
pub struct EvalMetricsGuard {
    prev: Option<EvalCounters>,
}

impl Drop for EvalMetricsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        EVAL_COUNTERS.with(|tl| tl.replace(prev));
    }
}

/// Run `f` with the installed counters, if any.
pub(crate) fn record(f: impl FnOnce(&EvalCounters)) {
    EVAL_COUNTERS.with(|tl| {
        if let Some(c) = tl.borrow().as_ref() {
            f(c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_restore_nesting() {
        let outer = Metrics::new();
        let inner = Metrics::new();
        {
            let _g1 = install(Some(outer.clone()));
            record(|c| c.enc_rows.add(1));
            {
                let _g2 = install(Some(inner.clone()));
                record(|c| c.enc_rows.add(10));
            }
            record(|c| c.enc_rows.add(1));
        }
        record(|c| c.enc_rows.add(100)); // no registry installed
        assert_eq!(outer.value("op.eval.kernel.enc_rows"), 2);
        assert_eq!(inner.value("op.eval.kernel.enc_rows"), 10);
    }
}
