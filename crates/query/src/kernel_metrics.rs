//! Thread-local `op.eval.kernel.*` counter handles for expression-level
//! kernels.
//!
//! Operators reach their counters through the query's
//! [`ExecContext`], but expression evaluation is a free function called from
//! deep inside every operator — threading a handle through each `eval` call
//! would put a metrics argument on the hottest signature in the engine.
//! Instead the executor installs the query's counters for the current thread
//! before draining a plan, and encoded kernels record through them. Worker
//! threads (scan, aggregate, join probe, top-k) install the same counters
//! at start, so parallel runs report the same `op.eval.kernel.*` totals as
//! serial ones. The handles were resolved once, when the context was built:
//! installing clones one `Arc`.

use crate::physical::context::{resolve, QueryCounters};
use crate::physical::ExecContext;
use backbone_storage::metrics::Counter;
use backbone_storage::Metrics;
use std::cell::RefCell;
use std::sync::Arc;

/// The `op.eval.kernel.*` counters.
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
    pub(crate) fn resolve(m: Option<&Metrics>) -> EvalCounters {
        EvalCounters {
            dict_cmp_ns: resolve(m, "op.eval.kernel.dict_cmp_ns"),
            dict_in_ns: resolve(m, "op.eval.kernel.dict_in_ns"),
            dict_like_ns: resolve(m, "op.eval.kernel.dict_like_ns"),
            dict_rows: resolve(m, "op.eval.kernel.dict_rows"),
            dict_fallback: resolve(m, "op.eval.kernel.dict_fallback"),
            enc_cmp_ns: resolve(m, "op.eval.kernel.enc_cmp_ns"),
            enc_rows: resolve(m, "op.eval.kernel.enc_rows"),
        }
    }
}

thread_local! {
    static COUNTERS: RefCell<Option<Arc<QueryCounters>>> = const { RefCell::new(None) };
}

/// Install `ctx`'s counters as this thread's eval-kernel counters; the
/// previous ones are restored when the guard drops (nesting-safe for
/// sub-queries, and for a one-worker plan whose worker runs on the caller).
pub(crate) fn install(ctx: &ExecContext) -> EvalMetricsGuard {
    let prev = COUNTERS.with(|tl| tl.replace(Some(ctx.counters.clone())));
    EvalMetricsGuard { prev }
}

/// Restores the previously installed handles on drop.
pub(crate) struct EvalMetricsGuard {
    prev: Option<Arc<QueryCounters>>,
}

impl Drop for EvalMetricsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        COUNTERS.with(|tl| tl.replace(prev));
    }
}

/// Run `f` with the installed counters, if any.
pub(crate) fn record(f: impl FnOnce(&EvalCounters)) {
    COUNTERS.with(|tl| {
        if let Some(c) = tl.borrow().as_ref() {
            f(&c.eval);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecOptions;

    #[test]
    fn install_restore_nesting() {
        let outer = Metrics::new();
        let inner = Metrics::new();
        let ctx = |m: &Metrics| ExecContext::new(&ExecOptions::serial().with_metrics(m.clone()));
        {
            let _g1 = install(&ctx(&outer));
            record(|c| c.enc_rows.add(1));
            {
                let _g2 = install(&ctx(&inner));
                record(|c| c.enc_rows.add(10));
            }
            record(|c| c.enc_rows.add(1));
        }
        record(|c| c.enc_rows.add(100)); // nothing installed
        assert_eq!(outer.value("op.eval.kernel.enc_rows"), 2);
        assert_eq!(inner.value("op.eval.kernel.enc_rows"), 10);
    }
}
