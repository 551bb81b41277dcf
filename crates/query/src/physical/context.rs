//! The per-query execution context.
//!
//! [`ExecContext::new`] turns a query's [`ExecOptions`] into what its
//! operators share: the worker count, the memory-budget accountant, and the
//! registry's counter handles, each resolved once here so no operator looks
//! a counter up by name while it runs. The planner hands the one context to
//! every operator that runs workers, spills or times a kernel (table scan,
//! hash aggregate, hash join, top-k). Without a registry the handles are
//! detached counters nobody reads, so recording sites never branch on
//! whether metrics are on.

use super::spill::{BudgetAccountant, BudgetLease, SpillCounters, SpillMeter};
use crate::executor::ExecOptions;
use crate::kernel_metrics::EvalCounters;
use crate::profile::OpStats;
use backbone_storage::metrics::{Counter, Metrics};
use std::sync::Arc;

/// What every operator of one query shares.
#[derive(Clone)]
pub struct ExecContext {
    /// Workers each parallel operator runs, at least 1. One worker runs
    /// inline on the calling thread, so a one-worker plan is the serial plan.
    pub(crate) workers: usize,
    /// The query's memory budget, shared by every operator and worker.
    pub(crate) budget: Option<Arc<BudgetAccountant>>,
    pub(crate) counters: Arc<QueryCounters>,
}

impl ExecContext {
    /// The context for one query run under `opts`.
    pub fn new(opts: &ExecOptions) -> ExecContext {
        let workers = opts.parallelism.worker_threads().max(1);
        ExecContext {
            workers,
            budget: opts.mem_budget.map(BudgetAccountant::new),
            counters: Arc::new(QueryCounters::resolve(opts.metrics.as_ref(), workers)),
        }
    }

    /// Record one worker's morsel and row totals under
    /// `op.<scope>.worker.<w>.*`. Those counters exist only when two or more
    /// workers run; a one-worker plan records none.
    pub(crate) fn record_worker(&self, scope: Scope, w: usize, morsels: u64, rows: u64) {
        if let Some([m, r]) = self.counters.workers.get(scope as usize * self.workers + w) {
            m.add(morsels);
            r.add(rows);
        }
    }

    /// A fresh lease on the query's budget, if it has one.
    pub(crate) fn lease(&self) -> Option<BudgetLease> {
        self.budget.clone().map(BudgetLease::new)
    }

    /// The meter an operator's spill files count into: its own stats block
    /// and the registry's `storage.spill.*` totals.
    pub(crate) fn spill_meter(&self, stats: &OpStats) -> SpillMeter {
        SpillMeter {
            op: stats.spill.clone(),
            total: self.counters.spill.clone(),
        }
    }
}

/// The operators that run workers, in the order of [`SCOPES`].
#[derive(Clone, Copy)]
pub(crate) enum Scope {
    Scan,
    Aggregate,
    HashJoin,
    TopK,
}

/// Registry scopes of the [`Scope`] operators.
const SCOPES: [&str; 4] = ["scan", "aggregate", "hash_join", "topk"];

/// `name` in `metrics`, or a detached counter without a registry.
pub(crate) fn resolve(metrics: Option<&Metrics>, name: &str) -> Counter {
    metrics.map_or_else(Counter::new, |m| m.counter(name))
}

/// The registry counters one query records into, named after their keys.
pub(crate) struct QueryCounters {
    pub scan_filter_ns: Counter,
    pub scan_steals: Counter,
    pub agg_hash_ns: Counter,
    pub agg_update_ns: Counter,
    pub agg_groups: Counter,
    pub agg_dict_key_rows: Counter,
    pub agg_merge_ns: Counter,
    pub join_build_ns: Counter,
    pub join_build_rows: Counter,
    pub join_build_partitions: Counter,
    pub join_probe_ns: Counter,
    pub join_gather_ns: Counter,
    pub join_out_rows: Counter,
    pub join_dict_code_probe_rows: Counter,
    pub join_dict_fallback: Counter,
    pub topk_merge_ns: Counter,
    pub spill: SpillCounters,
    pub eval: EvalCounters,
    /// `op.<scope>.worker.<w>.{morsels,rows}`, scope-major; empty below two
    /// workers.
    workers: Vec<[Counter; 2]>,
}

impl QueryCounters {
    fn resolve(m: Option<&Metrics>, workers: usize) -> QueryCounters {
        let c = |name: &str| resolve(m, name);
        let per_worker = if workers >= 2 { workers } else { 0 };
        QueryCounters {
            scan_filter_ns: c("op.scan.kernel.filter_ns"),
            scan_steals: c("op.scan.steals"),
            agg_hash_ns: c("op.aggregate.kernel.hash_ns"),
            agg_update_ns: c("op.aggregate.kernel.update_ns"),
            agg_groups: c("op.aggregate.kernel.groups"),
            agg_dict_key_rows: c("op.aggregate.kernel.dict_key_rows"),
            agg_merge_ns: c("op.aggregate.kernel.merge_ns"),
            join_build_ns: c("op.hash_join.kernel.build_ns"),
            join_build_rows: c("op.hash_join.kernel.build_rows"),
            join_build_partitions: c("op.hash_join.kernel.build_partitions"),
            join_probe_ns: c("op.hash_join.kernel.probe_ns"),
            join_gather_ns: c("op.hash_join.kernel.gather_ns"),
            join_out_rows: c("op.hash_join.kernel.out_rows"),
            join_dict_code_probe_rows: c("op.hash_join.kernel.dict_code_probe_rows"),
            join_dict_fallback: c("op.hash_join.kernel.dict_fallback"),
            topk_merge_ns: c("op.topk.kernel.merge_ns"),
            spill: SpillCounters {
                partitions: c("storage.spill.partitions"),
                bytes_written: c("storage.spill.bytes_written"),
                bytes_read: c("storage.spill.bytes_read"),
            },
            eval: EvalCounters::resolve(m),
            workers: SCOPES
                .iter()
                .flat_map(|s| {
                    (0..per_worker).map(move |w| {
                        let worker = |k: &str| c(&format!("op.{s}.worker.{w}.{k}"));
                        [worker("morsels"), worker("rows")]
                    })
                })
                .collect(),
        }
    }
}
