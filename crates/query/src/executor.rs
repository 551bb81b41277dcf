//! Query execution entry points.

use crate::catalog::Catalog;
use crate::error::Result;
use crate::logical::LogicalPlan;
use crate::optimizer::{estimate_rows, Optimizer, Rule};
use crate::physical::{drain_one, ExecContext};
use crate::planner::{create_instrumented_plan, create_physical_plan};
use backbone_storage::metrics::Metrics;
use backbone_storage::RecordBatch;

/// How many worker threads an executing plan may use ("automatic
/// scalability": the query text never changes, the engine soaks up the
/// hardware).
///
/// The default is [`Parallelism::Serial`]: every operator runs inline on the
/// calling thread, which is also what [`Parallelism::Auto`] degrades to on a
/// single-core machine. `Fixed(n)` uses exactly `n` workers. A plan always
/// runs at least one worker, and one worker runs inline on the caller, so
/// `Serial` and `Fixed(1)` run the same code: the serial plan is the
/// one-worker plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run every operator inline on the calling thread.
    #[default]
    Serial,
    /// Spawn exactly this many worker threads (clamped to at least 1).
    Fixed(usize),
    /// Use the available cores (capped at [`MAX_AUTO_WORKERS`]); serial on a
    /// single-core machine, where workers could only add overhead.
    Auto,
}

/// Upper bound on worker threads chosen by [`Parallelism::Auto`].
pub const MAX_AUTO_WORKERS: usize = 16;

impl Parallelism {
    /// Worker threads to spawn; `0` means run serially inline.
    pub fn worker_threads(&self) -> usize {
        match self {
            Parallelism::Serial => 0,
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                if cores <= 1 {
                    0
                } else {
                    cores.min(MAX_AUTO_WORKERS)
                }
            }
        }
    }

    /// True when no worker thread is asked for (`worker_threads() == 0`).
    /// Query plans run `Fixed(1)` on the calling thread too: test
    /// `worker_threads() <= 1` for every one-worker setting.
    pub fn is_serial(&self) -> bool {
        self.worker_threads() == 0
    }
}

/// Back-compat with the old `parallelism: usize` knob: `0` and `1` meant a
/// serial scan, anything larger meant that many workers.
impl From<usize> for Parallelism {
    fn from(n: usize) -> Parallelism {
        if n <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Fixed(n)
        }
    }
}

/// Execution knobs.
///
/// `parallelism` is the worker-thread policy ("automatic scalability": the
/// query text never changes). `rules` selects optimizer rules; `None` means
/// all. `metrics` is an optional shared registry; when set, instrumented
/// plans accumulate engine-truth `op.<name>.*` counters into it.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker-thread policy for parallel operators.
    pub parallelism: Parallelism,
    /// Optimizer rules to apply; `None` = every rule, `Some(vec![])` = none.
    pub rules: Option<Vec<Rule>>,
    /// Shared metrics registry for instrumented execution.
    pub metrics: Option<Metrics>,
    /// Memory budget in bytes for pipeline-breaking operator state (hash
    /// aggregate tables, hash join build sides). `None` = unlimited. When
    /// the shared per-query total crosses the budget, operators partition
    /// their state by key hash and spill to disk (Grace-style), re-reading
    /// one partition at a time.
    pub mem_budget: Option<usize>,
    /// Snapshot epoch pinned for this query. `None` = read everything (the
    /// pre-MVCC behavior and the right default for catalogs built by hand).
    /// When set, table scans clamp to the row prefix committed at or before
    /// this epoch, so concurrent appends — even already-registered ones —
    /// stay invisible for the lifetime of the query.
    pub snapshot_epoch: Option<u64>,
    /// Serve `Database::sql` statements from the plan cache (and populate it
    /// on a miss). Off = always re-parse and re-optimize. Of all the knobs
    /// here, only `rules` changes the cached artifact — the optimized
    /// *logical* plan — so only `rules` joins the cache key; parallelism and
    /// memory budget steer per-execution *physical* planning, which always
    /// runs fresh against the caller's options.
    pub plan_cache: bool,
    /// Serve read-only `Database::sql` results from the epoch-tagged result
    /// cache (and populate it on a miss). Off = always execute.
    pub result_cache: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::serial()
    }
}

impl ExecOptions {
    /// The single source of truth for baseline options: serial execution,
    /// every optimizer rule, no metrics, no memory budget. `Default`,
    /// the test helpers, and every other constructor route through here.
    pub fn serial() -> ExecOptions {
        ExecOptions {
            parallelism: Parallelism::Serial,
            rules: None,
            metrics: None,
            mem_budget: None,
            snapshot_epoch: None,
            plan_cache: true,
            result_cache: true,
        }
    }

    /// Default options with the given parallelism. Accepts the typed
    /// [`Parallelism`] enum or, as a thin compatibility shim, the old
    /// `usize` worker count (`ExecOptions::with_parallelism(4)`).
    pub fn with_parallelism(p: impl Into<Parallelism>) -> ExecOptions {
        ExecOptions {
            parallelism: p.into(),
            ..ExecOptions::serial()
        }
    }

    /// These options with the given parallelism (consuming builder, the
    /// same style as [`ExecOptions::with_metrics`]).
    pub fn parallel(mut self, p: impl Into<Parallelism>) -> ExecOptions {
        self.parallelism = p.into();
        self
    }

    /// Default options with optimization disabled (baseline measurements).
    pub fn unoptimized() -> ExecOptions {
        ExecOptions {
            rules: Some(vec![]),
            ..ExecOptions::serial()
        }
    }

    /// These options with operator counters recorded into `metrics`.
    pub fn with_metrics(mut self, metrics: Metrics) -> ExecOptions {
        self.metrics = Some(metrics);
        self
    }

    /// These options with a memory budget (bytes) for operator state. Hash
    /// aggregates and hash joins spill to disk instead of exceeding it.
    pub fn with_mem_budget(mut self, bytes: usize) -> ExecOptions {
        self.mem_budget = Some(bytes);
        self
    }

    /// These options pinned to a snapshot epoch: scans read only rows
    /// committed at or before `epoch`.
    pub fn at_snapshot(mut self, epoch: u64) -> ExecOptions {
        self.snapshot_epoch = Some(epoch);
        self
    }

    /// These options with the plan cache disabled: every `Database::sql`
    /// call re-parses and re-optimizes.
    pub fn without_plan_cache(mut self) -> ExecOptions {
        self.plan_cache = false;
        self
    }

    /// These options with the result cache disabled: every read executes.
    pub fn without_result_cache(mut self) -> ExecOptions {
        self.result_cache = false;
        self
    }

    /// These options with both serving-path caches disabled.
    pub fn without_caches(self) -> ExecOptions {
        self.without_plan_cache().without_result_cache()
    }

    fn optimizer(&self) -> Optimizer {
        match &self.rules {
            None => Optimizer::new(),
            Some(rules) => Optimizer::with_rules(rules.clone()),
        }
    }
}

/// Run just the optimizer phase of [`execute`], returning the optimized
/// logical plan. The plan cache calls this once per statement fingerprint and
/// replays the result through [`execute_optimized`] on every hit.
pub fn optimize_plan(
    plan: LogicalPlan,
    catalog: &dyn Catalog,
    opts: &ExecOptions,
) -> Result<LogicalPlan> {
    opts.optimizer().optimize(plan, catalog)
}

/// Optimize and execute a plan, returning a single concatenated batch.
///
/// Dictionary-encoded columns flow through the operator pipeline in code
/// space and are late-materialized here, at the boundary where results
/// leave the engine.
pub fn execute(
    plan: LogicalPlan,
    catalog: &dyn Catalog,
    opts: &ExecOptions,
) -> Result<RecordBatch> {
    let optimized = opts.optimizer().optimize(plan, catalog)?;
    execute_optimized(&optimized, catalog, opts)
}

/// Execute an *already optimized* plan, returning a single concatenated
/// batch. Physical planning still happens here, against the caller's options
/// — this is the logical/physical split the plan cache leans on: the cached
/// logical artifact is shared while every execution picks its own physical
/// strategy (parallelism, spill budget).
pub fn execute_optimized(
    optimized: &LogicalPlan,
    catalog: &dyn Catalog,
    opts: &ExecOptions,
) -> Result<RecordBatch> {
    let ctx = ExecContext::new(opts);
    let mut op = create_physical_plan(optimized, catalog, opts, &ctx)?;
    let _kernel = crate::kernel_metrics::install(&ctx);
    Ok(drain_one(op.as_mut())?.decoded())
}

/// Render an EXPLAIN report: the plan before and after optimization, with
/// estimated cardinalities.
pub fn explain(plan: &LogicalPlan, catalog: &dyn Catalog, opts: &ExecOptions) -> Result<String> {
    let optimized = opts.optimizer().optimize(plan.clone(), catalog)?;
    Ok(format!(
        "== Logical plan ==\n{}== Optimized plan (est. {:.0} rows) ==\n{}",
        plan.display_indent(),
        estimate_rows(&optimized, catalog),
        optimized.display_indent()
    ))
}

/// EXPLAIN ANALYZE: optimize the plan, *run* it instrumented, and render the
/// physical plan annotated with measured per-operator rows-in/rows-out,
/// batch counts, and elapsed time. Returns the report and the query result.
/// Every number comes from this query's own stats blocks, so a shared
/// registry's other traffic never shows, and a `spill:` line appears only
/// when this query spilled.
pub fn explain_analyze(
    plan: &LogicalPlan,
    catalog: &dyn Catalog,
    opts: &ExecOptions,
) -> Result<(String, RecordBatch)> {
    let optimized = opts.optimizer().optimize(plan.clone(), catalog)?;
    let est = estimate_rows(&optimized, catalog);
    let ctx = ExecContext::new(opts);
    let (mut op, profile) = create_instrumented_plan(&optimized, catalog, opts, &ctx)?;
    let _kernel = crate::kernel_metrics::install(&ctx);
    let start = std::time::Instant::now();
    let result = drain_one(op.as_mut())?.decoded();
    let total = start.elapsed();
    drop(op); // release operator state before rendering the final counters
    let mut report = format!(
        "== Analyzed plan (est. {est:.0} rows, actual {} rows, total {}) ==\n{}",
        result.num_rows(),
        crate::profile::format_ns(total.as_nanos() as u64),
        profile.render(),
    );
    let partitions = profile.total(|s| &s.spill.partitions);
    if partitions > 0 {
        report.push_str(&format!(
            "spill: partitions={partitions} bytes_written={} bytes_read={}\n",
            profile.total(|s| &s.spill.bytes_written),
            profile.total(|s| &s.spill.bytes_read),
        ));
    }
    Ok((report, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{avg, col, count_star, lit, sum};
    use crate::logical::{asc, desc};
    use crate::optimizer::test_fixtures::catalog;
    use backbone_storage::Value;

    #[test]
    fn end_to_end_filter_project() {
        let cat = catalog();
        let plan = LogicalPlan::scan("small", &cat)
            .unwrap()
            .filter(col("small_v").gt_eq(lit(8i64)))
            .project(vec![col("small_v").mul(lit(2i64)).alias("d")]);
        let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
        let mut vals: Vec<i64> = out.column(0).i64_data().unwrap().to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![16, 18]);
    }

    #[test]
    fn optimized_matches_unoptimized() {
        let cat = catalog();
        let make_plan = || {
            LogicalPlan::scan("big", &cat)
                .unwrap()
                .join_on(
                    LogicalPlan::scan("small", &cat).unwrap(),
                    vec![("big_k", "small_k")],
                )
                .filter(
                    col("big_v")
                        .lt(lit(100i64))
                        .and(col("small_v").lt(lit(9i64))),
                )
                .aggregate(
                    vec![col("small_tag")],
                    vec![count_star().alias("n"), sum(col("big_v")).alias("s")],
                )
                .sort(vec![asc(col("small_tag"))])
        };
        let a = execute(make_plan(), &cat, &ExecOptions::default()).unwrap();
        let b = execute(make_plan(), &cat, &ExecOptions::unoptimized()).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
        assert!(a.num_rows() > 0);
    }

    #[test]
    fn parallel_matches_serial() {
        let cat = catalog();
        let make_plan = || {
            LogicalPlan::scan("big", &cat)
                .unwrap()
                .filter(col("big_v").modulo(lit(3i64)).eq(lit(0i64)))
                .aggregate(
                    vec![],
                    vec![count_star().alias("n"), avg(col("big_v")).alias("m")],
                )
        };
        let a = execute(make_plan(), &cat, &ExecOptions::default()).unwrap();
        let b = execute(make_plan(), &cat, &ExecOptions::with_parallelism(4)).unwrap();
        assert_eq!(a.row(0)[0], b.row(0)[0]);
        let (ma, mb) = (
            a.row(0)[1].as_float().unwrap(),
            b.row(0)[1].as_float().unwrap(),
        );
        assert!((ma - mb).abs() < 1e-9);
    }

    #[test]
    fn parallelism_usize_shim_maps_to_enum() {
        assert_eq!(Parallelism::from(0), Parallelism::Serial);
        assert_eq!(Parallelism::from(1), Parallelism::Serial);
        assert_eq!(Parallelism::from(4), Parallelism::Fixed(4));
        assert_eq!(
            ExecOptions::with_parallelism(4).parallelism,
            Parallelism::Fixed(4)
        );
        assert_eq!(
            ExecOptions::with_parallelism(Parallelism::Auto).parallelism,
            Parallelism::Auto
        );
    }

    #[test]
    fn parallelism_worker_threads() {
        assert_eq!(Parallelism::Serial.worker_threads(), 0);
        assert!(Parallelism::Serial.is_serial());
        // Fixed always spawns workers, even Fixed(1) / Fixed(0).
        assert_eq!(Parallelism::Fixed(1).worker_threads(), 1);
        assert_eq!(Parallelism::Fixed(0).worker_threads(), 1);
        assert!(!Parallelism::Fixed(1).is_serial());
        // Auto never exceeds the cap and degrades to serial on one core.
        let auto = Parallelism::Auto.worker_threads();
        assert!(auto <= MAX_AUTO_WORKERS);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores <= 1 {
            assert_eq!(auto, 0, "Auto must degrade to serial on 1 vCPU");
        } else {
            assert!(auto >= 2);
        }
    }

    #[test]
    fn parallel_builder_is_consuming() {
        let opts = ExecOptions::serial()
            .parallel(Parallelism::Fixed(2))
            .with_mem_budget(512);
        assert_eq!(opts.parallelism, Parallelism::Fixed(2));
        assert_eq!(opts.mem_budget, Some(512));
    }

    #[test]
    fn fixed_one_worker_matches_serial() {
        let cat = catalog();
        let make_plan = || {
            LogicalPlan::scan("big", &cat)
                .unwrap()
                .filter(col("big_v").modulo(lit(5i64)).eq(lit(1i64)))
                .aggregate(
                    vec![col("big_k")],
                    vec![count_star().alias("n"), sum(col("big_v")).alias("s")],
                )
                .sort(vec![asc(col("big_k"))])
        };
        let a = execute(make_plan(), &cat, &ExecOptions::serial()).unwrap();
        let b = execute(
            make_plan(),
            &cat,
            &ExecOptions::with_parallelism(Parallelism::Fixed(1)),
        )
        .unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn explain_analyze_annotates_parallel_operators() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .aggregate(
                vec![col("big_k")],
                vec![count_star().alias("n"), sum(col("big_v")).alias("s")],
            )
            .sort(vec![asc(col("big_k"))])
            .limit(5);
        let opts = ExecOptions::with_parallelism(Parallelism::Fixed(2));
        let (report, result) = explain_analyze(&plan, &cat, &opts).unwrap();
        assert_eq!(result.num_rows(), 5);
        assert!(report.contains("workers=2"), "{report}");
        assert!(report.contains("morsels="), "{report}");
        assert!(report.contains("merge="), "{report}");
    }

    #[test]
    fn one_worker_reports_like_serial() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .join_on(
                LogicalPlan::scan("small", &cat).unwrap(),
                vec![("big_k", "small_k")],
            )
            .aggregate(vec![col("small_tag")], vec![count_star().alias("n")])
            .sort(vec![asc(col("n"))])
            .limit(3);
        // The report with its timings cut out.
        let shape = |p: Parallelism| {
            let opts = ExecOptions::with_parallelism(p);
            let (report, _) = explain_analyze(&plan, &cat, &opts).unwrap();
            report
                .lines()
                .skip(1)
                .map(|l| l.split(" time=").next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        let serial = shape(Parallelism::Serial);
        assert_eq!(serial, shape(Parallelism::Fixed(1)));
        assert!(serial.iter().all(|l| !l.contains("workers=")), "{serial:?}");
        assert!(serial.iter().any(|l| l.contains("HashJoin")), "{serial:?}");
    }

    #[test]
    fn topk_pipeline() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .sort(vec![desc(col("big_v"))])
            .limit(3);
        let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
        assert_eq!(
            out.column_by_name("big_v").unwrap().i64_data().unwrap(),
            &[999, 998, 997]
        );
    }

    #[test]
    fn explain_contains_both_plans() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .filter(col("big_v").lt(lit(5i64)))
            .project(vec![col("big_k")]);
        let text = explain(&plan, &cat, &ExecOptions::default()).unwrap();
        assert!(text.contains("== Logical plan =="));
        assert!(text.contains("== Optimized plan"));
        assert!(text.contains("filters="));
    }

    #[test]
    fn explain_analyze_reports_actual_rows_and_time() {
        let cat = catalog();
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .filter(col("big_v").lt(lit(100i64)))
            .aggregate(vec![], vec![count_star().alias("n")]);
        let (report, result) = explain_analyze(&plan, &cat, &ExecOptions::default()).unwrap();
        assert_eq!(result.row(0)[0], Value::Int(100));
        assert!(report.contains("== Analyzed plan"), "{report}");
        assert!(report.contains("actual 1 rows"), "{report}");
        // Filter is pushed into the scan by the optimizer; the aggregate must
        // report the scan's 100 surviving rows as its input.
        assert!(report.contains("HashAggregate"), "{report}");
        assert!(report.contains("rows_in=100"), "{report}");
        assert!(report.contains("rows_out=100"), "{report}");
        assert!(report.contains("time="), "{report}");
    }

    #[test]
    fn instrumented_execution_matches_plain_and_fills_registry() {
        let cat = catalog();
        let metrics = Metrics::new();
        let make_plan = || {
            LogicalPlan::scan("big", &cat)
                .unwrap()
                .join_on(
                    LogicalPlan::scan("small", &cat).unwrap(),
                    vec![("big_k", "small_k")],
                )
                .sort(vec![asc(col("big_v"))])
                .limit(7)
        };
        let plain = execute(make_plan(), &cat, &ExecOptions::default()).unwrap();
        let opts = ExecOptions::default().with_metrics(metrics.clone());
        let (_, analyzed) = explain_analyze(&make_plan(), &cat, &opts).unwrap();
        assert_eq!(plain.to_rows(), analyzed.to_rows());
        // Engine-truth totals landed in the shared registry.
        assert_eq!(metrics.value("op.topk.rows_out"), 7);
        assert!(metrics.value("op.scan.rows_out") > 0);
        assert!(metrics.value("op.hash_join.elapsed_ns") > 0);
        assert_eq!(
            metrics.value("op.topk.rows_in"),
            metrics.value("op.hash_join.rows_out"),
        );
    }

    use backbone_storage::Metrics;

    #[test]
    fn three_table_join_correctness() {
        let cat = catalog();
        // small(10) -> mid(100) -> big(1000), all on k in 0..50.
        // Count of matches computed independently below.
        let plan = LogicalPlan::scan("big", &cat)
            .unwrap()
            .join_on(
                LogicalPlan::scan("mid", &cat).unwrap(),
                vec![("big_k", "mid_k")],
            )
            .join_on(
                LogicalPlan::scan("small", &cat).unwrap(),
                vec![("mid_k", "small_k")],
            )
            .aggregate(vec![], vec![count_star().alias("n")]);
        let out = execute(plan, &cat, &ExecOptions::default()).unwrap();
        // Expected: for k in 0..10 (small has k=0..9), big has 20 rows per k
        // (1000 rows, k = i%50), mid has 2 rows per k (100 rows, k = i%50).
        // Each k contributes 20 * 2 * 1 = 40; total = 10 * 40 = 400.
        assert_eq!(out.row(0)[0], Value::Int(400));
    }
}
