//! Execution profiling: per-operator counters behind EXPLAIN ANALYZE.
//!
//! The planner gives every operator of a plan one [`OpStats`] block. The
//! operators that run workers, prune or spill fill in their share of it as
//! they run. When EXPLAIN ANALYZE lowers an *instrumented* tree (see
//! [`crate::planner::create_instrumented_plan`]), every operator is also
//! wrapped in an [`InstrumentedExec`] that counts rows, batches and wall
//! time into the same block, and a [`ProfileNode`] tree holds the blocks.
//! After the plan is drained, [`ProfileNode::render`] prints the annotated
//! plan, and the `spill:` line sums the tree's spill counters, so every
//! number in the report belongs to this query alone. When a shared
//! [`Metrics`] registry is configured on [`crate::ExecOptions`], the row,
//! batch and time counts also accumulate under `op.<name>.*`, so
//! engine-truth totals survive across queries.

use crate::error::Result;
use crate::physical::spill::SpillCounters;
use crate::physical::Operator;
use backbone_storage::metrics::{Counter, Metrics};
use backbone_storage::{RecordBatch, Schema};
use std::sync::Arc;
use std::time::Instant;

/// Counters for one operator instance in one query. All fields are shared
/// atomics, so the profile tree observes updates while (and after) the
/// operator runs.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Rows produced.
    pub rows_out: Counter,
    /// Batches produced.
    pub batches: Counter,
    /// Wall time spent inside this operator's `next()`, in nanoseconds.
    /// Includes time spent in children (times are inclusive, like a flame
    /// graph), so subtract children to get self time.
    pub elapsed_ns: Counter,
    /// Workers the operator ran (1 = inline on the calling thread).
    pub workers: Counter,
    /// Morsels (segments or input batches) processed across all workers.
    pub morsels: Counter,
    /// Morsels a scan worker took from another worker's queue.
    pub steals: Counter,
    /// Nanoseconds spent merging per-worker partial states.
    pub merge_ns: Counter,
    /// Segments a scan skipped because their zone maps refute a filter.
    pub segments_pruned: Counter,
    /// Segments a scan read: sealed row groups plus unsealed tail chunks.
    pub segments_scanned: Counter,
    /// Spill traffic of this operator.
    pub spill: SpillCounters,
}

/// The stable registry scope for a physical operator name
/// (`"HashJoin"` → `"hash_join"`), used for `op.<scope>.*` counters.
pub fn registry_scope(op_name: &str) -> &'static str {
    match op_name {
        "TableScan" => "scan",
        "Filter" => "filter",
        "Project" => "project",
        "HashJoin" => "hash_join",
        "NestedLoopJoin" => "nl_join",
        "HashAggregate" => "aggregate",
        "Sort" => "sort",
        "Limit" => "limit",
        "TopK" => "topk",
        _ => "other",
    }
}

/// Registry counters an instrumented operator mirrors into.
struct RegistryMirror {
    rows_in: Counter,
    rows_out: Counter,
    batches: Counter,
    elapsed_ns: Counter,
}

impl RegistryMirror {
    fn resolve(metrics: &Metrics, op_name: &str) -> RegistryMirror {
        let scope = registry_scope(op_name);
        RegistryMirror {
            rows_in: metrics.counter(&format!("op.{scope}.rows_in")),
            rows_out: metrics.counter(&format!("op.{scope}.rows_out")),
            batches: metrics.counter(&format!("op.{scope}.batches")),
            elapsed_ns: metrics.counter(&format!("op.{scope}.elapsed_ns")),
        }
    }
}

/// A transparent wrapper recording an operator's output and timing.
pub struct InstrumentedExec {
    inner: Box<dyn Operator>,
    stats: OpStats,
    mirror: Option<RegistryMirror>,
    /// Rows-out counters of the child operators; their post-run sum is this
    /// operator's rows-in (pull execution means input rows are exactly what
    /// the children produced).
    child_rows: Vec<Counter>,
    /// Rows-in already mirrored into the registry (to mirror only the delta).
    mirrored_rows_in: u64,
}

impl InstrumentedExec {
    /// Wrap `inner`, mirroring into `metrics` when provided.
    pub fn new(
        inner: Box<dyn Operator>,
        stats: OpStats,
        metrics: Option<&Metrics>,
        child_rows: Vec<Counter>,
    ) -> InstrumentedExec {
        let mirror = metrics.map(|m| RegistryMirror::resolve(m, inner.name()));
        InstrumentedExec {
            inner,
            stats,
            mirror,
            child_rows,
            mirrored_rows_in: 0,
        }
    }
}

impl Operator for InstrumentedExec {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn next(&mut self) -> Result<Option<RecordBatch>> {
        let start = Instant::now();
        let out = self.inner.next();
        self.stats.elapsed_ns.add_elapsed(start);
        if let Ok(Some(batch)) = &out {
            self.stats.rows_out.add(batch.num_rows() as u64);
            self.stats.batches.incr();
        }
        if let Some(mirror) = &self.mirror {
            mirror.elapsed_ns.add_elapsed(start);
            if let Ok(Some(batch)) = &out {
                mirror.rows_out.add(batch.num_rows() as u64);
                mirror.batches.incr();
            }
            let rows_in: u64 = self.child_rows.iter().map(Counter::get).sum();
            mirror.rows_in.add(rows_in - self.mirrored_rows_in);
            self.mirrored_rows_in = rows_in;
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One node of the annotated plan tree built alongside an instrumented
/// physical plan.
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Physical operator name (`HashJoin`, `TableScan`, ...).
    pub name: &'static str,
    /// Operator-specific detail (table, predicate, keys, ...).
    pub detail: String,
    /// Live counters shared with the running operator.
    pub stats: OpStats,
    /// Child profiles, in the operator's input order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Total rows this operator consumed: the sum of its children's output.
    /// Leaves (scans) have no plan inputs and report 0.
    pub fn rows_in(&self) -> u64 {
        self.children.iter().map(|c| c.stats.rows_out.get()).sum()
    }

    /// `counter` of this operator's stats plus every descendant's.
    pub fn total(&self, counter: fn(&OpStats) -> &Counter) -> u64 {
        let own = counter(&self.stats).get();
        own + self.children.iter().map(|c| c.total(counter)).sum::<u64>()
    }

    /// Render the annotated tree, one operator per line:
    /// `Name: detail (rows_in=… rows_out=… batches=… time=…)`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let detail = if self.detail.is_empty() {
            String::new()
        } else {
            format!(" {}", self.detail)
        };
        let rows_in = if self.children.is_empty() {
            String::new()
        } else {
            format!("rows_in={} ", self.rows_in())
        };
        // Annotations only where they say something: pruned segments, and
        // worker counts when two or more workers ran (a one-worker plan is
        // the serial plan and renders like it).
        let s = &self.stats;
        let mut extra = String::new();
        let pruned = s.segments_pruned.get();
        if pruned > 0 {
            let total = pruned + s.segments_scanned.get();
            extra.push_str(&format!(" pruned={pruned}/{total}"));
        }
        if s.workers.get() > 1 {
            extra.push_str(&format!(
                " workers={} morsels={}",
                s.workers.get(),
                s.morsels.get()
            ));
            if s.steals.get() > 0 {
                extra.push_str(&format!(" steals={}", s.steals.get()));
            }
            if s.merge_ns.get() > 0 {
                extra.push_str(&format!(" merge={}", format_ns(s.merge_ns.get())));
            }
        }
        out.push_str(&format!(
            "{pad}{}:{detail} ({rows_in}rows_out={} batches={} time={}{extra})\n",
            self.name,
            self.stats.rows_out.get(),
            self.stats.batches.get(),
            format_ns(self.stats.elapsed_ns.get()),
        ));
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// Format nanoseconds with a human-friendly unit.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::drain;
    use crate::physical::test_util::{int_batch, BatchSource};

    fn instrumented_source(rows: Vec<i64>) -> (InstrumentedExec, OpStats) {
        let batch = int_batch(&[("v", rows)]);
        let stats = OpStats::default();
        let op = InstrumentedExec::new(
            Box::new(BatchSource::single(batch)),
            stats.clone(),
            None,
            vec![],
        );
        (op, stats)
    }

    #[test]
    fn wrapper_counts_rows_batches_and_time() {
        let (mut op, stats) = instrumented_source(vec![1, 2, 3, 4]);
        let batches = drain(&mut op).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(stats.rows_out.get(), 4);
        assert_eq!(stats.batches.get(), 1);
        // Two next() calls happened (batch + end-of-stream), both timed.
        assert!(stats.elapsed_ns.get() > 0);
    }

    #[test]
    fn registry_mirror_accumulates_across_instances() {
        let metrics = Metrics::new();
        for _ in 0..2 {
            let batch = int_batch(&[("v", vec![1, 2, 3])]);
            let mut op = InstrumentedExec::new(
                Box::new(BatchSource::single(batch)),
                OpStats::default(),
                Some(&metrics),
                vec![],
            );
            drain(&mut op).unwrap();
        }
        // BatchSource maps to the "other" scope.
        assert_eq!(metrics.value("op.other.rows_out"), 6);
        assert_eq!(metrics.value("op.other.batches"), 2);
        assert!(metrics.value("op.other.elapsed_ns") > 0);
    }

    #[test]
    fn profile_tree_rows_in_is_children_rows_out() {
        let (mut child_op, child_stats) = instrumented_source(vec![1, 2, 3]);
        drain(&mut child_op).unwrap();
        let root = ProfileNode {
            name: "Filter",
            detail: "(v > 1)".into(),
            stats: OpStats::default(),
            children: vec![ProfileNode {
                name: "TableScan",
                detail: "t".into(),
                stats: child_stats,
                children: vec![],
            }],
        };
        assert_eq!(root.rows_in(), 3);
        let text = root.render();
        assert!(text.contains("Filter: (v > 1) (rows_in=3 rows_out=0"));
        assert!(text.contains("  TableScan: t (rows_out=3"));
        root.children[0].stats.segments_pruned.add(9);
        root.children[0].stats.segments_scanned.add(1);
        assert!(root.render().contains("(rows_out=3 batches=1"));
        assert!(root.render().contains(" pruned=9/10)"), "{}", root.render());
        root.children[0].stats.spill.partitions.add(2);
        root.stats.spill.partitions.add(1);
        assert_eq!(root.total(|s| &s.spill.partitions), 3);
    }

    #[test]
    fn parallel_counters_render_when_workers_ran() {
        let node = |workers: u64| {
            let stats = OpStats::default();
            stats.workers.add(workers);
            stats.morsels.add(12);
            stats.steals.add(2);
            stats.merge_ns.add(1_700);
            ProfileNode {
                name: "HashAggregate",
                detail: String::new(),
                stats,
                children: vec![],
            }
            .render()
        };
        assert!(node(4).contains("workers=4 morsels=12 steals=2 merge=1.70us"));
        // One inline worker is the serial plan: no annotation.
        assert!(!node(1).contains("workers="));
        assert!(!node(1).contains("merge="));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(17), "17ns");
        assert_eq!(format_ns(1_700), "1.70us");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }
}
