//! Physical operators: interchangeable implementations of the logical algebra.
//!
//! Every operator is a Volcano-style batch iterator. The planner — not the
//! caller — picks which operators realize a logical plan, which is exactly
//! the physical independence the paper's panelists name as a lasting
//! database principle.

mod aggregate;
pub(crate) mod context;
mod filter;
mod hash_join;
mod limit;
mod nl_join;
mod parallel;
pub mod pool;
mod project;
mod scan;
mod sort;
pub mod spill;
mod topk;

pub use aggregate::HashAggregateExec;
pub use context::ExecContext;
pub use filter::FilterExec;
pub use hash_join::HashJoinExec;
pub use limit::LimitExec;
pub use nl_join::NestedLoopJoinExec;
pub use project::ProjectExec;
pub use scan::TableScanExec;
pub use sort::SortExec;
pub use spill::{BudgetAccountant, BudgetLease};
pub use topk::TopKExec;

use crate::error::Result;
use backbone_storage::{RecordBatch, Schema};
use std::sync::Arc;

/// A pull-based physical operator producing record batches.
pub trait Operator: Send {
    /// The operator's output schema.
    fn schema(&self) -> Arc<Schema>;

    /// Produce the next batch, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<RecordBatch>>;

    /// Operator name for EXPLAIN output.
    fn name(&self) -> &'static str;
}

/// Visit a batch's logical rows as `(position, base_row)` pairs: positions
/// are dense `0..n`, base rows map through the selection when present.
#[inline]
pub(crate) fn for_each_lane(sel: Option<&[u32]>, n: usize, mut f: impl FnMut(usize, usize)) {
    match sel {
        Some(s) => {
            for (pos, &b) in s.iter().enumerate() {
                f(pos, b as usize);
            }
        }
        None => {
            for i in 0..n {
                f(i, i);
            }
        }
    }
}

/// Drain an operator into a vector of **dense** batches. Selection views are
/// materialized here so batches never escape the executor half-filtered.
pub fn drain(op: &mut dyn Operator) -> Result<Vec<RecordBatch>> {
    let mut out = Vec::new();
    while let Some(batch) = op.next()? {
        out.push(batch.materialize());
    }
    Ok(out)
}

/// Drain an operator and concatenate into a single batch.
pub fn drain_one(op: &mut dyn Operator) -> Result<RecordBatch> {
    let schema = op.schema();
    let batches = drain(op)?;
    Ok(RecordBatch::concat(schema, &batches)?)
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use backbone_storage::StorageError;

    /// An operator that yields a fixed list of batches (test source).
    pub struct BatchSource {
        schema: Arc<Schema>,
        batches: std::vec::IntoIter<RecordBatch>,
    }

    impl BatchSource {
        pub fn new(schema: Arc<Schema>, batches: Vec<RecordBatch>) -> BatchSource {
            BatchSource {
                schema,
                batches: batches.into_iter(),
            }
        }

        /// Single-batch convenience constructor.
        pub fn single(batch: RecordBatch) -> BatchSource {
            BatchSource::new(batch.schema().clone(), vec![batch])
        }
    }

    impl Operator for BatchSource {
        fn schema(&self) -> Arc<Schema> {
            self.schema.clone()
        }

        fn next(&mut self) -> Result<Option<RecordBatch>> {
            Ok(self.batches.next())
        }

        fn name(&self) -> &'static str {
            "BatchSource"
        }
    }

    /// A context running `workers` workers, with no budget or registry.
    pub fn ctx(workers: usize) -> ExecContext {
        ctx_with(workers, None, None)
    }

    /// A context running `workers` workers under an optional memory budget,
    /// recording into an optional registry.
    pub fn ctx_with(
        workers: usize,
        budget: Option<usize>,
        metrics: Option<backbone_storage::Metrics>,
    ) -> ExecContext {
        let mut opts = crate::ExecOptions::with_parallelism(crate::Parallelism::Fixed(workers));
        opts.mem_budget = budget;
        opts.metrics = metrics;
        ExecContext::new(&opts)
    }

    /// Build an int batch from (name, values) column specs.
    pub fn int_batch(cols: &[(&str, Vec<i64>)]) -> RecordBatch {
        use backbone_storage::{Column, DataType, Field};
        let schema = Schema::new(
            cols.iter()
                .map(|(n, _)| Field::new(*n, DataType::Int64))
                .collect(),
        );
        let columns = cols
            .iter()
            .map(|(_, v)| Arc::new(Column::from_i64(v.clone())))
            .collect();
        RecordBatch::try_new(schema, columns)
            .map_err(|e: StorageError| e)
            .unwrap()
    }
}
