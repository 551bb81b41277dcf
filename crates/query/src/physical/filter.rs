//! Filter operator.

use super::Operator;
use crate::error::Result;
use crate::eval::refine_selection;
use crate::expr::Expr;
use backbone_storage::{RecordBatch, Schema};
use std::sync::Arc;

/// Keeps rows of its input for which the predicate evaluates to TRUE.
pub struct FilterExec {
    input: Box<dyn Operator>,
    predicate: Expr,
}

impl FilterExec {
    /// Wrap `input` with a predicate.
    pub fn new(input: Box<dyn Operator>, predicate: Expr) -> FilterExec {
        FilterExec { input, predicate }
    }
}

impl Operator for FilterExec {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<RecordBatch>> {
        // Skip batches that filter to empty rather than emitting empties.
        while let Some(batch) = self.input.next()? {
            // Pass survivors downstream as a selection view: no column is
            // compacted here, kernels below iterate the selected lanes.
            let out = refine_selection(&self.predicate, &batch)?;
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }

    fn name(&self) -> &'static str {
        "Filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::physical::drain_one;
    use crate::physical::test_util::{int_batch, BatchSource};

    #[test]
    fn filters_rows() {
        let batch = int_batch(&[("x", vec![1, 2, 3, 4, 5])]);
        let src = BatchSource::single(batch);
        let mut f = FilterExec::new(Box::new(src), col("x").gt(lit(3i64)));
        let out = drain_one(&mut f).unwrap();
        assert_eq!(out.column(0).i64_data().unwrap(), &[4, 5]);
    }

    #[test]
    fn skips_empty_batches() {
        let b1 = int_batch(&[("x", vec![1, 2])]);
        let b2 = int_batch(&[("x", vec![10, 20])]);
        let src = BatchSource::new(b1.schema().clone(), vec![b1, b2]);
        let mut f = FilterExec::new(Box::new(src), col("x").gt_eq(lit(10i64)));
        let first = f.next().unwrap().unwrap();
        assert_eq!(first.num_rows(), 2);
        assert!(f.next().unwrap().is_none());
    }

    #[test]
    fn all_filtered_yields_none() {
        let batch = int_batch(&[("x", vec![1, 2, 3])]);
        let mut f = FilterExec::new(
            Box::new(BatchSource::single(batch)),
            col("x").gt(lit(99i64)),
        );
        assert!(f.next().unwrap().is_none());
    }
}
