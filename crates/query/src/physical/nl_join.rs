//! Nested-loop join: the baseline the optimizer experiments compare against.

use super::{drain, Operator};
use crate::error::Result;
use crate::eval::refine_selection;
use crate::expr::Expr;
use backbone_storage::{Column, RecordBatch, Schema};
use std::sync::Arc;

/// Quadratic join with an arbitrary (not necessarily equi-) predicate over
/// the combined row. Used as the unoptimized baseline in E6 and for
/// non-equi join conditions.
pub struct NestedLoopJoinExec {
    left: Option<Box<dyn Operator>>,
    right: Option<Box<dyn Operator>>,
    predicate: Option<Expr>,
    schema: Arc<Schema>,
    output: Option<std::vec::IntoIter<RecordBatch>>,
}

impl NestedLoopJoinExec {
    /// Build a nested-loop join. `predicate` of `None` yields the cross
    /// product.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        predicate: Option<Expr>,
    ) -> NestedLoopJoinExec {
        let schema = left.schema().join(&right.schema());
        NestedLoopJoinExec {
            left: Some(left),
            right: Some(right),
            predicate,
            schema,
            output: None,
        }
    }

    fn compute(&mut self) -> Result<Vec<RecordBatch>> {
        let mut left = self.left.take().expect("computed once");
        let mut right = self.right.take().expect("computed once");
        let lschema = left.schema();
        let rschema = right.schema();
        let lbatch = RecordBatch::concat(lschema, &drain(left.as_mut())?)?;
        let rbatch = RecordBatch::concat(rschema, &drain(right.as_mut())?)?;
        let ln = lbatch.num_rows();
        let rn = rbatch.num_rows();
        if ln == 0 || rn == 0 {
            return Ok(vec![]);
        }
        // Materialize the cross product in row-chunks to bound memory.
        const CHUNK: usize = 4096;
        let mut out = Vec::new();
        let mut li = Vec::with_capacity(CHUNK);
        let mut ri = Vec::with_capacity(CHUNK);
        let mut flush = |li: &mut Vec<u32>, ri: &mut Vec<u32>| -> Result<()> {
            if li.is_empty() {
                return Ok(());
            }
            let lpart = lbatch.take(li)?;
            let rpart = rbatch.take(ri)?;
            let mut cols: Vec<Arc<Column>> = lpart.columns().to_vec();
            cols.extend(rpart.columns().iter().cloned());
            let combined = RecordBatch::try_new(self.schema.clone(), cols)?;
            let kept = match &self.predicate {
                None => combined,
                // Compact the survivors: the output holds every chunk until
                // the join drains, and a view would pin each whole chunk.
                Some(p) => refine_selection(p, &combined)?.materialize(),
            };
            if !kept.is_empty() {
                out.push(kept);
            }
            li.clear();
            ri.clear();
            Ok(())
        };
        for l in 0..ln as u32 {
            for r in 0..rn as u32 {
                li.push(l);
                ri.push(r);
                if li.len() == CHUNK {
                    flush(&mut li, &mut ri)?;
                }
            }
        }
        flush(&mut li, &mut ri)?;
        Ok(out)
    }
}

impl Operator for NestedLoopJoinExec {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<RecordBatch>> {
        if self.output.is_none() {
            let batches = self.compute()?;
            self.output = Some(batches.into_iter());
        }
        Ok(self.output.as_mut().unwrap().next())
    }

    fn name(&self) -> &'static str {
        "NestedLoopJoin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::physical::drain_one;
    use crate::physical::test_util::{int_batch, BatchSource};

    #[test]
    fn cross_product() {
        let lb = int_batch(&[("a", vec![1, 2])]);
        let rb = int_batch(&[("b", vec![10, 20, 30])]);
        let mut j = NestedLoopJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            None,
        );
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 6);
    }

    #[test]
    fn predicate_join_matches_hash_join() {
        use crate::logical::JoinType;
        use crate::physical::HashJoinExec;
        let l = vec![("id", vec![1i64, 2, 3, 4]), ("x", vec![5i64, 6, 7, 8])];
        let r = vec![("rid", vec![2i64, 4, 9]), ("y", vec![1i64, 2, 3])];
        let mut nl = NestedLoopJoinExec::new(
            Box::new(BatchSource::single(int_batch(&l))),
            Box::new(BatchSource::single(int_batch(&r))),
            Some(col("id").eq(col("rid"))),
        );
        let mut hj = HashJoinExec::new(
            Box::new(BatchSource::single(int_batch(&l))),
            Box::new(BatchSource::single(int_batch(&r))),
            vec![("id".to_string(), "rid".to_string())],
            JoinType::Inner,
            &crate::physical::test_util::ctx(1),
            crate::OpStats::default(),
        )
        .unwrap();
        let mut a = drain_one(&mut nl).unwrap().to_rows();
        let mut b = drain_one(&mut hj).unwrap().to_rows();
        let key = |r: &Vec<backbone_storage::Value>| format!("{r:?}");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn non_equi_predicate() {
        let lb = int_batch(&[("a", vec![1, 5])]);
        let rb = int_batch(&[("b", vec![3])]);
        let mut j = NestedLoopJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            Some(col("a").gt(col("b"))),
        );
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).i64_data().unwrap(), &[5]);
    }

    #[test]
    fn empty_side_yields_empty() {
        let lb = int_batch(&[("a", vec![])]);
        let rb = int_batch(&[("b", vec![1, 2])]);
        let mut j = NestedLoopJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            None,
        );
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn constant_false_predicate() {
        let lb = int_batch(&[("a", vec![1, 2, 3])]);
        let rb = int_batch(&[("b", vec![1, 2, 3])]);
        let mut j = NestedLoopJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            Some(lit(false)),
        );
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
}
