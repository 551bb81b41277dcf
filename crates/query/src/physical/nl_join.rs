//! Nested-loop join: the cross product of a join without equi-keys.

use super::{drain, Operator};
use crate::error::Result;
use backbone_storage::{Column, RecordBatch, Schema};
use std::sync::Arc;

/// The cross product of its two inputs, for a join without equi-keys. A
/// non-equi condition is a Filter above it.
pub struct NestedLoopJoinExec {
    left: Option<Box<dyn Operator>>,
    right: Option<Box<dyn Operator>>,
    schema: Arc<Schema>,
    output: Option<std::vec::IntoIter<RecordBatch>>,
}

impl NestedLoopJoinExec {
    /// Build the cross product of `left` and `right`.
    pub fn new(left: Box<dyn Operator>, right: Box<dyn Operator>) -> NestedLoopJoinExec {
        let schema = left.schema().join(&right.schema());
        NestedLoopJoinExec {
            left: Some(left),
            right: Some(right),
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
            out.push(RecordBatch::try_new(self.schema.clone(), cols)?);
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
    use crate::physical::drain_one;
    use crate::physical::test_util::{int_batch, BatchSource};

    #[test]
    fn cross_product() {
        let lb = int_batch(&[("a", vec![1, 2])]);
        let rb = int_batch(&[("b", vec![10, 20, 30])]);
        let mut j = NestedLoopJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
        );
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 6);
    }

    #[test]
    fn empty_side_yields_empty() {
        let lb = int_batch(&[("a", vec![])]);
        let rb = int_batch(&[("b", vec![1, 2])]);
        let mut j = NestedLoopJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
        );
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
}
