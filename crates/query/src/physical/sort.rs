//! Sort operator.

use super::{drain, Operator};
use crate::error::Result;
use crate::eval::eval_arc;
use crate::logical::SortKey;
use backbone_storage::{Column, RecordBatch, Schema};
use std::cmp::Ordering;
use std::sync::Arc;

/// Fully materializing sort by one or more keys.
pub struct SortExec {
    input: Option<Box<dyn Operator>>,
    keys: Vec<SortKey>,
    schema: Arc<Schema>,
    done: bool,
}

impl SortExec {
    /// Sort `input` by `keys` (major key first).
    pub fn new(input: Box<dyn Operator>, keys: Vec<SortKey>) -> SortExec {
        let schema = input.schema();
        SortExec {
            input: Some(input),
            keys,
            schema,
            done: false,
        }
    }
}

/// Compare row `a` vs row `b` under the sort keys, given pre-evaluated key
/// columns.
pub(crate) fn cmp_rows(key_cols: &[(Arc<Column>, bool)], a: usize, b: usize) -> Ordering {
    for (col, descending) in key_cols {
        let va = col.value(a);
        let vb = col.value(b);
        let ord = va.sort_cmp(&vb);
        let ord = if *descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

impl Operator for SortExec {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<RecordBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut input = self.input.take().expect("sorted once");
        let batches = drain(input.as_mut())?;
        let all = RecordBatch::concat(self.schema.clone(), &batches)?;
        if all.is_empty() {
            return Ok(Some(all));
        }
        let key_cols: Vec<(Arc<Column>, bool)> = self
            .keys
            .iter()
            .map(|k| Ok((eval_arc(&k.expr, &all)?, k.descending)))
            .collect::<Result<_>>()?;
        let mut indices: Vec<u32> = (0..all.num_rows() as u32).collect();
        // Stable sort: ties keep input order, giving deterministic output.
        indices.sort_by(|&a, &b| cmp_rows(&key_cols, a as usize, b as usize));
        Ok(Some(all.take(&indices)?))
    }

    fn name(&self) -> &'static str {
        "Sort"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use crate::logical::{asc, desc};
    use crate::physical::drain_one;
    use crate::physical::test_util::{int_batch, BatchSource};

    #[test]
    fn single_key_ascending() {
        let batch = int_batch(&[("x", vec![3, 1, 2])]);
        let mut s = SortExec::new(Box::new(BatchSource::single(batch)), vec![asc(col("x"))]);
        let out = drain_one(&mut s).unwrap();
        assert_eq!(out.column(0).i64_data().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn multi_key_mixed_direction() {
        let batch = int_batch(&[("g", vec![1, 2, 1, 2]), ("v", vec![5, 6, 7, 8])]);
        let mut s = SortExec::new(
            Box::new(BatchSource::single(batch)),
            vec![asc(col("g")), desc(col("v"))],
        );
        let out = drain_one(&mut s).unwrap();
        let g: Vec<i64> = out.column(0).i64_data().unwrap().to_vec();
        let v: Vec<i64> = out.column(1).i64_data().unwrap().to_vec();
        assert_eq!(g, vec![1, 1, 2, 2]);
        assert_eq!(v, vec![7, 5, 8, 6]);
    }

    #[test]
    fn sorts_across_batches() {
        let b1 = int_batch(&[("x", vec![5, 1])]);
        let b2 = int_batch(&[("x", vec![4, 2])]);
        let src = BatchSource::new(b1.schema().clone(), vec![b1, b2]);
        let mut s = SortExec::new(Box::new(src), vec![asc(col("x"))]);
        let out = drain_one(&mut s).unwrap();
        assert_eq!(out.column(0).i64_data().unwrap(), &[1, 2, 4, 5]);
    }

    #[test]
    fn nulls_sort_first() {
        use backbone_storage::{Column as C, DataType, Field};
        let schema = Schema::new(vec![Field::nullable("x", DataType::Int64)]);
        let batch = RecordBatch::try_new(
            schema,
            vec![Arc::new(C::from_opt_i64(vec![Some(2), None, Some(1)]))],
        )
        .unwrap();
        let mut s = SortExec::new(Box::new(BatchSource::single(batch)), vec![asc(col("x"))]);
        let out = drain_one(&mut s).unwrap();
        assert!(out.column(0).is_null(0));
        assert_eq!(out.column(0).value(1), backbone_storage::Value::Int(1));
    }

    #[test]
    fn empty_input() {
        let batch = int_batch(&[("x", vec![])]);
        let mut s = SortExec::new(Box::new(BatchSource::single(batch)), vec![asc(col("x"))]);
        let out = drain_one(&mut s).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn sort_by_expression() {
        use crate::expr::lit;
        let batch = int_batch(&[("x", vec![1, 2, 3])]);
        // Sort by -x == descending by x.
        let mut s = SortExec::new(
            Box::new(BatchSource::single(batch)),
            vec![asc(lit(0i64).sub(col("x")))],
        );
        let out = drain_one(&mut s).unwrap();
        assert_eq!(out.column(0).i64_data().unwrap(), &[3, 2, 1]);
    }
}
