//! Record batches: the unit of vectorized data flow between operators.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::types::Value;
use std::sync::Arc;

/// A horizontal slice of a table: a schema plus one column per field, all of
/// equal length. Batches are immutable and cheap to clone (columns are
/// `Arc`-shared).
///
/// A batch may additionally carry a **selection vector**: an ordered list of
/// base-row indices naming the logical rows. Filters produce selected views
/// instead of compacting every surviving column, and downstream kernels
/// iterate only the selected lanes; `materialize` gathers the view into a
/// dense batch at operator boundaries that need one. All row-level accessors
/// (`num_rows`, `row`, `to_rows`, `filter`, `take`, `slice`) see logical
/// rows, so a selected batch behaves observably like its compacted form.
#[derive(Debug, Clone)]
pub struct RecordBatch {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    rows: usize,
    sel: Option<Arc<Vec<u32>>>,
}

impl RecordBatch {
    /// Build a batch, validating arity, types, and equal column lengths.
    pub fn try_new(schema: Arc<Schema>, columns: Vec<Arc<Column>>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.data_type != c.data_type() {
                return Err(StorageError::SchemaMismatch(format!(
                    "field '{}' is {} but column is {}",
                    f.name,
                    f.data_type,
                    c.data_type()
                )));
            }
            if c.len() != rows {
                return Err(StorageError::SchemaMismatch(format!(
                    "ragged batch: column '{}' has {} rows, expected {rows}",
                    f.name,
                    c.len()
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            rows,
            sel: None,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::empty(f.data_type)))
            .collect();
        RecordBatch {
            schema,
            columns,
            rows: 0,
            sel: None,
        }
    }

    /// Build a batch from rows of dynamic values (test/ingest convenience).
    pub fn from_rows(schema: Arc<Schema>, rows: &[Vec<Value>]) -> Result<Self> {
        let mut cols: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        for row in rows {
            if row.len() != schema.len() {
                return Err(StorageError::SchemaMismatch(format!(
                    "row has {} values, schema has {} fields",
                    row.len(),
                    schema.len()
                )));
            }
            for (c, v) in cols.iter_mut().zip(row) {
                c.push_value(v)?;
            }
        }
        RecordBatch::try_new(schema, cols.into_iter().map(Arc::new).collect())
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of logical rows (selection lanes when a selection is present).
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// Number of physical rows in the underlying columns.
    pub fn base_rows(&self) -> usize {
        self.rows
    }

    /// The selection vector, if this batch is a filtered view.
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(|s| s.as_slice())
    }

    /// Shared handle to the selection vector (cheap to clone onto a sibling
    /// batch with the same base row count).
    pub fn selection_shared(&self) -> Option<Arc<Vec<u32>>> {
        self.sel.clone()
    }

    /// Map a logical row index to its base-column row index.
    #[inline]
    pub fn base_index(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// This batch viewed through `sel` (base-row indices). Replaces any
    /// existing selection — callers composing filters must map through
    /// [`RecordBatch::base_index`] first.
    pub fn with_selection(&self, sel: Arc<Vec<u32>>) -> Result<RecordBatch> {
        if let Some(&bad) = sel.iter().find(|&&i| i as usize >= self.rows) {
            return Err(StorageError::OutOfBounds {
                index: bad as usize,
                len: self.rows,
            });
        }
        Ok(RecordBatch {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            rows: self.rows,
            sel: Some(sel),
        })
    }

    /// Gather any selection into dense columns. A no-op clone when the batch
    /// is already dense.
    pub fn materialize(&self) -> RecordBatch {
        match &self.sel {
            None => self.clone(),
            Some(sel) => {
                let columns = self
                    .columns
                    .iter()
                    .map(|c| Arc::new(c.gather(sel)))
                    .collect();
                RecordBatch {
                    schema: self.schema.clone(),
                    columns,
                    rows: sel.len(),
                    sel: None,
                }
            }
        }
    }

    /// The columns by value, any selection gathered first, so that a sole
    /// owner can take their data.
    pub(crate) fn into_columns(self) -> Vec<Arc<Column>> {
        match self.sel {
            None => self.columns,
            Some(_) => self.materialize().columns,
        }
    }

    /// Replace dictionary- and integer-encoded columns with their decoded
    /// (flat) form. A no-op clone when nothing is encoded — the late-
    /// materialization step at the boundary where results leave the engine.
    pub fn decoded(&self) -> RecordBatch {
        if !self.columns.iter().any(|c| c.is_dict() || c.is_encoded()) {
            return self.clone();
        }
        let columns = self
            .columns
            .iter()
            .map(|c| match c.decoded() {
                Some(flat) => Arc::new(flat),
                None => c.clone(),
            })
            .collect();
        RecordBatch {
            schema: self.schema.clone(),
            columns,
            rows: self.rows,
            sel: self.sel.clone(),
        }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether the batch has zero logical rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Column at ordinal `i`.
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Column by field name.
    pub fn column_by_name(&self, name: &str) -> Result<&Arc<Column>> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Logical row `i` as dynamic values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        let base = self.base_index(i);
        self.columns.iter().map(|c| c.value(base)).collect()
    }

    /// All logical rows as dynamic values (result materialization).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.num_rows()).map(|i| self.row(i)).collect()
    }

    /// Gather logical rows at `indices`.
    pub fn take(&self, indices: &[u32]) -> Result<RecordBatch> {
        if let Some(&bad) = indices.iter().find(|&&i| i as usize >= self.num_rows()) {
            return Err(StorageError::OutOfBounds {
                index: bad as usize,
                len: self.num_rows(),
            });
        }
        let base: Vec<u32>;
        let rows = match &self.sel {
            Some(sel) => {
                base = indices.iter().map(|&i| sel[i as usize]).collect();
                &base
            }
            None => indices,
        };
        let cols = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(rows)))
            .collect();
        RecordBatch::try_new(self.schema.clone(), cols)
    }

    /// Project columns by ordinal, preserving any selection.
    pub fn project(&self, indices: &[usize]) -> Result<RecordBatch> {
        let schema = self.schema.project(indices);
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.columns.len()) {
            return Err(StorageError::OutOfBounds {
                index: bad,
                len: self.columns.len(),
            });
        }
        let cols = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(RecordBatch {
            schema,
            columns: cols,
            rows: self.rows,
            sel: self.sel.clone(),
        })
    }

    /// A contiguous logical row slice `[offset, offset+len)`. On a selected
    /// batch this narrows the selection without touching column data.
    pub fn slice(&self, offset: usize, len: usize) -> Result<RecordBatch> {
        if offset + len > self.num_rows() {
            return Err(StorageError::OutOfBounds {
                index: offset + len,
                len: self.num_rows(),
            });
        }
        match &self.sel {
            Some(sel) => {
                let narrowed = Arc::new(sel[offset..offset + len].to_vec());
                Ok(RecordBatch {
                    schema: self.schema.clone(),
                    columns: self.columns.clone(),
                    rows: self.rows,
                    sel: Some(narrowed),
                })
            }
            None => {
                let cols = self
                    .columns
                    .iter()
                    .map(|c| Arc::new(c.slice(offset, len)))
                    .collect();
                RecordBatch::try_new(self.schema.clone(), cols)
            }
        }
    }

    /// Vertically concatenate batches sharing a schema. Selected inputs are
    /// materialized first; the result is always dense.
    pub fn concat(schema: Arc<Schema>, batches: &[RecordBatch]) -> Result<RecordBatch> {
        if batches.is_empty() {
            return Ok(RecordBatch::empty(schema));
        }
        let dense: Vec<RecordBatch> = batches.iter().map(|b| b.materialize()).collect();
        let mut cols = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            let parts: Vec<&Column> = dense.iter().map(|b| b.column(i).as_ref()).collect();
            cols.push(Arc::new(Column::concat(&parts)?));
        }
        RecordBatch::try_new(schema, cols)
    }

    /// Approximate in-memory size in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        RecordBatch::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::str("ann")],
                vec![Value::Int(2), Value::str("bob")],
                vec![Value::Int(3), Value::str("cat")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_read() {
        let b = sample();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 2);
        assert_eq!(b.row(1), vec![Value::Int(2), Value::str("bob")]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
        let cols = vec![
            Arc::new(Column::from_i64(vec![1])),
            Arc::new(Column::from_i64(vec![2])),
        ];
        assert!(RecordBatch::try_new(schema, cols).is_err());
    }

    #[test]
    fn ragged_batch_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ]);
        let cols = vec![
            Arc::new(Column::from_i64(vec![1, 2])),
            Arc::new(Column::from_i64(vec![3])),
        ];
        assert!(RecordBatch::try_new(schema, cols).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let schema = Schema::new(vec![Field::new("a", DataType::Utf8)]);
        let cols = vec![Arc::new(Column::from_i64(vec![1]))];
        assert!(RecordBatch::try_new(schema, cols).is_err());
    }

    #[test]
    fn filter_take_project_slice() {
        let b = sample();
        let f = b
            .with_selection(Arc::new(vec![0, 2]))
            .unwrap()
            .materialize();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(1)[0], Value::Int(3));

        let t = b.take(&[2, 0]).unwrap();
        assert_eq!(t.row(0)[1], Value::str("cat"));

        let p = b.project(&[1]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.schema().field(0).name, "name");

        let s = b.slice(1, 2).unwrap();
        assert_eq!(s.row(0)[0], Value::Int(2));
    }

    #[test]
    fn take_out_of_bounds() {
        let b = sample();
        assert!(b.take(&[5]).is_err());
    }

    #[test]
    fn concat_batches() {
        let b = sample();
        let c = RecordBatch::concat(b.schema().clone(), &[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.num_rows(), 6);
        assert_eq!(c.row(3), c.row(0));
    }

    #[test]
    fn concat_empty_list() {
        let b = sample();
        let c = RecordBatch::concat(b.schema().clone(), &[]).unwrap();
        assert_eq!(c.num_rows(), 0);
    }

    #[test]
    fn column_by_name() {
        let b = sample();
        assert_eq!(
            b.column_by_name("name").unwrap().value(0),
            Value::str("ann")
        );
        assert!(b.column_by_name("zzz").is_err());
    }
}
