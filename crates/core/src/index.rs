//! Typed index specifications for the `Database` facade.
//!
//! [`VectorIndexSpec`] names the metric and the algorithm in one typed
//! value; each algorithm builds with its crate's default parameters.

use backbone_vector::{Dataset, ExactIndex, HnswIndex, IvfIndex, Metric, VectorIndex};
use std::sync::Arc;

/// How to build a vector index: metric + algorithm.
///
/// ```
/// use backbone_core::{Database, VectorIndexSpec};
/// use backbone_storage::{DataType, Field, Schema, Value};
/// use backbone_vector::{Dataset, Metric};
///
/// let db = Database::new();
/// db.create_table("t", Schema::new(vec![Field::new("id", DataType::Int64)])).unwrap();
/// db.insert("t", vec![vec![Value::Int(0)], vec![Value::Int(1)]]).unwrap();
/// let mut vectors = Dataset::new(2);
/// vectors.push(0, &[1.0, 0.0]);
/// vectors.push(1, &[0.0, 1.0]);
/// db.create_vector_index("t", vectors, VectorIndexSpec::hnsw(Metric::L2)).unwrap();
/// let nearest = db.vector_index("t").unwrap().search(&[0.9, 0.1], 1);
/// assert_eq!(nearest[0].id, 0);
/// # let _ = (VectorIndexSpec::exact(Metric::L2), VectorIndexSpec::ivf(Metric::Cosine));
/// ```
#[derive(Debug, Clone)]
pub struct VectorIndexSpec {
    metric: Metric,
    algo: Algo,
}

#[derive(Debug, Clone, Copy)]
enum Algo {
    Exact,
    Ivf,
    Hnsw,
}

impl VectorIndexSpec {
    /// Brute-force exact scan (always perfect recall).
    pub fn exact(metric: Metric) -> VectorIndexSpec {
        VectorIndexSpec {
            metric,
            algo: Algo::Exact,
        }
    }

    /// IVF-Flat with default parameters.
    pub fn ivf(metric: Metric) -> VectorIndexSpec {
        VectorIndexSpec {
            metric,
            algo: Algo::Ivf,
        }
    }

    /// HNSW with default parameters.
    pub fn hnsw(metric: Metric) -> VectorIndexSpec {
        VectorIndexSpec {
            metric,
            algo: Algo::Hnsw,
        }
    }

    pub(crate) fn build(self, vectors: Dataset) -> Arc<dyn VectorIndex> {
        match self.algo {
            Algo::Exact => Arc::new(ExactIndex::from_dataset(vectors, self.metric)),
            Algo::Ivf => Arc::new(IvfIndex::build(vectors, self.metric, Default::default())),
            Algo::Hnsw => Arc::new(HnswIndex::build(vectors, self.metric, Default::default())),
        }
    }
}
