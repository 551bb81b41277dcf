//! Flat vector dataset storage.

use crate::DimensionMismatch;

/// A set of equal-dimension vectors stored contiguously, with caller-supplied
/// ids. The contiguous layout keeps distance kernels cache-friendly, and the
/// per-row Euclidean norms cached at push time let cosine scans skip the
/// `norm(b)` recomputation that would otherwise double their FLOPs.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
    ids: Vec<u64>,
    /// `norms[i]` = Euclidean norm of the vector at slot `i`, maintained on
    /// every push (cheap: one extra pass over a vector already in cache).
    norms: Vec<f32>,
    slot_of: std::collections::HashMap<u64, usize>,
}

impl Dataset {
    /// An empty dataset of dimension `dim`.
    pub fn new(dim: usize) -> Dataset {
        assert!(dim > 0, "dimension must be positive");
        Dataset {
            dim,
            data: Vec::new(),
            ids: Vec::new(),
            norms: Vec::new(),
            slot_of: std::collections::HashMap::new(),
        }
    }

    /// Append a vector with an id. Panics on dimension mismatch; the typed
    /// alternative is [`Dataset::try_push`].
    pub fn push(&mut self, id: u64, vector: &[f32]) {
        self.try_push(id, vector)
            .expect("vector dimension mismatch");
    }

    /// Append a vector with an id, rejecting wrong-dimension input with a
    /// typed error instead of a panic — the insert-boundary check release
    /// builds keep.
    pub fn try_push(&mut self, id: u64, vector: &[f32]) -> Result<(), DimensionMismatch> {
        if vector.len() != self.dim {
            return Err(DimensionMismatch {
                expected: self.dim,
                got: vector.len(),
            });
        }
        self.data.extend_from_slice(vector);
        self.norms.push(crate::distance::norm(vector));
        self.slot_of.insert(id, self.ids.len());
        self.ids.push(id);
        Ok(())
    }

    /// Slot of the vector with the given id, if present.
    pub fn slot(&self, id: u64) -> Option<usize> {
        self.slot_of.get(&id).copied()
    }

    /// Vector by id, if present.
    pub fn vector_by_id(&self, id: u64) -> Option<&[f32]> {
        self.slot(id).map(|s| self.vector(s))
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Vector at slot `i`.
    #[inline]
    pub fn vector(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Id at slot `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Cached Euclidean norm of the vector at slot `i`.
    #[inline]
    pub fn norm_of_slot(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// The whole contiguous value buffer (`len * dim` floats) — the input
    /// blocked scan kernels consume.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.data
    }

    /// All cached per-row norms, slot order.
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// All ids, slot order.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Take the dataset apart into its ids, its contiguous value buffer and
    /// its per-row norms (all in slot order), so an index can move the
    /// vectors into its own layout instead of copying them.
    pub fn into_parts(self) -> (Vec<u64>, Vec<f32>, Vec<f32>) {
        (self.ids, self.data, self.norms)
    }

    /// Iterate `(id, vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f32])> {
        (0..self.len()).map(move |i| (self.id(i), self.vector(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read() {
        let mut d = Dataset::new(3);
        d.push(10, &[1.0, 2.0, 3.0]);
        d.push(20, &[4.0, 5.0, 6.0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.vector(1), &[4.0, 5.0, 6.0]);
        assert_eq!(d.id(0), 10);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mut d = Dataset::new(2);
        d.push(1, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn try_push_reports_dimensions() {
        let mut d = Dataset::new(2);
        let err = d.try_push(1, &[1.0]).unwrap_err();
        assert_eq!((err.expected, err.got), (2, 1));
        assert!(d.is_empty(), "failed push must not mutate the dataset");
        assert!(d.try_push(1, &[1.0, 2.0]).is_ok());
    }

    #[test]
    fn iter_pairs() {
        let mut d = Dataset::new(1);
        d.push(7, &[0.5]);
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, 7);
    }

    #[test]
    fn norms_cached_per_slot() {
        let mut d = Dataset::new(2);
        d.push(1, &[3.0, 4.0]);
        d.push(2, &[0.0, 0.0]);
        assert!((d.norm_of_slot(0) - 5.0).abs() < 1e-6);
        assert_eq!(d.norm_of_slot(1), 0.0);
        assert_eq!(d.norms().len(), 2);
        assert_eq!(d.values().len(), 4);
    }
}
