//! Brute-force exact nearest-neighbour search.
//!
//! The scan is the fused hot loop the other indexes reuse: distances are
//! computed block-at-a-time with the blocked kernels
//! ([`crate::distance::score_block`]) into a small stack buffer, and each
//! block drains straight into a bounded [`TopK`] heap — the full distance
//! array is never materialized. Under [`Parallelism::Fixed`]/`Auto` the slot
//! range splits across the shared worker pool with one heap per worker,
//! merged at drain (the same shape as the relational top-k operator).

use crate::dataset::Dataset;
use crate::distance::{norm, score_block, Metric};
use crate::{Hit, Parallelism, VectorIndex};
use backbone_query::pool::run_workers;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Rows scored per fused block: enough to amortize heap checks, small
/// enough to stay in L1 (64 distances = 256 bytes).
const BLOCK: usize = 64;

/// A max-heap entry so the heap root is the *worst* of the current top-k.
#[derive(Debug, PartialEq)]
struct HeapHit(Hit);

impl Eq for HeapHit {}

impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .distance
            .total_cmp(&other.0.distance)
            .then(self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded best-`k` accumulator: push candidates as they are scored, drain
/// sorted hits at the end. Per-worker instances merge cheaply, which is how
/// every parallel search path in this crate combines worker results.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapHit>,
}

impl TopK {
    /// An empty accumulator for the best `k` hits.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Current admission threshold: a candidate at or past this distance
    /// cannot enter. `INFINITY` until the heap fills.
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap
                .peek()
                .map(|h| h.0.distance)
                .unwrap_or(f32::INFINITY)
        }
    }

    /// Offer one candidate.
    #[inline]
    pub fn push(&mut self, id: u64, distance: f32) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapHit(Hit { id, distance }));
        } else if let Some(worst) = self.heap.peek() {
            if distance < worst.0.distance {
                self.heap.pop();
                self.heap.push(HeapHit(Hit { id, distance }));
            }
        }
    }

    /// Fold another accumulator's survivors in (parallel drain merge).
    pub fn merge(&mut self, other: TopK) {
        for h in other.heap {
            self.push(h.0.id, h.0.distance);
        }
    }

    /// Sorted hits, best first; ties break by id for determinism.
    pub fn into_hits(self) -> Vec<Hit> {
        let mut out: Vec<Hit> = self.heap.into_iter().map(|h| h.0).collect();
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        out
    }
}

/// Select the `k` best hits from an iterator of candidates, best first.
pub(crate) fn top_k(candidates: impl Iterator<Item = Hit>, k: usize) -> Vec<Hit> {
    let mut acc = TopK::new(k);
    for hit in candidates {
        acc.push(hit.id, hit.distance);
    }
    acc.into_hits()
}

/// Fused score+select over a contiguous slot range of `data`: blocked
/// distance evaluation into a stack buffer, drained into `acc` — no full
/// distance array. Shared by the exact scan and IVF's per-cell scans.
pub(crate) fn scan_slots_into(
    data: &Dataset,
    metric: Metric,
    query: &[f32],
    query_norm: f32,
    lo: usize,
    hi: usize,
    acc: &mut TopK,
) {
    let dim = data.dim();
    let mut dists = [0f32; BLOCK];
    let mut start = lo;
    while start < hi {
        let rows = (hi - start).min(BLOCK);
        let block = &data.values()[start * dim..(start + rows) * dim];
        let norms = metric
            .uses_norms()
            .then(|| &data.norms()[start..start + rows]);
        score_block(
            metric,
            query,
            block,
            dim,
            norms,
            query_norm,
            &mut dists[..rows],
        );
        for (off, &d) in dists[..rows].iter().enumerate() {
            acc.push(data.id(start + off), d);
        }
        start += rows;
    }
}

/// Exact (brute-force) index: scans every vector. The recall ground truth
/// for IVF/HNSW, and the honest baseline for small collections.
pub struct ExactIndex {
    data: Dataset,
    metric: Metric,
}

impl ExactIndex {
    /// An empty exact index.
    pub fn new(dim: usize, metric: Metric) -> ExactIndex {
        ExactIndex {
            data: Dataset::new(dim),
            metric,
        }
    }

    /// Build from a dataset.
    pub fn from_dataset(data: Dataset, metric: Metric) -> ExactIndex {
        ExactIndex { data, metric }
    }

    /// Insert a vector. Panics on dimension mismatch; the typed alternative
    /// is [`ExactIndex::try_insert`].
    pub fn insert(&mut self, id: u64, vector: &[f32]) {
        self.data.push(id, vector);
    }

    /// Insert a vector, rejecting wrong dimensions with a typed error.
    pub fn try_insert(&mut self, id: u64, vector: &[f32]) -> Result<(), crate::DimensionMismatch> {
        self.data.try_push(id, vector)
    }
}

impl VectorIndex for ExactIndex {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn distance_of(&self, query: &[f32], id: u64) -> Option<f32> {
        self.data
            .vector_by_id(id)
            .map(|v| self.metric.distance(query, v))
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let mut acc = TopK::new(k);
        scan_slots_into(
            &self.data,
            self.metric,
            query,
            norm(query),
            0,
            self.data.len(),
            &mut acc,
        );
        acc.into_hits()
    }

    fn search_with(&self, query: &[f32], k: usize, parallel: Parallelism) -> Vec<Hit> {
        let n = self.data.len();
        // Below ~4 blocks per worker the merge overhead dominates.
        let workers = parallel.worker_threads().min(n / (BLOCK * 4)).max(1);
        if workers <= 1 {
            return self.search(query, k);
        }
        let qn = norm(query);
        let per = n.div_ceil(workers);
        let heaps = run_workers(workers, |w| {
            let lo = w * per;
            let hi = ((w + 1) * per).min(n);
            let mut acc = TopK::new(k);
            scan_slots_into(&self.data, self.metric, query, qn, lo, hi, &mut acc);
            acc
        });
        let mut merged = TopK::new(k);
        for h in heaps {
            merged.merge(h);
        }
        merged.into_hits()
    }

    fn search_masked(&self, query: &[f32], k: usize, filter: &dyn Fn(u64) -> bool) -> Vec<Hit> {
        let qn = norm(query);
        let mut acc = TopK::new(k);
        for i in 0..self.data.len() {
            let id = self.data.id(i);
            if !filter(id) {
                continue;
            }
            let d = self.metric.distance_prenorm(
                query,
                self.data.vector(i),
                qn,
                self.data.norm_of_slot(i),
            );
            acc.push(id, d);
        }
        acc.into_hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> ExactIndex {
        let mut ix = ExactIndex::new(2, Metric::L2);
        ix.insert(1, &[0.0, 0.0]);
        ix.insert(2, &[1.0, 0.0]);
        ix.insert(3, &[10.0, 10.0]);
        ix.insert(4, &[0.5, 0.5]);
        ix
    }

    #[test]
    fn nearest_first() {
        let hits = index().search(&[0.1, 0.0], 3);
        assert_eq!(hits.len(), 3);
        // d(1)=0.01, d(4)=0.41, d(2)=0.81
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 4);
        assert_eq!(hits[2].id, 2);
        assert!(hits[0].distance <= hits[1].distance);
    }

    #[test]
    fn k_exceeds_len() {
        let hits = index().search(&[0.0, 0.0], 100);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn zero_k() {
        assert!(index().search(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn prefiltered_matches_postfiltered_when_enough_results() {
        let ix = index();
        let filter = |id: u64| id.is_multiple_of(2);
        let pre = ix.search_masked(&[0.0, 0.0], 2, &filter);
        let post: Vec<Hit> = ix
            .search(&[0.0, 0.0], ix.len())
            .into_iter()
            .filter(|h| filter(h.id))
            .take(2)
            .collect();
        assert_eq!(pre.len(), 2);
        assert_eq!(
            pre.iter().map(|h| h.id).collect::<Vec<_>>(),
            post.iter().map(|h| h.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ties_break_by_id_deterministically() {
        let mut ix = ExactIndex::new(1, Metric::L2);
        ix.insert(5, &[1.0]);
        ix.insert(3, &[1.0]);
        ix.insert(9, &[1.0]);
        let hits = ix.search(&[1.0], 2);
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[1].id, 5);
    }

    #[test]
    fn parallel_search_matches_serial() {
        let mut ix = ExactIndex::new(4, Metric::L2);
        for i in 0..3000u64 {
            let f = i as f32;
            ix.insert(i, &[f.sin(), (f * 0.7).cos(), f % 13.0, -f % 7.0]);
        }
        let q = [0.3, -0.2, 6.0, -3.0];
        let serial = ix.search(&q, 10);
        for workers in [1usize, 2, 4, 8] {
            let par = ix.search_with(&q, 10, Parallelism::Fixed(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
        assert_eq!(serial, ix.search_with(&q, 10, Parallelism::Auto));
    }

    #[test]
    fn cosine_search_uses_cached_norms() {
        let mut ix = ExactIndex::new(3, Metric::Cosine);
        ix.insert(1, &[1.0, 0.0, 0.0]);
        ix.insert(2, &[0.0, 1.0, 0.0]);
        ix.insert(3, &[0.9, 0.1, 0.0]);
        ix.insert(4, &[0.0, 0.0, 0.0]); // zero vector: maximally distant
        let hits = ix.search(&[1.0, 0.05, 0.0], 4);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 3);
        assert_eq!(hits.last().unwrap().id, 4);
        assert!((hits.last().unwrap().distance - 1.0).abs() < 1e-6);
    }

    #[test]
    fn check_query_rejects_wrong_dimension() {
        let ix = index();
        let err = ix.check_query(&[1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!((err.expected, err.got), (2, 3));
        assert!(ix.check_query(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn topk_threshold_and_merge() {
        let mut a = TopK::new(2);
        assert_eq!(a.threshold(), f32::INFINITY);
        a.push(1, 5.0);
        a.push(2, 3.0);
        assert_eq!(a.threshold(), 5.0);
        a.push(3, 4.0); // evicts 5.0
        assert_eq!(a.threshold(), 4.0);
        let mut b = TopK::new(2);
        b.push(9, 0.5);
        b.merge(a);
        let hits = b.into_hits();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 9);
        assert_eq!(hits[1].id, 2);
    }
}
