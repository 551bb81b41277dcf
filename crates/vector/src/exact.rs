//! Brute-force exact nearest-neighbour search.
//!
//! The scan is the fused hot loop the other indexes reuse: distances are
//! computed block-at-a-time with the blocked kernels
//! ([`crate::distance::score_block`]) into a small stack buffer, and each
//! block drains straight into a bounded [`TopK`] buffer — the full distance
//! array is never materialized. The buffer admits a candidate only when it
//! beats the k-th best of its last compaction, and selects
//! (`select_nth_unstable`) only when it fills, so a rejected candidate costs
//! one comparison and an admitted one no heap sift. Under [`Parallelism::Fixed`]/`Auto` the slot range splits
//! across the shared worker pool with one buffer per worker, merged at drain
//! (the same shape as the relational top-k operator).

use crate::dataset::Dataset;
use crate::distance::{norm, score_block, Metric};
use crate::{Hit, Parallelism, VectorIndex};
use backbone_query::pool::run_workers;
use std::cmp::Ordering;

/// Rows scored per fused block: enough to amortize admission checks, small
/// enough to stay in L1 (64 distances = 256 bytes).
const BLOCK: usize = 64;

/// The order every top-k answer is ranked by: `(distance.total_cmp, id)`.
/// [`TopK`] stores every NaN distance as `f32::NAN`, so NaN ranks after
/// every number.
#[inline]
fn rank(a: &Hit, b: &Hit) -> Ordering {
    a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id))
}

/// A bounded best-`k` accumulator: push candidates as they are scored, drain
/// sorted hits at the end. Per-worker instances merge cheaply, which is how
/// every parallel search path in this crate combines worker results.
///
/// Candidates collect in a buffer of up to `2k` hits. When it fills, one
/// `select_nth_unstable` keeps the best `k` and records the k-th of them as
/// the bound; from then on a candidate that does not rank before the bound
/// is rejected by one comparison. The answer is the `k` smallest hits
/// under `(distance.total_cmp, id)`, every NaN distance stored as
/// `f32::NAN`, so it does not depend on the order candidates arrive in or
/// on how a scan is split across workers.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    buf: Vec<Hit>,
    /// The k-th best hit at the last compaction (`None` before the first).
    bound: Option<Hit>,
}

impl TopK {
    /// An empty accumulator for the best `k` hits.
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            // Grown on demand past this, so a huge `k` over a small scan
            // does not allocate `2k` up front.
            buf: Vec::with_capacity((2 * k).min(4096)),
            bound: None,
        }
    }

    /// Offer one candidate. A candidate that does not rank before the bound
    /// is rejected without touching the buffer.
    #[inline]
    pub fn push(&mut self, id: u64, distance: f32) {
        let distance = if distance.is_nan() {
            f32::NAN
        } else {
            distance
        };
        let hit = Hit { id, distance };
        if self.k == 0 || self.bound.is_some_and(|b| rank(&hit, &b) != Ordering::Less) {
            return;
        }
        self.buf.push(hit);
        if self.buf.len() >= 2 * self.k {
            self.compact();
        }
    }

    /// Keep the best `k` of the buffer and raise the bound to the k-th.
    fn compact(&mut self) {
        let k = self.k;
        self.buf.select_nth_unstable_by(k - 1, rank);
        self.buf.truncate(k);
        self.bound = Some(self.buf[k - 1]);
    }

    /// Fold another accumulator's survivors in (parallel drain merge).
    pub fn merge(&mut self, other: TopK) {
        for h in other.buf {
            self.push(h.id, h.distance);
        }
    }

    /// Sorted hits, best first; ties break by id.
    pub fn into_hits(mut self) -> Vec<Hit> {
        self.buf.sort_unstable_by(rank);
        self.buf.truncate(self.k);
        self.buf
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

/// Fused score+select over contiguous rows: `values` holds one vector per
/// entry of `ids`, back to back, each `query.len()` floats wide (the
/// boundary check has matched the query to the index), and `norms` their
/// Euclidean norms (read only by cosine; may be empty otherwise).
/// Distances are computed a block at a time with the blocked kernels into a
/// stack buffer and drained into `acc`, so no full distance array is ever
/// built. Shared by the exact scan and IVF's per-cell scans.
pub(crate) fn scan_rows_into(
    metric: Metric,
    query: &[f32],
    query_norm: f32,
    values: &[f32],
    norms: &[f32],
    ids: &[u64],
    acc: &mut TopK,
) {
    let dim = query.len();
    let mut dists = [0f32; BLOCK];
    for (b, block_ids) in ids.chunks(BLOCK).enumerate() {
        let (lo, rows) = (b * BLOCK, block_ids.len());
        let block_norms = metric.uses_norms().then(|| &norms[lo..lo + rows]);
        score_block(
            metric,
            query,
            &values[lo * dim..(lo + rows) * dim],
            dim,
            block_norms,
            query_norm,
            &mut dists[..rows],
        );
        for (&id, &d) in block_ids.iter().zip(&dists[..rows]) {
            acc.push(id, d);
        }
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

    /// Score slots `lo..hi` into `acc`.
    fn scan_slots(&self, query: &[f32], query_norm: f32, lo: usize, hi: usize, acc: &mut TopK) {
        let dim = self.data.dim();
        scan_rows_into(
            self.metric,
            query,
            query_norm,
            &self.data.values()[lo * dim..hi * dim],
            &self.data.norms()[lo..hi],
            &self.data.ids()[lo..hi],
            acc,
        );
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
        self.scan_slots(query, norm(query), 0, self.data.len(), &mut acc);
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
            self.scan_slots(query, qn, lo, hi, &mut acc);
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
        let ids = |acc: TopK| -> Vec<u64> { acc.into_hits().iter().map(|h| h.id).collect() };
        let filled = || {
            let mut a = TopK::new(2);
            a.push(1, 5.0);
            a.push(2, 3.0);
            a.push(3, 4.0); // beats the worst (5.0, id 1): evicts it
            a.push(7, 4.0); // ties the worst (4.0, id 3), larger id: rejected
            a.push(0, 4.0); // ties it with a smaller id: evicts id 3
            a
        };
        assert_eq!(ids(filled()), vec![2, 0]);
        let mut b = TopK::new(2);
        b.push(9, 0.5);
        b.merge(filled());
        assert_eq!(ids(b), vec![9, 2]);
    }

    #[test]
    fn nan_scanned_first_does_not_block_finite_hits() {
        // A NaN component makes the first scanned distance NaN (negative
        // NaN under Dot, whose distance is a negated product). It must rank
        // after every finite hit instead of pinning the heap root.
        for metric in [Metric::L2, Metric::Dot, Metric::Cosine] {
            let mut ix = ExactIndex::new(2, metric);
            ix.insert(0, &[f32::NAN, 1.0]);
            for i in 1..6u64 {
                ix.insert(i, &[1.0, i as f32]);
            }
            let q = [1.0, 0.0];
            let mut want: Vec<(f32, u64)> = (1..6u64)
                .map(|i| (metric.distance(&q, &[1.0, i as f32]), i))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for k in [1, 3] {
                let got: Vec<u64> = ix.search(&q, k).iter().map(|h| h.id).collect();
                let want: Vec<u64> = want[..k].iter().map(|w| w.1).collect();
                assert_eq!(got, want, "{metric:?} k={k}");
            }
            // Asked for everything, the NaN hit comes last.
            let all = ix.search(&q, 6);
            assert_eq!(all[5].id, 0);
            assert!(all[5].distance.is_nan());
        }
    }

    #[test]
    fn ties_straddling_k_keep_the_smallest_ids() {
        // Every row ties; ids are scanned largest first, so admission must
        // compare ids, not only distances.
        let mut ix = ExactIndex::new(1, Metric::L2);
        for i in (0..4096u64).rev() {
            ix.insert(i, &[1.0]);
        }
        for parallel in [Parallelism::Serial, Parallelism::Fixed(4)] {
            let ids: Vec<u64> = ix
                .search_with(&[0.0], 5, parallel)
                .iter()
                .map(|h| h.id)
                .collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4], "{parallel:?}");
        }
    }
}
