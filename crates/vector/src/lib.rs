//! # backbone-vector
//!
//! Vector similarity search substrate for the hybrid-workload experiments —
//! the "vectors" in the paper's observation that *"solutions are crappy when
//! you combine diverse workloads like vectors, keywords, and relational
//! queries in commercial systems"*.
//!
//! Three interchangeable indexes implement [`VectorIndex`]:
//!
//! - [`exact::ExactIndex`]: brute-force scan (the ground truth),
//! - [`ivf::IvfIndex`]: inverted-file index over k-means partitions,
//! - [`hnsw::HnswIndex`]: hierarchical navigable small world graph.
//!
//! The crate rides the same engine machinery as the relational operators:
//! distance loops are blocked and autovectorizable ([`distance`]), exact and
//! IVF scans fuse scoring into per-worker top-k heaps merged at drain
//! ([`exact::TopK`]), and [`VectorIndex::search_with`] /
//! [`VectorIndex::search_many`] partition work across the shared
//! `backbone_query` worker pool under the typed
//! [`Parallelism`] knob — degrading to the
//! serial path on one core exactly like the relational executor.

pub mod dataset;
pub mod distance;
pub mod exact;
pub mod hnsw;
pub mod ivf;
pub mod recall;

pub use dataset::Dataset;
pub use distance::Metric;
pub use exact::ExactIndex;
pub use hnsw::HnswIndex;
pub use ivf::IvfIndex;

// The vector side shares the relational executor's parallelism vocabulary
// and worker pool instead of inventing its own.
use backbone_query::pool::run_workers;
pub use backbone_query::Parallelism;

/// A query or inserted vector had the wrong dimensionality for the index.
///
/// This is the *typed* boundary check: `Metric::distance` itself only
/// `debug_assert`s (it is the innermost hot loop), so in release builds a
/// wrong-dimension query would silently score garbage. Every entry point
/// that crosses from caller data into kernel space —
/// [`VectorIndex::check_query`], [`Dataset::try_push`], the index `insert`
/// paths — rejects with this error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// The index's dimensionality.
    pub expected: usize,
    /// The offending vector's length.
    pub got: usize,
}

impl std::fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vector dimension mismatch: index has dimension {}, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for DimensionMismatch {}

/// A search hit: the vector's id and its distance to the query (smaller is
/// better for every metric; similarities are negated internally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Identifier supplied at insert time.
    pub id: u64,
    /// Distance to the query under the index's metric.
    pub distance: f32,
}

/// A k-nearest-neighbour index over fixed-dimension vectors.
pub trait VectorIndex: Send + Sync {
    /// The index's distance metric.
    fn metric(&self) -> Metric;

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest vectors to `query`, best first.
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit>;

    /// Validate a query vector's dimensionality against the index — the
    /// typed boundary check engine code runs before any search, so a
    /// wrong-dimension query is an error instead of silently scored garbage.
    fn check_query(&self, query: &[f32]) -> Result<(), DimensionMismatch> {
        if query.len() != self.dim() {
            return Err(DimensionMismatch {
                expected: self.dim(),
                got: query.len(),
            });
        }
        Ok(())
    }

    /// [`VectorIndex::search`] honoring a parallelism hint for *one* query.
    ///
    /// Indexes whose per-query work partitions cleanly (exact scans over
    /// slot ranges, IVF over probed cells) override this with per-worker
    /// top-k heaps merged at drain; graph traversals (HNSW) are inherently
    /// sequential per query and keep the serial default — their parallelism
    /// lives in [`VectorIndex::search_many`].
    fn search_with(&self, query: &[f32], k: usize, parallel: Parallelism) -> Vec<Hit> {
        let _ = parallel;
        self.search(query, k)
    }

    /// Answer a batch of queries, partitioning the *queries* across the
    /// shared worker pool. Results are in query order and identical to
    /// serial execution (each query is answered independently).
    fn search_many(&self, queries: &[Vec<f32>], k: usize, parallel: Parallelism) -> Vec<Vec<Hit>> {
        let workers = parallel.worker_threads().min(queries.len());
        if workers <= 1 {
            return queries.iter().map(|q| self.search(q, k)).collect();
        }
        let per = queries.len().div_ceil(workers);
        let chunks = run_workers(workers, |w| {
            // Both bounds clamp: with per = ceil(n/workers), trailing workers
            // can start past the end (e.g. 7 queries on 5 threads) and must
            // contribute an empty chunk, not panic.
            let lo = (w * per).min(queries.len());
            let hi = ((w + 1) * per).min(queries.len());
            queries[lo..hi]
                .iter()
                .map(|q| self.search(q, k))
                .collect::<Vec<_>>()
        });
        chunks.into_iter().flatten().collect()
    }

    /// Exact distance between `query` and the stored vector with `id`, if
    /// indexed. A co-located engine uses this to complete fusion scores for
    /// candidates surfaced by other modalities — something a remote vector
    /// service cannot offer cheaply.
    fn distance_of(&self, query: &[f32], id: u64) -> Option<f32>;

    /// Filtered search: only ids passing `filter` are returned, best first.
    /// Indexes that enumerate candidate slots (exact, IVF) override this
    /// with a true masked scan, so distances are only computed for passing
    /// ids. Graph indexes keep this default: over-fetch unfiltered, drop
    /// failing ids, and double the fetch until `k` survive or the index is
    /// exhausted.
    fn search_masked(&self, query: &[f32], k: usize, filter: &dyn Fn(u64) -> bool) -> Vec<Hit> {
        let mut fetch = k.max(16);
        loop {
            let hits = self.search(query, fetch);
            let exhausted = hits.len() < fetch;
            let kept: Vec<Hit> = hits.into_iter().filter(|h| filter(h.id)).collect();
            if kept.len() >= k || exhausted {
                return kept.into_iter().take(k).collect();
            }
            fetch *= 2;
        }
    }
}
