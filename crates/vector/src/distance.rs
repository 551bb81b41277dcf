//! Distance kernels.
//!
//! Two tiers live here:
//!
//! - **Blocked kernels** ([`l2_sq`], [`dot`], [`cosine_distance`]): the hot
//!   path. Each loop runs [`LANES`] independent f32 accumulators over
//!   `chunks_exact` blocks, so LLVM autovectorizes it (no sequential
//!   float-add dependency chain) and drops the per-element bounds checks.
//! - **Scalar references** ([`scalar`]): the original one-accumulator loops,
//!   kept as the correctness oracle. `tests/ann_equivalence.rs` pins
//!   blocked == scalar (within reassociation tolerance) on NaN, zero-vector
//!   and odd-length inputs, and `BENCH_ann.json` floors blocked ≥ 2× scalar.
//!
//! Cosine additionally has a *pre-normed* entry point
//! ([`Metric::distance_prenorm`]) so index scans that store per-row norms
//! (see [`crate::dataset::Dataset::norm_of_slot`]) stop recomputing
//! `norm(b)` on every comparison — that recomputation doubled the FLOPs of
//! every cosine scan.

/// f32 lanes per blocked-loop iteration. Eight lanes keep two full SSE
/// vectors (or one AVX vector) of independent accumulators in flight.
pub const LANES: usize = 8;

/// Distance/similarity metric. All metrics are exposed as *distances*
/// (smaller = closer); similarities are negated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Squared Euclidean distance (monotone in L2; cheaper — no sqrt).
    L2,
    /// Cosine distance: `1 - cos(a, b)`.
    Cosine,
    /// Negative inner product (for maximum-inner-product search).
    Dot,
}

impl Metric {
    /// Distance between two equal-length vectors.
    ///
    /// Dimensions are the caller's contract: the typed
    /// [`crate::DimensionMismatch`] check lives at the index insert/search
    /// boundary ([`crate::VectorIndex::check_query`],
    /// [`crate::dataset::Dataset::try_push`]), not in this hot loop.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::Cosine => cosine_distance(a, b),
            Metric::Dot => -dot(a, b),
        }
    }

    /// Like [`Metric::distance`], but with both norms supplied by the
    /// caller. Only cosine consumes them; the other metrics ignore the
    /// hints, so scans can call this unconditionally with cached norms.
    #[inline]
    pub fn distance_prenorm(&self, a: &[f32], b: &[f32], norm_a: f32, norm_b: f32) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::Cosine => {
                if norm_a == 0.0 || norm_b == 0.0 {
                    return 1.0;
                }
                1.0 - dot(a, b) / (norm_a * norm_b)
            }
            Metric::Dot => -dot(a, b),
        }
    }

    /// Whether scans benefit from cached row norms (cosine only).
    #[inline]
    pub fn uses_norms(&self) -> bool {
        matches!(self, Metric::Cosine)
    }
}

/// Squared Euclidean distance (blocked, autovectorizable).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0f32; LANES];
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let tail_a = chunks_a.remainder();
    let tail_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for i in 0..LANES {
            let d = ca[i] - cb[i];
            acc[i] += d * d;
        }
    }
    let mut tail = 0f32;
    for (x, y) in tail_a.iter().zip(tail_b) {
        let d = x - y;
        tail += d * d;
    }
    acc.iter().sum::<f32>() + tail
}

/// Inner product (blocked, autovectorizable).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0f32; LANES];
    let chunks_a = a.chunks_exact(LANES);
    let chunks_b = b.chunks_exact(LANES);
    let tail_a = chunks_a.remainder();
    let tail_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for i in 0..LANES {
            acc[i] += ca[i] * cb[i];
        }
    }
    let mut tail = 0f32;
    for (x, y) in tail_a.iter().zip(tail_b) {
        tail += x * y;
    }
    acc.iter().sum::<f32>() + tail
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine distance `1 - cos`; zero vectors are maximally distant.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

/// Normalize a vector in place to unit length (no-op for zero vectors).
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

/// One-query-vs-many-rows batched scoring over contiguous row storage.
///
/// `rows` holds `out.len()` vectors of `dim` floats back to back (the
/// [`crate::dataset::Dataset`] layout); `row_norms`, when present, carries
/// one precomputed Euclidean norm per row (only cosine reads it).
/// `query_norm` is the query's norm, computed once per scan by the caller.
///
/// Writing a bounded block of distances (the callers hand in a stack
/// buffer, not an n-sized array) keeps the scoring loop free of top-k heap
/// branches while never materializing a full distance array.
#[inline]
pub fn score_block(
    metric: Metric,
    query: &[f32],
    rows: &[f32],
    dim: usize,
    row_norms: Option<&[f32]>,
    query_norm: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(rows.len(), out.len() * dim);
    match (metric, row_norms) {
        (Metric::Cosine, Some(norms)) => {
            debug_assert_eq!(norms.len(), out.len());
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                out[i] = metric.distance_prenorm(query, row, query_norm, norms[i]);
            }
        }
        _ => {
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                out[i] = metric.distance(query, row);
            }
        }
    }
}

/// The original single-accumulator loops, kept verbatim as the correctness
/// oracle for the blocked kernels (and the baseline `BENCH_ann.json`
/// measures the blocked speedup against).
pub mod scalar {
    /// Reference squared Euclidean distance.
    #[inline]
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// Reference inner product.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Reference cosine distance.
    #[inline]
    pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
        let na = dot(a, a).sqrt();
        let nb = dot(b, b).sqrt();
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        1.0 - dot(a, b) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_basics() {
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_range() {
        assert!((cosine_distance(&[1.0, 0.0], &[1.0, 0.0])).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = [0.3, -0.7, 0.2];
        let b = [1.1, 0.4, -0.9];
        let scaled: Vec<f32> = a.iter().map(|x| x * 42.0).collect();
        assert!((cosine_distance(&a, &b) - cosine_distance(&scaled, &b)).abs() < 1e-5);
    }

    #[test]
    fn dot_metric_is_negated() {
        // Larger inner product => smaller "distance".
        let q = [1.0, 1.0];
        let close = [2.0, 2.0];
        let far = [0.1, 0.1];
        assert!(Metric::Dot.distance(&q, &close) < Metric::Dot.distance(&q, &far));
    }

    #[test]
    fn normalize_unit_length() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn blocked_matches_scalar_past_one_lane_block() {
        // 19 elements: two full 8-lane blocks plus a 3-element tail.
        let a: Vec<f32> = (0..19).map(|i| (i as f32) * 0.37 - 2.0).collect();
        let b: Vec<f32> = (0..19).map(|i| (i as f32) * -0.21 + 1.5).collect();
        assert!((l2_sq(&a, &b) - scalar::l2_sq(&a, &b)).abs() < 1e-3);
        assert!((dot(&a, &b) - scalar::dot(&a, &b)).abs() < 1e-3);
        assert!((cosine_distance(&a, &b) - scalar::cosine_distance(&a, &b)).abs() < 1e-5);
    }

    #[test]
    fn prenorm_cosine_matches_plain() {
        let a = [0.3f32, -0.7, 0.2, 0.9, -0.1];
        let b = [1.1f32, 0.4, -0.9, 0.0, 0.5];
        let plain = Metric::Cosine.distance(&a, &b);
        let pre = Metric::Cosine.distance_prenorm(&a, &b, norm(&a), norm(&b));
        assert!((plain - pre).abs() < 1e-6);
        // Zero-norm hint reproduces the zero-vector convention.
        assert_eq!(Metric::Cosine.distance_prenorm(&a, &b, 0.0, 1.0), 1.0);
        // L2/Dot ignore the hints entirely.
        assert_eq!(
            Metric::L2.distance_prenorm(&a, &b, 0.0, 0.0),
            Metric::L2.distance(&a, &b)
        );
    }

    #[test]
    fn score_block_fills_distances() {
        let rows: Vec<f32> = vec![0.0, 0.0, 3.0, 4.0, 1.0, 0.0];
        let mut out = [0f32; 3];
        score_block(Metric::L2, &[0.0, 0.0], &rows, 2, None, 0.0, &mut out);
        assert_eq!(out, [0.0, 25.0, 1.0]);
        // Cosine with cached norms matches the plain kernel.
        let norms: Vec<f32> = rows.chunks_exact(2).map(norm).collect();
        let q = [1.0f32, 1.0];
        let mut pre = [0f32; 3];
        score_block(
            Metric::Cosine,
            &q,
            &rows,
            2,
            Some(&norms),
            norm(&q),
            &mut pre,
        );
        for (i, row) in rows.chunks_exact(2).enumerate() {
            assert!((pre[i] - cosine_distance(&q, row)).abs() < 1e-6);
        }
    }
}
