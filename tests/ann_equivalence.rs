//! Vector kernels and parallel ANN paths against their references.
//!
//! The blocked distance kernels must agree with the scalar reference loops
//! (up to float reassociation) on arbitrary inputs — odd lengths, zero
//! vectors, NaN — and every parallel search path must return the identical
//! answer to its serial twin. Incremental inserts (no rebuild) must keep
//! recall above a pinned floor, so index maintenance can't silently rot.

use backbone_vector::hnsw::{HnswIndex, HnswParams};
use backbone_vector::ivf::{IvfIndex, IvfParams};
use backbone_vector::recall::recall_at_k;
use backbone_vector::{distance, Dataset, ExactIndex, Metric, Parallelism, VectorIndex};
use proptest::prelude::*;
use rand::prelude::*;

/// Blocked and scalar results agree: both NaN, or within reassociation
/// tolerance (the blocked kernel sums in 8 independent accumulators).
fn assert_kernel_eq(blocked: f32, scalar: f32, context: &str) {
    if scalar.is_nan() {
        assert!(
            blocked.is_nan(),
            "{context}: scalar NaN but blocked {blocked}"
        );
        return;
    }
    let tol = 1e-4 * scalar.abs().max(1.0);
    assert!(
        (blocked - scalar).abs() <= tol,
        "{context}: blocked {blocked} vs scalar {scalar}"
    );
}

/// Finite-or-NaN coordinates, weighted towards exact zeros so zero-norm
/// edge cases (cosine's guard) actually occur.
fn coord() -> impl Strategy<Value = f32> {
    (0u32..11, -100.0f32..100.0).prop_map(|(sel, v)| match sel {
        0 => f32::NAN,
        1 | 2 => 0.0,
        _ => v,
    })
}

/// A pair of same-length vectors of arbitrary (including odd) length: two
/// independently sized draws truncated to the shorter one.
fn vector_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (
        proptest::collection::vec(coord(), 0..67),
        proptest::collection::vec(coord(), 0..67),
    )
        .prop_map(|(mut a, mut b)| {
            let len = a.len().min(b.len());
            a.truncate(len);
            b.truncate(len);
            (a, b)
        })
}

proptest! {
    #[test]
    fn blocked_kernels_match_scalar(pair in vector_pair()) {
        let (a, b) = pair;
        assert_kernel_eq(distance::l2_sq(&a, &b), distance::scalar::l2_sq(&a, &b), "l2_sq");
        assert_kernel_eq(distance::dot(&a, &b), distance::scalar::dot(&a, &b), "dot");
        assert_kernel_eq(
            distance::cosine_distance(&a, &b),
            distance::scalar::cosine_distance(&a, &b),
            "cosine",
        );
    }

    #[test]
    fn score_block_matches_per_pair_distance(
        input in (1usize..17, proptest::collection::vec(-50.0f32..50.0, 0..640)),
    ) {
        let (dim, rows) = input;
        let nrows = rows.len() / dim;
        let rows = &rows[..nrows * dim];
        let query: Vec<f32> = (0..dim).map(|i| i as f32 - 3.0).collect();
        for metric in [Metric::L2, Metric::Dot, Metric::Cosine] {
            let norms: Vec<f32> = rows.chunks_exact(dim).map(distance::norm).collect();
            let query_norm = distance::norm(&query);
            let mut out = vec![0.0f32; nrows];
            distance::score_block(metric, &query, rows, dim, Some(&norms), query_norm, &mut out);
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                assert_kernel_eq(out[i], metric.distance(&query, row), "score_block");
            }
        }
    }
}

/// Clustered dataset shared by the parallel-identity and recall tests.
fn dataset(n: usize, dim: usize, seed: u64) -> (Dataset, Vec<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..16)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 10.0).collect())
        .collect();
    let mut d = Dataset::new(dim);
    for i in 0..n {
        let c = &centers[i % centers.len()];
        let v: Vec<f32> = c.iter().map(|x| x + rng.gen::<f32>()).collect();
        d.push(i as u64, &v);
    }
    let queries = (0..20)
        .map(|i| {
            let c = &centers[(i * 5) % centers.len()];
            c.iter().map(|x| x + rng.gen::<f32>()).collect()
        })
        .collect();
    (d, queries)
}

#[test]
fn parallel_paths_identical_to_serial() {
    let (data, queries) = dataset(3000, 16, 7);
    let k = 10;
    let exact = ExactIndex::from_dataset(data.clone(), Metric::L2);
    let ivf = IvfIndex::build(
        data.clone(),
        Metric::L2,
        IvfParams {
            nlist: 32,
            nprobe: 8,
            train_iters: 5,
            seed: 7,
        },
    );
    let hnsw = HnswIndex::build(
        data,
        Metric::Cosine,
        HnswParams {
            ef_search: 48,
            ..Default::default()
        },
    );
    let indexes: [(&str, &dyn VectorIndex); 3] =
        [("exact", &exact), ("ivf", &ivf), ("hnsw", &hnsw)];
    for (name, ix) in indexes {
        for q in &queries {
            let serial = ix.search_with(q, k, Parallelism::Serial);
            let fixed = ix.search_with(q, k, Parallelism::Fixed(4));
            assert_eq!(serial, fixed, "{name}: search_with Fixed(4) diverged");
        }
        let serial = ix.search_many(&queries, k, Parallelism::Serial);
        for parallel in [Parallelism::Fixed(4), Parallelism::Auto] {
            let many = ix.search_many(&queries, k, parallel);
            assert_eq!(serial, many, "{name}: search_many {parallel:?} diverged");
        }
    }
}

#[test]
fn ivf_recall_survives_incremental_inserts() {
    let (data, queries) = dataset(4000, 16, 11);
    let k = 10;
    // Train on the first half only; the second half arrives by insert,
    // assigned to the nearest existing centroid without retraining.
    let mut first = Dataset::new(16);
    for i in 0..2000 {
        first.push(data.id(i), data.vector(i));
    }
    let mut ivf = IvfIndex::build(
        first,
        Metric::L2,
        IvfParams {
            nlist: 32,
            nprobe: 16,
            train_iters: 5,
            seed: 11,
        },
    );
    for i in 2000..4000 {
        ivf.insert(data.id(i), data.vector(i));
    }
    assert_eq!(ivf.len(), 4000);
    let exact = ExactIndex::from_dataset(data, Metric::L2);
    let recall = recall_at_k(&ivf, &exact, &queries, k);
    assert!(
        recall >= 0.85,
        "ivf recall after 50% incremental growth: {recall}"
    );
}

#[test]
fn hnsw_recall_survives_incremental_inserts() {
    let (data, queries) = dataset(3000, 16, 13);
    let k = 10;
    let mut first = Dataset::new(16);
    for i in 0..1500 {
        first.push(data.id(i), data.vector(i));
    }
    let mut hnsw = HnswIndex::build(
        first,
        Metric::L2,
        HnswParams {
            ef_search: 64,
            ..Default::default()
        },
    );
    for i in 1500..3000 {
        hnsw.insert(data.id(i), data.vector(i));
    }
    assert_eq!(hnsw.len(), 3000);
    let exact = ExactIndex::from_dataset(data, Metric::L2);
    let recall = recall_at_k(&hnsw, &exact, &queries, k);
    assert!(
        recall >= 0.90,
        "hnsw recall after 50% incremental growth: {recall}"
    );
}

#[test]
fn dimension_mismatch_is_typed_at_every_boundary() {
    let (data, _) = dataset(200, 16, 17);
    let mut ivf = IvfIndex::build(
        data.clone(),
        Metric::L2,
        IvfParams {
            nlist: 8,
            nprobe: 8,
            train_iters: 3,
            seed: 17,
        },
    );
    let mut hnsw = HnswIndex::build(data.clone(), Metric::L2, HnswParams::default());
    let exact = ExactIndex::from_dataset(data, Metric::L2);
    let wrong = vec![1.0f32; 9];
    for ix in [&exact as &dyn VectorIndex, &ivf, &hnsw] {
        let err = ix.check_query(&wrong).expect_err("wrong dimension");
        assert_eq!((err.expected, err.got), (16, 9));
    }
    assert!(ivf.try_insert(999_999, &wrong).is_err());
    assert!(hnsw.try_insert(999_999, &wrong).is_err());
    // Failed inserts must leave the index untouched.
    assert_eq!(ivf.len(), 200);
    assert_eq!(hnsw.len(), 200);
}

#[test]
fn search_many_handles_odd_query_thread_splits() {
    // 7 queries over 5 fixed threads: the parallel fan-out must cover every
    // query exactly once even when the split is uneven.
    let mut ix = ExactIndex::new(2, Metric::L2);
    for i in 0..100u64 {
        ix.insert(i, &[i as f32, 1.0]);
    }
    let queries: Vec<Vec<f32>> = (0..7).map(|i| vec![i as f32, 0.5]).collect();
    let many = ix.search_many(&queries, 3, Parallelism::Fixed(5));
    assert_eq!(many.len(), 7);
    // Each slot must equal the corresponding serial search, in order.
    for (q, hits) in queries.iter().zip(&many) {
        assert_eq!(hits, &ix.search(q, 3), "parallel result diverges");
    }
}
