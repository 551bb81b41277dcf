//! Vector kernels and parallel ANN paths against their references.
//!
//! The blocked distance kernels must agree with the scalar reference loops
//! (up to float reassociation) on arbitrary inputs — odd lengths, zero
//! vectors, NaN — and every parallel search path must return the identical
//! answer to its serial twin. IVF's cell-major storage must answer exactly
//! like a from-scratch scan of the cells it probes. Incremental inserts (no
//! rebuild) must keep recall above a pinned floor, so index maintenance
//! can't silently rot. The bounded top-k accumulator every search drains
//! into must equal sort-then-truncate.

use backbone_vector::exact::TopK;
use backbone_vector::hnsw::{HnswIndex, HnswParams};
use backbone_vector::ivf::{IvfIndex, IvfParams};
use backbone_vector::recall::recall_at_k;
use backbone_vector::{distance, Dataset, ExactIndex, Metric, Parallelism, VectorIndex};
use proptest::prelude::*;
use rand::prelude::*;
use std::collections::HashMap;

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

/// The IVF answer a search must give: the `k` smallest `(distance, id)`
/// pairs, under `f32::total_cmp` with every NaN stored as `f32::NAN`, among
/// the members of the cells the query probes that pass `keep`. Returned as
/// `(distance bits, id)`.
fn ivf_reference(
    ivf: &IvfIndex,
    vectors: &HashMap<u64, Vec<f32>>,
    metric: Metric,
    query: &[f32],
    k: usize,
    keep: &dyn Fn(u64) -> bool,
) -> Vec<(u32, u64)> {
    let mut want: Vec<(f32, u64)> = ivf
        .probes(query)
        .into_iter()
        .flat_map(|cell| ivf.cell_ids(cell).to_vec())
        .filter(|&id| keep(id))
        .map(|id| {
            let d = metric.distance(query, &vectors[&id]);
            (if d.is_nan() { f32::NAN } else { d }, id)
        })
        .collect();
    want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    want.iter()
        .take(k)
        .map(|&(d, id)| (d.to_bits(), id))
        .collect()
}

fn bits(hits: &[backbone_vector::Hit]) -> Vec<(u32, u64)> {
    hits.iter().map(|h| (h.distance.to_bits(), h.id)).collect()
}

proptest! {
    /// IVF's cell-major layout against a from-scratch reference: random
    /// rows, exact duplicates (ties), NaN components, ids shuffled so scan
    /// order is not id order, and rows inserted after `build`.
    #[test]
    fn ivf_cells_answer_like_a_reference_scan(
        case in (
            any::<u64>(),
            1usize..10,
            0usize..3,
            (1usize..300, 0usize..60),
            (1usize..20, 1usize..20, 1usize..40),
        ),
    ) {
        let (seed, dim, metric, (built, inserted), (nlist, nprobe, k)) = case;
        let metric = [Metric::L2, Metric::Dot, Metric::Cosine][metric];
        let mut rng = StdRng::seed_from_u64(seed);
        let n = built + inserted;
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.shuffle(&mut rng);
        let mut rows: Vec<(u64, Vec<f32>)> = Vec::with_capacity(n);
        for &id in &ids {
            let v: Vec<f32> = match rng.gen_range(0..10) {
                0 if !rows.is_empty() => rows[rng.gen_range(0..rows.len())].1.clone(),
                1 => {
                    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
                    v[rng.gen_range(0..dim)] = f32::NAN;
                    v
                }
                _ => (0..dim).map(|_| rng.gen_range(-5.0f32..5.0).round()).collect(),
            };
            rows.push((id, v));
        }
        let mut data = Dataset::new(dim);
        for (id, v) in &rows[..built] {
            data.push(*id, v);
        }
        let mut ivf = IvfIndex::build(
            data,
            metric,
            IvfParams { nlist, nprobe, train_iters: 3, seed },
        );
        for (id, v) in &rows[built..] {
            ivf.insert(*id, v);
        }
        prop_assert_eq!(ivf.len(), n);

        // Every cell lists its members in insertion order, and together the
        // cells hold every row exactly once.
        let order: HashMap<u64, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut members = 0;
        for cell in 0..ivf.nlist() {
            let ids = ivf.cell_ids(cell);
            prop_assert!(ids.windows(2).all(|w| order[&w[0]] < order[&w[1]]), "cell {cell} out of order");
            members += ids.len();
        }
        prop_assert_eq!(members, n);

        let vectors: HashMap<u64, Vec<f32>> = rows.into_iter().collect();
        for q in 0..3 {
            let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-5.0f32..5.0).round()).collect();
            let want = ivf_reference(&ivf, &vectors, metric, &query, k, &|_| true);
            for parallel in [Parallelism::Serial, Parallelism::Fixed(4)] {
                let got = bits(&ivf.search_with(&query, k, parallel));
                prop_assert_eq!(&got, &want, "query {q}, {parallel:?}");
            }
            let keep = |id: u64| !id.is_multiple_of(3);
            let want = ivf_reference(&ivf, &vectors, metric, &query, k, &keep);
            prop_assert_eq!(bits(&ivf.search_masked(&query, k, &keep)), want, "query {q}, masked");
            for (&id, v) in &vectors {
                let got = ivf.distance_of(&query, id).map(f32::to_bits);
                prop_assert_eq!(got, Some(metric.distance(&query, v).to_bits()), "distance_of({id})");
            }
        }
    }
}

/// A candidate distance: mostly small integers, so ties are common, and
/// otherwise NaN of either sign, ±0.0 or ±∞.
fn tie_heavy_distance(rng: &mut StdRng) -> f32 {
    const EDGES: [f32; 6] = [
        f32::NAN,
        -f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    if rng.gen_bool(0.3) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(0..6) as f32
    }
}

proptest! {
    /// `TopK` equals sort-then-truncate under `(distance.total_cmp, id)`,
    /// with every NaN stored as `f32::NAN`: over tie-heavy distances with
    /// ids in shuffled order, at k = 0, 1, n - 1, n and n + 5, whether the
    /// stream goes into one accumulator or is split across two and merged.
    #[test]
    fn topk_equals_sort_then_truncate(case in (any::<u64>(), 0usize..400, 0usize..5, 0usize..401)) {
        let (seed, n, pick, split) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.shuffle(&mut rng);
        let stream: Vec<(u64, f32)> = ids.iter().map(|&id| (id, tie_heavy_distance(&mut rng))).collect();
        let k = [0, 1, n.saturating_sub(1), n, n + 5][pick];
        let mut want: Vec<(f32, u64)> = stream
            .iter()
            .map(|&(id, d)| (if d.is_nan() { f32::NAN } else { d }, id))
            .collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<(u32, u64)> = want.iter().take(k).map(|&(d, id)| (d.to_bits(), id)).collect();

        let mut whole = TopK::new(k);
        for &(id, d) in &stream {
            whole.push(id, d);
        }
        prop_assert_eq!(bits(&whole.into_hits()), want.clone(), "k={k} of {n}");

        let (head, tail) = stream.split_at(split.min(n));
        let (mut a, mut b) = (TopK::new(k), TopK::new(k));
        head.iter().for_each(|&(id, d)| a.push(id, d));
        tail.iter().for_each(|&(id, d)| b.push(id, d));
        a.merge(b);
        prop_assert_eq!(bits(&a.into_hits()), want, "k={k} of {n}, merged at {split}");
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
