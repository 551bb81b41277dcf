//! Cross-crate consistency of hybrid search: every plan of the engine must
//! equal a from-scratch answer built from the generated catalog, the
//! engine and the bolt-on composition must agree whenever the bolt-on has
//! enough information, and both must honor the relational filter exactly.

use backbone_bench::bolton;
use backbone_bench::e3_hybrid;
use backbone_core::hybrid::{self, FilterStrategy};
use backbone_core::{Database, FusionWeights, HybridHit, HybridSpec, VectorIndexSpec};
use backbone_query::{col, lit, Catalog};
use backbone_storage::Value;
use backbone_text::bm25::{rank_terms_filtered_counted, Bm25Params};
use backbone_text::tokenize::tokenize;
use backbone_text::InvertedIndex;
use backbone_vector::Metric;
use backbone_workloads::hybrid::{generate, generate_queries, HybridQuery, ProductCatalog};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn build_db(products: usize, seed: u64) -> Database {
    e3_hybrid::build_db(products, 8, seed, VectorIndexSpec::exact(Metric::L2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn filter_is_always_respected(
        cutoff in 10.0f64..400.0,
        cat_axis in 0usize..6,
        k in 1usize..15,
    ) {
        let db = build_db(600, 21);
        let mut v = vec![0.1f32; 8];
        v[cat_axis] = 1.0;
        let spec = HybridSpec {
            table: "products".into(),
            filter: Some(col("price").lt(lit(cutoff))),
            keyword: Some("premium".into()),
            vector: Some(v),
            k,
            weights: FusionWeights::default(),
        };
        let batch = db.sql("SELECT * FROM products").unwrap();
        let price_of = |row: u64| batch.column_by_name("price").unwrap().value(row as usize).as_float().unwrap();

        let u = hybrid::search(&db, &spec).unwrap().hits;
        let (b, cb) = bolton::search(&db, &spec).unwrap();
        for h in u.iter().chain(&b) {
            prop_assert!(price_of(h.row) < cutoff, "row {} price {} >= {}", h.row, price_of(h.row), cutoff);
        }
        prop_assert!(u.len() <= k && b.len() <= k);
        // One round trip for the engine; at least one per service for the
        // bolt-on.
        prop_assert!(cb.round_trips >= 3);
    }

    #[test]
    fn unfiltered_answers_agree(
        cat_axis in 0usize..6,
        k in 1usize..12,
    ) {
        let db = build_db(400, 22);
        let mut v = vec![0.1f32; 8];
        v[cat_axis] = 1.0;
        let spec = HybridSpec {
            table: "products".into(),
            filter: None,
            keyword: Some("premium quality".into()),
            vector: Some(v),
            k,
            weights: FusionWeights::default(),
        };
        let u = hybrid::search(&db, &spec).unwrap().hits;
        let (b, _) = bolton::search(&db, &spec).unwrap();
        // The unified engine completes missing vector distances for
        // keyword-only candidates, so it can only improve on the bolt-on's
        // fused score — never regress.
        let score = |v: &[HybridHit]| v.iter().map(|h| h.score).sum::<f64>();
        prop_assert!(
            score(&u) >= score(&b) - 1e-9,
            "unified {} < bolton {}",
            score(&u),
            score(&b)
        );
    }

    #[test]
    fn scores_are_monotone(
        k in 2usize..10,
    ) {
        let db = build_db(300, 23);
        let spec = HybridSpec {
            table: "products".into(),
            filter: None,
            keyword: Some("bass speaker".into()),
            vector: Some(vec![1.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]),
            k,
            weights: FusionWeights { vector: 2.0, text: 1.0 },
        };
        let hits = hybrid::search(&db, &spec).unwrap().hits;
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }
}

#[test]
fn search_request_builder_matches_direct_calls() {
    // The `Session`/`SearchRequest` facade is plumbing, not policy: for the
    // same spec it must return byte-identical hits and the same plan for
    // both the engine and the bolt-on baseline.
    let db = build_db(500, 27);
    let mut v = vec![0.1f32; 8];
    v[2] = 1.0;
    let spec = HybridSpec {
        table: "products".into(),
        filter: Some(col("rating").gt(lit(2.5))),
        keyword: Some("premium bass".into()),
        vector: Some(v.clone()),
        k: 7,
        weights: FusionWeights {
            vector: 1.5,
            text: 0.5,
        },
    };
    let session = db.session();
    let built = session
        .search("products")
        .filter(col("rating").gt(lit(2.5)))
        .keyword("premium bass")
        .vector(v.clone())
        .k(7)
        .vector_weight(1.5)
        .text_weight(0.5)
        .run()
        .unwrap();
    let direct = hybrid::search(&db, &spec).unwrap();
    assert_eq!(built.hits, direct.hits);
    assert_eq!(built.profile.strategy, direct.profile.strategy);
    assert_eq!(built.profile.rows, direct.profile.rows);

    let request = session
        .search("products")
        .filter(col("rating").gt(lit(2.5)))
        .keyword("premium bass")
        .vector(v)
        .k(7)
        .vector_weight(1.5)
        .text_weight(0.5);
    let built_bolton = bolton::search(&db, request.spec()).unwrap();
    let direct_bolton = bolton::search(&db, &spec).unwrap();
    assert_eq!(built_bolton, direct_bolton);
}

#[test]
fn hnsw_backed_search_mostly_matches_exact() {
    let db_exact = build_db(1500, 30);
    let db_hnsw = e3_hybrid::build_db(1500, 8, 30, VectorIndexSpec::hnsw(Metric::L2));
    // The synthetic catalog clusters embeddings tightly per category, so
    // top-k membership is dominated by near-ties; the meaningful quality
    // metric is the achieved fused score, not id overlap.
    let mut exact_score = 0.0;
    let mut hnsw_score = 0.0;
    for q in generate_queries(10, 8, 0.0, 10, 31) {
        let spec = HybridSpec {
            table: "products".into(),
            filter: Some(col("in_stock").eq(lit(true))),
            keyword: Some(q.keyword.clone()),
            vector: Some(q.embedding.clone()),
            k: 10,
            weights: FusionWeights::default(),
        };
        let a = hybrid::search(&db_exact, &spec).unwrap().hits;
        let b = hybrid::search(&db_hnsw, &spec).unwrap().hits;
        exact_score += a.iter().map(|h| h.score).sum::<f64>();
        hnsw_score += b.iter().map(|h| h.score).sum::<f64>();
    }
    assert!(
        hnsw_score >= exact_score * 0.9,
        "HNSW-backed hybrid quality too low: {hnsw_score:.2} vs exact {exact_score:.2}"
    );
}

/// Ten product rows with ids from `first`, cycling prices.
fn product_rows(first: usize) -> Vec<Vec<Value>> {
    (first..first + 10)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::str("audio"),
                Value::Float((i % 300) as f64),
                Value::Float(4.0),
                Value::Bool(true),
            ]
        })
        .collect()
}

#[test]
fn filtered_searches_read_the_pinned_snapshot_without_sealing() {
    let db = build_db(600, 24);
    let groups = || db.catalog().table("products").unwrap().num_groups();
    let sealed = groups();
    let filter = || col("price").lt(lit(100.0));
    for c in 0..50 {
        db.insert("products", product_rows(600 + 10 * c)).unwrap();
        let response = db
            .search("products")
            .filter(filter())
            .keyword("premium")
            .vector(vec![0.1; 8])
            .k(5)
            .run()
            .unwrap();
        assert!(!response.hits.is_empty());
        let pin = db.pin_snapshot();
        let visible = db
            .catalog()
            .table("products")
            .unwrap()
            .visible_rows_at(pin.epoch());
        assert_eq!(visible, 610 + 10 * c);
        let rows = db
            .search("products")
            .filter(filter())
            .k(5)
            .run()
            .unwrap()
            .profile
            .rows;
        assert_eq!(rows, visible, "the search must read the pinned prefix");
        assert_eq!(groups(), sealed, "a search sealed the tail");
    }
}

#[test]
fn searches_after_small_commits_reuse_analyze_stats() {
    let db = build_db(600, 25);
    let search = || {
        db.search("products")
            .filter(col("price").lt(lit(50.0)))
            .vector(vec![0.1; 8])
            .k(5)
            .run()
            .unwrap()
    };
    search();
    let stats = db.catalog().table_stats("products").unwrap();
    db.insert("products", product_rows(600)).unwrap();
    search();
    let after = db.catalog().table_stats("products").unwrap();
    assert!(
        Arc::ptr_eq(&stats, &after),
        "a 10-row commit re-analyzed the table"
    );
}

/// Price cutoffs passing about 1%, 20% and 50% of the catalog (prices are
/// uniform in [5, 500]).
const CUTOFFS: [f64; 3] = [9.95, 104.0, 252.5];

/// The catalog behind a [`build_db`] database, and a text index rebuilt
/// from its descriptions outside the engine.
fn reference_inputs(products: usize, seed: u64) -> (ProductCatalog, InvertedIndex) {
    let catalog = generate(products, 8, seed);
    let mut text = InvertedIndex::new();
    for p in &catalog.products {
        text.add_document(p.id, &p.description);
    }
    (catalog, text)
}

/// The fused top-`k` built from scratch: exact distances over every
/// passing catalog row and BM25 over the passing documents, each cut to
/// the engine's candidate pool of `max(4k, 64)`; then the union's missing
/// distances are filled in and every candidate is scored `1/(1+d) + bm25`.
fn reference(
    catalog: &ProductCatalog,
    text: &InvertedIndex,
    q: &HybridQuery,
    cutoff: f64,
    k: usize,
) -> Vec<(u64, f64)> {
    let pool = (k * 4).max(64);
    let passes = |row: u64| {
        catalog
            .products
            .get(row as usize)
            .is_some_and(|p| p.price < cutoff)
    };
    let dist =
        |row: u64| Metric::L2.distance(&q.embedding, &catalog.products[row as usize].embedding);
    let mut by_dist: Vec<(f32, u64)> = (0..catalog.products.len() as u64)
        .filter(|&r| passes(r))
        .map(|r| (dist(r), r))
        .collect();
    by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    by_dist.truncate(pool);
    let terms = tokenize(&q.keyword);
    let (scored, _) =
        rank_terms_filtered_counted(text, &terms, pool, Bm25Params::default(), &passes);
    let mut bm25: HashMap<u64, f64> = by_dist.iter().map(|&(_, r)| (r, 0.0)).collect();
    bm25.extend(scored.iter().map(|s| (s.doc, s.score)));
    let mut hits: Vec<(u64, f64)> = bm25
        .into_iter()
        .map(|(r, t)| (r, 1.0 / (1.0 + dist(r).max(0.0) as f64) + t))
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

/// `search` and every filtered `search_forced` plan must return the
/// reference answer: position by position the same row, or a score within
/// 1e-6 relative (a tie the two sides broke differently). Forcing the
/// unfiltered plan on a filtered spec is an error, not an answer.
/// `before_each` runs before each query's plans.
fn assert_every_plan_matches_reference(
    db: &Database,
    catalog: &ProductCatalog,
    text: &InvertedIndex,
    before_each: &dyn Fn(),
) {
    for q in generate_queries(4, 8, 0.0, 10, 41) {
        for cutoff in CUTOFFS {
            for k in [5, 20] {
                before_each();
                let spec = HybridSpec {
                    table: "products".into(),
                    filter: Some(col("price").lt(lit(cutoff))),
                    keyword: Some(q.keyword.clone()),
                    vector: Some(q.embedding.clone()),
                    k,
                    weights: FusionWeights::default(),
                };
                let want = reference(catalog, text, &q, cutoff, k);
                let mut plans = vec![("auto", hybrid::search(db, &spec).unwrap())];
                for strategy in [
                    FilterStrategy::PreFilter,
                    FilterStrategy::PostFilter,
                    FilterStrategy::ExactScan,
                ] {
                    let response = hybrid::search_forced(db, &spec, strategy).unwrap();
                    plans.push((strategy.name(), response));
                }
                for (plan, response) in plans {
                    let got = &response.hits;
                    assert!(
                        got.iter()
                            .all(|h| (h.row as usize) < catalog.products.len()),
                        "{plan}: a hit is a row the indexes do not cover: {got:?}"
                    );
                    let same = got.len() == want.len()
                        && got.iter().zip(&want).all(|(a, b)| {
                            a.row == b.0 || (a.score - b.1).abs() <= 1e-6 * b.1.abs().max(1.0)
                        });
                    assert!(
                        same,
                        "{plan}, price < {cutoff}, k={k}: {got:?}\ndiffers from the reference {want:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_plan_matches_a_from_scratch_reference() {
    let db = build_db(6000, 40);
    let (catalog, text) = reference_inputs(6000, 40);
    assert_every_plan_matches_reference(&db, &catalog, &text, &|| {});
}

#[test]
fn every_plan_matches_the_reference_while_rows_commit() {
    let db = build_db(6000, 40);
    let (catalog, text) = reference_inputs(6000, 40);
    // Committed rows are visible and some pass every filter, but no index
    // covers them, so they must never surface as hits. The rendezvous
    // channel lets each query start only after one more commit landed; the
    // writer's next commit then races that query's searches.
    let (committed, next_query) = std::sync::mpsc::sync_channel(0);
    let commits = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut commits = 0;
            loop {
                db.insert("products", product_rows(6000 + 10 * commits))
                    .unwrap();
                commits += 1;
                if committed.send(()).is_err() {
                    return commits;
                }
            }
        });
        let wait_for_commit = || next_query.recv().expect("the writer stopped early");
        assert_every_plan_matches_reference(&db, &catalog, &text, &wait_for_commit);
        drop(next_query);
        writer.join().unwrap()
    });
    assert_eq!(db.row_count("products"), Some(6000 + 10 * commits));
}
