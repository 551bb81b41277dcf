//! Cross-crate consistency of hybrid search: the unified engine and the
//! bolt-on composition must agree on answers whenever the bolt-on has
//! enough information, and both must honor the relational filter exactly.

use backbone_core::{
    bolton_search, unified_search, Database, FusionWeights, HybridSpec, VectorIndexSpec,
};
use backbone_query::{col, lit, Catalog};
use backbone_storage::{DataType, Field, Schema, Value};
use backbone_vector::{Dataset, Metric};
use backbone_workloads::hybrid;
use proptest::prelude::*;
use std::sync::Arc;

fn build_db(products: usize, seed: u64) -> Database {
    let catalog = hybrid::generate(products, 8, seed);
    let db = Database::new();
    db.create_table(
        "products",
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("category", DataType::Utf8),
            Field::new("price", DataType::Float64),
            Field::new("rating", DataType::Float64),
            Field::new("in_stock", DataType::Bool),
        ]),
    )
    .unwrap();
    db.insert(
        "products",
        catalog
            .products
            .iter()
            .map(|p| {
                vec![
                    Value::Int(p.id as i64),
                    Value::str(p.category),
                    Value::Float(p.price),
                    Value::Float(p.rating),
                    Value::Bool(p.in_stock),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_text_index_from(
        "products",
        catalog.products.iter().map(|p| p.description.as_str()),
    )
    .unwrap();
    let mut ds = Dataset::new(8);
    for p in &catalog.products {
        ds.push(p.id, &p.embedding);
    }
    db.create_vector_index("products", ds, VectorIndexSpec::exact(Metric::L2))
        .unwrap();
    db
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
        let batch = db.table_batch("products").unwrap();
        let price_of = |row: u64| batch.column_by_name("price").unwrap().value(row as usize).as_float().unwrap();

        let (u, cu) = unified_search(&db, &spec).unwrap();
        let (b, cb) = bolton_search(&db, &spec).unwrap();
        for h in u.iter().chain(&b) {
            prop_assert!(price_of(h.row) < cutoff, "row {} price {} >= {}", h.row, price_of(h.row), cutoff);
        }
        prop_assert!(u.len() <= k && b.len() <= k);
        prop_assert!(cu.round_trips <= cb.round_trips);
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
        let (u, _) = unified_search(&db, &spec).unwrap();
        let (b, _) = bolton_search(&db, &spec).unwrap();
        // The unified engine completes missing vector distances for
        // keyword-only candidates, so it can only improve on the bolt-on's
        // fused score — never regress.
        let score = |v: &[backbone_core::HybridHit]| v.iter().map(|h| h.score).sum::<f64>();
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
        let (hits, _) = unified_search(&db, &spec).unwrap();
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }
}

#[test]
fn search_request_builder_matches_direct_calls() {
    // The `Session`/`SearchRequest` facade is plumbing, not policy: for the
    // same spec it must return byte-identical hits and costs for both the
    // unified engine and the bolt-on baseline.
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
    let (direct, direct_cost) = unified_search(&db, &spec).unwrap();
    assert_eq!(built.hits, direct);
    assert_eq!(built.cost.round_trips, direct_cost.round_trips);
    assert_eq!(
        built.cost.candidates_fetched,
        direct_cost.candidates_fetched
    );

    let built_bolton = session
        .search("products")
        .filter(col("rating").gt(lit(2.5)))
        .keyword("premium bass")
        .vector(v)
        .k(7)
        .vector_weight(1.5)
        .text_weight(0.5)
        .via_bolton()
        .run()
        .unwrap();
    let (direct_bolton, _) = bolton_search(&db, &spec).unwrap();
    assert_eq!(built_bolton.hits, direct_bolton);
}

#[test]
fn hnsw_backed_unified_search_mostly_matches_exact() {
    let db_exact = build_db(1500, 30);
    let catalog = hybrid::generate(1500, 8, 30);
    let db_hnsw = {
        let db = build_db(1500, 30);
        let mut ds = Dataset::new(8);
        for p in &catalog.products {
            ds.push(p.id, &p.embedding);
        }
        db.create_vector_index("products", ds, VectorIndexSpec::hnsw(Metric::L2))
            .unwrap();
        db
    };
    // The synthetic catalog clusters embeddings tightly per category, so
    // top-k membership is dominated by near-ties; the meaningful quality
    // metric is the achieved fused score, not id overlap.
    let mut exact_score = 0.0;
    let mut hnsw_score = 0.0;
    for q in hybrid::generate_queries(10, 8, 0.0, 10, 31) {
        let spec = HybridSpec {
            table: "products".into(),
            filter: Some(col("in_stock").eq(lit(true))),
            keyword: Some(q.keyword.clone()),
            vector: Some(q.embedding.clone()),
            k: 10,
            weights: FusionWeights::default(),
        };
        let (a, _) = unified_search(&db_exact, &spec).unwrap();
        let (b, _) = unified_search(&db_hnsw, &spec).unwrap();
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
        let mask = db.eval_mask("products", &filter()).unwrap();
        assert_eq!(mask.len(), visible, "mask must cover the pinned prefix");
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
