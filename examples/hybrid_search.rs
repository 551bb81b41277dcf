//! Hybrid search over a product catalog: one declarative query combining a
//! relational filter, a keyword, and an embedding — the paper's "data
//! backbone" for mixed workloads — next to the bolt-on three-service
//! composition it replaces.
//!
//! ```sh
//! cargo run --example hybrid_search
//! ```

use backbone_bench::e3_hybrid::build_db;
use backbone_bench::{bolton, topk::ta_search};
use backbone_core::{HybridSpec, VectorIndexSpec};
use backbone_query::{col, lit};
use backbone_vector::Metric;

fn main() {
    // A 10k-product catalog with embeddings and descriptions, indexed for
    // keywords (BM25) and vectors (HNSW).
    let db = build_db(10_000, 8, 7, VectorIndexSpec::hnsw(Metric::L2));

    // "Find 5 audio products like this one, about bass, under $100" — one
    // declarative request assembled with the `SearchRequest` builder.
    let mut query_vec = vec![0.1f32; 8];
    query_vec[0] = 1.0; // the "audio" direction
    let request = db
        .search("products")
        .filter(
            col("price")
                .lt(lit(100.0))
                .and(col("in_stock").eq(lit(true))),
        )
        .keyword("bass wireless")
        .vector(query_vec.clone())
        .k(5);
    // The same spec, routed through the bolt-on three-service composition
    // (the measured baseline the unified engine replaces).
    let (_, bolton) = bolton::search(&db, request.spec()).expect("bolton");
    let unified = request.run().expect("unified");
    println!(
        "unified engine: 1 round trip, {} hits shipped ({} plan)",
        unified.hits.len(),
        unified.profile.strategy.name()
    );
    let batch = db.sql("SELECT * FROM products").expect("batch");
    for h in &unified.hits {
        let row = batch.row(h.row as usize);
        println!(
            "  #{:<6} {:<8} ${:<8.2} score {:.3} (vec {:?}, text {:?})",
            row[0],
            row[1],
            row[2].as_float().unwrap_or(0.0),
            h.score,
            h.vector_distance,
            h.text_score
        );
    }

    println!(
        "\nbolt-on composition: {} round trips, {} candidates shipped ({}x more)",
        bolton.round_trips,
        bolton.candidates_fetched,
        bolton.candidates_fetched / unified.hits.len().max(1)
    );

    // Bonus: the paper's cross-disciplinary exhibit — Fagin's Threshold
    // Algorithm terminates the fused top-k early on the unfiltered query.
    let unfiltered = HybridSpec {
        table: "products".into(),
        filter: None,
        keyword: Some("bass wireless".into()),
        vector: Some(query_vec),
        k: 5,
        weights: Default::default(),
    };
    let ta = ta_search(&db, &unfiltered).expect("ta");
    println!(
        "\nthreshold algorithm (no filter): top-{} found at sorted depth {} of {} products ({} random accesses)",
        unfiltered.k,
        ta.depth,
        db.row_count("products").unwrap(),
        ta.random_accesses
    );
}
