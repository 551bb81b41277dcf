//! Hybrid search over a product catalog: one declarative query combining a
//! relational filter, a keyword, and an embedding — the paper's "data
//! backbone" for mixed workloads — next to the bolt-on three-service
//! composition it replaces.
//!
//! ```sh
//! cargo run --example hybrid_search
//! ```

use backbone_bench::topk::ta_search;
use backbone_core::{bolton_search, Database, HybridSpec, VectorIndexSpec};
use backbone_query::{col, lit};
use backbone_storage::{DataType, Field, Schema, Value};
use backbone_vector::{Dataset, Metric};
use backbone_workloads::hybrid;

fn main() {
    // A 10k-product catalog with embeddings and descriptions.
    let catalog = hybrid::generate(10_000, 8, 7);
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
    .expect("create");
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
    .expect("insert");
    db.create_text_index_from(
        "products",
        catalog.products.iter().map(|p| p.description.as_str()),
    )
    .expect("text index");
    let mut ds = Dataset::new(catalog.dim);
    for p in &catalog.products {
        ds.push(p.id, &p.embedding);
    }
    db.create_vector_index(
        "products",
        ds,
        VectorIndexSpec::hnsw(Metric::L2).ef_search(96),
    )
    .expect("vector index");

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
    let (_, bolton) = bolton_search(&db, request.spec()).expect("bolton");
    let unified = request.run().expect("unified");
    println!(
        "unified engine: {} round trip(s), {} candidates shipped",
        unified.cost.round_trips, unified.cost.candidates_fetched
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
        bolton.candidates_fetched / unified.cost.candidates_fetched.max(1)
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
