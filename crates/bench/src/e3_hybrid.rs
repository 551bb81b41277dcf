//! E3 — "solutions are crappy when you combine diverse workloads like
//! vectors, keywords, and relational queries in commercial systems."
//!
//! The unified engine vs the bolt-on three-service composition across
//! filter selectivities. Expectation: unified ships fewer candidates in
//! fewer round trips, and the gap widens as the relational filter gets more
//! selective (bolt-on over-fetches blindly and retries).

use crate::{bolton, time};
use backbone_core::hybrid::{self, FilterStrategy};
use backbone_core::{Database, FusionWeights, HybridSpec, Result, VectorIndexSpec};
use backbone_query::{col, lit};
use backbone_storage::{DataType, Field, Schema, Value};
use backbone_vector::{Dataset, Metric};
use backbone_workloads::hybrid::{generate, generate_queries};

/// One measured row of the E3 table.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Fraction of rows passing the relational filter.
    pub selectivity: f64,
    /// Mean unified latency (seconds).
    pub unified_s: f64,
    /// Mean bolt-on latency (seconds).
    pub bolton_s: f64,
    /// Mean candidates shipped by unified.
    pub unified_candidates: f64,
    /// Mean candidates shipped by bolt-on.
    pub bolton_candidates: f64,
    /// Mean bolt-on round trips.
    pub bolton_round_trips: f64,
    /// Mean top-k overlap between the two answers, in [0, 1].
    pub overlap: f64,
}

/// Build the product database: `products` generated rows in `products`
/// (`id, category, price, rating, in_stock`), a text index over their
/// descriptions and a `spec` vector index over their `dim`-dimensional
/// embeddings. Row ordinal, document id and vector id are the product id.
pub fn build_db(products: usize, dim: usize, seed: u64, spec: VectorIndexSpec) -> Database {
    let catalog = generate(products, dim, seed);
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
    let rows: Vec<Vec<Value>> = catalog
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
        .collect();
    db.insert("products", rows).unwrap();
    db.create_text_index_from(
        "products",
        catalog.products.iter().map(|p| p.description.as_str()),
    )
    .unwrap();
    let mut ds = Dataset::new(dim);
    for p in &catalog.products {
        ds.push(p.id, &p.embedding);
    }
    db.create_vector_index("products", ds, spec).unwrap();
    db
}

/// Run the sweep. `price_cutoffs` control selectivity (prices are uniform
/// in [5, 500], so cutoff / 495 approximates selectivity).
pub fn run(
    db: &Database,
    price_cutoffs: &[f64],
    queries: usize,
    k: usize,
    seed: u64,
) -> Vec<E3Row> {
    let dim = 8;
    let qs = generate_queries(queries, dim, 0.0, k, seed);
    let total = db.row_count("products").unwrap() as f64;
    price_cutoffs
        .iter()
        .map(|&cutoff| {
            let mut unified_s = 0.0;
            let mut bolton_s = 0.0;
            let mut uc = 0.0;
            let mut bc = 0.0;
            let mut brt = 0.0;
            let mut overlap = 0.0;
            for q in &qs {
                let spec = HybridSpec {
                    table: "products".into(),
                    filter: Some(col("price").lt(lit(cutoff))),
                    keyword: Some(q.keyword.clone()),
                    vector: Some(q.embedding.clone()),
                    k,
                    weights: FusionWeights::default(),
                };
                let (hits_u, su) = time(|| hybrid::search(db, &spec).expect("unified").hits);
                let ((hits_b, cost_b), sb) = time(|| bolton::search(db, &spec).expect("bolton"));
                unified_s += su;
                bolton_s += sb;
                // One round trip returns exactly the hits.
                uc += hits_u.len() as f64;
                bc += cost_b.candidates_fetched as f64;
                brt += cost_b.round_trips as f64;
                let set_u: std::collections::BTreeSet<u64> = hits_u.iter().map(|h| h.row).collect();
                let set_b: std::collections::BTreeSet<u64> = hits_b.iter().map(|h| h.row).collect();
                let denom = set_u.len().max(set_b.len()).max(1) as f64;
                overlap += set_u.intersection(&set_b).count() as f64 / denom;
            }
            let n = qs.len() as f64;
            E3Row {
                selectivity: (cutoff - 5.0).max(0.0) / 495.0 * total / total,
                unified_s: unified_s / n,
                bolton_s: bolton_s / n,
                unified_candidates: uc / n,
                bolton_candidates: bc / n,
                bolton_round_trips: brt / n,
                overlap: overlap / n,
            }
        })
        .collect()
}

/// Network model for the deployed comparison: the unified engine is one
/// service; the bolt-on talks to three over a network.
pub const RTT_MS: f64 = 1.0;
/// Per-candidate serialization/transfer cost in microseconds.
pub const PER_CANDIDATE_US: f64 = 2.0;

/// End-to-end latency under the network model.
pub fn modeled_ms(cpu_s: f64, candidates: f64, round_trips: f64) -> f64 {
    cpu_s * 1000.0 + round_trips * RTT_MS + candidates * PER_CANDIDATE_US / 1000.0
}

/// Print the experiment's table.
pub fn report(products: usize, queries: usize, k: usize, seed: u64) -> String {
    let db = build_db(products, 8, seed, VectorIndexSpec::exact(Metric::L2));
    let cutoffs = [250.0, 50.0, 25.0, 10.0];
    let rows = run(&db, &cutoffs, queries, k, seed + 1);
    let mut out = String::new();
    out.push_str("E3: unified hybrid engine vs bolt-on composition\n");
    out.push_str("claim: \"solutions are crappy when you combine diverse workloads\"\n");
    out.push_str(&format!(
        "(modeled deployment: {RTT_MS} ms RTT per service round trip, {PER_CANDIDATE_US} us per shipped candidate)\n\n"
    ));
    out.push_str(&format!(
        "{:>12} {:>11} {:>11} {:>7} {:>8} {:>14} {:>14}\n",
        "selectivity", "uni-cands", "bolt-cands", "trips", "overlap", "unified(ms)*", "bolton(ms)*"
    ));
    for (r, &cutoff) in rows.iter().zip(&cutoffs) {
        out.push_str(&format!(
            "{:>11.1}% {:>11.1} {:>11.1} {:>7.1} {:>8.2} {:>14.2} {:>14.2}\n",
            (cutoff - 5.0).max(0.0) / 495.0 * 100.0,
            r.unified_candidates,
            r.bolton_candidates,
            r.bolton_round_trips,
            r.overlap,
            modeled_ms(r.unified_s, r.unified_candidates, 1.0),
            modeled_ms(r.bolton_s, r.bolton_candidates, r.bolton_round_trips),
        ));
    }
    out.push_str("* modeled end-to-end latency = measured CPU + network model\n");
    // Plan readout, EXPLAIN ANALYZE style: the cost model routes the
    // permissive predicate to post-filtering and the selective one away
    // from it; each stage reports its actual time and work.
    let q = &generate_queries(1, 8, 0.0, k, seed + 2)[0];
    for cutoff in [250.0, 10.0] {
        let spec = HybridSpec {
            table: "products".into(),
            filter: Some(col("price").lt(lit(cutoff))),
            keyword: Some(q.keyword.clone()),
            vector: Some(q.embedding.clone()),
            k,
            weights: FusionWeights::default(),
        };
        out.push_str(&format!("\nEXPLAIN hybrid (price < {cutoff}):\n"));
        out.push_str(&explain(&db, &spec).expect("explain"));
    }
    out
}

/// Render a hybrid search's plan and execution the way `EXPLAIN ANALYZE`
/// renders a relational one: the costed decision first, then per-stage
/// actuals from the search's [`hybrid::HybridProfile`]. Runs the search.
pub fn explain(db: &Database, spec: &HybridSpec) -> Result<String> {
    let response = hybrid::search(db, spec)?;
    let p = response.profile;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = format!("HybridSearch {} (k={})\n", spec.table, spec.k);
    out.push_str(&format!(
        "  strategy: {} (estimated selectivity {:.1}% of {} rows)\n",
        p.strategy.name(),
        p.selectivity * 100.0,
        p.rows
    ));
    if spec.filter.is_some() {
        out.push_str(&format!(
            "  -> Filter: {:.3} ms, {} rows pass ({:.1}% actual)\n",
            ms(p.filter_ns),
            p.rows_passing,
            p.rows_passing as f64 * 100.0 / p.rows.max(1) as f64
        ));
    }
    if spec.vector.is_some() {
        let detail = match p.strategy {
            FilterStrategy::PostFilter => format!(", overfetch {}", p.overfetch),
            _ => String::new(),
        };
        out.push_str(&format!(
            "  -> Vector [{}{}]: {:.3} ms, {} candidates\n",
            p.strategy.name(),
            detail,
            ms(p.vector_ns),
            p.vector_candidates
        ));
    }
    if spec.keyword.is_some() {
        out.push_str(&format!(
            "  -> Text [bm25]: {:.3} ms, {} postings scored\n",
            ms(p.text_ns),
            p.bm25.postings_scored
        ));
    }
    if spec.vector.is_some() {
        out.push_str(&format!(
            "  -> Complete distances: {:.3} ms\n",
            ms(p.complete_ns)
        ));
    }
    out.push_str(&format!(
        "  => {} hits, 1 round trip\n",
        response.hits.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bolton_ships_more_as_selectivity_drops() {
        let db = build_db(2000, 8, 5, VectorIndexSpec::exact(Metric::L2));
        let rows = run(&db, &[250.0, 10.0], 10, 5, 6);
        assert_eq!(rows.len(), 2);
        // At every selectivity the bolt-on ships more candidates.
        for r in &rows {
            assert!(r.bolton_candidates > r.unified_candidates, "{r:?}");
        }
        // And more at the tighter filter than the looser one.
        assert!(rows[1].bolton_candidates >= rows[0].bolton_candidates * 0.8);
    }

    #[test]
    fn explain_names_strategy_and_stages() {
        let db = build_db(2000, 8, 5, VectorIndexSpec::exact(Metric::L2));
        let q = &generate_queries(1, 8, 0.0, 5, 6)[0];
        let spec = HybridSpec {
            table: "products".into(),
            filter: Some(col("price").lt(lit(10.0))),
            keyword: Some(q.keyword.clone()),
            vector: Some(q.embedding.clone()),
            k: 5,
            weights: FusionWeights::default(),
        };
        let out = explain(&db, &spec).unwrap();
        assert!(out.contains("strategy: exact-scan"), "{out}");
        assert!(out.contains("-> Filter"), "{out}");
        assert!(out.contains("-> Vector [exact-scan]"), "{out}");
        assert!(out.contains("-> Text [bm25]"), "{out}");
        assert!(out.contains("postings scored"), "{out}");
        assert!(out.contains("round trip"), "{out}");
    }
}
