//! The bolt-on composition E3 measures the unified engine against.
//!
//! The panel's complaint — *"solutions are crappy when you combine diverse
//! workloads like vectors, keywords, and relational queries in commercial
//! systems"* — is about this architecture: three independent services
//! (RDBMS, vector store, text search) queried separately and glued at the
//! client. The relational service must ship its whole qualifying id set,
//! the other two over-fetch blindly, and the client retries with bigger
//! fetches until enough survivors intersect.
//!
//! Each service reads only the engine's public surface: the RDBMS evaluates
//! the filter over a pinned snapshot, the other two query the table's
//! indexes. Fusion and ranking go through the engine's own [`fuse_top_k`],
//! so differences in cost and recall against
//! [`backbone_core::hybrid::search`] are purely architectural.

use backbone_core::hybrid::{fuse_top_k, Candidates};
use backbone_core::{Database, Error, HybridHit, HybridSpec, Result};
use backbone_query::eval::eval_predicate;
use backbone_query::Catalog;
use backbone_text::bm25::{rank_terms_filtered_counted, Bm25Params};
use backbone_text::tokenize::tokenize;

/// What a bolt-on search shipped between the services and the client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Candidate rows shipped from the services to the client.
    pub candidates_fetched: usize,
    /// Client-service round trips.
    pub round_trips: usize,
}

/// Service 1 (RDBMS): the visible row count at a freshly pinned snapshot,
/// and the ascending ids of the rows passing the spec's filter (`None`
/// when the spec has no filter).
fn filter_ids(db: &Database, spec: &HybridSpec) -> Result<(usize, Option<Vec<u64>>)> {
    let pin = db.pin_snapshot();
    let table = db
        .catalog()
        .table(&spec.table)
        .ok_or_else(|| Error::TableNotFound(spec.table.clone()))?;
    let visible = table.visible_rows_at(pin.epoch());
    let Some(filter) = &spec.filter else {
        return Ok((visible, None));
    };
    let mut ids = Vec::new();
    let mut row = 0u64;
    for batch in table.prefix_batches(visible) {
        for keep in eval_predicate(filter, &batch?)? {
            if keep {
                ids.push(row);
            }
            row += 1;
        }
    }
    Ok((visible, Some(ids)))
}

fn missing(spec: &HybridSpec, kind: &'static str) -> Error {
    Error::IndexMissing {
        table: spec.table.clone(),
        kind,
    }
}

/// Run `spec` as three services glued at the client: ship the filter's id
/// list, fetch blind top-`n` lists from the vector and text services,
/// intersect, and double `n` until `k` rows survive or the table is
/// exhausted.
pub fn search(db: &Database, spec: &HybridSpec) -> Result<(Vec<HybridHit>, Cost)> {
    let (total_rows, filter_ids) = filter_ids(db, spec)?;
    let mut cost = Cost::default();
    if let Some(ids) = &filter_ids {
        cost.candidates_fetched = ids.len();
        cost.round_trips = 1;
    }
    let in_filter = |row: u64| {
        filter_ids
            .as_ref()
            .is_none_or(|ids| ids.binary_search(&row).is_ok())
    };

    let mut fetch = (spec.k * 4).max(64);
    loop {
        let mut merged = Candidates::new();

        // Service 2 (vector store): blind top-`fetch`, no filter awareness.
        if let Some(qv) = &spec.vector {
            let index = db
                .vector_index(&spec.table)
                .ok_or_else(|| missing(spec, "vector"))?;
            index.check_query(qv)?;
            let hits = index.search(qv, fetch);
            cost.candidates_fetched += hits.len();
            cost.round_trips += 1;
            for h in hits {
                merged.entry(h.id).or_insert((None, None)).0 = Some(h.distance);
            }
        }

        // Service 3 (text search): blind top-`fetch`.
        if let Some(kw) = &spec.keyword {
            let index = db
                .text_index(&spec.table)
                .ok_or_else(|| missing(spec, "text"))?;
            let (scored, _) = rank_terms_filtered_counted(
                &index,
                &tokenize(kw),
                fetch,
                Bm25Params::default(),
                &|_| true,
            );
            cost.candidates_fetched += scored.len();
            cost.round_trips += 1;
            for s in scored {
                merged.entry(s.doc).or_insert((None, None)).1 = Some(s.score);
            }
        }

        // Client-side intersection with the filter list.
        merged.retain(|row, _| in_filter(*row));

        if spec.vector.is_none() && spec.keyword.is_none() {
            // Pure relational: the RDBMS result is the answer.
            let first: Vec<u64> = match &filter_ids {
                Some(ids) => ids.iter().take(spec.k).copied().collect(),
                None => (0..total_rows as u64).take(spec.k).collect(),
            };
            merged.extend(first.into_iter().map(|row| (row, (None, None))));
        }

        if merged.len() >= spec.k || fetch >= total_rows {
            return Ok((fuse_top_k(merged, &spec.weights, spec.k), cost));
        }
        fetch *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_core::hybrid;
    use backbone_core::{FusionWeights, VectorIndexSpec};
    use backbone_query::{col, lit};
    use backbone_storage::{DataType, Field, Schema, Value};
    use backbone_vector::{Dataset, Metric};

    /// 40 rows: even rows tagged "even" with embeddings near [1,0],
    /// odd rows tagged "odd" near [0,1]; text mentions parity words.
    fn db() -> Database {
        let db = Database::new();
        db.create_table(
            "items",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("desc", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ]),
        )
        .unwrap();
        let rows = (0..40i64)
            .map(|i| {
                let parity = if i % 2 == 0 { "even" } else { "odd" };
                vec![
                    Value::Int(i),
                    Value::str(format!("item number {i} is {parity} widget")),
                    Value::Float(i as f64),
                ]
            })
            .collect();
        db.insert("items", rows).unwrap();
        db.create_text_index("items", "desc").unwrap();
        let mut ds = Dataset::new(2);
        for i in 0..40u64 {
            let v = if i % 2 == 0 {
                [1.0 + (i as f32) * 0.001, 0.0]
            } else {
                [0.0, 1.0 + (i as f32) * 0.001]
            };
            ds.push(i, &v);
        }
        db.create_vector_index("items", ds, VectorIndexSpec::exact(Metric::L2))
            .unwrap();
        db
    }

    fn spec() -> HybridSpec {
        HybridSpec {
            table: "items".into(),
            filter: Some(col("price").lt(lit(20.0))),
            keyword: Some("even widget".into()),
            vector: Some(vec![1.0, 0.0]),
            k: 5,
            weights: FusionWeights::default(),
        }
    }

    #[test]
    fn bolton_returns_filtered_results_too() {
        let db = db();
        let (hits, cost) = search(&db, &spec()).unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.row < 20), "{hits:?}");
        // The bolt-on tax: more rows shipped than the unified engine's one
        // round trip returns.
        let unified = hybrid::search(&db, &spec()).unwrap().hits;
        assert!(cost.candidates_fetched > unified.len());
        assert!(cost.round_trips > 1);
    }

    #[test]
    fn unified_at_least_as_good_without_filter() {
        let db = db();
        let mut s = spec();
        s.filter = None;
        let a = hybrid::search(&db, &s).unwrap().hits;
        let (b, _) = search(&db, &s).unwrap();
        // Unified completes missing vector distances for keyword-only
        // candidates, so its fused top-k score dominates the bolt-on's.
        let score = |v: &[HybridHit]| v.iter().map(|h| h.score).sum::<f64>();
        assert!(
            score(&a) >= score(&b) - 1e-9,
            "{} < {}",
            score(&a),
            score(&b)
        );
        // And every unified hit now carries a vector distance.
        assert!(a.iter().all(|h| h.vector_distance.is_some()));
    }

    #[test]
    fn selective_filter_forces_bolton_refetch() {
        let db = db();
        let mut s = spec();
        // Only rows 0..4 qualify: blind top-64 fetches waste most results.
        s.filter = Some(col("price").lt(lit(4.0)));
        s.k = 2;
        let unified = hybrid::search(&db, &s).unwrap().hits;
        let (hits, cost) = search(&db, &s).unwrap();
        assert!(!unified.is_empty() && !hits.is_empty());
        assert!(unified.iter().chain(&hits).all(|h| h.row < 4));
        assert!(
            cost.candidates_fetched >= unified.len() * 2,
            "bolt-on should ship much more: {cost:?} vs {} hits",
            unified.len()
        );
    }

    #[test]
    fn bolton_strategy_runs_the_baseline() {
        let db = db();
        let request = db.search("items").keyword("even widget").k(3);
        let (bolton, cost) = search(&db, request.spec()).unwrap();
        let unified = request.run().unwrap();
        // Same fused ranking, different architecture: the bolt-on pays in
        // round trips.
        assert_eq!(
            unified.hits.iter().map(|h| h.row).collect::<Vec<_>>(),
            bolton.iter().map(|h| h.row).collect::<Vec<_>>(),
        );
        assert!(cost.round_trips >= 1);
    }

    #[test]
    fn pure_relational_and_typed_errors() {
        let db = db();
        let s = HybridSpec {
            keyword: None,
            vector: None,
            k: 3,
            ..spec()
        };
        let (hits, cost) = search(&db, &s).unwrap();
        assert_eq!(hits.iter().map(|h| h.row).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(cost.round_trips, 1);
        let mut s = spec();
        s.vector = Some(vec![1.0, 0.0, 0.5]); // index is 2-dimensional
        assert!(matches!(
            search(&db, &s),
            Err(Error::DimensionMismatch { .. })
        ));
        s.table = "ghost".into();
        assert!(matches!(search(&db, &s), Err(Error::TableNotFound(_))));
    }
}
