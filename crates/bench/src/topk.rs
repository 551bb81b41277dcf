//! Fagin's Threshold Algorithm for fused top-k.
//!
//! The paper's §3.5 names top-k query processing as the canonical
//! cross-disciplinary result ("viewing database query processing from the
//! perspective of information retrieval led us to top-k query processing").
//! This module implements the Threshold Algorithm (Fagin, Lotem & Naor,
//! PODS '01) over the two relevance lists of a hybrid query: it consumes the
//! vector and text rankings in sorted order, completes each newly seen
//! object by random access, and stops as soon as the k-th best fused score
//! meets the threshold — typically long before either list is exhausted.
//! It is a comparator for E3, built on the engine's public index handles.

use backbone_core::{Database, Error, FusionWeights, HybridHit, HybridSpec, Result};
use backbone_text::bm25::{rank_terms, Bm25Params};
use backbone_text::tokenize::tokenize;
use std::collections::HashMap;

/// Convert a distance to a similarity in (0, 1] (same transform as the
/// hybrid engine).
fn similarity(distance: f32) -> f64 {
    1.0 / (1.0 + distance.max(0.0) as f64)
}

/// Outcome of a TA run.
#[derive(Debug, Clone)]
pub struct TaResult {
    /// The top-k hits, best first.
    pub hits: Vec<HybridHit>,
    /// Sorted-access depth reached (entries consumed per list).
    pub depth: usize,
    /// Random accesses performed.
    pub random_accesses: usize,
}

/// Run the Threshold Algorithm for a hybrid spec with both a vector and a
/// keyword component and no relational filter (the classic two-list case).
///
/// Returns exactly the same top-k as exhaustively scoring every object —
/// the accompanying tests verify this — while reporting how small a prefix
/// of each ranking it actually consumed.
pub fn ta_search(db: &Database, spec: &HybridSpec) -> Result<TaResult> {
    let (Some(qv), Some(kw)) = (&spec.vector, &spec.keyword) else {
        return Err(Error::InvalidInput(
            "threshold algorithm needs both vector and keyword components".into(),
        ));
    };
    if spec.filter.is_some() {
        return Err(Error::InvalidInput(
            "threshold algorithm variant does not support relational filters; use unified_search"
                .into(),
        ));
    }
    let vindex = db
        .vector_index(&spec.table)
        .ok_or_else(|| Error::IndexMissing {
            table: spec.table.clone(),
            kind: "vector",
        })?;
    let tindex = db
        .text_index(&spec.table)
        .ok_or_else(|| Error::IndexMissing {
            table: spec.table.clone(),
            kind: "text",
        })?;

    // Sorted access streams. The vector list is materialized lazily in
    // doubling chunks so shallow terminations stay cheap.
    let terms = tokenize(kw);
    let text_list = rank_terms(&tindex, &terms, tindex.num_docs(), Bm25Params::default());
    let mut vector_list = vindex.search(qv, 64.min(vindex.len().max(1)));
    let total = vindex.len();

    let weights: FusionWeights = spec.weights;
    let mut seen: HashMap<u64, f64> = HashMap::new();
    let mut random_accesses = 0usize;

    // Fused score by random access to both sides.
    let full_score = |id: u64,
                      vd_known: Option<f32>,
                      ts_known: Option<f64>,
                      ra: &mut usize|
     -> (f64, Option<f32>, Option<f64>) {
        let vd = vd_known.or_else(|| {
            *ra += 1;
            vindex.distance_of(qv, id)
        });
        let ts = match ts_known {
            Some(t) => Some(t),
            None => {
                *ra += 1;
                let t = backbone_text::bm25::score_doc(&tindex, kw, id, Bm25Params::default());
                (t > 0.0).then_some(t)
            }
        };
        let score =
            weights.vector * vd.map(similarity).unwrap_or(0.0) + weights.text * ts.unwrap_or(0.0);
        (score, vd, ts)
    };

    let mut best: Vec<HybridHit> = Vec::new();
    let mut depth = 0usize;
    loop {
        // Grow the vector list if TA wants to read deeper than materialized.
        if depth >= vector_list.len() && vector_list.len() < total {
            let want = (vector_list.len() * 2).min(total);
            vector_list = vindex.search(qv, want);
        }

        let v_entry = vector_list.get(depth);
        let t_entry = text_list.get(depth);
        if v_entry.is_none() && t_entry.is_none() {
            break; // both lists exhausted
        }

        for id in [v_entry.map(|h| h.id), t_entry.map(|s| s.doc)]
            .into_iter()
            .flatten()
        {
            if seen.contains_key(&id) {
                continue;
            }
            let vd_known = v_entry.filter(|h| h.id == id).map(|h| h.distance);
            let ts_known = t_entry.filter(|s| s.doc == id).map(|s| s.score);
            let (score, vd, ts) = full_score(id, vd_known, ts_known, &mut random_accesses);
            seen.insert(id, score);
            best.push(HybridHit {
                row: id,
                score,
                vector_distance: vd,
                text_score: ts,
            });
            best.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.row.cmp(&b.row)));
            best.truncate(spec.k);
        }
        depth += 1;

        // Threshold: the best fused score any completely unseen object
        // could still achieve — the value at each list's frontier, or 0 for
        // an exhausted list.
        let v_bound = if depth >= total {
            0.0
        } else {
            vector_list
                .get(depth - 1)
                .map(|h| similarity(h.distance))
                .unwrap_or(0.0)
        };
        let t_bound = if depth > text_list.len() {
            0.0
        } else {
            text_list.get(depth - 1).map(|s| s.score).unwrap_or(0.0)
        };
        let threshold = weights.vector * v_bound + weights.text * t_bound;
        if best.len() >= spec.k {
            let kth = best[spec.k - 1].score;
            if kth >= threshold {
                break;
            }
        }
    }

    Ok(TaResult {
        hits: best,
        depth,
        random_accesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use backbone_core::VectorIndexSpec;
    use backbone_storage::{DataType, Field, Schema, Value};
    use backbone_vector::{Dataset, Metric};

    fn db(n: usize) -> Database {
        let db = Database::new();
        db.create_table("docs", Schema::new(vec![Field::new("id", DataType::Int64)]))
            .unwrap();
        db.insert("docs", (0..n as i64).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        // Text: every 3rd doc mentions "alpha", every 7th "beta".
        db.create_text_index_from(
            "docs",
            (0..n).map(|i| {
                if i % 3 == 0 {
                    "alpha document content"
                } else if i % 7 == 0 {
                    "beta document content"
                } else {
                    "plain document content"
                }
            }),
        )
        .unwrap();
        let mut ds = Dataset::new(2);
        for i in 0..n as u64 {
            // Vector: id 0 closest to the query direction, spreading out.
            ds.push(i, &[1.0 + (i as f32) * 0.01, (i as f32) * 0.02]);
        }
        db.create_vector_index("docs", ds, VectorIndexSpec::exact(Metric::L2))
            .unwrap();
        db
    }

    fn spec(k: usize) -> HybridSpec {
        HybridSpec {
            table: "docs".into(),
            filter: None,
            keyword: Some("alpha".into()),
            vector: Some(vec![1.0, 0.0]),
            k,
            weights: FusionWeights::default(),
        }
    }

    /// Exhaustive reference: score every object with the same formula.
    fn exhaustive(db: &Database, s: &HybridSpec) -> Vec<(u64, f64)> {
        let vindex = db.vector_index("docs").unwrap();
        let tindex = db.text_index("docs").unwrap();
        let n = vindex.len() as u64;
        let mut all: Vec<(u64, f64)> = (0..n)
            .map(|id| {
                let vd = vindex.distance_of(s.vector.as_ref().unwrap(), id).unwrap();
                let ts = backbone_text::bm25::score_doc(
                    &tindex,
                    s.keyword.as_ref().unwrap(),
                    id,
                    Bm25Params::default(),
                );
                (id, similarity(vd) + ts)
            })
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(s.k);
        all
    }

    #[test]
    fn ta_matches_exhaustive_topk() {
        let db = db(500);
        for k in [1usize, 5, 20] {
            let s = spec(k);
            let ta = ta_search(&db, &s).unwrap();
            let reference = exhaustive(&db, &s);
            let got: Vec<(u64, f64)> = ta.hits.iter().map(|h| (h.row, h.score)).collect();
            for ((ga, gs), (ra, rs)) in got.iter().zip(&reference) {
                assert_eq!(ga, ra, "k={k}: ids diverge");
                assert!((gs - rs).abs() < 1e-9, "k={k}: scores diverge");
            }
        }
    }

    #[test]
    fn ta_terminates_early() {
        let db = db(2000);
        let s = spec(10);
        let ta = ta_search(&db, &s).unwrap();
        assert!(
            ta.depth < 2000 / 2,
            "TA should stop well before scanning everything: depth {}",
            ta.depth
        );
        assert_eq!(ta.hits.len(), 10);
    }

    #[test]
    fn ta_requires_both_components() {
        let db = db(10);
        let mut s = spec(3);
        s.vector = None;
        assert!(ta_search(&db, &s).is_err());
        let mut s2 = spec(3);
        s2.keyword = None;
        assert!(ta_search(&db, &s2).is_err());
        let mut s3 = spec(3);
        s3.filter = Some(backbone_query::col("id").gt(backbone_query::lit(1i64)));
        assert!(ta_search(&db, &s3).is_err());
    }

    #[test]
    fn k_larger_than_corpus() {
        let db = db(5);
        let s = spec(50);
        let ta = ta_search(&db, &s).unwrap();
        assert_eq!(ta.hits.len(), 5);
    }
}
