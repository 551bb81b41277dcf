//! Hybrid search: one engine runs a relational filter, a vector query and
//! a keyword query over one table and fuses the answers (E3).
//!
//! The panel's claim: *"solutions are crappy when you combine diverse
//! workloads like vectors, keywords, and relational queries in commercial
//! systems."* [`search`] is `backbone`'s answer: one engine evaluates the
//! relational predicate once into a row mask, *costs* the filtered vector
//! stage like a query optimizer would ([`FilterStrategy`]), pushes the mask
//! into the chosen plan, restricts BM25 to it, and fuses — one logical
//! round trip. The bolt-on composition it is measured against (three
//! services glued at the client) lives in the bench crate and ranks through
//! the same [`fuse_top_k`], so differences in cost and recall are purely
//! architectural.
//!
//! ## Costing the filtered vector stage
//!
//! A filtered ANN query has three classic physical plans, and no single one
//! wins everywhere:
//!
//! - **pre-filter**: push the row mask *into* the index so only passing
//!   rows are scored. Wins at mid selectivities; at permissive filters it
//!   pays masking overhead for rows that would almost all pass anyway.
//! - **post-filter**: run the unfiltered (parallel) index search over-fetched
//!   by `k/selectivity × safety`, drop non-passing hits. Wins when the
//!   filter passes most rows; collapses when it is selective (the over-fetch
//!   approaches the whole table).
//! - **exact-scan**: score exactly the qualifying rows, skip the index
//!   entirely. Wins when so few rows qualify that scanning them costs less
//!   than any index traversal — and it is *exact*, so recall can only go up.
//!
//! [`search`] picks per query using the same ANALYZE statistics the
//! relational optimizer uses ([`backbone_query::optimizer::cardinality`]);
//! [`search_forced`] runs a named plan instead. The decision, the
//! selectivity estimate, and per-stage timings surface in [`HybridProfile`]
//! and the `hybrid.*` metrics.

use crate::database::Database;
use crate::error::{Error, Result};

use backbone_query::eval::eval_predicate;
use backbone_query::optimizer::cardinality::selectivity_on;
use backbone_query::Expr;
use backbone_storage::Table;
use backbone_text::bm25::{rank_terms_filtered_counted, Bm25Params, Bm25Work};
use backbone_text::tokenize::tokenize;
use backbone_vector::exact::TopK;
use std::collections::HashMap;
use std::time::Instant;

/// Physical plan for the *vector stage* of a filtered hybrid search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterStrategy {
    /// No relational filter: plain (parallel) index search.
    #[default]
    Unfiltered,
    /// Mask pushed into the index; only passing rows are scored.
    PreFilter,
    /// Unfiltered over-fetch sized by estimated selectivity, filtered after.
    PostFilter,
    /// Score exactly the qualifying rows, bypassing the ANN structure.
    ExactScan,
}

impl FilterStrategy {
    /// Stable lowercase name (metrics keys, EXPLAIN output, bench rungs).
    pub fn name(&self) -> &'static str {
        match self {
            FilterStrategy::Unfiltered => "unfiltered",
            FilterStrategy::PreFilter => "pre-filter",
            FilterStrategy::PostFilter => "post-filter",
            FilterStrategy::ExactScan => "exact-scan",
        }
    }

    fn counter_key(&self) -> &'static str {
        match self {
            FilterStrategy::Unfiltered => "hybrid.strategy.unfiltered",
            FilterStrategy::PreFilter => "hybrid.strategy.prefilter",
            FilterStrategy::PostFilter => "hybrid.strategy.postfilter",
            FilterStrategy::ExactScan => "hybrid.strategy.exactscan",
        }
    }
}

/// Below this many expected qualifying rows, scoring them all directly is
/// cheaper than any index traversal (a blocked-kernel distance costs tens of
/// nanoseconds; HNSW/IVF probe overhead alone exceeds 1024 of them).
const EXACT_SCAN_ROWS: f64 = 1024.0;

/// At or above this estimated selectivity, a single sized over-fetch through
/// the unfiltered (parallel) path beats per-row mask checks.
const POST_FILTER_MIN_SEL: f64 = 0.45;

/// Over-fetch safety factor: the selectivity estimate is approximate, so
/// fetch `k/sel × SAFETY` to make a second round trip rare.
const OVERFETCH_SAFETY: f64 = 2.0;

/// Relative weight of the two relevance components.
#[derive(Debug, Clone, Copy)]
pub struct FusionWeights {
    /// Weight of vector similarity.
    pub vector: f64,
    /// Weight of BM25 text relevance.
    pub text: f64,
}

impl Default for FusionWeights {
    fn default() -> Self {
        FusionWeights {
            vector: 1.0,
            text: 1.0,
        }
    }
}

impl FusionWeights {
    /// The fused score of one row: the weighted sum of its vector
    /// similarity `1/(1+distance)` and its BM25 score, each 0 when absent.
    pub fn score(&self, vector_distance: Option<f32>, text_score: Option<f64>) -> f64 {
        let v = vector_distance.map(|d| 1.0 / (1.0 + d.max(0.0) as f64));
        self.vector * v.unwrap_or(0.0) + self.text * text_score.unwrap_or(0.0)
    }
}

/// A hybrid query specification.
#[derive(Debug, Clone)]
pub struct HybridSpec {
    /// Table to search.
    pub table: String,
    /// Optional relational predicate.
    pub filter: Option<Expr>,
    /// Optional keyword query (BM25).
    pub keyword: Option<String>,
    /// Optional query embedding.
    pub vector: Option<Vec<f32>>,
    /// Result size.
    pub k: usize,
    /// Fusion weights.
    pub weights: FusionWeights,
}

/// One hybrid result row.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridHit {
    /// Row ordinal in the table.
    pub row: u64,
    /// Fused score (higher is better).
    pub score: f64,
    /// Vector distance, when the row was seen by the vector component.
    pub vector_distance: Option<f32>,
    /// BM25 score, when the row matched the keyword query.
    pub text_score: Option<f64>,
}

/// Per-query execution profile: the decision and where the time went — the
/// hybrid analogue of `EXPLAIN ANALYZE` operator stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridProfile {
    /// Vector-stage plan chosen (or forced).
    pub strategy: FilterStrategy,
    /// Estimated filter selectivity in `[0, 1]` (1.0 when unfiltered).
    pub selectivity: f64,
    /// Rows visible at the request's pinned snapshot (the count the
    /// estimate was scaled by).
    pub rows: usize,
    /// Rows that actually passed the filter (0 when unfiltered).
    pub rows_passing: usize,
    /// Filter evaluation time (ns).
    pub filter_ns: u64,
    /// Vector stage time (ns).
    pub vector_ns: u64,
    /// Text stage time (ns).
    pub text_ns: u64,
    /// Distance-completion time for text-only candidates (ns).
    pub complete_ns: u64,
    /// Candidates the vector stage fetched before fusion.
    pub vector_candidates: usize,
    /// Over-fetch size used (post-filter only).
    pub overfetch: usize,
    /// BM25 work performed by the text stage.
    pub bm25: Bm25Work,
}

/// The outcome of a hybrid search: ranked hits plus the per-query profile.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// Fused results, best first.
    pub hits: Vec<HybridHit>,
    /// The plan chosen and where the time went.
    pub profile: HybridProfile,
}

/// Per-row candidate components gathered before fusion: the row's vector
/// distance and BM25 score, each `None` when that side did not see it.
pub type Candidates = HashMap<u64, (Option<f32>, Option<f64>)>;

/// Fuse candidates into the top `k` hits: scored by
/// [`FusionWeights::score`], best first, ties broken by row order.
pub fn fuse_top_k(candidates: Candidates, weights: &FusionWeights, k: usize) -> Vec<HybridHit> {
    let mut hits: Vec<HybridHit> = candidates
        .into_iter()
        .map(|(row, (vd, ts))| HybridHit {
            row,
            score: weights.score(vd, ts),
            vector_distance: vd,
            text_score: ts,
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.row.cmp(&b.row)));
    hits.truncate(k);
    hits
}

/// Evaluate the spec's filter over the first `visible` rows of `table` into
/// a row mask, one segment at a time — no whole-table materialization.
/// `None` when the spec has no filter.
fn filter_mask(spec: &HybridSpec, table: &Table, visible: usize) -> Result<Option<Vec<bool>>> {
    let Some(f) = &spec.filter else {
        return Ok(None);
    };
    let mut mask = Vec::with_capacity(visible);
    for batch in table.prefix_batches(visible) {
        mask.extend(eval_predicate(f, &batch?)?);
    }
    Ok(Some(mask))
}

fn missing(spec: &HybridSpec, kind: &'static str) -> Error {
    Error::IndexMissing {
        table: spec.table.clone(),
        kind,
    }
}

/// Pick the vector-stage plan for a table of `rows` visible rows from
/// ANALYZE statistics, without touching the data. Returns the plan and the
/// selectivity estimate it was based on.
fn choose_strategy(db: &Database, spec: &HybridSpec, rows: usize) -> (FilterStrategy, f64) {
    let Some(f) = &spec.filter else {
        return (FilterStrategy::Unfiltered, 1.0);
    };
    let sel = selectivity_on(f, &spec.table, db.catalog()).clamp(0.0, 1.0);
    if spec.vector.is_none() {
        // No vector stage to plan; the mask is simply pushed into BM25.
        return (FilterStrategy::PreFilter, sel);
    }
    if sel * rows as f64 <= EXACT_SCAN_ROWS {
        (FilterStrategy::ExactScan, sel)
    } else if sel >= POST_FILTER_MIN_SEL {
        (FilterStrategy::PostFilter, sel)
    } else {
        (FilterStrategy::PreFilter, sel)
    }
}

/// Run a hybrid search: filter once, cost the vector stage, push the mask
/// into the chosen plan, fuse in place. The request pins one snapshot: the
/// mask, the strategy's row count and the pure-relational path all read the
/// same committed prefix.
///
/// Each stage's elapsed time accumulates into the database's metrics
/// registry (`hybrid.filter_ns`, `hybrid.vector_ns`, `hybrid.text_ns`,
/// `hybrid.complete_ns`, a `hybrid.searches` call counter, and one
/// `hybrid.strategy.*` counter per plan chosen) — the same observability
/// spine `EXPLAIN ANALYZE` uses for relational operators.
pub fn search(db: &Database, spec: &HybridSpec) -> Result<SearchResponse> {
    run(db, spec, None)
}

/// [`search`] with the vector-stage plan forced instead of costed — how the
/// ANN bench pits the strategies against each other and checks that the
/// cost model's pick is never the losing plan. A filterless spec always
/// runs [`FilterStrategy::Unfiltered`]; forcing `Unfiltered` on a filtered
/// spec is an error, because that plan would return rows the filter
/// rejects.
pub fn search_forced(
    db: &Database,
    spec: &HybridSpec,
    strategy: FilterStrategy,
) -> Result<SearchResponse> {
    run(db, spec, Some(strategy))
}

fn run(db: &Database, spec: &HybridSpec, forced: Option<FilterStrategy>) -> Result<SearchResponse> {
    let metrics = db.metrics();
    metrics.counter("hybrid.searches").incr();

    let (table, rows) = db.pinned_snapshot(&spec.table)?;
    let (costed, sel) = choose_strategy(db, spec, rows);
    let strategy = match forced {
        None => costed,
        // A filterless query has nothing to pre/post-filter.
        Some(_) if spec.filter.is_none() => FilterStrategy::Unfiltered,
        Some(FilterStrategy::Unfiltered) => {
            return Err(Error::InvalidInput(
                "the unfiltered plan cannot run a filtered search".into(),
            ))
        }
        Some(f) => f,
    };
    metrics.counter(strategy.counter_key()).incr();

    let mut profile = HybridProfile {
        strategy,
        selectivity: sel,
        rows,
        ..Default::default()
    };

    let stage = Instant::now();
    let mask = filter_mask(spec, &table, rows)?;
    profile.filter_ns = stage.elapsed().as_nanos() as u64;
    metrics.counter("hybrid.filter_ns").add_elapsed(stage);
    profile.rows_passing = mask
        .as_ref()
        .map(|m| m.iter().filter(|&&b| b).count())
        .unwrap_or(0);
    let passes = |row: u64| {
        mask.as_ref()
            .map(|m| m.get(row as usize).copied().unwrap_or(false))
            .unwrap_or(true)
    };

    let mut merged = Candidates::new();

    if let Some(qv) = &spec.vector {
        let stage = Instant::now();
        let index = db
            .vector_index(&spec.table)
            .ok_or_else(|| missing(spec, "vector"))?;
        // Typed boundary check: past this point the kernels only
        // debug_assert.
        index.check_query(qv)?;
        let parallel = db.exec_options().parallelism;
        // The fusion layer wants a candidate pool wider than k so the text
        // side can promote rows the vector side ranked lower.
        let want = (spec.k * 4).max(64);
        let hits = match strategy {
            FilterStrategy::Unfiltered => index.search_with(qv, want, parallel),
            FilterStrategy::PreFilter => index.search_masked(qv, want, &passes),
            FilterStrategy::ExactScan => {
                // Score exactly the qualifying rows; no index traversal.
                let mut acc = TopK::new(want);
                if let Some(m) = &mask {
                    for (row, &pass) in m.iter().enumerate() {
                        if !pass {
                            continue;
                        }
                        if let Some(d) = index.distance_of(qv, row as u64) {
                            acc.push(row as u64, d);
                        }
                    }
                }
                acc.into_hits()
            }
            FilterStrategy::PostFilter => {
                // One over-fetch sized by the selectivity estimate; double
                // only if the estimate was badly off.
                let mut fetch = ((want as f64 / sel.max(1e-6)) * OVERFETCH_SAFETY)
                    .ceil()
                    .min(rows as f64) as usize;
                fetch = fetch.max(want);
                profile.overfetch = fetch;
                loop {
                    let raw = index.search_with(qv, fetch, parallel);
                    let exhausted = raw.len() < fetch || fetch >= rows;
                    let kept: Vec<_> = raw.into_iter().filter(|h| passes(h.id)).collect();
                    if kept.len() >= want || exhausted {
                        break kept;
                    }
                    fetch = (fetch * 2).min(rows.max(1));
                    profile.overfetch = fetch;
                }
            }
        };
        profile.vector_candidates = hits.len();
        for h in hits {
            merged.entry(h.id).or_insert((None, None)).0 = Some(h.distance);
        }
        profile.vector_ns = stage.elapsed().as_nanos() as u64;
        metrics.counter("hybrid.vector_ns").add_elapsed(stage);
    }

    if let Some(kw) = &spec.keyword {
        let stage = Instant::now();
        let index = db
            .text_index(&spec.table)
            .ok_or_else(|| missing(spec, "text"))?;
        let terms = tokenize(kw);
        // Push the mask into relevance scoring and keep a bounded candidate
        // set — the index is co-located, so no over-fetch leaves the engine.
        let fetch = (spec.k * 4).max(64);
        let (scored, work) =
            rank_terms_filtered_counted(&index, &terms, fetch, Bm25Params::default(), &passes);
        profile.bm25 = work;
        metrics
            .counter("text.bm25.postings_scored")
            .add(work.postings_scored);
        for s in scored {
            merged.entry(s.doc).or_insert((None, None)).1 = Some(s.score);
        }
        profile.text_ns = stage.elapsed().as_nanos() as u64;
        metrics.counter("hybrid.text_ns").add_elapsed(stage);
    }

    // Co-location pays: complete missing vector distances for candidates
    // surfaced only by the keyword side. A remote vector service cannot do
    // this without another round trip per candidate.
    if let Some(qv) = &spec.vector {
        let stage = Instant::now();
        if let Some(index) = db.vector_index(&spec.table) {
            for (row, (vd, _)) in merged.iter_mut() {
                if vd.is_none() {
                    *vd = index.distance_of(qv, *row);
                }
            }
        }
        profile.complete_ns = stage.elapsed().as_nanos() as u64;
        metrics.counter("hybrid.complete_ns").add_elapsed(stage);
    }

    // Pure relational query: return the first k masked rows.
    if spec.vector.is_none() && spec.keyword.is_none() {
        for row in 0..rows as u64 {
            if passes(row) {
                merged.insert(row, (None, None));
                if merged.len() >= spec.k {
                    break;
                }
            }
        }
    }

    Ok(SearchResponse {
        hits: fuse_top_k(merged, &spec.weights, spec.k),
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VectorIndexSpec;
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
                Field::new("parity", DataType::Utf8),
                Field::new("desc", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ]),
        )
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..40i64 {
            let parity = if i % 2 == 0 { "even" } else { "odd" };
            rows.push(vec![
                Value::Int(i),
                Value::str(parity),
                Value::str(format!("item number {i} is {parity} widget")),
                Value::Float(i as f64),
            ]);
        }
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
    fn unified_respects_filter() {
        let db = db();
        let hits = search(&db, &spec()).unwrap().hits;
        assert_eq!(hits.len(), 5);
        for h in &hits {
            assert!(h.row < 20, "row {} violates price filter", h.row);
        }
    }

    #[test]
    fn unified_prefers_even_near_vector() {
        let db = db();
        let hits = search(&db, &spec()).unwrap().hits;
        // Query vector [1,0] and keyword "even": even rows win.
        assert!(hits.iter().all(|h| h.row % 2 == 0), "hits: {hits:?}");
        assert!(hits[0].score >= hits[4].score);
    }

    #[test]
    fn pure_relational_path() {
        let db = db();
        let s = HybridSpec {
            table: "items".into(),
            filter: Some(col("parity").eq(lit("odd"))),
            keyword: None,
            vector: None,
            k: 3,
            weights: FusionWeights::default(),
        };
        let hits = search(&db, &s).unwrap().hits;
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.row % 2 == 1));
    }

    #[test]
    fn vector_only_and_text_only() {
        let db = db();
        let mut s = spec();
        s.filter = None;
        s.keyword = None;
        let hits = search(&db, &s).unwrap().hits;
        assert!(hits.iter().all(|h| h.vector_distance.is_some()));
        let mut s2 = spec();
        s2.filter = None;
        s2.vector = None;
        let hits2 = search(&db, &s2).unwrap().hits;
        assert!(hits2.iter().all(|h| h.text_score.is_some()));
    }

    #[test]
    fn missing_index_is_an_error() {
        let db = Database::new();
        db.create_table("bare", Schema::new(vec![Field::new("id", DataType::Int64)]))
            .unwrap();
        db.insert("bare", vec![vec![Value::Int(1)]]).unwrap();
        let s = HybridSpec {
            table: "bare".into(),
            filter: None,
            keyword: Some("x".into()),
            vector: None,
            k: 1,
            weights: FusionWeights::default(),
        };
        assert!(matches!(
            search(&db, &s),
            Err(Error::IndexMissing { kind: "text", .. })
        ));
    }

    #[test]
    fn stage_timings_land_in_registry() {
        let db = db();
        let before = db.metrics().value("hybrid.searches");
        search(&db, &spec()).unwrap();
        assert_eq!(db.metrics().value("hybrid.searches"), before + 1);
        for stage in ["hybrid.filter_ns", "hybrid.vector_ns", "hybrid.text_ns"] {
            assert!(db.metrics().value(stage) > 0, "{stage} not recorded");
        }
    }

    #[test]
    fn wrong_dimension_query_is_typed_error() {
        let db = db();
        let mut s = spec();
        s.vector = Some(vec![1.0, 0.0, 0.5]); // index is 2-dimensional
        match search(&db, &s) {
            Err(Error::DimensionMismatch { expected, got }) => {
                assert_eq!((expected, got), (2, 3));
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn every_forced_strategy_respects_the_filter() {
        let db = db();
        let s = spec();
        let auto = search(&db, &s).unwrap().hits;
        for strat in [
            FilterStrategy::PreFilter,
            FilterStrategy::PostFilter,
            FilterStrategy::ExactScan,
        ] {
            let SearchResponse { hits, profile } = search_forced(&db, &s, strat).unwrap();
            assert_eq!(profile.strategy, strat);
            assert_eq!(hits.len(), 5, "{strat:?}");
            assert!(hits.iter().all(|h| h.row < 20), "{strat:?}: {hits:?}");
            // The exact index makes every strategy exact on this small
            // table: all plans must agree with the costed pick.
            let rows: Vec<u64> = hits.iter().map(|h| h.row).collect();
            let auto_rows: Vec<u64> = auto.iter().map(|h| h.row).collect();
            assert_eq!(rows, auto_rows, "{strat:?} disagrees with auto");
        }
        // The unfiltered plan would leak rows the filter rejects.
        assert!(matches!(
            search_forced(&db, &s, FilterStrategy::Unfiltered),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn strategy_decision_tracks_selectivity() {
        let db = db();
        // 40 rows total: anything qualifies as "tiny" so the cost model
        // must choose the exact scan.
        let (strat, sel) = choose_strategy(&db, &spec(), 40);
        assert_eq!(strat, FilterStrategy::ExactScan);
        assert!(sel > 0.0 && sel <= 1.0);
        // No filter: nothing to plan.
        let mut s = spec();
        s.filter = None;
        assert_eq!(choose_strategy(&db, &s, 40).0, FilterStrategy::Unfiltered);
        // Strategy counters tick.
        let before = db.metrics().value("hybrid.strategy.exactscan");
        search(&db, &spec()).unwrap();
        assert_eq!(db.metrics().value("hybrid.strategy.exactscan"), before + 1);
    }

    #[test]
    fn bm25_norm_cache_counters_tick() {
        let db = db();
        let before = db.metrics().value("text.bm25.postings_scored");
        let work = search(&db, &spec()).unwrap().profile.bm25;
        let scored = db.metrics().value("text.bm25.postings_scored") - before;
        assert!(
            scored > 0,
            "text stage must record its cached-norm postings"
        );
        assert_eq!(scored, work.postings_scored);
    }

    #[test]
    fn profile_reports_decision_inputs() {
        let db = db();
        let p = search(&db, &spec()).unwrap().profile;
        assert_eq!(p.strategy, FilterStrategy::ExactScan);
        assert_eq!(p.rows, 40);
        assert_eq!(p.rows_passing, 20);
        assert!(p.vector_candidates > 0);
        assert!(p.bm25.postings_scored > 0);
    }
}
