//! `hybrid`: filtered keyword+vector search beside small commits.
//!
//! One in-process session over 50k products (dim-32 embeddings under an IVF
//! index, descriptions under a text index), built like the E3 experiment
//! with IVF in place of HNSW, which takes about 25 s to build at this size.
//! Each iteration commits one 10-row relational insert into the searched
//! table, timed on its own, then issues a filtered top-10 keyword+vector
//! search. The price cutoffs cycle through about 1%, 19% and 51% passing
//! rows, which the cost model routes to exact-scan, pre-filter and
//! post-filter. The writer is inline, not a concurrent thread, so the run
//! is deterministic and steady. A pass is a fixed number of iterations,
//! not a timed window, so the table ends at the same size however fast the
//! engine is.

use crate::report::{peak_rss_mb, Outcome};
use crate::rng::Rng;
use crate::stats::{median, unstolen_median};
use crate::trace::{Role, Trace, Tracer};
use crate::{repeat_setup, trace_path, Args, Clocks};
use backbone_core::{Database, Session, VectorIndexSpec};
use backbone_query::stats::analyze_table;
use backbone_query::{col, lit, Catalog, Parallelism};
use backbone_storage::{DataType, Field, Schema, Table, Value};
use backbone_text::bm25::{rank_terms_filtered_counted, Bm25Params};
use backbone_text::tokenize::tokenize;
use backbone_vector::exact::TopK;
use backbone_vector::{Dataset, Metric};
use backbone_workloads::hybrid::{
    generate, generate_queries, HybridQuery, ProductCatalog, CATEGORIES,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

pub const PRODUCTS: usize = 50_000;
pub const DIM: usize = 32;
pub const K: usize = 10;
pub const ROWS_PER_COMMIT: usize = 10;
const TABLE: &str = "products";
/// Distinct queries; iteration `i` uses query `i % QUERIES`.
const QUERIES: usize = 1024;
/// Iterations per second of `--seconds`: about the rate of the 2-vCPU
/// machine the benchmark was sized on.
const ITERATIONS_PER_S: f64 = 50.0;
/// Every op kind needs this many samples.
const MIN_ITERATIONS: usize = crate::MIN_SAMPLES;
/// The 1% band is planned as an exact scan while its estimated survivors
/// stay at most 1,024, so below about 100k rows; this many iterations end
/// at 80k.
const MAX_ITERATIONS: usize = 3 * crate::MIN_SAMPLES;
/// Set-ups per untraced run; `setup_s` is the median of their CPU time.
const SETUPS: usize = 5;
/// Price cutoffs (prices are uniform in [5, 500)) and the plan each is
/// expected to get; iteration `i` uses cutoff `i % 3`.
pub const CUTOFFS: [(f64, &str); 3] = [(9.95, "exact"), (99.05, "pre"), (257.45, "post")];
/// Queries per band re-run on the quiesced table against a brute-force
/// scan.
const SAMPLES_PER_BAND: usize = 10;
/// Mean top-k overlap with the brute-force answer an ANN band must reach.
const ANN_OVERLAP_FLOOR: f64 = 0.8;
/// Candidates the engine's vector and text stages keep before fusion.
const CANDIDATES: usize = 64;
/// Engine counters of the hybrid stages, as (metric, counter).
const STAGES: [(&str, &str); 4] = [
    ("core.hybrid.filter_ms", "hybrid.filter_ns"),
    ("core.hybrid.vector_ms", "hybrid.vector_ns"),
    ("core.hybrid.text_ms", "hybrid.text_ns"),
    ("core.hybrid.complete_ms", "hybrid.complete_ns"),
];
const STRATEGIES: [(&str, &str); 3] = [
    ("core.hybrid.strategy_exact", "hybrid.strategy.exactscan"),
    ("core.hybrid.strategy_pre", "hybrid.strategy.prefilter"),
    ("core.hybrid.strategy_post", "hybrid.strategy.postfilter"),
];

fn schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("category", DataType::Utf8),
        Field::new("price", DataType::Float64),
        Field::new("rating", DataType::Float64),
        Field::new("in_stock", DataType::Bool),
    ])
}

/// The rows of one commit: products shaped like the generator's.
fn commit_rows(rng: &mut Rng, first_id: usize) -> Vec<Vec<Value>> {
    (0..ROWS_PER_COMMIT)
        .map(|j| {
            let category = CATEGORIES[rng.below(CATEGORIES.len() as u64) as usize];
            vec![
                Value::Int((first_id + j) as i64),
                Value::str(category),
                Value::Float((500 + rng.below(49_500)) as f64 / 100.0),
                Value::Float((10 + rng.below(41)) as f64 / 10.0),
                Value::Bool(rng.unit() < 0.8),
            ]
        })
        .collect()
}

fn price(row: &[Value]) -> f64 {
    match row[2] {
        Value::Float(p) => p,
        _ => f64::NAN,
    }
}

/// One iteration's requests: a commit of `rows`, then a search with query
/// `query` under cutoff `band` of [`CUTOFFS`].
struct Iteration {
    rows: Vec<Vec<Value>>,
    query: usize,
    band: usize,
}

/// Every iteration's requests, a pure function of the seed: iteration `i`
/// uses query `i % QUERIES` and cutoff `i % 3`.
struct Requests {
    rng: Rng,
    i: usize,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        Requests {
            rng: Rng::new(seed, 300),
            i: 0,
        }
    }
}

impl Iterator for Requests {
    type Item = Iteration;

    fn next(&mut self) -> Option<Iteration> {
        let i = self.i;
        self.i += 1;
        Some(Iteration {
            rows: commit_rows(&mut self.rng, PRODUCTS + i * ROWS_PER_COMMIT),
            query: i % QUERIES,
            band: i % 3,
        })
    }
}

fn queries(seed: u64) -> Vec<HybridQuery> {
    generate_queries(QUERIES, DIM, 0.0, K, seed.wrapping_add(1))
}

/// Iterations in a pass: [`ITERATIONS_PER_S`] per second asked for, within
/// [`MIN_ITERATIONS`, `MAX_ITERATIONS`]. The amount of work is fixed by the
/// arguments, not timed: every commit grows the searched table, so a timed
/// pass would let the engine's speed set the table's final size, and with
/// it the plan each band gets.
fn iterations(seconds: f64) -> usize {
    ((seconds * ITERATIONS_PER_S).round() as usize).clamp(MIN_ITERATIONS, MAX_ITERATIONS)
}

/// The first `n` iterations: the commit rows and the search of each.
#[cfg(test)]
fn transcript(seed: u64, n: usize) -> String {
    let queries = queries(seed);
    Requests::new(seed)
        .take(n)
        .map(|it| {
            let q = &queries[it.query];
            format!(
                "insert {:?}\nsearch price<{} keyword={} vector={:?}\n",
                it.rows, CUTOFFS[it.band].0, q.keyword, q.embedding
            )
        })
        .collect()
}

struct Env {
    db: Database,
    catalog: ProductCatalog,
    queries: Vec<HybridQuery>,
}

fn setup(seed: u64) -> Result<Env, String> {
    let catalog = generate(PRODUCTS, DIM, seed);
    let db = Database::new();
    db.create_table(TABLE, schema())
        .map_err(|e| format!("create: {e}"))?;
    let rows = catalog
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
    db.insert(TABLE, rows).map_err(|e| format!("load: {e}"))?;
    db.create_text_index_from(
        TABLE,
        catalog.products.iter().map(|p| p.description.as_str()),
    )
    .map_err(|e| format!("text index: {e}"))?;
    let mut ds = Dataset::new(DIM);
    for p in &catalog.products {
        ds.push(p.id, &p.embedding);
    }
    db.create_vector_index(TABLE, ds, VectorIndexSpec::ivf(Metric::L2))
        .map_err(|e| format!("vector index: {e}"))?;
    let queries = queries(seed);
    Ok(Env {
        db,
        catalog,
        queries,
    })
}

fn search(session: &Session, q: &HybridQuery, cutoff: f64) -> Result<Vec<(u64, f64)>, String> {
    session
        .search(TABLE)
        .filter(col("price").lt(lit(cutoff)))
        .keyword(q.keyword.clone())
        .vector(q.embedding.clone())
        .k(K)
        .run()
        .map(|r| r.hits.iter().map(|h| (h.row, h.score)).collect())
        .map_err(|e| format!("search: {e}"))
}

/// The fused top-k computed from scratch: exact distances over every
/// passing indexed row, BM25 over the passing documents, the engine's
/// fusion (`1/(1+d)` plus the BM25 score) over the union of both
/// candidate lists.
fn brute_force(env: &Env, q: &HybridQuery, cutoff: f64) -> Result<Vec<(u64, f64)>, String> {
    let passes =
        |row: u64| (row as usize) < PRODUCTS && env.catalog.products[row as usize].price < cutoff;
    let dist =
        |row: u64| Metric::L2.distance(&q.embedding, &env.catalog.products[row as usize].embedding);
    let mut by_dist: Vec<(f32, u64)> = (0..PRODUCTS as u64)
        .filter(|&r| passes(r))
        .map(|r| (dist(r), r))
        .collect();
    by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    by_dist.truncate(CANDIDATES);
    let text = env
        .db
        .text_index(TABLE)
        .ok_or("the text index is missing")?;
    let (scored, _) = rank_terms_filtered_counted(
        &text,
        &tokenize(&q.keyword),
        CANDIDATES,
        Bm25Params::default(),
        &passes,
    );
    let mut merged: HashMap<u64, f64> = HashMap::new();
    for (_, r) in by_dist {
        merged.insert(r, 0.0);
    }
    for s in scored {
        *merged.entry(s.doc).or_default() += s.score;
    }
    let mut hits: Vec<(u64, f64)> = merged
        .into_iter()
        .map(|(r, t)| (r, 1.0 / (1.0 + dist(r).max(0.0) as f64) + t))
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.truncate(K);
    Ok(hits)
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    window_s: f64,
    cpu_s: f64,
    /// Share of the machine's CPU time stolen during the pass.
    steal: f64,
    /// The process's high-water mark when the pass ended, before the
    /// output check allocates.
    peak_rss_mb: f64,
    /// Latencies (ms) of every op.
    commits: Vec<f64>,
    searches: Vec<f64>,
    /// Traced: per-search engine stage times (ms), in [`STAGES`] order.
    stages: Vec<[f64; 4]>,
    postings: Vec<f64>,
    counters: BTreeMap<String, u64>,
    groups: usize,
    rows: usize,
    table_bytes: usize,
    trace: Trace,
    /// Mean top-k overlap with brute force, per band.
    overlap: [f64; 3],
}

fn measure(env: &Env, seed: u64, iterations: usize, traced: bool, out: &mut Outcome) -> Pass {
    let db = &env.db;
    let session = db.session();
    let clocks = Clocks::start();
    let mut tracer = Tracer::new(traced, 0, clocks.origin());
    let mut prices: Vec<f64> = env.catalog.products.iter().map(|p| p.price).collect();
    let mut pass = Pass::default();
    let vindex = db.vector_index(TABLE);
    let tindex = db.text_index(TABLE);
    for Iteration { rows, query, band } in Requests::new(seed).take(iterations) {
        let new_prices: Vec<f64> = rows.iter().map(|r| price(r)).collect();
        out.attempted += 1;
        tracer.begin_request("request");
        let sent = if traced { rows.clone() } else { Vec::new() };
        let t0 = Instant::now();
        let res = tracer.time("core.insert", Role::EndToEnd, || {
            session.insert(TABLE, rows)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(()) => {
                pass.commits.push(ms);
                prices.extend(new_prices);
                if traced {
                    // `register` re-seals the rows since the last search.
                    tracer.time("storage.tail_seal", Role::Component, || {
                        let mut t = Table::new(schema());
                        for row in sent {
                            let _ = t.append_row(row);
                        }
                        let _ = t.flush();
                        std::hint::black_box(t.num_groups());
                    });
                }
            }
            Err(e) => out.fail(format!("commit: {e}")),
        }
        tracer.end_request();

        let (cutoff, plan) = CUTOFFS[band];
        let q = &env.queries[query];
        out.attempted += 1;
        tracer.begin_request("request");
        let before: Vec<u64> = if traced {
            STAGES.iter().map(|(_, c)| db.metrics().value(c)).collect()
        } else {
            Vec::new()
        };
        let t0 = Instant::now();
        let res = tracer.time("core.search", Role::EndToEnd, || {
            search(&session, q, cutoff)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(hits) => {
                pass.searches.push(ms);
                if hits.len() != K {
                    out.fail(format!(
                        "search price<{cutoff}: {} hits, want {K}",
                        hits.len()
                    ));
                }
                if let Some((row, _)) = hits
                    .iter()
                    .find(|(r, _)| prices.get(*r as usize).is_none_or(|p| *p >= cutoff))
                {
                    out.fail(format!("search price<{cutoff}: row {row} fails the filter"));
                }
            }
            Err(e) => out.fail(e),
        }
        if traced {
            let mut stage = [0.0; 4];
            for (s, (b, (_, c))) in stage.iter_mut().zip(before.iter().zip(STAGES)) {
                *s = (db.metrics().value(c).saturating_sub(*b)) as f64 / 1e6;
            }
            pass.stages.push(stage);
            let mask: Vec<bool> = prices.iter().map(|p| *p < cutoff).collect();
            let keep = |row: u64| mask.get(row as usize).copied().unwrap_or(false);
            if let Some(t) = db.catalog().table(TABLE) {
                tracer.time("query.analyze", Role::Component, || {
                    std::hint::black_box(analyze_table(&t));
                });
            }
            if let Some(v) = &vindex {
                let pass_frac = mask.iter().filter(|&&b| b).count() as f64 / mask.len() as f64;
                match plan {
                    "exact" => tracer.time("vector.exact_scan", Role::Component, || {
                        let mut acc = TopK::new(CANDIDATES);
                        for (row, _) in mask.iter().enumerate().filter(|(_, &b)| b) {
                            if let Some(d) = v.distance_of(&q.embedding, row as u64) {
                                acc.push(row as u64, d);
                            }
                        }
                        std::hint::black_box(acc.into_hits());
                    }),
                    "pre" => tracer.time("vector.masked_search", Role::Component, || {
                        std::hint::black_box(v.search_masked(&q.embedding, CANDIDATES, &keep));
                    }),
                    _ => {
                        let fetch = (CANDIDATES as f64 / pass_frac.max(1e-6) * 2.0).ceil() as usize;
                        tracer.time("vector.search", Role::Component, || {
                            std::hint::black_box(v.search_with(
                                &q.embedding,
                                fetch,
                                Parallelism::Serial,
                            ));
                        })
                    }
                }
            }
            if let Some(t) = &tindex {
                let terms = tokenize(&q.keyword);
                let (_, work) = tracer.time("text.bm25", Role::Component, || {
                    rank_terms_filtered_counted(t, &terms, CANDIDATES, Bm25Params::default(), &keep)
                });
                pass.postings.push(work.postings_scored as f64);
            }
        }
        tracer.end_request();
    }
    pass.window_s = clocks.elapsed_s();
    pass.cpu_s = clocks.cpu_s();
    pass.steal = clocks.steal_share();
    pass.peak_rss_mb = peak_rss_mb();
    pass.counters = db.metrics().snapshot();
    if let Some(t) = db.catalog().table(TABLE) {
        pass.groups = t.num_groups();
        pass.rows = t.num_rows();
        pass.table_bytes = t.byte_size();
    }
    pass.trace = Trace::merge(vec![tracer]);
    pass.overlap = check_quiesced(env, &session, out);
    pass
}

/// Re-run sampled queries on the quiesced table: the exact-scan band must
/// return the brute-force answer, the ANN bands must overlap it by at
/// least [`ANN_OVERLAP_FLOOR`] on average. Returns each band's mean
/// overlap.
fn check_quiesced(env: &Env, session: &Session, out: &mut Outcome) -> [f64; 3] {
    let mut means = [0.0; 3];
    for (band, &(cutoff, name)) in CUTOFFS.iter().enumerate() {
        let mut overlap = 0.0;
        for s in 0..SAMPLES_PER_BAND {
            let q = &env.queries[band + 3 * s];
            let (got, want) = match (search(session, q, cutoff), brute_force(env, q, cutoff)) {
                (Ok(g), Ok(w)) => (g, w),
                (Err(e), _) | (_, Err(e)) => {
                    out.fail(e);
                    continue;
                }
            };
            let want_rows: HashSet<u64> = want.iter().map(|h| h.0).collect();
            overlap += got.iter().filter(|h| want_rows.contains(&h.0)).count() as f64 / K as f64;
            if name == "exact" {
                let same = got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.0 == b.0 || (a.1 - b.1).abs() <= 1e-6 * b.1.abs().max(1.0));
                if !same {
                    out.fail(format!(
                        "exact band, query {}: {got:?} differs from brute force {want:?}",
                        band + 3 * s
                    ));
                }
            }
        }
        let mean = overlap / SAMPLES_PER_BAND as f64;
        means[band] = mean;
        if name != "exact" && mean < ANN_OVERLAP_FLOOR {
            out.fail(format!(
                "{name} band: mean top-{K} overlap {mean:.3} with brute force is below {ANN_OVERLAP_FLOOR}"
            ));
        }
    }
    means
}

fn describe(out: &mut Outcome, pass: &Pass) {
    out.meta_num("window_s", pass.window_s);
    out.meta_num("window_cpu_s", pass.cpu_s);
    out.meta_num("steal_share", pass.steal);
    out.meta_num("products", PRODUCTS);
    out.meta_num("dim", DIM);
    out.meta_str("vector_index", "ivf(nlist=64, nprobe=8)");
    out.meta_num("rows_per_commit", ROWS_PER_COMMIT);
    out.meta_num("commit_samples", pass.commits.len());
    out.meta_num("search_samples", pass.searches.len());
    out.meta_num("final_rows", pass.rows);
    out.meta_num("final_row_groups", pass.groups);
    for ((_, band), overlap) in CUTOFFS.iter().zip(pass.overlap) {
        out.meta_num(&format!("overlap_{band}"), overlap);
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !args.trace {
        let (env, setup_time) = repeat_setup(SETUPS, || setup(args.seed))?;
        let pass = measure(&env, args.seed, iterations(args.seconds), false, &mut out);
        describe(&mut out, &pass);
        out.metric("setup_s", setup_time.cpu_s, "s");
        out.meta_num("setup_wall_s", setup_time.wall_s);
        let ops = (pass.commits.len() + pass.searches.len()) as f64;
        out.metric("ops_per_cpu_s", ops / pass.cpu_s, "1/cpu-s");
        out.meta_num("ops_per_s", ops / pass.window_s);
        let (commits, searches) = (&pass.commits[..], &pass.searches[..]);
        out.metric("p50_ms", unstolen_median(searches, pass.steal), "ms");
        out.metric("peak_rss_mb", pass.peak_rss_mb, "MB");
        out.meta_num("commit_p50_ms", median(commits));
        out.meta_num("search_p50_ms", median(searches));
        out.meta_tail("commit_p99_ms", commits, 0.99);
        out.meta_tail("search_p99_ms", searches, 0.99);
        return Ok(out);
    }
    let n = iterations(args.seconds);
    let base = measure(&setup(args.seed)?, args.seed, n, false, &mut out);
    let traced = measure(&setup(args.seed)?, args.seed, n, true, &mut out);
    describe(&mut out, &traced);
    let trace = &traced.trace;
    trace
        .write_jsonl(&trace_path("hybrid"))
        .map_err(|e| format!("write spans: {e}"))?;
    let own = trace.self_ms();
    let med = |name: &str| own.get(name).map_or(0.0, |v| median(v));
    out.metric(
        "trace.overhead_frac",
        median(&traced.searches) / median(&base.searches) - 1.0,
        "frac",
    );
    out.metric("hybrid.unaccounted_frac", trace.unaccounted_frac(), "frac");
    for (s, (metric, _)) in STAGES.iter().enumerate() {
        let v: Vec<f64> = traced.stages.iter().map(|st| st[s]).collect();
        out.metric(*metric, median(&v), "ms");
    }
    let staged: f64 = traced.stages.iter().flat_map(|s| s.iter()).sum();
    let searched: f64 = traced.searches.iter().sum();
    out.metric(
        "core.hybrid.unaccounted_frac",
        1.0 - staged / searched.max(1e-9),
        "frac",
    );
    for (metric, counter) in STRATEGIES {
        let n = base.counters.get(counter).copied().unwrap_or(0);
        out.metric(metric, n as f64 / base.searches.len().max(1) as f64, "frac");
    }
    out.metric("query.analyze_ms", med("query.analyze"), "ms");
    out.metric("storage.row_groups", traced.groups as f64, "count");
    out.metric(
        "storage.rows_per_group",
        traced.rows as f64 / traced.groups.max(1) as f64,
        "rows",
    );
    out.metric("storage.table_bytes", traced.table_bytes as f64, "bytes");
    out.metric("storage.tail_seal_ms", med("storage.tail_seal"), "ms");
    out.metric("vector.search_ms", med("vector.search"), "ms");
    out.metric("vector.masked_search_ms", med("vector.masked_search"), "ms");
    out.metric("vector.exact_scan_ms", med("vector.exact_scan"), "ms");
    out.metric("text.bm25_ms", med("text.bm25"), "ms");
    out.metric(
        "text.postings_scored_per_search",
        median(&traced.postings),
        "count",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_is_a_function_of_the_seed() {
        assert_eq!(transcript(5, 30), transcript(5, 30));
        assert_ne!(transcript(5, 30), transcript(6, 30));
    }
}
