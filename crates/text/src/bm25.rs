//! Okapi BM25 ranking.

use crate::index::InvertedIndex;
use crate::tokenize::tokenize;
use crate::ScoredDoc;
use std::collections::HashMap;

/// BM25 tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct Bm25Params {
    /// Term-frequency saturation (typical 1.2).
    pub k1: f64,
    /// Length normalization strength (typical 0.75).
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// Work accounting for one ranking call, surfaced so the engine's metrics
/// registry can record it (this crate stays dependency-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bm25Work {
    /// Postings whose contribution was computed.
    pub postings_scored: u64,
}

/// Robertson-Sparck-Jones IDF with the +1 floor that keeps scores positive.
fn idf(n_docs: usize, df: usize) -> f64 {
    (((n_docs as f64 - df as f64 + 0.5) / (df as f64 + 0.5)) + 1.0).ln()
}

/// Score every document matching any query term; returns the top `k` by
/// descending BM25 score (ties broken by doc id for determinism).
pub fn search(index: &InvertedIndex, query: &str, k: usize, params: Bm25Params) -> Vec<ScoredDoc> {
    rank_terms_filtered_counted(index, &tokenize(query), k, params, &|_| true).0
}

/// Rank pre-tokenized `terms` over the documents passing `keep`, returning
/// the top `k` and the work performed. Pushing the filter into scoring is
/// how a co-located engine restricts relevance to a relational predicate
/// instead of over-fetching and discarding; unfiltered callers pass
/// `&|_| true`.
///
/// The per-posting cost is one multiply-add on the posting's cached
/// `doc_len`: the length-normalization factors that do not depend on the
/// document (`k1·(1-b)` and `k1·b/avgdl`) are hoisted out of the loop.
pub fn rank_terms_filtered_counted(
    index: &InvertedIndex,
    terms: &[String],
    k: usize,
    params: Bm25Params,
    keep: &dyn Fn(u64) -> bool,
) -> (Vec<ScoredDoc>, Bm25Work) {
    let mut work = Bm25Work::default();
    if k == 0 || terms.is_empty() {
        return (Vec::new(), work);
    }
    let n = index.num_docs();
    let avgdl = index.avg_doc_len().max(1e-9);
    // denom = tf + k1·(1-b) + (k1·b/avgdl)·dl
    let c0 = params.k1 * (1.0 - params.b);
    let c1 = params.k1 * params.b / avgdl;
    let tf_scale = params.k1 + 1.0;
    let mut scores: HashMap<u64, f64> = HashMap::new();
    for term in terms {
        let postings = index.postings(term);
        if postings.is_empty() {
            continue;
        }
        let idf = idf(n, postings.len());
        for p in postings {
            if !keep(p.doc) {
                continue;
            }
            let tf = p.positions.len() as f64;
            let denom = tf + c0 + c1 * p.doc_len as f64;
            work.postings_scored += 1;
            *scores.entry(p.doc).or_insert(0.0) += idf * tf * tf_scale / denom;
        }
    }
    let mut ranked: Vec<ScoredDoc> = scores
        .into_iter()
        .map(|(doc, score)| ScoredDoc { doc, score })
        .collect();
    ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
    ranked.truncate(k);
    (ranked, work)
}

/// BM25 score of a single document for a query (0.0 when it matches no term).
pub fn score_doc(index: &InvertedIndex, query: &str, doc: u64, params: Bm25Params) -> f64 {
    let terms = tokenize(query);
    let n = index.num_docs();
    let avgdl = index.avg_doc_len().max(1e-9);
    let mut score = 0.0;
    for term in &terms {
        let postings = index.postings(term);
        let Some(p) = postings.iter().find(|p| p.doc == doc) else {
            continue;
        };
        let idf = idf(n, postings.len());
        let tf = p.positions.len() as f64;
        let dl = p.doc_len as f64;
        let denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl);
        score += idf * tf * (params.k1 + 1.0) / denom;
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add_document(1, "rust database engine");
        ix.add_document(2, "rust rust rust everywhere");
        ix.add_document(3, "database systems and database research");
        ix.add_document(4, "cooking with garlic");
        ix
    }

    #[test]
    fn relevant_docs_rank_higher() {
        let hits = search(&index(), "rust", 10, Bm25Params::default());
        assert_eq!(hits.len(), 2);
        // Doc 2 has tf=3 for "rust": it must outrank doc 1.
        assert_eq!(hits[0].doc, 2);
        assert_eq!(hits[1].doc, 1);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn multi_term_union() {
        let hits = search(&index(), "rust database", 10, Bm25Params::default());
        let docs: Vec<u64> = hits.iter().map(|h| h.doc).collect();
        assert!(docs.contains(&1) && docs.contains(&2) && docs.contains(&3));
        assert!(!docs.contains(&4));
        // Doc 1 matches both terms: expect it first.
        assert_eq!(hits[0].doc, 1);
    }

    #[test]
    fn rare_terms_weigh_more() {
        let ix = index();
        // "engine" (df=1) should outscore "database" (df=2) at equal tf.
        let e = score_doc(&ix, "engine", 1, Bm25Params::default());
        let d = score_doc(&ix, "database", 1, Bm25Params::default());
        assert!(e > d);
    }

    #[test]
    fn no_match_scores_zero() {
        assert_eq!(score_doc(&index(), "zzz", 1, Bm25Params::default()), 0.0);
        assert!(search(&index(), "zzz", 5, Bm25Params::default()).is_empty());
    }

    #[test]
    fn k_truncates() {
        let hits = search(&index(), "rust database", 1, Bm25Params::default());
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scores_positive() {
        for h in search(&index(), "rust database cooking", 10, Bm25Params::default()) {
            assert!(h.score > 0.0);
        }
    }

    #[test]
    fn length_normalization_penalizes_long_docs() {
        let mut ix = InvertedIndex::new();
        ix.add_document(1, "apple");
        ix.add_document(2, &format!("apple {}", "filler ".repeat(100)));
        let hits = search(&ix, "apple", 2, Bm25Params::default());
        assert_eq!(hits[0].doc, 1, "short doc with same tf should rank first");
    }

    #[test]
    fn cached_doc_len_matches_index_map() {
        let ix = index();
        for term in ["rust", "database", "cooking"] {
            for p in ix.postings(term) {
                assert_eq!(Some(p.doc_len), ix.doc_len(p.doc));
            }
        }
    }

    #[test]
    fn counted_variants_report_work_and_agree() {
        let ix = index();
        let terms: Vec<String> = vec!["rust".into(), "database".into()];
        let plain = search(&ix, "rust database", 10, Bm25Params::default());
        let (counted, work) =
            rank_terms_filtered_counted(&ix, &terms, 10, Bm25Params::default(), &|_| true);
        assert_eq!(plain, counted);
        // "rust" has 2 postings, "database" 2: all scored.
        assert_eq!(work.postings_scored, 4);

        let keep = |doc: u64| doc != 2;
        let (filtered, fwork) =
            rank_terms_filtered_counted(&ix, &terms, 10, Bm25Params::default(), &keep);
        assert!(filtered.iter().all(|h| h.doc != 2));
        assert_eq!(fwork.postings_scored, 3, "skipped postings are not scored");
    }
}
