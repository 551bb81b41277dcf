//! Okapi BM25 ranking.

use crate::index::InvertedIndex;
use crate::tokenize::tokenize;
use crate::ScoredDoc;

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

/// Reusable per-query accumulator: a dense score per document id, a bitset
/// of the ids this query has touched, and the touched ids in first-touch
/// order. Finishing a query clears only the touched bits, so no query pays
/// an O(docs) wipe. Checked out of [`InvertedIndex`]'s pool per query, the
/// way HNSW pools its visited arrays.
#[derive(Debug, Default)]
pub(crate) struct Accumulator {
    scores: Vec<f64>,
    seen: Vec<u64>,
    touched: Vec<u64>,
}

impl Accumulator {
    /// Size for document ids `0..docs`.
    fn begin(&mut self, docs: usize) {
        if self.scores.len() < docs {
            self.scores.resize(docs, 0.0);
            self.seen.resize(docs.div_ceil(64), 0);
        }
    }

    /// Add `contribution` to `doc`'s score.
    #[inline]
    fn add(&mut self, doc: u64, contribution: f64) {
        let d = doc as usize;
        let (word, bit) = (d / 64, 1u64 << (d % 64));
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.scores[d] = 0.0;
            self.touched.push(doc);
        }
        self.scores[d] += contribution;
    }

    /// Drain the touched documents with their scores, leaving the
    /// accumulator clear for the next query.
    fn finish(&mut self) -> Vec<ScoredDoc> {
        let scores = &self.scores;
        let seen = &mut self.seen;
        self.touched
            .drain(..)
            .map(|doc| {
                seen[doc as usize / 64] = 0;
                ScoredDoc {
                    doc,
                    score: scores[doc as usize],
                }
            })
            .collect()
    }
}

/// Rank pre-tokenized `terms` over the documents passing `keep`, returning
/// the top `k` by descending BM25 score (ties broken by doc id for
/// determinism) and the work performed. Stopwords have no postings, so
/// `terms` should come from [`tokenize`]. Pushing the filter into scoring is
/// how a co-located engine restricts relevance to a relational predicate
/// instead of over-fetching and discarding; unfiltered callers pass
/// `&|_| true`.
///
/// The per-posting cost is one multiply-add on the posting's cached
/// `doc_len` and one add into a dense per-document accumulator: the
/// length-normalization factors that do not depend on the document
/// (`k1·(1-b)` and `k1·b/avgdl`) are hoisted out of the loop. Each
/// document's contributions add in query-term order. Only the best `k` of
/// the touched documents are sorted.
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
    let mut acc = index.take_accumulator();
    acc.begin(index.doc_id_bound());
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
            let tf = f64::from(p.tf);
            let denom = tf + c0 + c1 * p.doc_len as f64;
            work.postings_scored += 1;
            acc.add(p.doc, idf * tf * tf_scale / denom);
        }
    }
    let mut ranked = acc.finish();
    index.return_accumulator(acc);
    let order = |a: &ScoredDoc, b: &ScoredDoc| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc));
    if ranked.len() > k {
        ranked.select_nth_unstable_by(k - 1, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
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
        let tf = f64::from(p.tf);
        let dl = p.doc_len as f64;
        let denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl);
        score += idf * tf * (params.k1 + 1.0) / denom;
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    fn search(index: &InvertedIndex, query: &str, k: usize, params: Bm25Params) -> Vec<ScoredDoc> {
        rank_terms_filtered_counted(index, &tokenize(query), k, params, &|_| true).0
    }

    const DOCS: [(u64, &str); 4] = [
        (1, "rust database engine"),
        (2, "rust rust rust everywhere"),
        (3, "database systems and database research"),
        (4, "cooking with garlic"),
    ];

    fn index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        for (doc, text) in DOCS {
            ix.add_document(doc, text);
        }
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
                let (_, text) = DOCS.iter().find(|(doc, _)| *doc == p.doc).unwrap();
                // Every token counts, stopwords ("and", "with") included.
                assert_eq!(p.doc_len as usize, text.split_whitespace().count());
            }
        }
    }

    #[test]
    fn counted_variants_report_work_and_agree() {
        let ix = index();
        let terms: Vec<String> = vec!["rust".into(), "database".into()];
        let plain = search(&ix, "the rust and database", 10, Bm25Params::default());
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

    /// BM25 from raw token lists, with no index: tf counts occurrences, dl
    /// counts every token (stopwords included), avgdl averages over every
    /// document (the empty one included), and each term's contributions add
    /// in query order. Scores must match bit for bit.
    #[test]
    fn matches_a_reference_built_from_raw_tokens() {
        let corpus = [
            (0u64, "the quick brown fox and the lazy dog"),
            (1, "quick quick quick brown"),
            (2, ""),
            (3, "a fox is in the den"),
            (4, "brown bread with brown butter and a fox"),
            (5, "the the the"),
        ];
        let mut ix = InvertedIndex::new();
        for (doc, text) in corpus {
            ix.add_document(doc, text);
        }
        let raw: Vec<(u64, Vec<&str>)> = corpus
            .iter()
            .map(|&(doc, text)| (doc, text.split_whitespace().collect()))
            .collect();
        let n = raw.len() as f64;
        let avgdl = raw.iter().map(|(_, t)| t.len()).sum::<usize>() as f64 / n;
        let p = Bm25Params::default();
        let (c0, c1) = (p.k1 * (1.0 - p.b), p.k1 * p.b / avgdl);
        let queries = [
            "fox",
            "quick brown",
            "brown fox dog",
            "the fox",
            "den bread quick lazy",
            "missing",
            "the and a",
        ];
        for query in queries {
            let terms = tokenize(query);
            let mut scores: BTreeMap<u64, f64> = BTreeMap::new();
            for term in &terms {
                let matches: Vec<(u64, f64, f64)> = raw
                    .iter()
                    .map(|(doc, toks)| {
                        let tf = toks.iter().filter(|t| **t == term.as_str()).count();
                        (*doc, tf as f64, toks.len() as f64)
                    })
                    .filter(|&(_, tf, _)| tf > 0.0)
                    .collect();
                let df = matches.len() as f64;
                let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                for (doc, tf, dl) in matches {
                    *scores.entry(doc).or_insert(0.0) +=
                        idf * tf * (p.k1 + 1.0) / (tf + c0 + c1 * dl);
                }
            }
            let mut want: Vec<(u64, u64)> =
                scores.into_iter().map(|(d, s)| (d, s.to_bits())).collect();
            want.sort_by(|a, b| {
                f64::from_bits(b.1)
                    .total_cmp(&f64::from_bits(a.1))
                    .then(a.0.cmp(&b.0))
            });
            for k in [2, 10] {
                let (got, _) = rank_terms_filtered_counted(&ix, &terms, k, p, &|_| true);
                let got: Vec<(u64, u64)> = got.iter().map(|h| (h.doc, h.score.to_bits())).collect();
                let want = &want[..want.len().min(k)];
                assert_eq!(got, want, "query {query:?}, k {k}");
            }
        }
    }

    /// The filtered top-k against a `HashMap` accumulator and a full sort
    /// (the shape the dense accumulator replaced), with k below the number
    /// of passing matches and a run of tied scores straddling the cut.
    #[test]
    fn filtered_partial_top_k_matches_a_hash_map_reference() {
        let mut ix = InvertedIndex::new();
        let texts = [
            "red apple pie",
            "green apple",
            "red apple pie",
            "apple",
            "red apple pie",
            "red apple pie",
            "pie crust recipe",
            "red apple pie",
            "apple red red",
            "red apple pie",
            "a red apple pie",
            "red apple pie",
        ];
        for (doc, text) in texts.iter().enumerate() {
            ix.add_document(doc as u64, text);
        }
        let p = Bm25Params::default();
        let keep = |doc: u64| doc != 2 && doc != 8;
        let terms = tokenize("red apple pie");
        let mut reference: HashMap<u64, f64> = HashMap::new();
        let n = ix.num_docs();
        let avgdl = ix.avg_doc_len();
        for term in &terms {
            let postings = ix.postings(term);
            let idf = idf(n, postings.len());
            for post in postings.iter().filter(|post| keep(post.doc)) {
                let tf = f64::from(post.tf);
                let denom = tf + p.k1 * (1.0 - p.b) + p.k1 * p.b / avgdl * post.doc_len as f64;
                *reference.entry(post.doc).or_insert(0.0) += idf * tf * (p.k1 + 1.0) / denom;
            }
        }
        let mut want: Vec<(u64, u64)> = reference.iter().map(|(&d, &s)| (d, s.to_bits())).collect();
        want.sort_by(|a, b| {
            f64::from_bits(b.1)
                .total_cmp(&f64::from_bits(a.1))
                .then(a.0.cmp(&b.0))
        });
        // Docs 0, 4, 5, 7, 9 and 11 tie at the top; k = 3 cuts the run.
        let top = want[0].1;
        assert!(want.iter().filter(|w| w.1 == top).count() > 3);
        for k in [1, 3, 5, 6, 7, want.len(), want.len() + 3] {
            let (got, _) = rank_terms_filtered_counted(&ix, &terms, k, p, &keep);
            let got: Vec<(u64, u64)> = got.iter().map(|h| (h.doc, h.score.to_bits())).collect();
            assert_eq!(got, want[..k.min(want.len())], "k {k}");
        }
        assert_eq!(&want[..3], &[(0, top), (4, top), (5, top)]);
    }
}
