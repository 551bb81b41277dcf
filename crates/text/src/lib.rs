//! # backbone-text
//!
//! Keyword search substrate — the "keywords" in the paper's hybrid-workload
//! complaint (*"solutions are crappy when you combine diverse workloads like
//! vectors, keywords, and relational queries"*).
//!
//! - [`tokenize`]: lowercasing word tokenizer with a stopword list,
//! - [`index`]: term-frequency inverted index,
//! - [`bm25`]: Okapi BM25 ranking.

pub mod bm25;
pub mod index;
pub mod tokenize;

pub use bm25::Bm25Params;
pub use index::InvertedIndex;

/// A ranked text-search hit (higher score = better match).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// Document id supplied at insert time.
    pub doc: u64,
    /// BM25 relevance score.
    pub score: f64,
}
