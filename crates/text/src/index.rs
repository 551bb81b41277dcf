//! Positional inverted index.

use crate::tokenize::tokenize_with;
use std::collections::{BTreeMap, HashMap};

/// A posting: one document containing a term, with token positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Document id.
    pub doc: u64,
    /// Zero-based token positions of the term within the document.
    pub positions: Vec<u32>,
    /// Token count of `doc`, denormalized into every posting at index build
    /// so BM25's length normalization reads it inline instead of chasing a
    /// per-posting `doc_len` map lookup at query time.
    pub doc_len: u32,
}

/// A positional inverted index over documents of text.
///
/// Documents are tokenized with stopwords *kept* (so phrase positions are
/// faithful); BM25 and term queries simply never look up stopwords because
/// query tokenization drops them.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    doc_len: BTreeMap<u64, u32>,
    total_tokens: u64,
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Index a document. Re-adding an existing id replaces nothing and
    /// panics in debug builds; use fresh ids.
    pub fn add_document(&mut self, doc: u64, text: &str) {
        debug_assert!(
            !self.doc_len.contains_key(&doc),
            "document {doc} already indexed"
        );
        let tokens = tokenize_with(text, false);
        let doc_len = tokens.len() as u32;
        self.doc_len.insert(doc, doc_len);
        self.total_tokens += tokens.len() as u64;
        let mut per_term: HashMap<&str, Vec<u32>> = HashMap::new();
        for (pos, tok) in tokens.iter().enumerate() {
            per_term.entry(tok).or_default().push(pos as u32);
        }
        for (term, positions) in per_term {
            self.postings
                .entry(term.to_string())
                .or_default()
                .push(Posting {
                    doc,
                    positions,
                    doc_len,
                });
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Average document length in tokens (0 when empty).
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_tokens as f64 / self.doc_len.len() as f64
        }
    }

    /// Length (token count) of one document.
    pub fn doc_len(&self, doc: u64) -> Option<u32> {
        self.doc_len.get(&doc).copied()
    }

    /// All indexed document ids.
    pub fn doc_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.doc_len.keys().copied()
    }

    /// Postings for a term (lowercase).
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.postings.get(term).map(|p| p.as_slice()).unwrap_or(&[])
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Documents containing the exact token sequence `phrase`.
    pub fn phrase_docs(&self, phrase: &[String]) -> Vec<u64> {
        let Some(first) = phrase.first() else {
            return Vec::new();
        };
        let mut result = Vec::new();
        'docs: for p0 in self.postings(first) {
            // For each start position, check the rest of the phrase.
            'starts: for &start in &p0.positions {
                for (offset, term) in phrase.iter().enumerate().skip(1) {
                    let want = start + offset as u32;
                    let Some(p) = self.postings(term).iter().find(|p| p.doc == p0.doc) else {
                        continue 'docs;
                    };
                    if p.positions.binary_search(&want).is_err() {
                        continue 'starts;
                    }
                }
                result.push(p0.doc);
                continue 'docs;
            }
        }
        result.sort_unstable();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add_document(1, "the quick brown fox");
        ix.add_document(2, "the lazy brown dog");
        ix.add_document(3, "quick quick slow");
        ix
    }

    #[test]
    fn doc_stats() {
        let ix = index();
        assert_eq!(ix.num_docs(), 3);
        assert_eq!(ix.doc_len(1), Some(4));
        assert!((ix.avg_doc_len() - 11.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn postings_and_frequency() {
        let ix = index();
        assert_eq!(ix.doc_freq("brown"), 2);
        assert_eq!(ix.doc_freq("fox"), 1);
        assert_eq!(ix.doc_freq("missing"), 0);
        // "quick" appears twice in doc 3.
        let p = ix.postings("quick").iter().find(|p| p.doc == 3).unwrap();
        assert_eq!(p.positions, vec![0, 1]);
    }

    #[test]
    fn phrase_matching() {
        let ix = index();
        let phrase: Vec<String> = vec!["quick".into(), "brown".into()];
        assert_eq!(ix.phrase_docs(&phrase), vec![1]);
        let phrase2: Vec<String> = vec!["brown".into(), "dog".into()];
        assert_eq!(ix.phrase_docs(&phrase2), vec![2]);
        let no: Vec<String> = vec!["brown".into(), "fox".into(), "dog".into()];
        assert!(ix.phrase_docs(&no).is_empty());
    }

    #[test]
    fn phrase_with_stopwords_positions() {
        let ix = index();
        // Stopwords are indexed, so "the quick" is a real phrase in doc 1.
        let phrase: Vec<String> = vec!["the".into(), "quick".into()];
        assert_eq!(ix.phrase_docs(&phrase), vec![1]);
    }

    #[test]
    fn empty_phrase() {
        assert!(index().phrase_docs(&[]).is_empty());
    }

    #[test]
    fn repeated_phrase_doc_reported_once() {
        let mut ix = InvertedIndex::new();
        ix.add_document(7, "ab cd ab cd");
        let phrase: Vec<String> = vec!["ab".into(), "cd".into()];
        assert_eq!(ix.phrase_docs(&phrase), vec![7]);
    }
}
