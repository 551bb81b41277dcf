//! Term-frequency inverted index: the per-posting data BM25 reads.

use crate::bm25::Accumulator;
use crate::tokenize::{is_stopword, words};
use std::collections::HashMap;
use std::sync::Mutex;

/// A posting: one document containing a term, with the term's frequency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Document id.
    pub doc: u64,
    /// Occurrences of the term in `doc`.
    pub tf: u32,
    /// Token count of `doc`, denormalized into every posting at index build
    /// so BM25's length normalization reads it inline instead of chasing a
    /// per-document length map at query time.
    pub doc_len: u32,
}

/// An inverted index over documents of text.
///
/// A document's length counts every token, stopwords included, but
/// stopwords get no postings: query tokenization drops them, so no lookup
/// would ever read one.
///
/// Document ids are meant to be dense (the engine uses row ordinals): BM25
/// ranking accumulates into an array indexed by id, sized by the largest id.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    num_docs: usize,
    total_tokens: u64,
    /// Smallest id the next document may take: ids (row ordinals) arrive in
    /// increasing order, so each term's postings stay sorted by document.
    next_doc: u64,
    /// BM25 accumulators, one checked out per in-flight ranking call.
    accumulators: Mutex<Vec<Accumulator>>,
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Index a document. Ids must increase from call to call; a repeated or
    /// smaller id panics in debug builds.
    ///
    /// Tokens are lowercased into one buffer (an ASCII word in place, any
    /// other through `str::to_lowercase`, as `tokenize` does), and a term's
    /// frequency is its run length among the sorted token spans, so a term
    /// allocates a `String` only when the index first sees it.
    pub fn add_document(&mut self, doc: u64, text: &str) {
        debug_assert!(doc >= self.next_doc, "document {doc} out of order");
        self.next_doc = doc + 1;
        let mut lower = String::with_capacity(text.len());
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut doc_len = 0u32;
        for word in words(text) {
            doc_len += 1;
            let start = lower.len();
            if word.is_ascii() {
                lower.push_str(word);
                lower[start..].make_ascii_lowercase();
            } else {
                lower.push_str(&word.to_lowercase());
            }
            if !is_stopword(&lower[start..]) {
                spans.push((start, lower.len()));
            }
        }
        self.num_docs += 1;
        self.total_tokens += u64::from(doc_len);
        let term = |&(start, end): &(usize, usize)| &lower[start..end];
        spans.sort_unstable_by_key(term);
        for run in spans.chunk_by(|a, b| term(a) == term(b)) {
            let posting = Posting {
                doc,
                tf: run.len() as u32,
                doc_len,
            };
            match self.postings.get_mut(term(&run[0])) {
                Some(list) => list.push(posting),
                None => {
                    self.postings
                        .insert(term(&run[0]).to_owned(), vec![posting]);
                }
            }
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Average document length in tokens (0 when empty).
    pub fn avg_doc_len(&self) -> f64 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_tokens as f64 / self.num_docs as f64
        }
    }

    /// Postings for a term (lowercase), in document order.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.postings.get(term).map(|p| p.as_slice()).unwrap_or(&[])
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// One past the largest document id indexed so far.
    pub(crate) fn doc_id_bound(&self) -> usize {
        self.next_doc as usize
    }

    pub(crate) fn take_accumulator(&self) -> Accumulator {
        self.accumulators
            .lock()
            .expect("accumulator pool lock")
            .pop()
            .unwrap_or_default()
    }

    pub(crate) fn return_accumulator(&self, acc: Accumulator) {
        self.accumulators
            .lock()
            .expect("accumulator pool lock")
            .push(acc);
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
        assert_eq!(ix.postings("fox")[0].doc_len, 4);
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
        assert_eq!(p.tf, 2);
    }

    #[test]
    fn stopwords_count_toward_length_but_have_no_postings() {
        let ix = index();
        assert_eq!(ix.doc_freq("the"), 0);
        // "the lazy brown dog": four tokens, one of them a stopword.
        let p = ix.postings("dog").iter().find(|p| p.doc == 2).unwrap();
        assert_eq!((p.tf, p.doc_len), (1, 4));
    }

    #[test]
    fn postings_follow_document_order() {
        let ix = index();
        let docs: Vec<u64> = ix.postings("quick").iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![1, 3]);
    }

    /// The index built from `tokenize_with(text, false)` with per-document
    /// counting, term by term: every posting, `num_docs` and `avg_doc_len`
    /// must come out identical.
    #[test]
    fn postings_match_reference_tokenizer() {
        use crate::tokenize::tokenize_with;
        use std::collections::BTreeMap;
        let docs = [
            "The Quick BROWN fox",
            "quick Quick QUICK slow, quick",
            "THE And of a",
            "",
            "...!!! --- ",
            "tpc-h SF1000 x1y2 1000 1000",
            "ΟΔΟΣ οδος Οδός ΟΔΟΣ",
            "İstanbul istanbul ISTANBUL",
            "café Menü CAFÉ menü MENÜ",
            "brown fox; the LAZY dog, the brown DOG",
        ];
        let mut ix = InvertedIndex::new();
        let mut reference: BTreeMap<String, Vec<Posting>> = BTreeMap::new();
        let mut total_tokens = 0usize;
        for (doc, text) in docs.iter().enumerate() {
            let doc = doc as u64 * 2;
            ix.add_document(doc, text);
            let tokens = tokenize_with(text, false);
            let doc_len = tokens.len() as u32;
            total_tokens += tokens.len();
            let mut tf: BTreeMap<String, u32> = BTreeMap::new();
            for tok in tokens.into_iter().filter(|t| !is_stopword(t)) {
                *tf.entry(tok).or_default() += 1;
            }
            for (term, tf) in tf {
                reference
                    .entry(term)
                    .or_default()
                    .push(Posting { doc, tf, doc_len });
            }
        }
        assert!(reference.contains_key("οδος"), "final sigma lost");
        for (term, postings) in &reference {
            assert_eq!(ix.postings(term), postings.as_slice(), "term {term:?}");
        }
        assert_eq!(ix.postings.len(), reference.len());
        assert_eq!(ix.num_docs(), docs.len());
        assert_eq!(ix.avg_doc_len(), total_tokens as f64 / docs.len() as f64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of order")]
    fn repeated_document_id_is_rejected() {
        let mut ix = index();
        ix.add_document(3, "again");
    }
}
