//! Tokenization: lowercase word splitting with a small stopword list.

/// English stopwords: dropped from queries; the index counts them toward a
/// document's length but stores no postings for them.
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "he", "in", "is", "it",
    "its", "of", "on", "or", "that", "the", "to", "was", "were", "will", "with",
];

pub(crate) fn is_stopword(t: &str) -> bool {
    STOPWORDS.contains(&t)
}

/// Split text into lowercase alphanumeric tokens, dropping stopwords.
pub fn tokenize(text: &str) -> Vec<String> {
    tokenize_with(text, true)
}

/// The words of `text` as written: maximal runs of alphanumeric chars. A
/// token is a word lowercased by `str::to_lowercase`.
pub(crate) fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Tokenize, optionally keeping stopwords (with them, these are the tokens
/// the index counts toward a document's length).
pub(crate) fn tokenize_with(text: &str, drop_stopwords: bool) -> Vec<String> {
    words(text)
        .map(|t| t.to_lowercase())
        .filter(|t| !drop_stopwords || !is_stopword(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
    }

    #[test]
    fn drops_stopwords() {
        assert_eq!(tokenize("the cat and the hat"), vec!["cat", "hat"]);
    }

    #[test]
    fn keeps_stopwords_when_asked() {
        assert_eq!(tokenize_with("the cat", false), vec!["the", "cat"]);
    }

    #[test]
    fn numbers_survive() {
        assert_eq!(
            tokenize("tpc-h scale 1000"),
            vec!["tpc", "h", "scale", "1000"]
        );
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("...!!!").is_empty());
    }

    #[test]
    fn unicode_handled() {
        assert_eq!(tokenize("café menü"), vec!["café", "menü"]);
    }
}
