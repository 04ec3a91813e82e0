//! In-memory inverted index with BM25 statistics.

use crate::corpus::Document;
use crate::tokenize::tokenize;
use std::collections::HashMap;

/// One posting: a document containing the term and its term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document containing the term.
    pub doc: u32,
    /// Term frequency within that document.
    pub tf: u32,
}

/// An index shard over a set of documents.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    doc_len: HashMap<u32, u32>,
    /// First words of each document, kept as the result snippet (and the
    /// text the categorise function classifies).
    snippets: HashMap<u32, String>,
    total_len: u64,
}

impl InvertedIndex {
    /// Build an index over `docs`.
    pub fn build(docs: &[Document]) -> Self {
        let mut idx = Self::default();
        for d in docs {
            idx.add(d);
        }
        idx
    }

    /// Add one document to the index.
    pub fn add(&mut self, doc: &Document) {
        let terms = tokenize(&doc.body);
        let mut tf: HashMap<&str, u32> = HashMap::new();
        for t in &terms {
            *tf.entry(t.as_str()).or_insert(0) += 1;
        }
        for (term, f) in tf {
            self.postings
                .entry(term.to_string())
                .or_default()
                .push(Posting { doc: doc.id, tf: f });
        }
        self.doc_len.insert(doc.id, terms.len() as u32);
        self.total_len += terms.len() as u64;
        // Snippet: enough of the body to carry the category markers.
        let snippet: String = doc
            .body
            .split_whitespace()
            .filter(|w| w.starts_with("category:"))
            .chain(doc.body.split_whitespace().take(12))
            .collect::<Vec<_>>()
            .join(" ");
        self.snippets.insert(doc.id, snippet);
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Mean document length in terms.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// Posting list of `term`, if indexed.
    pub fn postings(&self, term: &str) -> Option<&[Posting]> {
        self.postings.get(term).map(Vec::as_slice)
    }

    /// Length of `doc` in terms (0 if unknown).
    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_len.get(&doc).copied().unwrap_or(0)
    }

    /// Snippet text stored for `doc`.
    pub fn snippet(&self, doc: u32) -> &str {
        self.snippets.get(&doc).map(String::as_str).unwrap_or("")
    }

    /// Document frequency of a term within this shard.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.postings.get(term).map(Vec::len).unwrap_or(0)
    }

    /// Iterate over `(term, document frequency)` pairs (for building
    /// corpus-global statistics).
    pub fn term_doc_freqs(&self) -> impl Iterator<Item = (&str, usize)> {
        self.postings.iter().map(|(t, p)| (t.as_str(), p.len()))
    }
}

/// Corpus-global collection statistics, shared by all shards so that
/// distributed scoring matches single-index scoring exactly (the
/// distributed-IDF problem real Solr deployments configure around).
#[derive(Debug, Clone, Default)]
pub struct GlobalStats {
    /// Documents across all shards.
    pub num_docs: usize,
    /// Total term count across all shards.
    pub total_len: u64,
    /// Corpus-wide document frequency per term.
    pub doc_freq: HashMap<String, usize>,
}

impl GlobalStats {
    /// Merge the statistics of all shards.
    pub fn from_shards<'a>(shards: impl IntoIterator<Item = &'a InvertedIndex>) -> Self {
        let mut g = GlobalStats::default();
        for s in shards {
            g.num_docs += s.num_docs();
            g.total_len += s.total_len;
            for (term, df) in s.term_doc_freqs() {
                *g.doc_freq.entry(term.to_string()).or_insert(0) += df;
            }
        }
        g
    }

    /// Corpus-wide mean document length in terms.
    pub fn avg_doc_len(&self) -> f64 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_len as f64 / self.num_docs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u32, body: &str) -> Document {
        Document {
            id,
            title: format!("d{id}"),
            body: body.to_string(),
            base_category: 0,
        }
    }

    #[test]
    fn builds_postings_with_frequencies() {
        let idx = InvertedIndex::build(&[doc(0, "apple banana apple"), doc(1, "banana cherry")]);
        assert_eq!(idx.num_docs(), 2);
        let apple = idx.postings("apple").unwrap();
        assert_eq!(apple, &[Posting { doc: 0, tf: 2 }]);
        let banana = idx.postings("banana").unwrap();
        assert_eq!(banana.len(), 2);
        assert!(idx.postings("missing").is_none());
    }

    #[test]
    fn tracks_lengths_and_average() {
        let idx = InvertedIndex::build(&[doc(0, "one two three"), doc(1, "one")]);
        assert_eq!(idx.doc_len(0), 3);
        assert_eq!(idx.doc_len(1), 1);
        assert!((idx.avg_doc_len() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn snippet_preserves_category_markers() {
        let idx = InvertedIndex::build(&[doc(0, "lots of words here category:science more words")]);
        assert!(idx.snippet(0).contains("category:science"));
    }

    #[test]
    fn empty_index_is_sane() {
        let idx = InvertedIndex::default();
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
        assert_eq!(idx.snippet(7), "");
    }
}
