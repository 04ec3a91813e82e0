//! Synthetic Wikipedia-like corpus.
//!
//! The paper loads a June 2012 Wikipedia XML snapshot into the backends.
//! We generate a deterministic substitute with the statistical properties
//! the experiments exercise: a Zipf-distributed vocabulary (so query terms
//! hit posting lists of realistic, skewed lengths), variable document
//! lengths, and explicit `category:<name>` markers with a majority base
//! category per document (what the CPU-intensive `categorise` aggregation
//! parses — Section 4.2.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The base categories documents are classified into (the paper uses
/// Wikipedia's base categories).
pub const BASE_CATEGORIES: &[&str] = &[
    "science",
    "history",
    "geography",
    "technology",
    "arts",
    "sports",
    "politics",
    "nature",
];

/// One document.
#[derive(Debug, Clone)]
pub struct Document {
    /// Document identifier, unique across the corpus.
    pub id: u32,
    /// Title (informational).
    pub title: String,
    /// Body text, including `category:` markers.
    pub body: String,
    /// Ground-truth majority base category (index into
    /// [`BASE_CATEGORIES`]); kept for test assertions.
    pub base_category: usize,
}

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Vocabulary size; terms are drawn Zipf(s = 1.07), like natural text.
    pub vocabulary: usize,
    /// Mean words per document (uniform in `[mean/2, 3 mean/2]`).
    pub mean_words: usize,
    /// Category markers per document.
    pub markers_per_doc: usize,
    /// RNG seed; identical seeds reproduce identical corpora.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            num_docs: 2_000,
            vocabulary: 20_000,
            mean_words: 120,
            markers_per_doc: 6,
            seed: 2012,
        }
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The generated documents.
    pub docs: Vec<Document>,
}

impl Corpus {
    /// Generate a corpus (deterministic under `cfg.seed`).
    pub fn generate(cfg: &CorpusConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Precompute the Zipf CDF once.
        let zipf = ZipfSampler::new(cfg.vocabulary, 1.07);
        let mut docs = Vec::with_capacity(cfg.num_docs);
        for id in 0..cfg.num_docs {
            let len = rng
                .random_range(cfg.mean_words / 2..=cfg.mean_words * 3 / 2)
                .max(5);
            let mut body = String::with_capacity(len * 8);
            for _ in 0..len {
                let term = zipf.sample(&mut rng);
                body.push_str(&word(term));
                body.push(' ');
            }
            // A majority base category plus minority markers.
            let base = rng.random_range(0..BASE_CATEGORIES.len());
            for m in 0..cfg.markers_per_doc {
                let cat = if m < cfg.markers_per_doc.div_ceil(2) + 1 {
                    base
                } else {
                    rng.random_range(0..BASE_CATEGORIES.len())
                };
                body.push_str("category:");
                body.push_str(BASE_CATEGORIES[cat]);
                body.push(' ');
            }
            docs.push(Document {
                id: id as u32,
                title: format!("doc-{id}"),
                base_category: base,
                body,
            });
        }
        Self { docs }
    }

    /// Split the corpus into `n` shards (round-robin, like Solr's document
    /// routing across index servers).
    pub fn shards(&self, n: usize) -> Vec<Vec<Document>> {
        let mut out = vec![Vec::new(); n];
        for (i, d) in self.docs.iter().enumerate() {
            out[i % n].push(d.clone());
        }
        out
    }
}

/// Deterministic word spelling for vocabulary index `i`. The digit suffix
/// guarantees no generated word collides with a stopword.
pub fn word(i: usize) -> String {
    format!("x{i}")
}

/// Inverse-CDF Zipf sampler over ranks `1..=n`.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Precompute the CDF for ranks `1..=n` with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Sample a rank in `0..n` (0 = most frequent).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let cfg = CorpusConfig {
            num_docs: 50,
            ..CorpusConfig::default()
        };
        let a = Corpus::generate(&cfg);
        let b = Corpus::generate(&cfg);
        assert_eq!(a.docs.len(), 50);
        for (x, y) in a.docs.iter().zip(&b.docs) {
            assert_eq!(x.body, y.body);
            assert_eq!(x.base_category, y.base_category);
        }
    }

    #[test]
    fn docs_contain_majority_category_markers() {
        let cfg = CorpusConfig {
            num_docs: 30,
            ..CorpusConfig::default()
        };
        let c = Corpus::generate(&cfg);
        for d in &c.docs {
            let marker = format!("category:{}", BASE_CATEGORIES[d.base_category]);
            let count = d.body.matches(&marker).count();
            assert!(count >= cfg.markers_per_doc / 2, "majority marker missing");
        }
    }

    #[test]
    fn shards_partition_the_corpus() {
        let c = Corpus::generate(&CorpusConfig {
            num_docs: 10,
            ..CorpusConfig::default()
        });
        let shards = c.shards(3);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 10);
        let mut ids: Vec<u32> = shards.iter().flatten().map(|d| d.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed() {
        let z = ZipfSampler::new(1000, 1.07);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0;
        let n = 10_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // The top-10 ranks should dominate.
        assert!(head as f64 / n as f64 > 0.3, "head mass {head}/{n}");
    }

    #[test]
    fn words_are_never_stopwords() {
        for i in 0..2000 {
            assert!(!crate::tokenize::is_stopword(&word(i)));
        }
    }
}
