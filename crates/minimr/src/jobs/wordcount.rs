//! WordCount: count distinct words in text. The benchmark whose input
//! repetition the paper varies to control the output ratio (Fig. 23).

use crate::job::{Emit, Job};
use crate::types::{sum_u64, u64_value, Pair};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The WordCount job.
pub struct WordCount;

impl Job for WordCount {
    fn name(&self) -> &'static str {
        "wordcount"
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(Pair)) {
        let Ok(line) = std::str::from_utf8(record) else {
            return;
        };
        for word in line.split_whitespace() {
            emit(Pair::new(word.to_string(), u64_value(1)));
        }
    }

    fn combine(&self, _key: &[u8], values: &[&[u8]], out: &mut Emit<'_>) {
        out.emit(&sum_u64(values).to_be_bytes());
    }

    fn reduce(&self, key: &[u8], values: Vec<Bytes>) -> Vec<Pair> {
        vec![Pair::new(key.to_vec(), u64_value(sum_u64(&values)))]
    }
}

/// Text lines of words drawn uniformly from a vocabulary of
/// `distinct_words`: fewer distinct words mean more repetition, more
/// combining and thus a lower output ratio.
pub fn wordcount_input(
    mappers: usize,
    bytes_per_mapper: usize,
    distinct_words: usize,
    seed: u64,
) -> Vec<Vec<Bytes>> {
    let mut out = Vec::with_capacity(mappers);
    for m in 0..mappers {
        let mut rng = StdRng::seed_from_u64(seed ^ (m as u64) << 17);
        let mut split = Vec::new();
        let mut produced = 0usize;
        while produced < bytes_per_mapper {
            let mut line = String::new();
            for _ in 0..10 {
                line.push_str(&format!("word{:06} ", rng.random_range(0..distinct_words)));
            }
            produced += line.len();
            split.push(Bytes::from(line));
        }
        out.push(split);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::combine_pairs;
    use crate::types::parse_u64;

    #[test]
    fn counts_words() {
        let j = WordCount;
        let mut pairs = Vec::new();
        j.map(b"apple banana apple", &mut |p| pairs.push(p));
        assert_eq!(pairs.len(), 3);
        let combined = combine_pairs(&j, pairs);
        let apple = combined
            .iter()
            .find(|p| p.key.as_ref() == b"apple")
            .unwrap();
        assert_eq!(parse_u64(&apple.value).unwrap(), 2);
    }

    #[test]
    fn input_respects_size_and_vocabulary() {
        let inputs = wordcount_input(3, 5_000, 10, 1);
        assert_eq!(inputs.len(), 3);
        for split in &inputs {
            let total: usize = split.iter().map(Bytes::len).sum();
            assert!((5_000..6_000).contains(&total));
        }
        // Low vocabulary implies heavy repetition -> high reduction.
        let j = WordCount;
        let mut pairs = Vec::new();
        for r in &inputs[0] {
            j.map(r, &mut |p| pairs.push(p));
        }
        let n_before = pairs.len();
        let n_after = combine_pairs(&j, pairs).len();
        assert!(n_after <= 10);
        assert!(n_before > 10 * n_after);
    }

    #[test]
    fn non_utf8_records_are_skipped() {
        let j = WordCount;
        let mut pairs = Vec::new();
        j.map(&[0xff, 0xfe], &mut |p| pairs.push(p));
        assert!(pairs.is_empty());
    }
}
