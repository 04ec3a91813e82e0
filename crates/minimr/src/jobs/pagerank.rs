//! PageRank: one rank-propagation iteration over a synthetic power-law
//! graph.

use crate::job::{Emit, Job};
use crate::types::{f64_value, sum_f64, Pair};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DAMPING: f64 = 0.85;

/// The PageRank job (one rank-propagation iteration).
pub struct PageRank;

impl Job for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    /// Records are adjacency lines: `src rank dst1 dst2 ...`. Map emits the
    /// rank mass each destination receives.
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(Pair)) {
        let Ok(line) = std::str::from_utf8(record) else {
            return;
        };
        let mut it = line.split_whitespace();
        let (Some(_src), Some(rank)) = (it.next(), it.next()) else {
            return;
        };
        let Ok(rank) = rank.parse::<f64>() else {
            return;
        };
        let dsts: Vec<&str> = it.collect();
        if dsts.is_empty() {
            return;
        }
        let share = rank / dsts.len() as f64;
        for d in dsts {
            emit(Pair::new(d.to_string(), f64_value(share)));
        }
    }

    fn combine(&self, _key: &[u8], values: &[&[u8]], out: &mut Emit<'_>) {
        out.emit(&sum_f64(values).to_be_bytes());
    }

    fn reduce(&self, key: &[u8], values: Vec<Bytes>) -> Vec<Pair> {
        let new_rank = (1.0 - DAMPING) + DAMPING * sum_f64(&values);
        vec![Pair::new(key.to_vec(), f64_value(new_rank))]
    }
}

/// Adjacency lines over a graph with a Zipf-ish in-degree skew: node ids
/// are drawn with probability decaying in rank, giving realistic hub
/// structure.
pub fn pagerank_input(mappers: usize, bytes_per_mapper: usize, seed: u64) -> Vec<Vec<Bytes>> {
    let nodes = 5_000usize;
    let mut out = Vec::with_capacity(mappers);
    let mut next_src = 0usize;
    for m in 0..mappers {
        let mut rng = StdRng::seed_from_u64(seed ^ (m as u64) << 13);
        let mut split = Vec::new();
        let mut produced = 0usize;
        while produced < bytes_per_mapper {
            let src = next_src % nodes;
            next_src += 1;
            let degree = rng.random_range(3..12);
            let mut line = format!("n{src} 1.0");
            for _ in 0..degree {
                // Square the uniform to skew towards low ids (hubs).
                let u: f64 = rng.random();
                let dst = ((u * u) * nodes as f64) as usize;
                line.push_str(&format!(" n{dst}"));
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
    use crate::types::parse_f64;

    #[test]
    fn map_splits_rank_across_destinations() {
        let j = PageRank;
        let mut pairs = Vec::new();
        j.map(b"n0 1.0 n1 n2", &mut |p| pairs.push(p));
        assert_eq!(pairs.len(), 2);
        for p in &pairs {
            assert!((parse_f64(&p.value).unwrap() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn reduce_applies_damping() {
        let j = PageRank;
        let out = j.reduce(b"n1", vec![f64_value(0.5), f64_value(0.25)]);
        let rank = parse_f64(&out[0].value).unwrap();
        assert!((rank - (0.15 + 0.85 * 0.75)).abs() < 1e-12);
    }

    #[test]
    fn combine_sums_mass() {
        let j = PageRank;
        let pairs = vec![
            Pair::new("n1", f64_value(0.1)),
            Pair::new("n1", f64_value(0.2)),
            Pair::new("n2", f64_value(0.3)),
        ];
        let combined = combine_pairs(&j, pairs);
        assert_eq!(combined.len(), 2);
    }

    #[test]
    fn dangling_nodes_emit_nothing() {
        let j = PageRank;
        let mut pairs = Vec::new();
        j.map(b"n0 1.0", &mut |p| pairs.push(p));
        assert!(pairs.is_empty());
    }

    #[test]
    fn input_generator_is_deterministic() {
        let a = pagerank_input(2, 2_000, 5);
        let b = pagerank_input(2, 2_000, 5);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
    }
}
