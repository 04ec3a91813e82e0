//! Seeded inputs and the reference folds they are checked against. The
//! program under test only ever receives what these generators produce;
//! `--seed` reaches it no other way.

use crate::loadgen::Payloads;
use bytes::Bytes;
use minimr::jobs::WordCount;
use minimr::seqfile;
use minimr::types::{u64_value, Pair};
use netagg_net::DetRng;

/// splitmix64-style mix of a seed with two indexes.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 29)
}

/// Decimal integers below 1000 (1–3 byte partials) summed per request:
/// the combiner does almost nothing, so per-frame cost is everything.
pub struct SmallInts {
    seed: u64,
    workers: usize,
    /// "0".."999" rendered once, so issuing a partial allocates nothing.
    rendered: Vec<Bytes>,
}

impl SmallInts {
    pub fn new(seed: u64, workers: usize) -> Self {
        Self {
            seed,
            workers,
            rendered: (0..1000).map(|v| Bytes::from(v.to_string())).collect(),
        }
    }

    fn value(&self, request: u64, worker: usize) -> u64 {
        mix(self.seed, request, worker as u64) % 1000
    }
}

impl Payloads for SmallInts {
    fn partial(&self, request: u64, worker: usize) -> Bytes {
        self.rendered[self.value(request, worker) as usize].clone()
    }

    fn verify(&self, request: u64, combined: &Bytes) -> bool {
        let want: u64 = (0..self.workers).map(|w| self.value(request, w)).sum();
        std::str::from_utf8(combined)
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            == Some(want)
    }
}

/// Pairs per wordcount partial and the vocabulary they are drawn from:
/// 2 048 × 26 B ≈ 52 KiB per partial, above the transport's coalescing
/// limit, so the zero-copy chunk path carries it.
pub const BATCH_PAIRS: usize = 2048;
pub const VOCABULARY: u64 = 4096;

/// One partial's `(word, 1)` pairs, words drawn uniformly by `rng`.
pub fn wordcount_pairs(rng: &mut DetRng) -> Vec<Pair> {
    (0..BATCH_PAIRS)
        .map(|_| {
            Pair::new(
                format!("word{:06}", rng.gen_range(0, VOCABULARY)),
                u64_value(1),
            )
        })
        .collect()
}

/// One partial as a sequence-file batch.
pub fn wordcount_batch(rng: &mut DetRng) -> Bytes {
    seqfile::encode(&wordcount_pairs(rng))
}

/// Requests cycle through this many distinct payload sets, so the
/// reference fold is computed once per set and not once per request.
const PAYLOAD_SETS: usize = 8;

/// Seeded wordcount partials with their reference result per set.
pub struct WordCounts {
    /// `sets[s][w]`: worker `w`'s partial in set `s`.
    sets: Vec<Vec<Bytes>>,
    /// The combined, encoded result the platform must deliver for set `s`.
    expected: Vec<Bytes>,
}

impl WordCounts {
    pub fn new(seed: u64, workers: usize) -> Self {
        let mut rng = DetRng::new(seed ^ 0xB01C_B01C);
        let mut sets = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..PAYLOAD_SETS {
            let per_worker: Vec<Vec<Pair>> =
                (0..workers).map(|_| wordcount_pairs(&mut rng)).collect();
            sets.push(per_worker.iter().map(|p| seqfile::encode(p)).collect());
            let all: Vec<Pair> = per_worker.into_iter().flatten().collect();
            expected.push(seqfile::encode(&minimr::job::combine_pairs(
                &WordCount, all,
            )));
        }
        Self { sets, expected }
    }
}

impl Payloads for WordCounts {
    fn partial(&self, request: u64, worker: usize) -> Bytes {
        self.sets[request as usize % PAYLOAD_SETS][worker].clone()
    }

    fn verify(&self, request: u64, combined: &Bytes) -> bool {
        // The combiner emits keys in sorted order, so equal results are
        // equal bytes; compare pair-wise only when they differ.
        let want = &self.expected[request as usize % PAYLOAD_SETS];
        combined == want
            || match (seqfile::decode(combined), seqfile::decode(want)) {
                (Ok(got), Ok(want)) => minimr::types::outputs_equivalent(&got, &want),
                _ => false,
            }
    }
}
