//! Property-based checks running the platform's aggregation-law checkers
//! (`netagg_core::laws`) against the map/reduce combiner wrapper, over
//! sequence-file payloads — the byte path agg boxes execute for jobs.
//!
//! `CombinerAgg` over WordCount satisfies every law byte-exactly because
//! the kernel emits keys in sorted (canonical) order and per-key sums are
//! associative and commutative. A deliberately
//! non-associative job is included to prove the harness actually rejects
//! broken combiners.

use bytes::Bytes;
use minimr::job::{Emit, Job};
use minimr::jobs::WordCount;
use minimr::netagg::CombinerAgg;
use minimr::seqfile;
use minimr::types::{parse_u64, u64_value, Pair};
use netagg_core::laws;
use proptest::prelude::*;
use std::sync::Arc;

/// Serialised mapper batches: 1–6 sequence-file payloads of 0–30 pairs,
/// keys drawn from a small vocabulary so combining actually collapses.
fn payloads_strategy() -> impl Strategy<Value = Vec<Bytes>> {
    let pair = (0u8..12, 1u64..100).prop_map(|(k, v)| Pair::new(format!("word{k}"), u64_value(v)));
    proptest::collection::vec(
        proptest::collection::vec(pair, 0..30).prop_map(|pairs| seqfile::encode(&pairs)),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The WordCount combiner, wrapped exactly as agg boxes run it, keeps
    /// every law at every split point — byte-exact on the sequence-file
    /// encoding.
    #[test]
    fn wordcount_combiner_agg_satisfies_every_law(payloads in payloads_strategy()) {
        laws::assert_laws(&CombinerAgg::new(Arc::new(WordCount)), &payloads);
    }

    /// Tiered combining also preserves per-key totals against a plain
    /// recount of the raw pairs (semantic check on top of the byte check).
    #[test]
    fn tiered_combining_preserves_totals(
        payloads in payloads_strategy(),
        split in any::<usize>(),
    ) {
        let agg = CombinerAgg::new(Arc::new(WordCount));
        let c = laws::check_merge(&agg, &payloads, 1 + split % 4).unwrap();
        prop_assert!(c.holds());
        let mut want = std::collections::BTreeMap::new();
        for p in &payloads {
            for pair in seqfile::decode(p).unwrap() {
                *want.entry(pair.key.clone()).or_insert(0u64) +=
                    parse_u64(&pair.value).unwrap();
            }
        }
        let got: std::collections::BTreeMap<Bytes, u64> = seqfile::decode(&c.actual)
            .unwrap()
            .into_iter()
            .map(|p| (p.key.clone(), parse_u64(&p.value).unwrap()))
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// A job whose combiner averages instead of summing is not associative;
/// the laws harness must reject it (guards against the checker passing
/// everything vacuously).
#[test]
fn laws_checker_rejects_a_non_associative_combiner() {
    struct MeanValue;
    impl Job for MeanValue {
        fn name(&self) -> &'static str {
            "mean"
        }
        fn map(&self, _record: &[u8], _emit: &mut dyn FnMut(Pair)) {}
        fn combine(&self, _key: &[u8], values: &[&[u8]], out: &mut Emit<'_>) {
            let nums: Vec<u64> = values.iter().filter_map(|v| parse_u64(v)).collect();
            let n = nums.len().max(1) as u64;
            out.emit(&(nums.iter().sum::<u64>() / n).to_be_bytes());
        }
        fn reduce(&self, _key: &[u8], _values: Vec<Bytes>) -> Vec<Pair> {
            Vec::new()
        }
    }
    // Asymmetric batch sizes: the mean of per-batch means differs from
    // the flat mean, so the gap cannot cancel out.
    let payloads: Vec<Bytes> = [vec![10u64], vec![20, 90]]
        .iter()
        .map(|vals| {
            seqfile::encode(
                &vals
                    .iter()
                    .map(|&v| Pair::new("k", u64_value(v)))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let v = laws::check_laws(&CombinerAgg::new(Arc::new(MeanValue)), &payloads)
        .unwrap()
        .expect("averaging combiner must violate merge consistency");
    assert_eq!(v.law, "merge consistency");
}
