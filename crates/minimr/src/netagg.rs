//! NetAgg integration: the combiner-based aggregation function agg boxes
//! execute for map/reduce jobs (the paper's Hadoop aggregation wrapper —
//! `Combiner.reduce(Key, List<Value>)` — plus the sequence-file
//! serialiser; together the Hadoop-specific code of Table 1).

use crate::job::{combine_batches, Job};
use crate::seqfile::Batch;
use bytes::Bytes;
use netagg_core::{AggError, AggregationFunction};
use std::sync::Arc;

/// Wraps a job's combiner as a platform aggregation function over
/// sequence-file-encoded pair batches. The item is the encoded batch
/// itself, checked once on the way in: merging reads the peers' bytes in
/// place and writes the result in wire form, so `serialize` copies nothing
/// and `aggregate` has no error to report.
pub struct CombinerAgg {
    job: Arc<dyn Job>,
}

impl CombinerAgg {
    /// Wrap `job`'s combiner for execution on agg boxes.
    pub fn new(job: Arc<dyn Job>) -> Self {
        Self { job }
    }
}

impl AggregationFunction for CombinerAgg {
    type Item = Batch;

    fn deserialize(&self, payload: &Bytes) -> Result<Batch, AggError> {
        Batch::parse(payload.clone())
    }

    fn serialize(&self, item: &Batch) -> Bytes {
        item.as_bytes().clone()
    }

    fn aggregate(&self, items: Vec<Batch>) -> Batch {
        combine_batches(self.job.as_ref(), &items)
    }

    fn empty(&self) -> Batch {
        Batch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::WordCount;
    use crate::seqfile;
    use crate::types::{parse_u64, u64_value, Pair};
    use netagg_core::DynAggregator;

    fn batch(pairs: &[Pair]) -> Batch {
        Batch::parse(seqfile::encode(pairs)).unwrap()
    }

    #[test]
    fn combiner_agg_sums_across_batches() {
        let agg = CombinerAgg::new(Arc::new(WordCount));
        let a = batch(&[Pair::new("w", u64_value(2)), Pair::new("x", u64_value(1))]);
        let b = batch(&[Pair::new("w", u64_value(3))]);
        let out = agg.aggregate(vec![a, b]).pairs();
        assert_eq!(out.len(), 2);
        let w = out.iter().find(|p| p.key.as_ref() == b"w").unwrap();
        assert_eq!(parse_u64(&w.value).unwrap(), 5);
    }

    #[test]
    fn serialization_roundtrips_through_dyn_interface() {
        let agg = netagg_core::AggWrapper::new(CombinerAgg::new(Arc::new(WordCount)));
        let batch = seqfile::encode(&[Pair::new("k", u64_value(1)), Pair::new("k", u64_value(4))]);
        let out = agg
            .aggregate_serialized(vec![batch.clone(), batch])
            .unwrap();
        let pairs = seqfile::decode(&out).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(parse_u64(&pairs[0].value).unwrap(), 10);
    }

    #[test]
    fn combiner_agg_satisfies_the_platform_laws() {
        let agg = CombinerAgg::new(Arc::new(WordCount));
        let batches: Vec<Bytes> = [
            vec![Pair::new("w", u64_value(2)), Pair::new("x", u64_value(1))],
            vec![Pair::new("w", u64_value(3)), Pair::new("a", u64_value(9))],
            vec![],
            vec![Pair::new("x", u64_value(4))],
        ]
        .iter()
        .map(|b| seqfile::encode(b))
        .collect();
        netagg_core::laws::assert_laws(&agg, &batches);
    }

    #[test]
    fn aggregation_is_associative() {
        let agg = CombinerAgg::new(Arc::new(WordCount));
        let mk = |n: u64| batch(&[Pair::new("k", u64_value(n))]);
        let left = agg.aggregate(vec![agg.aggregate(vec![mk(1), mk(2)]), mk(3)]);
        let right = agg.aggregate(vec![mk(1), agg.aggregate(vec![mk(2), mk(3)])]);
        assert_eq!(left, right);
    }
}
