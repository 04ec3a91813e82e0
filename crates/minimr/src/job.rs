//! The user-code interface — map, combine, reduce — and the grouping
//! kernel that runs the combiner.

use crate::seqfile::{Batch, BatchWriter};
use crate::types::Pair;
use bytes::Bytes;

/// A map/reduce job. The `combine` function must be associative and
/// commutative over each key's values — it is what agg boxes execute
/// on-path (the paper's `Combiner.reduce(Key, List<Value>)` interface).
pub trait Job: Send + Sync + 'static {
    /// Short job name (also the application name on the platform).
    fn name(&self) -> &'static str;

    /// Map one input record to intermediate pairs.
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(Pair));

    /// Partially merge the values of one key, in arrival order, emitting
    /// the merged value(s) into `out`. The default implementation performs
    /// no combining (identity), which models jobs like TeraSort whose data
    /// cannot be reduced.
    fn combine(&self, _key: &[u8], values: &[&[u8]], out: &mut Emit<'_>) {
        for value in values {
            out.emit(value);
        }
    }

    /// Final reduction of one key at the reducer.
    fn reduce(&self, key: &[u8], values: Vec<Bytes>) -> Vec<Pair>;
}

/// Where a combiner writes the merged values of the key it was called for:
/// straight into the encoded output batch.
pub struct Emit<'a> {
    key: &'a [u8],
    out: &'a mut BatchWriter,
}

impl Emit<'_> {
    /// Emit one value under the current key.
    pub fn emit(&mut self, value: &[u8]) {
        self.out.push(self.key, value);
    }
}

/// The run-walker every grouping path shares: stable-sort by key, then
/// yield each equal-key run. Stability is what keeps a key's values in
/// arrival order, and with it float sums byte-identical from run to run.
fn key_runs<'a, T>(
    items: &'a mut [T],
    key: impl Fn(&T) -> &[u8] + Copy + 'a,
) -> impl Iterator<Item = &'a [T]> {
    items.sort_by(|a, b| key(a).cmp(key(b)));
    items.chunk_by(move |a, b| key(a) == key(b))
}

/// The grouping kernel: combine borrowed `(key, value)` records into one
/// encoded batch — keys ascending, each key's values folded in the order
/// given. `out_bytes` sizes the output buffer.
pub(crate) fn combine_records(
    job: &dyn Job,
    mut records: Vec<(&[u8], &[u8])>,
    out_bytes: usize,
) -> Batch {
    let mut out = BatchWriter::with_capacity(out_bytes);
    let mut values: Vec<&[u8]> = Vec::new();
    for run in key_runs(&mut records, |r| r.0) {
        let key = run[0].0;
        values.clear();
        values.extend(run.iter().map(|r| r.1));
        job.combine(key, &values, &mut Emit { key, out: &mut out });
    }
    out.finish()
}

/// Group a flat pair list by key (sorted), preserving per-key value order.
pub fn group_by_key(mut pairs: Vec<Pair>) -> Vec<(Bytes, Vec<Bytes>)> {
    key_runs(&mut pairs, |p| &p.key)
        .map(|run| {
            let values = run.iter().map(|p| p.value.clone()).collect();
            (run[0].key.clone(), values)
        })
        .collect()
}

/// Run the combiner over a flat pair list: group, combine each key,
/// flatten back. This is the aggregation step executed at map side
/// (Hadoop's map-side combine); agg boxes run the same kernel on encoded
/// batches. The returned pairs share one buffer.
pub fn combine_pairs(job: &dyn Job, pairs: Vec<Pair>) -> Vec<Pair> {
    let records = pairs.iter().map(|p| (&p.key[..], &p.value[..])).collect();
    let bytes = pairs.iter().map(Pair::wire_size).sum();
    combine_records(job, records, bytes).pairs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::WordCount;
    use crate::types::{parse_u64, u64_value};

    #[test]
    fn group_by_key_sorts_and_groups() {
        let pairs = vec![
            Pair::new("b", "1"),
            Pair::new("a", "2"),
            Pair::new("b", "3"),
        ];
        let grouped = group_by_key(pairs);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0.as_ref(), b"a");
        assert_eq!(grouped[1].1.len(), 2);
    }

    #[test]
    fn combine_pairs_reduces_duplicates() {
        let j = WordCount;
        let pairs = vec![
            Pair::new("x", u64_value(1)),
            Pair::new("x", u64_value(1)),
            Pair::new("y", u64_value(1)),
        ];
        let combined = combine_pairs(&j, pairs);
        assert_eq!(combined.len(), 2);
        let x = combined.iter().find(|p| p.key.as_ref() == b"x").unwrap();
        assert_eq!(parse_u64(&x.value).unwrap(), 2);
    }

    #[test]
    fn default_combine_is_identity() {
        struct NoCombine;
        impl Job for NoCombine {
            fn name(&self) -> &'static str {
                "id"
            }
            fn map(&self, _r: &[u8], _e: &mut dyn FnMut(Pair)) {}
            fn reduce(&self, key: &[u8], values: Vec<Bytes>) -> Vec<Pair> {
                values
                    .into_iter()
                    .map(|v| Pair::new(key.to_vec(), v))
                    .collect()
            }
        }
        let j = NoCombine;
        let pairs = vec![Pair::new("x", "1"), Pair::new("x", "2")];
        let combined = combine_pairs(&j, pairs.clone());
        assert_eq!(combined, pairs);
    }
}
