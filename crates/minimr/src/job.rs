//! The user-code interface — map, combine, reduce — and the grouping
//! kernel that runs the combiner.

use crate::seqfile::{Batch, BatchWriter};
use crate::types::Pair;
use bytes::Bytes;
use std::cmp::Ordering;
use std::ops::Range;

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

/// A record as the ordering sees it: `order` is the key's first 15 bytes,
/// big-endian and zero-padded, over one byte of `min(key length, 16)`;
/// `record` is where the caller finds the key and value. 32 bytes for both
/// record kinds below, so a merge holds two record-count-sized arrays and
/// the output buffer.
///
/// Comparing `order` compares keys: where two keys' first 15 bytes differ,
/// the words differ the same way; where they pad alike, the shorter key is
/// a prefix of the longer and its length byte is the smaller. Only keys of
/// 16 bytes or more can differ and still share a word.
#[derive(Clone, Copy)]
struct Entry<R> {
    order: u128,
    record: R,
}

const PREFIX: usize = 15;

impl<R> Entry<R> {
    /// The entry of the record whose key is `bytes[key]`. Where 16 bytes
    /// follow the key's start the word is one load and a mask, whatever
    /// lies past the key.
    fn new(bytes: &[u8], key: Range<usize>, record: R) -> Self {
        let (tail, held) = (&bytes[key.start..], key.len().min(PREFIX));
        let word = match tail.first_chunk() {
            Some(head) => u128::from_be_bytes(*head) & !(u128::MAX >> (8 * held)),
            None => {
                let mut head = [0; 16];
                head[..held].copy_from_slice(&tail[..held]);
                u128::from_be_bytes(head)
            }
        };
        Self {
            order: word | key.len().min(PREFIX + 1) as u128,
            record,
        }
    }

    /// Whether the key has bytes the word does not hold.
    fn long_key(&self) -> bool {
        usize::from(self.order as u8) > PREFIX
    }

    /// Key order: the words, then — where long keys share one — the keys.
    fn cmp_key<'k>(&self, other: &Self, key: impl Fn(&R) -> &'k [u8]) -> Ordering {
        let words = self.order.cmp(&other.order);
        if words.is_eq() && self.long_key() {
            return key(&self.record).cmp(key(&other.record));
        }
        words
    }
}

/// The one sort every grouping path shares: `entries` arrive in record
/// order and leave keys ascending, equal keys still in arrival order —
/// which is what keeps float sums byte-identical from run to run. `copy`
/// holds the same entries and is the other buffer of each pass.
///
/// The words are ordered without reading a key: one stable counting pass
/// per byte column that varies across the input, least significant first
/// (`word00dddd` keys vary in 4 columns of 16), starting from whichever
/// buffer makes the last pass end in `entries`. Long keys that share a
/// word are then stable-sorted by the whole key, run by run.
fn runs_by_key<'k, R: Copy>(
    entries: &mut [Entry<R>],
    copy: &mut [Entry<R>],
    key: impl Fn(&R) -> &'k [u8],
) {
    let first = entries.first().map_or(0, |e| e.order);
    let varying = entries.iter().fold(0, |v, e| v | (e.order ^ first));
    let shifts = (0..u128::BITS)
        .step_by(8)
        .filter(|s| (varying >> s) as u8 != 0);
    let (mut from, mut to) = match shifts.clone().count() % 2 {
        0 => (&mut *entries, &mut *copy),
        _ => (&mut *copy, &mut *entries),
    };
    for shift in shifts {
        // The byte from its `u64` half: cheaper than a variable `u128` shift.
        let (high, shift) = (shift >= 64, shift % 64);
        let column = |e: &Entry<R>| {
            let half = if high {
                (e.order >> 64) as u64
            } else {
                e.order as u64
            };
            usize::from((half >> shift) as u8)
        };
        let mut next = [0usize; 256];
        for e in from.iter() {
            next[column(e)] += 1;
        }
        let mut placed = 0;
        for slot in &mut next {
            placed += std::mem::replace(slot, placed);
        }
        for e in from.iter() {
            let slot = &mut next[column(e)];
            to[*slot] = *e;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    // Every word's OR, `varying | first`, has a long length byte or none.
    if usize::from((varying | first) as u8) > PREFIX {
        for run in entries.chunk_by_mut(|a, b| a.order == b.order) {
            if run.len() > 1 && run[0].long_key() {
                run.sort_by(|a, b| key(&a.record).cmp(key(&b.record)));
            }
        }
    }
}

/// Merge the key-ascending `runs` that tile `entries` into one, pairwise,
/// round by round, through `other`, on (key, batch): a tie stays in the
/// earlier batch.
fn merge_runs<'k>(
    mut entries: Vec<Entry<Loc>>,
    mut other: Vec<Entry<Loc>>,
    mut runs: Vec<Range<usize>>,
    key: impl Fn(&Loc) -> &'k [u8] + Copy,
) -> Vec<Entry<Loc>> {
    let later = |a: &Entry<Loc>, b: &Entry<Loc>| {
        (a.cmp_key(b, key).then(a.record.batch.cmp(&b.record.batch))).is_gt()
    };
    while runs.len() > 1 {
        other.clear();
        other.reserve_exact(entries.len());
        for pair in runs.chunks(2) {
            let (mid, end) = (pair[0].end, pair[pair.len() - 1].end);
            let (mut a, mut b) = (&entries[pair[0].start..mid], &entries[mid..end]);
            while let (Some(x), Some(y)) = (a.first(), b.first()) {
                if later(x, y) {
                    other.push(*y);
                    b = &b[1..];
                } else {
                    other.push(*x);
                    a = &a[1..];
                }
            }
            other.extend_from_slice(a);
            other.extend_from_slice(b);
        }
        for i in 0..runs.len().div_ceil(2) {
            runs[i] = runs[2 * i].start..runs[(2 * i + 1).min(runs.len() - 1)].end;
        }
        runs.truncate(runs.len().div_ceil(2));
        std::mem::swap(&mut entries, &mut other);
    }
    entries
}

/// The grouping kernel: combine key-ordered records into one encoded
/// batch, each key's values folded in the order given. `key` and `value`
/// read a record; `out_bytes` sizes the output buffer.
fn combine_records<'a, R: Copy>(
    job: &dyn Job,
    ordered: &[Entry<R>],
    key: impl Fn(&R) -> &'a [u8] + Copy,
    value: impl Fn(&R) -> &'a [u8],
    out_bytes: usize,
) -> Batch {
    let mut out = BatchWriter::with_capacity(out_bytes);
    let mut values: Vec<&[u8]> = Vec::new();
    for run in ordered.chunk_by(|a, b| a.cmp_key(b, key).is_eq()) {
        let key = key(&run[0].record);
        values.clear();
        values.reserve(run.len());
        run.iter().for_each(|e| values.push(value(&e.record)));
        job.combine(key, &values, &mut Emit { key, out: &mut out });
    }
    out.finish()
}

/// Where a record lies in the batches being merged: its key is bytes
/// `key..value - 4` of batch `batch` (the value's length field sits
/// between), its value `value..end`.
#[derive(Clone, Copy)]
struct Loc {
    batch: u32,
    key: u32,
    value: u32,
    end: u32,
}

/// Combine checked batches, reading each peer's bytes in place. A walk
/// builds each batch's entries, and a batch whose keys ascend — a
/// combine's output always does — is a run as it stands. The rest are
/// sorted together into one more run; then the runs are merged on
/// (key, batch), so equal keys keep input order, as one stable sort of
/// every input would.
pub(crate) fn combine_batches(job: &dyn Job, batches: &[Batch]) -> Batch {
    // Resolved once: `Bytes` is two hops from its bytes, and the kernel
    // reads a key or value per record.
    let bufs: Vec<&[u8]> = batches.iter().map(|b| &b.as_bytes()[..]).collect();
    let key = |r: &Loc| &bufs[r.batch as usize][r.key as usize..r.value as usize - 4];
    let value = |r: &Loc| &bufs[r.batch as usize][r.value as usize..r.end as usize];
    let mut entries = Vec::with_capacity(batches.iter().map(Batch::len).sum());
    // Batches that do not ascend gather in front of the runs, in order.
    let (mut runs, mut loose) = (Vec::with_capacity(batches.len() + 1), 0);
    for (batch, b) in batches.iter().enumerate() {
        // Frames end at 64 MiB: every offset in a batch is a `u32`.
        assert!(bufs[batch].len() <= u32::MAX as usize, "a 4 GiB batch");
        let start = entries.len();
        entries.extend(b.ranges().map(|(k, v)| {
            let loc = Loc {
                batch: batch as u32,
                key: k.start as u32,
                value: v.start as u32,
                end: v.end as u32,
            };
            Entry::new(bufs[batch], k, loc)
        }));
        let run = &entries[start..];
        if !run.is_empty() && run.windows(2).all(|w| w[1].cmp_key(&w[0], key).is_ge()) {
            runs.push(start..entries.len());
        } else {
            let n = entries.len() - start;
            entries[loose..].rotate_right(n);
            loose += n;
            runs.iter_mut().for_each(|r| *r = r.start + n..r.end + n);
        }
    }
    // The sort wants the loose entries in both buffers.
    let mut other = Vec::with_capacity(if loose > 0 { entries.len() } else { 0 });
    other.extend_from_slice(&entries[..loose]);
    runs_by_key(&mut entries[..loose], &mut other, key);
    if loose > 0 {
        runs.insert(0, 0..loose);
    }
    let ordered = merge_runs(entries, other, runs, key);
    let bytes = bufs.iter().map(|b| b.len()).sum();
    combine_records(job, &ordered, key, value, bytes)
}

/// The pairs' entries in key order.
fn pair_entries(pairs: &[Pair]) -> Vec<Entry<usize>> {
    let entry = |(i, p): (usize, &Pair)| Entry::new(&p.key, 0..p.key.len(), i);
    let mut entries: Vec<_> = pairs.iter().enumerate().map(entry).collect();
    let mut copy = entries.clone();
    runs_by_key(&mut entries, &mut copy, |i| &pairs[*i].key[..]);
    entries
}

/// Group a flat pair list by key (sorted), preserving per-key value order.
pub fn group_by_key(pairs: Vec<Pair>) -> Vec<(Bytes, Vec<Bytes>)> {
    let key = |i: &usize| &pairs[*i].key[..];
    pair_entries(&pairs)
        .chunk_by(|a, b| a.cmp_key(b, key).is_eq())
        .map(|run| {
            let values = run.iter().map(|e| pairs[e.record].value.clone()).collect();
            (pairs[run[0].record].key.clone(), values)
        })
        .collect()
}

/// Run the combiner over a flat pair list: group, combine each key,
/// flatten back. This is the aggregation step executed at map side
/// (Hadoop's map-side combine); agg boxes run the same kernel on encoded
/// batches. The returned pairs share one buffer.
pub fn combine_pairs(job: &dyn Job, pairs: Vec<Pair>) -> Vec<Pair> {
    let key = |i: &usize| &pairs[*i].key[..];
    let value = |i: &usize| &pairs[*i].value[..];
    let bytes = pairs.iter().map(Pair::wire_size).sum();
    combine_records(job, &pair_entries(&pairs), key, value, bytes).pairs()
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
