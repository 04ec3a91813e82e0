//! Sequence-file-style binary key/value serialisation.
//!
//! Records are `[key_len u32][key][val_len u32][val]`, concatenated; a
//! payload must contain whole records (shims cut chunks at record
//! boundaries). [`Records`] is the only parser: [`decode`], [`Batch`]
//! validation and the combine kernel all read through it, and it borrows —
//! a hostile length field is compared with the bytes that remain, never
//! allocated for.

use crate::types::Pair;
use bytes::Bytes;
use netagg_core::AggError;
use std::ops::Range;

/// Serialise a batch of pairs.
pub fn encode(pairs: &[Pair]) -> Bytes {
    let mut w = BatchWriter::with_capacity(pairs.iter().map(Pair::wire_size).sum());
    for p in pairs {
        w.push(&p.key, &p.value);
    }
    w.finish().bytes
}

/// Strict decode: the payload must contain exactly whole records. The
/// pairs are windows onto `payload`, not copies.
pub fn decode(payload: &Bytes) -> Result<Vec<Pair>, AggError> {
    Ok(Batch::parse(payload.clone())?.pairs())
}

/// Borrowed record reader: yields the key and value ranges of each whole
/// record in `buf`, then one `Corrupt` if the bytes end inside a record.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Records<'a> {
    /// Read `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next whole record's key and value ranges, each length field
    /// checked against the bytes that remain; `None` at the end, or where
    /// the bytes end inside a record (the reader then stays at its start).
    fn step(&mut self) -> Option<(Range<usize>, Range<usize>)> {
        let (len, rest) = self.buf[self.pos..].split_first_chunk::<4>()?;
        let key = self.pos + 4..self.pos + 4 + u32::from_be_bytes(*len) as usize;
        let (len, rest) = rest.get(key.len()..)?.split_first_chunk::<4>()?;
        let value = key.end + 4..key.end + 4 + u32::from_be_bytes(*len) as usize;
        if value.len() > rest.len() {
            return None;
        }
        self.pos = value.end;
        Some((key, value))
    }
}

impl Iterator for Records<'_> {
    type Item = Result<(Range<usize>, Range<usize>), AggError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(record) = self.step() {
            return Some(Ok(record));
        }
        // Cut short: the key's length field, or the value's where the key fits.
        let at = std::mem::replace(&mut self.pos, self.buf.len());
        let rest = &self.buf[at..];
        let (what, at) = match rest.first_chunk().map(|n| u32::from_be_bytes(*n) as usize) {
            Some(len) if 4 + len <= rest.len() => ("value", at + 4 + len),
            _ => ("key", at),
        };
        let corrupt = || Err(AggError::Corrupt(format!("truncated {what} at byte {at}")));
        (!rest.is_empty()).then(corrupt)
    }
}

/// An encoded batch whose framing has been checked end to end: it holds
/// whole records only, so reading it cannot fail. This is what agg boxes
/// merge — peer bytes become a `Batch` once, in [`Batch::parse`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    bytes: Bytes,
    records: usize,
}

impl Batch {
    /// Check `bytes` record by record.
    pub fn parse(bytes: Bytes) -> Result<Self, AggError> {
        let mut reader = Records::new(&bytes);
        let records = std::iter::from_fn(|| reader.step()).count();
        match reader.next() {
            Some(Err(cut)) => Err(cut),
            _ => Ok(Self { bytes, records }),
        }
    }

    /// The encoded form.
    pub fn as_bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Each record's key and value range in [`Batch::as_bytes`], in order.
    pub(crate) fn ranges(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        let mut reader = Records::new(&self.bytes);
        (0..self.records).map(move |_| reader.step().expect("a batch holds whole records"))
    }

    /// The records as pairs sharing the batch's buffer.
    pub fn pairs(&self) -> Vec<Pair> {
        self.ranges()
            .map(|(k, v)| Pair {
                key: self.bytes.slice(k),
                value: self.bytes.slice(v),
            })
            .collect()
    }
}

/// Builds a [`Batch`] record by record — valid by construction.
#[derive(Debug)]
pub struct BatchWriter {
    buf: Vec<u8>,
    records: usize,
}

impl BatchWriter {
    /// A writer with `bytes` of encoded output reserved.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            records: 0,
        }
    }

    /// Append one record: one reservation, then the four parts.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        let buf = &mut self.buf;
        buf.reserve(8 + key.len() + value.len());
        buf.extend_from_slice(&(key.len() as u32).to_be_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(&(value.len() as u32).to_be_bytes());
        buf.extend_from_slice(value);
        self.records += 1;
    }

    /// The batch written so far. The reservation was for the worst case
    /// (nothing combines); what combining saved goes back to the allocator
    /// now, because the batch outlives this call by a whole request.
    pub fn finish(mut self) -> Batch {
        self.buf.shrink_to_fit();
        Batch {
            bytes: Bytes::from(self.buf),
            records: self.records,
        }
    }
}

/// Split a batch of pairs into chunks of at most `target` serialised bytes,
/// always cutting at record boundaries (what the worker shims ship).
pub fn chunk_pairs(pairs: &[Pair], target: usize) -> Vec<Bytes> {
    let (mut chunks, mut start, mut bytes) = (Vec::new(), 0, 0);
    for (i, p) in pairs.iter().enumerate() {
        if bytes > 0 && bytes + p.wire_size() > target {
            chunks.push(encode(&pairs[start..i]));
            (start, bytes) = (i, 0);
        }
        bytes += p.wire_size();
    }
    if bytes > 0 {
        chunks.push(encode(&pairs[start..]));
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pair(k: &str, v: &str) -> Pair {
        Pair::new(k.to_string(), v.to_string())
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pairs = vec![pair("a", "1"), pair("bb", ""), pair("", "x")];
        assert_eq!(decode(&encode(&pairs)).unwrap(), pairs);
    }

    #[test]
    fn strict_decode_rejects_partial_record() {
        let pairs = vec![pair("key", "value")];
        let enc = encode(&pairs);
        for cut in 1..enc.len() {
            let partial = enc.slice(0..cut);
            assert!(decode(&partial).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn reader_yields_ranges_then_one_error() {
        let enc = encode(&[pair("ab", "1"), pair("", "xyz")]);
        let whole: Vec<_> = Records::new(&enc).map(Result::unwrap).collect();
        assert_eq!(whole, vec![(4..6, 10..11), (15..15, 19..22)]);
        let mut cut = Records::new(&enc[..enc.len() - 1]);
        assert!(cut.next().unwrap().is_ok());
        assert!(matches!(cut.next(), Some(Err(AggError::Corrupt(_)))));
        assert!(cut.next().is_none());
    }

    #[test]
    fn hostile_length_is_rejected_not_allocated() {
        let huge = Bytes::from(vec![0xff, 0xff, 0xff, 0xff, b'k']);
        assert!(matches!(Batch::parse(huge), Err(AggError::Corrupt(_))));
    }

    #[test]
    fn batch_counts_and_shares_its_records() {
        let pairs = vec![pair("a", "1"), pair("bb", "")];
        let batch = Batch::parse(encode(&pairs)).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.pairs(), pairs);
        let ranges: Vec<_> = batch.ranges().collect();
        assert_eq!(ranges, vec![(4..5, 9..10), (14..16, 20..20)]);
        assert!(Batch::default().is_empty());
    }

    #[test]
    fn chunking_respects_target_and_boundaries() {
        let pairs: Vec<Pair> = (0..100)
            .map(|i| pair(&format!("k{i}"), "0123456789"))
            .collect();
        let chunks = chunk_pairs(&pairs, 64);
        assert!(chunks.len() > 1);
        let mut all = Vec::new();
        for c in &chunks {
            // Every chunk decodes standalone: cuts are at record boundaries.
            all.extend(decode(c).unwrap());
        }
        assert_eq!(all, pairs);
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.len() <= 64 + 30, "chunk of {} bytes", c.len());
        }
    }

    #[test]
    fn oversized_record_gets_its_own_chunk() {
        let big = pair("k", &"x".repeat(1000));
        let chunks = chunk_pairs(&[pair("a", "b"), big.clone()], 64);
        assert_eq!(chunks.len(), 2);
        assert_eq!(decode(&chunks[1]).unwrap(), vec![big]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..20),
             proptest::collection::vec(any::<u8>(), 0..40)),
            0..30
        )) {
            let pairs: Vec<Pair> = pairs
                .into_iter()
                .map(|(k, v)| Pair::new(k, v))
                .collect();
            prop_assert_eq!(decode(&encode(&pairs)).unwrap(), pairs);
        }

        #[test]
        fn prop_chunking_preserves_pairs(
            n in 1usize..80,
            target in 16usize..256
        ) {
            let pairs: Vec<Pair> = (0..n)
                .map(|i| Pair::new(format!("key-{i}"), vec![i as u8; i % 17]))
                .collect();
            let chunks = chunk_pairs(&pairs, target);
            let mut all = Vec::new();
            for c in &chunks {
                all.extend(decode(c).unwrap());
            }
            prop_assert_eq!(all, pairs);
        }
    }
}
