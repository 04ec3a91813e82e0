//! Core key/value types.

use bytes::Bytes;

/// One intermediate or output key/value pair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pair {
    /// Key bytes.
    pub key: Bytes,
    /// Value bytes.
    pub value: Bytes,
}

impl Pair {
    /// Construct a pair from anything convertible to [`Bytes`].
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Self {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Wire size under the sequence-file codec.
    pub fn wire_size(&self) -> usize {
        8 + self.key.len() + self.value.len()
    }
}

/// Encode / decode u64 values (counts, sums) as fixed 8-byte big-endian.
pub fn u64_value(v: u64) -> Bytes {
    Bytes::copy_from_slice(&v.to_be_bytes())
}

/// Parse a fixed 8-byte big-endian `u64` value.
pub fn parse_u64(b: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = b.try_into().ok()?;
    Some(u64::from_be_bytes(arr))
}

/// Sum the values that parse as `u64`, in order.
pub fn sum_u64<V: AsRef<[u8]>>(values: &[V]) -> u64 {
    values.iter().filter_map(|v| parse_u64(v.as_ref())).sum()
}

/// Encode / decode f64 values (sums of revenue, rank mass).
pub fn f64_value(v: f64) -> Bytes {
    Bytes::copy_from_slice(&v.to_be_bytes())
}

/// Parse a fixed 8-byte big-endian `f64` value.
pub fn parse_f64(b: &[u8]) -> Option<f64> {
    let arr: [u8; 8] = b.try_into().ok()?;
    Some(f64::from_be_bytes(arr))
}

/// Sum the values that parse as `f64`, in order (float addition does not
/// reassociate, so the order is part of the result).
pub fn sum_f64<V: AsRef<[u8]>>(values: &[V]) -> f64 {
    values.iter().filter_map(|v| parse_f64(v.as_ref())).sum()
}

/// Compare two job outputs for equivalence: identical keys in identical
/// order, values byte-identical or — for 8-byte values that parse as f64 —
/// equal within a small relative tolerance. Aggregation functions over
/// floats are associative only up to rounding, so different aggregation
/// tree shapes legitimately produce last-ulp differences.
pub fn outputs_equivalent(a: &[Pair], b: &[Pair]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| {
        if x.key != y.key {
            return false;
        }
        if x.value == y.value {
            return true;
        }
        match (parse_f64(&x.value), parse_f64(&y.value)) {
            (Some(u), Some(v)) => {
                let scale = u.abs().max(v.abs()).max(1e-12);
                (u - v).abs() / scale < 1e-9
            }
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_codecs_roundtrip() {
        assert_eq!(parse_u64(&u64_value(42)).unwrap(), 42);
        assert_eq!(parse_f64(&f64_value(2.5)).unwrap(), 2.5);
        assert!(parse_u64(b"short").is_none());
        assert!(parse_f64(b"").is_none());
    }

    #[test]
    fn pair_wire_size() {
        let p = Pair::new("key", "value");
        assert_eq!(p.wire_size(), 8 + 3 + 5);
    }

    #[test]
    fn outputs_equivalent_tolerates_float_rounding() {
        let a = vec![Pair::new("k", f64_value(0.1 + 0.2))];
        let b = vec![Pair::new("k", f64_value(0.3))];
        assert!(outputs_equivalent(&a, &b));
        let c = vec![Pair::new("k", f64_value(0.31))];
        assert!(!outputs_equivalent(&a, &c));
        let d = vec![Pair::new("other", f64_value(0.3))];
        assert!(!outputs_equivalent(&a, &d));
        assert!(!outputs_equivalent(&a, &[]));
        // Non-float values must match exactly.
        let x = vec![Pair::new("k", "abc")];
        let y = vec![Pair::new("k", "abd")];
        assert!(!outputs_equivalent(&x, &y));
        assert!(outputs_equivalent(&x, &x.clone()));
    }
}
