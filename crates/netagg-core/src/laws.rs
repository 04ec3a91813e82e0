//! Checkers for the algebraic laws an [`AggregationFunction`] must obey.
//!
//! The platform aggregates partial results **in arbitrary order and
//! grouping** (Section 3.2.1): boxes merge whatever subset of inputs has
//! arrived, re-serialise the intermediate aggregate and feed it to the next
//! tier. A function that is not merge-consistent, order-insensitive or
//! identity-respecting produces different answers depending on tree shape,
//! fan-in and timing — bugs that only surface under load. This module lets
//! applications assert the laws directly (typically from a property-based
//! test):
//!
//! ```
//! use bytes::Bytes;
//! use netagg_core::laws;
//! use netagg_core::{AggError, AggregationFunction};
//!
//! struct Sum;
//! impl AggregationFunction for Sum {
//!     type Item = i64;
//!     fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
//!         std::str::from_utf8(b)
//!             .ok()
//!             .and_then(|s| s.parse().ok())
//!             .ok_or_else(|| AggError::Corrupt("not an int".into()))
//!     }
//!     fn serialize(&self, v: &i64) -> Bytes { Bytes::from(v.to_string()) }
//!     fn aggregate(&self, items: Vec<i64>) -> i64 { items.into_iter().sum() }
//!     fn empty(&self) -> i64 { 0 }
//! }
//!
//! let payloads: Vec<Bytes> = ["3", "1", "4", "1", "5"]
//!     .iter().map(|s| Bytes::from(*s)).collect();
//! laws::assert_laws(&Sum, &payloads);
//! ```
//!
//! All checks operate on *serialised* payloads and compare *serialised*
//! outputs, exactly like the platform does. Functions whose serialisation
//! is not canonical (e.g. floating-point accumulation where merge order
//! changes low-order bits) should use the `check_*` variants and compare
//! with an application-specific tolerance instead of the `assert_*` form.

use crate::{AggError, AggregationFunction};
use bytes::Bytes;

/// Deserialise, aggregate and re-serialise — what one box tier does. The
/// body mirrors [`crate::AggWrapper::aggregate_serialized`] but works on a
/// plain borrow so the checkers don't demand `'static` functions.
fn tier<F: AggregationFunction>(f: &F, inputs: Vec<Bytes>) -> Result<Bytes, AggError> {
    let mut items = Vec::with_capacity(inputs.len());
    for b in &inputs {
        items.push(f.deserialize(b)?);
    }
    if items.is_empty() {
        return Ok(f.serialize(&f.empty()));
    }
    Ok(f.serialize(&f.aggregate(items)))
}

/// Outcome of one law check: the two serialised results that must agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LawCheck {
    /// Law under test, for diagnostics.
    pub law: &'static str,
    /// Result of the reference evaluation (one flat aggregation).
    pub expected: Bytes,
    /// Result of the restructured evaluation (split / reordered / padded).
    pub actual: Bytes,
}

impl LawCheck {
    /// Whether the two serialised results are byte-identical.
    pub fn holds(&self) -> bool {
        self.expected == self.actual
    }
}

/// Merge consistency: aggregating all payloads at once must equal
/// aggregating two halves separately and merging the re-serialised
/// intermediate aggregates — the fundamental on-path aggregation step.
/// `split` is clamped to `1..payloads.len()`.
pub fn check_merge<F: AggregationFunction>(
    f: &F,
    payloads: &[Bytes],
    split: usize,
) -> Result<LawCheck, AggError> {
    let expected = tier(f, payloads.to_vec())?;
    let actual = if payloads.len() < 2 {
        expected.clone()
    } else {
        let split = split.clamp(1, payloads.len() - 1);
        let left = tier(f, payloads[..split].to_vec())?;
        let right = tier(f, payloads[split..].to_vec())?;
        tier(f, vec![left, right])?
    };
    Ok(LawCheck {
        law: "merge consistency",
        expected,
        actual,
    })
}

/// Order insensitivity: reversing the payloads must not change the result
/// (the platform gives no ordering guarantee across workers or chunks).
pub fn check_commutative<F: AggregationFunction>(
    f: &F,
    payloads: &[Bytes],
) -> Result<LawCheck, AggError> {
    let expected = tier(f, payloads.to_vec())?;
    let mut reversed = payloads.to_vec();
    reversed.reverse();
    let actual = tier(f, reversed)?;
    Ok(LawCheck {
        law: "order insensitivity",
        expected,
        actual,
    })
}

/// Identity: mixing the serialised identity element into the inputs must
/// not change the result (the master shim emulates empty results with it).
pub fn check_identity<F: AggregationFunction>(
    f: &F,
    payloads: &[Bytes],
) -> Result<LawCheck, AggError> {
    let expected = tier(f, payloads.to_vec())?;
    let identity = f.serialize(&f.empty());
    let mut padded = Vec::with_capacity(payloads.len() + 2);
    padded.push(identity.clone());
    padded.extend(payloads.iter().cloned());
    padded.push(identity);
    let actual = tier(f, padded)?;
    Ok(LawCheck {
        law: "identity",
        expected,
        actual,
    })
}

/// Serialisation stability: deserialising and re-serialising any payload —
/// which every box on the path does — must be idempotent after one pass.
pub fn check_roundtrip<F: AggregationFunction>(
    f: &F,
    payload: &Bytes,
) -> Result<LawCheck, AggError> {
    let once = f.serialize(&f.deserialize(payload)?);
    let twice = f.serialize(&f.deserialize(&once)?);
    Ok(LawCheck {
        law: "serialisation stability",
        expected: once,
        actual: twice,
    })
}

/// Idempotence: a fold folded alone is itself (a lone root aggregate is the result).
pub fn check_idempotent<F: AggregationFunction>(
    f: &F,
    payloads: &[Bytes],
) -> Result<LawCheck, AggError> {
    let expected = tier(f, payloads.to_vec())?;
    let actual = tier(f, vec![expected.clone()])?;
    Ok(LawCheck {
        law: "idempotence",
        expected,
        actual,
    })
}

/// Run every law against the payloads (merge consistency at every split
/// point) and return the first violation, if any.
pub fn check_laws<F: AggregationFunction>(
    f: &F,
    payloads: &[Bytes],
) -> Result<Option<LawCheck>, AggError> {
    let once = |law: fn(&F, &[Bytes]) -> Result<LawCheck, AggError>| {
        std::iter::once_with(move || law(f, payloads))
    };
    (1..payloads.len().max(1))
        .map(|split| check_merge(f, payloads, split))
        .chain(once(check_commutative).chain(once(check_identity)))
        .chain(payloads.iter().map(|p| check_roundtrip(f, p)))
        .chain(once(check_idempotent))
        .find(|c| !c.as_ref().is_ok_and(LawCheck::holds))
        .transpose()
}

/// Panic with a diagnostic if any law fails on the payloads. Intended for
/// use inside tests of application aggregation functions.
///
/// # Panics
///
/// Panics when a payload fails to deserialise or a law is violated.
pub fn assert_laws<F: AggregationFunction>(f: &F, payloads: &[Bytes]) {
    match check_laws(f, payloads) {
        Ok(None) => {}
        Ok(Some(c)) => panic!(
            "aggregation law violated: {} (expected {:?}, got {:?})",
            c.law, c.expected, c.actual
        ),
        Err(e) => panic!("aggregation law check failed to run: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum;
    impl AggregationFunction for Sum {
        type Item = i64;
        fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
            std::str::from_utf8(b)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| AggError::Corrupt("not an int".into()))
        }
        fn serialize(&self, v: &i64) -> Bytes {
            Bytes::from(v.to_string())
        }
        fn aggregate(&self, items: Vec<i64>) -> i64 {
            items.into_iter().sum()
        }
        fn empty(&self) -> i64 {
            0
        }
    }

    /// Mean is the textbook non-associative reduction: merging averages of
    /// halves is not the average of the whole.
    struct NaiveMean;
    impl AggregationFunction for NaiveMean {
        type Item = f64;
        fn deserialize(&self, b: &Bytes) -> Result<f64, AggError> {
            std::str::from_utf8(b)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| AggError::Corrupt("not a float".into()))
        }
        fn serialize(&self, v: &f64) -> Bytes {
            Bytes::from(format!("{v:.6}"))
        }
        fn aggregate(&self, items: Vec<f64>) -> f64 {
            items.iter().sum::<f64>() / items.len() as f64
        }
        fn empty(&self) -> f64 {
            0.0
        }
    }

    /// First-item "aggregation" is order-sensitive.
    struct TakeFirst;
    impl AggregationFunction for TakeFirst {
        type Item = String;
        fn deserialize(&self, b: &Bytes) -> Result<String, AggError> {
            Ok(String::from_utf8_lossy(b).into_owned())
        }
        fn serialize(&self, v: &String) -> Bytes {
            Bytes::from(v.clone())
        }
        fn aggregate(&self, items: Vec<String>) -> String {
            items.into_iter().next().unwrap_or_default()
        }
        fn empty(&self) -> String {
            String::new()
        }
    }

    fn payloads(vals: &[&str]) -> Vec<Bytes> {
        vals.iter().map(|s| Bytes::from(s.to_string())).collect()
    }

    #[test]
    fn sum_satisfies_every_law() {
        assert_laws(&Sum, &payloads(&["3", "1", "4", "1", "5", "-9"]));
        assert_laws(&Sum, &payloads(&["42"]));
        assert_laws(&Sum, &payloads(&[]));
    }

    #[test]
    fn naive_mean_fails_merge_consistency() {
        let v = check_laws(&NaiveMean, &payloads(&["1", "2", "6"]))
            .unwrap()
            .expect("mean must be flagged");
        assert_eq!(v.law, "merge consistency");
        assert!(!v.holds());
    }

    #[test]
    fn take_first_fails_order_insensitivity() {
        // Merge-consistent for 2 items at split 1 (left half wins either
        // way), so the commutativity check is what catches it.
        let v = check_laws(&TakeFirst, &payloads(&["a", "b"]))
            .unwrap()
            .expect("take-first must be flagged");
        assert_eq!(v.law, "order insensitivity");
    }

    #[test]
    fn identity_violation_is_detected() {
        // empty() = 1 breaks the identity law for products... emulate with
        // a sum whose claimed identity is wrong.
        struct BadIdentity;
        impl AggregationFunction for BadIdentity {
            type Item = i64;
            fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
                Sum.deserialize(b)
            }
            fn serialize(&self, v: &i64) -> Bytes {
                Sum.serialize(v)
            }
            fn aggregate(&self, items: Vec<i64>) -> i64 {
                items.into_iter().sum()
            }
            fn empty(&self) -> i64 {
                1 // wrong: the additive identity is 0
            }
        }
        let v = check_laws(&BadIdentity, &payloads(&["5", "7"]))
            .unwrap()
            .expect("bad identity must be flagged");
        assert_eq!(v.law, "identity");
    }

    #[test]
    fn a_fold_that_changes_when_folded_alone_fails_idempotence() {
        // Remembers whether its last call merged more than one item: every
        // other law holds on two or more payloads, but a lone fold loses it.
        struct MergedFlag;
        impl AggregationFunction for MergedFlag {
            type Item = (i64, bool);
            fn deserialize(&self, b: &Bytes) -> Result<(i64, bool), AggError> {
                let merged = b.ends_with(b"+");
                let v = Sum.deserialize(&b.slice(..b.len() - usize::from(merged)))?;
                Ok((v, merged))
            }
            fn serialize(&self, (v, merged): &(i64, bool)) -> Bytes {
                Bytes::from(format!("{v}{}", if *merged { "+" } else { "" }))
            }
            fn aggregate(&self, items: Vec<(i64, bool)>) -> (i64, bool) {
                (items.iter().map(|i| i.0).sum(), items.len() > 1)
            }
            fn empty(&self) -> (i64, bool) {
                (0, false)
            }
        }
        let v = check_laws(&MergedFlag, &payloads(&["1", "2", "3"]))
            .unwrap()
            .expect("a lone fold that differs must be flagged");
        assert_eq!(v.law, "idempotence");
        assert_eq!(
            (v.expected.as_ref(), v.actual.as_ref()),
            (&b"6+"[..], &b"6"[..])
        );
        assert!(check_idempotent(&Sum, &payloads(&["3", "4"]))
            .unwrap()
            .holds());
    }

    #[test]
    fn corrupt_payloads_surface_as_errors() {
        assert!(matches!(
            check_laws(&Sum, &payloads(&["1", "oops"])),
            Err(AggError::Corrupt(_))
        ));
    }

    #[test]
    fn roundtrip_detects_unstable_serialisation() {
        // Deserialise trims whitespace, serialise does not re-add it: the
        // FIRST pass is not idempotent if the original had padding — but
        // one pass through a box canonicalises, so stability compares pass
        // one vs pass two and holds here.
        struct Trimmed;
        impl AggregationFunction for Trimmed {
            type Item = String;
            fn deserialize(&self, b: &Bytes) -> Result<String, AggError> {
                Ok(String::from_utf8_lossy(b).trim().to_string())
            }
            fn serialize(&self, v: &String) -> Bytes {
                Bytes::from(v.clone())
            }
            fn aggregate(&self, items: Vec<String>) -> String {
                let mut items = items;
                items.sort();
                items.join(",")
            }
            fn empty(&self) -> String {
                String::new()
            }
        }
        let c = check_roundtrip(&Trimmed, &Bytes::from_static(b"  padded  ")).unwrap();
        assert!(c.holds(), "one pass canonicalises; two passes agree");
        assert_eq!(c.expected.as_ref(), b"padded");
    }
}
