//! The typed byte quantity for flow control.
//!
//! A byte *count* stops being a bare `u64` that can be mixed up with a
//! frame count or a buffer: [`Bytes`] is what a
//! [`crate::flow::FlowWindow`] (the TCP reactor's outbound window,
//! DESIGN.md §12) is limited by, acquires and releases. The newtype
//! follows minim's flow state (SNIPPETS.md §2).

use std::ops::{Add, AddAssign};

/// A count of bytes (payload sizes, window limits, in-flight totals).
///
/// Distinct from [`bytes::Bytes`] (a buffer); this is the *quantity*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Exactly `n` bytes.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// `n` KiB.
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// `n` MiB.
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// A buffer length as a byte count.
    pub const fn of_len(n: usize) -> Self {
        Bytes(n as u64)
    }

    /// The raw count.
    pub const fn into_u64(self) -> u64 {
        self.0
    }

    /// `self - other`, floored at zero.
    pub const fn saturating_sub(self, other: Self) -> Self {
        Bytes(self.0.saturating_sub(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_arithmetic_is_typed() {
        let mut w = Bytes::kib(64);
        w += Bytes::new(100);
        assert_eq!(w.into_u64(), 64 * 1024 + 100);
        assert_eq!(Bytes::of_len(3) + Bytes::new(2), Bytes::new(5));
        assert_eq!(Bytes::new(5).saturating_sub(Bytes::new(9)), Bytes::ZERO);
        assert!(Bytes::mib(1) > Bytes::kib(1023));
    }
}
