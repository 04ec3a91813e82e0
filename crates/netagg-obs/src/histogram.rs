//! Fixed-bucket log-linear latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets, bounding quantile error at
/// `1 / 2^SUB_BITS` (12.5 %).
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS; // 8
/// Bucket count covering the full `u64` value range: values below 8 get
/// one exact bucket each, then 61 octaves × 8 sub-buckets.
const NUM_BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) << SUB_BITS; // 496

/// A lock-free latency histogram with log-linear buckets.
///
/// Values are dimensionless `u64`s; by convention the NetAgg stack records
/// **microseconds** (metric names carry a `_us` suffix). Recording is a
/// handful of relaxed atomic operations; quantiles are computed only when
/// a snapshot is taken.
///
/// ```
/// use netagg_obs::Histogram;
///
/// let h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// let s = h.snapshot();
/// assert_eq!(s.count, 100);
/// assert_eq!(s.min, 1);
/// assert_eq!(s.max, 100);
/// // Log-linear buckets guarantee ≤ 12.5 % error on quantiles.
/// assert!((s.p50 as f64 - 50.0).abs() / 50.0 <= 0.125);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in microseconds.
    ///
    /// ```
    /// use netagg_obs::Histogram;
    /// use std::time::Duration;
    ///
    /// let h = Histogram::new();
    /// h.record_duration(Duration::from_millis(2));
    /// assert_eq!(h.snapshot().min, 2000);
    /// ```
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Take a point-in-time [`HistogramSnapshot`] with p50/p95/p99.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(&counts, count, 0.50),
            p95: quantile(&counts, count, 0.95),
            p99: quantile(&counts, count, 0.99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Estimated 50th percentile (≤ 12.5 % bucket error).
    pub p50: u64,
    /// Estimated 95th percentile (≤ 12.5 % bucket error).
    pub p95: u64,
    /// Estimated 99th percentile (≤ 12.5 % bucket error).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Map a value to its bucket. Values below `SUB_COUNT` get exact buckets;
/// above that, the top `SUB_BITS + 1` significant bits select an
/// (octave, sub-bucket) pair, giving geometrically growing bucket widths.
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = ((value >> (msb - SUB_BITS)) & (SUB_COUNT - 1)) as usize;
    (octave << SUB_BITS) + sub
}

/// Largest value that maps to bucket `index`; used as the quantile
/// estimate so reported percentiles never under-state the latency.
fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB_COUNT as usize {
        return index as u64;
    }
    let octave = (index >> SUB_BITS) as u32;
    let sub = (index & (SUB_COUNT as usize - 1)) as u64;
    let width = 1u64 << (octave - 1);
    (SUB_COUNT + sub) * width + (width - 1)
}

fn quantile(counts: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    // Exclusive rank (floor + 1): the estimate is the value *above* the
    // q-fraction of samples, so a tail outlier is reported by the tail
    // quantile — percentiles must never under-state the latency.
    let rank = ((q * total as f64).floor() as u64 + 1).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(counts.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive over the low range, spot checks at octave borders.
        let mut prev = bucket_index(0);
        for v in 1..10_000u64 {
            let b = bucket_index(v);
            assert!(b >= prev, "index must not decrease at v={v}");
            assert!(b - prev <= 1, "no bucket skipped at v={v}");
            prev = b;
        }
        for shift in 3..63u32 {
            let v = 1u64 << shift;
            assert_eq!(
                bucket_index(v),
                bucket_index(v - 1) + 1,
                "border at 2^{shift}"
            );
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0u64, 1, 7, 8, 9, 255, 256, 1000, 123_456, u64::MAX / 2] {
            let i = bucket_index(v);
            let upper = bucket_upper_bound(i);
            assert!(upper >= v, "upper bound {upper} below value {v}");
            // The upper bound stays within one sub-bucket width (12.5 %).
            assert!(
                (upper - v) as f64 <= (v as f64 / SUB_COUNT as f64).max(1.0),
                "bound {upper} too loose for {v}"
            );
            if i + 1 < NUM_BUCKETS {
                assert!(bucket_upper_bound(i + 1) > upper);
            }
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_value_snapshot() {
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (1, 42, 42, 42));
        for p in [s.p50, s.p95, s.p99] {
            assert!((42..=47).contains(&p), "estimate {p} outside bucket of 42");
        }
    }

    #[test]
    fn uniform_percentiles_within_error_bound() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (est, exact) in [(s.p50, 5_000.0), (s.p95, 9_500.0), (s.p99, 9_900.0)] {
            let err = (est as f64 - exact) / exact;
            assert!(
                (-0.001..=0.125).contains(&err),
                "estimate {est} vs exact {exact}: err {err}"
            );
        }
        assert!((s.mean() - 5_000.5).abs() < 1e-6);
    }

    #[test]
    fn skewed_distribution_percentiles() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(100_000);
        let s = h.snapshot();
        assert!(s.p50 <= 11);
        assert!(s.p95 <= 11);
        assert!(s.p99 >= 100_000);
        assert_eq!(s.max, 100_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        #[expect(
            clippy::disallowed_methods,
            reason = "concurrency smoke test hammers the histogram from plain threads"
        )]
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
    }
}
