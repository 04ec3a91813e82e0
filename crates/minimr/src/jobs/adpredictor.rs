//! AdPredictor: Bayesian click-through-rate learning from impression logs
//! (after the Microsoft Bing AdPredictor the paper's AP benchmark models).
//!
//! Map emits per-feature impression/click counts; combine sums them; the
//! reduce step performs the compute-heavy posterior update (the paper
//! notes AP gains least from NetAgg because it is compute-bound).

use crate::job::{Emit, Job};
use crate::types::Pair;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Value payload: (impressions u64, clicks u64, mean f64, variance f64).
fn stats_bytes(imps: u64, clicks: u64, mean: f64, var: f64) -> [u8; 32] {
    let mut b = [0u8; 32];
    b[..8].copy_from_slice(&imps.to_be_bytes());
    b[8..16].copy_from_slice(&clicks.to_be_bytes());
    b[16..24].copy_from_slice(&mean.to_be_bytes());
    b[24..].copy_from_slice(&var.to_be_bytes());
    b
}

fn stats_value(imps: u64, clicks: u64, mean: f64, var: f64) -> Bytes {
    Bytes::copy_from_slice(&stats_bytes(imps, clicks, mean, var))
}

/// Total impressions and clicks over the values that parse.
fn count_stats<V: AsRef<[u8]>>(values: &[V]) -> (u64, u64) {
    let (mut imps, mut clicks) = (0u64, 0u64);
    for (i, c, _, _) in values.iter().filter_map(|v| parse_stats(v.as_ref())) {
        imps += i;
        clicks += c;
    }
    (imps, clicks)
}

fn parse_stats(mut b: &[u8]) -> Option<(u64, u64, f64, f64)> {
    if b.len() != 32 {
        return None;
    }
    Some((b.get_u64(), b.get_u64(), b.get_f64(), b.get_f64()))
}

/// The AP job. `ep_iterations` controls the CPU weight of the posterior
/// update at reduce time.
pub struct AdPredictor {
    /// Fixed-point iterations of the posterior update (CPU weight).
    pub ep_iterations: u32,
}

impl Default for AdPredictor {
    fn default() -> Self {
        Self { ep_iterations: 200 }
    }
}

impl Job for AdPredictor {
    fn name(&self) -> &'static str {
        "adpredictor"
    }

    /// Records are `feature_id u32 | clicked u8`.
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(Pair)) {
        if record.len() != 5 {
            return;
        }
        let feature = u32::from_be_bytes([record[0], record[1], record[2], record[3]]);
        let clicked = record[4] != 0;
        emit(Pair::new(
            feature.to_be_bytes().to_vec(),
            stats_value(1, u64::from(clicked), 0.0, 1.0),
        ));
    }

    fn combine(&self, _key: &[u8], values: &[&[u8]], out: &mut Emit<'_>) {
        let (imps, clicks) = count_stats(values);
        out.emit(&stats_bytes(imps, clicks, 0.0, 1.0));
    }

    /// Gaussian posterior update via fixed-point iteration (message-passing
    /// flavoured): deliberately CPU-heavy, like the real AP trainer.
    fn reduce(&self, key: &[u8], values: Vec<Bytes>) -> Vec<Pair> {
        let (imps, clicks) = count_stats(&values);
        let ctr_obs = if imps > 0 {
            clicks as f64 / imps as f64
        } else {
            0.0
        };
        let (mut mean, mut var) = (0.0f64, 1.0f64);
        for _ in 0..self.ep_iterations {
            // Probit-style moment matching towards the observed CTR.
            let t = mean / (1.0 + var).sqrt();
            let phi = (-(t * t) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
            let cdf = 0.5 * (1.0 + erf(t / std::f64::consts::SQRT_2));
            let grad = (ctr_obs - cdf) * phi;
            mean += var * grad;
            var = (var * (1.0 - var * phi * phi / (1.0 + var))).max(1e-6);
        }
        vec![Pair::new(
            key.to_vec(),
            stats_value(imps, clicks, mean, var),
        )]
    }
}

/// Abramowitz–Stegun erf approximation.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Impression logs: 5-byte records over `features` feature ids with a
/// per-feature click probability.
pub fn adpredictor_input(
    mappers: usize,
    bytes_per_mapper: usize,
    features: usize,
    seed: u64,
) -> Vec<Vec<Bytes>> {
    let records = bytes_per_mapper / 5;
    let mut out = Vec::with_capacity(mappers);
    for m in 0..mappers {
        let mut rng = StdRng::seed_from_u64(seed ^ (m as u64) << 21);
        let mut split = Vec::with_capacity(records);
        for _ in 0..records {
            let f = rng.random_range(0..features) as u32;
            let ctr = 0.02 + 0.1 * (f % 10) as f64 / 10.0;
            let clicked = rng.random::<f64>() < ctr;
            let mut rec = BytesMut::with_capacity(5);
            rec.put_u32(f);
            rec.put_u8(u8::from(clicked));
            split.push(rec.freeze());
        }
        out.push(split);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::combine_pairs;

    #[test]
    fn map_and_combine_count_impressions() {
        let j = AdPredictor::default();
        let mut pairs = Vec::new();
        let rec_click = [0, 0, 0, 7, 1];
        let rec_noclick = [0, 0, 0, 7, 0];
        j.map(&rec_click, &mut |p| pairs.push(p));
        j.map(&rec_noclick, &mut |p| pairs.push(p));
        let combined = combine_pairs(&j, pairs);
        assert_eq!(combined.len(), 1);
        let (imps, clicks, _, _) = parse_stats(&combined[0].value).unwrap();
        assert_eq!((imps, clicks), (2, 1));
    }

    #[test]
    fn reduce_converges_towards_observed_ctr() {
        let j = AdPredictor::default();
        let values = vec![stats_value(1000, 500, 0.0, 1.0)];
        let out = j.reduce(&7u32.to_be_bytes(), values);
        let (_, _, mean, var) = parse_stats(&out[0].value).unwrap();
        // Observed CTR 0.5 corresponds to a probit mean near 0.
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!(var > 0.0 && var <= 1.0);
    }

    #[test]
    fn bad_records_are_skipped() {
        let j = AdPredictor::default();
        let mut pairs = Vec::new();
        j.map(b"bad", &mut |p| pairs.push(p));
        assert!(pairs.is_empty());
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
    }

    #[test]
    fn input_generator_sizes() {
        let inputs = adpredictor_input(2, 500, 10, 3);
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[0].len(), 100);
        assert!(inputs[0].iter().all(|r| r.len() == 5));
    }
}
