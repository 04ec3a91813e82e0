//! UserVisits: ad revenue per source-IP prefix from web logs (the HiBench
//! / CALDA-style UV benchmark the paper runs).

use crate::job::{Emit, Job};
use crate::types::{f64_value, sum_f64, Pair};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The UserVisits job.
pub struct UserVisits;

impl Job for UserVisits {
    fn name(&self) -> &'static str {
        "uservisits"
    }

    /// Records are `ip,revenue,url` lines; the key is the /24 prefix.
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(Pair)) {
        let Ok(line) = std::str::from_utf8(record) else {
            return;
        };
        let mut fields = line.split(',');
        let (Some(ip), Some(rev)) = (fields.next(), fields.next()) else {
            return;
        };
        let Ok(revenue) = rev.parse::<f64>() else {
            return;
        };
        let prefix = match ip.rfind('.') {
            Some(i) => &ip[..i],
            None => ip,
        };
        emit(Pair::new(prefix.to_string(), f64_value(revenue)));
    }

    fn combine(&self, _key: &[u8], values: &[&[u8]], out: &mut Emit<'_>) {
        out.emit(&sum_f64(values).to_be_bytes());
    }

    fn reduce(&self, key: &[u8], values: Vec<Bytes>) -> Vec<Pair> {
        vec![Pair::new(key.to_vec(), f64_value(sum_f64(&values)))]
    }
}

/// Web-log lines over `prefixes` /24 prefixes.
pub fn uservisits_input(
    mappers: usize,
    bytes_per_mapper: usize,
    prefixes: usize,
    seed: u64,
) -> Vec<Vec<Bytes>> {
    let mut out = Vec::with_capacity(mappers);
    for m in 0..mappers {
        let mut rng = StdRng::seed_from_u64(seed ^ (m as u64) << 9);
        let mut split = Vec::new();
        let mut produced = 0usize;
        while produced < bytes_per_mapper {
            let p = rng.random_range(0..prefixes);
            let line = format!(
                "10.{}.{}.{},{:.4},http://example.org/page{}",
                p / 256,
                p % 256,
                rng.random_range(0..256),
                rng.random::<f64>() * 10.0,
                rng.random_range(0..1000)
            );
            produced += line.len();
            split.push(Bytes::from(line));
        }
        out.push(split);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::combine_pairs;
    use crate::types::parse_f64;

    #[test]
    fn map_keys_by_prefix() {
        let j = UserVisits;
        let mut pairs = Vec::new();
        j.map(b"10.0.0.1,2.5,http://x", &mut |p| pairs.push(p));
        j.map(b"10.0.0.200,1.5,http://y", &mut |p| pairs.push(p));
        let combined = combine_pairs(&j, pairs);
        assert_eq!(combined.len(), 1);
        assert_eq!(combined[0].key.as_ref(), b"10.0.0");
        assert!((parse_f64(&combined[0].value).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let j = UserVisits;
        let mut pairs = Vec::new();
        j.map(b"not-a-log-line", &mut |p| pairs.push(p));
        j.map(b"10.0.0.1,NaNrevenue?", &mut |p| pairs.push(p));
        assert!(pairs.is_empty());
    }

    #[test]
    fn generated_input_parses() {
        let inputs = uservisits_input(1, 2_000, 50, 2);
        let j = UserVisits;
        let mut pairs = Vec::new();
        for r in &inputs[0] {
            j.map(r, &mut |p| pairs.push(p));
        }
        assert_eq!(pairs.len(), inputs[0].len());
    }
}
