//! Closure-based job construction: define a map/reduce job from three
//! functions without implementing [`Job`] by hand.
//!
//! ```
//! use bytes::Bytes;
//! use minimr::job_fn::FnJob;
//! use minimr::types::{sum_u64, u64_value, Pair};
//!
//! let line_count = FnJob::new("line-count")
//!     .with_map(|_record, emit| emit(Pair::new("lines", u64_value(1))))
//!     .with_combine(|_key, values, out| out.emit(&sum_u64(values).to_be_bytes()))
//!     .with_reduce(|key, values| vec![Pair::new(key.to_vec(), u64_value(sum_u64(&values)))]);
//! let mut pairs = Vec::new();
//! use minimr::job::Job;
//! line_count.map(b"hello", &mut |p| pairs.push(p));
//! assert_eq!(pairs.len(), 1);
//! ```

use crate::job::{Emit, Job};
use crate::types::Pair;
use bytes::Bytes;

type MapFn = dyn Fn(&[u8], &mut dyn FnMut(Pair)) + Send + Sync;
type CombineFn = dyn Fn(&[u8], &[&[u8]], &mut Emit<'_>) + Send + Sync;
type ReduceFn = dyn Fn(&[u8], Vec<Bytes>) -> Vec<Pair> + Send + Sync;

/// A [`Job`] assembled from closures.
pub struct FnJob {
    name: &'static str,
    map_fn: Box<MapFn>,
    combine_fn: Option<Box<CombineFn>>,
    reduce_fn: Option<Box<ReduceFn>>,
}

impl FnJob {
    /// Start building a job; `map` must be provided before use, `combine`
    /// defaults to identity (no reduction) and `reduce` defaults to
    /// emitting `(key, value)` pairs unchanged.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            map_fn: Box::new(|_, _| {}),
            combine_fn: None,
            reduce_fn: None,
        }
    }

    /// Set the map function.
    pub fn with_map(
        mut self,
        f: impl Fn(&[u8], &mut dyn FnMut(Pair)) + Send + Sync + 'static,
    ) -> Self {
        self.map_fn = Box::new(f);
        self
    }

    /// Set the (associative, commutative) combiner.
    pub fn with_combine(
        mut self,
        f: impl Fn(&[u8], &[&[u8]], &mut Emit<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.combine_fn = Some(Box::new(f));
        self
    }

    /// Set the final reduce function.
    pub fn with_reduce(
        mut self,
        f: impl Fn(&[u8], Vec<Bytes>) -> Vec<Pair> + Send + Sync + 'static,
    ) -> Self {
        self.reduce_fn = Some(Box::new(f));
        self
    }
}

impl Job for FnJob {
    fn name(&self) -> &'static str {
        self.name
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(Pair)) {
        (self.map_fn)(record, emit)
    }

    fn combine(&self, key: &[u8], values: &[&[u8]], out: &mut Emit<'_>) {
        match &self.combine_fn {
            Some(f) => f(key, values, out),
            None => values.iter().for_each(|v| out.emit(v)),
        }
    }

    fn reduce(&self, key: &[u8], values: Vec<Bytes>) -> Vec<Pair> {
        match &self.reduce_fn {
            Some(f) => f(key, values),
            None => values
                .into_iter()
                .map(|v| Pair::new(key.to_vec(), v))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{JobConfig, MRCluster};
    use crate::job::combine_pairs;
    use crate::types::{parse_u64, sum_u64, u64_value};
    use netagg_core::prelude::*;
    use netagg_core::runtime::NetAggDeployment;
    use netagg_core::shim::TreeSelection;
    use netagg_net::ChannelTransport;
    use std::sync::Arc;

    fn char_count() -> FnJob {
        FnJob::new("char-count")
            .with_map(|record, emit| {
                emit(Pair::new("chars", u64_value(record.len() as u64)));
            })
            .with_combine(|_k, values, out| out.emit(&sum_u64(values).to_be_bytes()))
            .with_reduce(|k, values| vec![Pair::new(k.to_vec(), u64_value(sum_u64(&values)))])
    }

    #[test]
    fn fn_job_runs_on_the_platform() {
        let transport = Arc::new(ChannelTransport::new());
        let mut dep = NetAggDeployment::launch(transport, &ClusterSpec::single_rack(3, 1)).unwrap();
        let cluster = MRCluster::launch(
            &mut dep,
            Arc::new(char_count()),
            TreeSelection::PerRequest,
            1.0,
        );
        let inputs = vec![
            vec![Bytes::from_static(b"abcd")],
            vec![Bytes::from_static(b"xy")],
            vec![Bytes::from_static(b"z")],
        ];
        let result = cluster.run(inputs, &JobConfig::default()).unwrap();
        assert_eq!(result.output.len(), 1);
        assert_eq!(parse_u64(&result.output[0].value).unwrap(), 7);
        dep.shutdown();
    }

    #[test]
    fn defaults_are_identity() {
        let j = FnJob::new("noop").with_map(|r, emit| emit(Pair::new(r.to_vec(), "v")));
        let combined = combine_pairs(&j, vec![Pair::new("k", "a"), Pair::new("k", "b")]);
        assert_eq!(combined.len(), 2);
        let reduced = Job::reduce(&j, b"k", combined.into_iter().map(|p| p.value).collect());
        assert_eq!(reduced.len(), 2);
        assert_eq!(reduced[0].key.as_ref(), b"k");
    }
}
