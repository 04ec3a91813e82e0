//! NetAgg: a software middlebox platform for application-specific on-path
//! aggregation in data centres (Mai et al., CoNEXT 2014).
//!
//! The platform has two components:
//!
//! * **Agg boxes** ([`aggbox`]) — dedicated nodes attached to switches via
//!   high-bandwidth links. Each executes application-provided aggregation
//!   functions, decomposed into fine-grained *aggregation tasks* arranged
//!   in a local aggregation tree and run to completion by a cooperative
//!   [`aggbox::scheduler::TaskScheduler`] over a fixed thread pool.
//!   Multiple applications share a box through adaptive weighted fair
//!   queuing.
//! * **Shim layers** ([`shim`]) — interposed at edge servers. The worker
//!   shim redirects partial results to the first on-path agg box; the
//!   master shim tracks per-request state, receives the fully aggregated
//!   result and emulates the empty per-worker results the unmodified
//!   master logic expects.
//!
//! Boxes cooperate along per-application *aggregation trees*
//! ([`tree::TreeSpec`]); multiple trees per application exploit path
//! diversity; multiple boxes per switch scale a tier out. Failures of
//! downstream boxes are detected and routed around ([`failure`]), and
//! per-request straggling boxes are bypassed ([`straggler`]).
//!
//! # Quick example
//!
//! ```
//! use bytes::Bytes;
//! use netagg_core::prelude::*;
//! use netagg_net::ChannelTransport;
//! use std::sync::Arc;
//!
//! // A top-1 "max" aggregation: payloads are decimal integers.
//! struct Max;
//! impl AggregationFunction for Max {
//!     type Item = i64;
//!     fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
//!         std::str::from_utf8(b)
//!             .ok()
//!             .and_then(|s| s.parse().ok())
//!             .ok_or_else(|| AggError::Corrupt("not an integer".into()))
//!     }
//!     fn serialize(&self, item: &i64) -> Bytes {
//!         Bytes::from(item.to_string())
//!     }
//!     fn aggregate(&self, items: Vec<i64>) -> i64 {
//!         items.into_iter().max().unwrap_or(i64::MIN)
//!     }
//!     fn empty(&self) -> i64 {
//!         i64::MIN
//!     }
//! }
//!
//! let transport = Arc::new(ChannelTransport::new());
//! let cluster = ClusterSpec::single_rack(/*workers=*/4, /*boxes=*/1);
//! let mut deployment = NetAggDeployment::launch(transport, &cluster).unwrap();
//! let app = deployment.register_app("max", Arc::new(AggWrapper::new(Max)), 1.0);
//!
//! let master = deployment.master_shim(app);
//! let workers: Vec<_> = (0..4).map(|w| deployment.worker_shim(app, w)).collect();
//!
//! let pending = master.register_request(7, 4);
//! for (i, w) in workers.iter().enumerate() {
//!     w.send_partial(7, Bytes::from((10 * (i + 1)).to_string())).unwrap();
//! }
//! let result = pending.wait(std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(result.combined.as_ref(), b"40");
//! // Empty results are emulated for all but one worker.
//! assert_eq!(result.emulated_empty, 3);
//! deployment.shutdown();
//! ```

#![warn(missing_docs)]

pub mod aggbox;
pub mod conn_cache;
pub mod failure;
pub mod fanin;
pub mod laws;
pub mod ledger;
pub mod lifecycle;
pub mod protocol;
pub mod runtime;
pub mod shim;
mod spans;
pub mod straggler;
pub mod tree;
pub mod window;

use bytes::Bytes;
use std::fmt;

/// Errors surfaced by aggregation functions and the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggError {
    /// Payload could not be deserialised.
    Corrupt(String),
    /// The platform failed to deliver or collect results.
    Net(String),
    /// A request timed out (also the straggler signal).
    Timeout,
    /// The deployment is shutting down.
    Shutdown,
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::Corrupt(e) => write!(f, "corrupt payload: {e}"),
            AggError::Net(e) => write!(f, "network error: {e}"),
            AggError::Timeout => write!(f, "request timed out"),
            AggError::Shutdown => write!(f, "deployment shut down"),
        }
    }
}

impl std::error::Error for AggError {}

/// Deterministic 64-bit mix (splitmix64 finaliser) used to map requests to
/// aggregation trees; master and worker shims must agree on it.
pub fn protocol_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl From<netagg_net::NetError> for AggError {
    fn from(e: netagg_net::NetError) -> Self {
        match e {
            netagg_net::NetError::Timeout => AggError::Timeout,
            netagg_net::NetError::Cancelled => AggError::Shutdown,
            other => AggError::Net(other.to_string()),
        }
    }
}

/// An application-provided aggregation function with its serialiser, the
/// typed interface the paper's *aggregation wrapper* adapts (Section 3.2.1).
///
/// The function must be **associative and commutative**: the platform
/// aggregates partial results in arbitrary order and grouping.
pub trait AggregationFunction: Send + Sync + 'static {
    /// The deserialised partial-result type the function merges.
    type Item: Send + 'static;

    /// Decode one partial result (or intermediate aggregate) from its wire
    /// form.
    fn deserialize(&self, payload: &Bytes) -> Result<Self::Item, AggError>;

    /// Encode an item to its wire form.
    fn serialize(&self, item: &Self::Item) -> Bytes;

    /// Merge a batch of items into one. `items` is never empty.
    fn aggregate(&self, items: Vec<Self::Item>) -> Self::Item;

    /// The identity element, used by the master shim to emulate the empty
    /// partial results of workers whose data was aggregated on-path.
    fn empty(&self) -> Self::Item;
}

/// Object-safe aggregation over serialised payloads: what an agg box
/// actually executes. [`AggWrapper`] adapts any [`AggregationFunction`].
pub trait DynAggregator: Send + Sync {
    /// Deserialise, aggregate and re-serialise a batch of payloads.
    fn aggregate_serialized(&self, inputs: Vec<Bytes>) -> Result<Bytes, AggError>;

    /// Serialised identity element.
    fn empty_serialized(&self) -> Bytes;
}

/// The paper's *aggregation wrapper*: adapts a typed
/// [`AggregationFunction`] to the erased [`DynAggregator`] interface agg
/// boxes schedule.
pub struct AggWrapper<F: AggregationFunction> {
    func: F,
}

impl<F: AggregationFunction> AggWrapper<F> {
    /// Wrap a typed aggregation function.
    pub fn new(func: F) -> Self {
        Self { func }
    }

    /// The wrapped function.
    pub fn inner(&self) -> &F {
        &self.func
    }
}

impl<F: AggregationFunction> DynAggregator for AggWrapper<F> {
    fn aggregate_serialized(&self, inputs: Vec<Bytes>) -> Result<Bytes, AggError> {
        let mut items = Vec::with_capacity(inputs.len());
        for b in &inputs {
            items.push(self.func.deserialize(b)?);
        }
        if items.is_empty() {
            return Ok(self.func.serialize(&self.func.empty()));
        }
        let out = self.func.aggregate(items);
        Ok(self.func.serialize(&out))
    }

    fn empty_serialized(&self) -> Bytes {
        self.func.serialize(&self.func.empty())
    }
}

/// Convenience re-exports for applications integrating with NetAgg.
pub mod prelude {
    pub use crate::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
    pub use crate::protocol::{AppId, RequestId, TreeId};
    pub use crate::runtime::NetAggDeployment;
    pub use crate::shim::{AggregatedResult, MasterShim, WorkerShim};
    pub use crate::tree::{ClusterSpec, RackSpec, TreeSpec};
    pub use crate::{AggError, AggWrapper, AggregationFunction, DynAggregator};
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum;
    impl AggregationFunction for Sum {
        type Item = u64;
        fn deserialize(&self, b: &Bytes) -> Result<u64, AggError> {
            if b.len() != 8 {
                return Err(AggError::Corrupt("want 8 bytes".into()));
            }
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            Ok(u64::from_be_bytes(a))
        }
        fn serialize(&self, item: &u64) -> Bytes {
            Bytes::copy_from_slice(&item.to_be_bytes())
        }
        fn aggregate(&self, items: Vec<u64>) -> u64 {
            items.into_iter().sum()
        }
        fn empty(&self) -> u64 {
            0
        }
    }

    #[test]
    fn wrapper_roundtrips_and_aggregates() {
        let w = AggWrapper::new(Sum);
        let ins: Vec<Bytes> = [1u64, 2, 3]
            .iter()
            .map(|v| Bytes::copy_from_slice(&v.to_be_bytes()))
            .collect();
        let out = w.aggregate_serialized(ins).unwrap();
        assert_eq!(Sum.deserialize(&out).unwrap(), 6);
    }

    #[test]
    fn wrapper_rejects_corrupt_input() {
        let w = AggWrapper::new(Sum);
        let r = w.aggregate_serialized(vec![Bytes::from_static(b"bad")]);
        assert!(matches!(r, Err(AggError::Corrupt(_))));
    }

    #[test]
    fn wrapper_empty_input_yields_identity() {
        let w = AggWrapper::new(Sum);
        let out = w.aggregate_serialized(vec![]).unwrap();
        assert_eq!(Sum.deserialize(&out).unwrap(), 0);
        assert_eq!(w.empty_serialized(), Sum.serialize(&0));
    }
}
