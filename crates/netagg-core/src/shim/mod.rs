//! Shim layers: transparent interception of application data flows
//! (Section 3.2.2).
//!
//! The paper wraps Java sockets so applications redirect traffic to agg
//! boxes without modification. In this Rust reproduction the shims are
//! explicit objects with the same responsibilities: the [`WorkerShim`]
//! redirects partial results to the worker's first on-path agg box (and
//! handles redirects from failure/straggler recovery via a replay buffer);
//! the [`MasterShim`] tracks per-request state, performs the final
//! cross-tree aggregation and emulates the empty per-worker results the
//! master application logic expects.

mod master;
pub mod master_core;
mod worker;
pub mod worker_core;

pub use master::{AggregatedResult, MasterShim, MasterShimConfig, PendingRequest};
pub use worker::{WorkerShim, WorkerStats};
pub use worker_core::TreeSelection;
