//! Runtime observability for the NetAgg stack.
//!
//! The paper's evaluation (Section 4) hinges on quantities the runtime must
//! measure about itself: per-task execution time feeding adaptive fair
//! queuing, per-request completion latency at the master shim, and the
//! failure/straggler re-routes taken on the data path. This crate provides
//! the shared instrumentation layer those measurements are built on:
//!
//! * [`MetricsRegistry`] — a cheaply clonable, thread-safe registry handing
//!   out named [`Counter`]s, [`Gauge`]s and [`Histogram`]s. Handles are
//!   plain atomics: updating one on the data path is a single
//!   `fetch_add`/`store`, no lock is taken after the handle is created.
//! * [`Histogram`] — a fixed-footprint log-linear latency histogram
//!   (8 sub-buckets per power of two, ≤ 12.5 % quantile error) with
//!   p50/p95/p99 extraction.
//! * [`EventRing`] — a bounded ring buffer of structured [`Event`]s for
//!   rare, high-signal occurrences (failure detections, straggler
//!   escalations) that a counter alone would flatten.
//! * [`MetricsSnapshot`] — a point-in-time copy of everything in a
//!   registry that serializes to JSON ([`MetricsSnapshot::to_json`]) and
//!   human-readable text ([`MetricsSnapshot::to_text`]).
//! * [`trace`] — causal per-request tracing: a bounded, sampled
//!   [`trace::TraceRecorder`] of [`trace::SpanRecord`]s stitched across
//!   components by a wire-carried [`trace::TraceCtx`], exported as Chrome
//!   trace-event JSON and per-request critical-path summaries
//!   (DESIGN.md §11).
//!
//! # Quick example
//!
//! ```
//! use netagg_obs::MetricsRegistry;
//!
//! let obs = MetricsRegistry::new();
//!
//! // Handles are Arc-backed: create once, update lock-free on the hot path.
//! let tasks = obs.counter("aggbox.tasks_executed");
//! let lat = obs.histogram("aggbox.task_exec_us");
//! tasks.inc();
//! lat.record(250); // microseconds
//!
//! obs.emit("failure", "box 3 declared failed");
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("aggbox.tasks_executed"), Some(1));
//! assert_eq!(snap.histogram("aggbox.task_exec_us").unwrap().count, 1);
//! assert!(snap.to_json().contains("\"aggbox.tasks_executed\": 1"));
//! ```

#![warn(missing_docs)]

mod events;
mod histogram;
pub mod names;
mod registry;
mod snapshot;
pub mod trace;

pub use events::{Event, EventRing};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use snapshot::MetricsSnapshot;

/// The splitmix64 output for state `x`: `x` advanced by the golden-ratio
/// increment, then finalised. Tree choice, trace ids, ECMP choices and
/// seeded fault schedules all mix with this one function.
///
/// ```
/// assert_eq!(netagg_obs::splitmix64(0), 0xE220_A839_7B1D_CDAF);
/// ```
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
