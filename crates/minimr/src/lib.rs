//! A map/reduce framework — the Apache Hadoop substitute used by the
//! NetAgg testbed evaluation (Section 3.3 / 4.2.2 of the paper).
//!
//! * [`job::Job`] — user code: `map`, an associative/commutative `combine`
//!   (Hadoop's combiner interface, which is exactly what agg boxes
//!   execute), and the final `reduce`.
//! * [`seqfile`] — the sequence-file-style binary key/value codec: one
//!   borrowed record reader, and the validated [`seqfile::Batch`] that agg
//!   boxes merge without decoding it into pairs.
//! * [`cluster`] — the job driver: mappers run in parallel, their
//!   intermediate pairs stream through worker shims (and, when deployed,
//!   through on-path agg boxes running the combiner) to the reducer at the
//!   master. The driver reports the shuffle+reduce time the paper measures.
//! * [`jobs`] — the five benchmarks of Fig. 22: WordCount, AdPredictor,
//!   PageRank, UserVisits and TeraSort, with synthetic input generators
//!   whose parameters control the intermediate data size and output ratio.

//! # Quick example
//!
//! ```
//! use bytes::Bytes;
//! use minimr::cluster::{JobConfig, run_job};
//! use minimr::jobs::WordCount;
//! use minimr::types::parse_u64;
//! use netagg_core::prelude::*;
//! use netagg_net::ChannelTransport;
//! use std::sync::Arc;
//!
//! // Three mappers, one agg box running the combiner on-path.
//! let transport = Arc::new(ChannelTransport::new());
//! let mut deployment =
//!     NetAggDeployment::launch(transport, &ClusterSpec::single_rack(3, 1)).unwrap();
//! let inputs = vec![
//!     vec![Bytes::from_static(b"a b a")],
//!     vec![Bytes::from_static(b"b")],
//!     vec![Bytes::from_static(b"a")],
//! ];
//! let result = run_job(&mut deployment, Arc::new(WordCount), inputs, &JobConfig::default())
//!     .unwrap();
//! let count_a = result
//!     .output
//!     .iter()
//!     .find(|p| p.key.as_ref() == b"a")
//!     .and_then(|p| parse_u64(&p.value))
//!     .unwrap();
//! assert_eq!(count_a, 3);
//! deployment.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod job;
pub mod job_fn;
pub mod jobs;
pub mod netagg;
pub mod seqfile;
pub mod shuffle;
pub mod types;

pub use cluster::{run_job, JobConfig, JobResult};
pub use job::Job;
pub use netagg::CombinerAgg;
pub use types::Pair;
