//! # netagg-scenarios — declarative scenario matrix and soak harness
//!
//! One [`ScenarioSpec`] — a topology, a workload mix and a seeded
//! impairment schedule — runs identically against any transport through
//! the [`TransportProvider`] trait, so tests, examples and benchmarks
//! describe *what* to run and the [`runner`] owns *how*: fault wrapping,
//! registration order, detector arming, the §7/§9 metrics-contract
//! checks at teardown.
//!
//! ```
//! use netagg_scenarios::{
//!     run_scenario, ChannelProvider, ScenarioSpec, SyntheticKind, TopologySpec,
//! };
//!
//! let spec = ScenarioSpec::new("doc-smoke", TopologySpec::single_rack(3, 1))
//!     .synthetic("sum", SyntheticKind::Sum, 25, 1.0);
//! let report = run_scenario(&spec, &ChannelProvider).unwrap();
//! assert!(report.passed());
//! assert_eq!(report.requests_completed, 25);
//! ```
//!
//! The schema, provider contract and soak invariants are documented in
//! DESIGN.md §14.

#![warn(missing_docs)]

pub mod contract;
pub mod provider;
pub mod runner;
pub mod soak;
pub mod spec;
pub mod world;

pub use provider::{builtin_providers, ChannelProvider, TcpProvider, TransportProvider};
pub use runner::{run_scenario, AppStats, ScenarioHarness, ScenarioReport};
pub use soak::{full_soak_spec, quick_soak_spec, run_soak};
pub use spec::{AppSpec, Impairment, ScenarioSpec, SyntheticKind, TopologySpec, Workload};
pub use world::{explore, Event, Failure, Refused, World, WorldReport};
