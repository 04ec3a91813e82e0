//! Flow-level discrete-event simulator for data-centre networks with
//! on-path aggregation, reproducing the simulation half of the NetAgg paper
//! (Mai et al., CoNEXT 2014).
//!
//! The simulator models a three-tier, multi-rooted topology (ECMP-routed)
//! in a fluid TCP max-min flow-fairness model. Aggregation requests become
//! *segment trees*: worker flows feed aggregation points (edge servers for
//! the rack/binary/chain baselines, agg boxes for NetAgg), each of which
//! forwards `alpha` times the bytes it receives. Agg boxes additionally have
//! a finite processing rate shared max-min by the flows they serve.
//!
//! # Quick example
//!
//! ```
//! use netagg_sim::{ExperimentConfig, Strategy, run_experiment};
//!
//! let mut cfg = ExperimentConfig::quick();
//! cfg.strategy = Strategy::NetAgg;
//! let result = run_experiment(&cfg);
//! assert!(result.fct_p99(netagg_sim::metrics::FlowClass::All) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod aggregation;
mod bookkeeping;
pub mod cost;
pub mod deployment;
pub mod engine;
pub mod events;
pub mod flow;
pub mod incremental;
pub mod metrics;
pub mod routing;
pub mod topology;
pub mod workload;

pub use aggregation::Strategy;
pub use cost::{CostModel, UpgradeOption};
pub use deployment::{BoxPlacement, Deployment};
pub use engine::{EngineError, SimResult};
pub use flow::{FlowId, FlowSpec, SegmentKind};
pub use incremental::{EngineStats, IncrementalEngine};
pub use metrics::{FlowClass, Metrics};
pub use topology::{Endpoint, LinkId, NodeId, Topology, TopologyConfig};
pub use workload::{ArrivalProcess, Request, Workload, WorkloadConfig};

/// Gigabits per second expressed in bytes per second (decimal, as used for
/// network link capacities).
pub const GBPS: f64 = 1e9 / 8.0;

/// Which rate solver [`IncrementalEngine`]'s event loop runs.
///
/// Both compute the max-min fair allocation and agree within
/// floating-point accumulation order (pinned to 1e-6 relative by
/// `tests/incremental_parity.rs`); they differ in which flows an event
/// re-rates, hence in asymptotics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum EngineKind {
    /// Certificate-verified local repair of the flows around the event:
    /// the production solver, scales to the 10,240-server fabric.
    #[default]
    Incremental,
    /// Every active flow at every event: exact by construction and
    /// quadratic; the oracle for parity testing and small topologies.
    Reference,
}

/// Complete configuration of one simulation experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Topology (size, link speeds, over-subscription).
    pub topology: TopologyConfig,
    /// Workload (flow sizes, fan-in, aggregatable fraction, stragglers).
    pub workload: WorkloadConfig,
    /// Aggregation strategy under test.
    pub strategy: Strategy,
    /// Where agg boxes are deployed (only meaningful for [`Strategy::NetAgg`]).
    pub deployment: Deployment,
    /// Maximum processing rate of one agg box, bytes/s.
    pub box_rate: f64,
    /// Capacity of the link attaching an agg box to its switch, bytes/s.
    pub box_link: f64,
    /// Which rate solver to run (incremental by default).
    pub engine: EngineKind,
}

impl ExperimentConfig {
    /// Paper-scale default: 1 024 servers, 1 Gbps edge, 1:4 over-subscription,
    /// agg boxes on every switch processing at 9.2 Gbps over 10 Gbps links.
    pub fn paper() -> Self {
        Self {
            topology: TopologyConfig::paper(),
            workload: WorkloadConfig::default(),
            strategy: Strategy::RackLevel,
            deployment: Deployment::all(),
            box_rate: 9.2 * GBPS,
            box_link: 10.0 * GBPS,
            engine: EngineKind::Incremental,
        }
    }

    /// Reduced scale (256 servers) preserving all capacity *ratios*; used as
    /// the default for parameter sweeps so a full figure regenerates in
    /// seconds. Shapes (who wins, crossovers) match the paper-scale runs.
    pub fn default_scale() -> Self {
        Self {
            topology: TopologyConfig::default_scale(),
            ..Self::paper()
        }
    }

    /// Tiny scale for unit tests and doc tests.
    pub fn quick() -> Self {
        let mut cfg = Self {
            topology: TopologyConfig::quick(),
            ..Self::paper()
        };
        cfg.workload.num_flows = 200;
        cfg
    }
}

/// Build the topology, generate the workload, expand it into segment trees
/// under the configured strategy and run the fluid simulation to completion.
pub fn run_experiment(cfg: &ExperimentConfig) -> SimResult {
    run_experiment_stats(cfg).0
}

/// Like [`run_experiment`], additionally returning the engine's event and
/// re-solve counters.
pub fn run_experiment_stats(cfg: &ExperimentConfig) -> (SimResult, EngineStats) {
    let topo = Topology::build(&cfg.topology);
    let placement = BoxPlacement::new(&topo, &cfg.deployment);
    let workload = Workload::generate(&topo, &cfg.workload);
    let flows = aggregation::expand(&topo, &placement, &workload, cfg);
    IncrementalEngine::new(&topo, &placement, cfg).run_stats(flows)
}

/// Like [`run_experiment`], but additionally publishing the run's outcome
/// as `sim.*` metrics to `obs` (see DESIGN.md, "Observability"):
/// `sim.flows_completed`, `sim.requests_completed`, `sim.bytes_delivered`,
/// and the latency histograms `sim.fct_us` / `sim.request_completion_us`.
pub fn run_experiment_with_obs(
    cfg: &ExperimentConfig,
    obs: &netagg_obs::MetricsRegistry,
) -> SimResult {
    run_experiment_stats_with_obs(cfg, obs).0
}

/// [`run_experiment_with_obs`] + the engine counters of
/// [`run_experiment_stats`].
pub fn run_experiment_stats_with_obs(
    cfg: &ExperimentConfig,
    obs: &netagg_obs::MetricsRegistry,
) -> (SimResult, EngineStats) {
    let (result, stats) = run_experiment_stats(cfg);
    let flows_completed = obs.counter(netagg_obs::names::SIM_FLOWS_COMPLETED);
    let bytes_delivered = obs.counter(netagg_obs::names::SIM_BYTES_DELIVERED);
    let fct_us = obs.histogram(netagg_obs::names::SIM_FCT_US);
    for r in &result.records {
        flows_completed.inc();
        bytes_delivered.add(r.size as u64);
        fct_us.record((r.fct() * 1e6) as u64);
    }
    // Per-request span: first segment start to last segment finish.
    let mut spans: std::collections::HashMap<u32, (f64, f64)> = std::collections::HashMap::new();
    for r in &result.records {
        if let Some(q) = r.request {
            let e = spans.entry(q).or_insert((f64::INFINITY, 0.0));
            e.0 = e.0.min(r.start);
            e.1 = e.1.max(r.finish);
        }
    }
    let requests_completed = obs.counter(netagg_obs::names::SIM_REQUESTS_COMPLETED);
    let request_completion_us = obs.histogram(netagg_obs::names::SIM_REQUEST_COMPLETION_US);
    for (_, (start, finish)) in spans {
        requests_completed.inc();
        request_completion_us.record(((finish - start) * 1e6) as u64);
    }
    (result, stats)
}
