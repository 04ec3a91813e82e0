//! Synthetic workload generator, modelled after the traces the paper uses
//! (Section 4.1): Pareto flow sizes (mean 100 KB, shape 1.05), a power-law
//! number of workers per request, 40 % aggregatable flows, locality-aware
//! worker placement, and optional stragglers (delayed flow starts).

use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How flows arrive over time.
///
/// The paper's default is the worst case — everything at `t = 0` — and it
/// reports that dynamic arrival patterns gave comparable results; both are
/// supported so that claim can be checked (`repro ablate-arrivals`).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ArrivalProcess {
    /// All flows start at time zero (worst-case contention, the default).
    AllAtOnce,
    /// Requests and background flows arrive as a Poisson process with the
    /// given mean rate (arrivals per second).
    Poisson {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// Uniform arrivals over a window of the given length in seconds.
    Uniform {
        /// Window length in seconds.
        window: f64,
    },
}

/// Workload parameters. Defaults follow Section 4.1 of the paper.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WorkloadConfig {
    /// Total number of flows (worker partial-result flows + background).
    pub num_flows: usize,
    /// Fraction of flows that belong to aggregation requests (paper: 40 %,
    /// after Facebook traces).
    pub frac_aggregatable: f64,
    /// Aggregation output ratio: output bytes / input bytes at every
    /// aggregation point (paper default 10 %).
    pub alpha: f64,
    /// Mean of the Pareto flow-size distribution, bytes (paper: 100 KB).
    pub pareto_mean: f64,
    /// Pareto shape parameter (paper: 1.05).
    pub pareto_shape: f64,
    /// Hard cap on sampled sizes, bytes, to bound the heavy tail.
    pub size_cap: f64,
    /// Minimum workers per aggregation request.
    pub workers_min: u32,
    /// Maximum workers per aggregation request.
    pub workers_max: u32,
    /// Exponent of the power-law worker-count distribution
    /// (P(w) proportional to w^-exp). The paper cites a power law where the
    /// large majority of requests have few workers; 1.8 gives ~85 % of
    /// requests fewer than 20 workers over [2, 128].
    pub workers_exp: f64,
    /// Fraction of worker flows that straggle (start late).
    pub straggler_frac: f64,
    /// Mean straggler delay in seconds (delays are sampled uniformly in
    /// [0.5, 1.5] x this mean, following the spread reported in the
    /// straggler literature the paper cites).
    pub straggler_delay: f64,
    /// Flow arrival process.
    pub arrivals: ArrivalProcess,
    /// RNG seed; identical seeds reproduce identical workloads.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            num_flows: 2000,
            frac_aggregatable: 0.4,
            alpha: 0.1,
            pareto_mean: 100e3,
            pareto_shape: 1.05,
            size_cap: 50e6,
            workers_min: 2,
            workers_max: 128,
            workers_exp: 1.8,
            straggler_frac: 0.0,
            straggler_delay: 1.0,
            arrivals: ArrivalProcess::AllAtOnce,
            seed: 42,
        }
    }
}

impl WorkloadConfig {
    /// Flows per server of the default configuration (2 000 flows on the
    /// 256-server default-scale fabric): the unit of "edge load" for the
    /// scale sweeps.
    pub const FLOWS_PER_SERVER: f64 = 2000.0 / 256.0;

    /// A workload whose flow count scales with the fabric: `edge_load` x
    /// [`Self::FLOWS_PER_SERVER`] flows per server, so `edge_load = 1.0`
    /// offers the same per-server demand as the default configuration on
    /// any topology (the benchmark's `sim-sparse` is 0.125, `sim-dense` 0.25).
    pub fn for_edge_load(topo: &crate::topology::TopologyConfig, edge_load: f64) -> Self {
        assert!(
            edge_load.is_finite() && edge_load > 0.0,
            "edge load must be finite and positive, got {edge_load}"
        );
        Self {
            num_flows: (edge_load * Self::FLOWS_PER_SERVER * topo.num_servers() as f64).round()
                as usize,
            ..Self::default()
        }
    }
}

impl ArrivalProcess {
    /// Base start time of the next request/flow.
    fn next_start(&self, rng: &mut StdRng, clock: &mut f64) -> f64 {
        match self {
            ArrivalProcess::AllAtOnce => 0.0,
            ArrivalProcess::Poisson { rate } => {
                let u: f64 = rng.random::<f64>().max(1e-12);
                *clock += -u.ln() / rate;
                *clock
            }
            ArrivalProcess::Uniform { window } => rng.random::<f64>() * window,
        }
    }
}

/// One partition/aggregation request: a master plus its workers, each with a
/// partial-result size and a start time (non-zero for stragglers).
#[derive(Debug, Clone)]
pub struct Request {
    /// Request identifier (also the ECMP/tree hash input).
    pub id: u32,
    /// Master (frontend / reducer) server.
    pub master: NodeId,
    /// Worker servers producing partial results.
    pub workers: Vec<NodeId>,
    /// Partial-result size of each worker, bytes.
    pub sizes: Vec<f64>,
    /// Start time of each worker's flow, seconds.
    pub starts: Vec<f64>,
}

/// A point-to-point non-aggregatable flow.
#[derive(Debug, Clone)]
pub struct BackgroundFlow {
    /// Source server.
    pub src: NodeId,
    /// Destination server.
    pub dst: NodeId,
    /// Bytes to transfer.
    pub size: f64,
    /// Start time, seconds.
    pub start: f64,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Partition/aggregation requests.
    pub requests: Vec<Request>,
    /// Non-aggregatable point-to-point flows.
    pub background: Vec<BackgroundFlow>,
}

impl Workload {
    /// Total number of flows the workload will expand to, *before* any
    /// aggregation strategy adds aggregator-output segments.
    pub fn num_worker_flows(&self) -> usize {
        self.requests.iter().map(|r| r.workers.len()).sum()
    }

    /// Generate a workload for `topo` (deterministic under `cfg.seed`).
    pub fn generate(topo: &Topology, cfg: &WorkloadConfig) -> Self {
        assert!(cfg.workers_min >= 2, "a request needs at least two workers");
        assert!(
            (0.0..=1.0).contains(&cfg.frac_aggregatable),
            "frac_aggregatable must be a fraction"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let num_servers = topo.config.num_servers();
        let target_agg = (cfg.num_flows as f64 * cfg.frac_aggregatable) as usize;

        let mut requests = Vec::new();
        let mut agg_flows = 0usize;
        let mut next_id = 0u32;
        let mut clock = 0.0f64;
        // A request cannot have more workers than there are servers besides
        // the master.
        let max_workers = cfg.workers_max.min(num_servers - 1);
        assert!(
            max_workers >= cfg.workers_min,
            "topology too small for the configured minimum fan-in"
        );
        while agg_flows < target_agg {
            let remaining = target_agg - agg_flows;
            let mut w = sample_power_law(&mut rng, cfg.workers_min, max_workers, cfg.workers_exp);
            // Keep total flow budget roughly exact.
            w = w.min(remaining.max(cfg.workers_min as usize) as u32);
            if (w as usize) > remaining && remaining >= cfg.workers_min as usize {
                w = remaining as u32;
            }
            let arrival = cfg.arrivals.next_start(&mut rng, &mut clock);
            let req = place_request(topo, &mut rng, next_id, w, num_servers, cfg, arrival);
            agg_flows += req.workers.len();
            requests.push(req);
            next_id += 1;
        }

        let num_background = cfg.num_flows.saturating_sub(agg_flows);
        let mut background = Vec::with_capacity(num_background);
        for _ in 0..num_background {
            let src = topo.server(rng.random_range(0..num_servers));
            let mut dst = topo.server(rng.random_range(0..num_servers));
            while dst == src {
                dst = topo.server(rng.random_range(0..num_servers));
            }
            background.push(BackgroundFlow {
                src,
                dst,
                size: sample_pareto(&mut rng, cfg),
                start: cfg.arrivals.next_start(&mut rng, &mut clock),
            });
        }
        Self {
            requests,
            background,
        }
    }
}

/// Locality-aware greedy placement (Section 4.1): workers are assigned to a
/// consecutive run of servers starting at a random offset, which keeps a
/// request as rack-local as its fan-in allows; the master sits adjacent.
fn place_request(
    topo: &Topology,
    rng: &mut StdRng,
    id: u32,
    workers: u32,
    num_servers: u32,
    cfg: &WorkloadConfig,
    arrival: f64,
) -> Request {
    let start = rng.random_range(0..num_servers);
    let master = topo.server(start);
    let mut worker_nodes = Vec::with_capacity(workers as usize);
    for i in 1..=workers {
        worker_nodes.push(topo.server((start + i) % num_servers));
    }
    let sizes: Vec<f64> = (0..workers).map(|_| sample_pareto(rng, cfg)).collect();
    let starts: Vec<f64> = (0..workers)
        .map(|_| {
            arrival
                + if cfg.straggler_frac > 0.0 && rng.random::<f64>() < cfg.straggler_frac {
                    cfg.straggler_delay * rng.random_range(0.5..1.5)
                } else {
                    0.0
                }
        })
        .collect();
    Request {
        id,
        master,
        workers: worker_nodes,
        sizes,
        starts,
    }
}

/// Bounded Pareto sample with the configured mean and shape.
fn sample_pareto(rng: &mut StdRng, cfg: &WorkloadConfig) -> f64 {
    // mean = shape * x_m / (shape - 1)  =>  x_m = mean * (shape - 1) / shape
    let xm = cfg.pareto_mean * (cfg.pareto_shape - 1.0) / cfg.pareto_shape;
    let u: f64 = rng.random::<f64>().max(1e-12);
    (xm / u.powf(1.0 / cfg.pareto_shape)).min(cfg.size_cap)
}

/// Discrete bounded power-law sample via inverse-CDF on the continuous
/// distribution, rounded.
fn sample_power_law(rng: &mut StdRng, min: u32, max: u32, exp: f64) -> u32 {
    let (a, b) = (min as f64, max as f64 + 1.0);
    let g = 1.0 - exp;
    let u: f64 = rng.random();
    let x = (a.powf(g) + u * (b.powf(g) - a.powf(g))).powf(1.0 / g);
    (x.floor() as u32).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::build(&TopologyConfig::quick())
    }

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            num_flows: 500,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn flow_budget_is_respected() {
        let w = Workload::generate(&topo(), &cfg());
        let total = w.num_worker_flows() + w.background.len();
        assert_eq!(total, 500);
        let frac = w.num_worker_flows() as f64 / total as f64;
        assert!((frac - 0.4).abs() < 0.05, "aggregatable fraction {frac}");
    }

    #[test]
    fn edge_load_scales_flow_count_with_servers() {
        let quick = TopologyConfig::quick(); // 32 servers
        let w1 = WorkloadConfig::for_edge_load(&quick, 1.0);
        assert_eq!(w1.num_flows, 250); // 32 x 2000/256
        let w2 = WorkloadConfig::for_edge_load(&quick, 2.0);
        assert_eq!(w2.num_flows, 500);
        let big = TopologyConfig::scale10x();
        let wb = WorkloadConfig::for_edge_load(&big, 1.0);
        assert_eq!(wb.num_flows, 80_000); // 10240 x 2000/256
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Workload::generate(&topo(), &cfg());
        let b = Workload::generate(&topo(), &cfg());
        assert_eq!(a.requests.len(), b.requests.len());
        for (ra, rb) in a.requests.iter().zip(&b.requests) {
            assert_eq!(ra.workers, rb.workers);
            assert_eq!(ra.sizes, rb.sizes);
        }
    }

    #[test]
    fn different_seed_differs() {
        let a = Workload::generate(&topo(), &cfg());
        let mut c2 = cfg();
        c2.seed = 1;
        let b = Workload::generate(&topo(), &c2);
        assert_ne!(
            a.requests
                .first()
                .map(|r| r.workers.clone())
                .unwrap_or_default(),
            b.requests
                .first()
                .map(|r| r.workers.clone())
                .unwrap_or_default()
        );
    }

    #[test]
    fn pareto_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(7);
        let c = cfg();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| sample_pareto(&mut rng, &c)).sum::<f64>() / n as f64;
        // Heavy-tailed with a cap: the empirical mean lands near but below
        // the nominal mean for shape 1.05.
        assert!(mean > 20e3 && mean < 400e3, "mean {mean}");
    }

    #[test]
    fn power_law_worker_counts_within_bounds_and_skewed() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut small = 0;
        let n = 10_000;
        for _ in 0..n {
            let w = sample_power_law(&mut rng, 2, 128, 1.8);
            assert!((2..=128).contains(&w));
            if w < 20 {
                small += 1;
            }
        }
        assert!(
            small as f64 / n as f64 > 0.7,
            "power law should be dominated by small fan-ins"
        );
    }

    #[test]
    fn stragglers_delay_some_workers() {
        let mut c = cfg();
        c.straggler_frac = 0.3;
        let w = Workload::generate(&topo(), &c);
        let delayed: usize = w
            .requests
            .iter()
            .flat_map(|r| r.starts.iter())
            .filter(|s| **s > 0.0)
            .count();
        let total: usize = w.num_worker_flows();
        let frac = delayed as f64 / total as f64;
        assert!((frac - 0.3).abs() < 0.1, "straggler fraction {frac}");
    }

    #[test]
    fn poisson_arrivals_spread_over_time() {
        let mut c = cfg();
        c.arrivals = ArrivalProcess::Poisson { rate: 1_000.0 };
        let w = Workload::generate(&topo(), &c);
        let starts: Vec<f64> = w
            .requests
            .iter()
            .flat_map(|r| r.starts.iter().copied())
            .chain(w.background.iter().map(|b| b.start))
            .collect();
        let max = starts.iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.0, "arrivals must spread");
        // Mean inter-arrival ~ 1 ms over a few hundred arrivals.
        assert!(max < 10.0, "window unexpectedly long: {max}");
    }

    #[test]
    fn uniform_arrivals_stay_in_window() {
        let mut c = cfg();
        c.arrivals = ArrivalProcess::Uniform { window: 0.5 };
        let w = Workload::generate(&topo(), &c);
        for b in &w.background {
            assert!(b.start >= 0.0 && b.start <= 0.5);
        }
    }

    #[test]
    fn workers_never_collide_with_master() {
        let w = Workload::generate(&topo(), &cfg());
        for r in &w.requests {
            assert!(!r.workers.contains(&r.master));
            assert_eq!(r.workers.len(), r.sizes.len());
            assert_eq!(r.workers.len(), r.starts.len());
        }
    }
}
