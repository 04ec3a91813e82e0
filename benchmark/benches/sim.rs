//! `sim-sparse` and `sim-dense`: the incremental fluid engine on the
//! 10 240-server fabric at two edge loads. Every number is host time
//! measured around the public calls `run_experiment_stats` composes, or an
//! exact count from `EngineStats`; simulated statistics are checked, not
//! timed.

use crate::stats::{best_time, median, process_cpu_ns};
use crate::{Args, Outcome};
use netagg_sim::flow::Resource;
use netagg_sim::{
    aggregation, run_experiment, BoxPlacement, EngineKind, ExperimentConfig, FlowClass, FlowSpec,
    IncrementalEngine, Strategy, Topology, TopologyConfig, Workload, WorkloadConfig,
};
use std::time::Instant;

/// Edge load and simulation seeds of each workload. The seeds (derived
/// from `--seed`) are the run's inputs and their number is fixed; what
/// `--seconds` buys is repetitions of the same simulations, about 0.3 s
/// and 3 s of host time each.
pub struct SimSpec {
    edge_load: f64,
    seeds: u64,
}

pub fn spec(name: &str) -> Option<SimSpec> {
    match name {
        "sim-sparse" => Some(SimSpec {
            edge_load: 0.125,
            seeds: 8,
        }),
        "sim-dense" => Some(SimSpec {
            edge_load: 0.25,
            seeds: 4,
        }),
        _ => None,
    }
}

fn config(edge_load: f64, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    cfg.topology = TopologyConfig::scale10x();
    cfg.strategy = Strategy::NetAgg;
    cfg.workload = WorkloadConfig::for_edge_load(&cfg.topology, edge_load);
    cfg.workload.seed = seed;
    cfg
}

/// Bytes the expanded flows will put on fabric links: each flow's size
/// once per link it crosses. Known before anything is simulated.
fn planned_link_bytes(flows: &[FlowSpec]) -> f64 {
    flows
        .iter()
        .map(|f| {
            let links = f
                .resources
                .iter()
                .filter(|r| matches!(r, Resource::Link(_)))
                .count();
            f.size * links as f64
        })
        .sum()
}

/// Simulated link bytes per simulated request of the repository's default
/// workload seed, generated and expanded but not simulated. Deliberately
/// not derived from `--seed`: flow sizes are Pareto(1.05), so over the
/// seeds a run has time for this count moves by a tenth from one `--seed`
/// to the next, and it shares one bound with the exact byte counts of the
/// runtime workloads. On a fixed workload it is an exact fingerprint of
/// what the aggregation strategy puts on the fabric: it moves only when
/// behaviour does.
fn wire_bytes_per_request(edge_load: f64) -> f64 {
    let cfg = config(edge_load, WorkloadConfig::default().seed);
    let topo = Topology::build(&cfg.topology);
    let placement = BoxPlacement::new(&topo, &cfg.deployment);
    let workload = Workload::generate(&topo, &cfg.workload);
    let flows = aggregation::expand(&topo, &placement, &workload, &cfg);
    planned_link_bytes(&flows) / workload.requests.len() as f64
}

/// Host seconds of each public call one experiment is made of, and what
/// the engine reported.
struct SeedRun {
    topology_build_s: f64,
    workload_generate_s: f64,
    expand_s: f64,
    engine_new_s: f64,
    run_s: f64,
    cpu_us: f64,
    requests: usize,
    flows: usize,
    completed: usize,
    /// Whether the links carried exactly the bytes the expansion planned.
    bytes_conserved: bool,
    fct_p99_ms: f64,
    stats: netagg_sim::EngineStats,
}

fn events_per_s(r: &SeedRun) -> f64 {
    r.stats.events() as f64 / r.run_s
}

impl SeedRun {
    fn setup_s(&self) -> f64 {
        self.topology_build_s + self.workload_generate_s + self.expand_s + self.engine_new_s
    }
}

fn run_seed(cfg: &ExperimentConfig) -> SeedRun {
    let t = Instant::now();
    let topo = Topology::build(&cfg.topology);
    let placement = BoxPlacement::new(&topo, &cfg.deployment);
    let topology_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let workload = Workload::generate(&topo, &cfg.workload);
    let workload_generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let flows = aggregation::expand(&topo, &placement, &workload, cfg);
    let expand_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut engine = IncrementalEngine::new(&topo, &placement, cfg);
    let engine_new_s = t.elapsed().as_secs_f64();

    let n_flows = flows.len();
    let planned = planned_link_bytes(&flows);
    let cpu_before = process_cpu_ns();
    let t = Instant::now();
    let (result, stats) = engine.run_stats(flows);
    let run_s = t.elapsed().as_secs_f64();
    let cpu_us = (process_cpu_ns() - cpu_before) as f64 / 1e3;
    SeedRun {
        topology_build_s,
        workload_generate_s,
        expand_s,
        engine_new_s,
        run_s,
        cpu_us,
        requests: workload.requests.len(),
        flows: n_flows,
        completed: result
            .records
            .iter()
            .filter(|r| r.finish.is_finite() && r.finish >= r.start)
            .count(),
        bytes_conserved: (result.link_bytes.iter().sum::<f64>() - planned).abs() <= 1e-6 * planned,
        fct_p99_ms: result.fct_p99(FlowClass::All) * 1e3,
        stats,
    }
}

/// Flows of the parity run: small enough for the quadratic oracle.
const PARITY_FLOWS: usize = 2000;

fn parity_config(seed: u64, engine: EngineKind) -> ExperimentConfig {
    let mut cfg = config(0.125, seed);
    cfg.workload.num_flows = PARITY_FLOWS;
    cfg.engine = engine;
    cfg
}

/// Run the same 2 000 flows on both engines; returns flows compared and
/// flows whose completion time differs by more than 1e-6 relative.
fn parity(seed: u64) -> (u64, u64) {
    let inc = run_experiment(&parity_config(seed, EngineKind::Incremental));
    let oracle = run_experiment(&parity_config(seed, EngineKind::Reference));
    if inc.records.len() != oracle.records.len() {
        return (oracle.records.len() as u64, oracle.records.len() as u64);
    }
    let bad = inc
        .records
        .iter()
        .zip(&oracle.records)
        .filter(|(a, b)| (a.finish - b.finish).abs() > 1e-6 * b.finish.abs().max(1e-9))
        .count();
    (inc.records.len() as u64, bad as u64)
}

/// Events per host second of the oracle engine on the parity workload
/// (one start and one completion per flow).
pub fn reference_events_per_s() -> f64 {
    let cfg = parity_config(42, EngineKind::Reference);
    let t = Instant::now();
    let result = run_experiment(&cfg);
    2.0 * result.records.len() as f64 / t.elapsed().as_secs_f64()
}

/// splitmix64 step: the k-th simulation seed derived from `--seed`.
fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run(spec: &SimSpec, args: &Args, out: &mut Outcome) {
    // The traced run spends most of its time in the micro-drivers.
    let budget = args.seconds * if args.trace { 0.2 } else { 1.0 };
    let configs: Vec<ExperimentConfig> = (0..spec.seeds)
        .map(|k| config(spec.edge_load, derive(args.seed, k)))
        .collect();

    // Rounds over the same seeds until the time is up. A simulation is
    // deterministic, so whatever makes one repetition of a seed slower
    // than another is the host (see `stats::best_rate`): each seed is
    // reported by its fastest repetition, and repetitions of one seed are
    // a whole round apart, longer than most of the host's slow stretches.
    let started = Instant::now();
    let mut best: Vec<SeedRun> = Vec::new();
    let mut setups = Vec::new();
    let mut rounds = 0;
    loop {
        args.placement.start_round(rounds);
        let round_began = Instant::now();
        for (k, cfg) in configs.iter().enumerate() {
            let r = run_seed(cfg);
            out.attempted += r.flows as u64;
            out.failed += (r.flows - r.completed) as u64 + !r.bytes_conserved as u64;
            setups.push(r.setup_s());
            match best.get_mut(k) {
                None => best.push(r),
                Some(b) => {
                    // Same inputs, same simulated outcome, bit for bit.
                    out.failed += (r.stats.events() != b.stats.events()
                        || r.fct_p99_ms.to_bits() != b.fct_p99_ms.to_bits())
                        as u64;
                    if r.run_s < b.run_s {
                        *b = r;
                    }
                }
            }
        }
        rounds += 1;
        let round_s = round_began.elapsed().as_secs_f64();
        // No round is begun that the time left would not hold.
        if started.elapsed().as_secs_f64() + round_s >= budget {
            break;
        }
    }

    let (compared, differing) = parity(derive(args.seed, u64::MAX));
    out.attempted += compared;
    out.failed += differing;
    out.note(format!(
        "{} seeds x {rounds} rounds, {} flows and {} simulated requests each (first seed), \
         {:.0} to {:.0} events/s by seed; parity vs the reference engine on {compared} flows: \
         {differing} differ by more than 1e-6",
        spec.seeds,
        best[0].flows,
        best[0].requests,
        best.iter().map(events_per_s).fold(f64::INFINITY, f64::min),
        best.iter().map(events_per_s).fold(0.0, f64::max),
    ));

    let sum = |f: &dyn Fn(&SeedRun) -> f64| best.iter().map(f).sum::<f64>();
    let med = |f: &dyn Fn(&SeedRun) -> f64| median(&mut best.iter().map(f).collect::<Vec<_>>());
    let run_s = sum(&|r| r.run_s);
    if !args.trace {
        let m = &mut out.metrics;
        m.set("setup_s", best_time(&setups));
        m.set("events_per_s", sum(&|r| r.stats.events() as f64) / run_s);
        m.set("requests_per_s", sum(&|r| r.requests as f64) / run_s);
        m.set("latency_p50_us", med(&|r| r.run_s * 1e6));
        m.set(
            "cpu_us_per_request",
            sum(&|r| r.cpu_us) / sum(&|r| r.requests as f64),
        );
        m.set(
            "wire_bytes_per_request",
            wire_bytes_per_request(spec.edge_load),
        );
        return;
    }
    let m = &mut out.metrics;
    m.set("sim.topology_build_s", med(&|r| r.topology_build_s));
    m.set("sim.workload_generate_s", med(&|r| r.workload_generate_s));
    m.set("sim.expand_s", med(&|r| r.expand_s));
    m.set("sim.engine_new_s", med(&|r| r.engine_new_s));
    m.set("sim.run_s", med(&|r| r.run_s));
    m.set(
        "sim.ns_per_event",
        run_s * 1e9 / sum(&|r| r.stats.events() as f64),
    );
    // Exact counts and the simulated tail are those of the first derived
    // seed, so they repeat bit for bit for one `--seed`.
    let first = &best[0];
    let s = &first.stats;
    m.set("sim.events", s.events() as f64);
    m.set("sim.resolves", s.resolves as f64);
    m.set(
        "sim.avg_scope",
        s.resolved_flows as f64 / s.resolves.max(1) as f64,
    );
    m.set("sim.max_scope", s.max_scope as f64);
    m.set("sim.expansions", s.expansions as f64);
    m.set("sim.fallbacks", s.fallbacks as f64);
    m.set("sim.stale_discards", s.stale_discards as f64);
    m.set("sim.spurious_wakeups", s.spurious_wakeups as f64);
    m.set("sim.fct_p99_ms", first.fct_p99_ms);
}
