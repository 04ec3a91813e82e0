//! `repro sim-perf` — the fluid-simulator scaling sweep and the
//! incremental-vs-naive check.
//!
//! All runs use the 10,240-server `scale10x` fabric (32 pods × 10 ToRs ×
//! 32 servers, 1:4 over-subscription) under the NetAgg strategy:
//!
//! 1. **Reference point** — one fixed workload run by *both* engines: the
//!    incremental certificate-repair solver and the naive global
//!    per-event re-solver. The flow count is capped so the quadratic
//!    naive leg finishes in seconds — the same events, the same fabric,
//!    an honest like-for-like ratio. That ratio compares two runs on the
//!    same machine minutes apart, so it is a check, not a timing: below
//!    [`SPEEDUP_BAR`] the target exits 1.
//! 2. **Sweep** — edge-load × α grid plus a boxes-per-switch column,
//!    incremental engine only, printing events/sec, wall-clock and the
//!    engine's re-solve counters per point. Printed for orientation; the
//!    simulator's tracked numbers are the `sim-sparse` workload and the
//!    `sim.*` ledger rows of `bash benchmark/run.sh`.
//!
//! `--quick` (the CI configuration) shrinks the reference cap and drops
//! the most expensive sweep points; `--paper` extends the sweep to edge
//! load 0.5 (~42 k concurrent-arrival flows).

use crate::Options;
use netagg_bench::sim::SimScale;
use netagg_sim::{
    run_experiment_stats, Deployment, EngineKind, ExperimentConfig, Strategy, TopologyConfig,
    WorkloadConfig,
};
use std::time::Instant;

/// Minimum incremental ÷ naive events/sec on the reference point.
const SPEEDUP_BAR: f64 = 10.0;

/// One measured run.
struct Point {
    flows: usize,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    resolves: u64,
    avg_scope: f64,
    fallbacks: u64,
}

/// The common `scale10x` NetAgg configuration for every leg.
fn base_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    cfg.topology = TopologyConfig::scale10x();
    cfg.strategy = Strategy::NetAgg;
    cfg
}

/// Run `cfg` once, timing topology build, workload generation and the
/// simulation together (both engines pay the same for the first two).
fn run_point(cfg: &ExperimentConfig) -> Point {
    let t0 = Instant::now();
    let (result, stats) = run_experiment_stats(cfg);
    let wall = t0.elapsed().as_secs_f64();
    // The reference engine does not track events; both engines process one
    // start and one completion per simulated flow, so the flow count gives
    // a comparable event total.
    let events = if stats.events() > 0 {
        stats.events()
    } else {
        2 * result.records.len() as u64
    };
    Point {
        flows: result.records.len(),
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall.max(1e-9),
        resolves: stats.resolves,
        avg_scope: stats.resolved_flows as f64 / stats.resolves.max(1) as f64,
        fallbacks: stats.fallbacks,
    }
}

pub fn sim_perf(opts: &Options) {
    // Reference-point flow cap: sized so the quadratic naive engine
    // finishes in seconds at --quick (CI) and minutes at larger scales.
    let (ref_flows, loads, alphas): (usize, &[f64], &[f64]) = match opts.scale {
        SimScale::Quick => (2_000, &[0.125], &[0.1, 1.0]),
        SimScale::Default => (4_000, &[0.125, 0.25], &[0.1, 1.0]),
        SimScale::Paper => (8_000, &[0.125, 0.25, 0.5], &[0.1, 1.0]),
    };

    println!("# sim-perf: scale10x (10240 servers), NetAgg strategy");
    println!("## reference point: both engines, {ref_flows} flows");
    let mut ref_cfg = base_config();
    ref_cfg.workload.num_flows = ref_flows;
    ref_cfg.engine = EngineKind::Incremental;
    let inc = run_point(&ref_cfg);
    ref_cfg.engine = EngineKind::Reference;
    let naive = run_point(&ref_cfg);
    let speedup = inc.events_per_sec / naive.events_per_sec.max(1e-9);
    println!(
        "  incremental {:>10.0} events/s   ({} events in {:.2}s)",
        inc.events_per_sec, inc.events, inc.wall_secs
    );
    println!(
        "  naive       {:>10.0} events/s   ({} events in {:.2}s)",
        naive.events_per_sec, naive.events, naive.wall_secs
    );
    println!("  speedup     {speedup:>10.1}x");

    println!("## sweep: edge load x alpha (+ boxes-per-switch), incremental engine");
    let sweep_one = |edge_load: f64, alpha: f64, per_switch: u32| {
        let mut cfg = base_config();
        cfg.workload = WorkloadConfig::for_edge_load(&cfg.topology, edge_load);
        cfg.workload.alpha = alpha;
        cfg.deployment = Deployment::All { per_switch };
        let p = run_point(&cfg);
        println!(
            "  load {edge_load:>5.3}  alpha {alpha:>4.2}  boxes {per_switch}  {:>6} flows  \
             {:>9.0} events/s  {:>8.2}s wall  (re-solves {}, avg scope {:.1}, fallbacks {})",
            p.flows, p.events_per_sec, p.wall_secs, p.resolves, p.avg_scope, p.fallbacks,
        );
    };
    for &load in loads {
        for &alpha in alphas {
            sweep_one(load, alpha, 1);
        }
    }
    // Boxes-per-switch column at the lightest load: more boxes per switch
    // spread the box-processing bottleneck without changing the fabric.
    for per_switch in [2u32, 4] {
        sweep_one(loads[0], alphas[0], per_switch);
    }

    if speedup < SPEEDUP_BAR {
        eprintln!("error: incremental speedup {speedup:.1}x is below the {SPEEDUP_BAR}x bar");
        std::process::exit(1);
    }
}
