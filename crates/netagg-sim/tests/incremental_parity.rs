//! Parity suite: the incremental engine must reproduce the reference
//! global solver exactly (within floating-point accumulation order) on
//! small topologies, across strategies, arrival processes and seeds —
//! plus a determinism fence (same seed => byte-identical `SimResult`).

use netagg_sim::{
    run_experiment, run_experiment_stats, ArrivalProcess, EngineKind, EngineStats,
    ExperimentConfig, Strategy, TopologyConfig, WorkloadConfig,
};

/// Relative tolerance on per-flow finish times and makespan. The two
/// engines compute mathematically identical allocations; only FP
/// accumulation order differs.
const REL_TOL: f64 = 1e-6;

/// Returns the incremental run's counters.
fn assert_parity(cfg: &ExperimentConfig, label: &str) -> EngineStats {
    let mut inc_cfg = cfg.clone();
    inc_cfg.engine = EngineKind::Incremental;
    let mut ref_cfg = cfg.clone();
    ref_cfg.engine = EngineKind::Reference;
    let (inc, stats) = run_experiment_stats(&inc_cfg);
    let refr = run_experiment(&ref_cfg);

    assert_eq!(inc.records.len(), refr.records.len(), "{label}: flow count");
    let scale = refr.makespan.max(1e-9);
    for (i, (a, b)) in inc.records.iter().zip(&refr.records).enumerate() {
        assert_eq!(a.size, b.size, "{label}: flow {i} size");
        assert_eq!(a.start, b.start, "{label}: flow {i} start");
        let err = (a.finish - b.finish).abs();
        assert!(
            err <= REL_TOL * scale.max(b.finish.abs()),
            "{label}: flow {i} finish diverged: incremental {} vs reference {} (err {err:e})",
            a.finish,
            b.finish
        );
    }
    let err = (inc.makespan - refr.makespan).abs();
    assert!(
        err <= REL_TOL * scale,
        "{label}: makespan diverged: {} vs {}",
        inc.makespan,
        refr.makespan
    );
    // Link traffic totals are byte counts of the same flows: identical.
    assert_eq!(inc.link_bytes, refr.link_bytes, "{label}: link bytes");
    stats
}

/// Seeded, randomized small configuration `k`: topology size, strategy,
/// workload shape and arrival process all vary with the seed.
fn seeded_config(k: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.topology = if k.is_multiple_of(2) {
        TopologyConfig::quick()
    } else {
        // A slightly larger, differently proportioned fabric.
        TopologyConfig {
            pods: 2,
            tors_per_pod: 3,
            servers_per_tor: 6,
            aggs_per_pod: 2,
            cores: 4,
            edge_capacity: netagg_sim::GBPS,
            oversub: 3.0,
        }
    };
    cfg.strategy = match k % 5 {
        0 => Strategy::Direct,
        1 => Strategy::RackLevel,
        2 => Strategy::DAry(1),
        3 => Strategy::DAry(2),
        _ => Strategy::NetAgg,
    };
    cfg.workload = WorkloadConfig {
        num_flows: 80 + (k as usize % 3) * 40,
        seed: 1000 + k,
        // Poisson arrivals on odd seeds exercise mid-run flow additions
        // (the incremental engine's addition restart-level path);
        // stragglers on seeds divisible by 3 add late worker starts.
        arrivals: if k % 2 == 1 {
            ArrivalProcess::Poisson { rate: 2_000.0 }
        } else {
            ArrivalProcess::AllAtOnce
        },
        straggler_frac: if k.is_multiple_of(3) { 0.2 } else { 0.0 },
        straggler_delay: 0.01,
        ..WorkloadConfig::default()
    };
    cfg
}

#[test]
fn incremental_matches_reference_on_seeded_runs() {
    // Acceptance criterion: parity on 10/10 seeded randomized runs.
    for k in 0..10 {
        let cfg = seeded_config(k);
        assert_parity(&cfg, &format!("seed {k} ({:?})", cfg.strategy));
    }
}

#[test]
fn incremental_matches_reference_with_slow_boxes() {
    // Box processing slower than the edge: the box processor becomes the
    // bottleneck resource, exercising non-link resources in the suffix
    // re-solves.
    let mut cfg = ExperimentConfig::quick();
    cfg.strategy = Strategy::NetAgg;
    cfg.box_rate = 0.4 * netagg_sim::GBPS;
    cfg.workload.num_flows = 120;
    assert_parity(&cfg, "slow boxes");
}

#[test]
fn recorded_bottlenecks_spare_re_checks_and_follow_moves() {
    // A loaded 64-server fabric: verify passes meet frozen crossers of
    // flagged resources by the thousand, most keep their certificate on
    // the strength of their recorded bottleneck alone, and a few are found
    // holding it at another resource. In a debug build every commit then
    // asserts each record is a certificate, so a record left stale after
    // such a move fails here — and so does a suite that no longer reaches
    // one.
    let mut cfg = ExperimentConfig::quick();
    cfg.strategy = Strategy::NetAgg;
    cfg.workload.num_flows = 400;
    cfg.workload.seed = 9;
    let stats = assert_parity(&cfg, "recorded bottlenecks");
    assert!(stats.frozen_rechecked > 0, "{stats:?}");
    assert!(stats.frozen_visited > stats.frozen_rechecked, "{stats:?}");
    assert!(stats.bottleneck_moved > 0, "{stats:?}");
    assert!(stats.crossers_read > 0, "{stats:?}");
}

#[test]
fn a_scope_that_will_not_verify_falls_back_to_the_global_solve() {
    // 256 servers, 872 flows: two re-solves exhaust their expansions and
    // go global. No other suite reaches the fallback.
    let mut cfg = ExperimentConfig::default_scale();
    cfg.strategy = Strategy::NetAgg;
    cfg.workload.num_flows = 800;
    cfg.workload.seed = 12;
    let stats = assert_parity(&cfg, "fallback");
    assert!(stats.fallbacks > 0, "{stats:?}");
}

/// Serialize every float of a `SimResult` as raw bits: two results encode
/// identically iff they are byte-identical (bit-exact f64s, same counts).
fn result_bits(r: &netagg_sim::SimResult) -> Vec<u64> {
    let mut v = Vec::with_capacity(3 * r.records.len() + r.link_bytes.len() + 1);
    for rec in &r.records {
        v.push(rec.size.to_bits());
        v.push(rec.start.to_bits());
        v.push(rec.finish.to_bits());
    }
    v.extend(r.link_bytes.iter().map(|b| b.to_bits()));
    v.push(r.makespan.to_bits());
    v
}

#[test]
fn same_seed_gives_byte_identical_results() {
    // Determinism fence: the engine iterates only Vecs (never hash maps)
    // in event order, so a repeated run must be bit-exact, not just close.
    for k in [0u64, 1, 4] {
        let cfg = seeded_config(k);
        let a = result_bits(&run_experiment(&cfg));
        let b = result_bits(&run_experiment(&cfg));
        assert_eq!(a, b, "seed {k}: SimResult must be byte-identical");
    }
}

#[test]
fn engine_stats_reflect_the_run() {
    let mut cfg = ExperimentConfig::quick();
    cfg.strategy = Strategy::NetAgg;
    let (res, stats) = netagg_sim::run_experiment_stats(&cfg);
    assert!(res.makespan > 0.0);
    assert_eq!(stats.starts, res.records.len() as u64);
    // Every flow that transferred bytes popped exactly one successful
    // completion event; zero-byte/drained flows complete without one.
    assert!(stats.completions > 0);
    assert!(stats.completions <= stats.starts + stats.spurious_wakeups);
    assert!(stats.resolves > 0);
    assert!(stats.resolved_flows >= stats.resolves);
}
