//! Max-min fairness against a definition, not against a twin.
//!
//! The engine's two solvers share the loop, the settlement and
//! `Allocator`, so their agreement (`tests/incremental_parity.rs`) says
//! nothing about an error they share. [`oracle`] shares nothing with
//! `src/`: textbook progressive filling inside an eager
//! advance-to-the-next-event loop, reading only [`FlowSpec`]s and a
//! capacity per [`Resource`]. Small random instances — contended links,
//! late starts, one level of completion gating and, in half the cases, an
//! agg box whose processing rate is the bottleneck — must finish every flow
//! when it says, under both solvers.
//!
//! The last test is the bar `repro sim-perf` used to hold as a ratio of two
//! wall-clock readings, as an exact count: flows re-rated, global ÷ scoped.
//! Simulator throughput itself is `bash benchmark/run.sh`'s `sim-sparse`
//! and `sim-dense`, not a test.

use netagg_sim::flow::{Resource, SegmentKind};
use netagg_sim::routing::server_route;
use netagg_sim::{
    run_experiment_stats, BoxPlacement, Deployment, EngineKind, ExperimentConfig, FlowSpec,
    IncrementalEngine, Topology, TopologyConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Finish time of every flow under max-min fair sharing with completion
/// gating (a flow with children cannot finish before they have; once its
/// own bytes are out it stops taking bandwidth).
fn oracle(flows: &[FlowSpec], capacity: &HashMap<Resource, f64>) -> Vec<f64> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Pending,
        Active,
        Drained,
        Done,
    }
    let n = flows.len();
    let mut state = vec![State::Pending; n];
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.size).collect();
    let mut finish = vec![f64::NAN; n];
    let mut t = 0.0f64;
    while state.iter().any(|s| *s != State::Done) {
        for i in 0..n {
            if state[i] == State::Pending && flows[i].start <= t {
                state[i] = State::Active;
            }
        }
        // Progressive filling: every unfrozen rate rises together until the
        // resource with the least headroom per unfrozen crosser saturates.
        let mut rate = vec![0.0f64; n];
        let mut unfrozen: Vec<usize> = (0..n).filter(|&i| state[i] == State::Active).collect();
        let mut headroom = capacity.clone();
        while !unfrozen.is_empty() {
            let mut crossers: HashMap<Resource, f64> = HashMap::new();
            for &i in &unfrozen {
                for r in &flows[i].resources {
                    *crossers.entry(*r).or_default() += 1.0;
                }
            }
            let (tightest, level) = crossers
                .iter()
                .map(|(r, k)| (*r, headroom[r] / k))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("an unfrozen flow crosses something");
            unfrozen.retain(|&i| {
                let frozen = flows[i].resources.contains(&tightest);
                if frozen {
                    rate[i] = level;
                    for r in &flows[i].resources {
                        *headroom.get_mut(r).unwrap() -= level;
                    }
                }
                !frozen
            });
        }
        // Advance to the next completion or start, whichever is first.
        let next = (0..n)
            .filter_map(|i| match state[i] {
                State::Active => Some(remaining[i] / rate[i]),
                State::Pending => Some(flows[i].start - t),
                _ => None,
            })
            .min_by(f64::total_cmp)
            .expect("an unfinished flow is active, pending, or gated on one that is");
        t += next;
        for i in 0..n {
            if state[i] == State::Active {
                remaining[i] -= rate[i] * next;
                if remaining[i] <= 1e-12 * flows[i].size {
                    state[i] = State::Drained;
                }
            }
        }
        // A drained flow is done once every child is; one pass per level.
        while let Some(i) = (0..n).find(|&i| {
            let children_done = |c: &u32| state[*c as usize] == State::Done;
            state[i] == State::Drained && flows[i].children.iter().all(children_done)
        }) {
            state[i] = State::Done;
            finish[i] = t;
        }
    }
    finish
}

/// What the properties draw per flow: source and destination server, ECMP
/// hash, size in bytes, and a start that is 0 half the time (batched
/// admission) and otherwise up to 20 ms late.
type Draw = (u32, u32, u64, f64, f64);

fn draws() -> impl Strategy<Value = Vec<Draw>> {
    let one = (0u32..12, 0u32..12, 0u64..8, 1e5f64..1e7, -0.02f64..0.02);
    proptest::collection::vec(one, 3..9)
}

/// Build the instance: background flows between the first twelve servers
/// of the `quick` fabric (one rack and half of the next, so edge links and
/// ToR uplinks are both contended); the last flow gated on the first two.
/// With `box_rate`, the first two are worker partials into their ToR's agg
/// box and the last is the box's output to its destination.
fn instance(
    draws: &[Draw],
    box_rate: Option<f64>,
) -> (ExperimentConfig, Topology, BoxPlacement, Vec<FlowSpec>) {
    let mut cfg = ExperimentConfig::quick();
    cfg.strategy = netagg_sim::Strategy::NetAgg;
    cfg.deployment = match box_rate {
        Some(_) => Deployment::all(),
        None => Deployment::None,
    };
    cfg.box_rate = box_rate.unwrap_or(cfg.box_rate);
    let topo = Topology::build(&cfg.topology);
    let placement = BoxPlacement::new(&topo, &cfg.deployment);
    let last = draws.len() - 1;
    let flows = draws
        .iter()
        .enumerate()
        .map(|(i, &(src, dst, hash, size, start))| {
            // A box's workers and its output are in the box's rack.
            let src = if box_rate.is_some() && (i < 2 || i == last) {
                src % 8
            } else {
                src
            };
            let dst = if dst == src { (src + 1) % 12 } else { dst };
            let route = server_route(&topo, topo.server(src), topo.server(dst), hash);
            let mut flow = FlowSpec::background(size, route.links.clone(), start.max(0.0));
            if let Some(b) = placement.box_for(topo.tor(0), 0) {
                if i < 2 {
                    flow.resources = vec![
                        Resource::Link(route.links[0]),
                        Resource::BoxIn(b),
                        Resource::BoxProc(b),
                    ];
                } else if i == last {
                    flow.resources[0] = Resource::BoxOut(b);
                }
            }
            if i == last {
                flow.children = vec![0, 1];
                flow.kind = SegmentKind::AggregatedOutput;
            }
            flow
        })
        .collect();
    (cfg, topo, placement, flows)
}

fn assert_both_solvers_match_the_oracle(draws: &[Draw], box_rate: Option<f64>) {
    let (cfg, topo, placement, flows) = instance(draws, box_rate);
    let mut capacity: HashMap<Resource, f64> = HashMap::new();
    for r in flows.iter().flat_map(|f| &f.resources) {
        let c = match r {
            Resource::Link(l) => topo.links[l.0 as usize].capacity,
            Resource::BoxIn(_) | Resource::BoxOut(_) => cfg.box_link,
            Resource::BoxProc(_) => cfg.box_rate,
        };
        capacity.insert(*r, c);
    }
    let want = oracle(&flows, &capacity);
    for engine in [EngineKind::Incremental, EngineKind::Reference] {
        let cfg = ExperimentConfig {
            engine,
            ..cfg.clone()
        };
        let got = IncrementalEngine::new(&topo, &placement, &cfg).run(flows.clone());
        for (i, (rec, want)) in got.records.iter().zip(&want).enumerate() {
            assert!(
                (rec.finish - want).abs() <= 1e-9 * want,
                "{engine:?}, box rate {box_rate:?}: flow {i} finished at {} but max-min \
                 fairness says {want}\nflows: {flows:#?}",
                rec.finish
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn links_only(draws in draws()) {
        assert_both_solvers_match_the_oracle(&draws, None);
    }

    /// The box processes at 0.3–2x the edge rate: below 2x it, not the two
    /// workers' edge links, is what their partials share.
    #[test]
    fn through_an_agg_box(draws in draws(), edge_rates in 0.3f64..2.0) {
        assert_both_solvers_match_the_oracle(&draws, Some(edge_rates * netagg_sim::GBPS));
    }
}

/// On the 10 240-server fabric the scoped solver re-rates a small fraction
/// of the flows the global one does, for the same answer: at these ~640
/// flows the ratio is 68–79x, it grows with the flow count, and the bar is
/// 10x.
#[test]
fn scoped_repair_re_rates_a_tenth_of_what_the_global_solver_does() {
    for seed in 7..=9 {
        let mut cfg = ExperimentConfig::paper();
        cfg.topology = TopologyConfig::scale10x();
        cfg.strategy = netagg_sim::Strategy::NetAgg;
        cfg.workload.num_flows = 600;
        cfg.workload.seed = seed;
        let (scoped, scoped_stats) = run_experiment_stats(&cfg);
        cfg.engine = EngineKind::Reference;
        let (global, global_stats) = run_experiment_stats(&cfg);
        assert_eq!(scoped.records.len(), global.records.len());
        for (i, (a, b)) in scoped.records.iter().zip(&global.records).enumerate() {
            assert!(
                (a.finish - b.finish).abs() <= 1e-6 * b.finish,
                "seed {seed} flow {i}: scoped {} vs global {}",
                a.finish,
                b.finish
            );
        }
        assert!(
            global_stats.resolved_flows >= 10 * scoped_stats.resolved_flows,
            "seed {seed}: global re-rated {} flows, scoped {}",
            global_stats.resolved_flows,
            scoped_stats.resolved_flows
        );
    }
}
