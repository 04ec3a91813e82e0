//! Simulation figures (Fig. 2–14 of the paper) plus design-choice
//! ablations.

use crate::Options;
use netagg_bench::sim::{mean_p99, single_run};
use netagg_bench::table::{f, Table};
use netagg_sim::aggregation::TreePolicy;
use netagg_sim::deployment::BudgetSpread;
use netagg_sim::metrics::{self, FlowClass};
use netagg_sim::topology::Tier;
use netagg_sim::workload::ArrivalProcess;
use netagg_sim::{CostModel, Deployment, ExperimentConfig, Strategy, UpgradeOption, GBPS};

fn base(opts: &Options) -> ExperimentConfig {
    opts.scale.base_config()
}

/// The four strategies every comparison figure reports.
const STRATEGIES: [Strategy; 4] = [
    Strategy::RackLevel,
    Strategy::DAry(2),
    Strategy::DAry(1),
    Strategy::NetAgg,
];

/// 99th FCT of each strategy for a config, normalised to rack-level.
fn relative_row(cfg: &ExperimentConfig, class: FlowClass, seeds: u64) -> Vec<f64> {
    let mut rack_cfg = cfg.clone();
    rack_cfg.strategy = Strategy::RackLevel;
    let rack = mean_p99(&rack_cfg, class, seeds);
    STRATEGIES
        .iter()
        .map(|s| {
            let mut c = cfg.clone();
            c.strategy = *s;
            mean_p99(&c, class, seeds) / rack
        })
        .collect()
}

/// Fig. 2: feasibility — 99th FCT vs agg-box processing rate, for 1:1 and
/// 1:4 over-subscription, relative to rack-level aggregation.
pub fn fig2(opts: &Options) {
    let mut t = Table::new(
        "Fig 2: 99th FCT vs agg-box processing rate R (relative to rack-level)",
        &["oversub", "R=2G", "R=4G", "R=6G", "R=8G", "R=10G"],
    );
    for oversub in [1.0, 4.0] {
        let mut cells = vec![format!("1:{oversub:.0}")];
        for r in [2.0, 4.0, 6.0, 8.0, 10.0] {
            let mut cfg = base(opts);
            cfg.topology.oversub = oversub;
            cfg.strategy = Strategy::NetAgg;
            cfg.box_rate = r * GBPS;
            let mut rack = cfg.clone();
            rack.strategy = Strategy::RackLevel;
            let rel = mean_p99(&cfg, FlowClass::All, opts.seeds())
                / mean_p99(&rack, FlowClass::All, opts.seeds());
            cells.push(f(rel));
        }
        t.row(cells);
    }
    t.print();
}

/// Fig. 3: performance and upgrade cost of the DC configurations.
pub fn fig3(opts: &Options) {
    let prices = CostModel::default();
    let base_cfg = base(opts);
    let mut rack = base_cfg.clone();
    rack.strategy = Strategy::RackLevel;
    let rack_p99 = mean_p99(&rack, FlowClass::All, opts.seeds());
    let mut t = Table::new(
        "Fig 3: FCT (relative to Base-1G rack) and upgrade cost",
        &["configuration", "rel 99th FCT", "upgrade cost ($M)"],
    );
    for opt in UpgradeOption::ALL {
        let cfg = opt.experiment(&base_cfg);
        let p99 = mean_p99(&cfg, FlowClass::All, opts.seeds());
        let cost = opt.upgrade_cost(&base_cfg.topology, &prices) / 1e6;
        t.row(vec![opt.label().to_string(), f(p99 / rack_p99), f(cost)]);
    }
    t.print();
}

fn cdf_table(title: &str, class: FlowClass, opts: &Options) {
    let mut t = Table::new(
        title,
        &[
            "percentile",
            "rack (ms)",
            "binary (ms)",
            "chain (ms)",
            "netagg (ms)",
        ],
    );
    let mut series: Vec<Vec<f64>> = Vec::new();
    for s in STRATEGIES {
        let mut cfg = base(opts);
        cfg.strategy = s;
        let result = single_run(&cfg);
        series.push(result.fcts(class));
    }
    for p in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0] {
        let mut cells = vec![format!("p{:02.0}", p * 100.0)];
        for fcts in &series {
            cells.push(f(metrics::percentile(fcts, p) * 1e3));
        }
        t.row(cells);
    }
    t.print();
}

/// Fig. 6: CDF of FCT of all traffic.
pub fn fig6(opts: &Options) {
    cdf_table("Fig 6: FCT distribution, all flows", FlowClass::All, opts);
}

/// Fig. 7: CDF of FCT of non-aggregatable traffic.
pub fn fig7(opts: &Options) {
    cdf_table(
        "Fig 7: FCT distribution, non-aggregatable (background) flows",
        FlowClass::Background,
        opts,
    );
}

/// Fig. 8: relative 99th FCT vs aggregation output ratio alpha.
pub fn fig8(opts: &Options) {
    let mut t = Table::new(
        "Fig 8: 99th FCT relative to rack vs output ratio alpha",
        &["alpha", "rack", "binary", "chain", "netagg"],
    );
    for alpha in [0.05, 0.10, 0.25, 0.50, 0.75, 1.00] {
        let mut cfg = base(opts);
        cfg.workload.alpha = alpha;
        let rel = relative_row(&cfg, FlowClass::All, opts.seeds());
        let mut cells = vec![format!("{alpha:.2}")];
        cells.extend(rel.iter().map(|v| f(*v)));
        t.row(cells);
    }
    t.print();
}

/// Fig. 9: distribution of per-link carried bytes (alpha = 10 %).
pub fn fig9(opts: &Options) {
    let mut t = Table::new(
        "Fig 9: link traffic distribution (MB per link, alpha=10%)",
        &["percentile", "rack", "binary", "chain", "netagg"],
    );
    let mut series = Vec::new();
    for s in STRATEGIES {
        let mut cfg = base(opts);
        cfg.strategy = s;
        let result = single_run(&cfg);
        series.push(metrics::link_traffic_sorted(&result));
    }
    for p in [0.25, 0.50, 0.75, 0.90, 0.99] {
        let mut cells = vec![format!("p{:02.0}", p * 100.0)];
        for lt in &series {
            cells.push(f(metrics::percentile(lt, p) / 1e6));
        }
        t.row(cells);
    }
    t.print();
}

/// Fig. 10: relative 99th FCT vs fraction of aggregatable flows.
pub fn fig10(opts: &Options) {
    let mut t = Table::new(
        "Fig 10: 99th FCT relative to rack vs fraction of aggregatable flows",
        &["fraction", "rack", "binary", "chain", "netagg"],
    );
    for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut cfg = base(opts);
        cfg.workload.frac_aggregatable = frac;
        let rel = relative_row(&cfg, FlowClass::All, opts.seeds());
        let mut cells = vec![format!("{frac:.1}")];
        cells.extend(rel.iter().map(|v| f(*v)));
        t.row(cells);
    }
    t.print();
}

/// Fig. 11: relative 99th FCT vs over-subscription.
pub fn fig11(opts: &Options) {
    let mut t = Table::new(
        "Fig 11: 99th FCT relative to rack vs over-subscription (alpha=10%)",
        &["oversub", "rack", "binary", "chain", "netagg"],
    );
    for ov in [1.0, 2.0, 4.0, 6.0, 8.0, 10.0] {
        let mut cfg = base(opts);
        cfg.topology.oversub = ov;
        let rel = relative_row(&cfg, FlowClass::All, opts.seeds());
        let mut cells = vec![format!("1:{ov:.0}")];
        cells.extend(rel.iter().map(|v| f(*v)));
        t.row(cells);
    }
    t.print();
}

/// Fig. 12: partial deployments — tiers, and a fixed box budget.
pub fn fig12(opts: &Options) {
    let cfg0 = base(opts);
    let mut rack = cfg0.clone();
    rack.strategy = Strategy::RackLevel;
    let rack_p99 = mean_p99(&rack, FlowClass::All, opts.seeds());
    let rel = |dep: Deployment| -> f64 {
        let mut cfg = cfg0.clone();
        cfg.strategy = Strategy::NetAgg;
        cfg.deployment = dep;
        mean_p99(&cfg, FlowClass::All, opts.seeds()) / rack_p99
    };
    let mut t = Table::new(
        "Fig 12: partial deployments, 99th FCT relative to rack",
        &["deployment", "rel 99th FCT"],
    );
    t.row(vec![
        "ToR tier only".into(),
        f(rel(Deployment::Tiers {
            tiers: vec![Tier::Tor],
            per_switch: 1,
        })),
    ]);
    t.row(vec![
        "Aggr tier only".into(),
        f(rel(Deployment::Tiers {
            tiers: vec![Tier::Aggregation],
            per_switch: 1,
        })),
    ]);
    t.row(vec![
        "Core tier only".into(),
        f(rel(Deployment::Tiers {
            tiers: vec![Tier::Core],
            per_switch: 1,
        })),
    ]);
    t.row(vec!["Full".into(), f(rel(Deployment::all()))]);
    // Fixed budget: one box per core switch.
    let budget = cfg0.topology.cores;
    t.row(vec![
        format!("budget {budget} @ core"),
        f(rel(Deployment::Budget {
            count: budget,
            spread: BudgetSpread::CoreOnly,
        })),
    ]);
    t.row(vec![
        format!("budget {budget} @ aggr"),
        f(rel(Deployment::Budget {
            count: budget,
            spread: BudgetSpread::AggrUniform,
        })),
    ]);
    t.row(vec![
        format!("budget {budget} @ aggr+core"),
        f(rel(Deployment::Budget {
            count: budget,
            spread: BudgetSpread::CoreAndAggr,
        })),
    ]);
    t.print();
}

/// Fig. 13: 10 Gbps edge network with box scale-out.
pub fn fig13(opts: &Options) {
    let mut t = Table::new(
        "Fig 13: 10G network, 99th FCT relative to rack, scale-out boxes",
        &["oversub", "1x box", "2x box", "4x box"],
    );
    for ov in [1.0, 2.0, 4.0, 8.0] {
        let mut cells = vec![format!("1:{ov:.0}")];
        for per_switch in [1u32, 2, 4] {
            let mut cfg = base(opts);
            cfg.topology.edge_capacity = 10.0 * GBPS;
            cfg.topology.oversub = ov;
            cfg.strategy = Strategy::NetAgg;
            cfg.deployment = Deployment::All { per_switch };
            let mut rack = cfg.clone();
            rack.strategy = Strategy::RackLevel;
            let rel = mean_p99(&cfg, FlowClass::All, opts.seeds())
                / mean_p99(&rack, FlowClass::All, opts.seeds());
            cells.push(f(rel));
        }
        t.row(cells);
    }
    t.print();
}

/// Fig. 14: stragglers.
pub fn fig14(opts: &Options) {
    let mut t = Table::new(
        "Fig 14: 99th FCT relative to rack vs straggler ratio",
        &["straggler ratio", "rack", "binary", "chain", "netagg"],
    );
    for ratio in [0.0, 0.1, 0.2, 0.3, 0.5] {
        let mut cfg = base(opts);
        cfg.workload.straggler_frac = ratio;
        cfg.workload.straggler_delay = 0.05; // 50 ms vs ~ms-scale FCTs
        let rel = relative_row(&cfg, FlowClass::All, opts.seeds());
        let mut cells = vec![format!("{ratio:.1}")];
        cells.extend(rel.iter().map(|v| f(*v)));
        t.row(cells);
    }
    t.print();
}

/// Ablation: multiple trees per application (ECMP per request) vs a single
/// shared tree.
pub fn ablate_trees(opts: &Options) {
    let mut t = Table::new(
        "Ablation: per-request trees vs single tree (99th FCT rel. to rack)",
        &["policy", "rel 99th FCT"],
    );
    for (label, strategy) in [
        (
            "per-request trees",
            Strategy::NetAggWith(TreePolicy::PerRequest),
        ),
        ("single tree", Strategy::NetAggWith(TreePolicy::Single)),
    ] {
        let mut cfg = base(opts);
        cfg.strategy = strategy;
        let mut rack = cfg.clone();
        rack.strategy = Strategy::RackLevel;
        let rel = mean_p99(&cfg, FlowClass::All, opts.seeds())
            / mean_p99(&rack, FlowClass::All, opts.seeds());
        t.row(vec![label.to_string(), f(rel)]);
    }
    t.print();
}

/// Ablation: locality-aware vs random worker placement.
pub fn ablate_placement(opts: &Options) {
    // Random placement is emulated by shuffling worker positions: we use a
    // much larger consecutive span (workers_max) so requests spread racks.
    let mut t = Table::new(
        "Ablation: locality-aware vs scattered placement (netagg rel. to its rack baseline)",
        &["placement", "rel 99th FCT"],
    );
    for (label, scatter) in [("locality-aware", false), ("scattered", true)] {
        let mut cfg = base(opts);
        if scatter {
            // Spreading fan-in over the whole fabric: emulate by a larger
            // minimum fan-in so consecutive placement spans many racks.
            cfg.workload.workers_min = cfg.topology.servers_per_tor;
            cfg.workload.workers_exp = 1.2;
        }
        cfg.strategy = Strategy::NetAgg;
        let mut rack = cfg.clone();
        rack.strategy = Strategy::RackLevel;
        let rel = mean_p99(&cfg, FlowClass::All, opts.seeds())
            / mean_p99(&rack, FlowClass::All, opts.seeds());
        t.row(vec![label.to_string(), f(rel)]);
    }
    t.print();
}

/// Ablation: worst-case simultaneous arrivals vs dynamic (Poisson /
/// uniform) arrivals — the paper reports the dynamic patterns give results
/// within a few percent of the worst case.
pub fn ablate_arrivals(opts: &Options) {
    let mut t = Table::new(
        "Ablation: arrival process (netagg 99th FCT relative to rack)",
        &["arrivals", "rel 99th FCT"],
    );
    let arrivals = [
        ("all at once (paper default)", ArrivalProcess::AllAtOnce),
        ("poisson 50k/s", ArrivalProcess::Poisson { rate: 50_000.0 }),
        (
            "poisson 200k/s",
            ArrivalProcess::Poisson { rate: 200_000.0 },
        ),
        (
            "uniform over 20 ms",
            ArrivalProcess::Uniform { window: 0.02 },
        ),
    ];
    for (label, a) in arrivals {
        let mut cfg = base(opts);
        cfg.workload.arrivals = a;
        cfg.strategy = Strategy::NetAgg;
        let mut rack = cfg.clone();
        rack.strategy = Strategy::RackLevel;
        let rel = mean_p99(&cfg, FlowClass::All, opts.seeds())
            / mean_p99(&rack, FlowClass::All, opts.seeds());
        t.row(vec![label.to_string(), f(rel)]);
    }
    t.print();
}
