//! `simctl` — run a single NetAgg simulation experiment from the command
//! line.
//!
//! ```text
//! simctl [--strategy rack|binary|chain|netagg|direct] [--alpha F]
//!        [--oversub F] [--flows N] [--seed N] [--frac F]
//!        [--box-rate GBPS] [--paper|--quick|--scale10x]
//!        [--engine incremental|naive] [--edge-load F]
//!        [--deployment all|incremental|tor|aggr|core|none]
//!        [--per-switch N] [--stragglers F] [--csv PATH] [--metrics]
//!        [--trace PATH]
//! ```
//!
//! Prints the run's FCT summary, per-class percentiles and link-traffic
//! statistics. `--csv PATH` additionally dumps every simulated flow
//! (kind, request, size, start, finish, fct) for external analysis.
//! `--metrics` appends the run's `sim.*` metrics snapshot as JSON (the
//! contract is documented in DESIGN.md, "Observability"). `--trace PATH`
//! synthesises `span.sim.*` records from the flow log — one
//! `span.sim.request` envelope per aggregation request with its
//! `span.sim.flow` children — and writes Chrome trace-event JSON
//! (DESIGN.md §11).

use netagg_sim::metrics::{self, FlowClass};
use netagg_sim::topology::Tier;
use netagg_sim::{Deployment, EngineKind, ExperimentConfig, Strategy, WorkloadConfig, GBPS};

fn main() {
    let mut cfg = ExperimentConfig::default_scale();
    let mut per_switch = 1u32;
    let mut deployment = String::from("all");
    let mut csv_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_json = false;
    let mut edge_load: Option<f64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--strategy" => {
                cfg.strategy = match value("--strategy").as_str() {
                    "rack" => Strategy::RackLevel,
                    "binary" => Strategy::DAry(2),
                    "chain" => Strategy::DAry(1),
                    "netagg" => Strategy::NetAgg,
                    "direct" => Strategy::Direct,
                    other => usage(&format!("unknown strategy {other}")),
                }
            }
            "--alpha" => cfg.workload.alpha = parse(&value("--alpha")),
            "--oversub" => cfg.topology.oversub = parse(&value("--oversub")),
            "--flows" => cfg.workload.num_flows = parse::<f64>(&value("--flows")) as usize,
            // Exact: a seed copied from a failing log must reproduce it.
            "--seed" => cfg.workload.seed = parse(&value("--seed")),
            "--frac" => cfg.workload.frac_aggregatable = parse(&value("--frac")),
            "--box-rate" => cfg.box_rate = parse::<f64>(&value("--box-rate")) * GBPS,
            "--stragglers" => cfg.workload.straggler_frac = parse(&value("--stragglers")),
            "--per-switch" => per_switch = parse::<f64>(&value("--per-switch")) as u32,
            "--deployment" => deployment = value("--deployment"),
            "--csv" => csv_path = Some(value("--csv")),
            "--trace" => trace_path = Some(value("--trace")),
            "--metrics" => metrics_json = true,
            "--paper" => cfg.topology = netagg_sim::TopologyConfig::paper(),
            "--quick" => cfg.topology = netagg_sim::TopologyConfig::quick(),
            "--scale10x" => cfg.topology = netagg_sim::TopologyConfig::scale10x(),
            "--edge-load" => edge_load = Some(parse(&value("--edge-load"))),
            "--engine" => {
                cfg.engine = match value("--engine").as_str() {
                    "incremental" => EngineKind::Incremental,
                    "naive" | "reference" => EngineKind::Reference,
                    other => usage(&format!("unknown engine {other}")),
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if let Some(load) = edge_load {
        // Applied after flag parsing so it sees the final topology choice;
        // overrides --flows.
        cfg.workload.num_flows = WorkloadConfig::for_edge_load(&cfg.topology, load).num_flows;
    }
    cfg.deployment = match deployment.as_str() {
        "all" => Deployment::All { per_switch },
        "incremental" | "aggr" => Deployment::Tiers {
            tiers: vec![Tier::Aggregation],
            per_switch,
        },
        "tor" => Deployment::Tiers {
            tiers: vec![Tier::Tor],
            per_switch,
        },
        "core" => Deployment::Tiers {
            tiers: vec![Tier::Core],
            per_switch,
        },
        "none" => Deployment::None,
        other => usage(&format!("unknown deployment {other}")),
    };

    let t0 = std::time::Instant::now();
    let obs = netagg_obs::MetricsRegistry::new();
    let (result, stats) = netagg_sim::run_experiment_stats_with_obs(&cfg, &obs);
    let elapsed = t0.elapsed();

    println!(
        "strategy {:8}  alpha {:.2}  oversub 1:{:.0}  flows {}  seed {}",
        cfg.strategy.label(),
        cfg.workload.alpha,
        cfg.topology.oversub,
        cfg.workload.num_flows,
        cfg.workload.seed,
    );
    println!(
        "servers {}  switches {}  boxes {}\n",
        cfg.topology.num_servers(),
        cfg.topology.num_switches(),
        netagg_sim::BoxPlacement::new(&netagg_sim::Topology::build(&cfg.topology), &cfg.deployment)
            .num_boxes(),
    );
    println!(
        "{:>12} {:>10} {:>10} {:>10}",
        "percentile", "all", "agg", "bg"
    );
    let classes = [
        FlowClass::All,
        FlowClass::Aggregation,
        FlowClass::Background,
    ];
    let series: Vec<Vec<f64>> = classes.iter().map(|c| result.fcts(*c)).collect();
    for p in [0.50, 0.90, 0.99, 1.0] {
        print!("{:>11}%", (p * 100.0) as u32);
        for s in &series {
            print!(" {:>9.3}ms", metrics::percentile(s, p) * 1e3);
        }
        println!();
    }
    let req = result.request_completion_times();
    println!(
        "\nrequests: {}   completion p50 {:.3} ms   p99 {:.3} ms",
        req.len(),
        metrics::percentile(&req, 0.5) * 1e3,
        metrics::percentile(&req, 0.99) * 1e3,
    );
    let lt = metrics::link_traffic_sorted(&result);
    println!(
        "link traffic: median {:.2} MB   p99 {:.2} MB   busiest {:.2} MB",
        metrics::percentile(&lt, 0.5) / 1e6,
        metrics::percentile(&lt, 0.99) / 1e6,
        lt.last().copied().unwrap_or(0.0) / 1e6,
    );
    println!(
        "makespan {:.3} ms   ({} flows simulated in {elapsed:.2?})",
        result.makespan * 1e3,
        result.records.len(),
    );
    println!(
        "engine: {} events ({} starts, {} completions) in {elapsed:.2?} = {:.0} events/s   \
         re-solves {} (avg scope {:.1}, max {}, expansions {}, fallbacks {}, crossers read {}, \
         frozen visited {} / re-checked {} / moved {})   superseded projections {}",
        stats.events(),
        stats.starts,
        stats.completions,
        stats.events() as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.resolves,
        stats.resolved_flows as f64 / stats.resolves.max(1) as f64,
        stats.max_scope,
        stats.expansions,
        stats.fallbacks,
        stats.crossers_read,
        stats.frozen_visited,
        stats.frozen_rechecked,
        stats.bottleneck_moved,
        stats.stale_discards,
    );

    if let Some(path) = csv_path {
        let mut out = String::from("kind,request,size_bytes,start_s,finish_s,fct_s\n");
        for r in &result.records {
            let request = r.request.map(|q| q.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{:?},{},{},{},{},{}\n",
                r.kind,
                request,
                r.size,
                r.start,
                r.finish,
                r.fct()
            ));
        }
        match std::fs::write(&path, out) {
            Ok(()) => println!("wrote {} flow records to {path}", result.records.len()),
            Err(e) => usage(&format!("could not write {path}: {e}")),
        }
    }

    if let Some(path) = trace_path {
        let spans = synthesize_spans(&result);
        match std::fs::write(&path, netagg_obs::trace::chrome_trace_json(&spans)) {
            Ok(()) => println!("wrote {} sim spans to {path}", spans.len()),
            Err(e) => usage(&format!("could not write {path}: {e}")),
        }
    }

    if metrics_json {
        println!("\n{}", obs.snapshot().to_json());
    }
}

/// Rebuild §11-style spans from the flow log: per aggregation request a
/// `span.sim.request` envelope (first flow start → last flow finish, span
/// id = trace id so it roots the tree) with one `span.sim.flow` child per
/// flow. Background flows have no request and are not part of any trace.
fn synthesize_spans(result: &netagg_sim::SimResult) -> Vec<netagg_obs::trace::SpanRecord> {
    use netagg_obs::names::spans;
    use netagg_obs::trace::{trace_id, SpanRecord};
    use std::collections::BTreeMap;

    let ns = |secs: f64| (secs.max(0.0) * 1e9) as u64;
    let mut envelopes: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut out = Vec::new();
    let mut next_span = 1u64;
    for r in &result.records {
        let Some(request) = r.request.map(u64::from) else {
            continue;
        };
        let tid = trace_id(0, request);
        let (start, finish) = (ns(r.start), ns(r.finish));
        let env = envelopes.entry(request).or_insert((start, finish));
        env.0 = env.0.min(start);
        env.1 = env.1.max(finish);
        out.push(SpanRecord {
            span_id: next_span,
            parent_span_id: tid,
            trace_id: tid,
            request,
            name: spans::SIM_FLOW,
            component: format!("sim-{:?}", r.kind).to_lowercase(),
            start_ns: start,
            dur_ns: finish.saturating_sub(start),
        });
        next_span += 1;
    }
    for (request, (start, finish)) in envelopes {
        let tid = trace_id(0, request);
        out.push(SpanRecord {
            span_id: tid,
            parent_span_id: 0,
            trace_id: tid,
            request,
            name: spans::SIM_REQUEST,
            component: "sim".to_string(),
            start_ns: start,
            dur_ns: finish.saturating_sub(start),
        });
    }
    out
}

fn parse<T: std::str::FromStr>(v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage(&format!("could not parse {v}")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: simctl [--strategy rack|binary|chain|netagg|direct] [--alpha F] \
         [--oversub F] [--flows N] [--seed N] [--frac F] [--box-rate GBPS] \
         [--deployment all|incremental|tor|aggr|core|none] [--per-switch N] \
         [--stragglers F] [--paper|--quick|--scale10x] [--engine incremental|naive] \
         [--edge-load F] [--csv PATH] [--metrics] [--trace PATH]"
    );
    std::process::exit(2);
}
