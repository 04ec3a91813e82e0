//! `repro quick` — the cross-transport trace drive.
//!
//! A short closed-loop drive of the crate-level quick topology (one rack,
//! four workers, one box, max aggregation), once per transport: the
//! in-process `ChannelTransport` and the loopback `TcpTransport`. Both
//! legs publish into the process-global registry so `--trace` exports a
//! stitched causal tree per request (DESIGN.md §11) and `--metrics` sees
//! everything. It times nothing: performance numbers come from
//! `bash benchmark/run.sh` only.

use crate::Options;
use netagg_bench::sim::SimScale;
use netagg_core::prelude::*;
use netagg_obs::trace::{self, SpanRecord};
use netagg_scenarios::{
    builtin_providers, ScenarioHarness, ScenarioSpec, SyntheticKind, TopologySpec,
    TransportProvider,
};
use std::time::Duration;

const WORKERS: u32 = 4;

/// One closed-loop drive: `requests` max-aggregations of `WORKERS`
/// partials each, through a single-rack deployment on a fresh transport
/// from `provider`, publishing into the process-global registry. Request
/// ids start at `base` so the legs keep disjoint trace ids. Returns the
/// wall-clock elapsed time of the drive phase.
fn drive(provider: &dyn TransportProvider, base: u64, requests: u64) -> Result<Duration, AggError> {
    let spec = ScenarioSpec::new("quick-closed-loop", TopologySpec::single_rack(WORKERS, 1))
        .synthetic("max", SyntheticKind::Max, requests, 1.0)
        .with_request_base(base);
    let registry = netagg_bench::obs::global().clone();
    let mut harness = ScenarioHarness::build_with_obs(&spec, provider, registry)?;
    harness.drive();
    let report = harness.finish();
    if !report.passed() {
        return Err(AggError::Corrupt(format!(
            "quick drive: {} failures, {} mismatches, violations {:?}",
            report.failures, report.mismatches, report.violations
        )));
    }
    Ok(report.elapsed)
}

/// `repro quick` — a short drive on both transports through the
/// process-global registry, so `--metrics` and `--trace` see everything.
pub fn quick(opts: &Options) {
    let requests = match opts.scale {
        SimScale::Quick => 3,
        _ => 10,
    };
    println!("# quick: {requests} aggregated requests per transport (quick topology)");
    for (i, provider) in builtin_providers().iter().enumerate() {
        let label = provider.label();
        match drive(provider.as_ref(), i as u64 * 1_000_000, requests) {
            Ok(elapsed) => println!(
                "  {label:<8} {requests} requests in {:.1} ms",
                elapsed.as_secs_f64() * 1e3
            ),
            Err(e) => println!("  {label:<8} FAILED: {e}"),
        }
    }
}

/// Write spans as Chrome trace JSON and print the per-request critical
/// paths (a handful at most — dumps stay readable).
pub fn write_trace(path: &str, spans: &[SpanRecord]) {
    match std::fs::write(path, trace::chrome_trace_json(spans)) {
        Ok(()) => println!("wrote {path} ({} spans)", spans.len()),
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            return;
        }
    }
    let paths = trace::critical_paths(spans);
    for p in paths.iter().take(4) {
        print!("{}", p.to_text());
    }
    if paths.len() > 4 {
        println!("… and {} more traced requests", paths.len() - 4);
    }
}
