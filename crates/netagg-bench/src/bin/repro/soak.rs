//! `repro soak` — the long-haul scenario drive and its committed record
//! (`BENCH_soak.json`).
//!
//! The soak runs the standard multi-app scenario (three synthetic
//! workloads, minisearch, minimr; seeded box kill + request-indexed kill +
//! straggler storm) from `netagg_scenarios::soak` on *both* transport
//! providers, asserting the DESIGN.md §7 metrics contract end-to-end:
//! bounded mailbox depths, `runtime.threads_active == 0` after teardown,
//! drained fan-in ledgers, and zero duplicate deliveries. Any violation,
//! failure or exactness mismatch is fatal.
//!
//! Scale selects what runs and where the record goes: `--quick` runs only
//! the quick soak (the CI configuration) and writes
//! `target/soak-quick.json`; the default and `--paper` scales run the
//! quick soak *and* the million-request full soak and rewrite the
//! committed `BENCH_soak.json` with both sections — so a quick run can
//! never drop the committed `full` section. Either file is a record of
//! what the contract run saw (waits, detections, re-points), not a
//! throughput baseline: no timing in it is gated.

use crate::Options;
use netagg_bench::sim::SimScale;
use netagg_scenarios::{builtin_providers, ScenarioReport, ScenarioSpec};

fn run_section(spec: &ScenarioSpec) -> Vec<ScenarioReport> {
    println!(
        "# soak [{}]: {} requests over {} apps, {} impairments, both transports",
        spec.name,
        spec.total_requests(),
        spec.apps.len(),
        spec.impairments.len()
    );
    let mut reports = Vec::new();
    for provider in builtin_providers() {
        let report = match netagg_scenarios::run_soak(spec, provider.as_ref()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("soak [{}] on {} FAILED: {e}", spec.name, provider.label());
                std::process::exit(1);
            }
        };
        println!("  {}", report.summary());
        reports.push(report);
    }
    reports
}

fn report_json(out: &mut String, r: &ScenarioReport) {
    out.push_str(&format!(
        "        \"{}\": {{\n          \"requests_completed\": {},\n          \
         \"elapsed_secs\": {:.6},\n          \"requests_per_sec\": {:.1},\n          \
         \"p50_wait_us\": {},\n          \"p99_wait_us\": {},\n          \
         \"detections\": {},\n          \"repoints\": {},\n          \
         \"failures\": {},\n          \"mismatches\": {},\n          \
         \"violations\": {}\n        }}",
        r.provider,
        r.requests_completed,
        r.elapsed.as_secs_f64(),
        r.requests_per_sec,
        r.p50_wait_us,
        r.p99_wait_us,
        r.detections,
        r.repoints,
        r.failures,
        r.mismatches,
        r.violations.len(),
    ));
}

fn section_json(out: &mut String, name: &str, spec: &ScenarioSpec, reports: &[ScenarioReport]) {
    out.push_str(&format!(
        "    \"{}\": {{\n      \"scenario\": \"{}\",\n      \"requests\": {},\n      \
         \"apps\": {},\n      \"impairments\": {},\n      \"transports\": {{\n",
        name,
        spec.name,
        spec.total_requests(),
        spec.apps.len(),
        spec.impairments.len(),
    ));
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        report_json(out, r);
    }
    out.push_str("\n      }\n    }");
}

/// `repro soak` — run the soak scenario(s) for the selected scale and
/// write the record (`BENCH_soak.json` only when the full section ran).
pub fn soak(opts: &Options) {
    let quick_spec = netagg_scenarios::quick_soak_spec();
    let quick_reports = run_section(&quick_spec);

    let full = match opts.scale {
        SimScale::Quick => None,
        _ => {
            let spec = netagg_scenarios::full_soak_spec();
            let reports = run_section(&spec);
            Some((spec, reports))
        }
    };

    let mut json =
        String::from("{\n  \"bench\": \"soak\",\n  \"topology\": \"multi_rack(2,3,1)\",\n");
    json.push_str("  \"sections\": {\n");
    section_json(&mut json, "quick", &quick_spec, &quick_reports);
    if let Some((spec, reports)) = &full {
        json.push_str(",\n");
        section_json(&mut json, "full", spec, reports);
    }
    json.push_str("\n  }\n}\n");
    let path = if full.is_some() {
        "BENCH_soak.json"
    } else {
        let _ = std::fs::create_dir_all("target");
        "target/soak-quick.json"
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("error: writing {path}: {e}"),
    }
}
