//! The soak harness: long impairment-heavy scenario runs that hold the
//! platform under sustained multi-application load and assert the
//! DESIGN.md §7/§9 contract end-to-end (DESIGN.md §14, "Soak
//! invariants").
//!
//! Two standard sizes ship with the repo:
//!
//! * [`quick_soak_spec`] — tens of thousands of requests with the full
//!   impairment vocabulary (seeded kill, failover kill, partition + heal,
//!   straggler storm); bounded enough for CI's `--quick` gate.
//! * [`full_soak_spec`] — the million-request run behind the committed
//!   `BENCH_soak.json` record.
//!
//! Both run the *same* spec shape on both built-in providers; only the
//! request counts differ.

use crate::provider::TransportProvider;
use crate::runner::{run_scenario, ScenarioReport};
use crate::spec::{Impairment, ScenarioSpec, SyntheticKind, TopologySpec};
use minisearch::corpus::CorpusConfig;
use netagg_core::AggError;

/// Shared shape of the soak scenario: a two-rack deployment running
/// three synthetic apps plus the two real applications, with every
/// impairment family firing at request-indexed points scaled to the run
/// length.
fn soak_spec(name: &str, synthetic_requests: u64, queries: u64, jobs: u64) -> ScenarioSpec {
    let n = synthetic_requests;
    ScenarioSpec::new(name, TopologySpec::multi_rack(2, 3, 1))
        .synthetic("soak-sum", SyntheticKind::Sum, n, 2.0)
        .synthetic("soak-max", SyntheticKind::Max, n, 1.0)
        .synthetic("soak-topk", SyntheticKind::TopK { k: 8 }, n, 1.0)
        .search(
            queries,
            CorpusConfig {
                num_docs: 400,
                ..CorpusConfig::default()
            },
            10,
            2.0,
        )
        .mapreduce(jobs, 1.0)
        .with_fast_detector()
        .with_inflight(8)
        // Loss: a seeded mid-stream kill of box 0 forces replay recovery.
        .impair(Impairment::SeededBoxKill {
            slot: 0,
            frames_lo: 200,
            frames_hi: 2_000,
        })
        // Failover: box 1 dies once the run is warm.
        .impair(Impairment::BoxKill {
            slot: 1,
            after_requests: n / 2,
        })
        // Straggler storm: workers 1 and 4 slow down for a stretch.
        .impair(Impairment::StragglerStorm {
            workers: vec![1, 4],
            delay_ms: 2,
            from_requests: n / 4,
            until_requests: n / 4 + n / 8,
        })
        // Partition + heal: late in the run both boxes are cut (idempotent
        // over the earlier kills) and then revived. Re-points are one-way,
        // so the heal must not let the revived boxes corrupt results.
        .impair(Impairment::Partition {
            slots: vec![0, 1],
            at_requests: (3 * n) / 4,
            heal_after_requests: n / 8,
        })
        .with_seed(0x50AC_2026)
        // A p99 wait of ~37 ms leaves the default 30 s deadline with
        // ~1000x headroom, but a starved single-CPU host (CI under a
        // noisy neighbour) has been seen to push one straggling request
        // over it. The soak asserts *correctness*, not latency — the
        // throughput gate covers speed — so give the deadline slack.
        .with_wait_timeout(std::time::Duration::from_secs(120))
}

/// The CI-sized soak: full impairment vocabulary, bounded run time.
pub fn quick_soak_spec() -> ScenarioSpec {
    soak_spec("soak-quick", 8_000, 150, 20)
}

/// The million-request soak behind the committed baseline: 331k+
/// synthetic requests per app across three apps, plus search and
/// map-reduce on top.
pub fn full_soak_spec() -> ScenarioSpec {
    soak_spec("soak-full", 333_000, 2_000, 100)
}

/// Run `spec` against `provider` and *assert* the soak invariants, so a
/// violation fails loudly with the report attached.
pub fn run_soak(
    spec: &ScenarioSpec,
    provider: &dyn TransportProvider,
) -> Result<ScenarioReport, AggError> {
    let report = run_scenario(spec, provider)?;
    if report.failures > 0 || report.mismatches > 0 || !report.violations.is_empty() {
        // Per-app breakdown before the assert fires: a soak failure
        // message must say *which* workload broke, not just the totals.
        for s in &report.per_app {
            eprintln!(
                "soak {}/{} app {}: issued {} completed {} failures {} mismatches {}",
                report.scenario,
                report.provider,
                s.name,
                s.issued,
                s.completed,
                s.failures,
                s.mismatches
            );
        }
    }
    assert!(
        report.violations.is_empty(),
        "soak {}/{} violated the §7/§9 contract: {:?}",
        report.scenario,
        report.provider,
        report.violations
    );
    assert_eq!(
        report.failures, 0,
        "soak {}/{} had {} failed requests",
        report.scenario, report.provider, report.failures
    );
    assert_eq!(
        report.mismatches, 0,
        "soak {}/{} delivered {} inexact results",
        report.scenario, report.provider, report.mismatches
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_specs_scale_but_share_shape() {
        let quick = quick_soak_spec();
        let full = full_soak_spec();
        assert_eq!(quick.apps.len(), full.apps.len());
        assert_eq!(quick.impairments.len(), full.impairments.len());
        assert!(full.total_requests() >= 999_000, "full soak must be ~1M");
        assert!(
            quick.total_requests() < 30_000,
            "quick soak must stay CI-sized"
        );
        assert!(quick.kills_boxes() && quick.detector.is_some());
    }
}
