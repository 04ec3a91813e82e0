//! Cross-crate integration tests: both applications sharing one NetAgg
//! deployment, the emulated testbed reproducing the paper's headline
//! ratios at small scale, and simulation/testbed consistency.

use bytes::Bytes;
use minimr::cluster::JobConfig;
use minisearch::corpus::CorpusConfig;
use netagg_net::FaultStep;
use netagg_repro::netagg_scenarios::{
    ChannelProvider, ScenarioHarness, ScenarioSpec, TopologySpec,
};
use netagg_repro::netagg_sim;
use std::time::Duration;

/// Corpus used by the shared-deployment test; seed 5 pins the shards.
fn shared_corpus() -> CorpusConfig {
    CorpusConfig {
        num_docs: 200,
        vocabulary: 800,
        mean_words: 40,
        markers_per_doc: 3,
        seed: 5,
    }
}

/// Both applications (search + map/reduce) share one deployment and one
/// agg box; the box's scheduler accounts CPU per application. The
/// workloads are driven by hand through the harness accessors (zero
/// spec-driven requests), so the test controls exact inputs.
#[test]
fn search_and_mapreduce_share_one_deployment() {
    let spec = ScenarioSpec::new("shared-deployment", TopologySpec::single_rack(4, 1))
        .search_with_backend_k(0, shared_corpus(), 10, 30, 2.0)
        .mapreduce(0, 1.0);
    let harness = ScenarioHarness::build(&spec, &ChannelProvider).unwrap();
    let search = harness.search(0).unwrap();
    let mr = harness.mapreduce(1).unwrap();
    assert_ne!(search.app, mr.app);

    // Interleave work from both applications.
    let mr_inputs = vec![
        vec![Bytes::from_static(b"x y x")],
        vec![Bytes::from_static(b"y z")],
        vec![Bytes::from_static(b"x")],
        vec![],
    ];
    let mr_result = mr.run(mr_inputs, &JobConfig::default()).unwrap();
    for q in 0..5 {
        let out = search
            .frontend
            .query(&[minisearch::corpus::word(q)])
            .unwrap();
        assert!(out.latency < Duration::from_secs(10));
    }
    let count = |k: &[u8]| {
        mr_result
            .output
            .iter()
            .find(|p| p.key.as_ref() == k)
            .and_then(|p| minimr::types::parse_u64(&p.value))
    };
    assert_eq!(count(b"x"), Some(3));
    assert_eq!(count(b"y"), Some(2));

    // The box's scheduler ran tasks for both applications.
    let cpu = harness.deployment().boxes()[0].scheduler().cpu_times();
    assert_eq!(cpu.len(), 2);
    for c in &cpu {
        assert!(c.tasks_run > 0, "app {:?} ran no box tasks", c.app);
    }
    let report = harness.finish();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

/// The simulator's headline comparison holds under contention: NetAgg
/// beats rack-level aggregation at the 99th percentile of workload flows.
#[test]
fn sim_netagg_beats_rack_under_load() {
    use netagg_sim::metrics::FlowClass;
    let mut base = netagg_sim::ExperimentConfig::default_scale();
    base.workload.num_flows = 1_200;
    let mut rack = base.clone();
    rack.strategy = netagg_sim::Strategy::RackLevel;
    let mut netagg = base;
    netagg.strategy = netagg_sim::Strategy::NetAgg;
    let rack_p99 = netagg_sim::run_experiment(&rack).fct_p99(FlowClass::All);
    let net_p99 = netagg_sim::run_experiment(&netagg).fct_p99(FlowClass::All);
    assert!(
        net_p99 < rack_p99,
        "netagg p99 {net_p99} should beat rack {rack_p99}"
    );
    // Aggregation flows see the strongest effect (the funnel moves from a
    // 1 Gbps server to a 10 Gbps box).
    let rack_agg = netagg_sim::run_experiment(&rack).fct_p99(FlowClass::Aggregation);
    let net_agg = netagg_sim::run_experiment(&netagg).fct_p99(FlowClass::Aggregation);
    assert!(
        net_agg < 0.7 * rack_agg,
        "agg flows: {net_agg} vs {rack_agg}"
    );
}

/// The flow-level simulator and the emulated testbed agree on the headline
/// mechanism: on-path aggregation relieves the master's edge link.
#[test]
fn sim_and_testbed_agree_on_reduction() {
    use netagg_sim::metrics::FlowClass;
    // Simulator at quick scale.
    let mut cfg = netagg_sim::ExperimentConfig::quick();
    cfg.workload.num_flows = 400;
    cfg.strategy = netagg_sim::Strategy::NetAgg;
    let sim = netagg_sim::run_experiment(&cfg);
    assert!(sim.fct_p99(FlowClass::All) > 0.0);
    // Derived segments carry less than the raw partials (data reduction).
    let raw: f64 = sim
        .records
        .iter()
        .filter(|r| netagg_sim::metrics::FlowClass::Aggregation.matches(r.kind))
        .map(|r| r.size)
        .sum();
    let derived: f64 = sim
        .records
        .iter()
        .filter(|r| netagg_sim::metrics::FlowClass::Derived.matches(r.kind))
        .map(|r| r.size)
        .sum();
    assert!(
        derived < raw,
        "derived {derived} should be reduced below raw {raw}"
    );
}

/// One deployment with the straggler policy enabled serves both
/// applications and completes requests even when a rack box lags.
#[test]
fn multi_rack_search_with_straggler_policy() {
    use netagg_repro::netagg_core::runtime::DeploymentConfig;
    use netagg_repro::netagg_core::straggler::StragglerPolicy;
    let spec = ScenarioSpec::new("straggler-policy", TopologySpec::multi_rack(2, 2, 1))
        .with_tuning(DeploymentConfig {
            straggler: Some(StragglerPolicy {
                threshold: Duration::from_millis(300),
                repeat_limit: 100,
            }),
            ..DeploymentConfig::default()
        })
        .search_with_backend_k(
            0,
            CorpusConfig {
                num_docs: 150,
                vocabulary: 500,
                mean_words: 30,
                markers_per_doc: 3,
                seed: 9,
            },
            5,
            20,
            1.0,
        );
    let harness = ScenarioHarness::build(&spec, &ChannelProvider).unwrap();
    let search = harness.search(0).unwrap();
    for q in 0..8 {
        let out = search
            .frontend
            .query(&[minisearch::corpus::word(q % 20)])
            .unwrap();
        assert!(out.results.docs.len() <= 5);
    }
    let report = harness.finish();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

/// A search cluster keeps answering queries after its agg box dies: the
/// failure detector re-points the backends' shims at the master and
/// replay buffers recover the in-flight query.
#[test]
fn search_survives_box_failure() {
    // The harness always layers a `FaultTransport` over the provider's
    // transport, so ad-hoc kills go through `harness.fault()`.
    let spec = ScenarioSpec::new("search-box-failure", TopologySpec::single_rack(4, 1))
        .search_with_backend_k(
            0,
            CorpusConfig {
                num_docs: 200,
                vocabulary: 800,
                mean_words: 40,
                markers_per_doc: 3,
                seed: 11,
            },
            10,
            30,
            1.0,
        )
        .with_fast_detector();
    let harness = ScenarioHarness::build(&spec, &ChannelProvider).unwrap();
    let search = harness.search(0).unwrap();

    let before = search
        .frontend
        .query(&[minisearch::corpus::word(0)])
        .unwrap();
    assert!(!before.results.docs.is_empty());

    let box_addr = harness.deployment().boxes()[0].addr();
    harness.fault().kill(box_addr);
    std::thread::sleep(Duration::from_millis(400)); // detector fires

    // Queries after the failure bypass the dead box and return the same
    // results (the merge is deterministic either way).
    let after = search
        .frontend
        .query(&[minisearch::corpus::word(0)])
        .unwrap();
    let ids =
        |o: &minisearch::QueryOutcome| o.results.docs.iter().map(|d| d.doc).collect::<Vec<_>>();
    assert_eq!(ids(&before), ids(&after));
    harness.fault().revive(box_addr);
    let report = harness.finish();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.detections >= 1, "detector never fired");
}

/// Speculative re-execution emits duplicate mapper output; the boxes'
/// per-source sequence suppression keeps the job's result exact.
#[test]
fn mapreduce_speculative_duplicates_are_exact() {
    let spec =
        ScenarioSpec::new("mr-speculation", TopologySpec::single_rack(3, 1)).mapreduce(0, 1.0);
    let harness = ScenarioHarness::build(&spec, &ChannelProvider).unwrap();
    let mr = harness.mapreduce(0).unwrap();
    let inputs = vec![
        vec![Bytes::from_static(b"a b a c"), Bytes::from_static(b"b b")],
        vec![Bytes::from_static(b"c a")],
        vec![Bytes::from_static(b"a")],
    ];
    let plain = mr
        .run(
            inputs.clone(),
            &JobConfig {
                request_id: 1,
                ..JobConfig::default()
            },
        )
        .unwrap();
    let speculative = mr
        .run(
            inputs,
            &JobConfig {
                request_id: 2,
                speculate_every: 1, // every worker re-sends its chunks
                ..JobConfig::default()
            },
        )
        .unwrap();
    assert!(minimr::types::outputs_equivalent(
        &plain.output,
        &speculative.output
    ));
    let count = |k: &[u8]| {
        speculative
            .output
            .iter()
            .find(|p| p.key.as_ref() == k)
            .and_then(|p| minimr::types::parse_u64(&p.value))
    };
    assert_eq!(count(b"a"), Some(4));
    assert_eq!(count(b"b"), Some(3));
    assert_eq!(count(b"c"), Some(2));
    // Speculative duplicates were suppressed, not delivered twice; the
    // harness's teardown contract re-checks that from the metrics.
    let report = harness.finish();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

/// A box dying mid-shuffle is recoverable, not a failed job: the worker
/// shim numbers and retains a chunk before putting it on the wire, so a
/// mapper whose send hits the dead box keeps streaming and the detector's
/// permanent redirect replays everything to the box's successor (§8).
/// The `FaultStep` lets exactly one more frame into the mappers' box —
/// some mapper's first chunk — and kills it before any second chunk.
#[test]
fn mapreduce_survives_its_box_dying_between_two_chunks() {
    let spec = ScenarioSpec::new("mr-box-kill", TopologySpec::multi_rack(2, 3, 1))
        .mapreduce(0, 1.0)
        .with_fast_detector();
    let harness = ScenarioHarness::build(&spec, &ChannelProvider).unwrap();
    let mr = harness.mapreduce(0).unwrap();
    let box0 = harness.deployment().boxes()[0].addr();
    harness.fault().schedule(FaultStep {
        watch: box0,
        after_frames: harness.fault().frames_delivered(box0) + 1,
        kill_target: box0,
    });
    // Three distinct keys per mapper, one record per chunk: every mapper
    // streams three chunks, the last one closing its contribution.
    let inputs: Vec<Vec<Bytes>> = (0..mr.num_mappers())
        .map(|m| vec![Bytes::from(format!("common w{m} w{m} x{m}"))])
        .collect();
    let cfg = JobConfig {
        chunk_bytes: 1,
        ..JobConfig::default()
    };
    let result = mr.run(inputs, &cfg).expect("a box kill mid-stream");
    assert!(harness.fault().is_dead(box0), "the step never fired");
    let mut expected = vec![("common".to_string(), 6)];
    for m in 0..6 {
        expected.extend([(format!("w{m}"), 2), (format!("x{m}"), 1)]);
    }
    expected.sort();
    let counted = |p: &minimr::types::Pair| {
        let key = String::from_utf8(p.key.to_vec()).unwrap();
        (key, minimr::types::parse_u64(&p.value).unwrap())
    };
    let output: Vec<(String, u64)> = result.output.iter().map(counted).collect();
    assert_eq!(output, expected);
    let report = harness.finish();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let failed_sends = report.snapshot.counter("shim.worker.send_errors");
    assert!(failed_sends > Some(0), "no send hit the dead box");
}
