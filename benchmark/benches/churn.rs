//! `churn-mix`: the soak shape at benchmark size. Three synthetic apps,
//! minisearch and minimr share two racks while a box is killed mid-stream
//! (replay), another fails over, workers straggle and both boxes are cut
//! and healed. It runs the same shims, ledger and box code as the steady
//! workloads but down the recovery branch, so a steady-path gain that
//! taxes recovery shows here.
//!
//! The scenario harness drives the mix (closed loop, window 8 per app);
//! the benchmark adds a lightly paced probe tenant of its own and times
//! it with its own clock: the request latency a tenant sees under churn.

use crate::inputs::SmallInts;
use crate::loadgen::{Tally, Target};
use crate::snapshot::{self, counter, DepthMax};
use crate::stats::{median, HostSample, Latencies};
use crate::{Args, Outcome};
use bytes::Bytes;
use minimr::cluster::JobConfig;
use minisearch::corpus::CorpusConfig;
use netagg_core::prelude::*;
use netagg_net::lifecycle::{CancelToken, JoinScope, Mailbox, OverflowPolicy};
use netagg_net::DetRng;
use netagg_obs::trace::TraceRecorder;
use netagg_obs::{names, MetricsRegistry};
use netagg_scenarios::{
    ChannelProvider, Impairment, ScenarioHarness, ScenarioSpec, SyntheticKind, TopologySpec,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per synthetic app, search queries and map-reduce jobs per
/// second of `--seconds`: fixed work for a given run length (≈ 3 300
/// requests/s per app on the machine the workload was sized on).
const SYNTHETIC_PER_S: f64 = 3000.0;
const QUERIES_PER_S: f64 = 50.0;
/// The jobs run during set-up, before any fault fires: a job whose
/// mapper sends into a box at the instant it is killed returns an error
/// (3 of 8 runs when jobs shared the fault window), and a workload on
/// which operations fail at random cannot gate anything.
const JOBS_PER_S: f64 = 5.0;
/// One probe request every this often.
const PROBE_PERIOD: Duration = Duration::from_millis(2);
/// Stretches of the drive the probe's latencies are grouped in.
const PROBE_SLICE: Duration = Duration::from_millis(500);
/// Index of the probe app in the spec (registration order).
const PROBE_APP: usize = 5;
/// Benchmark-timed queries that end set-up (with the jobs above).
const WARM_QUERIES: u64 = 40;
const SETUPS: usize = 3;

/// The soak shape of `netagg_scenarios::soak` with every impairment
/// family at request-indexed points scaled to `n`, plus the probe tenant.
fn mix(n: u64, queries: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new("churn-mix", TopologySpec::multi_rack(2, 3, 1))
        .synthetic("churn-sum", SyntheticKind::Sum, n, 2.0)
        .synthetic("churn-max", SyntheticKind::Max, n, 1.0)
        .synthetic("churn-topk", SyntheticKind::TopK { k: 8 }, n, 1.0)
        .search(
            queries,
            CorpusConfig {
                num_docs: 400,
                ..CorpusConfig::default()
            },
            10,
            2.0,
        )
        // Launched for its WFQ share; its jobs are the benchmark's own.
        .mapreduce(0, 1.0)
        // Registered and handed shims, never driven by the harness.
        .synthetic("churn-probe", SyntheticKind::Sum, 0, 1.0)
        .with_fast_detector()
        .with_inflight(8)
        .impair(Impairment::SeededBoxKill {
            slot: 0,
            frames_lo: 200,
            frames_hi: 2_000,
        })
        .impair(Impairment::BoxKill {
            slot: 1,
            after_requests: n / 2,
        })
        .impair(Impairment::StragglerStorm {
            workers: vec![1, 4],
            delay_ms: 2,
            from_requests: n / 4,
            until_requests: n / 4 + n / 8,
        })
        .impair(Impairment::Partition {
            slots: vec![0, 1],
            at_requests: (3 * n) / 4,
            heal_after_requests: n / 8,
        })
        .with_seed(seed)
        .with_wait_timeout(Duration::from_secs(60))
}

/// p50 of the benchmark's own warm-up calls into the two applications.
struct WarmUp {
    tally: Tally,
    query_us: f64,
    job_ms: f64,
}

fn warm_up(harness: &ScenarioHarness, seed: u64, jobs: u64) -> WarmUp {
    let mut tally = Tally::default();
    let mut rng = DetRng::new(seed ^ 0x5EA7C4);
    let search = harness.search(3).expect("search app launched");
    let mut query_us = Vec::new();
    for _ in 0..WARM_QUERIES {
        let term =
            minisearch::corpus::word(rng.gen_range(0, search.corpus_vocabulary as u64) as usize);
        let t = Instant::now();
        let ok = search.frontend.query(&[term]).is_ok();
        query_us.push(t.elapsed().as_secs_f64() * 1e6);
        tally.attempted += 1;
        tally.failed += !ok as u64;
    }
    let mr = harness.mapreduce(4).expect("map-reduce app launched");
    let mappers = mr.num_mappers();
    let mut job_ms = Vec::new();
    for j in 0..jobs {
        let inputs: Vec<Vec<Bytes>> = (0..mappers)
            .map(|m| vec![Bytes::from(format!("common w{m} w{m}"))])
            .collect();
        let cfg = JobConfig {
            request_id: (1 << 40) + j,
            ..JobConfig::default()
        };
        let t = Instant::now();
        let result = mr.run(inputs, &cfg);
        job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // Every mapper emits "common" once: the reference count.
        let ok = result.is_ok_and(|r| {
            r.output
                .iter()
                .find(|p| p.key.as_ref() == b"common")
                .and_then(|p| minimr::types::parse_u64(&p.value))
                == Some(mappers as u64)
        });
        tally.attempted += 1;
        tally.failed += !ok as u64;
    }
    WarmUp {
        tally,
        query_us: median(&mut query_us),
        job_ms: median(&mut job_ms),
    }
}

/// What the probe thread hands back when the drive ends.
struct Probe {
    tally: Tally,
    /// Every probe request, issue → verified result.
    latency: Latencies,
    /// The probe's p50 in microseconds per [`PROBE_SLICE`] of the drive.
    /// The drive is not stationary: about a second of ramp, some six
    /// seconds inside the straggler storm (sleep-bound, under a thousand
    /// requests a second), two seconds of CPU-bound catch-up through the
    /// kills and the partition. Latency is reported as the median slice —
    /// a storm slice: the two injected 2 ms delays plus what a request
    /// takes beside them. That repeats within 2 %; the p50 over all probes
    /// falls between the phases and moved by a quarter from run to run.
    p50_us: Vec<f64>,
    depths: DepthMax,
}

/// One verified request every [`PROBE_PERIOD`] until `stop`.
fn probe(target: &Target, registry: &MetricsRegistry, stop: &AtomicBool) -> Probe {
    let mut out = Probe {
        tally: Tally::default(),
        latency: Latencies::default(),
        p50_us: Vec::new(),
        depths: DepthMax::default(),
    };
    let mut slice_began = Instant::now();
    let mut this_slice = Latencies::default();
    let mut request = 1u64;
    let mut due = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        let issued = target.issue(request);
        out.tally.attempted += 1;
        match target.settle(issued) {
            Some(_) => {
                let ns = t.elapsed().as_nanos() as u64;
                out.latency.push_ns(ns);
                this_slice.push_ns(ns);
            }
            None => out.tally.failed += 1,
        }
        if request.is_multiple_of(64) {
            out.depths.sample(&registry.snapshot());
        }
        if slice_began.elapsed() >= PROBE_SLICE {
            out.p50_us.push(this_slice.us(0.5));
            this_slice = Latencies::default();
            slice_began = Instant::now();
        }
        request += 1;
        due += PROBE_PERIOD;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    }
    out
}

pub fn run(args: &Args, out: &mut Outcome) {
    // The traced run spends most of its time in the micro-drivers.
    let seconds = args.seconds * if args.trace { 0.4 } else { 1.0 };
    let n = (SYNTHETIC_PER_S * seconds) as u64;
    let spec = mix(n, (QUERIES_PER_S * seconds) as u64, args.seed);
    let jobs = (JOBS_PER_S * seconds) as u64;

    // Set-ups that are timed and torn down again launch the same apps on
    // the same topology with nothing to drive (`finish` drives whatever
    // the spec still holds) and no fault to fire.
    let mut idle = mix(0, 0, args.seed);
    idle.impairments.clear();

    let mut setups = Vec::new();
    let mut build_s = 0.0;
    let mut live = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let registry = MetricsRegistry::new();
        let built = Instant::now();
        let spec = if k + 1 < SETUPS { &idle } else { &spec };
        let harness = ScenarioHarness::build_with_obs(spec, &ChannelProvider, registry.clone())
            .expect("build churn-mix");
        build_s = built.elapsed().as_secs_f64();
        let warm = warm_up(&harness, args.seed, jobs);
        setups.push(t.elapsed().as_secs_f64());
        out.attempted += warm.tally.attempted;
        out.failed += warm.tally.failed;
        if let Some((prev, _, _)) = live.replace((harness, registry, warm)) {
            // Even an idle set-up has to leave no thread behind.
            let report = ScenarioHarness::finish(prev);
            out.failed += report.violations.len() as u64;
        }
    }
    let (mut harness, registry, warm) = live.expect("at least one set-up");

    let (master, workers) = harness
        .synthetic_shims(PROBE_APP)
        .expect("probe app launched");
    let target = Arc::new(Target {
        app: AppId(PROBE_APP as u16),
        master: master.clone(),
        workers: workers.to_vec(),
        payloads: Arc::new(SmallInts::new(args.seed, workers.len())),
        timeout: Duration::from_secs(60),
        spans: Arc::new(TraceRecorder::with_capacity(1)),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let result: Mailbox<Probe> = Mailbox::new(
        "bench.churn.probe",
        1,
        OverflowPolicy::Block,
        CancelToken::new(),
    );
    let scope = JoinScope::new("bench-churn", CancelToken::new(), Duration::from_secs(120));
    {
        let (target, registry) = (target.clone(), registry.clone());
        let (stop, result) = (stop.clone(), result.clone());
        scope
            .spawn("bench-churn-probe", move || {
                let _ = result.send(probe(&target, &registry, &stop));
            })
            .expect("spawn probe");
    }
    drop(target);

    let wire_before = registry.snapshot();
    let host_before = HostSample::now();
    let t = Instant::now();
    harness.drive();
    let drive_s = t.elapsed().as_secs_f64();
    let host_after = HostSample::now();
    stop.store(true, Ordering::Relaxed);
    let mut probe = result.recv().expect("probe thread reports");
    scope.finish();
    let wire_after = registry.snapshot();

    let t = Instant::now();
    let report = harness.finish();
    let finish_s = t.elapsed().as_secs_f64();
    out.attempted += report.requests_issued + probe.tally.attempted;
    out.failed += report.failures
        + report.mismatches
        + (report.requests_issued - report.requests_completed).saturating_sub(report.failures)
        + report.violations.len() as u64
        + probe.tally.failed;
    for v in &report.violations {
        out.note(format!("contract violation: {v}"));
    }
    for app in report
        .per_app
        .iter()
        .filter(|a| a.completed != a.issued || a.mismatches > 0)
    {
        out.note(format!(
            "app {}: issued {} completed {} failures {} mismatches {}",
            app.name, app.issued, app.completed, app.failures, app.mismatches
        ));
    }
    let requests = (report.requests_completed + probe.latency.len() as u64).max(1) as f64;
    out.note(format!(
        "{} requests of the mix in {drive_s:.2} s ({:.1} us of CPU each over the whole \
         drive), {} probe requests (p50 {:.1} us, p99 {:.1} us over all of them); \
         {} detections, {} re-points; impairments: {}",
        report.requests_completed,
        host_after.cpu_us_since(&host_before) / requests,
        probe.latency.len(),
        probe.latency.us(0.5),
        probe.latency.us(0.99),
        report.detections,
        report.repoints,
        report.impairments_applied.join("; "),
    ));

    let delta = |name: &str| counter(&wire_after, name) - counter(&wire_before, name);
    let m = &mut out.metrics;
    if !args.trace {
        m.set("setup_s", median(&mut setups));
        m.set("requests_per_s", report.requests_completed as f64 / drive_s);
        m.set("latency_p50_us", median(&mut probe.p50_us));
        m.set(
            "cpu_us_per_request",
            host_after.cpu_us_since(&host_before) / requests,
        );
        m.set(
            "wire_bytes_per_request",
            delta(names::NET_BYTES_SENT) / requests,
        );
        m.set("events_per_s", delta(names::NET_FRAMES_SENT) / drive_s);
        return;
    }
    m.set(
        "net.frames_per_request",
        delta(names::NET_FRAMES_SENT) / requests,
    );
    snapshot::set_rows(m, &report.snapshot, requests, &probe.depths);
    m.set("scenarios.build_s", build_s);
    m.set("scenarios.finish_s", finish_s);
    m.set("scenarios.violations", report.violations.len() as f64);
    m.set("minimr.job_ms", warm.job_ms);
    m.set("minisearch.query_us", warm.query_us);
    m.set("loadgen.closed.p50_us", probe.latency.us(0.5));
    m.set("loadgen.closed.p99_us", probe.latency.us(0.99));
    m.set(
        "host.steal_share",
        host_after.steal_share_since(&host_before),
    );
    m.set(
        "host.invol_ctx_per_s",
        host_after.invol_ctx_per_s_since(&host_before),
    );
}
