//! `small-tcp`, `small-channel` and `bulk-tcp`: one application, no
//! faults, driven by the benchmark's own generator through the public
//! shim API — set-up and count-based warm-up, a closed-loop phase, an
//! open-loop phase, and for `--trace 1` a traced repeat of the closed
//! loop.

use crate::inputs::{SmallInts, WordCounts};
use crate::loadgen::{
    self, closed_loop, open_loop, warm_up, ClosedResult, OpenResult, Payloads, Tally, Target,
};
use crate::snapshot::{self, counter, DepthMax};
use crate::stats::{best_rate, best_time, cv, median, HostSample};
use crate::tracing;
use crate::{alloc, Args, Outcome};
use bytes::Bytes;
use minimr::jobs::WordCount;
use minimr::netagg::CombinerAgg;
use netagg_core::prelude::*;
use netagg_net::lifecycle::CancelToken;
use netagg_net::{Connection, Listener, NetError, NodeId, Transport};
use netagg_obs::trace::{self, TraceRecorder};
use netagg_obs::{names, MetricsRegistry, MetricsSnapshot};
use netagg_scenarios::{
    ChannelProvider, ScenarioHarness, ScenarioSpec, SyntheticKind, TcpProvider, TopologySpec,
    TransportProvider,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The constants of one steady workload. Windows and rates are fixed
/// here, never fitted to a run, so parent and change see the same load.
struct SteadySpec {
    topology: TopologySpec,
    tcp: bool,
    /// Wordcount batches instead of small integers.
    bulk: bool,
    /// In-flight requests of the closed loop.
    window: usize,
    /// Requests per closed-loop block: 50 to 300 ms of work, shorter than
    /// the host's plateaus and long enough to hold a window many times
    /// over.
    block: u64,
    /// Offered requests per second of the open loop.
    open_rate: f64,
    /// Consecutive open-loop requests one median is taken over.
    open_slice: u64,
    /// Verified requests that end set-up.
    warmup: u64,
    /// Times the closed-loop and the open-loop phase alternate, so that
    /// both see the same stretches of host time, on both CPUs.
    rounds: u32,
    /// The traced phase keeps one request in this many, so the program's
    /// 65 536-span recorder drops nothing.
    trace_modulus: u64,
}

fn spec(name: &str) -> SteadySpec {
    let small = SteadySpec {
        topology: TopologySpec::single_rack(4, 1),
        tcp: true,
        bulk: false,
        window: 8,
        block: 4000,
        open_rate: 16_000.0,
        open_slice: 1000,
        warmup: 2000,
        rounds: 10,
        trace_modulus: 256,
    };
    match name {
        "small-tcp" => small,
        "small-channel" => SteadySpec {
            tcp: false,
            ..small
        },
        "bulk-tcp" => SteadySpec {
            topology: TopologySpec::multi_rack(2, 4, 1),
            tcp: true,
            bulk: true,
            window: 4,
            block: 32,
            open_rate: 32.0,
            open_slice: 32,
            warmup: 16,
            rounds: 5,
            trace_modulus: 1,
        },
        other => unreachable!("`{other}` is not a steady workload"),
    }
}

/// Set-ups per run; `setup_s` is the shortest (the first one of a process
/// pays for page faults and lazy initialisation no later one does).
const SETUPS: usize = 5;
/// Per-request completion deadline.
const TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// The benchmark-owned transport decorator (`--selftest` only)
// ---------------------------------------------------------------------------

/// Busy-waits a fixed time in every `send`: a known slowdown of one
/// layer, so `--selftest` can show the harness sees it where it should.
/// (A sleep would add the kernel's timer slack, several times the delay.)
struct DelayTransport {
    inner: Arc<dyn Transport>,
    delay: Duration,
}

struct DelayListener {
    inner: Box<dyn Listener>,
    delay: Duration,
}

struct DelayConnection {
    inner: Box<dyn Connection>,
    delay: Duration,
}

impl Transport for DelayTransport {
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError> {
        Ok(Box::new(DelayListener {
            inner: self.inner.bind(local)?,
            delay: self.delay,
        }))
    }

    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError> {
        Ok(Box::new(DelayConnection {
            inner: self.inner.connect(local, peer)?,
            delay: self.delay,
        }))
    }

    fn attach_obs(&self, obs: &MetricsRegistry) {
        self.inner.attach_obs(obs);
    }
}

impl DelayListener {
    fn wrap(&self, inner: Box<dyn Connection>) -> Box<dyn Connection> {
        Box::new(DelayConnection {
            inner,
            delay: self.delay,
        })
    }
}

impl Listener for DelayListener {
    fn accept(&mut self) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept()?;
        Ok(self.wrap(c))
    }

    fn accept_timeout(&mut self, timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept_timeout(timeout)?;
        Ok(self.wrap(c))
    }

    fn accept_cancellable(
        &mut self,
        cancel: &CancelToken,
    ) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept_cancellable(cancel)?;
        Ok(self.wrap(c))
    }
}

impl Connection for DelayConnection {
    fn send(&mut self, payload: Bytes) -> Result<(), NetError> {
        let until = Instant::now() + self.delay;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        self.inner.send(payload)
    }

    fn recv(&mut self) -> Result<Bytes, NetError> {
        self.inner.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, NetError> {
        self.inner.recv_timeout(timeout)
    }

    fn recv_cancellable(&mut self, cancel: &CancelToken) -> Result<Bytes, NetError> {
        self.inner.recv_cancellable(cancel)
    }

    fn peer(&self) -> NodeId {
        self.inner.peer()
    }
}

/// The workload's provider, optionally behind the delay decorator.
struct BenchProvider {
    tcp: bool,
    delay: Duration,
}

impl TransportProvider for BenchProvider {
    fn label(&self) -> &'static str {
        if self.tcp {
            TcpProvider.label()
        } else {
            ChannelProvider.label()
        }
    }

    fn build(&self) -> Arc<dyn Transport> {
        let inner = if self.tcp {
            TcpProvider.build()
        } else {
            ChannelProvider.build()
        };
        if self.delay.is_zero() {
            inner
        } else {
            Arc::new(DelayTransport {
                inner,
                delay: self.delay,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up and teardown
// ---------------------------------------------------------------------------

/// A built deployment with the application under test registered.
struct Deployed {
    harness: ScenarioHarness,
    target: Arc<Target>,
    registry: MetricsRegistry,
    /// Worker shims the benchmark created itself (the harness shuts down
    /// only the ones it handed out).
    own_workers: bool,
    build_s: f64,
}

/// The workload's seeded inputs: the benchmark's, made once per run.
fn payloads(s: &SteadySpec, seed: u64) -> Arc<dyn Payloads> {
    let workers = s.topology.total_workers() as usize;
    if s.bulk {
        Arc::new(WordCounts::new(seed, workers))
    } else {
        Arc::new(SmallInts::new(seed, workers))
    }
}

fn deploy(
    name: &str,
    s: &SteadySpec,
    args: &Args,
    payloads: &Arc<dyn Payloads>,
    spans: &Arc<TraceRecorder>,
) -> Deployed {
    let provider = BenchProvider {
        tcp: match args.provider.as_deref() {
            Some("tcp") => true,
            Some("channel") => false,
            _ => s.tcp,
        },
        delay: Duration::from_micros(args.send_delay_us),
    };
    let workers = s.topology.total_workers();
    let mut scenario = ScenarioSpec::new(name, s.topology);
    if !s.bulk {
        // Zero harness-driven requests: the app is registered and its
        // shims handed out, the benchmark issues every request itself.
        scenario = scenario.synthetic("sum", SyntheticKind::Sum, 0, 1.0);
    }
    let registry = MetricsRegistry::new();
    let t = trace::now_ns();
    let started = Instant::now();
    let mut harness = ScenarioHarness::build_with_obs(&scenario, &provider, registry.clone())
        .expect("build deployment");
    let (app, master, shims) = if s.bulk {
        let d = harness.deployment_mut();
        let agg = Arc::new(AggWrapper::new(CombinerAgg::new(Arc::new(WordCount))));
        let app = d.register_app("wordcount", agg, 1.0);
        let master = d.master_shim(app);
        let shims = (0..workers).map(|w| d.worker_shim(app, w)).collect();
        (app, master, shims)
    } else {
        let (master, shims) = harness.synthetic_shims(0).expect("sum app launched");
        // First application registered on a fresh deployment.
        (AppId(0), master.clone(), shims.to_vec())
    };
    let build_s = started.elapsed().as_secs_f64();
    spans.record_span(
        loadgen::span::SETUP_BUILD,
        loadgen::COMPONENT,
        1,
        spans.next_span_id(),
        0,
        0,
        t,
        trace::now_ns(),
    );
    Deployed {
        harness,
        target: Arc::new(Target {
            app,
            master,
            workers: shims,
            payloads: payloads.clone(),
            timeout: TIMEOUT,
            spans: spans.clone(),
        }),
        registry,
        own_workers: s.bulk,
        build_s,
    }
}

/// Tear down, returning the seconds `finish` took and the §7/§9 contract
/// violations it found. Every shim handle must be gone before the
/// harness checks that no thread outlived the deployment.
fn teardown(d: Deployed) -> (f64, Vec<String>) {
    let Deployed {
        harness,
        target,
        own_workers,
        ..
    } = d;
    if own_workers {
        target.workers.iter().for_each(|w| w.shutdown());
    }
    drop(target);
    let t = Instant::now();
    let report = harness.finish();
    (t.elapsed().as_secs_f64(), report.violations)
}

/// Frames and bytes the metered transport counted between two snapshots.
fn wire_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> (f64, f64) {
    (
        counter(after, names::NET_FRAMES_SENT) - counter(before, names::NET_FRAMES_SENT),
        counter(after, names::NET_BYTES_SENT) - counter(before, names::NET_BYTES_SENT),
    )
}

/// A snapshot taken once the senders' counters have caught up with the
/// last delivered result (they are bumped just after the send returns).
fn settled_snapshot(registry: &MetricsRegistry) -> MetricsSnapshot {
    std::thread::sleep(Duration::from_millis(5));
    registry.snapshot()
}

fn record(out: &mut Outcome, tally: Tally) {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
}

fn record_violations(out: &mut Outcome, violations: &[String]) {
    out.attempted += 1;
    out.failed += violations.len() as u64;
    for v in violations {
        out.note(format!("contract violation: {v}"));
    }
}

// ---------------------------------------------------------------------------
// The runs
// ---------------------------------------------------------------------------

pub fn run(args: &Args, out: &mut Outcome) {
    let s = spec(&args.workload);
    if args.trace {
        run_traced(&s, args, out);
    } else {
        run_untraced(&s, args, out);
    }
}

/// `--trace 0`: the end-to-end metrics, tracing off everywhere.
fn run_untraced(s: &SteadySpec, args: &Args, out: &mut Outcome) {
    let spans = Arc::new(TraceRecorder::with_capacity(1));
    let payloads = payloads(s, args.seed);
    let mut setups = Vec::new();
    let mut next = 1u64;
    let mut live = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let d = deploy(&args.workload, s, args, &payloads, &spans);
        record(out, warm_up(&d.target, &mut next, s.window, s.warmup));
        setups.push(t.elapsed().as_secs_f64());
        if let Some(prev) = live.replace(d) {
            record_violations(out, &teardown(prev).1);
        }
    }
    let d = live.expect("at least one set-up");

    let phase = Duration::from_secs_f64(args.seconds / (2 * s.rounds) as f64);
    let mut closed = ClosedResult::default();
    let mut open = OpenResult::with_capacity((s.open_rate * args.seconds / 2.0) as usize);
    let before = settled_snapshot(&d.registry);
    let host_before = HostSample::now();
    for round in 0..s.rounds {
        args.placement.start_round(round as usize);
        closed.extend(closed_loop(
            &d.target,
            &mut next,
            s.window,
            s.block,
            phase,
            &mut || {},
        ));
        open.extend(open_loop(
            &d.target,
            &mut next,
            s.open_rate,
            phase,
            s.open_slice,
            8 * s.window,
        ));
    }
    let host_after = HostSample::now();
    let after = settled_snapshot(&d.registry);
    record(out, closed.tally);
    record(out, open.tally);
    record_violations(out, &teardown(d).1);

    // Every request is the same five (bulk-tcp: eleven) frames whichever
    // loop issued it, so the wire counts are taken over both.
    let (frames, bytes) = wire_delta(&before, &after);
    let issued = (closed.tally.attempted + open.tally.attempted) as f64;
    let requests_per_s = best_rate(&closed.block_rates);

    let m = &mut out.metrics;
    m.set("setup_s", best_time(&setups));
    m.set("requests_per_s", requests_per_s);
    m.set("cpu_us_per_request", best_time(&closed.block_cpu_us));
    m.set("wire_bytes_per_request", bytes / issued);
    // Frames the transport carried per second at that rate.
    m.set("events_per_s", frames / issued * requests_per_s);
    m.set("latency_p50_us", best_time(&open.slice_p50_us));
    out.note(format!(
        "closed loop: window {}, {} blocks of {} requests in {} phases of {phase:?}; \
         block rate median {:.0} req/s, cv {:.3}; CPU median {:.2} us/request; latency p50 \
         {:.1} us, p99 {:.1} us; host steal share {:.4} over the run",
        s.window,
        closed.block_rates.len(),
        s.block,
        s.rounds,
        median(&mut closed.block_rates.clone()),
        cv(&closed.block_rates),
        median(&mut closed.block_cpu_us),
        closed.latency.us(0.5),
        closed.latency.us(0.99),
        host_after.steal_share_since(&host_before),
    ));
    out.note(format!(
        "open loop: {} req/s offered, {} samples in {} slices of {}; slice p50 median {:.1} us; \
         p50 {:.1} us, p99 {:.1} us over all of them; generator late p50 {:.1} us, p99 {:.1} \
         us, max {:.1} us; backlog at a phase end at most {}{}",
        s.open_rate,
        open.latency.len(),
        open.slice_p50_us.len(),
        s.open_slice,
        median(&mut open.slice_p50_us),
        open.latency.us(0.5),
        open.latency.us(0.99),
        open.lateness.us(0.5),
        open.lateness.us(0.99),
        open.lateness.max_us(),
        open.backlog_end,
        if open.backlog_end as usize > 4 * s.window {
            " — the offered rate was NOT sustained"
        } else {
            ""
        },
    ));
}

/// `--trace 1`: the per-layer rows a steady workload can fill — an
/// untraced and a traced closed loop, a short open loop, the end-of-run
/// snapshot — plus the Chrome trace under `benchmark/out/`.
fn run_traced(s: &SteadySpec, args: &Args, out: &mut Outcome) {
    // Every request in the sample leaves 2 + workers spans here.
    let spans = Arc::new(TraceRecorder::with_capacity(1 << 18));
    spans.enable(s.trace_modulus);
    let mut next = 1u64;
    let d = deploy(&args.workload, s, args, &payloads(s, args.seed), &spans);
    spans.disable();
    record(out, warm_up(&d.target, &mut next, s.window, s.warmup));
    let mut depths = DepthMax::default();
    let registry = d.registry.clone();

    // Untraced and traced stretches alternate, so that drift in the
    // host's speed falls on both sides of the comparison.
    const ROUNDS: u32 = 2;
    let phase = Duration::from_secs_f64(args.seconds * 0.2 / ROUNDS as f64);
    let host_before = HostSample::now();
    let (mut off, mut on) = (ClosedResult::default(), ClosedResult::default());
    let (mut frames, mut allocs, mut alloc_bytes) = (0.0, 0, 0);
    for round in 0..ROUNDS {
        args.placement.start_round(round as usize);
        off.extend(closed_loop(
            &d.target,
            &mut next,
            s.window,
            s.block,
            phase,
            &mut || depths.sample(&registry.snapshot()),
        ));

        let before = settled_snapshot(&registry);
        spans.enable(s.trace_modulus);
        registry.tracer().enable(s.trace_modulus);
        let (traced, a, b) = alloc::counted(|| {
            closed_loop(&d.target, &mut next, s.window, s.block, phase, &mut || {
                depths.sample(&registry.snapshot())
            })
        });
        registry.tracer().disable();
        spans.disable();
        on.extend(traced);
        frames += wire_delta(&before, &settled_snapshot(&registry)).0;
        allocs += a;
        alloc_bytes += b;
    }
    let host_after = HostSample::now();
    record(out, off.tally);
    record(out, on.tally);
    let traced_requests = on.tally.attempted as f64;

    let open = open_loop(
        &d.target,
        &mut next,
        s.open_rate,
        Duration::from_secs_f64(args.seconds * 0.15),
        s.open_slice,
        8 * s.window,
    );
    record(out, open.tally);

    let end = settled_snapshot(&registry);
    let program_spans = registry.tracer().spans();
    let dropped = registry.tracer().dropped() + spans.dropped();
    let build_s = d.build_s;
    let (finish_s, violations) = teardown(d);
    record_violations(out, &violations);

    let requests = counter(&end, names::SHIM_MASTER_REQUESTS_COMPLETED).max(1.0);
    let slice_cv = cv(&off.block_rates);
    let (rate_off, rate_on) = (best_rate(&off.block_rates), best_rate(&on.block_rates));
    let m = &mut out.metrics;
    m.set("net.frames_per_request", frames / traced_requests);
    m.set(
        "net.tcp.frames_per_batch",
        counter(&end, names::NET_TCP_FRAMES_COALESCED)
            / counter(&end, names::NET_TCP_BATCHES_WRITTEN).max(1.0),
    );
    m.set(
        "net.tcp.reactor_wakeups_per_request",
        counter(&end, names::NET_TCP_REACTOR_WAKEUPS) / requests,
    );
    snapshot::set_rows(m, &end, requests, &depths);
    m.set("scenarios.build_s", build_s);
    m.set("scenarios.finish_s", finish_s);
    m.set("scenarios.violations", violations.len() as f64);

    // The generator's own calls, from the spans it recorded around them.
    let bench_spans = spans.spans();
    let call_p50 = |name: &str| {
        let mut v: Vec<f64> = bench_spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.dur_ns as f64 / 1e3)
            .collect();
        median(&mut v)
    };
    m.set("core.master.register_us", call_p50(loadgen::span::REGISTER));
    m.set("core.worker.send_us", call_p50(loadgen::span::SEND_PARTIAL));
    m.set("core.master.wait_us", call_p50(loadgen::span::WAIT));

    m.set("obs.trace.overhead_share", 1.0 - rate_on / rate_off);
    let report = tracing::stage_report(&program_spans);
    m.set(
        "obs.trace.spans_per_request",
        program_spans.len() as f64 / report.requests.max(1) as f64,
    );
    m.set("obs.trace.dropped", dropped as f64);
    for ((row, _), us) in tracing::STAGES.iter().zip(&report.stage_us) {
        m.set(row, *us);
    }
    m.set(
        "trace.coverage_share",
        report.stage_us.iter().sum::<f64>() / report.e2e_p50_us,
    );

    let (mut open_lat, mut late) = (open.latency, open.lateness);
    m.set("loadgen.closed.p50_us", off.latency.us(0.5));
    m.set("loadgen.closed.p99_us", off.latency.us(0.99));
    m.set("loadgen.slice_cv", slice_cv);
    m.set("loadgen.open.p99_us", open_lat.us(0.99));
    m.set("loadgen.open.late_p99_us", late.us(0.99));
    m.set("loadgen.open.late_max_us", late.max_us());
    m.set("loadgen.open.backlog_end", open.backlog_end as f64);
    m.set(
        "host.steal_share",
        host_after.steal_share_since(&host_before),
    );
    m.set(
        "host.invol_ctx_per_s",
        host_after.invol_ctx_per_s_since(&host_before),
    );
    m.set("alloc.per_request", allocs as f64 / traced_requests);
    m.set(
        "alloc.bytes_per_request",
        alloc_bytes as f64 / traced_requests,
    );

    out.note(format!(
        "traced phase: 1 request in {} sampled, {} traced requests, e2e p50 {:.1} us; \
         {rate_off:.0} req/s untraced vs {rate_on:.0} traced",
        s.trace_modulus, report.requests, report.e2e_p50_us
    ));
    let path = format!("benchmark/out/trace-{}.json", args.workload);
    let mut all = bench_spans;
    all.extend(program_spans);
    match std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, trace::chrome_trace_json(&all)))
    {
        Ok(()) => out.note(format!("wrote {path} ({} spans)", all.len())),
        Err(e) => out.note(format!("could not write {path}: {e}")),
    }
}
