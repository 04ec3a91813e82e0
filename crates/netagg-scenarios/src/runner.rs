//! The scenario runner: builds a deployment from a [`ScenarioSpec`] and a
//! [`TransportProvider`], drives the workload mix, applies the impairment
//! schedule, and checks the DESIGN.md §7/§9 contract on the way out.
//!
//! The runner is the *only* place in the workspace that assembles a
//! `NetAggDeployment` from scratch for tests, examples and benchmarks —
//! call sites describe *what* to run (a spec) and the runner owns *how*
//! (fault wrapping, registration order, detector arming, teardown
//! checks).

use crate::contract;
use crate::provider::TransportProvider;
use crate::spec::{Impairment, ScenarioSpec, SyntheticKind, Workload};
use bytes::Bytes;
use minimr::cluster::{JobConfig, MRCluster};
use minimr::jobs::Benchmark;
use minisearch::frontend::FrontendConfig;
use minisearch::netagg::{SearchCluster, SearchFunction};
use netagg_core::prelude::*;
use netagg_core::shim::TreeSelection;
use netagg_core::tree::worker_addr;
use netagg_net::lifecycle::{CancelToken, JoinScope, OrderedMutex};
use netagg_net::lock_order;
use netagg_net::{FaultController, FaultStep, FaultTransport, NodeId, Transport};
use netagg_obs::{names, MetricsRegistry, MetricsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Synthetic aggregation functions (closed-form expected results)
// ---------------------------------------------------------------------------

/// Deterministic 64-bit mix (splitmix-style) shared by payload generation
/// and result verification, so every synthetic request has a closed-form
/// expected answer computable without running the platform.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x
}

/// The value worker `w` contributes to request `rid` under `seed`.
fn worker_value(seed: u64, rid: u64, w: u32) -> u64 {
    mix(seed, rid, w as u64) % 1000
}

/// The unique top-k score worker `w` contributes to request `rid`: the
/// low bits encode the worker id so no two workers ever tie.
fn worker_score(seed: u64, rid: u64, w: u32, workers: u32) -> u64 {
    (mix(seed, rid, w as u64) % 100_000) * workers as u64 + w as u64
}

/// Decimal-integer aggregation (sum or max) over worker contributions.
struct IntAgg {
    max: bool,
}

impl AggregationFunction for IntAgg {
    type Item = u64;

    fn deserialize(&self, payload: &Bytes) -> Result<Self::Item, AggError> {
        std::str::from_utf8(payload)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| AggError::Corrupt("not a decimal integer".into()))
    }

    fn serialize(&self, item: &Self::Item) -> Bytes {
        Bytes::from(item.to_string())
    }

    fn aggregate(&self, items: Vec<Self::Item>) -> Self::Item {
        if self.max {
            items.into_iter().max().unwrap_or(0)
        } else {
            items.into_iter().sum()
        }
    }

    fn empty(&self) -> Self::Item {
        0
    }
}

/// `score|label` top-k aggregation; candidate lists stay sorted by score
/// descending and truncated to `k`.
struct TopKAgg {
    k: usize,
}

impl AggregationFunction for TopKAgg {
    type Item = Vec<(u64, String)>;

    fn deserialize(&self, payload: &Bytes) -> Result<Self::Item, AggError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| AggError::Corrupt("top-k payload is not utf-8".into()))?;
        let mut items = Vec::new();
        for line in text.lines() {
            let (score, label) = line
                .split_once('|')
                .ok_or_else(|| AggError::Corrupt("top-k line missing '|'".into()))?;
            let score = score
                .parse()
                .map_err(|_| AggError::Corrupt("top-k score not an integer".into()))?;
            items.push((score, label.to_string()));
        }
        Ok(items)
    }

    fn serialize(&self, item: &Self::Item) -> Bytes {
        let mut out = String::new();
        for (score, label) in item {
            out.push_str(&format!("{score}|{label}\n"));
        }
        Bytes::from(out)
    }

    fn aggregate(&self, items: Vec<Self::Item>) -> Self::Item {
        let mut all: Vec<(u64, String)> = items.into_iter().flatten().collect();
        all.sort_by_key(|e| std::cmp::Reverse(e.0));
        all.truncate(self.k);
        all
    }

    fn empty(&self) -> Self::Item {
        Vec::new()
    }
}

/// The aggregation function of a synthetic workload.
pub(crate) fn aggregator(kind: SyntheticKind) -> Arc<dyn DynAggregator> {
    match kind {
        SyntheticKind::Sum => Arc::new(AggWrapper::new(IntAgg { max: false })),
        SyntheticKind::Max => Arc::new(AggWrapper::new(IntAgg { max: true })),
        SyntheticKind::TopK { k } => Arc::new(AggWrapper::new(TopKAgg { k })),
    }
}

/// The payload seed and first request id of the spec's app `idx`.
pub(crate) fn app_stream(spec: &ScenarioSpec, idx: usize) -> (u64, u64) {
    let seed = spec.seed.wrapping_add(idx as u64);
    (seed, spec.request_base + (idx as u64 + 1) * (1 << 32))
}

/// The exact expected wire result for synthetic request `rid`.
pub(crate) fn expected_result(kind: SyntheticKind, seed: u64, rid: u64, workers: u32) -> Bytes {
    match kind {
        SyntheticKind::Sum => {
            let total: u64 = (0..workers).map(|w| worker_value(seed, rid, w)).sum();
            IntAgg { max: false }.serialize(&total)
        }
        SyntheticKind::Max => {
            let best = (0..workers)
                .map(|w| worker_value(seed, rid, w))
                .max()
                .unwrap_or(0);
            IntAgg { max: true }.serialize(&best)
        }
        SyntheticKind::TopK { k } => {
            let agg = TopKAgg { k };
            let all: Vec<Vec<(u64, String)>> = (0..workers)
                .map(|w| vec![(worker_score(seed, rid, w, workers), format!("w{w}"))])
                .collect();
            let merged = agg.aggregate(all);
            agg.serialize(&merged)
        }
    }
}

/// The payload worker `w` sends for synthetic request `rid`.
pub(crate) fn worker_payload(
    kind: SyntheticKind,
    seed: u64,
    rid: u64,
    w: u32,
    workers: u32,
) -> Bytes {
    match kind {
        SyntheticKind::Sum => IntAgg { max: false }.serialize(&worker_value(seed, rid, w)),
        SyntheticKind::Max => IntAgg { max: true }.serialize(&worker_value(seed, rid, w)),
        SyntheticKind::TopK { k } => TopKAgg { k }.serialize(&vec![(
            worker_score(seed, rid, w, workers),
            format!("w{w}"),
        )]),
    }
}

// ---------------------------------------------------------------------------
// Impairment engine
// ---------------------------------------------------------------------------

/// A request-indexed fault action compiled from one [`Impairment`].
struct Armed {
    at: u64,
    label: String,
    action: Action,
}

enum Action {
    Kill(Vec<NodeId>),
    Revive(Vec<NodeId>),
    Delay(Vec<NodeId>, Duration),
    ClearDelay(Vec<NodeId>),
}

/// Shared by every driver thread: counts issued requests, fires due
/// request-indexed impairments, and periodically folds `mailbox.depth.*`
/// gauges into a running max for the §9 bound check.
struct Engine {
    ctl: FaultController,
    obs: MetricsRegistry,
    issued: AtomicU64,
    /// `at` of the earliest still-pending action (`u64::MAX` when none);
    /// keeps the per-tick fast path to one atomic load.
    next_due: AtomicU64,
    state: OrderedMutex<EngineState>,
    sample_every: u64,
}

/// Everything the engine mutates, behind the one `scn.engine` lock.
#[derive(Default)]
struct EngineState {
    /// Armed impairments not yet due, sorted by `at`.
    pending: Vec<Armed>,
    /// Labels of impairments already applied.
    applied: Vec<String>,
    /// High-water mailbox depths sampled from registry snapshots.
    max_depths: HashMap<String, f64>,
    /// Per-app counters, one slot per spec app; empty until `drive`.
    /// Each driver counts into a local `AppStats` (it is the only writer)
    /// and stores it here once, when it is done.
    per_app: Vec<AppStats>,
}

impl Engine {
    fn new(ctl: FaultController, obs: MetricsRegistry, mut pending: Vec<Armed>) -> Self {
        pending.sort_by_key(|a| a.at);
        let next = pending.first().map_or(u64::MAX, |a| a.at);
        Self {
            ctl,
            obs,
            issued: AtomicU64::new(0),
            next_due: AtomicU64::new(next),
            state: OrderedMutex::new(
                lock_order::SCN_ENGINE,
                EngineState {
                    pending,
                    ..EngineState::default()
                },
            ),
            sample_every: 8192,
        }
    }

    /// Record one issued request; apply any impairment now due.
    fn tick(&self) {
        let n = self.issued.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.sample_every) {
            self.sample();
        }
        if n >= self.next_due.load(Ordering::Relaxed) {
            self.apply_due(n);
        }
    }

    fn apply_due(&self, n: u64) {
        let mut state = self.state.lock();
        while state.pending.first().map(|a| a.at <= n).unwrap_or(false) {
            let armed = state.pending.remove(0);
            match &armed.action {
                Action::Kill(nodes) => nodes.iter().for_each(|&x| self.ctl.kill(x)),
                Action::Revive(nodes) => nodes.iter().for_each(|&x| self.ctl.revive(x)),
                Action::Delay(nodes, d) => nodes.iter().for_each(|&x| self.ctl.delay(x, *d)),
                Action::ClearDelay(nodes) => nodes.iter().for_each(|&x| self.ctl.clear_delay(x)),
            }
            state
                .applied
                .push(format!("{} (at request {n})", armed.label));
        }
        let next = state.pending.first().map_or(u64::MAX, |a| a.at);
        self.next_due.store(next, Ordering::Relaxed);
    }

    fn sample(&self) {
        let snap = self.obs.snapshot();
        contract::sample_depths(&snap, &mut self.state.lock().max_depths);
    }
}

// ---------------------------------------------------------------------------
// Launched applications
// ---------------------------------------------------------------------------

enum LaunchedApp {
    Synthetic {
        app: AppId,
        kind: SyntheticKind,
        requests: u64,
        master: Arc<MasterShim>,
        workers: Vec<Arc<WorkerShim>>,
    },
    Search {
        queries: u64,
        cluster: SearchCluster,
    },
    MapReduce {
        jobs: u64,
        cluster: MRCluster,
    },
}

/// Per-app counters a scenario run produces.
#[derive(Debug, Clone, Default)]
pub struct AppStats {
    /// Application name from the spec.
    pub name: String,
    /// Requests issued.
    pub issued: u64,
    /// Requests completed (result delivered before the deadline).
    pub completed: u64,
    /// Requests that errored or timed out.
    pub failures: u64,
    /// Completed requests whose result differed from the closed-form
    /// expectation (synthetic workloads only).
    pub mismatches: u64,
}

/// Everything a finished scenario run reports.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Provider label the run used.
    pub provider: String,
    /// Total requests issued across the mix.
    pub requests_issued: u64,
    /// Total requests completed.
    pub requests_completed: u64,
    /// Total failures (errors + timeouts).
    pub failures: u64,
    /// Total exactness mismatches.
    pub mismatches: u64,
    /// Wall-clock time of the drive phase.
    pub elapsed: Duration,
    /// Completed requests per second of drive time.
    pub requests_per_sec: f64,
    /// p50 of `shim.master.request_wait_us`.
    pub p50_wait_us: u64,
    /// p99 of `shim.master.request_wait_us`.
    pub p99_wait_us: u64,
    /// `failure.detections` counter at teardown.
    pub detections: u64,
    /// `failure.repoints` counter at teardown.
    pub repoints: u64,
    /// Human-readable log of applied impairments (request-indexed ones
    /// record the issue count they fired at).
    pub impairments_applied: Vec<String>,
    /// §7/§9 contract violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Per-app breakdown.
    pub per_app: Vec<AppStats>,
    /// Final post-teardown snapshot, for callers that gate on more.
    pub snapshot: MetricsSnapshot,
}

impl ScenarioReport {
    /// Whether the run completed every request exactly and upheld the
    /// metrics contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.failures == 0
            && self.mismatches == 0
            && self.requests_completed == self.requests_issued
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}/{}: {}/{} requests in {:.2?} ({:.0} req/s), p99 wait {} us, \
             {} detections, {} repoints, {} violations",
            self.scenario,
            self.provider,
            self.requests_completed,
            self.requests_issued,
            self.elapsed,
            self.requests_per_sec,
            self.p99_wait_us,
            self.detections,
            self.repoints,
            self.violations.len()
        )
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A deployment built from a [`ScenarioSpec`] against one provider, ready
/// to drive. Most callers use [`run_scenario`]; tests that need to poke
/// the fault controller or the deployment mid-run build a harness and
/// call [`ScenarioHarness::drive`] / [`ScenarioHarness::finish`]
/// themselves.
pub struct ScenarioHarness {
    spec: ScenarioSpec,
    provider: &'static str,
    fault: FaultController,
    /// `Some` until [`ScenarioHarness::finish`] tears it down (teardown
    /// must *drop* the deployment — the scheduler pool only joins on
    /// drop — before snapshotting the thread gauge).
    deployment: Option<NetAggDeployment>,
    apps: Vec<LaunchedApp>,
    engine: Arc<Engine>,
    elapsed: Duration,
}

impl ScenarioHarness {
    /// Build the deployment and launch every app of `spec` over a fresh
    /// transport from `provider`, with a private metrics registry.
    pub fn build(spec: &ScenarioSpec, provider: &dyn TransportProvider) -> Result<Self, AggError> {
        Self::build_with_obs(spec, provider, MetricsRegistry::new())
    }

    /// [`ScenarioHarness::build`] with a caller-owned registry (so a
    /// surrounding benchmark can share one snapshot across legs).
    pub fn build_with_obs(
        spec: &ScenarioSpec,
        provider: &dyn TransportProvider,
        obs: MetricsRegistry,
    ) -> Result<Self, AggError> {
        assert!(
            !spec.kills_boxes() || spec.detector.is_some(),
            "scenario `{}` kills boxes but arms no failure detector",
            spec.name
        );
        let fault = FaultController::new();
        // Fault wrapping sits between the provider's base transport and
        // the deployment's metering decorator, so the whole impairment
        // vocabulary works identically on every provider.
        let base = provider.build();
        let transport: Arc<dyn Transport> = Arc::new(FaultTransport::new(base, fault.clone()));
        let cluster = spec.topology.cluster();
        let mut deployment =
            NetAggDeployment::launch_with_obs(transport, &cluster, spec.tuning.clone(), obs)?;

        let total_workers = spec.topology.total_workers();
        let mut apps = Vec::new();
        for app_spec in &spec.apps {
            match &app_spec.workload {
                Workload::Synthetic { kind, requests } => {
                    let agg = aggregator(*kind);
                    let app = deployment.register_app(&app_spec.name, agg, app_spec.share);
                    let master = deployment.master_shim(app);
                    let workers = (0..total_workers)
                        .map(|w| deployment.worker_shim(app, w))
                        .collect();
                    apps.push(LaunchedApp::Synthetic {
                        app,
                        kind: *kind,
                        requests: *requests,
                        master,
                        workers,
                    });
                }
                Workload::Search {
                    queries,
                    corpus,
                    k,
                    backend_k,
                } => {
                    let app_transport = deployment.transport().clone();
                    let cluster = SearchCluster::launch(
                        &mut deployment,
                        app_transport,
                        corpus,
                        SearchFunction::TopK { k: *k },
                        FrontendConfig {
                            backend_k: *backend_k as u32,
                            timeout: spec.wait_timeout,
                        },
                        app_spec.share,
                    )?;
                    apps.push(LaunchedApp::Search {
                        queries: *queries,
                        cluster,
                    });
                }
                Workload::MapReduce { jobs } => {
                    let cluster = MRCluster::launch(
                        &mut deployment,
                        Benchmark::WC.job(),
                        TreeSelection::PerRequest,
                        app_spec.share,
                    );
                    apps.push(LaunchedApp::MapReduce {
                        jobs: *jobs,
                        cluster,
                    });
                }
            }
        }
        if let Some(det) = &spec.detector {
            deployment.enable_failure_detection(det.clone());
        }

        // Compile the request-indexed impairments; seeded frame-indexed
        // kills are armed by `drive` (they are relative to the frame
        // counters at drive start, not build).
        let mut armed = Vec::new();
        let app_ids: Vec<AppId> = apps
            .iter()
            .map(|a| match a {
                LaunchedApp::Synthetic { app, .. } => *app,
                LaunchedApp::Search { cluster, .. } => cluster.app,
                LaunchedApp::MapReduce { cluster, .. } => cluster.app,
            })
            .collect();
        for imp in &spec.impairments {
            match imp {
                Impairment::SeededBoxKill { .. } => {}
                Impairment::BoxKill {
                    slot,
                    after_requests,
                } => armed.push(Armed {
                    at: *after_requests,
                    label: format!("kill box {slot}"),
                    action: Action::Kill(vec![deployment.boxes()[*slot].addr()]),
                }),
                Impairment::Partition {
                    slots,
                    at_requests,
                    heal_after_requests,
                } => {
                    let addrs: Vec<NodeId> = slots
                        .iter()
                        .map(|&s| deployment.boxes()[s].addr())
                        .collect();
                    armed.push(Armed {
                        at: *at_requests,
                        label: format!("partition boxes {slots:?}"),
                        action: Action::Kill(addrs.clone()),
                    });
                    armed.push(Armed {
                        at: at_requests + heal_after_requests,
                        label: format!("heal partition of boxes {slots:?}"),
                        action: Action::Revive(addrs),
                    });
                }
                Impairment::StragglerStorm {
                    workers,
                    delay_ms,
                    from_requests,
                    until_requests,
                } => {
                    // A worker address is per-app: slow the selected
                    // workers in every launched application.
                    let addrs: Vec<NodeId> = app_ids
                        .iter()
                        .flat_map(|&app| workers.iter().map(move |&w| worker_addr(app, w)))
                        .collect();
                    armed.push(Armed {
                        at: *from_requests,
                        label: format!("straggler storm on workers {workers:?} (+{delay_ms} ms)"),
                        action: Action::Delay(addrs.clone(), Duration::from_millis(*delay_ms)),
                    });
                    armed.push(Armed {
                        at: *until_requests,
                        label: format!("straggler storm on workers {workers:?} clears"),
                        action: Action::ClearDelay(addrs),
                    });
                }
            }
        }
        let engine = Arc::new(Engine::new(fault.clone(), deployment.obs().clone(), armed));
        Ok(Self {
            spec: spec.clone(),
            provider: provider.label(),
            fault,
            deployment: Some(deployment),
            apps,
            engine,
            elapsed: Duration::ZERO,
        })
    }

    /// The fault controller the impairment schedule drives (tests can
    /// inject extra faults mid-run).
    pub fn fault(&self) -> &FaultController {
        &self.fault
    }

    /// The running deployment.
    pub fn deployment(&self) -> &NetAggDeployment {
        self.deployment.as_ref().expect("harness already finished")
    }

    /// Mutable access to the running deployment.
    pub fn deployment_mut(&mut self) -> &mut NetAggDeployment {
        self.deployment.as_mut().expect("harness already finished")
    }

    /// The launched search cluster of app `idx` (spec order), if that app
    /// is a search workload. Lets tests drive custom queries directly.
    pub fn search(&self, idx: usize) -> Option<&SearchCluster> {
        match self.apps.get(idx)? {
            LaunchedApp::Search { cluster, .. } => Some(cluster),
            _ => None,
        }
    }

    /// The launched map-reduce cluster of app `idx` (spec order), if that
    /// app is a map-reduce workload. Lets tests run custom jobs directly.
    pub fn mapreduce(&self, idx: usize) -> Option<&MRCluster> {
        match self.apps.get(idx)? {
            LaunchedApp::MapReduce { cluster, .. } => Some(cluster),
            _ => None,
        }
    }

    /// The master shim and worker shims of synthetic app `idx` (spec
    /// order). Lets tests drive bespoke request patterns directly.
    pub fn synthetic_shims(&self, idx: usize) -> Option<(&Arc<MasterShim>, &[Arc<WorkerShim>])> {
        match self.apps.get(idx)? {
            LaunchedApp::Synthetic {
                master, workers, ..
            } => Some((master, workers)),
            _ => None,
        }
    }

    /// Drive the whole workload mix: synthetic apps on their own
    /// `scenario-drive-<a>` threads (§9 inventory), search and map-reduce
    /// interleaved on the calling thread. Idempotent per harness — the
    /// second call is a no-op.
    pub fn drive(&mut self) {
        if !self.engine.state.lock().per_app.is_empty() {
            return;
        }
        // Seeded frame-indexed kills arm against the frame counters as
        // they stand right now, so warm-up traffic (detector probes,
        // corpus shuffles) does not consume the draw.
        for (slot, draw, armed) in self.spec.seeded_kills() {
            let addr = self.deployment().boxes()[slot].addr();
            self.fault.schedule(FaultStep {
                watch: addr,
                after_frames: self.fault.frames_delivered(addr) + draw,
                kill_target: addr,
            });
            self.engine.state.lock().applied.push(armed);
        }

        let total_workers = self.spec.topology.total_workers();
        // Zeroed, named counters: every driver counts into its own copy.
        let fresh: Vec<AppStats> = self
            .spec
            .apps
            .iter()
            .map(|a| AppStats {
                name: a.name.clone(),
                ..AppStats::default()
            })
            .collect();
        self.engine.state.lock().per_app = fresh.clone();

        let started = Instant::now();
        {
            // Driver threads are owned by a scope wired to the deployment
            // registry, so `runtime.threads_active` covers them and the
            // teardown check proves they exited.
            let cancel = CancelToken::new();
            let scope = JoinScope::with_obs(
                "scenario-drive",
                cancel,
                Duration::from_secs(3600),
                Some(self.deployment().obs()),
            );
            for (idx, app) in self.apps.iter().enumerate() {
                if let LaunchedApp::Synthetic {
                    kind,
                    requests,
                    master,
                    workers,
                    ..
                } = app
                {
                    let (kind, requests) = (*kind, *requests);
                    let master = master.clone();
                    let workers = workers.clone();
                    let engine = self.engine.clone();
                    let stat = fresh[idx].clone();
                    let (seed, base) = app_stream(&self.spec, idx);
                    let inflight = self.spec.inflight;
                    let timeout = self.spec.wait_timeout;
                    scope
                        .spawn(format!("scenario-drive-{idx}"), move || {
                            let stat = drive_synthetic(
                                kind,
                                requests,
                                &master,
                                &workers,
                                total_workers,
                                seed,
                                base,
                                inflight,
                                timeout,
                                &engine,
                                stat,
                            );
                            engine.state.lock().per_app[idx] = stat;
                        })
                        .expect("spawn scenario driver");
                }
            }
            // Search and map-reduce are interactive workloads; drive them
            // interleaved on this thread while the synthetic drivers run.
            self.drive_interactive(fresh);
            scope.finish();
        }
        self.elapsed = started.elapsed();
    }

    /// Drive the search and map-reduce apps, counting into `stats` (one
    /// slot per app; the synthetic apps' slots are not used).
    fn drive_interactive(&self, mut stats: Vec<AppStats>) {
        let mut cursors: Vec<u64> = vec![0; self.apps.len()];
        loop {
            let mut progressed = false;
            for (idx, app) in self.apps.iter().enumerate() {
                match app {
                    LaunchedApp::Synthetic { .. } => {}
                    LaunchedApp::Search { queries, cluster } => {
                        if cursors[idx] >= *queries {
                            continue;
                        }
                        let q = cursors[idx];
                        cursors[idx] += 1;
                        progressed = true;
                        let term = minisearch::corpus::word(
                            (mix(self.spec.seed, q, 0x5EA7C4) % cluster.corpus_vocabulary as u64)
                                as usize,
                        );
                        stats[idx].issued += 1;
                        self.engine.tick();
                        match cluster.frontend.query(&[term]) {
                            Ok(_) => stats[idx].completed += 1,
                            Err(_) => stats[idx].failures += 1,
                        }
                    }
                    LaunchedApp::MapReduce { jobs, cluster } => {
                        if cursors[idx] >= *jobs {
                            continue;
                        }
                        let j = cursors[idx];
                        cursors[idx] += 1;
                        progressed = true;
                        let mappers = cluster.num_mappers();
                        let inputs: Vec<Vec<Bytes>> = (0..mappers)
                            .map(|m| vec![Bytes::from(format!("common w{m} w{m}"))])
                            .collect();
                        let cfg = JobConfig {
                            request_id: self.spec.request_base + j,
                            ..JobConfig::default()
                        };
                        stats[idx].issued += 1;
                        self.engine.tick();
                        match cluster.run(inputs, &cfg) {
                            Ok(result) => {
                                let common = result
                                    .output
                                    .iter()
                                    .find(|p| p.key.as_ref() == b"common")
                                    .and_then(|p| minimr::types::parse_u64(&p.value));
                                stats[idx].completed += 1;
                                if common != Some(mappers as u64) {
                                    stats[idx].mismatches += 1;
                                }
                            }
                            Err(_) => stats[idx].failures += 1,
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let mut state = self.engine.state.lock();
        for (idx, stat) in stats.into_iter().enumerate() {
            if !matches!(self.apps[idx], LaunchedApp::Synthetic { .. }) {
                state.per_app[idx] = stat;
            }
        }
    }

    /// Tear the deployment down, check the §7/§9 contract, and report.
    pub fn finish(mut self) -> ScenarioReport {
        self.drive();
        // Final depth sample before teardown so short runs (fewer issues
        // than one sample interval) still check their mailboxes.
        self.engine.sample();
        // Worker shims are caller-owned (the deployment hands out fresh
        // instances); shut every app-held shim down before the platform
        // so the teardown snapshot sees zero live threads.
        for mut app in std::mem::take(&mut self.apps) {
            match &mut app {
                LaunchedApp::Synthetic { workers, .. } => {
                    workers.iter().for_each(|w| w.shutdown());
                }
                LaunchedApp::Search { cluster, .. } => cluster.shutdown(),
                LaunchedApp::MapReduce { .. } => {}
            }
            // Dropping the app drops its shim Arcs (worker shims shut
            // down on final drop — this covers map-reduce's shims).
            drop(app);
        }
        // The scheduler pool only joins on drop, so teardown must drop
        // the deployment — the registry is shared and keeps reporting.
        let deployment = self.deployment.take().expect("harness already finished");
        let obs = deployment.obs().clone();
        drop(deployment);
        let snapshot = obs.snapshot();

        let mut violations = contract::teardown_violations(&snapshot);
        violations.extend(contract::name_violations(&snapshot));
        let state = self.engine.state.lock();
        violations.extend(contract::depth_violations(&state.max_depths));
        let wait = snapshot.histogram(names::SHIM_MASTER_REQUEST_WAIT_US);
        let issued: u64 = state.per_app.iter().map(|s| s.issued).sum();
        let completed: u64 = state.per_app.iter().map(|s| s.completed).sum();
        let elapsed = self.elapsed;
        ScenarioReport {
            scenario: self.spec.name.clone(),
            provider: self.provider.to_string(),
            requests_issued: issued,
            requests_completed: completed,
            failures: state.per_app.iter().map(|s| s.failures).sum(),
            mismatches: state.per_app.iter().map(|s| s.mismatches).sum(),
            elapsed,
            requests_per_sec: if elapsed.as_secs_f64() > 0.0 {
                completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            p50_wait_us: wait.map(|h| h.p50).unwrap_or(0),
            p99_wait_us: wait.map(|h| h.p99).unwrap_or(0),
            detections: snapshot.counter(names::FAILURE_DETECTIONS).unwrap_or(0),
            repoints: snapshot.counter(names::FAILURE_REPOINTS).unwrap_or(0),
            impairments_applied: state.applied.clone(),
            violations,
            per_app: state.per_app.clone(),
            snapshot,
        }
    }
}

/// Closed-loop (windowed) driver for one synthetic app: register, fan
/// the partials out, wait, verify exactness against the closed form.
/// Counts into `stat` and hands it back.
#[allow(clippy::too_many_arguments)]
fn drive_synthetic(
    kind: SyntheticKind,
    requests: u64,
    master: &MasterShim,
    workers: &[Arc<WorkerShim>],
    total_workers: u32,
    seed: u64,
    base: u64,
    inflight: usize,
    timeout: Duration,
    engine: &Engine,
    mut stat: AppStats,
) -> AppStats {
    let mut window: VecDeque<(u64, netagg_core::shim::PendingRequest)> = VecDeque::new();
    let settle = |window: &mut VecDeque<(u64, netagg_core::shim::PendingRequest)>,
                  stat: &mut AppStats| {
        let Some((rid, pending)) = window.pop_front() else {
            return;
        };
        match pending.wait(timeout) {
            Ok(result) => {
                stat.completed += 1;
                if result.combined != expected_result(kind, seed, rid, total_workers) {
                    stat.mismatches += 1;
                }
            }
            Err(_) => stat.failures += 1,
        }
        // Settled either way: the workers can drop the request's sequence
        // and replay state, or it grows with the request count.
        workers.iter().for_each(|w| w.complete_request(rid));
    };
    for i in 0..requests {
        let rid = base + i;
        let pending = master.register_request(rid, workers.len());
        stat.issued += 1;
        engine.tick();
        for (w, shim) in workers.iter().enumerate() {
            // A send into a just-killed box is the shim's business (it
            // retains the chunk, counts the error and replays after the
            // re-point); `Err` would mean a worker without an assignment.
            shim.send_partial(
                rid,
                worker_payload(kind, seed, rid, w as u32, total_workers),
            )
            .expect("every scenario worker has a tree assignment");
        }
        window.push_back((rid, pending));
        while window.len() >= inflight {
            settle(&mut window, &mut stat);
        }
    }
    while !window.is_empty() {
        settle(&mut window, &mut stat);
    }
    stat
}

/// Build, drive and tear down one scenario against one provider.
pub fn run_scenario(
    spec: &ScenarioSpec,
    provider: &dyn TransportProvider,
) -> Result<ScenarioReport, AggError> {
    let mut harness = ScenarioHarness::build(spec, provider)?;
    harness.drive();
    Ok(harness.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::ChannelProvider;
    use crate::spec::TopologySpec;

    #[test]
    fn synthetic_expectations_are_closed_form() {
        // Sum over 4 workers equals the sum of the per-worker payloads.
        let total: u64 = (0..4)
            .map(|w| {
                let p = worker_payload(SyntheticKind::Sum, 7, 42, w, 4);
                IntAgg { max: false }.deserialize(&p).unwrap()
            })
            .sum();
        let expect = IntAgg { max: false }
            .deserialize(&expected_result(SyntheticKind::Sum, 7, 42, 4))
            .unwrap();
        assert_eq!(total, expect);

        // Top-k scores are unique, so the winner is unambiguous.
        let agg = TopKAgg { k: 2 };
        let merged = agg
            .deserialize(&expected_result(SyntheticKind::TopK { k: 2 }, 7, 42, 4))
            .unwrap();
        assert_eq!(merged.len(), 2);
        assert!(merged[0].0 > merged[1].0);
    }

    #[test]
    fn small_scenario_runs_exactly_on_channel() {
        let spec = ScenarioSpec::new("runner-smoke", TopologySpec::single_rack(3, 1))
            .synthetic("sum", SyntheticKind::Sum, 40, 1.0)
            .synthetic("topk", SyntheticKind::TopK { k: 3 }, 40, 1.0)
            .with_inflight(4);
        let mut harness = ScenarioHarness::build(&spec, &ChannelProvider).unwrap();
        harness.drive();
        for app in 0..2 {
            let (_, workers) = harness.synthetic_shims(app).unwrap();
            let tracked: usize = workers.iter().map(|w| w.tracked_requests()).sum();
            assert_eq!(tracked, 0, "app {app}: settled requests must be forgotten");
        }
        let report = harness.finish();
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.requests_completed, 80);
    }
}
