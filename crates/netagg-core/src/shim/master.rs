//! Master-side shim layer.
//!
//! Tracks per-request state (the paper's "partial result collection"),
//! receives root aggregates (or raw partials from direct workers when no
//! boxes are deployed), performs the final cross-tree merge and emulates
//! empty per-worker results. It is also the parent of the root boxes, so
//! its one timer thread runs the same straggler bypass and failure
//! detection the boxes do, off the same core deadlines. A thread whose
//! transition queued something to send then drains the core's outbox
//! ([`Drain`]).

use crate::conn_cache::ConnCache;
use crate::failure::DetectorConfig;
use crate::fanin::{Fired, TraceAnchor};
use crate::lifecycle::{
    serve_ready, CancelToken, Deadline, Drain, JoinScope, OrderedMutex, OrderedMutexGuard, Outlet,
    Parked, Parking, Readiness, TimerSlot, WakerGuard, DEFAULT_JOIN_DEADLINE,
};
use crate::node::{Emit, Node};
use crate::protocol::{AppId, Message, RequestId, TreeId};
use crate::shim::master_core::{MasterCore, Taken};
use crate::shim::TreeSelection;
use crate::spans::Spans;
use crate::straggler::StragglerPolicy;
use crate::tree::{master_addr, TreeSpec};
use crate::{AggError, DynAggregator};
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{NetError, NodeId, Transport};
use netagg_obs::trace;
use netagg_obs::{names, Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fully aggregated answer to one request.
#[derive(Debug, Clone)]
pub struct AggregatedResult {
    /// The combined result (all partial results merged).
    pub combined: Bytes,
    /// How many empty per-worker results the shim emulated (the paper's
    /// "empty partial results": the master logic sees one real result and
    /// `expected_workers - 1` empties).
    pub emulated_empty: usize,
    /// Serialised identity element used for the emulated empties.
    pub empty_payload: Bytes,
    /// Number of source messages merged at the master (roots + directs).
    pub master_inputs: usize,
    /// Total payload bytes the master received for this request.
    pub master_input_bytes: usize,
}

impl AggregatedResult {
    /// The per-worker result vector the unmodified master logic iterates
    /// over: one combined result plus emulated empties.
    pub fn emulated_worker_results(&self) -> Vec<Bytes> {
        let mut v = Vec::with_capacity(self.emulated_empty + 1);
        v.push(self.combined.clone());
        for _ in 0..self.emulated_empty {
            v.push(self.empty_payload.clone());
        }
        v
    }
}

/// Master shim configuration.
#[derive(Debug, Clone)]
pub struct MasterShimConfig {
    /// How requests map onto aggregation trees.
    pub selection: TreeSelection,
    /// Per-request straggler bypass threshold for root boxes.
    pub straggler_threshold: Option<Duration>,
    /// Drop per-request state not claimed by a waiter within this age
    /// (abandoned requests would otherwise accumulate forever).
    pub pending_ttl: Duration,
    /// Metrics registry the shim publishes to (`shim.master.*`,
    /// `straggler.master_bypasses`); a private one unless the deployment
    /// hands in its own.
    pub obs: MetricsRegistry,
}

impl Default for MasterShimConfig {
    fn default() -> Self {
        Self {
            selection: TreeSelection::PerRequest,
            straggler_threshold: None,
            pending_ttl: Duration::from_secs(600),
            obs: MetricsRegistry::new(),
        }
    }
}

/// Pre-resolved `shim.master.*` metric handles (rare paths — re-points,
/// bypasses — look theirs up in the registry).
struct MasterObs {
    requests_registered: Arc<Counter>,
    requests_completed: Arc<Counter>,
    messages_in: Arc<Counter>,
    bytes_in: Arc<Counter>,
    emulated_empties: Arc<Counter>,
    duplicates_dropped: Arc<Counter>,
    requests_inflight: Arc<Gauge>,
    sources_outstanding: Arc<Gauge>,
    request_wait_us: Arc<Histogram>,
    /// Master-side spans, under the component label `master-<a>`.
    spans: Spans,
    registry: MetricsRegistry,
}

impl MasterObs {
    fn new(registry: MetricsRegistry, app: AppId) -> Self {
        Self {
            requests_registered: registry.counter(names::SHIM_MASTER_REQUESTS_REGISTERED),
            requests_completed: registry.counter(names::SHIM_MASTER_REQUESTS_COMPLETED),
            messages_in: registry.counter(names::SHIM_MASTER_MESSAGES_IN),
            bytes_in: registry.counter(names::SHIM_MASTER_BYTES_IN),
            emulated_empties: registry.counter(names::SHIM_MASTER_EMULATED_EMPTIES),
            duplicates_dropped: registry.counter(names::SHIM_MASTER_DUPLICATES_DROPPED),
            requests_inflight: registry.gauge(names::SHIM_MASTER_REQUESTS_INFLIGHT),
            sources_outstanding: registry.gauge(names::SHIM_MASTER_SOURCES_OUTSTANDING),
            request_wait_us: registry.histogram(names::SHIM_MASTER_REQUEST_WAIT_US),
            spans: Spans::new(&registry, format!("master-{}", app.0)),
            registry,
        }
    }

    /// Refresh the per-request ledger gauges. Called with the core locked
    /// after any transition that changes owed/ended accounting.
    fn update_ledger_gauges(&self, core: &MasterCore) {
        let open = core.fanin.requests.values().filter(|q| !q.closed);
        let (inflight, outstanding) = open.fold((0, 0), |(n, owed), q| {
            (n + 1, owed + q.ledger.outstanding())
        });
        self.requests_inflight.set(inflight as f64);
        self.sources_outstanding.set(outstanding as f64);
    }

    /// Record a request's root span, start → now. Its span id is the
    /// trace id itself, so every hop recorded anywhere hangs below it.
    fn root_span(&self, request: RequestId, t: TraceAnchor) {
        let (name, now) = (names::spans::MASTER_REQUEST, trace::now_ns());
        self.spans
            .record(name, t.trace_id, t.trace_id, 0, request, t.start_ns, now);
    }
}

/// What `master.core` guards: the protocol state, who is parked on `cv`,
/// the timer thread's slot and the drain.
struct Guarded {
    core: MasterCore,
    waiters: Parked,
    timer: TimerSlot,
    drain: Drain,
}

struct Inner {
    app: AppId,
    addr: NodeId,
    agg: Arc<dyn DynAggregator>,
    /// The serialised identity every result's emulated empties share.
    empty: Bytes,
    cfg: MasterShimConfig,
    state: OrderedMutex<Guarded>,
    cv: Parking,
    /// Where the timer thread sleeps until the core's next deadline.
    timer: Parking,
    cancel: CancelToken,
    /// Control-plane connections (RequestMeta, Broadcast, probes, redirects).
    ctrl: ConnCache,
    obs: MasterObs,
}

/// A handle to one registered request.
pub struct PendingRequest {
    inner: Arc<Inner>,
    request: RequestId,
}

/// The master-side shim.
pub struct MasterShim {
    inner: Arc<Inner>,
    scope: Arc<JoinScope>,
    /// Wakes `PendingRequest::wait` sleepers and the timer on cancellation.
    _cv_waker: WakerGuard,
}

impl MasterShim {
    /// Bind the master address and start the shim's listener and timer
    /// threads.
    pub fn start(
        transport: Arc<dyn Transport>,
        app: AppId,
        agg: Arc<dyn DynAggregator>,
        specs: &[TreeSpec],
        cfg: MasterShimConfig,
    ) -> Result<Arc<Self>, NetError> {
        let addr = master_addr(app);
        let listener = transport.bind(addr)?;
        let cancel = CancelToken::new();
        let scope = Arc::new(JoinScope::with_obs(
            format!("master-shim-{}", app.0),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            Some(&cfg.obs),
        ));
        let obs = MasterObs::new(cfg.obs.clone(), app);
        let mut core = MasterCore::new(app, specs, cfg.selection);
        let spans = Spans::new(&cfg.obs, format!("master-{}", app.0));
        core.anchor = Box::new(move |request| spans.anchor(app, request, trace::now_ns));
        // Hierarchical thresholds: the master waits longer than the boxes
        // so box-level bypass (closer to the data) resolves stragglers
        // first. The root never escalates: declaring a root box dead for
        // good is the failure detector's call.
        core.fanin.straggler = cfg.straggler_threshold.map(|t| StragglerPolicy {
            threshold: t * 4,
            repeat_limit: u32::MAX,
        });
        let guarded = Guarded {
            core,
            waiters: Parked::default(),
            timer: TimerSlot::default(),
            drain: Drain::default(),
        };
        let inner = Arc::new(Inner {
            app,
            addr,
            empty: agg.empty_serialized(),
            agg,
            obs,
            cfg,
            state: OrderedMutex::new(lock_order::MASTER_CORE, guarded),
            cv: Parking::new(),
            timer: Parking::new(),
            cancel: cancel.clone(),
            ctrl: ConnCache::new(transport, addr),
        });
        // Wake condvar waiters and the timer thread on cancellation (under
        // the core lock, so one between its cancel check and its park cannot
        // miss it). Weak: a strong ref here would cycle through the token.
        let weak = Arc::downgrade(&inner);
        let cv_waker = cancel.register_waker(move || {
            if let Some(i) = weak.upgrade() {
                let mut s = i.state.lock();
                i.cv.wake_all(&mut s.waiters);
                i.timer.wake_all(&mut s.timer.parked);
            }
        });
        let shim = Arc::new(Self {
            inner: inner.clone(),
            scope,
            _cv_waker: cv_waker,
        });
        {
            let inner = inner.clone();
            serve_ready(
                &shim.scope,
                listener,
                Readiness::readiness(),
                format!("master-shim-{}", app.0),
                format!("master-shim-{}-reader", app.0),
                move |frame| {
                    on_frame(&inner, frame);
                    None
                },
            )?;
        }
        shim.scope
            .spawn(format!("master-shim-{}-timer", app.0), move || {
                timer_loop(&inner)
            })
            .map_err(|e| NetError::Io(e.to_string()))?;
        Ok(shim)
    }

    /// Register a request before (or while) workers send their partials.
    /// `expected_workers` is the number of workers participating; the shim
    /// uses it to emulate that many minus one empty results.
    pub fn register_request(&self, request: u64, expected_workers: usize) -> PendingRequest {
        self.register_with(RequestId(request), expected_workers, None)
    }

    fn register_with(
        &self,
        request: RequestId,
        expected_workers: usize,
        workers: Option<&[u32]>,
    ) -> PendingRequest {
        let inner = &self.inner;
        inner.obs.requests_registered.inc();
        let (now, ttl) = (Instant::now(), inner.cfg.pending_ttl);
        let mut s = inner.state.lock();
        let subset = workers.map(|w| s.core.subset(request, w));
        let done = s.core.register(request, expected_workers, subset, now, ttl);
        inner.settle(&mut s, done.then_some(request).as_slice());
        inner.rearm(&mut s);
        inner.drain(s);
        PendingRequest {
            inner: inner.clone(),
            request,
        }
    }

    /// Register a request that only a *subset* of the workers participates
    /// in (e.g. a search query routed to some shards). The shim sends
    /// per-request metadata to the on-path boxes so they know how many
    /// sources to expect (the paper's `RequestMeta` flow: the master shim
    /// records request information and forwards it to the agg boxes).
    pub fn register_request_subset(&self, request: u64, workers: &[u32]) -> PendingRequest {
        self.register_with(RequestId(request), workers.len(), Some(workers))
    }

    /// Distribute `payload` to every worker down the request's aggregation
    /// tree (the one-to-many extension the paper sketches in Section 5):
    /// the master sends one copy per direct child — root box or direct
    /// worker, a failed root box's children in its place — and boxes
    /// replicate to theirs over their high-bandwidth links. Every copy is
    /// attempted; `Err` says how many this call could not send. A drain
    /// already running on another thread sends the copies instead: the
    /// call then returns `Ok` without learning whether they left.
    pub fn broadcast(&self, request: u64, payload: Bytes) -> Result<(), AggError> {
        let (inner, request) = (&self.inner, RequestId(request));
        let mut s = inner.state.lock();
        s.core.broadcast(request, payload);
        let failed = inner.drain(s).into_iter();
        let copies =
            |m: &Message| matches!(m, Message::Broadcast { request: r, .. } if *r == request);
        match failed.filter(copies).count() {
            0 => Ok(()),
            n => Err(AggError::Net(format!("{n} broadcast copies not sent"))),
        }
    }

    /// Start heartbeating the root boxes of this application's trees; one
    /// missing `cfg.misses` acks in a row is failed as below.
    pub fn enable_failure_detection(&self, cfg: DetectorConfig) {
        let mut s = self.inner.state.lock();
        s.core.fanin.detector.enable(cfg, Instant::now());
        self.inner.rearm(&mut s);
    }

    /// Declare a root box failed (the detector's verdict, or an
    /// operator's): *move* the box's behind-sources into direct-to-master
    /// ledger entries, for the route (future requests) and every in-flight
    /// request, then tell the box's children to send here. Idempotent
    /// under repeated declarations, straggler redirects racing the
    /// detector, and replayed duplicates.
    pub fn on_child_box_failed(&self, tree: TreeId, failed_box: u32) {
        let inner = &self.inner;
        let mut s = inner.state.lock();
        let Some(mut r) = s.core.fanin.child_box_failed(tree, failed_box) else {
            return;
        };
        s.core.outbox.post(std::mem::take(&mut r.sends));
        inner.settle(&mut s, &r.closed);
        drop(s);
        let (scan, probes, dead) = (None, Vec::new(), Vec::new());
        let failed = vec![(tree, failed_box, r)];
        inner.audit(&Fired {
            scan,
            probes,
            dead,
            failed,
        });
        inner.drain(inner.state.lock());
    }

    /// The master shim's transport address.
    pub fn addr(&self) -> NodeId {
        self.inner.addr
    }

    /// Stop all shim threads: cancel the token (waking blocked accepts,
    /// reads and `wait` condvar sleepers immediately) and join the scope
    /// under its deadline. Idempotent.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        self.scope.finish();
        // Requests abandoned mid-flight never reach the `wait` success
        // path, so their root span would be missing and every hop span of
        // the trace would dangle. Close them start → now so partial traces
        // still form one connected tree (DESIGN.md §11). Completed entries
        // already recorded their root in `wait`.
        let mut s = self.inner.state.lock();
        let open = s.core.fanin.requests.drain().filter(|(_, q)| !q.closed);
        for (rid, t) in open.filter_map(|(r, q)| Some((r, q.trace?))) {
            self.inner.obs.root_span(rid, t);
        }
    }
}

impl Inner {
    /// A transition may have produced a deadline earlier than the one the
    /// timer thread sleeps toward (a request registered, detector enabled).
    fn rearm(&self, s: &mut Guarded) {
        s.timer.rearm(&self.timer, s.core.next_deadline());
    }

    /// Send the outbox under the drain rule; returns what this drain could
    /// not send.
    fn drain<'a>(&'a self, s: OrderedMutexGuard<'a, Guarded>) -> Vec<Message> {
        let take = |s: &mut Guarded, out: &mut _| s.core.drain_outbox(out);
        Drain::run(&self.state, s, |s| &mut s.drain, take, self)
    }

    /// After a transition, still under the lock: refresh the ledger gauges
    /// and hand the requests it completed to their waiters.
    fn settle(&self, s: &mut Guarded, closed: &[RequestId]) {
        self.obs.update_ledger_gauges(&s.core);
        if !closed.is_empty() {
            self.obs.requests_completed.add(closed.len() as u64);
            self.cv.wake_all(&mut s.waiters);
        }
    }

    /// Audit a timer firing, or an operator's failure verdict: the span
    /// tree stays connected across a failure (replayed chunks re-attach at
    /// the root). A bypass: a root box contributed nothing to a request
    /// within the threshold, so its children were told to send that
    /// request's data here.
    fn audit(&self, fired: &Fired<TreeId, RequestId>) {
        let (o, app) = (&self.obs.registry, self.app);
        let marks = (names::spans::MASTER_REPOINT, names::SHIM_MASTER_REPOINTS);
        let who = format!("master shim (app {})", app.0);
        self.obs
            .spans
            .fired(o, marks, (&who, self.addr, app), fired);
        for b in fired.scan.iter().flat_map(|s| &s.bypasses) {
            o.counter(names::STRAGGLER_MASTER_BYPASSES).inc();
            let (request, tree) = (b.request.0, b.point.0);
            let detail = format!("{who} bypassed a root box for request {request} tree {tree}");
            o.emit_for_request(names::EVENT_STRAGGLER, detail, request);
        }
    }
}

/// The master's hook on the one drain: a `RequestMeta` carries the
/// request's root-span context (box-side views can reference it), a
/// permanent redirect that left is counted, and a failed send is a core
/// input — a probe counts as missed at once.
impl Outlet for Inner {
    fn stamp(&self, e: &mut Emit) -> &ConnCache {
        if let Message::RequestMeta { request, ctx, .. } = &mut e.msg {
            *ctx = self.obs.spans.root_ctx(self.app, *request);
        }
        &self.ctrl
    }

    fn sent(&self, e: &mut Emit, ok: bool) {
        if !ok {
            let mut s = self.state.lock();
            s.core.send_failed(e.to, &e.msg);
            self.rearm(&mut s);
        } else if matches!(e.msg, Message::Redirect { permanent, .. } if permanent) {
            self.obs.registry.counter(names::FAILURE_REPOINTS).inc();
        }
    }
}

impl Drop for MasterShim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl PendingRequest {
    /// Block until the fully aggregated result is available.
    pub fn wait(&self, timeout: Duration) -> Result<AggregatedResult, AggError> {
        let inner = &self.inner;
        let deadline = Deadline::after(timeout);
        let mut s = inner.state.lock();
        let done = loop {
            if inner.cancel.is_cancelled() {
                return Err(AggError::Shutdown);
            }
            match s.core.take_completed(self.request) {
                Taken::NotRegistered => return Err(AggError::Net("request not registered".into())),
                Taken::Done(done) => break done,
                Taken::Pending => {}
            }
            if !inner.cv.wait(s.inner(), |s| &mut s.waiters, deadline) {
                return Err(AggError::Timeout);
            }
        };
        drop(s);
        // Registration → fully merged result, as the unmodified master
        // logic experiences it.
        let o = &inner.obs;
        o.request_wait_us.record_duration(done.registered.elapsed());
        let emulated_empty = done.expected_workers.saturating_sub(1);
        o.emulated_empties.add(emulated_empty as u64);
        // Final aggregation step across tree roots / direct workers
        // (Section 3.1: with multiple trees the master merges the roots'
        // results).
        let master_inputs = done.inputs.len();
        let master_input_bytes = done.inputs.iter().map(Bytes::len).sum();
        let combined = inner.agg.aggregate_serialized(done.inputs)?;
        if let Some(t) = done.trace {
            o.root_span(self.request, t);
        }
        Ok(AggregatedResult {
            combined,
            emulated_empty,
            empty_payload: inner.empty.clone(),
            master_inputs,
            master_input_bytes,
        })
    }

    /// The request this handle tracks.
    pub fn request_id(&self) -> u64 {
        self.request.0
    }
}

/// The reader's handling of one frame: `Data` for this application and
/// probe acks. Neither queues anything to send, so the reader never
/// drains.
fn on_frame(inner: &Arc<Inner>, frame: Bytes) {
    let o = &inner.obs;
    let Ok(msg) = Message::decode(frame) else {
        return;
    };
    if let Message::Data { payload, .. } = &msg {
        o.messages_in.inc();
        o.bytes_in.add(payload.len() as u64);
    }
    // Stitch the final hop: sender stamp → arrival here.
    let hop = o.spans.wire(&msg);
    let mut s = inner.state.lock();
    let step = s.core.on_message(msg, Instant::now());
    if step.dropped {
        o.duplicates_dropped.inc();
        return;
    }
    if hop.is_some() {
        inner.settle(&mut s, step.closed.as_slice());
        inner.rearm(&mut s);
    }
    drop(s);
    o.spans.gapped(&o.registry, &step.gaps);
    o.spans.ingest(names::spans::MASTER_RECV, hop);
}

/// The shim's one timer thread: run what the core says is due — the same
/// straggler scan and failure detection the boxes run, on the root's
/// routes — then sleep until its next deadline, a transition that produced
/// an earlier one, or cancellation.
fn timer_loop(inner: &Arc<Inner>) {
    let mut s = inner.state.lock();
    while !inner.cancel.is_cancelled() {
        let step = s.core.on_timer(Instant::now());
        let fired = step.fired.filter(|f| !f.is_empty());
        let posted = !s.core.outbox.is_empty() && !s.drain.running();
        if fired.is_none() && !posted {
            let next = s.core.next_deadline();
            TimerSlot::park(&inner.timer, &mut s, |s| &mut s.timer, next);
            continue;
        }
        // A bypass or a failure may complete requests whose other sources
        // already ended.
        let closed = fired.as_ref().map(Fired::closed).unwrap_or_default();
        inner.settle(&mut s, &closed);
        drop(s);
        fired.iter().for_each(|f| inner.audit(f));
        inner.drain(inner.state.lock());
        s = inner.state.lock();
    }
}
