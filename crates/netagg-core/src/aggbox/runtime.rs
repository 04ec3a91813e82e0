//! The agg box runtime: the threaded I/O shell around [`BoxCore`].
//!
//! One `AggBox` hosts the aggregation functions of many applications. Its
//! one reader feeds every connection's frames to the core behind the
//! single `agg.core` lock, which hands data per `(app, request, tree)` to
//! a [`LocalAggTree`] on the box's cooperative [`TaskScheduler`]. What a
//! transition sends goes out through the one [`Drain`]: a pool thread
//! sends the final chunk it produced; the reader never sends, and leaves
//! its posts and acks to the timer thread, which runs what the core's
//! deadlines make due. While the outbox or the pool's queue is over its
//! bound, the reader holds a connection's `Data` back: backpressure, not
//! eviction (DESIGN.md §9).

use crate::aggbox::core::{BoxCore, PartialSink, Point, ReqKey, OUTBOX_BOUND};
use crate::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use crate::aggbox::tree::{LocalAggTree, TraceTarget};
use crate::conn_cache::ConnCache;
use crate::failure::DetectorConfig;
use crate::fanin::{Fired, Route, TraceAnchor};
use crate::lifecycle::{
    self, serve_ready, CancelToken, Drain, JoinScope, OrderedMutex, OrderedMutexGuard, Outlet,
    Parking, Readiness, TimerSlot, WakerGuard, DEFAULT_JOIN_DEADLINE,
};
use crate::node::{Emit, Node};
use crate::protocol::{AppId, Message, RequestId, TreeId};
use crate::spans::Spans;
use crate::straggler::StragglerPolicy;
use crate::{AggError, DynAggregator};
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{NetError, NodeId, Transport};
use netagg_obs::trace;
use netagg_obs::{names, Counter, Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Configuration of one agg box.
#[derive(Debug, Clone)]
pub struct AggBoxConfig {
    /// Global logical id (must match the tree specs).
    pub box_id: u32,
    /// Transport address to bind.
    pub addr: NodeId,
    /// Cooperative task scheduler options.
    pub scheduler: SchedulerConfig,
    /// Local aggregation tree fan-in.
    pub fanin: usize,
    /// Bypass a child box that contributes nothing to a request within the
    /// policy's threshold of its first data, and treat it as failed after
    /// `repeat_limit` such events (straggler handling). `None` disables.
    pub straggler: Option<StragglerPolicy>,
    /// Stream partial aggregates downstream once a request has buffered
    /// this many bytes, instead of holding the whole request in memory
    /// (`None` = emit only the final aggregate).
    pub flush_bytes: Option<usize>,
    /// Metrics registry the box (and its scheduler) publishes to
    /// (`aggbox.*`, `straggler.*`); a private one unless the deployment
    /// hands in its own.
    pub obs: MetricsRegistry,
}

impl AggBoxConfig {
    /// Default configuration for a box with the given id and address.
    pub fn new(box_id: u32, addr: NodeId) -> Self {
        Self {
            box_id,
            addr,
            scheduler: SchedulerConfig::default(),
            fanin: 8,
            straggler: None,
            flush_bytes: None,
            obs: MetricsRegistry::new(),
        }
    }
}

/// A request's local aggregation tree as the core sees it: somewhere to
/// push accepted partials, and (a clone of it) what the shell closes the
/// input on after releasing the lock — completion may fire the forwarding
/// callback, which re-locks the core.
#[derive(Clone)]
struct TreeSink {
    tree: Arc<LocalAggTree>,
    sched: Arc<TaskScheduler>,
    app: AppId,
    /// Buffered bytes from which a flush pass streams a partial upstream.
    flush_bytes: usize,
}

impl PartialSink for TreeSink {
    fn push(&mut self, payload: Bytes) {
        // LocalAggTree has its own fine-grained lock; push never blocks.
        self.tree.push(&self.sched, self.app, payload);
    }

    fn take(&mut self) -> Option<Bytes> {
        let due = self.tree.pending_bytes() >= self.flush_bytes;
        due.then(|| self.tree.take_partial(&self.sched, self.app))?
    }
}

impl TreeSink {
    fn end_input(&self) {
        self.tree.end_input(&self.sched, self.app);
    }
}

/// Pre-resolved handles of the box's per-message and per-request metrics
/// (rare paths — failures, bypasses, send errors — look theirs up in the
/// registry).
struct BoxObs {
    messages_in: Arc<Counter>,
    bytes_in: Arc<Counter>,
    requests_completed: Arc<Counter>,
    duplicates_dropped: Arc<Counter>,
    request_agg_us: Arc<Histogram>,
    /// Box-side spans, under the component label `aggbox-<b>`.
    spans: Spans,
    /// Component label for scheduler-task spans, e.g. `aggbox-2-sched`.
    component_sched: Arc<str>,
    registry: MetricsRegistry,
}

impl BoxObs {
    fn new(registry: MetricsRegistry, box_id: u32) -> Self {
        Self {
            messages_in: registry.counter(names::AGGBOX_MESSAGES_IN),
            bytes_in: registry.counter(names::AGGBOX_BYTES_IN),
            requests_completed: registry.counter(names::AGGBOX_REQUESTS_COMPLETED),
            duplicates_dropped: registry.counter(names::AGGBOX_DUPLICATES_DROPPED),
            request_agg_us: registry.histogram(names::AGGBOX_REQUEST_AGG_US),
            spans: Spans::new(&registry, format!("aggbox-{box_id}")),
            component_sched: format!("aggbox-{box_id}-sched").into(),
            registry,
        }
    }

    /// The box's whole residency for a request: first data in → now. Every
    /// local span (queue wait, combine, forward, repoint) parents to it.
    fn request_span(&self, request: RequestId, t: TraceAnchor) {
        let (name, now) = (names::spans::BOX_REQUEST, trace::now_ns());
        let (tid, start) = (t.trace_id, t.start_ns);
        self.spans
            .record(name, tid, t.span_id, tid, request, start, now);
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Default)]
pub struct BoxStats {
    /// Payload bytes received.
    pub bytes_in: AtomicU64,
    /// Protocol messages received.
    pub messages_in: AtomicU64,
    /// Requests whose final aggregate was forwarded.
    pub requests_completed: AtomicU64,
    /// Data chunks dropped by duplicate suppression.
    pub duplicates_dropped: AtomicU64,
    /// Straggler bypasses issued for child boxes.
    pub straggler_redirects: AtomicU64,
    /// Outbox sends that failed after retry.
    pub send_errors: AtomicU64,
}

/// Point-in-time view of one agg box (see [`AggBox::snapshot`]).
#[derive(Debug, Clone)]
pub struct BoxSnapshot {
    /// Global logical id of the box.
    pub box_id: u32,
    /// Payload bytes received so far.
    pub bytes_in: u64,
    /// Protocol messages received so far.
    pub messages_in: u64,
    /// Requests whose final aggregate was forwarded.
    pub requests_completed: u64,
    /// Chunks dropped by duplicate suppression.
    pub duplicates_dropped: u64,
    /// Straggler bypasses issued.
    pub straggler_redirects: u64,
    /// Outbox sends that failed after retry.
    pub send_errors: u64,
    /// Requests with open state right now.
    pub active_requests: usize,
    /// Bytes buffered across all local aggregation trees right now.
    pub buffered_bytes: usize,
    /// Aggregation tasks waiting for a pool thread right now.
    pub tasks_queued: usize,
    /// Times the timer thread woke; an idle box adds none.
    pub timer_wakeups: u64,
    /// Per-application CPU accounting.
    pub apps: Vec<crate::aggbox::scheduler::AppCpu>,
}

/// What `agg.core` guards: the core, the timer's slot, the drain and
/// whether `Data` is held back.
struct Guarded {
    core: BoxCore<TreeSink>,
    timer: TimerSlot,
    drain: Drain,
    held: bool,
}

struct Inner {
    cfg: AggBoxConfig,
    scheduler: Arc<TaskScheduler>,
    state: OrderedMutex<Guarded>,
    /// Where the timer thread sleeps until the core's next deadline.
    timer: Parking,
    /// The reader's; woken when `Data` it holds back may go on.
    ready: Readiness,
    /// Outbound connections of the outbox, and of probes and acks.
    conns: ConnCache,
    liveness: ConnCache,
    cancel: CancelToken,
    stats: BoxStats,
    obs: BoxObs,
}

/// A running agg box.
pub struct AggBox {
    inner: Arc<Inner>,
    scope: Arc<JoinScope>,
    /// Wakes the parked timer thread on cancellation.
    _timer_waker: WakerGuard,
}

impl AggBox {
    /// Bind the box's address and start its listener and timer threads.
    pub fn start(transport: Arc<dyn Transport>, cfg: AggBoxConfig) -> Result<Arc<Self>, NetError> {
        let listener = transport.bind(cfg.addr)?;
        let cancel = CancelToken::new();
        let box_id = cfg.box_id;
        let scope = Arc::new(JoinScope::with_obs(
            format!("aggbox-{box_id}"),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            Some(&cfg.obs),
        ));
        let scheduler = TaskScheduler::new_with_obs(cfg.scheduler.clone(), cfg.obs.clone());
        let ready = Readiness::readiness();
        let inner = Arc::new_cyclic(|weak: &Weak<Inner>| {
            let weak = weak.clone();
            let mut core = BoxCore::new(Box::new(move |key, agg| {
                Some(new_request(&weak.upgrade()?, key, agg))
            }));
            (core.id, core.fanin.addr) = (box_id, cfg.addr);
            core.fanin.straggler = cfg.straggler;
            core.flush_due = cfg.flush_bytes.map(|_| Instant::now());
            let (timer, drain, held) = (TimerSlot::default(), Drain::default(), false);
            Inner {
                scheduler: Arc::new(scheduler),
                state: OrderedMutex::new(
                    lock_order::AGG_CORE,
                    Guarded {
                        core,
                        timer,
                        drain,
                        held,
                    },
                ),
                timer: Parking::new(),
                ready: ready.clone(),
                conns: ConnCache::new(transport.clone(), cfg.addr),
                liveness: ConnCache::new(transport, cfg.addr),
                cancel: cancel.clone(),
                stats: BoxStats::default(),
                obs: BoxObs::new(cfg.obs.clone(), box_id),
                cfg,
            }
        });
        // Under the core lock, so a thread between its cancel check and
        // its park cannot miss it. Weak: a strong ref would be a cycle.
        let weak = Arc::downgrade(&inner);
        let timer_waker = cancel.register_waker(move || {
            if let Some(i) = weak.upgrade() {
                i.timer.wake_all(&mut i.state.lock().timer.parked);
            }
        });
        let boxed = Arc::new(Self {
            inner: inner.clone(),
            scope,
            _timer_waker: timer_waker,
        });
        // Listener thread, and one reader for every accepted connection.
        {
            let inner = inner.clone();
            serve_ready(
                &boxed.scope,
                listener,
                ready,
                format!("aggbox-{box_id}-listen"),
                format!("aggbox-{box_id}-reader"),
                move |frame| on_frame(&inner, frame),
            )?;
        }
        let timer = move || timer_loop(&inner);
        let spawned = boxed.scope.spawn(format!("aggbox-{box_id}-timer"), timer);
        spawned.map_err(|e| NetError::Io(e.to_string()))?;
        Ok(boxed)
    }

    /// Register an application's aggregation function with a target
    /// resource share.
    pub fn register_app(&self, app: AppId, agg: Arc<dyn DynAggregator>, share: f64) {
        self.inner.scheduler.register_app(app, share);
        self.inner.state.lock().core.add_app(app, agg);
    }

    /// Install routing for one (application, tree): where this box's
    /// output goes (next box or master shim address) and what it owes.
    pub fn install_route(&self, app: AppId, tree: TreeId, parent: NodeId, route: Route) {
        let add = |core: &mut BoxCore<_>| core.add_route(app, tree, parent, route);
        self.inner.transition(add);
    }

    /// Start heartbeating the child boxes this box's routes name. One
    /// that misses `cfg.misses` acks in a row is failed for good: future
    /// requests expect its children directly, every in-flight ledger moves
    /// the box's obligations onto them, and they are told to re-point here.
    pub fn enable_failure_detection(&self, cfg: DetectorConfig) {
        let now = Instant::now();
        let enable = |core: &mut BoxCore<_>| core.fanin.detector.enable(cfg, now);
        self.inner.transition(enable);
    }

    /// Counters exposed for the harness and tests.
    pub fn stats(&self) -> &BoxStats {
        &self.inner.stats
    }

    /// A point-in-time observability snapshot: counters, live request
    /// state, scheduler accounting — what a production middlebox would
    /// export to its metrics endpoint.
    pub fn snapshot(&self) -> BoxSnapshot {
        let (active_requests, buffered_bytes, timer_wakeups) = {
            let s = self.inner.state.lock();
            let open = s.core.fanin.requests.values();
            let sizes = open.map(|q| q.ext.sink.tree.pending_bytes());
            let (n, bytes) = sizes.fold((0, 0), |(n, bytes), b| (n + 1, bytes + b));
            (n, bytes, s.timer.wakeups)
        };
        BoxSnapshot {
            box_id: self.inner.cfg.box_id,
            bytes_in: self.inner.stats.bytes_in.load(Ordering::Relaxed),
            messages_in: self.inner.stats.messages_in.load(Ordering::Relaxed),
            requests_completed: self.inner.stats.requests_completed.load(Ordering::Relaxed),
            duplicates_dropped: self.inner.stats.duplicates_dropped.load(Ordering::Relaxed),
            straggler_redirects: self.inner.stats.straggler_redirects.load(Ordering::Relaxed),
            send_errors: self.inner.stats.send_errors.load(Ordering::Relaxed),
            active_requests,
            buffered_bytes,
            tasks_queued: self.inner.scheduler.queued(),
            timer_wakeups,
            apps: self.inner.scheduler.cpu_times(),
        }
    }

    /// The box's cooperative task scheduler.
    pub fn scheduler(&self) -> &Arc<TaskScheduler> {
        &self.inner.scheduler
    }

    /// Transport address the box is bound to.
    pub fn addr(&self) -> NodeId {
        self.inner.cfg.addr
    }

    /// Global logical id of the box.
    pub fn box_id(&self) -> u32 {
        self.inner.cfg.box_id
    }

    /// Stop all threads: cancel the box's token (waking the blocked accept,
    /// the parked reader and the timer sleep immediately) and join the
    /// scope under its deadline. Idempotent.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        self.scope.finish();
        // Not left to the last `Arc<TaskScheduler>`: a pool thread can hold
        // one transiently, and a pool joined from inside itself finishes
        // after this returns.
        self.inner.scheduler.shutdown();
        // Requests still open at teardown never reach `completed`, so
        // their box request span would never be recorded — and the
        // queue-wait / combine spans parented beneath it would be orphans.
        // Close them start → now, so a box killed mid-request still leaves
        // one connected trace tree (DESIGN.md §11).
        let mut s = self.inner.state.lock();
        let open = s.core.fanin.requests.drain();
        for ((_, request, _), t) in open.filter_map(|(k, q)| Some((k, q.trace?))) {
            self.inner.obs.request_span(request, t);
        }
    }
}

impl Inner {
    /// Run one core transition on a thread that must not send (the reader,
    /// the public API), or that drains afterwards anyway (the timer).
    fn transition<T>(&self, f: impl FnOnce(&mut BoxCore<TreeSink>) -> T) -> T {
        let mut s = self.state.lock();
        let out = f(&mut s.core);
        self.rearm(&mut s);
        out
    }

    /// Wake the timer thread for an earlier deadline, or for what it must
    /// send: an ack, or output no drain takes.
    fn rearm(&self, s: &mut Guarded) {
        s.timer.rearm(&self.timer, s.core.next_deadline());
        let undrained = !s.core.outbox.is_empty() && !s.drain.running();
        if s.core.outbox.has_live() || undrained {
            self.timer.wake_all(&mut s.timer.parked);
        }
    }

    /// Send the outbox under the drain rule. Taking it lets a held-back
    /// reader go on.
    fn drain<'a>(&'a self, s: OrderedMutexGuard<'a, Guarded>) {
        let take = |s: &mut Guarded, out: &mut _| {
            s.core.drain_outbox(out);
            if !out.is_empty() && std::mem::take(&mut s.held) {
                self.ready.wake();
            }
        };
        Drain::run(&self.state, s, |s| &mut s.drain, take, self);
    }

    /// Audit one timer firing: the detector's verdicts and re-points
    /// (marked inside each moved request's trace, so the stitched tree
    /// shows where obligations moved), and every straggler bypass.
    fn report(&self, fired: &Fired<Point, ReqKey>) {
        let (o, id) = (&self.obs, self.cfg.box_id);
        let count = |name| o.registry.counter(name);
        let marks = (names::spans::BOX_REPOINT, names::AGGBOX_REPOINTS);
        // A box's points name their application.
        let who = (&*format!("box {id}"), self.cfg.addr, AppId(0));
        o.spans.fired(&o.registry, marks, who, fired);
        // A request had data from some sources but a child box contributed
        // nothing within the threshold: its children were told to send this
        // request's data here — for good once the box straggled too often
        // (Section 3.1), and future requests no longer expect it.
        for b in fired.scan.iter().flat_map(|s| &s.bypasses) {
            let (app, request, tree) = b.request;
            let stat = &self.stats.straggler_redirects;
            stat.fetch_add(1, Ordering::Relaxed);
            count(names::STRAGGLER_REDIRECTS).inc();
            let mut note = "";
            if b.permanent {
                count(names::STRAGGLER_ESCALATIONS).inc();
                note = " (escalated to permanent)";
            }
            let detail = format!(
                "box {id} bypassed child box {} for app {} request {} tree {}{note}",
                b.box_id, app.0, request.0, tree.0,
            );
            o.registry.emit(names::EVENT_STRAGGLER, detail);
        }
    }
}

/// The box's hook on the one drain: probes and acks on connections of
/// their own, the rest on the outbox's.
impl Outlet for Inner {
    /// Stamp a sampled `Data` with its hop's trace context as it leaves:
    /// this box's output under a fresh forward span (the final chunk closes
    /// the box's request span), a resend at the trace root (deterministic
    /// trace id: its original hop is gone).
    fn stamp(&self, e: &mut Emit) -> &ConnCache {
        let (o, last) = (&self.obs, matches!(e.msg, Message::Data { last: true, .. }));
        if let Some((app, request, ctx, sent_ns)) = e.msg.trace_mut() {
            if let Some(t) = e.trace {
                // The chunk's wire span parents to this box's forward span.
                (*ctx, *sent_ns) = o.spans.outbound(Some(t.trace_id));
                if last {
                    o.request_span(request, t);
                }
            } else {
                *ctx = o.spans.root_ctx(app, request);
                *sent_ns = if ctx.is_active() { trace::now_ns() } else { 0 };
            }
        }
        match e.msg.is_liveness() {
            true => &self.liveness,
            false => &self.conns,
        }
    }

    /// Close the forward span; a failed liveness send is a core input (a
    /// probe counts as missed at once), any other is counted.
    fn sent(&self, e: &mut Emit, ok: bool) {
        let (o, registry) = (&self.obs, &self.obs.registry);
        if let (Some(t), Some((_, request, ctx, sent_ns))) = (e.trace, e.msg.trace_mut()) {
            let name = names::spans::BOX_FORWARD;
            o.spans.sent(name, *ctx, t.span_id, request, *sent_ns);
        }
        match (ok, &e.msg) {
            (true, Message::Redirect { permanent, .. }) if *permanent => {
                registry.counter(names::FAILURE_REPOINTS).inc();
            }
            (true, _) => {}
            (false, msg) if msg.is_liveness() => {
                self.transition(|core| core.send_failed(e.to, msg));
            }
            (false, _) => {
                self.stats.send_errors.fetch_add(1, Ordering::Relaxed);
                registry.counter(names::AGGBOX_SEND_ERRORS).inc();
            }
        }
    }
}

impl Drop for AggBox {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The reader's handling of one frame: `Some(frame)` holds it back (see
/// [`serve_ready`]).
fn on_frame(inner: &Arc<Inner>, frame: Bytes) -> Option<Bytes> {
    let Ok(msg) = Message::decode(frame.clone()) else {
        return None; // corrupt frame: drop
    };
    let (o, now) = (&inner.obs, Instant::now());
    let mut s = inner.state.lock();
    if let Message::Data { payload, .. } = &msg {
        // Backpressure: box-to-box `Data` flows upward only and both
        // queues drain without the reader, so the holds are acyclic.
        if s.core.outbox.backlogged() || inner.scheduler.over(OUTBOX_BOUND, &inner.ready) {
            s.held = true;
            return Some(frame);
        }
        let bytes = payload.len() as u64;
        inner.stats.messages_in.fetch_add(1, Ordering::Relaxed);
        inner.stats.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        o.messages_in.inc();
        o.bytes_in.add(bytes);
    }
    // Stitch the hop; the ingest work below hangs off its wire span.
    let hop = o.spans.wire(&msg);
    let step = s.core.on_message(msg, now);
    inner.rearm(&mut s);
    drop(s);
    o.spans.gapped(&o.registry, &step.gaps);
    if step.dropped {
        // Unknown route, replayed sequence number, re-pointed-away source
        // or already-closed request: the core dropped it.
        let stat = &inner.stats.duplicates_dropped;
        stat.fetch_add(1, Ordering::Relaxed);
        o.duplicates_dropped.inc();
        return None;
    }
    step.closed.iter().for_each(TreeSink::end_input);
    o.spans.ingest(names::spans::BOX_RECV, hop);
    None
}

/// Build a request's local aggregation tree and wire its completion to
/// [`completed`]. Runs inside the core transition that first sees the
/// request.
fn new_request(
    inner: &Arc<Inner>,
    key: ReqKey,
    agg: &Arc<dyn DynAggregator>,
) -> (TreeSink, Option<TraceAnchor>) {
    let (o, (app, request, _)) = (&inner.obs, key);
    let tree = LocalAggTree::new(agg.clone(), inner.cfg.fanin);
    // Trace anchor: one `span.box.request` per sampled request, parented
    // directly to the trace root (RequestMeta — and hence the master's
    // root span id — may arrive after the first data).
    let tracer = &o.spans.tracer;
    let anchor = tracer.sampled(request.0).then(|| {
        let t = TraceAnchor {
            trace_id: trace::trace_id(app.0, request.0),
            span_id: tracer.next_span_id(),
            start_ns: trace::now_ns(),
        };
        tree.set_trace(TraceTarget {
            tracer: tracer.clone(),
            trace_id: t.trace_id,
            parent_span_id: t.span_id,
            request: request.0,
            component: o.component_sched.clone(),
        });
        t
    });
    let weak = Arc::downgrade(inner);
    tree.on_complete(Box::new(move |result, pooled| {
        if let Some(inner) = weak.upgrade() {
            completed(&inner, key, result, pooled);
        }
    }));
    let sink = TreeSink {
        tree,
        sched: inner.scheduler.clone(),
        app,
        flush_bytes: inner.cfg.flush_bytes.unwrap_or(usize::MAX),
    };
    (sink, anchor)
}

/// A request's local aggregation finished: one core transition retains
/// the aggregate, drops the request's state and queues the final chunk
/// behind every chunk numbered before it, for a pool thread to drain (or
/// the timer, if the input's end finished it). A failed aggregation drops
/// the state alone, so no late chunk re-opens it; the parent times out.
fn completed(inner: &Arc<Inner>, key: ReqKey, result: Result<Bytes, AggError>, pooled: bool) {
    let (o, (app, request, tree)) = (&inner.obs, key);
    let payload = match result {
        Ok(payload) => payload,
        Err(e) => {
            let trace = inner.transition(|core| core.abandon(key));
            trace.iter().for_each(|t| o.request_span(request, *t));
            o.registry.counter(names::AGGBOX_REQUESTS_FAILED).inc();
            let id = inner.cfg.box_id;
            let detail = format!(
                "box {id} dropped request {} of app {} tree {}: {e}",
                request.0, app.0, tree.0
            );
            o.registry.emit(names::EVENT_FAILURE, detail);
            return;
        }
    };
    // Count the completion before the aggregate is queued: observers
    // polling after the master saw the result must find the counter
    // already incremented.
    let stat = &inner.stats.requests_completed;
    stat.fetch_add(1, Ordering::Relaxed);
    o.requests_completed.inc();
    let mut s = inner.state.lock();
    if let Some(t0) = s.core.complete(key, payload) {
        // First data byte in → final aggregate queued.
        o.request_agg_us.record_duration(t0.elapsed());
    }
    if pooled {
        inner.drain(s);
    } else {
        inner.rearm(&mut s);
    }
}

/// The box's one timer thread: run what the core says is due, send the
/// probes and acks at once, drain what no other thread drains, and sleep
/// until the next deadline or wake-up; an idle box never wakes it. Due
/// work is streaming partials upstream once a request buffers
/// `flush_bytes` (Section 3.2.1: "little data is buffered"), bypassing
/// straggling child boxes, and heartbeating child boxes and failing the
/// silent ones (Section 3.1).
fn timer_loop(inner: &Arc<Inner>) {
    let mut s = inner.state.lock();
    while !inner.cancel.is_cancelled() {
        let now = Instant::now();
        if s.held {
            // A child's ack may wait behind the `Data` held back.
            s.core.fanin.detector.excuse(now);
        }
        let fired = s.core.on_timer(now).fired.filter(|f| !f.is_empty());
        let live = s.core.outbox.take_live();
        let output = !s.core.outbox.is_empty() && !s.drain.running();
        if live.is_empty() && fired.is_none() && !output {
            let next = s.core.next_deadline();
            TimerSlot::park(&inner.timer, &mut s, |s| &mut s.timer, next);
            continue;
        }
        // A bypass or a failure may have completed requests (the owed set
        // changed).
        let closed = fired.as_ref().map(Fired::closed).unwrap_or_default();
        let close = s.core.sinks(&closed);
        drop(s);
        lifecycle::send(live, &**inner);
        fired.iter().for_each(|f| inner.report(f));
        close.iter().for_each(TreeSink::end_input);
        inner.drain(inner.state.lock());
        s = inner.state.lock();
    }
}
