//! The agg box runtime: the threaded I/O shell around [`BoxCore`].
//!
//! One `AggBox` hosts the aggregation functions of many applications. Its
//! reader threads decode messages and feed them to the box's protocol
//! state — one plain struct behind the single `agg.core` lock, which
//! demultiplexes data per `(app, request, tree)` into a [`LocalAggTree`]
//! whose combine tasks run on the box's cooperative [`TaskScheduler`] —
//! and perform what each transition returns after releasing the lock:
//! closing a request's input, events, and sends, which a dedicated egress
//! thread carries to the tree parent (next box or master) over persistent
//! connections. What the box does unprompted — streaming flushes, straggler
//! bypasses, heartbeats to its child boxes — is the core's too: one timer
//! thread sleeps until the core's next deadline and runs what is due.

use crate::aggbox::core::{BoxCore, Emit, PartialSink, Point, ReqKey, Resend};
use crate::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use crate::aggbox::tree::{LocalAggTree, TraceTarget};
use crate::conn_cache::ConnCache;
use crate::failure::{self, DetectorConfig};
use crate::fanin::{Repoint, Route, StragglerScan, TraceAnchor};
use crate::lifecycle::{
    serve, CancelToken, JoinScope, Mailbox, OrderedMutex, OverflowPolicy, Parking, TimerSlot,
    WakerGuard, DEFAULT_JOIN_DEADLINE,
};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::spans::Spans;
use crate::straggler::StragglerPolicy;
use crate::DynAggregator;
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{Connection, NetError, NodeId, Transport};
use netagg_obs::trace;
use netagg_obs::{names, Counter, Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Depth of the egress mailbox. Completion callbacks run on scheduler pool
/// threads, so the egress queue must never block them: overflow drops the
/// oldest message and the drop is metric-accounted (DESIGN.md §9).
const EGRESS_DEPTH: usize = 4096;

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
}

impl PartialSink for TreeSink {
    fn push(&mut self, payload: Bytes) {
        // LocalAggTree has its own fine-grained lock; push never blocks.
        self.tree.push(&self.sched, self.app, payload);
    }
}

impl TreeSink {
    fn end_input(&self) {
        self.tree.end_input(&self.sched, self.app);
    }
}

/// Pre-resolved metric handles mirroring [`BoxStats`] into a
/// [`MetricsRegistry`] (plus latency and event streams the legacy counters
/// do not carry).
struct BoxObs {
    messages_in: Arc<Counter>,
    bytes_in: Arc<Counter>,
    requests_completed: Arc<Counter>,
    duplicates_dropped: Arc<Counter>,
    send_errors: Arc<Counter>,
    request_agg_us: Arc<Histogram>,
    straggler_redirects: Arc<Counter>,
    straggler_escalations: Arc<Counter>,
    repoints: Arc<Counter>,
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
            send_errors: registry.counter(names::AGGBOX_SEND_ERRORS),
            request_agg_us: registry.histogram(names::AGGBOX_REQUEST_AGG_US),
            straggler_redirects: registry.counter(names::STRAGGLER_REDIRECTS),
            straggler_escalations: registry.counter(names::STRAGGLER_ESCALATIONS),
            repoints: registry.counter(names::AGGBOX_REPOINTS),
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
    /// Egress sends that failed after retry.
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
    /// Egress sends that failed after retry.
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

/// What `agg.core` guards: the protocol state and the timer thread's slot.
struct Guarded {
    core: BoxCore<TreeSink>,
    timer: TimerSlot,
}

struct Inner {
    cfg: AggBoxConfig,
    scheduler: Arc<TaskScheduler>,
    state: OrderedMutex<Guarded>,
    /// Where the timer thread sleeps until the core's next deadline.
    timer: Parking,
    /// Bounded hand-off to the egress thread (`DropOldest`: completion
    /// callbacks run on scheduler threads and must never block here).
    egress: Mailbox<(NodeId, Message)>,
    /// Outbound connections: egress sends, probes, redirects and acks.
    conns: ConnCache,
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
    /// Bind the box's address and start its listener, egress and timer
    /// threads.
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
        let egress = Mailbox::with_obs(
            format!("aggbox{box_id}.egress"),
            EGRESS_DEPTH,
            OverflowPolicy::DropOldest,
            cancel.clone(),
            &cfg.obs,
        );
        let scheduler = TaskScheduler::new_with_obs(cfg.scheduler.clone(), cfg.obs.clone());
        let mut core = BoxCore::default();
        core.fanin.straggler = cfg.straggler;
        core.flush_due = cfg.flush_bytes.map(|_| Instant::now());
        let timer = TimerSlot::default();
        let inner = Arc::new(Inner {
            scheduler: Arc::new(scheduler),
            state: OrderedMutex::new(lock_order::AGG_CORE, Guarded { core, timer }),
            timer: Parking::new(),
            egress,
            conns: ConnCache::new(transport, cfg.addr),
            cancel: cancel.clone(),
            stats: BoxStats::default(),
            obs: BoxObs::new(cfg.obs.clone(), box_id),
            cfg,
        });
        // Under the core lock, so a timer thread between its cancel check
        // and its park cannot miss it. Weak: a strong ref would be a cycle.
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
        // Listener thread, and a reader thread per accepted connection.
        {
            let inner = inner.clone();
            serve(
                &boxed.scope,
                listener,
                format!("aggbox-{box_id}-listen"),
                format!("aggbox-{box_id}-reader"),
                move |conn| reader_loop(&inner, conn),
            )?;
        }
        // The egress thread and the timer thread.
        let spawn = |name: String, body: fn(&Arc<Inner>)| {
            let inner = inner.clone();
            let spawned = boxed.scope.spawn(name, move || body(&inner));
            spawned.map_err(|e| NetError::Io(e.to_string()))
        };
        spawn(format!("aggbox-{box_id}-egress"), egress_loop)?;
        spawn(format!("aggbox-{box_id}-timer"), timer_loop)?;
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
        self.inner
            .transition(|core| core.add_route(app, tree, parent, route));
    }

    /// Start heartbeating the child boxes this box's routes name. One
    /// that misses `cfg.misses` acks in a row is failed for good: future
    /// requests expect its children directly, every in-flight ledger moves
    /// the box's obligations onto them, and they are told to re-point here.
    pub fn enable_failure_detection(&self, cfg: DetectorConfig) {
        let now = Instant::now();
        self.inner
            .transition(|core| core.fanin.detector.enable(cfg, now));
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

    /// Stop all threads: cancel the box's token (waking every blocked
    /// accept, recv and egress dequeue immediately) and join the scope
    /// under its deadline. Idempotent.
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
        for (key, t) in s
            .core
            .fanin
            .requests
            .drain()
            .filter_map(|(k, q)| Some((k, q.trace?)))
        {
            self.inner.obs.request_span(key.1, t);
        }
    }
}

impl Inner {
    /// Run one core transition, and wake the timer thread if it produced a
    /// deadline earlier than the one it sleeps toward (first clock started).
    fn transition<T>(&self, f: impl FnOnce(&mut BoxCore<TreeSink>) -> T) -> T {
        let mut s = self.state.lock();
        let out = f(&mut s.core);
        let next = s.core.next_deadline();
        s.timer.rearm(&self.timer, next);
        out
    }
}

impl Drop for AggBox {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn reader_loop(inner: &Arc<Inner>, mut conn: Box<dyn Connection>) {
    // Until cancelled, the peer closes, or the transport fails.
    while let Ok(frame) = conn.recv_cancellable(&inner.cancel) {
        let msg = match Message::decode(frame) {
            Ok(m) => m,
            Err(_) => continue, // corrupt frame: drop
        };
        match msg {
            Message::Data {
                app,
                request,
                tree,
                source,
                seq,
                last,
                ctx,
                sent_ns,
                payload,
            } => {
                let (o, key) = (&inner.obs, (app, request, tree));
                let bytes = payload.len() as u64;
                inner.stats.messages_in.fetch_add(1, Ordering::Relaxed);
                inner.stats.bytes_in.fetch_add(bytes, Ordering::Relaxed);
                o.messages_in.inc();
                o.bytes_in.add(bytes);
                // Stitch the hop; the ingest work below hangs off its wire span.
                let hop = o.spans.wire(ctx, request, sent_ns);
                let new = |agg: &Arc<dyn DynAggregator>| new_request(inner, key, agg);
                let now = Instant::now();
                let accepted = inner
                    .transition(|core| core.accept_data(key, source, seq, last, payload, now, new));
                let Some(close) = accepted else {
                    // Unknown route, replayed sequence number, re-pointed-away source
                    // or already-closed request: the core dropped it.
                    inner
                        .stats
                        .duplicates_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    o.duplicates_dropped.inc();
                    continue;
                };
                close.iter().for_each(TreeSink::end_input);
                o.spans.ingest(names::spans::BOX_RECV, ctx, hop, request);
            }
            Message::RequestMeta {
                app,
                request,
                tree,
                // The master's root-span ctx rides along for completeness;
                // box-side spans parent to the trace id directly because
                // meta may arrive after the first data chunk (DESIGN.md §11).
                ctx: _,
                sources,
            } => {
                let key = (app, request, tree);
                let new = |agg: &Arc<dyn DynAggregator>| new_request(inner, key, agg);
                let close = inner.transition(|core| core.request_meta(key, sources, new));
                close.iter().for_each(TreeSink::end_input);
            }
            Message::Redirect {
                app,
                permanent,
                request,
                tree,
                new_parent,
            } => {
                let resends = inner
                    .state
                    .lock()
                    .core
                    .redirect(app, permanent, request, tree, new_parent);
                for r in resends {
                    resend(inner, app, tree, new_parent, r);
                }
            }
            Message::Broadcast {
                app,
                request,
                tree,
                payload,
            } => {
                // Replicate down the tree: one copy per direct child. The
                // replication happens over the box's high-bandwidth link,
                // which is the point of on-path distribution.
                let children = {
                    let s = inner.state.lock();
                    let route = s.core.fanin.route(&(app, tree));
                    route.map(|r| r.children_addrs.clone()).unwrap_or_default()
                };
                for child in children {
                    let _ = inner.egress.send((
                        child,
                        Message::Broadcast {
                            app,
                            request,
                            tree,
                            payload: payload.clone(),
                        },
                    ));
                }
            }
            Message::Heartbeat { from, nonce } => {
                // Straight to the prober's listener: past the egress
                // queue, whose backlog must not read as a dead box.
                let ack = Message::HeartbeatAck {
                    from: inner.cfg.box_id,
                    nonce,
                };
                let _ = inner.conns.send_to(from, ack.encode());
            }
            Message::HeartbeatAck { from, nonce } => {
                inner.state.lock().core.fanin.detector.ack(from, nonce);
            }
        }
    }
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
    tree.on_complete(Box::new(move |result| {
        if let (Some(inner), Ok(payload)) = (weak.upgrade(), result) {
            completed(&inner, key, payload);
        }
    }));
    let sink = TreeSink {
        tree,
        sched: inner.scheduler.clone(),
        app,
    };
    (sink, anchor)
}

/// A request's local aggregation finished: one core transition retains
/// the aggregate, drops the request's state and resolves the destination;
/// the final chunk then goes to the egress thread.
fn completed(inner: &Arc<Inner>, key: ReqKey, payload: Bytes) {
    let emit = inner.state.lock().core.complete(key, payload.clone());
    // Count the completion before handing the aggregate to the egress
    // thread: observers polling after the master saw the result must find
    // the counter already incremented.
    inner
        .stats
        .requests_completed
        .fetch_add(1, Ordering::Relaxed);
    inner.obs.requests_completed.inc();
    if let Some(t0) = emit.started {
        // First data byte in → final aggregate out.
        inner.obs.request_agg_us.record_duration(t0.elapsed());
    }
    forward(inner, emit, payload, true);
}

/// Hand one output chunk (a streamed partial, or the final aggregate when
/// `last`) to the egress thread, with its forward span under the box's
/// request span.
fn forward(inner: &Arc<Inner>, emit: Emit, payload: Bytes, last: bool) {
    let (o, (app, request, tree)) = (&inner.obs, emit.key);
    // Outgoing hop ctx: the chunk's wire span parents to this box's
    // forward span.
    let (ctx, sent_ns) = o.spans.outbound(emit.trace.map(|t| t.trace_id));
    let msg = Message::Data {
        app,
        request,
        tree,
        source: SourceId::Box(inner.cfg.box_id),
        seq: emit.seq,
        last,
        ctx,
        sent_ns,
        payload,
    };
    if let Some(t) = emit.trace {
        if last {
            o.request_span(request, t);
        }
        let name = names::spans::BOX_FORWARD;
        o.spans.sent(name, ctx, t.span_id, request, sent_ns);
    }
    if let Some(dest) = emit.dest {
        let _ = inner.egress.send((dest, msg));
    }
}

/// Resend one request's retained output chunks to `new_parent` after a
/// redirect. The replayed chunks re-attach at the trace root (the
/// deterministic trace id); the adopting parent's wire/recv spans hang off
/// that fresh ctx.
fn resend(inner: &Arc<Inner>, app: AppId, tree: TreeId, new_parent: NodeId, r: Resend) {
    let ctx = inner.obs.spans.root_ctx(app, r.request);
    let sent_ns = if ctx.is_active() { trace::now_ns() } else { 0 };
    let n = r.chunks.len();
    for (i, payload) in r.chunks.into_iter().enumerate() {
        let msg = Message::Data {
            app,
            request: r.request,
            tree,
            source: SourceId::Box(inner.cfg.box_id),
            seq: i as u32,
            last: r.finished && i + 1 == n,
            ctx,
            sent_ns,
            payload,
        };
        let _ = inner.egress.send((new_parent, msg));
    }
}

/// Audit one child-box failure: mark the adoption inside every moved
/// request's trace (so the stitched tree shows where obligations moved),
/// count it and emit the `repoint` event.
fn report_repoint(inner: &Inner, (app, tree): Point, failed_box: u32, repoint: &Repoint<ReqKey>) {
    let o = &inner.obs;
    let now = trace::now_ns();
    for (key, t) in repoint
        .repointed
        .iter()
        .filter_map(|(k, t)| Some((k, (*t)?)))
    {
        let (name, id) = (names::spans::BOX_REPOINT, o.spans.tracer.next_span_id());
        o.spans
            .record(name, t.trace_id, id, t.span_id, key.1, now, now);
    }
    let repointed = repoint.repointed.len();
    o.repoints.add((repointed as u64).max(1));
    o.registry.emit(
        names::EVENT_REPOINT,
        format!(
            "box {} re-pointed failed child box {failed_box} for app {} tree {} \
             ({repointed} in-flight requests moved)",
            inner.cfg.box_id, app.0, tree.0
        ),
    );
}

fn egress_loop(inner: &Arc<Inner>) {
    // Blocks until a message arrives; cancellation wakes it immediately
    // (the mailbox is bound to the box's token).
    while let Ok((dest, msg)) = inner.egress.recv() {
        if inner.conns.send_to(dest, msg.encode()).is_err() {
            inner.stats.send_errors.fetch_add(1, Ordering::Relaxed);
            inner.obs.send_errors.inc();
        }
    }
}

/// The box's one timer thread: run what the core says is due, then sleep
/// until its next deadline, a transition that produced an earlier one, or
/// cancellation; an idle box never wakes it. Due work is streaming partials
/// upstream once a request buffers `flush_bytes` (Section 3.2.1: "little
/// data is buffered"), bypassing straggling child boxes, and heartbeating
/// child boxes and failing the silent ones (Section 3.1).
fn timer_loop(inner: &Arc<Inner>) {
    let flush_bytes = inner.cfg.flush_bytes.unwrap_or(usize::MAX);
    let mut s = inner.state.lock();
    while !inner.cancel.is_cancelled() {
        let (flushed, fired) = s.core.on_timer(Instant::now(), |sink| {
            let due = sink.tree.pending_bytes() >= flush_bytes;
            due.then(|| sink.tree.take_partial(&sink.sched, sink.app))?
        });
        if flushed.is_empty() && fired.is_empty() {
            let next = s.core.next_deadline();
            TimerSlot::park(&inner.timer, &mut s, |s| &mut s.timer, next);
            continue;
        }
        // A bypass or a failure may have completed requests (the owed set
        // changed).
        let close = s.core.sinks(&fired.closed());
        drop(s);
        // Streamed partials are forward hops too: each gets its own
        // forward span under the box's request span.
        for (emit, chunk) in flushed {
            forward(inner, emit, chunk, false);
        }
        let (o, here) = (&inner.obs.registry, inner.cfg.addr);
        let unsent = failure::announce(&inner.conns, o, here, fired.probes, &fired.dead);
        for (point, failed_box, repoint) in &fired.failed {
            report_repoint(inner, *point, *failed_box, repoint);
            failure::repoint_children(&inner.conns, o, *point, here, &repoint.children);
        }
        fired.scan.into_iter().for_each(|scan| bypass(inner, scan));
        close.iter().for_each(TreeSink::end_input);
        s = inner.state.lock();
        s.core.fanin.detector.unsent(&unsent, Instant::now());
    }
}

/// Announce one straggler scan's bypasses: a request had data from some
/// sources but a child box contributed nothing within the threshold, so
/// that box's children are told to send this request's data directly here.
fn bypass(inner: &Inner, scan: StragglerScan<Point, ReqKey>) {
    let o = &inner.obs;
    for b in scan.bypasses {
        let (app, request, tree) = b.request;
        inner
            .stats
            .straggler_redirects
            .fetch_add(1, Ordering::Relaxed);
        o.straggler_redirects.inc();
        let note = if b.permanent {
            // Repeated slowness across requests: the box is treated as
            // permanently failed (Section 3.1) — its children re-point
            // here and future requests no longer expect it.
            o.straggler_escalations.inc();
            " (escalated to permanent)"
        } else {
            ""
        };
        o.registry.emit(
            names::EVENT_STRAGGLER,
            format!(
                "box {} bypassed child box {} for app {} request {} tree {}{note}",
                inner.cfg.box_id, b.box_id, app.0, request.0, tree.0,
            ),
        );
        let msg = Message::Redirect {
            app,
            permanent: b.permanent,
            request,
            tree,
            new_parent: inner.cfg.addr,
        };
        for child in b.children {
            let _ = inner.egress.send((child, msg.clone()));
        }
    }
    for (point, failed_box, repoint) in &scan.escalated {
        report_repoint(inner, *point, *failed_box, repoint);
    }
}
