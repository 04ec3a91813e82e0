//! Master-side shim layer.
//!
//! Tracks per-request state (the paper's "partial result collection"),
//! receives root aggregates (or raw partials from direct workers when no
//! boxes are deployed), performs the final cross-tree merge and emulates
//! empty per-worker results. It is also the parent of the root boxes, so
//! its one timer thread runs the same straggler bypass and failure
//! detection the boxes do, off the same core deadlines.

use crate::conn_cache::ConnCache;
use crate::failure::{self, DetectorConfig};
use crate::fanin::{Repoint, StragglerScan, TraceAnchor};
use crate::lifecycle::{
    serve, CancelToken, Deadline, JoinScope, OrderedMutex, Parked, Parking, TimerSlot, WakerGuard,
    DEFAULT_JOIN_DEADLINE,
};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::shim::master_core::{MasterCore, MasterKey, Taken};
use crate::shim::TreeSelection;
use crate::spans::Spans;
use crate::straggler::StragglerPolicy;
use crate::tree::{master_addr, Parent, TreeSpec};
use crate::{AggError, DynAggregator};
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{Connection, NetError, NodeId, Transport};
use netagg_obs::trace;
use netagg_obs::{names, Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::{HashMap, HashSet};
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

/// Pre-resolved `shim.master.*` metric handles.
struct MasterObs {
    requests_registered: Arc<Counter>,
    requests_completed: Arc<Counter>,
    messages_in: Arc<Counter>,
    bytes_in: Arc<Counter>,
    emulated_empties: Arc<Counter>,
    duplicates_dropped: Arc<Counter>,
    repoints: Arc<Counter>,
    requests_inflight: Arc<Gauge>,
    sources_outstanding: Arc<Gauge>,
    request_wait_us: Arc<Histogram>,
    master_bypasses: Arc<Counter>,
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
            repoints: registry.counter(names::SHIM_MASTER_REPOINTS),
            requests_inflight: registry.gauge(names::SHIM_MASTER_REQUESTS_INFLIGHT),
            sources_outstanding: registry.gauge(names::SHIM_MASTER_SOURCES_OUTSTANDING),
            request_wait_us: registry.histogram(names::SHIM_MASTER_REQUEST_WAIT_US),
            master_bypasses: registry.counter(names::STRAGGLER_MASTER_BYPASSES),
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

    /// The trace anchor of a new request, if it is sampled: the root
    /// span's id is the trace id itself (DESIGN.md §11).
    fn anchor(&self, app: AppId, request: RequestId) -> Option<TraceAnchor> {
        self.spans.tracer.sampled(request.0).then(|| {
            let trace_id = trace::trace_id(app.0, request.0);
            TraceAnchor {
                trace_id,
                span_id: trace_id,
                start_ns: trace::now_ns(),
            }
        })
    }

    /// Mark re-point adoptions inside the moved requests' traces: the span
    /// tree stays connected across the failure because the replayed
    /// chunks' fresh ctx re-attaches at the root.
    fn repoint_spans(&self, repointed: &[(RequestId, Option<TraceAnchor>)]) {
        let (name, now) = (names::spans::MASTER_REPOINT, trace::now_ns());
        for (rid, t) in repointed.iter().filter_map(|(r, t)| Some((r, (*t)?))) {
            let (tid, id) = (t.trace_id, self.spans.tracer.next_span_id());
            self.spans.record(name, tid, id, tid, *rid, now, now);
        }
    }

    /// Record a request's root span, start → now. Its span id is the
    /// trace id itself, so every hop recorded anywhere hangs below it.
    fn root_span(&self, request: RequestId, t: TraceAnchor) {
        let (name, now) = (names::spans::MASTER_REQUEST, trace::now_ns());
        self.spans
            .record(name, t.trace_id, t.trace_id, 0, request, t.start_ns, now);
    }
}

/// What `master.core` guards: the protocol state, who is parked on `cv`
/// and the timer thread's slot.
struct Guarded {
    core: MasterCore,
    waiters: Parked,
    timer: TimerSlot,
}

struct Inner {
    app: AppId,
    addr: NodeId,
    agg: Arc<dyn DynAggregator>,
    cfg: MasterShimConfig,
    specs: Vec<TreeSpec>,
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
        let mut core = MasterCore::new(app, specs, cfg.selection);
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
        };
        let inner = Arc::new(Inner {
            app,
            addr,
            agg,
            obs: MasterObs::new(cfg.obs.clone(), app),
            cfg,
            specs: specs.to_vec(),
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
            serve(
                &shim.scope,
                listener,
                format!("master-shim-{}", app.0),
                format!("master-shim-{}-reader", app.0),
                move |conn| reader_loop(&inner, conn),
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
        subset: Option<Vec<MasterKey>>,
    ) -> PendingRequest {
        let inner = &self.inner;
        inner.obs.requests_registered.inc();
        let (now, ttl) = (Instant::now(), inner.cfg.pending_ttl);
        let anchor = || inner.obs.anchor(inner.app, request);
        let mut s = inner.state.lock();
        if s.core
            .register(request, expected_workers, subset, now, ttl, anchor)
        {
            inner.obs.requests_completed.inc();
            inner.cv.wake_all(&mut s.waiters);
        }
        inner.obs.update_ledger_gauges(&s.core);
        inner.rearm(&mut s);
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
        let rid = RequestId(request);
        let subset: HashSet<u32> = workers.iter().copied().collect();
        // Root-span ctx rides down with the metadata so box-side views can
        // reference the master's root span (root span id == trace id).
        let meta_ctx = self.inner.obs.spans.root_ctx(self.inner.app, rid);
        let mut master_owed: Vec<MasterKey> = Vec::new();
        let trees: Vec<TreeId> = self.inner.state.lock().core.trees_for(rid).collect();
        for tree_id in trees {
            let Some(spec) = self.inner.specs.iter().find(|s| s.tree == tree_id) else {
                continue;
            };
            let roots = spec.boxes.iter().filter(|b| b.parent == Parent::Master);
            let mut part: HashMap<u32, Vec<SourceId>> = HashMap::new();
            for tb in roots.clone() {
                participants(spec, &subset, tb.box_id, &mut part);
            }
            // Tell every participating box exactly which sources to expect.
            for (box_id, sources) in &part {
                let msg = Message::RequestMeta {
                    app: self.inner.app,
                    request: rid,
                    tree: tree_id,
                    ctx: meta_ctx,
                    sources: sources.clone(),
                };
                let _ = self
                    .inner
                    .ctrl
                    .send_to(crate::tree::box_addr(*box_id), msg.encode());
            }
            // Master-facing owed entries for this tree. A root box that
            // already failed (dropped from the route's owed set) is
            // substituted by its participating children directly.
            {
                let core = &self.inner.state.lock().core;
                for (tb, sources) in roots.filter_map(|tb| Some((tb, part.get(&tb.box_id)?))) {
                    if core.still_owed(tree_id, SourceId::Box(tb.box_id)) {
                        master_owed.push((tree_id, SourceId::Box(tb.box_id)));
                    } else {
                        master_owed.extend(sources.iter().map(|s| (tree_id, *s)));
                    }
                }
            }
            master_owed.extend(
                spec.direct_workers
                    .iter()
                    .filter(|w| subset.contains(w))
                    .map(|w| (tree_id, SourceId::Worker(*w))),
            );
        }
        self.register_with(rid, workers.len(), Some(master_owed))
    }

    /// Distribute `payload` to every worker down the request's aggregation
    /// tree (the one-to-many extension the paper sketches in Section 5):
    /// the master sends one copy per root box (or per direct worker when no
    /// boxes are deployed); boxes replicate to their children over their
    /// high-bandwidth links.
    pub fn broadcast(&self, request: u64, payload: Bytes) -> Result<(), AggError> {
        let rid = RequestId(request);
        let trees: Vec<TreeId> = self.inner.state.lock().core.trees_for(rid).collect();
        for tree_id in trees {
            let Some(spec) = self.inner.specs.iter().find(|s| s.tree == tree_id) else {
                continue;
            };
            let msg = Message::Broadcast {
                app: self.inner.app,
                request: rid,
                tree: tree_id,
                payload: payload.clone(),
            };
            let mut targets: Vec<NodeId> = spec
                .boxes
                .iter()
                .filter(|b| b.parent == Parent::Master && b.expected_sources() > 0)
                .map(|b| b.addr)
                .collect();
            targets.extend(
                spec.direct_workers
                    .iter()
                    .map(|w| crate::tree::worker_addr(self.inner.app, *w)),
            );
            for t in targets {
                self.inner.ctrl.send_to(t, msg.encode())?;
            }
        }
        Ok(())
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
        let repoint = {
            let mut s = self.inner.state.lock();
            let Some(r) = s.core.fanin.child_box_failed(tree, failed_box) else {
                return;
            };
            self.inner.settle(&mut s, &r.closed);
            r
        };
        self.inner.announce_failure(tree, failed_box, &repoint);
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
        s.timer.rearm(&self.timer, s.core.fanin.next_deadline());
    }

    /// After a re-point or a bypass, still under the lock: refresh the
    /// ledger gauges and hand the requests it completed to their waiters.
    fn settle(&self, s: &mut Guarded, closed: &[RequestId]) {
        self.obs.update_ledger_gauges(&s.core);
        self.obs.requests_completed.add(closed.len() as u64);
        if !closed.is_empty() {
            self.cv.wake_all(&mut s.waiters);
        }
    }

    /// The core has moved a failed root box's obligations: audit it, then
    /// tell the box's children — permanently — to send here.
    fn announce_failure(&self, tree: TreeId, failed_box: u32, repoint: &Repoint<RequestId>) {
        let o = &self.obs;
        let repointed = repoint.repointed.len();
        o.repoint_spans(&repoint.repointed);
        // Count the route transition even when no request was in flight,
        // so the audit trail always records the failure.
        o.repoints.add((repointed as u64).max(1));
        o.registry.emit(
            names::EVENT_REPOINT,
            format!(
                "master shim (app {}) re-pointed failed box {} on tree {} \
                 across {} in-flight requests",
                self.app.0, failed_box, tree.0, repointed
            ),
        );
        let (point, to) = ((self.app, tree), self.addr);
        failure::repoint_children(&self.ctrl, &o.registry, point, to, &repoint.children);
    }

    /// Announce one straggler scan's bypasses: a root box contributed
    /// nothing to a request within the threshold, so its children are told
    /// to send that request's data here.
    fn bypass(&self, scan: StragglerScan<TreeId, RequestId>) {
        for b in scan.bypasses {
            self.obs.master_bypasses.inc();
            self.obs.registry.emit_for_request(
                names::EVENT_STRAGGLER,
                format!(
                    "master shim (app {}) bypassed a root box for request {} tree {}",
                    self.app.0, b.request.0, b.point.0
                ),
                b.request.0,
            );
            let msg = Message::Redirect {
                app: self.app,
                permanent: false,
                request: b.request,
                tree: b.point,
                new_parent: self.addr,
            };
            for child in b.children {
                let _ = self.ctrl.send_to(child, msg.encode());
            }
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
            empty_payload: inner.agg.empty_serialized(),
            master_inputs,
            master_input_bytes,
        })
    }

    /// The request this handle tracks.
    pub fn request_id(&self) -> u64 {
        self.request.0
    }
}

/// Record in `part` which sources each box of `box_id`'s subtree is owed
/// for a request only `subset` takes part in: its workers in the subset
/// plus its child boxes with a participating subtree. Boxes nobody
/// participates under get no entry.
fn participants(
    spec: &TreeSpec,
    subset: &HashSet<u32>,
    box_id: u32,
    part: &mut HashMap<u32, Vec<SourceId>>,
) {
    let Some(tb) = spec.tree_box(box_id) else {
        return;
    };
    let workers = tb.worker_children.iter().filter(|w| subset.contains(w));
    let mut sources: Vec<SourceId> = workers.map(|w| SourceId::Worker(*w)).collect();
    for c in &tb.box_children {
        participants(spec, subset, *c, part);
        if part.contains_key(c) {
            sources.push(SourceId::Box(*c));
        }
    }
    if !sources.is_empty() {
        part.insert(box_id, sources);
    }
}

fn reader_loop(inner: &Arc<Inner>, mut conn: Box<dyn Connection>) {
    let o = &inner.obs;
    // Until cancelled, the peer closes, or the transport fails.
    while let Ok(frame) = conn.recv_cancellable(&inner.cancel) {
        let Ok(msg) = Message::decode(frame) else {
            continue;
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
                if app != inner.app {
                    continue;
                }
                o.messages_in.inc();
                o.bytes_in.add(payload.len() as u64);
                // Stitch the final hop: sender stamp → arrival here.
                let hop = o.spans.wire(ctx, request, sent_ns);
                let anchor = || o.anchor(inner.app, request);
                let mut s = inner.state.lock();
                let accepted = s.core.accept_data(
                    request,
                    tree,
                    source,
                    seq,
                    last,
                    payload,
                    Instant::now(),
                    anchor,
                );
                let Some(completed) = accepted else {
                    o.duplicates_dropped.inc();
                    continue;
                };
                if completed {
                    o.requests_completed.inc();
                    inner.cv.wake_all(&mut s.waiters);
                }
                o.update_ledger_gauges(&s.core);
                inner.rearm(&mut s);
                drop(s);
                o.spans.ingest(names::spans::MASTER_RECV, ctx, hop, request);
            }
            Message::HeartbeatAck { from, nonce } => {
                inner.state.lock().core.fanin.detector.ack(from, nonce);
            }
            _ => {}
        }
    }
}

/// The shim's one timer thread: run what the core says is due — the same
/// straggler scan and failure detection the boxes run, on the root's
/// routes — then sleep until its next deadline, a transition that produced
/// an earlier one, or cancellation.
fn timer_loop(inner: &Arc<Inner>) {
    let mut s = inner.state.lock();
    while !inner.cancel.is_cancelled() {
        let fired = s.core.fanin.on_timer(Instant::now());
        if fired.is_empty() {
            let next = s.core.fanin.next_deadline();
            TimerSlot::park(&inner.timer, &mut s, |s| &mut s.timer, next);
            continue;
        }
        // A bypass or a failure may complete requests whose other sources
        // already ended.
        inner.settle(&mut s, &fired.closed());
        drop(s);
        let o = &inner.obs.registry;
        let unsent = failure::announce(&inner.ctrl, o, inner.addr, fired.probes, &fired.dead);
        for (tree, failed_box, repoint) in &fired.failed {
            inner.announce_failure(*tree, *failed_box, repoint);
        }
        fired.scan.into_iter().for_each(|scan| inner.bypass(scan));
        s = inner.state.lock();
        s.core.fanin.detector.unsent(&unsent, Instant::now());
    }
}
