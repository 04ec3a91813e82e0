//! The one recorder of every node (DESIGN.md §7, §11). The shell drives it
//! at the five points it owns: the reader admitting a message
//! ([`Recorder::admit`]), the end of a transition ([`Report`]: what must
//! be counted before anything leaves, under the lock, and the rest once it
//! is released), a message leaving ([`Recorder::stamp`]), a send's outcome
//! ([`Recorder::sent`]) and teardown ([`Recorder::teardown`]). It reads
//! only the message, the [`Emit`] and the transition's report, under its
//! node kind's [`Names`] ([`BOX`], [`MASTER`], [`WORKER`]): every span,
//! counter and event a node records comes from here.

use crate::aggbox::core::Work;
use crate::fanin::{Fired, Point, TraceAnchor};
use crate::node::{Emit, Step};
use crate::protocol::{AppId, Message, RequestId};
use crate::shim::worker_core::WorkerStep;
use crate::tree::box_addr;
use netagg_net::NodeId;
use netagg_obs::names::{self, spans};
use netagg_obs::trace::{self, TraceCtx, TraceRecorder};
use netagg_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;

/// An inbound hop: the sender's ctx, the request and — traced — the
/// wire-transfer span's id and the arrival time, which the ingest span
/// parents to and starts at.
pub type Hop = (TraceCtx, RequestId, Option<(u64, u64)>);

type Name = Option<&'static str>;
/// A span's trace, own (`None`: fresh) and parent ids.
type Ids = (u64, Option<u64>, u64);
/// A sampled combine's anchor and when it was queued.
type Queued = Option<(TraceAnchor, u64)>;
/// The hop of an arriving message, if it is a `Data`.
type In = Option<Hop>;

/// The names one node kind records under; a node has only what it names.
pub(crate) struct Names {
    /// The label of its spans and events, before the node's ids.
    pub component: &'static str,
    /// Counters: `Data` in, its bytes, `Data` dropped, requests completed,
    /// failed and reaped, failed sends; a worker's redirects, replayed chunks
    /// and broadcasts. A completion's first data in → final chunk queued.
    pub data_in: Name,
    pub bytes_in: Name,
    pub dropped: Name,
    pub completed: Name,
    pub failed: Name,
    pub reaped: Name,
    pub send_errors: Name,
    pub redirects: Name,
    pub resent: Name,
    pub broadcasts: Name,
    pub completed_us: Name,
    /// Spans: an accepted `Data`'s handling, the node's request span, its
    /// own chunk leaving and a replayed one leaving.
    pub recv: Name,
    pub request: Name,
    pub send: Name,
    pub resend: Name,
    /// Whether its request anchor is the trace root (the master's, which a
    /// worker sends under) rather than a span of its own (a box's).
    pub root: bool,
    /// A re-point's mark span and counter; what a bypassed child is, and
    /// the bypass counter.
    pub repoint: Option<(&'static str, &'static str)>,
    pub bypass: Option<(&'static str, &'static str)>,
}

const NONE: Names = Names {
    component: "",
    data_in: None,
    bytes_in: None,
    dropped: None,
    completed: None,
    failed: None,
    reaped: None,
    send_errors: None,
    redirects: None,
    resent: None,
    broadcasts: None,
    completed_us: None,
    recv: None,
    request: None,
    send: None,
    resend: None,
    root: true,
    repoint: None,
    bypass: None,
};

/// An agg box's names.
pub(crate) const BOX: Names = Names {
    component: "aggbox",
    data_in: Some(names::AGGBOX_MESSAGES_IN),
    bytes_in: Some(names::AGGBOX_BYTES_IN),
    dropped: Some(names::AGGBOX_DUPLICATES_DROPPED),
    completed: Some(names::AGGBOX_REQUESTS_COMPLETED),
    failed: Some(names::AGGBOX_REQUESTS_FAILED),
    reaped: Some(names::AGGBOX_REQUESTS_REAPED),
    send_errors: Some(names::AGGBOX_SEND_ERRORS),
    completed_us: Some(names::AGGBOX_REQUEST_AGG_US),
    recv: Some(spans::BOX_RECV),
    request: Some(spans::BOX_REQUEST),
    send: Some(spans::BOX_FORWARD),
    root: false,
    repoint: Some((spans::BOX_REPOINT, names::AGGBOX_REPOINTS)),
    bypass: Some(("child box", names::STRAGGLER_REDIRECTS)),
    ..NONE
};

/// The master shim's names.
pub(crate) const MASTER: Names = Names {
    component: "master",
    data_in: Some(names::SHIM_MASTER_MESSAGES_IN),
    bytes_in: Some(names::SHIM_MASTER_BYTES_IN),
    dropped: Some(names::SHIM_MASTER_DUPLICATES_DROPPED),
    completed: Some(names::SHIM_MASTER_REQUESTS_COMPLETED),
    reaped: Some(names::SHIM_MASTER_REQUESTS_REAPED),
    send_errors: Some(names::SHIM_MASTER_SEND_ERRORS),
    recv: Some(spans::MASTER_RECV),
    request: Some(spans::MASTER_REQUEST),
    repoint: Some((spans::MASTER_REPOINT, names::SHIM_MASTER_REPOINTS)),
    bypass: Some(("root box", names::STRAGGLER_MASTER_BYPASSES)),
    ..NONE
};

/// A worker shim's names.
pub(crate) const WORKER: Names = Names {
    component: "worker",
    send_errors: Some(names::SHIM_WORKER_SEND_ERRORS),
    redirects: Some(names::SHIM_WORKER_REDIRECTS_APPLIED),
    resent: Some(names::SHIM_WORKER_CHUNKS_RESENT),
    broadcasts: Some(names::SHIM_WORKER_BROADCASTS_RECEIVED),
    send: Some(spans::WORKER_SEND),
    resend: Some(spans::WORKER_RESEND),
    ..NONE
};

/// One node's recorder: its names, its counter parts (the node's stats
/// are these; one its kind names none for counts nowhere) and the
/// deployment's span recorder.
pub(crate) struct Recorder {
    names: &'static Names,
    obs: MetricsRegistry,
    tracer: Arc<TraceRecorder>,
    /// The label on every span and event recorded here, e.g. `aggbox-2`,
    /// and on a box's pool-task spans, `aggbox-2-sched`.
    label: String,
    sched: String,
    /// The node's address, and the application it serves where a point
    /// names none (the master's).
    at: (NodeId, AppId),
    pub data_in: Arc<Counter>,
    pub bytes_in: Arc<Counter>,
    pub dropped: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub send_errors: Arc<Counter>,
    pub bypasses: Arc<Counter>,
    pub redirects: Arc<Counter>,
    pub resent: Arc<Counter>,
    pub broadcasts: Arc<Counter>,
    completed_us: Option<Arc<Histogram>>,
}

impl Recorder {
    /// The recorder of node `ids` (its label's suffixes) `at` its address,
    /// serving its application, of the kind `n` names, publishing to `obs`.
    pub fn new(n: &'static Names, obs: &MetricsRegistry, ids: &[u32], at: (NodeId, AppId)) -> Self {
        let part = |name: Name| name.map_or_else(Default::default, |n| obs.counter_part(n));
        let ids: String = ids.iter().map(|id| format!("-{id}")).collect();
        Self {
            names: n,
            obs: obs.clone(),
            tracer: obs.tracer(),
            label: format!("{}{ids}", n.component),
            sched: format!("{}{ids}-sched", n.component),
            at,
            data_in: part(n.data_in),
            bytes_in: part(n.bytes_in),
            dropped: part(n.dropped),
            completed: part(n.completed),
            send_errors: part(n.send_errors),
            bypasses: part(n.bypass.map(|(_, c)| c)),
            redirects: part(n.redirects),
            resent: part(n.resent),
            broadcasts: part(n.broadcasts),
            completed_us: n.completed_us.map(|h| obs.histogram(h)),
        }
    }

    /// Record span `name` of request `r` under `label`: `ids` are its
    /// trace, its own (`None`: a fresh one) and its parent's, `at` its
    /// start and end.
    fn span(&self, (name, label): (&'static str, &str), ids: Ids, r: RequestId, at: [u64; 2]) {
        let (t, (tid, id, parent)) = (&self.tracer, ids);
        let id = id.unwrap_or_else(|| t.next_span_id());
        t.record_span(name, label, tid, id, parent, r.0, at[0], at[1]);
    }

    /// [`Recorder::span`] under this node's label.
    fn record(&self, name: &'static str, ids: Ids, r: RequestId, at: [u64; 2]) {
        self.span((name, &self.label), ids, r, at);
    }

    /// A sampled request's anchor here, starting now: the trace root, or
    /// (a box) a fresh request span below it.
    pub fn anchor(&self, app: AppId, request: RequestId) -> Option<TraceAnchor> {
        anchor(&self.tracer, self.names.root, app, request)
    }

    /// [`Recorder::anchor`] for a core to call on a new request.
    pub fn anchors(&self) -> impl Fn(AppId, RequestId) -> Option<TraceAnchor> + Send + 'static {
        let (tracer, root) = (self.tracer.clone(), self.names.root);
        move |app, request| anchor(&tracer, root, app, request)
    }

    /// Close a request's span, start → now: the root parents to nothing,
    /// a box's request span to the root. Every local span parents to it.
    pub fn close(&self, request: RequestId, t: TraceAnchor) {
        if let Some(name) = self.names.request {
            let root = t.span_id == t.trace_id;
            let parent = if root { 0 } else { t.trace_id };
            let ids = (t.trace_id, Some(t.span_id), parent);
            self.record(name, ids, request, [t.start_ns, trace::now_ns()]);
        }
    }

    /// The reader takes `msg`: count a `Data` and stitch its hop — the
    /// sender's ctx parents a wire-transfer span (sender stamp → arrival).
    pub fn admit(&self, msg: &Message) -> Option<Hop> {
        let Message::Data {
            request: r,
            ctx,
            sent_ns,
            payload,
            ..
        } = msg
        else {
            return None;
        };
        self.data_in.inc();
        self.bytes_in.add(payload.len() as u64);
        let traced = (ctx.is_active() && self.tracer.enabled()).then(|| {
            let (wire, now) = (self.tracer.next_span_id(), trace::now_ns());
            let ids = (ctx.trace_id, Some(wire), ctx.parent_span_id);
            self.record(spans::WIRE_TRANSFER, ids, *r, [(*sent_ns).min(now), now]);
            (wire, now)
        });
        Some((*ctx, *r, traced))
    }

    /// The ingest span of an accepted chunk: arrival → hand-off done
    /// (a dropped chunk keeps only its wire-transfer span).
    pub fn ingest(&self, hop: Option<Hop>) {
        if let (Some(name), Some((ctx, r, Some((wire, start))))) = (self.names.recv, hop) {
            let now = trace::now_ns();
            self.record(name, (ctx.trace_id, None, wire), r, [start, now]);
        }
    }

    /// Stamp `e`'s trace context as it leaves: the node's own sampled
    /// chunk under a fresh send span (a box's final chunk closes its
    /// request span); a replayed one, its original hop gone, under a fresh
    /// resend span where the kind records one, else at the trace root; a
    /// `RequestMeta` at the root.
    pub fn stamp(&self, e: &mut Emit) {
        if let Message::RequestMeta {
            app,
            request: r,
            ctx,
            ..
        } = &mut e.msg
        {
            *ctx = self.root_ctx(*app, *r);
        }
        let last = matches!(e.msg, Message::Data { last: true, .. });
        let Some((app, request, ctx, sent_ns)) = e.msg.trace_mut() else {
            return;
        };
        let trace_id = match (e.trace, self.names.resend) {
            (Some(t), _) => Some(t.trace_id),
            (None, Some(_)) => self.anchor(app, request).map(|t| t.trace_id),
            (None, None) => {
                *ctx = self.root_ctx(app, request);
                *sent_ns = if ctx.is_active() { trace::now_ns() } else { 0 };
                return;
            }
        };
        if let Some(trace_id) = trace_id {
            (ctx.trace_id, ctx.parent_span_id) = (trace_id, self.tracer.next_span_id());
            *sent_ns = trace::now_ns();
        }
        if let (true, Some(t)) = (last, e.trace) {
            self.close(request, t);
        }
    }

    /// `e` left, or (`ok == false`) could not be sent: close its send (or
    /// resend) span stamp → now, under the anchor (or the root); count a
    /// permanent re-point that left, and a send that failed (a failed
    /// probe or ack the core counts as missed).
    pub fn sent(&self, e: &mut Emit, ok: bool) {
        let (send, resend) = (self.names.send, self.names.resend);
        let name = if e.trace.is_some() { send } else { resend };
        if let (Some(name), Some((_, r, ctx, sent_ns))) = (name, e.msg.trace_mut()) {
            if ctx.is_active() {
                let parent = e.trace.map_or(ctx.trace_id, |t| t.span_id);
                let ids = (ctx.trace_id, Some(ctx.parent_span_id), parent);
                self.record(name, ids, r, [*sent_ns, trace::now_ns()]);
            }
        }
        match (ok, &e.msg) {
            (true, Message::Redirect { permanent, .. }) if *permanent => {
                self.obs.counter(names::FAILURE_REPOINTS).inc();
            }
            (false, msg) if !msg.is_liveness() => self.send_errors.inc(),
            _ => {}
        }
    }

    /// Once the node's threads are joined: close the spans of the requests
    /// its core left open, so a node killed mid-request still leaves one
    /// connected trace tree.
    pub fn teardown(&self, open: Vec<(RequestId, TraceAnchor)>) {
        open.into_iter().for_each(|(r, t)| self.close(r, t));
    }

    /// When a combine of a sampled request was queued on the pool.
    pub fn queued(&self, trace: Option<TraceAnchor>) -> Queued {
        trace.map(|t| (t, trace::now_ns()))
    }

    /// Run a pool task's combine under its queue-wait and combine spans,
    /// labelled `<label>-sched`.
    pub fn combine<T>(&self, queued: Queued, r: RequestId, run: impl FnOnce() -> T) -> T {
        let start = queued.map(|_| trace::now_ns());
        let out = run();
        if let (Some((t, queued)), Some(start)) = (queued, start) {
            let (wait, combine) = ([queued, start], [start, trace::now_ns()]);
            for (name, at) in [(spans::BOX_QUEUE_WAIT, wait), (spans::BOX_COMBINE, combine)] {
                self.span((name, &self.sched), (t.trace_id, None, t.span_id), r, at);
            }
        }
        out
    }

    /// The context of a frame that attaches directly below the request's
    /// root span (whose id is the trace id).
    fn root_ctx(&self, app: AppId, request: RequestId) -> TraceCtx {
        let Some(TraceAnchor { trace_id, .. }) = self.anchor(app, request) else {
            return TraceCtx::NONE;
        };
        TraceCtx {
            trace_id,
            parent_span_id: trace_id,
        }
    }

    /// Audit what a fan-in transition did: chunks taken past a sequence
    /// gap (§8), a dropped `Data`, a timer firing, a failed request.
    fn step<P: Point, R: Copy + Into<RequestId>>(&self, hop: In, s: &Step<P, R>) -> In {
        let (obs, who) = (&self.obs, &self.label);
        for &(r, source) in &s.gaps {
            obs.counter(names::FAILURE_SEQ_GAPS).inc();
            let r = r.into().0;
            let detail = format!("{who} took request {r} from {source:?} past a gap");
            obs.emit(names::EVENT_FAILURE, detail);
        }
        if s.dropped {
            self.dropped.inc();
            return None;
        }
        s.fired.iter().for_each(|f| self.fired(f));
        for w in &s.work {
            let Work::Failed((app, request, tree), trace, e) = w else {
                continue;
            };
            trace.iter().for_each(|t| self.close(*request, *t));
            self.names.failed.iter().for_each(|n| obs.counter(n).inc());
            let (r, app, tree) = (request.0, app.0, tree.0);
            let detail = format!("{who} dropped request {r} of app {app} tree {tree}: {e}");
            obs.emit(names::EVENT_FAILURE, detail);
        }
        hop
    }

    /// Audit one timer firing: count the requests it reaped, closing their
    /// spans as teardown does, and every child box its detector declared dead;
    /// for every re-point — the detector's, a straggler escalation's — mark
    /// the adoption inside each moved request's trace (the stitched tree
    /// shows where obligations moved), count it (once even with no request
    /// in flight, so the trail always records the failure) and emit the
    /// `repoint` event; count and tell every bypass.
    fn fired<P: Point, R: Copy + Into<RequestId>>(&self, fired: &Fired<P, R>) {
        let (obs, who, (here, app)) = (&self.obs, &self.label, self.at);
        for (r, t) in &fired.reaped {
            self.names.reaped.iter().for_each(|c| obs.counter(c).inc());
            t.iter().for_each(|t| self.close((*r).into(), *t));
        }
        for b in &fired.dead {
            obs.counter(names::FAILURE_DETECTIONS).inc();
            let addr = box_addr(*b);
            let detail = format!("detector at {here} declared box {b} (addr {addr}) failed");
            obs.emit(names::EVENT_FAILURE, detail);
        }
        let escalated = fired.scan.iter().flat_map(|s| &s.escalated);
        for (point, failed_box, repoint) in fired.failed.iter().chain(escalated) {
            let Some((mark, counter)) = self.names.repoint else {
                break;
            };
            let (now, n) = (trace::now_ns(), repoint.repointed.len());
            let traced = repoint
                .repointed
                .iter()
                .filter_map(|(r, t)| Some((*r, (*t)?)));
            for (r, t) in traced {
                self.record(mark, (t.trace_id, None, t.span_id), r.into(), [now, now]);
            }
            obs.counter(counter).add((n as u64).max(1));
            let (app, tree) = point.ids(app);
            let (app, tree) = (app.0, tree.0);
            let detail = format!(
                "{who} re-pointed failed child box {failed_box} for app {app} tree {tree} \
                 ({n} in-flight requests moved)"
            );
            obs.emit(names::EVENT_REPOINT, detail);
        }
        // A request had data from some sources but a child box contributed
        // nothing within the threshold: its children were told to send this
        // request's data here — for good once the box straggled too often
        // (Section 3.1), and future requests no longer expect it.
        for b in fired.scan.iter().flat_map(|s| &s.bypasses) {
            let Some((child, _)) = self.names.bypass else {
                break;
            };
            self.bypasses.inc();
            let mut note = "";
            if b.permanent {
                obs.counter(names::STRAGGLER_ESCALATIONS).inc();
                note = " (escalated to permanent)";
            }
            let (app, tree) = b.point.ids(app);
            let (r, id, app, tree) = (b.request.into().0, b.box_id, app.0, tree.0);
            let detail =
                format!("{who} bypassed {child} {id} for app {app} request {r} tree {tree}{note}");
            obs.emit_for_request(names::EVENT_STRAGGLER, detail, r);
        }
    }
}

/// A sampled request's anchor, starting now; see [`Recorder::anchor`].
fn anchor(tracer: &TraceRecorder, root: bool, app: AppId, r: RequestId) -> Option<TraceAnchor> {
    tracer.sampled(r.0).then(|| {
        let (trace_id, start_ns) = (trace::trace_id(app.0, r.0), trace::now_ns());
        let fresh = || tracer.next_span_id();
        let span_id = if root { trace_id } else { fresh() };
        TraceAnchor {
            trace_id,
            span_id,
            start_ns,
        }
    })
}

/// What the recorder reads off a transition's report: a fan-in core's
/// [`Step`], the worker's [`WorkerStep`].
pub(crate) trait Report {
    /// A timer firing that found nothing: nothing to record or hand on.
    fn idle(&self) -> bool;
    /// Under the lock, before anything the transition queued can leave or
    /// a waiter wake: what must be counted first, so whoever saw its
    /// effect finds the counter already up.
    fn settled(&self, rec: &Recorder);
    /// Once the lock is released: record the rest. Returns the arriving
    /// hop, whose ingest span closes once the hook handed on what is left.
    fn record(&self, rec: &Recorder, hop: In) -> In;
}

impl<P: Point, R: Copy + Into<RequestId>> Report for Step<P, R> {
    fn idle(&self) -> bool {
        self.fired.as_ref().is_some_and(Fired::is_empty) && self.work.is_empty()
    }
    /// A completion, before its final chunk leaves or its waiter wakes.
    fn settled(&self, rec: &Recorder) {
        for (_, started) in self.completed.iter() {
            rec.completed.inc();
            if let (Some(h), Some(t)) = (&rec.completed_us, started) {
                h.record_duration(t.elapsed());
            }
        }
    }
    fn record(&self, rec: &Recorder, hop: In) -> In {
        rec.step(hop, self)
    }
}

impl Report for WorkerStep {
    fn idle(&self) -> bool {
        *self == WorkerStep::Idle
    }
    /// A redirect's replay, before it can arrive.
    fn settled(&self, rec: &Recorder) {
        if let WorkerStep::Redirected(n) = *self {
            rec.redirects.inc();
            rec.resent.add(n as u64);
        }
    }
    fn record(&self, rec: &Recorder, _: In) -> In {
        if let WorkerStep::Broadcast(..) = self {
            rec.broadcasts.inc();
        }
        None
    }
}
