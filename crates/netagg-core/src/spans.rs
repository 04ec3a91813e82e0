//! Span-recording glue shared by the threaded shells (DESIGN.md §11): one
//! component label per shell, the hop-stitching pair every receiver
//! records, the root-attached context replayed chunks travel under, and
//! the audit of a re-point and of a timer firing.

use crate::fanin::{Fired, Point, TraceAnchor};
use crate::protocol::{AppId, Message, RequestId, SourceId};
use crate::tree::box_addr;
use netagg_net::NodeId;
use netagg_obs::trace::{self, TraceCtx, TraceRecorder};
use netagg_obs::{names, MetricsRegistry};
use std::sync::Arc;

/// An inbound hop: see [`Spans::wire`].
pub type Hop = (TraceCtx, RequestId, Option<(u64, u64)>);

/// A shell's handle on the deployment's span recorder.
pub(crate) struct Spans {
    pub tracer: Arc<TraceRecorder>,
    /// Component label on every span recorded here, e.g. `aggbox-2`.
    component: String,
}

impl Spans {
    pub fn new(registry: &MetricsRegistry, component: String) -> Self {
        Self {
            tracer: registry.tracer(),
            component,
        }
    }

    /// Record one span of `request`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &'static str,
        trace_id: u64,
        span_id: u64,
        parent: u64,
        request: RequestId,
        start_ns: u64,
        end_ns: u64,
    ) {
        let who = &self.component;
        self.tracer.record_span(
            name, who, trace_id, span_id, parent, request.0, start_ns, end_ns,
        );
    }

    /// Stitch the hop of an inbound `Data` (`None` for any other
    /// message): the sender's ctx parents a wire-transfer span (sender
    /// stamp → arrival). Returns the ctx, the request and — traced — that
    /// span's id and the arrival time, for [`Spans::ingest`].
    pub fn wire(&self, msg: &Message) -> Option<Hop> {
        let &Message::Data {
            request,
            ctx,
            sent_ns,
            ..
        } = msg
        else {
            return None;
        };
        let traced = (ctx.is_active() && self.tracer.enabled()).then(|| {
            let (name, now) = (names::spans::WIRE_TRANSFER, trace::now_ns());
            let (wire, parent) = (self.tracer.next_span_id(), ctx.parent_span_id);
            let start = sent_ns.min(now);
            self.record(name, ctx.trace_id, wire, parent, request, start, now);
            (wire, now)
        });
        Some((ctx, request, traced))
    }

    /// The ingest span of an accepted chunk: arrival → hand-off done
    /// (dropped chunks keep only the wire-transfer span).
    pub fn ingest(&self, name: &'static str, hop: Option<Hop>) {
        if let Some((ctx, r, Some((wire, start)))) = hop {
            let id = self.tracer.next_span_id();
            self.record(name, ctx.trace_id, id, wire, r, start, trace::now_ns());
        }
    }

    /// Open an outbound hop in trace `trace_id` (`None`: not traced): the
    /// ctx the frame carries, parented to a fresh send-span id, and the
    /// send stamp — taken here, at message construction, so the receiver's
    /// wire-transfer span also covers time spent queued before the socket.
    pub fn outbound(&self, trace_id: Option<u64>) -> (TraceCtx, u64) {
        let Some(trace_id) = trace_id else {
            return (TraceCtx::NONE, 0);
        };
        let parent_span_id = self.tracer.next_span_id();
        let ctx = TraceCtx {
            trace_id,
            parent_span_id,
        };
        (ctx, trace::now_ns())
    }

    /// Close an outbound hop: its send span `name`, stamp → now, under
    /// `parent`.
    pub fn sent(&self, name: &'static str, ctx: TraceCtx, parent: u64, r: RequestId, sent_ns: u64) {
        if ctx.is_active() {
            let (tid, id) = (ctx.trace_id, ctx.parent_span_id);
            self.record(name, tid, id, parent, r, sent_ns, trace::now_ns());
        }
    }

    /// The context of a frame that attaches directly below the request's
    /// root span (whose id is the trace id): replayed chunks, whose
    /// original hop is gone, and the master's request metadata.
    pub fn root_ctx(&self, app: AppId, request: RequestId) -> TraceCtx {
        if !self.tracer.sampled(request.0) {
            return TraceCtx::NONE;
        }
        let tid = trace::trace_id(app.0, request.0);
        TraceCtx {
            trace_id: tid,
            parent_span_id: tid,
        }
    }

    /// The anchor of a sampled request at its root, whose span id is the
    /// trace id itself (DESIGN.md §11): the master's request span, and the
    /// parent of a worker's send spans. It starts at `start_ns()`.
    pub fn anchor(
        &self,
        app: AppId,
        request: RequestId,
        start_ns: impl FnOnce() -> u64,
    ) -> Option<TraceAnchor> {
        self.tracer.sampled(request.0).then(|| {
            let trace_id = trace::trace_id(app.0, request.0);
            let (span_id, start_ns) = (trace_id, start_ns());
            TraceAnchor {
                trace_id,
                span_id,
                start_ns,
            }
        })
    }

    /// Audit one timer firing at the node `who` (address `here`, serving
    /// `app` where a point names none): count every child box its detector
    /// declared dead, and for every re-point — the detector's, a straggler
    /// escalation's — mark the adoption with span `name` inside each moved
    /// request's trace (the stitched tree shows where obligations moved),
    /// count it in `counter` (once even with no request in flight, so the
    /// trail always records the failure) and emit the `repoint` event.
    /// Bypasses are the node's own to word.
    pub fn fired<P: Point, R: Copy + Into<RequestId>>(
        &self,
        obs: &MetricsRegistry,
        (name, counter): (&'static str, &'static str),
        (who, here, app): (&str, NodeId, AppId),
        fired: &Fired<P, R>,
    ) {
        for b in &fired.dead {
            obs.counter(names::FAILURE_DETECTIONS).inc();
            let addr = box_addr(*b);
            let detail = format!("detector at {here} declared box {b} (addr {addr}) failed");
            obs.emit(names::EVENT_FAILURE, detail);
        }
        let escalated = fired.scan.iter().flat_map(|s| &s.escalated);
        for (point, failed_box, repoint) in fired.failed.iter().chain(escalated) {
            let (now, n) = (trace::now_ns(), repoint.repointed.len());
            let traced = repoint
                .repointed
                .iter()
                .filter_map(|(r, t)| Some((*r, (*t)?)));
            for (r, t) in traced {
                let id = self.tracer.next_span_id();
                self.record(name, t.trace_id, id, t.span_id, r.into(), now, now);
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
    }

    /// Audit chunks this node accepted past a sequence gap (§8): the ones
    /// skipped were lost on the way.
    pub fn gapped<R: Copy + Into<RequestId>>(&self, obs: &MetricsRegistry, gaps: &[(R, SourceId)]) {
        for &(r, source) in gaps {
            obs.counter(names::FAILURE_SEQ_GAPS).inc();
            let (who, r) = (&self.component, r.into().0);
            let detail = format!("{who} took request {r} from {source:?} past a gap");
            obs.emit(names::EVENT_FAILURE, detail);
        }
    }
}
