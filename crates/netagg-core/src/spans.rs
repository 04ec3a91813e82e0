//! Span-recording glue shared by the threaded shells (DESIGN.md §11): one
//! component label per shell, the hop-stitching pair every receiver
//! records, and the root-attached context replayed chunks travel under.

use crate::protocol::{AppId, RequestId};
use netagg_obs::trace::{self, TraceCtx, TraceRecorder};
use netagg_obs::{names, MetricsRegistry};
use std::sync::Arc;

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

    /// Stitch an inbound hop: the sender's ctx parents a wire-transfer
    /// span (sender stamp → arrival). Returns that span's id and the
    /// arrival time, for [`Spans::ingest`] to hang the receive work off.
    pub fn wire(&self, ctx: TraceCtx, request: RequestId, sent_ns: u64) -> Option<(u64, u64)> {
        (ctx.is_active() && self.tracer.enabled()).then(|| {
            let (name, now) = (names::spans::WIRE_TRANSFER, trace::now_ns());
            let (wire, parent) = (self.tracer.next_span_id(), ctx.parent_span_id);
            self.record(
                name,
                ctx.trace_id,
                wire,
                parent,
                request,
                sent_ns.min(now),
                now,
            );
            (wire, now)
        })
    }

    /// The ingest span of an accepted chunk: arrival → hand-off done
    /// (dropped chunks keep only the wire-transfer span).
    pub fn ingest(&self, name: &'static str, ctx: TraceCtx, hop: Option<(u64, u64)>, r: RequestId) {
        if let Some((wire, start)) = hop {
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
}
