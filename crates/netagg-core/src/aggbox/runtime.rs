//! The agg box runtime: [`BoxCore`] in the node `Shell` (`shell.rs`).
//!
//! One `AggBox` hosts the aggregation functions of many applications. Its
//! one reader feeds every connection's frames to the core; the combines a
//! transition made ready go to the box's cooperative [`TaskScheduler`]
//! once the lock is released. A pool thread merges, feeds the output back
//! into the core and sends what that queued. The reader never sends: the
//! timer thread sends its posts and acks, and runs what the core's
//! deadlines make due. While the outbox or the pool's queue is over its
//! bound, the reader holds a connection's `Data` back (DESIGN.md §9).
//! The box counts each event once, into its [`BoxStats`] part of the
//! registry's total; its shutdown closes the spans of requests left open.

use crate::aggbox::core::{BoxCore, BoxStep, Combine, Point, ReqKey, Work, OUTBOX_BOUND};
use crate::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use crate::aggbox::tree::combine;
use crate::failure::DetectorConfig;
use crate::fanin::{Fired, Route, TraceAnchor};
use crate::lifecycle::Readiness;
use crate::node::Emit;
use crate::protocol::{AppId, Message, RequestId, TreeId};
use crate::shell::{Outlet, Shell, State};
use crate::spans::{Hop, Spans};
use crate::straggler::StragglerPolicy;
use crate::{AggError, DynAggregator};
use netagg_net::{NetError, NodeId, Transport};
use netagg_obs::trace;
use netagg_obs::{names, Counter, Histogram, MetricsRegistry};
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

/// The box's own counters, each its part of the registry counter named
/// beside it: the box reads its events, the registry their sum over boxes.
#[derive(Debug)]
pub struct BoxStats {
    /// Payload bytes received (`aggbox.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// `Data` messages received (`aggbox.messages_in`).
    pub messages_in: Arc<Counter>,
    /// Requests whose final aggregate was forwarded (`aggbox.requests_completed`).
    pub requests_completed: Arc<Counter>,
    /// `Data` the core dropped: unknown route, replayed sequence number,
    /// re-pointed-away source or closed request (`aggbox.duplicates_dropped`).
    pub duplicates_dropped: Arc<Counter>,
    /// Straggler bypasses issued for child boxes (`straggler.redirects`).
    pub straggler_redirects: Arc<Counter>,
    /// Outbox sends that failed (`aggbox.send_errors`).
    pub send_errors: Arc<Counter>,
}

impl BoxStats {
    fn new(obs: &MetricsRegistry) -> Self {
        Self {
            bytes_in: obs.counter_part(names::AGGBOX_BYTES_IN),
            messages_in: obs.counter_part(names::AGGBOX_MESSAGES_IN),
            requests_completed: obs.counter_part(names::AGGBOX_REQUESTS_COMPLETED),
            duplicates_dropped: obs.counter_part(names::AGGBOX_DUPLICATES_DROPPED),
            straggler_redirects: obs.counter_part(names::STRAGGLER_REDIRECTS),
            send_errors: obs.counter_part(names::AGGBOX_SEND_ERRORS),
        }
    }
}

/// Point-in-time view of one agg box's live state (see
/// [`AggBox::snapshot`]; its counters are [`AggBox::stats`]).
#[derive(Debug, Clone)]
pub struct BoxSnapshot {
    /// Global logical id of the box.
    pub box_id: u32,
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

/// The box's part of its shell: configuration, pool, counters and spans
/// (rare paths — failures, escalations, re-points — look their metrics up
/// in the registry).
struct BoxOutlet {
    cfg: AggBoxConfig,
    scheduler: Arc<TaskScheduler>,
    /// What the pool's combines feed their output back into.
    shell: Weak<BoxShell>,
    stats: BoxStats,
    request_agg_us: Arc<Histogram>,
    /// Box-side spans, under the component label `aggbox-<b>`.
    spans: Spans,
    /// Combine-task spans, under the label `aggbox-<b>-sched`.
    task_spans: Spans,
}

type BoxShell = Shell<BoxCore, BoxOutlet>;

/// A running agg box.
pub struct AggBox {
    shell: Arc<BoxShell>,
}

impl AggBox {
    /// Bind the box's address and start its listener, reader and timer
    /// threads.
    pub fn start(transport: Arc<dyn Transport>, cfg: AggBoxConfig) -> Result<Arc<Self>, NetError> {
        let (box_id, addr, obs) = (cfg.box_id, cfg.addr, cfg.obs.clone());
        let (name, threads) = (format!("aggbox-{box_id}"), ["-listen", "-reader"]);
        let shell = Shell::start(transport, addr, name, threads, &obs, |weak, _| {
            let mut core = BoxCore::new(cfg.fanin, cfg.flush_bytes);
            (core.id, core.fanin.addr) = (box_id, addr);
            core.fanin.straggler = cfg.straggler;
            core.flush_due = cfg.flush_bytes.map(|_| Instant::now());
            let o = BoxOutlet::new(cfg, weak.clone());
            // One `span.box.request` per sampled request, parented directly
            // to the trace root (RequestMeta — and hence the master's root
            // span id — may arrive after the first data).
            let tracer = o.spans.tracer.clone();
            core.anchor = Box::new(move |(app, request, _)| {
                tracer.sampled(request.0).then(|| TraceAnchor {
                    trace_id: trace::trace_id(app.0, request.0),
                    span_id: tracer.next_span_id(),
                    start_ns: trace::now_ns(),
                })
            });
            (core, o)
        })?;
        Ok(Arc::new(Self { shell }))
    }

    /// Register an application's aggregation function with a target
    /// resource share.
    pub fn register_app(&self, app: AppId, agg: Arc<dyn DynAggregator>, share: f64) {
        self.shell.hook.scheduler.register_app(app, share);
        self.shell.transition(|core| core.add_app(app, agg));
    }

    /// Install routing for one (application, tree): where this box's
    /// output goes (next box or master shim address) and what it owes.
    pub fn install_route(&self, app: AppId, tree: TreeId, parent: NodeId, route: Route) {
        let add = |core: &mut BoxCore| core.add_route(app, tree, parent, route);
        self.shell.transition(add);
    }

    /// Start heartbeating the child boxes this box's routes name. One
    /// that misses `cfg.misses` acks in a row is failed for good: future
    /// requests expect its children directly, every in-flight ledger moves
    /// the box's obligations onto them, and they are told to re-point here.
    pub fn enable_failure_detection(&self, cfg: DetectorConfig) {
        let now = Instant::now();
        let enable = |core: &mut BoxCore| core.fanin.detector.enable(cfg, now);
        self.shell.transition(enable);
    }

    /// This box's counters: its parts of the registry's totals.
    pub fn stats(&self) -> &BoxStats {
        &self.shell.hook.stats
    }

    /// A point-in-time snapshot of live request state and scheduler
    /// accounting — what a production middlebox would export beside its
    /// [`AggBox::stats`].
    pub fn snapshot(&self) -> BoxSnapshot {
        let (active_requests, buffered_bytes, timer_wakeups) = {
            let s = self.shell.lock();
            let open = s.core.fanin.requests.values();
            let sizes = open.map(|q| q.ext.reduction.bytes());
            let (n, bytes) = sizes.fold((0, 0), |(n, bytes), b| (n + 1, bytes + b));
            (n, bytes, s.wakeups)
        };
        let o = &self.shell.hook;
        BoxSnapshot {
            box_id: o.cfg.box_id,
            active_requests,
            buffered_bytes,
            tasks_queued: o.scheduler.queued(),
            timer_wakeups,
            apps: o.scheduler.cpu_times(),
        }
    }

    /// The box's cooperative task scheduler.
    pub fn scheduler(&self) -> &Arc<TaskScheduler> {
        &self.shell.hook.scheduler
    }

    /// Transport address the box is bound to.
    pub fn addr(&self) -> NodeId {
        self.shell.hook.cfg.addr
    }

    /// Global logical id of the box.
    pub fn box_id(&self) -> u32 {
        self.shell.hook.cfg.box_id
    }

    /// Stop all threads: cancel the box's token (waking the blocked accept,
    /// the parked reader and the timer sleep immediately), join the scope
    /// under its deadline and close open requests' spans. Idempotent.
    pub fn shutdown(&self) {
        self.shell.shutdown();
        // Not left to the last `Arc<TaskScheduler>`: a pool thread can hold
        // one transiently, and a pool joined from inside itself finishes
        // after this returns. A combine that ends after the teardown finds
        // its request gone, which `BoxCore::combined` ignores.
        self.shell.hook.scheduler.shutdown();
    }
}

impl Drop for AggBox {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl BoxOutlet {
    fn new(cfg: AggBoxConfig, shell: Weak<BoxShell>) -> Self {
        let (registry, id) = (&cfg.obs, cfg.box_id);
        let scheduler = TaskScheduler::new_with_obs(cfg.scheduler.clone(), registry.clone());
        Self {
            scheduler: Arc::new(scheduler),
            shell,
            stats: BoxStats::new(registry),
            request_agg_us: registry.histogram(names::AGGBOX_REQUEST_AGG_US),
            spans: Spans::new(registry, format!("aggbox-{id}")),
            task_spans: Spans::new(registry, format!("aggbox-{id}-sched")),
            cfg,
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

    /// Run one combine on the pool: the pure merge, its queue-wait and
    /// combine spans, then its output back into the core — a transition on
    /// the pool thread, which sends the final chunk it queued and never
    /// waits at the outbox bound.
    fn submit(&self, c: Combine) {
        let (shell, queued) = (self.shell.clone(), c.trace.map(|t| (t, trace::now_ns())));
        let task = move || {
            let Some(shell) = shell.upgrade() else {
                return;
            };
            let start = queued.map(|_| trace::now_ns());
            let out = combine(&*c.agg, c.items);
            if let (Some((t, queued)), Some(start)) = (queued, start) {
                let (wait, run) = (names::spans::BOX_QUEUE_WAIT, names::spans::BOX_COMBINE);
                let spans = &shell.hook.task_spans;
                for (name, from, to) in [(wait, queued, start), (run, start, trace::now_ns())] {
                    let id = spans.tracer.next_span_id();
                    spans.record(name, t.trace_id, id, t.span_id, c.key.1, from, to);
                }
            }
            let mut s = shell.lock();
            let step = s.core.combined(c.key, out);
            // A completion sends its final chunk; other combines post nothing.
            let done = step.work.iter().any(|w| matches!(w, Work::Completed(..)));
            shell.act(s, step, None, done);
        };
        self.scheduler.submit(c.key.0, Box::new(task));
    }

    /// A request's combine failed and the core dropped it: close its span,
    /// count it and say why. The parent times it out.
    fn failed(&self, (app, request, tree): ReqKey, trace: Option<TraceAnchor>, e: AggError) {
        trace.iter().for_each(|t| self.request_span(request, *t));
        self.cfg.obs.counter(names::AGGBOX_REQUESTS_FAILED).inc();
        let id = self.cfg.box_id;
        let detail = format!(
            "box {id} dropped request {} of app {} tree {}: {e}",
            request.0, app.0, tree.0
        );
        self.cfg.obs.emit(names::EVENT_FAILURE, detail);
    }

    /// Audit one timer firing: the detector's verdicts and re-points
    /// (marked inside each moved request's trace, so the stitched tree
    /// shows where obligations moved), and every straggler bypass.
    fn report(&self, fired: &Fired<Point, ReqKey>) {
        let (registry, id) = (&self.cfg.obs, self.cfg.box_id);
        let marks = (names::spans::BOX_REPOINT, names::AGGBOX_REPOINTS);
        // A box's points name their application.
        let who = (&*format!("box {id}"), self.cfg.addr, AppId(0));
        self.spans.fired(registry, marks, who, fired);
        // A request had data from some sources but a child box contributed
        // nothing within the threshold: its children were told to send this
        // request's data here — for good once the box straggled too often
        // (Section 3.1), and future requests no longer expect it.
        for b in fired.scan.iter().flat_map(|s| &s.bypasses) {
            let (app, request, tree) = b.request;
            self.stats.straggler_redirects.inc();
            let mut note = "";
            if b.permanent {
                registry.counter(names::STRAGGLER_ESCALATIONS).inc();
                note = " (escalated to permanent)";
            }
            let detail = format!(
                "box {id} bypassed child box {} for app {} request {} tree {}{note}",
                b.box_id, app.0, request.0, tree.0,
            );
            registry.emit(names::EVENT_STRAGGLER, detail);
        }
    }
}

/// The box's hook: the pool-queue hold, the combines a transition made
/// ready, trace context on its output, and the audit of what its reader,
/// timer and pool did.
impl Outlet<BoxCore> for BoxOutlet {
    /// Backpressure: box-to-box `Data` flows upward only and both queues
    /// drain without the reader, so the holds are acyclic.
    fn hold(&self, core: &BoxCore, ready: &Readiness) -> bool {
        core.outbox.backlogged() || self.scheduler.over(OUTBOX_BOUND, ready)
    }

    /// A child's ack may wait behind the `Data` held back.
    fn excuse(&self, core: &mut BoxCore, now: Instant) {
        core.fanin.detector.excuse(now);
    }

    /// Count `Data`, and stitch its hop: the ingest work hangs off its
    /// wire span.
    fn admit(&self, msg: &Message) -> Option<Hop> {
        if let Message::Data { payload, .. } = msg {
            self.stats.messages_in.inc();
            self.stats.bytes_in.add(payload.len() as u64);
        }
        self.spans.wire(msg)
    }

    /// Count each completion before its final chunk can leave: observers
    /// polling after the master saw the result must find the counter
    /// already incremented.
    fn settle(&self, _: &mut State<BoxCore>, step: &mut BoxStep) -> bool {
        for w in &step.work {
            if let Work::Completed(_, _, started) = w {
                self.stats.requests_completed.inc();
                // First data byte in → final aggregate queued.
                let agg_us = |t0: &Instant| self.request_agg_us.record_duration(t0.elapsed());
                started.iter().for_each(agg_us);
            }
        }
        let idle = step.fired.as_ref().is_some_and(Fired::is_empty);
        !idle || !step.work.is_empty()
    }

    fn then(&self, hop: Option<Hop>, step: BoxStep) {
        self.spans.gapped(&self.cfg.obs, &step.gaps);
        if step.dropped {
            self.stats.duplicates_dropped.inc();
            return;
        }
        step.fired.iter().for_each(|f| self.report(f));
        for w in step.work {
            match w {
                Work::Combine(c) => self.submit(c),
                Work::Failed(key, trace, e) => self.failed(key, trace, e),
                Work::Completed(..) => {}
            }
        }
        self.spans.ingest(names::spans::BOX_RECV, hop);
    }

    /// Stamp a sampled `Data` with its hop's trace context as it leaves:
    /// this box's output under a fresh forward span (the final chunk closes
    /// the box's request span), a resend at the trace root (deterministic
    /// trace id: its original hop is gone).
    fn stamp(&self, e: &mut Emit) {
        let last = matches!(e.msg, Message::Data { last: true, .. });
        if let Some((app, request, ctx, sent_ns)) = e.msg.trace_mut() {
            if let Some(t) = e.trace {
                // The chunk's wire span parents to this box's forward span.
                (*ctx, *sent_ns) = self.spans.outbound(Some(t.trace_id));
                if last {
                    self.request_span(request, t);
                }
            } else {
                *ctx = self.spans.root_ctx(app, request);
                *sent_ns = if ctx.is_active() { trace::now_ns() } else { 0 };
            }
        }
    }

    /// Close the forward span; count a permanent re-point that left, and
    /// a send that failed (a failed probe the core counts as missed).
    fn sent(&self, e: &mut Emit, ok: bool) {
        if let (Some(t), Some((_, request, ctx, sent_ns))) = (e.trace, e.msg.trace_mut()) {
            let name = names::spans::BOX_FORWARD;
            self.spans.sent(name, *ctx, t.span_id, request, *sent_ns);
        }
        match (ok, &e.msg) {
            (true, Message::Redirect { permanent, .. }) if *permanent => {
                self.cfg.obs.counter(names::FAILURE_REPOINTS).inc();
            }
            (false, msg) if !msg.is_liveness() => self.stats.send_errors.inc(),
            _ => {}
        }
    }

    /// Requests still open at teardown never complete, so their box
    /// request span would never be recorded — and the queue-wait / combine
    /// spans parented beneath it would be orphans. Close them start → now,
    /// so a box killed mid-request still leaves one connected trace tree
    /// (DESIGN.md §11).
    fn teardown(&self, core: &mut BoxCore) {
        let open = core.fanin.requests.drain();
        for ((_, request, _), t) in open.filter_map(|(k, q)| Some((k, q.trace?))) {
            self.request_span(request, t);
        }
    }
}
