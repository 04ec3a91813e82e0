//! The agg box's protocol state as one plain struct: a [`FanInCore`] for
//! the children it aggregates, each request's local aggregation tree as a
//! [`Reduction`], and the upstream half — where each request's output
//! goes, and a bounded window of what was already emitted so a new parent
//! can be sent it again.
//!
//! Every transition is `&mut self` and queues what it sends in the box's
//! [`Outbox`]; the shell ([`crate::aggbox::runtime`]) runs it under the one
//! `node.core` lock through [`Node`]. The transition that accepts a payload
//! feeds it to the reduction and the one that closes the request ends it,
//! so a close cannot overtake a partial. A transition returns the
//! [`Combine`]s it made ready; their output re-enters as
//! [`BoxCore::combined`], and the one that finishes queues the final chunk.

use crate::aggbox::tree::{Next, Reduction};
use crate::fanin::{Anchors, FanInCore, Request, Route, TraceAnchor};
pub use crate::node::{Emit, OUTBOX_BOUND};
use crate::node::{Node, Outbox, Step};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::runtime::DeploymentConfig;
use crate::tree::{box_addr, Parent, TreeSpec};
use crate::window::RecencyWindow;
use crate::{AggError, DynAggregator};
use bytes::Bytes;
use netagg_net::hash::Map;
use netagg_net::NodeId;
use netagg_obs::trace::TraceCtx;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per fan-in point whose emitted output a box retains for resends.
pub const EMITTED_WINDOW: usize = 64;

/// How long after one streaming-flush pass the next is due.
pub const FLUSH_TICK: Duration = Duration::from_millis(10);

/// A box-side request: `(application, request, tree)`.
pub type ReqKey = (AppId, RequestId, TreeId);

/// A box-side fan-in point: `(application, tree)`.
pub type Point = (AppId, TreeId);

impl From<ReqKey> for RequestId {
    fn from((_, request, _): ReqKey) -> Self {
        request
    }
}

/// One combine task: a batch of a request's items for a pool thread to
/// merge; its output comes back as [`BoxCore::combined`].
pub struct Combine {
    /// The request.
    pub key: ReqKey,
    /// The application's aggregation function.
    pub agg: Arc<dyn DynAggregator>,
    /// The batch, in arrival order.
    pub items: Vec<Bytes>,
    /// The request's trace anchor, which the task's spans parent to.
    pub trace: Option<TraceAnchor>,
}

/// What a box transition hands on beside its completions.
pub enum Work {
    /// A combine to run on the pool.
    Combine(Combine),
    /// A combine failed: the state is gone and nothing went upstream (the
    /// parent times it out). Its trace anchor and the error.
    Failed(ReqKey, Option<TraceAnchor>, AggError),
}

/// What a box transition leaves its shell to act on.
pub type BoxStep = Step<Point, ReqKey>;

/// Box state of one request: its aggregation function, its reduction, the next
/// output sequence number (streaming flushes) and its redirect (a bypass upstream).
pub struct BoxRequest {
    agg: Arc<dyn DynAggregator>,
    /// The request's local aggregation tree.
    pub reduction: Reduction,
    out_seq: u32,
    redirect: Option<NodeId>,
}

/// The box's whole protocol state; see the module docs.
pub struct BoxCore {
    /// This box's global id: the source its output names, the `from` of
    /// its acks. Set by the constructor alone, as is `fanin.addr`.
    id: u32,
    apps: Map<AppId, Arc<dyn DynAggregator>>,
    /// The downstream half: routes, per-request ledgers, the failure and
    /// straggler transitions. Shells call those directly.
    pub fanin: FanInCore<Point, ReqKey, BoxRequest>,
    parents: Map<Point, NodeId>,
    /// Recently emitted output chunks per request, a window per fan-in
    /// point: one tenant's traffic must not evict what another's new
    /// parent will need (redirects arrive per application and tree).
    emitted: Map<Point, RecencyWindow<ReqKey, Vec<Bytes>>>,
    /// Items one combine merges: the local tree's fan-in.
    width: usize,
    /// Buffered bytes from which a flush pass streams a request's partial.
    flush_bytes: usize,
    /// When the next streaming-flush pass is due; `None` = never flushes.
    pub flush_due: Option<Instant>,
    /// What transitions produced and the shell has not yet sent.
    pub outbox: Outbox,
    /// A new request's trace anchor, if it is sampled.
    pub anchor: Anchors,
}

impl BoxCore {
    /// Box `id` of a deployment under `cfg`, with no application yet: its
    /// address, straggler policy, combine width and — when it streams —
    /// the first flush pass, due `now`.
    pub fn new(id: u32, cfg: &DeploymentConfig, now: Instant) -> Self {
        assert!(cfg.fanin >= 2);
        let mut fanin = FanInCore::default();
        (fanin.addr, fanin.straggler) = (box_addr(id), cfg.straggler);
        Self {
            id,
            apps: Map::default(),
            fanin,
            parents: Map::default(),
            emitted: Map::default(),
            width: cfg.fanin,
            flush_bytes: cfg.flush_bytes.unwrap_or(usize::MAX),
            flush_due: cfg.flush_bytes.map(|_| now),
            outbox: Outbox::default(),
            anchor: Box::new(|_, _| None),
        }
    }

    /// Requests whose emitted output the box retains, over every fan-in
    /// point.
    pub fn emitted_len(&self) -> usize {
        self.emitted.values().map(|w| w.iter().count()).sum()
    }

    /// Register an application's aggregation function, and its route and
    /// parent on every tree of `specs` this box is in.
    pub fn add_app(&mut self, app: AppId, agg: Arc<dyn DynAggregator>, specs: &[TreeSpec]) {
        let id = self.id;
        self.apps.insert(app, agg);
        for spec in specs.iter().filter(|s| s.tree_box(id).is_some()) {
            let route = Route::of(spec, app, Parent::Box(id));
            self.add_route(app, spec.tree, spec.parent_addr(app, id), route);
        }
    }

    /// Install routing for one (application, tree): where this box's
    /// output goes (next box or master shim address) and what it owes.
    pub fn add_route(&mut self, app: AppId, tree: TreeId, parent: NodeId, route: Route) {
        self.parents.insert((app, tree), parent);
        self.fanin.install_route((app, tree), route);
    }

    /// The request's state, created `now` on first use; `None` for an unknown
    /// application or route, and for a request that already completed
    /// here (its final output is in the emitted window): every owed source
    /// had ended, so whatever still arrives for it is a replay or a
    /// speculative backup's copy, and a fresh ledger for it would never
    /// close.
    fn open(&mut self, key: ReqKey, now: Instant) -> Option<&mut Request<Point, BoxRequest>> {
        let (apps, emitted, anchor) = (&self.apps, &self.emitted, &self.anchor);
        self.fanin.open(key, [(key.0, key.2)], now, || {
            let window = emitted.get(&(key.0, key.2));
            if window.is_some_and(|w| w.contains(&key)) {
                return None;
            }
            let (agg, reduction, out_seq) = (apps.get(&key.0)?.clone(), Reduction::default(), 0);
            let q = BoxRequest {
                agg,
                reduction,
                out_seq,
                redirect: None,
            };
            Some((q, anchor(key.0, key.1)))
        })
    }

    /// Feed one input to a request's reduction and act on what it leaves:
    /// the combine it made ready, the partial a flush pass took (numbered
    /// and queued), or the request's completion (reported with its start).
    /// A request that is gone (failed, or dropped at shutdown) takes
    /// nothing.
    fn reduce(
        &mut self,
        key: ReqKey,
        step: &mut BoxStep,
        input: impl FnOnce(&mut Reduction, usize) -> Next,
    ) {
        let Some(q) = self.fanin.requests.get_mut(&key) else {
            return;
        };
        match input(&mut q.ext.reduction, self.width) {
            Next::Wait => {}
            Next::Combine(items) => {
                let (agg, trace) = (q.ext.agg.clone(), q.trace);
                let c = Combine {
                    key,
                    agg,
                    items,
                    trace,
                };
                step.work.push(Work::Combine(c));
            }
            Next::Partial(chunk) => {
                let (seq, trace) = (q.ext.out_seq, q.trace);
                q.ext.out_seq += 1;
                self.emitted(key).push(chunk.clone());
                let (to, msg) = (self.dest(&key), self.data(key, seq, false, chunk));
                self.outbox.post(to.map(|to| Emit { to, msg, trace }));
            }
            Next::Done(item) => {
                let payload = item.unwrap_or_else(|| q.ext.agg.empty_serialized());
                let started = self.complete(key, payload);
                step.completed.push((key, started));
            }
        }
    }

    /// The input of requests just closed (every owed source ended) ends:
    /// their last combines, or their completions.
    pub fn end(&mut self, keys: impl IntoIterator<Item = ReqKey>) -> BoxStep {
        let mut step = BoxStep::default();
        for key in keys {
            self.reduce(key, &mut step, Reduction::end);
        }
        step
    }

    /// A combine of `key` came back with `out`: the next combine, or the
    /// request's completion. A failure (a partial that does not decode, a
    /// function that panicked) drops the state as a completion would.
    pub fn combined(&mut self, key: ReqKey, out: Result<Bytes, AggError>) -> BoxStep {
        let mut step = BoxStep::default();
        match out {
            Ok(item) => self.reduce(key, &mut step, |r, fanin| r.combined(item, fanin)),
            Err(e) if self.fanin.requests.contains_key(&key) => {
                let trace = self.abandon(key).and_then(|q| q.trace);
                step.work.push(Work::Failed(key, trace, e));
            }
            Err(_) => {}
        }
        step
    }

    /// The request's emitted chunks, recorded on first use.
    fn emitted(&mut self, key: ReqKey) -> &mut Vec<Bytes> {
        let window = self.emitted.entry((key.0, key.2));
        let window = window.or_insert_with(|| RecencyWindow::new(EMITTED_WINDOW));
        window.entry(key)
    }

    fn dest(&self, key: &ReqKey) -> Option<NodeId> {
        let redirected = self.fanin.requests.get(key).and_then(|q| q.ext.redirect);
        redirected.or_else(|| self.parents.get(&(key.0, key.2)).copied())
    }

    /// Output chunk `seq` of a request, as this box sends it.
    fn data(&self, (app, request, tree): ReqKey, seq: u32, last: bool, payload: Bytes) -> Message {
        let (source, ctx, sent_ns) = (SourceId::Box(self.id), TraceCtx::NONE, 0);
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
        }
    }

    /// Drop an unfinished request's state (its combine failed, or it was
    /// reaped) and record its key in the emitted window, with no output:
    /// whatever still arrives for it cannot re-open it, and a partial it
    /// streamed is never resent as its final chunk.
    fn abandon(&mut self, key: ReqKey) -> Option<Request<Point, BoxRequest>> {
        self.emitted(key).clear();
        self.fanin.requests.remove(&key)
    }

    /// A request's local aggregation finished with `payload`: retain it
    /// for resends, drop the request's state and queue the final chunk
    /// for its destination — one transition, so a re-point arriving before
    /// it sees live state (and leaves the final chunk to this path, which
    /// then reads the new parent) and one arriving after it finds the
    /// request fully recorded. Either way exactly one `last` reaches a live
    /// parent. Returns when the request's first data arrived here.
    pub fn complete(&mut self, key: ReqKey, payload: Bytes) -> Option<Instant> {
        let to = self.dest(&key);
        let state = self.fanin.requests.remove(&key);
        self.emitted(key).push(payload.clone());
        let (seq, started, trace) =
            state.map_or((0, None, None), |q| (q.ext.out_seq, q.started, q.trace));
        let msg = self.data(key, seq, true, payload);
        self.outbox.post(to.map(|to| Emit { to, msg, trace }));
        started
    }

    /// Stream partial aggregates upstream: every open request buffering at
    /// least `flush_bytes` gives up its reduction so far, or starts the
    /// combine that lets a later pass take it. Taking inside the transition
    /// keeps a flushed chunk ordered before the request's completion.
    pub fn flush(&mut self) -> Vec<Work> {
        let open = self.fanin.requests.iter().filter(|(_, q)| !q.closed);
        let due = open.filter(|(_, q)| q.ext.reduction.bytes() >= self.flush_bytes);
        let mut keys: Vec<ReqKey> = due.map(|(key, _)| *key).collect();
        keys.sort_unstable();
        let mut step = BoxStep::default();
        for key in keys {
            self.reduce(key, &mut step, |r, _| r.take_partial());
        }
        step.work
    }

    /// This box's output was redirected. Permanent (the detector's
    /// re-point: the old parent is dead, and whatever it was sent died
    /// with it — the workers behind this box will not replay it, the box
    /// absorbed their partials): adopt the new parent and resend the whole
    /// retained window of that tree. Per request (a straggler bypass
    /// upstream): the request, opened `now` if new here, keeps the override;
    /// resend its output if it already left. Resent chunks are queued under
    /// their sequence numbers; `last` only on a finished request's final one
    /// — for a still-open request the real final chunk follows under the next
    /// number, and a premature `last` would close the source upstream.
    /// Upstream dedups overlap by per-source sequence numbers and the
    /// master's delivered-id memory.
    pub fn redirect(
        &mut self,
        app: AppId,
        permanent: bool,
        request: RequestId,
        tree: TreeId,
        new_parent: NodeId,
        now: Instant,
    ) {
        let keys: Vec<ReqKey> = if permanent {
            if let Some(parent) = self.parents.get_mut(&(app, tree)) {
                *parent = new_parent;
            }
            let retained = self.emitted.get(&(app, tree)).into_iter();
            retained.flat_map(|w| w.iter()).map(|(k, _)| *k).collect()
        } else {
            if let Some(q) = self.open((app, request, tree), now) {
                q.ext.redirect = Some(new_parent);
            }
            vec![(app, request, tree)]
        };
        for key in keys {
            let window = self.emitted.get(&(app, tree));
            let Some(chunks) = window.and_then(|w| w.get(&key)) else {
                continue;
            };
            // Live state whose next sequence number covers the window has
            // only flushed so far; its final chunk is still to come.
            let open = self.fanin.requests.get(&key);
            let finished = open.is_none_or(|q| chunks.len() as u32 > q.ext.out_seq);
            for (i, chunk) in chunks.iter().enumerate() {
                let last = finished && i + 1 == chunks.len();
                let resend = self.data(key, i as u32, last, chunk.clone());
                self.outbox.post([(new_parent, resend)]);
            }
        }
    }
}

impl Node for BoxCore {
    type Report = BoxStep;
    const TIMER: bool = true;

    /// Data enters its request's reduction, a probe is answered, a
    /// redirect or a broadcast queues what it sends.
    fn on_message(&mut self, msg: Message, now: Instant) -> Self::Report {
        let mut step = Step::default();
        match msg {
            Message::Data {
                app,
                request,
                tree,
                source,
                seq,
                last,
                payload,
                ..
            } => {
                let key = (app, request, tree);
                let q = self.open(key, now);
                let took = q.and_then(|q| q.accept_chunk((app, tree), source, seq, last, now));
                let Some((_, closes, gap)) = took else {
                    // Unknown route, duplicate, re-pointed-away source,
                    // request already closed.
                    step.dropped = true;
                    return step;
                };
                if !payload.is_empty() {
                    let raw = !source.folded(seq, last);
                    self.reduce(key, &mut step, |r, fanin| r.push(payload, raw, fanin));
                }
                if closes {
                    step.closed = Some(key);
                    self.reduce(key, &mut step, Reduction::end);
                }
                if gap {
                    step.gaps.push((key, source));
                }
            }
            // The master named the sources of a subset request.
            Message::RequestMeta {
                app,
                request,
                tree,
                sources,
                ..
            } => {
                let key = (app, request, tree);
                let owed = sources.into_iter().map(|s| ((app, tree), s));
                if self.open(key, now).is_some() && self.fanin.set_requirement(&key, owed) {
                    step.closed = Some(key);
                    self.reduce(key, &mut step, Reduction::end);
                }
            }
            Message::Redirect {
                app,
                permanent,
                request,
                tree,
                new_parent,
            } => self.redirect(app, permanent, request, tree, new_parent, now),
            Message::Broadcast {
                app,
                request,
                tree,
                payload,
            } => {
                // Replicated down the tree over the box's high-bandwidth
                // link, which is the point of on-path distribution.
                let copies = self.fanin.broadcast((app, tree), request, payload);
                self.outbox.post(copies);
            }
            Message::Heartbeat { from, nonce } => {
                let ack = Message::HeartbeatAck {
                    from: self.id,
                    nonce,
                };
                self.outbox.post([(from, ack)]);
            }
            Message::HeartbeatAck { from, nonce } => self.fanin.detector.ack(from, nonce),
        }
        step
    }

    /// A [`BoxCore::flush`] pass one [`FLUSH_TICK`] after the last, then
    /// the fan-in half's timers — with the ack time-outs due excused while
    /// the box is backlogged (its reader, which reads the acks, is held
    /// back) — ending the input of the requests they closed.
    fn on_timer(&mut self, now: Instant) -> Self::Report {
        if self.outbox.backlogged() {
            self.fanin.detector.excuse(now);
        }
        let mut step = BoxStep::default();
        if self.flush_due.is_some_and(|t| t <= now) {
            self.flush_due = Some(now + FLUSH_TICK);
            step.work = self.flush();
        }
        let mut fired = self.fanin.on_timer(now);
        self.outbox.post(fired.take_sends());
        for (key, _) in &fired.reaped {
            self.abandon(*key);
        }
        for key in fired.closed() {
            self.reduce(key, &mut step, Reduction::end);
        }
        step.fired = Some(fired);
        step
    }

    fn send_failed(&mut self, to: NodeId, msg: &Message) {
        self.fanin.detector.send_failed(to, msg);
    }

    /// A flush pass while the box streams and a request is open, else what
    /// its fan-in half is waiting for.
    fn next_deadline(&self) -> Option<Instant> {
        let open = || self.fanin.requests.values().any(|q| !q.closed);
        let flush = self.flush_due.filter(|_| open());
        flush.into_iter().chain(self.fanin.next_deadline()).min()
    }

    fn outbox(&mut self) -> &mut Outbox {
        &mut self.outbox
    }

    /// Every request still open, combining or not, never completes.
    fn teardown(&mut self) -> Vec<(RequestId, TraceAnchor)> {
        let open = self.fanin.requests.drain();
        open.filter_map(|((_, r, _), q)| Some((r, q.trace?)))
            .collect()
    }
}
