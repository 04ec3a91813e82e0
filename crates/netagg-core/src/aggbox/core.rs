//! The agg box's protocol state as one plain struct: a [`FanInCore`] for
//! the children it aggregates, plus the upstream half — where each
//! request's output goes, and a bounded window of what was already emitted
//! so a new parent can be sent it again.
//!
//! Every transition is `&mut self` and queues what it puts on the wire in
//! the box's [`Outbox`], output chunks numbered here; the threaded shell
//! ([`crate::aggbox::runtime`]) keeps the struct behind the single
//! `node.core` lock and drives it through [`Node`]. Payloads are handed to
//! the request's [`PartialSink`] *inside* the transition that accepted
//! them, so a close decided there can never overtake a partial still on
//! its way in.

use crate::fanin::{FanInCore, Request, Route, TraceAnchor};
pub use crate::node::{Emit, OUTBOX_BOUND};
use crate::node::{Node, Outbox, Step};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::window::RecencyWindow;
use crate::DynAggregator;
use bytes::Bytes;
use netagg_net::hash::Map;
use netagg_net::NodeId;
use netagg_obs::trace::TraceCtx;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per fan-in point whose emitted output a box retains for resends.
const EMITTED_WINDOW: usize = 64;

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

/// Where a request's accepted partials go (the shell's local aggregation
/// tree). A clone is what the shell closes the input on once the lock is
/// released.
pub trait PartialSink: Clone {
    /// Take one accepted partial.
    fn push(&mut self, payload: Bytes);
    /// The chunk a streaming-flush pass sends upstream now, if any.
    fn take(&mut self) -> Option<Bytes>;
}

/// What builds a new request's sink and trace anchor; `None` declines it.
pub type Sinks<S> =
    Box<dyn FnMut(ReqKey, &Arc<dyn DynAggregator>) -> Option<(S, Option<TraceAnchor>)> + Send>;

/// Shell state of one request: its sink and the next output sequence
/// number (streaming flushes).
#[derive(Debug)]
pub struct BoxRequest<S> {
    /// Where accepted partials go.
    pub sink: S,
    out_seq: u32,
}

/// The box's whole protocol state; see the module docs.
pub struct BoxCore<S> {
    /// This box's global id: the source its output names, the `from` of
    /// its acks.
    pub id: u32,
    apps: Map<AppId, Arc<dyn DynAggregator>>,
    /// The downstream half: routes, per-request ledgers, the failure and
    /// straggler transitions. Shells call those directly.
    pub fanin: FanInCore<Point, ReqKey, BoxRequest<S>>,
    parents: Map<Point, NodeId>,
    /// Per-request output redirections (a straggler bypass upstream).
    redirects: Map<ReqKey, NodeId>,
    /// Recently emitted output chunks per request, a window per fan-in
    /// point: one tenant's traffic must not evict what another's new
    /// parent will need (redirects arrive per application and tree).
    emitted: Map<Point, RecencyWindow<ReqKey, Vec<Bytes>>>,
    /// When the next streaming-flush pass is due; `None` = never flushes.
    pub flush_due: Option<Instant>,
    /// What transitions produced and the shell has not yet sent.
    pub outbox: Outbox,
    sinks: Sinks<S>,
}

impl<S: PartialSink + Default> Default for BoxCore<S> {
    fn default() -> Self {
        Self::new(Box::new(|_, _| Some((S::default(), None))))
    }
}

impl<S: PartialSink> BoxCore<S> {
    /// A box with no application or route yet, building each request's
    /// sink with `sinks`.
    pub fn new(sinks: Sinks<S>) -> Self {
        Self {
            id: 0,
            apps: Map::default(),
            fanin: FanInCore::default(),
            parents: Map::default(),
            redirects: Map::default(),
            emitted: Map::default(),
            flush_due: None,
            outbox: Outbox::default(),
            sinks,
        }
    }

    /// Register an application's aggregation function.
    pub fn add_app(&mut self, app: AppId, agg: Arc<dyn DynAggregator>) {
        self.apps.insert(app, agg);
    }

    /// Install routing for one (application, tree): where this box's
    /// output goes (next box or master shim address) and what it owes.
    pub fn add_route(&mut self, app: AppId, tree: TreeId, parent: NodeId, route: Route) {
        self.parents.insert((app, tree), parent);
        self.fanin.install_route((app, tree), route);
    }

    /// The request's state, created on first use; `None` for an unknown
    /// application or route, and for a request that already completed
    /// here (its final output is in the emitted window): every owed source
    /// had ended, so whatever still arrives for it is a replay or a
    /// speculative backup's copy, and a fresh ledger for it would never
    /// close.
    fn open(&mut self, key: ReqKey) -> Option<&mut Request<Point, BoxRequest<S>>> {
        let (apps, emitted, sinks) = (&self.apps, &self.emitted, &mut self.sinks);
        self.fanin.open(key, [(key.0, key.2)], None, || {
            let window = emitted.get(&(key.0, key.2));
            if window.is_some_and(|w| w.contains(&key)) {
                return None;
            }
            let (sink, trace) = sinks(key, apps.get(&key.0)?)?;
            Some((BoxRequest { sink, out_seq: 0 }, trace))
        })
    }

    /// Sinks of the given (just closed) requests.
    pub fn sinks(&self, keys: &[ReqKey]) -> Vec<S> {
        let found = keys.iter().filter_map(|k| self.fanin.requests.get(k));
        found.map(|q| q.ext.sink.clone()).collect()
    }

    /// The request's emitted chunks, recorded on first use.
    fn emitted(&mut self, key: ReqKey) -> &mut Vec<Bytes> {
        let window = self.emitted.entry((key.0, key.2));
        let window = window.or_insert_with(|| RecencyWindow::new(EMITTED_WINDOW));
        window.entry(key)
    }

    fn dest(&self, key: &ReqKey) -> Option<NodeId> {
        let redirected = self.redirects.get(key);
        redirected
            .or_else(|| self.parents.get(&(key.0, key.2)))
            .copied()
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

    /// Drop a request's state and its redirect, and record its key in the
    /// emitted window: whatever still arrives for it is a replay or a
    /// backup's copy, and cannot re-open it.
    fn close(&mut self, key: ReqKey) -> Option<Request<Point, BoxRequest<S>>> {
        self.emitted(key);
        self.redirects.remove(&key);
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
        let state = self.close(key);
        self.emitted(key).push(payload.clone());
        let (seq, started, trace) =
            state.map_or((0, None, None), |q| (q.ext.out_seq, q.started, q.trace));
        let msg = self.data(key, seq, true, payload);
        self.outbox.post(to.map(|to| Emit { to, msg, trace }));
        started
    }

    /// A request's local aggregation failed (a partial that does not
    /// decode, a combine that panicked): its state goes as on completion,
    /// but nothing goes upstream — the parent times the request out.
    /// Returns its trace anchor.
    pub fn abandon(&mut self, key: ReqKey) -> Option<TraceAnchor> {
        self.close(key).and_then(|q| q.trace)
    }

    /// Stream partial aggregates upstream: every open request's sink is
    /// offered [`PartialSink::take`]. Taking inside the transition keeps a
    /// flushed chunk ordered before the request's completion.
    pub fn flush(&mut self) {
        let mut taken = Vec::new();
        for (key, q) in self.fanin.requests.iter_mut().filter(|(_, q)| !q.closed) {
            let Some(chunk) = q.ext.sink.take() else {
                continue;
            };
            taken.push((*key, q.ext.out_seq, q.trace, chunk));
            q.ext.out_seq += 1;
        }
        for (key, seq, trace, chunk) in taken {
            self.emitted(key).push(chunk.clone());
            let msg = self.data(key, seq, false, chunk);
            let to = self.dest(&key);
            self.outbox.post(to.map(|to| Emit { to, msg, trace }));
        }
    }

    /// This box's output was redirected. Permanent (the detector's
    /// re-point: the old parent is dead, and whatever it was sent died
    /// with it — the workers behind this box will not replay it, the box
    /// absorbed their partials): adopt the new parent and resend the whole
    /// retained window of that tree. Per request (a straggler bypass
    /// upstream): remember the override and resend that request's output
    /// if it already left. Resent chunks are queued under their sequence
    /// numbers; `last` only on a finished request's final one — for a still-open
    /// request the real final chunk follows under the next number, and a
    /// premature `last` would close the source upstream. Upstream dedups
    /// overlap by per-source sequence numbers and the master's
    /// delivered-id memory.
    pub fn redirect(
        &mut self,
        app: AppId,
        permanent: bool,
        request: RequestId,
        tree: TreeId,
        new_parent: NodeId,
    ) {
        let keys: Vec<ReqKey> = if permanent {
            if let Some(parent) = self.parents.get_mut(&(app, tree)) {
                *parent = new_parent;
            }
            let retained = self.emitted.get(&(app, tree)).into_iter();
            retained.flat_map(|w| w.iter()).map(|(k, _)| *k).collect()
        } else {
            self.redirects.insert((app, request, tree), new_parent);
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

impl<S: PartialSink> Node for BoxCore<S> {
    type Report = Step<Point, ReqKey, S>;
    const TIMER: bool = true;

    /// Data goes to its request's sink (inside the transition: a close
    /// decided here cannot overtake a partial on its way in), a probe is
    /// answered, a redirect or a broadcast queues what it sends.
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
                let q = self.open(key);
                let took = q.and_then(|q| q.accept_chunk((app, tree), source, seq, last, now));
                let Some((req, closes, gap)) = took else {
                    // Unknown route, duplicate, re-pointed-away source,
                    // request already closed.
                    step.dropped = true;
                    return step;
                };
                if !payload.is_empty() {
                    req.sink.push(payload);
                }
                step.closed = closes.then(|| req.sink.clone());
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
                if self.open(key).is_some() && self.fanin.set_requirement(&key, owed) {
                    step.closed = self.sinks(&[key]).pop();
                }
            }
            Message::Redirect {
                app,
                permanent,
                request,
                tree,
                new_parent,
            } => self.redirect(app, permanent, request, tree, new_parent),
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
    /// back).
    fn on_timer(&mut self, now: Instant) -> Self::Report {
        if self.outbox.backlogged() {
            self.fanin.detector.excuse(now);
        }
        if self.flush_due.is_some_and(|t| t <= now) {
            self.flush_due = Some(now + FLUSH_TICK);
            self.flush();
        }
        let mut fired = self.fanin.on_timer(now);
        self.outbox.post(fired.take_sends());
        let fired = Some(fired);
        Step {
            fired,
            ..Step::default()
        }
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
}
