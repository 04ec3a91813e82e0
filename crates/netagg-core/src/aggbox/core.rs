//! The agg box's protocol state as one plain struct: a [`FanInCore`] for
//! the children it aggregates, plus the upstream half — where each
//! request's output goes, and a bounded window of what was already emitted
//! so a new parent can be sent it again.
//!
//! Every transition is `&mut self` and queues what it puts on the wire in
//! the box's outbox — one FIFO, output chunks numbered here — so `Data`
//! leaves in the order it was numbered whoever sends it; the threaded
//! shell ([`crate::aggbox::runtime`]) keeps the struct behind the single
//! `agg.core` lock and has one thread at a time drain the outbox.
//! Payloads are handed to the request's [`PartialSink`] *inside* the
//! transition that accepted them, so a close decided there can never
//! overtake a partial still on its way in.

use crate::fanin::{FanInCore, Fired, Request, Route, TraceAnchor};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::window::RecencyWindow;
use crate::DynAggregator;
use bytes::Bytes;
use netagg_net::hash::Map;
use netagg_net::NodeId;
use netagg_obs::trace::TraceCtx;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per fan-in point whose emitted output a box retains for resends.
const EMITTED_WINDOW: usize = 64;

/// How long after one streaming-flush pass the next is due.
pub const FLUSH_TICK: Duration = Duration::from_millis(10);

/// Outbox length past which the shell holds back incoming `Data`
/// (backpressure, DESIGN.md §9) and ack time-outs are no misses.
pub const OUTBOX_BOUND: usize = 4096;

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
}

/// Shell state of one request: its sink and the next output sequence
/// number (streaming flushes).
#[derive(Debug)]
pub struct BoxRequest<S> {
    /// Where accepted partials go.
    pub sink: S,
    out_seq: u32,
}

/// One message a transition produced, queued for the shell to send.
#[derive(Debug, Clone)]
pub struct Emit {
    /// Where it goes.
    pub to: NodeId,
    /// `Data` from this box is numbered among the request's output chunks,
    /// `last` on the final aggregate, with no trace context yet.
    pub msg: Message,
    /// The request's trace anchor, on this box's own output (a resend has
    /// none: it re-attaches at the trace root).
    pub trace: Option<TraceAnchor>,
}

impl From<(NodeId, Message)> for Emit {
    fn from((to, msg): (NodeId, Message)) -> Self {
        let trace = None;
        Self { to, msg, trace }
    }
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
    /// What transitions produced and the shell has not yet taken, oldest
    /// first.
    outbox: VecDeque<Emit>,
    /// When the core was made: the deadline of a non-empty outbox, "due
    /// now" and earlier than any other.
    epoch: Instant,
}

impl<S: PartialSink> Default for BoxCore<S> {
    fn default() -> Self {
        Self {
            id: 0,
            apps: Map::default(),
            fanin: FanInCore::default(),
            parents: Map::default(),
            redirects: Map::default(),
            emitted: Map::default(),
            flush_due: None,
            outbox: VecDeque::new(),
            epoch: Instant::now(),
        }
    }
}

impl<S: PartialSink> BoxCore<S> {
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
    fn open(
        &mut self,
        key: ReqKey,
        new: impl FnOnce(&Arc<dyn DynAggregator>) -> (S, Option<TraceAnchor>),
    ) -> Option<&mut Request<Point, BoxRequest<S>>> {
        let (apps, emitted) = (&self.apps, &self.emitted);
        self.fanin.open(key, [(key.0, key.2)], None, || {
            let window = emitted.get(&(key.0, key.2));
            if window.is_some_and(|w| w.contains(&key)) {
                return None;
            }
            let (sink, trace) = new(apps.get(&key.0)?);
            Some((BoxRequest { sink, out_seq: 0 }, trace))
        })
    }

    /// One data chunk arrived. `None`: dropped (unknown route, duplicate,
    /// re-pointed-away source, request already closed). Otherwise the
    /// payload is in the request's sink, and the inner value is the sink
    /// to close the input on if this chunk completed the request.
    #[allow(clippy::too_many_arguments)]
    pub fn accept_data(
        &mut self,
        key: ReqKey,
        source: SourceId,
        seq: u32,
        last: bool,
        payload: Bytes,
        now: Instant,
        new: impl FnOnce(&Arc<dyn DynAggregator>) -> (S, Option<TraceAnchor>),
    ) -> Option<Option<S>> {
        let q = self.open(key, new)?;
        let (req, closes, gap) = q.accept_chunk((key.0, key.2), source, seq, last, now)?;
        if !payload.is_empty() {
            req.sink.push(payload);
        }
        let close = closes.then(|| req.sink.clone());
        if gap {
            self.fanin.gaps.push((key, source));
        }
        Some(close)
    }

    /// The master named the sources participating in a subset request.
    /// Returns the sink to close if that already completes it.
    pub fn request_meta(
        &mut self,
        key: ReqKey,
        sources: Vec<SourceId>,
        new: impl FnOnce(&Arc<dyn DynAggregator>) -> (S, Option<TraceAnchor>),
    ) -> Option<S> {
        self.open(key, new)?;
        let point = (key.0, key.2);
        let owed = sources.into_iter().map(|s| (point, s));
        let closes = self.fanin.set_requirement(&key, owed);
        self.sinks(&[key]).pop().filter(|_| closes)
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

    /// Queue messages behind everything queued before them. Liveness
    /// messages (`Heartbeat`, `HeartbeatAck`) are returned instead, for the
    /// shell to send at once: a backlog must not read as a dead box.
    pub fn post(&mut self, sends: Vec<(NodeId, Message)>) -> Vec<Emit> {
        let mut liveness = Vec::new();
        for (to, msg) in sends {
            if msg.is_liveness() {
                liveness.push((to, msg).into());
            } else {
                self.outbox.push_back((to, msg).into());
            }
        }
        liveness
    }

    /// Move everything queued, oldest first, to the back of `into`.
    pub fn drain_outbox(&mut self, into: &mut VecDeque<Emit>) {
        into.append(&mut self.outbox);
    }

    /// Whether the outbox is over [`OUTBOX_BOUND`].
    pub fn backlogged(&self) -> bool {
        self.outbox.len() > OUTBOX_BOUND
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
        self.outbox.extend(to.map(|to| Emit { to, msg, trace }));
        started
    }

    /// A request's local aggregation failed (a partial that does not
    /// decode, a combine that panicked): its state goes as on completion,
    /// but nothing goes upstream — the parent times the request out.
    /// Returns its trace anchor.
    pub fn abandon(&mut self, key: ReqKey) -> Option<TraceAnchor> {
        self.close(key).and_then(|q| q.trace)
    }

    /// Stream partial aggregates upstream: `take` is offered every open
    /// request's sink and returns the chunk to flush, if any. Taking
    /// inside the transition keeps a flushed chunk ordered before the
    /// request's completion.
    pub fn flush(&mut self, mut take: impl FnMut(&mut S) -> Option<Bytes>) {
        let mut taken = Vec::new();
        for (key, q) in self.fanin.requests.iter_mut().filter(|(_, q)| !q.closed) {
            let Some(chunk) = take(&mut q.ext.sink) else {
                continue;
            };
            taken.push((*key, q.ext.out_seq, q.trace, chunk));
            q.ext.out_seq += 1;
        }
        for (key, seq, trace, chunk) in taken {
            self.emitted(key).push(chunk.clone());
            let msg = self.data(key, seq, false, chunk);
            let to = self.dest(&key);
            self.outbox.extend(to.map(|to| Emit { to, msg, trace }));
        }
    }

    /// When the box next has something to do unprompted: now while its
    /// outbox holds anything, a flush pass while it streams and a request
    /// is open, else what its fan-in half is waiting for. `None` at an
    /// idle box.
    pub fn next_deadline(&self) -> Option<Instant> {
        let queued = self.has_output().then_some(self.epoch);
        queued.into_iter().chain(self.next_tick()).min()
    }

    /// [`BoxCore::next_deadline`] but the outbox: when timed work is due.
    pub fn next_tick(&self) -> Option<Instant> {
        let open = || self.fanin.requests.values().any(|q| !q.closed);
        let flush = self.flush_due.filter(|_| open());
        flush.into_iter().chain(self.fanin.next_deadline()).min()
    }

    /// Whether the outbox holds anything.
    pub fn has_output(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Run what is due at `now`: a [`BoxCore::flush`] pass one
    /// [`FLUSH_TICK`] after the last, then the fan-in half's timers — with
    /// the ack time-outs due excused while the box is backlogged (its
    /// readers, which read the acks, are held back).
    pub fn on_timer(
        &mut self,
        now: Instant,
        take: impl FnMut(&mut S) -> Option<Bytes>,
    ) -> Fired<Point, ReqKey> {
        if self.backlogged() {
            self.fanin.detector.excuse(now);
        }
        if self.flush_due.is_some_and(|t| t <= now) {
            self.flush_due = Some(now + FLUSH_TICK);
            self.flush(take);
        }
        self.fanin.on_timer(now)
    }

    /// The answer to a probe from `prober`.
    pub fn heartbeat(&self, prober: NodeId, nonce: u64) -> (NodeId, Message) {
        let from = self.id;
        (prober, Message::HeartbeatAck { from, nonce })
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
                self.outbox.push_back((new_parent, resend).into());
            }
        }
    }
}
