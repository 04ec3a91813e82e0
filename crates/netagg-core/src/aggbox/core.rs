//! The agg box's protocol state as one plain struct: a [`FanInCore`] for
//! the children it aggregates, plus the upstream half — where each
//! request's output goes, and a bounded window of what was already emitted
//! so a new parent can be sent it again.
//!
//! Every transition is `&mut self`; the threaded shell
//! ([`crate::aggbox::runtime`]) keeps the struct behind the single
//! `agg.core` lock. Payloads are handed to the request's [`PartialSink`]
//! *inside* the transition that accepted them, so a close decided by one
//! reader can never overtake a partial still in another reader's hands.

use crate::fanin::{FanInCore, Fired, Request, Route, TraceAnchor};
use crate::protocol::{AppId, RequestId, SourceId, TreeId};
use crate::window::RecencyWindow;
use crate::DynAggregator;
use bytes::Bytes;
use netagg_net::NodeId;
use std::collections::HashMap;
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

/// One output chunk on its way upstream.
#[derive(Debug, Clone)]
pub struct Emit {
    /// The request it belongs to.
    pub key: ReqKey,
    /// Its sequence number among the request's output chunks.
    pub seq: u32,
    /// When the request's first data arrived here.
    pub started: Option<Instant>,
    /// The request's trace anchor.
    pub trace: Option<TraceAnchor>,
    /// Where to send it: the per-request redirect, else the tree parent.
    pub dest: Option<NodeId>,
}

/// Retained output of one request to resend after a redirect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resend {
    /// The request.
    pub request: RequestId,
    /// Its retained chunks; chunk `i` keeps sequence number `i`.
    pub chunks: Vec<Bytes>,
    /// The chunks include the request's final output, so the last one may
    /// carry `last`. For a still-open request the real final chunk follows
    /// under the next sequence number, and a premature `last` would close
    /// the source upstream.
    pub finished: bool,
}

/// The box's whole protocol state; see the module docs.
pub struct BoxCore<S> {
    apps: HashMap<AppId, Arc<dyn DynAggregator>>,
    /// The downstream half: routes, per-request ledgers, the failure and
    /// straggler transitions. Shells call those directly.
    pub fanin: FanInCore<Point, ReqKey, BoxRequest<S>>,
    parents: HashMap<Point, NodeId>,
    /// Per-request output redirections (a straggler bypass upstream).
    redirects: HashMap<ReqKey, NodeId>,
    /// Recently emitted output chunks per request, a window per fan-in
    /// point: one tenant's traffic must not evict what another's new
    /// parent will need (redirects arrive per application and tree).
    emitted: HashMap<Point, RecencyWindow<ReqKey, Vec<Bytes>>>,
    /// When the next streaming-flush pass is due; `None` = never flushes.
    pub flush_due: Option<Instant>,
}

impl<S: PartialSink> Default for BoxCore<S> {
    fn default() -> Self {
        Self {
            apps: HashMap::new(),
            fanin: FanInCore::default(),
            parents: HashMap::new(),
            redirects: HashMap::new(),
            emitted: HashMap::new(),
            flush_due: None,
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
        let (req, closes) = q.accept_chunk((key.0, key.2), source, seq, last, now)?;
        if !payload.is_empty() {
            req.sink.push(payload);
        }
        Some(closes.then(|| req.sink.clone()))
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

    fn retain(&mut self, key: ReqKey, chunk: Bytes) {
        let window = self.emitted.entry((key.0, key.2));
        let window = window.or_insert_with(|| RecencyWindow::new(EMITTED_WINDOW));
        window.entry(key).push(chunk);
    }

    fn dest(&self, key: &ReqKey) -> Option<NodeId> {
        let redirected = self.redirects.get(key);
        redirected
            .or_else(|| self.parents.get(&(key.0, key.2)))
            .copied()
    }

    /// A request's local aggregation finished with `payload`: retain it
    /// for resends, drop the request's state and resolve where the final
    /// chunk goes — one transition, so a re-point arriving before it sees
    /// live state (and leaves the final chunk to this path, which then
    /// reads the new parent) and one arriving after it finds the request
    /// fully recorded. Either way exactly one `last` reaches a live parent.
    pub fn complete(&mut self, key: ReqKey, payload: Bytes) -> Emit {
        let state = self.fanin.requests.remove(&key);
        self.retain(key, payload);
        let emit = Emit {
            key,
            seq: state.as_ref().map_or(0, |q| q.ext.out_seq),
            started: state.as_ref().and_then(|q| q.started),
            trace: state.as_ref().and_then(|q| q.trace),
            dest: self.dest(&key),
        };
        self.redirects.remove(&key);
        emit
    }

    /// Stream partial aggregates upstream: `take` is offered every open
    /// request's sink and returns the chunk to flush, if any. Taking
    /// inside the transition keeps a flushed chunk ordered before the
    /// request's completion.
    pub fn flush(&mut self, mut take: impl FnMut(&mut S) -> Option<Bytes>) -> Vec<(Emit, Bytes)> {
        let mut out = Vec::new();
        for (key, q) in self.fanin.requests.iter_mut().filter(|(_, q)| !q.closed) {
            let Some(chunk) = take(&mut q.ext.sink) else {
                continue;
            };
            let emit = Emit {
                key: *key,
                seq: q.ext.out_seq,
                started: q.started,
                trace: q.trace,
                dest: None,
            };
            q.ext.out_seq += 1;
            out.push((emit, chunk));
        }
        for (emit, chunk) in &mut out {
            emit.dest = self.dest(&emit.key);
            self.retain(emit.key, chunk.clone());
        }
        out
    }

    /// When the box next has something to do unprompted: a flush pass
    /// while it streams and a request is open, else what its fan-in half
    /// is waiting for. `None` at an idle box.
    pub fn next_deadline(&self) -> Option<Instant> {
        let open = || self.fanin.requests.values().any(|q| !q.closed);
        let flush = self.flush_due.filter(|_| open());
        [flush, self.fanin.next_deadline()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Run what is due at `now`: a [`BoxCore::flush`] pass one
    /// [`FLUSH_TICK`] after the last, then the fan-in half's timers.
    pub fn on_timer(
        &mut self,
        now: Instant,
        take: impl FnMut(&mut S) -> Option<Bytes>,
    ) -> (Vec<(Emit, Bytes)>, Fired<Point, ReqKey>) {
        let mut flushed = Vec::new();
        if self.flush_due.is_some_and(|t| t <= now) {
            self.flush_due = Some(now + FLUSH_TICK);
            flushed = self.flush(take);
        }
        (flushed, self.fanin.on_timer(now))
    }

    /// This box's output was redirected. Permanent (the detector's
    /// re-point: the old parent is dead, and whatever it was sent died
    /// with it — the workers behind this box will not replay it, the box
    /// absorbed their partials): adopt the new parent and resend the whole
    /// retained window of that tree. Per request (a straggler bypass
    /// upstream): remember the override and resend that request's output
    /// if it already left. Upstream dedups overlap by per-source sequence
    /// numbers and the master's delivered-id memory.
    pub fn redirect(
        &mut self,
        app: AppId,
        permanent: bool,
        request: RequestId,
        tree: TreeId,
        new_parent: NodeId,
    ) -> Vec<Resend> {
        let window = self.emitted.get(&(app, tree));
        let keys: Vec<ReqKey> = if permanent {
            if let Some(parent) = self.parents.get_mut(&(app, tree)) {
                *parent = new_parent;
            }
            let retained = window.into_iter().flat_map(|w| w.iter());
            retained.map(|(k, _)| *k).collect()
        } else {
            self.redirects.insert((app, request, tree), new_parent);
            vec![(app, request, tree)]
        };
        let resend = keys.iter().filter_map(|key| {
            let chunks = window?.get(key)?.clone();
            // Live state whose next sequence number covers the window has
            // only flushed so far; its final chunk is still to come.
            let open = self.fanin.requests.get(key);
            let finished = open.is_none_or(|q| chunks.len() as u32 > q.ext.out_seq);
            Some(Resend {
                request: key.1,
                chunks,
                finished,
            })
        });
        resend.collect()
    }
}
