//! The fan-in protocol, written once (Section 3.1, "Handling failures" /
//! "Handling stragglers").
//!
//! The master shim is just the root of the aggregation tree: it and every
//! agg box owe a set of children per request, move a failed child box's
//! obligations onto the sources behind it, bypass a straggling box per
//! request and suppress replayed duplicates. A [`FanInCore`] owns one such
//! node's routes and per-request [`FanInLedger`]s and exposes the protocol
//! as `&mut self` transitions that take the time as an argument and return
//! what changed, with every message it puts on the wire as a `(NodeId,
//! Message)` pair. It holds no lock, thread, connection, queue, clock or
//! metric: the threaded shells (`aggbox::runtime`, `shim::master`) keep it
//! behind one lock, feed it inputs and deliver what it returns.
//!
//! `P` names a fan-in point (`(app, tree)` at a box, `tree` at the
//! master), `R` a request at this node, `X` what the shell keeps per
//! request. Ledger keys are `(P, SourceId)`, so a chunk or a re-point for
//! one point can never touch another point's obligations. Topology maps
//! are `BTree*`; a timer pass over requests (a [`Map`], whose ids a peer
//! picks) acts in key order: no output hangs on a hash seed.

use crate::failure::DetectorCore;
use crate::ledger::{ChunkDisposition, FanInLedger, RepointOutcome};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::straggler::StragglerPolicy;
use crate::tree::{box_addr, worker_addr, Parent, TreeSpec};
use bytes::Bytes;
use netagg_net::hash::Map;
use netagg_net::NodeId;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;
use std::time::{Duration, Instant};

/// How long a request may stay at a fan-in point: the core's timer drops it,
/// finished or not, one to two `REQUEST_TTL`s after it opened.
pub const REQUEST_TTL: Duration = Duration::from_secs(600);

/// A fan-in point as messages name it: `app` is the node's own, for a
/// point that names none (the master serves one application).
pub trait Point: Copy + Ord + Hash {
    /// The `(app, tree)` a message about this point carries.
    fn ids(self, app: AppId) -> (AppId, TreeId);
}

impl Point for TreeId {
    fn ids(self, app: AppId) -> (AppId, TreeId) {
        (app, self)
    }
}

impl Point for (AppId, TreeId) {
    fn ids(self, _: AppId) -> (AppId, TreeId) {
        self
    }
}

/// Steady-state routing of one fan-in point: the master on a tree, or a
/// box. The structure is recursive — each child box carries its own route
/// — so when a child box fails its parent takes over its owed sources and
/// *adopts* its child boxes, and a later failure of one of those can be
/// re-pointed too (chained failures).
#[derive(Debug, Clone, Default)]
pub struct Route {
    /// The distinct sources owed per request (workers and child boxes);
    /// new requests seed their ledger from it.
    pub owed: BTreeSet<SourceId>,
    /// Child boxes by global box id, with their own routes.
    pub child_boxes: BTreeMap<u32, Route>,
    /// Addresses of the direct children (workers and boxes): broadcast
    /// replication, and who to redirect when this node is bypassed.
    pub children_addrs: Vec<NodeId>,
    /// Child boxes that failed for good. A request first seen after the
    /// failure ignores them from the start, so a late aggregate from the
    /// dead box cannot be folded in beside its children's replays.
    pub failed: Vec<u32>,
}

impl Route {
    /// The route of the node at `at` within `spec` — a box, or the master
    /// above the root boxes — resolving worker addresses for one
    /// application.
    pub fn of(spec: &TreeSpec, app: AppId, at: Parent) -> Self {
        let children = spec.children(at);
        let boxes = children.iter().filter_map(|s| match *s {
            SourceId::Box(b) => Some((b, Route::of(spec, app, Parent::Box(b)))),
            SourceId::Worker(_) => None,
        });
        let addr = |s: &SourceId| match *s {
            SourceId::Box(b) => box_addr(b),
            SourceId::Worker(w) => worker_addr(app, w),
        };
        Self {
            child_boxes: boxes.collect(),
            children_addrs: children.iter().map(addr).collect(),
            owed: children.into_iter().collect(),
            failed: Vec::new(),
        }
    }
}

/// Trace anchor of one sampled request at this node (DESIGN.md §11): the
/// span every local span parents to. Plain data the shell fills in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceAnchor {
    /// Trace the request belongs to.
    pub trace_id: u64,
    /// The node's per-request span (the trace id itself at the master).
    pub span_id: u64,
    /// Start on the shared monotonic axis.
    pub start_ns: u64,
}

/// A new request's trace anchor at a node, if it is sampled.
pub type Anchors = Box<dyn Fn(AppId, RequestId) -> Option<TraceAnchor> + Send>;

/// One in-flight request at a fan-in point.
#[derive(Debug)]
pub struct Request<P: Copy + Eq + Hash, X> {
    /// Which contributors are still owed.
    pub ledger: FanInLedger<(P, SourceId)>,
    /// When the straggler clock started: the first accepted chunk at a
    /// box, registration at the master.
    pub started: Option<Instant>,
    /// When the request opened here: the reap's clock.
    pub opened: Instant,
    /// Every owed contributor has ended; later chunks are dropped.
    pub closed: bool,
    /// `Some` when the request is trace-sampled.
    pub trace: Option<TraceAnchor>,
    /// The shell's per-request state.
    pub ext: X,
}

impl<P: Copy + Eq + Hash, X> Request<P, X> {
    /// Classify one data chunk. `None`: dropped (request already closed,
    /// replayed sequence number, re-pointed-away source). Otherwise the
    /// shell state to hand the payload to — inside the same critical
    /// section — whether this chunk completed the request, and whether it
    /// came past a sequence gap (accepted; the shell reports it).
    pub fn accept_chunk(
        &mut self,
        point: P,
        source: SourceId,
        seq: u32,
        last: bool,
        now: Instant,
    ) -> Option<(&mut X, bool, bool)> {
        let key = (point, source);
        if self.closed {
            return None;
        }
        let gap = match self.ledger.accept_chunk(key, seq) {
            ChunkDisposition::Fresh { .. } => false,
            ChunkDisposition::Gap => true,
            _ => return None,
        };
        self.started.get_or_insert(now);
        if last {
            self.ledger.note_end(key);
            self.closed = self.ledger.is_complete();
        }
        Some((&mut self.ext, self.closed, gap))
    }
}

/// What a child-box failure changed, and who is to be told.
#[derive(Debug)]
pub struct Repoint<R> {
    /// Requests whose ledger changed — the box's obligations moved onto
    /// its behind-sources, or (the box had already delivered) replays from
    /// behind it are now suppressed — with their trace anchor, so the
    /// shell can mark the adoption inside the request's trace.
    pub repointed: Vec<(R, Option<TraceAnchor>)>,
    /// How many of those were true moves.
    pub moved: usize,
    /// Requests the transition completed.
    pub closed: Vec<R>,
    /// The permanent `Redirect`s telling the failed box's children to send
    /// here: no replay they trigger can reach a ledger that has not moved.
    pub sends: Vec<(NodeId, Message)>,
}

/// One straggling child box bypassed for one request.
#[derive(Debug, Clone)]
pub struct Bypass<P, R> {
    /// The request.
    pub request: R,
    /// The fan-in point the box feeds.
    pub point: P,
    /// The bypassed box.
    pub box_id: u32,
    /// The box straggled `repeat_limit` times and was failed for good.
    pub permanent: bool,
}

/// What one straggler scan changed.
#[derive(Debug)]
pub struct StragglerScan<P, R> {
    /// The bypasses, for the shell to audit.
    pub bypasses: Vec<Bypass<P, R>>,
    /// Permanent failures the scan escalated to.
    pub escalated: Vec<(P, u32, Repoint<R>)>,
    /// Requests a bypass (or an escalation) completed.
    pub closed: Vec<R>,
    /// The `Redirect`s: per request to a bypassed box's children, and —
    /// instead — the escalations' permanent ones.
    pub sends: Vec<(NodeId, Message)>,
}

/// What one timer firing did; empty when nothing was due.
#[derive(Debug)]
pub struct Fired<P, R> {
    /// The straggler scan, at a node that runs one.
    pub scan: Option<StragglerScan<P, R>>,
    /// Heartbeats to child boxes.
    pub probes: Vec<(NodeId, Message)>,
    /// Boxes the detector declared dead.
    pub dead: Vec<u32>,
    /// Their failure at every point that routed through one.
    pub failed: Vec<(P, u32, Repoint<R>)>,
    /// Requests dropped at [`REQUEST_TTL`], with their trace anchors.
    pub reaped: Vec<(R, Option<TraceAnchor>)>,
}

impl<P, R: Copy> Fired<P, R> {
    /// Whether the firing found nothing due (an operator's failure
    /// verdict, with nothing dead and nothing probed, is not nothing).
    pub fn is_empty(&self) -> bool {
        let idle = |s: &StragglerScan<P, R>| s.bypasses.is_empty() && s.closed.is_empty();
        let quiet = self.probes.is_empty() && self.dead.is_empty() && self.failed.is_empty();
        self.scan.as_ref().is_none_or(idle) && quiet && self.reaped.is_empty()
    }

    /// Every request a bypass or a failure of this firing completed.
    pub fn closed(&self) -> Vec<R> {
        let failed = self.failed.iter().flat_map(|(_, _, r)| &r.closed);
        let scanned = self.scan.iter().flat_map(|s| &s.closed);
        failed.chain(scanned).copied().collect()
    }

    /// Take everything the firing sends — probes, re-points, bypasses —
    /// leaving the rest for the shell to audit.
    pub fn take_sends(&mut self) -> Vec<(NodeId, Message)> {
        let failed = self.failed.iter_mut().flat_map(|f| f.2.sends.drain(..));
        let scanned = self.scan.iter_mut().flat_map(|s| s.sends.drain(..));
        self.probes.drain(..).chain(failed).chain(scanned).collect()
    }
}

/// One node's half of the fan-in protocol; see the module docs.
#[derive(Debug)]
pub struct FanInCore<P: Copy + Eq + Hash, R, X> {
    routes: BTreeMap<P, Route>,
    /// Every request with state here. Shells read it (snapshots, gauges),
    /// remove from it (completion hand-off) and drain it at teardown; the
    /// transitions below mutate ledgers, and `on_timer` reaps.
    pub requests: Map<R, Request<P, X>>,
    /// Straggler events per child box, across requests.
    straggles: BTreeMap<u32, u32>,
    /// The bypass policy this node runs on its timer, constant once set.
    pub straggler: Option<StragglerPolicy>,
    /// Liveness of the child boxes the routes name.
    pub detector: DetectorCore,
    /// This node's address: the `new_parent` of its redirects, the `from`
    /// of its probes.
    pub addr: NodeId,
    /// The application of a point that names none (see [`Point`]).
    pub app: AppId,
    /// When the next reap is due, while any request is open: armed by the
    /// first request, re-armed by each reap.
    sweep: Option<Instant>,
}

impl<P: Copy + Eq + Hash, R: Copy + Eq + Hash, X> Default for FanInCore<P, R, X> {
    fn default() -> Self {
        Self {
            routes: BTreeMap::new(),
            requests: Map::default(),
            straggles: BTreeMap::new(),
            straggler: None,
            detector: DetectorCore::default(),
            addr: 0,
            app: AppId(0),
            sweep: None,
        }
    }
}

impl<P: Point, R: Copy + Ord + Hash + Into<RequestId>, X> FanInCore<P, R, X> {
    /// Install (or replace) the route of one fan-in point.
    pub fn install_route(&mut self, point: P, route: Route) {
        self.routes.insert(point, route);
    }

    /// The current route of `point`.
    pub fn route(&self, point: &P) -> Option<&Route> {
        self.routes.get(point)
    }

    /// Every point's route, in point order.
    pub fn routes(&self) -> impl Iterator<Item = (&P, &Route)> {
        self.routes.iter()
    }

    /// The open ones of `requests`, in key order.
    fn in_order(requests: &mut Map<R, Request<P, X>>) -> Vec<(&R, &mut Request<P, X>)> {
        let mut open: Vec<_> = requests.iter_mut().filter(|q| !q.1.closed).collect();
        open.sort_unstable_by_key(|q| *q.0);
        open
    }

    /// The request's state, created `now` on first use with a ledger
    /// seeded from the *current* owed sets of `points` (a box that already
    /// failed permanently is no longer owed; its children are). `None`,
    /// and nothing created, when no point is routed here or `new` declines.
    pub fn open<I: IntoIterator<Item = P>>(
        &mut self,
        request: R,
        points: I,
        now: Instant,
        new: impl FnOnce() -> Option<(X, Option<TraceAnchor>)>,
    ) -> Option<&mut Request<P, X>>
    where
        I::IntoIter: Clone,
    {
        let slot = match self.requests.entry(request) {
            Entry::Occupied(open) => return Some(open.into_mut()),
            Entry::Vacant(slot) => slot,
        };
        let routes = &self.routes;
        let routed = points
            .into_iter()
            .filter_map(|p| Some((p, routes.get(&p)?)));
        routed.clone().next()?;
        let dead = routed.clone().flat_map(|(p, r)| {
            let boxes = r.failed.iter();
            boxes.map(move |b| (p, SourceId::Box(*b)))
        });
        let sizes = routed.clone().map(|(_, r)| r.owed.len() + r.failed.len());
        let owed = routed.flat_map(|(p, r)| r.owed.iter().map(move |s| (p, *s)));
        let mut ledger = FanInLedger::with_capacity(sizes.sum(), owed.chain(dead.clone()));
        for key in dead {
            ledger.repoint(key, &[]);
        }
        let (ext, trace) = new()?;
        self.sweep.get_or_insert(now + REQUEST_TTL);
        Some(slot.insert(Request {
            ledger,
            started: None,
            opened: now,
            closed: false,
            trace,
            ext,
        }))
    }

    /// Replace a request's owed set (subset requests). Returns whether
    /// that completed it.
    pub fn set_requirement(
        &mut self,
        request: &R,
        owed: impl IntoIterator<Item = (P, SourceId)>,
    ) -> bool {
        let Some(q) = self.requests.get_mut(request).filter(|q| !q.closed) else {
            return false;
        };
        q.ledger.set_requirement(owed);
        q.closed = q.ledger.is_complete();
        q.closed
    }

    /// One copy of a broadcast per direct child of `point`: what a box
    /// replicates down its subtree, and the master sends to its root boxes
    /// and direct workers.
    pub fn broadcast(
        &self,
        point: P,
        request: RequestId,
        payload: Bytes,
    ) -> Vec<(NodeId, Message)> {
        let (app, tree) = point.ids(self.app);
        let msg = Message::Broadcast {
            app,
            request,
            tree,
            payload,
        };
        let children = self.routes.get(&point).into_iter();
        let children = children.flat_map(|r| &r.children_addrs);
        children.map(|c| (*c, msg.clone())).collect()
    }

    /// The redirect telling a child of `point` to send `request` here;
    /// every request when `permanent`.
    fn redirect(&self, point: P, permanent: bool, request: RequestId) -> Message {
        let (app, tree) = point.ids(self.app);
        let new_parent = self.addr;
        Message::Redirect {
            app,
            permanent,
            request,
            tree,
            new_parent,
        }
    }

    /// A child box of `point` failed for good: future requests owe its
    /// children directly (its grandchild boxes are adopted for chained
    /// failures, broadcasts reach its children in its place) and every
    /// open request's ledger moves its obligations. `None` when already
    /// handled — repeated detector firings and a straggler escalation
    /// racing the detector collapse to one transition.
    pub fn child_box_failed(&mut self, point: P, failed_box: u32) -> Option<Repoint<R>> {
        let redirect = self.redirect(point, true, RequestId(0));
        let route = self.routes.get_mut(&point)?;
        let info = route.child_boxes.remove(&failed_box)?;
        route.owed.remove(&SourceId::Box(failed_box));
        route.owed.extend(info.owed.iter().copied());
        route.failed.push(failed_box);
        for (id, grandchild) in &info.child_boxes {
            let adopted = route.child_boxes.entry(*id);
            adopted.or_insert_with(|| grandchild.clone());
        }
        route.children_addrs.retain(|a| *a != box_addr(failed_box));
        route.children_addrs.extend(&info.children_addrs);
        let behind: Vec<(P, SourceId)> = info.owed.iter().map(|s| (point, *s)).collect();
        let children = info.children_addrs.into_iter();
        let mut out = Repoint {
            repointed: Vec::new(),
            moved: 0,
            closed: Vec::new(),
            sends: children.map(|c| (c, redirect.clone())).collect(),
        };
        for (r, q) in Self::in_order(&mut self.requests) {
            let failed = (point, SourceId::Box(failed_box));
            let outcome = q.ledger.repoint(failed, &behind);
            out.moved += usize::from(matches!(outcome, RepointOutcome::Moved { .. }));
            if let RepointOutcome::Moved { .. } | RepointOutcome::DuplicateSuppressed = outcome {
                out.repointed.push((*r, q.trace));
            }
            if q.ledger.is_complete() {
                q.closed = true;
                out.closed.push(*r);
            }
        }
        Some(out)
    }

    /// Bypass straggling child boxes: a request whose clock started at
    /// least `threshold` ago moves the obligations of every owed child box
    /// that has contributed nothing onto that box's children, for this
    /// request only, and tells them so. A box bypassed `repeat_limit` times
    /// is failed for good ([`FanInCore::child_box_failed`]) and its
    /// children are told that instead.
    pub fn scan_stragglers(
        &mut self,
        now: Instant,
        threshold: Duration,
        repeat_limit: u32,
    ) -> StragglerScan<P, R> {
        let mut scan = StragglerScan {
            bypasses: Vec::new(),
            escalated: Vec::new(),
            closed: Vec::new(),
            sends: Vec::new(),
        };
        let mut found = Vec::new();
        let due = |t: Instant| now.duration_since(t) >= threshold;
        let open = Self::in_order(&mut self.requests);
        for (r, q) in open.into_iter().filter(|(_, q)| q.started.is_some_and(due)) {
            for (point, route) in &self.routes {
                for (box_id, info) in &route.child_boxes {
                    if !Self::awaits(q, *point, *box_id) {
                        continue;
                    }
                    let key = (*point, SourceId::Box(*box_id));
                    let behind: Vec<(P, SourceId)> =
                        info.owed.iter().map(|s| (*point, *s)).collect();
                    if let RepointOutcome::Moved { .. } = q.ledger.repoint(key, &behind) {
                        found.push((*r, *point, *box_id, info.children_addrs.clone()));
                    }
                }
            }
            if q.ledger.is_complete() {
                q.closed = true;
                scan.closed.push(*r);
            }
        }
        for (request, point, box_id, children) in found {
            let events = self.straggles.entry(box_id).or_insert(0);
            *events += 1;
            let permanent = *events >= repeat_limit;
            scan.bypasses.push(Bypass {
                request,
                point,
                box_id,
                permanent,
            });
            if !permanent {
                let redirect = self.redirect(point, false, request.into());
                scan.sends
                    .extend(children.into_iter().map(|c| (c, redirect.clone())));
            } else if let Some(mut repoint) = self.child_box_failed(point, box_id) {
                scan.closed.extend(repoint.closed.iter().copied());
                scan.sends.append(&mut repoint.sends);
                scan.escalated.push((point, box_id, repoint));
            }
        }
        scan
    }

    /// Whether `q` still owes child box `box_id` of `point`, unheard from.
    fn awaits(q: &Request<P, X>, point: P, box_id: u32) -> bool {
        let key = (point, SourceId::Box(box_id));
        q.ledger.is_owed(&key) && !q.ledger.has_seen(&key)
    }

    /// When this node next has something to do unprompted, read off its state:
    /// the oldest open request that still has a child box to bypass reaching the
    /// (constant) straggler threshold, the next probe round, the earliest ack
    /// time-out, the next reap. A firing that finds nothing due is a no-op.
    pub fn next_deadline(&self) -> Option<Instant> {
        let boxes = || {
            let routes = self.routes.iter();
            routes.flat_map(|(p, r)| r.child_boxes.keys().map(move |b| (*p, *b)))
        };
        let straggler = self.straggler.and_then(|policy| {
            let open = self.requests.values().filter(|q| !q.closed);
            let waiting = open.filter(|q| boxes().any(|(p, b)| Self::awaits(q, p, b)));
            Some(waiting.filter_map(|q| q.started).min()? + policy.threshold)
        });
        let detector = self.detector.next_deadline(|| boxes().next().is_some());
        let reap = self.sweep.filter(|_| !self.requests.is_empty());
        [straggler, detector, reap].into_iter().flatten().min()
    }

    /// Run what is due at `now`: the reap, the straggler scan, ack
    /// time-outs, the next probe round. A box declared dead is failed at
    /// every point routing through it in this transition; the child boxes
    /// adopted from it are probed from the next round on.
    pub fn on_timer(&mut self, now: Instant) -> Fired<P, R> {
        let mut reaped = Vec::new();
        if self.sweep.is_some_and(|t| t <= now) {
            self.sweep = Some(now + REQUEST_TTL);
            let old = |_: &R, q: &mut Request<P, X>| now.duration_since(q.opened) >= REQUEST_TTL;
            reaped.extend(self.requests.extract_if(old).map(|(r, q)| (r, q.trace)));
            reaped.sort_unstable_by_key(|q| q.0);
        }
        let policy = self.straggler;
        let scan = policy.map(|p| self.scan_stragglers(now, p.threshold, p.repeat_limit));
        let routed = self.routes.values().flat_map(|r| r.child_boxes.keys());
        let boxes: Vec<u32> = routed.copied().collect();
        let (probes, dead) = self.detector.on_timer(now, self.addr, &boxes);
        let points: Vec<P> = self.routes.keys().copied().collect();
        let routed = dead
            .iter()
            .flat_map(|b| points.iter().map(move |p| (*p, *b)));
        let failed = routed.filter_map(|(p, b)| Some((p, b, self.child_box_failed(p, b)?)));
        let failed = failed.collect();
        Fired {
            scan,
            probes,
            dead,
            failed,
            reaped,
        }
    }
}
