//! The fan-in protocol, written once (Section 3.1, "Handling failures" /
//! "Handling stragglers").
//!
//! The master shim is just the root of the aggregation tree: it and every
//! agg box owe a set of children per request, move a failed child box's
//! obligations onto the sources behind it, bypass a straggling box per
//! request and suppress replayed duplicates. A [`FanInCore`] owns one such
//! node's routes and per-request [`FanInLedger`]s and exposes the protocol
//! as `&mut self` transitions that take the time as an argument and return
//! what changed. It holds no lock, thread, socket, queue, clock or metric:
//! the threaded shells (`aggbox::runtime`, `shim::master`) keep it behind
//! one lock, feed it inputs and perform the returned sends and closes
//! after releasing that lock.
//!
//! `P` names a fan-in point (`(app, tree)` at a box, `tree` at the
//! master), `R` a request at this node, `X` what the shell keeps per
//! request. Ledger keys are `(P, SourceId)`, so a chunk or a re-point for
//! one point can never touch another point's obligations.

use crate::failure::{DetectorCore, Probe};
use crate::ledger::{ChunkDisposition, FanInLedger, RepointOutcome};
use crate::protocol::{AppId, SourceId};
use crate::straggler::StragglerPolicy;
use crate::tree::TreeSpec;
use netagg_net::NodeId;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Steady-state routing of one fan-in point: the master on a tree, or a
/// box. The structure is recursive — each child box carries its own route
/// — so when a child box fails its parent takes over its owed sources and
/// *adopts* its child boxes, and a later failure of one of those can be
/// re-pointed too (chained failures).
#[derive(Debug, Clone, Default)]
pub struct Route {
    /// The distinct sources owed per request (workers and child boxes);
    /// new requests seed their ledger from it.
    pub owed: HashSet<SourceId>,
    /// Child boxes by global box id, with their own routes.
    pub child_boxes: HashMap<u32, Route>,
    /// Addresses of the direct children (workers and boxes): broadcast
    /// replication, and who to redirect when this node is bypassed.
    pub children_addrs: Vec<NodeId>,
    /// Child boxes that failed for good. A request first seen after the
    /// failure ignores them from the start, so a late aggregate from the
    /// dead box cannot be folded in beside its children's replays.
    pub failed: Vec<u32>,
}

impl Route {
    /// The route of box `box_id` within `spec`, resolving worker addresses
    /// for one application.
    pub fn of_box(spec: &TreeSpec, app: AppId, box_id: u32) -> Self {
        let children = spec.tree_box(box_id).map(|tb| tb.box_children.iter());
        let children = children.into_iter().flatten();
        Self {
            owed: spec.children_sources(box_id).into_iter().collect(),
            child_boxes: children
                .map(|c| (*c, Route::of_box(spec, app, *c)))
                .collect(),
            children_addrs: spec.children_addrs(app, box_id),
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

/// One in-flight request at a fan-in point.
#[derive(Debug)]
pub struct Request<P: Copy + Eq + Hash, X> {
    /// Which contributors are still owed.
    pub ledger: FanInLedger<(P, SourceId)>,
    /// When the straggler clock started: the first accepted chunk at a
    /// box, registration at the master.
    pub started: Option<Instant>,
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
    /// section — and whether this chunk completed the request.
    pub fn accept_chunk(
        &mut self,
        point: P,
        source: SourceId,
        seq: u32,
        last: bool,
        now: Instant,
    ) -> Option<(&mut X, bool)> {
        let key = (point, source);
        let fresh = !self.closed
            && matches!(
                self.ledger.accept_chunk(key, seq),
                ChunkDisposition::Fresh { .. }
            );
        if !fresh {
            return None;
        }
        self.started.get_or_insert(now);
        if last {
            self.ledger.note_end(key);
            self.closed = self.ledger.is_complete();
        }
        Some((&mut self.ext, self.closed))
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
    /// The failed box's children, to be told — permanently — to send here:
    /// no replay that triggers can reach a ledger that has not moved yet.
    pub children: Vec<NodeId>,
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
    /// Its children, to be told to send here instead.
    pub children: Vec<NodeId>,
    /// The box straggled `repeat_limit` times and was failed for good.
    pub permanent: bool,
}

/// What one straggler scan changed.
#[derive(Debug)]
pub struct StragglerScan<P, R> {
    /// Bypasses to announce to the bypassed boxes' children.
    pub bypasses: Vec<Bypass<P, R>>,
    /// Permanent failures the scan escalated to.
    pub escalated: Vec<(P, u32, Repoint<R>)>,
    /// Requests a bypass (or an escalation) completed.
    pub closed: Vec<R>,
}

/// What one timer firing did; empty when nothing was due.
#[derive(Debug)]
pub struct Fired<P, R> {
    /// The straggler scan, at a node that runs one.
    pub scan: Option<StragglerScan<P, R>>,
    /// Heartbeats to send to child boxes.
    pub probes: Vec<Probe>,
    /// Boxes the detector declared dead.
    pub dead: Vec<u32>,
    /// Their failure at every point that routed through one.
    pub failed: Vec<(P, u32, Repoint<R>)>,
}

impl<P, R: Copy> Fired<P, R> {
    /// Whether the firing found nothing due.
    pub fn is_empty(&self) -> bool {
        let idle = |s: &StragglerScan<P, R>| s.bypasses.is_empty() && s.closed.is_empty();
        self.scan.as_ref().is_none_or(idle) && self.probes.is_empty() && self.dead.is_empty()
    }

    /// Every request a bypass or a failure of this firing completed.
    pub fn closed(&self) -> Vec<R> {
        let failed = self.failed.iter().flat_map(|(_, _, r)| &r.closed);
        let scanned = self.scan.iter().flat_map(|s| &s.closed);
        failed.chain(scanned).copied().collect()
    }
}

/// One node's half of the fan-in protocol; see the module docs.
#[derive(Debug)]
pub struct FanInCore<P: Copy + Eq + Hash, R, X> {
    routes: HashMap<P, Route>,
    /// Every request with state here. Shells read it (snapshots, gauges),
    /// remove from it (completion hand-off, reaping) and drain it at
    /// teardown; the transitions below are what mutate ledgers.
    pub requests: HashMap<R, Request<P, X>>,
    /// Straggler events per child box, across requests.
    straggles: HashMap<u32, u32>,
    /// The bypass policy this node runs on its timer, constant once set.
    pub straggler: Option<StragglerPolicy>,
    /// Liveness of the child boxes the routes name.
    pub detector: DetectorCore,
}

impl<P: Copy + Eq + Hash, R: Copy + Eq + Hash, X> Default for FanInCore<P, R, X> {
    fn default() -> Self {
        Self {
            routes: HashMap::new(),
            requests: HashMap::new(),
            straggles: HashMap::new(),
            straggler: None,
            detector: DetectorCore::default(),
        }
    }
}

impl<P: Copy + Eq + Hash, R: Copy + Eq + Hash, X> FanInCore<P, R, X> {
    /// Install (or replace) the route of one fan-in point.
    pub fn install_route(&mut self, point: P, route: Route) {
        self.routes.insert(point, route);
    }

    /// The current route of `point`.
    pub fn route(&self, point: &P) -> Option<&Route> {
        self.routes.get(point)
    }

    /// The request's state, created on first use with a ledger seeded
    /// from the *current* owed sets of `points` (a box that already
    /// failed permanently is no longer owed; its children are). `None`,
    /// and nothing created, when no point is routed here or `new` declines.
    pub fn open<I: IntoIterator<Item = P>>(
        &mut self,
        request: R,
        points: I,
        started: Option<Instant>,
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
        let owed = routed.flat_map(|(p, r)| r.owed.iter().map(move |s| (p, *s)));
        let mut ledger = FanInLedger::new(owed.chain(dead.clone()));
        for key in dead {
            ledger.repoint(key, &[]);
        }
        let (ext, trace) = new()?;
        Some(slot.insert(Request {
            ledger,
            started,
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

    /// A child box of `point` failed for good: future requests owe its
    /// children directly (its grandchild boxes are adopted for chained
    /// failures) and every open request's ledger moves its obligations.
    /// `None` when already handled — repeated detector firings and a
    /// straggler escalation racing the detector collapse to one transition.
    pub fn child_box_failed(&mut self, point: P, failed_box: u32) -> Option<Repoint<R>> {
        let route = self.routes.get_mut(&point)?;
        let info = route.child_boxes.remove(&failed_box)?;
        route.owed.remove(&SourceId::Box(failed_box));
        route.owed.extend(info.owed.iter().copied());
        route.failed.push(failed_box);
        for (id, grandchild) in &info.child_boxes {
            route
                .child_boxes
                .entry(*id)
                .or_insert_with(|| grandchild.clone());
        }
        let behind: Vec<(P, SourceId)> = info.owed.iter().map(|s| (point, *s)).collect();
        let mut out = Repoint {
            repointed: Vec::new(),
            moved: 0,
            closed: Vec::new(),
            children: info.children_addrs,
        };
        for (r, q) in self.requests.iter_mut().filter(|(_, q)| !q.closed) {
            let outcome = q
                .ledger
                .repoint((point, SourceId::Box(failed_box)), &behind);
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
    /// request only. A box bypassed `repeat_limit` times is failed for
    /// good ([`FanInCore::child_box_failed`]).
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
        };
        let due = |q: &Request<P, X>| {
            q.started
                .is_some_and(|t| now.duration_since(t) >= threshold)
        };
        for (r, q) in self
            .requests
            .iter_mut()
            .filter(|(_, q)| !q.closed && due(q))
        {
            for (point, route) in &self.routes {
                for (box_id, info) in &route.child_boxes {
                    if !Self::awaits(q, *point, *box_id) {
                        continue;
                    }
                    let key = (*point, SourceId::Box(*box_id));
                    let behind: Vec<(P, SourceId)> =
                        info.owed.iter().map(|s| (*point, *s)).collect();
                    if let RepointOutcome::Moved { .. } = q.ledger.repoint(key, &behind) {
                        scan.bypasses.push(Bypass {
                            request: *r,
                            point: *point,
                            box_id: *box_id,
                            children: info.children_addrs.clone(),
                            permanent: false,
                        });
                    }
                }
            }
            if q.ledger.is_complete() {
                q.closed = true;
                scan.closed.push(*r);
            }
        }
        for i in 0..scan.bypasses.len() {
            let (point, box_id) = (scan.bypasses[i].point, scan.bypasses[i].box_id);
            let events = self.straggles.entry(box_id).or_insert(0);
            *events += 1;
            if *events < repeat_limit {
                continue;
            }
            scan.bypasses[i].permanent = true;
            if let Some(repoint) = self.child_box_failed(point, box_id) {
                scan.closed.extend(repoint.closed.iter().copied());
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

    /// When this node next has something to do unprompted, read off its
    /// state: the oldest open request that still has a child box to bypass
    /// reaching the (constant) straggler threshold, the next probe round,
    /// the earliest ack time-out. A firing that finds nothing due is a no-op.
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
        [straggler, detector].into_iter().flatten().min()
    }

    /// Run what is due at `now`: the straggler scan, ack time-outs, the next
    /// probe round. A box declared dead is failed at every point routing
    /// through it in this transition; the child boxes adopted from it are
    /// probed from the next round on.
    pub fn on_timer(&mut self, now: Instant) -> Fired<P, R> {
        let policy = self.straggler;
        let scan = policy.map(|p| self.scan_stragglers(now, p.threshold, p.repeat_limit));
        let routed = self.routes.values().flat_map(|r| r.child_boxes.keys());
        let boxes: Vec<u32> = routed.copied().collect();
        let (probes, dead) = self.detector.on_timer(now, &boxes);
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
        }
    }
}
