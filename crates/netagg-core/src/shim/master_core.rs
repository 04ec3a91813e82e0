//! The master shim's protocol state as one plain struct: the root
//! [`FanInCore`] (per-tree routes, per-request ledgers and received
//! inputs) plus the bounded memory of delivered request ids.
//!
//! Every transition is `&mut self`, takes the time as an argument and
//! queues what it puts on the wire in the core's [`Outbox`]; the threaded
//! shell ([`crate::shim::MasterShim`]) keeps the struct behind the single
//! `node.core` lock its waiters park on and drives it through [`Node`].

use crate::fanin::{Anchors, FanInCore, Fired, Route, TraceAnchor};
use crate::node::{Completed, Node, Outbox, Step};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::runtime::DeploymentConfig;
use crate::shim::worker_core::{per_request_tree, TreeSelection};
use crate::straggler::StragglerPolicy;
use crate::tree::{box_addr, master_addr, Parent, TreeSpec};
use crate::window::RecencyWindow;
use bytes::Bytes;
use netagg_net::NodeId;
use netagg_obs::trace::TraceCtx;
use std::time::Instant;

/// How many delivered request ids the shim remembers for duplicate
/// suppression of late replays. Replays trail the failure they recover
/// from by at most the in-flight window, so a few thousand ids is far
/// more history than any redelivery can span.
pub const DELIVERED_MEMORY: usize = 4096;

/// A ledger key at the master: a contributor on one tree.
pub type MasterKey = (TreeId, SourceId);

/// What a master transition leaves its shell to act on.
pub type MasterStep = Step<TreeId, RequestId>;

/// Shell state of one pending request.
#[derive(Debug, Default)]
pub struct MasterRequest {
    expected_workers: usize,
    /// Received chunks tagged by contributor (the final merge drops what the
    /// ledger ignored: a box that streamed partials, then failed) and by
    /// whether each is a fold ([`SourceId::folded`]).
    inputs: Vec<(MasterKey, Bytes, bool)>,
}

/// A completed request handed to its waiter.
#[derive(Debug)]
pub struct Delivery {
    /// The chunks to merge: everything received, minus contributors the
    /// ledger ignored.
    pub inputs: Vec<Bytes>,
    /// The one input is a box's whole output, a fold: the result as it is.
    pub folded: bool,
    /// Workers the application expects results from.
    pub expected_workers: usize,
    /// When the request was registered (or its first data arrived).
    pub registered: Instant,
    /// The request's trace anchor.
    pub trace: Option<TraceAnchor>,
}

impl Delivery {
    /// The result: the one chunk if folded, else the fold of every input.
    pub fn result(self, agg: &dyn crate::DynAggregator) -> Result<Bytes, crate::AggError> {
        match (self.folded, &self.inputs[..]) {
            (true, [chunk]) => Ok(chunk.clone()),
            _ => agg.aggregate_serialized(self.inputs),
        }
    }
}

/// What [`MasterCore::take_completed`] found.
#[derive(Debug)]
pub enum Taken {
    /// No state for the request: never registered, taken, reaped, or
    /// refused (registered again while still remembered as delivered).
    NotRegistered,
    /// Contributors are still owed.
    Pending,
    /// Complete: the state is gone and the id remembered as delivered.
    Done(Delivery),
}

/// The master shim's whole protocol state; see the module docs.
pub struct MasterCore {
    /// The root's routes and per-request ledgers, with the failure and
    /// straggler transitions. Shells call those directly.
    pub fanin: FanInCore<TreeId, RequestId, MasterRequest>,
    /// Recently delivered (or reaped) request ids. Late replayed chunks for
    /// these are duplicates and must not resurrect a fresh ledger entry —
    /// that would complete the request a second time and leak the entry.
    delivered: RecencyWindow<RequestId, ()>,
    selection: TreeSelection,
    num_trees: u32,
    /// What transitions produced and the shell has not yet sent.
    pub outbox: Outbox,
    /// A new request's trace anchor, if it is sampled.
    pub anchor: Anchors,
}

impl MasterCore {
    /// The master of `app` in a deployment under `cfg`: per tree, the
    /// root's route — the root boxes and direct workers it owes and
    /// broadcasts to, the root boxes' routes below — and its straggler
    /// policy.
    pub fn new(app: AppId, specs: &[TreeSpec], cfg: &DeploymentConfig) -> Self {
        let mut fanin = FanInCore::default();
        (fanin.addr, fanin.app) = (master_addr(app), app);
        // Hierarchical thresholds: the master waits longer than the boxes
        // so box-level bypass (closer to the data) resolves stragglers
        // first. The root never escalates: declaring a root box dead for
        // good is the failure detector's call.
        fanin.straggler = cfg.straggler.map(|p| StragglerPolicy {
            threshold: p.threshold * 4,
            repeat_limit: u32::MAX,
        });
        for spec in specs {
            fanin.install_route(spec.tree, Route::of(spec, app, Parent::Master));
        }
        Self {
            fanin,
            delivered: RecencyWindow::new(DELIVERED_MEMORY),
            selection: cfg.selection,
            num_trees: specs.len() as u32,
            outbox: Outbox::default(),
            anchor: Box::new(|_, _| None),
        }
    }

    /// Trees that carry data for a request under the configured selection.
    fn trees_for(&self, request: RequestId) -> impl Iterator<Item = TreeId> + Clone {
        let trees = match self.selection {
            TreeSelection::PerRequest => {
                let tree = per_request_tree(request, self.num_trees).0;
                tree..tree + 1
            }
            TreeSelection::Keyed => 0..self.num_trees,
        };
        trees.map(TreeId)
    }

    /// Delivered (or reaped) ids the master remembers.
    pub fn delivered_len(&self) -> usize {
        self.delivered.iter().count()
    }

    /// A request only `workers` take part in (e.g. a search query routed
    /// to some shards): the owed set to [`MasterCore::register`] it with.
    /// Queues a `RequestMeta` telling every participating box exactly which
    /// sources to expect (the paper's shim-layer request tracking). Read
    /// off the routes, so a root box that already failed is substituted by
    /// its participating children.
    pub fn subset(&mut self, request: RequestId, workers: &[u32]) -> Vec<MasterKey> {
        let (mut owed, mut metas) = (Vec::new(), Vec::new());
        for tree in self.trees_for(request) {
            let mut meta = |b: u32, sources: Vec<SourceId>| {
                let (app, ctx) = (self.fanin.app, TraceCtx::NONE);
                let meta = Message::RequestMeta {
                    app,
                    request,
                    tree,
                    sources,
                    ctx,
                };
                metas.push((box_addr(b), meta));
            };
            let route = self.fanin.route(&tree).into_iter();
            let sources = route.flat_map(|r| participating(r, workers, &mut meta));
            owed.extend(sources.map(|s| (tree, s)));
        }
        self.outbox.post(metas);
        owed
    }

    /// Queue one copy of a broadcast per direct child on each of the
    /// request's trees: the live root boxes and the workers that send here
    /// directly.
    pub fn broadcast(&mut self, request: RequestId, payload: Bytes) {
        let trees = self.trees_for(request);
        let copies = trees.flat_map(|t| self.fanin.broadcast(t, request, payload.clone()));
        let copies: Vec<_> = copies.collect();
        self.outbox.post(copies);
    }

    /// Register a request, whose straggler clock starts now unless its
    /// data already did. `subset` replaces the owed set for a request only
    /// some workers take part in. Returns whether data that arrived before
    /// the registration already completes it. An id still in the
    /// `delivered` window is refused: every chunk for it would be dropped,
    /// so no state opens and its waiter finds it not registered at once.
    pub fn register(
        &mut self,
        request: RequestId,
        expected_workers: usize,
        subset: Option<Vec<MasterKey>>,
        now: Instant,
    ) -> bool {
        if self.delivered.contains(&request) {
            return false;
        }
        let (trees, app, anchor) = (self.trees_for(request), self.fanin.app, &self.anchor);
        let new = || Some((MasterRequest::default(), anchor(app, request)));
        let Some(q) = self.fanin.open(request, trees, now, new) else {
            return false;
        };
        q.started.get_or_insert(now);
        q.ext.expected_workers = expected_workers;
        subset.is_some_and(|owed| self.fanin.set_requirement(&request, owed))
    }

    /// The requests `closed` completed, with when each started.
    pub fn completions(&self, closed: impl IntoIterator<Item = RequestId>) -> Completed<RequestId> {
        let started = |r| (r, self.fanin.requests.get(&r).and_then(|q| q.started));
        closed.into_iter().map(started).collect()
    }

    /// Declare a root box failed for good on `tree` (the detector's
    /// verdict, or an operator's) and queue its re-points: a firing of
    /// that one failure, and the requests it completed.
    pub fn fail_box(&mut self, tree: TreeId, failed_box: u32) -> MasterStep {
        let Some(mut r) = self.fanin.child_box_failed(tree, failed_box) else {
            return Step::default();
        };
        self.outbox.post(std::mem::take(&mut r.sends));
        let completed = self.completions(r.closed.iter().copied());
        let (scan, probes, dead, reaped) = (None, Vec::new(), Vec::new(), Vec::new());
        let failed = vec![(tree, failed_box, r)];
        let fired = Some(Fired {
            scan,
            probes,
            dead,
            failed,
            reaped,
        });
        Step {
            completed,
            fired,
            ..Step::default()
        }
    }

    /// Hand a completed request to its waiter: drop its state and remember
    /// the id, so late replayed chunks cannot resurrect it.
    pub fn take_completed(&mut self, request: RequestId) -> Taken {
        match self.fanin.requests.get(&request) {
            None => return Taken::NotRegistered,
            Some(q) if !q.closed => return Taken::Pending,
            Some(_) => {}
        }
        let q = self.fanin.requests.remove(&request).expect("checked above");
        self.delivered.entry(request);
        let mut kept = q.ext.inputs;
        kept.retain(|(k, ..)| !q.ledger.is_ignored(k));
        Taken::Done(Delivery {
            folded: matches!(kept[..], [(.., true)]),
            inputs: kept.into_iter().map(|(_, b, _)| b).collect(),
            expected_workers: q.ext.expected_workers,
            registered: q.started.expect("master requests start at registration"),
            trace: q.trace,
        })
    }
}

impl Node for MasterCore {
    type Report = MasterStep;
    const TIMER: bool = true;

    /// This application's data goes to its request, an ack to the
    /// detector.
    fn on_message(&mut self, msg: Message, now: Instant) -> Self::Report {
        let mut step = Step::default();
        match msg {
            // Dropped: another application's, already delivered or
            // closed, a replayed sequence number, a re-pointed-away source.
            // Recorded unregistered: data may arrive before `register`.
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
                let ours = app == self.fanin.app && !self.delivered.contains(&request);
                let (trees, anchor) = (self.trees_for(request), &self.anchor);
                let new = || Some((MasterRequest::default(), anchor(app, request)));
                let q = ours.then(|| self.fanin.open(request, trees, now, new));
                let took = q
                    .flatten()
                    .and_then(|q| q.accept_chunk(tree, source, seq, last, now));
                let Some((req, completes, gap)) = took else {
                    step.dropped = true;
                    return step;
                };
                if !payload.is_empty() {
                    let folded = source.folded(seq, last);
                    req.inputs.push(((tree, source), payload, folded));
                }
                if gap {
                    step.gaps.push((request, source));
                }
                if completes {
                    step.closed = Some(request);
                    step.completed = self.completions([request]);
                }
            }
            Message::HeartbeatAck { from, nonce } => self.fanin.detector.ack(from, nonce),
            _ => {}
        }
        step
    }

    /// The same reap, straggler scan and failure detection the boxes run,
    /// on the root's routes; a reaped id is remembered as delivered.
    fn on_timer(&mut self, now: Instant) -> Self::Report {
        let mut fired = self.fanin.on_timer(now);
        for (r, _) in &fired.reaped {
            self.delivered.entry(*r);
        }
        self.outbox.post(fired.take_sends());
        let completed = self.completions(fired.closed());
        let fired = Some(fired);
        Step {
            completed,
            fired,
            ..Step::default()
        }
    }

    fn send_failed(&mut self, to: NodeId, msg: &Message) {
        self.fanin.detector.send_failed(to, msg);
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.fanin.next_deadline()
    }

    fn outbox(&mut self) -> &mut Outbox {
        &mut self.outbox
    }

    /// A request still open never reaches its waiter; one already closed
    /// is the waiter's to record.
    fn teardown(&mut self) -> Vec<(RequestId, TraceAnchor)> {
        let open = self.fanin.requests.drain().filter(|(_, q)| !q.closed);
        open.filter_map(|(r, q)| Some((r, q.trace?))).collect()
    }
}

/// The sources `route` owes that take part in a request only `workers`
/// do — those workers, and the child boxes with one of them below — each
/// such box told through `meta` which of its own sources to expect.
fn participating(
    route: &Route,
    workers: &[u32],
    meta: &mut impl FnMut(u32, Vec<SourceId>),
) -> Vec<SourceId> {
    let takes_part = |s: &SourceId| match *s {
        SourceId::Worker(w) => workers.contains(&w),
        SourceId::Box(b) => route.child_boxes.get(&b).is_some_and(|child| {
            let sources = participating(child, workers, meta);
            let below = !sources.is_empty();
            if below {
                meta(b, sources);
            }
            below
        }),
    };
    route.owed.iter().copied().filter(takes_part).collect()
}
