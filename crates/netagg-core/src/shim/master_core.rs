//! The master shim's protocol state as one plain struct: the root
//! [`FanInCore`] (per-tree routes, per-request ledgers and received
//! inputs) plus the bounded memory of delivered request ids.
//!
//! Every transition is `&mut self` and takes the time as an argument; the
//! threaded shell ([`crate::shim::MasterShim`]) keeps the struct behind
//! the single `master.core` lock its condvar waits on.

use crate::fanin::{FanInCore, Request, Route, TraceAnchor};
use crate::protocol::{AppId, RequestId, SourceId, TreeId};
use crate::shim::worker_core::{per_request_tree, TreeSelection};
use crate::tree::{Parent, TreeSpec};
use crate::window::RecencyWindow;
use bytes::Bytes;
use std::time::{Duration, Instant};

/// How many delivered request ids the shim remembers for duplicate
/// suppression of late replays. Replays trail the failure they recover
/// from by at most the in-flight window, so a few thousand ids is far
/// more history than any redelivery can span.
const DELIVERED_MEMORY: usize = 4096;

/// A ledger key at the master: a contributor on one tree.
pub type MasterKey = (TreeId, SourceId);

/// Shell state of one pending request.
#[derive(Debug, Default)]
pub struct MasterRequest {
    expected_workers: usize,
    /// Received chunks tagged by contributor, so the final merge can drop
    /// everything from contributors the ledger ignored (exact duplicate
    /// suppression when a box streamed partial chunks and then failed).
    inputs: Vec<(MasterKey, Bytes)>,
}

/// A completed request handed to its waiter.
#[derive(Debug)]
pub struct Delivery {
    /// The chunks to merge: everything received, minus contributors the
    /// ledger ignored.
    pub inputs: Vec<Bytes>,
    /// Workers the application expects results from.
    pub expected_workers: usize,
    /// When the request was registered (or its first data arrived).
    pub registered: Instant,
    /// The request's trace anchor.
    pub trace: Option<TraceAnchor>,
}

/// What [`MasterCore::take_completed`] found.
#[derive(Debug)]
pub enum Taken {
    /// No state for the request (never registered, or reaped by the TTL).
    NotRegistered,
    /// Contributors are still owed.
    Pending,
    /// Complete: the state is gone and the id remembered as delivered.
    Done(Delivery),
}

/// The master shim's whole protocol state; see the module docs.
#[derive(Debug)]
pub struct MasterCore {
    /// The root's routes and per-request ledgers, with the failure and
    /// straggler transitions. Shells call those directly.
    pub fanin: FanInCore<TreeId, RequestId, MasterRequest>,
    /// Recently delivered request ids. Late replayed chunks for these are
    /// duplicates and must not resurrect a fresh ledger entry — that would
    /// complete the request a second time and leak the resurrected entry.
    delivered: RecencyWindow<RequestId, ()>,
    selection: TreeSelection,
    num_trees: u32,
}

impl MasterCore {
    /// The root's routes for `app`: per tree, the root boxes and direct
    /// workers it owes, and the root boxes' recursive child info.
    pub fn new(app: AppId, specs: &[TreeSpec], selection: TreeSelection) -> Self {
        let mut fanin = FanInCore::default();
        for spec in specs {
            let roots = spec.boxes.iter();
            let roots = roots.filter(|b| b.parent == Parent::Master && b.expected_sources() > 0);
            let route = Route {
                owed: spec.master_sources().into_iter().collect(),
                child_boxes: roots
                    .map(|b| (b.box_id, Route::of_box(spec, app, b.box_id)))
                    .collect(),
                ..Route::default()
            };
            fanin.install_route(spec.tree, route);
        }
        Self {
            fanin,
            delivered: RecencyWindow::new(DELIVERED_MEMORY),
            selection,
            num_trees: specs.len() as u32,
        }
    }

    /// Trees that carry data for a request under the configured selection.
    pub fn trees_for(&self, request: RequestId) -> impl Iterator<Item = TreeId> + Clone {
        let trees = match self.selection {
            TreeSelection::PerRequest => {
                let tree = per_request_tree(request, self.num_trees).0;
                tree..tree + 1
            }
            TreeSelection::Keyed => 0..self.num_trees,
        };
        trees.map(TreeId)
    }

    /// Whether new requests on `tree` still owe `source` (a root box that
    /// failed for good no longer is; its children are).
    pub fn still_owed(&self, tree: TreeId, source: SourceId) -> bool {
        let route = self.fanin.route(&tree);
        route.is_none_or(|r| r.owed.contains(&source))
    }

    /// Register a request, first dropping state older than `ttl` that no
    /// waiter claimed (abandoned requests would otherwise accumulate).
    /// `subset` replaces the owed set for a request only some workers take
    /// part in. Returns whether data that arrived before the registration
    /// already completes it.
    pub fn register(
        &mut self,
        request: RequestId,
        expected_workers: usize,
        subset: Option<Vec<MasterKey>>,
        now: Instant,
        ttl: Duration,
        trace: impl FnOnce() -> Option<TraceAnchor>,
    ) -> bool {
        let fresh = |q: &Request<_, _>| q.started.is_none_or(|t| now.duration_since(t) < ttl);
        self.fanin.requests.retain(|_, q| fresh(q));
        let trees = self.trees_for(request);
        let new = || Some((MasterRequest::default(), trace()));
        let Some(q) = self.fanin.open(request, trees, Some(now), new) else {
            return false;
        };
        q.ext.expected_workers = expected_workers;
        subset.is_some_and(|owed| self.fanin.set_requirement(&request, owed))
    }

    /// One data chunk arrived. `None`: dropped (the request was already
    /// delivered or completed, replayed sequence number, re-pointed-away
    /// source). Otherwise whether this chunk completed the request.
    /// Unregistered requests are recorded: the data may arrive before
    /// `register` on another thread.
    #[allow(clippy::too_many_arguments)]
    pub fn accept_data(
        &mut self,
        request: RequestId,
        tree: TreeId,
        source: SourceId,
        seq: u32,
        last: bool,
        payload: Bytes,
        now: Instant,
        trace: impl FnOnce() -> Option<TraceAnchor>,
    ) -> Option<bool> {
        if self.delivered.contains(&request) {
            return None;
        }
        let trees = self.trees_for(request);
        let new = || Some((MasterRequest::default(), trace()));
        let q = self.fanin.open(request, trees, Some(now), new)?;
        let (req, completes) = q.accept_chunk(tree, source, seq, last, now)?;
        if !payload.is_empty() {
            req.inputs.push(((tree, source), payload));
        }
        Some(completes)
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
        let kept = q.ext.inputs.into_iter();
        Taken::Done(Delivery {
            inputs: kept
                .filter(|(k, _)| !q.ledger.is_ignored(k))
                .map(|(_, b)| b)
                .collect(),
            expected_workers: q.ext.expected_workers,
            registered: q.started.expect("master requests start at registration"),
            trace: q.trace,
        })
    }
}
