//! The worker shim's protocol state as one plain struct: where each tree's
//! partials go, the next sequence number per request and tree, and a
//! bounded replay window of sent chunks for straggler/failure resends.
//!
//! Every transition is `&mut self` and queues the `Data` it puts on the
//! wire, numbered here, in the core's [`Outbox`]; the threaded shell
//! ([`crate::shim::WorkerShim`]) keeps the struct behind the single
//! `node.core` lock and drives it through [`Node`].

use crate::fanin::TraceAnchor;
use crate::node::{Emit, Node, Outbox};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::tree::{box_addr, master_addr, TreeSpec};
use crate::window::RecencyWindow;
use crate::AggError;
use bytes::Bytes;
use netagg_net::hash::Map;
use netagg_net::NodeId;
use netagg_obs::trace::TraceCtx;
use std::time::Instant;

/// Requests whose sent chunks a worker retains for resends.
const REPLAY_WINDOW: usize = 64;

/// How partial results are spread over multiple aggregation trees
/// (Section 3.1, "Multiple aggregation trees per application").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeSelection {
    /// The whole request uses one tree chosen by hashing the request id
    /// (online services such as search).
    #[default]
    PerRequest,
    /// Each chunk picks its tree from a caller-provided key hash (batch
    /// applications partition by key); `finish_request` closes every tree.
    Keyed,
}

/// Tree used by a whole request under per-request selection. Master and
/// workers must agree, so this tiny hash is shared.
pub(crate) fn per_request_tree(request: RequestId, num_trees: u32) -> TreeId {
    TreeId((crate::protocol_hash(request.0) % num_trees.max(1) as u64) as u32)
}

/// The worker shim's whole protocol state; see the module docs.
#[derive(Debug)]
pub struct WorkerCore {
    /// The application and worker its chunks come from.
    source: (AppId, u32),
    /// Destination per tree: the worker's first on-path box, or the master.
    assignments: Map<TreeId, NodeId>,
    /// How the worker's chunks spread over its `trees` trees.
    selection: TreeSelection,
    trees: u32,
    /// The last sequence number per stream (a request on a tree) until its `last`.
    seqs: Map<(RequestId, TreeId), u32>,
    /// Sent chunks per request, each with the tree it travels on.
    replay: RecencyWindow<RequestId, Vec<(TreeId, Message)>>,
    /// What transitions produced and the shell has not yet sent.
    pub outbox: Outbox,
}

/// What a worker's transition leaves its shell to act on.
#[derive(Debug, Default, PartialEq)]
pub enum WorkerStep {
    /// Nothing: a message not for this worker.
    #[default]
    Idle,
    /// A redirect queued this many retained chunks again.
    Redirected(usize),
    /// A broadcast to deliver to the application.
    Broadcast(RequestId, Bytes),
}

impl WorkerCore {
    /// Worker `worker` of `app`, sending each tree's partials to its
    /// first on-path box in `specs` (the master if it has none), spread
    /// over the trees by `selection`.
    pub fn new(app: AppId, worker: u32, specs: &[TreeSpec], selection: TreeSelection) -> Self {
        let dest = |s: &TreeSpec| s.worker_assignment.get(&worker).map(|b| box_addr(*b));
        let dest = |s: &TreeSpec| (s.tree, dest(s).unwrap_or(master_addr(app)));
        Self {
            source: (app, worker),
            assignments: specs.iter().map(dest).collect(),
            selection,
            trees: specs.len() as u32,
            seqs: Map::default(),
            replay: RecencyWindow::new(REPLAY_WINDOW),
            outbox: Outbox::default(),
        }
    }

    /// The tree a chunk of `request` travels on: the one the request id
    /// hashes to, or — under keyed selection — the one `key_hash` picks.
    ///
    /// # Panics
    /// If `key_hash` is given under per-request selection, or missing
    /// under keyed selection.
    pub fn tree(&self, request: RequestId, key_hash: Option<u64>) -> TreeId {
        match (self.selection, key_hash) {
            (TreeSelection::PerRequest, None) => per_request_tree(request, self.trees),
            (TreeSelection::Keyed, Some(key)) => TreeId((key % self.trees as u64) as u32),
            (selection, _) => panic!(
                "under {selection:?} selection use send_chunk (PerRequest) or \
                 send_chunk_keyed / finish_request (Keyed)"
            ),
        }
    }

    /// How many trees the worker's chunks spread over.
    pub fn trees(&self) -> u32 {
        self.trees
    }

    /// Current destination for a tree.
    pub fn dest(&self, tree: TreeId) -> Option<NodeId> {
        self.assignments.get(&tree).copied()
    }

    /// Number the next chunk of `request` on `tree` (sequence numbers
    /// start at 1 per tree), retain it for resends and queue it under the
    /// request's `trace` anchor.
    pub fn next_chunk(
        &mut self,
        (request, tree): (RequestId, TreeId),
        payload: Bytes,
        last: bool,
        trace: Option<TraceAnchor>,
    ) -> Result<(), AggError> {
        let to = self
            .dest(tree)
            .ok_or_else(|| AggError::Net(format!("no assignment for tree {}", tree.0)))?;
        let seq = self.seqs.remove(&(request, tree)).unwrap_or(0) + 1;
        self.seqs.extend((!last).then_some(((request, tree), seq)));
        let (app, source) = (self.source.0, SourceId::Worker(self.source.1));
        let (ctx, sent_ns) = (TraceCtx::NONE, 0);
        let msg = Message::Data {
            app,
            request,
            tree,
            source,
            seq,
            last,
            ctx,
            sent_ns,
            payload,
        };
        self.replay.entry(request).push((tree, msg.clone()));
        self.outbox.post([Emit { to, msg, trace }]);
        Ok(())
    }

    /// A request's retained chunks with their current destinations (what a
    /// speculative backup task's duplicate output looks like on the wire).
    pub fn retained(&self, request: RequestId) -> Vec<(NodeId, Message)> {
        let chunks = self.replay.get(&request).into_iter().flatten();
        let routed = chunks.filter_map(|(t, c)| Some((self.dest(*t)?, c.clone())));
        routed.collect()
    }

    /// Drop sequence and replay state for a completed request.
    pub fn forget(&mut self, request: RequestId) {
        self.replay.remove(&request);
        self.seqs.retain(|(r, _), _| *r != request);
    }

    /// Requests with retained replay: what [`WorkerCore::forget`] drops.
    pub fn tracked(&self) -> usize {
        self.replay.iter().count()
    }

    /// Sequence streams not yet ended by their `last` chunk.
    pub fn open_streams(&self) -> usize {
        self.seqs.len()
    }
}

impl Node for WorkerCore {
    type Report = WorkerStep;

    /// A redirect for this application on `tree`: permanent (the parent
    /// box failed), re-point the tree and resend everything still retained
    /// on it, so requests in flight at the failed box recover; per request
    /// (a straggler bypass), resend that request only. Chunks keep their
    /// sequence numbers; the receiver drops what it already has. A
    /// broadcast is handed to the shell to deliver.
    fn on_message(&mut self, msg: Message, _: Instant) -> WorkerStep {
        match msg {
            Message::Redirect {
                app,
                permanent,
                request,
                tree,
                new_parent,
            } if app == self.source.0 => {
                if permanent {
                    self.assignments.insert(tree, new_parent);
                }
                let retained = self.replay.iter();
                let wanted = retained.filter(|(r, _)| permanent || **r == request);
                let on_tree = wanted.flat_map(|(_, c)| c).filter(|(t, _)| *t == tree);
                let resends: Vec<_> = on_tree.map(|(_, c)| (new_parent, c.clone())).collect();
                let n = resends.len();
                self.outbox.post(resends);
                WorkerStep::Redirected(n)
            }
            Message::Broadcast {
                app,
                request,
                payload,
                ..
            } if app == self.source.0 => WorkerStep::Broadcast(request, payload),
            _ => WorkerStep::Idle,
        }
    }

    /// Changes nothing: the chunk stayed retained when it was numbered, and
    /// the detector's permanent `Redirect` replays it to a live parent (§8).
    fn send_failed(&mut self, _: NodeId, _: &Message) {}

    fn outbox(&mut self) -> &mut Outbox {
        &mut self.outbox
    }
}
