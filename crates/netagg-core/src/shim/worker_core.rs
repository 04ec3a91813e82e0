//! The worker shim's protocol state as one plain struct: where each tree's
//! partials go, the next sequence number per request, and a bounded replay
//! window of sent chunks for straggler/failure resends.
//!
//! Every transition is `&mut self` and returns the `Data` it puts on the
//! wire, numbered here; the threaded shell ([`crate::shim::WorkerShim`])
//! keeps the struct behind the single `worker.core` lock and sends what
//! it returns in that order.

use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::window::RecencyWindow;
use crate::AggError;
use bytes::Bytes;
use netagg_net::hash::Map;
use netagg_net::NodeId;
use netagg_obs::trace::TraceCtx;
use std::collections::HashMap;

/// Requests whose sent chunks a worker retains for resends.
const REPLAY_WINDOW: usize = 64;

/// How partial results are spread over multiple aggregation trees
/// (Section 3.1, "Multiple aggregation trees per application").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeSelection {
    /// The whole request uses one tree chosen by hashing the request id
    /// (online services such as search).
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
    seqs: Map<RequestId, u32>,
    /// Sent chunks per request, each with the tree it travels on.
    replay: RecencyWindow<RequestId, Vec<(TreeId, Message)>>,
}

impl WorkerCore {
    /// State for worker `worker` of `app` with the given per-tree
    /// destinations.
    pub fn new(app: AppId, worker: u32, assignments: HashMap<TreeId, NodeId>) -> Self {
        Self {
            source: (app, worker),
            assignments: assignments.into_iter().collect(),
            seqs: Map::default(),
            replay: RecencyWindow::new(REPLAY_WINDOW),
        }
    }

    /// Current destination for a tree.
    pub fn dest(&self, tree: TreeId) -> Option<NodeId> {
        self.assignments.get(&tree).copied()
    }

    /// Number the next chunk of `request` (sequence numbers start at 1),
    /// retain it for resends and say where it goes.
    pub fn next_chunk(
        &mut self,
        request: RequestId,
        tree: TreeId,
        payload: Bytes,
        last: bool,
    ) -> Result<(NodeId, Message), AggError> {
        let dest = self
            .dest(tree)
            .ok_or_else(|| AggError::Net(format!("no assignment for tree {}", tree.0)))?;
        let seq = self.seqs.entry(request).or_insert(0);
        *seq += 1;
        let (app, source) = (self.source.0, SourceId::Worker(self.source.1));
        let (seq, ctx, sent_ns) = (*seq, TraceCtx::NONE, 0);
        let chunk = Message::Data {
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
        self.replay.entry(request).push((tree, chunk.clone()));
        Ok((dest, chunk))
    }

    /// This worker was redirected on `tree`. Permanent (the parent box
    /// failed): re-point the tree and resend everything still retained on
    /// it, so requests in flight at the failed box recover. Per request (a
    /// straggler bypass): resend that request only. Chunks keep their
    /// original sequence numbers; the receiver drops what it already has.
    pub fn redirect(
        &mut self,
        permanent: bool,
        request: RequestId,
        tree: TreeId,
        new_parent: NodeId,
    ) -> Vec<(NodeId, Message)> {
        if permanent {
            self.assignments.insert(tree, new_parent);
        }
        let retained = self.replay.iter();
        let wanted = retained.filter(|(r, _)| permanent || **r == request);
        let chunks = wanted.flat_map(|(_, chunks)| chunks);
        let on_tree = chunks.filter(|(t, _)| *t == tree);
        on_tree.map(|(_, c)| (new_parent, c.clone())).collect()
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
        self.seqs.remove(&request);
    }

    /// Requests with sequence state: every request sent on and not yet
    /// completed.
    pub fn tracked(&self) -> usize {
        self.seqs.len()
    }
}
