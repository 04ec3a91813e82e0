//! The worker shim's protocol state as one plain struct: where each tree's
//! partials go, the next sequence number per request, and a bounded replay
//! window of sent chunks for straggler/failure resends.
//!
//! Every transition is `&mut self`; the threaded shell
//! ([`crate::shim::WorkerShim`]) keeps the struct behind the single
//! `worker.core` lock and performs the returned sends after releasing it.

use crate::protocol::{RequestId, TreeId};
use crate::window::RecencyWindow;
use crate::AggError;
use bytes::Bytes;
use netagg_net::NodeId;
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

/// One data chunk as it went (or goes again) onto the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentChunk {
    /// The request it belongs to.
    pub request: RequestId,
    /// The tree it travels on.
    pub tree: TreeId,
    /// Its per-request sequence number (starts at 1).
    pub seq: u32,
    /// Whether it closes this worker's contribution on the tree.
    pub last: bool,
    /// The partial result bytes.
    pub payload: Bytes,
}

/// The worker shim's whole protocol state; see the module docs.
#[derive(Debug)]
pub struct WorkerCore {
    /// Destination per tree: the worker's first on-path box, or the master.
    assignments: HashMap<TreeId, NodeId>,
    seqs: HashMap<RequestId, u32>,
    replay: RecencyWindow<RequestId, Vec<SentChunk>>,
}

impl WorkerCore {
    /// State for a worker with the given per-tree destinations.
    pub fn new(assignments: HashMap<TreeId, NodeId>) -> Self {
        Self {
            assignments,
            seqs: HashMap::new(),
            replay: RecencyWindow::new(REPLAY_WINDOW),
        }
    }

    /// Current destination for a tree.
    pub fn dest(&self, tree: TreeId) -> Option<NodeId> {
        self.assignments.get(&tree).copied()
    }

    /// Number the next chunk of `request`, retain it for resends and say
    /// where it goes.
    pub fn next_chunk(
        &mut self,
        request: RequestId,
        tree: TreeId,
        payload: Bytes,
        last: bool,
    ) -> Result<(NodeId, SentChunk), AggError> {
        let dest = self
            .dest(tree)
            .ok_or_else(|| AggError::Net(format!("no assignment for tree {}", tree.0)))?;
        let seq = self.seqs.entry(request).or_insert(0);
        *seq += 1;
        let chunk = SentChunk {
            request,
            tree,
            seq: *seq,
            last,
            payload,
        };
        self.replay.entry(request).push(chunk.clone());
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
    ) -> Vec<SentChunk> {
        if permanent {
            self.assignments.insert(tree, new_parent);
        }
        let retained = self.replay.iter();
        let wanted = retained.filter(|(r, _)| permanent || **r == request);
        let chunks = wanted.flat_map(|(_, chunks)| chunks);
        chunks.filter(|c| c.tree == tree).cloned().collect()
    }

    /// A request's retained chunks with their current destinations (what a
    /// speculative backup task's duplicate output looks like on the wire).
    pub fn retained(&self, request: RequestId) -> Vec<(NodeId, SentChunk)> {
        let chunks = self.replay.get(&request).into_iter().flatten();
        let routed = chunks.filter_map(|c| Some((self.dest(c.tree)?, c.clone())));
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
