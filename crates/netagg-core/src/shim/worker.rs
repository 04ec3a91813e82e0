//! Worker-side shim layer.

use crate::conn_cache::ConnCache;
use crate::lifecycle::{
    serve, CancelToken, JoinScope, Mailbox, MailboxRecvError, OrderedMutex, OverflowPolicy,
    DEFAULT_JOIN_DEADLINE,
};
use crate::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use crate::shim::worker_core::{per_request_tree, SentChunk, TreeSelection, WorkerCore};
use crate::spans::Spans;
use crate::tree::{box_addr, master_addr, worker_addr, TreeSpec};
use crate::AggError;
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{Connection, NetError, NodeId, Transport};
use netagg_obs::trace;
use netagg_obs::{names, Counter, MetricsRegistry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Depth of the broadcast delivery mailbox. An application that does not
/// consume broadcasts keeps only the newest `BROADCAST_DEPTH` payloads
/// (`DropOldest`); delivery never blocks the control reader.
const BROADCAST_DEPTH: usize = 256;

/// Worker-shim counters.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Payload bytes sent (excluding protocol framing).
    pub bytes_sent: AtomicU64,
    /// Data chunks sent.
    pub chunks_sent: AtomicU64,
    /// Chunks resent after redirects (failure/straggler recovery).
    pub chunks_resent: AtomicU64,
    /// Redirect messages received.
    pub redirects: AtomicU64,
    /// Broadcast messages received off the wire (counted before the
    /// bounded delivery mailbox applies its drop policy, so tests can wait
    /// for arrival independently of eviction).
    pub broadcasts_received: AtomicU64,
}

/// Pre-resolved `shim.worker.*` metric handles.
struct WorkerObs {
    chunks_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    chunks_resent: Arc<Counter>,
    redirects_applied: Arc<Counter>,
    send_errors: Arc<Counter>,
    /// Send spans, under the component label `worker-<a>-<w>`.
    spans: Spans,
}

impl WorkerObs {
    fn new(registry: &MetricsRegistry, app: AppId, worker: u32) -> Self {
        Self {
            chunks_sent: registry.counter(names::SHIM_WORKER_CHUNKS_SENT),
            bytes_sent: registry.counter(names::SHIM_WORKER_BYTES_SENT),
            chunks_resent: registry.counter(names::SHIM_WORKER_CHUNKS_RESENT),
            redirects_applied: registry.counter(names::SHIM_WORKER_REDIRECTS_APPLIED),
            send_errors: registry.counter(names::SHIM_WORKER_SEND_ERRORS),
            spans: Spans::new(registry, format!("worker-{}-{}", app.0, worker)),
        }
    }
}

struct Inner {
    app: AppId,
    worker: u32,
    selection: TreeSelection,
    num_trees: u32,
    core: OrderedMutex<WorkerCore>,
    conns: ConnCache,
    /// Broadcasts received down the tree, delivered to the application
    /// through a bounded `DropOldest` mailbox (a non-consuming application
    /// keeps the newest [`BROADCAST_DEPTH`] payloads).
    broadcasts: Mailbox<(u64, Bytes)>,
    stats: WorkerStats,
    obs: WorkerObs,
    cancel: CancelToken,
}

/// The worker-side shim: intercepts outgoing partial results and redirects
/// them to the assigned agg box.
pub struct WorkerShim {
    inner: Arc<Inner>,
    scope: Arc<JoinScope>,
}

impl WorkerShim {
    /// Start a worker shim: binds the worker's address (to receive
    /// redirects), derives tree assignments from the specs and publishes
    /// `shim.worker.*` metrics to `obs`.
    pub fn start(
        transport: Arc<dyn Transport>,
        app: AppId,
        worker: u32,
        specs: &[TreeSpec],
        selection: TreeSelection,
        obs: MetricsRegistry,
    ) -> Result<Arc<Self>, NetError> {
        let addr = worker_addr(app, worker);
        let mut assignments = HashMap::new();
        for spec in specs {
            let dest = match spec.worker_assignment.get(&worker) {
                Some(b) => box_addr(*b),
                None => master_addr(app),
            };
            assignments.insert(spec.tree, dest);
        }
        let listener = transport.bind(addr)?;
        let cancel = CancelToken::new();
        let scope = Arc::new(JoinScope::with_obs(
            format!("worker-shim-{}-{}", app.0, worker),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            Some(&obs),
        ));
        let broadcasts = Mailbox::with_obs(
            format!("worker{}-{}.broadcast", app.0, worker),
            BROADCAST_DEPTH,
            OverflowPolicy::DropOldest,
            cancel.clone(),
            &obs,
        );
        let inner = Arc::new(Inner {
            app,
            worker,
            selection,
            num_trees: specs.len() as u32,
            core: OrderedMutex::new(lock_order::WORKER_CORE, WorkerCore::new(assignments)),
            conns: ConnCache::new(transport, addr),
            broadcasts,
            stats: WorkerStats::default(),
            obs: WorkerObs::new(&obs, app, worker),
            cancel,
        });
        let shim = Arc::new(Self {
            inner: inner.clone(),
            scope,
        });
        {
            // Control connections: redirects, heartbeats, broadcasts.
            let inner = inner.clone();
            serve(
                &shim.scope,
                listener,
                format!("worker-shim-{}-{}", app.0, worker),
                format!("worker-shim-{}-{}-ctrl", app.0, worker),
                move |conn| control_loop(&inner, conn),
            )?;
        }
        Ok(shim)
    }

    /// The worker this shim serves.
    pub fn worker_id(&self) -> u32 {
        self.inner.worker
    }

    /// Counters exposed for the harness and tests.
    pub fn stats(&self) -> &WorkerStats {
        &self.inner.stats
    }

    /// Send a complete partial result for a request (single chunk).
    pub fn send_partial(&self, request: u64, payload: Bytes) -> Result<(), AggError> {
        self.send_chunk(request, payload, true)
    }

    /// Send a large partial result split into `chunk_bytes`-sized chunks
    /// (the payload must be splittable at byte granularity only if the
    /// application's deserialiser can handle it — for record-oriented data
    /// prefer chunking at record boundaries and calling `send_chunk`).
    pub fn send_partial_chunked(
        &self,
        request: u64,
        payload: Bytes,
        chunk_bytes: usize,
    ) -> Result<(), AggError> {
        assert!(chunk_bytes > 0);
        if payload.len() <= chunk_bytes {
            return self.send_chunk(request, payload, true);
        }
        let mut offset = 0;
        while offset < payload.len() {
            let end = (offset + chunk_bytes).min(payload.len());
            let last = end == payload.len();
            self.send_chunk(request, payload.slice(offset..end), last)?;
            offset = end;
        }
        Ok(())
    }

    /// Send one chunk; `last` closes this worker's contribution on the
    /// request's tree. Only valid under [`TreeSelection::PerRequest`].
    pub fn send_chunk(&self, request: u64, payload: Bytes, last: bool) -> Result<(), AggError> {
        assert_eq!(
            self.inner.selection,
            TreeSelection::PerRequest,
            "use send_chunk_keyed / finish_request under Keyed selection"
        );
        let request = RequestId(request);
        let tree = per_request_tree(request, self.inner.num_trees);
        self.inner.send_on_tree(request, tree, payload, last)
    }

    /// Send one chunk on the tree selected by `key_hash` (Keyed mode).
    pub fn send_chunk_keyed(
        &self,
        request: u64,
        key_hash: u64,
        payload: Bytes,
    ) -> Result<(), AggError> {
        assert_eq!(self.inner.selection, TreeSelection::Keyed);
        let request = RequestId(request);
        let tree = TreeId((key_hash % self.inner.num_trees as u64) as u32);
        self.inner.send_on_tree(request, tree, payload, false)
    }

    /// Close this worker's contribution on every tree (Keyed mode).
    pub fn finish_request(&self, request: u64) -> Result<(), AggError> {
        assert_eq!(self.inner.selection, TreeSelection::Keyed);
        let request = RequestId(request);
        for t in 0..self.inner.num_trees {
            self.inner
                .send_on_tree(request, TreeId(t), Bytes::new(), true)?;
        }
        Ok(())
    }

    /// Drop replay and sequence state for a completed request.
    pub fn complete_request(&self, request: u64) {
        self.inner.core.lock().forget(RequestId(request));
    }

    /// Requests this shim still holds sequence state for (sent on, not
    /// yet completed).
    pub fn tracked_requests(&self) -> usize {
        self.inner.core.lock().tracked()
    }

    /// Current destination for a tree (exposed for tests).
    pub fn assignment(&self, tree: TreeId) -> Option<NodeId> {
        self.inner.core.lock().dest(tree)
    }

    /// Re-send a request's buffered chunks to the current assignments with
    /// their original sequence numbers. This is what a speculative backup
    /// task's duplicate output looks like on the wire: the agg box's
    /// per-source duplicate suppression drops the copies (Section 3.1,
    /// "Handling stragglers"/Hadoop speculative execution).
    pub fn resend_request(&self, request: u64) {
        let chunks = self.inner.core.lock().retained(RequestId(request));
        for (dest, chunk) in chunks {
            self.inner.resend(dest, chunk);
        }
    }

    /// Receive the next broadcast distributed down the tree (the paper's
    /// one-to-many extension): returns `(request id, payload)`.
    pub fn recv_broadcast(&self, timeout: Duration) -> Result<(u64, Bytes), AggError> {
        match self.inner.broadcasts.recv_timeout(timeout) {
            Ok(v) => Ok(v),
            Err(MailboxRecvError::Timeout) => Err(AggError::Timeout),
            Err(_) => Err(AggError::Shutdown), // cancelled or closed
        }
    }

    /// Stop the shim's threads: cancel the token (waking blocked accepts,
    /// control reads and broadcast receivers immediately) and join the
    /// scope under its deadline. Idempotent.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        self.scope.finish();
    }
}

impl Drop for WorkerShim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Number, retain and send one chunk. `Err` means nothing was retained
    /// (no assignment for the tree). Once `next_chunk` has retained the
    /// chunk a transport error is recoverable — the destination box is
    /// dead or dying, and the detector's permanent `Redirect` replays the
    /// retained chunk to its successor (§8) — so it is counted in
    /// `shim.worker.send_errors` and the send still returns `Ok`: callers
    /// keep numbering the rest of their stream instead of each deciding
    /// what a failed send means.
    fn send_on_tree(
        &self,
        request: RequestId,
        tree: TreeId,
        payload: Bytes,
        last: bool,
    ) -> Result<(), AggError> {
        let (dest, chunk) = self.core.lock().next_chunk(request, tree, payload, last)?;
        let bytes = chunk.payload.len() as u64;
        self.stats.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.stats.chunks_sent.fetch_add(1, Ordering::Relaxed);
        self.obs.bytes_sent.add(bytes);
        self.obs.chunks_sent.inc();
        if self
            .send_data(dest, chunk, names::spans::WORKER_SEND)
            .is_err()
        {
            self.obs.send_errors.inc();
        }
        Ok(())
    }

    fn send_data(
        &self,
        dest: NodeId,
        chunk: SentChunk,
        span_name: &'static str,
    ) -> Result<(), AggError> {
        // Per-chunk trace context: the worker is the leaf of the causal
        // tree, so the chunk's parent on the wire is this send span and the
        // send span's own parent is the request root (trace id).
        let (request, spans) = (chunk.request, &self.obs.spans);
        let sampled = spans.tracer.sampled(request.0);
        let tid = sampled.then(|| trace::trace_id(self.app.0, request.0));
        let (ctx, sent_ns) = spans.outbound(tid);
        let msg = Message::Data {
            app: self.app,
            request,
            tree: chunk.tree,
            source: SourceId::Worker(self.worker),
            seq: chunk.seq,
            last: chunk.last,
            ctx,
            sent_ns,
            payload: chunk.payload,
        };
        let result = self.conns.send_to(dest, msg.encode());
        spans.sent(span_name, ctx, ctx.trace_id, request, sent_ns);
        result.map_err(AggError::from)
    }

    /// Put a retained chunk on the wire again, to `dest`.
    fn resend(&self, dest: NodeId, chunk: SentChunk) {
        self.stats.chunks_resent.fetch_add(1, Ordering::Relaxed);
        self.obs.chunks_resent.inc();
        let _ = self.send_data(dest, chunk, names::spans::WORKER_RESEND);
    }
}

fn control_loop(inner: &Arc<Inner>, mut conn: Box<dyn Connection>) {
    // Until cancelled, the peer closes, or the transport fails.
    while let Ok(frame) = conn.recv_cancellable(&inner.cancel) {
        let Ok(msg) = Message::decode(frame) else {
            continue;
        };
        match msg {
            Message::Redirect {
                app,
                permanent,
                request,
                tree,
                new_parent,
            } => {
                if app != inner.app {
                    continue;
                }
                inner.stats.redirects.fetch_add(1, Ordering::Relaxed);
                inner.obs.redirects_applied.inc();
                let chunks = inner
                    .core
                    .lock()
                    .redirect(permanent, request, tree, new_parent);
                for chunk in chunks {
                    inner.resend(new_parent, chunk);
                }
            }
            Message::Broadcast {
                app,
                request,
                payload,
                ..
            } if app == inner.app => {
                inner
                    .stats
                    .broadcasts_received
                    .fetch_add(1, Ordering::Relaxed);
                // DropOldest: never blocks; a non-consuming application
                // keeps only the newest BROADCAST_DEPTH payloads.
                let _ = inner.broadcasts.send((request.0, payload));
            }
            _ => {}
        }
    }
}
