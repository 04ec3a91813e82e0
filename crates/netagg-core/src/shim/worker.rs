//! Worker-side shim layer: [`WorkerCore`] in the node `Shell` (`shell.rs`).
//! The application's thread that numbers a chunk, and the control reader
//! that applies a redirect, each drain the core's outbox: a replay cannot
//! be overtaken by a fresher chunk its receiver would then count it a
//! duplicate of. The worker's hook is its broadcast delivery. Who records:
//! the shell's recorder (`spans.rs`, under its `WORKER` names) records the
//! send spans and what the control reader and the sends count; numbering
//! a chunk counts it sent.

use crate::lifecycle::{Mailbox, MailboxRecvError, OverflowPolicy};
use crate::protocol::{AppId, RequestId, TreeId};
use crate::runtime::DeploymentConfig;
use crate::shell::{Outlet, Shell};
use crate::shim::worker_core::{WorkerCore, WorkerStep};
use crate::spans::{self, Names, Recorder};
use crate::tree::{worker_addr, TreeSpec};
use crate::AggError;
use bytes::Bytes;
use netagg_net::{NetError, NodeId, Transport};
use netagg_obs::{names, Counter, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Depth of the broadcast delivery mailbox. An application that does not
/// consume broadcasts keeps only the newest `BROADCAST_DEPTH` payloads
/// (`DropOldest`); delivery never blocks the control reader.
const BROADCAST_DEPTH: usize = 256;

/// The worker shim's own counters, each its part of the registry counter
/// named beside it: the shim reads its events, the registry their sum.
#[derive(Debug)]
pub struct WorkerStats {
    /// Payload bytes sent, excluding framing (`shim.worker.bytes_sent`).
    pub bytes_sent: Arc<Counter>,
    /// Data chunks sent (`shim.worker.chunks_sent`).
    pub chunks_sent: Arc<Counter>,
    /// Chunks replayed after a redirect (`shim.worker.chunks_resent`).
    pub chunks_resent: Arc<Counter>,
    /// Redirect messages applied (`shim.worker.redirects_applied`).
    pub redirects: Arc<Counter>,
    /// Broadcasts received off the wire, before the delivery mailbox drops
    /// any, so tests can wait for arrival (`shim.worker.broadcasts_received`).
    pub broadcasts_received: Arc<Counter>,
    /// Failed sends of a retained chunk (`shim.worker.send_errors`).
    pub send_errors: Arc<Counter>,
}

/// The worker's part of its shell: broadcast delivery and counters.
struct WorkerOutlet {
    app: AppId,
    worker: u32,
    /// Broadcasts received down the tree, delivered to the application
    /// through a bounded `DropOldest` mailbox (a non-consuming application
    /// keeps the newest [`BROADCAST_DEPTH`] payloads).
    broadcasts: Mailbox<(u64, Bytes)>,
    stats: WorkerStats,
}

/// The worker-side shim: intercepts outgoing partial results and redirects
/// them to the assigned agg box.
pub struct WorkerShim {
    shell: Arc<Shell<WorkerCore, WorkerOutlet>>,
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
        cfg: &DeploymentConfig,
        obs: &MetricsRegistry,
    ) -> Result<Arc<Self>, NetError> {
        let at = (worker_addr(app, worker), app, &[app.0 as u32, worker][..]);
        let name = (format!("worker-shim-{}-{}", app.0, worker), ["", "-ctrl"]);
        // Its reader takes the control connections: redirects, heartbeats,
        // broadcasts.
        let shell = Shell::start(transport, at, name, obs, |_, cancel, rec| {
            let broadcasts = Mailbox::with_obs(
                format!("worker{}-{}.broadcast", app.0, worker),
                BROADCAST_DEPTH,
                OverflowPolicy::DropOldest,
                cancel.clone(),
                obs,
            );
            let hook = WorkerOutlet {
                app,
                worker,
                broadcasts,
                stats: WorkerStats {
                    bytes_sent: obs.counter_part(names::SHIM_WORKER_BYTES_SENT),
                    chunks_sent: obs.counter_part(names::SHIM_WORKER_CHUNKS_SENT),
                    chunks_resent: rec.resent.clone(),
                    redirects: rec.redirects.clone(),
                    broadcasts_received: rec.broadcasts.clone(),
                    send_errors: rec.send_errors.clone(),
                },
            };
            (WorkerCore::new(app, worker, specs, cfg.selection), hook)
        })?;
        Ok(Arc::new(Self { shell }))
    }

    /// The worker this shim serves.
    pub fn worker_id(&self) -> u32 {
        self.shell.hook.worker
    }

    /// This shim's counters: its parts of the registry's totals.
    pub fn stats(&self) -> &WorkerStats {
        &self.shell.hook.stats
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
    /// request's tree. Only valid under
    /// [`TreeSelection::PerRequest`](crate::shim::TreeSelection::PerRequest).
    pub fn send_chunk(&self, request: u64, payload: Bytes, last: bool) -> Result<(), AggError> {
        self.send_on(RequestId(request), None, payload, last)
    }

    /// Send one chunk on the tree selected by `key_hash` (Keyed mode).
    pub fn send_chunk_keyed(
        &self,
        request: u64,
        key_hash: u64,
        payload: Bytes,
    ) -> Result<(), AggError> {
        self.send_on(RequestId(request), Some(key_hash), payload, false)
    }

    /// Close this worker's contribution on every tree (Keyed mode).
    pub fn finish_request(&self, request: u64) -> Result<(), AggError> {
        let trees = self.shell.lock().core.trees() as u64;
        let close = |t| self.send_on(RequestId(request), Some(t), Bytes::new(), true);
        (0..trees).try_for_each(close)
    }

    /// Drop replay and sequence state for a completed request.
    pub fn complete_request(&self, request: u64) {
        self.shell.lock().core.forget(RequestId(request));
    }

    /// Requests this shim still retains replay for (sent on, not yet
    /// completed, not yet evicted).
    pub fn tracked_requests(&self) -> usize {
        self.shell.lock().core.tracked()
    }

    /// Current destination for a tree (exposed for tests).
    pub fn assignment(&self, tree: TreeId) -> Option<NodeId> {
        self.shell.lock().core.dest(tree)
    }

    /// Re-send a request's buffered chunks to the current assignments with
    /// their original sequence numbers. This is what a speculative backup
    /// task's duplicate output looks like on the wire: the agg box's
    /// per-source duplicate suppression drops the copies (Section 3.1,
    /// "Handling stragglers"/Hadoop speculative execution).
    pub fn resend_request(&self, request: u64) {
        let o = &self.shell.hook;
        self.shell.post(|core| {
            let chunks = core.retained(RequestId(request));
            o.stats.chunks_resent.add(chunks.len() as u64);
            core.outbox.post(chunks);
            WorkerStep::Idle
        });
    }

    /// Receive the next broadcast distributed down the tree (the paper's
    /// one-to-many extension): returns `(request id, payload)`.
    pub fn recv_broadcast(&self, timeout: Duration) -> Result<(u64, Bytes), AggError> {
        match self.shell.hook.broadcasts.recv_timeout(timeout) {
            Ok(v) => Ok(v),
            Err(MailboxRecvError::Timeout) => Err(AggError::Timeout),
            Err(_) => Err(AggError::Shutdown), // cancelled or closed
        }
    }

    /// Stop the shim's threads: cancel the token (waking blocked accepts,
    /// control reads and broadcast receivers immediately) and join the
    /// scope under its deadline. Idempotent.
    pub fn shutdown(&self) {
        self.shell.shutdown();
    }

    /// Number, retain and send one chunk on the tree the core picks for it
    /// ([`WorkerCore::tree`]). `Err` means nothing was retained (no
    /// assignment for the tree); a failed send is counted and changes
    /// nothing else (see [`WorkerCore`]'s `send_failed`).
    fn send_on(
        &self,
        request: RequestId,
        key_hash: Option<u64>,
        payload: Bytes,
        last: bool,
    ) -> Result<(), AggError> {
        let o = &self.shell.hook;
        let anchor = self.shell.rec.anchor(o.app, request);
        let bytes = payload.len() as u64;
        let mut numbered = Ok(());
        self.shell.post(|core| {
            let tree = core.tree(request, key_hash);
            numbered = core.next_chunk((request, tree), payload, last, anchor);
            if numbered.is_ok() {
                o.stats.bytes_sent.add(bytes);
                o.stats.chunks_sent.inc();
            }
            WorkerStep::Idle
        });
        numbered
    }
}

impl Drop for WorkerShim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker's hook: the delivery of broadcasts.
impl Outlet<WorkerCore> for WorkerOutlet {
    const NAMES: &'static Names = &spans::WORKER;

    fn then(&self, _: &Recorder, step: WorkerStep) {
        if let WorkerStep::Broadcast(request, payload) = step {
            // DropOldest: never blocks; a non-consuming application keeps
            // only the newest BROADCAST_DEPTH payloads.
            let _ = self.broadcasts.send((request.0, payload));
        }
    }
}
