//! Master-side shim layer: [`MasterCore`] in the node `Shell` (`shell.rs`).
//!
//! Tracks per-request state (the paper's "partial result collection"),
//! receives root aggregates (or raw partials from direct workers when no
//! boxes are deployed), performs the final cross-tree merge and emulates
//! empty per-worker results. It is also the parent of the root boxes, so
//! its timer thread runs the same reap, straggler bypass and failure
//! detection the boxes do, off the same core deadlines. An application
//! thread whose transition queued something to send drains the core's
//! outbox. The master's hook is its waiters' wake (with the ledger gauges
//! it reads off the locked core). Who records: the shell's recorder
//! (`spans.rs`, under its `MASTER` names) records every span, counter and
//! event of the master's reader, timer and sends; `wait` closes the root
//! span through it, and counts the wait and the emulated empties.

use crate::failure::DetectorConfig;
use crate::fanin::Fired;
use crate::lifecycle::Deadline;
use crate::node::Step;
use crate::protocol::{AppId, Message, RequestId, TreeId};
use crate::runtime::DeploymentConfig;
use crate::shell::{Outlet, Shell, State};
use crate::shim::master_core::{MasterCore, MasterStep, Taken};
use crate::spans::{self, Names};
use crate::tree::{master_addr, TreeSpec};
use crate::{AggError, DynAggregator};
use bytes::Bytes;
use netagg_net::{NetError, NodeId, Transport};
use netagg_obs::{names, Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fully aggregated answer to one request.
#[derive(Debug, Clone)]
pub struct AggregatedResult {
    /// The combined result (all partial results merged).
    pub combined: Bytes,
    /// How many empty per-worker results the shim emulated (the paper's
    /// "empty partial results": the master logic sees one real result and
    /// `expected_workers - 1` empties).
    pub emulated_empty: usize,
    /// Serialised identity element used for the emulated empties.
    pub empty_payload: Bytes,
    /// Number of source messages merged at the master (roots + directs).
    pub master_inputs: usize,
    /// Total payload bytes the master received for this request.
    pub master_input_bytes: usize,
}

impl AggregatedResult {
    /// The per-worker result vector the unmodified master logic iterates
    /// over: one combined result plus emulated empties.
    pub fn emulated_worker_results(&self) -> Vec<Bytes> {
        let mut v = Vec::with_capacity(self.emulated_empty + 1);
        v.push(self.combined.clone());
        for _ in 0..self.emulated_empty {
            v.push(self.empty_payload.clone());
        }
        v
    }
}

/// The master's part of its shell: the final merge, and the metrics its
/// application calls count (registration, the wait, emulated empties) and
/// its settle sets.
struct MasterOutlet {
    app: AppId,
    agg: Arc<dyn DynAggregator>,
    /// The serialised identity every result's emulated empties share.
    empty: Bytes,
    requests_registered: Arc<Counter>,
    emulated_empties: Arc<Counter>,
    requests_inflight: Arc<Gauge>,
    sources_outstanding: Arc<Gauge>,
    request_wait_us: Arc<Histogram>,
}

type MasterShell = Shell<MasterCore, MasterOutlet>;

/// A handle to one registered request.
pub struct PendingRequest {
    shell: Arc<MasterShell>,
    request: RequestId,
}

/// The master-side shim.
pub struct MasterShim {
    shell: Arc<MasterShell>,
}

impl MasterShim {
    /// Bind `app`'s master address and start the shim's listener, reader
    /// and timer threads; it publishes `shim.master.*` and
    /// `straggler.master_bypasses` to `obs`.
    pub fn start(
        transport: Arc<dyn Transport>,
        app: AppId,
        agg: Arc<dyn DynAggregator>,
        specs: &[TreeSpec],
        cfg: &DeploymentConfig,
        obs: &MetricsRegistry,
    ) -> Result<Arc<Self>, NetError> {
        let name = format!("master-shim-{}", app.0);
        let at = (master_addr(app), app, &[app.0 as u32][..]);
        let shell = Shell::start(transport, at, (name, ["", "-reader"]), obs, |_, _, rec| {
            let mut core = MasterCore::new(app, specs, cfg);
            core.anchor = Box::new(rec.anchors());
            (core, MasterOutlet::new(app, agg, obs))
        })?;
        Ok(Arc::new(Self { shell }))
    }

    /// Register a request before (or while) workers send their partials.
    /// `expected_workers` is the number of workers participating; the shim
    /// uses it to emulate that many minus one empty results.
    pub fn register_request(&self, request: u64, expected_workers: usize) -> PendingRequest {
        self.register_with(RequestId(request), expected_workers, None)
    }

    fn register_with(
        &self,
        request: RequestId,
        expected_workers: usize,
        workers: Option<&[u32]>,
    ) -> PendingRequest {
        let o = &self.shell.hook;
        o.requests_registered.inc();
        let now = Instant::now();
        self.shell.post(|core| {
            let subset = workers.map(|w| core.subset(request, w));
            let done = core.register(request, expected_workers, subset, now);
            let completed = core.completions(done.then_some(request));
            Step {
                completed,
                ..Step::default()
            }
        });
        let shell = self.shell.clone();
        PendingRequest { shell, request }
    }

    /// Register a request that only a *subset* of the workers participates
    /// in (e.g. a search query routed to some shards). The shim sends
    /// per-request metadata to the on-path boxes so they know how many
    /// sources to expect (the paper's `RequestMeta` flow: the master shim
    /// records request information and forwards it to the agg boxes).
    pub fn register_request_subset(&self, request: u64, workers: &[u32]) -> PendingRequest {
        self.register_with(RequestId(request), workers.len(), Some(workers))
    }

    /// Distribute `payload` to every worker down the request's aggregation
    /// tree (the one-to-many extension the paper sketches in Section 5):
    /// the master sends one copy per direct child — root box or direct
    /// worker, a failed root box's children in its place — and boxes
    /// replicate to theirs over their high-bandwidth links. Every copy is
    /// attempted; `Err` says how many this call could not send. A drain
    /// already running on another thread sends the copies instead: the
    /// call then returns `Ok` without learning whether they left.
    pub fn broadcast(&self, request: u64, payload: Bytes) -> Result<(), AggError> {
        let request = RequestId(request);
        let failed = self.shell.post(|core| {
            core.broadcast(request, payload);
            Step::default()
        });
        let copies =
            |m: &Message| matches!(m, Message::Broadcast { request: r, .. } if *r == request);
        match failed.into_iter().filter(copies).count() {
            0 => Ok(()),
            n => Err(AggError::Net(format!("{n} broadcast copies not sent"))),
        }
    }

    /// Start heartbeating the root boxes of this application's trees; one
    /// missing `cfg.misses` acks in a row is failed as below.
    pub fn enable_failure_detection(&self, cfg: DetectorConfig) {
        let now = Instant::now();
        self.shell
            .transition(|core| core.fanin.detector.enable(cfg, now));
    }

    /// Declare a root box failed (the detector's verdict, or an
    /// operator's): *move* the box's behind-sources into direct-to-master
    /// ledger entries, for the route (future requests) and every in-flight
    /// request, then tell the box's children to send here. Idempotent
    /// under repeated declarations, straggler redirects racing the
    /// detector, and replayed duplicates.
    pub fn on_child_box_failed(&self, tree: TreeId, failed_box: u32) {
        self.shell.post(|core| core.fail_box(tree, failed_box));
    }

    /// The master shim's transport address.
    pub fn addr(&self) -> NodeId {
        master_addr(self.shell.hook.app)
    }

    /// Stop all shim threads: cancel the token (waking blocked accepts,
    /// reads and `wait` condvar sleepers immediately), join the scope
    /// under its deadline and close open requests' root spans. Idempotent.
    pub fn shutdown(&self) {
        self.shell.shutdown();
    }
}

impl Drop for MasterShim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl MasterOutlet {
    fn new(app: AppId, agg: Arc<dyn DynAggregator>, registry: &MetricsRegistry) -> Self {
        Self {
            app,
            empty: agg.empty_serialized(),
            agg,
            requests_registered: registry.counter_part(names::SHIM_MASTER_REQUESTS_REGISTERED),
            emulated_empties: registry.counter_part(names::SHIM_MASTER_EMULATED_EMPTIES),
            requests_inflight: registry.gauge(names::SHIM_MASTER_REQUESTS_INFLIGHT),
            sources_outstanding: registry.gauge(names::SHIM_MASTER_SOURCES_OUTSTANDING),
            request_wait_us: registry.histogram(names::SHIM_MASTER_REQUEST_WAIT_US),
        }
    }
}

/// The master's hook: the wake of its `wait`ers.
impl Outlet<MasterCore> for MasterOutlet {
    const NAMES: &'static Names = &spans::MASTER;

    /// Refresh the per-request ledger gauges and hand the requests the
    /// transition completed — a bypass or a failure may complete requests
    /// whose other sources already ended — to their waiters.
    fn settle(&self, s: &mut State<MasterCore>, step: &MasterStep) {
        if step.dropped || step.fired.as_ref().is_some_and(Fired::is_empty) {
            return;
        }
        let open = s.core.fanin.requests.values().filter(|q| !q.closed);
        let (inflight, outstanding) = open.fold((0, 0), |(n, owed), q| {
            (n + 1, owed + q.ledger.outstanding())
        });
        self.requests_inflight.set(inflight as f64);
        self.sources_outstanding.set(outstanding as f64);
        // A reaped request's waiter finds it gone at once, not at its deadline.
        let reaped = step.fired.as_ref().is_some_and(|f| !f.reaped.is_empty());
        if !step.completed.is_empty() || reaped {
            s.wake();
        }
    }
}

impl PendingRequest {
    /// Block until the fully aggregated result is available.
    pub fn wait(&self, timeout: Duration) -> Result<AggregatedResult, AggError> {
        let (shell, o) = (&self.shell, &self.shell.hook);
        let deadline = Deadline::after(timeout);
        let mut s = shell.lock();
        let done = loop {
            if shell.cancelled() {
                return Err(AggError::Shutdown);
            }
            match s.core.take_completed(self.request) {
                Taken::NotRegistered => return Err(AggError::Net("request not registered".into())),
                Taken::Done(done) => break done,
                Taken::Pending => {}
            }
            if !shell.wait(&mut s, deadline) {
                return Err(AggError::Timeout);
            }
        };
        drop(s);
        // Registration → fully merged result, as the unmodified master
        // logic experiences it.
        o.request_wait_us.record_duration(done.registered.elapsed());
        let emulated_empty = done.expected_workers.saturating_sub(1);
        o.emulated_empties.add(emulated_empty as u64);
        // Section 3.1: the master merges across tree roots and direct
        // workers; a lone root box's output is the result.
        let master_inputs = done.inputs.len();
        let master_input_bytes = done.inputs.iter().map(Bytes::len).sum();
        let (trace, combined) = (done.trace, done.result(&*o.agg)?);
        if let Some(t) = trace {
            shell.rec.close(self.request, t);
        }
        Ok(AggregatedResult {
            combined,
            emulated_empty,
            empty_payload: o.empty.clone(),
            master_inputs,
            master_input_bytes,
        })
    }

    /// The request this handle tracks.
    pub fn request_id(&self) -> u64 {
        self.request.0
    }
}
