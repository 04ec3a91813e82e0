//! The agg box runtime: [`BoxCore`] in the node `Shell` (`shell.rs`).
//!
//! One `AggBox` hosts the aggregation functions of many applications. Its
//! one reader feeds every connection's frames to the core; the combines a
//! transition made ready go to the box's cooperative [`TaskScheduler`]
//! once the lock is released. A pool thread merges, feeds the output back
//! into the core and sends what that queued. The reader never sends: the
//! timer thread sends its posts and acks, and runs what the core's
//! deadlines make due. While the outbox or the pool's queue is over its
//! bound, the reader holds a connection's `Data` back (DESIGN.md §9).
//! The box's hook is that behaviour alone: the hold, the excuse and the
//! combine submit. Who records: the shell's recorder (`spans.rs`, under
//! its `BOX` names) records every span, counter and event of the box; its
//! counter parts are the box's [`BoxStats`].

use crate::aggbox::core::{BoxCore, BoxStep, Combine, Work, OUTBOX_BOUND};
use crate::aggbox::scheduler::TaskScheduler;
use crate::aggbox::tree::combine;
use crate::failure::DetectorConfig;
use crate::lifecycle::Readiness;
use crate::protocol::AppId;
use crate::runtime::DeploymentConfig;
use crate::shell::{Outlet, Shell};
use crate::spans::{self, Names, Recorder};
use crate::tree::{box_addr, TreeSpec};
use crate::DynAggregator;
use netagg_net::{NetError, NodeId, Transport};
use netagg_obs::{Counter, MetricsRegistry};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// The box's own counters, each its part of the registry counter named
/// beside it: the box reads its events, the registry their sum over boxes.
#[derive(Debug)]
pub struct BoxStats {
    /// Payload bytes received (`aggbox.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// `Data` messages received (`aggbox.messages_in`).
    pub messages_in: Arc<Counter>,
    /// Requests whose final aggregate was forwarded (`aggbox.requests_completed`).
    pub requests_completed: Arc<Counter>,
    /// `Data` the core dropped: unknown route, replayed sequence number,
    /// re-pointed-away source or closed request (`aggbox.duplicates_dropped`).
    pub duplicates_dropped: Arc<Counter>,
    /// Straggler bypasses issued for child boxes (`straggler.redirects`).
    pub straggler_redirects: Arc<Counter>,
    /// Outbox sends that failed (`aggbox.send_errors`).
    pub send_errors: Arc<Counter>,
}

/// Point-in-time view of one agg box's live state (see
/// [`AggBox::snapshot`]; its counters are [`AggBox::stats`]).
#[derive(Debug, Clone)]
pub struct BoxSnapshot {
    /// Global logical id of the box.
    pub box_id: u32,
    /// Requests with open state right now.
    pub active_requests: usize,
    /// Bytes buffered across all local aggregation trees right now.
    pub buffered_bytes: usize,
    /// Aggregation tasks waiting for a pool thread right now.
    pub tasks_queued: usize,
    /// Times the timer thread woke; an idle box adds none.
    pub timer_wakeups: u64,
    /// Per-application CPU accounting.
    pub apps: Vec<crate::aggbox::scheduler::AppCpu>,
}

/// The box's part of its shell: its id, pool and counters.
struct BoxOutlet {
    box_id: u32,
    scheduler: Arc<TaskScheduler>,
    /// What the pool's combines feed their output back into.
    shell: Weak<BoxShell>,
    stats: BoxStats,
}

type BoxShell = Shell<BoxCore, BoxOutlet>;

/// A running agg box.
pub struct AggBox {
    shell: Arc<BoxShell>,
}

impl AggBox {
    /// Bind box `box_id`'s address and start its listener, reader and
    /// timer threads; it publishes `aggbox.*` and `straggler.*` to `obs`.
    pub fn start(
        transport: Arc<dyn Transport>,
        box_id: u32,
        cfg: &DeploymentConfig,
        obs: &MetricsRegistry,
    ) -> Result<Arc<Self>, NetError> {
        let name = (format!("aggbox-{box_id}"), ["-listen", "-reader"]);
        let at = (box_addr(box_id), AppId(0), &[box_id][..]);
        let shell = Shell::start(transport, at, name, obs, |weak, _, rec| {
            let mut core = BoxCore::new(box_id, cfg, Instant::now());
            // One `span.box.request` per sampled request, parented directly
            // to the trace root (RequestMeta — and hence the master's root
            // span id — may arrive after the first data).
            core.anchor = Box::new(rec.anchors());
            let stats = BoxStats {
                bytes_in: rec.bytes_in.clone(),
                messages_in: rec.data_in.clone(),
                requests_completed: rec.completed.clone(),
                duplicates_dropped: rec.dropped.clone(),
                straggler_redirects: rec.bypasses.clone(),
                send_errors: rec.send_errors.clone(),
            };
            let scheduler = TaskScheduler::new_with_obs(cfg.scheduler.clone(), obs.clone());
            let (scheduler, shell) = (Arc::new(scheduler), weak.clone());
            let o = BoxOutlet {
                box_id,
                scheduler,
                shell,
                stats,
            };
            (core, o)
        })?;
        Ok(Arc::new(Self { shell }))
    }

    /// Register an application's aggregation function with a target
    /// resource share, and its routes on the trees of `specs` this box is
    /// in.
    pub fn register_app(
        &self,
        app: AppId,
        agg: Arc<dyn DynAggregator>,
        share: f64,
        specs: &[TreeSpec],
    ) {
        self.shell.hook.scheduler.register_app(app, share);
        self.shell.transition(|core| core.add_app(app, agg, specs));
    }

    /// Start heartbeating the child boxes this box's routes name. One
    /// that misses `cfg.misses` acks in a row is failed for good: future
    /// requests expect its children directly, every in-flight ledger moves
    /// the box's obligations onto them, and they are told to re-point here.
    pub fn enable_failure_detection(&self, cfg: DetectorConfig) {
        let now = Instant::now();
        let enable = |core: &mut BoxCore| core.fanin.detector.enable(cfg, now);
        self.shell.transition(enable);
    }

    /// This box's counters: its parts of the registry's totals.
    pub fn stats(&self) -> &BoxStats {
        &self.shell.hook.stats
    }

    /// A point-in-time snapshot of live request state and scheduler
    /// accounting — what a production middlebox would export beside its
    /// [`AggBox::stats`].
    pub fn snapshot(&self) -> BoxSnapshot {
        let (active_requests, buffered_bytes, timer_wakeups) = {
            let s = self.shell.lock();
            let open = s.core.fanin.requests.values();
            let sizes = open.map(|q| q.ext.reduction.bytes());
            let (n, bytes) = sizes.fold((0, 0), |(n, bytes), b| (n + 1, bytes + b));
            (n, bytes, s.wakeups)
        };
        let o = &self.shell.hook;
        BoxSnapshot {
            box_id: o.box_id,
            active_requests,
            buffered_bytes,
            tasks_queued: o.scheduler.queued(),
            timer_wakeups,
            apps: o.scheduler.cpu_times(),
        }
    }

    /// The box's cooperative task scheduler.
    pub fn scheduler(&self) -> &Arc<TaskScheduler> {
        &self.shell.hook.scheduler
    }

    /// Transport address the box is bound to.
    pub fn addr(&self) -> NodeId {
        box_addr(self.shell.hook.box_id)
    }

    /// Global logical id of the box.
    pub fn box_id(&self) -> u32 {
        self.shell.hook.box_id
    }

    /// Stop all threads: cancel the box's token (waking the blocked accept,
    /// the parked reader and the timer sleep immediately), join the scope
    /// under its deadline and close open requests' spans. Idempotent.
    pub fn shutdown(&self) {
        self.shell.shutdown();
        // Not left to the last `Arc<TaskScheduler>`: a pool thread can hold
        // one transiently, and a pool joined from inside itself finishes
        // after this returns. A combine that ends after the teardown finds
        // its request gone, which `BoxCore::combined` ignores.
        self.shell.hook.scheduler.shutdown();
    }
}

impl Drop for AggBox {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl BoxOutlet {
    /// Run one combine on the pool: the pure merge under its queue-wait
    /// and combine spans, then its output back into the core — a
    /// transition on the pool thread, which sends the final chunk it
    /// queued and never waits at the outbox bound.
    fn submit(&self, rec: &Recorder, c: Combine) {
        let (shell, queued) = (self.shell.clone(), rec.queued(c.trace));
        let task = move || {
            let Some(shell) = shell.upgrade() else {
                return;
            };
            let out = shell
                .rec
                .combine(queued, c.key.1, || combine(&*c.agg, c.items));
            let mut s = shell.lock();
            let step = s.core.combined(c.key, out);
            // A completion sends its final chunk; other combines post nothing.
            let done = !step.completed.is_empty();
            shell.act(s, step, None, done);
        };
        self.scheduler.submit(c.key.0, Box::new(task));
    }
}

/// The box's hook: the pool-queue hold, the excuse of a held-back reader
/// and the combines a transition made ready.
impl Outlet<BoxCore> for BoxOutlet {
    const NAMES: &'static Names = &spans::BOX;

    /// Backpressure: box-to-box `Data` flows upward only and both queues
    /// drain without the reader, so the holds are acyclic.
    fn hold(&self, core: &BoxCore, ready: &Readiness) -> bool {
        core.outbox.backlogged() || self.scheduler.over(OUTBOX_BOUND, ready)
    }

    /// A child's ack may wait behind the `Data` held back.
    fn excuse(&self, core: &mut BoxCore, now: Instant) {
        core.fanin.detector.excuse(now);
    }

    fn then(&self, rec: &Recorder, step: BoxStep) {
        for w in step.work {
            if let Work::Combine(c) = w {
                self.submit(rec, c);
            }
        }
    }
}
