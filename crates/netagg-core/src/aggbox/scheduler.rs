//! Cooperative task scheduler with adaptive weighted fair queuing
//! (Section 3.2.1 of the paper).
//!
//! Aggregation tasks are run to completion by a fixed-size thread pool.
//! Each application has its own task queue; when a thread frees up it
//! offers itself to application `i` with probability proportional to the
//! application's weight `w_i`.
//!
//! With **fixed** weights (`adaptive = false`), `w_i` equals the target
//! share `s_i`. Because tasks of different applications take different
//! amounts of CPU time, this starves applications with short tasks
//! (Fig. 25). The **adaptive** scheduler divides the weight by a moving
//! average of the measured task execution time,
//! `w_i = s_i / t_i  (normalised)`, which equalises achieved CPU shares
//! (Fig. 26).

use crate::lifecycle::{
    CancelToken, Deadline, JoinScope, OrderedMutex, Parked, Parking, WakerGuard,
    DEFAULT_JOIN_DEADLINE,
};
use crate::protocol::AppId;
use netagg_net::lock_order;
use netagg_obs::{names, Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unit of aggregation work, run to completion on a pool thread.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Fixed thread-pool size (the paper's agg boxes use one thread per
    /// core).
    pub threads: usize,
    /// Adapt weights by measured task execution time.
    pub adaptive: bool,
    /// Smoothing factor of the execution-time moving average in `(0, 1]`;
    /// higher reacts faster.
    pub ema_alpha: f64,
    /// Deterministic seed for the weighted random pick.
    pub seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(4, usize::from);
        Self {
            threads,
            adaptive: true,
            ema_alpha: 0.2,
            seed: 0x5eed,
        }
    }
}

struct AppQueue {
    queue: VecDeque<Task>,
    /// Target resource share `s_i`.
    share: f64,
    /// Moving average of task execution time, seconds.
    ema_task_time: f64,
    /// Accumulated CPU time, seconds (for the fairness experiments).
    cpu_time: f64,
    tasks_run: u64,
    /// Tasks that panicked (isolated; the pool thread survives).
    tasks_panicked: u64,
    /// Published effective WFQ weight (`aggbox.wfq_weight.app<N>`).
    wfq_weight: Arc<Gauge>,
}

/// Pre-resolved metric handles so the hot worker loop never does a name
/// lookup.
struct SchedObs {
    tasks_executed: Arc<Counter>,
    tasks_panicked: Arc<Counter>,
    tasks_dropped: Arc<Counter>,
    task_exec_us: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    registry: MetricsRegistry,
}

impl SchedObs {
    fn new(registry: MetricsRegistry) -> Self {
        Self {
            tasks_executed: registry.counter(names::AGGBOX_TASKS_EXECUTED),
            tasks_panicked: registry.counter(names::AGGBOX_TASKS_PANICKED),
            tasks_dropped: registry.counter(names::AGGBOX_TASKS_DROPPED),
            task_exec_us: registry.histogram(names::AGGBOX_TASK_EXEC_US),
            queue_depth: registry.gauge(names::AGGBOX_QUEUE_DEPTH),
            registry,
        }
    }
}

struct State {
    /// Ordered, so the seeded pick walks the apps in a stable order.
    apps: BTreeMap<AppId, AppQueue>,
    queued: usize,
    running: usize,
    rng: u64,
    /// Pool threads parked on `work_cv`.
    idle_workers: Parked,
    /// `wait_idle` callers parked on `idle_cv`.
    idle_waiters: Parked,
}

struct Inner {
    state: OrderedMutex<State>,
    work_cv: Parking,
    idle_cv: Parking,
    cancel: CancelToken,
    cfg: SchedulerConfig,
    obs: SchedObs,
}

/// Per-application CPU accounting snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct AppCpu {
    /// The application.
    pub app: AppId,
    /// Accumulated task execution time, seconds.
    pub cpu_seconds: f64,
    /// Tasks executed to completion.
    pub tasks_run: u64,
    /// Tasks that panicked. The paper leaves isolating faulty aggregation
    /// functions to future work; this scheduler contains a panicking task
    /// to its own execution (the pool thread and other applications are
    /// unaffected).
    pub tasks_panicked: u64,
}

/// The agg-box task scheduler.
pub struct TaskScheduler {
    inner: Arc<Inner>,
    workers: JoinScope,
    // Cancellation must wake workers parked on `work_cv`; dropping the
    // scheduler unregisters the waker (held here, not in `Inner`, to
    // avoid a token→waker→Inner→guard→token reference cycle).
    _waker: WakerGuard,
}

impl TaskScheduler {
    /// Start a pool of `cfg.threads` worker threads publishing to a
    /// registry of its own.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self::new_with_obs(cfg, MetricsRegistry::new())
    }

    /// Like [`TaskScheduler::new`], but publishing the scheduler metrics
    /// (`aggbox.tasks_*`, `aggbox.task_exec_us`, `aggbox.queue_depth`,
    /// `aggbox.wfq_weight.app<N>`) to the caller's `obs`.
    pub fn new_with_obs(cfg: SchedulerConfig, obs: MetricsRegistry) -> Self {
        assert!(cfg.threads > 0);
        assert!(cfg.ema_alpha > 0.0 && cfg.ema_alpha <= 1.0);
        let cancel = CancelToken::new();
        let workers = JoinScope::with_obs(
            "aggbox-sched",
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            Some(&obs),
        );
        let inner = Arc::new(Inner {
            state: OrderedMutex::new(
                lock_order::SCHED_STATE,
                State {
                    apps: BTreeMap::new(),
                    queued: 0,
                    running: 0,
                    rng: cfg.seed | 1,
                    idle_workers: Parked::default(),
                    idle_waiters: Parked::default(),
                },
            ),
            work_cv: Parking::new(),
            idle_cv: Parking::new(),
            cancel,
            cfg: cfg.clone(),
            obs: SchedObs::new(obs),
        });
        let wake = inner.clone();
        let waker = inner.cancel.register_waker(move || {
            // Under the lock, so a worker between its cancel check and its
            // park cannot miss the wakeup.
            let mut s = wake.state.lock();
            wake.work_cv.wake_all(&mut s.idle_workers);
            wake.idle_cv.wake_all(&mut s.idle_waiters);
        });
        for i in 0..cfg.threads {
            let inner = inner.clone();
            let spawned = workers.spawn(format!("aggbox-worker-{i}"), move || worker_loop(&inner));
            spawned.expect("spawn scheduler worker");
        }
        Self {
            inner,
            workers,
            _waker: waker,
        }
    }

    /// Register an application with its target resource share. Shares are
    /// relative (they need not sum to 1).
    pub fn register_app(&self, app: AppId, share: f64) {
        assert!(share > 0.0);
        let wfq_weight = self.inner.obs.registry.gauge(&names::wfq_weight(app.0));
        // Before the first measurement the effective weight equals the
        // configured share (see `weight`'s unmeasured-app handling).
        wfq_weight.set(share);
        let mut s = self.inner.state.lock();
        s.apps.entry(app).or_insert(AppQueue {
            queue: VecDeque::new(),
            share,
            ema_task_time: 0.0,
            cpu_time: 0.0,
            tasks_run: 0,
            tasks_panicked: 0,
            wfq_weight,
        });
    }

    /// Submit a task for an application. Panics if the app is unknown.
    pub fn submit(&self, app: AppId, task: Task) {
        let mut s = self.inner.state.lock();
        let q = s
            .apps
            .get_mut(&app)
            .unwrap_or_else(|| panic!("app {app:?} not registered"));
        q.queue.push_back(task);
        s.queued += 1;
        self.inner.obs.queue_depth.set(s.queued as f64);
        self.inner.work_cv.wake_one(&mut s.idle_workers);
    }

    /// CPU accounting for all registered applications.
    pub fn cpu_times(&self) -> Vec<AppCpu> {
        let s = self.inner.state.lock();
        let cpu = |(app, q): (&AppId, &AppQueue)| AppCpu {
            app: *app,
            cpu_seconds: q.cpu_time,
            tasks_run: q.tasks_run,
            tasks_panicked: q.tasks_panicked,
        };
        s.apps.iter().map(cpu).collect()
    }

    /// Block until no task is queued or running (or the timeout elapses).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Deadline::after(timeout);
        let idle = &self.inner.idle_cv;
        let mut s = self.inner.state.lock();
        while s.queued > 0 || s.running > 0 {
            if !idle.wait(s.inner(), |s| &mut s.idle_waiters, deadline) {
                return false;
            }
        }
        true
    }

    /// Tasks currently queued (not yet running).
    pub fn queued(&self) -> usize {
        self.inner.state.lock().queued
    }

    /// Stop the pool, dropping queued tasks. Idempotent. If invoked from a
    /// pool thread (e.g. the last Arc dropping inside a task), that thread
    /// is detached instead of joined — so an owner that must not outlive
    /// its pool calls this itself instead of leaving it to the last `Arc`.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        {
            // Account the tasks this shutdown abandons.
            let mut s = self.inner.state.lock();
            let dropped: usize = s.apps.values_mut().map(|q| q.queue.drain(..).count()).sum();
            s.queued = 0;
            self.inner.obs.tasks_dropped.add(dropped as u64);
            self.inner.obs.queue_depth.set(0.0);
        }
        self.workers.finish();
    }
}

impl Drop for TaskScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Current weight of an application: `s_i` (fixed) or `s_i / t_i`
/// (adaptive). An app with no measurement yet is treated as having very
/// fast tasks so it is picked promptly and measured — otherwise a measured
/// app's inflated `s/t` weight would starve unmeasured ones forever.
fn weight(cfg: &SchedulerConfig, q: &AppQueue) -> f64 {
    let t = Some(q.ema_task_time).filter(|t| *t > 0.0).unwrap_or(1e-6);
    q.share / if cfg.adaptive { t } else { 1.0 }
}

fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut s = inner.state.lock();
            loop {
                if inner.cancel.is_cancelled() {
                    return;
                }
                if s.queued > 0 {
                    break;
                }
                let work = &inner.work_cv;
                work.wait(s.inner(), |s| &mut s.idle_workers, Deadline::NEVER);
            }
            // Weighted random pick among apps with queued work, in one pass:
            // each candidate replaces the choice so far with probability
            // `w / (total so far)`, so app `i` wins with `w_i / total`.
            let State { apps, rng, .. } = &mut *s;
            let mut total = 0.0;
            let mut chosen = None;
            for (app, q) in apps.iter_mut().filter(|(_, q)| !q.queue.is_empty()) {
                let w = weight(&inner.cfg, q);
                total += w;
                let r = xorshift(rng) as f64 / u64::MAX as f64;
                if chosen.is_none() || r * total < w {
                    chosen = Some((*app, q));
                }
            }
            let (app, q) = chosen.expect("work exists");
            let task = q.queue.pop_front().expect("non-empty queue");
            s.queued -= 1;
            s.running += 1;
            inner.obs.queue_depth.set(s.queued as f64);
            (app, task)
        };
        let (app, task) = task;
        let t0 = Instant::now();
        // Isolate faulty aggregation functions: a panicking task must not
        // take down the pool thread or other applications (the paper lists
        // this isolation as future work; we provide the panic half of it).
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err();
        let elapsed = t0.elapsed();
        let dt = elapsed.as_secs_f64();
        inner.obs.tasks_executed.inc();
        if panicked {
            inner.obs.tasks_panicked.inc();
        }
        inner.obs.task_exec_us.record_duration(elapsed);
        let mut s = inner.state.lock();
        s.running -= 1;
        if let Some(q) = s.apps.get_mut(&app) {
            q.cpu_time += dt;
            q.tasks_run += 1;
            q.tasks_panicked += u64::from(panicked);
            q.ema_task_time = if q.ema_task_time == 0.0 {
                dt
            } else {
                (1.0 - inner.cfg.ema_alpha) * q.ema_task_time + inner.cfg.ema_alpha * dt
            };
            q.wfq_weight.set(weight(&inner.cfg, q));
        }
        if s.queued == 0 && s.running == 0 {
            inner.idle_cv.wake_all(&mut s.idle_waiters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg(threads: usize, adaptive: bool) -> SchedulerConfig {
        SchedulerConfig {
            threads,
            adaptive,
            ema_alpha: 0.3,
            seed: 7,
        }
    }

    #[test]
    fn runs_submitted_tasks() {
        let s = TaskScheduler::new(cfg(2, true));
        s.register_app(AppId(1), 1.0);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = counter.clone();
            s.submit(
                AppId(1),
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        assert!(s.wait_idle(Duration::from_secs(5)));
        assert_eq!(counter.load(Ordering::SeqCst), 50);
        let cpu = s.cpu_times();
        assert_eq!(cpu[0].tasks_run, 50);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_app_panics() {
        let s = TaskScheduler::new(cfg(1, true));
        s.submit(AppId(9), Box::new(|| {}));
    }

    /// The paper's Fig. 25: with fixed weights and equal shares, the app
    /// with longer tasks hogs the CPU.
    #[test]
    fn fixed_weights_starve_short_task_app() {
        let s = TaskScheduler::new(cfg(2, false));
        let long = AppId(1);
        let short = AppId(2);
        s.register_app(long, 1.0);
        s.register_app(short, 1.0);
        // Long tasks: 3 ms; short tasks: 1 ms (the paper's Solr vs Hadoop).
        for _ in 0..150 {
            s.submit(
                long,
                Box::new(|| std::thread::sleep(Duration::from_millis(3))),
            );
            s.submit(
                short,
                Box::new(|| std::thread::sleep(Duration::from_millis(1))),
            );
        }
        assert!(s.wait_idle(Duration::from_secs(30)));
        let cpu = s.cpu_times();
        let t_long = cpu.iter().find(|c| c.app == long).unwrap().cpu_seconds;
        let t_short = cpu.iter().find(|c| c.app == short).unwrap().cpu_seconds;
        let share_long = t_long / (t_long + t_short);
        assert!(
            share_long > 0.65,
            "fixed weights should favour the long-task app, got {share_long}"
        );
    }

    /// The paper's Fig. 26: the adaptive scheduler equalises CPU shares.
    #[test]
    fn adaptive_weights_equalise_cpu_shares() {
        let s = TaskScheduler::new(cfg(2, true));
        let long = AppId(1);
        let short = AppId(2);
        s.register_app(long, 1.0);
        s.register_app(short, 1.0);
        for _ in 0..300 {
            s.submit(
                long,
                Box::new(|| std::thread::sleep(Duration::from_millis(3))),
            );
        }
        for _ in 0..900 {
            s.submit(
                short,
                Box::new(|| std::thread::sleep(Duration::from_millis(1))),
            );
        }
        assert!(s.wait_idle(Duration::from_secs(60)));
        let cpu = s.cpu_times();
        let t_long = cpu.iter().find(|c| c.app == long).unwrap().cpu_seconds;
        let t_short = cpu.iter().find(|c| c.app == short).unwrap().cpu_seconds;
        let share_long = t_long / (t_long + t_short);
        assert!(
            (share_long - 0.5).abs() < 0.15,
            "adaptive weights should equalise shares, got {share_long}"
        );
    }

    #[test]
    fn unequal_shares_are_respected_adaptively() {
        let s = TaskScheduler::new(cfg(2, true));
        let a = AppId(1);
        let b = AppId(2);
        s.register_app(a, 3.0);
        s.register_app(b, 1.0);
        // Keep both queues saturated for the whole measurement window, then
        // sample the achieved shares *during* contention.
        for _ in 0..5000 {
            s.submit(a, Box::new(|| std::thread::sleep(Duration::from_millis(1))));
            s.submit(b, Box::new(|| std::thread::sleep(Duration::from_millis(1))));
        }
        std::thread::sleep(Duration::from_millis(500));
        let cpu = s.cpu_times();
        let ta = cpu.iter().find(|c| c.app == a).unwrap().cpu_seconds;
        let tb = cpu.iter().find(|c| c.app == b).unwrap().cpu_seconds;
        assert!(s.queued() > 0, "queues must still be contended");
        s.shutdown();
        let share_a = ta / (ta + tb);
        // Target is 75 %; allow scheduling noise.
        assert!(
            (share_a - 0.75).abs() < 0.12,
            "share_a {share_a}, expected ~0.75"
        );
    }

    #[test]
    fn shutdown_drops_queue_and_joins() {
        let s = TaskScheduler::new(cfg(1, true));
        s.register_app(AppId(1), 1.0);
        s.submit(
            AppId(1),
            Box::new(|| std::thread::sleep(Duration::from_millis(5))),
        );
        s.shutdown();
        s.shutdown(); // idempotent
    }

    #[test]
    fn panicking_task_is_isolated() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let s = TaskScheduler::new(cfg(2, true));
        s.register_app(AppId(1), 1.0);
        s.register_app(AppId(2), 1.0);
        for _ in 0..5 {
            s.submit(AppId(1), Box::new(|| panic!("faulty aggregation function")));
        }
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let d = done.clone();
            s.submit(
                AppId(2),
                Box::new(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        assert!(s.wait_idle(Duration::from_secs(10)));
        std::panic::set_hook(prev_hook);
        assert_eq!(done.load(Ordering::SeqCst), 20, "healthy app unaffected");
        let cpu = s.cpu_times();
        let faulty = cpu.iter().find(|c| c.app == AppId(1)).unwrap();
        assert_eq!(faulty.tasks_panicked, 5);
        let healthy = cpu.iter().find(|c| c.app == AppId(2)).unwrap();
        assert_eq!(healthy.tasks_panicked, 0);
    }

    #[test]
    fn obs_counts_tasks_and_weights() {
        let obs = netagg_obs::MetricsRegistry::new();
        let s = TaskScheduler::new_with_obs(cfg(2, true), obs.clone());
        s.register_app(AppId(3), 2.0);
        for _ in 0..10 {
            s.submit(
                AppId(3),
                Box::new(|| std::thread::sleep(Duration::from_micros(200))),
            );
        }
        assert!(s.wait_idle(Duration::from_secs(5)));
        // Queue a task that can never run, then shut down: it must be
        // accounted as dropped.
        s.inner.cancel.cancel();
        s.submit(AppId(3), Box::new(|| {}));
        s.shutdown();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("aggbox.tasks_executed"), Some(10));
        assert_eq!(snap.counter("aggbox.tasks_dropped"), Some(1));
        assert_eq!(snap.counter("aggbox.tasks_panicked"), Some(0));
        let h = snap.histogram("aggbox.task_exec_us").unwrap();
        assert_eq!(h.count, 10);
        assert!(h.p50 >= 200, "tasks sleep 200us, p50 was {}", h.p50);
        let w = snap.gauge("aggbox.wfq_weight.app3").unwrap();
        assert!(w > 0.0);
        assert_eq!(snap.gauge("aggbox.queue_depth"), Some(0.0));
    }

    #[test]
    fn wait_idle_times_out_when_busy() {
        let s = TaskScheduler::new(cfg(1, true));
        s.register_app(AppId(1), 1.0);
        s.submit(
            AppId(1),
            Box::new(|| std::thread::sleep(Duration::from_millis(300))),
        );
        assert!(!s.wait_idle(Duration::from_millis(30)));
        assert!(s.wait_idle(Duration::from_secs(5)));
    }
}
