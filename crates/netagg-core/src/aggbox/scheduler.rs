//! Cooperative task scheduler with adaptive weighted fair queuing
//! (Section 3.2.1 of the paper).
//!
//! Aggregation tasks are run to completion by a fixed-size thread pool; a
//! freed thread serves the application [`FairQueue`] picks. With **fixed**
//! weights (`adaptive = false`) a task costs 1, so the application with
//! longer tasks hogs the CPU (Fig. 25). The **adaptive** scheduler charges
//! measured execution time, which equalises CPU shares (Fig. 26).

use crate::lifecycle::{
    CancelToken, Deadline, JoinScope, OrderedMutex, Parked, Parking, Readiness, WakerGuard,
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
    /// Charge a task its measured execution time instead of 1.
    pub adaptive: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(4, usize::from);
        Self {
            threads,
            adaptive: true,
        }
    }
}

/// Start-time fair queuing (Goyal, Vin and Cheng, SIGCOMM 1996): the one
/// place that decides which application runs next. No lock, thread or
/// clock; cost is an input. Application `i` has a share `s_i` and a start
/// tag `S_i`; virtual time `V`, the largest tag picked so far, never falls.
/// - [`pick`](Self::pick) serves the application with queued work and the
///   smallest `S_i`, ties to the lowest `AppId`.
/// - [`charge`](Self::charge), once the task is done, adds `cost / s_i`.
/// - An application that gets work with nothing queued or running (new,
///   or back from idle) starts at `max(S_i, V)`: idle time is neither
///   banked nor owed.
///
/// **Bound.** With `k` tasks in service at once and `c_i` the largest
/// charge of `i`, two applications with queued work throughout an interval
/// receive charged cost `W` with `|ΔW_i/s_i − ΔW_j/s_j| ≤ k·(c_i/s_i +
/// c_j/s_j)`. While `i` has work `ΔW_i/s_i` is the advance of `S_i`, so
/// this bounds how far two tags drift apart. Picks take the smallest tag,
/// so a tag with queued work trails the others by at most the charges owed
/// on it, and leads `V` by at most those taken since its last pick: each
/// is at most the `k` tasks in service uncharged (`k = 1` is Goyal et
/// al.'s Theorem 1). `tests/fair_queue.rs` checks it at every completion.
pub struct FairQueue<T> {
    apps: BTreeMap<AppId, Flow<T>>,
    v: f64,
}

struct Flow<T> {
    share: f64,
    /// Start tag `S_i`.
    tag: f64,
    queue: VecDeque<T>,
    running: usize,
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        Self {
            apps: BTreeMap::new(),
            v: 0.0,
        }
    }
}

impl<T> FairQueue<T> {
    /// Add an application with a target share (shares are relative; they
    /// need not sum to 1). Registering a known application again is a
    /// no-op.
    pub fn register(&mut self, app: AppId, share: f64) {
        assert!(share > 0.0);
        let flow = || Flow {
            share,
            tag: 0.0,
            queue: VecDeque::new(),
            running: 0,
        };
        self.apps.entry(app).or_insert_with(flow);
    }

    /// Queue `item` for `app`. Panics if the app is unknown.
    pub fn push(&mut self, app: AppId, item: T) {
        let f = self.apps.get_mut(&app);
        let f = f.unwrap_or_else(|| panic!("app {app:?} not registered"));
        if f.queue.is_empty() && f.running == 0 {
            f.tag = f.tag.max(self.v);
        }
        f.queue.push_back(item);
    }

    /// Take the next item to run, or `None` if nothing is queued.
    pub fn pick(&mut self) -> Option<(AppId, T)> {
        let backlogged = self.apps.iter_mut().filter(|(_, f)| !f.queue.is_empty());
        let (&app, f) = backlogged.min_by(|(_, a), (_, b)| a.tag.total_cmp(&b.tag))?;
        self.v = self.v.max(f.tag);
        f.running += 1;
        f.queue.pop_front().map(|item| (app, item))
    }

    /// Account a picked item of `app` as done, at `cost`.
    pub fn charge(&mut self, app: AppId, cost: f64) {
        if let Some(f) = self.apps.get_mut(&app) {
            f.tag += cost / f.share;
            f.running -= 1;
        }
    }

    /// Drop every queued item; returns how many there were.
    pub fn clear(&mut self) -> usize {
        let queues = self.apps.values_mut().map(|f| &mut f.queue);
        queues.map(|q| q.drain(..).count()).sum()
    }

    /// Items queued, not yet picked.
    pub fn queued(&self) -> usize {
        self.apps.values().map(|f| f.queue.len()).sum()
    }

    /// Nothing queued and nothing picked but not yet charged.
    pub fn is_idle(&self) -> bool {
        let mut flows = self.apps.values();
        flows.all(|f| f.queue.is_empty() && f.running == 0)
    }
}

#[derive(Default)]
struct State {
    fair: FairQueue<Task>,
    cpu: BTreeMap<AppId, AppCpu>,
    /// Pool threads parked on `work_cv`.
    idle_workers: Parked,
    /// `wait_idle` callers parked on `idle_cv`.
    idle_waiters: Parked,
    /// Woken once the queue is back to the bound ([`TaskScheduler::over`]).
    watch: Option<(usize, Readiness)>,
}

struct Inner {
    state: OrderedMutex<State>,
    work_cv: Parking,
    idle_cv: Parking,
    cancel: CancelToken,
    adaptive: bool,
    // Metric handles, resolved once so the worker loop never looks up a name.
    tasks_executed: Arc<Counter>,
    tasks_panicked: Arc<Counter>,
    tasks_dropped: Arc<Counter>,
    task_exec_us: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
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
    /// (`aggbox.tasks_*`, `aggbox.task_exec_us`, `aggbox.queue_depth`) to
    /// the caller's `obs`.
    pub fn new_with_obs(cfg: SchedulerConfig, obs: MetricsRegistry) -> Self {
        assert!(cfg.threads > 0);
        let cancel = CancelToken::new();
        let workers = JoinScope::with_obs(
            "aggbox-sched",
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            Some(&obs),
        );
        let inner = Arc::new(Inner {
            state: OrderedMutex::new(lock_order::SCHED_STATE, State::default()),
            work_cv: Parking::new(),
            idle_cv: Parking::new(),
            cancel,
            adaptive: cfg.adaptive,
            tasks_executed: obs.counter(names::AGGBOX_TASKS_EXECUTED),
            tasks_panicked: obs.counter(names::AGGBOX_TASKS_PANICKED),
            tasks_dropped: obs.counter(names::AGGBOX_TASKS_DROPPED),
            task_exec_us: obs.histogram(names::AGGBOX_TASK_EXEC_US),
            queue_depth: obs.gauge(names::AGGBOX_QUEUE_DEPTH),
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
        let mut s = self.inner.state.lock();
        s.fair.register(app, share);
        s.cpu.entry(app).or_insert(AppCpu {
            app,
            cpu_seconds: 0.0,
            tasks_run: 0,
            tasks_panicked: 0,
        });
    }

    /// Submit a task for an application. Panics if the app is unknown.
    pub fn submit(&self, app: AppId, task: Task) {
        let mut s = self.inner.state.lock();
        s.fair.push(app, task);
        self.inner.queue_depth.set(s.fair.queued() as f64);
        self.inner.work_cv.wake_one(&mut s.idle_workers);
    }

    /// CPU accounting for all registered applications.
    pub fn cpu_times(&self) -> Vec<AppCpu> {
        self.inner.state.lock().cpu.values().cloned().collect()
    }

    /// Block until no task is queued or running (or the timeout elapses).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Deadline::after(timeout);
        let idle = &self.inner.idle_cv;
        let mut s = self.inner.state.lock();
        while !s.fair.is_idle() {
            if !idle.wait(s.inner(), |s| &mut s.idle_waiters, deadline) {
                return false;
            }
        }
        true
    }

    /// Whether more than `bound` tasks are queued. If so, `ready` is woken
    /// once a pool thread has taken the queue back to `bound`.
    pub fn over(&self, bound: usize, ready: &Readiness) -> bool {
        let mut s = self.inner.state.lock();
        s.watch = (s.fair.queued() > bound).then(|| (bound, ready.clone()));
        s.watch.is_some()
    }

    /// Tasks currently queued (not yet running).
    pub fn queued(&self) -> usize {
        self.inner.state.lock().fair.queued()
    }

    /// Stop the pool, dropping queued tasks. Idempotent. If invoked from a
    /// pool thread (e.g. the last Arc dropping inside a task), that thread
    /// is detached instead of joined — so an owner that must not outlive
    /// its pool calls this itself instead of leaving it to the last `Arc`.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        // Account the tasks this shutdown abandons.
        let dropped = self.inner.state.lock().fair.clear();
        self.inner.tasks_dropped.add(dropped as u64);
        self.inner.queue_depth.set(0.0);
        self.workers.finish();
    }
}

impl Drop for TaskScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (app, task) = {
            let mut s = inner.state.lock();
            loop {
                if inner.cancel.is_cancelled() {
                    return;
                }
                if let Some(picked) = s.fair.pick() {
                    let queued = s.fair.queued();
                    inner.queue_depth.set(queued as f64);
                    if let Some((_, ready)) = s.watch.take_if(|(bound, _)| queued <= *bound) {
                        ready.wake();
                    }
                    break picked;
                }
                let work = &inner.work_cv;
                work.wait(s.inner(), |s| &mut s.idle_workers, Deadline::NEVER);
            }
        };
        let t0 = Instant::now();
        // Isolate faulty aggregation functions: a panicking task must not
        // take down the pool thread or other applications (the paper lists
        // this isolation as future work; we provide the panic half of it).
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err();
        let elapsed = t0.elapsed();
        inner.tasks_executed.inc();
        if panicked {
            inner.tasks_panicked.inc();
        }
        inner.task_exec_us.record_duration(elapsed);
        let ns = elapsed.as_nanos() as f64;
        let cost = if inner.adaptive { ns } else { 1.0 };
        let mut s = inner.state.lock();
        s.fair.charge(app, cost);
        if let Some(c) = s.cpu.get_mut(&app) {
            c.cpu_seconds += elapsed.as_secs_f64();
            c.tasks_run += 1;
            c.tasks_panicked += u64::from(panicked);
        }
        if s.fair.is_idle() {
            inner.idle_cv.wake_all(&mut s.idle_waiters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg(threads: usize, adaptive: bool) -> SchedulerConfig {
        SchedulerConfig { threads, adaptive }
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
    fn obs_counts_tasks_and_queue_depth() {
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
