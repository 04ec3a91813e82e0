//! The local aggregation tree: parallel, pipelined reduction of a stream of
//! serialised partial results inside one agg box (Section 3.2.1).
//!
//! Incoming items are buffered; whenever `fanin` items are available (or
//! the input has ended and at least two remain), a combine *task* is
//! submitted to the box's cooperative scheduler. Task outputs are
//! re-enqueued as new inputs, so the reduction unfolds as a tree whose
//! interior nodes execute in parallel across CPU cores and whose shape
//! adapts to arrival order (pipelining: aggregation overlaps with network
//! receipt). Little data is buffered: at most `fanin` items per in-flight
//! task.

use crate::aggbox::scheduler::TaskScheduler;
use crate::lifecycle::{Deadline, Parked, Parking};
use crate::protocol::AppId;
use crate::{AggError, DynAggregator};
use bytes::Bytes;
use netagg_obs::names;
use netagg_obs::trace::{self, TraceRecorder};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Callback invoked once with the reduction's final result.
pub type CompletionHandler = Box<dyn FnOnce(Result<Bytes, AggError>) + Send>;

/// Where combine tasks record their queue-wait and execution spans
/// (DESIGN.md §11). Installed by the agg box when the owning request is
/// sampled; without one, tasks record nothing.
#[derive(Clone)]
pub struct TraceTarget {
    /// Shared span recorder (the box registry's tracer).
    pub tracer: Arc<TraceRecorder>,
    /// Trace the request belongs to.
    pub trace_id: u64,
    /// Parent for the task spans (the box's per-request span).
    pub parent_span_id: u64,
    /// Request id recorded on each span.
    pub request: u64,
    /// Component label, e.g. `aggbox-2-sched`.
    pub component: Arc<str>,
}

struct TreeState {
    pending: Vec<Bytes>,
    outstanding: usize,
    ended: bool,
    done: Option<Result<Bytes, AggError>>,
    on_complete: Option<CompletionHandler>,
    trace: Option<TraceTarget>,
    /// `wait_complete` callers parked on `cv`.
    waiters: Parked,
}

/// A pipelined parallel reduction over serialised items.
pub struct LocalAggTree {
    agg: Arc<dyn DynAggregator>,
    fanin: usize,
    state: Mutex<TreeState>,
    cv: Parking,
}

impl LocalAggTree {
    /// `fanin` is the maximum number of inputs one aggregation task merges
    /// (2 = binary tree, as in the paper's Fig. 15 micro-benchmark).
    pub fn new(agg: Arc<dyn DynAggregator>, fanin: usize) -> Arc<Self> {
        assert!(fanin >= 2);
        Arc::new(Self {
            agg,
            fanin,
            state: Mutex::new(TreeState {
                pending: Vec::new(),
                outstanding: 0,
                ended: false,
                done: None,
                on_complete: None,
                trace: None,
                waiters: Parked::default(),
            }),
            cv: Parking::new(),
        })
    }

    /// Install the trace target subsequent combine tasks record their
    /// `span.box.queue_wait` / `span.box.combine` spans against. Called at
    /// request creation, before any data is pushed.
    pub fn set_trace(&self, t: TraceTarget) {
        self.state.lock().trace = Some(t);
    }

    /// Register a callback fired exactly once with the final result. The
    /// callback runs on whichever thread completes the reduction and must
    /// not block for long.
    pub fn on_complete(&self, cb: CompletionHandler) {
        let mut s = self.state.lock();
        if let Some(done) = s.done.clone() {
            drop(s);
            cb(done);
        } else {
            assert!(s.on_complete.is_none(), "on_complete registered twice");
            s.on_complete = Some(cb);
        }
    }

    /// Feed one item; combine tasks are scheduled as batches fill.
    pub fn push(self: &Arc<Self>, sched: &Arc<TaskScheduler>, app: AppId, item: Bytes) {
        let mut s = self.state.lock();
        if s.done.is_some() {
            return; // late data after an error/completion is dropped
        }
        s.pending.push(item);
        self.maybe_schedule(&mut s, sched, app);
    }

    /// Declare the input stream finished; the final combines are scheduled.
    pub fn end_input(self: &Arc<Self>, sched: &Arc<TaskScheduler>, app: AppId) {
        let cb = {
            let mut s = self.state.lock();
            s.ended = true;
            self.maybe_schedule(&mut s, sched, app);
            self.maybe_finish(&mut s)
        };
        run_completion(cb);
    }

    /// Block until the final aggregate is available.
    pub fn wait_complete(&self, timeout: Duration) -> Result<Bytes, AggError> {
        let deadline = Deadline::after(timeout);
        let mut s = self.state.lock();
        loop {
            if let Some(done) = s.done.clone() {
                return done;
            }
            if !self.cv.wait(&mut s, |s| &mut s.waiters, deadline) {
                return Err(AggError::Timeout);
            }
        }
    }

    /// Items buffered and tasks in flight (for back-pressure decisions).
    pub fn load(&self) -> (usize, usize) {
        let s = self.state.lock();
        (s.pending.len(), s.outstanding)
    }

    /// Total bytes currently buffered.
    pub fn pending_bytes(&self) -> usize {
        self.state.lock().pending.iter().map(Bytes::len).sum()
    }

    /// Take the fully combined partial aggregate accumulated so far, if the
    /// reduction has quiesced (no tasks in flight, one item buffered). When
    /// several items are buffered, a combine is scheduled so a later call
    /// can succeed. Used for streaming flushes: the box forwards partial
    /// aggregates downstream instead of buffering a whole request.
    pub fn take_partial(self: &Arc<Self>, sched: &Arc<TaskScheduler>, app: AppId) -> Option<Bytes> {
        let mut s = self.state.lock();
        if s.ended || s.done.is_some() {
            return None;
        }
        if s.outstanding == 0 {
            match s.pending.len() {
                1 => return s.pending.pop(),
                n if n >= 2 => {
                    // Force a combine of everything buffered; the next
                    // flush pass can then take the single result.
                    let batch: Vec<Bytes> = s.pending.drain(..).collect();
                    s.outstanding += 1;
                    let trace = s.trace.clone();
                    self.spawn_combine(trace, sched, app, batch);
                }
                _ => {}
            }
        }
        None
    }

    fn maybe_schedule(self: &Arc<Self>, s: &mut TreeState, sched: &Arc<TaskScheduler>, app: AppId) {
        loop {
            let ready = if s.ended {
                s.pending.len() >= 2
            } else {
                s.pending.len() >= self.fanin
            };
            if !ready || s.done.is_some() {
                return;
            }
            let take = s.pending.len().min(self.fanin);
            let batch: Vec<Bytes> = s.pending.drain(..take).collect();
            s.outstanding += 1;
            let trace = s.trace.clone();
            self.spawn_combine(trace, sched, app, batch);
        }
    }

    /// Submit one combine task, recording mailbox queue wait and execution
    /// as spans when the request is traced.
    fn spawn_combine(
        self: &Arc<Self>,
        trace: Option<TraceTarget>,
        sched: &Arc<TaskScheduler>,
        app: AppId,
        batch: Vec<Bytes>,
    ) {
        let tree = self.clone();
        let agg = self.agg.clone();
        // Tasks hold only a weak scheduler reference: a strong one could
        // make the last Arc drop on a pool thread, whose Drop would then
        // try to join itself.
        let sched_weak = Arc::downgrade(sched);
        let enqueue_ns = trace.as_ref().map(|_| trace::now_ns());
        sched.submit(
            app,
            Box::new(move || {
                let exec_start = trace.as_ref().map(|t| {
                    let start = trace::now_ns();
                    // Queue wait: submit → a pool thread picked the task up.
                    t.tracer.record_span(
                        names::spans::BOX_QUEUE_WAIT,
                        &t.component,
                        t.trace_id,
                        t.tracer.next_span_id(),
                        t.parent_span_id,
                        t.request,
                        enqueue_ns.unwrap_or(start),
                        start,
                    );
                    start
                });
                // Contain panics from faulty aggregation functions so the
                // reduction fails cleanly instead of hanging with a
                // permanently outstanding task.
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    agg.aggregate_serialized(batch)
                }))
                .unwrap_or_else(|_| Err(AggError::Corrupt("aggregation function panicked".into())));
                if let (Some(t), Some(start)) = (&trace, exec_start) {
                    t.tracer.record_span(
                        names::spans::BOX_COMBINE,
                        &t.component,
                        t.trace_id,
                        t.tracer.next_span_id(),
                        t.parent_span_id,
                        t.request,
                        start,
                        trace::now_ns(),
                    );
                }
                if let Some(sched) = sched_weak.upgrade() {
                    tree.task_done(&sched, app, out);
                }
            }),
        );
    }

    fn task_done(
        self: &Arc<Self>,
        sched: &Arc<TaskScheduler>,
        app: AppId,
        out: Result<Bytes, AggError>,
    ) {
        let cb = {
            let mut s = self.state.lock();
            s.outstanding -= 1;
            match out {
                Ok(bytes) => {
                    if s.done.is_none() {
                        s.pending.push(bytes);
                        self.maybe_schedule(&mut s, sched, app);
                    }
                    self.maybe_finish(&mut s)
                }
                Err(e) => {
                    if s.done.is_none() {
                        self.finish(&mut s, Err(e))
                    } else {
                        None
                    }
                }
            }
        };
        run_completion(cb);
    }

    fn maybe_finish(self: &Arc<Self>, s: &mut TreeState) -> Option<CompletionCb> {
        if s.done.is_none() && s.ended && s.outstanding == 0 && s.pending.len() <= 1 {
            let out = match s.pending.pop() {
                Some(b) => Ok(b),
                None => Ok(self.agg.empty_serialized()),
            };
            self.finish(s, out)
        } else {
            None
        }
    }

    /// Record the result and detach the completion callback so the caller
    /// can run it after releasing the state lock.
    fn finish(&self, s: &mut TreeState, out: Result<Bytes, AggError>) -> Option<CompletionCb> {
        s.done = Some(out.clone());
        self.cv.wake_all(&mut s.waiters);
        s.on_complete.take().map(|cb| (cb, out))
    }
}

type CompletionCb = (CompletionHandler, Result<Bytes, AggError>);

fn run_completion(cb: Option<CompletionCb>) {
    if let Some((cb, out)) = cb {
        cb(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggbox::scheduler::SchedulerConfig;
    use crate::{AggWrapper, AggregationFunction};
    use std::time::Instant;

    struct Sum;
    impl AggregationFunction for Sum {
        type Item = u64;
        fn deserialize(&self, b: &Bytes) -> Result<u64, AggError> {
            let mut a = [0u8; 8];
            if b.len() != 8 {
                return Err(AggError::Corrupt("len".into()));
            }
            a.copy_from_slice(b);
            Ok(u64::from_be_bytes(a))
        }
        fn serialize(&self, v: &u64) -> Bytes {
            Bytes::copy_from_slice(&v.to_be_bytes())
        }
        fn aggregate(&self, items: Vec<u64>) -> u64 {
            items.into_iter().sum()
        }
        fn empty(&self) -> u64 {
            0
        }
    }

    fn scheduler(threads: usize) -> Arc<TaskScheduler> {
        let s = TaskScheduler::new(SchedulerConfig {
            threads,
            adaptive: true,
            ema_alpha: 0.2,
            seed: 1,
        });
        s.register_app(AppId(1), 1.0);
        Arc::new(s)
    }

    fn enc(v: u64) -> Bytes {
        Bytes::copy_from_slice(&v.to_be_bytes())
    }

    fn dec(b: &Bytes) -> u64 {
        Sum.deserialize(b).unwrap()
    }

    #[test]
    fn reduces_a_stream_to_the_sum() {
        let sched = scheduler(4);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), 4);
        for v in 1..=100u64 {
            tree.push(&sched, AppId(1), enc(v));
        }
        tree.end_input(&sched, AppId(1));
        let out = tree.wait_complete(Duration::from_secs(10)).unwrap();
        assert_eq!(dec(&out), 5050);
    }

    #[test]
    fn single_item_passes_through() {
        let sched = scheduler(2);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), 2);
        tree.push(&sched, AppId(1), enc(42));
        tree.end_input(&sched, AppId(1));
        assert_eq!(
            dec(&tree.wait_complete(Duration::from_secs(5)).unwrap()),
            42
        );
    }

    #[test]
    fn empty_stream_yields_identity() {
        let sched = scheduler(2);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), 2);
        tree.end_input(&sched, AppId(1));
        assert_eq!(dec(&tree.wait_complete(Duration::from_secs(5)).unwrap()), 0);
    }

    #[test]
    fn binary_fanin_matches_wide_fanin() {
        for fanin in [2usize, 3, 8, 64] {
            let sched = scheduler(4);
            let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), fanin);
            for v in 0..200u64 {
                tree.push(&sched, AppId(1), enc(v));
            }
            tree.end_input(&sched, AppId(1));
            let out = tree.wait_complete(Duration::from_secs(10)).unwrap();
            assert_eq!(dec(&out), (0..200).sum::<u64>(), "fanin {fanin}");
        }
    }

    #[test]
    fn corrupt_item_fails_the_reduction() {
        let sched = scheduler(2);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), 2);
        tree.push(&sched, AppId(1), enc(1));
        tree.push(&sched, AppId(1), Bytes::from_static(b"zz"));
        tree.end_input(&sched, AppId(1));
        assert!(matches!(
            tree.wait_complete(Duration::from_secs(5)),
            Err(AggError::Corrupt(_))
        ));
    }

    #[test]
    fn completion_callback_fires_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sched = scheduler(4);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), 2);
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        tree.on_complete(Box::new(move |r| {
            assert_eq!(dec(&r.unwrap()), 10);
            f2.fetch_add(1, Ordering::SeqCst);
        }));
        for v in [1u64, 2, 3, 4] {
            tree.push(&sched, AppId(1), enc(v));
        }
        tree.end_input(&sched, AppId(1));
        tree.wait_complete(Duration::from_secs(5)).unwrap();
        // Give the callback (fired on a worker thread) a moment.
        sched.wait_idle(Duration::from_secs(5));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn callback_after_completion_fires_immediately() {
        let sched = scheduler(2);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), 2);
        tree.push(&sched, AppId(1), enc(5));
        tree.end_input(&sched, AppId(1));
        tree.wait_complete(Duration::from_secs(5)).unwrap();
        let (tx, rx) = crossbeam::channel::bounded(1);
        tree.on_complete(Box::new(move |r| {
            tx.send(dec(&r.unwrap())).unwrap();
        }));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 5);
    }

    #[test]
    fn panicking_aggregation_function_fails_cleanly() {
        struct Faulty;
        impl AggregationFunction for Faulty {
            type Item = u64;
            fn deserialize(&self, b: &Bytes) -> Result<u64, AggError> {
                Sum.deserialize(b)
            }
            fn serialize(&self, v: &u64) -> Bytes {
                Sum.serialize(v)
            }
            fn aggregate(&self, _items: Vec<u64>) -> u64 {
                panic!("malicious or buggy aggregation function");
            }
            fn empty(&self) -> u64 {
                0
            }
        }
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let sched = scheduler(2);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Faulty)), 2);
        tree.push(&sched, AppId(1), enc(1));
        tree.push(&sched, AppId(1), enc(2));
        tree.end_input(&sched, AppId(1));
        let r = tree.wait_complete(Duration::from_secs(5));
        std::panic::set_hook(prev_hook);
        assert!(matches!(r, Err(AggError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn wait_complete_times_out_without_end_input() {
        let sched = scheduler(2);
        let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), 2);
        tree.push(&sched, AppId(1), enc(1));
        assert!(matches!(
            tree.wait_complete(Duration::from_millis(50)),
            Err(AggError::Timeout)
        ));
    }

    #[test]
    fn throughput_scales_with_threads() {
        // Smoke version of the paper's Fig. 15: more threads should not be
        // slower for a CPU-heavy aggregation.
        struct Busy;
        impl AggregationFunction for Busy {
            type Item = u64;
            fn deserialize(&self, b: &Bytes) -> Result<u64, AggError> {
                Sum.deserialize(b)
            }
            fn serialize(&self, v: &u64) -> Bytes {
                Sum.serialize(v)
            }
            fn aggregate(&self, items: Vec<u64>) -> u64 {
                // Spin ~100 micros per combine; fold the garbage value in
                // via a branch the optimiser cannot remove but that never
                // fires (acc is pseudo-random, not u64::MAX).
                let mut acc = 0u64;
                for i in 0..20_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                }
                let noise = u64::from(acc == u64::MAX);
                items.into_iter().sum::<u64>().wrapping_add(noise)
            }
            fn empty(&self) -> u64 {
                0
            }
        }
        let run = |threads: usize| -> Duration {
            let sched = scheduler(threads);
            let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Busy)), 2);
            let t0 = Instant::now();
            for v in 0..512u64 {
                tree.push(&sched, AppId(1), enc(v));
            }
            tree.end_input(&sched, AppId(1));
            tree.wait_complete(Duration::from_secs(30)).unwrap();
            t0.elapsed()
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(
            t4 < t1 * 2,
            "4 threads ({t4:?}) should not be much slower than 1 ({t1:?})"
        );
    }
}
