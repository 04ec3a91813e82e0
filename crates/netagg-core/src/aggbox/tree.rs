//! The local aggregation tree (Section 3.2.1) as a value: a [`Reduction`]
//! per request in the box's core. The input that makes `fanin` items
//! available (or, once the input ended, two) returns them as one batch,
//! and a batch's output comes back as an input; so the reduction unfolds as
//! a tree whose interior nodes run in parallel on the box's pool, shaped by
//! arrival order (aggregation overlaps with network receipt). At most one
//! batch is ready at a time: under `fanin` items stay buffered while the
//! input is open, under two once it ended. [`combine`] is the pure step a
//! pool thread runs; [`LocalAggTree`] drives a standalone reduction.

use crate::aggbox::scheduler::TaskScheduler;
use crate::lifecycle::{Deadline, OrderedMutex, Parked, Parking};
use crate::protocol::AppId;
use crate::{AggError, DynAggregator};
use bytes::Bytes;
use netagg_net::lock_order;
use std::sync::Arc;
use std::time::Duration;

/// What an input to a [`Reduction`] leaves to do.
#[derive(Debug)]
pub enum Next {
    /// Nothing until more input arrives or a combine comes back.
    Wait,
    /// Merge these items in one combine task; feed its output back with
    /// [`Reduction::combined`].
    Combine(Vec<Bytes>),
    /// The input ended and this is the result (`None`: it was empty).
    Done(Option<Bytes>),
    /// The reduction so far, which [`Reduction::take_partial`] took.
    Partial(Bytes),
}

/// One request's reduction state: buffered items, whether the newest is raw
/// (a lone raw one left at the end is combined alone), combines in flight
/// and whether the input ended. No lock, thread or clock.
#[derive(Debug, Default)]
pub struct Reduction {
    pending: Vec<Bytes>,
    raw: bool,
    outstanding: usize,
    ended: bool,
}

impl Reduction {
    /// One more item, `raw` unless a fold ([`crate::protocol::SourceId::folded`]).
    pub fn push(&mut self, item: Bytes, raw: bool, fanin: usize) -> Next {
        self.raw = raw;
        self.pending.push(item);
        self.next(fanin)
    }

    /// The input ended: the last combines become ready.
    pub fn end(&mut self, fanin: usize) -> Next {
        self.ended = true;
        self.next(fanin)
    }

    /// A combine came back with `item`.
    pub fn combined(&mut self, item: Bytes, fanin: usize) -> Next {
        self.outstanding -= 1;
        self.push(item, false, fanin)
    }

    /// The reduction so far, for a streaming flush, while the input is
    /// open: the one buffered item once no combine is in flight, else a
    /// combine of everything buffered, so that a later call can take it.
    pub fn take_partial(&mut self) -> Next {
        match self.pending.len() {
            n if n == 0 || self.ended || self.outstanding > 0 => Next::Wait,
            1 => self.pending.pop().map_or(Next::Wait, Next::Partial),
            all => self.batch(all),
        }
    }

    /// Bytes buffered.
    pub fn bytes(&self) -> usize {
        self.pending.iter().map(Bytes::len).sum()
    }

    fn next(&mut self, fanin: usize) -> Next {
        let ready = if self.ended { 2 } else { fanin };
        let settled = self.ended && self.outstanding == 0;
        if self.pending.len() >= ready || settled && self.raw && self.pending.len() == 1 {
            self.batch(self.pending.len().min(fanin))
        } else if settled {
            Next::Done(self.pending.pop())
        } else {
            Next::Wait
        }
    }

    fn batch(&mut self, take: usize) -> Next {
        self.outstanding += 1;
        Next::Combine(self.pending.drain(..take).collect())
    }
}

/// Merge one batch: the aggregation function, with a panic in it contained
/// as a failed combine (a faulty function fails its request cleanly
/// instead of hanging it on a combine that never returns).
pub fn combine(agg: &dyn DynAggregator, items: Vec<Bytes>) -> Result<Bytes, AggError> {
    let run = std::panic::AssertUnwindSafe(|| agg.aggregate_serialized(items));
    std::panic::catch_unwind(run)
        .unwrap_or_else(|_| Err(AggError::Corrupt("aggregation function panicked".into())))
}

#[derive(Default)]
struct Standalone {
    reduction: Reduction,
    done: Option<Result<Bytes, AggError>>,
    /// `wait_complete` callers parked on `cv`.
    waiters: Parked,
}

/// A standalone reduction on a [`TaskScheduler`]: a one-request core. Its
/// lock takes the `node.core` rank, as it is never nested in a node's, and
/// is released before a combine is submitted.
pub struct LocalAggTree {
    agg: Arc<dyn DynAggregator>,
    fanin: usize,
    state: OrderedMutex<Standalone>,
    cv: Parking,
}

impl LocalAggTree {
    /// `fanin` is the maximum number of inputs one aggregation task merges
    /// (2 = binary tree, as in the paper's Fig. 15 micro-benchmark).
    pub fn new(agg: Arc<dyn DynAggregator>, fanin: usize) -> Arc<Self> {
        assert!(fanin >= 2);
        let state = OrderedMutex::new(lock_order::NODE_CORE, Standalone::default());
        let cv = Parking::new();
        Arc::new(Self {
            agg,
            fanin,
            state,
            cv,
        })
    }

    /// Feed one raw item; combine tasks are scheduled as batches fill.
    pub fn push(self: &Arc<Self>, sched: &Arc<TaskScheduler>, app: AppId, item: Bytes) {
        self.feed(sched, app, |r, fanin| r.push(item, true, fanin));
    }

    /// Declare the input stream finished; the final combines are scheduled.
    pub fn end_input(self: &Arc<Self>, sched: &Arc<TaskScheduler>, app: AppId) {
        self.feed(sched, app, Reduction::end);
    }

    /// Block until the final aggregate is available.
    pub fn wait_complete(&self, timeout: Duration) -> Result<Bytes, AggError> {
        let deadline = Deadline::after(timeout);
        let mut s = self.state.lock();
        loop {
            if let Some(done) = s.done.clone() {
                return done;
            }
            if !self.cv.wait(s.inner(), |s| &mut s.waiters, deadline) {
                return Err(AggError::Timeout);
            }
        }
    }

    /// Items buffered and tasks in flight (for back-pressure decisions).
    pub fn load(&self) -> (usize, usize) {
        let s = self.state.lock();
        (s.reduction.pending.len(), s.reduction.outstanding)
    }

    /// Run one input under the lock; submit the combine it made ready
    /// after releasing it. Input after the result (late data after an
    /// error) is dropped.
    fn feed(
        self: &Arc<Self>,
        sched: &Arc<TaskScheduler>,
        app: AppId,
        input: impl FnOnce(&mut Reduction, usize) -> Next,
    ) {
        let items = {
            let mut s = self.state.lock();
            if s.done.is_some() {
                return;
            }
            match input(&mut s.reduction, self.fanin) {
                Next::Combine(items) => items,
                Next::Done(item) => {
                    let out = item.unwrap_or_else(|| self.agg.empty_serialized());
                    return self.finish(&mut s, Ok(out));
                }
                _ => return,
            }
        };
        self.submit(sched, app, items);
    }

    /// Combine `items` on the pool and feed the output back.
    fn submit(self: &Arc<Self>, sched: &Arc<TaskScheduler>, app: AppId, items: Vec<Bytes>) {
        // Tasks hold only a weak scheduler reference: a strong one could
        // make the last Arc drop on a pool thread, whose Drop would then
        // try to join itself.
        let (tree, weak) = (self.clone(), Arc::downgrade(sched));
        sched.submit(
            app,
            Box::new(move || match (combine(&*tree.agg, items), weak.upgrade()) {
                (Ok(item), Some(sched)) => tree.feed(&sched, app, |r, f| r.combined(item, f)),
                (Ok(_), None) => {}
                (Err(e), _) => tree.finish(&mut tree.state.lock(), Err(e)),
            }),
        );
    }

    fn finish(&self, s: &mut Standalone, out: Result<Bytes, AggError>) {
        s.done = Some(out);
        self.cv.wake_all(&mut s.waiters);
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
