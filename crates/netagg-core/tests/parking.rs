//! `lifecycle::Parking` under the scheduler, the local tree and the master
//! shim: no submitted task is left behind by a skipped wake-up, and
//! `Duration::MAX` as "wait forever" is no deadline rather than an
//! `Instant` overflow panic.

use bytes::Bytes;
use netagg_core::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use netagg_core::aggbox::tree::LocalAggTree;
use netagg_core::lifecycle::{CancelToken, JoinScope, DEFAULT_JOIN_DEADLINE};
use netagg_core::prelude::*;
use netagg_core::protocol::AppId;
use netagg_net::{ChannelTransport, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

/// Sum-of-integers aggregation over a trivial text encoding.
struct Sum;
impl AggregationFunction for Sum {
    type Item = i64;
    fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
        let s = std::str::from_utf8(b).ok();
        s.and_then(|s| s.parse().ok())
            .ok_or_else(|| AggError::Corrupt("not an int".into()))
    }
    fn serialize(&self, v: &i64) -> Bytes {
        Bytes::from(v.to_string())
    }
    fn aggregate(&self, items: Vec<i64>) -> i64 {
        items.into_iter().sum()
    }
    fn empty(&self) -> i64 {
        0
    }
}

fn scheduler(threads: usize) -> Arc<TaskScheduler> {
    let cfg = SchedulerConfig {
        threads,
        ..SchedulerConfig::default()
    };
    let s = TaskScheduler::new(cfg);
    s.register_app(AppId(1), 1.0);
    s.register_app(AppId(2), 1.0);
    Arc::new(s)
}

/// 4 submitters against 4 pool threads for a second, in bursts with idle
/// gaps (so workers keep parking and being woken) and a thread polling
/// `wait_idle(1 ms)` throughout: every submitted task runs and every
/// `wait_idle` returns — a pool left asleep on a non-empty queue strands
/// the submitters' next `wait_idle` ("pool stuck").
#[test]
fn stress_every_submitted_task_runs_and_wait_idle_returns() {
    let sched = scheduler(4);
    let scope = JoinScope::new("sched-stress", CancelToken::new(), DEFAULT_JOIN_DEADLINE);
    let stop = Arc::new(AtomicBool::new(false));
    let (submitted, ran) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    for p in 0..4u64 {
        let (sched, stop) = (sched.clone(), stop.clone());
        let (submitted, ran) = (submitted.clone(), ran.clone());
        let submit = move || {
            let mut burst = 1 + p;
            while !stop.load(SeqCst) {
                for _ in 0..burst {
                    let ran = ran.clone();
                    submitted.fetch_add(1, SeqCst);
                    let task = move || _ = ran.fetch_add(1, SeqCst);
                    sched.submit(AppId(1 + (p % 2) as u16), Box::new(task));
                }
                burst = burst % 7 + 1;
                // Let the pool drain and park before the next burst.
                if burst.is_multiple_of(3) {
                    assert!(sched.wait_idle(Duration::from_secs(10)), "pool stuck");
                }
            }
        };
        scope.spawn(format!("submitter-{p}"), submit).unwrap();
    }
    let (poller, polling) = (sched.clone(), stop.clone());
    let poll = move || {
        while !polling.load(SeqCst) {
            poller.wait_idle(Duration::from_millis(1));
        }
    };
    scope.spawn("idle-poller", poll).unwrap();
    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, SeqCst);
    scope.finish();
    assert!(
        sched.wait_idle(Duration::MAX),
        "no deadline: returns once idle"
    );
    assert!(ran.load(SeqCst) > 0);
    assert_eq!(ran.load(SeqCst), submitted.load(SeqCst));
}

#[test]
fn wait_idle_takes_duration_max_as_no_deadline() {
    let sched = scheduler(2);
    assert!(sched.wait_idle(Duration::MAX), "already idle");
    let slow = || std::thread::sleep(Duration::from_millis(20));
    sched.submit(AppId(1), Box::new(slow));
    assert!(sched.wait_idle(Duration::MAX), "waits the task out");
}

#[test]
fn wait_complete_takes_duration_max_as_no_deadline() {
    let sched = scheduler(2);
    let tree = LocalAggTree::new(Arc::new(AggWrapper::new(Sum)), 2);
    for v in ["1", "2", "3"] {
        tree.push(&sched, AppId(1), Bytes::from_static(v.as_bytes()));
    }
    tree.end_input(&sched, AppId(1));
    let out = tree.wait_complete(Duration::MAX).unwrap();
    assert_eq!(&out[..], b"6");
    // Already complete: returned without parking at all.
    assert_eq!(&tree.wait_complete(Duration::MAX).unwrap()[..], b"6");
}

#[test]
fn pending_request_wait_takes_duration_max_as_no_deadline() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", Arc::new(AggWrapper::new(Sum)), 1.0);
    let master = dep.master_shim(app);
    let pending = master.register_request(1, 2);
    for (w, v) in [(0, "4"), (1, "5")] {
        let partial = Bytes::from_static(v.as_bytes());
        dep.worker_shim(app, w).send_partial(1, partial).unwrap();
    }
    let result = pending.wait(Duration::MAX).unwrap();
    assert_eq!(&result.combined[..], b"9");
    dep.shutdown();
}
