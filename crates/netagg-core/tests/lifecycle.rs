//! Lifecycle integration tests for the unified cancellation/join runtime.
//!
//! These fence the DESIGN.md "Lifecycle & backpressure model" invariants at
//! system scope: tearing down a full [`NetAggDeployment`] mid-request — even
//! with a seeded agg-box kill in flight — must join every scoped thread
//! within the join deadline, lose no worker panic (a harvested panic makes
//! `JoinScope::finish` panic, failing the test), and leave the
//! `runtime.threads_active` gauge at exactly zero.
//!
//! Kill timings come from seeded [`FaultStep`] schedules so a failing
//! timing is reproducible: set `NETAGG_FAULT_SEED` to replay a run.

use bytes::Bytes;
use netagg_core::failure::DetectorConfig;
use netagg_core::lifecycle::DEFAULT_JOIN_DEADLINE;
use netagg_core::prelude::*;
use netagg_net::{ChannelTransport, DetRng, FaultController, FaultStep, FaultTransport, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sum-of-integers aggregation over a trivial text encoding.
struct Sum;
impl AggregationFunction for Sum {
    type Item = i64;
    fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
        std::str::from_utf8(b)
            .ok()
            .and_then(|s| s.parse().ok())
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

fn sum_agg() -> Arc<dyn DynAggregator> {
    Arc::new(AggWrapper::new(Sum))
}

fn fast_detector() -> DetectorConfig {
    DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(60),
        misses: 2,
    }
}

/// Seed for the fault schedules. Override with `NETAGG_FAULT_SEED=<u64>` to
/// reproduce a specific run; CI pins it so failures are replayable.
fn fault_seed() -> u64 {
    std::env::var("NETAGG_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xAE57_11E5)
}

/// Drop an entire deployment mid-request while a seeded fault schedule
/// kills the rack box at an arbitrary protocol moment. Every scoped thread
/// (box listeners/readers/egress/flush/straggler, scheduler pool, shim
/// listeners/readers, failure detectors) must join inside the scope
/// deadline; a hung thread panics `finish()`, a harvested worker panic
/// re-panics, and the shared `runtime.threads_active` gauge must read
/// exactly zero afterwards — so a clean return proves all three.
#[test]
fn dropping_a_deployment_mid_request_joins_every_thread() {
    let seed = fault_seed();
    let mut rng = DetRng::new(seed);
    for round in 0..4u64 {
        let n = rng.gen_range(1, 10);
        let ctl = FaultController::new();
        let transport: Arc<dyn Transport> =
            Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
        let cluster = ClusterSpec::single_rack(3, 1);
        let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
        // Clone the registry out *before* teardown: gauges are shared, so
        // it keeps reporting after the deployment itself is gone.
        let obs = dep.obs().clone();
        let app = dep.register_app("sum", sum_agg(), 1.0);
        let master = dep.master_shim(app);
        let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
        dep.enable_failure_detection(fast_detector());
        let box_addr = dep.boxes()[0].addr();

        let live = obs.gauge("runtime.threads_active").get();
        assert!(
            live > 0.0,
            "seed {seed:#x} round {round}: expected live scoped threads before teardown"
        );

        // Kill the box after a seeded number of further frames, so teardown
        // races an in-flight failure at arbitrary protocol moments.
        ctl.schedule(FaultStep {
            watch: box_addr,
            after_frames: ctl.frames_delivered(box_addr) + n,
            kill_target: box_addr,
        });

        let req = round + 1;
        let pending = master.register_request(req, 3);
        for (i, w) in workers.iter().enumerate() {
            // Sends may fail once the box dies; teardown must cope anyway.
            let _ = w.send_partial(req, Bytes::from((i as i64 + 1).to_string()));
        }
        // Deliberately do NOT wait for the request: the whole point is to
        // tear down with the aggregation (and possibly a replay) in flight.
        drop(pending);

        let t0 = Instant::now();
        drop(workers);
        drop(master);
        drop(dep);
        let elapsed = t0.elapsed();

        // Cancellation wakes blocked threads instead of being polled, so
        // teardown should be nowhere near the join deadline; allow slack
        // for one detector round plus scheduling noise on a loaded CI box.
        assert!(
            elapsed < DEFAULT_JOIN_DEADLINE + Duration::from_secs(3),
            "seed {seed:#x} round {round} (kill after {n} frames): \
             teardown took {elapsed:?}"
        );
        let remaining = obs.gauge("runtime.threads_active").get();
        assert_eq!(
            remaining, 0.0,
            "seed {seed:#x} round {round} (kill after {n} frames): \
             {remaining} scoped threads still alive after full teardown"
        );
    }
}

/// Fault-free variant fencing the wakeup path itself: with nothing dead and
/// a request in flight, full teardown must complete far under the join
/// deadline (blocked receivers are woken by cancellation, not discovered by
/// a poll tick) and still zero the thread gauge.
#[test]
fn clean_teardown_mid_request_is_prompt() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(3, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let obs = dep.obs().clone();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
    dep.enable_failure_detection(fast_detector());

    let pending = master.register_request(1, 3);
    let _ = workers[0].send_partial(1, Bytes::from("5"));
    let _ = workers[1].send_partial(1, Bytes::from("7"));
    // Third partial withheld: the request stays open across teardown.
    drop(pending);

    let t0 = Instant::now();
    drop(workers);
    drop(master);
    drop(dep);
    let elapsed = t0.elapsed();

    assert!(
        elapsed < Duration::from_secs(2),
        "clean teardown should be wakeup-bounded, took {elapsed:?}"
    );
    assert_eq!(
        obs.gauge("runtime.threads_active").get(),
        0.0,
        "scoped threads survived a clean teardown"
    );
}

/// A pool thread can be the last holder of the box's `Arc<TaskScheduler>`
/// (the combine task and the completion callback upgrade one transiently);
/// a pool that is shut down by whoever drops the last `Arc` then finishes
/// on that thread, detached, after the box's own teardown has returned.
/// The box joins its pool itself: once `drop` returns, nothing is alive.
#[test]
fn a_box_joins_its_pool_even_when_a_task_holds_the_scheduler() {
    use netagg_core::aggbox::{AggBox, AggBoxConfig};
    use netagg_core::tree::box_addr;

    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let mut cfg = AggBoxConfig::new(0, box_addr(0));
    cfg.scheduler.threads = 2;
    let obs = cfg.obs.clone();
    let agg_box = AggBox::start(transport, cfg).unwrap();
    agg_box.register_app(AppId(1), sum_agg(), 1.0);

    let held = agg_box.scheduler().clone();
    let running = Arc::new(std::sync::Barrier::new(2));
    let task_running = running.clone();
    agg_box.scheduler().submit(
        AppId(1),
        Box::new(move || {
            task_running.wait();
            // Outlast the box's own teardown (milliseconds) by a margin.
            std::thread::sleep(Duration::from_millis(200));
            drop(held);
        }),
    );
    running.wait();
    drop(agg_box);
    assert_eq!(
        obs.gauge("runtime.threads_active").get(),
        0.0,
        "scoped threads still alive after the box was dropped"
    );
}
