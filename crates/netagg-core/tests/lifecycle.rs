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

/// A box with every timer source configured but nothing to do: its route
/// names a child box, so the straggler policy has someone to bypass, and
/// `flush_bytes` is set. Worker 0 and box 7 are owed; box 7's only child
/// listens at `child`.
fn timed_box(
    transport: &Arc<dyn Transport>,
    threshold: Duration,
    child: netagg_net::NodeId,
) -> Arc<netagg_core::aggbox::AggBox> {
    use netagg_core::aggbox::{AggBox, AggBoxConfig, Route};
    use netagg_core::protocol::{SourceId, TreeId};
    use netagg_core::straggler::StragglerPolicy;
    use netagg_core::tree::box_addr;

    let mut cfg = AggBoxConfig::new(0, box_addr(0));
    cfg.straggler = Some(StragglerPolicy::new(threshold));
    cfg.flush_bytes = Some(1 << 20);
    let agg_box = AggBox::start(transport.clone(), cfg).unwrap();
    agg_box.register_app(AppId(1), sum_agg(), 1.0);
    let behind = Route {
        owed: [SourceId::Worker(1)].into(),
        children_addrs: vec![child],
        ..Route::default()
    };
    let route = Route {
        owed: [SourceId::Worker(0), SourceId::Box(7)].into(),
        child_boxes: [(7, behind)].into(),
        ..Route::default()
    };
    agg_box.install_route(AppId(1), TreeId(0), 9_999, route);
    agg_box
}

/// Time is an input: with no request open the core has no deadline, so the
/// one timer thread stays parked — where the flusher used to tick 30 times
/// in 300 ms and the straggler monitor every quarter threshold.
#[test]
fn an_idle_box_never_wakes_its_timer() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let agg_box = timed_box(&transport, Duration::from_millis(20), 9_998);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(agg_box.snapshot().timer_wakeups, 0);
}

/// The timer thread of an idle box is parked with no deadline. The chunk
/// that starts a request's straggler clock produces the first one and must
/// wake it: the bypass of the silent child box leaves within the threshold
/// (+ 50 ms of slack) of that chunk, not whenever something else fires.
#[test]
fn the_first_clock_wakes_a_timer_parked_without_a_deadline() {
    use netagg_core::protocol::{Message, RequestId, SourceId, TreeId};

    let threshold = Duration::from_millis(100);
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let child = 9_998;
    let mut redirected = transport.bind(child).unwrap();
    let agg_box = timed_box(&transport, threshold, child);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(agg_box.snapshot().timer_wakeups, 0, "parked, no deadline");

    let chunk = Message::Data {
        app: AppId(1),
        request: RequestId(1),
        tree: TreeId(0),
        source: SourceId::Worker(0),
        seq: 1,
        last: true,
        ctx: netagg_obs::trace::TraceCtx::NONE,
        sent_ns: 0,
        payload: Bytes::from("5"),
    };
    let mut conn = transport.connect(9_997, agg_box.addr()).unwrap();
    let t0 = Instant::now();
    conn.send(chunk.encode()).unwrap();
    let mut from_box = redirected
        .accept_timeout(Duration::from_secs(5))
        .expect("the silent child box is bypassed");
    let frame = from_box.recv_timeout(Duration::from_secs(5)).unwrap();
    let elapsed = t0.elapsed();
    let redirect = Message::decode(frame).unwrap();
    assert!(
        matches!(redirect, Message::Redirect { permanent: false, request: RequestId(1), new_parent, .. } if new_parent == agg_box.addr()),
        "{redirect:?}"
    );
    assert!(
        elapsed >= threshold && elapsed < threshold + Duration::from_millis(50),
        "bypass left {elapsed:?} after the chunk that started the clock"
    );
}
