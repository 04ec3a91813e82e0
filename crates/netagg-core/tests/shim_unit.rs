//! Focused shim-layer tests: chunking, replay-buffer lifecycle, duplicate
//! suppression, the end of a delivered request, master-level straggler
//! bypass and the broadcast backpressure path. Complements the end-to-end
//! scenarios in `platform.rs`.

use bytes::Bytes;
use netagg_core::aggbox::core::OUTBOX_BOUND;
use netagg_core::failure::DetectorConfig;
use netagg_core::prelude::*;
use netagg_core::protocol::{Message, SourceId, TreeId};
use netagg_core::runtime::DeploymentConfig;
use netagg_core::shim::{MasterShim, TreeSelection};
use netagg_core::straggler::StragglerPolicy;
use netagg_core::tree::{box_addr, build_tree_specs, master_addr, worker_addr};
use netagg_net::lifecycle::Wait;
use netagg_net::{
    ChannelTransport, Connection, FaultController, FaultTransport, Interposed, Interposer,
    NetError, NodeId, Transport,
};
use netagg_obs::names;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn parse(b: &Bytes) -> i64 {
    std::str::from_utf8(b).unwrap().parse().unwrap()
}

#[test]
fn send_partial_chunked_splits_into_expected_chunks() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);
    let w1 = dep.worker_shim(app, 1);

    let pending = master.register_request(1, 2);
    // "11111" chunked at 1 byte: five chunks, each deserialising to 1.
    w0.send_partial_chunked(1, Bytes::from_static(b"11111"), 1)
        .unwrap();
    w1.send_partial(1, Bytes::from_static(b"10")).unwrap();
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), 15);
    assert_eq!(w0.stats().chunks_sent.get(), 5);
    assert_eq!(w0.stats().bytes_sent.get(), 5);

    // Payload smaller than the chunk size goes out whole.
    let pending = master.register_request(2, 2);
    w0.send_partial_chunked(2, Bytes::from_static(b"4"), 1024)
        .unwrap();
    w1.send_partial(2, Bytes::from_static(b"5")).unwrap();
    assert_eq!(
        parse(&pending.wait(Duration::from_secs(5)).unwrap().combined),
        9
    );
    assert_eq!(w0.stats().chunks_sent.get(), 6);
    dep.shutdown();
}

#[test]
fn duplicate_resends_are_suppressed_at_the_box() {
    // Models Hadoop speculative execution: a backup task re-emits the same
    // output; per-(source, seq) suppression at the box drops the copies.
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);
    let w1 = dep.worker_shim(app, 1);

    let pending = master.register_request(1, 2);
    w0.send_chunk(1, Bytes::from_static(b"7"), false).unwrap();
    // The speculative duplicate of everything sent so far.
    w0.resend_request(1);
    w0.send_chunk(1, Bytes::from_static(b"0"), true).unwrap();
    w1.send_partial(1, Bytes::from_static(b"3")).unwrap();
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(
        parse(&result.combined),
        10,
        "duplicate 7 must not be re-added"
    );
    assert!(w0.stats().chunks_resent.get() >= 1);
    assert!(
        dep.boxes()[0].stats().duplicates_dropped.get() >= 1,
        "box should have dropped the duplicate"
    );
    dep.shutdown();
}

/// A chunk replayed after its request was delivered is dropped at the
/// master: counted once in `shim.master.duplicates_dropped`, and it keeps
/// only its wire span — no `span.master.recv`.
#[test]
fn a_replay_after_delivery_is_dropped_at_the_master() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(1, 0);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    dep.obs().tracer().enable(1);
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let (master, w0) = (dep.master_shim(app), dep.worker_shim(app, 0));
    let pending = master.register_request(1, 1);
    w0.send_partial(1, Bytes::from_static(b"4")).unwrap();
    assert_eq!(
        parse(&pending.wait(Duration::from_secs(5)).unwrap().combined),
        4
    );
    let tracer = dep.obs().tracer();
    let recv = || {
        let spans = tracer.spans().into_iter();
        spans
            .filter(|s| s.name == names::spans::MASTER_RECV)
            .count()
    };
    let dropped = || {
        dep.snapshot()
            .counter(names::SHIM_MASTER_DUPLICATES_DROPPED)
            .unwrap_or(0)
    };
    // Spans and counters publish after the reader releases the lock: poll.
    let until = |done: &dyn Fn() -> bool, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    until(&|| recv() == 1, "the delivered chunk's recv span");
    let dropped_before = dropped();
    w0.resend_request(1);
    until(
        &|| dropped() == dropped_before + 1,
        "the replay was never dropped",
    );
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(dropped(), dropped_before + 1);
    assert_eq!(recv(), 1, "a dropped chunk records no recv span");
    dep.shutdown();
}

#[test]
fn complete_request_clears_replay_state() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);
    let w1 = dep.worker_shim(app, 1);

    let pending = master.register_request(1, 2);
    w0.send_partial(1, Bytes::from_static(b"2")).unwrap();
    w1.send_partial(1, Bytes::from_static(b"3")).unwrap();
    pending.wait(Duration::from_secs(5)).unwrap();

    // Before the app acknowledges completion the chunks are replayable...
    w0.resend_request(1);
    let resent = w0.stats().chunks_resent.get();
    assert!(resent >= 1);
    // ...and afterwards they are gone.
    w0.complete_request(1);
    w0.resend_request(1);
    assert_eq!(w0.stats().chunks_resent.get(), resent);
    dep.shutdown();
}

#[test]
fn resend_with_nothing_buffered_is_a_noop() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(1, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let w0 = dep.worker_shim(app, 0);
    w0.resend_request(42);
    assert_eq!(w0.stats().chunks_resent.get(), 0);
    dep.shutdown();
}

#[test]
fn replay_buffer_evicts_oldest_requests() {
    // The buffer keeps the 64 most recent requests; chunks of older ones
    // can no longer be replayed.
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(1, 0); // direct to master
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let _master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);

    for req in 0..70u64 {
        w0.send_partial(req, Bytes::from_static(b"1")).unwrap();
    }
    w0.resend_request(0); // evicted
    assert_eq!(w0.stats().chunks_resent.get(), 0);
    w0.resend_request(69); // still buffered
    assert_eq!(w0.stats().chunks_resent.get(), 1);
    dep.shutdown();
}

#[test]
fn assignment_is_master_when_no_boxes_deployed() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 0);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let w0 = dep.worker_shim(app, 0);
    assert_eq!(w0.assignment(TreeId(0)), Some(master_addr(app)));
    assert_eq!(w0.assignment(TreeId(7)), None, "unknown tree has no route");
    assert_eq!(w0.worker_id(), 0);
    dep.shutdown();
}

/// A request's state ends with its delivery: a second `wait` on the same
/// handle finds nothing, and says so. (A request never waited on ends by
/// the fan-in core's reap; `cores.rs` drives that on virtual time.)
#[test]
fn a_second_wait_after_delivery_reports_the_request_not_registered() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 0);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let (master, w0, w1) = (
        dep.master_shim(app),
        dep.worker_shim(app, 0),
        dep.worker_shim(app, 1),
    );
    let pending = master.register_request(1, 2);
    w0.send_partial(1, Bytes::from_static(b"2")).unwrap();
    w1.send_partial(1, Bytes::from_static(b"3")).unwrap();
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), 5);
    match pending.wait(Duration::from_millis(200)) {
        Err(AggError::Net(msg)) => assert!(msg.contains("not registered"), "{msg}"),
        other => panic!("expected a not-registered error, got {other:?}"),
    }
    dep.shutdown();
}

#[test]
fn master_bypasses_a_straggling_root_box() {
    // The master shim runs the same straggler logic as the boxes, with a 4x
    // threshold so box-level bypass gets the first chance. Here the only
    // box straggles, so the master must pull the workers' data directly.
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch_with(
        transport,
        &cluster,
        DeploymentConfig {
            straggler: Some(StragglerPolicy {
                threshold: Duration::from_millis(150),
                repeat_limit: 1000,
            }),
            ..DeploymentConfig::default()
        },
    )
    .unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);
    let w1 = dep.worker_shim(app, 1);
    // Everything the box emits is delayed far beyond the master's 600 ms
    // effective threshold.
    ctl.delay(dep.boxes()[0].addr(), Duration::from_secs(30));

    let pending = master.register_request(1, 2);
    w0.send_partial(1, Bytes::from_static(b"2")).unwrap();
    w1.send_partial(1, Bytes::from_static(b"3")).unwrap();
    let result = pending.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(parse(&result.combined), 5);
    assert_eq!(
        result.master_inputs, 2,
        "both partials should arrive via the bypass"
    );
    assert!(w0.stats().redirects.get() >= 1);
    ctl.clear_delay(dep.boxes()[0].addr());
    dep.shutdown();
}

#[test]
#[should_panic(expected = "Keyed")]
fn send_chunk_rejects_keyed_selection() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(1, 0);
    let mut dep = NetAggDeployment::launch_with(
        transport,
        &cluster,
        DeploymentConfig {
            selection: TreeSelection::Keyed,
            ..DeploymentConfig::default()
        },
    )
    .unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let w0 = dep.worker_shim(app, 0);
    let _ = w0.send_chunk(1, Bytes::from_static(b"1"), true);
}

#[test]
fn broadcast_flood_never_blocks_the_master() {
    // Workers that do not consume broadcasts must not stall the sender:
    // the delivery mailbox evicts its oldest entries past the 256-message
    // bound (DropOldest) instead of blocking the control reader.
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(1, 0);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);

    for req in 0..400u64 {
        master.broadcast(req, Bytes::from_static(b"tick")).unwrap();
    }
    // Wait until the shim has taken all 400 off the wire (the counter
    // increments before the mailbox applies its drop policy), so draining
    // below races nothing.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while w0.stats().broadcasts_received.get() < 400 {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of 400 broadcasts arrived",
            w0.stats().broadcasts_received.get()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // One ordered control connection + DropOldest(256) means exactly the
    // newest 256 broadcasts (requests 144..400) remain, in order.
    let (first, payload) = w0.recv_broadcast(Duration::from_secs(1)).unwrap();
    assert_eq!(first, 144, "the 144 oldest broadcasts must be evicted");
    assert_eq!(payload.as_ref(), b"tick");
    let mut delivered = 1u64;
    let mut expect = 145u64;
    while let Ok((req, _)) = w0.recv_broadcast(Duration::from_millis(50)) {
        assert_eq!(req, expect, "delivery must preserve arrival order");
        expect += 1;
        delivered += 1;
    }
    assert_eq!(delivered, 256, "exactly the mailbox bound is deliverable");
    dep.shutdown();
}

#[test]
fn wait_after_shutdown_reports_shutdown() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 0);
    let specs = build_tree_specs(&cluster);
    let master = MasterShim::start(
        transport,
        netagg_core::protocol::AppId(0),
        sum_agg(),
        &specs,
        &DeploymentConfig::default(),
        &netagg_obs::MetricsRegistry::new(),
    )
    .unwrap();
    let pending = master.register_request(1, 2);
    master.shutdown();
    assert!(matches!(
        pending.wait(Duration::from_secs(1)),
        Err(AggError::Shutdown)
    ));
}

/// Holds the first frame worker 0 sends the master — the first chunk of
/// its replay after a permanent redirect — for [`HOLD`], and records, in
/// arrival order, the sequence number of every chunk of worker 0's the
/// master receives.
#[derive(Clone)]
struct HoldFirstReplay {
    worker: NodeId,
    master: NodeId,
    holding: Arc<AtomicBool>,
    seqs: Arc<parking_lot::Mutex<Vec<u32>>>,
}

const HOLD: Duration = Duration::from_millis(100);

impl Interposer for HoldFirstReplay {
    type Link = (NodeId, NodeId, HoldFirstReplay);

    fn link(&self, local: NodeId, peer: NodeId) -> Result<Self::Link, NetError> {
        Ok((local, peer, self.clone()))
    }

    fn before_send((local, peer, hook): &mut Self::Link, _len: usize) -> Result<(), NetError> {
        let replay = (*local, *peer) == (hook.worker, hook.master);
        if replay && !hook.holding.swap(true, Relaxed) {
            std::thread::sleep(HOLD);
        }
        Ok(())
    }

    fn recv(
        (local, peer, hook): &mut Self::Link,
        inner: &mut dyn Connection,
        wait: Wait<'_>,
    ) -> Result<Bytes, NetError> {
        let frame = wait.recv(inner)?;
        if (*local, *peer) == (hook.master, hook.worker) {
            if let Ok(Message::Data { source, seq, .. }) = Message::decode(frame.clone()) {
                assert_eq!(source, SourceId::Worker(0));
                hook.seqs.lock().push(seq);
            }
        }
        Ok(frame)
    }
}

/// Bugfix: a worker's replay after a permanent redirect must not be
/// overtaken by the application's next chunk. The first replayed frame is
/// held 100 ms while the worker sends that chunk on the same tree; the new
/// parent (the master) must still see worker 0's sequence numbers in order
/// — a higher one first would make the replayed rest duplicates it drops —
/// and the result must be the reference fold. The second replayed chunk is
/// 8 MiB (a 1 with leading zeros): encoding it takes milliseconds, so a
/// replay that let go of the connection cache between frames would lose
/// that race every time.
#[test]
fn a_replay_is_never_overtaken_by_the_next_chunk() {
    let app = netagg_core::protocol::AppId(0);
    let hook = HoldFirstReplay {
        worker: worker_addr(app, 0),
        master: master_addr(app),
        holding: Arc::default(),
        seqs: Arc::default(),
    };
    let ctl = FaultController::new();
    let held = Interposed::over(ChannelTransport::new(), hook.clone());
    let transport: Arc<dyn Transport> = Arc::new(FaultTransport::new(held, ctl.clone()));
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    assert_eq!(dep.register_app("sum", sum_agg(), 1.0), app);
    let master = dep.master_shim(app);
    let (w0, w1) = (dep.worker_shim(app, 0), dep.worker_shim(app, 1));
    dep.enable_failure_detection(DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(60),
        misses: 2,
    });

    let pending = master.register_request(1, 2);
    let mut big = vec![b'0'; 8 << 20];
    *big.last_mut().unwrap() = b'1';
    for chunk in [
        Bytes::from_static(b"1"),
        Bytes::from(big),
        Bytes::from_static(b"1"),
    ] {
        w0.send_chunk(1, chunk, false).unwrap();
    }
    ctl.kill(dep.boxes()[0].addr());
    let deadline = Instant::now() + Duration::from_secs(5);
    while !hook.holding.load(Relaxed) {
        assert!(Instant::now() < deadline, "worker 0 never replayed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The replay's first frame is held: send the next chunk now.
    w0.send_chunk(1, Bytes::from_static(b"1"), true).unwrap();
    while w1.assignment(TreeId(0)) != Some(master.addr()) {
        assert!(Instant::now() < deadline, "worker 1 never re-pointed");
        std::thread::sleep(Duration::from_millis(1));
    }
    w1.send_partial(1, Bytes::from_static(b"10")).unwrap();
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(*hook.seqs.lock(), vec![1, 2, 3, 4]);
    assert_eq!(parse(&result.combined), 4 + 10);
    ctl.revive(dep.boxes()[0].addr());
    dep.shutdown();
}

/// Stalls the box's first frame to the master until the box has stopped
/// taking its worker's chunks (its readers are held back) or has taken
/// every one, and counts the chunks it took.
#[derive(Clone)]
struct StallUpstream {
    aggbox: NodeId,
    master: NodeId,
    worker: NodeId,
    taken: Arc<AtomicUsize>,
    /// Chunks the box had taken when the stall ended; 0 while it lasts.
    at_release: Arc<AtomicUsize>,
}

const STALLED_REQUESTS: u64 = 5000;

impl Interposer for StallUpstream {
    type Link = (NodeId, NodeId, StallUpstream);

    fn link(&self, local: NodeId, peer: NodeId) -> Result<Self::Link, NetError> {
        Ok((local, peer, self.clone()))
    }

    fn before_send((local, peer, hook): &mut Self::Link, _len: usize) -> Result<(), NetError> {
        let upstream = (*local, *peer) == (hook.aggbox, hook.master);
        if upstream && hook.at_release.load(Relaxed) == 0 {
            let mut seen = usize::MAX;
            while hook.taken.load(Relaxed) != seen {
                seen = hook.taken.load(Relaxed);
                if seen as u64 == STALLED_REQUESTS {
                    break;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
            hook.at_release.store(seen, Relaxed);
        }
        Ok(())
    }

    fn recv(
        (local, peer, hook): &mut Self::Link,
        inner: &mut dyn Connection,
        wait: Wait<'_>,
    ) -> Result<Bytes, NetError> {
        let frame = wait.recv(inner)?;
        if (*local, *peer) == (hook.aggbox, hook.worker) {
            hook.taken.fetch_add(1, Relaxed);
        }
        Ok(frame)
    }
}

/// Bugfix: a box whose parent stalls holds its children back instead of
/// evicting numbered output. The box → master link is stalled while the
/// box completes more requests than its outbox bound; then it is released.
/// Every request's result must be the reference fold, and no mailbox may
/// have dropped anything (a `DropOldest` queue before the wire loses the
/// oldest chunks here, and the master waits for them forever).
#[test]
fn a_stalled_parent_holds_the_box_back_instead_of_losing_output() {
    let app = netagg_core::protocol::AppId(0);
    let hook = StallUpstream {
        aggbox: box_addr(0),
        master: master_addr(app),
        worker: worker_addr(app, 0),
        taken: Arc::default(),
        at_release: Arc::default(),
    };
    let stalled = Interposed::over(ChannelTransport::new(), hook.clone());
    let mut dep =
        NetAggDeployment::launch(Arc::new(stalled), &ClusterSpec::single_rack(1, 1)).unwrap();
    assert_eq!(dep.register_app("sum", sum_agg(), 1.0), app);
    let (master, w0) = (dep.master_shim(app), dep.worker_shim(app, 0));
    let pending: Vec<_> = (0..STALLED_REQUESTS)
        .map(|r| master.register_request(r, 1))
        .collect();
    for r in 0..STALLED_REQUESTS {
        w0.send_partial(r, Bytes::from(r.to_string())).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    for (r, p) in pending.iter().enumerate() {
        let left = deadline.saturating_duration_since(Instant::now());
        let result = p
            .wait(left)
            .unwrap_or_else(|e| panic!("request {r}: {e:?}"));
        assert_eq!(parse(&result.combined), r as i64);
    }
    let at_release = hook.at_release.load(Relaxed);
    assert!(
        at_release > OUTBOX_BOUND,
        "released after {at_release} chunks"
    );
    let snapshot = dep.snapshot();
    let dropped = snapshot.counters.iter();
    let dropped: Vec<_> = dropped
        .filter(|(name, n)| name.starts_with("mailbox.dropped.") && *n > 0)
        .collect();
    assert!(dropped.is_empty(), "{dropped:?}");
    dep.shutdown();
}

/// The same stall with four workers and one pool thread: the pool thread
/// that drains is the one held up, so the combine tasks the reader's
/// closes submit pile up in the pool's queue, not in the outbox. The
/// reader holds `Data` back once that queue is over the bound too: it
/// stays within it, and every result is the reference fold.
#[test]
fn a_stalled_pool_thread_holds_the_box_back_at_the_queue_bound() {
    let app = netagg_core::protocol::AppId(0);
    let hook = StallUpstream {
        aggbox: box_addr(0),
        master: master_addr(app),
        worker: worker_addr(app, 0),
        taken: Arc::default(),
        at_release: Arc::default(),
    };
    let stalled = Interposed::over(ChannelTransport::new(), hook.clone());
    let scheduler = SchedulerConfig {
        threads: 1,
        ..SchedulerConfig::default()
    };
    let cfg = DeploymentConfig {
        scheduler,
        ..DeploymentConfig::default()
    };
    let cluster = ClusterSpec::single_rack(4, 1);
    let mut dep = NetAggDeployment::launch_with(Arc::new(stalled), &cluster, cfg).unwrap();
    assert_eq!(dep.register_app("sum", sum_agg(), 1.0), app);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..4).map(|w| dep.worker_shim(app, w)).collect();
    let pending: Vec<_> = (0..STALLED_REQUESTS)
        .map(|r| master.register_request(r, 4))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let most = Arc::new(AtomicUsize::new(0));
    let pool = dep.boxes()[0].scheduler().clone();
    let (done, high) = (stop.clone(), most.clone());
    #[expect(
        clippy::disallowed_methods,
        reason = "test samples the pool's queue while the test thread is blocked sending"
    )]
    let monitor = std::thread::spawn(move || {
        while !done.load(Relaxed) {
            high.fetch_max(pool.queued(), Relaxed);
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    for r in 0..STALLED_REQUESTS {
        for (w, shim) in workers.iter().enumerate() {
            let partial = r as usize * 10 + w;
            shim.send_partial(r, Bytes::from(partial.to_string()))
                .unwrap();
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    for (r, p) in pending.iter().enumerate() {
        let left = deadline.saturating_duration_since(Instant::now());
        let result = p
            .wait(left)
            .unwrap_or_else(|e| panic!("request {r}: {e:?}"));
        assert_eq!(parse(&result.combined), r as i64 * 40 + 6);
    }
    stop.store(true, Relaxed);
    monitor.join().unwrap();
    let most = most.load(Relaxed);
    assert!(
        (OUTBOX_BOUND..=OUTBOX_BOUND + 1).contains(&most),
        "the pool's queue peaked at {most} tasks"
    );
    assert!(hook.at_release.load(Relaxed) > 0, "the stall never ended");
    dep.shutdown();
}

/// Holds worker 0's first frame to the master — the first chunk of its
/// replay after a permanent redirect — until the application's send count
/// has stopped growing, and records that count.
#[derive(Clone)]
struct StallReplay {
    worker: NodeId,
    master: NodeId,
    holding: Arc<AtomicBool>,
    /// Chunks the application has sent.
    sent: Arc<AtomicUsize>,
    /// Chunks it had sent when the stall ended; 0 while it lasts.
    at_release: Arc<AtomicUsize>,
}

impl Interposer for StallReplay {
    type Link = (NodeId, NodeId, StallReplay);

    fn link(&self, local: NodeId, peer: NodeId) -> Result<Self::Link, NetError> {
        Ok((local, peer, self.clone()))
    }

    fn before_send((local, peer, hook): &mut Self::Link, _len: usize) -> Result<(), NetError> {
        let replay = (*local, *peer) == (hook.worker, hook.master);
        if replay && !hook.holding.swap(true, Relaxed) {
            let (deadline, mut seen) = (Instant::now() + Duration::from_secs(20), usize::MAX);
            while (seen == 0 || hook.sent.load(Relaxed) != seen) && Instant::now() < deadline {
                seen = hook.sent.load(Relaxed);
                std::thread::sleep(Duration::from_millis(300));
            }
            hook.at_release.store(seen, Relaxed);
        }
        Ok(())
    }
}

/// Bugfix: an application thread that finds its worker's outbox over the
/// bound while another thread drains it waits for that drain, instead of
/// queueing without limit. Worker 0's replay to its new parent is held
/// while the application sends `OUTBOX_BOUND + 1 000` chunks from another
/// thread, until the application's send count stops growing: it must have
/// stopped at the bound, and the result must be the reference fold.
#[test]
fn an_application_thread_waits_for_the_drain_at_the_outbox_bound() {
    let app = netagg_core::protocol::AppId(0);
    let hook = StallReplay {
        worker: worker_addr(app, 0),
        master: master_addr(app),
        holding: Arc::default(),
        sent: Arc::default(),
        at_release: Arc::default(),
    };
    let ctl = FaultController::new();
    let stalled = Interposed::over(ChannelTransport::new(), hook.clone());
    let transport: Arc<dyn Transport> = Arc::new(FaultTransport::new(stalled, ctl.clone()));
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    assert_eq!(dep.register_app("sum", sum_agg(), 1.0), app);
    let master = dep.master_shim(app);
    let (w0, w1) = (dep.worker_shim(app, 0), dep.worker_shim(app, 1));
    dep.enable_failure_detection(DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(60),
        misses: 2,
    });

    let pending = master.register_request(1, 2);
    w0.send_chunk(1, Bytes::from_static(b"1"), false).unwrap();
    ctl.kill(dep.boxes()[0].addr());
    let deadline = Instant::now() + Duration::from_secs(5);
    while !hook.holding.load(Relaxed) {
        assert!(Instant::now() < deadline, "worker 0 never replayed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let chunks = OUTBOX_BOUND + 1000;
    let (shim, sent) = (w0.clone(), hook.sent.clone());
    #[expect(
        clippy::disallowed_methods,
        reason = "the application sends from a thread of its own while the test waits"
    )]
    let application = std::thread::spawn(move || {
        for i in 0..chunks {
            let last = i + 1 == chunks;
            shim.send_chunk(1, Bytes::from_static(b"1"), last).unwrap();
            sent.fetch_add(1, Relaxed);
        }
    });
    while w1.assignment(TreeId(0)) != Some(master.addr()) {
        assert!(Instant::now() < deadline, "worker 1 never re-pointed");
        std::thread::sleep(Duration::from_millis(1));
    }
    w1.send_partial(1, Bytes::from_static(b"10")).unwrap();
    let result = pending.wait(Duration::from_secs(30)).unwrap();
    application.join().unwrap();
    let at_release = hook.at_release.load(Relaxed);
    assert!(
        (1..=OUTBOX_BOUND + 1).contains(&at_release),
        "the application sent {at_release} chunks past a stalled drain"
    );
    assert_eq!(parse(&result.combined), 1 + chunks as i64 + 10);
    ctl.revive(dep.boxes()[0].addr());
    dep.shutdown();
}

/// Holds every frame the box sends the master that is longer than a
/// probe or an ack — its `Data` — until the test opens the gate, and
/// counts the frames the box took from its worker.
#[derive(Clone)]
struct DataGate {
    aggbox: NodeId,
    master: NodeId,
    worker: NodeId,
    longer: usize,
    open: Arc<AtomicBool>,
    taken: Arc<AtomicUsize>,
}

impl Interposer for DataGate {
    type Link = (NodeId, NodeId, DataGate);

    fn link(&self, local: NodeId, peer: NodeId) -> Result<Self::Link, NetError> {
        Ok((local, peer, self.clone()))
    }

    fn before_send((local, peer, gate): &mut Self::Link, len: usize) -> Result<(), NetError> {
        if (*local, *peer) == (gate.aggbox, gate.master) && len > gate.longer {
            while !gate.open.load(Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }

    fn recv(
        (local, peer, gate): &mut Self::Link,
        inner: &mut dyn Connection,
        wait: Wait<'_>,
    ) -> Result<Bytes, NetError> {
        let frame = wait.recv(inner)?;
        if (*local, *peer) == (gate.aggbox, gate.worker) {
            gate.taken.fetch_add(1, Relaxed);
        }
        Ok(frame)
    }
}

/// Liveness while holding: the root box's `Data` to the master is held
/// until the box has taken more than its outbox bound from its worker and
/// takes no more — it holds back its children, worker 0 and box 1 with
/// worker 1 behind it — and then two seconds longer, with failure
/// detection on at the master and at both boxes and a tolerance of three
/// 300 ms time-outs. The root box answers every probe the master sends
/// meanwhile, and fails no child: nothing is declared failed, and every
/// result is the reference fold.
#[test]
fn a_box_holding_data_back_answers_every_probe() {
    let app = netagg_core::protocol::AppId(0);
    let probe = Message::Heartbeat { from: 0, nonce: 0 }.encode().len();
    let ack = Message::HeartbeatAck { from: 0, nonce: 0 }.encode().len();
    let gate = DataGate {
        aggbox: box_addr(0),
        master: master_addr(app),
        worker: worker_addr(app, 0),
        longer: probe.max(ack),
        open: Arc::default(),
        taken: Arc::default(),
    };
    let held = Interposed::over(ChannelTransport::new(), gate.clone());
    let cluster = ClusterSpec::multi_rack(2, 1, 1);
    let mut dep = NetAggDeployment::launch(Arc::new(held), &cluster).unwrap();
    assert_eq!(dep.register_app("sum", sum_agg(), 1.0), app);
    let (master, w0, w1) = (
        dep.master_shim(app),
        dep.worker_shim(app, 0),
        dep.worker_shim(app, 1),
    );
    dep.enable_failure_detection(DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(300),
        misses: 3,
    });
    let pending: Vec<_> = (0..STALLED_REQUESTS)
        .map(|r| master.register_request(r, 2))
        .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "test sends from a thread of its own: the sends block while the box holds"
    )]
    let sender = std::thread::spawn(move || {
        for r in 0..STALLED_REQUESTS {
            w0.send_partial(r, Bytes::from(r.to_string())).unwrap();
            w1.send_partial(r, Bytes::from_static(b"1")).unwrap();
        }
    });
    let (mut seen, held_by) = (0, Instant::now() + Duration::from_secs(30));
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let taken = gate.taken.load(Relaxed);
        if taken == seen && taken > OUTBOX_BOUND {
            break;
        }
        seen = taken;
        assert!(Instant::now() < held_by, "the box never held: {taken}");
    }
    std::thread::sleep(Duration::from_secs(2));
    gate.open.store(true, Relaxed);
    sender.join().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    for (r, p) in pending.iter().enumerate() {
        let left = deadline.saturating_duration_since(Instant::now());
        let result = p
            .wait(left)
            .unwrap_or_else(|e| panic!("request {r}: {e:?}"));
        assert_eq!(parse(&result.combined), r as i64 + 1);
    }
    let snapshot = dep.snapshot();
    let failures = ["failure.detections", "failure.repoints"];
    for name in failures {
        assert_eq!(snapshot.counter(name).unwrap_or(0), 0, "{name}");
    }
    dep.shutdown();
}

/// One reader per node: the threads a deployment runs do not grow with
/// its connections. `single_rack(4, 1)` runs per box a listener, a
/// reader, a timer and its pool, per master a listener, a reader and a
/// timer, and per worker a listener and a control reader — before any
/// connection is open, and still once traffic with failure detection on
/// has opened four worker connections and the master's control
/// connection into the box, and the box's output and acks into the
/// master.
#[test]
fn one_reader_serves_every_connection_of_a_node() {
    let scheduler = SchedulerConfig {
        threads: 2,
        ..SchedulerConfig::default()
    };
    let cfg = DeploymentConfig {
        scheduler,
        ..DeploymentConfig::default()
    };
    let transport = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(4, 1);
    let mut dep = NetAggDeployment::launch_with(transport, &cluster, cfg).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..4).map(|w| dep.worker_shim(app, w)).collect();
    let threads = |dep: &NetAggDeployment| dep.snapshot().gauge("runtime.threads_active");
    let per_node = Some(f64::from((3 + 2) + 3 + 4 * 2));
    assert_eq!(threads(&dep), per_node);
    dep.enable_failure_detection(DetectorConfig {
        interval: Duration::from_millis(5),
        ..DetectorConfig::default()
    });
    for r in 0..50 {
        let pending = master.register_request(r, 4);
        for w in &workers {
            w.send_partial(r, Bytes::from_static(b"1")).unwrap();
        }
        let result = pending.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(parse(&result.combined), 4);
    }
    // Several probe rounds, so the probe and ack connections are open.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(threads(&dep), per_node);
    dep.shutdown();
}
