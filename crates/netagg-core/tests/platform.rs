//! End-to-end integration tests of the NetAgg platform: deployments over
//! the in-process transport exercising multi-rack trees, multiple trees,
//! keyed selection, scale-out, failure recovery and straggler bypass.

use bytes::Bytes;
use netagg_core::aggbox::BoxStats;
use netagg_core::failure::DetectorConfig;
use netagg_core::prelude::*;
use netagg_core::runtime::DeploymentConfig;
use netagg_core::shim::TreeSelection;
use netagg_core::straggler::StragglerPolicy;
use netagg_net::{ChannelTransport, FaultController, FaultTransport, Transport};
use netagg_obs::names;
use std::sync::Arc;
use std::time::Duration;

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

fn parse(b: &Bytes) -> i64 {
    std::str::from_utf8(b).unwrap().parse().unwrap()
}

#[test]
fn two_rack_deployment_aggregates_across_boxes() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::multi_rack(2, 4, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();

    for req in 0..5u64 {
        let pending = master.register_request(req, workers.len());
        for (i, w) in workers.iter().enumerate() {
            w.send_partial(req, Bytes::from((i as i64 + 1).to_string()))
                .unwrap();
        }
        let result = pending.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(parse(&result.combined), (1..=8).sum::<i64>());
        assert_eq!(result.emulated_empty, 7);
        // Cross-rack: the master receives ONE aggregate from the root box.
        assert_eq!(result.master_inputs, 1);
    }
    // The upstream rack box and the root box both processed requests.
    for b in dep.boxes() {
        assert!(b.stats().requests_completed.get() >= 5);
    }
    dep.shutdown();
}

#[test]
fn plain_mode_without_boxes_still_completes() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(6, 0);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..6).map(|w| dep.worker_shim(app, w)).collect();
    let pending = master.register_request(1, 6);
    for (i, w) in workers.iter().enumerate() {
        w.send_partial(1, Bytes::from((i as i64).to_string()))
            .unwrap();
    }
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), (0..6).sum::<i64>());
    // No aggregation on path: the master merged all six partials itself.
    assert_eq!(result.master_inputs, 6);
    dep.shutdown();
}

#[test]
fn multiple_trees_spread_requests_over_scale_out_boxes() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(4, 2).with_trees(2);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..4).map(|w| dep.worker_shim(app, w)).collect();
    for req in 0..20u64 {
        let pending = master.register_request(req, 4);
        for w in &workers {
            w.send_partial(req, Bytes::from("1")).unwrap();
        }
        let result = pending.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(parse(&result.combined), 4);
    }
    // Both boxes served some requests (request hashing spreads trees).
    let c0 = dep.boxes()[0].stats().requests_completed.get();
    let c1 = dep.boxes()[1].stats().requests_completed.get();
    assert_eq!(c0 + c1, 20);
    assert!(
        c0 > 0 && c1 > 0,
        "both boxes should serve requests: {c0}/{c1}"
    );
    // Each box's stats are its parts of the deployment's totals.
    let snap = dep.snapshot();
    type Field = fn(&BoxStats) -> u64;
    let fields: [(&str, Field); 6] = [
        (names::AGGBOX_BYTES_IN, |s| s.bytes_in.get()),
        (names::AGGBOX_MESSAGES_IN, |s| s.messages_in.get()),
        (names::AGGBOX_REQUESTS_COMPLETED, |s| {
            s.requests_completed.get()
        }),
        (names::AGGBOX_DUPLICATES_DROPPED, |s| {
            s.duplicates_dropped.get()
        }),
        (names::STRAGGLER_REDIRECTS, |s| s.straggler_redirects.get()),
        (names::AGGBOX_SEND_ERRORS, |s| s.send_errors.get()),
    ];
    for (name, field) in fields {
        let parts: u64 = dep.boxes().iter().map(|b| field(b.stats())).sum();
        assert_eq!(snap.counter(name), Some(parts), "{name}");
    }
    dep.shutdown();
}

#[test]
fn keyed_selection_partitions_chunks_across_trees() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(3, 2).with_trees(2);
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
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
    let pending = master.register_request(9, 3);
    // Each worker sends 10 chunks of value 1, keyed round-robin.
    for w in &workers {
        for k in 0..10u64 {
            w.send_chunk_keyed(9, k, Bytes::from("1")).unwrap();
        }
        w.finish_request(9).unwrap();
    }
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), 30);
    // Two trees deliver two root aggregates.
    assert_eq!(result.master_inputs, 2);
    dep.shutdown();
}

#[test]
fn chunked_streams_are_aggregated() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);
    let w1 = dep.worker_shim(app, 1);
    let pending = master.register_request(3, 2);
    for i in 0..9 {
        w0.send_chunk(3, Bytes::from(i.to_string()), false).unwrap();
    }
    w0.send_chunk(3, Bytes::from("9"), true).unwrap();
    w1.send_partial(3, Bytes::from("100")).unwrap();
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), (0..=9).sum::<i64>() + 100);
    dep.shutdown();
}

#[test]
fn box_failure_recovers_via_detector_and_replay() {
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::single_rack(3, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
    dep.enable_failure_detection(DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(60),
        misses: 2,
    });

    // Healthy request first.
    let p = master.register_request(1, 3);
    for w in &workers {
        w.send_partial(1, Bytes::from("2")).unwrap();
    }
    assert_eq!(parse(&p.wait(Duration::from_secs(5)).unwrap().combined), 6);

    // Kill the box mid-request: two workers sent, one not yet.
    let p = master.register_request(2, 3);
    workers[0].send_partial(2, Bytes::from("5")).unwrap();
    workers[1].send_partial(2, Bytes::from("7")).unwrap();
    ctl.kill(dep.boxes()[0].addr());
    // Detector fires, redirects workers to the master; their replay buffers
    // resend request 2; worker 2's fresh send goes to the master directly.
    std::thread::sleep(Duration::from_millis(400));
    workers[2].send_partial(2, Bytes::from("11")).unwrap();
    let result = p.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(parse(&result.combined), 5 + 7 + 11);

    // Subsequent requests work without the box.
    let p = master.register_request(3, 3);
    for w in &workers {
        w.send_partial(3, Bytes::from("1")).unwrap();
    }
    let result = p.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), 3);
    assert_eq!(result.master_inputs, 3, "workers now send directly");
    ctl.revive(dep.boxes()[0].addr());
    dep.shutdown();
}

#[test]
fn straggling_box_is_bypassed_per_request() {
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    // Two racks: rack 1's box will straggle (its sends are delayed).
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch_with(
        transport,
        &cluster,
        DeploymentConfig {
            straggler: Some(StragglerPolicy {
                threshold: Duration::from_millis(200),
                repeat_limit: 1000, // don't escalate in this test
            }),
            ..DeploymentConfig::default()
        },
    )
    .unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();
    // Delay every send from rack 1's box (box id 1) far beyond the
    // threshold: the root box should bypass it and pull the workers' data
    // directly via their replay buffers.
    ctl.delay(dep.boxes()[1].addr(), Duration::from_secs(3));

    let p = master.register_request(1, 4);
    for w in &workers {
        w.send_partial(1, Bytes::from("3")).unwrap();
    }
    let result = p.wait(Duration::from_secs(8)).unwrap();
    assert_eq!(parse(&result.combined), 12);
    let redirects = dep.boxes()[0].stats().straggler_redirects.get();
    assert!(
        redirects >= 1,
        "root box should have bypassed the straggler"
    );
    ctl.clear_delay(dep.boxes()[1].addr());
    dep.shutdown();
}

#[test]
fn multiple_apps_share_one_deployment() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let sum_app = dep.register_app("sum", sum_agg(), 2.0);

    struct Max;
    impl AggregationFunction for Max {
        type Item = i64;
        fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
            Sum.deserialize(b)
        }
        fn serialize(&self, v: &i64) -> Bytes {
            Sum.serialize(v)
        }
        fn aggregate(&self, items: Vec<i64>) -> i64 {
            items.into_iter().max().unwrap()
        }
        fn empty(&self) -> i64 {
            i64::MIN
        }
    }
    let max_app = dep.register_app("max", Arc::new(AggWrapper::new(Max)), 1.0);
    assert_ne!(sum_app, max_app);

    let sum_master = dep.master_shim(sum_app);
    let max_master = dep.master_shim(max_app);
    let sum_workers: Vec<_> = (0..2).map(|w| dep.worker_shim(sum_app, w)).collect();
    let max_workers: Vec<_> = (0..2).map(|w| dep.worker_shim(max_app, w)).collect();

    let ps = sum_master.register_request(1, 2);
    let pm = max_master.register_request(1, 2);
    for (i, w) in sum_workers.iter().enumerate() {
        w.send_partial(1, Bytes::from((10 * (i + 1)).to_string()))
            .unwrap();
    }
    for (i, w) in max_workers.iter().enumerate() {
        w.send_partial(1, Bytes::from((10 * (i + 1)).to_string()))
            .unwrap();
    }
    assert_eq!(
        parse(&ps.wait(Duration::from_secs(5)).unwrap().combined),
        30
    );
    assert_eq!(
        parse(&pm.wait(Duration::from_secs(5)).unwrap().combined),
        20
    );
    dep.shutdown();
}

#[test]
fn works_over_real_tcp_loopback() {
    let transport: Arc<dyn Transport> = Arc::new(netagg_net::TcpTransport::new());
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();
    let pending = master.register_request(42, 4);
    for w in &workers {
        w.send_partial(42, Bytes::from("25")).unwrap();
    }
    let result = pending.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(parse(&result.combined), 100);
    dep.shutdown();
}

#[test]
fn emulated_worker_results_shape() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(3, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
    let pending = master.register_request(5, 3);
    for w in &workers {
        w.send_partial(5, Bytes::from("4")).unwrap();
    }
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    let per_worker = result.emulated_worker_results();
    assert_eq!(per_worker.len(), 3);
    assert_eq!(parse(&per_worker[0]), 12);
    // Empties carry the identity, so re-aggregating the emulated vector
    // still yields the correct total (commutativity requirement).
    let total: i64 = per_worker.iter().map(parse).sum();
    assert_eq!(total, 12);
    dep.shutdown();
}

#[test]
fn subset_requests_complete_with_request_meta() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();

    // Only workers 0 and 3 participate (one per rack).
    let pending = master.register_request_subset(11, &[0, 3]);
    workers[0].send_partial(11, Bytes::from("5")).unwrap();
    workers[3].send_partial(11, Bytes::from("9")).unwrap();
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), 14);
    assert_eq!(result.emulated_empty, 1);

    // A subset confined to one rack: the other rack's box is not involved.
    let pending = master.register_request_subset(12, &[2, 3]);
    workers[2].send_partial(12, Bytes::from("1")).unwrap();
    workers[3].send_partial(12, Bytes::from("2")).unwrap();
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(parse(&result.combined), 3);

    // Full-membership requests still work afterwards.
    let pending = master.register_request(13, 4);
    for w in &workers {
        w.send_partial(13, Bytes::from("1")).unwrap();
    }
    assert_eq!(
        parse(&pending.wait(Duration::from_secs(5)).unwrap().combined),
        4
    );
    dep.shutdown();
}

#[test]
fn broadcast_reaches_every_worker_once() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::multi_rack(2, 3, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();
    // Give worker-shim listeners a moment to come up before broadcasting.
    std::thread::sleep(Duration::from_millis(50));

    master
        .broadcast(5, Bytes::from_static(b"iteration-0-parameters"))
        .unwrap();
    for w in &workers {
        let (req, payload) = w.recv_broadcast(Duration::from_secs(5)).unwrap();
        assert_eq!(req, 5);
        assert_eq!(payload.as_ref(), b"iteration-0-parameters");
        // Exactly once: no second delivery pending.
        assert!(w.recv_broadcast(Duration::from_millis(100)).is_err());
    }
    dep.shutdown();
}

#[test]
fn broadcast_without_boxes_goes_direct() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(3, 0);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();
    std::thread::sleep(Duration::from_millis(50));
    master.broadcast(9, Bytes::from_static(b"direct")).unwrap();
    for w in &workers {
        let (req, payload) = w.recv_broadcast(Duration::from_secs(5)).unwrap();
        assert_eq!(req, 9);
        assert_eq!(payload.as_ref(), b"direct");
    }
    dep.shutdown();
}

#[test]
fn broadcast_then_aggregate_round_trip() {
    // The iterative-computation pattern the paper's Section 5 sketches:
    // broadcast parameters down, aggregate gradients up.
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let mut value = 1i64;
    for iter in 0..3u64 {
        master
            .broadcast(iter, Bytes::from(value.to_string()))
            .unwrap();
        let pending = master.register_request(iter, workers.len());
        for w in &workers {
            let (req, payload) = w.recv_broadcast(Duration::from_secs(5)).unwrap();
            assert_eq!(req, iter);
            let received: i64 = std::str::from_utf8(&payload).unwrap().parse().unwrap();
            assert_eq!(received, value, "workers see the broadcast value");
            // Each worker "computes" on the broadcast value.
            w.send_partial(iter, Bytes::from((received + 1).to_string()))
                .unwrap();
        }
        let result = pending.wait(Duration::from_secs(5)).unwrap();
        let expected = workers.len() as i64 * (value + 1);
        value = parse(&result.combined);
        assert_eq!(value, expected, "iteration {iter}");
    }
    dep.shutdown();
}

#[test]
fn streaming_flush_pipelines_partial_aggregates() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch_with(
        transport,
        &cluster,
        DeploymentConfig {
            flush_bytes: Some(1), // flush whenever the tree quiesces
            ..DeploymentConfig::default()
        },
    )
    .unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);
    let w1 = dep.worker_shim(app, 1);

    let pending = master.register_request(1, 2);
    // Stream 50 chunks slowly enough that the flusher fires mid-request
    // (7-byte payloads so two buffered chunks exceed the threshold).
    for i in 0..50 {
        w0.send_chunk(1, Bytes::from("0000001"), false).unwrap();
        if i % 5 == 0 {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    w0.send_chunk(1, Bytes::from("0000001"), true).unwrap();
    w1.send_partial(1, Bytes::from("100")).unwrap();
    let result = pending.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(parse(&result.combined), 51 + 100);
    // The box must have streamed at least one intermediate chunk before
    // the final aggregate.
    assert!(
        result.master_inputs >= 2,
        "expected streamed chunks, master saw {}",
        result.master_inputs
    );
    dep.shutdown();
}

#[test]
fn leaf_box_failure_recovers_through_parent_box() {
    // Two racks: rack 1's box (a leaf in the tree) dies; the ROOT box's
    // detector must re-point rack 1's workers at itself.
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();
    dep.enable_failure_detection(DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(60),
        misses: 2,
    });

    // Sanity request through both boxes.
    let p = master.register_request(1, 4);
    for w in &workers {
        w.send_partial(1, Bytes::from("1")).unwrap();
    }
    assert_eq!(parse(&p.wait(Duration::from_secs(5)).unwrap().combined), 4);

    // Kill the leaf (rack 1) box. Box 0 is the root in rack 0.
    let leaf_box = dep.boxes()[1].addr();
    ctl.kill(leaf_box);
    std::thread::sleep(Duration::from_millis(400)); // detector fires

    // Rack 1's workers (2 and 3) should now be re-pointed at the root box.
    let root_addr = dep.boxes()[0].addr();
    assert_eq!(
        workers[2].assignment(netagg_core::protocol::TreeId(0)),
        Some(root_addr),
        "worker 2 re-pointed at the root box"
    );

    // A fresh request completes without the leaf box.
    let p = master.register_request(2, 4);
    for w in &workers {
        w.send_partial(2, Bytes::from("3")).unwrap();
    }
    let result = p.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(parse(&result.combined), 12);
    // The master still sees exactly one root aggregate.
    assert_eq!(result.master_inputs, 1);
    ctl.revive(leaf_box);
    dep.shutdown();
}

#[test]
fn box_snapshot_reflects_activity() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(3, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = (0..3).map(|w| dep.worker_shim(app, w)).collect();

    let before = dep.boxes()[0].snapshot();
    let stats = dep.boxes()[0].stats();
    assert_eq!(stats.requests_completed.get(), 0);
    assert_eq!(before.active_requests, 0);

    let p = master.register_request(1, 3);
    for w in &workers {
        w.send_partial(1, Bytes::from("2")).unwrap();
    }
    p.wait(Duration::from_secs(5)).unwrap();

    // The box's bookkeeping trails the master's completion by a moment
    // (the scheduler stamps per-app accounting after the task whose own
    // sends already delivered the aggregate), so poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let after = loop {
        let s = dep.boxes()[0].snapshot();
        let settled = stats.requests_completed.get() == 1
            && s.active_requests == 0
            && s.apps.first().is_some_and(|a| a.tasks_run > 0);
        if settled || std::time::Instant::now() > deadline {
            break s;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(after.box_id, 0);
    assert_eq!(stats.requests_completed.get(), 1);
    assert_eq!(
        after.active_requests, 0,
        "state cleaned up after completion"
    );
    assert!(stats.bytes_in.get() >= 3);
    assert!(stats.messages_in.get() >= 3);
    assert_eq!(after.apps.len(), 1);
    assert!(after.apps[0].tasks_run > 0);
    dep.shutdown();
}

#[test]
fn error_paths_are_reported() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport.clone(), &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);

    // Waiting on a request no worker answers times out cleanly.
    let p = master.register_request(1, 2);
    w0.send_partial(1, Bytes::from("1")).unwrap();
    assert!(matches!(
        p.wait(Duration::from_millis(300)),
        Err(AggError::Timeout)
    ));

    // Data for an application the boxes never saw is dropped, not crashed.
    let ghost = netagg_core::protocol::AppId(99);
    let msg = netagg_core::protocol::Message::Data {
        app: ghost,
        request: netagg_core::protocol::RequestId(7),
        tree: netagg_core::protocol::TreeId(0),
        source: netagg_core::protocol::SourceId::Worker(0),
        seq: 1,
        last: true,
        ctx: netagg_obs::trace::TraceCtx::NONE,
        sent_ns: 0,
        payload: Bytes::from_static(b"5"),
    };
    let mut conn = transport.connect(9_999, dep.boxes()[0].addr()).unwrap();
    conn.send(msg.encode()).unwrap();
    // And garbage frames are ignored.
    conn.send(Bytes::from_static(b"\xff\xff\xff garbage"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The box is still healthy: a real request completes.
    let w1 = dep.worker_shim(app, 1);
    let p = master.register_request(2, 2);
    w0.send_partial(2, Bytes::from("2")).unwrap();
    w1.send_partial(2, Bytes::from("3")).unwrap();
    assert_eq!(parse(&p.wait(Duration::from_secs(5)).unwrap().combined), 5);
    dep.shutdown();
}

#[test]
fn worker_stats_count_sends_and_resends() {
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let w0 = dep.worker_shim(app, 0);
    let w1 = dep.worker_shim(app, 1);
    dep.enable_failure_detection(DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(60),
        misses: 2,
    });

    let p = master.register_request(1, 2);
    w0.send_partial(1, Bytes::from("4")).unwrap();
    w1.send_partial(1, Bytes::from("6")).unwrap();
    p.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(w0.stats().chunks_sent.get(), 1);
    assert_eq!(w0.stats().bytes_sent.get(), 1);
    assert_eq!(w0.stats().chunks_resent.get(), 0);

    // Kill the box: the redirect triggers a resend from the replay buffer.
    ctl.kill(dep.boxes()[0].addr());
    std::thread::sleep(Duration::from_millis(400));
    assert!(w0.stats().redirects.get() >= 1);
    assert!(w0.stats().chunks_resent.get() >= 1);
    ctl.revive(dep.boxes()[0].addr());
    dep.shutdown();
}

/// A broadcast follows the routes: once the master has failed a dead root
/// box, it sends one copy to each of that box's children in its place —
/// workers directly, a child box to replicate further — and every worker
/// receives the broadcast exactly once.
#[test]
fn broadcast_reaches_every_worker_after_a_root_box_failure() {
    let ctl = FaultController::new();
    let transport: Arc<dyn Transport> =
        Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers: Vec<_> = cluster
        .all_workers()
        .into_iter()
        .map(|w| dep.worker_shim(app, w))
        .collect();
    dep.enable_failure_detection(DetectorConfig {
        interval: Duration::from_millis(30),
        timeout: Duration::from_millis(60),
        misses: 2,
    });
    // Box 0 is the root, in the master's rack; box 1 its child.
    let root = dep.boxes()[0].addr();
    ctl.kill(root);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let tree = netagg_core::protocol::TreeId(0);
    while workers[0].assignment(tree) != Some(master.addr()) {
        assert!(
            std::time::Instant::now() < deadline,
            "root box never failed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    master
        .broadcast(3, Bytes::from_static(b"after-failure"))
        .unwrap();
    for w in &workers {
        let (req, payload) = w.recv_broadcast(Duration::from_secs(5)).unwrap();
        assert_eq!((req, payload.as_ref()), (3, &b"after-failure"[..]));
        assert!(w.recv_broadcast(Duration::from_millis(100)).is_err());
    }
    ctl.revive(root);
    dep.shutdown();
}

/// A broadcast copy the master could not send is counted: with the root
/// box down and not yet failed, the `Err` names as many unsent copies as
/// `shim.master.send_errors` reads.
#[test]
fn a_broadcast_copy_the_master_cannot_send_is_counted() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::multi_rack(2, 2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let workers = cluster.all_workers().into_iter();
    let _workers: Vec<_> = workers.map(|w| dep.worker_shim(app, w)).collect();
    // Box 0 is the root, in the master's rack.
    dep.boxes()[0].shutdown();
    let Err(AggError::Net(e)) = master.broadcast(3, Bytes::from_static(b"lost")) else {
        panic!("a copy to the root box cannot be sent");
    };
    let unsent: u64 = e.split(' ').next().unwrap().parse().unwrap();
    assert!(unsent >= 1, "{e}");
    let counted = dep.snapshot().counter(names::SHIM_MASTER_SEND_ERRORS);
    assert_eq!(counted, Some(unsent), "{e}");
    dep.shutdown();
}

/// A request whose local aggregation fails — here a partial that does not
/// decode — is dropped at the box, not leaked: its state goes (and a
/// replay cannot re-open it), the failure is counted, and the master's
/// `wait` times out instead of anything arriving.
#[test]
fn a_failed_aggregation_drops_the_request_at_the_box() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(2, 1);
    let mut dep = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = dep.register_app("sum", sum_agg(), 1.0);
    let master = dep.master_shim(app);
    let (w0, w1) = (dep.worker_shim(app, 0), dep.worker_shim(app, 1));

    let p = master.register_request(1, 2);
    w0.send_partial(1, Bytes::from("1")).unwrap();
    w1.send_partial(1, Bytes::from("not an integer")).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let failed = || dep.snapshot().counter(names::AGGBOX_REQUESTS_FAILED);
    while failed() != Some(1) {
        assert!(
            std::time::Instant::now() < deadline,
            "aggregation never failed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(dep.boxes()[0].snapshot().active_requests, 0);
    // A replay of the request finds it closed: nothing re-opens.
    w0.resend_request(1);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(dep.boxes()[0].snapshot().active_requests, 0);
    assert!(matches!(
        p.wait(Duration::from_millis(300)),
        Err(AggError::Timeout)
    ));
    dep.shutdown();
}
