//! End-to-end observability: the crate-level quick example, re-run here
//! against [`NetAggDeployment::snapshot`] to pin the metrics contract of
//! DESIGN.md ("Observability") — scheduler latencies, shim fan-in and
//! emulated empties, and transport traffic all show up with nonzero
//! values after one aggregated request.

use bytes::Bytes;
use netagg_net::{ChannelTransport, Transport};
use netagg_repro::netagg_core::prelude::*;
use netagg_repro::netagg_core::runtime::NetAggDeployment;
use std::sync::Arc;
use std::time::Duration;

struct Max;
impl AggregationFunction for Max {
    type Item = i64;
    fn deserialize(&self, b: &Bytes) -> Result<i64, AggError> {
        std::str::from_utf8(b)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| AggError::Corrupt("not an integer".into()))
    }
    fn serialize(&self, item: &i64) -> Bytes {
        Bytes::from(item.to_string())
    }
    fn aggregate(&self, items: Vec<i64>) -> i64 {
        items.into_iter().max().unwrap_or(i64::MIN)
    }
    fn empty(&self) -> i64 {
        i64::MIN
    }
}

/// One max-aggregation request through a single-rack deployment leaves a
/// consistent trail across every metered layer.
#[test]
fn quick_example_flow_publishes_metrics() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let cluster = ClusterSpec::single_rack(4, 1);
    let mut deployment = NetAggDeployment::launch(transport, &cluster).unwrap();
    let app = deployment.register_app("max", Arc::new(AggWrapper::new(Max)), 1.0);

    let master = deployment.master_shim(app);
    let workers: Vec<_> = (0..4).map(|w| deployment.worker_shim(app, w)).collect();

    let pending = master.register_request(7, 4);
    for (i, w) in workers.iter().enumerate() {
        w.send_partial(7, Bytes::from((10 * (i + 1)).to_string()))
            .unwrap();
    }
    let result = pending.wait(Duration::from_secs(5)).unwrap();
    assert_eq!(result.combined.as_ref(), b"40");
    assert_eq!(result.emulated_empty, 3);

    // Metric publication is asynchronous with respect to request
    // completion (the scheduler stamps task_exec_us after the task's own
    // sends have already reached the master), so poll briefly for the
    // trailing updates before asserting on the settled snapshot.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let snap = loop {
        let s = deployment.snapshot();
        let settled = s.histogram("aggbox.task_exec_us").map(|h| h.count) > Some(0)
            && s.counter("net.frames_sent").unwrap_or(0) >= 5;
        if settled || std::time::Instant::now() > deadline {
            break s;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    // Box scheduler: aggregation tasks ran and their latency was recorded.
    let exec = snap
        .histogram("aggbox.task_exec_us")
        .expect("aggbox.task_exec_us recorded");
    assert!(exec.count > 0, "no task executions recorded");
    assert!(snap.counter("aggbox.tasks_executed").unwrap_or(0) > 0);
    assert_eq!(snap.counter("aggbox.tasks_executed"), Some(exec.count));

    // Box fan-in: four partials arrived, one request completed, the
    // end-to-end aggregation latency was measured.
    assert_eq!(snap.counter("aggbox.messages_in"), Some(4));
    assert!(snap.counter("aggbox.bytes_in").unwrap_or(0) >= 8);
    assert_eq!(snap.counter("aggbox.requests_completed"), Some(1));
    assert_eq!(
        snap.histogram("aggbox.request_agg_us").map(|h| h.count),
        Some(1)
    );

    // Master shim: one request registered and completed, the final
    // aggregate arrived as one message, and all but one worker result was
    // emulated as empty.
    assert_eq!(snap.counter("shim.master.requests_registered"), Some(1));
    assert_eq!(snap.counter("shim.master.requests_completed"), Some(1));
    assert_eq!(snap.counter("shim.master.messages_in"), Some(1));
    assert_eq!(snap.counter("shim.master.emulated_empties"), Some(3));
    assert_eq!(
        snap.histogram("shim.master.request_wait_us")
            .map(|h| h.count),
        Some(1)
    );

    // Worker shims: each of the four workers sent one redirected chunk.
    assert_eq!(snap.counter("shim.worker.chunks_sent"), Some(4));
    assert!(snap.counter("shim.worker.bytes_sent").unwrap_or(0) >= 8);

    // Transport: the metered deployment transport carried the traffic —
    // four worker partials plus the box's final aggregate to the master.
    assert!(snap.counter("net.frames_sent").unwrap_or(0) >= 5);
    assert!(snap.counter("net.bytes_sent").unwrap_or(0) > 0);
    assert!(snap.counter("net.frames_recv").unwrap_or(0) >= 5);

    // The WFQ weight gauge exists for the registered app.
    assert!(snap.gauge("aggbox.wfq_weight.app0").is_some());

    // Everything the flow published is a §7 contract name (§10): a name
    // spelled outside `netagg_obs::names` would show up here.
    let unlisted = netagg_scenarios::contract::name_violations(&snap);
    assert!(unlisted.is_empty(), "{unlisted:?}");

    // The snapshot serialises; JSON carries the same counter values.
    let json = snap.to_json();
    assert!(json.contains("\"aggbox.tasks_executed\""));
    assert!(json.contains("\"shim.master.emulated_empties\": 3"));

    deployment.shutdown();
}
