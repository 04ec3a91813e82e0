//! Rows read from the program's own `MetricsSnapshot`: counters and
//! histograms it already exports, and the gauges sampled while it ran.

use crate::Metrics;
use netagg_obs::{names, MetricsSnapshot};

pub fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Highest `mailbox.depth.*` and `aggbox.queue_depth` readings seen.
#[derive(Default)]
pub struct DepthMax {
    pub mailbox: f64,
    pub box_queue: f64,
}

impl DepthMax {
    pub fn sample(&mut self, snap: &MetricsSnapshot) {
        for (name, value) in &snap.gauges {
            if name.starts_with("mailbox.depth.") {
                self.mailbox = self.mailbox.max(*value);
            }
        }
        self.box_queue = self
            .box_queue
            .max(snap.gauge(names::AGGBOX_QUEUE_DEPTH).unwrap_or(0.0));
    }
}

/// The in-workload rows every runtime workload fills from its end-of-run
/// snapshot; `requests` is what per-request rows are divided by.
pub fn set_rows(m: &mut Metrics, end: &MetricsSnapshot, requests: f64, depths: &DepthMax) {
    let hist_p50 = |name: &str| end.histogram(name).map_or(0.0, |h| h.p50 as f64);
    m.set("net.mailbox.depth_max", depths.mailbox);
    m.set(
        "net.mailbox.dropped",
        ["block", "drop_oldest", "reject"]
            .iter()
            .map(|p| counter(end, &names::mailbox_dropped_policy(p)))
            .sum(),
    );
    m.set(
        "core.box.tasks_per_request",
        counter(end, names::AGGBOX_TASKS_EXECUTED) / requests,
    );
    m.set(
        "core.box.task_exec_us_p50",
        hist_p50(names::AGGBOX_TASK_EXEC_US),
    );
    m.set(
        "core.box.request_agg_us_p50",
        hist_p50(names::AGGBOX_REQUEST_AGG_US),
    );
    m.set("core.box.queue_depth_max", depths.box_queue);
    m.set(
        "core.box.duplicates_dropped",
        counter(end, names::AGGBOX_DUPLICATES_DROPPED),
    );
    m.set(
        "core.worker.chunks_resent",
        counter(end, names::SHIM_WORKER_CHUNKS_RESENT),
    );
    m.set(
        "core.failure.detections",
        counter(end, names::FAILURE_DETECTIONS),
    );
    m.set(
        "core.failure.repoints",
        counter(end, names::FAILURE_REPOINTS),
    );
    m.set(
        "core.straggler.redirects",
        counter(end, names::STRAGGLER_REDIRECTS),
    );
    // The program's own histogram (±12.5 % buckets): a cross-check on the
    // benchmark's clock, never a gate.
    m.set(
        "core.master.wait_hist_p50_us",
        hist_p50(names::SHIM_MASTER_REQUEST_WAIT_US),
    );
}
