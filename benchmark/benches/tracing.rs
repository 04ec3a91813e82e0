//! Reading the traced phase: where a request's time goes, stage by
//! stage, from the spans the program's own tracer recorded.
//!
//! The program's spans are hops in sequence, not nested calls: a worker's
//! send causes a wire transfer, which causes a box receive; the box's
//! last receive lets a combine queue, run and be forwarded; and so on up
//! to the master. The chain that gated a request is found by walking
//! causes backwards from the last thing that happened, and each hop is
//! credited with the part of its interval no later hop on the chain
//! already covers — its self time.

use crate::stats::median;
use netagg_obs::names::spans;
use netagg_obs::trace::{critical_paths, SpanRecord};
use std::collections::HashMap;

/// Stage rows of the ledger and the program span each one reads.
pub const STAGES: &[(&str, &str)] = &[
    ("trace.worker_send_us", spans::WORKER_SEND),
    ("trace.wire_transfer_us", spans::WIRE_TRANSFER),
    ("trace.box_recv_us", spans::BOX_RECV),
    ("trace.box_queue_wait_us", spans::BOX_QUEUE_WAIT),
    ("trace.box_combine_us", spans::BOX_COMBINE),
    ("trace.box_forward_us", spans::BOX_FORWARD),
    ("trace.master_recv_us", spans::MASTER_RECV),
];

/// Spans that wrap a whole request at one node; they are not hops.
fn is_envelope(s: &SpanRecord) -> bool {
    s.name == spans::MASTER_REQUEST || s.name == spans::BOX_REQUEST
}

/// The node a span was recorded at: its component label without the
/// scheduler suffix (`aggbox-2-sched` and `aggbox-2` are one box).
fn node(s: &SpanRecord) -> &str {
    s.component.strip_suffix("-sched").unwrap_or(&s.component)
}

/// The hop that caused `s`: its parent when that is a hop (the sender's
/// span, carried in the frame), otherwise the last hop to finish at the
/// same node before `s` began.
fn cause<'a>(s: &SpanRecord, trace: &[&'a SpanRecord]) -> Option<&'a SpanRecord> {
    if let Some(parent) = trace.iter().find(|p| p.span_id == s.parent_span_id) {
        if !is_envelope(parent) {
            return Some(parent);
        }
    }
    trace
        .iter()
        .copied()
        .filter(|p| {
            !is_envelope(p)
                && p.span_id != s.span_id
                && node(p) == node(s)
                && p.end_ns() <= s.start_ns
        })
        .max_by_key(|p| p.end_ns())
}

/// What the traced phase says about where a request's time goes.
pub struct StageReport {
    /// p50 over the traced requests of the self time, in microseconds,
    /// each [`STAGES`] row has on the gating chain (a stage met twice on
    /// one chain, such as the wire, counts the sum).
    pub stage_us: Vec<f64>,
    /// p50 of root start → latest end over the traced requests, µs.
    pub e2e_p50_us: f64,
    /// Requests whose root span was retained.
    pub requests: usize,
}

pub fn stage_report(program_spans: &[SpanRecord]) -> StageReport {
    let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in program_spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    for trace in by_trace.values() {
        let Some(mut hop) = trace
            .iter()
            .copied()
            .filter(|s| !is_envelope(s))
            .max_by_key(|s| s.end_ns())
        else {
            continue;
        };
        let mut per_stage = vec![0u64; STAGES.len()];
        // Everything from `frontier` on is already credited to a later hop.
        let mut frontier = hop.end_ns();
        // Bounded by the span count: malformed links cannot loop.
        for _ in 0..trace.len() {
            if let Some(row) = STAGES.iter().position(|(_, name)| *name == hop.name) {
                per_stage[row] += hop.end_ns().min(frontier).saturating_sub(hop.start_ns);
            }
            frontier = frontier.min(hop.start_ns);
            match cause(hop, trace) {
                Some(earlier) => hop = earlier,
                None => break,
            }
        }
        for (row, ns) in per_stage.iter().enumerate() {
            samples[row].push(*ns as f64 / 1e3);
        }
    }
    let paths = critical_paths(program_spans);
    let mut totals: Vec<f64> = paths.iter().map(|p| p.total_ns as f64 / 1e3).collect();
    StageReport {
        stage_us: samples.iter_mut().map(|v| median(v)).collect(),
        e2e_p50_us: median(&mut totals),
        requests: paths.len(),
    }
}
