//! Causal per-request tracing (DESIGN.md §11).
//!
//! A [`TraceRecorder`] collects [`SpanRecord`]s — named, timed intervals
//! with explicit parent links — from every layer a request touches: the
//! master shim, the agg-box runtime, scheduler task execution and the
//! worker shims. Causality crosses process-internal component boundaries
//! via a [`TraceCtx`] carried in the wire format (see
//! `netagg_core::protocol`): the sender writes its hop-span id into
//! `parent_span_id`, and the receiver's spans attach beneath it, so the
//! exported spans of one request always form a single connected tree
//! rooted at the master's request span.
//!
//! Recording is off by default and costs one relaxed atomic load per
//! would-be span. When enabled, spans are sampled by a hash of the
//! request id ([`TraceRecorder::sampled`]) so soak runs stay bounded, and
//! the buffer itself is capped — overflow increments a drop counter
//! instead of growing without bound.
//!
//! Export formats: Chrome trace-event JSON ([`chrome_trace_json`],
//! loadable in `chrome://tracing` / Perfetto) and a per-request
//! critical-path summary ([`critical_paths`]).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default bound on retained spans per recorder.
const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Span ids are counter-assigned with this bit clear; trace ids (which
/// double as root-span ids) have it set, so the two can never collide.
const TRACE_ID_BIT: u64 = 1 << 63;

/// Nanoseconds since the process-wide monotonic anchor.
///
/// Every timestamp in the tracing subsystem — span starts, durations, the
/// `sent_ns` stamp on wire frames — shares this anchor, so intervals
/// recorded by different components of one process line up on a common
/// axis.
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The causal context a wire frame carries (DESIGN.md §11).
///
/// `trace_id` identifies the request's trace (0 = tracing off for this
/// frame); `parent_span_id` is the sender's hop-span id, which the
/// receiver uses as the parent of the spans it records for this frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Trace the frame belongs to; 0 when tracing is off.
    pub trace_id: u64,
    /// Span id of the sender's hop span (0 = attach to the trace root).
    pub parent_span_id: u64,
}

impl TraceCtx {
    /// The inactive context: all zeros, encoded on every untraced frame.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span_id: 0,
    };

    /// Whether this context carries a live trace.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }
}

/// Deterministic trace id for `(app, request)` — a splitmix64 finalisation
/// with the high bit forced, so it is nonzero and disjoint from
/// counter-assigned span ids.
///
/// Determinism matters: workers send *before* any downward message could
/// hand them a context, so every component derives the same trace id
/// independently, and the root span id is the trace id by convention.
pub fn trace_id(app: u16, request: u64) -> u64 {
    crate::splitmix64(request.wrapping_add((app as u64) << 32)) | TRACE_ID_BIT
}

/// One recorded span: a named interval with explicit causal parentage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id of this span within its recorder.
    pub span_id: u64,
    /// Id of the parent span (0 = this is the trace root).
    pub parent_span_id: u64,
    /// Trace (request) the span belongs to.
    pub trace_id: u64,
    /// Raw request id, for human-facing summaries.
    pub request: u64,
    /// Contract name from [`crate::names::spans`].
    pub name: &'static str,
    /// Component label (rendered as the Chrome trace thread).
    pub component: String,
    /// Start, nanoseconds on the [`now_ns`] axis.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End of the span on the [`now_ns`] axis.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// A lock-light bounded span recorder.
///
/// Shared by every component of a deployment through the
/// [`crate::MetricsRegistry`] (all registry clones see one recorder).
/// Disabled recorders cost a single relaxed load per call.
///
/// ```
/// use netagg_obs::MetricsRegistry;
/// use netagg_obs::names::spans;
/// use netagg_obs::trace;
///
/// let obs = MetricsRegistry::new();
/// let t = obs.tracer();
/// t.enable(1); // sample every request
/// let tid = trace::trace_id(0, 7);
/// if t.sampled(7) {
///     let start = trace::now_ns();
///     let span = t.next_span_id();
///     t.record_span(spans::WORKER_SEND, "worker-0-0", tid, span, tid, 7, start, trace::now_ns());
/// }
/// assert_eq!(t.spans().len(), 1);
/// ```
#[derive(Debug)]
pub struct TraceRecorder {
    enabled: AtomicBool,
    /// Sampling modulus: a request is traced when
    /// `trace_id(0, request) % modulus == 0`. 1 = every request.
    sample_modulus: AtomicU64,
    next_span: AtomicU64,
    dropped: AtomicU64,
    capacity: usize,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl TraceRecorder {
    /// A disabled recorder retaining at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            sample_modulus: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            capacity: capacity.max(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turn recording on, sampling one request in `sample_modulus` (1 =
    /// trace every request).
    pub fn enable(&self, sample_modulus: u64) {
        self.sample_modulus
            .store(sample_modulus.max(1), Ordering::Relaxed);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn recording off (already-recorded spans are retained).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on. The hot-path guard: one relaxed load.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Whether `request` falls in the sample. Deterministic in the request
    /// id, so every component of a deployment makes the same choice.
    pub fn sampled(&self, request: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let m = self.sample_modulus.load(Ordering::Relaxed);
        m <= 1 || trace_id(0, request).is_multiple_of(m)
    }

    /// Allocate a fresh span id (never collides with a trace id).
    pub fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed) & !TRACE_ID_BIT
    }

    /// Record one finished span. `end_ns < start_ns` clamps to zero
    /// duration. Silently counts the span as dropped when the buffer is
    /// full.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        name: &'static str,
        component: &str,
        trace_id: u64,
        span_id: u64,
        parent_span_id: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let rec = SpanRecord {
            span_id,
            parent_span_id,
            trace_id,
            request,
            name,
            component: component.to_string(),
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        };
        let mut spans = self.spans.lock();
        if spans.len() >= self.capacity {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(rec);
    }

    /// Copy of every retained span, in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Maximum retained spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

// ---------------------------------------------------------------------------
// Export: Chrome trace-event JSON
// ---------------------------------------------------------------------------

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render spans as Chrome trace-event JSON (the "JSON array format"):
/// one complete (`"ph": "X"`) event per span plus `thread_name` metadata
/// mapping each component label onto a stable tid. Timestamps are
/// microseconds with nanosecond precision; load the output in
/// `chrome://tracing` or Perfetto.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    // Stable tid per component label, in first-seen order.
    let mut components: Vec<String> = Vec::new();
    for s in spans {
        if !components.contains(&s.component) {
            components.push(s.component.clone());
        }
    }
    let tid_of = |c: &str| components.iter().position(|x| x == c).map_or(0, |i| i + 1);
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("[\n");
    let mut first = true;
    let push_event = |out: &mut String, first: &mut bool, body: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(body);
    };
    for (i, c) in components.iter().enumerate() {
        let mut name = String::new();
        json_escape(&mut name, c);
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \
                 \"tid\": {}, \"args\": {{\"name\": \"{name}\"}}}}",
                i + 1
            ),
        );
    }
    for s in spans {
        let tid = tid_of(&s.component);
        let ts = s.start_ns as f64 / 1_000.0;
        let dur = s.dur_ns as f64 / 1_000.0;
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\": \"{}\", \"cat\": \"netagg\", \"ph\": \"X\", \
                 \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"trace\": \"{:#x}\", \"span\": \"{:#x}\", \
                 \"parent\": \"{:#x}\", \"request\": {}}}}}",
                s.name, s.trace_id, s.span_id, s.parent_span_id, s.request
            ),
        );
    }
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// Export: per-request critical path
// ---------------------------------------------------------------------------

/// One hop of a request's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalHop {
    /// Span name of the hop.
    pub name: &'static str,
    /// Component that recorded the hop.
    pub component: String,
    /// Duration of the hop in nanoseconds.
    pub dur_ns: u64,
}

/// The critical path of one traced request: the root-to-leaf chain whose
/// completion determined the request's end time, with per-stage
/// attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Request the path belongs to.
    pub request: u64,
    /// Trace id of the request.
    pub trace_id: u64,
    /// Total spanned time (root start → latest end) in nanoseconds.
    pub total_ns: u64,
    /// Hops from the root down to the latest-finishing leaf.
    pub hops: Vec<CriticalHop>,
}

impl CriticalPath {
    /// Render the path as a one-request plain-text summary.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "request {} ({:#x}): {:.3} ms critical path\n",
            self.request,
            self.trace_id,
            self.total_ns as f64 / 1e6
        );
        for h in &self.hops {
            out.push_str(&format!(
                "  {:<24} {:>10.3} ms  [{}]\n",
                h.name,
                h.dur_ns as f64 / 1e6,
                h.component
            ));
        }
        out
    }
}

/// Compute the per-request critical paths of a span set: for each trace,
/// walk from the root span towards the child subtree with the latest end
/// time — the chain that gated completion. Requests whose root span is
/// missing (sampled out mid-flight, dropped on overflow) are skipped.
pub fn critical_paths(spans: &[SpanRecord]) -> Vec<CriticalPath> {
    use std::collections::BTreeMap;
    let mut by_trace: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut out = Vec::new();
    for (tid, spans) in by_trace {
        let Some(root) = spans.iter().find(|s| s.span_id == tid) else {
            continue;
        };
        // Latest end over the whole trace: the request's effective finish.
        let finish = spans.iter().map(|s| s.end_ns()).max().unwrap_or(0);
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for &s in &spans {
            if s.span_id != tid {
                children.entry(s.parent_span_id).or_default().push(s);
            }
        }
        let mut hops = vec![CriticalHop {
            name: root.name,
            component: root.component.clone(),
            dur_ns: root.dur_ns,
        }];
        let mut cur = root.span_id;
        let mut guard = 0usize;
        while let Some(kids) = children.get(&cur) {
            guard += 1;
            if guard > spans.len() {
                break; // defensive: malformed parent links
            }
            let Some(next) = kids.iter().max_by_key(|s| s.end_ns()) else {
                break;
            };
            hops.push(CriticalHop {
                name: next.name,
                component: next.component.clone(),
                dur_ns: next.dur_ns,
            });
            cur = next.span_id;
        }
        out.push(CriticalPath {
            request: root.request,
            trace_id: tid,
            total_ns: finish.saturating_sub(root.start_ns),
            hops,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::spans;

    fn rec() -> TraceRecorder {
        let t = TraceRecorder::with_capacity(16);
        t.enable(1);
        t
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = TraceRecorder::default();
        assert!(!t.enabled());
        assert!(!t.sampled(1));
        t.record_span(spans::WORKER_SEND, "w", 1, 2, 3, 4, 0, 10);
        assert!(t.is_empty());
    }

    #[test]
    fn trace_ids_are_nonzero_and_disjoint_from_span_ids() {
        let t = rec();
        for r in 0..1000u64 {
            let tid = trace_id(3, r);
            assert!(tid & TRACE_ID_BIT != 0);
            assert_ne!(tid, 0);
        }
        for _ in 0..1000 {
            assert_eq!(t.next_span_id() & TRACE_ID_BIT, 0);
        }
    }

    #[test]
    fn capacity_bound_counts_drops() {
        let t = rec();
        for i in 0..40u64 {
            t.record_span(spans::BOX_COMBINE, "b", 1, i + 1, 1, 7, 0, 5);
        }
        assert_eq!(t.len(), 16);
        assert_eq!(t.dropped(), 24);
    }

    #[test]
    fn sampling_is_deterministic_and_sparse() {
        let t = TraceRecorder::default();
        t.enable(16);
        let hits: Vec<u64> = (0..10_000).filter(|&r| t.sampled(r)).collect();
        // Deterministic: same set on a second pass.
        let again: Vec<u64> = (0..10_000).filter(|&r| t.sampled(r)).collect();
        assert_eq!(hits, again);
        // Roughly 1/16 of requests, with generous slack.
        assert!(
            hits.len() > 300 && hits.len() < 1000,
            "1/16 sampling hit {} of 10000",
            hits.len()
        );
    }

    #[test]
    fn chrome_export_is_wellformed_and_names_threads() {
        let t = rec();
        let tid = trace_id(0, 9);
        t.record_span(spans::MASTER_REQUEST, "master-0", tid, tid, 0, 9, 100, 900);
        t.record_span(spans::WORKER_SEND, "worker-0-1", tid, 1, tid, 9, 150, 300);
        let json = chrome_trace_json(&t.spans());
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"master-0\""));
        assert!(json.contains(spans::MASTER_REQUEST));
        assert!(json.contains("\"ph\": \"X\""));
        // Two metadata events + two spans = four objects.
        assert_eq!(json.matches("\"ph\"").count(), 4);
    }

    #[test]
    fn critical_path_follows_latest_child() {
        let t = rec();
        let tid = trace_id(0, 5);
        // root 0..1000; fast child 10..100; slow child 10..950 with a
        // grandchild 800..950.
        t.record_span(spans::MASTER_REQUEST, "m", tid, tid, 0, 5, 0, 1000);
        t.record_span(spans::BOX_RECV, "b", tid, 1, tid, 5, 10, 100);
        t.record_span(spans::BOX_REQUEST, "b", tid, 2, tid, 5, 10, 950);
        t.record_span(spans::BOX_COMBINE, "b-sched", tid, 3, 2, 5, 800, 950);
        let paths = critical_paths(&t.spans());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.total_ns, 1000);
        let names: Vec<&str> = p.hops.iter().map(|h| h.name).collect();
        assert_eq!(
            names,
            vec![
                spans::MASTER_REQUEST,
                spans::BOX_REQUEST,
                spans::BOX_COMBINE
            ]
        );
        assert!(p.to_text().contains("request 5"));
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
