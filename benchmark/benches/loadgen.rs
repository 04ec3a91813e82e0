//! The load generator: a closed loop (fixed window of in-flight requests)
//! and an open loop (fixed arrival rate, latency from the due time), both
//! through the public shim API and both timed with the benchmark's clock.
//!
//! Rates, windows and durations are arguments fixed by the workload
//! table, never derived from the run, so two commits see the same load.

use crate::stats::{process_cpu_ns, Latencies};
use bytes::Bytes;
use netagg_core::prelude::*;
use netagg_core::shim::PendingRequest;
use netagg_net::lifecycle::{CancelToken, JoinScope, Mailbox, OverflowPolicy};
use netagg_obs::trace::{self, TraceRecorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Span names the benchmark records around its own calls (traced run).
pub mod span {
    pub const SETUP_BUILD: &str = "bench.setup.build";
    pub const REQUEST: &str = "bench.request";
    pub const REGISTER: &str = "bench.register";
    pub const SEND_PARTIAL: &str = "bench.send_partial";
    pub const WAIT: &str = "bench.wait";
}

/// Component label of every benchmark-recorded span.
pub const COMPONENT: &str = "bench-loadgen";

/// Seeded inputs of one workload and the reference they are checked
/// against. The program only ever sees what `partial` returns.
pub trait Payloads: Send + Sync {
    /// The partial result worker `worker` contributes to `request`.
    fn partial(&self, request: u64, worker: usize) -> Bytes;
    /// Whether `combined` equals the reference fold for `request`.
    fn verify(&self, request: u64, combined: &Bytes) -> bool;
}

/// Everything the generator needs to drive one application.
pub struct Target {
    pub app: AppId,
    pub master: Arc<MasterShim>,
    pub workers: Vec<Arc<WorkerShim>>,
    pub payloads: Arc<dyn Payloads>,
    pub timeout: Duration,
    /// Benchmark-owned recorder; spans are recorded only while it is
    /// enabled and only for requests in its sample.
    pub spans: Arc<TraceRecorder>,
}

/// A request in flight, with the generator's own timestamps
/// (`trace::now_ns` axis, shared with the program's spans).
pub struct Issued {
    request: u64,
    pending: PendingRequest,
    start_ns: u64,
    sent_ns: u64,
}

impl Target {
    fn span(&self, name: &'static str, request: u64, root: bool, start: u64, end: u64) {
        let tid = trace::trace_id(self.app.0, request);
        // The benchmark's tree hangs under its own root (a fresh id), not
        // under the program's root span, whose id is the trace id.
        let root_id = tid ^ 1;
        let (id, parent) = if root {
            (root_id, 0)
        } else {
            (self.spans.next_span_id(), root_id)
        };
        self.spans
            .record_span(name, COMPONENT, tid, id, parent, request, start, end);
    }

    /// Register `request` and send every worker's partial.
    pub fn issue(&self, request: u64) -> Issued {
        let traced = self.spans.sampled(request);
        let start_ns = trace::now_ns();
        let pending = self.master.register_request(request, self.workers.len());
        let mut at = trace::now_ns();
        if traced {
            self.span(span::REGISTER, request, false, start_ns, at);
        }
        for (w, shim) in self.workers.iter().enumerate() {
            let payload = self.payloads.partial(request, w);
            let before = at;
            // A send into a just-killed box may fail (churn-mix); the
            // detector re-points and the shim replays. What is checked
            // is the result: a lost partial times out or mismatches.
            let _ = shim.send_partial(request, payload);
            at = trace::now_ns();
            if traced {
                self.span(span::SEND_PARTIAL, request, false, before, at);
            }
        }
        Issued {
            request,
            pending,
            start_ns,
            sent_ns: at,
        }
    }

    /// Wait for `issued` and check it against the reference. Returns the
    /// completion time, or `None` when it failed (error, timeout or
    /// mismatch).
    pub fn settle(&self, issued: Issued) -> Option<u64> {
        let result = issued.pending.wait(self.timeout);
        let done_ns = trace::now_ns();
        // What a well-behaved application does on completion (minimr
        // does): lets the worker shims drop the request's replay state.
        for shim in &self.workers {
            shim.complete_request(issued.request);
        }
        if self.spans.sampled(issued.request) {
            self.span(span::WAIT, issued.request, false, issued.sent_ns, done_ns);
            self.span(
                span::REQUEST,
                issued.request,
                true,
                issued.start_ns,
                done_ns,
            );
        }
        match result {
            Ok(r) if self.payloads.verify(issued.request, &r.combined) => Some(done_ns),
            _ => None,
        }
    }
}

/// Requests attempted and failed by one phase.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// What one closed-loop phase measured, per block: a fixed number of
/// requests pushed through the window, from an empty window to an empty
/// window. Nothing is carried from one block into the next, so a block's
/// time is the time of exactly its own requests (on `bulk-tcp` the work
/// in flight at a cut through a running window is worth up to a fifth of
/// a block), and its rate and CPU time are continuous readings, not a
/// count of completions in a time slice that steps by one.
#[derive(Default)]
pub struct ClosedResult {
    pub tally: Tally,
    /// Completions per second of each block.
    pub block_rates: Vec<f64>,
    /// Process CPU microseconds per completion of each block.
    pub block_cpu_us: Vec<f64>,
    /// register → verified result, of one completion in
    /// [`LATENCY_EVERY`] (a diagnostic; keeping them all would make the
    /// benchmark's own samples the largest thing in `peak_rss_mb`).
    pub latency: Latencies,
}

impl ClosedResult {
    pub fn extend(&mut self, other: ClosedResult) {
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        self.block_rates.extend(other.block_rates);
        self.block_cpu_us.extend(other.block_cpu_us);
        self.latency.extend(other.latency);
    }
}

/// Closed-loop completions per latency sample kept.
const LATENCY_EVERY: u64 = 32;

/// Keep `window` requests in flight, in blocks of `block` requests, until
/// `duration` has passed (the block then running is finished). Request
/// ids are taken from `next_request` onwards; `each_block` runs on the
/// generator thread between blocks (the traced run samples queue-depth
/// gauges there).
pub fn closed_loop(
    t: &Target,
    next_request: &mut u64,
    window: usize,
    block: u64,
    duration: Duration,
    each_block: &mut dyn FnMut(),
) -> ClosedResult {
    let mut out = ClosedResult::default();
    let mut inflight: VecDeque<Issued> = VecDeque::with_capacity(window);
    let end = trace::now_ns() + duration.as_nanos() as u64;
    while trace::now_ns() < end {
        let (began, cpu_began) = (trace::now_ns(), process_cpu_ns());
        let (mut issued, mut done, mut failed) = (0, began, 0);
        loop {
            while inflight.len() < window && issued < block {
                inflight.push_back(t.issue(*next_request));
                *next_request += 1;
                issued += 1;
            }
            let Some(front) = inflight.pop_front() else {
                break;
            };
            let started = front.start_ns;
            out.tally.attempted += 1;
            match t.settle(front) {
                Some(at) => {
                    done = at;
                    if out.tally.attempted % LATENCY_EVERY == 0 {
                        out.latency.push_ns(at - started);
                    }
                }
                None => failed += 1,
            }
        }
        out.tally.failed += failed;
        // A block with a failure in it (a 30 s time-out, say) is counted
        // as failed work, not as a rate.
        if failed == 0 {
            let cpu_us = (process_cpu_ns() - cpu_began) as f64 / 1e3;
            out.block_rates
                .push(block as f64 * 1e9 / (done - began) as f64);
            out.block_cpu_us.push(cpu_us / block as f64);
        }
        each_block();
    }
    out
}

/// Issue `n` requests back to back through a window of `window`, all
/// verified: the count-based warm-up.
pub fn warm_up(t: &Target, next_request: &mut u64, window: usize, n: u64) -> Tally {
    let mut tally = Tally::default();
    let mut inflight: VecDeque<Issued> = VecDeque::with_capacity(window);
    for _ in 0..n {
        inflight.push_back(t.issue(*next_request));
        *next_request += 1;
        if inflight.len() >= window {
            tally.attempted += 1;
            tally.failed += t.settle(inflight.pop_front().expect("non-empty")).is_none() as u64;
        }
    }
    for issued in inflight {
        tally.attempted += 1;
        tally.failed += t.settle(issued).is_none() as u64;
    }
    tally
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct OpenResult {
    pub tally: Tally,
    /// Due time → verified result, every request.
    pub latency: Latencies,
    /// Median latency in microseconds of each run of `per_slice`
    /// consecutive requests of the schedule.
    pub slice_p50_us: Vec<f64>,
    /// Due time → the generator actually starting the request.
    pub lateness: Latencies,
    /// Issued but not yet completed when the last request was issued.
    pub backlog_end: u64,
}

impl OpenResult {
    /// Room for `requests` samples, so that appending phases never grows
    /// (and for a moment doubles) the two sample vectors.
    pub fn with_capacity(requests: usize) -> Self {
        Self {
            latency: Latencies::with_capacity(requests),
            lateness: Latencies::with_capacity(requests),
            ..Self::default()
        }
    }

    /// Append another phase; the backlog kept is the larger one.
    pub fn extend(&mut self, other: OpenResult) {
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        self.latency.extend(other.latency);
        self.slice_p50_us.extend(other.slice_p50_us);
        self.lateness.extend(other.lateness);
        self.backlog_end = self.backlog_end.max(other.backlog_end);
    }
}

/// Yield until `due_ns`. The issuer never sleeps: a sleeping issuer lets
/// the CPU halt between requests, and what is then timed is how long the
/// hypervisor takes to wake it. Yielding only uses time nothing else
/// wanted — every other runnable thread goes first.
fn wait_until(due_ns: u64) {
    while trace::now_ns() < due_ns {
        std::thread::yield_now();
    }
}

/// Offer `rate` requests per second for `duration`: request `i` is due at
/// `start + i / rate` whether or not earlier ones have completed. One
/// issuer thread, the caller collects; a median is taken over every
/// `per_slice` consecutive requests. At most `outstanding` requests are
/// issued and not yet collected: after a stall of the host the issuer
/// catches up on its schedule that many at a time, not all at once (an
/// unbounded catch-up burst is what `peak_rss_mb` then measured).
pub fn open_loop(
    t: &Arc<Target>,
    next_request: &mut u64,
    rate: f64,
    duration: Duration,
    per_slice: u64,
    outstanding: usize,
) -> OpenResult {
    let n = ((rate * duration.as_secs_f64()) as u64 / per_slice).max(1) * per_slice;
    let period_ns = 1e9 / rate;
    let first = *next_request;
    *next_request += n;
    let handoff: Mailbox<(Issued, u64, u64)> = Mailbox::new(
        "bench.open.handoff",
        outstanding,
        OverflowPolicy::Block,
        CancelToken::new(),
    );
    let completed = Arc::new(AtomicU64::new(0));
    let backlog_end = Arc::new(AtomicU64::new(0));
    let scope = JoinScope::new("bench-open", CancelToken::new(), Duration::from_secs(120));
    {
        let (t, handoff) = (t.clone(), handoff.clone());
        let (completed, backlog_end) = (completed.clone(), backlog_end.clone());
        scope
            .spawn("bench-open-issuer", move || {
                let start = trace::now_ns() + 1_000_000;
                for i in 0..n {
                    let due = start + (i as f64 * period_ns) as u64;
                    wait_until(due);
                    let began = trace::now_ns();
                    let issued = t.issue(first + i);
                    if handoff.send((issued, due, began)).is_err() {
                        return;
                    }
                }
                backlog_end.store(n - completed.load(Ordering::Relaxed), Ordering::Relaxed);
                handoff.close();
            })
            .expect("spawn open-loop issuer");
    }
    let mut out = OpenResult::with_capacity(n as usize);
    let mut in_slice = Latencies::with_capacity(per_slice as usize);
    while let Ok((issued, due, began)) = handoff.recv() {
        out.tally.attempted += 1;
        out.lateness.push_ns(began.saturating_sub(due));
        match t.settle(issued) {
            Some(done) => {
                out.latency.push_ns(done.saturating_sub(due));
                in_slice.push_ns(done.saturating_sub(due));
            }
            None => out.tally.failed += 1,
        }
        if out.tally.attempted.is_multiple_of(per_slice) {
            out.slice_p50_us.push(in_slice.us(0.5));
            in_slice = Latencies::with_capacity(per_slice as usize);
        }
        completed.fetch_add(1, Ordering::Relaxed);
    }
    scope.finish();
    out.backlog_end = backlog_end.load(Ordering::Relaxed);
    out
}
