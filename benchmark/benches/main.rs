//! The repo benchmark: one run of one workload.
//!
//! `netagg-benchmark --workload W --seed N --seconds S --trace 0|1` runs
//! workload `W` on inputs generated from seed `N`, measuring for about
//! `S` seconds, checks every output against a reference, prints every
//! metric by name with its unit and ends with one JSON object. With
//! `--trace 0` the metrics are the end-to-end set, measured with tracing
//! off; with `--trace 1` they are the per-layer ledger: the micro-drivers,
//! the in-workload counters and the traced phase. `benchmark/run.sh`
//! builds this binary and is the entry point; `benchmark/README.md`
//! defines every name printed here.
//!
//! Every layer is measured from outside: the benchmark times its own
//! calls into public functions and reads counters the program already
//! exports. Traffic crosses host loopback inside this one process
//! (`TcpTransport`'s in-process short-circuit engages), so no workload
//! measures a real kernel socket path.

mod alloc;
mod churn;
mod inputs;
mod layers;
mod loadgen;
mod sim;
mod snapshot;
mod stats;
mod steady;
mod tracing;

use std::collections::BTreeMap;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The six workloads, in the order `run.sh` runs them.
pub const WORKLOADS: &[&str] = &[
    "small-tcp",
    "small-channel",
    "bulk-tcp",
    "churn-mix",
    "sim-sparse",
    "sim-dense",
];

/// End-to-end metrics (`--trace 0`): name and unit. BENCHMARK.json holds
/// the same list with directions and bounds; `--selftest` compares them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("cpu_us_per_request", "us"),
    ("wire_bytes_per_request", "B"),
    ("peak_rss_mb", "MiB"),
    ("events_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A row a workload does
/// not exercise (a `sim.*` count on `small-tcp`) reads 0: that layer did
/// no work in that run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // netagg-net, micro-drivers
    ("net.framing.encode_ns", "ns"),
    ("net.framing.decode_ns", "ns"),
    ("net.framing.decode_mb_per_s", "MB/s"),
    ("net.framing.allocs_per_frame", "count"),
    ("net.mailbox.send_recv_ns", "ns"),
    ("net.mailbox.hop_us", "us"),
    ("net.channel.rtt_us", "us"),
    ("net.tcp.rtt_us", "us"),
    ("net.channel.stream_mb_per_s", "MB/s"),
    ("net.tcp.stream_mb_per_s", "MB/s"),
    ("net.channel.allocs_per_frame", "count"),
    ("net.tcp.allocs_per_frame", "count"),
    ("net.metered.added_ns", "ns"),
    ("net.fault.added_ns", "ns"),
    // netagg-net, in-workload
    ("net.frames_per_request", "count"),
    ("net.tcp.frames_per_batch", "count"),
    ("net.tcp.reactor_wakeups_per_request", "count"),
    ("net.mailbox.depth_max", "count"),
    ("net.mailbox.dropped", "count"),
    // netagg-core, micro-drivers
    ("core.protocol.encode_ns", "ns"),
    ("core.protocol.decode_ns", "ns"),
    ("core.protocol.allocs_per_msg", "count"),
    ("core.ledger.chunk_ns", "ns"),
    ("core.ledger.repoint_ns", "ns"),
    ("core.scheduler.dispatch_us", "us"),
    ("core.scheduler.tasks_per_s", "1/s"),
    ("core.scheduler.wfq_tasks_per_s", "1/s"),
    ("core.tree.small_us", "us"),
    ("core.tree.bulk_mb_per_s", "MB/s"),
    // netagg-core, the generator's own calls
    ("core.master.register_us", "us"),
    ("core.worker.send_us", "us"),
    ("core.master.wait_us", "us"),
    // netagg-core, end-of-phase snapshot
    ("core.box.tasks_per_request", "count"),
    ("core.box.task_exec_us_p50", "us"),
    ("core.box.request_agg_us_p50", "us"),
    ("core.box.queue_depth_max", "count"),
    ("core.box.duplicates_dropped", "count"),
    ("core.worker.chunks_resent", "count"),
    ("core.failure.detections", "count"),
    ("core.failure.repoints", "count"),
    ("core.straggler.redirects", "count"),
    ("core.master.wait_hist_p50_us", "us"),
    // netagg-obs
    ("obs.counter.add_ns", "ns"),
    ("obs.histogram.record_ns", "ns"),
    ("obs.trace.disabled_check_ns", "ns"),
    ("obs.trace.record_span_ns", "ns"),
    ("obs.snapshot_us", "us"),
    ("obs.trace.overhead_share", "ratio"),
    ("obs.trace.spans_per_request", "count"),
    ("obs.trace.dropped", "count"),
    // netagg-scenarios
    ("scenarios.build_s", "s"),
    ("scenarios.finish_s", "s"),
    ("scenarios.violations", "count"),
    // minimr / minisearch
    ("minimr.seqfile.encode_mb_per_s", "MB/s"),
    ("minimr.seqfile.decode_mb_per_s", "MB/s"),
    ("minimr.combine.pairs_per_s", "1/s"),
    ("minisearch.topk.merge_ns", "ns"),
    ("minimr.job_ms", "ms"),
    ("minisearch.query_us", "us"),
    // netagg-sim
    ("sim.topology_build_s", "s"),
    ("sim.workload_generate_s", "s"),
    ("sim.expand_s", "s"),
    ("sim.engine_new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.resolves", "count"),
    ("sim.avg_scope", "count"),
    ("sim.max_scope", "count"),
    ("sim.expansions", "count"),
    ("sim.fallbacks", "count"),
    ("sim.stale_discards", "count"),
    ("sim.spurious_wakeups", "count"),
    ("sim.queue.push_pop_ns", "ns"),
    ("sim.reference_events_per_s", "1/s"),
    ("sim.fct_p99_ms", "ms"),
    // the benchmark watching itself, and the host
    ("loadgen.open.late_p99_us", "us"),
    ("loadgen.open.late_max_us", "us"),
    ("loadgen.open.backlog_end", "count"),
    ("loadgen.open.p99_us", "us"),
    ("loadgen.closed.p50_us", "us"),
    ("loadgen.closed.p99_us", "us"),
    ("loadgen.slice_cv", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.invol_ctx_per_s", "1/s"),
    ("alloc.per_request", "count"),
    ("alloc.bytes_per_request", "B"),
    // the program's own tracer, traced phase
    ("trace.worker_send_us", "us"),
    ("trace.wire_transfer_us", "us"),
    ("trace.box_recv_us", "us"),
    ("trace.box_queue_wait_us", "us"),
    ("trace.box_combine_us", "us"),
    ("trace.box_forward_us", "us"),
    ("trace.master_recv_us", "us"),
    ("trace.coverage_share", "ratio"),
];

/// Metric values by name. A name outside the two tables is a bug in the
/// benchmark and panics at once.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the tables"
        );
        self.0
            .insert(name.into(), if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Command line of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--selftest` only: run the workload on this provider instead of
    /// its own (`channel` or `tcp`).
    pub provider: Option<String>,
    /// `--selftest` only: microseconds the benchmark-owned transport
    /// decorator adds to every `send`.
    pub send_delay_us: u64,
    /// Which CPU the process's threads are on.
    pub placement: stats::Placement,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Diagnostics printed above the metrics: not gated, not in the JSON.
    notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: netagg-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      netagg-benchmark --list    (metric and workload names, for run.sh --selftest)",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        provider: None,
        send_delay_us: 0,
        placement: stats::Placement::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            list();
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            "--provider" => args.provider = Some(value),
            "--send-delay-us" => args.send_delay_us = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || !(1.0..=60.0).contains(&args.seconds) {
        usage();
    }
    args
}

/// Print the tables this binary reports, one `kind name unit` per line.
fn list() -> ! {
    for w in WORKLOADS {
        println!("workload {w} -");
    }
    for (name, unit) in END_TO_END {
        println!("end_to_end {name} {unit}");
    }
    for (name, unit) in PER_LAYER {
        println!("per_layer {name} {unit}");
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    let mut out = Outcome::default();
    println!(
        "# {} seed {} seconds {} trace {} — in-process loopback only: no workload here \
         crosses a real kernel socket path; {}, {} hardware thread(s) available",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.placement.describe(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if let Some(spec) = sim::spec(&args.workload) {
        sim::run(&spec, &args, &mut out);
    } else if args.workload == "churn-mix" {
        churn::run(&args, &mut out);
    } else {
        steady::run(&args, &mut out);
    }
    let table = if args.trace {
        layers::run(
            &mut out.metrics,
            std::time::Duration::from_secs_f64(args.seconds * 0.4),
        );
        PER_LAYER
    } else {
        out.metrics.set("peak_rss_mb", stats::peak_rss_mb());
        END_TO_END
    };

    for note in &out.notes {
        println!("# {note}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "failed_share {} ratio ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = out.metrics.get(name);
        println!("{name} {value} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
