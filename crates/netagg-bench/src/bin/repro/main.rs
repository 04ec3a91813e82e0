//! `repro` — regenerate every table and figure of the NetAgg paper.
//!
//! Usage:
//! ```text
//! repro <target> [--quick|--paper] [--seeds N] [--metrics] [--trace OUT.json]
//! targets: fig2 fig3 tab1 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//!          fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23
//!          fig24 fig25 fig26
//!          ablate-trees ablate-placement ablate-arrivals
//!          ablate-backpressure ablate-fanin ext-broadcast
//!          quick (trace-friendly smoke drive)
//!          soak (§7-contract scenario soak → BENCH_soak.json; --quick
//!                runs the CI-sized section only → target/soak-quick.json)
//!          sim (fig2..fig14)   testbed (fig15..fig26)   all
//! ```
//!
//! `--trace OUT.json` enables the §11 causal tracer for the run and writes
//! Chrome trace-event JSON (plus per-request critical paths on stdout)
//! after the target completes.
//!
//! Absolute numbers differ from the paper (our substrate is an emulator on
//! one machine); the *shape* of each exhibit — who wins, by what factor,
//! where the crossovers fall — is the reproduction target. See
//! EXPERIMENTS.md for the paper-vs-measured record. Performance numbers
//! are not produced here: `bash benchmark/run.sh` is their only source.

mod micro_figs;
mod mr_figs;
mod perf_figs;
mod search_figs;
mod sim_figs;
mod soak;

use netagg_bench::sim::SimScale;

#[derive(Debug, Clone)]
pub struct Options {
    pub scale: SimScale,
    pub seeds: Option<u64>,
    /// Seconds per load point in testbed drives.
    pub drive_secs: f64,
    /// Dump the process-global metrics snapshot as JSON after the run.
    pub metrics: bool,
    /// Enable the §11 causal tracer and write Chrome trace JSON here.
    pub trace: Option<String>,
}

impl Options {
    pub fn seeds(&self) -> u64 {
        self.seeds.unwrap_or_else(|| self.scale.seeds())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut opts = Options {
        scale: SimScale::Default,
        seeds: None,
        drive_secs: 2.0,
        metrics: false,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                opts.scale = SimScale::Quick;
                opts.drive_secs = 0.8;
            }
            "--paper" => opts.scale = SimScale::Paper,
            "--metrics" => opts.metrics = true,
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.seeds = Some(n),
                None => usage("--seeds needs a number"),
            },
            "--drive-secs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.drive_secs = s,
                None => usage("--drive-secs needs a number"),
            },
            "--trace" => match it.next() {
                Some(p) => opts.trace = Some(p.clone()),
                None => usage("--trace needs an output path"),
            },
            t if !t.starts_with('-') && target.is_none() => target = Some(t.to_string()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let Some(target) = target else {
        usage("missing target");
    };

    if opts.trace.is_some() {
        // Trace every request: a figure run is short enough that the
        // bounded span buffer is the backstop, not sampling.
        netagg_bench::obs::global().tracer().enable(1);
    }

    let sim_targets: &[&str] = &[
        "fig2",
        "fig3",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "ablate-trees",
        "ablate-placement",
        "ablate-arrivals",
    ];
    let testbed_targets: &[&str] = &[
        "tab1",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "fig21",
        "fig22",
        "fig23",
        "fig24",
        "fig25",
        "fig26",
        "ablate-backpressure",
        "ablate-fanin",
        "ext-broadcast",
    ];

    let run_one = |t: &str| match t {
        "fig2" => sim_figs::fig2(&opts),
        "fig3" => sim_figs::fig3(&opts),
        "fig6" => sim_figs::fig6(&opts),
        "fig7" => sim_figs::fig7(&opts),
        "fig8" => sim_figs::fig8(&opts),
        "fig9" => sim_figs::fig9(&opts),
        "fig10" => sim_figs::fig10(&opts),
        "fig11" => sim_figs::fig11(&opts),
        "fig12" => sim_figs::fig12(&opts),
        "fig13" => sim_figs::fig13(&opts),
        "fig14" => sim_figs::fig14(&opts),
        "ablate-trees" => sim_figs::ablate_trees(&opts),
        "ablate-placement" => sim_figs::ablate_placement(&opts),
        "ablate-arrivals" => sim_figs::ablate_arrivals(&opts),
        "ablate-backpressure" => micro_figs::ablate_backpressure(&opts),
        "ablate-fanin" => micro_figs::ablate_fanin(&opts),
        "ext-broadcast" => micro_figs::ext_broadcast(&opts),
        "tab1" => micro_figs::tab1(),
        "fig15" => micro_figs::fig15(&opts),
        "fig16" => search_figs::fig16(&opts),
        "fig17" => search_figs::fig17(&opts),
        "fig18" => search_figs::fig18(&opts),
        "fig19" => search_figs::fig19(&opts),
        "fig20" => search_figs::fig20(&opts),
        "fig21" => search_figs::fig21(&opts),
        "fig22" => mr_figs::fig22(&opts),
        "fig23" => mr_figs::fig23(&opts),
        "fig24" => mr_figs::fig24(&opts),
        "fig25" => micro_figs::fig25(&opts),
        "fig26" => micro_figs::fig26(&opts),
        "quick" => perf_figs::quick(&opts),
        "soak" => soak::soak(&opts),
        other => usage(&format!("unknown target {other}")),
    };

    match target.as_str() {
        "sim" => {
            for t in sim_targets {
                run_one(t);
            }
        }
        "testbed" => {
            for t in testbed_targets {
                run_one(t);
            }
        }
        "all" => {
            for t in sim_targets.iter().chain(testbed_targets) {
                run_one(t);
            }
        }
        t => run_one(t),
    }

    if opts.metrics {
        // Everything the figures built — emulated deployments, shims,
        // transports, simulation sweeps — publishes into this registry.
        println!("\n{}", netagg_bench::obs::global().snapshot().to_json());
    }

    if let Some(path) = &opts.trace {
        let tracer = netagg_bench::obs::global().tracer();
        perf_figs::write_trace(path, &tracer.spans());
        if tracer.dropped() > 0 {
            eprintln!(
                "note: {} spans dropped at the {}-span buffer cap",
                tracer.dropped(),
                tracer.capacity()
            );
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro <fig2..fig26|tab1|ablate-*|quick|soak|sim|testbed|all> [--quick|--paper] [--seeds N] [--drive-secs S] [--metrics] [--trace OUT.json]"
    );
    std::process::exit(2);
}
