//! Map/reduce testbed figures (Fig. 22–24): the emulated counterpart of
//! the paper's Hadoop evaluation. The paper's setup: 10 mappers, one
//! reducer, one aggregation tree, shuffle+reduce time measured.

use crate::Options;
use minimr::cluster::{JobConfig, MRCluster};
use minimr::jobs::{wordcount_input, Benchmark, WordCount};
use netagg_bench::emu::{mr_deployment, TestbedConfig};
use netagg_bench::table::{f, rate, Table};
use netagg_core::shim::TreeSelection;
use std::sync::Arc;
use std::time::Duration;

fn testbed_cfg(boxes: u32, opts: &Options) -> TestbedConfig {
    TestbedConfig {
        workers_per_rack: match opts.scale {
            netagg_bench::sim::SimScale::Quick => 4,
            _ => 10,
        },
        boxes_per_rack: boxes,
        ..TestbedConfig::default()
    }
}

struct MrRun {
    shuffle_reduce: Duration,
    box_rate: f64,
    result: minimr::JobResult,
}

fn run_job_on(
    boxes: u32,
    job: Arc<dyn minimr::Job>,
    inputs: Vec<Vec<bytes::Bytes>>,
    opts: &Options,
) -> MrRun {
    let cfg = testbed_cfg(boxes, opts);
    let (mut dep, _transport) = mr_deployment(&cfg);
    let cluster = MRCluster::launch(&mut dep, job, TreeSelection::PerRequest, 1.0);
    let before: u64 = dep.boxes().iter().map(|b| b.stats().bytes_in.get()).sum();
    let result = cluster
        .run(
            inputs,
            &JobConfig {
                request_id: 1,
                timeout: Duration::from_secs(300),
                ..JobConfig::default()
            },
        )
        .expect("job runs");
    let after: u64 = dep.boxes().iter().map(|b| b.stats().bytes_in.get()).sum();
    let box_rate =
        (after - before) as f64 / result.shuffle_reduce_time.as_secs_f64().max(1e-9) / cfg.bw_scale;
    let out = MrRun {
        shuffle_reduce: result.shuffle_reduce_time,
        box_rate,
        result,
    };
    dep.shutdown();
    out
}

fn total_bytes(opts: &Options) -> usize {
    match opts.scale {
        netagg_bench::sim::SimScale::Quick => 300_000,
        _ => 2_000_000,
    }
}

fn mappers(opts: &Options) -> usize {
    testbed_cfg(0, opts).workers_per_rack as usize
}

/// Fig. 22: the five benchmarks — shuffle+reduce time of NetAgg relative
/// to plain, plus the agg-box processing rate.
pub fn fig22(opts: &Options) {
    let mut t = Table::new(
        "Fig 22: Hadoop benchmarks, shuffle+reduce time and box rate",
        &[
            "job",
            "plain SRT (s)",
            "netagg SRT (s)",
            "netagg/plain",
            "box rate",
        ],
    );
    for bench in Benchmark::ALL {
        let inputs = bench.input(mappers(opts), total_bytes(opts), 42);
        let plain = run_job_on(0, bench.job(), inputs.clone(), opts);
        let netagg = run_job_on(1, bench.job(), inputs, opts);
        assert!(
            minimr::types::outputs_equivalent(&plain.result.output, &netagg.result.output),
            "{}: outputs must agree (up to float rounding)",
            bench.label()
        );
        t.row(vec![
            bench.label().to_string(),
            f(plain.shuffle_reduce.as_secs_f64()),
            f(netagg.shuffle_reduce.as_secs_f64()),
            f(netagg.shuffle_reduce.as_secs_f64() / plain.shuffle_reduce.as_secs_f64()),
            rate(netagg.box_rate),
        ]);
    }
    t.print();
}

/// Fig. 23: WordCount shuffle+reduce time vs output ratio, controlled by
/// the input's word repetition.
pub fn fig23(opts: &Options) {
    let mut t = Table::new(
        "Fig 23: WordCount SRT vs output ratio (word repetition)",
        &[
            "distinct words",
            "achieved alpha",
            "plain SRT (s)",
            "netagg SRT (s)",
            "netagg/plain",
        ],
    );
    let m = mappers(opts);
    let bytes = total_bytes(opts);
    for distinct in [50usize, 500, 5_000, 50_000] {
        let inputs = wordcount_input(m, bytes / m, distinct, 42);
        let plain = run_job_on(0, Arc::new(WordCount), inputs.clone(), opts);
        let netagg = run_job_on(1, Arc::new(WordCount), inputs, opts);
        t.row(vec![
            distinct.to_string(),
            f(netagg.result.reduction_ratio()),
            f(plain.shuffle_reduce.as_secs_f64()),
            f(netagg.shuffle_reduce.as_secs_f64()),
            f(netagg.shuffle_reduce.as_secs_f64() / plain.shuffle_reduce.as_secs_f64()),
        ]);
    }
    t.print();
}

/// Fig. 24: absolute shuffle+reduce time vs intermediate data size
/// (alpha fixed around 10 %).
pub fn fig24(opts: &Options) {
    let mut t = Table::new(
        "Fig 24: WordCount SRT vs intermediate data size (alpha ~ 10%)",
        &["input (MB)", "plain SRT (s)", "netagg SRT (s)", "speedup"],
    );
    let m = mappers(opts);
    let sizes: Vec<usize> = match opts.scale {
        netagg_bench::sim::SimScale::Quick => vec![200_000, 400_000],
        _ => vec![500_000, 1_000_000, 2_000_000, 4_000_000],
    };
    for bytes in sizes {
        let inputs = wordcount_input(m, bytes / m, 2_000, 42);
        let plain = run_job_on(0, Arc::new(WordCount), inputs.clone(), opts);
        let netagg = run_job_on(1, Arc::new(WordCount), inputs, opts);
        t.row(vec![
            f(bytes as f64 / 1e6),
            f(plain.shuffle_reduce.as_secs_f64()),
            f(netagg.shuffle_reduce.as_secs_f64()),
            f(plain.shuffle_reduce.as_secs_f64() / netagg.shuffle_reduce.as_secs_f64()),
        ]);
    }
    t.print();
}
