//! End-to-end map/reduce tests: full jobs over the in-process transport,
//! with and without agg boxes, must produce identical outputs; combining
//! on-path must shrink the reducer's input.

use bytes::Bytes;
use minimr::cluster::{JobConfig, MRCluster};
use minimr::jobs::Benchmark;
use minimr::types::parse_u64;
use netagg_core::prelude::*;
use netagg_core::runtime::{DeploymentConfig, NetAggDeployment};
use netagg_core::shim::TreeSelection;
use netagg_net::{ChannelTransport, Transport};
use std::sync::Arc;
use std::time::Duration;

fn deployment(mappers: u32, boxes: u32) -> NetAggDeployment {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    NetAggDeployment::launch(transport, &ClusterSpec::single_rack(mappers, boxes)).unwrap()
}

fn run(bench: Benchmark, boxes: u32, total_bytes: usize) -> minimr::JobResult {
    let mut dep = deployment(4, boxes);
    let cluster = MRCluster::launch(&mut dep, bench.job(), TreeSelection::PerRequest, 1.0);
    let inputs = bench.input(4, total_bytes, 42);
    let result = cluster
        .run(
            inputs,
            &JobConfig {
                request_id: 1,
                timeout: Duration::from_secs(60),
                ..JobConfig::default()
            },
        )
        .unwrap();
    dep.shutdown();
    result
}

#[test]
fn wordcount_plain_and_netagg_agree() {
    let plain = run(Benchmark::WC, 0, 200_000);
    let netagg = run(Benchmark::WC, 1, 200_000);
    assert_eq!(plain.output, netagg.output);
    assert!(!plain.output.is_empty());
    // Every count is at least 1 and totals match the word count.
    let total: u64 = plain
        .output
        .iter()
        .map(|p| parse_u64(&p.value).unwrap())
        .sum();
    assert!(total > 0);
}

#[test]
fn wordcount_counts_are_exact() {
    // Hand-built input with known counts, no generator involved.
    let mut dep = deployment(4, 1);
    let cluster = MRCluster::launch(
        &mut dep,
        Benchmark::WC.job(),
        TreeSelection::PerRequest,
        1.0,
    );
    let inputs = vec![
        vec![Bytes::from_static(b"a b a")],
        vec![Bytes::from_static(b"b c")],
        vec![Bytes::from_static(b"a")],
        vec![],
    ];
    let result = cluster.run(inputs, &JobConfig::default()).unwrap();
    let count = |k: &[u8]| {
        result
            .output
            .iter()
            .find(|p| p.key.as_ref() == k)
            .map(|p| parse_u64(&p.value).unwrap())
    };
    assert_eq!(count(b"a"), Some(3));
    assert_eq!(count(b"b"), Some(2));
    assert_eq!(count(b"c"), Some(1));
    dep.shutdown();
}

#[test]
fn all_benchmarks_run_both_modes() {
    for bench in Benchmark::ALL {
        let plain = run(bench, 0, 60_000);
        let netagg = run(bench, 1, 60_000);
        assert!(
            minimr::types::outputs_equivalent(&plain.output, &netagg.output),
            "{} outputs differ between plain and netagg",
            bench.label()
        );
        assert!(
            !plain.output.is_empty(),
            "{} produced no output",
            bench.label()
        );
    }
}

#[test]
fn netagg_reduces_reducer_input_for_aggregatable_jobs() {
    let netagg = run(Benchmark::WC, 1, 400_000);
    // The boxes combine on-path, so the reducer receives (far) less than
    // the mappers emitted.
    assert!(
        netagg.reducer_input_bytes < netagg.intermediate_bytes / 2,
        "reducer got {} of {} intermediate bytes",
        netagg.reducer_input_bytes,
        netagg.intermediate_bytes
    );
}

#[test]
fn terasort_cannot_be_reduced() {
    let netagg = run(Benchmark::TS, 1, 100_000);
    // Identity combine: within rounding, everything reaches the reducer.
    assert!(
        netagg.reducer_input_bytes as f64 >= 0.95 * netagg.intermediate_bytes as f64,
        "TS should not reduce: {} vs {}",
        netagg.reducer_input_bytes,
        netagg.intermediate_bytes
    );
}

#[test]
fn keyed_trees_partition_the_shuffle() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let spec = ClusterSpec::single_rack(4, 2).with_trees(2);
    let mut dep = NetAggDeployment::launch_with(
        transport,
        &spec,
        DeploymentConfig {
            selection: TreeSelection::Keyed,
            ..DeploymentConfig::default()
        },
    )
    .unwrap();
    let cluster = MRCluster::launch(&mut dep, Benchmark::WC.job(), TreeSelection::Keyed, 1.0);
    let inputs = Benchmark::WC.input(4, 100_000, 7);
    let keyed = cluster.run(inputs, &JobConfig::default()).unwrap();
    // Compare against the single-tree run: identical output.
    let single = run(Benchmark::WC, 1, 100_000);
    // Different seeds would differ; use same seed/input shape.
    let single_inputs = Benchmark::WC.input(4, 100_000, 7);
    let mut dep2 = deployment(4, 1);
    let cluster2 = MRCluster::launch(
        &mut dep2,
        Benchmark::WC.job(),
        TreeSelection::PerRequest,
        1.0,
    );
    let single = {
        let _ = single;
        cluster2.run(single_inputs, &JobConfig::default()).unwrap()
    };
    assert_eq!(keyed.output, single.output);
    // Both scale-out boxes served chunks.
    for b in dep.boxes() {
        assert!(
            b.stats()
                .messages_in
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
    }
    dep.shutdown();
    dep2.shutdown();
}

#[test]
fn repeated_jobs_reuse_the_cluster() {
    let mut dep = deployment(4, 1);
    let cluster = MRCluster::launch(
        &mut dep,
        Benchmark::UV.job(),
        TreeSelection::PerRequest,
        1.0,
    );
    let mut last: Option<Vec<minimr::Pair>> = None;
    for req in 1..=3u64 {
        let inputs = Benchmark::UV.input(4, 50_000, 11);
        let r = cluster
            .run(
                inputs,
                &JobConfig {
                    request_id: req,
                    ..JobConfig::default()
                },
            )
            .unwrap();
        if let Some(prev) = &last {
            // UV sums f64 revenue: chunk arrival order at the box varies
            // between runs, so compare up to float rounding.
            assert!(
                minimr::types::outputs_equivalent(prev.as_slice(), &r.output),
                "same input must give the same output"
            );
        }
        last = Some(r.output);
    }
    dep.shutdown();
}

#[test]
fn speculative_duplicates_are_suppressed() {
    let mut dep = deployment(4, 1);
    let cluster = MRCluster::launch(
        &mut dep,
        Benchmark::WC.job(),
        TreeSelection::PerRequest,
        1.0,
    );
    let inputs = Benchmark::WC.input(4, 80_000, 13);

    let baseline = cluster.run(inputs.clone(), &JobConfig::default()).unwrap();
    let speculated = cluster
        .run(
            inputs,
            &JobConfig {
                request_id: 2,
                speculate_every: 2, // mappers 0 and 2 run backups
                ..JobConfig::default()
            },
        )
        .unwrap();
    assert_eq!(
        baseline.output, speculated.output,
        "duplicate backup output must not change counts"
    );
    // The box drops a backup's chunks when its receive loop reaches them,
    // which can be after the result has reached the reducer: poll, bounded.
    let dropped = || {
        dep.boxes()[0]
            .stats()
            .duplicates_dropped
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while dropped() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(dropped() > 0, "the box should have suppressed duplicates");
    dep.shutdown();
}

#[test]
fn multi_reducer_matches_single_reducer() {
    let mut dep = deployment(4, 2);
    let cluster = MRCluster::launch(
        &mut dep,
        Benchmark::WC.job(),
        TreeSelection::PerRequest,
        1.0,
    );
    let inputs = Benchmark::WC.input(4, 120_000, 17);
    let single = cluster.run(inputs.clone(), &JobConfig::default()).unwrap();
    let multi = cluster
        .run_partitioned(
            inputs,
            4,
            &JobConfig {
                request_id: 9,
                ..JobConfig::default()
            },
        )
        .unwrap();
    assert_eq!(single.output, multi.output);
    // Partitions must not overlap: total pair count is conserved.
    assert_eq!(
        single.output.len(),
        multi
            .output
            .iter()
            .map(|p| &p.key)
            .collect::<std::collections::HashSet<_>>()
            .len()
    );
    dep.shutdown();
}
