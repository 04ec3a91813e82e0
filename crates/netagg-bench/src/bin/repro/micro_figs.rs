//! Micro-benchmarks and platform figures: local aggregation tree
//! throughput (Fig. 15), scheduler fairness (Figs. 25/26), Table 1's code
//! inventory, and the back-pressure ablation.

use crate::Options;
use bytes::Bytes;
use minimr::jobs::WordCount;
use minimr::netagg::CombinerAgg;
use minimr::seqfile;
use minimr::types::{u64_value, Pair};
use netagg_bench::table::{f, rate, Table};
use netagg_core::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use netagg_core::aggbox::tree::LocalAggTree;
use netagg_core::protocol::AppId;
use netagg_core::{AggWrapper, DynAggregator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A WordCount-style batch of serialised pairs whose combine reduces to
/// roughly `alpha` of the input (distinct keys = alpha x pairs).
fn wc_batch(pairs: usize, alpha: f64, seed: u64) -> Bytes {
    let distinct = ((pairs as f64 * alpha) as usize).max(1);
    let items: Vec<Pair> = (0..pairs)
        .map(|i| {
            let k = (seed as usize + i) % distinct;
            Pair::new(format!("word{k:06}"), u64_value(1))
        })
        .collect();
    seqfile::encode(&items)
}

fn wc_agg() -> Arc<dyn DynAggregator> {
    Arc::new(AggWrapper::new(CombinerAgg::new(Arc::new(WordCount))))
}

/// Measure the in-memory local-tree aggregation rate: `leaves` feeder
/// threads push batches into a binary tree executed by `threads` scheduler
/// threads.
fn tree_rate(
    leaves: usize,
    threads: usize,
    batches_per_leaf: usize,
    batch_bytes_hint: usize,
) -> f64 {
    tree_rate_fanin(leaves, threads, batches_per_leaf, batch_bytes_hint, 2).0
}

/// Like [`tree_rate`] with an explicit tree fan-in; also returns the number
/// of combine tasks executed (higher fan-in = fewer, larger combines).
fn tree_rate_fanin(
    leaves: usize,
    threads: usize,
    batches_per_leaf: usize,
    batch_bytes_hint: usize,
    fanin: usize,
) -> (f64, u64) {
    let sched = Arc::new(TaskScheduler::new(SchedulerConfig {
        threads,
        adaptive: true,
        ema_alpha: 0.2,
        seed: 1,
    }));
    sched.register_app(AppId(1), 1.0);
    let agg = wc_agg();
    let tree = LocalAggTree::new(agg, fanin);
    // Pre-serialise the batches outside the measured window.
    let batch = wc_batch(batch_bytes_hint / 16, 0.10, 7);
    let total_bytes = (batch.len() * leaves * batches_per_leaf) as f64;
    let t0 = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "scoped leaf feeders borrow the tree and are joined by construction inside the timed window"
    )]
    std::thread::scope(|s| {
        for _ in 0..leaves {
            let tree = tree.clone();
            let sched = sched.clone();
            let batch = batch.clone();
            s.spawn(move || {
                for _ in 0..batches_per_leaf {
                    tree.push(&sched, AppId(1), batch.clone());
                }
            });
        }
    });
    tree.end_input(&sched, AppId(1));
    tree.wait_complete(Duration::from_secs(120))
        .expect("tree completes");
    let tasks = sched
        .cpu_times()
        .iter()
        .find(|c| c.app == AppId(1))
        .map(|c| c.tasks_run)
        .unwrap_or(0);
    (total_bytes / t0.elapsed().as_secs_f64(), tasks)
}

/// Ablation: local-tree fan-in. Small fan-in pipelines aggressively (many
/// small combines start as soon as two inputs exist) but pays per-task
/// overhead; large fan-in batches more per combine but delays work. The
/// platform default of 8 sits on the flat part of this curve.
pub fn ablate_fanin(opts: &Options) {
    let quick = matches!(opts.scale, netagg_bench::sim::SimScale::Quick);
    let batches = if quick { 24 } else { 64 };
    let leaves = if quick { 8 } else { 16 };
    let mut t = Table::new(
        "Ablation: local aggregation tree fan-in (WordCount, alpha=10%)",
        &["fan-in", "throughput", "combine tasks"],
    );
    for fanin in [2usize, 4, 8, 16, 32] {
        let (thr, tasks) = tree_rate_fanin(leaves, 4, batches, 64 * 1024, fanin);
        t.row(vec![fanin.to_string(), rate(thr), tasks.to_string()]);
    }
    t.print();
}

/// Fig. 15: local aggregation tree processing rate vs leaves and thread
/// pool size (WordCount items, alpha = 10 %).
pub fn fig15(opts: &Options) {
    print_core_note();
    let quick = matches!(opts.scale, netagg_bench::sim::SimScale::Quick);
    let threads_sweep: Vec<usize> = if quick {
        vec![2, 8]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let leaves_sweep: Vec<usize> = if quick {
        vec![4, 16, 64]
    } else {
        vec![2, 4, 8, 16, 32, 64, 128]
    };
    let mut header: Vec<String> = vec!["leaves".to_string()];
    header.extend(threads_sweep.iter().map(|t| format!("{t} thr")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig 15: local aggregation tree rate (WordCount, alpha=10%)",
        &header_refs,
    );
    let batches = if quick { 24 } else { 64 };
    for leaves in leaves_sweep {
        let mut cells = vec![leaves.to_string()];
        for &threads in &threads_sweep {
            cells.push(rate(tree_rate(leaves, threads, batches, 64 * 1024)));
        }
        t.row(cells);
    }
    t.print();
}

/// Scale-up and parallelism figures depend on physical cores; on a
/// single-core host every thread count collapses to the same rate.
pub(crate) fn print_core_note() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores <= 2 {
        println!(
            "
note: host has {cores} core(s); thread-scaling results are flat by construction"
        );
    }
}

/// Drive two applications with different task costs on one scheduler and
/// print the CPU-share time series (Figs. 25 and 26).
fn fairness(adaptive: bool, opts: &Options) {
    let quick = matches!(opts.scale, netagg_bench::sim::SimScale::Quick);
    let window = if quick { 1.2f64 } else { 4.0 };
    let sched = TaskScheduler::new(SchedulerConfig {
        threads: 2,
        adaptive,
        ema_alpha: 0.2,
        seed: 3,
    });
    // "Solr" tasks take ~3 ms, "Hadoop" tasks ~1 ms (Section 4.2.3), both
    // with equal 50 % target shares.
    let solr = AppId(1);
    let hadoop = AppId(2);
    sched.register_app(solr, 1.0);
    sched.register_app(hadoop, 1.0);
    let n = (window * 3000.0) as usize;
    for _ in 0..n {
        sched.submit(
            solr,
            Box::new(|| std::thread::sleep(Duration::from_millis(3))),
        );
        sched.submit(
            hadoop,
            Box::new(|| std::thread::sleep(Duration::from_millis(1))),
        );
    }
    let mut t = Table::new(
        &format!(
            "Fig {}: CPU shares over time, {} weights (target 50/50)",
            if adaptive { 26 } else { 25 },
            if adaptive { "adaptive" } else { "fixed" }
        ),
        &["t (ms)", "solr share", "hadoop share"],
    );
    let t0 = Instant::now();
    let mut prev = (0.0, 0.0);
    let step = Duration::from_secs_f64(window / 8.0);
    for _ in 0..8 {
        std::thread::sleep(step);
        let cpu = sched.cpu_times();
        let s = cpu.iter().find(|c| c.app == solr).unwrap().cpu_seconds;
        let h = cpu.iter().find(|c| c.app == hadoop).unwrap().cpu_seconds;
        let (ds, dh) = (s - prev.0, h - prev.1);
        prev = (s, h);
        let total = (ds + dh).max(1e-9);
        t.row(vec![
            format!("{:.0}", t0.elapsed().as_secs_f64() * 1e3),
            f(ds / total),
            f(dh / total),
        ]);
    }
    sched.shutdown();
    t.print();
}

/// Fig. 25: fixed-weight WFQ starves the short-task application.
pub fn fig25(opts: &Options) {
    fairness(false, opts);
}

/// Fig. 26: adaptive WFQ equalises the achieved CPU shares.
pub fn fig26(opts: &Options) {
    fairness(true, opts);
}

/// Table 1: lines of application-specific NetAgg code, counted from the
/// actual adapter sources (serialiser, aggregation wrapper, shim glue).
pub fn tab1() {
    let count = |src: &str| {
        src.lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("//")
            })
            .count()
    };
    let search_serde = count(include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../minisearch/src/score.rs"
    )));
    let search_wrapper = count(include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../minisearch/src/aggfn.rs"
    )));
    let search_shim = count(include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../minisearch/src/netagg.rs"
    )));
    let mr_serde = count(include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../minimr/src/seqfile.rs"
    )));
    let mr_wrapper = count(include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../minimr/src/netagg.rs"
    )));
    let mr_shim = count(include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../minimr/src/cluster.rs"
    )));
    let mut t = Table::new(
        "Table 1: lines of application-specific NetAgg code (incl. tests)",
        &["component", "minisearch", "minimr"],
    );
    t.row(vec![
        "serialisation".into(),
        search_serde.to_string(),
        mr_serde.to_string(),
    ]);
    t.row(vec![
        "aggregation wrapper".into(),
        search_wrapper.to_string(),
        mr_wrapper.to_string(),
    ]);
    t.row(vec![
        "shim / driver glue".into(),
        search_shim.to_string(),
        mr_shim.to_string(),
    ]);
    t.row(vec![
        "total".into(),
        (search_serde + search_wrapper + search_shim).to_string(),
        (mr_serde + mr_wrapper + mr_shim).to_string(),
    ]);
    t.print();
}

/// Extension experiment (paper Section 5): one-to-many distribution down
/// the aggregation tree vs direct unicast from the master. The master's
/// 1 Gbps egress serialises N copies under unicast; with on-path
/// replication it sends one copy per root box and the 10 Gbps boxes fan
/// out. (The emulator charges the receiver's ingress on the sender's
/// thread, so the box's single egress thread under-states the tree's
/// speedup; the master-egress copy count shows the real saving.)
pub fn ext_broadcast(opts: &Options) {
    use netagg_bench::emu::{build_emu, TestbedConfig};
    use netagg_core::prelude::*;
    use netagg_core::runtime::NetAggDeployment;
    use netagg_net::Transport;

    struct Opaque;
    impl netagg_core::AggregationFunction for Opaque {
        type Item = Bytes;
        fn deserialize(&self, b: &Bytes) -> Result<Bytes, netagg_core::AggError> {
            Ok(b.clone())
        }
        fn serialize(&self, item: &Bytes) -> Bytes {
            item.clone()
        }
        fn aggregate(&self, mut items: Vec<Bytes>) -> Bytes {
            items.pop().unwrap_or_default()
        }
        fn empty(&self) -> Bytes {
            Bytes::new()
        }
    }

    let quick = matches!(opts.scale, netagg_bench::sim::SimScale::Quick);
    let workers = if quick { 6 } else { 10 };
    let payload = Bytes::from(vec![0u8; 256 * 1024]); // 256 KB model/update
    let mut t = Table::new(
        "Extension: broadcast 256 KB to all workers, unicast vs on-path tree",
        &["mode", "wall time (ms)", "master egress"],
    );
    for (label, boxes) in [("unicast (no boxes)", 0u32), ("tree (1 box)", 1u32)] {
        let cfg = TestbedConfig {
            workers_per_rack: workers,
            boxes_per_rack: boxes,
            ..TestbedConfig::default()
        };
        let emu = build_emu(&cfg, &[AppId(0)]);
        let transport: std::sync::Arc<dyn Transport> = std::sync::Arc::new(emu);
        let mut dep = NetAggDeployment::launch(transport, &cfg.cluster_spec()).expect("launch");
        let app = dep.register_app(
            "bcast",
            std::sync::Arc::new(netagg_core::AggWrapper::new(Opaque)),
            1.0,
        );
        let master = dep.master_shim(app);
        let shims: Vec<_> = (0..workers).map(|w| dep.worker_shim(app, w)).collect();
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        master.broadcast(1, payload.clone()).expect("broadcast");
        // Wall time until every worker holds the payload.
        #[expect(
            clippy::disallowed_methods,
            reason = "scoped broadcast receivers borrow the shims and are joined by construction before the clock stops"
        )]
        std::thread::scope(|s| {
            for shim in &shims {
                s.spawn(move || {
                    let (_, p) = shim
                        .recv_broadcast(Duration::from_secs(60))
                        .expect("delivered");
                    assert_eq!(p.len(), 256 * 1024);
                });
            }
        });
        let elapsed = t0.elapsed();
        let copies = if boxes == 0 { workers as usize } else { 1 };
        t.row(vec![
            label.into(),
            f(elapsed.as_secs_f64() * 1e3),
            format!("{} copies", copies),
        ]);
        dep.shutdown();
    }
    t.print();
}

/// Ablation: back-pressure on vs off. With bounded channels (the
/// platform's back-pressure), a slow aggregation function slows producers
/// instead of ballooning memory; we measure the tree's buffered backlog
/// with fast vs slow consumers.
pub fn ablate_backpressure(opts: &Options) {
    let quick = matches!(opts.scale, netagg_bench::sim::SimScale::Quick);
    let batches = if quick { 200 } else { 800 };
    // Slow aggregator: each combine burns CPU.
    struct SlowAgg(Arc<dyn DynAggregator>);
    impl DynAggregator for SlowAgg {
        fn aggregate_serialized(&self, inputs: Vec<Bytes>) -> Result<Bytes, netagg_core::AggError> {
            std::thread::sleep(Duration::from_micros(500));
            self.0.aggregate_serialized(inputs)
        }
        fn empty_serialized(&self) -> Bytes {
            self.0.empty_serialized()
        }
    }
    let mut t = Table::new(
        "Ablation: pipelined tree keeps buffering bounded under a slow function",
        &["consumer", "peak buffered items", "throughput"],
    );
    for (label, slow) in [("fast combine", false), ("slow combine", true)] {
        let sched = Arc::new(TaskScheduler::new(SchedulerConfig {
            threads: 4,
            ..SchedulerConfig::default()
        }));
        sched.register_app(AppId(1), 1.0);
        let agg: Arc<dyn DynAggregator> = if slow {
            Arc::new(SlowAgg(wc_agg()))
        } else {
            wc_agg()
        };
        let tree = LocalAggTree::new(agg, 8);
        let batch = wc_batch(256, 0.1, 3);
        let total = (batch.len() * batches) as f64;
        let mut peak = 0usize;
        let t0 = Instant::now();
        for _ in 0..batches {
            tree.push(&sched, AppId(1), batch.clone());
            let (pending, _) = tree.load();
            peak = peak.max(pending);
        }
        tree.end_input(&sched, AppId(1));
        tree.wait_complete(Duration::from_secs(120)).unwrap();
        let thr = total / t0.elapsed().as_secs_f64();
        t.row(vec![label.into(), peak.to_string(), rate(thr)]);
    }
    t.print();
}
