//! Two applications — a latency-sensitive search engine and a
//! throughput-oriented map/reduce job — sharing one agg box, with the
//! adaptive fair-queuing scheduler balancing their CPU shares
//! (Section 4.2.3 / Figs. 25–26 of the paper).
//!
//! Run with: `cargo run --release --example multi_tenant_scheduler`

use netagg_core::aggbox::scheduler::{SchedulerConfig, TaskScheduler};
use netagg_core::protocol::AppId;
use std::time::{Duration, Instant};

fn run(adaptive: bool) -> (f64, f64) {
    let sched = TaskScheduler::new(SchedulerConfig {
        threads: 2,
        adaptive,
    });
    let search = AppId(1); // ~3 ms aggregation tasks (ranked merges)
    let batch = AppId(2); // ~1 ms combiner tasks
    sched.register_app(search, 1.0);
    sched.register_app(batch, 1.0);
    // Keep both queues saturated through the measurement window.
    for _ in 0..4_000 {
        sched.submit(
            search,
            Box::new(|| std::thread::sleep(Duration::from_millis(3))),
        );
        sched.submit(
            batch,
            Box::new(|| std::thread::sleep(Duration::from_millis(1))),
        );
    }
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(1_500) {
        std::thread::sleep(Duration::from_millis(100));
    }
    let cpu = sched.cpu_times();
    let s = cpu.iter().find(|c| c.app == search).unwrap().cpu_seconds;
    let b = cpu.iter().find(|c| c.app == batch).unwrap().cpu_seconds;
    sched.shutdown();
    let total = s + b;
    (s / total, b / total)
}

fn main() {
    println!("two applications share one agg box; both are entitled to 50% CPU");
    println!("search tasks take ~3 ms, batch combiner tasks ~1 ms\n");

    let (s, b) = run(false);
    println!(
        "fixed weights   : search {:4.0}%  batch {:4.0}%   <- long tasks starve the batch app",
        s * 100.0,
        b * 100.0
    );
    let (s2, b2) = run(true);
    println!(
        "adaptive weights: search {:4.0}%  batch {:4.0}%   <- shares match the 50/50 target",
        s2 * 100.0,
        b2 * 100.0
    );

    assert!(s > 0.62, "fixed weights should starve the short-task app");
    assert!((s2 - 0.5).abs() < 0.12, "adaptive weights should equalise");
}
