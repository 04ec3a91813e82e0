//! The `World` (src/world.rs) on fixed blocks of seeds: one engine, many
//! configurations. Each run checks every step (`World::apply`); a failure
//! prints its seed and a minimised event list.

use netagg_core::aggbox::core::EMITTED_WINDOW;
use netagg_core::fanin::REQUEST_TTL;
use netagg_core::protocol::{AppId, TreeId};
use netagg_core::runtime::DeploymentConfig;
use netagg_core::shim::master_core::DELIVERED_MEMORY;
use netagg_core::shim::TreeSelection;
use netagg_core::straggler::StragglerPolicy;
use netagg_core::tree::{box_addr, master_addr, worker_addr};
use netagg_scenarios::{
    explore, Event, Impairment, Refused, ScenarioSpec, SyntheticKind, TopologySpec, World,
    WorldReport,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::process::Command;
use std::time::{Duration, Instant};

/// Two applications, `sum` and `topk`, sharing the boxes of `topology`.
fn two_apps(topology: TopologySpec, requests: u64) -> ScenarioSpec {
    ScenarioSpec::new("world", topology)
        .synthetic("sum", SyntheticKind::Sum, requests, 1.0)
        .synthetic("topk", SyntheticKind::TopK { k: 3 }, requests, 1.0)
        .with_fast_detector()
        .with_inflight(2)
}

/// Box `slot` dies after a seeded number of frames reach it.
fn seeded_kill(slot: usize, frames_hi: u64) -> Impairment {
    let frames_lo = 0;
    Impairment::SeededBoxKill {
        slot,
        frames_lo,
        frames_hi,
    }
}

/// `tuning` with a straggler policy of `threshold` and `repeat_limit`.
fn straggling(threshold_ms: u64, repeat_limit: u32, tuning: DeploymentConfig) -> DeploymentConfig {
    let threshold = Duration::from_millis(threshold_ms);
    let straggler = Some(StragglerPolicy {
        threshold,
        repeat_limit,
    });
    DeploymentConfig {
        straggler,
        ..tuning
    }
}

/// Streaming flushes (every buffered byte), combines three items wide,
/// straggler bypasses (per-request redirects) and a seeded kill of the
/// root box (permanent ones).
fn streaming(seed: u64) -> ScenarioSpec {
    let narrow = DeploymentConfig {
        fanin: 3,
        flush_bytes: Some(1),
        ..DeploymentConfig::default()
    };
    two_apps(TopologySpec::multi_rack(2, 3, 1), 4)
        .with_tuning(straggling(20, 4, narrow))
        .impair(seeded_kill(0, 80))
        .with_seed(seed)
}

/// Every request was delivered but those the World reports stranded.
fn finished(r: &WorldReport) -> bool {
    r.delivered + r.stranded == r.issued && r.failures == 0
}

/// Every request was delivered, exact and once.
fn exact(r: &WorldReport) -> bool {
    r.delivered == r.issued && r.stranded == 0 && r.failures == 0
}

/// Run `spec(seed)` for every seed, each to the end; panic with the first
/// failure. The reports, and the rate printed.
fn block(name: &str, seeds: Range<u64>, spec: impl Fn(u64) -> ScenarioSpec) -> Vec<WorldReport> {
    let t = Instant::now();
    let reports: Vec<WorldReport> = seeds
        .clone()
        .map(|seed| match explore(&spec(seed), seed, &[]) {
            Ok(world) => world.report().clone(),
            Err(failure) => panic!("{name}: {failure}"),
        })
        .collect();
    let rate = reports.len() as f64 / t.elapsed().as_secs_f64();
    let sum = |f: fn(&WorldReport) -> u64| reports.iter().map(f).sum::<u64>();
    let (detections, live) = (sum(|r| r.detections), sum(|r| r.live_verdicts));
    let (failures, stranded) = (sum(|r| r.failures), sum(|r| r.stranded));
    println!("{name}: seeds {seeds:?}, {rate:.0} schedules/s");
    println!(
        "  {detections} detections, {live} on live boxes; {failures} given up, {stranded} stranded"
    );
    reports
}

/// `multi_rack(2, 3, 1)`, two applications sharing its boxes, detectors
/// armed: clean (this block's rate is the World's), then with a box killed
/// at a seeded frame — the spec seed moves the kill — under straggler
/// bypass. Every request exact and delivered once; none given up but
/// those the World reports stranded.
#[test]
fn a_fixed_block_of_seeds_is_exact() {
    let clean = block("clean", 0..2000, |_| {
        two_apps(TopologySpec::multi_rack(2, 3, 1), 2)
    });
    assert!(clean.iter().all(|r| r.delivered == 4 && r.failures == 0));
    let killed = block("killed", 0..300, |seed| {
        two_apps(TopologySpec::multi_rack(2, 3, 1), 6)
            .with_tuning(straggling(50, 3, DeploymentConfig::default()))
            .impair(seeded_kill((seed % 2) as usize, 60))
            .with_seed(seed)
    });
    assert!(killed.iter().all(finished));
    assert!(killed.iter().map(|r| r.detections).sum::<u64>() > 0);
}

/// Detector firing, straggler bypass and escalation (one strike) and
/// replayed `last` chunks, in seeded orders, at the boxes and the masters
/// of a two-level tree. The root box dies at a seeded frame, or is
/// escalated while alive: each child box's obligation moves once per
/// request, and every request is delivered, exact and once. Then box 1
/// dies instead: requests a bypass moved onto it from box 0, or moved off
/// a box escalated while alive, may strand, and are reported so; every
/// other request is delivered, exact and once.
#[test]
fn recovery_events_in_any_order_move_obligations_once() {
    let spec = |slot: usize| {
        move |seed| {
            two_apps(TopologySpec::multi_rack(2, 3, 1), 4)
                .with_tuning(straggling(20, 1, DeploymentConfig::default()))
                .impair(seeded_kill(slot, 40))
                .with_seed(seed)
        }
    };
    let root = block("escalation, root box killed", 0..40, spec(0));
    assert!(root.iter().all(exact));
    assert!(root.iter().any(|r| r.live_verdicts > 0));
    assert!(root.iter().any(|r| r.detections > 0 && r.repoints > 0));
    let leaf = block("escalation, box 1 killed", 0..60, spec(1));
    assert!(leaf.iter().all(finished));
    assert!(leaf.iter().any(|r| r.repoints > 0));
}

/// A two-level chain, box 1 under box 0, both silent in turn: probe rounds,
/// acks in time or late, probes that could not be sent, replays and late
/// aggregates in seeded orders. Each silent box is failed exactly once per
/// node, on exactly `misses` unanswered probes in a row; the box it leaves
/// behind is probed from the next round; every message names its sender;
/// the result is the reference fold, once.
#[test]
fn detector_inputs_in_any_order_fail_each_silent_box_exactly_once() {
    let reports = block("detector", 0..300, |seed| {
        two_apps(TopologySpec::multi_rack(2, 2, 1), 4)
            .impair(seeded_kill(0, 30))
            .impair(Impairment::BoxKill {
                slot: 1,
                after_requests: 6,
            })
            .with_seed(seed)
    });
    assert!(reports.iter().all(|r| exact(r) && r.detections >= 1));
    let spec = two_apps(TopologySpec::multi_rack(2, 2, 1), 4).impair(seeded_kill(0, 30));
    let world = explore(&spec, 7, &[]).unwrap_or_else(|f| panic!("{f}"));
    for a in 0..2 {
        assert!(world
            .master(a)
            .fanin
            .route(&TreeId(0))
            .unwrap()
            .failed
            .contains(&0));
    }
}

/// Streaming flushes (every buffered byte), combines three items wide,
/// straggler bypasses (per-request redirects) and a box kill (permanent
/// ones) in seeded orders, outboxes drained at seeded points: each box's
/// output leaves for every destination in strictly increasing numbers,
/// nothing after a `last`, until a redirect restarts the stream; every
/// result exact, once.
#[test]
fn box_output_leaves_each_destination_in_numbering_order() {
    let reports = block("streaming", 0..300, streaming);
    assert!(reports.iter().all(exact));
}

/// `multi_rack(2, 3, 1)` on two trees, two applications sharing its boxes,
/// under both selections: every core built by its constructor from the
/// specs and one config. Every result is the reference fold. Then the root
/// box dies and the masters' detectors fail it: every redirect, probe and
/// ack names its sender, the requests retried around the box are exact,
/// and no request state is left at a live node. Every box runs its own
/// role too: on `multi_rack(2, 3, 2)` each tree has its own root, each
/// probing a box of its own.
#[test]
fn a_deployment_wired_by_its_constructors_alone_is_exact() {
    for selection in [TreeSelection::PerRequest, TreeSelection::Keyed] {
        let spec = |topology: TopologySpec| {
            let tuning = DeploymentConfig {
                selection,
                ..DeploymentConfig::default()
            };
            ScenarioSpec::new("wired", topology.with_trees(2))
                .synthetic("a", SyntheticKind::Sum, 5, 1.0)
                .synthetic("b", SyntheticKind::Sum, 5, 1.0)
                .with_tuning(tuning)
                .with_fast_detector()
        };
        let killed = spec(TopologySpec::multi_rack(2, 3, 1)).impair(Impairment::BoxKill {
            slot: 0,
            after_requests: 8,
        });
        let two_roots = spec(TopologySpec::multi_rack(2, 3, 2));
        for seed in 0..50 {
            let run =
                |spec| explore(spec, seed, &[]).unwrap_or_else(|f| panic!("{selection:?}: {f}"));
            let r = run(&two_roots).report().clone();
            assert!(exact(&r) && r.issued == 10, "{selection:?}: {r:?}");
            let world = run(&killed);
            let r = world.report();
            assert!(exact(r), "{selection:?}: {r:?}");
            for a in 0..2 {
                let route = world.master(a).fanin.route(&TreeId(0));
                assert_eq!(route.map(|r| r.failed.clone()), Some(vec![0]));
            }
            // Box 0 is dead: what it held when it died stays with it.
            let open = world.boxes().skip(1).map(|b| b.fanin.requests.len());
            let masters = (0..2).map(|a| world.master(a).fanin.requests.len());
            let left: usize = open.chain(masters).sum();
            assert_eq!(left, 0, "{selection:?}: request state left");
        }
    }
}

/// `single_rack(2, 1)`, worker 1 dead from the start, every tenth request
/// answered by worker 0 alone. Those are delivered exact; the rest end
/// reaped at the box and the master once the clock passes `REQUEST_TTL`,
/// where every open-request count reads 0.
#[test]
fn requests_below_a_dead_worker_end_reaped_at_every_node() {
    let spec = ScenarioSpec::new("dead-worker", TopologySpec::single_rack(2, 1))
        .synthetic("sum", SyntheticKind::Sum, 50, 1.0)
        .with_inflight(50);
    let mut script = vec![Event::Kill(worker_addr(AppId(0), 1))];
    script.extend((0..50).map(|r| Event::Issue(0, r % 10 == 0)));
    for seed in 0..20 {
        let world = explore(&spec, seed, &script).unwrap_or_else(|f| panic!("{f}"));
        let r = world.report();
        assert_eq!((r.delivered, r.failures, r.stranded), (5, 45, 0), "{r:?}");
        assert_eq!(r.reaped, 90, "each of 45 ends at the box and the master");
        assert!(r.elapsed >= REQUEST_TTL);
        assert_eq!(
            world.boxes().map(|b| b.fanin.requests.len()).sum::<usize>(),
            0
        );
        assert_eq!(world.master(0).fanin.requests.len(), 0);
    }
}

/// The two-level variant: `multi_rack(2, 2, 1)`, worker 3 (under box 1)
/// dies once it sent its first request's part. That request is delivered;
/// every later one ends reaped at both boxes and the master.
#[test]
fn a_worker_dying_after_its_first_chunk_leaves_no_request_open() {
    let spec = ScenarioSpec::new("chain-dead-worker", TopologySpec::multi_rack(2, 2, 1)).synthetic(
        "sum",
        SyntheticKind::Sum,
        6,
        1.0,
    );
    let first = 1 << 32;
    let mut script = vec![Event::Issue(0, false)];
    script.extend((0..4).map(|w| Event::Send(0, first, w)));
    script.extend((0..4).map(|w| Event::Drain(worker_addr(AppId(0), w))));
    script.push(Event::Kill(worker_addr(AppId(0), 3)));
    for seed in 0..20 {
        let world = explore(&spec, seed, &script).unwrap_or_else(|f| panic!("{f}"));
        let r = world.report();
        assert_eq!((r.delivered, r.failures, r.stranded), (1, 5, 0), "{r:?}");
        assert_eq!(
            r.reaped, 15,
            "each of 5 ends at box 1, box 0 and the master"
        );
        assert_eq!(
            world.boxes().map(|b| b.fanin.requests.len()).sum::<usize>(),
            0
        );
        assert_eq!(world.master(0).fanin.requests.len(), 0);
    }
}

/// A part still in flight when a delay of two `REQUEST_TTL`s lets the box
/// (or, with no box, the master) reap its request: it arrives after the
/// reap and is dropped; nothing re-opens, and nothing is left.
#[test]
fn a_part_arriving_after_the_reap_reopens_nothing() {
    for boxes in [1, 0] {
        let spec = ScenarioSpec::new("late-part", TopologySpec::single_rack(2, boxes)).synthetic(
            "sum",
            SyntheticKind::Sum,
            3,
            1.0,
        );
        let (first, worker) = (1 << 32, |w| worker_addr(AppId(0), w));
        let parent = [master_addr(AppId(0)), box_addr(0)][boxes as usize];
        let script = [
            Event::Issue(0, false),
            Event::Send(0, first, 0),
            Event::Drain(worker(0)),
            Event::Deliver(worker(0), parent),
            Event::Send(0, first, 1),
            Event::Drain(worker(1)),
            Event::Delay(REQUEST_TTL * 2),
            Event::Timer(parent),
        ];
        for seed in 0..20 {
            let world = explore(&spec, seed, &script).unwrap_or_else(|f| panic!("{f}"));
            let r = world.report();
            assert_eq!((r.delivered, r.failures), (2, 1), "{boxes} boxes: {r:?}");
            assert!(r.reaped >= 1, "{boxes} boxes: {r:?}");
        }
    }
}

/// One busy application and one slow one share a two-level tree whose
/// root box dies: however far the slow master's recovery lags the busy
/// one's, its requests in flight at the dead box are resent and delivered
/// (or, after a verdict on a live box, reported stranded).
#[test]
fn a_busy_tenant_cannot_starve_another_tenants_recovery() {
    let reports = block("tenants", 0..120, |seed| {
        ScenarioSpec::new("tenants", TopologySpec::multi_rack(2, 3, 1))
            .synthetic("busy", SyntheticKind::Sum, 150, 1.0)
            .synthetic("slow", SyntheticKind::Max, 6, 1.0)
            .with_fast_detector()
            .with_inflight(8)
            .impair(seeded_kill(0, 120))
            .with_seed(seed)
    });
    assert!(reports.iter().all(finished));
}

/// A spec the World cannot run is refused with a typed error, not trimmed.
#[test]
fn search_and_mapreduce_specs_are_refused() {
    let spec = ScenarioSpec::new("mixed", TopologySpec::single_rack(2, 1))
        .synthetic("sum", SyntheticKind::Sum, 1, 1.0)
        .mapreduce(1, 1.0);
    let refused = World::new(&spec).err();
    assert_eq!(refused, Some(Refused::Workload("minimr-wc".into())));
    let blind =
        ScenarioSpec::new("blind", TopologySpec::single_rack(2, 1)).impair(Impairment::BoxKill {
            slot: 0,
            after_requests: 1,
        });
    assert_eq!(World::new(&blind).err(), Some(Refused::NoDetector));
    let storm = ScenarioSpec::new("storm", TopologySpec::single_rack(2, 1)).impair(
        Impairment::StragglerStorm {
            workers: vec![1],
            delay_ms: 10,
            from_requests: 0,
            until_requests: 1,
        },
    );
    assert!(matches!(
        World::new(&storm).err(),
        Some(Refused::Impairment(_))
    ));
}

/// 100 000 requests over two applications: every core's per-request state
/// stays bounded — one request open per application at a box or master, a
/// worker's replay and sequence streams empty once its request is
/// delivered — and the emitted and delivered windows sit at their caps.
#[test]
fn core_state_stays_bounded_over_a_hundred_thousand_requests() {
    let spec = ScenarioSpec::new("long", TopologySpec::single_rack(1, 1))
        .synthetic("sum", SyntheticKind::Sum, 50_000, 1.0)
        .synthetic("max", SyntheticKind::Max, 50_000, 1.0);
    let world = explore(&spec, 1, &[]).unwrap_or_else(|f| panic!("{f}"));
    let r = world.report();
    assert_eq!(r.delivered, 100_000);
    let [open, replay, streams] = r.peak;
    assert!(open <= 2 && replay == 0 && streams == 0, "{:?}", r.peak);
    let emitted: Vec<usize> = world.boxes().map(|b| b.emitted_len()).collect();
    assert_eq!(emitted, [2 * EMITTED_WINDOW], "one window per application");
    for a in 0..2 {
        assert_eq!(world.master(a).delivered_len(), DELIVERED_MEMORY);
    }
}

/// Per seed, a digest of the whole event list of two blocks: one-strike
/// straggler escalation with a box killed at a seeded frame, where which
/// bypass reaches the repeat limit decides the run, and streaming with
/// bypasses and a kill, where flush passes and resends meet in outboxes.
fn digests() -> Vec<String> {
    let escalation = |seed| {
        two_apps(TopologySpec::multi_rack(2, 3, 1), 4)
            .with_tuning(straggling(20, 2, DeploymentConfig::default()))
            .impair(seeded_kill((seed % 2) as usize, 40))
            .with_seed(seed)
    };
    let blocks: [(&str, &dyn Fn(u64) -> ScenarioSpec); 2] =
        [("escalation", &escalation), ("streaming", &streaming)];
    let mut out = Vec::new();
    for (name, spec) in blocks {
        for seed in 0..30 {
            let world = explore(&spec(seed), seed, &[]).unwrap_or_else(|f| panic!("{name}: {f}"));
            let mut h = DefaultHasher::new();
            world.events().hash(&mut h);
            out.push(format!("{name} {seed} {:016x}", h.finish()));
        }
    }
    out
}

/// Prints [`digests`] for [`a_seed_repeats_its_run_in_any_process`].
#[test]
#[ignore = "a child process of a_seed_repeats_its_run_in_any_process"]
fn print_digests() {
    digests().iter().for_each(|d| println!("digest {d}"));
}

/// A seed alone reproduces a run: two fresh processes of this test binary,
/// each with its own hash seeds, apply the same events as this one.
#[test]
fn a_seed_repeats_its_run_in_any_process() {
    let here = digests();
    let exe = std::env::current_exe().expect("the test binary");
    for child in 0..2 {
        let args = ["print_digests", "--ignored", "--exact", "--nocapture"];
        let out = Command::new(&exe).args(args).output().expect("a child run");
        assert!(out.status.success(), "child {child}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let there: Vec<&str> = stdout
            .lines()
            .filter_map(|l| l.split_once("digest "))
            .map(|d| d.1)
            .collect();
        let diff = here.iter().zip(&there).find(|(a, b)| a != b);
        assert!(
            there.len() == here.len() && diff.is_none(),
            "child {child}: {diff:?}"
        );
    }
}
