//! §15 closing the loop: the lock-acquisition edges the runtime witness
//! observes while driving the quick scenario mix are exactly the rows of
//! the DESIGN.md §15 "Acquisition edges" table. The witness enforces the
//! rank order on every acquisition; this proves the documented graph is
//! the one the runtime walks — an edge the table lacks is undocumented
//! nesting, a row the witness never sees is stale documentation (or a
//! drive that no longer reaches it). The same bidirectional discipline as
//! the §7 metrics contract.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Duration;

use netagg_lint::contract::Contract;
use netagg_net::lifecycle::{witness_edges, witness_reset};
use netagg_scenarios::{
    builtin_providers, run_scenario, Impairment, ScenarioSpec, SyntheticKind, TopologySpec,
};

#[test]
fn witnessed_edges_are_exactly_the_documented_table() {
    if !cfg!(debug_assertions) {
        // Release builds compile the witness out; nothing to check.
        return;
    }
    witness_reset();

    // The quick mix: all three workloads, a box kill and a straggler
    // storm, on both transports — the same drive the soak harness uses,
    // shrunk to seconds.
    let mix = ScenarioSpec::new("lock-witness", TopologySpec::multi_rack(2, 3, 1))
        .synthetic("sum", SyntheticKind::Sum, 600, 2.0)
        .synthetic("topk", SyntheticKind::TopK { k: 4 }, 300, 1.0)
        .mapreduce(6, 1.0)
        .impair(Impairment::BoxKill {
            slot: 0,
            after_requests: 250,
        })
        .impair(Impairment::StragglerStorm {
            workers: vec![1, 4],
            delay_ms: 1,
            from_requests: 100,
            until_requests: 200,
        })
        .with_fast_detector()
        .with_inflight(8);
    // Ten workers under one box: every request buffers the box's local
    // tree past its fan-in (8) inside `push`, so the combine is submitted
    // to the scheduler within the core transition (`agg.core →
    // sched.state`) — the mix's three-worker racks never get there.
    // A reader that dies on a witness panic strands its requests, so a
    // short wait turns that into a failed report instead of a long hang.
    let wide = ScenarioSpec::new("lock-witness-wide", TopologySpec::single_rack(10, 1))
        .synthetic("sum", SyntheticKind::Sum, 12, 1.0)
        .with_inflight(4)
        .with_wait_timeout(Duration::from_secs(2));
    for provider in builtin_providers() {
        for spec in [&wide, &mix] {
            let report = run_scenario(spec, provider.as_ref()).unwrap();
            assert!(report.passed(), "{}", report.summary());
        }
    }

    let observed: BTreeSet<(String, String)> = witness_edges().into_iter().collect();
    let table: BTreeSet<(String, String)> = Contract::load(Path::new(env!("CARGO_MANIFEST_DIR")))
        .unwrap()
        .edges
        .into_iter()
        .map(|e| (e.from, e.to))
        .collect();
    let undocumented: Vec<_> = observed.difference(&table).collect();
    let unwitnessed: Vec<_> = table.difference(&observed).collect();
    assert!(
        undocumented.is_empty() && unwitnessed.is_empty(),
        "DESIGN.md §15 \"Acquisition edges\" and the runtime witness disagree — \
         observed but not in the table: {undocumented:?}; \
         in the table but never observed: {unwitnessed:?}"
    );
}
