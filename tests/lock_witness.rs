//! §15 closing the loop: the lock-acquisition edges the runtime witness
//! observes while driving the quick scenario mix are exactly the rows of
//! the DESIGN.md §15 "Acquisition edges" table. The witness enforces the
//! rank order on every acquisition; this proves the documented graph is
//! the one the runtime walks — an edge the table lacks is undocumented
//! nesting, a row the witness never sees is stale documentation (or a
//! drive that no longer reaches it). The same bidirectional discipline as
//! the §7 metrics contract.
//!
//! The same drive closes §9 the same way: the kinds of thread the
//! `JoinScope`s actually spawned are exactly the rows of the §9 "Thread
//! inventory" — an unlisted `JoinScope::spawn` name fails here, and so
//! does a row no thread carries any more.

mod common;

use std::collections::BTreeSet;
use std::time::Duration;

use minisearch::corpus::CorpusConfig;
use minisearch::frontend::Client;
use netagg_core::runtime::DeploymentConfig;
use netagg_core::straggler::StragglerPolicy;
use netagg_net::lifecycle::{witness_edges, witness_reset, witness_thread_kinds};
use netagg_scenarios::{
    builtin_providers, run_scenario, Impairment, ScenarioHarness, ScenarioSpec, SyntheticKind,
    TopologySpec,
};

#[test]
fn witnessed_edges_and_thread_kinds_are_exactly_the_documented_tables() {
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
    // The threads only a configuration starts: the boxes' flush and
    // straggler monitors and the master's (thresholds far above anything
    // this run reaches, so they only tick), the search backends, and the
    // frontend's per-client thread (one `Client` query).
    let tuned = ScenarioSpec::new("lock-witness-tuned", TopologySpec::single_rack(3, 1))
        .search(
            4,
            CorpusConfig {
                num_docs: 60,
                ..CorpusConfig::default()
            },
            5,
            1.0,
        )
        .with_tuning(DeploymentConfig {
            straggler: Some(StragglerPolicy::new(Duration::from_secs(30))),
            flush_bytes: Some(1 << 20),
            ..DeploymentConfig::default()
        });
    for provider in builtin_providers() {
        for spec in [&wide, &mix] {
            let report = run_scenario(spec, provider.as_ref()).unwrap();
            assert!(report.passed(), "{}", report.summary());
        }
        let harness = ScenarioHarness::build(&tuned, provider.as_ref()).unwrap();
        let search = harness.search(0).expect("app 0 is the search cluster");
        let transport = harness.deployment().transport();
        let mut client =
            Client::connect(transport, search.app, 0, search.corpus_vocabulary).unwrap();
        client.query_once(Duration::from_secs(10)).unwrap();
        drop(client);
        let report = harness.finish();
        assert!(report.passed(), "{}", report.summary());
    }

    let doc = common::design();
    let observed: BTreeSet<(String, String)> = witness_edges().into_iter().collect();
    let mut table = BTreeSet::new();
    for row in common::rows(&doc, "### Acquisition edges") {
        let from = common::ticked(&row[0]).remove(0);
        table.extend(
            common::ticked(&row[1])
                .into_iter()
                .map(|to| (from.clone(), to)),
        );
    }
    let undocumented: Vec<_> = observed.difference(&table).collect();
    let unwitnessed: Vec<_> = table.difference(&observed).collect();
    assert!(
        undocumented.is_empty() && unwitnessed.is_empty(),
        "DESIGN.md §15 \"Acquisition edges\" and the runtime witness disagree — \
         observed but not in the table: {undocumented:?}; \
         in the table but never observed: {unwitnessed:?}"
    );

    // §9: a row's kind is its name with every `<id>` placeholder as `#`;
    // a witnessed kind is the thread name with every digit run as `#`.
    let ran: BTreeSet<String> = witness_thread_kinds().into_iter().collect();
    let mut inventory = BTreeSet::new();
    for name in common::names(&doc, "### Thread inventory") {
        let pieces = name.split('<').map(|p| p.rsplit('>').next().unwrap());
        inventory.insert(pieces.collect::<Vec<_>>().join("#"));
    }
    let unlisted: Vec<_> = ran.difference(&inventory).collect();
    let never_ran: Vec<_> = inventory.difference(&ran).collect();
    assert!(
        unlisted.is_empty() && never_ran.is_empty(),
        "DESIGN.md §9 \"Thread inventory\" and the threads JoinScopes spawned disagree — \
         spawned but not in the table: {unlisted:?}; \
         in the table but never spawned: {never_ran:?}"
    );
}
