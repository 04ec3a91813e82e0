//! Provider parity: one [`ScenarioSpec`] with a seeded kill schedule must
//! produce the same recovery outcome on the channel transport, on the TCP
//! sharded reactor and on the thread-free `World`, differing only in
//! timing. This is the fence on the [`TransportProvider`] contract:
//! scenarios describe behaviour, not transports.

use netagg_scenarios::{
    builtin_providers, explore, run_scenario, Impairment, ScenarioSpec, SyntheticKind, TopologySpec,
};

fn seeded_kill_spec() -> ScenarioSpec {
    ScenarioSpec::new("parity-seeded-kill", TopologySpec::single_rack(4, 1))
        .synthetic("sum", SyntheticKind::Sum, 250, 2.0)
        .synthetic("topk", SyntheticKind::TopK { k: 4 }, 150, 1.0)
        // The box dies after a seeded number of delivered frames, so the
        // kill lands mid-aggregation and forces replay recovery.
        .impair(Impairment::SeededBoxKill {
            slot: 0,
            frames_lo: 40,
            frames_hi: 320,
        })
        .with_fast_detector()
        .with_inflight(4)
        .with_seed(0x9A21_7E57)
}

#[test]
fn seeded_kill_schedule_recovers_identically_on_both_transports() {
    let spec = seeded_kill_spec();
    let mut reports = Vec::new();
    for provider in builtin_providers() {
        let report = run_scenario(&spec, provider.as_ref()).unwrap();
        assert!(
            report.passed(),
            "{}: failures={} mismatches={} violations={:?}",
            provider.label(),
            report.failures,
            report.mismatches,
            report.violations
        );
        assert_eq!(
            report.requests_completed,
            spec.total_requests(),
            "{}: every request must complete exactly despite the kill",
            provider.label()
        );
        assert!(
            report.detections >= 1,
            "{}: the detector never noticed the seeded kill",
            provider.label()
        );
        assert!(
            report.repoints >= 1,
            "{}: recovery never re-pointed around the dead box",
            provider.label()
        );
        reports.push(report);
    }
    // The seeded draw comes from the spec's seed, not the transport: both
    // providers must have armed the *same* fault step.
    let armed: Vec<&String> = reports
        .iter()
        .map(|r| {
            r.impairments_applied
                .iter()
                .find(|l| l.contains("seeded kill"))
                .expect("seeded kill was armed")
        })
        .collect();
    assert_eq!(
        armed[0], armed[1],
        "channel and tcp drew different seeded kill points"
    );
    // A third back-end: the `World` runs the cores alone under seeded
    // schedules, and kills the box after the same seeded frame draw.
    for seed in 0..8 {
        let world = explore(&spec, seed, &[]).unwrap_or_else(|f| panic!("world: {f}"));
        let r = world.report();
        assert_eq!(
            r.delivered,
            spec.total_requests(),
            "world seed {seed}: {r:?}"
        );
        assert!(
            r.detections >= 1 && r.repoints >= 1,
            "world seed {seed}: {r:?}"
        );
        let seeded = r
            .impairments_applied
            .iter()
            .find(|l| l.contains("seeded kill"));
        assert_eq!(seeded, Some(armed[0]), "world seed {seed}");
    }
}
