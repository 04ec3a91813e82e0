//! §15 poison handling: a thread killed while holding an [`OrderedMutex`]
//! mid-request must surface as a `lock_poison` structured event and a
//! clean drain (`runtime.threads_active` back to zero) — never as a
//! `PoisonError` cascade through the surviving holders.

use std::sync::Arc;
use std::time::Duration;

use netagg_net::lifecycle::{
    poisoned_locks, set_poison_sink, witness_reset, CancelToken, JoinScope, OrderedMutex,
};
use netagg_net::lock_order;
use netagg_obs::{names, MetricsRegistry};

#[test]
fn killed_holder_poisons_without_cascading_and_the_scope_drains() {
    // The witness (and therefore the poison log) only exists in debug
    // builds; in release this test degenerates to the drain check.
    witness_reset();
    let obs = MetricsRegistry::new();
    set_poison_sink(&obs);
    let gauge = obs.gauge(names::RUNTIME_THREADS_ACTIVE);

    let cancel = CancelToken::new();
    let scope = JoinScope::with_obs("poison-test", cancel, Duration::from_secs(5), Some(&obs));
    let state = Arc::new(OrderedMutex::new(lock_order::AGG_CORE, 0u32));

    let held = state.clone();
    scope
        .spawn("test-poison-victim", move || {
            let mut g = held.lock();
            *g += 1; // a half-applied update the panic abandons
            panic!("killed mid-request");
        })
        .unwrap();

    // The drain sees the panic as a reported thread failure, not a hang.
    let err = scope.join_all().expect_err("victim panic must be reported");
    let report = format!("{err:?}");
    assert!(report.contains("test-poison-victim"), "{report}");
    assert_eq!(gauge.get(), 0.0, "deployment did not drain to zero threads");

    // No cascade: the lock is still acquirable and shows the partial
    // update (the shim never poisons).
    assert_eq!(*state.lock(), 1);

    if cfg!(debug_assertions) {
        assert!(
            poisoned_locks().iter().any(|l| l == "agg.core"),
            "poison log missed the dead holder: {:?}",
            poisoned_locks()
        );
        let events = obs.events();
        let poison: Vec<_> = events
            .iter()
            .filter(|e| e.kind == names::EVENT_LOCK_POISON)
            .collect();
        assert!(
            poison.iter().any(|e| e.detail.contains("agg.core")),
            "no lock_poison event named the lock: {events:?}"
        );
    }
}
