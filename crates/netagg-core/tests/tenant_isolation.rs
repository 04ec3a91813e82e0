//! One application's traffic through a shared agg box must not cost
//! another its recovery state. Found as a soak-style flake: the master
//! shims detect a dead root box independently, the first application
//! re-pointed resumes at full rate, and a box window shared across
//! applications had forgotten the slower one's in-flight outputs by the
//! time its redirect arrived — those requests then waited forever.

use bytes::Bytes;
use netagg_core::aggbox::core::{BoxCore, PartialSink, Resend};
use netagg_core::protocol::{AppId, RequestId, TreeId};

#[derive(Clone)]
struct Discard;
impl PartialSink for Discard {
    fn push(&mut self, _: Bytes) {}
}

#[test]
fn a_busy_tenant_cannot_evict_another_tenants_retained_output() {
    let (slow, busy, tree) = (AppId(0), AppId(1), TreeId(0));
    let mut core: BoxCore<Discard> = BoxCore::default();
    let out = Bytes::from_static(b"aggregate");
    // The slow tenant's request left for a parent that then died…
    core.complete((slow, RequestId(7), tree), out.clone());
    // …and before its redirect arrives, the busy tenant (already
    // re-pointed) completes far more requests than any window retains.
    for r in 0..10_000 {
        core.complete((busy, RequestId(r), tree), out.clone());
    }
    let resends = core.redirect(slow, true, RequestId(0), tree, 200);
    let want = Resend {
        request: RequestId(7),
        chunks: vec![out],
        finished: true,
    };
    assert_eq!(resends, vec![want]);
    // The busy tenant's own window is still bounded.
    assert!(core.redirect(busy, true, RequestId(0), tree, 200).len() <= 64);
}
