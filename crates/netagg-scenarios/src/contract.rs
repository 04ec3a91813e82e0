//! The DESIGN.md §7/§9 metrics-contract checker the scenario runner and
//! the soak harness assert against.
//!
//! Four families of checks (DESIGN.md §14, "Soak invariants"):
//!
//! * **Names** — every metric and event name in the final snapshot is an
//!   instance of a `netagg_obs::names::ALL` entry, i.e. of a §7 table row
//!   (`tests/design_contract.rs` ties the two). Checked here rather than
//!   inside `MetricsRegistry`, which stays a generic substrate: a private
//!   registry may carry any name (the benchmark's `bench.*` handles do).
//! * **Teardown** — after `NetAggDeployment::shutdown`, the runtime must
//!   have joined every thread (`runtime.threads_active == 0`) and drained
//!   every fan-in ledger (`shim.master.requests_inflight == 0`,
//!   `shim.master.sources_outstanding == 0`).
//! * **Bounded mailboxes** — every `mailbox.depth.<name>` gauge observed
//!   during the run must stay within the §9 bound for its mailbox family;
//!   a reading above the bound means a queue escaped its backpressure
//!   policy.
//! * **Exactly-once delivery** — the runner checks every synthetic result
//!   against its closed-form expectation and that
//!   `shim.master.requests_completed` matches
//!   `shim.master.requests_registered`; a surplus would be a duplicate
//!   delivery, a deficit a lost request.

use netagg_obs::{names, MetricsSnapshot};
use std::collections::HashMap;

/// §9 depth bound for a concrete `mailbox.depth.<name>` series, by mailbox
/// family. Returns `None` for names outside the inventory (the caller
/// reports those as violations too: an unlisted mailbox is contract
/// drift).
pub fn mailbox_bound(name: &str) -> Option<f64> {
    // Family prefixes/suffixes as documented in the §9 inventory table.
    if (name.starts_with("worker") && name.ends_with(".broadcast"))
        || name.starts_with("chan.data.")
    {
        Some(256.0)
    } else if name.starts_with("chan.accept.")
        || name.starts_with("tcp.accept.")
        || name.starts_with("tcp.reactor.")
        || name.starts_with("tcp.chan.")
    {
        Some(1024.0)
    } else {
        None
    }
}

/// Every metric series and event kind in `snap` that no §7 contract name
/// (`names::ALL`, templates included) accounts for.
pub fn name_violations(snap: &MetricsSnapshot) -> Vec<String> {
    let metrics = snap.counters.iter().map(|(n, _)| n);
    let metrics = metrics.chain(snap.gauges.iter().map(|(n, _)| n));
    let metrics = metrics.chain(snap.histograms.iter().map(|(n, _)| n));
    let found = metrics.chain(snap.events.iter().map(|e| &e.kind));
    let unknown = found.filter(|n| !names::ALL.iter().any(|t| names::matches(t, n)));
    let mut v: Vec<String> = unknown
        .map(|n| format!("`{n}` is not a DESIGN.md §7 name (netagg_obs::names)"))
        .collect();
    v.sort();
    v.dedup();
    v
}

/// Check the post-teardown §7 invariants on a final snapshot.
pub fn teardown_violations(snap: &MetricsSnapshot) -> Vec<String> {
    let mut v = Vec::new();
    let threads = snap.gauge(names::RUNTIME_THREADS_ACTIVE).unwrap_or(0.0);
    if threads != 0.0 {
        v.push(format!(
            "{} = {threads} after teardown (leaked threads)",
            names::RUNTIME_THREADS_ACTIVE
        ));
    }
    if let Some(inflight) = snap.gauge(names::SHIM_MASTER_REQUESTS_INFLIGHT) {
        if inflight != 0.0 {
            v.push(format!(
                "{} = {inflight} after teardown (undrained pending table)",
                names::SHIM_MASTER_REQUESTS_INFLIGHT
            ));
        }
    }
    if let Some(owed) = snap.gauge(names::SHIM_MASTER_SOURCES_OUTSTANDING) {
        if owed != 0.0 {
            v.push(format!(
                "{} = {owed} after teardown (undrained fan-in ledger)",
                names::SHIM_MASTER_SOURCES_OUTSTANDING
            ));
        }
    }
    let registered = snap
        .counter(names::SHIM_MASTER_REQUESTS_REGISTERED)
        .unwrap_or(0);
    let completed = snap
        .counter(names::SHIM_MASTER_REQUESTS_COMPLETED)
        .unwrap_or(0);
    if completed > registered {
        v.push(format!(
            "{completed} completions for {registered} registrations (duplicate delivery)"
        ));
    }
    v
}

/// Check every observed `mailbox.depth.<name>` maximum against its §9
/// bound. `max_depths` maps full series names to the highest reading the
/// runner sampled.
pub fn depth_violations(max_depths: &HashMap<String, f64>) -> Vec<String> {
    let mut v = Vec::new();
    let prefix = "mailbox.depth.";
    for (series, &max) in max_depths {
        let Some(name) = series.strip_prefix(prefix) else {
            continue;
        };
        match mailbox_bound(name) {
            Some(bound) if max > bound => v.push(format!(
                "{series} peaked at {max} (> §9 bound {bound}) — backpressure escape"
            )),
            Some(_) => {}
            None => v.push(format!(
                "{series} has no §9 inventory bound — undocumented mailbox"
            )),
        }
    }
    v.sort();
    v
}

/// Fold the `mailbox.depth.*` gauges of `snap` into a running max map.
pub fn sample_depths(snap: &MetricsSnapshot, into: &mut HashMap<String, f64>) {
    for (name, value) in &snap.gauges {
        if name.starts_with("mailbox.depth.") {
            let e = into.entry(name.clone()).or_insert(0.0);
            if *value > *e {
                *e = *value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_the_section_9_table() {
        assert_eq!(mailbox_bound("worker0-2.broadcast"), Some(256.0));
        assert_eq!(mailbox_bound("chan.data.1001-10000"), Some(256.0));
        assert_eq!(mailbox_bound("chan.accept.10000"), Some(1024.0));
        assert_eq!(mailbox_bound("tcp.reactor.3"), Some(1024.0));
        assert_eq!(mailbox_bound("tcp.chan.rx"), Some(1024.0));
        assert_eq!(mailbox_bound("mystery.queue"), None);
    }

    #[test]
    fn depth_checker_flags_escapes_and_unknowns() {
        let mut maxes = HashMap::new();
        maxes.insert("mailbox.depth.worker0-2.broadcast".to_string(), 256.0);
        maxes.insert("mailbox.depth.chan.data.5-9".to_string(), 300.0);
        maxes.insert("mailbox.depth.rogue".to_string(), 1.0);
        let v = depth_violations(&maxes);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("chan.data.5-9")));
        assert!(v.iter().any(|m| m.contains("rogue")));
    }

    #[test]
    fn name_checker_flags_what_the_contract_does_not_list() {
        let reg = netagg_obs::MetricsRegistry::new();
        reg.counter(names::AGGBOX_MESSAGES_IN).inc();
        reg.gauge(&names::mailbox_depth("chan.data.1-2")).set(1.0);
        reg.histogram(names::SIM_FCT_US).record(3);
        reg.emit(names::EVENT_REPOINT, "listed");
        assert!(name_violations(&reg.snapshot()).is_empty());
        reg.counter("foo.bar").inc();
        reg.emit("surprise", "unlisted");
        let v = name_violations(&reg.snapshot());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v[0].contains("`foo.bar`") && v[1].contains("`surprise`"),
            "{v:?}"
        );
    }

    #[test]
    fn teardown_checker_flags_leaks() {
        let reg = netagg_obs::MetricsRegistry::new();
        reg.gauge(names::RUNTIME_THREADS_ACTIVE).set(2.0);
        reg.gauge(names::SHIM_MASTER_SOURCES_OUTSTANDING).set(3.0);
        reg.counter(names::SHIM_MASTER_REQUESTS_COMPLETED).add(5);
        reg.counter(names::SHIM_MASTER_REQUESTS_REGISTERED).add(4);
        let v = teardown_violations(&reg.snapshot());
        assert_eq!(v.len(), 3, "{v:?}");
        reg.gauge(names::RUNTIME_THREADS_ACTIVE).set(0.0);
        reg.gauge(names::SHIM_MASTER_SOURCES_OUTSTANDING).set(0.0);
        reg.counter(names::SHIM_MASTER_REQUESTS_REGISTERED).add(1);
        assert!(teardown_violations(&reg.snapshot()).is_empty());
    }
}
