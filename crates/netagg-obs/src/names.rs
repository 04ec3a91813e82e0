//! The single source of truth for every metric and event name in the
//! DESIGN.md §7 contract.
//!
//! Every runtime layer resolves its handles through these constants (or
//! the template helpers below) instead of scattering string literals, so
//! a rename is one edit here plus the matching row in DESIGN.md §7 —
//! `tests/design_contract.rs` diffs [`ALL`] (and [`spans::ALL`]) against
//! the tables bidirectionally, so a deleted row or a renamed constant
//! fails `cargo test`, and every scenario run checks the names its final
//! snapshot carries against the same list ([`matches()`]).
//!
//! Templated names keep their `<placeholder>` segments verbatim in the
//! constant (e.g. [`MAILBOX_DEPTH`] is `"mailbox.depth.<name>"`), exactly
//! as the §7 table spells them; the helper functions substitute concrete
//! values at runtime via [`expand`].

use std::fmt::Display;

/// Declares each `NAME = "value";` as a documented `pub const NAME: &str`
/// and, beside them, `ALL` — the values in declaration order — so a
/// constant cannot exist without being in the list the contract checks
/// read.
macro_rules! contract_names {
    ($($(#[$doc:meta])* $ident:ident = $value:literal;)*) => {
        $($(#[$doc])* pub const $ident: &str = $value;)*
        /// Every name declared in this module, templates verbatim.
        pub const ALL: &[&str] = &[$($ident),*];
    };
}

contract_names! {
// --- agg box: scheduler ----------------------------------------------------

/// Tasks run to completion by the scheduler's worker pool.
AGGBOX_TASKS_EXECUTED = "aggbox.tasks_executed";
/// Tasks whose closure panicked (caught by the worker loop).
AGGBOX_TASKS_PANICKED = "aggbox.tasks_panicked";
/// Tasks drained unrun at scheduler shutdown.
AGGBOX_TASKS_DROPPED = "aggbox.tasks_dropped";
/// Per-task execution latency histogram (µs).
AGGBOX_TASK_EXEC_US = "aggbox.task_exec_us";
/// Queued tasks across all applications.
AGGBOX_QUEUE_DEPTH = "aggbox.queue_depth";

// --- agg box: data path ----------------------------------------------------

/// Data messages into the agg-box runtime.
AGGBOX_MESSAGES_IN = "aggbox.messages_in";
/// Payload bytes into the agg-box runtime.
AGGBOX_BYTES_IN = "aggbox.bytes_in";
/// Requests whose final aggregate was emitted.
AGGBOX_REQUESTS_COMPLETED = "aggbox.requests_completed";
/// Requests dropped because their local aggregation failed.
AGGBOX_REQUESTS_FAILED = "aggbox.requests_failed";
/// Requests dropped unfinished by the box's reap (`REQUEST_TTL`, §8).
AGGBOX_REQUESTS_REAPED = "aggbox.requests_reaped";
/// First data byte in → final aggregate out, per request (µs).
AGGBOX_REQUEST_AGG_US = "aggbox.request_agg_us";
/// Chunks suppressed by per-source sequence tracking.
AGGBOX_DUPLICATES_DROPPED = "aggbox.duplicates_dropped";
/// Failed sends from the box's outbox drain.
AGGBOX_SEND_ERRORS = "aggbox.send_errors";
/// A parent box adopting a failed child box's subtree.
AGGBOX_REPOINTS = "aggbox.repoints";

// --- straggler handling ----------------------------------------------------

/// Child box bypassed by a box's straggler loop.
STRAGGLER_REDIRECTS = "straggler.redirects";
/// Repeat-limit escalations to permanent failure.
STRAGGLER_ESCALATIONS = "straggler.escalations";
/// Root box bypassed by the master shim's straggler loop.
STRAGGLER_MASTER_BYPASSES = "straggler.master_bypasses";

// --- master shim -----------------------------------------------------------

/// Requests registered (`register_request[_subset]`).
SHIM_MASTER_REQUESTS_REGISTERED = "shim.master.requests_registered";
/// Results delivered to the application.
SHIM_MASTER_REQUESTS_COMPLETED = "shim.master.requests_completed";
/// Messages into the master shim reader loop.
SHIM_MASTER_MESSAGES_IN = "shim.master.messages_in";
/// Payload bytes into the master shim reader loop.
SHIM_MASTER_BYTES_IN = "shim.master.bytes_in";
/// Empty per-worker results synthesised per request.
SHIM_MASTER_EMULATED_EMPTIES = "shim.master.emulated_empties";
/// Register → result available, per request (µs).
SHIM_MASTER_REQUEST_WAIT_US = "shim.master.request_wait_us";
/// Chunks suppressed by the fan-in ledger (§8).
SHIM_MASTER_DUPLICATES_DROPPED = "shim.master.duplicates_dropped";
/// Failed-box re-points applied by the master shim.
SHIM_MASTER_REPOINTS = "shim.master.repoints";
/// Requests dropped unclaimed by the master's reap (`REQUEST_TTL`, §8).
SHIM_MASTER_REQUESTS_REAPED = "shim.master.requests_reaped";
/// Non-complete entries in the pending table.
SHIM_MASTER_REQUESTS_INFLIGHT = "shim.master.requests_inflight";
/// Sum of ledger entries still owed across in-flight requests (§8).
SHIM_MASTER_SOURCES_OUTSTANDING = "shim.master.sources_outstanding";
/// Outbox sends that failed (liveness excepted).
SHIM_MASTER_SEND_ERRORS = "shim.master.send_errors";

// --- worker shim -----------------------------------------------------------

/// Data chunks sent via `send_partial`.
SHIM_WORKER_CHUNKS_SENT = "shim.worker.chunks_sent";
/// Payload bytes sent via `send_partial`.
SHIM_WORKER_BYTES_SENT = "shim.worker.bytes_sent";
/// Chunks replayed after a re-point.
SHIM_WORKER_CHUNKS_RESENT = "shim.worker.chunks_resent";
/// Redirect commands accepted by the control loop.
SHIM_WORKER_REDIRECTS_APPLIED = "shim.worker.redirects_applied";
/// Broadcasts received off the wire, before the delivery mailbox's drops.
SHIM_WORKER_BROADCASTS_RECEIVED = "shim.worker.broadcasts_received";
/// Sends that failed on the wire after the chunk was retained for replay.
SHIM_WORKER_SEND_ERRORS = "shim.worker.send_errors";

// --- lifecycle (§9) --------------------------------------------------------

/// Live threads across every `JoinScope` in a deployment; 0 after teardown.
RUNTIME_THREADS_ACTIVE = "runtime.threads_active";
/// Queued items per named mailbox (template: `<name>` = §9 mailbox name).
MAILBOX_DEPTH = "mailbox.depth.<name>";
/// Items evicted or refused per named mailbox (template).
MAILBOX_DROPPED = "mailbox.dropped.<name>";
/// The same drops aggregated by overflow-policy label (template:
/// `<policy>` = `drop_oldest` | `reject`).
MAILBOX_DROPPED_POLICY = "mailbox.dropped.<policy>";

// --- failure detection -----------------------------------------------------

/// Boxes declared failed by a detector.
FAILURE_DETECTIONS = "failure.detections";
/// Grandchildren re-pointed around a dead box.
FAILURE_REPOINTS = "failure.repoints";
/// Chunks a fan-in ledger accepted past a sequence gap (chunks lost).
FAILURE_SEQ_GAPS = "failure.seq_gaps";

// --- metered transport -----------------------------------------------------

/// Frames through any metered send.
NET_FRAMES_SENT = "net.frames_sent";
/// Payload bytes through any metered send.
NET_BYTES_SENT = "net.bytes_sent";
/// Frames through any metered receive.
NET_FRAMES_RECV = "net.frames_recv";
/// Payload bytes through any metered receive.
NET_BYTES_RECV = "net.bytes_recv";
/// Frames per directed link (template: `<from>`, `<to>` = node ids).
NET_LINK_FRAMES = "net.link.<from>-><to>.frames";
/// Payload bytes per directed link (template).
NET_LINK_BYTES = "net.link.<from>-><to>.bytes";

// --- tcp reactor (§12) -----------------------------------------------------

/// Reactor shard wakeups out of a park (kick, registration or tick).
NET_TCP_REACTOR_WAKEUPS = "net.tcp.reactor_wakeups";
/// Socket write syscalls issued by the reactor; each may carry many
/// coalesced mux records, so `frames_sent / batches_written` is the
/// effective batching factor.
NET_TCP_BATCHES_WRITTEN = "net.tcp.batches_written";
/// Mux records written in a batch that carried at least one other record.
NET_TCP_FRAMES_COALESCED = "net.tcp.frames_coalesced";
/// Physical links (multiplexed sockets) currently registered.
NET_TCP_LINKS_ACTIVE = "net.tcp.links_active";
/// Virtual connections (mux channels) currently open.
NET_TCP_CHANNELS_ACTIVE = "net.tcp.channels_active";

// --- simulator -------------------------------------------------------------

/// Flows completed by a simulation run.
SIM_FLOWS_COMPLETED = "sim.flows_completed";
/// Requests completed by a simulation run.
SIM_REQUESTS_COMPLETED = "sim.requests_completed";
/// Bytes delivered by a simulation run.
SIM_BYTES_DELIVERED = "sim.bytes_delivered";
/// Per-flow completion time (µs).
SIM_FCT_US = "sim.fct_us";
/// Per-request span, first start → last finish (µs).
SIM_REQUEST_COMPLETION_US = "sim.request_completion_us";

// --- structured event kinds ------------------------------------------------

/// A detector declared a box failed.
EVENT_FAILURE = "failure";
/// A box or master shim bypassed a straggling child box.
EVENT_STRAGGLER = "straggler";
/// Behind-sources of a failed box moved into direct fan-in entries (§8).
EVENT_REPOINT = "repoint";
/// An ordered lock's guard was dropped during a panic unwind (§15).
EVENT_LOCK_POISON = "lock_poison";
}

/// The span and stage names of the DESIGN.md §11 tracing contract.
///
/// Like the metric names above, every [`crate::trace::TraceRecorder`]
/// call site spells its span name through these constants;
/// `tests/design_contract.rs` diffs [`spans::ALL`] against the §11 "Span
/// and stage names" table bidirectionally.
pub mod spans {
    contract_names! {
        /// Master root span: request registered → result delivered.
        MASTER_REQUEST = "span.master.request";
        /// Master shim processing one arriving data frame.
        MASTER_RECV = "span.master.recv";
        /// Master shim re-pointing one in-flight request around a dead box.
        MASTER_REPOINT = "span.master.repoint";
        /// Box-side span of one request: first data in → final aggregate out.
        BOX_REQUEST = "span.box.request";
        /// Box runtime processing one arriving data frame.
        BOX_RECV = "span.box.recv";
        /// Scheduler queue wait: combine submitted → combine started.
        BOX_QUEUE_WAIT = "span.box.queue_wait";
        /// One combine executed by a scheduler task.
        BOX_COMBINE = "span.box.combine";
        /// Box building + enqueueing an upward result frame.
        BOX_FORWARD = "span.box.forward";
        /// Box adopting a failed child box's subtree for one request.
        BOX_REPOINT = "span.box.repoint";
        /// Worker shim serialising + sending one partial.
        WORKER_SEND = "span.worker.send";
        /// Worker shim replaying buffered chunks after a re-point.
        WORKER_RESEND = "span.worker.resend";
        /// Frame in flight: sender stamp → receiver decode.
        WIRE_TRANSFER = "span.wire.transfer";
        /// Simulator: one flow of a simulated request.
        SIM_FLOW = "span.sim.flow";
        /// Simulator: whole-request envelope (first start → last finish).
        SIM_REQUEST = "span.sim.request";
    }
}

/// Substitute the `<placeholder>` segments of a template name, in order,
/// with `args` (which must match the placeholder count exactly).
///
/// ```
/// use netagg_obs::names;
/// assert_eq!(
///     names::expand(names::MAILBOX_DEPTH, &["egress"]),
///     "mailbox.depth.egress"
/// );
/// ```
///
/// # Panics
///
/// Panics when `args` has fewer or more entries than the template has
/// placeholders — a template misuse, not a runtime condition.
pub fn expand(template: &str, args: &[&str]) -> String {
    let lits = literals(template);
    assert!(args.len() + 1 >= lits.len(), "too few template args");
    assert!(args.len() < lits.len(), "too many template args");
    let mut out = String::from(lits[0]);
    for (arg, lit) in args.iter().zip(&lits[1..]) {
        out.push_str(arg);
        out.push_str(lit);
    }
    out
}

/// The literal pieces of a template, split at its `<placeholder>`s: `n`
/// placeholders give `n + 1` pieces (possibly empty).
fn literals(template: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = template;
    while let Some(open) = rest.find('<') {
        let close = rest[open..]
            .find('>')
            .expect("unterminated template placeholder");
        out.push(&rest[..open]);
        rest = &rest[open + close + 1..];
    }
    out.push(rest);
    out
}

/// Whether the concrete `name` is an instance of `template`: the literal
/// pieces match in order and every `<placeholder>` stands for one or more
/// characters. A plain name matches only itself.
///
/// ```
/// use netagg_obs::names;
/// assert!(names::matches(names::NET_LINK_BYTES, "net.link.3->9.bytes"));
/// assert!(!names::matches(names::MAILBOX_DEPTH, "mailbox.depth."));
/// ```
pub fn matches(template: &str, name: &str) -> bool {
    let lits = literals(template);
    let Some(mut rest) = name.strip_prefix(lits[0]) else {
        return false;
    };
    let Some((last, mids)) = lits[1..].split_last() else {
        return rest.is_empty();
    };
    for lit in mids {
        // Leftmost fit after at least one placeholder character.
        let mut chars = rest.chars();
        let found = chars.next().and_then(|_| chars.as_str().find(lit));
        let Some(at) = found else { return false };
        rest = &chars.as_str()[at + lit.len()..];
    }
    rest.len() > last.len() && rest.ends_with(last)
}

/// Concrete `mailbox.depth.<name>` name for one mailbox.
pub fn mailbox_depth(name: &str) -> String {
    expand(MAILBOX_DEPTH, &[name])
}

/// Concrete `mailbox.dropped.<name>` name for one mailbox.
pub fn mailbox_dropped(name: &str) -> String {
    expand(MAILBOX_DROPPED, &[name])
}

/// Concrete `mailbox.dropped.<policy>` name for one overflow-policy label.
pub fn mailbox_dropped_policy(label: &str) -> String {
    expand(MAILBOX_DROPPED_POLICY, &[label])
}

/// Concrete `net.link.<from>-><to>.frames` name for one directed link.
pub fn net_link_frames(from: impl Display, to: impl Display) -> String {
    expand(NET_LINK_FRAMES, &[&from.to_string(), &to.to_string()])
}

/// Concrete `net.link.<from>-><to>.bytes` name for one directed link.
pub fn net_link_bytes(from: impl Display, to: impl Display) -> String {
    expand(NET_LINK_BYTES, &[&from.to_string(), &to.to_string()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_substitutes_in_order() {
        assert_eq!(net_link_frames(3, 9), "net.link.3->9.frames");
        assert_eq!(net_link_bytes("a", "b"), "net.link.a->b.bytes");
        assert_eq!(mailbox_depth("egress"), "mailbox.depth.egress");
        assert_eq!(mailbox_dropped("egress"), "mailbox.dropped.egress");
        assert_eq!(mailbox_dropped_policy("reject"), "mailbox.dropped.reject");
    }

    #[test]
    fn matches_is_the_inverse_of_expand() {
        assert!(matches(NET_LINK_FRAMES, &net_link_frames(3, 9)));
        assert!(!matches(NET_LINK_FRAMES, "net.link.3->9.bytes"));
        assert!(!matches(NET_LINK_FRAMES, "net.link.3.9.frames"));
        assert!(matches(MAILBOX_DEPTH, "mailbox.depth.chan.data.1-2"));
        assert!(!matches(MAILBOX_DEPTH, "mailbox.depth."));
        assert!(matches(AGGBOX_TASKS_EXECUTED, AGGBOX_TASKS_EXECUTED));
        assert!(!matches(AGGBOX_TASKS_EXECUTED, "aggbox.tasks_execute"));
        assert!(ALL.contains(&EVENT_LOCK_POISON) && spans::ALL.contains(&spans::SIM_REQUEST));
    }

    #[test]
    fn expand_passes_plain_names_through() {
        assert_eq!(expand(AGGBOX_TASKS_EXECUTED, &[]), AGGBOX_TASKS_EXECUTED);
    }

    #[test]
    #[should_panic(expected = "too few template args")]
    fn expand_rejects_missing_args() {
        expand(MAILBOX_DEPTH, &[]);
    }

    #[test]
    #[should_panic(expected = "too many template args")]
    fn expand_rejects_extra_args() {
        expand(AGGBOX_TASKS_EXECUTED, &["spare"]);
    }
}
