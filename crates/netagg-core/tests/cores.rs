//! The recovery protocol driven through the pure cores: no thread, no
//! transport, no sleep. Each test is an ordering the threaded system only
//! meets when a soak happens to schedule it.

use bytes::Bytes;
use netagg_core::aggbox::core::{BoxCore, BoxStep, Work, FLUSH_TICK, OUTBOX_BOUND};
use netagg_core::aggbox::tree::combine;
use netagg_core::failure::DetectorConfig;
use netagg_core::fanin::{Fired, Request, Route, REQUEST_TTL};
use netagg_core::node::{Emit, Node, Step};
use netagg_core::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use netagg_core::runtime::DeploymentConfig;
use netagg_core::shim::master_core::{MasterCore, Taken};
use netagg_core::shim::worker_core::{WorkerCore, WorkerStep};
use netagg_core::shim::TreeSelection;
use netagg_core::straggler::StragglerPolicy;
use netagg_core::tree::{box_addr, build_tree_specs, worker_addr, ClusterSpec, Parent, TreeSpec};
use netagg_core::{AggError, DynAggregator};
use netagg_net::NodeId;
use netagg_obs::trace::TraceCtx;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: AppId = AppId(0);
const TREE: TreeId = TreeId(0);
const THRESHOLD: Duration = Duration::from_millis(50);

/// The application a box core serves: a combine concatenates its items
/// in order, so a final chunk holds every partial that reached it.
struct Concat;
impl DynAggregator for Concat {
    fn aggregate_serialized(&self, items: Vec<Bytes>) -> Result<Bytes, AggError> {
        let bytes: Vec<u8> = items.iter().flat_map(|b| b.to_vec()).collect();
        Ok(bytes.into())
    }
    fn empty_serialized(&self) -> Bytes {
        Bytes::new()
    }
}

/// Box `id` forwarding to node 100 on `route`, its combines merging up to
/// `fanin` items, its flush passes — run by hand — taking any buffered byte.
fn routed_box(id: u32, fanin: usize, route: Route) -> BoxCore {
    let flush_bytes = Some(1);
    let cfg = DeploymentConfig {
        fanin,
        flush_bytes,
        ..DeploymentConfig::default()
    };
    let mut core = BoxCore::new(id, &cfg, Instant::now());
    core.flush_due = None;
    core.add_app(APP, Arc::new(Concat), &[]);
    core.add_route(APP, TREE, 100, route);
    core
}

/// Box 0 forwarding to node 100 with the given route (see [`routed_box`]).
fn box_core(fanin: usize, owed: Vec<SourceId>, child_boxes: HashMap<u32, Route>) -> BoxCore {
    let route = Route {
        owed: owed.into_iter().collect(),
        child_boxes: child_boxes.into_iter().collect(),
        ..Route::default()
    };
    routed_box(0, fanin, route)
}

/// Worker 0 of a deployment without boxes, each of its trees re-pointed
/// to the node `dests` names for it, with nothing yet to resend.
fn worker_core(dests: &[NodeId]) -> WorkerCore {
    let cluster = ClusterSpec::single_rack(1, 0).with_trees(dests.len() as u32);
    let specs = build_tree_specs(&cluster);
    let mut core = WorkerCore::new(APP, 0, &specs, TreeSelection::PerRequest);
    for (t, new_parent) in dests.iter().enumerate() {
        let (app, permanent, request, tree) = (APP, true, RequestId(0), TreeId(t as u32));
        let redirect = Message::Redirect {
            app,
            permanent,
            request,
            tree,
            new_parent: *new_parent,
        };
        let step = core.on_message(redirect, Instant::now());
        assert_eq!(step, WorkerStep::Redirected(0));
    }
    core
}

/// What [`run`] takes: a box transition's report, or its work alone.
trait Ran {
    fn split(self) -> (Vec<Work>, bool);
}
impl Ran for Vec<Work> {
    fn split(self) -> (Vec<Work>, bool) {
        (self, false)
    }
}
impl Ran for BoxStep {
    fn split(self) -> (Vec<Work>, bool) {
        (self.work, !self.completed.is_empty())
    }
}

/// Run a box transition's combines inline, each output fed back as the
/// core input it is, until none is left: the payload of the final chunk,
/// if a request completed.
fn run(core: &mut BoxCore, step: impl Ran) -> Option<Bytes> {
    let (mut work, mut done) = step.split();
    while let Some(w) = work.pop() {
        if let Work::Combine(c) = w {
            let step = core.combined(c.key, combine(&*c.agg, c.items));
            done |= !step.completed.is_empty();
            work.extend(step.work);
        }
    }
    done.then(|| final_chunk(core))
}

/// The payload of the newest final chunk in a box's outbox, left queued.
fn final_chunk(core: &mut BoxCore) -> Bytes {
    let mut queued = VecDeque::new();
    core.outbox.drain(&mut queued);
    let last = queued.iter().rev().find_map(|e| match &e.msg {
        Message::Data {
            last: true,
            payload,
            ..
        } => Some(payload.clone()),
        _ => None,
    });
    core.outbox.post(queued);
    last.expect("a completion queues its final chunk")
}

/// Chunk `seq` of `request` from `source`, valued `payload`.
fn data_msg(request: u64, source: SourceId, (seq, last): (u32, bool), payload: u8) -> Message {
    let (ctx, sent_ns, payload) = (TraceCtx::NONE, 0, Bytes::copy_from_slice(&[payload]));
    let (app, request, tree) = (APP, RequestId(request), TREE);
    Message::Data {
        app,
        request,
        tree,
        source,
        seq,
        last,
        ctx,
        sent_ns,
        payload,
    }
}

/// Feed one chunk from `source` to a box core at time `now`, its combines
/// run inline: `None` if it was dropped, else the final chunk's payload if
/// it completed the request.
fn box_data(
    core: &mut BoxCore,
    request: u64,
    source: SourceId,
    seq_last: (u32, bool),
    payload: u8,
    now: Instant,
) -> Option<Option<Bytes>> {
    let step = core.on_message(data_msg(request, source, seq_last, payload), now);
    (!step.dropped).then(|| run(core, step))
}

/// A permanent redirect of `app`'s [`TREE`] to `new_parent`.
fn repoint(app: AppId, new_parent: NodeId) -> Message {
    let (permanent, request, tree) = (true, RequestId(0), TREE);
    Message::Redirect {
        app,
        permanent,
        request,
        tree,
        new_parent,
    }
}

/// A `Data` message's sequence number and payload.
fn chunk(msg: &Message) -> (u32, Bytes) {
    let Message::Data { seq, payload, .. } = msg else {
        panic!("not a data chunk: {msg:?}");
    };
    (*seq, payload.clone())
}

/// The sequence numbers and destinations of what a box core queued.
fn dests(core: &mut BoxCore) -> Vec<(u32, NodeId)> {
    let out = sent(core);
    out.iter().map(|e| (chunk(&e.msg).0, e.to)).collect()
}

/// Everything a core queued since the last call, in send order: what its
/// shell's drain would send next.
fn sent(core: &mut impl Node) -> Vec<Emit> {
    let mut out = VecDeque::new();
    core.outbox().drain(&mut out);
    out.into()
}

/// Retained output of one request, as resent after a redirect.
#[derive(Debug, PartialEq)]
struct Resend {
    request: RequestId,
    /// Chunk `i` carried sequence number `i`.
    chunks: Vec<Bytes>,
    /// The final chunk carried `last`.
    finished: bool,
}

/// The chunks a redirect resent to `to`, per request.
fn resent(to: NodeId, sends: Vec<Emit>) -> Vec<Resend> {
    let mut out: Vec<Resend> = Vec::new();
    for Emit { to: dest, msg, .. } in sends {
        let Message::Data {
            request,
            seq,
            last,
            payload,
            ..
        } = msg
        else {
            panic!("a resend is data: {msg:?}");
        };
        assert_eq!(dest, to);
        if out.last().is_none_or(|r| r.request != request) {
            out.push(Resend {
                request,
                chunks: Vec::new(),
                finished: false,
            });
        }
        let r = out.last_mut().unwrap();
        assert!(
            !r.finished && seq as usize == r.chunks.len(),
            "{request:?} {seq}"
        );
        r.chunks.push(payload);
        r.finished = last;
    }
    out
}

/// (a) A replayed chunk arriving after the request was delivered and
/// reaped neither resurrects a pending entry nor completes it twice.
#[test]
fn replay_after_delivery_does_not_resurrect_the_request() {
    let specs = build_tree_specs(&ClusterSpec::single_rack(2, 0)); // workers send directly
    let mut core = MasterCore::new(APP, &specs, &DeploymentConfig::default());
    let (req, now) = (RequestId(9), Instant::now());
    let chunk = |core: &mut MasterCore, w: u32| {
        let step = core.on_message(data_msg(req.0, SourceId::Worker(w), (1, true), 0), now);
        (!step.dropped).then_some(step.closed.is_some())
    };
    assert!(!core.register(req, 2, None, now));
    assert_eq!(chunk(&mut core, 0), Some(false));
    assert!(matches!(core.take_completed(req), Taken::Pending));
    assert_eq!(chunk(&mut core, 1), Some(true));
    let Taken::Done(delivery) = core.take_completed(req) else {
        panic!("both workers ended");
    };
    assert_eq!(delivery.inputs.len(), 2);
    // Worker 0 replays (its box was re-pointed after the fact).
    assert_eq!(
        chunk(&mut core, 0),
        None,
        "a delivered request stays delivered"
    );
    assert!(core.fanin.requests.is_empty(), "no resurrected entry");
    assert!(matches!(core.take_completed(req), Taken::NotRegistered));
}

/// (a) Registering an id again while it is remembered as delivered opens
/// no state: every chunk for it would be dropped, so its waiter would
/// otherwise wait for the reap. It finds the id not registered at once.
#[test]
fn registering_a_delivered_id_again_is_refused() {
    let specs = build_tree_specs(&ClusterSpec::single_rack(1, 0)); // one direct worker
    let mut core = MasterCore::new(APP, &specs, &DeploymentConfig::default());
    let (req, now) = (RequestId(4), Instant::now());
    assert!(!core.register(req, 1, None, now));
    let step = core.on_message(data_msg(req.0, SourceId::Worker(0), (1, true), 0), now);
    assert_eq!(step.closed, Some(req));
    assert!(matches!(core.take_completed(req), Taken::Done(_)));
    assert!(!core.register(req, 1, None, now), "nothing completes it");
    assert!(core.fanin.requests.is_empty(), "no state opened");
    assert_eq!(core.next_deadline(), None, "nothing left to reap");
    assert!(matches!(core.take_completed(req), Taken::NotRegistered));
}

/// (b) A box that emitted its aggregate, then learns its parent died,
/// resends exactly its retained window with the original sequence numbers
/// — `last` only on a finished request — and sends the open request's
/// final chunk to the new parent.
#[test]
fn permanent_redirect_resends_the_retained_window() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(2, workers, HashMap::new());
    let now = Instant::now();
    let data = |core: &mut _, request, worker| {
        box_data(core, request, SourceId::Worker(worker), (1, true), 0, now)
    };
    // Request 1 runs to completion and leaves for node 100.
    assert_eq!(data(&mut core, 1, 0), Some(None));
    let closed = data(&mut core, 1, 1).flatten();
    assert_eq!(closed.as_ref().map(Bytes::len), Some(2));
    let done = closed.unwrap_or_default();
    assert_eq!(dests(&mut core), [(0, 100)]);
    // Request 2 is still open but has streamed one partial.
    assert_eq!(data(&mut core, 2, 0), Some(None));
    core.flush();
    let flushed = sent(&mut core);
    let (seq, _) = chunk(&flushed[0].msg);
    assert_eq!((flushed.len(), seq, flushed[0].to), (1, 0, 100));
    // Request 3 is open and has emitted nothing: nothing to resend.
    assert_eq!(data(&mut core, 3, 0), Some(None));

    core.redirect(APP, true, RequestId(0), TREE, 200, now);
    let mut resends = resent(200, sent(&mut core));
    resends.sort_by_key(|r| r.request);
    let want = |request, chunk: &Bytes, finished| Resend {
        request: RequestId(request),
        chunks: vec![chunk.clone()],
        finished,
    };
    let expected = vec![
        want(1, &done, true),
        want(2, &chunk(&flushed[0].msg).1, false),
    ];
    assert_eq!(resends, expected);
    // The open request's final chunk follows under the next sequence
    // number, to the new parent; a repeated redirect changes nothing.
    assert!(data(&mut core, 2, 1).flatten().is_some());
    assert_eq!(dests(&mut core), [(1, 200)]);
    core.redirect(APP, true, RequestId(0), TREE, 200, now);
    let again = resent(200, sent(&mut core));
    assert!(again
        .iter()
        .all(|r| r.finished && r.request != RequestId(3)));
}

/// One application's traffic through a shared agg box must not cost
/// another its recovery state. Found as a soak-style flake: the master
/// shims detect a dead root box independently, the first application
/// re-pointed resumes at full rate, and a box window shared across
/// applications had forgotten the slower one's in-flight outputs by the
/// time its redirect arrived — those requests then waited forever.
#[test]
fn a_busy_tenant_cannot_evict_another_tenants_retained_output() {
    let (slow, busy, tree) = (AppId(0), AppId(1), TreeId(0));
    let mut core = BoxCore::new(0, &DeploymentConfig::default(), Instant::now());
    let out = Bytes::from_static(b"aggregate");
    // The slow tenant's request left for a parent that then died…
    core.complete((slow, RequestId(7), tree), out.clone());
    // …and before its redirect arrives, the busy tenant (already
    // re-pointed) completes far more requests than any window retains.
    for r in 0..10_000 {
        core.complete((busy, RequestId(r), tree), out.clone());
    }
    // The resends of a permanent redirect of `app`'s tree.
    let resent = |core: &mut BoxCore, app, tree| {
        core.redirect(app, true, RequestId(0), tree, 200, Instant::now());
        resent(200, sent(core))
    };
    let resends = resent(&mut core, slow, tree);
    let want = Resend {
        request: RequestId(7),
        chunks: vec![out],
        finished: true,
    };
    assert_eq!(resends, vec![want]);
    // The busy tenant's own window is still bounded.
    assert!(resent(&mut core, busy, tree).len() <= 64);
}

/// (a') The same at a box: a speculative backup's copy (or a replay)
/// arriving after the request completed and left is dropped and opens no
/// second request, which nobody would ever close.
#[test]
fn a_copy_arriving_after_completion_does_not_resurrect_the_request_at_a_box() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(2, workers, HashMap::new());
    let now = Instant::now();
    let data =
        |core: &mut _, worker| box_data(core, 4, SourceId::Worker(worker), (1, true), 0, now);
    assert_eq!(data(&mut core, 0), Some(None));
    assert!(data(&mut core, 1).flatten().is_some());
    assert_eq!(
        data(&mut core, 0),
        None,
        "a completed request stays completed"
    );
    assert!(core.fanin.requests.is_empty(), "no resurrected entry");
    // A later request is unaffected.
    assert_eq!(
        box_data(&mut core, 5, SourceId::Worker(0), (1, true), 0, now),
        Some(None)
    );
}

/// A combine that fails abandons its request: nothing goes upstream, a
/// replayed chunk for it is dropped and the report names the failure. A
/// combine coming back for a request that is gone — failed, or dropped at
/// shutdown — changes nothing.
#[test]
fn a_failed_combine_abandons_its_request() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(2, workers, HashMap::new());
    let now = Instant::now();
    let key = |r| (APP, RequestId(r), TREE);
    let data = |core: &mut BoxCore, r, w| {
        core.on_message(data_msg(r, SourceId::Worker(w), (1, true), 0), now)
    };
    assert!(data(&mut core, 1, 0).work.is_empty());
    let closing = data(&mut core, 1, 1);
    assert!(matches!(&closing.work[..], [Work::Combine(c)] if c.key == key(1)));
    let bad = AggError::Corrupt("bad partial".into());
    let step = core.combined(key(1), Err(bad));
    let failed =
        |k| matches!(&step.work[..], [Work::Failed(f, None, AggError::Corrupt(_))] if *f == k);
    assert!(failed(key(1)), "the report names the failure");
    assert!(sent(&mut core).is_empty(), "nothing goes upstream");
    assert!(core.fanin.requests.is_empty());
    assert!(data(&mut core, 1, 1).dropped, "a replayed chunk is dropped");
    // Request 2 is open when its state goes, as at shutdown.
    assert!(data(&mut core, 2, 0).work.is_empty());
    core.fanin.requests.drain().for_each(drop);
    for r in [1, 2] {
        let late = core.combined(key(r), Ok(Bytes::from_static(&[0, 0])));
        assert!(late.work.is_empty(), "request {r}");
        assert!(core
            .combined(key(r), Err(AggError::Timeout))
            .work
            .is_empty());
    }
    assert!(sent(&mut core).is_empty() && core.fanin.requests.is_empty());
}

/// With streaming flushes, a pass while a combine is in flight sends
/// nothing, though an item waits beside it; once the combine is back, the
/// next pass sends the one partial, numbered before the final chunk.
#[test]
fn a_flush_pass_waits_for_the_combine_in_flight() {
    let mut core = box_core(2, vec![SourceId::Worker(0)], HashMap::new());
    let now = Instant::now();
    let data = |core: &mut BoxCore, seq, last| {
        core.on_message(
            data_msg(1, SourceId::Worker(0), (seq, last), seq as u8),
            now,
        )
    };
    assert!(data(&mut core, 1, false).work.is_empty());
    let in_flight = data(&mut core, 2, false).work;
    assert!(matches!(&in_flight[..], [Work::Combine(c)] if c.items.len() == 2));
    assert!(data(&mut core, 3, false).work.is_empty());
    assert!(core.flush().is_empty());
    assert!(
        sent(&mut core).is_empty(),
        "a pass while a combine is in flight"
    );
    assert_eq!(run(&mut core, in_flight), None);
    assert!(core.flush().is_empty());
    let flushed: Vec<_> = sent(&mut core).iter().map(|e| chunk(&e.msg)).collect();
    assert_eq!(flushed, [(0, Bytes::from_static(&[3, 1, 2]))]);
    let step = data(&mut core, 4, true);
    assert_eq!(run(&mut core, step), Some(Bytes::from_static(&[4])));
    let last: Vec<_> = sent(&mut core).iter().map(|e| chunk(&e.msg).0).collect();
    assert_eq!(last, [1], "the final chunk follows the partial");
}

/// (d) Two readers deliver one request's chunks: the last chunk on one
/// against earlier chunks on the other, in every interleaving. The final
/// chunk always holds every accepted partial, and is produced exactly
/// once.
#[test]
fn a_close_never_overtakes_a_partial_on_another_reader() {
    // Reader A carries worker 0's only chunk; reader B worker 1's three.
    let b = [(1, 1, false), (1, 2, false), (1, 3, true)];
    let now = Instant::now();
    for a_at in 0..=b.len() {
        let mut chunks = b.to_vec();
        chunks.insert(a_at, (0, 1, true));
        let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
        let mut core = box_core(2, workers, HashMap::new());
        let mut closed = None;
        for (i, (worker, seq, last)) in chunks.iter().enumerate() {
            let source = SourceId::Worker(*worker);
            let close = box_data(&mut core, 5, source, (*seq, *last), 0, now).expect("fresh");
            if let Some(chunk) = close {
                assert!(closed.replace(chunk).is_none(), "closed twice");
                assert_eq!(i + 1, chunks.len(), "closed before the last arrival");
            }
        }
        assert_eq!(closed.map(|chunk| chunk.len()), Some(chunks.len()));
        let replay = box_data(&mut core, 5, SourceId::Worker(1), (3, true), 0, now);
        assert_eq!(replay, None, "closed: replays drop");
    }
}

/// A worker that completes every request it sent on tracks none.
#[test]
fn completing_every_request_returns_the_tracked_count_to_zero() {
    let mut core = worker_core(&[7]);
    for r in 0..200 {
        let x = Bytes::from_static(b"x");
        core.next_chunk((RequestId(r), TREE), x, true, None)
            .unwrap();
        let out = sent(&mut core);
        assert_eq!((out[0].to, chunk(&out[0].msg).0), (7, 1));
    }
    assert_eq!(core.tracked(), 64, "the replay window's bound");
    (0..200).for_each(|r| core.forget(RequestId(r)));
    assert_eq!(core.tracked(), 0);
    let step = core.on_message(repoint(APP, 9), Instant::now());
    assert_eq!(step, WorkerStep::Redirected(0));
    assert!(sent(&mut core).is_empty());
    assert_eq!(core.dest(TREE), Some(9));
}

// --- (e): time is an input — deadlines through the cores ---

const REQ: RequestId = RequestId(7);

const DETECTOR: DetectorConfig = DetectorConfig {
    interval: Duration::from_millis(30),
    timeout: Duration::from_millis(60),
    misses: 2,
};

/// A two-level chain: box 0 (workers 0 and 1) is the root, box 1 (workers
/// 2 and 3) its child. The node under test owes box 0 alone.
fn chain() -> Vec<TreeSpec> {
    build_tree_specs(&ClusterSpec::multi_rack(2, 2, 1))
}

/// Box 2 above [`chain`]'s box 0: the master's route, at a box.
fn box_above_chain(specs: &[TreeSpec]) -> BoxCore {
    routed_box(2, 2, Route::of(&specs[0], APP, Parent::Master))
}

/// `source`'s final chunk of [`REQ`] reaches a fan-in core — a box core or
/// the master core — at `now`: whether it was taken. It completes nothing.
fn take<N: Node<Report = Step<P, R>>, P, R>(node: &mut N, source: SourceId, now: Instant) -> bool {
    let step = node.on_message(data_msg(REQ.0, source, (1, true), 1), now);
    assert!(step.work.is_empty() && step.completed.is_empty());
    !step.dropped
}

/// A fan-in core's timer fires at `now`: what the firing reports, and
/// everything it queued. It completes nothing.
fn fire<N: Node<Report = Step<P, R>>, P, R>(
    node: &mut N,
    now: Instant,
) -> (Fired<P, R>, Vec<Emit>) {
    let step = node.on_timer(now);
    assert!(step.work.is_empty() && step.completed.is_empty());
    (step.fired.expect("a fan-in firing reports"), sent(node))
}

/// Whether a fan-in request has state and is still open.
fn open<P: Copy + Eq + Hash, X>(q: Option<&Request<P, X>>) -> bool {
    q.is_some_and(|q| !q.closed)
}

/// The shape that would busy-loop a timer thread: a request past its
/// threshold whose straggler has been bypassed keeps no deadline in the
/// past — only its reap's; and a firing before the deadline changes
/// nothing. At a box and at the master alike; every message a firing sends
/// names the node.
fn nothing_left_to_bypass<N, P, R: Copy>(mut node: N, at: NodeId, open: impl Fn(&N) -> bool)
where
    N: Node<Report = Step<P, R>>,
{
    let t0 = Instant::now();
    assert_eq!(node.next_deadline(), None, "no clock started");
    // Worker 0's chunk (ahead of any redirect) starts the clock.
    assert!(take(&mut node, SourceId::Worker(0), t0));
    assert_eq!(node.next_deadline(), Some(t0 + THRESHOLD));
    let (early, sends) = fire(&mut node, t0 + THRESHOLD - Duration::from_nanos(1));
    assert!(early.is_empty() && sends.is_empty());
    assert_eq!(
        node.next_deadline(),
        Some(t0 + THRESHOLD),
        "nothing changed"
    );
    let (due, sends) = fire(&mut node, t0 + THRESHOLD);
    let bypasses = due.scan.map_or(0, |s| s.bypasses.len());
    assert_eq!(
        (bypasses, sends.len()),
        (1, 3),
        "box 0's three children told"
    );
    for e in &sends {
        let Message::Redirect { new_parent, .. } = e.msg else {
            panic!("a bypass sends redirects: {e:?}");
        };
        assert_eq!(new_parent, at, "{e:?}");
    }
    let reap = Some(t0 + REQUEST_TTL);
    assert_eq!(
        node.next_deadline(),
        reap,
        "bypassed: nothing left to wait for"
    );
    assert!(open(&node), "workers 1 to 3 are still owed");
    let (late, sends) = fire(&mut node, t0 + THRESHOLD * 9);
    assert!(late.is_empty() && sends.is_empty());
}

#[test]
fn a_request_with_nothing_left_to_bypass_yields_no_deadline() {
    let specs = chain();
    let mut master = MasterCore::new(APP, &specs, &DeploymentConfig::default());
    master.fanin.straggler = Some(StragglerPolicy::new(THRESHOLD));
    let mut aggbox = box_above_chain(&specs);
    aggbox.fanin.straggler = Some(StragglerPolicy::new(THRESHOLD));
    let at = aggbox.fanin.addr;
    nothing_left_to_bypass(aggbox, at, |b| {
        open(b.fanin.requests.get(&(APP, REQ, TREE)))
    });
    let at = master.fanin.addr;
    nothing_left_to_bypass(master, at, |m| open(m.fanin.requests.get(&REQ)));
}

/// A broadcast follows the routes, at the master and at a box alike: one
/// copy per direct child, and once a child box has failed, one to each of
/// its children in its place — down a chain of failures too.
#[test]
fn a_broadcast_reaches_a_failed_child_boxs_children_in_its_place() {
    let specs = chain();
    let copies = |sends: Vec<Emit>| {
        assert!(sends
            .iter()
            .all(|e| matches!(e.msg, Message::Broadcast { .. })));
        let mut to: Vec<NodeId> = sends.into_iter().map(|e| e.to).collect();
        to.sort_unstable();
        to
    };
    let children = |workers: &[u32], boxes: &[u32]| {
        let workers = workers.iter().map(|w| worker_addr(APP, *w));
        let mut to: Vec<NodeId> = workers.chain(boxes.iter().map(|b| box_addr(*b))).collect();
        to.sort_unstable();
        to
    };
    let payload = Bytes::from_static(b"params");
    let mut master = MasterCore::new(APP, &specs, &DeploymentConfig::default());
    let broadcast = |master: &mut MasterCore| {
        master.broadcast(REQ, payload.clone());
        copies(sent(master))
    };
    assert_eq!(broadcast(&mut master), children(&[], &[0]));
    assert!(master.fanin.child_box_failed(TREE, 0).is_some());
    assert_eq!(broadcast(&mut master), children(&[0, 1], &[1]));
    assert!(master.fanin.child_box_failed(TREE, 1).is_some());
    assert_eq!(broadcast(&mut master), children(&[0, 1, 2, 3], &[]));

    // Box 0 itself, replicating what it is sent down to box 1 until box 1
    // fails.
    let mut root = BoxCore::new(0, &DeploymentConfig::default(), Instant::now());
    root.add_app(APP, Arc::new(Concat), &specs);
    let (app, request, tree) = (APP, REQ, TREE);
    let msg = Message::Broadcast {
        app,
        request,
        tree,
        payload,
    };
    let broadcast = |root: &mut BoxCore| {
        root.on_message(msg.clone(), Instant::now());
        copies(sent(root))
    };
    assert_eq!(broadcast(&mut root), children(&[0, 1], &[1]));
    assert!(root.fanin.child_box_failed((APP, TREE), 1).is_some());
    assert_eq!(broadcast(&mut root), children(&[0, 1, 2, 3], &[]));
}

/// A chunk past a sequence gap is still accepted, and recorded for the
/// shell to report, at a box and at the master alike. A source's first
/// chunk is never a gap, however high its number: a worker's retained
/// window can start above 0.
#[test]
fn a_sequence_gap_is_accepted_and_reported() {
    let (now, w) = (Instant::now(), SourceId::Worker(0));
    let mut aggbox = box_core(2, vec![w], HashMap::new());
    let mut gaps = Vec::new();
    for (seq, last) in [(3, false), (4, false), (6, true)] {
        let step = aggbox.on_message(data_msg(1, w, (seq, last), 0), now);
        assert!(!step.dropped, "accepted");
        gaps.push(step.gaps);
    }
    let key = (APP, RequestId(1), TREE);
    assert_eq!(gaps, [vec![], vec![], vec![(key, w)]]);

    let specs = build_tree_specs(&ClusterSpec::single_rack(1, 0));
    let mut master = MasterCore::new(APP, &specs, &DeploymentConfig::default());
    master.register(REQ, 1, None, now);
    let mut chunk = |seq, last| master.on_message(data_msg(REQ.0, w, (seq, last), 0), now);
    assert!(chunk(1, false).gaps.is_empty());
    let step = chunk(3, true);
    assert_eq!(
        (step.closed, step.gaps),
        (Some(REQ), vec![(REQ, w)]),
        "accepted"
    );
}

// --- (g): backpressure and the detector ---

/// (g) A box over its outbox bound holds its readers back, and they read
/// its children's acks: an ack time-out then is no miss, however long the
/// backlog lasts. Once drained, a silent child is failed exactly once, on
/// `misses` time-outs that fell after the drain.
#[test]
fn a_backlogged_box_fails_no_child_until_it_drains() {
    let specs = chain();
    let t0 = Instant::now();
    let mut aggbox = box_above_chain(&specs);
    aggbox.fanin.detector.enable(DETECTOR, t0);
    let payload = Bytes::new();
    let copy = (
        box_addr(9),
        Message::Broadcast {
            app: APP,
            request: REQ,
            tree: TREE,
            payload,
        },
    );
    aggbox.outbox.post(vec![copy; OUTBOX_BOUND + 1]);
    assert!(!aggbox.outbox.has_live(), "broadcasts are queued");
    assert!(aggbox.outbox.backlogged());
    let held = (DETECTOR.interval + DETECTOR.timeout) * DETECTOR.misses * 4;
    let mut now = t0;
    while now < t0 + held {
        now += DETECTOR.interval / 2;
        let fired = aggbox.on_timer(now).fired.unwrap();
        assert!(
            fired.dead.is_empty(),
            "declared at {:?} while held",
            now - t0
        );
    }
    let drained = now;
    assert!(sent(&mut aggbox).len() > OUTBOX_BOUND);
    let mut declared = Vec::new();
    // Until the adopted box 1, silent too, has gone the same way.
    while let Some(next) = aggbox.next_deadline().filter(|t| *t < drained + held) {
        now = next;
        let fired = aggbox.on_timer(now).fired.unwrap();
        declared.extend(fired.dead.iter().map(|b| (*b, now)));
    }
    let zero: Vec<_> = declared.iter().filter(|(b, _)| *b == 0).collect();
    assert_eq!(zero.len(), 1, "{declared:?}");
    // Its `misses` time-outs all fell after the drain, a round apart.
    let misses_after = drained + DETECTOR.interval * (DETECTOR.misses - 1);
    assert!(
        zero[0].1 >= misses_after,
        "failed on a time-out that fell while held"
    );
    let mut boxes: Vec<u32> = declared.iter().map(|(b, _)| *b).collect();
    boxes.sort_unstable();
    boxes.dedup();
    assert_eq!(
        boxes.len(),
        declared.len(),
        "a box failed twice: {declared:?}"
    );
}

// --- (h): one contract over every core ---

/// The [`Node`] contract, one body for every core: an idle core has no
/// deadline and an empty outbox, whatever it is configured to do; a
/// message for another application, or of a kind the node never handles,
/// queues nothing and opens no request state; once `arm` gave it something
/// to do, a firing before the deadline changes nothing; and once the first
/// message it then sends has failed, `failed` holds, given that deadline.
fn conforms<N: Node>(
    mut node: N,
    open: impl Fn(&N) -> usize,
    ignored: [Message; 2],
    arm: impl FnOnce(&mut N, Instant),
    failed: impl FnOnce(&N, &Emit, Option<Instant>),
) {
    let t0 = Instant::now();
    assert_eq!(node.next_deadline(), None, "an idle core has no deadline");
    assert!(sent(&mut node).is_empty(), "an idle core sends nothing");
    for msg in ignored {
        node.on_message(msg.clone(), t0);
        assert!(sent(&mut node).is_empty(), "{msg:?} queued something");
        assert_eq!(open(&node), 0, "{msg:?} opened request state");
    }
    arm(&mut node, t0);
    let due = node.next_deadline();
    if let Some(due) = due {
        node.on_timer(due - Duration::from_nanos(1));
        assert!(sent(&mut node).is_empty(), "fired early");
        assert_eq!(node.next_deadline(), Some(due), "an early firing moved it");
        node.on_timer(due);
    }
    let out = sent(&mut node);
    let first = out.first().expect("armed: something to send");
    node.send_failed(first.to, &first.msg);
    failed(&node, first, due);
}

#[test]
fn every_core_keeps_the_node_contract() {
    let (specs, other, t) = (chain(), AppId(9), Instant::now());
    let mut foreign = data_msg(REQ.0, SourceId::Worker(0), (1, true), 1);
    if let Message::Data { app, .. } = &mut foreign {
        *app = other;
    }
    let ack = Message::HeartbeatAck { from: 0, nonce: 9 };
    let probe = Message::Heartbeat { from: 1, nonce: 1 };
    let policy = Some(StragglerPolicy::new(THRESHOLD));
    // A leaf box has nothing to bypass or probe: an open request starts
    // the flush tick, and only that; a failed send of the partial the
    // flush streams changes nothing.
    let mut leaf = box_core(2, vec![SourceId::Worker(0)], HashMap::new());
    (leaf.fanin.straggler, leaf.flush_due) = (policy, Some(t));
    leaf.fanin.detector.enable(DETECTOR, t);
    conforms(
        leaf,
        |b| b.fanin.requests.len(),
        [foreign.clone(), ack.clone()],
        |b, t0| {
            let opened = box_data(b, 1, SourceId::Worker(0), (1, false), 0, t0);
            assert_eq!((opened, b.next_deadline()), (Some(None), Some(t)));
        },
        |b, e, due| {
            assert_eq!(chunk(&e.msg), (0, Bytes::from_static(&[0])));
            assert_eq!(b.next_deadline(), due.map(|t| t + FLUSH_TICK));
        },
    );
    // Above a child box, a probe that could not be sent is missed at once.
    let missed = |next: Option<Instant>, e: &Emit, due| {
        assert!(matches!(e.msg, Message::Heartbeat { .. }), "{e:?}");
        assert_eq!(next, due, "missed as it left");
    };
    conforms(
        box_above_chain(&specs),
        |b| b.fanin.requests.len(),
        [foreign.clone(), ack],
        |b, t0| b.fanin.detector.enable(DETECTOR, t0),
        |b, e, due| missed(b.next_deadline(), e, due),
    );
    conforms(
        MasterCore::new(APP, &specs, &DeploymentConfig::default()),
        |m| m.fanin.requests.len(),
        [foreign, probe.clone()],
        |m, t0| m.fanin.detector.enable(DETECTOR, t0),
        |m, e, due| missed(m.next_deadline(), e, due),
    );
    // With no child box, the master has no deadline however configured.
    let flat = build_tree_specs(&ClusterSpec::single_rack(2, 0));
    let mut master = MasterCore::new(APP, &flat, &DeploymentConfig::default());
    master.fanin.straggler = policy;
    master.fanin.detector.enable(DETECTOR, t);
    master.register(REQ, 2, None, t);
    let reap = Some(t + REQUEST_TTL);
    assert_eq!(master.next_deadline(), reap, "no box: the reap alone");
    // A worker's chunk whose send failed stays retained (DESIGN.md §8).
    conforms(
        worker_core(&[7]),
        WorkerCore::tracked,
        [repoint(other, 9), probe],
        |w, _| {
            let x = Bytes::from_static(b"x");
            w.next_chunk((REQ, TREE), x, true, None).unwrap();
        },
        |w, e, _| assert_eq!(w.retained(REQ), vec![(e.to, e.msg.clone())]),
    );
}

// --- (h): every request ends — completed, failed or reaped ---

/// Fire a box core's timer at `now`: the keys it reaped, its combines run.
fn reap(core: &mut BoxCore, now: Instant) -> Vec<(AppId, RequestId, TreeId)> {
    let mut step = core.on_timer(now);
    let fired = step.fired.take().expect("a box firing reports");
    assert_eq!(run(core, step), None, "a firing completes nothing here");
    fired.reaped.iter().map(|(key, _)| *key).collect()
}

/// A box request one source never ends is reaped by the box's own timer
/// one [`REQUEST_TTL`] after it opened: no deadline earlier, nothing sent
/// upstream, no deadline after; the silent source's late final chunk is
/// dropped and opens nothing.
#[test]
fn a_box_reaps_a_request_whose_source_went_silent() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(2, workers, HashMap::new());
    let (t0, key) = (Instant::now(), (APP, RequestId(1), TREE));
    assert_eq!(
        box_data(&mut core, 1, SourceId::Worker(0), (1, true), 7, t0),
        Some(None)
    );
    let due = t0 + REQUEST_TTL;
    assert_eq!(core.next_deadline(), Some(due));
    assert!(reap(&mut core, due - Duration::from_nanos(1)).is_empty());
    assert_eq!(reap(&mut core, due), [key]);
    assert!(core.fanin.requests.is_empty() && sent(&mut core).is_empty());
    assert_eq!(core.next_deadline(), None, "nothing open, nothing due");
    let late = box_data(&mut core, 1, SourceId::Worker(1), (1, true), 8, due);
    assert_eq!(late, None, "a late chunk is dropped");
    assert!(core.fanin.requests.is_empty(), "and re-opens nothing");
}

/// A request a `RequestMeta` opened has no straggler clock, and ends
/// too; one opened half a TTL later survives that reap and ends at the
/// next — between one and two TTLs after it opened.
#[test]
fn a_box_reaps_a_request_only_its_metadata_opened() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(2, workers.clone(), HashMap::new());
    let t0 = Instant::now();
    let (app, tree, ctx) = (APP, TREE, TraceCtx::NONE);
    let meta = |request, sources| Message::RequestMeta {
        app,
        request,
        tree,
        sources,
        ctx,
    };
    assert!(core
        .on_message(meta(RequestId(2), workers), t0)
        .closed
        .is_none());
    assert_eq!(
        core.fanin.requests[&(APP, RequestId(2), TREE)].started,
        None
    );
    let later = t0 + REQUEST_TTL / 2;
    assert_eq!(
        box_data(&mut core, 3, SourceId::Worker(0), (1, true), 1, later),
        Some(None)
    );
    assert_eq!(
        reap(&mut core, t0 + REQUEST_TTL),
        [(APP, RequestId(2), TREE)]
    );
    let next = t0 + REQUEST_TTL * 2;
    assert_eq!(
        core.next_deadline(),
        Some(next),
        "re-armed while one is open"
    );
    assert_eq!(reap(&mut core, next), [(APP, RequestId(3), TREE)]);
    assert_eq!(core.next_deadline(), None);
    let late = core.on_message(meta(RequestId(2), vec![SourceId::Worker(0)]), next);
    assert!(late.closed.is_none() && core.fanin.requests.is_empty());
}

/// A combine still in flight when its request is reaped comes back to
/// nothing: no completion, no next combine, nothing sent.
#[test]
fn a_combine_in_flight_at_the_reap_is_harmless() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(2, workers, HashMap::new());
    let (t0, key) = (Instant::now(), (APP, RequestId(4), TREE));
    let data = |core: &mut BoxCore, seq| {
        let msg = data_msg(4, SourceId::Worker(0), (seq, false), seq as u8);
        core.on_message(msg, t0).work
    };
    assert!(data(&mut core, 1).is_empty());
    let in_flight = data(&mut core, 2);
    assert!(matches!(&in_flight[..], [Work::Combine(c)] if c.key == key));
    assert_eq!(reap(&mut core, t0 + REQUEST_TTL), [key]);
    for out in [Ok(Bytes::from_static(&[1, 2])), Err(AggError::Timeout)] {
        let step = core.combined(key, out);
        assert!(step.work.is_empty() && step.completed.is_empty());
    }
    assert_eq!(run(&mut core, in_flight), None);
    assert!(sent(&mut core).is_empty() && core.fanin.requests.is_empty());
}

/// A request that ends unfinished — reaped, or its combine failed —
/// leaves its key in the emitted window but no output: a permanent
/// redirect resends none of the partials it streamed, least of all as the
/// final chunk a new parent would close the box's entry on.
#[test]
fn an_abandoned_request_resends_no_partial_as_final() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(2, workers, HashMap::new());
    let t0 = Instant::now();
    let data = |core: &mut BoxCore, r, seq| {
        let msg = data_msg(r, SourceId::Worker(0), (seq, false), seq as u8);
        core.on_message(msg, t0).work
    };
    for r in [1, 2] {
        assert!(data(&mut core, r, 1).is_empty());
        let work = core.flush();
        assert_eq!(run(&mut core, work), None);
    }
    assert_eq!(sent(&mut core).len(), 2, "each streamed a partial");
    assert!(data(&mut core, 2, 2).is_empty());
    let in_flight = data(&mut core, 2, 3);
    let [Work::Combine(c)] = &in_flight[..] else {
        panic!("a combine of request 2");
    };
    let failed = core.combined(c.key, Err(AggError::Corrupt("bad partial".into())));
    assert!(matches!(&failed.work[..], [Work::Failed(..)]));
    assert_eq!(
        reap(&mut core, t0 + REQUEST_TTL),
        [(APP, RequestId(1), TREE)]
    );
    core.redirect(APP, true, RequestId(0), TREE, 200, t0 + REQUEST_TTL);
    assert!(sent(&mut core).is_empty(), "nothing resent");
}

/// A master request never waited on ends by the same rule, open or
/// complete: `take_completed` then finds nothing, and a late chunk is
/// dropped as a delivered one is.
#[test]
fn the_master_reaps_a_request_never_waited_on() {
    let specs = build_tree_specs(&ClusterSpec::single_rack(2, 0));
    let mut core = MasterCore::new(APP, &specs, &DeploymentConfig::default());
    let t0 = Instant::now();
    let chunk = |core: &mut MasterCore, r, w, now| {
        let step = core.on_message(data_msg(r, SourceId::Worker(w), (1, true), 0), now);
        (!step.dropped).then_some(step.closed.is_some())
    };
    assert!(!core.register(RequestId(1), 2, None, t0));
    assert!(!core.register(RequestId(2), 2, None, t0));
    assert_eq!(chunk(&mut core, 2, 0, t0), Some(false));
    assert_eq!(
        chunk(&mut core, 2, 1, t0),
        Some(true),
        "complete, never taken"
    );
    assert_eq!(core.next_deadline(), Some(t0 + REQUEST_TTL));
    let fired = core.on_timer(t0 + REQUEST_TTL).fired.expect("a firing");
    let mut reaped: Vec<_> = fired.reaped.iter().map(|(r, _)| r.0).collect();
    reaped.sort_unstable();
    assert_eq!(reaped, [1, 2]);
    assert_eq!(core.next_deadline(), None);
    for r in [1, 2] {
        assert!(matches!(
            core.take_completed(RequestId(r)),
            Taken::NotRegistered
        ));
        assert_eq!(chunk(&mut core, r, 1, t0 + REQUEST_TTL), None, "{r}");
    }
    assert!(core.fanin.requests.is_empty(), "no resurrected entry");
}

/// Down [`chain`]: worker 3 never ends, so box 1 never ends, so box 0
/// never does, and the master never completes. Each node reaps the request
/// on its own timer, and each drops the late chunk that follows.
#[test]
fn every_node_of_a_chain_reaps_a_request_below_a_dead_worker() {
    let specs = chain();
    let t0 = Instant::now();
    let chain_box = |b: u32| {
        let mut core = BoxCore::new(b, &DeploymentConfig::default(), t0);
        core.add_app(APP, Arc::new(Concat), &specs);
        core
    };
    let (mut box1, mut box0) = (chain_box(1), chain_box(0));
    let mut master = MasterCore::new(APP, &specs, &DeploymentConfig::default());
    master.register(REQ, 4, None, t0);
    assert!(take(&mut box1, SourceId::Worker(2), t0));
    assert!(take(&mut box0, SourceId::Worker(0), t0));
    assert!(take(&mut box0, SourceId::Worker(1), t0));
    let at_box = |b: &BoxCore| open(b.fanin.requests.get(&(APP, REQ, TREE)));
    reaps_once(&mut box1, at_box, SourceId::Worker(3), t0);
    reaps_once(&mut box0, at_box, SourceId::Box(1), t0);
    reaps_once(
        &mut master,
        |m| open(m.fanin.requests.get(&REQ)),
        SourceId::Box(0),
        t0,
    );
}

/// One node of [`every_node_of_a_chain_reaps_a_request_below_a_dead_worker`]:
/// open, due at the reap, reaped by it with nothing sent, and a `late`
/// chunk after it dropped.
fn reaps_once<N, P, R: Copy>(node: &mut N, open: impl Fn(&N) -> bool, late: SourceId, t0: Instant)
where
    N: Node<Report = Step<P, R>>,
{
    assert!(open(node));
    assert_eq!(node.next_deadline(), Some(t0 + REQUEST_TTL));
    let (fired, sends) = fire(node, t0 + REQUEST_TTL);
    assert_eq!((fired.reaped.len(), sends.len()), (1, 0));
    assert_eq!((open(node), node.next_deadline()), (false, None));
    assert!(!take(node, late, t0 + REQUEST_TTL), "{late:?}");
    assert_eq!(
        (open(node), node.next_deadline()),
        (false, None),
        "{late:?}"
    );
}

/// A per-request redirect is the request's own state: one arriving before
/// the request's first data still routes its output, and one arriving
/// after it finished only resends, leaving nothing behind.
#[test]
fn a_bypass_redirect_lives_and_ends_with_its_request() {
    let mut core = box_core(2, vec![SourceId::Worker(0)], HashMap::new());
    let now = Instant::now();
    let bypass = |core: &mut BoxCore, r| core.redirect(APP, false, RequestId(r), TREE, 300, now);
    let data = |core: &mut BoxCore, r| box_data(core, r, SourceId::Worker(0), (1, true), 5, now);
    bypass(&mut core, 1);
    assert!(sent(&mut core).is_empty(), "nothing to resend yet");
    assert!(data(&mut core, 1).flatten().is_some());
    assert_eq!(dests(&mut core), [(0, 300)], "the final chunk follows it");
    assert!(data(&mut core, 2).flatten().is_some());
    assert_eq!(dests(&mut core), [(0, 100)], "the next request does not");
    bypass(&mut core, 2);
    assert_eq!(resent(300, sent(&mut core)).len(), 1, "resent");
    assert!(
        core.fanin.requests.is_empty(),
        "no state outlives the request"
    );
}

/// A worker numbers each tree's chunks of a request on their own, as each
/// receiver's ledger keys them: chunks interleaved over two trees arrive
/// consecutive on each. A stream's counter ends at its `last`.
#[test]
fn a_workers_chunks_are_consecutive_on_each_tree() {
    let mut core = worker_core(&[7, 8]);
    for (tree, last) in [
        (0, false),
        (1, false),
        (1, false),
        (0, false),
        (0, true),
        (1, true),
    ] {
        core.next_chunk((REQ, TreeId(tree)), Bytes::new(), last, None)
            .unwrap();
    }
    let out = sent(&mut core);
    let numbered: Vec<_> = out.iter().map(|e| (e.to, chunk(&e.msg).0)).collect();
    assert_eq!(numbered, [(7, 1), (8, 1), (8, 2), (7, 2), (7, 3), (8, 3)]);
    core.next_chunk((REQ, TreeId(0)), Bytes::new(), true, None)
        .unwrap();
    assert_eq!(chunk(&sent(&mut core)[0].msg).0, 1, "a new stream");
}
