//! The recovery protocol driven through the pure cores: no thread, no
//! transport, no sleep. Each test is an ordering the threaded system only
//! meets when a soak happens to schedule it.

use bytes::Bytes;
use netagg_core::aggbox::core::{BoxCore, Emit, PartialSink, ReqKey, FLUSH_TICK, OUTBOX_BOUND};
use netagg_core::failure::{DetectorConfig, DetectorCore};
use netagg_core::fanin::{Fired, Route};
use netagg_core::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use netagg_core::shim::master_core::{MasterCore, Taken};
use netagg_core::shim::worker_core::WorkerCore;
use netagg_core::shim::TreeSelection;
use netagg_core::straggler::StragglerPolicy;
use netagg_core::tree::{
    box_addr, build_tree_specs, master_addr, worker_addr, ClusterSpec, RackSpec, TreeSpec,
};
use netagg_core::{AggError, AggWrapper, AggregationFunction};
use netagg_net::{DetRng, NodeId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: AppId = AppId(0);
const TREE: TreeId = TreeId(0);
const THRESHOLD: Duration = Duration::from_millis(50);

/// The reference sink: a request's partials in arrival order.
#[derive(Clone, Default, Debug, PartialEq)]
struct Collect(Vec<Bytes>);

impl PartialSink for Collect {
    fn push(&mut self, payload: Bytes) {
        self.0.push(payload);
    }
}

struct Concat;
impl AggregationFunction for Concat {
    type Item = Vec<u8>;
    fn deserialize(&self, b: &Bytes) -> Result<Vec<u8>, AggError> {
        Ok(b.to_vec())
    }
    fn serialize(&self, v: &Vec<u8>) -> Bytes {
        Bytes::from(v.clone())
    }
    fn aggregate(&self, items: Vec<Vec<u8>>) -> Vec<u8> {
        items.concat()
    }
    fn empty(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// A box core forwarding to node 100 with the given route.
fn box_core(owed: Vec<SourceId>, child_boxes: HashMap<u32, Route>) -> BoxCore<Collect> {
    let mut core = BoxCore::default();
    core.add_app(APP, Arc::new(AggWrapper::new(Concat)));
    let route = Route {
        owed: owed.into_iter().collect(),
        child_boxes,
        ..Route::default()
    };
    core.add_route(APP, TREE, 100, route);
    core
}

/// Feed one chunk from `source` to a box core at time `now`.
fn box_data(
    core: &mut BoxCore<Collect>,
    request: u64,
    source: SourceId,
    (seq, last): (u32, bool),
    payload: u8,
    now: Instant,
) -> Option<Option<Collect>> {
    let key: ReqKey = (APP, RequestId(request), TREE);
    let payload = Bytes::copy_from_slice(&[payload]);
    let new = |_: &_| (Collect::default(), None);
    core.accept_data(key, source, seq, last, payload, now, new)
}

/// A `Data` message's sequence number and payload.
fn chunk(msg: &Message) -> (u32, Bytes) {
    let Message::Data { seq, payload, .. } = msg else {
        panic!("not a data chunk: {msg:?}");
    };
    (*seq, payload.clone())
}

/// An output chunk's sequence number and destination.
fn seq_dest(emit: &Emit) -> (u32, NodeId) {
    (chunk(&emit.msg).0, emit.to)
}

/// Everything a box core queued since the last call, oldest first: what
/// its timer thread would send next.
fn sent(core: &mut BoxCore<Collect>) -> Vec<Emit> {
    let mut out = VecDeque::new();
    core.drain_outbox(&mut out);
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
    let mut core = MasterCore::new(APP, &specs, TreeSelection::PerRequest);
    let (req, now) = (RequestId(9), Instant::now());
    let chunk = |core: &mut MasterCore, w: u32| {
        let payload = Bytes::from_static(b"p");
        core.accept_data(
            req,
            TREE,
            SourceId::Worker(w),
            1,
            true,
            payload,
            now,
            || None,
        )
    };
    assert!(!core.register(req, 2, None, now, Duration::from_secs(600), || None));
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

/// (b) A box that emitted its aggregate, then learns its parent died,
/// resends exactly its retained window with the original sequence numbers
/// — `last` only on a finished request — and sends the open request's
/// final chunk to the new parent.
#[test]
fn permanent_redirect_resends_the_retained_window() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(workers, HashMap::new());
    let now = Instant::now();
    let data = |core: &mut _, request, worker| {
        box_data(core, request, SourceId::Worker(worker), (1, true), 0, now)
    };
    // Request 1 runs to completion and leaves for node 100.
    assert_eq!(data(&mut core, 1, 0), Some(None));
    let closed = data(&mut core, 1, 1).flatten();
    assert_eq!(closed.map(|sink| sink.0.len()), Some(2));
    let done = Bytes::from_static(b"agg-1");
    core.complete((APP, RequestId(1), TREE), done.clone());
    assert_eq!(
        sent(&mut core).iter().map(seq_dest).collect::<Vec<_>>(),
        [(0, 100)]
    );
    // Request 2 is still open but has streamed one partial.
    assert_eq!(data(&mut core, 2, 0), Some(None));
    core.flush(|sink| sink.0.pop());
    let flushed = sent(&mut core);
    assert_eq!(flushed.len(), 1);
    assert_eq!(seq_dest(&flushed[0]), (0, 100));
    // Request 3 is open and has emitted nothing: nothing to resend.
    assert_eq!(data(&mut core, 3, 0), Some(None));

    core.redirect(APP, true, RequestId(0), TREE, 200);
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
    core.complete((APP, RequestId(2), TREE), Bytes::from_static(b"agg-2"));
    assert_eq!(
        sent(&mut core).iter().map(seq_dest).collect::<Vec<_>>(),
        [(1, 200)]
    );
    core.redirect(APP, true, RequestId(0), TREE, 200);
    let again = resent(200, sent(&mut core));
    assert!(again
        .iter()
        .all(|r| r.finished && r.request != RequestId(3)));
}

/// (a') The same at a box: a speculative backup's copy (or a replay)
/// arriving after the request completed and left is dropped and opens no
/// second request, which nobody would ever close.
#[test]
fn a_copy_arriving_after_completion_does_not_resurrect_the_request_at_a_box() {
    let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
    let mut core = box_core(workers, HashMap::new());
    let now = Instant::now();
    let data =
        |core: &mut _, worker| box_data(core, 4, SourceId::Worker(worker), (1, true), 0, now);
    assert_eq!(data(&mut core, 0), Some(None));
    assert!(data(&mut core, 1).flatten().is_some());
    core.complete((APP, RequestId(4), TREE), Bytes::from_static(b"agg-4"));
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

/// (d) Two readers deliver one request's chunks: the last chunk on one
/// against earlier chunks on the other, in every interleaving. The sink
/// handed out for closing always holds every accepted partial, and is
/// handed out exactly once.
#[test]
fn a_close_never_overtakes_a_partial_on_another_reader() {
    // Reader A carries worker 0's only chunk; reader B worker 1's three.
    let b = [(1, 1, false), (1, 2, false), (1, 3, true)];
    let now = Instant::now();
    for a_at in 0..=b.len() {
        let mut chunks = b.to_vec();
        chunks.insert(a_at, (0, 1, true));
        let workers = vec![SourceId::Worker(0), SourceId::Worker(1)];
        let mut core = box_core(workers, HashMap::new());
        let mut closed = None;
        for (i, (worker, seq, last)) in chunks.iter().enumerate() {
            let source = SourceId::Worker(*worker);
            let close = box_data(&mut core, 5, source, (*seq, *last), 0, now).expect("fresh");
            if let Some(sink) = close {
                assert!(closed.replace(sink).is_none(), "closed twice");
                assert_eq!(i + 1, chunks.len(), "closed before the last arrival");
            }
        }
        assert_eq!(closed.map(|sink| sink.0.len()), Some(chunks.len()));
        let replay = box_data(&mut core, 5, SourceId::Worker(1), (3, true), 0, now);
        assert_eq!(replay, None, "closed: replays drop");
    }
}

/// A worker that completes every request it sent on tracks none.
#[test]
fn completing_every_request_returns_the_tracked_count_to_zero() {
    let mut core = WorkerCore::new(APP, 0, HashMap::from([(TREE, 7)]));
    for r in 0..200 {
        let sent = core.next_chunk(RequestId(r), TREE, Bytes::from_static(b"x"), true);
        let (dest, msg) = sent.unwrap();
        assert_eq!((dest, chunk(&msg).0), (7, 1));
    }
    assert_eq!(core.tracked(), 200);
    (0..200).for_each(|r| core.forget(RequestId(r)));
    assert_eq!(core.tracked(), 0);
    assert!(core.redirect(true, RequestId(0), TREE, 9).is_empty());
    assert_eq!(core.dest(TREE), Some(9));
}

// --- (c): the same event sequences through a box core and the master core ---

const REQ: RequestId = RequestId(7);

/// What a fan-in node did with one event.
#[derive(Default)]
struct Step {
    /// `Moved` ledger transitions.
    moved: usize,
    /// The request completed; the payloads that reached the combiner.
    done: Option<Vec<Bytes>>,
}

/// A fan-in node owing `{Box(0), Worker(2)}`, with workers 0 and 1 behind
/// box 0: a box core or the master core.
trait Node {
    fn data(&mut self, source: SourceId, payload: u8, now: Instant) -> Step;
    fn detector_fires(&mut self) -> Step;
    fn scan(&mut self, now: Instant) -> Step;
}

impl Node for BoxCore<Collect> {
    fn data(&mut self, source: SourceId, payload: u8, now: Instant) -> Step {
        let accepted = box_data(self, REQ.0, source, (1, true), payload, now);
        Step {
            moved: 0,
            done: accepted.flatten().map(|sink| sink.0),
        }
    }
    fn detector_fires(&mut self) -> Step {
        let repoint = self.fanin.child_box_failed((APP, TREE), 0);
        repoint.map_or_else(Step::default, |r| Step {
            moved: r.moved,
            done: self.sinks(&r.closed).pop().map(|sink| sink.0),
        })
    }
    fn scan(&mut self, now: Instant) -> Step {
        let scan = self.fanin.scan_stragglers(now, THRESHOLD, 1);
        let escalated = scan.escalated.iter().map(|(_, _, r)| r.moved);
        Step {
            moved: scan.bypasses.len() + escalated.sum::<usize>(),
            done: self.sinks(&scan.closed).pop().map(|sink| sink.0),
        }
    }
}

/// The master's result once a transition reported the request complete.
fn delivered(core: &mut MasterCore, completed: bool) -> Option<Vec<Bytes>> {
    let Taken::Done(d) = core.take_completed(REQ) else {
        assert!(!completed);
        return None;
    };
    Some(d.inputs)
}

impl Node for MasterCore {
    fn data(&mut self, source: SourceId, payload: u8, now: Instant) -> Step {
        let payload = Bytes::copy_from_slice(&[payload]);
        let accepted = self.accept_data(REQ, TREE, source, 1, true, payload, now, || None);
        Step {
            moved: 0,
            done: delivered(self, accepted == Some(true)),
        }
    }
    fn detector_fires(&mut self) -> Step {
        let repoint = self.fanin.child_box_failed(TREE, 0);
        repoint.map_or_else(Step::default, |r| Step {
            moved: r.moved,
            done: delivered(self, !r.closed.is_empty()),
        })
    }
    fn scan(&mut self, now: Instant) -> Step {
        let scan = self.fanin.scan_stragglers(now, THRESHOLD, 1);
        let escalated = scan.escalated.iter().map(|(_, _, r)| r.moved);
        Step {
            moved: scan.bypasses.len() + escalated.sum::<usize>(),
            done: delivered(self, !scan.closed.is_empty()),
        }
    }
}

/// Rack 0 hosts the master and worker 2 (no box, so it sends directly);
/// rack 1 hosts workers 0 and 1 behind box 0.
fn cluster() -> Vec<TreeSpec> {
    let rack = |workers, boxes| RackSpec { workers, boxes };
    build_tree_specs(&ClusterSpec {
        racks: vec![rack(vec![2], 0), rack(vec![0, 1], 1)],
        master_rack: 0,
        num_trees: 1,
    })
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    /// The failure detector declares box 0 dead.
    Detector,
    /// A straggler scan past the threshold; one strike escalates.
    Scan,
    /// Worker `w` sends (2) or replays (0, 1) its final chunk straight to
    /// this node.
    Worker(u32),
    /// Box 0's own aggregate (workers 0 and 1 folded) arrives.
    BoxAggregate,
}

/// Drive `node` through `events`, check the result against the reference
/// fold and return the total `Moved` transitions.
fn drive(node: &mut dyn Node, events: &[Event], t0: Instant) -> usize {
    let late = t0 + THRESHOLD * 2;
    let (mut moved, mut result) = (0, None);
    for e in events {
        let step = match e {
            Event::Detector => node.detector_fires(),
            Event::Scan => node.scan(late),
            Event::Worker(w) => node.data(SourceId::Worker(*w), 10 + *w as u8, t0),
            Event::BoxAggregate => node.data(SourceId::Box(0), 21, t0),
        };
        moved += step.moved;
        if let Some(inputs) = step.done {
            assert!(result.is_none(), "{events:?}: completed twice");
            result = Some(inputs.iter().map(|b| b[0] as u32).sum::<u32>());
        }
    }
    // Reference fold: workers 0, 1 and 2 contribute 10, 11 and 12, once each.
    assert_eq!(result, Some(33), "{events:?}");
    moved
}

/// (c) Detector firing, straggler escalation and replayed `last` chunks in
/// every order: the same single `Moved` transition and the same exact
/// result at a box and at the master.
#[test]
fn recovery_events_in_any_order_move_obligations_once() {
    use Event::*;
    let specs = cluster();
    let mut rng = DetRng::new(0xFA17);
    let mut shuffled = |mut events: Vec<Event>| {
        for i in (1..events.len()).rev() {
            events.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
        }
        events
    };
    for round in 0..400 {
        // Worker 2's chunk opens the request (and starts the box-side
        // straggler clock) unless the detector beats it. Box 0 either
        // never delivers, delivers before it is declared dead (replays are
        // then duplicates of what it folded in), or its aggregate arrives
        // after the declaration (ignored) — even at a node that first
        // hears of the request after it.
        let recovery = vec![Detector, Scan, Worker(0), Worker(1)];
        let late_box = vec![BoxAggregate, Scan, Worker(0), Worker(1)];
        let (head, tail, want_moved) = match round % 4 {
            0 => (vec![Worker(2)], recovery, Some(1)),
            1 => (vec![Worker(2), BoxAggregate], recovery, Some(0)),
            2 => (vec![Worker(2), Detector], late_box, Some(1)),
            _ => (vec![Detector, Worker(2)], late_box, None),
        };
        let events = [head, shuffled(tail)].concat();
        let t0 = Instant::now();
        let mut master = MasterCore::new(APP, &specs, TreeSelection::PerRequest);
        master.register(REQ, 3, None, t0, Duration::from_secs(600), || None);
        let child = HashMap::from([(0, Route::of_box(&specs[0], APP, 0))]);
        let mut aggbox = box_core(specs[0].master_sources(), child);
        let nodes: [&mut dyn Node; 2] = [&mut aggbox, &mut master];
        for node in nodes {
            let moved = drive(node, &events, t0);
            assert_eq!(want_moved.unwrap_or(moved), moved, "{events:?}");
            assert!(moved <= 1, "{events:?}");
        }
    }
}

// --- (e): time is an input — deadlines and the detector through the cores ---

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

/// A box core above [`chain`]'s box 0.
fn box_above_chain(specs: &[TreeSpec]) -> BoxCore<Collect> {
    let child = HashMap::from([(0, Route::of_box(&specs[0], APP, 0))]);
    box_core(specs[0].master_sources(), child)
}

/// One probe a firing returned.
#[derive(Clone, Debug)]
struct Probe {
    box_id: u32,
    nonce: u64,
    sent: (NodeId, Message),
}

/// What one timer firing did, in the terms both fan-in cores share.
struct Tick {
    probes: Vec<Probe>,
    /// Per box declared dead: its children named for re-pointing, and the
    /// open requests whose ledger the same step re-pointed.
    dead: Vec<(u32, Vec<NodeId>, usize)>,
    bypasses: usize,
    done: Option<Vec<Bytes>>,
    /// Every message the firing returned.
    sends: Vec<(NodeId, Message)>,
}

impl Tick {
    fn of<P, R>(fired: &Fired<P, R>, done: Option<Vec<Bytes>>) -> Self {
        let declared = |b: &u32| {
            let points = || fired.failed.iter().filter(|(_, failed, _)| failed == b);
            let children = points().flat_map(|(_, _, r)| r.sends.iter().map(|(c, _)| *c));
            let repointed = points().map(|(_, _, r)| r.repointed.len());
            (*b, children.collect(), repointed.sum())
        };
        let probe = |(to, msg): &(NodeId, Message)| {
            let Message::Heartbeat { nonce, .. } = msg else {
                panic!("a probe is a heartbeat: {msg:?}");
            };
            let (box_id, nonce) = (to - box_addr(0), *nonce);
            Probe {
                box_id,
                nonce,
                sent: (*to, msg.clone()),
            }
        };
        let failed = fired.failed.iter().flat_map(|(_, _, r)| &r.sends);
        let scanned = fired.scan.iter().flat_map(|s| &s.sends);
        Tick {
            probes: fired.probes.iter().map(probe).collect(),
            dead: fired.dead.iter().map(declared).collect(),
            bypasses: fired.scan.as_ref().map_or(0, |s| s.bypasses.len()),
            done,
            sends: fired
                .probes
                .iter()
                .chain(failed)
                .chain(scanned)
                .cloned()
                .collect(),
        }
    }

    fn is_empty(&self) -> bool {
        self.probes.is_empty() && self.dead.is_empty() && self.bypasses == 0
    }
}

/// The timer face of a fan-in node: the same calls at a box core and at
/// the master core.
trait Timed: Node {
    fn detector(&mut self) -> &mut DetectorCore;
    fn deadline(&self) -> Option<Instant>;
    fn tick(&mut self, now: Instant) -> Tick;
    /// The node's one route: the child boxes it names and what it owes.
    fn route(&self) -> &Route;
    /// Whether the request is open here.
    fn open(&self) -> bool;
}

impl Timed for BoxCore<Collect> {
    fn detector(&mut self) -> &mut DetectorCore {
        &mut self.fanin.detector
    }
    fn deadline(&self) -> Option<Instant> {
        self.next_deadline()
    }
    fn tick(&mut self, now: Instant) -> Tick {
        let fired = self.on_timer(now, |_| None);
        assert!(sent(self).is_empty());
        let done = self.sinks(&fired.closed()).pop().map(|sink| sink.0);
        Tick::of(&fired, done)
    }
    fn route(&self) -> &Route {
        self.fanin.route(&(APP, TREE)).unwrap()
    }
    fn open(&self) -> bool {
        let q = self.fanin.requests.get(&(APP, REQ, TREE));
        q.is_some_and(|q| !q.closed)
    }
}

impl Timed for MasterCore {
    fn detector(&mut self) -> &mut DetectorCore {
        &mut self.fanin.detector
    }
    fn deadline(&self) -> Option<Instant> {
        self.fanin.next_deadline()
    }
    fn tick(&mut self, now: Instant) -> Tick {
        let fired = self.fanin.on_timer(now);
        let done = delivered(self, !fired.closed().is_empty());
        Tick::of(&fired, done)
    }
    fn route(&self) -> &Route {
        self.fanin.route(&TREE).unwrap()
    }
    fn open(&self) -> bool {
        self.fanin.requests.get(&REQ).is_some_and(|q| !q.closed)
    }
}

/// An idle node has no deadline whatever is configured: nothing to flush,
/// nothing to bypass, and nobody to probe without a routed child box.
#[test]
fn an_idle_core_has_no_deadline() {
    let now = Instant::now();
    let mut leaf = box_core(vec![SourceId::Worker(0)], HashMap::new());
    leaf.fanin.straggler = Some(StragglerPolicy::new(THRESHOLD));
    leaf.flush_due = Some(now);
    leaf.fanin.detector.enable(DETECTOR, now);
    assert_eq!(leaf.next_deadline(), None);
    // An open request starts the flush tick, and only that: a leaf has no
    // child box to bypass or probe.
    assert_eq!(
        box_data(&mut leaf, 1, SourceId::Worker(0), (1, false), 0, now),
        Some(None)
    );
    assert_eq!(leaf.next_deadline(), Some(now));
    let fired = leaf.on_timer(now, |_| None);
    assert!(fired.is_empty() && sent(&mut leaf).is_empty());
    assert_eq!(leaf.next_deadline(), Some(now + FLUSH_TICK));

    let specs = build_tree_specs(&ClusterSpec::single_rack(2, 0));
    let mut master = MasterCore::new(APP, &specs, TreeSelection::PerRequest);
    master.fanin.straggler = Some(StragglerPolicy::new(THRESHOLD));
    master.fanin.detector.enable(DETECTOR, now);
    master.register(REQ, 2, None, now, Duration::from_secs(600), || None);
    assert_eq!(master.fanin.next_deadline(), None, "no box, no deadline");
}

/// The shape that would busy-loop a timer thread: a request past its
/// threshold whose straggler has been bypassed keeps no deadline in the
/// past; and a firing before the deadline changes nothing.
#[test]
fn a_request_with_nothing_left_to_bypass_yields_no_deadline() {
    let specs = chain();
    let t0 = Instant::now();
    let mut master = MasterCore::new(APP, &specs, TreeSelection::PerRequest);
    master.fanin.straggler = Some(StragglerPolicy::new(THRESHOLD));
    let mut aggbox = box_above_chain(&specs);
    aggbox.fanin.straggler = Some(StragglerPolicy::new(THRESHOLD));
    let nodes: [&mut dyn Timed; 2] = [&mut aggbox, &mut master];
    for node in nodes {
        assert_eq!(node.deadline(), None, "no clock started");
        // Worker 0's chunk (ahead of any redirect) starts the clock.
        node.data(SourceId::Worker(0), 10, t0);
        assert_eq!(node.deadline(), Some(t0 + THRESHOLD));
        let early = node.tick(t0 + THRESHOLD - Duration::from_nanos(1));
        assert!(early.is_empty() && early.done.is_none());
        assert_eq!(node.deadline(), Some(t0 + THRESHOLD), "nothing changed");
        let due = node.tick(t0 + THRESHOLD);
        assert_eq!(due.bypasses, 1);
        assert_eq!(node.deadline(), None, "bypassed: nothing left to wait for");
        assert!(node.open(), "workers 1 to 3 are still owed");
        assert!(node.tick(t0 + THRESHOLD * 9).is_empty());
    }
}

/// What the drive below may deliver to the node next.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Input {
    /// A box answers a probe, under the probe's nonce or an older one.
    Ack(u32, u64),
    /// A worker's replay, or a box's aggregate, reaches the node.
    Data(SourceId),
}

/// Drive `node` — owing box 0 — through one seeded order of timer firings,
/// acks and data, against a model of the detector kept here: the probe
/// each box owes an ack for, and its consecutive time-outs. Box 0 never
/// answers; box 1's answers (if `leaf_answers`) arrive whenever the order
/// says, in time or not. Nodes send only what a redirect asked for: a
/// worker replays here once its box was declared dead, box 1 delivers here
/// once box 0 was.
fn drive_detector(node: &mut dyn Timed, rng: &mut DetRng, leaf_answers: bool, t0: Instant) {
    let value = |s| match s {
        SourceId::Worker(w) => 10 + w as u8,
        SourceId::Box(b) => [46, 25][b as usize],
    };
    let mut now = t0;
    node.detector().enable(DETECTOR, now);
    // Box 0's own aggregate may be in flight already: before the
    // declaration it is the whole answer, after it it is ignored.
    let mut pool = vec![Input::Data(SourceId::Box(0))];
    let mut owing: HashMap<u32, (u64, Instant)> = HashMap::new();
    let mut misses: HashMap<u32, u32> = HashMap::new();
    let (mut declared, mut result, mut trace) = (Vec::new(), None, Vec::new());
    let mut finish = |done: Option<Vec<Bytes>>, trace: &[Option<Input>]| {
        let Some(inputs) = done else { return };
        let sum = inputs.iter().map(|b| b[0] as u32).sum::<u32>();
        assert!(result.replace(sum).is_none(), "{trace:?}: completed twice");
    };
    let in_flight = |pool: &[Input]| pool.iter().any(|i| matches!(i, Input::Data(_)));
    // `None` in the trace is a timer firing. Run until box 0 is declared
    // and the request done, then a little longer: nothing completes twice.
    let mut overtime = 12;
    while overtime > 0 {
        let settled = declared.contains(&0) && !node.open() && !in_flight(&pool);
        overtime -= usize::from(settled);
        assert!(trace.len() < 400, "{trace:?}: no quiescence");
        let pick = rng.gen_range(0, 2 * pool.len().max(1) as u64) as usize;
        let input = (pick < pool.len()).then(|| pool.swap_remove(pick));
        trace.push(input);
        match input {
            Some(Input::Data(source)) => {
                finish(node.data(source, value(source), now).done, &trace);
            }
            Some(Input::Ack(from, nonce)) => {
                node.detector().ack(from, nonce);
                if owing.get(&from).is_some_and(|(n, _)| *n == nonce) {
                    owing.remove(&from);
                    misses.remove(&from);
                }
            }
            None => {
                let Some(deadline) = node.deadline() else {
                    continue;
                };
                now = deadline;
                let lapsed = owing
                    .iter()
                    .filter(|(_, (_, t))| *t + DETECTOR.timeout <= now);
                let mut due = Vec::new();
                for b in lapsed.map(|(b, _)| *b).collect::<Vec<_>>() {
                    owing.remove(&b);
                    let n = misses.entry(b).or_insert(0);
                    *n += 1;
                    due.extend((*n == DETECTOR.misses).then_some(b));
                }
                let watched: Vec<u32> = node.route().child_boxes.keys().copied().collect();
                let open = node.open();
                let tick = node.tick(now);
                let mut dead: Vec<u32> = tick.dead.iter().map(|d| d.0).collect();
                dead.sort_unstable();
                due.sort_unstable();
                assert_eq!(
                    dead, due,
                    "{trace:?}: `misses` time-outs in a row, no fewer"
                );
                for (b, children, repointed) in &tick.dead {
                    assert!(!declared.contains(b), "{trace:?}: box {b} failed twice");
                    declared.push(*b);
                    // The ledger and the route moved in this very step.
                    assert_eq!(*repointed, usize::from(open), "{trace:?}");
                    assert!(!node.route().child_boxes.contains_key(b));
                    let behind = &chain()[0].children_sources(*b);
                    assert!(behind.iter().all(|s| node.route().owed.contains(s)));
                    assert_eq!(children.len(), behind.len());
                    pool.extend(behind.iter().map(|s| Input::Data(*s)));
                }
                // A round probes every routed box that owes no ack — the
                // boxes adopted from a dead one from the next round on.
                let mut probed: Vec<u32> = tick.probes.iter().map(|p| p.box_id).collect();
                let idle = |b: &u32| !owing.contains_key(b) && !dead.contains(b);
                let mut expect: Vec<u32> = watched.into_iter().filter(idle).collect();
                probed.sort_unstable();
                expect.sort_unstable();
                assert!(probed.is_empty() || probed == expect, "{trace:?}");
                finish(tick.done, &trace);
                assert!(node.tick(now).is_empty(), "{trace:?}: a second firing");
                for p in tick.probes.iter().cloned() {
                    owing.insert(p.box_id, (p.nonce, now));
                    // An older nonce (ignored) races the real ack, if any.
                    pool.push(Input::Ack(p.box_id, p.nonce - 1));
                    if p.box_id == 1 && leaf_answers {
                        pool.push(Input::Ack(p.box_id, p.nonce));
                    } else if rng.gen_range(0, 2) == 0 {
                        // The send failed outright: missed without waiting.
                        node.detector().send_failed(p.sent.0, &p.sent.1);
                        owing.insert(p.box_id, (p.nonce, now - DETECTOR.timeout));
                        assert_eq!(node.deadline(), Some(now), "{trace:?}");
                    }
                }
            }
        }
    }
    assert!(declared.contains(&0), "{trace:?}");
    assert_eq!(result, Some(46), "{trace:?}");
}

/// (e) Probe rounds, acks before and after their time-out, acks under an
/// older nonce, replays and late aggregates in seeded orders: a silent box
/// is failed exactly once, after exactly `misses` unanswered probes, with
/// the ledger moved in the step that names who to redirect; the box it
/// leaves behind is probed — and, if silent too, failed — with no watch
/// list to update; the result is the reference fold, once.
#[test]
fn detector_inputs_in_any_order_fail_each_silent_box_exactly_once() {
    let specs = chain();
    let mut rng = DetRng::new(0xDE7E_C70A);
    for round in 0..400 {
        let t0 = Instant::now();
        let mut master = MasterCore::new(APP, &specs, TreeSelection::PerRequest);
        master.register(REQ, 4, None, t0, Duration::from_secs(600), || None);
        let mut aggbox = box_above_chain(&specs);
        let nodes: [&mut dyn Timed; 2] = [&mut aggbox, &mut master];
        for node in nodes {
            drive_detector(node, &mut rng, round % 2 == 0, t0);
        }
        assert!(master.fanin.route(&TREE).unwrap().failed.contains(&0));
    }
}

/// Every message a fan-in core returns names the node itself: a
/// `Redirect`'s `new_parent` — a straggler bypass's and a failure's — and a
/// `Heartbeat`'s `from` are its own address. A probe that could not be sent
/// is a miss at once: the next firing counts it, and `misses` unsendable
/// probes fail the box before a single ack time-out has run out.
#[test]
fn returned_messages_name_the_node_and_an_unsent_probe_is_a_miss_at_once() {
    let specs = chain();
    let t0 = Instant::now();
    let policy = Some(StragglerPolicy::new(THRESHOLD));
    let mut master = MasterCore::new(APP, &specs, TreeSelection::PerRequest);
    master.fanin.straggler = policy;
    master.register(REQ, 4, None, t0, Duration::from_secs(600), || None);
    let mut aggbox = box_above_chain(&specs);
    (aggbox.fanin.straggler, aggbox.fanin.addr) = (policy, 555);
    let nodes: [(&mut dyn Timed, NodeId); 2] =
        [(&mut aggbox, 555), (&mut master, master_addr(APP))];
    for (node, here) in nodes {
        node.detector().enable(DETECTOR, t0);
        node.data(SourceId::Worker(0), 10, t0);
        let (mut sends, mut declared) = (Vec::new(), None);
        while declared.is_none() {
            let now = node
                .deadline()
                .expect("a probe round, a bypass or a miss is due");
            let tick = node.tick(now);
            for p in &tick.probes {
                node.detector().send_failed(p.sent.0, &p.sent.1);
                assert_eq!(node.deadline(), Some(now), "missed as it left");
            }
            declared = tick.dead.first().map(|_| now);
            sends.extend(tick.sends);
        }
        assert!(declared < Some(t0 + DETECTOR.interval + DETECTOR.timeout));
        let mut redirects = [false; 2];
        for (_, msg) in &sends {
            match msg {
                Message::Redirect {
                    new_parent,
                    permanent,
                    ..
                } => {
                    assert_eq!(*new_parent, here);
                    redirects[usize::from(*permanent)] = true;
                }
                Message::Heartbeat { from, .. } => assert_eq!(*from, here),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(redirects, [true; 2], "a bypass and a failure: {sends:?}");
    }
}

/// A broadcast follows the routes, at the master and at a box alike: one
/// copy per direct child, and once a child box has failed, one to each of
/// its children in its place — down a chain of failures too.
#[test]
fn a_broadcast_reaches_a_failed_child_boxs_children_in_its_place() {
    let specs = chain();
    let copies = |sends: Vec<(NodeId, Message)>| {
        assert!(sends
            .iter()
            .all(|(_, m)| matches!(m, Message::Broadcast { .. })));
        let mut to: Vec<NodeId> = sends.into_iter().map(|(to, _)| to).collect();
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
    let mut master = MasterCore::new(APP, &specs, TreeSelection::PerRequest);
    let broadcast = |master: &MasterCore| copies(master.broadcast(REQ, payload.clone()));
    assert_eq!(broadcast(&master), children(&[], &[0]));
    assert!(master.fanin.child_box_failed(TREE, 0).is_some());
    assert_eq!(broadcast(&master), children(&[0, 1], &[1]));
    assert!(master.fanin.child_box_failed(TREE, 1).is_some());
    assert_eq!(broadcast(&master), children(&[0, 1, 2, 3], &[]));

    // Box 0 itself, replicating down to box 1 until box 1 fails.
    let mut root: BoxCore<Collect> = BoxCore::default();
    root.add_route(APP, TREE, 100, Route::of_box(&specs[0], APP, 0));
    let point = (APP, TREE);
    let broadcast =
        |root: &BoxCore<Collect>| copies(root.fanin.broadcast(point, REQ, payload.clone()));
    assert_eq!(broadcast(&root), children(&[0, 1], &[1]));
    assert!(root.fanin.child_box_failed(point, 1).is_some());
    assert_eq!(broadcast(&root), children(&[0, 1, 2, 3], &[]));
}

/// A chunk past a sequence gap is still accepted, and recorded for the
/// shell to report, at a box and at the master alike. A source's first
/// chunk is never a gap, however high its number: a worker's retained
/// window can start above 0.
#[test]
fn a_sequence_gap_is_accepted_and_reported() {
    let (now, w) = (Instant::now(), SourceId::Worker(0));
    let mut aggbox = box_core(vec![w], HashMap::new());
    assert_eq!(box_data(&mut aggbox, 1, w, (3, false), 0, now), Some(None));
    assert_eq!(box_data(&mut aggbox, 1, w, (4, false), 0, now), Some(None));
    assert!(aggbox.fanin.gaps.is_empty(), "{:?}", aggbox.fanin.gaps);
    let closed = box_data(&mut aggbox, 1, w, (6, true), 0, now).flatten();
    assert_eq!(closed.map(|sink| sink.0.len()), Some(3), "accepted");
    assert_eq!(aggbox.fanin.gaps, [((APP, RequestId(1), TREE), w)]);

    let specs = build_tree_specs(&ClusterSpec::single_rack(1, 0));
    let mut master = MasterCore::new(APP, &specs, TreeSelection::PerRequest);
    master.register(REQ, 1, None, now, Duration::from_secs(600), || None);
    let payload = Bytes::from_static(b"p");
    let mut chunk = |seq, last| {
        let payload = payload.clone();
        master.accept_data(REQ, TREE, w, seq, last, payload, now, || None)
    };
    assert_eq!(chunk(1, false), Some(false));
    assert_eq!(chunk(3, true), Some(true), "accepted");
    assert_eq!(master.fanin.gaps, [(REQ, w)]);
}

// --- (f): the outbox — box output leaves in the order it was numbered ---

/// One step of [`outbox_order_drive`].
#[derive(Clone, Copy, Debug)]
enum Step2 {
    /// Worker 0 sends request `r` a chunk; its last one closes `r`.
    Chunk(u64, bool),
    /// A streaming-flush pass.
    Flush,
    /// A closed request's local aggregation finishes.
    Complete(u64),
    /// A straggler bypass upstream: `r`'s output goes elsewhere.
    Bypass(u64),
    /// The parent died: every request's output goes elsewhere.
    Repoint,
}

/// Drive a box core through one seeded order of worker chunks, flush
/// passes, completions, per-request redirects and permanent ones, with the
/// timer thread's drain of the outbox at seeded points between steps.
/// Returns the wire in send order and every request's worker bytes.
fn outbox_order_drive(rng: &mut DetRng) -> (Vec<Emit>, HashMap<u64, Vec<u8>>) {
    const REQUESTS: u64 = 4;
    let mut core = box_core(vec![SourceId::Worker(0)], HashMap::new());
    let now = Instant::now();
    let (mut wire, mut next_node, mut trace) = (Vec::new(), 200, Vec::new());
    let mut input: HashMap<u64, Vec<u8>> = HashMap::new();
    let (mut closed, mut done) = (Vec::new(), Vec::new());
    // Every pending partial, concatenated: what a flush or the final
    // aggregate carries.
    let take = |sink: &mut Collect| {
        let bytes: Vec<u8> = sink.0.drain(..).flat_map(|b| b.to_vec()).collect();
        (!bytes.is_empty()).then(|| Bytes::from(bytes))
    };
    while done.len() < REQUESTS as usize {
        let r = rng.gen_range(0, REQUESTS);
        let step = match rng.gen_range(0, 8) {
            0..=2 if !closed.contains(&r) => Step2::Chunk(r, rng.gen_range(0, 4) == 0),
            3 => Step2::Flush,
            4 | 5 if closed.contains(&r) && !done.contains(&r) => Step2::Complete(r),
            6 => Step2::Bypass(r),
            7 if rng.gen_range(0, 4) == 0 => Step2::Repoint,
            _ => continue,
        };
        trace.push(step);
        match step {
            Step2::Chunk(r, last) => {
                let bytes = input.entry(r).or_default();
                let seq = bytes.len() as u32 + 1;
                bytes.push((r * 50) as u8 + seq as u8);
                let sent = box_data(
                    &mut core,
                    r,
                    SourceId::Worker(0),
                    (seq, last),
                    bytes[seq as usize - 1],
                    now,
                );
                assert_eq!(sent.is_some_and(|close| close.is_some()), last, "{trace:?}");
                closed.extend(last.then_some(r));
            }
            Step2::Flush => core.flush(take),
            Step2::Complete(r) => {
                let key = (APP, RequestId(r), TREE);
                let mut sink = core.sinks(&[key]).pop().expect("closed, not completed");
                core.complete(key, take(&mut sink).unwrap_or_default());
                done.push(r);
            }
            Step2::Bypass(r) => core.redirect(APP, false, RequestId(r), TREE, next_node),
            Step2::Repoint => core.redirect(APP, true, RequestId(0), TREE, next_node),
        }
        next_node += 1;
        if rng.gen_range(0, 2) == 0 {
            wire.extend(sent(&mut core));
        }
    }
    wire.extend(sent(&mut core));
    (wire, input)
}

/// (f) Flush passes, completions, a per-request redirect and a permanent
/// one in seeded orders, the outbox drained at seeded points: every
/// destination sees each request's output chunks in strictly increasing
/// order, with at most one `last` and nothing after it; and some
/// destination got all of them — every worker byte exactly once, one
/// `last`, on the final chunk.
#[test]
fn box_output_leaves_each_destination_in_numbering_order() {
    let mut rng = DetRng::new(0x0B0C_5EED);
    for round in 0..400 {
        let (wire, input) = outbox_order_drive(&mut rng);
        let mut streams: HashMap<_, Vec<(u32, bool, Bytes)>> = HashMap::new();
        for Emit { to, msg, .. } in &wire {
            let Message::Data {
                request,
                seq,
                last,
                payload,
                ..
            } = msg
            else {
                panic!("round {round}: only data leaves here: {msg:?}");
            };
            let stream = streams.entry((*to, *request)).or_default();
            if let Some((prev, ended, _)) = stream.last() {
                assert!(
                    !ended && *seq > *prev,
                    "round {round}: {to} {request:?} {seq} after {prev}"
                );
            }
            stream.push((*seq, *last, payload.clone()));
        }
        for (r, bytes) in &input {
            let whole = streams
                .iter()
                .filter(|((_, req), _)| *req == RequestId(*r))
                .any(|(_, s)| {
                    let numbered = s.iter().enumerate().all(|(i, (seq, last, _))| {
                        *seq as usize == i && *last == (i + 1 == s.len())
                    });
                    let joined: Vec<u8> = s.iter().flat_map(|(_, _, p)| p.to_vec()).collect();
                    numbered && s.last().is_some_and(|c| c.1) && joined == *bytes
                });
            assert!(
                whole,
                "round {round}: request {r} never reached one parent whole: {streams:?}"
            );
        }
    }
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
    assert!(
        aggbox.post(vec![copy; OUTBOX_BOUND + 1]).is_empty(),
        "broadcasts are queued"
    );
    assert!(aggbox.backlogged());
    assert!(
        aggbox.next_deadline() <= Some(Instant::now()),
        "queued output is due now"
    );
    let held = (DETECTOR.interval + DETECTOR.timeout) * DETECTOR.misses * 4;
    let mut now = t0;
    while now < t0 + held {
        now += DETECTOR.interval / 2;
        let fired = aggbox.on_timer(now, |_| None);
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
        let fired = aggbox.on_timer(now, |_| None);
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
