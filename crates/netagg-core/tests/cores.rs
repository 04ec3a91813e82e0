//! The recovery protocol driven through the pure cores: no thread, no
//! transport, no sleep. Each test is an ordering the threaded system only
//! meets when a soak happens to schedule it.

use bytes::Bytes;
use netagg_core::aggbox::core::{BoxCore, PartialSink, ReqKey, Resend, FLUSH_TICK};
use netagg_core::failure::{DetectorConfig, DetectorCore, Probe};
use netagg_core::fanin::{Fired, Route};
use netagg_core::protocol::{AppId, RequestId, SourceId, TreeId};
use netagg_core::shim::master_core::{MasterCore, Taken};
use netagg_core::shim::worker_core::WorkerCore;
use netagg_core::shim::TreeSelection;
use netagg_core::straggler::StragglerPolicy;
use netagg_core::tree::{build_tree_specs, ClusterSpec, RackSpec, TreeSpec};
use netagg_core::{AggError, AggWrapper, AggregationFunction};
use netagg_net::{DetRng, NodeId};
use std::collections::HashMap;
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
    let emit = core.complete((APP, RequestId(1), TREE), done.clone());
    assert_eq!((emit.seq, emit.dest), (0, Some(100)));
    // Request 2 is still open but has streamed one partial.
    assert_eq!(data(&mut core, 2, 0), Some(None));
    let flushed = core.flush(|sink| sink.0.pop());
    assert_eq!(flushed.len(), 1);
    assert_eq!((flushed[0].0.seq, flushed[0].0.dest), (0, Some(100)));
    // Request 3 is open and has emitted nothing: nothing to resend.
    assert_eq!(data(&mut core, 3, 0), Some(None));

    let mut resends = core.redirect(APP, true, RequestId(0), TREE, 200);
    resends.sort_by_key(|r| r.request);
    let want = |request, chunk: &Bytes, finished| Resend {
        request: RequestId(request),
        chunks: vec![chunk.clone()],
        finished,
    };
    let expected = vec![want(1, &done, true), want(2, &flushed[0].1, false)];
    assert_eq!(resends, expected);
    // The open request's final chunk follows under the next sequence
    // number, to the new parent; a repeated redirect changes nothing.
    assert!(data(&mut core, 2, 1).flatten().is_some());
    let emit = core.complete((APP, RequestId(2), TREE), Bytes::from_static(b"agg-2"));
    assert_eq!((emit.seq, emit.dest), (1, Some(200)));
    let again = core.redirect(APP, true, RequestId(0), TREE, 200);
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
    let mut core = WorkerCore::new(HashMap::from([(TREE, 7)]));
    for r in 0..200 {
        let sent = core.next_chunk(RequestId(r), TREE, Bytes::from_static(b"x"), true);
        let (dest, chunk) = sent.unwrap();
        assert_eq!((dest, chunk.seq), (7, 1));
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

/// What one timer firing did, in the terms both fan-in cores share.
struct Tick {
    probes: Vec<Probe>,
    /// Per box declared dead: its children named for re-pointing, and the
    /// open requests whose ledger the same step re-pointed.
    dead: Vec<(u32, Vec<NodeId>, usize)>,
    bypasses: usize,
    done: Option<Vec<Bytes>>,
}

impl Tick {
    fn of<P, R>(fired: &Fired<P, R>, done: Option<Vec<Bytes>>) -> Self {
        let declared = |b: &u32| {
            let points = || fired.failed.iter().filter(|(_, failed, _)| failed == b);
            let children = points().flat_map(|(_, _, r)| r.children.clone()).collect();
            let repointed = points().map(|(_, _, r)| r.repointed.len());
            (*b, children, repointed.sum())
        };
        Tick {
            probes: fired.probes.clone(),
            dead: fired.dead.iter().map(declared).collect(),
            bypasses: fired.scan.as_ref().map_or(0, |s| s.bypasses.len()),
            done,
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
        let (flushed, fired) = self.on_timer(now, |_| None);
        assert!(flushed.is_empty());
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
    let (flushed, fired) = leaf.on_timer(now, |_| None);
    assert!(flushed.is_empty() && fired.is_empty());
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
                for p in &tick.probes {
                    owing.insert(p.box_id, (p.nonce, now));
                    // An older nonce (ignored) races the real ack, if any.
                    pool.push(Input::Ack(p.box_id, p.nonce - 1));
                    if p.box_id == 1 && leaf_answers {
                        pool.push(Input::Ack(p.box_id, p.nonce));
                    } else if rng.gen_range(0, 2) == 0 {
                        // The send failed outright: missed without waiting.
                        node.detector().unsent(&[*p], now);
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
