//! The recovery protocol driven through the pure cores: no thread, no
//! transport, no sleep. Each test is an ordering the threaded system only
//! meets when a soak happens to schedule it.

use bytes::Bytes;
use netagg_core::aggbox::core::{BoxCore, PartialSink, ReqKey, Resend};
use netagg_core::fanin::Route;
use netagg_core::protocol::{AppId, RequestId, SourceId, TreeId};
use netagg_core::shim::master_core::{MasterCore, Taken};
use netagg_core::shim::worker_core::WorkerCore;
use netagg_core::shim::TreeSelection;
use netagg_core::tree::{build_tree_specs, ClusterSpec, RackSpec, TreeSpec};
use netagg_core::{AggError, AggWrapper, AggregationFunction};
use netagg_net::DetRng;
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
