//! The `World`: a whole deployment's protocol cores in one thread, on a
//! virtual clock, under a seeded schedule (DESIGN.md §8).
//!
//! [`World::new`] builds every core of a [`ScenarioSpec`]'s topology with
//! its own constructor — the boxes, and per application a master and its
//! workers — from the tree specs and the spec's one `DeploymentConfig`, as
//! a deployment does. Each link is a FIFO queue. A seeded [`DetRng`] picks
//! every step, uniformly, among what can move: a delivery; the drain of a
//! node's outbox into its links, so that an outbox holds the output of any
//! number of transitions, as a shell's does; a combine, run by
//! `tree::combine` and fed back through `BoxCore::combined`; a due timer,
//! which drains as a shell's timer does; an application event. And the
//! faults: the spec's box kills, a send to a dead node that fails rather
//! than being lost, and on odd seeds a delay (the clock jumps to the next
//! deadline with messages in flight). Otherwise the clock jumps to the
//! earliest deadline only when nothing can move, and never while an
//! application event is pending.
//!
//! Each step is checked (see [`World::apply`]). A run is its list of
//! [`Event`]s: [`explore`] reports a failing seed with a greedily
//! minimised list, which [`World::replay`] runs again. The cores act in
//! key order and the World sends in outbox order, so a seed alone repeats
//! a run in any process.

use crate::runner::{aggregator, app_stream, expected_result, worker_payload};
use crate::spec::{Impairment, ScenarioSpec, SyntheticKind, Workload};
use bytes::Bytes;
use netagg_core::aggbox::core::{BoxCore, BoxRequest, BoxStep, Combine, ReqKey, Work};
use netagg_core::aggbox::tree::combine;
use netagg_core::failure::DetectorCore;
use netagg_core::fanin::{FanInCore, Fired, Point, REQUEST_TTL};
use netagg_core::node::{Emit, Node, Step};
use netagg_core::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use netagg_core::shim::master_core::{MasterCore, MasterRequest, MasterStep, Taken};
use netagg_core::shim::worker_core::WorkerCore;
use netagg_core::shim::TreeSelection;
use netagg_core::tree::{box_addr, build_tree_specs, master_addr, worker_addr};
use netagg_core::DynAggregator;
use netagg_net::hash::{Map, Set};
use netagg_net::{DetRng, NodeId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest jump a seeded delay makes: far short of a waiter's patience
/// or a reap, so a delay slows a request down but cannot end it.
const MAX_DELAY: Duration = Duration::from_secs(1);

/// A request at a node, `(application, request, tree)`; at a master the
/// tree is 0 except where it names a point.
type Key = (AppId, RequestId, TreeId);

/// A check's verdict: its kind, a colon, the details.
type Checked<T = ()> = Result<T, String>;

/// One step of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// App `a` issues its next request, answered by worker 0 alone if set.
    Issue(usize, bool),
    /// Worker `w` of app `a` sends its part of request `r`.
    Send(usize, u64, u32),
    /// The head of the link `from → to` arrives.
    Deliver(NodeId, NodeId),
    /// The message at the head of the link `from → to`, to a dead node,
    /// could not be sent.
    FailSend(NodeId, NodeId),
    /// A node's outbox leaves for its links, in the order it drains.
    Drain(NodeId),
    /// The oldest combine of a request comes back to its box.
    Combine(NodeId, ReqKey),
    /// A node's timer fires, the clock moved to its deadline if later, and
    /// its outbox drains.
    Timer(NodeId),
    /// App `a`'s oldest waiter gives up, at its deadline.
    GiveUp(usize),
    /// The clock jumps ahead with everything in flight left in flight.
    Delay(Duration),
    /// A node dies: it steps no more, and what is sent to it is lost.
    Kill(NodeId),
}

/// Why [`World::new`] refuses a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refused {
    /// This application is a search or map-reduce workload: no closed form.
    Workload(String),
    /// A partition or a straggler storm: the World's faults are kills,
    /// delays and failed sends.
    Impairment(String),
    /// The spec kills boxes but arms no failure detector.
    NoDetector,
}

/// What a run counted.
#[derive(Debug, Clone, Default)]
pub struct WorldReport {
    /// Requests issued.
    pub issued: u64,
    /// Requests delivered, each exact and once.
    pub delivered: u64,
    /// Requests given up on because a worker they need was killed, or a
    /// delay outlasted their waiter.
    pub failures: u64,
    /// Requests given up on that a known limit of the protocol strands,
    /// each by what happened to it: a straggler bypass moved it onto a box
    /// below the bypassed one, which nobody probes, or its obligation moved
    /// off a box failed while alive (re-points are one-way). Any other
    /// request given up on is a violation.
    pub stranded: u64,
    /// Requests the boxes and masters reaped.
    pub reaped: u64,
    /// Boxes declared dead, once per declaring node.
    pub detections: u64,
    /// Boxes a node failed for good while they were alive: escalations of
    /// a straggler, verdicts of a detector a delay made late.
    pub live_verdicts: u64,
    /// Permanent redirects sent.
    pub repoints: u64,
    /// The impairments applied, worded as the scenario runner words them.
    pub impairments_applied: Vec<String>,
    /// The most per-request state one core held, read at every delivery:
    /// requests open at a box or master, requests a worker retains replay
    /// for just after one was delivered, and a worker's open sequence streams.
    pub peak: [usize; 3],
    /// Virtual time the run took.
    pub elapsed: Duration,
}

/// A violated check, with its seed and a minimised event list that fails
/// the same way.
#[derive(Debug)]
pub struct Failure {
    /// The seed of the failing run.
    pub seed: u64,
    /// What went wrong: a kind, a colon, the details.
    pub violation: String,
    /// The events, greedily minimised.
    pub trace: Vec<Event>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "seed {}: {}", self.seed, self.violation)?;
        writeln!(f, "minimised trace ({} events):", self.trace.len())?;
        self.trace.iter().try_for_each(|e| writeln!(f, "  {e:?}"))
    }
}

enum Core {
    Box(BoxCore),
    Master(MasterCore),
    Worker(WorkerCore),
}

/// `$e` with `$c` bound to whichever core `$core` holds: what every
/// [`Node`] has in common.
macro_rules! each {
    ($core:expr, $c:ident => $e:expr) => {
        match $core {
            Core::Box($c) => $e,
            Core::Master($c) => $e,
            Core::Worker($c) => $e,
        }
    };
}

/// A box or a master: a core with a fan-in half, which the World runs
/// and audits alike. What differs by kind is what a step leaves behind
/// ([`FanIn::took`]).
trait FanIn: Node<Report = Step<Self::P, Self::R>> + Sized {
    type P: Point;
    type R: Copy + Ord + std::hash::Hash + Into<RequestId> + From<ReqKey>;
    type X;
    fn of(core: &Core) -> Option<&Self>;
    fn of_mut(core: &mut Core) -> Option<&mut Self>;
    fn fanin(&self) -> &FanInCore<Self::P, Self::R, Self::X>;
    /// The key of request `r` of `app` here.
    fn key(app: AppId, r: Self::R) -> Key;
    /// Act on what a step at slot `i` leaves by kind: a box's combines and
    /// completions, a master's deliveries.
    fn took(world: &mut World, i: usize, step: Step<Self::P, Self::R>) -> Checked;
}

impl FanIn for BoxCore {
    type P = (AppId, TreeId);
    type R = ReqKey;
    type X = BoxRequest;
    fn of(core: &Core) -> Option<&Self> {
        match core {
            Core::Box(c) => Some(c),
            _ => None,
        }
    }
    fn of_mut(core: &mut Core) -> Option<&mut Self> {
        match core {
            Core::Box(c) => Some(c),
            _ => None,
        }
    }
    fn fanin(&self) -> &FanInCore<(AppId, TreeId), ReqKey, BoxRequest> {
        &self.fanin
    }
    fn key(_: AppId, r: ReqKey) -> Key {
        r
    }
    fn took(world: &mut World, i: usize, step: BoxStep) -> Checked {
        let ended = &mut world.slots[i].ended;
        ended.extend(step.completed.iter().map(|c| c.0));
        for w in step.work {
            match w {
                Work::Combine(c) => world.combines.entry((i, c.key)).or_default().push_back(c),
                Work::Failed(key, ..) => drop(ended.insert(key)),
            }
        }
        Ok(())
    }
}

/// A master's requests are keyed on tree 0.
impl FanIn for MasterCore {
    type P = TreeId;
    type R = RequestId;
    type X = MasterRequest;
    fn of(core: &Core) -> Option<&Self> {
        match core {
            Core::Master(c) => Some(c),
            _ => None,
        }
    }
    fn of_mut(core: &mut Core) -> Option<&mut Self> {
        match core {
            Core::Master(c) => Some(c),
            _ => None,
        }
    }
    fn fanin(&self) -> &FanInCore<TreeId, RequestId, MasterRequest> {
        &self.fanin
    }
    fn key(app: AppId, r: RequestId) -> Key {
        (app, r, TreeId(0))
    }
    fn took(world: &mut World, i: usize, step: MasterStep) -> Checked {
        let done = step.completed.iter();
        done.map(|c| c.0).try_for_each(|r| world.delivered(i, r))
    }
}

/// What a node's detector should conclude: per probed box, the open
/// probe's nonce and when it is missed, and the misses in a row.
#[derive(Default)]
struct Watch {
    owing: Map<u32, (u64, Instant)>,
    missed: Map<u32, u32>,
    declared: Set<u32>,
}

#[derive(Default)]
struct Slot {
    at: NodeId,
    dead: bool,
    /// `next_deadline()`, read after each of its steps.
    due: Option<Instant>,
    /// Messages delivered to it, which a seeded kill counts.
    frames: u64,
    /// `Redirect`s it took. What its outbox held at each is set aside,
    /// tagged with the count before it, so that a stream a redirect
    /// restarted is told from one that left out of order.
    epoch: u32,
    held: Vec<(u32, Emit)>,
    /// Requests that ended here.
    ended: Set<Key>,
    watch: Watch,
    /// Child-box obligations that moved here, per request and point.
    moved: Set<(Key, u32)>,
}

struct App {
    id: AppId,
    kind: SyntheticKind,
    agg: Arc<dyn DynAggregator>,
    seed: u64,
    base: u64,
    requests: u64,
    issued: u64,
    /// Issued and not yet delivered or given up: id and waiter deadline.
    waiting: VecDeque<(u64, Instant)>,
    /// Sends not yet made: request and worker.
    sends: Vec<(u64, u32)>,
    /// Workers taking part, per request not yet delivered.
    parts: Map<u64, u32>,
}

/// Every core of a deployment and the messages between them; see the
/// module docs.
pub struct World {
    /// The boxes, then per application its master and its workers.
    slots: Vec<Slot>,
    cores: Vec<Core>,
    ix: Map<NodeId, usize>,
    /// The links with a message on them, from slot `i` to slot `j` at
    /// `(i, j)`: each a FIFO queue.
    links: BTreeMap<(usize, usize), VecDeque<Message>>,
    combines: BTreeMap<(usize, ReqKey), VecDeque<Combine>>,
    apps: Vec<App>,
    boxes: usize,
    workers: u32,
    keyed: bool,
    inflight: usize,
    patience: Duration,
    /// The detector's time-out and misses; none and never, unarmed.
    detector: (Duration, u32),
    /// No straggler policy: a probe round probes every box it may.
    strict: bool,
    /// Requests a known limit may strand ([`WorldReport::stranded`]).
    excused: Set<(AppId, RequestId)>,
    /// Requests a delay left waiting past their waiter's patience.
    outlasted: Set<(AppId, RequestId)>,
    /// Per box output stream: the redirects its box had taken, its last
    /// number and whether it ended.
    streams: Map<(usize, NodeId, Key), (u32, u32, bool)>,
    /// Seeded kills not yet due: box slot and frames.
    armed: Vec<(usize, u64)>,
    /// Box kills not yet due: requests issued, and box.
    kills: VecDeque<(u64, usize)>,
    /// A seeded run: the spec's kills apply themselves (not in a replay).
    auto: bool,
    /// The clock may jump with messages in flight (odd seeds).
    delays: bool,
    t0: Instant,
    now: Instant,
    /// When a node last took a message that may open a request.
    busy_at: Instant,
    /// Every event applied, in order.
    trace: Vec<Event>,
    /// What a node's outbox drained, on its way to its links.
    spare: VecDeque<Emit>,
    report: WorldReport,
}

impl World {
    /// Every core of `spec`'s deployment, built by its constructor, idle.
    pub fn new(spec: &ScenarioSpec) -> Result<Self, Refused> {
        let mut apps = Vec::new();
        for (a, s) in spec.apps.iter().enumerate() {
            let Workload::Synthetic { kind, requests } = s.workload else {
                return Err(Refused::Workload(s.name.clone()));
            };
            let ((seed, base), id, agg) = (app_stream(spec, a), AppId(a as u16), aggregator(kind));
            let (issued, waiting, sends) = (0, VecDeque::new(), Vec::new());
            let parts = Map::default();
            apps.push(App {
                id,
                kind,
                agg,
                seed,
                base,
                requests,
                issued,
                waiting,
                sends,
                parts,
            });
        }
        if spec.kills_boxes() && spec.detector.is_none() {
            return Err(Refused::NoDetector);
        }
        let mut kills = VecDeque::new();
        for imp in &spec.impairments {
            match *imp {
                Impairment::SeededBoxKill { .. } => {}
                Impairment::BoxKill {
                    slot,
                    after_requests,
                } => kills.push_back((after_requests, slot)),
                ref other => return Err(Refused::Impairment(format!("{other:?}"))),
            }
        }
        kills.make_contiguous().sort_unstable();
        let (cluster, cfg, t0) = (spec.topology.cluster(), &spec.tuning, Instant::now());
        let specs = build_tree_specs(&cluster);
        let probe =
            |d: &mut DetectorCore| spec.detector.iter().for_each(|c| d.enable(c.clone(), t0));
        let mut cores = Vec::new();
        for b in 0..cluster.total_boxes() {
            let mut core = BoxCore::new(b, cfg, t0);
            apps.iter()
                .for_each(|a| core.add_app(a.id, a.agg.clone(), &specs));
            probe(&mut core.fanin.detector);
            cores.push((box_addr(b), Core::Box(core)));
        }
        for a in &apps {
            let mut core = MasterCore::new(a.id, &specs, cfg);
            probe(&mut core.fanin.detector);
            cores.push((master_addr(a.id), Core::Master(core)));
            for w in cluster.all_workers() {
                let core = WorkerCore::new(a.id, w, &specs, cfg.selection);
                cores.push((worker_addr(a.id, w), Core::Worker(core)));
            }
        }
        let at = |(at, _): &(NodeId, Core)| Slot {
            at: *at,
            ..Slot::default()
        };
        let (n, slots) = (cores.len(), cores.iter().map(at).collect::<Vec<_>>());
        let mut world = World {
            ix: slots.iter().enumerate().map(|(i, s)| (s.at, i)).collect(),
            slots,
            cores: cores.into_iter().map(|c| c.1).collect(),
            links: BTreeMap::new(),
            combines: BTreeMap::new(),
            apps,
            boxes: cluster.total_boxes() as usize,
            workers: spec.topology.total_workers(),
            keyed: cfg.selection == TreeSelection::Keyed,
            inflight: spec.inflight,
            patience: spec.wait_timeout,
            detector: (spec.detector.as_ref())
                .map_or((Duration::ZERO, u32::MAX), |d| (d.timeout, d.misses)),
            strict: cfg.straggler.is_none(),
            excused: Set::default(),
            outlasted: Set::default(),
            streams: Map::default(),
            armed: Vec::new(),
            kills,
            auto: false,
            delays: false,
            t0,
            now: t0,
            busy_at: t0,
            trace: Vec::new(),
            spare: VecDeque::new(),
            report: WorldReport::default(),
        };
        (0..n).for_each(|i| world.settle(i));
        // The seeded kills' frame draws, as every driver makes them.
        for (slot, draw, armed) in spec.seeded_kills() {
            world.armed.push((slot, draw));
            world.report.impairments_applied.push(armed);
        }
        Ok(world)
    }

    /// Run to the end under `seed`: every request delivered or given up,
    /// nothing in flight, no request state left at a live box or master.
    pub fn run(&mut self, seed: u64) -> Checked {
        (self.auto, self.delays) = (true, seed % 2 == 1);
        self.finish(Some(&mut DetRng::new(seed)))
    }

    /// Apply `events` to a new World of `spec`, then run to the end taking
    /// the first of what can move, with no fault of its own.
    pub fn replay(spec: &ScenarioSpec, events: &[Event]) -> Checked<World> {
        let mut world = World::new(spec).map_err(|r| format!("refused: {r:?}"))?;
        events.iter().try_for_each(|e| world.apply(*e))?;
        world.finish(None).map(|()| world)
    }

    fn finish(&mut self, mut rng: Option<&mut DetRng>) -> Checked {
        loop {
            let next = match self.choose(rng.as_deref_mut()) {
                Some(e) => e,
                None if self.idle() => break,
                None => self.jump()?,
            };
            self.apply(next)?;
        }
        self.report.elapsed = self.now - self.t0;
        Ok(())
    }

    /// The counts so far.
    pub fn report(&self) -> &WorldReport {
        &self.report
    }

    /// Every event applied so far, in order: a run's whole reproducer.
    pub fn events(&self) -> &[Event] {
        &self.trace
    }

    /// The master of the spec's app `a`.
    pub fn master(&self, a: usize) -> &MasterCore {
        let master = MasterCore::of(&self.cores[self.node(a, None)]);
        master.expect("a master at every master slot")
    }

    /// Every box, by id.
    pub fn boxes(&self) -> impl Iterator<Item = &BoxCore> {
        self.cores.iter().filter_map(BoxCore::of)
    }

    /// The slot of app `a`'s master, or of its worker `w`.
    fn node(&self, a: usize, w: Option<u32>) -> usize {
        self.boxes + a * (1 + self.workers as usize) + w.map_or(0, |w| 1 + w as usize)
    }

    /// What can move now, one picked: uniformly by the seed, a send to a
    /// dead node sometimes failing, the clock sometimes jumping ahead — or,
    /// without one, the first.
    fn choose(&mut self, mut rng: Option<&mut DetRng>) -> Option<Event> {
        let (now, mut c) = (self.now, Vec::new());
        for (a, app) in self.apps.iter().enumerate() {
            let free = app.issued < app.requests && app.waiting.len() < self.inflight;
            c.extend(free.then_some(Event::Issue(a, false)));
            c.extend(app.sends.iter().map(|&(r, w)| Event::Send(a, r, w)));
        }
        let calm = c.is_empty();
        for &(i, j) in self.links.keys() {
            let (from, to) = (self.slots[i].at, &self.slots[j]);
            let fail = to.dead && rng.as_mut().is_some_and(|r| r.next_u64() & 1 == 0);
            c.push(match fail {
                true => Event::FailSend(from, to.at),
                false => Event::Deliver(from, to.at),
            });
        }
        let live = self.slots.iter().zip(&self.cores).filter(|s| !s.0.dead);
        for (s, core) in live {
            let queued = !s.held.is_empty() || !each!(core, c => c.outbox.is_empty());
            c.extend(queued.then_some(Event::Drain(s.at)));
            c.extend(s.due.filter(|t| *t <= now).map(|_| Event::Timer(s.at)));
        }
        let combines = self.combines.keys();
        c.extend(combines.map(|&(i, key)| Event::Combine(self.slots[i].at, key)));
        match rng {
            None => c.first().copied(),
            Some(rng) => {
                let delay =
                    self.delays && calm && !self.links.is_empty() && rng.next_u64() % 32 == 0;
                let live = self.slots.iter().filter(|s| delay && !s.dead);
                let soon = live
                    .clone()
                    .filter_map(|s| s.due.filter(|t| *t > now))
                    .min();
                // Short of any probe's lapse that would fail a live box: a
                // verdict on a live box strands what follows (re-points are
                // one-way), and a delay only slows requests down.
                let misses = self.detector.1;
                let fatal = live.flat_map(|s| {
                    let w = &s.watch;
                    let last = |b: &u32| w.missed.get(b).copied().unwrap_or(0) + 1 >= misses;
                    let owing = w.owing.iter().filter(move |p| last(p.0));
                    owing
                        .filter(|p| !self.slots[*p.0 as usize].dead)
                        .map(|p| p.1 .1)
                });
                let limit = fatal.min().unwrap_or(now + MAX_DELAY).min(now + MAX_DELAY);
                match soon.filter(|t| *t < limit) {
                    Some(t) => Some(Event::Delay(t - now)),
                    None if c.is_empty() => None,
                    None => Some(c[rng.gen_range(0, c.len() as u64) as usize]),
                }
            }
        }
    }

    /// Done: nothing to issue, send, deliver or combine, and no live box or
    /// master holds a request.
    fn idle(&self) -> bool {
        let apps = self
            .apps
            .iter()
            .all(|a| a.issued == a.requests && a.waiting.is_empty());
        let quiet = self.links.is_empty() && self.combines.is_empty();
        let live = self.slots.iter().zip(&self.cores).filter(|s| !s.0.dead);
        apps && quiet && live.map(|s| open(s.1)).sum::<usize>() == 0
    }

    /// Nothing can move now: the earliest of what is due later — a timer,
    /// a waiter's patience.
    fn jump(&self) -> Checked<Event> {
        let late = self.now > self.busy_at + REQUEST_TTL * 2 + MAX_DELAY;
        let live = || self.slots.iter().zip(&self.cores).filter(|s| !s.0.dead);
        if let Some((s, _)) = live().find(|s| late && open(s.1) > 0) {
            return Err(format!("held: node {} keeps a request past its reap", s.at));
        }
        let timers = live().filter_map(|(s, _)| Some((s.due?, Event::Timer(s.at))));
        let waits = self.apps.iter().enumerate();
        let waits = waits.filter_map(|(a, app)| Some((app.waiting.front()?.1, Event::GiveUp(a))));
        let next = timers.chain(waits).min_by_key(|e| e.0);
        next.map(|e| e.1)
            .ok_or_else(|| "stuck: nothing can move and nothing is due".into())
    }

    /// Apply one event, and check what it did: every `Heartbeat`,
    /// `HeartbeatAck` and `Redirect` names its sender; a box's output
    /// leaves for each destination in numbering order, nothing after a
    /// `last`, until a redirect restarts it; no node accepts a chunk of a request it ended; a delivered
    /// request is delivered once and is the closed-form fold; a waiter
    /// gives up only on a request a killed worker takes part in, one a
    /// delay outlasted, or one a known limit strands
    /// ([`WorldReport::stranded`]); an idle firing leaves no deadline due,
    /// and one that leaves none due is followed by a second at the same
    /// instant that changes nothing; a box is declared dead exactly when
    /// its `misses`-th probe in a row goes unanswered, once, and no request
    /// there waits on it after; a round probes every box that owes no ack;
    /// a child box's obligation moves at most once per request.
    pub fn apply(&mut self, e: Event) -> Checked {
        self.trace.push(e);
        let slot = |at: NodeId| self.ix.get(&at).copied();
        match e {
            Event::Issue(a, solo) => self.issue(a, solo),
            Event::Send(a, r, w) => self.send(a, r, w),
            Event::Deliver(from, to) | Event::FailSend(from, to) => {
                let (Some(i), Some(j)) = (slot(from), slot(to)) else {
                    return Ok(());
                };
                match e {
                    Event::Deliver(..) => self.deliver(i, j),
                    _ => self.fail_send(i, j),
                }
            }
            Event::Drain(at) => slot(at).map_or(Ok(()), |i| self.drain(i)),
            Event::Combine(at, key) => {
                let c = slot(at).and_then(|i| Some((i, pop(&mut self.combines, (i, key))?)));
                let Some((i, c)) = c else { return Ok(()) };
                let core = BoxCore::of_mut(&mut self.cores[i]).expect("a combine is a box's");
                let step = core.combined(key, combine(&*c.agg, c.items));
                self.after::<BoxCore>(i, step).map(drop)
            }
            Event::Timer(at) => match slot(at).map(|i| (i, &self.cores[i])) {
                Some((i, Core::Box(_))) => self.fire::<BoxCore>(i),
                Some((i, Core::Master(_))) => self.fire::<MasterCore>(i),
                _ => Ok(()),
            },
            Event::GiveUp(a) => self.give_up(a),
            Event::Delay(d) => {
                self.now += d;
                for app in self.apps.iter().filter(|_| d >= self.patience) {
                    let waiting = app.waiting.iter().map(|w| (app.id, RequestId(w.0)));
                    self.outlasted.extend(waiting);
                }
                Ok(())
            }
            Event::Kill(at) => {
                if let Some(i) = slot(at) {
                    self.slots[i].dead = true;
                    self.combines.retain(|k, _| k.0 != i);
                }
                Ok(())
            }
        }
    }

    fn issue(&mut self, a: usize, solo: bool) -> Checked {
        let (now, n, m) = (
            self.now,
            if solo { 1 } else { self.workers },
            self.node(a, None),
        );
        let Some(app) = self.apps.get_mut(a).filter(|x| x.issued < x.requests) else {
            return Ok(());
        };
        let r = app.base + app.issued;
        app.issued += 1;
        app.waiting.push_back((r, now + self.patience));
        app.parts.insert(r, n);
        app.sends.extend((0..n).map(|w| (r, w)));
        let core = MasterCore::of_mut(&mut self.cores[m]).expect("a master");
        let owed = solo.then(|| core.subset(RequestId(r), &[0]));
        core.register(RequestId(r), n as usize, owed, now);
        self.settle(m);
        self.report.issued += 1;
        let (auto, issued) = (self.auto, self.report.issued);
        while let Some(&(_, b)) = self.kills.front().filter(|k| auto && k.0 <= issued) {
            self.kills.pop_front();
            let at = format!("kill box {b} (at request {issued})");
            self.report.impairments_applied.push(at);
            self.apply(Event::Kill(box_addr(b as u32)))?;
        }
        Ok(())
    }

    fn send(&mut self, a: usize, r: u64, w: u32) -> Checked {
        let (i, keyed, rid) = (self.node(a, Some(w)), self.keyed, RequestId(r));
        let Some(app) = self.apps.get_mut(a) else {
            return Ok(());
        };
        let Some(p) = app.sends.iter().position(|s| *s == (r, w)) else {
            return Ok(());
        };
        app.sends.remove(p);
        let n = app.parts.get(&r).copied().unwrap_or(self.workers);
        let payload = worker_payload(app.kind, app.seed, r, w, n);
        let (Core::Worker(core), false) = (&mut self.cores[i], self.slots[i].dead) else {
            return Ok(());
        };
        let sent = match keyed {
            false => core.next_chunk((rid, core.tree(rid, None)), payload, true, None),
            true => (0..core.trees()).try_for_each(|t| {
                let part = if t == w % core.trees() {
                    payload.clone()
                } else {
                    Bytes::new()
                };
                core.next_chunk((rid, core.tree(rid, Some(u64::from(t)))), part, true, None)
            }),
        };
        sent.map_err(|e| format!("unsent: worker {w} of app {a}: {e}"))?;
        self.settle(i);
        Ok(())
    }

    fn deliver(&mut self, i: usize, j: usize) -> Checked {
        let head = pop(&mut self.links, (i, j));
        let Some(msg) = head.filter(|_| !self.slots[j].dead) else {
            return Ok(());
        };
        self.slots[j].frames += 1;
        match &msg {
            Message::HeartbeatAck { from, nonce } => {
                let w = &mut self.slots[j].watch;
                if w.owing.get(from).is_some_and(|p| p.0 == *nonce) {
                    w.owing.remove(from);
                    w.missed.remove(from);
                }
            }
            Message::Redirect { .. } => {
                let (s, spare) = (&mut self.slots[j], &mut self.spare);
                each!(&mut self.cores[j], c => c.outbox.drain(spare));
                s.held.extend(spare.drain(..).map(|e| (s.epoch, e)));
                s.epoch += 1;
            }
            _ => {}
        }
        if !msg.is_liveness() {
            self.busy_at = self.now;
        }
        let now = self.now;
        match &mut self.cores[j] {
            Core::Box(_) => self.take::<BoxCore>(j, msg)?,
            Core::Master(_) => self.take::<MasterCore>(j, msg)?,
            Core::Worker(c) => drop(c.on_message(msg, now)),
        }
        let frames = self.slots[j].frames;
        if self.auto && self.armed.iter().any(|k| k.0 == j && frames >= k.1) {
            self.armed.retain(|k| k.0 != j);
            self.apply(Event::Kill(self.slots[j].at))?;
        }
        Ok(())
    }

    /// The head of link `i → j`, to a dead node, could not be sent: node
    /// `i` hears so, and a probe's miss is due at once.
    fn fail_send(&mut self, i: usize, j: usize) -> Checked {
        let (to, dead, timeout) = (self.slots[j].at, self.slots[j].dead, self.detector.0);
        let Some(msg) = dead.then(|| pop(&mut self.links, (i, j))).flatten() else {
            return Ok(());
        };
        if let Message::Heartbeat { nonce, .. } = msg {
            let owing = self.slots[i].watch.owing.get_mut(&(to - box_addr(0)));
            if let Some(p) = owing.filter(|p| p.0 == nonce) {
                p.1 -= timeout;
            }
        }
        each!(&mut self.cores[i], c => c.send_failed(to, &msg));
        self.settle(i);
        Ok(())
    }

    /// Fire the timer of the fan-in core at `i`, which then drains as a
    /// shell's timer does, checking its detector's verdicts and probes
    /// against the [`Watch`] kept beside it. A firing that did nothing must
    /// leave no deadline due — a timer thread would spin on it — and one
    /// that leaves none due must be followed by a second at the same
    /// instant that changes nothing. What earlier transitions left queued
    /// is no sign of either.
    fn fire<N: FanIn>(&mut self, i: usize) -> Checked {
        let (at, misses) = (self.slots[i].at, self.detector.1);
        let Some(t) = self.slots[i].due.filter(|_| !self.slots[i].dead) else {
            return Ok(());
        };
        self.now = self.now.max(t);
        let (now, w) = (self.now, &mut self.slots[i].watch);
        let lapsed = w.owing.extract_if(|_, p| p.1 <= now).map(|p| p.0);
        let mut miss = |b: &u32| {
            let n = w.missed.entry(*b).or_insert(0);
            *n += 1;
            *n >= misses
        };
        let due: Vec<u32> = lapsed.filter(|b| miss(b)).collect();
        w.missed.retain(|b, _| !due.contains(b));
        let owing: Vec<u32> = w.owing.keys().copied().collect();
        let before = self.watched::<N>(i);
        let core = N::of_mut(&mut self.cores[i]).expect("a core of its kind");
        let queued = !core.outbox().is_empty();
        let step = core.on_timer(now);
        let idle = quiet(&step, core, queued);
        core.outbox().drain(&mut self.spare);
        let fault = match core.next_deadline() {
            Some(t) if t <= now => idle.then_some("spins: an idle firing leaves its deadline due"),
            _ => (!quiet(&core.on_timer(now), core, false))
                .then_some("refired: a second firing did something"),
        };
        if let Some(f) = fault {
            return Err(format!("{f}: node {at}"));
        }
        let dead = self.after::<N>(i, step)?;
        let probed = self.emit(i)?;
        let after = self.watched::<N>(i);
        if dead.iter().any(|b| !due.contains(b)) || due.iter().any(|b| after.contains(b)) {
            return Err(format!(
                "verdict: boxes {dead:?} declared, {due:?} due at node {at}"
            ));
        }
        let expect: Vec<u32> = before
            .into_iter()
            .filter(|b| !dead.contains(b) && !owing.contains(b))
            .collect();
        if probed.iter().any(|b| !expect.contains(b))
            || (self.strict && !probed.is_empty() && probed != expect)
        {
            return Err(format!(
                "probes: boxes {probed:?}, not {expect:?}, at node {at}"
            ));
        }
        Ok(())
    }

    fn give_up(&mut self, a: usize) -> Checked {
        let Some((r, deadline)) = self.apps.get_mut(a).and_then(|x| x.waiting.pop_front()) else {
            return Ok(());
        };
        self.now = self.now.max(deadline);
        let key = (self.apps[a].id, RequestId(r));
        let n = self.apps[a].parts.get(&r).copied().unwrap_or(0);
        if (0..n).any(|w| self.slots[self.node(a, Some(w))].dead) || self.outlasted.contains(&key) {
            self.report.failures += 1;
        } else if self.excused.contains(&key) {
            self.report.stranded += 1;
        } else {
            return Err(format!("undelivered: app {a} request {r}"));
        }
        self.forget(a, r);
        Ok(())
    }

    /// Deliver `msg` to the fan-in core at `i`, and act on its step: no
    /// chunk it accepts is of a request it ended.
    fn take<N: FanIn>(&mut self, i: usize, msg: Message) -> Checked {
        let (now, at) = (self.now, self.slots[i].at);
        let chunk = match msg {
            Message::Data {
                app, request, tree, ..
            } => Some(N::key(app, N::R::from((app, request, tree)))),
            _ => None,
        };
        let step = N::of_mut(&mut self.cores[i])
            .expect("a core of its kind")
            .on_message(msg, now);
        if let Some(key) = chunk.filter(|k| !step.dropped && self.slots[i].ended.contains(k)) {
            return Err(format!("reopened: {key:?} at node {at}"));
        }
        self.after::<N>(i, step).map(drop)
    }

    /// Act on a fan-in core's step at `i`: audit its firing, then what it
    /// leaves by kind. The boxes it declared dead.
    fn after<N: FanIn>(&mut self, i: usize, step: Step<N::P, N::R>) -> Checked<Vec<u32>> {
        let fired = step.fired.as_ref();
        let dead = fired.map_or(Ok(Vec::new()), |f| self.audit::<N>(i, f))?;
        N::took(self, i, step)?;
        self.settle(i);
        Ok(dead)
    }

    /// Account for a firing at `i`: reaps end their requests; no box is
    /// declared twice; each obligation moves once; none stays with a box
    /// that failed; what a bypass or a verdict on a live box moved is
    /// excused. The boxes declared dead.
    fn audit<N: FanIn>(&mut self, i: usize, f: &Fired<N::P, N::R>) -> Checked<Vec<u32>> {
        let fanin = N::of(&self.cores[i]).expect("a core of its kind").fanin();
        let (app, at, alive) = (fanin.app, self.slots[i].at, |b: &u32| {
            !self.slots[*b as usize].dead
        });
        let on = |r: N::R, p: N::P| (p.ids(app).0, r.into(), p.ids(app).1);
        let escalated = f.scan.iter().flat_map(|s| &s.escalated);
        let live = escalated.clone().map(|e| e.1).chain(f.dead.iter().copied());
        self.report.live_verdicts += live.filter(alive).count() as u64;
        // Each move, and whether it may strand its request: onto a box
        // below the bypassed one, which nobody probes, or off a box that is
        // alive (re-points are one-way).
        let bypassed = f.scan.iter().flat_map(|s| &s.bypasses).map(|b| {
            let below = fanin
                .route(&b.point)
                .and_then(|r| r.child_boxes.get(&b.box_id));
            let nested = below.is_some_and(|r| !r.child_boxes.is_empty());
            (on(b.request, b.point), b.box_id, nested)
        });
        let failed = escalated.chain(&f.failed);
        let repointed = failed.clone().flat_map(|(p, b, r)| {
            let live = alive(b);
            r.repointed.iter().map(move |q| (on(q.0, *p), *b, live))
        });
        let moves: Vec<_> = bypassed.chain(repointed).collect();
        let s = &mut self.slots[i];
        for (key, b, strands) in moves {
            if !s.moved.insert((key, b)) {
                return Err(format!("moved twice: {:?} at node {at}", (key, b)));
            }
            self.excused.extend(strands.then_some((key.0, key.1)));
        }
        self.report.reaped += f.reaped.len() as u64;
        self.report.detections += f.dead.len() as u64;
        s.ended
            .extend(f.reaped.iter().map(|(r, _)| N::key(app, *r)));
        if let Some(b) = f.dead.iter().find(|b| !s.watch.declared.insert(**b)) {
            return Err(format!("declared twice: box {b} at node {at}"));
        }
        // Still owed and unheard from at the point: the obligation did not
        // move.
        let open = fanin.requests.values().filter(|q| !q.closed);
        let waits = |k| {
            open.clone()
                .any(|q| q.ledger.is_owed(&k) && !q.ledger.has_seen(&k))
        };
        if let Some((_, b)) = failed
            .map(|f| (f.0, SourceId::Box(f.1)))
            .find(|k| waits(*k))
        {
            return Err(format!(
                "unmoved: a request at node {at} still waits on {b:?}"
            ));
        }
        Ok(f.dead.clone())
    }

    /// Node `i`'s next deadline, after a transition.
    fn settle(&mut self, i: usize) {
        self.slots[i].due = each!(&self.cores[i], c => c.next_deadline());
    }

    /// Drain node `i`'s outbox into its links.
    fn drain(&mut self, i: usize) -> Checked {
        each!(&mut self.cores[i], c => c.outbox.drain(&mut self.spare));
        self.emit(i).map(|_| ())
    }

    /// Put what node `i` drained into `spare` on its links, in outbox
    /// order, after what it set aside, checking what leaves. The boxes it
    /// probed.
    fn emit(&mut self, i: usize) -> Checked<Vec<u32>> {
        let (at, now, mut probed) = (self.slots[i].at, self.now, Vec::new());
        let s = &mut self.slots[i];
        let mut sending = std::mem::take(&mut s.held);
        sending.extend(self.spare.drain(..).map(|e| (s.epoch, e)));
        for (epoch, e) in sending {
            let named = match e.msg {
                Message::Heartbeat { from, .. } => Some(from),
                Message::HeartbeatAck { from, .. } => Some(box_addr(from)),
                Message::Redirect { new_parent, .. } => Some(new_parent),
                _ => None,
            };
            if named.is_some_and(|n| n != at) {
                return Err(format!("misnamed: {:?} sent by node {at}", e.msg));
            }
            if let Message::Data {
                app,
                request,
                tree,
                source: SourceId::Box(_),
                seq,
                last,
                ..
            } = e.msg
            {
                let stream = (i, e.to, (app, request, tree));
                let prev = self.streams.insert(stream, (epoch, seq, last));
                let behind = |p: &(u32, u32, bool)| p.0 == epoch && (p.2 || p.1 >= seq);
                if let Some(prev) = prev.filter(|p| p.0 > epoch || behind(p)) {
                    return Err(format!("misordered: {stream:?} chunk {seq} after {prev:?}"));
                }
            }
            let to = self.ix.get(&e.to).copied();
            if let Message::Heartbeat { nonce, .. } = e.msg {
                let b = e.to - box_addr(0);
                let lapses = if to.is_some() {
                    now + self.detector.0
                } else {
                    now
                };
                self.slots[i].watch.owing.insert(b, (nonce, lapses));
                probed.push(b);
            }
            let Some(j) = to else {
                each!(&mut self.cores[i], c => c.send_failed(e.to, &e.msg));
                continue;
            };
            if let Message::Redirect {
                permanent: true, ..
            } = e.msg
            {
                self.report.repoints += 1;
            }
            self.links.entry((i, j)).or_default().push_back(e.msg);
        }
        self.settle(i);
        probed.sort_unstable();
        Ok(probed)
    }

    /// The child boxes the fan-in core at `i` routes, at any point.
    fn watched<N: FanIn>(&self, i: usize) -> BTreeSet<u32> {
        let fanin = N::of(&self.cores[i]).expect("a core of its kind").fanin();
        let routes = fanin.routes().map(|r| r.1);
        routes.flat_map(|r| r.child_boxes.keys().copied()).collect()
    }

    /// The master at `m` completed request `r`: its application's waiter
    /// takes it, once, and it is the closed-form fold.
    fn delivered(&mut self, m: usize, r: RequestId) -> Checked {
        let core = MasterCore::of_mut(&mut self.cores[m]).expect("a master");
        let a = usize::from(core.fanin.app.0);
        let Taken::Done(d) = core.take_completed(r) else {
            return Err(format!("lost: app {a} {r:?} completed but not taken"));
        };
        self.slots[m].ended.insert((AppId(a as u16), r, TreeId(0)));
        let app = &mut self.apps[a];
        let Some(n) = app.parts.remove(&r.0) else {
            return Err(format!("twice: app {a} request {} delivered again", r.0));
        };
        let got = d.result(&*app.agg);
        if got.as_ref().ok() != Some(&expected_result(app.kind, app.seed, r.0, n)) {
            return Err(format!("inexact: app {a} request {} came to {got:?}", r.0));
        }
        app.waiting.retain(|q| q.0 != r.0);
        self.report.delivered += 1;
        self.forget(a, r.0);
        let (workers, p) = (m + 1..=m + self.workers as usize, &mut self.report.peak);
        p[0] = self.cores.iter().map(open).fold(p[0], usize::max);
        for core in &self.cores[workers] {
            if let Core::Worker(w) = core {
                (p[1], p[2]) = (p[1].max(w.tracked()), p[2].max(w.open_streams()));
            }
        }
        Ok(())
    }

    /// The live workers of app `a` drop request `r`, as the scenario
    /// runner's driver has them do once it settled.
    fn forget(&mut self, a: usize, r: u64) {
        let first = self.node(a, Some(0));
        for i in first..first + self.workers as usize {
            if let (Core::Worker(core), false) = (&mut self.cores[i], self.slots[i].dead) {
                core.forget(RequestId(r));
            }
        }
    }
}

/// Whether a firing's step did nothing: no work, completion or firing,
/// and nothing posted unless something already was (`queued`).
fn quiet<N: FanIn>(step: &Step<N::P, N::R>, core: &mut N, queued: bool) -> bool {
    let fired = step.fired.as_ref().is_none_or(Fired::is_empty);
    let posted = !queued && !core.outbox().is_empty();
    fired && step.work.is_empty() && step.completed.is_empty() && !posted
}

/// The head of the queue at `k`; a queue left empty goes.
fn pop<K: Ord, V>(queues: &mut BTreeMap<K, VecDeque<V>>, k: K) -> Option<V> {
    let q = queues.get_mut(&k)?;
    let head = q.pop_front();
    if q.is_empty() {
        queues.remove(&k);
    }
    head
}

/// Requests open at a box or master.
fn open(core: &Core) -> usize {
    fn at<N: FanIn>(core: &Core) -> usize {
        N::of(core).map_or(0, |c| c.fanin().requests.len())
    }
    at::<BoxCore>(core) + at::<MasterCore>(core)
}

/// Run `spec` under `seed` after the `script`ed events. A violation comes
/// back with the seed and a greedily minimised list of events.
pub fn explore(spec: &ScenarioSpec, seed: u64, script: &[Event]) -> Result<World, Failure> {
    let fail = |violation, trace| Failure {
        seed,
        violation,
        trace,
    };
    let mut world = World::new(spec).map_err(|r| fail(format!("refused: {r:?}"), Vec::new()))?;
    let ran = script.iter().try_for_each(|e| world.apply(*e));
    let Err(violation) = ran.and_then(|()| world.run(seed)) else {
        return Ok(world);
    };
    let kind = violation.split(':').next().unwrap_or_default();
    let trace = minimise(spec, std::mem::take(&mut world.trace), kind);
    Err(fail(violation, trace))
}

/// Drop events from a failing list while it still fails the same way:
/// halves first, then ever shorter runs, down to one event at a time until
/// a pass drops nothing (or the replay budget is spent).
fn minimise(spec: &ScenarioSpec, mut trace: Vec<Event>, kind: &str) -> Vec<Event> {
    let fails = |t: &[Event]| World::replay(spec, t).is_err_and(|v| v.starts_with(kind));
    let (mut run, mut budget) = (trace.len().div_ceil(2).max(1), 3000);
    loop {
        let (mut end, mut dropped) = (trace.len(), false);
        while end > 0 && budget > 0 {
            let start = end.saturating_sub(run);
            let mut shorter = trace.clone();
            shorter.drain(start..end);
            budget -= 1;
            if fails(&shorter) {
                (trace, dropped) = (shorter, true);
            }
            end = start;
        }
        if budget == 0 || (run == 1 && !dropped) {
            return trace;
        }
        run = (run / 2).max(1);
    }
}
