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
//! minimised list, which [`World::replay`] runs again. A seed repeats its
//! schedule in any process unless a transition's outcome hangs on a core's
//! map order (which bypass of a straggler reaches its repeat limit); the
//! list repeats it in the process that found it.

use crate::runner::{aggregator, app_stream, expected_result, worker_payload};
use crate::spec::{Impairment, ScenarioSpec, SyntheticKind, Workload};
use bytes::Bytes;
use netagg_core::aggbox::core::{BoxCore, BoxStep, Combine, ReqKey, Work};
use netagg_core::aggbox::tree::combine;
use netagg_core::fanin::{Fired, REQUEST_TTL};
use netagg_core::node::{Emit, Node, Step};
use netagg_core::protocol::{AppId, Message, RequestId, SourceId, TreeId};
use netagg_core::shim::master_core::{MasterCore, MasterStep, Taken};
use netagg_core::shim::worker_core::WorkerCore;
use netagg_core::shim::TreeSelection;
use netagg_core::tree::{box_addr, build_tree_specs, master_addr, worker_addr};
use netagg_core::DynAggregator;
use netagg_net::hash::{Map, Set};
use netagg_net::{DetRng, NodeId};
use std::collections::{BTreeMap, VecDeque};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Events applied.
    pub steps: u64,
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

/// What a fan-in core's transition reported.
enum Report {
    Box(BoxStep),
    Master(MasterStep),
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
    delivered: Set<u64>,
}

/// Every core of a deployment and the messages between them; see the
/// module docs.
pub struct World {
    /// The boxes, then per application its master and its workers.
    slots: Vec<Slot>,
    cores: Vec<Core>,
    ix: Map<NodeId, usize>,
    /// The link from slot `i` to slot `j`, at `i * slots + j`.
    links: Vec<VecDeque<Message>>,
    /// The links with a message on them, in order.
    busy: Vec<usize>,
    combines: BTreeMap<(usize, ReqKey), VecDeque<Combine>>,
    apps: Vec<App>,
    boxes: usize,
    workers: u32,
    trees: u32,
    keyed: bool,
    inflight: usize,
    patience: Duration,
    /// The detector's time-out and misses, when one is armed.
    detector: Option<(Duration, u32)>,
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
    trace: Option<Vec<Event>>,
    /// Buffers kept between steps.
    choices: Vec<Event>,
    spare: VecDeque<Emit>,
    sending: Vec<(u32, Emit)>,
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
            let (parts, delivered) = (Map::default(), Set::default());
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
                delivered,
            });
        }
        if spec.kills_boxes() && spec.detector.is_none() {
            return Err(Refused::NoDetector);
        }
        let (cluster, cfg, t0) = (spec.topology.cluster(), &spec.tuning, Instant::now());
        let specs = build_tree_specs(&cluster);
        let mut cores = Vec::new();
        for b in 0..cluster.total_boxes() {
            let mut core = BoxCore::new(b, cfg, t0);
            apps.iter()
                .for_each(|a| core.add_app(a.id, a.agg.clone(), &specs));
            spec.detector
                .iter()
                .for_each(|d| core.fanin.detector.enable(d.clone(), t0));
            cores.push((box_addr(b), Core::Box(core)));
        }
        for a in &apps {
            let mut core = MasterCore::new(a.id, &specs, cfg);
            spec.detector
                .iter()
                .for_each(|d| core.fanin.detector.enable(d.clone(), t0));
            cores.push((master_addr(a.id), Core::Master(core)));
            for w in cluster.all_workers() {
                let core = WorkerCore::new(a.id, w, &specs, cfg.selection);
                cores.push((worker_addr(a.id, w), Core::Worker(core)));
            }
        }
        let (slots, cores): (Vec<Slot>, Vec<Core>) = cores
            .into_iter()
            .map(|(at, core)| {
                let due = each!(&core, c => c.next_deadline());
                (
                    Slot {
                        at,
                        due,
                        ..Slot::default()
                    },
                    core,
                )
            })
            .unzip();
        let n = slots.len();
        let mut world = World {
            ix: slots.iter().enumerate().map(|(i, s)| (s.at, i)).collect(),
            slots,
            cores,
            links: (0..n * n).map(|_| VecDeque::new()).collect(),
            busy: Vec::new(),
            combines: BTreeMap::new(),
            apps,
            boxes: cluster.total_boxes() as usize,
            workers: spec.topology.total_workers(),
            trees: spec.topology.trees,
            keyed: cfg.selection == TreeSelection::Keyed,
            inflight: spec.inflight,
            patience: spec.wait_timeout,
            detector: spec.detector.as_ref().map(|d| (d.timeout, d.misses)),
            strict: cfg.straggler.is_none(),
            excused: Set::default(),
            outlasted: Set::default(),
            streams: Map::default(),
            armed: Vec::new(),
            kills: VecDeque::new(),
            auto: false,
            delays: false,
            t0,
            now: t0,
            busy_at: t0,
            trace: None,
            choices: Vec::new(),
            spare: VecDeque::new(),
            sending: Vec::new(),
            report: WorldReport::default(),
        };
        world.arm(spec)?;
        Ok(world)
    }

    /// Compile the impairments: a seeded kill's frame draw as the scenario
    /// runner makes it, a box kill at its request count.
    fn arm(&mut self, spec: &ScenarioSpec) -> Result<(), Refused> {
        let mut rng = DetRng::new(spec.seed ^ 0x5EED_FA17);
        for imp in &spec.impairments {
            match imp {
                Impairment::SeededBoxKill {
                    slot,
                    frames_lo,
                    frames_hi,
                } => {
                    let draw = rng.gen_range(*frames_lo, *frames_hi);
                    self.armed.push((*slot, draw));
                    let armed = format!("seeded kill of box {slot} armed +{draw} frames");
                    self.report.impairments_applied.push(armed);
                }
                Impairment::BoxKill {
                    slot,
                    after_requests,
                } => self.kills.push_back((*after_requests, *slot)),
                other => return Err(Refused::Impairment(format!("{other:?}"))),
            }
        }
        self.kills.make_contiguous().sort_unstable();
        Ok(())
    }

    /// Run to the end under `seed`: every request delivered or given up,
    /// nothing in flight, no request state left at a live box or master.
    pub fn run(&mut self, seed: u64) -> Checked<WorldReport> {
        let mut rng = DetRng::new(seed);
        (self.auto, self.delays) = (true, seed % 2 == 1);
        self.finish(Some(&mut rng))
    }

    /// Apply `events` to a new World of `spec`, then run to the end taking
    /// the first of what can move, with no fault of its own.
    pub fn replay(spec: &ScenarioSpec, events: &[Event]) -> Checked<WorldReport> {
        let mut world = World::new(spec).map_err(|r| format!("refused: {r:?}"))?;
        events.iter().try_for_each(|e| world.apply(*e))?;
        world.finish(None)
    }

    fn finish(&mut self, mut rng: Option<&mut DetRng>) -> Checked<WorldReport> {
        loop {
            let next = match self.choose(rng.as_deref_mut()) {
                Some(e) => e,
                None if self.idle() => break,
                None => self.jump()?,
            };
            self.apply(next)?;
        }
        self.report.elapsed = self.now - self.t0;
        Ok(self.report.clone())
    }

    /// The counts so far.
    pub fn report(&self) -> &WorldReport {
        &self.report
    }

    /// The master of the spec's app `a`.
    pub fn master(&self, a: usize) -> &MasterCore {
        match &self.cores[self.node(a, None)] {
            Core::Master(m) => m,
            _ => unreachable!("a master at every master slot"),
        }
    }

    /// Every box, by id.
    pub fn boxes(&self) -> impl Iterator<Item = &BoxCore> {
        self.cores.iter().filter_map(|c| match c {
            Core::Box(b) => Some(b),
            _ => None,
        })
    }

    /// The slot of app `a`'s master, or of its worker `w`.
    fn node(&self, a: usize, w: Option<u32>) -> usize {
        self.boxes + a * (1 + self.workers as usize) + w.map_or(0, |w| 1 + w as usize)
    }

    /// What can move now, one picked: uniformly by the seed, a send to a
    /// dead node sometimes failing, the clock sometimes jumping ahead — or,
    /// without one, the first.
    fn choose(&mut self, mut rng: Option<&mut DetRng>) -> Option<Event> {
        let (now, mut c) = (self.now, std::mem::take(&mut self.choices));
        c.clear();
        for (a, app) in self.apps.iter().enumerate() {
            let free = app.issued < app.requests && app.waiting.len() < self.inflight;
            c.extend(free.then_some(Event::Issue(a, false)));
            c.extend(app.sends.iter().map(|&(r, w)| Event::Send(a, r, w)));
        }
        let calm = c.is_empty();
        let n = self.slots.len();
        for &l in &self.busy {
            let (from, to) = (self.slots[l / n].at, &self.slots[l % n]);
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
        let pick = match rng {
            None => c.first().copied(),
            Some(rng) => {
                let delay =
                    self.delays && calm && !self.busy.is_empty() && rng.next_u64() % 32 == 0;
                let live = self.slots.iter().filter(|s| delay && !s.dead);
                let soon = live
                    .clone()
                    .filter_map(|s| s.due)
                    .filter(|t| *t > now)
                    .min();
                // Short of any probe's lapse that would fail a live box: a
                // verdict on a live box strands what follows (re-points are
                // one-way), and a delay only slows requests down.
                let misses = self.detector.map_or(u32::MAX, |d| d.1);
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
        };
        self.choices = c;
        pick
    }

    /// Done: nothing to issue, send, deliver or combine, and no live box or
    /// master holds a request.
    fn idle(&self) -> bool {
        let apps = self
            .apps
            .iter()
            .all(|a| a.issued == a.requests && a.waiting.is_empty());
        let quiet = self.busy.is_empty() && self.combines.is_empty();
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
        if let Some(t) = &mut self.trace {
            t.push(e);
        }
        self.report.steps += 1;
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
                let Some(i) = slot(at) else { return Ok(()) };
                let Some(q) = self.combines.get_mut(&(i, key)) else {
                    return Ok(());
                };
                let c = q.pop_front().expect("no empty queue is kept");
                if q.is_empty() {
                    self.combines.remove(&(i, key));
                }
                let Core::Box(core) = &mut self.cores[i] else {
                    return Ok(());
                };
                let step = core.combined(key, combine(&*c.agg, c.items));
                self.after(i, Report::Box(step)).map(|_| ())
            }
            Event::Timer(at) => slot(at).map_or(Ok(()), |i| self.fire(i)),
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
        let Core::Master(core) = &mut self.cores[m] else {
            unreachable!()
        };
        let owed = solo.then(|| core.subset(RequestId(r), &[0]));
        core.register(RequestId(r), n as usize, owed, now);
        self.settle(m);
        self.report.issued += 1;
        while self.auto
            && self
                .kills
                .front()
                .is_some_and(|k| k.0 <= self.report.issued)
        {
            let (_, b) = self.kills.pop_front().expect("just seen");
            let at = format!("kill box {b} (at request {})", self.report.issued);
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
        let Core::Worker(core) = &mut self.cores[i] else {
            unreachable!()
        };
        if self.slots[i].dead {
            return Ok(());
        }
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

    /// The head of link `i → j`.
    fn pop(&mut self, i: usize, j: usize) -> Option<Message> {
        let l = i * self.slots.len() + j;
        let head = self.links[l].pop_front()?;
        if self.links[l].is_empty() {
            self.busy.retain(|b| *b != l);
        }
        Some(head)
    }

    fn deliver(&mut self, i: usize, j: usize) -> Checked {
        let Some(msg) = self.pop(i, j) else {
            return Ok(());
        };
        if self.slots[j].dead {
            return Ok(());
        }
        self.slots[j].frames += 1;
        self.step(j, Some(msg))?;
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
        let timeout = self.detector.map_or(Duration::ZERO, |d| d.0);
        let (to, dead) = (self.slots[j].at, self.slots[j].dead);
        let Some(msg) = dead.then(|| self.pop(i, j)).flatten() else {
            return Ok(());
        };
        if let Message::Heartbeat { nonce, .. } = msg {
            let owing = self.slots[i].watch.owing.get_mut(&(to - box_addr(0)));
            owing
                .filter(|p| p.0 == nonce)
                .into_iter()
                .for_each(|p| p.1 -= timeout);
        }
        each!(&mut self.cores[i], c => c.send_failed(to, &msg));
        self.settle(i);
        Ok(())
    }

    /// Fire node `i`'s timer, checking its detector's verdicts and probes
    /// against the [`Watch`] kept beside it.
    fn fire(&mut self, i: usize) -> Checked {
        let (at, misses) = (self.slots[i].at, self.detector.map_or(u32::MAX, |d| d.1));
        let Some(t) = self.slots[i].due.filter(|_| !self.slots[i].dead) else {
            return Ok(());
        };
        self.now = self.now.max(t);
        let (now, w) = (self.now, &mut self.slots[i].watch);
        let lapsed: Vec<u32> = w
            .owing
            .iter()
            .filter(|p| p.1 .1 <= now)
            .map(|p| *p.0)
            .collect();
        let mut due = Vec::new();
        for b in lapsed {
            w.owing.remove(&b);
            let n = w.missed.entry(b).or_insert(0);
            *n += 1;
            if *n >= misses {
                w.missed.remove(&b);
                due.push(b);
            }
        }
        let owing: Vec<u32> = w.owing.keys().copied().collect();
        let before = self.watched(i);
        let (dead, probed) = self.step(i, None)?;
        let after = self.watched(i);
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

    /// Run one input through the core at `i` — a message, or (`None`) a
    /// timer firing, which then drains — and act on its report: the boxes
    /// it declared dead and those it probed.
    fn step(&mut self, i: usize, msg: Option<Message>) -> Checked<(Vec<u32>, Vec<u32>)> {
        let (now, at) = (self.now, self.slots[i].at);
        let data = match &msg {
            Some(Message::Data {
                app, request, tree, ..
            }) => Some((*app, *request, *tree)),
            Some(Message::HeartbeatAck { from, nonce }) => {
                let w = &mut self.slots[i].watch;
                if w.owing.get(from).is_some_and(|p| p.0 == *nonce) {
                    w.owing.remove(from);
                    w.missed.remove(from);
                }
                None
            }
            Some(Message::Redirect { .. }) => {
                let (s, spare) = (&mut self.slots[i], &mut self.spare);
                each!(&mut self.cores[i], c => c.outbox.drain(spare));
                s.held.extend(spare.drain(..).map(|e| (s.epoch, e)));
                s.epoch += 1;
                None
            }
            _ => None,
        };
        if msg.as_ref().is_some_and(|m| !m.is_liveness()) {
            self.busy_at = now;
        }
        let (timer, mut out) = (msg.is_none(), std::mem::take(&mut self.spare));
        let ran = match &mut self.cores[i] {
            Core::Box(c) => input(c, msg, now, &mut out).map(|s| (s.dropped, Some(Report::Box(s)))),
            Core::Master(c) => {
                input(c, msg, now, &mut out).map(|s| (s.dropped, Some(Report::Master(s))))
            }
            Core::Worker(c) => {
                if let Some(m) = msg {
                    c.on_message(m, now);
                }
                Ok((true, None))
            }
        };
        let (dropped, report) = ran.map_err(|e| format!("{e}: node {at}"))?;
        if let Some((app, r, tree)) = data.filter(|_| !dropped) {
            let at_box = matches!(report, Some(Report::Box(_)));
            let key = (app, r, if at_box { tree } else { TreeId(0) });
            if self.slots[i].ended.contains(&key) {
                return Err(format!("reopened: {key:?} at node {at}"));
            }
        }
        let dead = match report {
            Some(report) => self.after(i, report)?,
            None => Vec::new(),
        };
        if !timer {
            self.spare = out;
            return Ok((dead, Vec::new()));
        }
        let probed = self.emit(i, out)?;
        Ok((dead, probed))
    }

    /// Act on a fan-in core's report: queue its combines, note what ended,
    /// audit its firing, deliver what the master completed. The boxes it
    /// declared dead.
    fn after(&mut self, i: usize, report: Report) -> Checked<Vec<u32>> {
        let mut dead = Vec::new();
        match report {
            Report::Box(step) => {
                for w in step.work {
                    match w {
                        Work::Combine(c) => {
                            self.combines.entry((i, c.key)).or_default().push_back(c)
                        }
                        Work::Failed(key, ..) => {
                            self.slots[i].ended.insert(key);
                        }
                    }
                }
                self.slots[i]
                    .ended
                    .extend(step.completed.iter().map(|c| c.0));
                if let Some(f) = &step.fired {
                    dead = self.audit(i, f, |r| r, |p| p)?;
                }
            }
            Report::Master(step) => {
                let Core::Master(m) = &self.cores[i] else {
                    unreachable!()
                };
                let app = m.fanin.app;
                if let Some(f) = &step.fired {
                    dead = self.audit(i, f, |r| (app, r, TreeId(0)), |t| (app, t))?;
                }
                for (r, _) in step.completed.iter() {
                    self.delivered(i, usize::from(app.0), *r)?;
                }
            }
        }
        self.settle(i);
        Ok(dead)
    }

    /// Account for a firing at `i`: reaps end their requests; no box is
    /// declared twice; each obligation moves once; none stays with a box
    /// that failed; what a bypass or a verdict on a live box moved is
    /// excused. The boxes declared dead.
    fn audit<P: Copy, R: Copy>(
        &mut self,
        i: usize,
        f: &Fired<P, R>,
        key: impl Fn(R) -> Key,
        point: impl Fn(P) -> (AppId, TreeId),
    ) -> Checked<Vec<u32>> {
        let escalated = f.scan.iter().flat_map(|s| &s.escalated).map(|e| e.1);
        let live = escalated.chain(f.dead.iter().copied());
        let live = live.filter(|b| !self.slots[*b as usize].dead);
        self.report.live_verdicts += live.count() as u64;
        let on = |r, p| (point(p).0, key(r).1, point(p).1);
        let scan = f.scan.iter();
        let bypassed = scan.clone().flat_map(|s| &s.bypasses);
        let bypassed = bypassed.map(|b| (on(b.request, b.point), b.box_id));
        let failed = scan.flat_map(|s| &s.escalated).chain(&f.failed);
        let repointed = failed.clone().flat_map(|(p, b, r)| {
            let moved = r.repointed.iter().map(|q| (on(q.0, *p), *b));
            moved.collect::<Vec<_>>()
        });
        // Moved onto a box below the bypassed one, which nobody probes, or
        // off a box that is alive: re-points are one-way.
        let nested = bypassed.clone().filter(|((a, _, t), b)| {
            let route = match &self.cores[i] {
                Core::Box(c) => c.fanin.route(&(*a, *t)),
                Core::Master(c) => c.fanin.route(t),
                Core::Worker(_) => None,
            };
            let below = route.and_then(|r| r.child_boxes.get(b));
            below.is_some_and(|r| !r.child_boxes.is_empty())
        });
        let live = repointed.clone().filter(|m| !self.slots[m.1 as usize].dead);
        let excused: Vec<_> = nested.chain(live).map(|((a, r, _), _)| (a, r)).collect();
        self.excused.extend(excused);
        let (at, s) = (self.slots[i].at, &mut self.slots[i]);
        self.report.reaped += f.reaped.len() as u64;
        self.report.detections += f.dead.len() as u64;
        s.ended.extend(f.reaped.iter().map(|(r, _)| key(*r)));
        if let Some(m) = bypassed.chain(repointed).find(|m| !s.moved.insert(*m)) {
            return Err(format!("moved twice: {m:?} at node {at}"));
        }
        if let Some(b) = f.dead.iter().find(|b| !s.watch.declared.insert(**b)) {
            return Err(format!("declared twice: box {b} at node {at}"));
        }
        for (p, b) in failed.map(|f| (point(f.0), SourceId::Box(f.1))) {
            // Still owed and unheard from at the point: the obligation did
            // not move.
            let unmoved = match &self.cores[i] {
                Core::Box(c) => c.fanin.requests.iter().any(|(k, q)| {
                    let k = ((k.0, k.2), b);
                    k.0 == p && !q.closed && q.ledger.is_owed(&k) && !q.ledger.has_seen(&k)
                }),
                Core::Master(c) => c.fanin.requests.values().any(|q| {
                    let k = (p.1, b);
                    !q.closed && q.ledger.is_owed(&k) && !q.ledger.has_seen(&k)
                }),
                Core::Worker(_) => false,
            };
            if unmoved {
                return Err(format!(
                    "unmoved: a request at node {at} still waits on {b:?}"
                ));
            }
        }
        Ok(f.dead.clone())
    }

    /// Node `i`'s next deadline, after a transition.
    fn settle(&mut self, i: usize) {
        self.slots[i].due = each!(&self.cores[i], c => c.next_deadline());
    }

    /// Drain node `i`'s outbox into its links.
    fn drain(&mut self, i: usize) -> Checked {
        let mut out = std::mem::take(&mut self.spare);
        each!(&mut self.cores[i], c => c.outbox.drain(&mut out));
        self.emit(i, out).map(|_| ())
    }

    /// Put what node `i` drained on its links, after what it set aside,
    /// checking what leaves. The boxes it probed.
    fn emit(&mut self, i: usize, mut out: VecDeque<Emit>) -> Checked<Vec<u32>> {
        let (at, now, mut probed) = (self.slots[i].at, self.now, Vec::new());
        let (s, mut sending) = (&mut self.slots[i], std::mem::take(&mut self.sending));
        sending.append(&mut s.held);
        sending.extend(out.drain(..).map(|e| (s.epoch, e)));
        self.spare = out;
        // What one drain takes for one node, in request order: a core's map
        // order is its process's hash seed's, and a schedule should not
        // hang on it. One request's messages keep their order.
        sending.sort_by_key(|(_, e)| (e.to, !e.msg.is_liveness(), request(&e.msg)));
        for (epoch, e) in sending.drain(..) {
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
                let (b, timeout) = (
                    e.to - box_addr(0),
                    self.detector.map_or(Duration::ZERO, |d| d.0),
                );
                let lapses = if to.is_some() { now + timeout } else { now };
                self.slots[i].watch.owing.insert(b, (nonce, lapses));
                probed.push(b);
            }
            let Some(j) = to else {
                each!(&mut self.cores[i], c => c.send_failed(e.to, &e.msg));
                continue;
            };
            let repoint = matches!(
                e.msg,
                Message::Redirect {
                    permanent: true,
                    ..
                }
            );
            self.report.repoints += u64::from(repoint);
            let l = i * self.slots.len() + j;
            if let (true, Err(at)) = (self.links[l].is_empty(), self.busy.binary_search(&l)) {
                self.busy.insert(at, l);
            }
            self.links[l].push_back(e.msg);
        }
        self.sending = sending;
        self.settle(i);
        probed.sort_unstable();
        Ok(probed)
    }

    /// The child boxes node `i` routes, at any point.
    fn watched(&self, i: usize) -> Vec<u32> {
        let trees = (0..self.trees).map(TreeId);
        let routes: Vec<_> = match &self.cores[i] {
            Core::Box(c) => {
                let points = self
                    .apps
                    .iter()
                    .flat_map(|a| trees.clone().map(move |t| (a.id, t)));
                points.filter_map(|p| c.fanin.route(&p)).collect()
            }
            Core::Master(c) => trees.filter_map(|t| c.fanin.route(&t)).collect(),
            Core::Worker(_) => Vec::new(),
        };
        let mut boxes: Vec<u32> = routes
            .iter()
            .flat_map(|r| r.child_boxes.keys().copied())
            .collect();
        boxes.sort_unstable();
        boxes.dedup();
        boxes
    }

    /// The master at `m` completed request `r` of app `a`: its waiter takes
    /// it, once, and it is the closed-form fold.
    fn delivered(&mut self, m: usize, a: usize, r: RequestId) -> Checked {
        let Core::Master(core) = &mut self.cores[m] else {
            unreachable!()
        };
        let Taken::Done(d) = core.take_completed(r) else {
            return Err(format!("lost: app {a} {r:?} completed but not taken"));
        };
        self.slots[m].ended.insert((AppId(a as u16), r, TreeId(0)));
        let app = &mut self.apps[a];
        if !app.delivered.insert(r.0) {
            return Err(format!("twice: app {a} request {} delivered again", r.0));
        }
        let n = app
            .parts
            .remove(&r.0)
            .ok_or_else(|| format!("unissued: app {a} {r:?}"))?;
        let got = app
            .agg
            .aggregate_serialized(d.inputs)
            .map_err(|e| format!("inexact: {e}"))?;
        if got != expected_result(app.kind, app.seed, r.0, n) {
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
        let range = first..first + self.workers as usize;
        for (s, core) in self.slots[range.clone()].iter().zip(&mut self.cores[range]) {
            if let (Core::Worker(core), false) = (core, s.dead) {
                core.forget(RequestId(r));
            }
        }
    }
}

/// One input to a fan-in core, a message or (`None`) a timer firing, which
/// then drains into `out` as a shell's timer does. A firing that did
/// nothing must leave no deadline due — a timer thread would spin on it —
/// and one that leaves none due must be followed by a second at the same
/// instant that changes nothing. What earlier transitions left queued is
/// no sign of either.
fn input<N, P, R: Copy>(
    core: &mut N,
    msg: Option<Message>,
    now: Instant,
    out: &mut VecDeque<Emit>,
) -> Checked<Step<P, R>>
where
    N: Node<Report = Step<P, R>>,
{
    let quiet = |s: &Step<P, R>, core: &mut N, queued: bool| {
        let fired = s.fired.as_ref().is_none_or(Fired::is_empty);
        let posted = !queued && !core.outbox().is_empty();
        fired && s.work.is_empty() && s.completed.is_empty() && !posted
    };
    let Some(msg) = msg else {
        let queued = !core.outbox().is_empty();
        let step = core.on_timer(now);
        let idle = quiet(&step, core, queued);
        core.outbox().drain(out);
        return match core.next_deadline() {
            Some(t) if t <= now && idle => {
                Err("spins: an idle firing leaves its deadline due".into())
            }
            Some(t) if t <= now => Ok(step),
            _ if !quiet(&core.on_timer(now), core, false) => {
                Err("refired: a second firing did something".into())
            }
            _ => Ok(step),
        };
    };
    Ok(core.on_message(msg, now))
}

/// The request a message is about; 0 for liveness.
fn request(msg: &Message) -> u64 {
    match msg {
        Message::Data { request, .. }
        | Message::RequestMeta { request, .. }
        | Message::Redirect { request, .. }
        | Message::Broadcast { request, .. } => request.0,
        Message::Heartbeat { .. } | Message::HeartbeatAck { .. } => 0,
    }
}

/// Requests open at a box or master.
fn open(core: &Core) -> usize {
    match core {
        Core::Box(c) => c.fanin.requests.len(),
        Core::Master(c) => c.fanin.requests.len(),
        Core::Worker(_) => 0,
    }
}

/// Run `spec` under `seed` after the `script`ed events. A violation comes
/// back with the seed and a greedily minimised list of events.
pub fn explore(spec: &ScenarioSpec, seed: u64, script: &[Event]) -> Result<World, Failure> {
    let attempt = |record: bool| -> Result<World, (String, Vec<Event>)> {
        let mut world = World::new(spec).map_err(|r| (format!("refused: {r:?}"), Vec::new()))?;
        world.trace = record.then(Vec::new);
        let ran = script.iter().try_for_each(|e| world.apply(*e));
        match ran.and_then(|()| world.run(seed)) {
            Ok(_) => Ok(world),
            Err(v) => Err((v, world.trace.take().unwrap_or_default())),
        }
    };
    let violation = match attempt(false) {
        Ok(world) => return Ok(world),
        Err((violation, _)) => violation,
    };
    let trace = attempt(true).err().map_or_else(Vec::new, |e| e.1);
    let kind = violation.split(':').next().unwrap_or_default();
    let trace = minimise(spec, trace, kind);
    Err(Failure {
        seed,
        violation,
        trace,
    })
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
