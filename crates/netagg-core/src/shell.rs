//! The one threaded shell around a node's core (DESIGN.md §9): the box,
//! the master and the worker are each a [`Shell`] over their [`Node`] plus
//! an [`Outlet`], the hook that carries the behaviour that differs between
//! them. One reader, one timer thread (for a core type with deadlines), one
//! drain, behind one `node.core` lock. The shell records nothing itself and
//! the hook records nothing at all: the shell hands its node's [`Recorder`]
//! each admitted message, each transition's report, each message leaving,
//! each send's outcome and, at shutdown, what the core left open.

use crate::conn_cache::ConnCache;
use crate::lifecycle::{
    serve_ready, CancelToken, Deadline, JoinScope, OrderedMutex, OrderedMutexGuard, Parked,
    Parking, Readiness, WakerGuard, DEFAULT_JOIN_DEADLINE,
};
use crate::node::{Emit, Node};
use crate::protocol::{AppId, Message};
use crate::spans::{Hop, Names, Recorder, Report};
use bytes::Bytes;
use netagg_net::{lock_order, NetError, NodeId, Transport};
use netagg_obs::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// The behaviour a node adds to its shell: the rules that are one node's
/// alone. It records nothing; its kind's names are the recorder's.
pub(crate) trait Outlet<N: Node>: Send + Sync + 'static {
    /// The names the node's recorder records under.
    const NAMES: &'static Names;
    /// Whether the reader holds back an arriving `Data`; `ready` is its
    /// signal, to wake once it may go on.
    fn hold(&self, _core: &N, _ready: &Readiness) -> bool {
        false
    }
    /// The timer found the reader holding a frame back at `now`.
    fn excuse(&self, _core: &mut N, _now: Instant) {}
    /// Under the lock, after a transition: what its report changes beside
    /// the core ([`State::wake`] wakes the shell's waiters).
    fn settle(&self, _s: &mut State<N>, _report: &N::Report) {}
    /// Once the lock is released and the report recorded: hand on what the
    /// transition left (a box's combines, a worker's broadcast).
    fn then(&self, _rec: &Recorder, _report: N::Report) {}
}

/// What `node.core` guards.
pub(crate) struct State<N> {
    /// The node's protocol core.
    pub core: N,
    /// Times the timer thread woke; an idle node adds none.
    pub wakeups: u64,
    /// The timer's sleepers and the deadline it sleeps toward.
    timer: Parked,
    armed: Option<Instant>,
    /// Whether a drain runs; the last drain's buffer, kept for capacity.
    draining: bool,
    spare: VecDeque<Emit>,
    /// Whether the reader holds a `Data` frame back.
    held: bool,
    /// Posters over the bound and the master's `wait`ers, and whether a
    /// transition asked to wake them.
    waiters: Parked,
    wake: bool,
}

impl<N> State<N> {
    /// Wake the shell's waiters before the lock is released.
    pub fn wake(&mut self) {
        self.wake = true;
    }
}

/// A locked [`State`].
pub(crate) type Guard<'a, N> = OrderedMutexGuard<'a, State<N>>;

/// One running node: its core, its threads and its way to the wire.
pub(crate) struct Shell<N: Node, H: Outlet<N>> {
    state: OrderedMutex<State<N>>,
    /// Where the timer sleeps, and posters and `wait`ers wait.
    timer: Parking,
    waiters: Parking,
    /// The reader's signal.
    ready: Readiness,
    /// Connections of the outbox, and of probes and acks.
    conns: ConnCache,
    liveness: ConnCache,
    cancel: CancelToken,
    scope: Arc<JoinScope>,
    _waker: WakerGuard,
    /// The node's own behaviour.
    pub hook: H,
    /// What records every span, counter and event of the node.
    pub rec: Recorder,
}

impl<N: Node + Send + 'static, H: Outlet<N>> Shell<N, H>
where
    N::Report: Report,
{
    /// Bind `addr` and start the node `name`: its listener and reader
    /// (`name` plus the suffixes in `threads`) and, for a core with
    /// deadlines, its timer (`<name>-timer`). Its recorder publishes to
    /// `obs` under the kind's names, labelled by `ids` (serving `app` where
    /// a point names none). `make` builds the core and the hook, given the
    /// shell to come, its cancellation token and the recorder.
    pub fn start(
        transport: Arc<dyn Transport>,
        (addr, app, ids): (NodeId, AppId, &[u32]),
        (name, threads): (String, [&str; 2]),
        obs: &MetricsRegistry,
        make: impl FnOnce(&Weak<Self>, &CancelToken, &Recorder) -> (N, H),
    ) -> Result<Arc<Self>, NetError> {
        let (listener, cancel) = (transport.bind(addr)?, CancelToken::new());
        let deadline = DEFAULT_JOIN_DEADLINE;
        let scope = JoinScope::with_obs(name.clone(), cancel.clone(), deadline, Some(obs));
        let ready = Readiness::readiness();
        let rec = Recorder::new(H::NAMES, obs, ids, (addr, app));
        let shell = Arc::new_cyclic(|weak: &Weak<Self>| {
            let (core, hook) = make(weak, &cancel, &rec);
            let weak = weak.clone();
            // Under the core lock, so a thread between its cancel check
            // and its park cannot miss it. Weak: no cycle through the token.
            let waker = cancel.register_waker(move || {
                if let Some(sh) = weak.upgrade() {
                    let s = &mut *sh.state.lock();
                    sh.timer.wake_all(&mut s.timer);
                    sh.waiters.wake_all(&mut s.waiters);
                }
            });
            let state = State {
                core,
                wakeups: 0,
                timer: Parked::default(),
                armed: None,
                draining: false,
                spare: VecDeque::new(),
                held: false,
                waiters: Parked::default(),
                wake: false,
            };
            Self {
                state: OrderedMutex::new(lock_order::NODE_CORE, state),
                timer: Parking::new(),
                waiters: Parking::new(),
                ready: ready.clone(),
                conns: ConnCache::new(transport.clone(), addr),
                liveness: ConnCache::new(transport, addr),
                cancel: cancel.clone(),
                scope: Arc::new(scope),
                _waker: waker,
                hook,
                rec,
            }
        });
        let [listen, reader] = threads.map(|suffix| format!("{name}{suffix}"));
        let sh = shell.clone();
        let body = move |frame| sh.on_frame(frame);
        let mut started = serve_ready(&shell.scope, listener, ready, listen, reader, body);
        if N::TIMER && started.is_ok() {
            let sh = shell.clone();
            let spawned = shell
                .scope
                .spawn(format!("{name}-timer"), move || sh.timer_loop());
            started = spawned.map_err(|e| NetError::Io(e.to_string()));
        }
        // A thread already started holds the shell: stop it.
        started.inspect_err(|_| shell.shutdown())?;
        Ok(shell)
    }

    /// Take the core's lock.
    pub fn lock(&self) -> Guard<'_, N> {
        self.state.lock()
    }

    /// Run one transition on a thread that does not send.
    pub fn transition<T>(&self, f: impl FnOnce(&mut N) -> T) -> T {
        let mut s = self.state.lock();
        let out = f(&mut s.core);
        self.release(s, false);
        out
    }

    /// Run one transition on an application thread, act on its report as
    /// the reader does, and drain. A poster that finds the outbox over
    /// [`crate::node::OUTBOX_BOUND`] while another thread drains it waits
    /// until that drain takes it. Returns what this drain could not send.
    pub fn post(&self, f: impl FnOnce(&mut N) -> N::Report) -> Vec<Message> {
        let mut s = self.state.lock();
        while s.draining && s.core.outbox().backlogged() && !self.cancel.is_cancelled() {
            self.wait(&mut s, Deadline::NEVER);
        }
        let report = f(&mut s.core);
        self.act(s, report, None, true)
    }

    /// Release `s` after a transition: drain if `drain`, else leave what
    /// it queued to the timer.
    pub fn release(&self, mut s: Guard<'_, N>, drain: bool) -> Vec<Message> {
        self.rearm(&mut s, drain);
        match drain {
            true => self.drain(s),
            false => Vec::new(),
        }
    }

    /// Park among the waiters until woken; `false` once `deadline` passed.
    pub fn wait(&self, s: &mut Guard<'_, N>, deadline: Deadline) -> bool {
        self.waiters.wait(s.inner(), |s| &mut s.waiters, deadline)
    }

    /// Whether the node is shutting down.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Cancel the node's token, waking every thread of it at once, join
    /// its threads under the scope's deadline, and close the spans of what
    /// the core left open. Idempotent: the core drains what it names.
    pub fn shutdown(&self) {
        self.cancel.cancel();
        self.scope.finish();
        let open = self.state.lock().core.teardown();
        self.rec.teardown(open);
    }

    /// Settle `report` under the lock, release it — draining if `drain` —
    /// then record it and hand the rest to the hook.
    pub fn act(
        &self,
        mut s: Guard<'_, N>,
        report: N::Report,
        hop: Option<Hop>,
        drain: bool,
    ) -> Vec<Message> {
        let idle = self.settle(&mut s, &report);
        let failed = self.release(s, drain);
        if !idle {
            self.then(hop, report);
        }
        failed
    }

    /// Under the lock: count what must be counted before anything leaves
    /// or a waiter wakes, and let the hook settle. Whether it was idle.
    fn settle(&self, s: &mut State<N>, report: &N::Report) -> bool {
        report.settled(&self.rec);
        self.hook.settle(s, report);
        if std::mem::take(&mut s.wake) {
            self.waiters.wake_all(&mut s.waiters);
        }
        report.idle()
    }

    /// Once the lock is released: record the report, hand the rest on,
    /// and close the arriving hop's ingest span once it is handed on.
    fn then(&self, hop: Option<Hop>, report: N::Report) {
        let hop = report.record(&self.rec, hop);
        self.hook.then(&self.rec, report);
        self.rec.ingest(hop);
    }

    /// Wake the timer for an earlier deadline, or for what it must send:
    /// a liveness message, or output nobody is about to drain.
    fn rearm(&self, s: &mut State<N>, draining: bool) {
        let next = s.core.next_deadline();
        let earlier = next.is_some_and(|t| s.armed.is_none_or(|armed| t < armed));
        let outbox = s.core.outbox();
        let undrained = !draining && !s.draining && !outbox.is_empty();
        if earlier || undrained || outbox.has_live() {
            s.armed = if earlier { next } else { s.armed };
            self.timer.wake_all(&mut s.timer);
        }
    }

    /// The one drain rule: whoever posts sends the outbox, unless a drain
    /// runs — which then sends that post too. So one thread at a time
    /// sends, in the order the core queued, with the lock released. Taking
    /// the queue lets a held-back reader and waiting posters go on.
    fn drain<'a>(&'a self, mut s: Guard<'a, N>) -> Vec<Message> {
        let mut failed = Vec::new();
        if std::mem::replace(&mut s.draining, true) {
            return failed;
        }
        let mut out = std::mem::take(&mut s.spare);
        loop {
            let backlogged = s.core.outbox().backlogged();
            s.core.outbox().drain(&mut out);
            if out.is_empty() {
                break;
            }
            if std::mem::take(&mut s.held) {
                self.ready.wake();
            }
            if backlogged {
                self.waiters.wake_all(&mut s.waiters);
            }
            drop(s);
            failed.append(&mut self.send(out.drain(..)));
            s = self.state.lock();
        }
        (s.draining, s.spare) = (false, out);
        failed
    }

    /// Send `out` in order, with no lock held: the platform's one path to
    /// the wire. A failed send is a core input (a probe counts as missed
    /// at once). Returns what could not be sent.
    fn send(&self, out: impl IntoIterator<Item = Emit>) -> Vec<Message> {
        let mut failed = Vec::new();
        for mut e in out {
            self.rec.stamp(&mut e);
            let conns = match e.msg.is_liveness() {
                true => &self.liveness,
                false => &self.conns,
            };
            let ok = conns.send_to(e.to, e.msg.encode()).is_ok();
            self.rec.sent(&mut e, ok);
            if !ok {
                self.transition(|core| core.send_failed(e.to, &e.msg));
                failed.push(e.msg);
            }
        }
        failed
    }

    /// The reader: `Some(frame)` holds it back ([`serve_ready`]). A node
    /// with a timer leaves what the reader queued to it, so a box's reader
    /// never sends; a worker's sends its own replay.
    fn on_frame(&self, frame: Bytes) -> Option<Bytes> {
        let Ok(msg) = Message::decode(frame.clone()) else {
            return None; // corrupt frame: drop
        };
        let mut s = self.state.lock();
        if matches!(msg, Message::Data { .. }) && self.hook.hold(&s.core, &self.ready) {
            s.held = true;
            return Some(frame);
        }
        let hop = self.rec.admit(&msg);
        let report = s.core.on_message(msg, Instant::now());
        self.act(s, report, hop, !N::TIMER);
        None
    }

    /// The timer: run what is due, send liveness messages at once, drain
    /// what no other thread drains, and sleep until the next deadline or
    /// wake-up; an idle node never wakes it.
    fn timer_loop(&self) {
        let mut s = self.state.lock();
        while !self.cancel.is_cancelled() {
            let now = Instant::now();
            if s.held {
                self.hook.excuse(&mut s.core, now);
            }
            let report = s.core.on_timer(now);
            let idle = self.settle(&mut s, &report);
            let live = s.core.outbox().take_live();
            let undrained = !s.draining && !s.core.outbox().is_empty();
            if idle && live.is_empty() && !undrained {
                s.armed = s.core.next_deadline();
                let left = s.armed.map(|t| t.saturating_duration_since(Instant::now()));
                let deadline = left.map_or(Deadline::NEVER, Deadline::after);
                self.timer.wait(s.inner(), |s| &mut s.timer, deadline);
                s.wakeups += 1;
                continue;
            }
            drop(s);
            self.send(live);
            if !idle {
                self.then(None, report);
            }
            self.drain(self.state.lock());
            s = self.state.lock();
        }
    }
}
