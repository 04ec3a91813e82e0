//! The one interface of a node's protocol core (DESIGN.md §8):
//! [`crate::aggbox::core::BoxCore`], [`crate::shim::master_core::MasterCore`]
//! and [`crate::shim::worker_core::WorkerCore`] each take a decoded
//! message, a timer firing or a failed send as an input, say when they next
//! have something to do, and queue what they send in one ordered
//! [`Outbox`]. The node's shell (`shell.rs`) runs a transition under the
//! core's lock, sends what the outbox holds through its one drain, and
//! hands the transition's [`Node::Report`] to its recorder (`spans.rs`),
//! which reads every span, counter and event off it.

use crate::aggbox::core::Work;
use crate::fanin::{Fired, TraceAnchor};
use crate::protocol::{Message, RequestId, SourceId};
use netagg_net::NodeId;
use std::collections::VecDeque;
use std::time::Instant;

/// Outbox length past which the box's reader holds back incoming `Data`,
/// an application thread waits for the drain (backpressure, DESIGN.md §9)
/// and ack time-outs are no misses.
pub const OUTBOX_BOUND: usize = 4096;

/// A pure protocol core, driven by its inputs alone. A node without
/// timers keeps the defaults.
pub trait Node {
    /// What a transition leaves the shell to act on after unlocking.
    type Report: Default;
    /// Whether the node ever has a deadline: its shell runs a timer thread
    /// only then.
    const TIMER: bool = false;
    /// One decoded message arrived. Liveness messages name their sender;
    /// nothing else needs one.
    fn on_message(&mut self, msg: Message, now: Instant) -> Self::Report;
    /// What the node queued to send, in send order.
    fn outbox(&mut self) -> &mut Outbox;
    /// Run what is due at `now`; a firing before the deadline changes
    /// nothing.
    fn on_timer(&mut self, _now: Instant) -> Self::Report {
        Self::Report::default()
    }
    /// `msg`, taken from the outbox, could not be sent to `to`.
    fn send_failed(&mut self, _to: NodeId, _msg: &Message) {}
    /// When the node next has something to do unprompted; `None` while
    /// idle. What it queued is the shell's to drain, not a deadline.
    fn next_deadline(&self) -> Option<Instant> {
        None
    }
    /// The node shuts down: drop what is still open, and name the sampled
    /// requests among it, whose spans the shell's recorder then closes.
    fn teardown(&mut self) -> Vec<(RequestId, TraceAnchor)> {
        Vec::new()
    }
}

/// What a fan-in core's transition leaves its shell to act on.
pub struct Step<P, R> {
    /// The message was dropped: an unknown route or application, a
    /// replayed sequence number, a re-pointed-away source, a closed request.
    pub dropped: bool,
    /// Chunks accepted past a sequence gap (DESIGN.md §8).
    pub gaps: Vec<(R, SourceId)>,
    /// The request a message closed: every owed source ended.
    pub closed: Option<R>,
    /// The requests the transition completed — a box's final chunk queued,
    /// the master's request closed — with when each started.
    pub completed: Completed<R>,
    /// A timer firing, for the shell to audit; [`Fired::closed`] names the
    /// requests it closed.
    pub fired: Option<Fired<P, R>>,
    /// What else the shell runs once the lock is released: a box's
    /// combines, and its requests whose combine failed.
    pub work: Vec<Work>,
}

impl<P, R> Default for Step<P, R> {
    fn default() -> Self {
        let (dropped, gaps, closed, fired) = (false, Vec::new(), None, None);
        Self {
            dropped,
            gaps,
            closed,
            completed: Completed::default(),
            fired,
            work: Vec::new(),
        }
    }
}

/// Requests a transition completed, with when each started. The first is
/// kept inline: a message or a combine completes at most one, and only a
/// timer firing more, so the common report allocates nothing.
#[derive(Debug)]
pub struct Completed<R>(Option<(R, Option<Instant>)>, Vec<(R, Option<Instant>)>);

impl<R> Default for Completed<R> {
    fn default() -> Self {
        Self(None, Vec::new())
    }
}

impl<R> Completed<R> {
    /// Add one.
    pub fn push(&mut self, done: (R, Option<Instant>)) {
        match self.0 {
            None => self.0 = Some(done),
            Some(_) => self.1.push(done),
        }
    }

    /// Every one, in completion order.
    pub fn iter(&self) -> impl Iterator<Item = &(R, Option<Instant>)> {
        self.0.iter().chain(&self.1)
    }

    /// Whether none completed.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

impl<R> FromIterator<(R, Option<Instant>)> for Completed<R> {
    fn from_iter<I: IntoIterator<Item = (R, Option<Instant>)>>(done: I) -> Self {
        let mut all = Self::default();
        done.into_iter().for_each(|d| all.push(d));
        all
    }
}

/// One message a transition produced, queued for the shell to send.
#[derive(Debug, Clone)]
pub struct Emit {
    /// Where it goes.
    pub to: NodeId,
    /// `Data` is numbered, `last` on a final chunk, with no trace context
    /// yet: the shell stamps it as it leaves.
    pub msg: Message,
    /// The request's trace anchor, on the node's own output (a resend has
    /// none).
    pub trace: Option<TraceAnchor>,
}

impl From<(NodeId, Message)> for Emit {
    fn from((to, msg): (NodeId, Message)) -> Self {
        let trace = None;
        Self { to, msg, trace }
    }
}

/// What a node sends, in order: one FIFO queue, so `Data` leaves in the
/// order its core numbered it whoever sends it, and its liveness messages
/// beside the queue — a backlog must not read as a dead node.
#[derive(Debug, Default)]
pub struct Outbox {
    queue: VecDeque<Emit>,
    live: Vec<Emit>,
}

impl Outbox {
    /// Queue messages behind everything queued before them; `Heartbeat`s
    /// and `HeartbeatAck`s go beside the queue.
    pub fn post<E: Into<Emit>>(&mut self, sends: impl IntoIterator<Item = E>) {
        for e in sends.into_iter().map(Into::into) {
            match e.msg.is_liveness() {
                true => self.live.push(e),
                false => self.queue.push_back(e),
            }
        }
    }

    /// Move everything to the back of `into`: liveness first, then the
    /// queue, oldest first.
    pub fn drain(&mut self, into: &mut VecDeque<Emit>) {
        into.extend(self.live.drain(..));
        into.append(&mut self.queue);
    }

    /// Take the liveness messages alone, to send at once.
    pub fn take_live(&mut self) -> Vec<Emit> {
        std::mem::take(&mut self.live)
    }

    /// Whether a liveness message waits.
    pub fn has_live(&self) -> bool {
        !self.live.is_empty()
    }

    /// Whether nothing waits.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.live.is_empty()
    }

    /// Whether the queue is over [`OUTBOX_BOUND`].
    pub fn backlogged(&self) -> bool {
        self.queue.len() > OUTBOX_BOUND
    }
}
