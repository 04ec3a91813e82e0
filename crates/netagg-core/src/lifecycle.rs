//! The unified lifecycle & backpressure runtime every threaded layer of
//! the platform is built on: cancellation tokens whose `cancel()` wakes
//! blocked receivers immediately, deadline-joining named-thread scopes,
//! bounded mailboxes with explicit overflow policies, [`serve_ready`], the
//! listener loop of every node (one reader for all its connections), and
//! the two things every node shell keeps beside its core: the timer's
//! [`TimerSlot`] and the [`Drain`] that is its one way to the wire.
//!
//! The implementation lives in [`netagg_net::lifecycle`] (the transport
//! layer participates too — `recv_cancellable`/`accept_cancellable` need
//! the same token type); this module re-exports it as the platform-level
//! namespace. See DESIGN.md §9 for the thread inventory and the
//! cancellation invariants.

use crate::conn_cache::ConnCache;
use crate::node::Emit;
use crate::protocol::Message;
use std::collections::VecDeque;
use std::time::Instant;

pub use netagg_net::lifecycle::{
    CancelToken, Deadline, JoinScope, Mailbox, MailboxRecvError, MailboxSendError, OrderedMutex,
    OrderedMutexGuard, OverflowPolicy, Parked, Parking, Readiness, ScopeError, Wait, WakerGuard,
    DEFAULT_JOIN_DEADLINE,
};
pub use netagg_net::{serve, serve_ready};

/// What a node's one timer thread keeps beside its core, under the core's
/// lock: its sleeper counts on the timer's [`Parking`], the deadline it
/// sleeps toward (`None`: until woken) and how often it has woken.
#[derive(Debug, Default)]
pub struct TimerSlot {
    /// Wake through these to end the sleep whatever its deadline (cancel).
    pub parked: Parked,
    armed: Option<Instant>,
    /// Returns from [`TimerSlot::park`]: deadlines reached plus wake-ups.
    pub wakeups: u64,
}

impl TimerSlot {
    /// A transition may have produced a deadline: wake the timer thread if
    /// `next` is earlier than what it sleeps toward.
    pub fn rearm(&mut self, cv: &Parking, next: Option<Instant>) {
        if next.is_some_and(|t| self.armed.is_none_or(|armed| t < armed)) {
            self.armed = next;
            cv.wake_all(&mut self.parked);
        }
    }

    /// Park the timer thread until `next` or a wake-up, releasing `guard`
    /// meanwhile; `slot` finds the `TimerSlot` in the guarded state.
    pub fn park<T>(
        cv: &Parking,
        guard: &mut OrderedMutexGuard<'_, T>,
        slot: impl Fn(&mut T) -> &mut TimerSlot,
        next: Option<Instant>,
    ) {
        slot(guard).armed = next;
        let left = next.map(|t| t.saturating_duration_since(Instant::now()));
        let deadline = left.map_or(Deadline::NEVER, Deadline::after);
        cv.wait(guard.inner(), |state| &mut slot(state).parked, deadline);
        slot(guard).wakeups += 1;
    }
}

/// What a shell adds to a message on its way to the wire, around the one
/// send in [`send`].
pub trait Outlet {
    /// Stamp `e` as it leaves (its hop's trace context) and name the
    /// connections it leaves on.
    fn stamp(&self, e: &mut Emit) -> &ConnCache;
    /// `e` left, or (`ok == false`) could not be sent: close its spans,
    /// count it, feed a failure back to the core.
    fn sent(&self, e: &mut Emit, ok: bool);
}

/// Send `out` in order, with no lock held: the platform's one path to the
/// wire. Returns the messages that could not be sent.
pub fn send(out: impl IntoIterator<Item = Emit>, outlet: &impl Outlet) -> Vec<Message> {
    let mut failed = Vec::new();
    for mut e in out {
        let ok = outlet.stamp(&mut e).send_to(e.to, e.msg.encode()).is_ok();
        outlet.sent(&mut e, ok);
        if !ok {
            failed.push(e.msg);
        }
    }
    failed
}

/// The one drain rule of every node shell (DESIGN.md §9), kept beside its
/// core under the core's lock: whoever posts to the core's outbox sends
/// it, unless a drain is already running — which then sends that post too.
/// So one thread at a time sends, and messages leave in the order the core
/// queued them.
#[derive(Debug, Default)]
pub struct Drain {
    running: bool,
    /// The last drain's buffer, kept for its capacity.
    spare: VecDeque<Emit>,
}

impl Drain {
    /// Whether a drain is running.
    pub fn running(&self) -> bool {
        self.running
    }

    /// Until nothing is left, move what `take` finds queued out of the
    /// guarded state and [`send`] it with `guard` released; `slot` finds
    /// the `Drain` in that state. A no-op while a drain is running. Returns
    /// the messages this drain could not send.
    pub fn run<'a, T>(
        lock: &'a OrderedMutex<T>,
        mut guard: OrderedMutexGuard<'a, T>,
        slot: impl Fn(&mut T) -> &mut Drain,
        mut take: impl FnMut(&mut T, &mut VecDeque<Emit>),
        outlet: &impl Outlet,
    ) -> Vec<Message> {
        let (drain, mut failed) = (slot(&mut guard), Vec::new());
        if std::mem::replace(&mut drain.running, true) {
            return failed;
        }
        let mut out = std::mem::take(&mut drain.spare);
        loop {
            take(&mut guard, &mut out);
            if out.is_empty() {
                break;
            }
            drop(guard);
            failed.append(&mut send(out.drain(..), outlet));
            guard = lock.lock();
        }
        let drain = slot(&mut guard);
        (drain.running, drain.spare) = (false, out);
        failed
    }
}
