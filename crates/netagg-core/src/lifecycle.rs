//! The unified lifecycle & backpressure runtime every threaded layer of
//! the platform is built on: cancellation tokens whose `cancel()` wakes
//! blocked receivers immediately, deadline-joining named-thread scopes,
//! bounded mailboxes with explicit overflow policies, and [`serve_ready`],
//! the listener loop of every node: one reader for all its connections.
//!
//! The implementation lives in [`netagg_net::lifecycle`] (the transport
//! layer participates too — `recv_cancellable`/`accept_cancellable` need
//! the same token type); this module re-exports it as the platform-level
//! namespace. See DESIGN.md §9 for the thread inventory and the
//! cancellation invariants.

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
