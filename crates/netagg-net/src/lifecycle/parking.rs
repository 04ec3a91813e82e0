//! [`Parking`]: a condition variable that makes the wake-up syscall only
//! for a thread that is asleep (the `parking_lot` shim's `notify_*` make a
//! futex call whether or not anyone waits: ten times an uncontended lock),
//! and [`Deadline`], the overflow-safe end of every timed wait.

use parking_lot::{Condvar, MutexGuard};
use std::time::{Duration, Instant};

/// When a blocking call gives up.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline.
    pub const NEVER: Deadline = Deadline(None);

    /// `d` from now. A `d` the clock cannot represent (`Duration::MAX` as
    /// "wait forever") is no deadline.
    pub fn after(d: Duration) -> Self {
        Deadline(Instant::now().checked_add(d))
    }
}

/// The sleeper counts of one [`Parking`]. They live **inside the state
/// the caller's mutex guards** and are reached only through a `&mut`
/// borrowed from that lock's guard: every park and every wake decision is
/// taken under the lock the waited-on condition changes under, so no
/// wake-up can be lost, with no atomic and no second lock.
#[derive(Debug, Default)]
pub struct Parked {
    /// Threads inside [`Parking::wait`].
    parked: usize,
    /// Wake-ups issued and not yet accounted for by a returning thread:
    /// at most the parked threads already off the condvar, so
    /// `woken < parked` whenever one is still asleep.
    woken: usize,
    issued: u64,
}

impl Parked {
    /// Threads parked now, wake-up syscalls made so far (tests read it).
    pub fn counts(&self) -> (usize, u64) {
        (self.parked, self.issued)
    }
}

/// A condition variable paired with the [`Parked`] counts in the guarded
/// state. Waiters re-check their condition after every [`Parking::wait`];
/// one that leaves while what it was woken for is still there calls
/// [`Parking::wake_one`] again on its way out.
#[derive(Debug, Default)]
pub struct Parking(Condvar);

impl Parking {
    /// A condition variable nobody waits on.
    pub const fn new() -> Self {
        Self(Condvar::new())
    }

    /// Park until woken or `deadline`, counted in the [`Parked`] that
    /// `slot` finds in the guarded state. `false`, without parking, once
    /// the deadline has passed.
    pub fn wait<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        slot: impl Fn(&mut T) -> &mut Parked,
        deadline: Deadline,
    ) -> bool {
        let now = Instant::now();
        let left = deadline.0.map(|d| d.saturating_duration_since(now));
        if left == Some(Duration::ZERO) {
            return false;
        }
        slot(guard).parked += 1;
        match left {
            None => self.0.wait(guard),
            Some(left) => _ = self.0.wait_for(guard, left),
        }
        let p = slot(guard);
        (p.parked, p.woken) = (p.parked - 1, p.woken.saturating_sub(1));
        true
    }

    /// Wake one parked thread, unless every parked thread is already on
    /// its way out.
    pub fn wake_one(&self, p: &mut Parked) {
        if p.woken < p.parked {
            (p.woken, p.issued) = (p.woken + 1, p.issued + 1);
            #[expect(clippy::disallowed_methods, reason = "the helper: someone is parked")]
            self.0.notify_one();
        }
    }

    /// Wake every parked thread not yet woken (waiters on different
    /// conditions, cancel, close).
    pub fn wake_all(&self, p: &mut Parked) {
        if p.woken < p.parked {
            (p.woken, p.issued) = (p.parked, p.issued + 1);
            #[expect(clippy::disallowed_methods, reason = "the helper: someone is parked")]
            self.0.notify_all();
        }
    }
}
