//! [`CancelToken`]: the cancellation flag whose `cancel()` wakes.
//!
//! # Lock ordering
//!
//! `CancelToken::cancel` runs registered wakers while holding the token's
//! waker-table lock; a waker may take its own queue lock and notify
//! condvars, but must never call [`CancelToken::register_waker`] or
//! [`CancelToken::cancel`] itself. All wakers installed by this module
//! obey that rule. Unregistration ([`WakerGuard`] drop) moves the waker
//! out of the table and drops it *outside* the lock, because dropping a
//! waker closure can cascade into further unregistrations on the same
//! token — a mailbox queue may hold items that themselves own mailboxes
//! (the TCP reactor's accept queue holds connections owning inboxes).

use super::{may_block, Deadline, Parked, Parking};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Waker = Box<dyn Fn() + Send + Sync>;

#[derive(Default)]
struct WakerTable {
    next_id: u64,
    wakers: Vec<(u64, Waker)>,
}

struct TokenInner {
    cancelled: AtomicBool,
    table: Mutex<WakerTable>,
    cv: Parking,
    // Dedicated mutex for `wait_timeout`: the waker table lock must not
    // double as the wait lock, or a slow waker would stall waiters.
    sleepers: Mutex<Parked>,
}

/// A cloneable cancellation token: one `cancel()` call wakes every blocked
/// receiver, sleeper and waiter attached to any clone, immediately.
///
/// Cancellation is one-way and permanent. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                table: Mutex::new(WakerTable::default()),
                cv: Parking::new(),
                sleepers: Mutex::new(Parked::default()),
            }),
        }
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Cancel: set the flag, then wake every waiter. Safe to call from any
    /// thread, any number of times.
    pub fn cancel(&self) {
        if self.inner.cancelled.swap(true, Ordering::SeqCst) {
            return;
        }
        // Under the wait lock, so a waiter that checked the flag but has
        // not yet parked cannot miss it.
        self.inner.cv.wake_all(&mut self.inner.sleepers.lock());
        let table = self.inner.table.lock();
        for (_, w) in table.wakers.iter() {
            w();
        }
    }

    /// Sleep for up to `d`, waking early on cancellation. Returns `true`
    /// when the token is cancelled (the interruptible-sleep idiom:
    /// `if cancel.wait_timeout(tick) { return; }`).
    pub fn wait_timeout(&self, d: Duration) -> bool {
        may_block("CancelToken::wait_timeout");
        let deadline = Deadline::after(d);
        let mut g = self.inner.sleepers.lock();
        loop {
            if self.is_cancelled() {
                return true;
            }
            if !self.inner.cv.wait(&mut g, |p| p, deadline) {
                return false;
            }
        }
    }

    /// Register a waker closure to run (once) on cancellation; dropping
    /// the returned guard unregisters it. If the token is already
    /// cancelled the waker runs immediately.
    ///
    /// The waker must not call back into this token (see module docs).
    pub fn register_waker(&self, waker: impl Fn() + Send + Sync + 'static) -> WakerGuard {
        let id = {
            let mut table = self.inner.table.lock();
            let id = table.next_id;
            table.next_id += 1;
            table.wakers.push((id, Box::new(waker)));
            id
        };
        let guard = WakerGuard {
            token: self.clone(),
            id,
        };
        if self.is_cancelled() {
            // Cancellation may have raced ahead of registration; run the
            // waker now so the caller cannot block forever.
            let table = self.inner.table.lock();
            if let Some((_, w)) = table.wakers.iter().find(|(i, _)| *i == id) {
                w();
            }
        }
        guard
    }

    /// Whether two handles refer to the same underlying token.
    pub fn same(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// RAII registration handle from [`CancelToken::register_waker`];
/// dropping it removes the waker.
pub struct WakerGuard {
    token: CancelToken,
    id: u64,
}

impl Drop for WakerGuard {
    fn drop(&mut self) {
        // Extract under the lock, drop outside it: a waker closure can own
        // state (e.g. a mailbox queue) whose drop unregisters further
        // wakers on this same token, and the table lock is not reentrant.
        let removed = {
            let mut table = self.token.inner.table.lock();
            table
                .wakers
                .iter()
                .position(|(i, _)| *i == self.id)
                .map(|idx| table.wakers.swap_remove(idx).1)
        };
        drop(removed);
    }
}

impl fmt::Debug for WakerGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WakerGuard").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wait_timeout_wakes_early_on_cancel() {
        let cancel = CancelToken::new();
        let c2 = cancel.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test parks a sleeper to time the cancel wakeup"
        )]
        let h = std::thread::spawn(move || {
            let t0 = Instant::now();
            let cancelled = c2.wait_timeout(Duration::from_secs(10));
            (cancelled, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        cancel.cancel();
        let (cancelled, waited) = h.join().unwrap();
        assert!(cancelled);
        assert!(waited < Duration::from_millis(500));
    }
}
