//! [`OrderedMutex`] and the debug-build acquisition witness (DESIGN.md §15).

use crate::lock_order::LockRank;
use netagg_obs::MetricsRegistry;
use parking_lot::Mutex;
use std::fmt;

/// Debug-build runtime witness: the one enforcement of DESIGN.md §15.
///
/// Every [`OrderedMutex`] acquisition consults a thread-local stack of
/// held ranks: acquiring a lock whose rank is not strictly greater than
/// every rank already held panics immediately — *before* blocking, so the
/// offending stack is the one reported — and every `(held, acquired)`
/// pair is recorded into a process-wide edge set that
/// `tests/lock_witness.rs` compares with the §15 "Acquisition edges"
/// table. The blocking primitives of this crate call [`may_block`] on
/// entry, which panics if the stack holds a lock not declared
/// blocking-tolerant in `lock_order.rs`. [`JoinScope::spawn`] reports
/// each thread name, so the same test compares the thread kinds that ran
/// with the §9 inventory. In release builds all of it compiles to
/// nothing: no thread-local, no edge set, no check.
///
/// [`may_block`]: witness::may_block
#[cfg(debug_assertions)]
mod witness {
    use crate::lock_order::LockRank;
    use parking_lot::Mutex;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Held {
        rank: LockRank,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

    // The witness's own tables sit outside the order they police: plain
    // shim mutexes (never poisoned), each held for one insert or copy.
    static EDGES: Mutex<BTreeSet<(&'static str, &'static str)>> = Mutex::new(BTreeSet::new());
    static THREAD_KINDS: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    static POISONED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    pub(super) static SINK: Mutex<Option<netagg_obs::MetricsRegistry>> = Mutex::new(None);

    /// Record the acquisition edges `held → rank` and enforce rank
    /// monotonicity. Runs *before* the real lock operation so a would-be
    /// deadlock panics with the offending stack instead of hanging.
    /// Non-blocking attempts (`try_lock`) record their edges but are
    /// exempt from the rank check — they cannot complete a deadlock cycle.
    pub(super) fn check(rank: LockRank, non_blocking: bool) {
        HELD.with(|h| {
            let h = h.borrow();
            if h.is_empty() {
                return;
            }
            {
                let mut e = EDGES.lock();
                for held in h.iter() {
                    e.insert((held.rank.name, rank.name));
                }
            }
            if non_blocking || std::thread::panicking() {
                return;
            }
            if let Some(max) = h.iter().map(|x| x.rank).max_by_key(|r| r.rank) {
                if rank.rank <= max.rank {
                    let stack: Vec<&str> = h.iter().map(|x| x.rank.name).collect();
                    panic!(
                        "lock-order violation: acquiring '{}' (rank {}) while \
                         holding '{}' (rank {}); held stack: {:?} — the \
                         acquisition order is DESIGN.md §15's rank order",
                        rank.name, rank.rank, max.name, max.rank, stack
                    );
                }
            }
        });
    }

    /// Entry check of a blocking primitive (`what`): a holder parked on a
    /// queue, a sleep or a join stalls every other acquirer for the whole
    /// block, so only the locks `lock_order.rs` declares blocking-tolerant
    /// may be held here (§15 "Blocking while locked").
    pub(crate) fn may_block(what: &str) {
        if std::thread::panicking() {
            return;
        }
        HELD.with(|h| {
            if let Some(x) = h.borrow().iter().find(|x| !x.rank.may_block) {
                panic!(
                    "blocking while locked: {what} entered while holding '{}' \
                     (rank {}) — move the call outside the lock scope \
                     (DESIGN.md §15)",
                    x.rank.name, x.rank.rank
                );
            }
        });
    }

    /// Push a successfully acquired lock onto the held stack; the
    /// returned token pops it (in any order — guards may outlive
    /// later-acquired ones) when dropped.
    pub(super) fn acquired(rank: LockRank) -> HeldToken {
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        HELD.with(|h| h.borrow_mut().push(Held { rank, token }));
        HeldToken {
            token,
            name: rank.name,
        }
    }

    /// RAII member of every ordered guard; declared *after* the inner
    /// guard so the real lock is released before the stack pops.
    pub(super) struct HeldToken {
        token: u64,
        name: &'static str,
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut h = h.borrow_mut();
                if let Some(i) = h.iter().rposition(|x| x.token == self.token) {
                    h.remove(i);
                }
            });
            if std::thread::panicking() {
                // The holder is unwinding: the shim lock never poisons
                // (§15 witness protocol), so surface the event for the
                // observability plane instead of cascading the panic.
                POISONED.lock().push(self.name);
                if let Some(obs) = SINK.lock().as_ref() {
                    obs.emit(
                        netagg_obs::names::EVENT_LOCK_POISON,
                        format!(
                            "lock '{}' released during a panic unwind; \
                             state may be mid-update",
                            self.name
                        ),
                    );
                }
            }
        }
    }

    /// Record the §9 kind of a thread a `JoinScope` spawned: its name with
    /// every digit run (box, app, worker, shard id) collapsed to `#`.
    pub(crate) fn spawned(name: &str) {
        let mut kind = String::with_capacity(name.len());
        for c in name.chars() {
            if !c.is_ascii_digit() {
                kind.push(c);
            } else if !kind.ends_with('#') {
                kind.push('#');
            }
        }
        THREAD_KINDS.lock().insert(kind);
    }

    pub(super) fn snapshot_edges() -> Vec<(String, String)> {
        let edges = EDGES.lock();
        edges
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    pub(super) fn snapshot_thread_kinds() -> Vec<String> {
        THREAD_KINDS.lock().iter().cloned().collect()
    }

    pub(super) fn reset() {
        EDGES.lock().clear();
        THREAD_KINDS.lock().clear();
        POISONED.lock().clear();
    }

    pub(super) fn snapshot_poisoned() -> Vec<String> {
        POISONED.lock().iter().map(|s| s.to_string()).collect()
    }
}

/// Release-build witness: zero-cost no-ops so [`OrderedMutex`] is exactly
/// the `parking_lot` shim and the blocking primitives carry no check.
#[cfg(not(debug_assertions))]
mod witness {
    use crate::lock_order::LockRank;

    #[inline(always)]
    pub(super) fn check(_rank: LockRank, _non_blocking: bool) {}

    #[inline(always)]
    pub(crate) fn may_block(_what: &str) {}

    #[inline(always)]
    pub(crate) fn spawned(_name: &str) {}

    pub(super) struct HeldToken;

    #[inline(always)]
    pub(super) fn acquired(_rank: LockRank) -> HeldToken {
        HeldToken
    }
}

pub(crate) use witness::{may_block, spawned};

/// Every `(held, acquired)` lock pair observed by the witness since
/// process start (or the last [`witness_reset`]). Debug builds only;
/// release builds return an empty set.
pub fn witness_edges() -> Vec<(String, String)> {
    #[cfg(debug_assertions)]
    {
        witness::snapshot_edges()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// The §9 kind of every thread a [`super::JoinScope`] spawned since process
/// start (or the last [`witness_reset`]): the thread name with each digit
/// run collapsed to `#`, e.g. `aggbox-#-reader`. `tests/lock_witness.rs`
/// compares the set with the DESIGN.md §9 thread inventory. Debug builds
/// only; release builds return an empty set.
pub fn witness_thread_kinds() -> Vec<String> {
    #[cfg(debug_assertions)]
    {
        witness::snapshot_thread_kinds()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Clear the witness edge set, thread kinds and poison log (test isolation).
pub fn witness_reset() {
    #[cfg(debug_assertions)]
    witness::reset();
}

/// Registry names of locks whose holder panicked while the guard was
/// live. Debug builds only.
pub fn poisoned_locks() -> Vec<String> {
    #[cfg(debug_assertions)]
    {
        witness::snapshot_poisoned()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Attach the registry that receives a `lock_poison` structured event
/// (§7) whenever an ordered guard is dropped during a panic unwind.
/// No-op in release builds.
pub fn set_poison_sink(obs: &MetricsRegistry) {
    #[cfg(debug_assertions)]
    {
        *witness::SINK.lock() = Some(obs.clone());
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = obs;
    }
}

/// A [`Mutex`] with a static position in the global acquisition order
/// (DESIGN.md §15).
///
/// Debug builds enforce the order at runtime via the witness; release
/// builds are a zero-cost wrapper. Like the `parking_lot` shim it never
/// poisons — a panicked holder's partial update stays visible, surfaced
/// as a `lock_poison` event rather than a poisoned `Result`.
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create an ordered mutex at `rank` protecting `value`.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquire the lock. Debug builds panic on a rank inversion *before*
    /// blocking.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        witness::check(self.rank, false);
        let guard = self.inner.lock();
        OrderedMutexGuard {
            guard,
            _held: witness::acquired(self.rank),
        }
    }

    /// Try to acquire the lock without blocking. Exempt from the rank
    /// check (a non-blocking attempt cannot complete a deadlock cycle),
    /// but the attempted edge is still recorded.
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        witness::check(self.rank, true);
        let guard = self.inner.try_lock()?;
        Some(OrderedMutexGuard {
            guard,
            _held: witness::acquired(self.rank),
        })
    }

    /// This lock's static rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard returned by [`OrderedMutex::lock`]. Field order matters:
/// the inner guard releases the lock before `_held` pops the witness
/// stack.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    guard: parking_lot::MutexGuard<'a, T>,
    _held: witness::HeldToken,
}

impl<'a, T: ?Sized> OrderedMutexGuard<'a, T> {
    /// The underlying shim guard, for [`parking_lot::Condvar`] waits
    /// (`cv.wait(guard.inner())`). The wait releases and reacquires the
    /// same lock, so the witness stack entry stays valid across it.
    pub fn inner(&mut self) -> &mut parking_lot::MutexGuard<'a, T> {
        &mut self.guard
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::super::scope::panic_message;
    use super::super::{CancelToken, Mailbox, MailboxRecvError, OverflowPolicy};
    use super::*;
    use std::time::Duration;

    #[test]
    #[cfg(debug_assertions)]
    fn blocking_under_a_ranked_lock_panics_unless_the_rank_tolerates_it() {
        let mb: Mailbox<u32> = Mailbox::new("t", 1, OverflowPolicy::Block, CancelToken::new());
        let strict = OrderedMutex::new(LockRank::new(900, "test.strict"), ());
        let tolerant = LockRank::new(901, "test.tolerant").blocking_tolerant();
        let tolerant = OrderedMutex::new(tolerant, ());
        let tick = Duration::from_millis(1);
        {
            let _g = tolerant.lock();
            assert_eq!(mb.recv_timeout(tick), Err(MailboxRecvError::Timeout));
        }
        let _g = strict.lock();
        // Operations that never park are legal under any lock.
        mb.try_send(1).unwrap();
        assert_eq!(mb.try_recv(), Ok(1));
        let blocked = std::panic::AssertUnwindSafe(|| mb.recv_timeout(tick));
        let panic = std::panic::catch_unwind(blocked).expect_err("recv under test.strict");
        let msg = panic_message(panic.as_ref());
        assert!(
            msg.contains("blocking while locked") && msg.contains("test.strict"),
            "{msg}"
        );
    }
}
