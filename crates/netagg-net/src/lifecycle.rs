//! Unified lifecycle and backpressure runtime.
//!
//! Every threaded layer of the stack (scheduler pools, agg-box pumps, shim
//! listeners, the failure detector) used to hand-roll the same three
//! fragments: an `AtomicBool` shutdown flag, a 100 ms `recv_timeout` poll
//! loop that noticed the flag eventually, and an unbounded or ad-hoc
//! channel in between. This module replaces all three with one set of
//! primitives (see DESIGN.md §9 for the system-wide inventory):
//!
//! * [`CancelToken`] — a cloneable cancellation flag whose [`cancel`]
//!   *wakes* blocked waiters immediately (condition-variable notify plus
//!   registered wakers) instead of being observed by polling.
//! * [`Mailbox`] — a bounded MPMC queue with an explicit
//!   [`OverflowPolicy`] (`Block`, `DropOldest`, `Reject`) and
//!   shutdown-aware send/recv: a cancelled token or a closed queue turns
//!   every blocked operation into a prompt, typed error.
//! * [`JoinScope`] — an owner for named threads
//!   (`std::thread::Builder`) that joins with a deadline and propagates
//!   worker panics, so a hung thread becomes a loud error instead of a
//!   silent futex park.
//! * [`OrderedMutex`] — a mutex with a static rank in the one global
//!   acquisition order. Its debug-build witness is the only enforcement
//!   of DESIGN.md §15: it panics on a rank inversion, records every
//!   `(held, acquired)` edge, and makes the blocking operations above
//!   (and [`crate::FlowWindow::acquire`]) panic when entered under a lock
//!   `lock_order.rs` does not declare blocking-tolerant.
//!
//! [`cancel`]: CancelToken::cancel
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

use crate::lock_order::LockRank;
use netagg_obs::{names, Counter, Gauge, MetricsRegistry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default deadline a [`JoinScope`] grants its threads to exit after
/// cancellation before declaring them hung.
pub const DEFAULT_JOIN_DEADLINE: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

type Waker = Box<dyn Fn() + Send + Sync>;

#[derive(Default)]
struct WakerTable {
    next_id: u64,
    wakers: Vec<(u64, Waker)>,
}

struct TokenInner {
    cancelled: AtomicBool,
    table: Mutex<WakerTable>,
    cv: Condvar,
    // Dedicated mutex for `wait_timeout` (parking_lot condvars pair with a
    // specific mutex; the waker table lock must not double as the wait
    // lock, or a slow waker would stall waiters).
    wait_lock: Mutex<()>,
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
                cv: Condvar::new(),
                wait_lock: Mutex::new(()),
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
        // Take and release the wait lock so a waiter that checked the flag
        // but has not yet parked cannot miss the notify.
        drop(self.inner.wait_lock.lock());
        self.inner.cv.notify_all();
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
        let deadline = Instant::now() + d;
        let mut g = self.inner.wait_lock.lock();
        loop {
            if self.is_cancelled() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner.cv.wait_for(&mut g, deadline - now);
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

// ---------------------------------------------------------------------------
// Mailbox
// ---------------------------------------------------------------------------

/// What a bounded [`Mailbox`] does when a send finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the sender until space frees up (backpressure).
    Block,
    /// Evict the oldest queued item, count it dropped, enqueue the new one.
    DropOldest,
    /// Refuse the new item ([`MailboxSendError::Full`]), counting it dropped.
    Reject,
}

impl OverflowPolicy {
    /// Stable lowercase label used in metric names (`mailbox.dropped.*`).
    pub fn label(&self) -> &'static str {
        match self {
            OverflowPolicy::Block => "block",
            OverflowPolicy::DropOldest => "drop_oldest",
            OverflowPolicy::Reject => "reject",
        }
    }
}

/// Send failed; the rejected value is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum MailboxSendError<T> {
    /// The mailbox is full and its policy is [`OverflowPolicy::Reject`].
    Full(T),
    /// The mailbox was closed.
    Closed(T),
    /// The mailbox's cancel token fired.
    Cancelled(T),
}

/// What, besides an item arriving or the queue closing, ends a blocking
/// receive ([`Mailbox::recv_until`], and every transport `recv*`/`accept*`
/// above it).
#[derive(Debug, Clone, Copy)]
pub enum Wait<'a> {
    /// Nothing else.
    Forever,
    /// This much time passing ([`MailboxRecvError::Timeout`]).
    For(Duration),
    /// The caller's own token firing — e.g. a component's cancel, distinct
    /// from the token the queue is bound to
    /// ([`MailboxRecvError::Cancelled`]).
    Cancel(&'a CancelToken),
}

/// Receive failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MailboxRecvError {
    /// Nothing arrived before the [`Wait::For`] deadline (for
    /// [`Mailbox::try_recv`]: nothing is queued right now).
    Timeout,
    /// The mailbox was closed and drained.
    Closed,
    /// A cancel token fired.
    Cancelled,
}

impl<T> fmt::Display for MailboxSendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MailboxSendError::Full(_) => write!(f, "mailbox full"),
            MailboxSendError::Closed(_) => write!(f, "mailbox closed"),
            MailboxSendError::Cancelled(_) => write!(f, "mailbox cancelled"),
        }
    }
}

struct MailboxState<T> {
    queue: VecDeque<T>,
    closed: bool,
    dropped: u64,
}

/// Condvar pair + state, split into its own `Arc` so the cancel waker can
/// capture it without keeping the whole mailbox (and through it the waker
/// guard, and through that the token) alive in a cycle.
struct MailboxShared<T> {
    state: Mutex<MailboxState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> MailboxShared<T> {
    /// Wake every parked sender and receiver. Takes the state lock first so
    /// a thread between its cancel check and its park cannot miss the notify.
    fn wake_all(&self) {
        drop(self.state.lock());
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

struct MailboxObs {
    depth: Arc<Gauge>,
    dropped: Arc<Counter>,
    dropped_policy: Arc<Counter>,
}

struct MailboxInner<T> {
    name: String,
    capacity: usize,
    policy: OverflowPolicy,
    cancel: CancelToken,
    shared: Arc<MailboxShared<T>>,
    obs: Option<MailboxObs>,
    // Keeps the bound token's waker registered for the mailbox's lifetime;
    // dropping the last mailbox handle unregisters it.
    _waker: WakerGuard,
}

/// A bounded multi-producer multi-consumer queue with an explicit
/// [`OverflowPolicy`] and shutdown-aware blocking operations.
///
/// Every mailbox is bound to a [`CancelToken`] at construction: once that
/// token cancels, blocked senders and receivers wake immediately and all
/// subsequent operations fail with a `Cancelled` error. Cancellation wins
/// over queued data — a receiver observing a cancelled token returns
/// promptly even when items remain, because shutdown must not depend on
/// draining.
///
/// Cloning shares the queue (an `Arc`).
pub struct Mailbox<T> {
    inner: Arc<MailboxInner<T>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T> fmt::Debug for Mailbox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mailbox")
            .field("name", &self.inner.name)
            .field("capacity", &self.inner.capacity)
            .field("policy", &self.inner.policy)
            .finish()
    }
}

impl<T: Send + 'static> Mailbox<T> {
    /// A bounded mailbox named `name` (metric key suffix), holding at most
    /// `capacity` items, overflowing per `policy`, bound to `cancel`.
    pub fn new(
        name: impl Into<String>,
        capacity: usize,
        policy: OverflowPolicy,
        cancel: CancelToken,
    ) -> Self {
        Self::build(name.into(), capacity, policy, cancel, None)
    }

    /// Like [`Mailbox::new`], additionally publishing `mailbox.depth.<name>`,
    /// `mailbox.dropped.<name>` and `mailbox.dropped.<policy>` into `obs`
    /// (the DESIGN.md §7 contract).
    pub fn with_obs(
        name: impl Into<String>,
        capacity: usize,
        policy: OverflowPolicy,
        cancel: CancelToken,
        obs: &MetricsRegistry,
    ) -> Self {
        let name = name.into();
        let mobs = MailboxObs {
            depth: obs.gauge(&names::mailbox_depth(&name)),
            dropped: obs.counter(&names::mailbox_dropped(&name)),
            dropped_policy: obs.counter(&names::mailbox_dropped_policy(policy.label())),
        };
        Self::build(name, capacity, policy, cancel, Some(mobs))
    }

    fn build(
        name: String,
        capacity: usize,
        policy: OverflowPolicy,
        cancel: CancelToken,
        obs: Option<MailboxObs>,
    ) -> Self {
        assert!(capacity > 0, "mailbox capacity must be positive");
        let shared = Arc::new(MailboxShared {
            state: Mutex::new(MailboxState {
                queue: VecDeque::new(),
                closed: false,
                dropped: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let wake = shared.clone();
        let waker = cancel.register_waker(move || wake.wake_all());
        Self {
            inner: Arc::new(MailboxInner {
                name,
                capacity,
                policy,
                cancel,
                shared,
                obs,
                _waker: waker,
            }),
        }
    }

    /// The one blocking receive: park until an item arrives, the mailbox
    /// closes and drains, the bound token cancels, or `wait` ends.
    /// [`Wait::Cancel`] registers a waker on the caller's token for the
    /// duration of the call (the bound token's is registered for life).
    pub fn recv_until(&self, wait: Wait<'_>) -> Result<T, MailboxRecvError> {
        may_block("Mailbox::recv");
        let (deadline, extra) = match wait {
            Wait::Forever => (None, None),
            Wait::For(d) => (Some(Instant::now() + d), None),
            Wait::Cancel(c) => (None, Some(c)),
        };
        let _guard = extra.filter(|c| !c.same(&self.inner.cancel)).map(|c| {
            let wake = self.inner.shared.clone();
            c.register_waker(move || wake.wake_all())
        });
        let sh = &self.inner.shared;
        let mut s = sh.state.lock();
        loop {
            if let Some(r) = self.poll(&mut s, extra) {
                return r;
            }
            match deadline {
                None => sh.not_empty.wait(&mut s),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(MailboxRecvError::Timeout);
                    }
                    sh.not_empty.wait_for(&mut s, d - now);
                }
            }
        }
    }

    /// [`Mailbox::recv_until`] with nothing else to wait for.
    pub fn recv(&self) -> Result<T, MailboxRecvError> {
        self.recv_until(Wait::Forever)
    }

    /// [`Mailbox::recv_until`] a timeout — under the name the
    /// `no-poll-shutdown` lint looks for in shutdown loops (DESIGN.md §10).
    pub fn recv_timeout(&self, d: Duration) -> Result<T, MailboxRecvError> {
        self.recv_until(Wait::For(d))
    }
}

impl<T> Mailbox<T> {
    fn note_depth(&self, depth: usize) {
        if let Some(o) = &self.inner.obs {
            o.depth.set(depth as f64);
        }
    }

    fn note_drop(&self) {
        if let Some(o) = &self.inner.obs {
            o.dropped.inc();
            o.dropped_policy.inc();
        }
    }

    /// Enqueue `v`, applying the overflow policy when full. `Block`
    /// senders wake on space, close or cancellation.
    pub fn send(&self, v: T) -> Result<(), MailboxSendError<T>> {
        if self.inner.policy == OverflowPolicy::Block {
            may_block("Mailbox::send");
        }
        let sh = &self.inner.shared;
        let mut s = sh.state.lock();
        loop {
            if self.inner.cancel.is_cancelled() {
                return Err(MailboxSendError::Cancelled(v));
            }
            if s.closed {
                return Err(MailboxSendError::Closed(v));
            }
            if s.queue.len() < self.inner.capacity {
                s.queue.push_back(v);
                self.note_depth(s.queue.len());
                sh.not_empty.notify_one();
                return Ok(());
            }
            match self.inner.policy {
                OverflowPolicy::Block => sh.not_full.wait(&mut s),
                OverflowPolicy::DropOldest => {
                    s.queue.pop_front();
                    s.dropped += 1;
                    self.note_drop();
                    s.queue.push_back(v);
                    self.note_depth(s.queue.len());
                    sh.not_empty.notify_one();
                    return Ok(());
                }
                OverflowPolicy::Reject => {
                    s.dropped += 1;
                    self.note_drop();
                    return Err(MailboxSendError::Full(v));
                }
            }
        }
    }

    /// Enqueue `v` without ever blocking, regardless of the overflow
    /// policy: a full mailbox returns [`MailboxSendError::Full`] even under
    /// [`OverflowPolicy::Block`], and the caller keeps the item (it is not
    /// counted as dropped — the caller is expected to retry or shed).
    ///
    /// This exists for producers that must never park, such as the TCP
    /// reactor delivering inbound frames (§12): a full inbox becomes
    /// kernel-level backpressure on the link instead of a blocked reactor.
    pub fn try_send(&self, v: T) -> Result<(), MailboxSendError<T>> {
        let sh = &self.inner.shared;
        let mut s = sh.state.lock();
        if self.inner.cancel.is_cancelled() {
            return Err(MailboxSendError::Cancelled(v));
        }
        if s.closed {
            return Err(MailboxSendError::Closed(v));
        }
        if s.queue.len() < self.inner.capacity {
            s.queue.push_back(v);
            self.note_depth(s.queue.len());
            sh.not_empty.notify_one();
            Ok(())
        } else {
            Err(MailboxSendError::Full(v))
        }
    }

    /// One attempt under the state lock, never parking: cancel beats data,
    /// data beats close; `None` when the caller would have to wait.
    fn poll(
        &self,
        s: &mut MailboxState<T>,
        extra: Option<&CancelToken>,
    ) -> Option<Result<T, MailboxRecvError>> {
        if self.inner.cancel.is_cancelled() || extra.is_some_and(|c| c.is_cancelled()) {
            return Some(Err(MailboxRecvError::Cancelled));
        }
        if let Some(v) = s.queue.pop_front() {
            self.note_depth(s.queue.len());
            self.inner.shared.not_full.notify_one();
            return Some(Ok(v));
        }
        s.closed.then_some(Err(MailboxRecvError::Closed))
    }

    /// Dequeue without blocking; an empty mailbox is
    /// [`MailboxRecvError::Timeout`].
    pub fn try_recv(&self) -> Result<T, MailboxRecvError> {
        let mut s = self.inner.shared.state.lock();
        self.poll(&mut s, None)
            .unwrap_or(Err(MailboxRecvError::Timeout))
    }

    /// Close the mailbox: senders fail immediately; receivers drain the
    /// remaining items, then observe `Closed` (mpsc disconnect semantics).
    pub fn close(&self) {
        let sh = &self.inner.shared;
        {
            let mut s = sh.state.lock();
            s.closed = true;
        }
        sh.not_empty.notify_all();
        sh.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.shared.state.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.inner.policy
    }

    /// Items discarded so far by `DropOldest` eviction or `Reject` refusal.
    pub fn dropped(&self) -> u64 {
        self.inner.shared.state.lock().dropped
    }

    /// The mailbox's metric-key name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The cancel token the mailbox was bound to at construction.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.inner.cancel
    }
}

// ---------------------------------------------------------------------------
// JoinScope
// ---------------------------------------------------------------------------

struct ThreadSlot {
    name: String,
    /// Fired by the thread's last act; the joiner sleeps on it.
    done: CancelToken,
    handle: std::thread::JoinHandle<()>,
}

/// What went wrong while joining a scope: threads that outlived the
/// deadline, and panics harvested from threads that did exit.
#[derive(Debug)]
pub struct ScopeError {
    /// The scope's name.
    pub scope: String,
    /// Names of threads still running when the join deadline expired.
    pub hung: Vec<String>,
    /// `(thread name, panic message)` for every propagated panic.
    pub panics: Vec<(String, String)>,
}

impl fmt::Display for ScopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "join scope '{}' failed:", self.scope)?;
        if !self.hung.is_empty() {
            write!(f, " hung threads past deadline: {:?};", self.hung)?;
        }
        for (name, msg) in &self.panics {
            write!(f, " thread '{name}' panicked: {msg};")?;
        }
        Ok(())
    }
}

impl std::error::Error for ScopeError {}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct ScopeObs {
    threads_active: Arc<Gauge>,
}

/// Owns a set of named threads tied to one [`CancelToken`].
///
/// [`JoinScope::join_all`] cancels the token, grants every thread a shared
/// deadline to exit, joins the finished ones (harvesting panics), and
/// reports the rest as hung — so a stuck thread is a loud [`ScopeError`],
/// never a silent futex park. Dropping the scope joins too, panicking on
/// error unless already unwinding.
pub struct JoinScope {
    name: String,
    cancel: CancelToken,
    deadline: Duration,
    slots: Mutex<Vec<ThreadSlot>>,
    obs: Option<ScopeObs>,
}

impl fmt::Debug for JoinScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinScope")
            .field("name", &self.name)
            .field("threads", &self.slots.lock().len())
            .finish()
    }
}

impl JoinScope {
    /// A scope named `name` (error messages only), cancelling via `cancel`,
    /// granting `deadline` for threads to exit at join time.
    pub fn new(name: impl Into<String>, cancel: CancelToken, deadline: Duration) -> Self {
        Self {
            name: name.into(),
            cancel,
            deadline,
            slots: Mutex::new(Vec::new()),
            obs: None,
        }
    }

    /// Like [`JoinScope::new`], additionally maintaining the
    /// `runtime.threads_active` gauge in `obs` (DESIGN.md §7). Pass the
    /// deployment registry so every scope shares one gauge.
    pub fn with_obs(
        name: impl Into<String>,
        cancel: CancelToken,
        deadline: Duration,
        obs: Option<&MetricsRegistry>,
    ) -> Self {
        let mut s = Self::new(name, cancel, deadline);
        s.obs = obs.map(|o| ScopeObs {
            threads_active: o.gauge(names::RUNTIME_THREADS_ACTIVE),
        });
        s
    }

    /// The scope's cancel token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Threads currently owned (spawned and not yet joined).
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether the scope currently owns no threads.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }

    /// Spawn a named thread into the scope. Returns an error only if the
    /// OS refuses to spawn. Spawning after cancellation is a no-op (the
    /// closure is dropped): the scope is already shutting down.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<()> {
        let name = name.into();
        if self.cancel.is_cancelled() {
            return Ok(());
        }
        // Runs when the thread ends, even by panic — and when the OS refuses
        // the thread, because the refused closure is dropped with it: the
        // gauge stays honest, and the done flag is set last so a joiner
        // observing it sees final state.
        struct Exit {
            done: CancelToken,
            gauge: Option<Arc<Gauge>>,
        }
        impl Drop for Exit {
            fn drop(&mut self) {
                if let Some(g) = &self.gauge {
                    g.add(-1.0);
                }
                self.done.cancel();
            }
        }
        let done = CancelToken::new();
        let gauge = self.obs.as_ref().map(|o| o.threads_active.clone());
        if let Some(g) = &gauge {
            g.add(1.0);
        }
        let exit = Exit {
            done: done.clone(),
            gauge,
        };
        witness::spawned(&name);
        #[expect(
            clippy::disallowed_methods,
            reason = "the one place threads are built: named, counted, deadline-joined (§9)"
        )]
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                let _exit = exit;
                f();
            })?;
        self.slots.lock().push(ThreadSlot { name, done, handle });
        Ok(())
    }

    /// Cancel the token and join every owned thread: wait out the shared
    /// deadline, join finished threads (collecting panic payloads), and
    /// report the rest as hung. Idempotent; a join requested from inside
    /// one of the scope's own threads skips (detaches) the calling thread.
    pub fn join_all(&self) -> Result<(), ScopeError> {
        self.cancel.cancel();
        let slots: Vec<ThreadSlot> = std::mem::take(&mut *self.slots.lock());
        if slots.is_empty() {
            return Ok(());
        }
        may_block("JoinScope::join_all");
        let deadline = Instant::now() + self.deadline;
        let current = std::thread::current().id();
        let mut hung = Vec::new();
        let mut panics = Vec::new();
        for slot in slots {
            if slot.handle.thread().id() == current {
                // Shutdown invoked from one of our own threads (e.g. the
                // last task on a pool): it cannot join itself; detach.
                continue;
            }
            if slot
                .done
                .wait_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                if let Err(p) = slot.handle.join() {
                    panics.push((slot.name, panic_message(p.as_ref())));
                }
            } else {
                hung.push(slot.name);
            }
        }
        if hung.is_empty() && panics.is_empty() {
            Ok(())
        } else {
            Err(ScopeError {
                scope: self.name.clone(),
                hung,
                panics,
            })
        }
    }

    /// [`JoinScope::join_all`], escalating any [`ScopeError`] into a panic
    /// — unless the thread is already unwinding, in which case the error
    /// is printed to stderr (a double panic would abort).
    pub fn finish(&self) {
        if let Err(e) = self.join_all() {
            if std::thread::panicking() {
                eprintln!("lifecycle: {e}");
            } else {
                panic!("{e}");
            }
        }
    }
}

impl Drop for JoinScope {
    fn drop(&mut self) {
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// Ordered locks & the lock-order witness (DESIGN.md §15)
// ---------------------------------------------------------------------------

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
    pub(super) fn spawned(name: &str) {
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
    pub(super) fn spawned(_name: &str) {}

    pub(super) struct HeldToken;

    #[inline(always)]
    pub(super) fn acquired(_rank: LockRank) -> HeldToken {
        HeldToken
    }
}

pub(crate) use witness::may_block;

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

/// The §9 kind of every thread a [`JoinScope`] spawned since process
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
    /// The underlying shim guard, for [`Condvar`] waits
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

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cancel_wakes_blocked_recv_immediately() {
        let cancel = CancelToken::new();
        let mb: Mailbox<u32> = Mailbox::new("t", 4, OverflowPolicy::Block, cancel.clone());
        let mb2 = mb.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test parks a receiver to time the cancel wakeup; the mailbox, not a scope, is under test"
        )]
        let h = std::thread::spawn(move || {
            let t0 = Instant::now();
            let r = mb2.recv();
            (r, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        cancel.cancel();
        let (r, _) = h.join().unwrap();
        assert_eq!(r, Err(MailboxRecvError::Cancelled));
        assert!(
            t0.elapsed() < Duration::from_millis(80),
            "cancel must wake the receiver, not wait for a poll tick"
        );
    }

    #[test]
    fn cancel_wins_over_queued_data() {
        let cancel = CancelToken::new();
        let mb: Mailbox<u32> = Mailbox::new("t", 4, OverflowPolicy::Block, cancel.clone());
        mb.send(1).unwrap();
        cancel.cancel();
        assert_eq!(mb.recv(), Err(MailboxRecvError::Cancelled));
    }

    #[test]
    fn drop_oldest_keeps_exactly_the_last_capacity_items() {
        let mb: Mailbox<u32> = Mailbox::new("t", 8, OverflowPolicy::DropOldest, CancelToken::new());
        for i in 0..20 {
            mb.send(i).unwrap();
        }
        assert_eq!(mb.dropped(), 12);
        let got: Vec<u32> = std::iter::from_fn(|| mb.try_recv().ok()).collect();
        assert_eq!(got, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn reject_refuses_and_counts() {
        let mb: Mailbox<u32> = Mailbox::new("t", 2, OverflowPolicy::Reject, CancelToken::new());
        mb.send(1).unwrap();
        mb.send(2).unwrap();
        assert_eq!(mb.send(3), Err(MailboxSendError::Full(3)));
        assert_eq!(mb.dropped(), 1);
        assert_eq!(mb.len(), 2);
    }

    #[test]
    fn try_send_never_blocks_and_keeps_the_item() {
        let mb: Mailbox<u32> = Mailbox::new("t", 2, OverflowPolicy::Block, CancelToken::new());
        mb.try_send(1).unwrap();
        mb.try_send(2).unwrap();
        // Block policy would park here; try_send must hand the item back.
        assert_eq!(mb.try_send(3), Err(MailboxSendError::Full(3)));
        assert_eq!(mb.dropped(), 0, "a refused try_send is not a drop");
        mb.close();
        assert_eq!(mb.try_send(4), Err(MailboxSendError::Closed(4)));
        assert_eq!(mb.recv().unwrap(), 1);
    }

    #[test]
    fn nested_mailbox_drop_does_not_deadlock_the_waker_table() {
        // A queued item that itself owns a mailbox on the same token:
        // dropping the outer mailbox's last handle drops the queue from
        // inside WakerGuard teardown, which unregisters the inner
        // mailbox's waker on the same (non-reentrant) table lock. This
        // deadlocked before unregistration moved the waker drop outside
        // the lock — the TCP reactor's accept queue has exactly this
        // shape (queued connections own their inbox mailboxes).
        let cancel = CancelToken::new();
        let outer: Mailbox<Mailbox<u32>> =
            Mailbox::new("outer", 4, OverflowPolicy::Block, cancel.clone());
        let inner: Mailbox<u32> = Mailbox::new("inner", 4, OverflowPolicy::Block, cancel.clone());
        outer.send(inner).unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test drops the last mailbox handle on a plain thread to catch a drop-order deadlock"
        )]
        let h = std::thread::spawn(move || {
            drop(outer); // last handle: queue (and inner mailbox) drop here
            flag.store(true, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        while !done.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "nested mailbox drop deadlocked");
            std::thread::sleep(Duration::from_millis(5));
        }
        h.join().unwrap();
    }

    #[test]
    fn block_sender_unblocks_on_recv_and_fails_on_close() {
        let mb: Mailbox<u32> = Mailbox::new("t", 1, OverflowPolicy::Block, CancelToken::new());
        mb.send(1).unwrap();
        let mb2 = mb.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test needs a deliberately blocked sender to observe backpressure"
        )]
        let h = std::thread::spawn(move || mb2.send(2));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(mb.recv(), Ok(1));
        assert_eq!(h.join().unwrap(), Ok(()));
        // A sender blocked on a full mailbox observes close promptly.
        let mb3 = mb.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test needs a deliberately blocked sender to observe close"
        )]
        let h = std::thread::spawn(move || mb3.send(3));
        std::thread::sleep(Duration::from_millis(30));
        mb.close();
        assert!(matches!(
            h.join().unwrap(),
            Err(MailboxSendError::Closed(3))
        ));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let mb: Mailbox<u32> = Mailbox::new("t", 4, OverflowPolicy::Block, CancelToken::new());
        mb.send(7).unwrap();
        mb.close();
        assert_eq!(mb.recv(), Ok(7));
        assert_eq!(mb.recv(), Err(MailboxRecvError::Closed));
    }

    #[test]
    fn recv_cancellable_wakes_on_foreign_token() {
        let mb: Mailbox<u32> = Mailbox::new("t", 4, OverflowPolicy::Block, CancelToken::new());
        let conn_cancel = CancelToken::new();
        let mb2 = mb.clone();
        let c2 = conn_cancel.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test parks a receiver to time the foreign-token wakeup"
        )]
        let h = std::thread::spawn(move || mb2.recv_until(Wait::Cancel(&c2)));
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        conn_cancel.cancel();
        assert_eq!(h.join().unwrap(), Err(MailboxRecvError::Cancelled));
        assert!(t0.elapsed() < Duration::from_millis(80));
    }

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

    #[test]
    fn join_scope_joins_and_propagates_panics() {
        let scope = JoinScope::new("test", CancelToken::new(), Duration::from_secs(2));
        let n = Arc::new(AtomicUsize::new(0));
        for i in 0..3 {
            let n2 = n.clone();
            scope
                .spawn(format!("worker-{i}"), move || {
                    n2.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        scope
            .spawn("boom", || panic!("deliberate test panic"))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let err = scope.join_all().expect_err("panic must propagate");
        assert_eq!(n.load(Ordering::SeqCst), 3);
        assert!(err.hung.is_empty());
        assert_eq!(err.panics.len(), 1);
        assert_eq!(err.panics[0].0, "boom");
        assert!(err.panics[0].1.contains("deliberate test panic"));
        // Idempotent: slots were drained, second join is clean.
        assert!(scope.join_all().is_ok());
    }

    #[test]
    fn join_scope_flags_hung_threads_at_deadline() {
        let scope = JoinScope::new("test", CancelToken::new(), Duration::from_millis(100));
        scope
            .spawn("sleeper", || std::thread::sleep(Duration::from_millis(600)))
            .unwrap();
        let t0 = Instant::now();
        let err = scope.join_all().expect_err("sleeper outlives deadline");
        assert!(t0.elapsed() < Duration::from_millis(500));
        assert_eq!(err.hung, vec!["sleeper".to_string()]);
        // Let the detached sleeper finish before the test process exits.
        std::thread::sleep(Duration::from_millis(600));
    }

    #[test]
    fn join_scope_cancel_token_stops_workers() {
        let cancel = CancelToken::new();
        let scope = JoinScope::new("test", cancel.clone(), Duration::from_secs(2));
        let mb: Mailbox<u32> = Mailbox::new("t", 4, OverflowPolicy::Block, cancel.clone());
        let mb2 = mb.clone();
        scope
            .spawn("pump", move || while mb2.recv().is_ok() {})
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        scope.join_all().unwrap();
    }

    #[test]
    fn spawn_after_cancel_is_a_noop() {
        let cancel = CancelToken::new();
        let scope = JoinScope::new("test", cancel.clone(), Duration::from_secs(1));
        cancel.cancel();
        scope.spawn("late", || {}).unwrap();
        assert!(scope.is_empty());
    }

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

    #[test]
    fn mailbox_obs_publishes_depth_and_drops() {
        let obs = MetricsRegistry::new();
        let cancel = CancelToken::new();
        let mb: Mailbox<u32> =
            Mailbox::with_obs("egress", 2, OverflowPolicy::DropOldest, cancel, &obs);
        mb.send(1).unwrap();
        mb.send(2).unwrap();
        mb.send(3).unwrap();
        assert_eq!(obs.gauge("mailbox.depth.egress").get(), 2.0);
        assert_eq!(obs.counter("mailbox.dropped.egress").get(), 1);
        assert_eq!(obs.counter("mailbox.dropped.drop_oldest").get(), 1);
    }
}
