//! [`Mailbox`]: the bounded queue with an explicit [`OverflowPolicy`], one
//! blocking receive and shutdown-aware operations.

use super::{may_block, CancelToken, Deadline, Parked, Parking, WakerGuard};
use netagg_obs::{names, Counter, Gauge, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

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
    /// Parked on `not_empty`.
    receivers: Parked,
    /// Parked on `not_full`.
    senders: Parked,
}

/// Condvar pair + state, split into its own `Arc` so the cancel waker can
/// capture it without keeping the whole mailbox (and through it the waker
/// guard, and through that the token) alive in a cycle.
struct MailboxShared<T> {
    state: Mutex<MailboxState<T>>,
    not_empty: Parking,
    not_full: Parking,
}

impl<T> MailboxShared<T> {
    /// Wake every parked sender and receiver (cancel, close) under the state
    /// lock: a thread between its cancel check and its park cannot miss it.
    fn wake_all(&self, s: &mut MailboxState<T>) {
        self.not_empty.wake_all(&mut s.receivers);
        self.not_full.wake_all(&mut s.senders);
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
                receivers: Parked::default(),
                senders: Parked::default(),
            }),
            not_empty: Parking::new(),
            not_full: Parking::new(),
        });
        let wake = shared.clone();
        let waker = cancel.register_waker(move || wake.wake_all(&mut wake.state.lock()));
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
    /// closes and drains, the bound token cancels, or `wait` ends. Only a
    /// receive that has to park registers a waker on the caller's
    /// [`Wait::Cancel`] token, for the rest of the call (the bound token's
    /// is registered for life); one that finds an item costs one lock.
    pub fn recv_until(&self, wait: Wait<'_>) -> Result<T, MailboxRecvError> {
        may_block("Mailbox::recv");
        let (deadline, extra) = match wait {
            Wait::Forever => (Deadline::NEVER, None),
            Wait::For(d) => (Deadline::after(d), None),
            Wait::Cancel(c) => (Deadline::NEVER, Some(c)),
        };
        let sh = &self.inner.shared;
        if let Some(r) = self.poll(&mut sh.state.lock(), extra) {
            return r;
        }
        // Registered with the state lock released (a cancelled token runs
        // the waker on the spot), unregistered after the guard below drops.
        let _waker = extra.filter(|c| !c.same(&self.inner.cancel)).map(|c| {
            let wake = sh.clone();
            c.register_waker(move || wake.wake_all(&mut wake.state.lock()))
        });
        let mut s = sh.state.lock();
        let r = loop {
            if let Some(r) = self.poll(&mut s, extra) {
                break r;
            }
            if !sh.not_empty.wait(&mut s, |s| &mut s.receivers, deadline) {
                return Err(MailboxRecvError::Timeout);
            }
        };
        // Cancelled by its own token, say: the wake-up this thread used
        // may be the only one issued for the items it leaves behind.
        if r.is_err() && !s.queue.is_empty() {
            sh.not_empty.wake_one(&mut s.receivers);
        }
        r
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
                sh.not_empty.wake_one(&mut s.receivers);
                return Ok(());
            }
            match self.inner.policy {
                OverflowPolicy::Block => {
                    sh.not_full
                        .wait(&mut s, |s| &mut s.senders, Deadline::NEVER);
                }
                OverflowPolicy::DropOldest => {
                    s.queue.pop_front();
                    s.dropped += 1;
                    self.note_drop();
                    s.queue.push_back(v);
                    self.note_depth(s.queue.len());
                    sh.not_empty.wake_one(&mut s.receivers);
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
            sh.not_empty.wake_one(&mut s.receivers);
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
            self.inner.shared.not_full.wake_one(&mut s.senders);
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
        let mut s = sh.state.lock();
        s.closed = true;
        sh.wake_all(&mut s);
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

    /// Threads parked on the mailbox right now and wake-up syscalls it has
    /// made so far, senders and receivers together.
    pub fn parking(&self) -> (usize, u64) {
        let s = self.inner.shared.state.lock();
        let ((rp, rw), (sp, sw)) = (s.receivers.counts(), s.senders.counts());
        (rp + sp, rw + sw)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

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
