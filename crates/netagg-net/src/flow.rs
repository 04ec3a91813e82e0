//! Windowed outbound flow control for the TCP reactor (DESIGN.md §12).
//!
//! Every virtual connection multiplexed onto a physical link owns a
//! [`FlowWindow`]: `send` acquires the payload size before enqueueing a
//! record, and the reactor releases it when the record moves into the
//! link's write buffer. A sender that outruns the reactor therefore parks
//! on its own window instead of growing an unbounded queue — the
//! per-connection analogue of the channel transport's bounded mailbox.
//!
//! The shape follows minim's windowed flow state (SNIPPETS.md §2): typed
//! [`Bytes`] quantities, a hard limit, and explicit
//! pause (acquire blocks) / resume (release wakes) transitions. One
//! deliberate asymmetry: a payload larger than the whole window is
//! admitted whenever the window is idle (`in_flight == 0`), so oversized
//! frames make progress instead of deadlocking — the window bounds
//! *queued* bytes, it does not reject frames.

use crate::lifecycle::{may_block, CancelToken, Deadline, Parked, Parking};
use crate::transport::NetError;
use crate::units::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;

struct WindowState {
    in_flight: Bytes,
    closed: bool,
    /// Acquirers parked on `cv`.
    waiters: Parked,
}

struct WindowShared {
    state: Mutex<WindowState>,
    cv: Parking,
}

/// A byte-counted send window: [`acquire`](FlowWindow::acquire) blocks
/// while the window is full, [`release`](FlowWindow::release) opens it
/// back up, [`close`](FlowWindow::close) fails all waiters with
/// [`NetError::Closed`]. Clones share the window.
#[derive(Clone)]
pub struct FlowWindow {
    limit: Bytes,
    shared: Arc<WindowShared>,
}

impl FlowWindow {
    /// A window admitting up to `limit` in-flight bytes.
    pub fn new(limit: Bytes) -> Self {
        Self {
            limit,
            shared: Arc::new(WindowShared {
                state: Mutex::new(WindowState {
                    in_flight: Bytes::ZERO,
                    closed: false,
                    waiters: Parked::default(),
                }),
                cv: Parking::new(),
            }),
        }
    }

    /// Reserve `n` bytes, blocking while `in_flight + n` would exceed the
    /// limit — except when the window is idle, which admits any size (see
    /// the module docs). Wakes with [`NetError::Cancelled`] when `cancel`
    /// fires and [`NetError::Closed`] once the window is closed.
    pub fn acquire(&self, n: Bytes, cancel: &CancelToken) -> Result<(), NetError> {
        may_block("FlowWindow::acquire");
        let sh = &self.shared;
        // Declared before the guard: unregisters after the state lock drops.
        let mut waker = None;
        let mut s = sh.state.lock();
        loop {
            if cancel.is_cancelled() {
                return Err(NetError::Cancelled);
            }
            if s.closed {
                return Err(NetError::Closed);
            }
            if s.in_flight == Bytes::ZERO || s.in_flight + n <= self.limit {
                s.in_flight += n;
                return Ok(());
            }
            if waker.is_none() {
                // Only an acquire that has to park registers on `cancel`, lock
                // released: a cancelled token runs the waker on the spot.
                drop(s);
                let wake = sh.clone();
                let wake = move || wake.cv.wake_all(&mut wake.state.lock().waiters);
                waker = Some(cancel.register_waker(wake));
                s = sh.state.lock();
                continue;
            }
            sh.cv.wait(&mut s, |s| &mut s.waiters, Deadline::NEVER);
        }
    }

    /// Return `n` reserved bytes (saturating) and wake blocked acquirers
    /// (all of them: each re-checks its own size and token).
    pub fn release(&self, n: Bytes) {
        let mut s = self.shared.state.lock();
        s.in_flight = s.in_flight.saturating_sub(n);
        self.shared.cv.wake_all(&mut s.waiters);
    }

    /// Fail current and future acquires with [`NetError::Closed`].
    pub fn close(&self) {
        let mut s = self.shared.state.lock();
        s.closed = true;
        self.shared.cv.wake_all(&mut s.waiters);
    }

    /// Bytes currently reserved.
    pub fn in_flight(&self) -> Bytes {
        self.shared.state.lock().in_flight
    }

    /// The configured limit.
    pub fn limit(&self) -> Bytes {
        self.limit
    }
}

impl std::fmt::Debug for FlowWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowWindow")
            .field("limit", &self.limit)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn acquire_blocks_until_release() {
        let w = FlowWindow::new(Bytes::new(100));
        let cancel = CancelToken::new();
        w.acquire(Bytes::new(80), &cancel).unwrap();
        let w2 = w.clone();
        let c2 = cancel.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test contention thread; the window, not a scope, is under test"
        )]
        let h = std::thread::spawn(move || {
            let t0 = Instant::now();
            w2.acquire(Bytes::new(50), &c2).unwrap();
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(40));
        w.release(Bytes::new(80));
        let waited = h.join().unwrap();
        assert!(
            waited >= Duration::from_millis(30),
            "second acquire must park"
        );
        assert_eq!(w.in_flight(), Bytes::new(50));
    }

    #[test]
    fn idle_window_admits_oversized_frames() {
        let w = FlowWindow::new(Bytes::kib(64));
        let cancel = CancelToken::new();
        // 2 MiB > the whole window, but nothing is in flight: admitted.
        w.acquire(Bytes::mib(2), &cancel).unwrap();
        assert_eq!(w.in_flight(), Bytes::mib(2));
        w.release(Bytes::mib(2));
        assert_eq!(w.in_flight(), Bytes::ZERO);
    }

    #[test]
    fn cancel_and_close_wake_blocked_acquirers() {
        let w = FlowWindow::new(Bytes::new(10));
        let cancel = CancelToken::new();
        w.acquire(Bytes::new(10), &cancel).unwrap();
        let (w2, c2) = (w.clone(), cancel.clone());
        #[expect(
            clippy::disallowed_methods,
            reason = "test contention thread; the window, not a scope, is under test"
        )]
        let h = std::thread::spawn(move || w2.acquire(Bytes::new(5), &c2));
        std::thread::sleep(Duration::from_millis(20));
        cancel.cancel();
        assert_eq!(h.join().unwrap(), Err(NetError::Cancelled));

        let w = FlowWindow::new(Bytes::new(10));
        let fresh = CancelToken::new();
        w.acquire(Bytes::new(10), &fresh).unwrap();
        let (w2, c2) = (w.clone(), fresh.clone());
        #[expect(
            clippy::disallowed_methods,
            reason = "test contention thread; the window, not a scope, is under test"
        )]
        let h = std::thread::spawn(move || w2.acquire(Bytes::new(5), &c2));
        std::thread::sleep(Duration::from_millis(20));
        w.close();
        assert_eq!(h.join().unwrap(), Err(NetError::Closed));
    }
}
