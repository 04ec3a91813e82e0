//! [`JoinScope`]: the owner of named threads that joins under a deadline.

use super::ordered::spawned;
use super::{may_block, CancelToken};
use netagg_obs::{names, Gauge, MetricsRegistry};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default deadline a [`JoinScope`] grants its threads to exit after
/// cancellation before declaring them hung.
pub const DEFAULT_JOIN_DEADLINE: Duration = Duration::from_secs(5);

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

pub(super) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
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
        spawned(&name);
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

#[cfg(test)]
mod tests {
    use super::super::{Mailbox, OverflowPolicy};
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
}
