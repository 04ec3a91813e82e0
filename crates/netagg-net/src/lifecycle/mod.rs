//! Unified lifecycle and backpressure runtime: the one set of primitives
//! every threaded layer of the stack is built on, one a file (see
//! DESIGN.md §9 for the system-wide inventory):
//!
//! * [`CancelToken`] (`cancel.rs`) — a cloneable flag whose [`cancel`]
//!   *wakes* blocked waiters immediately (condition-variable notify plus
//!   registered wakers) instead of being observed by polling.
//! * [`Mailbox`] (`mailbox.rs`) — a bounded MPMC queue with an explicit
//!   [`OverflowPolicy`] (`Block`, `DropOldest`, `Reject`) and
//!   shutdown-aware send/recv: a cancelled token or a closed queue turns
//!   every blocked operation into a prompt, typed error. [`Readiness`]:
//!   a mailbox of keys many mailboxes signal, for one thread to serve.
//! * [`Parking`] (`parking.rs`) — the condition variable under them all:
//!   its sleeper counts ([`Parked`]) live in the state the caller's mutex
//!   guards, so only a sleeping thread costs a wake-up syscall.
//! * [`JoinScope`] (`scope.rs`) — an owner for named threads
//!   (`std::thread::Builder`) that joins with a deadline and propagates
//!   worker panics, so a hung thread becomes a loud error instead of a
//!   silent futex park.
//! * [`OrderedMutex`] (`ordered.rs`) — a mutex with a static rank in the
//!   one global acquisition order. Its debug-build witness is the only
//!   enforcement of DESIGN.md §15: it panics on a rank inversion, records
//!   every `(held, acquired)` edge, and makes the blocking operations
//!   above (and [`crate::FlowWindow::acquire`]) panic when entered under a
//!   lock `lock_order.rs` does not declare blocking-tolerant.
//!
//! [`cancel`]: CancelToken::cancel

mod cancel;
mod mailbox;
mod ordered;
mod parking;
mod scope;

pub use cancel::{CancelToken, WakerGuard};
pub use mailbox::{Mailbox, MailboxRecvError, MailboxSendError, OverflowPolicy, Readiness, Wait};
pub(crate) use ordered::may_block;
pub use ordered::{
    poisoned_locks, set_poison_sink, witness_edges, witness_reset, witness_thread_kinds,
    OrderedMutex, OrderedMutexGuard,
};
pub use parking::{Deadline, Parked, Parking};
pub use scope::{JoinScope, ScopeError, DEFAULT_JOIN_DEADLINE};
