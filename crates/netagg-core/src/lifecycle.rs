//! The unified lifecycle & backpressure runtime every threaded layer of
//! the platform is built on: cancellation tokens whose `cancel()` wakes
//! blocked receivers immediately, deadline-joining named-thread scopes,
//! bounded mailboxes with explicit overflow policies, and [`serve_ready`],
//! the listener loop of every node (one reader for all its connections).
//! The one shell around every node's core, its timer and its drain, is
//! built on these in `shell.rs`.
//!
//! The implementation lives in [`netagg_net::lifecycle`] (the transport
//! layer participates too — `recv_cancellable`/`accept_cancellable` need
//! the same token type); this module re-exports it as the platform-level
//! namespace. See DESIGN.md §9 for the thread inventory and the
//! cancellation invariants.

pub use netagg_net::lifecycle::{
    CancelToken, Deadline, JoinScope, Mailbox, MailboxRecvError, MailboxSendError, OrderedMutex,
    OrderedMutexGuard, OverflowPolicy, Parked, Parking, Readiness, ScopeError, Wait, WakerGuard,
    DEFAULT_JOIN_DEADLINE,
};
pub use netagg_net::{serve, serve_ready};
