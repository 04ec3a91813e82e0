//! The unified lifecycle & backpressure runtime every threaded layer of
//! the platform is built on: cancellation tokens whose `cancel()` wakes
//! blocked receivers immediately, deadline-joining named-thread scopes,
//! and bounded mailboxes with explicit overflow policies.
//!
//! The implementation lives in [`netagg_net::lifecycle`] (the transport
//! layer participates too — `recv_cancellable`/`accept_cancellable` need
//! the same token type); this module re-exports it as the platform-level
//! namespace. See DESIGN.md §9 for the thread inventory and the
//! cancellation invariants.

pub use netagg_net::lifecycle::{
    CancelToken, JoinScope, Mailbox, MailboxRecvError, MailboxRecvTimeoutError, MailboxSendError,
    MailboxTryRecvError, OrderedMutex, OrderedMutexGuard, OverflowPolicy, ScopeError, WakerGuard,
    DEFAULT_JOIN_DEADLINE,
};
use netagg_net::{Connection, Listener, NetError};

/// The body of every listener thread: hand each accepted connection to
/// `on_conn` until `cancel` fires or the listener is torn down.
pub(crate) fn accept_loop(
    mut listener: Box<dyn Listener>,
    cancel: &CancelToken,
    mut on_conn: impl FnMut(Box<dyn Connection>),
) {
    loop {
        match listener.accept_cancellable(cancel) {
            Ok(conn) => on_conn(conn),
            Err(NetError::Timeout) => continue,
            Err(_) => return,
        }
    }
}
