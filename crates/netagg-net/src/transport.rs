//! Transport abstraction: blocking, message-oriented connections between
//! logical nodes.
//!
//! All higher layers (agg boxes, shim layers, the applications) are written
//! against these traits, so the same deployment runs unchanged over the
//! in-process channel transport, the rate-limited emulated network, or real
//! TCP loopback sockets.

use crate::lifecycle::{CancelToken, JoinScope, Mailbox, MailboxRecvError, Wait};
use bytes::Bytes;
use netagg_obs::MetricsRegistry;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Logical address of a node (server, agg box, client).
pub type NodeId = u32;

/// Transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer closed the connection or is gone.
    Closed,
    /// A timed receive elapsed without a message.
    Timeout,
    /// No node is bound at the address.
    NotFound(NodeId),
    /// The address is already bound.
    AlreadyBound(NodeId),
    /// Underlying I/O error (TCP transport).
    Io(String),
    /// A frame exceeded [`crate::framing::MAX_FRAME`].
    FrameTooLarge(usize),
    /// Malformed bytes on the wire.
    Corrupt(String),
    /// A fault injector rejected the operation.
    Injected(&'static str),
    /// A [`CancelToken`] fired while the operation was blocked (shutdown).
    Cancelled,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => write!(f, "connection closed"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::NotFound(n) => write!(f, "no node bound at address {n}"),
            NetError::AlreadyBound(n) => write!(f, "address {n} already bound"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            NetError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
            NetError::Injected(what) => write!(f, "injected fault: {what}"),
            NetError::Cancelled => write!(f, "operation cancelled by shutdown"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe => NetError::Closed,
            _ => NetError::Io(e.to_string()),
        }
    }
}

/// A bidirectional, message-oriented connection. `send` may block for
/// back-pressure or rate limiting; `recv` blocks until a message arrives or
/// the peer closes.
pub trait Connection: Send {
    /// Send one message (may block for back-pressure or rate limiting).
    fn send(&mut self, payload: Bytes) -> Result<(), NetError>;
    /// Receive the next message, blocking until one arrives.
    fn recv(&mut self) -> Result<Bytes, NetError>;
    /// Receive with a deadline; [`NetError::Timeout`] when it elapses.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, NetError>;
    /// Receive, returning [`NetError::Cancelled`] the moment `cancel` fires:
    /// a wake-up, never a poll tick (DESIGN.md §9 invariant 1) — which is
    /// why there is no default body.
    fn recv_cancellable(&mut self, cancel: &CancelToken) -> Result<Bytes, NetError>;
    /// Address of the remote end.
    fn peer(&self) -> NodeId;
}

/// Accepts inbound connections at a bound address.
pub trait Listener: Send {
    /// Accept the next inbound connection, blocking until one arrives.
    fn accept(&mut self) -> Result<Box<dyn Connection>, NetError>;
    /// Accept with a deadline; [`NetError::Timeout`] when it elapses.
    fn accept_timeout(&mut self, timeout: Duration) -> Result<Box<dyn Connection>, NetError>;
    /// Accept, returning [`NetError::Cancelled`] the moment `cancel` fires
    /// (a wake-up, like [`Connection::recv_cancellable`]).
    fn accept_cancellable(&mut self, cancel: &CancelToken)
        -> Result<Box<dyn Connection>, NetError>;
}

/// A factory for listeners and outbound connections.
pub trait Transport: Send + Sync {
    /// Bind a listener at `local`. Each address may be bound once.
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError>;
    /// Open a connection from `local` to `peer` (which must be bound).
    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError>;
    /// Attach a metrics registry for transport-internal instrumentation
    /// (reactor thread counts, batching counters — DESIGN.md §7
    /// `net.tcp.*`). The runtime calls this once, before the first
    /// `bind`/`connect`; transports without internal threads ignore it.
    /// Decorator transports forward it to their inner transport.
    fn attach_obs(&self, _obs: &MetricsRegistry) {}
}

/// A shared transport is itself a transport, so decorators written over a
/// generic `T: Transport` (fault injection, metering) compose with the
/// type-erased `Arc<dyn Transport>` handles that scenario providers and
/// deployments pass around.
impl<T: Transport + ?Sized> Transport for std::sync::Arc<T> {
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError> {
        (**self).bind(local)
    }

    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError> {
        (**self).connect(local, peer)
    }

    fn attach_obs(&self, obs: &MetricsRegistry) {
        (**self).attach_obs(obs)
    }
}

impl Wait<'_> {
    /// The `recv*` of `conn` that waits this way.
    pub fn recv(self, conn: &mut dyn Connection) -> Result<Bytes, NetError> {
        match self {
            Wait::Forever => conn.recv(),
            Wait::For(d) => conn.recv_timeout(d),
            Wait::Cancel(c) => conn.recv_cancellable(c),
        }
    }

    /// The `accept*` of `listener` that waits this way.
    pub fn accept(self, listener: &mut dyn Listener) -> Result<Box<dyn Connection>, NetError> {
        match self {
            Wait::Forever => listener.accept(),
            Wait::For(d) => listener.accept_timeout(d),
            Wait::Cancel(c) => listener.accept_cancellable(c),
        }
    }
}

/// [`Mailbox::recv_until`] as a transport reports it: the one body under
/// every `recv*`/`accept*` of the channel and TCP transports.
pub(crate) fn recv_on<T: Send + 'static>(mb: &Mailbox<T>, wait: Wait<'_>) -> Result<T, NetError> {
    mb.recv_until(wait).map_err(|e| match (e, wait) {
        (MailboxRecvError::Timeout, _) => NetError::Timeout,
        (MailboxRecvError::Cancelled, Wait::Cancel(c)) if c.is_cancelled() => NetError::Cancelled,
        // Closed — or cancelled by the token the mailbox is bound to rather
        // than the caller's: the TCP reactor tearing down, a close to callers.
        _ => NetError::Closed,
    })
}

/// Run `listener` inside `scope`: a thread named `listen_name` accepts
/// until the scope's token fires or the listener fails, and hands every
/// connection to `body` on a thread of its own named `reader_name` (the
/// two DESIGN.md §9 inventory names of a listening component).
///
/// The reader closure owns its connection, so a connection accepted while
/// the scope shuts down (§9 invariant 5) and one the OS refuses a thread
/// for are both dropped — the peer sees [`NetError::Closed`] — and the
/// listener keeps accepting. The listener thread holds the scope until it
/// exits, so the owner ends it by cancelling, as every owner's `Drop` does.
pub fn serve(
    scope: &Arc<JoinScope>,
    mut listener: Box<dyn Listener>,
    listen_name: String,
    reader_name: String,
    body: impl Fn(Box<dyn Connection>) + Send + Sync + 'static,
) -> Result<(), NetError> {
    let cancel = scope.cancel_token().clone();
    let readers = scope.clone();
    let body = Arc::new(body);
    let listen = move || {
        while let Ok(conn) = listener.accept_cancellable(&cancel) {
            let body = body.clone();
            if let Err(e) = readers.spawn(reader_name.clone(), move || body(conn)) {
                eprintln!("lifecycle: no thread for '{reader_name}', connection dropped: {e}");
            }
        }
    };
    scope
        .spawn(listen_name, listen)
        .map_err(|e| NetError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(NetError::NotFound(7).to_string().contains('7'));
        assert!(NetError::FrameTooLarge(99).to_string().contains("99"));
        let io = std::io::Error::new(std::io::ErrorKind::TimedOut, "x");
        assert_eq!(NetError::from(io), NetError::Timeout);
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "x");
        assert_eq!(NetError::from(eof), NetError::Closed);
    }
}
