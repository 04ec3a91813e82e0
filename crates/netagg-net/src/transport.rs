//! Transport abstraction: blocking, message-oriented connections between
//! logical nodes.
//!
//! All higher layers (agg boxes, shim layers, the applications) are written
//! against these traits, so the same deployment runs unchanged over the
//! in-process channel transport, the rate-limited emulated network, or real
//! TCP loopback sockets.

use crate::hash::Map;
use crate::lifecycle::{CancelToken, JoinScope, Mailbox, MailboxRecvError, Readiness, Wait};
use crate::OverflowPolicy::Block;
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
    /// Signal `ready` with `key` once per frame, and at the end, that
    /// becomes receivable ([`Mailbox::set_readiness`]); `false` if it
    /// cannot, and a thread must block on it instead.
    fn set_readiness(&mut self, _ready: &Readiness, _key: u64) -> bool {
        false
    }
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

/// Accept on `listener` in a thread of `scope` named `name` until the
/// scope is cancelled (as every owner's `Drop` does) or the listener
/// fails, handing each connection to `take`. One `take` drops — accepted
/// during teardown (§9 invariant 5) or refused a thread — sees `Closed`.
fn listen(
    scope: &JoinScope,
    mut listener: Box<dyn Listener>,
    name: String,
    mut take: impl FnMut(Box<dyn Connection>) + Send + 'static,
) -> Result<(), NetError> {
    let cancel = scope.cancel_token().clone();
    let accept = move || {
        while let Ok(conn) = listener.accept_cancellable(&cancel) {
            take(conn);
        }
    };
    let spawned = scope.spawn(name, accept);
    spawned.map_err(|e| NetError::Io(e.to_string()))
}

/// Run `listener` inside `scope` (as `listen` does) with a thread named
/// `reader_name` for every connection it accepts, running `body` on it:
/// the loop of handlers that block.
pub fn serve(
    scope: &Arc<JoinScope>,
    listener: Box<dyn Listener>,
    listen_name: String,
    reader_name: String,
    body: impl Fn(Box<dyn Connection>) + Send + Sync + 'static,
) -> Result<(), NetError> {
    let (readers, body) = (scope.clone(), Arc::new(body));
    listen(scope, listener, listen_name, move |conn| {
        let body = body.clone();
        if let Err(e) = readers.spawn(reader_name.clone(), move || body(conn)) {
            eprintln!("lifecycle: no thread for '{reader_name}', connection dropped: {e}");
        }
    })
}

/// The key of [`serve_ready`]'s hand-over queue, and its depth (a relayed
/// connection's too).
const ADOPT: u64 = Readiness::WAKE - 1;
const HANDOVER_DEPTH: usize = 256;

/// Run `listener` inside `scope` (as `listen` does) with **one** reader for
/// every connection it accepts: a thread named `reader_name` parks on
/// `ready` and takes frames from whichever connection has them, one
/// zero-wait receive per signal. `body` returns `Some(frame)` to hold it
/// back: its connection's later frames wait behind it, the others go on,
/// and [`Readiness::wake`] offers it again. A connection that ends or
/// fails is dropped; one that cannot signal readiness gets a relay
/// thread, named `reader_name` too, that blocks on it for the reader.
pub fn serve_ready(
    scope: &Arc<JoinScope>,
    listener: Box<dyn Listener>,
    ready: Readiness,
    listen_name: String,
    reader_name: String,
    body: impl FnMut(Bytes) -> Option<Bytes> + Send + 'static,
) -> Result<(), NetError> {
    let cancel = scope.cancel_token().clone();
    let handover = Mailbox::new("serve.adopt", HANDOVER_DEPTH, Block, cancel);
    handover.set_readiness(&ready, ADOPT);
    let reader = Reader(scope.clone(), ready, handover.clone(), reader_name.clone());
    let spawned = scope.spawn(reader_name, move || reader.run(body));
    spawned.map_err(|e| NetError::Io(e.to_string()))?;
    listen(scope, listener, listen_name, move |c| _ = handover.send(c))
}

/// A connection to [`serve_ready`]'s reader: a zero-wait receive, the
/// frame held back and the signals that came meanwhile.
struct Source {
    recv: Box<dyn FnMut() -> Result<Bytes, NetError> + Send>,
    held: Option<Bytes>,
    owed: usize,
}

impl Source {
    /// Offer the held frame again, then receive once per owed signal while
    /// the body takes what comes; `false` once the connection has ended.
    fn pump(&mut self, body: &mut impl FnMut(Bytes) -> Option<Bytes>) -> bool {
        if let Some(frame) = self.held.take() {
            self.held = body(frame);
        }
        while self.held.is_none() && self.owed > 0 {
            self.owed -= 1;
            match (self.recv)() {
                Ok(frame) => self.held = body(frame),
                Err(NetError::Timeout) => {}
                Err(_) => return false,
            }
        }
        true
    }
}

type Handover = Mailbox<Box<dyn Connection>>;

/// [`serve_ready`]'s reader: its scope, signal, hand-over queue and name.
struct Reader(Arc<JoinScope>, Readiness, Handover, String);

impl Reader {
    fn run(self, mut body: impl FnMut(Bytes) -> Option<Bytes>) {
        let (cancel, ready) = (self.0.cancel_token(), &self.1);
        let wake = ready.clone();
        let _waker = cancel.register_waker(move || wake.wake());
        let (mut sources, mut next) = (Map::<u64, Source>::default(), 0);
        while let (Ok(key), false) = (ready.recv(), cancel.is_cancelled()) {
            if key == Readiness::WAKE {
                sources.retain(|_, src| src.held.is_none() || src.pump(&mut body));
            } else if key == ADOPT {
                if let Some(src) = self.adopt(next) {
                    sources.insert(next, src);
                }
                next += 1;
            } else if let Some(src) = sources.get_mut(&key) {
                src.owed += 1;
                if src.held.is_none() && !src.pump(&mut body) {
                    sources.remove(&key);
                }
            }
        }
    }

    /// Take over one handed-over connection, signalling under `key`.
    fn adopt(&self, key: u64) -> Option<Source> {
        let Reader(scope, ready, handover, name) = self;
        let mut conn = handover.try_recv().ok()?;
        let recv: Box<dyn FnMut() -> _ + Send> = if conn.set_readiness(ready, key) {
            Box::new(move || conn.recv_timeout(Duration::ZERO))
        } else {
            let cancel = scope.cancel_token().clone();
            let relayed = Mailbox::new("serve.relay", HANDOVER_DEPTH, Block, cancel.clone());
            relayed.set_readiness(ready, key);
            let tx = relayed.clone();
            let relay = move || {
                let mut frames = std::iter::from_fn(|| conn.recv_cancellable(&cancel).ok());
                let _ = frames.try_for_each(|frame| tx.send(frame));
                tx.close();
            };
            scope.spawn(name.clone(), relay).ok()?;
            Box::new(move || recv_on(&relayed, Wait::For(Duration::ZERO)))
        };
        let (held, owed) = (None, 0);
        Some(Source { recv, held, owed })
    }
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
