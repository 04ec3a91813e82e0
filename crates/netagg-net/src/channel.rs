//! In-process transport over bounded lifecycle mailboxes.
//!
//! Each connection is a pair of bounded [`Mailbox`]es with
//! [`OverflowPolicy::Block`]. The bound gives natural back-pressure: a
//! sender blocks once the receiver's queue is full, which is exactly the
//! behaviour the paper relies on to slow workers down when an agg box
//! cannot keep up (Section 3.2.1). Because the queues are lifecycle
//! mailboxes, `recv_cancellable`/`accept_cancellable` wake instantly on
//! cancellation — no poll loop.

use crate::lifecycle::{CancelToken, Mailbox, OverflowPolicy, Wait};
use crate::transport::{recv_on, Connection, Listener, NetError, NodeId, Transport};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Messages queued per direction before senders block.
const CHANNEL_DEPTH: usize = 256;

/// Connections queued at a listener before connects are refused.
const ACCEPT_DEPTH: usize = 1024;

#[derive(Default)]
struct Registry {
    /// Per listener, the listener-side ends of connections not yet accepted.
    accept_queues: HashMap<NodeId, Mailbox<ChannelConnection>>,
}

/// In-process transport. Cheap to clone (shared registry).
#[derive(Clone, Default)]
pub struct ChannelTransport {
    registry: Arc<Mutex<Registry>>,
}

impl ChannelTransport {
    /// Create an empty in-process transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove a binding, making future connects fail (used by fault
    /// injection and clean shutdown).
    pub fn unbind(&self, node: NodeId) {
        if let Some(q) = self.registry.lock().accept_queues.remove(&node) {
            // Wake a blocked accept with Closed, as dropping the old
            // crossbeam sender did.
            q.close();
        }
    }
}

impl Transport for ChannelTransport {
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError> {
        // The accept queue rejects (rather than blocks) when flooded so a
        // connect against a stalled listener fails fast.
        let inbox = Mailbox::new(
            format!("chan.accept.{local}"),
            ACCEPT_DEPTH,
            OverflowPolicy::Reject,
            CancelToken::new(),
        );
        let mut reg = self.registry.lock();
        if reg.accept_queues.contains_key(&local) {
            return Err(NetError::AlreadyBound(local));
        }
        reg.accept_queues.insert(local, inbox.clone());
        Ok(Box::new(ChannelListener { inbox }))
    }

    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError> {
        let accept = {
            let reg = self.registry.lock();
            reg.accept_queues
                .get(&peer)
                .cloned()
                .ok_or(NetError::NotFound(peer))?
        };
        let a2b = Mailbox::new(
            format!("chan.data.{local}-{peer}"),
            CHANNEL_DEPTH,
            OverflowPolicy::Block,
            CancelToken::new(),
        );
        let b2a = Mailbox::new(
            format!("chan.data.{peer}-{local}"),
            CHANNEL_DEPTH,
            OverflowPolicy::Block,
            CancelToken::new(),
        );
        let pending = ChannelConnection {
            peer: local,
            tx: b2a.clone(),
            rx: a2b.clone(),
        };
        // A closed inbox (dropped listener) or a flooded one both mean the
        // peer is effectively unreachable.
        if accept.send(pending).is_err() {
            return Err(NetError::NotFound(peer));
        }
        Ok(Box::new(ChannelConnection {
            peer,
            tx: a2b,
            rx: b2a,
        }))
    }
}

struct ChannelListener {
    inbox: Mailbox<ChannelConnection>,
}

impl Listener for ChannelListener {
    fn accept(&mut self) -> Result<Box<dyn Connection>, NetError> {
        recv_on(&self.inbox, Wait::Forever).map(|c| Box::new(c) as _)
    }

    fn accept_timeout(&mut self, timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        recv_on(&self.inbox, Wait::For(timeout)).map(|c| Box::new(c) as _)
    }

    fn accept_cancellable(
        &mut self,
        cancel: &CancelToken,
    ) -> Result<Box<dyn Connection>, NetError> {
        recv_on(&self.inbox, Wait::Cancel(cancel)).map(|c| Box::new(c) as _)
    }
}

impl Drop for ChannelListener {
    fn drop(&mut self) {
        // A dropped listener refuses future connects immediately (senders
        // observe Closed), matching TCP listener-socket semantics.
        self.inbox.close();
    }
}

struct ChannelConnection {
    peer: NodeId,
    tx: Mailbox<Bytes>,
    rx: Mailbox<Bytes>,
}

impl Connection for ChannelConnection {
    fn send(&mut self, payload: Bytes) -> Result<(), NetError> {
        self.tx.send(payload).map_err(|_| NetError::Closed)
    }

    fn recv(&mut self) -> Result<Bytes, NetError> {
        recv_on(&self.rx, Wait::Forever)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, NetError> {
        recv_on(&self.rx, Wait::For(timeout))
    }

    fn recv_cancellable(&mut self, cancel: &CancelToken) -> Result<Bytes, NetError> {
        recv_on(&self.rx, Wait::Cancel(cancel))
    }

    fn peer(&self) -> NodeId {
        self.peer
    }
}

impl Drop for ChannelConnection {
    fn drop(&mut self) {
        // Dropping either endpoint closes both directions: the peer's recv
        // drains what was already queued and then reports Closed, and a
        // peer blocked in send wakes with Closed (mpsc endpoint-drop
        // semantics, which the old crossbeam implementation provided).
        self.tx.close();
        self.rx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::MailboxRecvError;
    use std::thread;

    #[test]
    fn connect_send_recv() {
        let t = ChannelTransport::new();
        let mut l = t.bind(1).unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness thread; the transport under test is not a scope"
        )]
        let handle = thread::spawn({
            let t = t.clone();
            move || {
                let mut c = t.connect(2, 1).unwrap();
                c.send(Bytes::from_static(b"ping")).unwrap();
                c.recv().unwrap()
            }
        });
        let mut server = l.accept().unwrap();
        assert_eq!(server.peer(), 2);
        assert_eq!(server.recv().unwrap().as_ref(), b"ping");
        server.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(handle.join().unwrap().as_ref(), b"pong");
    }

    #[test]
    fn connect_to_unbound_fails() {
        let t = ChannelTransport::new();
        assert!(matches!(t.connect(1, 99), Err(NetError::NotFound(99))));
    }

    #[test]
    fn double_bind_fails() {
        let t = ChannelTransport::new();
        let _l = t.bind(5).unwrap();
        assert!(matches!(t.bind(5), Err(NetError::AlreadyBound(5))));
    }

    #[test]
    fn recv_timeout_elapses() {
        let t = ChannelTransport::new();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let _server = l.accept().unwrap();
        assert_eq!(
            c.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn drop_closes_connection() {
        let t = ChannelTransport::new();
        let mut l = t.bind(1).unwrap();
        let c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        drop(c);
        assert_eq!(server.recv(), Err(NetError::Closed));
    }

    #[test]
    fn unbind_stops_new_connections() {
        let t = ChannelTransport::new();
        let _l = t.bind(1).unwrap();
        t.unbind(1);
        assert!(t.connect(2, 1).is_err());
    }

    #[test]
    fn dropped_listener_refuses_connects() {
        let t = ChannelTransport::new();
        let l = t.bind(1).unwrap();
        drop(l);
        assert!(matches!(t.connect(2, 1), Err(NetError::NotFound(1))));
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let t = ChannelTransport::new();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let _server = l.accept().unwrap();
        // Fill the queue; the next send would block, so run it in a thread
        // and verify it completes once we drain.
        for _ in 0..CHANNEL_DEPTH {
            c.send(Bytes::from_static(b"x")).unwrap();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "test needs a deliberately blocked sender to observe backpressure"
        )]
        let blocked = thread::spawn(move || {
            let mut c = c;
            c.send(Bytes::from_static(b"y")).unwrap();
            c
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!blocked.is_finished(), "send should block on a full queue");
        let mut server = _server;
        server.recv().unwrap();
        blocked.join().unwrap();
    }

    #[test]
    fn cancel_wakes_blocked_recv_and_accept() {
        let t = ChannelTransport::new();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        let cancel = CancelToken::new();
        let c2 = cancel.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test parks a receiver to time the cancel wakeup"
        )]
        let recv_thread = thread::spawn(move || {
            let r = c.recv_cancellable(&c2);
            (r, std::time::Instant::now(), c)
        });
        let c3 = cancel.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test parks an acceptor to time the cancel wakeup"
        )]
        let accept_thread = thread::spawn(move || l.accept_cancellable(&c3));
        thread::sleep(Duration::from_millis(40));
        let t0 = std::time::Instant::now();
        cancel.cancel();
        let (r, done_at, _c) = recv_thread.join().unwrap();
        assert_eq!(r, Err(NetError::Cancelled));
        assert!(
            done_at.duration_since(t0) < Duration::from_millis(80),
            "cancel must wake a blocked recv immediately"
        );
        assert!(matches!(
            accept_thread.join().unwrap(),
            Err(NetError::Cancelled)
        ));
        // The connection itself is still usable after a cancelled recv.
        server.send(Bytes::from_static(b"still-here")).unwrap();
        drop(server);
    }

    #[test]
    fn blocked_sender_wakes_when_peer_drops() {
        let t = ChannelTransport::new();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let server = l.accept().unwrap();
        for _ in 0..CHANNEL_DEPTH {
            c.send(Bytes::from_static(b"x")).unwrap();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "test needs a deliberately blocked sender to observe cancel-beats-data"
        )]
        let blocked = thread::spawn(move || {
            let mut c = c;
            c.send(Bytes::from_static(b"y"))
        });
        thread::sleep(Duration::from_millis(20));
        drop(server);
        assert_eq!(blocked.join().unwrap(), Err(NetError::Closed));
    }

    #[test]
    fn try_recv_error_covers_empty_and_closed() {
        // What downstream consumers of the raw mailboxes tell apart: an
        // empty queue (`Timeout`: nothing within no wait) from a closed one.
        let mb: Mailbox<u8> = Mailbox::new("t", 1, OverflowPolicy::Block, CancelToken::new());
        assert_eq!(mb.try_recv(), Err(MailboxRecvError::Timeout));
        mb.close();
        assert_eq!(mb.try_recv(), Err(MailboxRecvError::Closed));
    }
}
