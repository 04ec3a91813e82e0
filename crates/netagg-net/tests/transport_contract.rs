//! One transport contract, six stacks: the semantics every layer above
//! `netagg-net` relies on, asserted once and run over both base
//! transports, each decorator, and the emulation over real sockets — the
//! net under the interposer and the one receive primitive. Then the same
//! six stacks under one reader: the readiness signal and `serve_ready`,
//! also over a forwarding transport that cannot signal. Plus `serve`'s
//! teardown rule.

use bytes::Bytes;
use netagg_net::lifecycle::{CancelToken, JoinScope, Mailbox, OverflowPolicy};
use netagg_net::{
    serve, serve_ready, ChannelTransport, Connection, EmuNet, FaultController, FaultTransport,
    Interposed, Interposer, Listener, MeteredTransport, NetError, NodeId, Readiness, TcpTransport,
    Transport,
};
use netagg_obs::{names, MetricsRegistry};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEC: Duration = Duration::from_secs(1);
/// The wake-up bound the `lifecycle`, `channel` and `tcp` unit tests hold.
const WAKE: Duration = Duration::from_millis(80);

fn frame(i: u32) -> Bytes {
    Bytes::copy_from_slice(&i.to_be_bytes())
}

fn contract(t: Arc<dyn Transport>) {
    assert!(t.connect(2, 3).is_err(), "connect to an unbound node");
    let mut listener = t.bind(1).unwrap();
    let mut client = t.connect(2, 1).unwrap();
    let mut server = listener.accept_timeout(SEC).unwrap();
    assert_eq!((client.peer(), server.peer()), (1, 2));

    // FIFO per connection, in both directions; an idle one times out.
    for i in 0..100 {
        client.send(frame(i)).unwrap();
    }
    for i in 0..100 {
        assert_eq!(server.recv_timeout(SEC).unwrap(), frame(i));
    }
    server.send(frame(7)).unwrap();
    assert_eq!(client.recv().unwrap(), frame(7));
    let idle = server.recv_timeout(Duration::from_millis(20));
    assert_eq!(idle, Err(NetError::Timeout));

    // A cancel wakes a parked recv and a parked accept: `Cancelled`, within
    // the wake-up bound, never a `Timeout` leaking out of a poll.
    let cancel = CancelToken::new();
    let woke = Mailbox::new("woke", 2, OverflowPolicy::Block, CancelToken::new());
    let scope = JoinScope::new("contract", CancelToken::new(), 5 * SEC);
    let (c, w) = (cancel.clone(), woke.clone());
    let parked_recv = move || {
        let r = server.recv_cancellable(&c).map(drop);
        let _ = w.send((r, Instant::now(), Some(server)));
    };
    scope.spawn("parked-recv", parked_recv).unwrap();
    let (c, w) = (cancel.clone(), woke.clone());
    let parked_accept = move || {
        let r = listener.accept_cancellable(&c).map(drop);
        let _ = w.send((r, Instant::now(), None));
    };
    scope.spawn("parked-accept", parked_accept).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    let t0 = Instant::now();
    cancel.cancel();
    let mut server = None;
    for _ in 0..2 {
        let (r, at, conn) = woke.recv_timeout(5 * SEC).expect("a parked thread woke");
        assert_eq!(r, Err(NetError::Cancelled));
        assert!(at.saturating_duration_since(t0) < WAKE, "woke late");
        server = server.or(conn);
    }
    scope.join_all().unwrap();

    // The connection outlives the cancelled recv; what was queued before
    // the peer dropped is drained, then `Closed`.
    let mut server = server.expect("the parked recv hands its connection back");
    client.send(frame(1)).unwrap();
    client.send(frame(2)).unwrap();
    drop(client);
    assert_eq!(server.recv().unwrap(), frame(1));
    assert_eq!(server.recv().unwrap(), frame(2));
    assert_eq!(server.recv(), Err(NetError::Closed));
}

fn number(frame: &Bytes) -> u32 {
    u32::from_be_bytes(frame[..].try_into().unwrap())
}

/// Client `c`'s `i`-th frame.
fn nth(c: u32, i: u32) -> Bytes {
    frame(c * 1000 + i)
}

/// Many connections, one reader parked on their one [`Readiness`]: a frame
/// on any of them wakes it within the wake-up bound, each signal answers
/// one zero-wait receive (a frame queued before the signal was installed
/// included), frames come in per-connection order, and a close is
/// signalled as one more receive that finds the end.
fn readiness(t: Arc<dyn Transport>) {
    let mut listener = t.bind(1).unwrap();
    let mut clients: Vec<_> = (0..3).map(|_| t.connect(2, 1).unwrap()).collect();
    for (c, client) in clients.iter_mut().enumerate() {
        client.send(nth(c as u32, 0)).unwrap();
    }
    let ready = Readiness::readiness();
    let mut servers: Vec<_> = (0..3)
        .map(|key| {
            let mut server = listener.accept_timeout(SEC).unwrap();
            assert!(server.set_readiness(&ready, key));
            server
        })
        .collect();
    // What the reader took: (key, frame number or `None` for the end, when).
    let seen = Mailbox::new("seen", 1024, OverflowPolicy::Block, CancelToken::new());
    let scope = JoinScope::new("readiness", CancelToken::new(), 5 * SEC);
    let tx = seen.clone();
    let reader = move || {
        let mut ended = BTreeSet::new();
        while ended.len() < servers.len() {
            let key = ready.recv().unwrap();
            let got = match servers[key as usize].recv_timeout(Duration::ZERO) {
                Ok(frame) => Some(number(&frame)),
                Err(NetError::Closed) if ended.insert(key) => None,
                Err(NetError::Closed) => continue,
                Err(e) => panic!("a signal without a frame or an end: {e:?}"),
            };
            tx.send((key, got, Instant::now())).unwrap();
        }
    };
    scope.spawn("reader", reader).unwrap();
    let mut by_key: [Vec<u32>; 3] = Default::default();
    let mut take = || {
        let (key, got, at) = seen.recv_timeout(5 * SEC).expect("the reader took a frame");
        by_key[key as usize].extend(got);
        at
    };
    for _ in 0..3 {
        take();
    }
    // The reader is parked: one frame on one connection wakes it.
    std::thread::sleep(Duration::from_millis(40));
    let t0 = Instant::now();
    clients[1].send(nth(1, 1)).unwrap();
    assert!(take().saturating_duration_since(t0) < WAKE, "woke late");
    for i in 1..=100 {
        for (c, client) in clients.iter_mut().enumerate() {
            if (c, i) != (1, 1) {
                client.send(nth(c as u32, i)).unwrap();
            }
        }
    }
    drop(clients);
    for _ in 0..300 - 1 + 3 {
        take();
    }
    scope.join_all().unwrap();
    let mut owners = BTreeSet::new();
    for frames in &by_key {
        let c = frames[0] / 1000;
        assert_eq!(*frames, (0..=100).map(|i| c * 1000 + i).collect::<Vec<_>>());
        owners.insert(c);
    }
    assert_eq!(
        owners.len(),
        3,
        "each connection signalled under its own key"
    );
}

/// `serve_ready` over `t`: one reader takes every connection's frames; a
/// frame held back keeps its connection's later frames behind it while
/// another connection goes on, until a wake offers it again; cancelling
/// the scope wakes the parked reader and leaves no thread.
fn served(t: Arc<dyn Transport>) {
    let obs = MetricsRegistry::new();
    let scope = JoinScope::with_obs("served", CancelToken::new(), 5 * SEC, Some(&obs));
    let scope = Arc::new(scope);
    let (ready, gate) = (Readiness::readiness(), Arc::new(AtomicBool::new(false)));
    let got = Mailbox::new("got", 64, OverflowPolicy::Block, CancelToken::new());
    let (tx, open) = (got.clone(), gate.clone());
    let body = move |frame: Bytes| {
        let n = number(&frame);
        if n < 1000 && !open.load(Ordering::SeqCst) {
            return Some(frame); // connection 0 waits for the gate
        }
        tx.send(n).unwrap();
        None
    };
    let names = ("served-listen".into(), "served-reader".into());
    serve_ready(
        &scope,
        t.bind(1).unwrap(),
        ready.clone(),
        names.0,
        names.1,
        body,
    )
    .unwrap();
    let mut held = t.connect(2, 1).unwrap();
    let mut free = t.connect(2, 1).unwrap();
    for i in 0..3 {
        held.send(nth(0, i)).unwrap();
    }
    for i in 0..10 {
        free.send(nth(1, i)).unwrap();
    }
    let next = || {
        got.recv_timeout(5 * SEC)
            .expect("the reader passed a frame on")
    };
    let passed: Vec<_> = (0..10).map(|_| next()).collect();
    assert_eq!(passed, (1000..1010).collect::<Vec<_>>());
    gate.store(true, Ordering::SeqCst);
    ready.wake();
    let released: Vec<_> = (0..3).map(|_| next()).collect();
    assert_eq!(released, vec![0, 1, 2]);
    free.send(nth(1, 10)).unwrap();
    assert_eq!(next(), 1010);
    let t0 = Instant::now();
    scope.join_all().unwrap();
    assert!(t0.elapsed() < 10 * WAKE, "the parked reader woke late");
    assert_eq!(obs.gauge(names::RUNTIME_THREADS_ACTIVE).get(), 0.0);
}

fn emu() -> netagg_net::EmuNetBuilder {
    EmuNet::builder().endpoint(1, 1e9).endpoint(2, 1e9)
}

/// The three contracts, each over a fresh instance of the stack.
fn stack(make: impl Fn() -> Arc<dyn Transport>) {
    contract(make());
    readiness(make());
    served(make());
}

#[test]
fn channel() {
    stack(|| Arc::new(ChannelTransport::new()));
}

#[test]
fn tcp() {
    stack(|| Arc::new(TcpTransport::new()));
}

#[test]
fn metered_over_channel() {
    stack(|| {
        let base = Arc::new(ChannelTransport::new());
        Arc::new(MeteredTransport::new(base, MetricsRegistry::new()))
    });
}

#[test]
fn fault_over_channel() {
    stack(|| {
        let base = ChannelTransport::new();
        Arc::new(FaultTransport::new(base, FaultController::new()))
    });
}

#[test]
fn emu_over_channel() {
    stack(|| Arc::new(emu().build()));
}

#[test]
fn emu_over_tcp() {
    stack(|| Arc::new(emu().build_over(Arc::new(TcpTransport::new()))));
}

/// A forwarding transport of the kind written outside this crate: it
/// does not implement `set_readiness`.
struct Plain(Arc<dyn Transport>);
struct PlainListener(Box<dyn Listener>);
struct PlainConnection(Box<dyn Connection>);

impl Transport for Plain {
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError> {
        Ok(Box::new(PlainListener(self.0.bind(local)?)))
    }

    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError> {
        Ok(Box::new(PlainConnection(self.0.connect(local, peer)?)))
    }
}

impl Listener for PlainListener {
    fn accept(&mut self) -> Result<Box<dyn Connection>, NetError> {
        Ok(Box::new(PlainConnection(self.0.accept()?)))
    }

    fn accept_timeout(&mut self, timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        Ok(Box::new(PlainConnection(self.0.accept_timeout(timeout)?)))
    }

    fn accept_cancellable(
        &mut self,
        cancel: &CancelToken,
    ) -> Result<Box<dyn Connection>, NetError> {
        Ok(Box::new(PlainConnection(
            self.0.accept_cancellable(cancel)?,
        )))
    }
}

impl Connection for PlainConnection {
    fn send(&mut self, payload: Bytes) -> Result<(), NetError> {
        self.0.send(payload)
    }

    fn recv(&mut self) -> Result<Bytes, NetError> {
        self.0.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, NetError> {
        self.0.recv_timeout(timeout)
    }

    fn recv_cancellable(&mut self, cancel: &CancelToken) -> Result<Bytes, NetError> {
        self.0.recv_cancellable(cancel)
    }

    fn peer(&self) -> NodeId {
        self.0.peer()
    }
}

/// The fallback: a connection that cannot signal readiness is relayed by
/// a thread of its own, and `serve_ready` behaves the same over it.
#[test]
fn serve_ready_relays_a_connection_without_readiness() {
    let base: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let mut l = base.bind(9).unwrap();
    let _c = base.connect(8, 9).unwrap();
    let mut accepted = PlainConnection(l.accept_timeout(SEC).unwrap());
    assert!(!accepted.set_readiness(&Readiness::readiness(), 0));
    served(Arc::new(Plain(Arc::new(ChannelTransport::new()))));
    served(Arc::new(Plain(Arc::new(TcpTransport::new()))));
}

/// Cancels the serving scope while the listener's side of a connection is
/// being opened, so what `serve` is handed next is "a connection accepted
/// during teardown".
#[derive(Clone)]
struct CancelOnAccept(CancelToken);

impl Interposer for CancelOnAccept {
    type Link = ();

    fn link(&self, local: NodeId, _peer: NodeId) -> Result<(), NetError> {
        if local == 1 {
            self.0.cancel();
        }
        Ok(())
    }
}

#[test]
fn serve_closes_a_connection_accepted_during_teardown_and_leaves_no_thread() {
    let obs = MetricsRegistry::new();
    let cancel = CancelToken::new();
    let scope = JoinScope::with_obs("served", cancel.clone(), 5 * SEC, Some(&obs));
    let scope = Arc::new(scope);
    let t = Interposed::over(ChannelTransport::new(), CancelOnAccept(cancel));
    let served = Arc::new(AtomicBool::new(false));
    let flag = served.clone();
    let body = move |_conn: Box<dyn Connection>| flag.store(true, Ordering::SeqCst);
    let (listen, reader) = ("served-listen".into(), "served-reader".into());
    serve(&scope, t.bind(1).unwrap(), listen, reader, body).unwrap();
    let mut client = t.connect(2, 1).unwrap();
    assert_eq!(client.recv_timeout(5 * SEC), Err(NetError::Closed));
    scope.join_all().unwrap();
    assert!(!served.load(Ordering::SeqCst), "no reader ran");
    assert_eq!(obs.gauge(names::RUNTIME_THREADS_ACTIVE).get(), 0.0);
}
