//! One transport contract, six stacks: the semantics every layer above
//! `netagg-net` relies on, asserted once and run over both base
//! transports, each decorator, and the emulation over real sockets — the
//! net under the interposer and the one receive primitive. Plus `serve`'s
//! teardown rule.

use bytes::Bytes;
use netagg_net::lifecycle::{CancelToken, JoinScope, Mailbox, OverflowPolicy};
use netagg_net::{
    serve, ChannelTransport, Connection, EmuNet, FaultController, FaultTransport, Interposed,
    Interposer, MeteredTransport, NetError, NodeId, TcpTransport, Transport,
};
use netagg_obs::{names, MetricsRegistry};
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

fn emu() -> netagg_net::EmuNetBuilder {
    EmuNet::builder().endpoint(1, 1e9).endpoint(2, 1e9)
}

#[test]
fn channel() {
    contract(Arc::new(ChannelTransport::new()));
}

#[test]
fn tcp() {
    contract(Arc::new(TcpTransport::new()));
}

#[test]
fn metered_over_channel() {
    let base = Arc::new(ChannelTransport::new());
    contract(Arc::new(MeteredTransport::new(
        base,
        MetricsRegistry::new(),
    )));
}

#[test]
fn fault_over_channel() {
    let base = ChannelTransport::new();
    contract(Arc::new(FaultTransport::new(base, FaultController::new())));
}

#[test]
fn emu_over_channel() {
    contract(Arc::new(emu().build()));
}

#[test]
fn emu_over_tcp() {
    contract(Arc::new(emu().build_over(Arc::new(TcpTransport::new()))));
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
