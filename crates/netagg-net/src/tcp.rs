//! Readiness-driven, multiplexed TCP-loopback transport (DESIGN.md §12).
//!
//! The transport used to run one blocking socket plus reader state per
//! logical connection. It is now an event-driven data plane built from
//! three ideas:
//!
//! * **Link multiplexing.** All logical connections a transport instance
//!   dials to one listener address share a single physical socket (a
//!   *link*). Frames travel as mux records — `OPEN`/`DATA`/`CLOSE`, each
//!   inside an ordinary length-prefixed frame — so four workers sending
//!   partials to the same agg box cost one write syscall, not four.
//! * **Run-to-completion fast path.** A sender does not hand its frame
//!   to an I/O thread: it encodes and flushes under the link's write
//!   lock, then looks its socket's in-process twin up in the read-hint
//!   directory (a process-wide `(local, peer) → link` map) and pumps the
//!   twin's read half on the same thread. A loopback hop therefore costs
//!   zero scheduler handoffs — identical to the channel transport —
//!   and once the directory proves both ends live in this process, the
//!   writer hands encoded chunks straight to the twin's decoder through
//!   a gated inject queue, skipping the kernel round trip entirely (the
//!   gate orders any socket-written prefix ahead of injected bytes).
//! * **Sharded reactor backstop.** Nonblocking sockets are also swept by
//!   N reactor threads (`net-reactor-<i>`, spawned through [`JoinScope`]
//!   so the lifecycle and lint contracts hold). The build is offline and
//!   the workspace vendors no libc, so there is no `epoll`: each shard
//!   sweeps its links and parks on its command [`Mailbox`]; senders
//!   *kick* a parked shard through that mailbox, making wakeups explicit
//!   and edge-triggered. The reactor owns accepts, write-backlog and
//!   stall retries, and reads on links whose twin is not in the directory
//!   yet (re-armed by a short park tick); the data path only falls back
//!   to it when a read half is busy. Every peer lives in this process:
//!   addresses resolve through the transport's own `NodeId → SocketAddr`
//!   registry of listeners bound on `127.0.0.1:0`, so there is no way to
//!   name a socket another process owns.
//! * **Zero-copy batching.** Outbound records from every connection on a
//!   link coalesce into one staging buffer per flush (large payloads are
//!   appended as their own [`Bytes`] chunk without copying); inbound
//!   bytes decode through the chunk-based [`FrameDecoder`], handing each
//!   `DATA` payload out as a shared slice of the read buffer.
//!
//! Backpressure is two-levelled: every virtual connection owns a
//! [`FlowWindow`] bounding its queued-but-unwritten bytes, and a full
//! per-connection inbox makes the reactor stop reading the whole link,
//! turning overload into kernel-level TCP backpressure. The reactor
//! itself never blocks on anything but its own mailbox.
//!
//! Connections behave exactly like the channel transport's: `recv` drains
//! data queued before a peer close and then reports
//! [`NetError::Closed`]; `recv_cancellable`/`accept_cancellable` are true
//! wakeups (no poll tick); dropping a connection flushes queued writes
//! before the `CLOSE` record. Dropping the last transport handle cancels
//! the reactor scope, which joins the shard threads and fails all blocked
//! operations.

use crate::flow::FlowWindow;
use crate::framing::{FrameDecoder, MAX_FRAME};
use crate::lifecycle::{
    CancelToken, JoinScope, Mailbox, MailboxRecvError, MailboxSendError, OrderedMutex,
    OverflowPolicy, Wait, DEFAULT_JOIN_DEADLINE,
};
use crate::lock_order;
use crate::transport::{recv_on, Connection, Listener, NetError, NodeId, Transport};
use crate::units;
use bytes::{BufMut, Bytes, BytesMut};
use netagg_obs::{names, Counter, Gauge, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

// --- mux record types (§12 wire format) ------------------------------------

/// `[OPEN][channel u32][src u32][dst u32]` — dialer announces a channel.
const REC_OPEN: u8 = 1;
/// `[DATA][channel u32][payload …]` — one application frame.
const REC_DATA: u8 = 2;
/// `[CLOSE][channel u32]` — either side retires a channel.
const REC_CLOSE: u8 = 3;

/// Header bytes a mux record may add on top of an application payload;
/// the link decoder allows `MAX_FRAME + MUX_HEADROOM` so a maximum-size
/// payload still fits its record.
const MUX_HEADROOM: usize = 16;

/// Per-connection inbound queue depth (frames).
const INBOX_DEPTH: usize = 1024;
/// Pending-accept queue depth, mirroring the channel transport.
const ACCEPT_DEPTH: usize = 1024;
/// Reactor command-queue depth (registrations and kicks).
const CMD_DEPTH: usize = 1024;
/// Per-connection send window: queued-but-unwritten bytes a sender may
/// accumulate before parking (an idle window admits any single frame).
const SEND_WINDOW: units::Bytes = units::Bytes::mib(1);
/// Payloads up to this size are copied into the link's staging buffer;
/// larger ones ride as their own zero-copy chunk.
const COALESCE_MAX: usize = 16 * 1024;
/// Stop draining connection queues while a link has this many encoded
/// bytes awaiting the socket (write backpressure high-watermark).
const WRITE_BACKLOG_HIGH: usize = 256 * 1024;
/// Socket read size per syscall.
const READ_CHUNK: usize = 64 * 1024;
/// Park timeout while an inbox is full (retry delivery promptly).
const PARK_STALLED: Duration = Duration::from_micros(200);
/// Park timeout while links are registered (backstop only; every local
/// event kicks the shard awake).
const PARK_TICK: Duration = Duration::from_millis(5);
/// Park timeout with nothing registered.
const PARK_IDLE: Duration = Duration::from_millis(50);
/// Yield-spins after an idle sweep before parking on the mailbox. While
/// spinning the shard stays runnable (senders skip the kick futex and the
/// shard skips the park/unpark round trip), which keeps a hot closed loop
/// entirely futex-free on the reactor side; `yield_now` cedes the CPU to
/// whoever has actual work, so the spin costs only slack cycles.
const SPIN_YIELDS: u32 = 256;
/// Run the accept sweep every Nth socket sweep (plus immediately before
/// parking and on every park wake). Accepts are setup-path events; probing
/// every listener with an `accept(2)` syscall on every sweep would dwarf
/// the data-path syscall budget.
const ACCEPT_EVERY: u32 = 64;

fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

// --- read-hint directory (§12 wakeup protocol) -----------------------------

/// Process-wide map from a socket's `(local, peer)` address pair to the
/// link that owns it. After a successful write, the reactor looks up the
/// *reversed* pair to find the in-process twin of the socket it just fed
/// and marks that link readable — so the read sweep touches exactly the
/// links with data instead of `read(2)`-polling every socket. The map is
/// global, not per transport, so both ends of a loopback pair find each
/// other whichever handle touched them first; a socket whose twin has not
/// registered yet gets no hints and is re-armed by the park tick instead.
fn link_dir() -> &'static LinkDir {
    static DIR: OnceLock<LinkDir> = OnceLock::new();
    DIR.get_or_init(|| OrderedMutex::new(lock_order::NET_LINK_DIR, HashMap::new()))
}

type LinkDir = OrderedMutex<HashMap<(SocketAddr, SocketAddr), Weak<LinkState>>>;

fn dir_remove(key: Option<(SocketAddr, SocketAddr)>) {
    if let Some(k) = key {
        link_dir().lock().remove(&k);
    }
}

/// Writer-side hint: bytes just went out on the socket registered under
/// `key`, so its in-process twin (the socket with the reversed address
/// pair) now has data to read. Mark that link readable and kick its shard.
fn dir_mark_twin(key: Option<(SocketAddr, SocketAddr)>) {
    let Some((local, peer)) = key else { return };
    let twin = link_dir().lock().get(&(peer, local)).cloned();
    if let Some(w) = twin {
        if let Some(l) = w.upgrade() {
            l.readable.store(true, Ordering::SeqCst);
            l.kick();
        } else {
            link_dir().lock().remove(&(peer, local));
        }
    }
}

// --- reactor metrics (§7 `net.tcp.*`) --------------------------------------

/// Counter/gauge handles for the §7 `net.tcp.*` rows, in the reactor's
/// registry (the attached one, or a private one for a raw transport).
#[derive(Clone)]
struct ReactorObs {
    wakeups: Arc<Counter>,
    batches: Arc<Counter>,
    coalesced: Arc<Counter>,
    links: Arc<Gauge>,
    channels: Arc<Gauge>,
}

impl ReactorObs {
    fn new(o: &MetricsRegistry) -> Self {
        Self {
            wakeups: o.counter(names::NET_TCP_REACTOR_WAKEUPS),
            batches: o.counter(names::NET_TCP_BATCHES_WRITTEN),
            coalesced: o.counter(names::NET_TCP_FRAMES_COALESCED),
            links: o.gauge(names::NET_TCP_LINKS_ACTIVE),
            channels: o.gauge(names::NET_TCP_CHANNELS_ACTIVE),
        }
    }

    fn wakeup(&self) {
        self.wakeups.inc();
    }

    fn batch(&self) {
        self.batches.inc();
    }

    fn coalesce(&self, n: u64) {
        self.coalesced.add(n);
    }

    fn link_up(&self) {
        self.links.add(1.0);
    }

    fn link_down(&self) {
        self.links.add(-1.0);
    }

    fn chan_up(&self) {
        self.channels.add(1.0);
    }

    fn chan_down(&self) {
        self.channels.add(-1.0);
    }
}

// --- shared state between user threads and the reactor ---------------------

/// One queued outbound record. `Data` keeps its channel alive until the
/// record reaches the wire buffer, which is what makes drop-after-send
/// flush-before-close.
enum OutRec {
    Open {
        chan: Arc<ChanState>,
        src: NodeId,
        dst: NodeId,
    },
    Data {
        chan: Arc<ChanState>,
        payload: Bytes,
    },
    Close {
        chan: Arc<ChanState>,
    },
}

/// Encoder and socket-writer state of a link, shared between sending
/// threads (the inline fast path) and the reactor shard (the backstop).
/// Always taken *after* `rin` when both are needed (§12 lock order).
struct OutBuf {
    /// Records queued by senders, not yet encoded.
    q: VecDeque<OutRec>,
    /// Encoded wire chunks awaiting the socket, plus a byte offset into
    /// the front chunk.
    wq: VecDeque<Bytes>,
    wq_off: usize,
    wq_bytes: usize,
    staging: BytesMut,
    /// Write-side clone of the link's socket.
    stream: TcpStream,
    /// Channels the encoder OPENed, awaiting adoption into the read
    /// half's routing map (merged at the top of every pump).
    opened: Vec<Arc<ChanState>>,
    /// Channel ids the encoder CLOSEd, awaiting removal from that map.
    retired: Vec<u32>,
    /// Total payload bytes successfully written to the socket. Publishes
    /// the prefix length when the link switches to direct delivery.
    sock_bytes: u64,
    /// In-process twin, resolved once from the directory. While `direct`
    /// is set, freshly encoded chunks go to its inject queue instead of
    /// the kernel (§12 in-process short-circuit).
    twin: Option<Weak<LinkState>>,
    direct: bool,
    /// Chunks encoded in direct mode, awaiting the inject handoff.
    pending_inj: Vec<Bytes>,
}

impl OutBuf {
    fn flush_staging(&mut self) {
        if !self.staging.is_empty() {
            let chunk = std::mem::take(&mut self.staging).freeze();
            self.push_chunk(chunk);
        }
    }

    fn push_chunk(&mut self, chunk: Bytes) {
        if self.direct {
            self.pending_inj.push(chunk);
        } else {
            self.wq_bytes += chunk.len();
            self.wq.push_back(chunk);
        }
    }

    fn clear(&mut self) {
        self.q.clear();
        self.wq.clear();
        self.wq_bytes = 0;
        self.wq_off = 0;
        self.staging.clear();
        self.pending_inj.clear();
    }
}

/// Decoder and inbound-routing state of a link. Owned by whichever
/// thread holds the `rin` mutex: normally the reactor shard, but a
/// writer that just fed this socket's in-process twin pumps it inline
/// (run-to-completion fast path, §12).
struct ReadHalf {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Channels with inbound delivery on this link.
    chans: HashMap<u32, Arc<ChanState>>,
    /// Set on accepted sockets; `None` on dialled ones (which must never
    /// see an `OPEN`).
    inbound: Option<InboundCtx>,
    /// A decoded frame whose inbox was full: delivery backpressure. While
    /// set, the link is not read (TCP pushes back on the peer).
    stalled: Option<(u32, Bytes)>,
    scratch: Vec<u8>,
    /// Total bytes consumed from the socket; injected chunks are held
    /// back until this passes the twin's published prefix length.
    sock_consumed: u64,
    /// Finalization guard: `die_locked` ran.
    done: bool,
}

/// Result of one flush pass over a link's write half.
#[derive(Default, Clone, Copy)]
struct FlushOutcome {
    /// At least one successful socket write happened.
    wrote: bool,
    /// Nothing is left queued (records, staging or wire chunks).
    clean: bool,
    /// The socket failed; the caller must kill the link.
    fatal: bool,
}

/// One physical socket and everything on it: the write half (`out`),
/// the read half (`rin`), and the shard that backstops both. Shared
/// between user threads and the reactor; all I/O methods are callable
/// from any thread. Lock order: `rin` before `out`, never two links'
/// `rin` on one thread.
struct LinkState {
    /// Kick target. Weak: shards own their command queues; a dead reactor
    /// must not be kept alive by lingering connection handles.
    shard: Weak<Shard>,
    /// Which shard the link was assigned to (round-robin; tests assert
    /// the distribution).
    #[cfg_attr(not(test), allow(dead_code))]
    shard_idx: usize,
    dead: AtomicBool,
    next_ch: AtomicU32,
    /// Read hint (§12): set by whoever wrote to this socket's in-process
    /// twin (when the twin's read half was busy), by the park tick
    /// (backstop for a twin not yet in the directory), and at install;
    /// cleared by the reactor
    /// right before it reads the socket.
    readable: AtomicBool,
    /// Mirrors `ReadHalf::stalled` for lock-free park decisions.
    stalled_flag: AtomicBool,
    /// This socket's `(local, peer)` address pair — the link's key in the
    /// read-hint directory. `None` disables hints; the link is then swept
    /// unconditionally.
    key: Option<(SocketAddr, SocketAddr)>,
    obs: ReactorObs,
    /// Wire chunks injected by the in-process twin's writer, bypassing
    /// the kernel. A leaf lock: never held while taking any other.
    inj: OrderedMutex<VecDeque<Bytes>>,
    /// Byte count of `inj`, readable without the lock (backpressure).
    inj_bytes: AtomicUsize,
    /// Socket-prefix length published by the twin's writer when it
    /// switches to direct delivery; `u64::MAX` until then. The read side
    /// consumes exactly this many socket bytes before touching `inj`.
    inj_gate: AtomicU64,
    out: OrderedMutex<OutBuf>,
    rin: OrderedMutex<ReadHalf>,
}

impl LinkState {
    /// Build a link around a connected nonblocking socket and register it
    /// in the read-hint directory. Fails only if the socket cannot be
    /// cloned for the write half.
    fn register(
        shard: &Arc<Shard>,
        stream: TcpStream,
        inbound: Option<InboundCtx>,
        obs: ReactorObs,
    ) -> std::io::Result<Arc<LinkState>> {
        let wstream = stream.try_clone()?;
        let key = stream.local_addr().ok().zip(stream.peer_addr().ok());
        let link = Arc::new(LinkState {
            shard: Arc::downgrade(shard),
            shard_idx: shard.idx,
            dead: AtomicBool::new(false),
            next_ch: AtomicU32::new(0),
            readable: AtomicBool::new(true),
            stalled_flag: AtomicBool::new(false),
            key,
            obs,
            inj: OrderedMutex::new(lock_order::NET_INJ, VecDeque::new()),
            inj_bytes: AtomicUsize::new(0),
            inj_gate: AtomicU64::new(u64::MAX),
            out: OrderedMutex::new(
                lock_order::NET_OUT,
                OutBuf {
                    q: VecDeque::new(),
                    wq: VecDeque::new(),
                    wq_off: 0,
                    wq_bytes: 0,
                    staging: BytesMut::new(),
                    stream: wstream,
                    opened: Vec::new(),
                    retired: Vec::new(),
                    sock_bytes: 0,
                    twin: None,
                    direct: false,
                    pending_inj: Vec::new(),
                },
            ),
            rin: OrderedMutex::new(
                lock_order::NET_RIN,
                ReadHalf {
                    stream,
                    decoder: FrameDecoder::with_max(MAX_FRAME + MUX_HEADROOM),
                    chans: HashMap::new(),
                    inbound,
                    stalled: None,
                    scratch: vec![0u8; READ_CHUNK],
                    sock_consumed: 0,
                    done: false,
                },
            ),
        });
        if let Some(k) = key {
            link_dir().lock().insert(k, Arc::downgrade(&link));
        }
        link.obs.link_up();
        Ok(link)
    }

    /// Queue a record and flush it inline (§12 fast path): encode, write
    /// the socket from this thread, then pump the in-process twin so a
    /// loopback hop completes without waking the reactor at all.
    fn enqueue(self: &Arc<Self>, rec: OutRec) -> Result<(), NetError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        let f = {
            let mut b = self.out.lock();
            b.q.push_back(rec);
            self.flush_locked(&mut b)
        };
        self.after_flush(f);
        Ok(())
    }

    fn kick(&self) {
        if let Some(s) = self.shard.upgrade() {
            s.notify();
        }
    }
}

/// One virtual connection (mux channel) on a link.
struct ChanState {
    id: u32,
    peer: NodeId,
    link: Arc<LinkState>,
    inbox: Mailbox<Bytes>,
    window: FlowWindow,
    /// Set once the channel is retired (remote CLOSE, link death or local
    /// drop processed); sends fail fast with `Closed`.
    closed: AtomicBool,
}

impl ChanState {
    fn new(id: u32, peer: NodeId, link: Arc<LinkState>, cancel: &CancelToken) -> Self {
        Self {
            id,
            peer,
            link,
            inbox: Mailbox::new(
                "tcp.chan.rx",
                INBOX_DEPTH,
                OverflowPolicy::Block,
                cancel.clone(),
            ),
            window: FlowWindow::new(SEND_WINDOW),
            closed: AtomicBool::new(false),
        }
    }

    /// Retire the channel: drain-then-`Closed` for the receiver, immediate
    /// `Closed` for blocked senders. Returns true on the first call so
    /// exactly one retirer does the gauge accounting.
    fn retire(&self) -> bool {
        let first = !self.closed.swap(true, Ordering::SeqCst);
        self.inbox.close();
        self.window.close();
        first
    }
}

#[derive(Default)]
struct ListenerCtl {
    closed: AtomicBool,
}

// --- reactor command plumbing ----------------------------------------------

enum Cmd {
    /// Wake a parked shard (sent only when `parked` is observed true).
    Kick,
    /// Adopt a freshly dialled link (the shard becomes its backstop).
    AddLink { link: Arc<LinkState> },
    /// Adopt a freshly bound listener.
    AddListener {
        listener: TcpListener,
        local: NodeId,
        accept: Mailbox<TcpConnection>,
        ctl: Arc<ListenerCtl>,
    },
}

/// One reactor shard's handle: its command mailbox doubles as its park
/// point, so a kick is just a (possibly redundant) mailbox send.
struct Shard {
    idx: usize,
    cmds: Mailbox<Cmd>,
    parked: AtomicBool,
    work: AtomicBool,
}

impl Shard {
    /// Publish "there is work" and wake the shard if it is parked. The
    /// store/load order pairs with the reactor's park sequence (§12
    /// wakeup protocol): either the reactor's `work.swap(false)` sees our
    /// store, or we see `parked == true` and enqueue a kick.
    fn notify(&self) {
        self.work.store(true, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            let _ = self.cmds.try_send(Cmd::Kick);
        }
    }
}

// --- reactor ---------------------------------------------------------------

struct Reactor {
    cancel: CancelToken,
    shards: Vec<Arc<Shard>>,
    scope: OrderedMutex<Option<JoinScope>>,
    /// The attached registry; a private one if the first `bind`/`connect`
    /// comes with none attached (a raw transport in a unit test).
    obs: OnceLock<MetricsRegistry>,
    next: AtomicUsize,
}

impl Reactor {
    fn new(shards: usize) -> Self {
        let cancel = CancelToken::new();
        let shards = (0..shards)
            .map(|idx| {
                Arc::new(Shard {
                    idx,
                    cmds: Mailbox::new(
                        format!("tcp.reactor.{idx}"),
                        CMD_DEPTH,
                        OverflowPolicy::Block,
                        cancel.clone(),
                    ),
                    parked: AtomicBool::new(false),
                    work: AtomicBool::new(false),
                })
            })
            .collect();
        Self {
            cancel,
            shards,
            scope: OrderedMutex::new(lock_order::NET_SCOPE, None),
            obs: OnceLock::new(),
            next: AtomicUsize::new(0),
        }
    }

    fn registry(&self) -> &MetricsRegistry {
        self.obs.get_or_init(MetricsRegistry::new)
    }

    /// Metric handles for link I/O.
    fn link_obs(&self) -> ReactorObs {
        ReactorObs::new(self.registry())
    }

    /// First registry wins: the runtime attaches once, before the first
    /// `bind`/`connect` (see [`Transport::attach_obs`]).
    fn attach(&self, obs: &MetricsRegistry) {
        let _ = self.obs.set(obs.clone());
    }

    fn pick_shard(&self) -> Arc<Shard> {
        let i = self.next.fetch_add(1, Ordering::SeqCst) % self.shards.len();
        self.shards[i].clone()
    }

    /// Spawn the shard threads on first use (after any `attach_obs`), so
    /// the reactor participates in the attached registry's
    /// `runtime.threads_active`.
    fn ensure_started(&self) {
        let mut scope = self.scope.lock();
        if scope.is_some() || self.cancel.is_cancelled() {
            return;
        }
        let s = JoinScope::with_obs(
            "tcp-reactor",
            self.cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            Some(self.registry()),
        );
        for shard in &self.shards {
            let runner = ShardRunner::new(shard.clone(), self.cancel.clone(), self.link_obs());
            let _ = s.spawn(format!("net-reactor-{}", shard.idx), move || runner.run());
        }
        *scope = Some(s);
    }
}

/// Everything a shard thread owns: its registered sockets and their
/// decoder/writer state. Holds `Arc<Shard>`s only — never the transport —
/// so dropping the last transport handle is what terminates the reactor.
struct ShardRunner {
    shard: Arc<Shard>,
    cancel: CancelToken,
    obs: ReactorObs,
    links: Vec<LinkIo>,
    listeners: Vec<ListenerIo>,
}

struct ListenerIo {
    listener: TcpListener,
    local: NodeId,
    accept: Mailbox<TcpConnection>,
    ctl: Arc<ListenerCtl>,
}

impl ShardRunner {
    fn new(shard: Arc<Shard>, cancel: CancelToken, obs: ReactorObs) -> Self {
        Self {
            shard,
            cancel,
            obs,
            links: Vec::new(),
            listeners: Vec::new(),
        }
    }

    fn run(mut self) {
        let mut sweeps_since_accept = ACCEPT_EVERY;
        loop {
            loop {
                match self.shard.cmds.try_recv() {
                    Ok(cmd) => self.install(cmd, &mut sweeps_since_accept),
                    Err(MailboxRecvError::Timeout) => break,
                    Err(_) => return self.teardown(),
                }
            }
            if self.cancel.is_cancelled() {
                return self.teardown();
            }
            let mut progress = false;
            sweeps_since_accept += 1;
            if sweeps_since_accept >= ACCEPT_EVERY {
                sweeps_since_accept = 0;
                self.accept_sweep(&mut progress);
            }
            for io in &self.links {
                let l = &io.link;
                if l.dead.load(Ordering::SeqCst) {
                    l.die(); // finalize if an inline path only marked it
                    continue;
                }
                // Backstop flush: retries WouldBlock backlog and records
                // enqueued while an inline flush held the lock. No
                // self-kick on leftovers — the park tick is the retry.
                let f = {
                    let mut b = l.out.lock();
                    l.flush_locked(&mut b)
                };
                if f.fatal {
                    l.fail();
                    continue;
                }
                if f.wrote {
                    progress = true;
                    l.read_twin();
                }
                // Backstop read, gated by the §12 read hint.
                if l.stalled_flag.load(Ordering::SeqCst)
                    || l.key.is_none()
                    || l.readable.swap(false, Ordering::SeqCst)
                {
                    if let Some(mut r) = l.rin.try_lock() {
                        if l.pump_in_locked(&mut r) {
                            progress = true;
                        }
                    } else {
                        // An inline reader owns the half right now; keep
                        // the hint armed so we re-check after it is done.
                        l.readable.store(true, Ordering::SeqCst);
                    }
                }
            }
            self.links.retain(|io| !io.link.dead.load(Ordering::SeqCst));
            self.listeners
                .retain(|l| !l.ctl.closed.load(Ordering::SeqCst));
            if progress {
                continue;
            }
            if self.shard.work.swap(false, Ordering::SeqCst) {
                continue;
            }
            // Spin phase: yield instead of parking, so a hot closed loop
            // never pays the park/unpark futex round trip — senders see
            // `parked == false` and skip the kick entirely. `yield_now`
            // hands the CPU to whichever thread has real work; a stalled
            // link skips the spin so its short park retries delivery.
            if !self
                .links
                .iter()
                .any(|l| l.link.stalled_flag.load(Ordering::SeqCst))
            {
                let mut woke = false;
                for _ in 0..SPIN_YIELDS {
                    std::thread::yield_now();
                    if self.shard.work.swap(false, Ordering::SeqCst) || self.cancel.is_cancelled() {
                        woke = true;
                        break;
                    }
                }
                if woke {
                    continue; // cancellation lands in the loop-top check
                }
            }
            // About to sleep: catch connects that arrived during the
            // throttled sweeps so dial latency is bounded by the spin,
            // not the park tick.
            let mut late = false;
            sweeps_since_accept = 0;
            self.accept_sweep(&mut late);
            if late {
                continue;
            }
            // Park protocol: publish `parked`, re-check `work`, then wait
            // on the command mailbox. A sender either saw `parked == true`
            // and kicked the mailbox, or stored `work` before our swap —
            // both wake us. The timeout is a backstop, not the mechanism;
            // shutdown wakes through the mailbox's bound cancel token.
            self.shard.parked.store(true, Ordering::SeqCst);
            if self.shard.work.swap(false, Ordering::SeqCst) {
                self.shard.parked.store(false, Ordering::SeqCst);
                continue;
            }
            // netagg-lint: allow(no-poll-shutdown) park backstop; shutdown is wakeup-driven via the cmd mailbox's bound cancel token (§12)
            let woke = self.shard.cmds.recv_timeout(self.park_duration());
            self.shard.parked.store(false, Ordering::SeqCst);
            sweeps_since_accept = ACCEPT_EVERY;
            match woke {
                Ok(cmd) => {
                    self.obs.wakeup();
                    self.install(cmd, &mut sweeps_since_accept);
                }
                Err(MailboxRecvError::Timeout) => {
                    self.obs.wakeup();
                    // A twin not yet in the directory cannot send read
                    // hints; a park tick re-arms every link so such data
                    // is picked up on the next sweep (§12 backstop).
                    for io in &self.links {
                        io.link.readable.store(true, Ordering::SeqCst);
                    }
                }
                Err(_) => return self.teardown(),
            }
        }
    }

    fn park_duration(&self) -> Duration {
        if self
            .links
            .iter()
            .any(|l| l.link.stalled_flag.load(Ordering::SeqCst))
        {
            PARK_STALLED
        } else if self.links.is_empty() && self.listeners.is_empty() {
            PARK_IDLE
        } else {
            PARK_TICK
        }
    }

    fn install(&mut self, cmd: Cmd, sweeps_since_accept: &mut u32) {
        match cmd {
            Cmd::Kick => {}
            Cmd::AddLink { link } => {
                self.links.push(LinkIo { link });
            }
            Cmd::AddListener {
                listener,
                local,
                accept,
                ctl,
            } => {
                // A fresh listener may already have a backlog: sweep it on
                // the next iteration rather than a throttle period later.
                *sweeps_since_accept = ACCEPT_EVERY;
                self.listeners.push(ListenerIo {
                    listener,
                    local,
                    accept,
                    ctl,
                });
            }
        }
    }

    fn accept_sweep(&mut self, progress: &mut bool) {
        let mut fresh: Vec<LinkIo> = Vec::new();
        for l in &self.listeners {
            if l.ctl.closed.load(Ordering::SeqCst) {
                continue;
            }
            loop {
                match l.listener.accept() {
                    Ok((stream, _)) => {
                        *progress = true;
                        if stream.set_nodelay(true).is_err()
                            || stream.set_nonblocking(true).is_err()
                        {
                            continue;
                        }
                        let ctx = InboundCtx {
                            local: l.local,
                            accept: l.accept.clone(),
                            ctl: l.ctl.clone(),
                        };
                        if let Ok(link) =
                            LinkState::register(&self.shard, stream, Some(ctx), self.obs.clone())
                        {
                            fresh.push(LinkIo { link });
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        self.links.append(&mut fresh);
    }

    fn teardown(&mut self) {
        for io in &self.links {
            io.link.die();
        }
        self.links.clear();
        for l in &self.listeners {
            l.accept.close();
        }
        self.listeners.clear();
    }
}

/// Accept-side routing context of an inbound link.
struct InboundCtx {
    local: NodeId,
    accept: Mailbox<TcpConnection>,
    ctl: Arc<ListenerCtl>,
}

/// Reactor-side registration of one link. The I/O state itself lives in
/// [`LinkState`]; the shard is merely its reader and writer of last
/// resort (backlog retries, stall retries, data on unhinted links).
struct LinkIo {
    link: Arc<LinkState>,
}

impl LinkState {
    /// Drain queued records into wire chunks and push them at the socket.
    /// Pure state transform under the `out` lock; callers translate the
    /// outcome via [`Self::after_flush`] / [`Self::after_flush_nested`].
    fn flush_locked(&self, b: &mut OutBuf) -> FlushOutcome {
        let mut out = FlushOutcome::default();
        // One-time switch to direct delivery: once the directory proves
        // the socket's other end lives in this process, freshly encoded
        // chunks are handed to the twin's inject queue instead of the
        // kernel. Everything encoded so far stays on the socket path; the
        // published prefix length keeps those bytes ordered first.
        if !b.direct {
            if let Some((local, peer)) = self.key {
                let found = { link_dir().lock().get(&(peer, local)).cloned() };
                if let Some(t) = found.as_ref().and_then(Weak::upgrade) {
                    b.flush_staging();
                    t.inj_gate
                        .store(b.sock_bytes + b.wq_bytes as u64, Ordering::SeqCst);
                    b.twin = found;
                    b.direct = true;
                }
            }
        }
        let twin = if b.direct {
            match b.twin.as_ref().and_then(Weak::upgrade) {
                Some(t) => Some(t),
                None => {
                    // The in-process peer is gone; the link is dead.
                    out.fatal = true;
                    return out;
                }
            }
        } else {
            None
        };
        let twin_backlog = twin
            .as_ref()
            .map_or(0, |t| t.inj_bytes.load(Ordering::SeqCst));
        if b.wq_bytes + b.staging.len() + twin_backlog < WRITE_BACKLOG_HIGH && !b.q.is_empty() {
            let batched = b.q.len() as u64;
            while let Some(rec) = b.q.pop_front() {
                self.encode_rec(b, rec);
            }
            if batched > 1 {
                self.obs.coalesce(batched);
            }
        }
        b.flush_staging();
        if let Some(t) = &twin {
            if !b.pending_inj.is_empty() {
                let mut q = t.inj.lock();
                for c in b.pending_inj.drain(..) {
                    t.inj_bytes.fetch_add(c.len(), Ordering::SeqCst);
                    q.push_back(c);
                }
                self.obs.batch();
                out.wrote = true;
            }
        }
        // Socket path: socket-only links and pre-switch leftovers.
        while let Some(front) = b.wq.front().cloned() {
            match (&b.stream).write(&front[b.wq_off..]) {
                Ok(0) => {
                    out.fatal = true;
                    break;
                }
                Ok(n) => {
                    self.obs.batch();
                    out.wrote = true;
                    b.wq_off += n;
                    b.wq_bytes -= n;
                    b.sock_bytes += n as u64;
                    if b.wq_off == front.len() {
                        b.wq.pop_front();
                        b.wq_off = 0;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    out.fatal = true;
                    break;
                }
            }
        }
        out.clean = b.q.is_empty() && b.wq.is_empty();
        out
    }

    fn encode_rec(&self, b: &mut OutBuf, rec: OutRec) {
        match rec {
            OutRec::Open { chan, src, dst } => {
                b.staging.put_u32(13);
                b.staging.put_u8(REC_OPEN);
                b.staging.put_u32(chan.id);
                b.staging.put_u32(src);
                b.staging.put_u32(dst);
                self.obs.chan_up();
                b.opened.push(chan);
            }
            OutRec::Data { chan, payload } => {
                chan.window.release(units::Bytes::of_len(payload.len()));
                b.staging.put_u32((5 + payload.len()) as u32);
                b.staging.put_u8(REC_DATA);
                b.staging.put_u32(chan.id);
                if payload.len() <= COALESCE_MAX {
                    b.staging.put_slice(&payload);
                } else {
                    // Big payload: its own chunk, no copy.
                    b.flush_staging();
                    b.push_chunk(payload);
                }
            }
            OutRec::Close { chan } => {
                b.staging.put_u32(5);
                b.staging.put_u8(REC_CLOSE);
                b.staging.put_u32(chan.id);
                if chan.retire() {
                    self.obs.chan_down();
                }
                b.retired.push(chan.id);
            }
        }
    }

    /// Flush follow-up for contexts holding no `rin` lock: kill the link
    /// on socket failure, pump the in-process twin after a write, and
    /// kick the shard once when leftovers need a backstop retry.
    fn after_flush(self: &Arc<Self>, f: FlushOutcome) {
        if f.fatal {
            return self.fail();
        }
        if f.wrote {
            self.read_twin();
        }
        if !f.clean {
            self.kick();
        }
    }

    /// Flush follow-up for read-side contexts (a `rin` lock is held):
    /// never pumps another link — that would nest two read halves and
    /// deadlock against the reverse nesting — only hints the twin's
    /// shard. Returns true on socket failure; the caller finalizes with
    /// the lock it already holds.
    fn after_flush_nested(&self, f: FlushOutcome) -> bool {
        if f.fatal {
            return true;
        }
        if f.wrote {
            dir_mark_twin(self.key);
        }
        if !f.clean {
            self.kick();
        }
        false
    }

    /// Queue and flush a CLOSE for a channel the read side refused
    /// (dst mismatch, flooded listener). Returns true on socket failure.
    fn close_reply(&self, ch: u32) -> bool {
        let f = {
            let mut b = self.out.lock();
            b.staging.put_u32(5);
            b.staging.put_u8(REC_CLOSE);
            b.staging.put_u32(ch);
            self.flush_locked(&mut b)
        };
        self.after_flush_nested(f)
    }

    /// Writer-side fast path: this thread just fed the link's socket, so
    /// its in-process twin has bytes. Pump the twin on this thread if its
    /// read half is free — a loopback hop then runs to completion without
    /// ever waking the reactor — otherwise hint the twin's shard.
    fn read_twin(&self) {
        let Some((local, peer)) = self.key else {
            return;
        };
        let twin = { link_dir().lock().get(&(peer, local)).cloned() };
        let Some(w) = twin else { return };
        let Some(t) = w.upgrade() else {
            link_dir().lock().remove(&(peer, local));
            return;
        };
        if let Some(mut r) = t.rin.try_lock() {
            t.pump_in_locked(&mut r);
        } else {
            // Busy read half: its current owner may already be past the
            // read syscall, so arm the hint and let the reactor re-check.
            t.readable.store(true, Ordering::SeqCst);
            t.kick();
        };
    }

    /// Adopt channels the encoder opened or closed since the last pump
    /// into the read half's routing map.
    fn merge_chans(&self, r: &mut ReadHalf) {
        let mut b = self.out.lock();
        for c in b.opened.drain(..) {
            r.chans.insert(c.id, c);
        }
        for ch in b.retired.drain(..) {
            r.chans.remove(&ch);
        }
    }

    /// Read and dispatch everything available on the socket. Callable
    /// from the reactor shard or inline from whichever thread wrote to
    /// the twin socket. Returns true if anything was consumed.
    fn pump_in_locked(self: &Arc<Self>, r: &mut ReadHalf) -> bool {
        if r.done {
            return false;
        }
        self.merge_chans(r);
        let mut progress = false;
        if r.stalled.is_some() {
            self.retry_stalled(r);
            if r.stalled.is_some() {
                return progress;
            }
            progress = true;
            if !self.drain_frames(r) {
                return progress;
            }
        }
        loop {
            match r.stream.read(&mut r.scratch) {
                Ok(0) => {
                    self.die_locked(r);
                    return progress;
                }
                Ok(n) => {
                    progress = true;
                    r.sock_consumed += n as u64;
                    r.decoder
                        .feed_bytes(Bytes::copy_from_slice(&r.scratch[..n]));
                    let short = n < r.scratch.len();
                    if !self.drain_frames(r) {
                        return progress;
                    }
                    if short {
                        // Short read: the socket is (almost surely) drained.
                        break;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.die_locked(r);
                    return progress;
                }
            }
        }
        // Injected phase: chunks the twin's writer handed over directly.
        // Held back until every socket-prefix byte has been decoded, so
        // the byte stream order matches a pure-socket link exactly.
        let gate = self.inj_gate.load(Ordering::SeqCst);
        if gate != u64::MAX && r.sock_consumed >= gate {
            loop {
                let chunk = { self.inj.lock().pop_front() };
                let Some(chunk) = chunk else { break };
                self.inj_bytes.fetch_sub(chunk.len(), Ordering::SeqCst);
                progress = true;
                r.decoder.feed_bytes(chunk);
                if !self.drain_frames(r) {
                    return progress;
                }
            }
        }
        progress
    }

    fn retry_stalled(&self, r: &mut ReadHalf) {
        if let Some((ch, payload)) = r.stalled.take() {
            self.stalled_flag.store(false, Ordering::SeqCst);
            if let Some(chan) = r.chans.get(&ch) {
                if let Err(MailboxSendError::Full(p)) = chan.inbox.try_send(payload) {
                    r.stalled = Some((ch, p));
                    self.stalled_flag.store(true, Ordering::SeqCst);
                }
                // Closed/cancelled inbox: receiver is gone, frame dropped.
            }
        }
    }

    /// Decode and route buffered records; `false` when the link died or
    /// delivery stalled (remaining bytes stay buffered).
    fn drain_frames(self: &Arc<Self>, r: &mut ReadHalf) -> bool {
        loop {
            match r.decoder.next_frame() {
                Ok(None) => return true,
                Ok(Some(f)) => {
                    if !self.dispatch(r, f) {
                        return false;
                    }
                }
                Err(_) => {
                    self.die_locked(r);
                    return false;
                }
            }
        }
    }

    /// Look up an inbound channel, adopting freshly opened ones on a miss
    /// (an inline writer may have OPENed after our last merge).
    fn chan_for(&self, r: &mut ReadHalf, ch: u32) -> Option<Arc<ChanState>> {
        if let Some(c) = r.chans.get(&ch) {
            return Some(c.clone());
        }
        self.merge_chans(r);
        r.chans.get(&ch).cloned()
    }

    fn dispatch(self: &Arc<Self>, r: &mut ReadHalf, f: Bytes) -> bool {
        let Some(&kind) = f.first() else {
            self.die_locked(r);
            return false;
        };
        match kind {
            REC_DATA if f.len() >= 5 => {
                let ch = be_u32(&f[1..5]);
                let payload = f.slice(5..);
                if let Some(chan) = self.chan_for(r, ch) {
                    match chan.inbox.try_send(payload) {
                        Ok(()) => {}
                        Err(MailboxSendError::Full(p)) => {
                            r.stalled = Some((ch, p));
                            self.stalled_flag.store(true, Ordering::SeqCst);
                            // The shard retries on its short stall park.
                            self.kick();
                            return false;
                        }
                        Err(_) => {} // receiver gone: drop
                    }
                }
                // Unknown channel: data raced a local close; drop.
                true
            }
            REC_OPEN if f.len() == 13 => {
                self.handle_open(r, &f);
                !r.done
            }
            REC_CLOSE if f.len() == 5 => {
                let ch = be_u32(&f[1..5]);
                if let Some(chan) = self.chan_for(r, ch) {
                    r.chans.remove(&ch);
                    if chan.retire() {
                        self.obs.chan_down();
                    }
                }
                true
            }
            _ => {
                self.die_locked(r);
                false
            }
        }
    }

    fn handle_open(self: &Arc<Self>, r: &mut ReadHalf, f: &Bytes) {
        let ch = be_u32(&f[1..5]);
        let src = be_u32(&f[5..9]);
        let dst = be_u32(&f[9..13]);
        let Some(ctx) = &r.inbound else {
            // OPEN on a link we dialled: the peer never opens channels on
            // an inbound socket (§12 link asymmetry). Protocol violation.
            self.die_locked(r);
            return;
        };
        if dst != ctx.local || ctx.ctl.closed.load(Ordering::SeqCst) {
            if self.close_reply(ch) {
                self.die_locked(r);
            }
            return;
        }
        let cancel = ctx.accept.cancel_token().clone();
        let chan = Arc::new(ChanState::new(ch, src, self.clone(), &cancel));
        self.obs.chan_up();
        r.chans.insert(ch, chan.clone());
        if ctx.accept.try_send(TcpConnection { chan }).is_err() {
            // Listener gone (or flooded): refuse the channel.
            if let Some(c) = r.chans.remove(&ch) {
                if c.retire() {
                    self.obs.chan_down();
                }
            }
            if self.close_reply(ch) {
                self.die_locked(r);
            }
        }
    }

    /// Kill the link from a write-side or external context (no `rin`
    /// lock held): fail fast for senders, then finalize under `rin`.
    fn fail(&self) {
        self.dead.store(true, Ordering::SeqCst);
        {
            let mut b = self.out.lock();
            b.clear();
            let _ = b.stream.shutdown(Shutdown::Both);
        }
        self.die();
    }

    /// Finalize the link, taking the read lock (idempotent).
    fn die(&self) {
        let mut r = self.rin.lock();
        self.die_locked(&mut r);
    }

    /// Kill the link: retire every channel (receivers drain then observe
    /// `Closed`), fail senders, drop queued I/O, close the socket and
    /// leave the read-hint directory.
    fn die_locked(&self, r: &mut ReadHalf) {
        if r.done {
            return;
        }
        r.done = true;
        self.dead.store(true, Ordering::SeqCst);
        dir_remove(self.key);
        for (_, chan) in r.chans.drain() {
            if chan.retire() {
                self.obs.chan_down();
            }
        }
        r.stalled = None;
        self.stalled_flag.store(false, Ordering::SeqCst);
        {
            let mut q = self.inj.lock();
            q.clear();
            self.inj_bytes.store(0, Ordering::SeqCst);
        }
        {
            let mut b = self.out.lock();
            // Channels OPENed but never adopted by the read side.
            for chan in b.opened.drain(..) {
                if chan.retire() {
                    self.obs.chan_down();
                }
            }
            b.retired.clear();
            b.clear();
            let _ = b.stream.shutdown(Shutdown::Both);
        }
        let _ = r.stream.shutdown(Shutdown::Both);
        // The FIN is a readable event too: let the twin see EOF now
        // rather than on its next park tick.
        dir_mark_twin(self.key);
        self.obs.link_down();
        self.kick();
    }
}

// --- public transport ------------------------------------------------------

struct TcpShared {
    registry: OrderedMutex<HashMap<NodeId, SocketAddr>>,
    links: OrderedMutex<HashMap<SocketAddr, Arc<LinkState>>>,
    reactor: Reactor,
}

impl TcpShared {
    /// Get or dial the shared physical link to `addr`. `net.links` stays
    /// held across the dial and the `AddLink` hand-off (it is declared
    /// blocking-tolerant, §15), so racing dials end in one link per address
    /// and no second dial can observe a link its reactor has not seen.
    fn link_to(&self, addr: SocketAddr) -> Result<Arc<LinkState>, NetError> {
        let mut links = self.links.lock();
        if let Some(l) = links.get(&addr) {
            if !l.dead.load(Ordering::SeqCst) {
                return Ok(l.clone());
            }
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let shard = self.reactor.pick_shard();
        let link = LinkState::register(&shard, stream, None, self.reactor.link_obs())?;
        shard
            .cmds
            .send(Cmd::AddLink { link: link.clone() })
            .map_err(|_| NetError::Closed)?;
        shard.notify();
        links.insert(addr, link.clone());
        Ok(link)
    }
}

/// Default shard count: half the available cores, clamped to 1..=4
/// (loopback sweeps are cheap; more shards only pay off when senders
/// genuinely run in parallel).
fn default_shards() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores / 2).clamp(1, 4)
}

/// TCP transport. Cheap to clone (shared address registry, link table and
/// reactor); the reactor threads stop when the last clone drops.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<TcpShared>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::with_shards(default_shards())
    }
}

impl TcpTransport {
    /// Create a transport with an empty address registry and the default
    /// reactor shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a transport with exactly `shards` reactor threads
    /// (clamped to at least one).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            inner: Arc::new(TcpShared {
                registry: OrderedMutex::new(lock_order::NET_REGISTRY, HashMap::new()),
                links: OrderedMutex::new(lock_order::NET_LINKS, HashMap::new()),
                reactor: Reactor::new(shards.max(1)),
            }),
        }
    }

    /// The number of reactor shards this transport runs.
    pub fn shard_count(&self) -> usize {
        self.inner.reactor.shards.len()
    }
}

impl Transport for TcpTransport {
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError> {
        let listener = {
            let mut reg = self.inner.registry.lock();
            if reg.contains_key(&local) {
                return Err(NetError::AlreadyBound(local));
            }
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            l.set_nonblocking(true)?;
            reg.insert(local, l.local_addr()?);
            l
        };
        self.inner.reactor.ensure_started();
        let cancel = self.inner.reactor.cancel.clone();
        let ctl = Arc::new(ListenerCtl::default());
        let accept = Mailbox::new(
            format!("tcp.accept.{local}"),
            ACCEPT_DEPTH,
            OverflowPolicy::Block,
            cancel,
        );
        let shard = self.inner.reactor.pick_shard();
        shard
            .cmds
            .send(Cmd::AddListener {
                listener,
                local,
                accept: accept.clone(),
                ctl: ctl.clone(),
            })
            .map_err(|_| NetError::Closed)?;
        shard.notify();
        Ok(Box::new(TcpListenerWrapper {
            accept,
            ctl,
            shard: Arc::downgrade(&shard),
        }))
    }

    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError> {
        let addr = *self
            .inner
            .registry
            .lock()
            .get(&peer)
            .ok_or(NetError::NotFound(peer))?;
        self.inner.reactor.ensure_started();
        let link = self.inner.link_to(addr)?;
        let ch = link.next_ch.fetch_add(1, Ordering::SeqCst);
        let cancel = self.inner.reactor.cancel.clone();
        let chan = Arc::new(ChanState::new(ch, peer, link.clone(), &cancel));
        link.enqueue(OutRec::Open {
            chan: chan.clone(),
            src: local,
            dst: peer,
        })?;
        Ok(Box::new(TcpConnection { chan }))
    }

    fn attach_obs(&self, obs: &MetricsRegistry) {
        self.inner.reactor.attach(obs);
    }
}

struct TcpListenerWrapper {
    accept: Mailbox<TcpConnection>,
    ctl: Arc<ListenerCtl>,
    shard: Weak<Shard>,
}

impl Listener for TcpListenerWrapper {
    fn accept(&mut self) -> Result<Box<dyn Connection>, NetError> {
        recv_on(&self.accept, Wait::Forever).map(|c| Box::new(c) as _)
    }

    fn accept_timeout(&mut self, timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        recv_on(&self.accept, Wait::For(timeout)).map(|c| Box::new(c) as _)
    }

    fn accept_cancellable(
        &mut self,
        cancel: &CancelToken,
    ) -> Result<Box<dyn Connection>, NetError> {
        recv_on(&self.accept, Wait::Cancel(cancel)).map(|c| Box::new(c) as _)
    }
}

impl Drop for TcpListenerWrapper {
    fn drop(&mut self) {
        self.ctl.closed.store(true, Ordering::SeqCst);
        self.accept.close();
        if let Some(s) = self.shard.upgrade() {
            s.notify();
        }
    }
}

/// One virtual connection handle.
struct TcpConnection {
    chan: Arc<ChanState>,
}

impl Connection for TcpConnection {
    fn send(&mut self, payload: Bytes) -> Result<(), NetError> {
        if payload.len() > MAX_FRAME {
            return Err(NetError::FrameTooLarge(payload.len()));
        }
        let chan = &self.chan;
        if chan.closed.load(Ordering::SeqCst) || chan.link.dead.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        match chan.window.acquire(
            units::Bytes::of_len(payload.len()),
            chan.inbox.cancel_token(),
        ) {
            Ok(()) => {}
            // The window's cancel token is the reactor's: cancellation
            // here means transport teardown, which is a close to callers.
            Err(NetError::Cancelled) => return Err(NetError::Closed),
            Err(e) => return Err(e),
        }
        chan.link.enqueue(OutRec::Data {
            chan: chan.clone(),
            payload,
        })?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Bytes, NetError> {
        recv_on(&self.chan.inbox, Wait::Forever)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, NetError> {
        recv_on(&self.chan.inbox, Wait::For(timeout))
    }

    fn recv_cancellable(&mut self, cancel: &CancelToken) -> Result<Bytes, NetError> {
        recv_on(&self.chan.inbox, Wait::Cancel(cancel))
    }

    fn peer(&self) -> NodeId {
        self.chan.peer
    }
}

impl Drop for TcpConnection {
    fn drop(&mut self) {
        if self.chan.closed.load(Ordering::SeqCst) {
            return; // already retired (remote close or link death)
        }
        // The CLOSE record queues behind any unsent DATA, so queued
        // writes flush before the peer sees the close.
        let _ = self.chan.link.enqueue(OutRec::Close {
            chan: self.chan.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn tcp_roundtrip() {
        let t = TcpTransport::new();
        let mut l = t.bind(1).unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness thread; the TCP framing is what is under test"
        )]
        let h = thread::spawn({
            let t = t.clone();
            move || {
                let mut c = t.connect(7, 1).unwrap();
                c.send(Bytes::from_static(b"over tcp")).unwrap();
                c.recv().unwrap()
            }
        });
        let mut server = l.accept().unwrap();
        assert_eq!(server.peer(), 7);
        assert_eq!(server.recv().unwrap().as_ref(), b"over tcp");
        server.send(Bytes::from_static(b"ack")).unwrap();
        assert_eq!(h.join().unwrap().as_ref(), b"ack");
    }

    #[test]
    fn tcp_large_message() {
        let t = TcpTransport::new();
        let mut l = t.bind(1).unwrap();
        let payload = Bytes::from((0..2_000_000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let expect = payload.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness thread; the TCP framing is what is under test"
        )]
        let h = thread::spawn({
            let t = t.clone();
            move || {
                let mut c = t.connect(2, 1).unwrap();
                c.send(payload).unwrap();
                // c drops here: the 2 MB frame must flush before CLOSE.
            }
        });
        let mut server = l.accept().unwrap();
        let got = server.recv().unwrap();
        h.join().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn tcp_recv_timeout() {
        let t = TcpTransport::new();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_millis(30)),
            Err(NetError::Timeout)
        );
        drop(c.send(Bytes::from_static(b"late")));
        assert_eq!(
            server
                .recv_timeout(Duration::from_millis(200))
                .unwrap()
                .as_ref(),
            b"late"
        );
    }

    #[test]
    fn tcp_unknown_peer() {
        let t = TcpTransport::new();
        assert!(matches!(t.connect(1, 9), Err(NetError::NotFound(9))));
    }

    #[test]
    fn tcp_accept_timeout() {
        let t = TcpTransport::new();
        let mut l = t.bind(1).unwrap();
        assert!(matches!(
            l.accept_timeout(Duration::from_millis(20)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn tcp_close_detected() {
        let t = TcpTransport::new();
        let mut l = t.bind(1).unwrap();
        let c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        drop(c);
        assert_eq!(server.recv(), Err(NetError::Closed));
    }

    #[test]
    fn connections_multiplex_one_physical_link() {
        let t = TcpTransport::new();
        let mut l = t.bind(1).unwrap();
        let mut clients: Vec<Box<dyn Connection>> =
            (0..8).map(|i| t.connect(100 + i, 1).unwrap()).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(Bytes::from(format!("payload-{i}"))).unwrap();
        }
        // All eight logical connections share one dialled socket.
        assert_eq!(t.inner.links.lock().len(), 1);
        for i in 0..8u32 {
            let mut server = l.accept().unwrap();
            assert_eq!(server.peer(), 100 + i);
            assert_eq!(
                server.recv().unwrap().as_ref(),
                format!("payload-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn links_round_robin_across_shards() {
        let t = TcpTransport::with_shards(3);
        assert_eq!(t.shard_count(), 3);
        let _listeners: Vec<_> = (1..=3).map(|n| t.bind(n).unwrap()).collect();
        let _conns: Vec<_> = (1..=3).map(|n| t.connect(10 + n, n).unwrap()).collect();
        let links = t.inner.links.lock();
        let mut shards: Vec<usize> = links.values().map(|l| l.shard_idx).collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(
            shards.len(),
            3,
            "three links to three peers must spread over all three shards"
        );
    }

    #[test]
    fn batched_frames_roundtrip_in_order() {
        let t = TcpTransport::new();
        let mut l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        // A burst of small frames plus one large (> COALESCE_MAX, so it
        // takes the zero-copy big-payload path), then more smalls: the
        // receiver must see every frame intact, in order.
        let big = Bytes::from(vec![0xAB; 100 * 1024]);
        for i in 0..100u32 {
            c.send(Bytes::from(format!("small-{i}"))).unwrap();
        }
        c.send(big.clone()).unwrap();
        for i in 100..200u32 {
            c.send(Bytes::from(format!("small-{i}"))).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(
                server.recv().unwrap().as_ref(),
                format!("small-{i}").as_bytes()
            );
        }
        assert_eq!(server.recv().unwrap(), big);
        for i in 100..200u32 {
            assert_eq!(
                server.recv().unwrap().as_ref(),
                format!("small-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn transport_drop_fails_blocked_receivers() {
        let t = TcpTransport::new();
        let mut l = t.bind(1).unwrap();
        let _c = t.connect(2, 1).unwrap();
        let mut server = l.accept().unwrap();
        #[expect(clippy::disallowed_methods, reason = "test harness thread")]
        let h = thread::spawn(move || server.recv());
        thread::sleep(Duration::from_millis(30));
        drop(l);
        drop(t); // joins the reactor; the blocked recv must wake
        assert_eq!(h.join().unwrap(), Err(NetError::Closed));
    }

    #[test]
    fn oversized_send_is_rejected() {
        let t = TcpTransport::new();
        let _l = t.bind(1).unwrap();
        let mut c = t.connect(2, 1).unwrap();
        let huge = Bytes::from(vec![0u8; MAX_FRAME + 1]);
        assert!(matches!(c.send(huge), Err(NetError::FrameTooLarge(_))));
    }
}
