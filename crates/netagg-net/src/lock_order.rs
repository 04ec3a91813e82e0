//! The single source of truth for the workspace lock-rank registry
//! (DESIGN.md §15).
//!
//! Every hot lock in the runtime is an
//! [`OrderedMutex`](crate::lifecycle::OrderedMutex) constructed from one
//! of the [`LockRank`] constants below. The rank encodes the only legal
//! acquisition order: a thread may acquire a lock only while every lock it
//! already holds has a *strictly smaller* rank. Outermost locks therefore
//! carry the lowest ranks; the transport layer — always acquired last, at
//! the bottom of every call chain — carries the highest.
//!
//! The debug-build witness (`lifecycle::witness`) is the enforcement: it
//! panics on a rank inversion before the acquisition blocks, records every
//! `(held, acquired)` pair for `tests/lock_witness.rs` to compare with the
//! §15 "Acquisition edges" table, and panics when a blocking primitive
//! (`Mailbox` send/recv, `CancelToken::wait_timeout`, `JoinScope` join,
//! `FlowWindow::acquire`) is entered under a lock not declared
//! [`blocking_tolerant`](LockRank::blocking_tolerant) here. `netagg-lint`
//! only keeps this file and the §15 "Lock ranks" table in bidirectional
//! sync (rank, name and the blocking-tolerant mark).
//!
//! Rank bands (gaps left for future locks):
//!
//! * 10–19 scenario engine (`netagg-scenarios/src/runner.rs`)
//! * 20–29 master shim (`netagg-core/src/shim/master.rs`)
//! * 30–39 worker shim (`netagg-core/src/shim/worker.rs`)
//! * 40–59 agg-box runtime (`netagg-core/src/aggbox/runtime.rs`)
//! * 60–64 agg-box scheduler (`netagg-core/src/aggbox/scheduler.rs`)
//! * 65–69 connection caches (`netagg-core/src/conn_cache.rs`)
//! * 70–89 TCP reactor (`netagg-net/src/tcp.rs`)

/// A static lock rank: the position of one named lock in the global
/// acquisition order (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    /// Position in the global order; strictly increasing along every
    /// legal acquisition chain.
    pub rank: u16,
    /// Registry name, `<band>.<lock>`; the key used by the runtime
    /// witness and the §15 tables.
    pub name: &'static str,
    /// Whether a holder may enter a blocking primitive (§15 "Blocking
    /// while locked"); `false` unless declared otherwise.
    pub may_block: bool,
}

impl LockRank {
    /// Declare a rank (used by the registry constants below and by tests
    /// that need ad-hoc locks outside the global order).
    pub const fn new(rank: u16, name: &'static str) -> Self {
        Self {
            rank,
            name,
            may_block: false,
        }
    }

    /// Declare the lock one of §15's deliberate exceptions: it is held
    /// across a dial plus first send, so its holder may block.
    pub const fn blocking_tolerant(self) -> Self {
        Self {
            may_block: true,
            ..self
        }
    }
}

// --- scenario engine (10–19) -----------------------------------------------

/// The scenario engine's whole mutable state: armed impairments not yet
/// due (held while applying due actions), labels of those applied,
/// high-water mailbox depths, and the per-app counters each driver hands
/// back when it is done.
pub const SCN_ENGINE: LockRank = LockRank::new(10, "scn.engine");

// --- master shim (20–29) ---------------------------------------------------

/// The master shim's whole protocol state (`MasterCore`: routes,
/// per-request ledgers and inputs, delivered-id window); its condvar
/// waits on this lock.
pub const MASTER_CORE: LockRank = LockRank::new(20, "master.core");

// --- worker shim (30–39) ---------------------------------------------------

/// The worker shim's whole protocol state (`WorkerCore`: assignments,
/// per-request sequence numbers, replay window).
pub const WORKER_CORE: LockRank = LockRank::new(30, "worker.core");

// --- agg-box runtime (40–59) -----------------------------------------------

/// The agg box's whole protocol state (`BoxCore`: apps, routes,
/// per-request ledgers and sinks, upstream redirects, emitted window).
pub const AGG_CORE: LockRank = LockRank::new(40, "agg.core");

// --- agg-box scheduler (60–69) ---------------------------------------------

/// WFQ scheduler state (taken under `agg.core` by combine submission).
pub const SCHED_STATE: LockRank = LockRank::new(60, "sched.state");

// --- connection caches (65) --------------------------------------------------

/// A `ConnCache`'s destination → connection map (`netagg-core/src/conn_cache.rs`):
/// worker data plane, master control plane, box egress and failure
/// detector each own one. Held across a dial plus first send (the lock is
/// what serializes racing dials to one connection per destination), so it
/// ranks below every protocol lock and above the whole transport band.
pub const CONN_CACHE: LockRank = LockRank::new(65, "conn.cache").blocking_tolerant();

// --- TCP reactor (70–89) ---------------------------------------------------

/// Reactor join scope; held only at startup, before shard threads exist.
pub const NET_SCOPE: LockRank = LockRank::new(70, "net.scope");
/// NodeId → socket address registry.
pub const NET_REGISTRY: LockRank = LockRank::new(72, "net.registry");
/// Address → physical link map; held while dialling a new link and handing
/// it to its reactor shard, so racing dials end in one link per address.
pub const NET_LINKS: LockRank = LockRank::new(73, "net.links").blocking_tolerant();
/// A link's read half (decoder + channel routing); pumping the read half
/// flushes the write half, so `net.rin` orders before `net.out`.
pub const NET_RIN: LockRank = LockRank::new(74, "net.rin");
/// A link's write half (encoder + wire queue).
pub const NET_OUT: LockRank = LockRank::new(76, "net.out");
/// A link's direct-delivery inject queue (fed under the *twin's*
/// `net.out` by the flush path).
pub const NET_INJ: LockRank = LockRank::new(78, "net.inj");
/// The process-wide read-hint directory (§12); the innermost lock.
pub const NET_LINK_DIR: LockRank = LockRank::new(79, "net.link_dir");
