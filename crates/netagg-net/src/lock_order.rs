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
//! [`blocking_tolerant`](LockRank::blocking_tolerant) here.
//! `tests/design_contract.rs` keeps [`ALL`] and the §15 "Lock ranks" table
//! in bidirectional sync (rank, name and the blocking-tolerant mark).
//!
//! Rank bands (gaps left for future locks):
//!
//! * 10–19 scenario engine (`netagg-scenarios/src/runner.rs`)
//! * 20–24 node shells, one rank for all three (`netagg-core/src/shell.rs`)
//! * 25–29 connection caches (`netagg-core/src/conn_cache.rs`)
//! * 60–69 agg-box scheduler (`netagg-core/src/aggbox/scheduler.rs`)
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

/// Declares each `NAME = rank;` as a documented `pub const NAME: LockRank`
/// and, beside them, `ALL`, so a rank cannot exist without being in the
/// list the §15 table is checked against.
macro_rules! lock_ranks {
    ($($(#[$doc:meta])* $ident:ident = $rank:expr;)*) => {
        $($(#[$doc])* pub const $ident: LockRank = $rank;)*
        /// Every registered rank, in declaration (= rank) order.
        pub const ALL: &[LockRank] = &[$($ident),*];
    };
}

lock_ranks! {
// --- scenario engine (10–19) -----------------------------------------------

/// The scenario engine's whole mutable state: armed impairments not yet
/// due (held while applying due actions), labels of those applied,
/// high-water mailbox depths, and the per-app counters each driver hands
/// back when it is done.
SCN_ENGINE = LockRank::new(10, "scn.engine");

// --- node shells (20–24) --------------------------------------------------

/// A node's whole protocol state, one lock per node — the box's
/// `BoxCore`, the master's `MasterCore` or the worker's `WorkerCore` —
/// and what its shell's threads share beside it. No node's lock is taken
/// while another's is held: a nesting of two panics in the witness.
NODE_CORE = LockRank::new(20, "node.core");

// --- connection caches (25–29) ---------------------------------------------

/// A `ConnCache`'s destination → connection map (`netagg-core/src/conn_cache.rs`):
/// every node shell owns two, for its outbox and for its probes and acks.
/// Held across a dial plus first send: the lock is what serializes racing
/// dials to one connection per destination.
CONN_CACHE = LockRank::new(25, "conn.cache").blocking_tolerant();

// --- agg-box scheduler (60–69) ---------------------------------------------

/// WFQ scheduler state (taken under a box's `node.core` by combine
/// submission).
SCHED_STATE = LockRank::new(60, "sched.state");

// --- TCP reactor (70–89) ---------------------------------------------------

/// Reactor join scope; held only at startup, before shard threads exist.
NET_SCOPE = LockRank::new(70, "net.scope");
/// NodeId → socket address registry.
NET_REGISTRY = LockRank::new(72, "net.registry");
/// Address → physical link map; held while dialling a new link and handing
/// it to its reactor shard, so racing dials end in one link per address.
NET_LINKS = LockRank::new(73, "net.links").blocking_tolerant();
/// A link's read half (decoder + channel routing); pumping the read half
/// flushes the write half, so `net.rin` orders before `net.out`.
NET_RIN = LockRank::new(74, "net.rin");
/// A link's write half (encoder + wire queue).
NET_OUT = LockRank::new(76, "net.out");
/// A link's direct-delivery inject queue (fed under the *twin's*
/// `net.out` by the flush path).
NET_INJ = LockRank::new(78, "net.inj");
/// The process-wide read-hint directory (§12); the innermost lock.
NET_LINK_DIR = LockRank::new(79, "net.link_dir");
}
