//! Network substrate for the NetAgg testbed experiments.
//!
//! The paper's prototype runs on a 31-server testbed with 1 Gbps edge links
//! and 10 Gbps agg-box links. This crate reproduces that substrate on one
//! machine:
//!
//! * [`transport`] — blocking, message-oriented [`Transport`] /
//!   [`Listener`] / [`Connection`] traits with logical node addresses, and
//!   [`serve_ready`] (one reader per node) and [`serve`] (one per
//!   connection, for handlers that block).
//! * [`channel`] — in-process transport over bounded [`Mailbox`]es (the
//!   bound provides natural back-pressure, mirroring the paper's
//!   back-pressure mechanism).
//! * [`tcp`] — real TCP-loopback transport: an event-driven sharded
//!   reactor multiplexing logical connections onto shared physical links
//!   with batched zero-copy framing (DESIGN.md §12).
//! * [`framing`] — the length-prefixed binary frame codec over shared
//!   zero-copy chunks (the role KryoNet plays in the paper's Java
//!   prototype).
//! * [`flow`] — [`FlowWindow`]: byte-counted per-connection send windows,
//!   the TCP reactor's sender-side backpressure (§12).
//! * [`units`] — the typed [`units::Bytes`] quantity flow control counts
//!   in.
//! * [`interpose`] — [`Interposed`]: the one wrapper that sits on a
//!   transport, over a small [`Interposer`] hook per concern: [`metered`]
//!   (frames and bytes per link into a registry, §7), [`fault`] (killed
//!   endpoints, delayed sends, seeded kill schedules) and [`emu`] with
//!   [`ratelimit`] (token-bucket link capacities: 1 Gbps edge, 10 Gbps box).
//! * [`lifecycle`] — the unified lifecycle & backpressure runtime:
//!   [`CancelToken`], bounded [`Mailbox`]es with overflow policies and one
//!   blocking receive, deadline-joining [`JoinScope`]s (DESIGN.md §9), and
//!   the rank-checked [`lifecycle::OrderedMutex`] with its debug-build
//!   acquisition witness (§15).
//! * [`lock_order`] — the static lock-rank registry backing §15's
//!   acquisition order (and which ranks tolerate a blocked holder), read
//!   by the witness and checked against DESIGN.md by
//!   `tests/design_contract.rs`.
//! * [`wire`] — small binary (de)serialisation helpers over [`bytes`].
//! * [`hash`] — the keyed hasher of every per-frame and per-request map.

#![warn(missing_docs)]

pub mod channel;
pub mod emu;
pub mod fault;
pub mod flow;
pub mod framing;
pub mod hash;
pub mod interpose;
pub mod lifecycle;
pub mod lock_order;
pub mod metered;
pub mod ratelimit;
pub mod tcp;
pub mod transport;
pub mod units;
pub mod wire;

pub use channel::ChannelTransport;
pub use emu::{EmuNet, EmuNetBuilder};
pub use fault::{DetRng, FaultController, FaultStep, FaultTransport};
pub use flow::FlowWindow;
pub use framing::{encode_frame, FrameDecoder, MAX_FRAME};
pub use interpose::{Interposed, Interposer};
pub use lifecycle::{CancelToken, JoinScope, Mailbox, OverflowPolicy, Readiness};
pub use metered::MeteredTransport;
pub use ratelimit::TokenBucket;
pub use tcp::TcpTransport;
pub use transport::{serve, serve_ready, Connection, Listener, NetError, NodeId, Transport};
