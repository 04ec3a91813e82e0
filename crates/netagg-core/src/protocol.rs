//! Wire protocol between shim layers and agg boxes.
//!
//! Messages are hand-encoded binary frames (the paper uses an efficient
//! binary protocol over KryoNet rather than HTTP/XML). Every data message
//! carries the application, request and tree identifiers so one box can
//! multiplex many applications and trees over shared connections.

use bytes::{BufMut, Bytes, BytesMut};
use netagg_net::wire;
use netagg_net::NetError;
use netagg_obs::trace::TraceCtx;

/// Identifies an application deployed on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u16);

/// Identifies one request (query, job) of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Identifies one aggregation tree of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeId(pub u32);

/// Logical identity of a data source within a tree: a worker or a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceId {
    /// A worker shim, by worker id.
    Worker(u32),
    /// An agg box, by global box id.
    Box(u32),
}

impl SourceId {
    /// Bytes one source takes on the wire: a tag and a `u32` id.
    const WIRE_LEN: usize = 5;

    fn encode(&self, dst: &mut BytesMut) {
        match self {
            SourceId::Worker(w) => {
                dst.put_u8(0);
                dst.put_u32(*w);
            }
            SourceId::Box(b) => {
                dst.put_u8(1);
                dst.put_u32(*b);
            }
        }
    }

    fn decode(src: &mut Bytes) -> Result<Self, NetError> {
        match wire::get_u8(src)? {
            0 => Ok(SourceId::Worker(wire::get_u32(src)?)),
            1 => Ok(SourceId::Box(wire::get_u32(src)?)),
            t => Err(NetError::Corrupt(format!("bad source tag {t}"))),
        }
    }
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A chunk of (partial or already partially aggregated) result data
    /// moving up a tree. `last` marks the final chunk from this source for
    /// this request.
    Data {
        /// Application the data belongs to.
        app: AppId,
        /// Request the data belongs to.
        request: RequestId,
        /// Aggregation tree carrying the data.
        tree: TreeId,
        /// Who produced this chunk.
        source: SourceId,
        /// Monotonic per-(request, source) chunk number.
        seq: u32,
        /// Final chunk from this source for this request.
        last: bool,
        /// Causal trace context (DESIGN.md §11): `parent_span_id` is the
        /// sender's hop-span id. [`TraceCtx::NONE`] when tracing is off.
        ctx: TraceCtx,
        /// Sender's send time on the `netagg_obs::trace::now_ns` axis
        /// (0 when tracing is off); lets the receiver record the
        /// wire-transfer span.
        sent_ns: u64,
        /// Serialised partial result or intermediate aggregate.
        payload: Bytes,
    },
    /// Master shim -> box: per-request metadata (the paper's shim-layer
    /// request tracking): exactly which sources the box should expect.
    /// Carrying the set (not a count) keeps the receiving box's fan-in
    /// ledger exact under failure re-points (see `netagg_core::ledger`).
    RequestMeta {
        /// Application of the request.
        app: AppId,
        /// The request being described.
        request: RequestId,
        /// Tree the metadata applies to.
        tree: TreeId,
        /// The distinct sources participating in the request at the
        /// receiving box.
        sources: Vec<SourceId>,
        /// Causal trace context flowing *down* the tree: the master's
        /// root-span id, so the box's request span parents correctly.
        ctx: TraceCtx,
    },
    /// Parent -> children of a failed/straggling box: send future data for
    /// `request` (or all requests if `None`... encoded as request with
    /// `all = true`) to `new_parent` instead. `last_seq` is the
    /// highest sequence number per the paper's duplicate suppression.
    Redirect {
        /// Application the redirect applies to.
        app: AppId,
        /// When `false`, applies only to `request`; when `true`, permanent.
        permanent: bool,
        /// Request to redirect (ignored when permanent).
        request: RequestId,
        /// Tree whose assignment changes.
        tree: TreeId,
        /// Transport address future data should go to.
        new_parent: u32,
    },
    /// Liveness probe and its answer (failure detection service).
    Heartbeat {
        /// Address of the prober.
        from: u32,
        /// Correlates the ack with the probe.
        nonce: u64,
    },
    /// Answer to a [`Message::Heartbeat`].
    HeartbeatAck {
        /// Identity of the responder.
        from: u32,
        /// Echo of the probe's nonce.
        nonce: u64,
    },
    /// One-to-many distribution *down* a tree (the multicast extension the
    /// paper sketches in Section 5): the master sends once per root box;
    /// each box replicates to its children; workers receive it.
    Broadcast {
        /// Application the broadcast belongs to.
        app: AppId,
        /// Request (iteration) identifier.
        request: RequestId,
        /// Tree to distribute down.
        tree: TreeId,
        /// The data to replicate to every worker.
        payload: Bytes,
    },
}

const TAG_DATA: u8 = 1;
const TAG_META: u8 = 2;
const TAG_REDIRECT: u8 = 3;
const TAG_HB: u8 = 4;
const TAG_HB_ACK: u8 = 5;
const TAG_BCAST: u8 = 6;

impl Message {
    /// Serialise to the wire format.
    pub fn encode(&self) -> Bytes {
        // Every fixed header fits in 64 bytes (Data's is 53); the variable
        // part (a payload, or `WIRE_LEN` bytes per encoded source) is
        // reserved with it so the buffer never regrows.
        let variable = match self {
            Message::Data { payload, .. } | Message::Broadcast { payload, .. } => payload.len(),
            Message::RequestMeta { sources, .. } => SourceId::WIRE_LEN * sources.len(),
            _ => 0,
        };
        let mut b = BytesMut::with_capacity(64 + variable);
        match self {
            Message::Data {
                app,
                request,
                tree,
                source,
                seq,
                last,
                ctx,
                sent_ns,
                payload,
            } => {
                b.put_u8(TAG_DATA);
                b.put_u16(app.0);
                b.put_u64(request.0);
                b.put_u32(tree.0);
                source.encode(&mut b);
                b.put_u32(*seq);
                b.put_u8(u8::from(*last));
                wire::put_trace(&mut b, ctx);
                b.put_u64(*sent_ns);
                wire::put_bytes(&mut b, payload);
            }
            Message::RequestMeta {
                app,
                request,
                tree,
                sources,
                ctx,
            } => {
                b.put_u8(TAG_META);
                b.put_u16(app.0);
                b.put_u64(request.0);
                b.put_u32(tree.0);
                wire::put_trace(&mut b, ctx);
                b.put_u32(sources.len() as u32);
                for s in sources {
                    s.encode(&mut b);
                }
            }
            Message::Redirect {
                app,
                permanent,
                request,
                tree,
                new_parent,
            } => {
                b.put_u8(TAG_REDIRECT);
                b.put_u16(app.0);
                b.put_u8(u8::from(*permanent));
                b.put_u64(request.0);
                b.put_u32(tree.0);
                b.put_u32(*new_parent);
            }
            Message::Heartbeat { from, nonce } => {
                b.put_u8(TAG_HB);
                b.put_u32(*from);
                b.put_u64(*nonce);
            }
            Message::HeartbeatAck { from, nonce } => {
                b.put_u8(TAG_HB_ACK);
                b.put_u32(*from);
                b.put_u64(*nonce);
            }
            Message::Broadcast {
                app,
                request,
                tree,
                payload,
            } => {
                b.put_u8(TAG_BCAST);
                b.put_u16(app.0);
                b.put_u64(request.0);
                b.put_u32(tree.0);
                wire::put_bytes(&mut b, payload);
            }
        }
        b.freeze()
    }

    /// Parse a frame; errors on unknown tags or truncation.
    pub fn decode(mut src: Bytes) -> Result<Self, NetError> {
        match wire::get_u8(&mut src)? {
            TAG_DATA => {
                let app = get_app(&mut src)?;
                let request = RequestId(wire::get_u64(&mut src)?);
                let tree = TreeId(wire::get_u32(&mut src)?);
                let source = SourceId::decode(&mut src)?;
                let seq = wire::get_u32(&mut src)?;
                let last = wire::get_u8(&mut src)? != 0;
                let ctx = wire::get_trace(&mut src)?;
                let sent_ns = wire::get_u64(&mut src)?;
                let payload = wire::get_bytes(&mut src)?;
                Ok(Message::Data {
                    app,
                    request,
                    tree,
                    source,
                    seq,
                    last,
                    ctx,
                    sent_ns,
                    payload,
                })
            }
            TAG_META => {
                let app = get_app(&mut src)?;
                let request = RequestId(wire::get_u64(&mut src)?);
                let tree = TreeId(wire::get_u32(&mut src)?);
                let ctx = wire::get_trace(&mut src)?;
                let n = wire::get_u32(&mut src)? as usize;
                // Bound the count by what the frame can hold before
                // reserving for it: a hostile count never allocates more
                // than the frame it arrived in.
                if n.saturating_mul(SourceId::WIRE_LEN) > src.len() {
                    return Err(NetError::Corrupt("meta source count too large".into()));
                }
                let mut sources = Vec::with_capacity(n);
                for _ in 0..n {
                    sources.push(SourceId::decode(&mut src)?);
                }
                Ok(Message::RequestMeta {
                    app,
                    request,
                    tree,
                    sources,
                    ctx,
                })
            }
            TAG_REDIRECT => Ok(Message::Redirect {
                app: get_app(&mut src)?,
                permanent: wire::get_u8(&mut src)? != 0,
                request: RequestId(wire::get_u64(&mut src)?),
                tree: TreeId(wire::get_u32(&mut src)?),
                new_parent: wire::get_u32(&mut src)?,
            }),
            TAG_HB => Ok(Message::Heartbeat {
                from: wire::get_u32(&mut src)?,
                nonce: wire::get_u64(&mut src)?,
            }),
            TAG_HB_ACK => Ok(Message::HeartbeatAck {
                from: wire::get_u32(&mut src)?,
                nonce: wire::get_u64(&mut src)?,
            }),
            TAG_BCAST => Ok(Message::Broadcast {
                app: get_app(&mut src)?,
                request: RequestId(wire::get_u64(&mut src)?),
                tree: TreeId(wire::get_u32(&mut src)?),
                payload: wire::get_bytes(&mut src)?,
            }),
            t => Err(NetError::Corrupt(format!("unknown message tag {t}"))),
        }
    }
}

fn get_app(src: &mut Bytes) -> Result<AppId, NetError> {
    if src.len() < 2 {
        return Err(NetError::Corrupt("missing app id".into()));
    }
    let hi = wire::get_u8(src)? as u16;
    let lo = wire::get_u8(src)? as u16;
    Ok(AppId((hi << 8) | lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let b = m.encode();
        let d = Message::decode(b).unwrap();
        assert_eq!(m, d);
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(Message::Data {
            app: AppId(513),
            request: RequestId(u64::MAX - 5),
            tree: TreeId(3),
            source: SourceId::Worker(17),
            seq: 42,
            last: true,
            ctx: TraceCtx {
                trace_id: 0x8000_0000_0000_0007,
                parent_span_id: 19,
            },
            sent_ns: 123_456_789,
            payload: Bytes::from_static(b"partial result bytes"),
        });
        roundtrip(Message::Data {
            app: AppId(0),
            request: RequestId(0),
            tree: TreeId(0),
            source: SourceId::Box(9),
            seq: 0,
            last: false,
            ctx: TraceCtx::NONE,
            sent_ns: 0,
            payload: Bytes::new(),
        });
    }

    #[test]
    fn meta_roundtrip() {
        roundtrip(Message::RequestMeta {
            app: AppId(7),
            request: RequestId(1),
            tree: TreeId(0),
            sources: vec![SourceId::Worker(3), SourceId::Box(1), SourceId::Worker(12)],
            ctx: TraceCtx {
                trace_id: 0x8000_0000_0000_0001,
                parent_span_id: 0x8000_0000_0000_0001,
            },
        });
        roundtrip(Message::RequestMeta {
            app: AppId(7),
            request: RequestId(2),
            tree: TreeId(1),
            sources: Vec::new(),
            ctx: TraceCtx::NONE,
        });
    }

    /// A source count one past what the remaining bytes can hold is
    /// rejected before anything is reserved for it.
    #[test]
    fn meta_source_count_is_bounded_by_the_frame() {
        let header = Message::RequestMeta {
            app: AppId(7),
            request: RequestId(1),
            tree: TreeId(0),
            sources: Vec::new(),
            ctx: TraceCtx::NONE,
        }
        .encode();
        // 23 bytes of sources: room for four whole ones (and for 23 under
        // the old one-byte-per-source bound).
        let tail = [0u8; 23];
        let frame = |count: u32| {
            let mut b = BytesMut::new();
            b.extend_from_slice(&header[..header.len() - 4]);
            b.put_u32(count);
            b.extend_from_slice(&tail);
            b.freeze()
        };
        let fits = (tail.len() / SourceId::WIRE_LEN) as u32;
        match Message::decode(frame(fits)) {
            Ok(Message::RequestMeta { sources, .. }) => assert_eq!(sources.len(), fits as usize),
            other => panic!("{fits} sources fit: {other:?}"),
        }
        for count in [fits + 1, tail.len() as u32, u32::MAX] {
            match Message::decode(frame(count)) {
                Err(NetError::Corrupt(why)) => assert!(why.contains("count too large"), "{why}"),
                other => panic!("count {count}: {other:?}"),
            }
        }
    }

    #[test]
    fn redirect_roundtrip() {
        roundtrip(Message::Redirect {
            app: AppId(7),
            permanent: true,
            request: RequestId(10),
            tree: TreeId(2),
            new_parent: 88,
        });
        roundtrip(Message::Redirect {
            app: AppId(7),
            permanent: false,
            request: RequestId(10),
            tree: TreeId(2),
            new_parent: 88,
        });
    }

    #[test]
    fn heartbeat_roundtrip() {
        roundtrip(Message::Heartbeat { from: 4, nonce: 99 });
        roundtrip(Message::HeartbeatAck { from: 4, nonce: 99 });
    }

    #[test]
    fn broadcast_roundtrip() {
        roundtrip(Message::Broadcast {
            app: AppId(3),
            request: RequestId(77),
            tree: TreeId(1),
            payload: Bytes::from_static(b"model parameters"),
        });
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Message::decode(Bytes::from_static(b"")).is_err());
        assert!(Message::decode(Bytes::from_static(&[99, 1, 2, 3])).is_err());
        // Truncated data message.
        let m = Message::Data {
            app: AppId(1),
            request: RequestId(2),
            tree: TreeId(3),
            source: SourceId::Worker(4),
            seq: 5,
            last: false,
            ctx: TraceCtx::NONE,
            sent_ns: 0,
            payload: Bytes::from_static(b"xyz"),
        };
        let enc = m.encode();
        let truncated = enc.slice(0..enc.len() - 2);
        assert!(Message::decode(truncated).is_err());
    }
}
