//! Backend (index server): serves sub-queries over one index shard and
//! returns partial results through its worker shim (which redirects them
//! to the first on-path agg box, or straight to the frontend when no boxes
//! are deployed).

use crate::index::{GlobalStats, InvertedIndex};
use crate::score::{self, QueryMode};
use bytes::{BufMut, Bytes, BytesMut};
use netagg_core::lifecycle::{CancelToken, JoinScope, DEFAULT_JOIN_DEADLINE};
use netagg_core::protocol::AppId;
use netagg_core::shim::WorkerShim;
use netagg_core::tree::service_addr;
use netagg_net::{wire, Connection, NetError, NodeId, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Application-level messages of the search protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchMsg {
    /// client -> frontend and frontend -> backend.
    Query {
        /// Request identifier (chosen by the client/frontend).
        request: u64,
        /// Query terms.
        terms: Vec<String>,
        /// Top-k to return per backend.
        k: u32,
        /// Disjunctive or conjunctive matching.
        mode: QueryMode,
    },
    /// frontend -> client: the final merged result.
    Reply {
        /// Echo of the query's request id.
        request: u64,
        /// Serialised [`crate::score::SearchResults`].
        payload: Bytes,
    },
}

impl SearchMsg {
    /// Serialise to the wire format.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            SearchMsg::Query {
                request,
                terms,
                k,
                mode,
            } => {
                b.put_u8(1);
                b.put_u64(*request);
                b.put_u32(*k);
                b.put_u8(mode.to_byte());
                b.put_u32(terms.len() as u32);
                for t in terms {
                    wire::put_str(&mut b, t);
                }
            }
            SearchMsg::Reply { request, payload } => {
                b.put_u8(2);
                b.put_u64(*request);
                wire::put_bytes(&mut b, payload);
            }
        }
        b.freeze()
    }

    /// Parse the wire format, validating counts before allocating.
    pub fn decode(frame: Bytes) -> Result<Self, NetError> {
        let mut src = frame;
        match wire::get_u8(&mut src)? {
            1 => {
                let request = wire::get_u64(&mut src)?;
                let k = wire::get_u32(&mut src)?;
                let mode = QueryMode::from_byte(wire::get_u8(&mut src)?);
                let n = wire::get_u32(&mut src)?;
                // Each term costs at least its 4-byte length prefix; reject
                // counts the remaining bytes cannot possibly hold.
                if (n as usize).saturating_mul(4) > src.len() {
                    return Err(NetError::Corrupt(format!("claimed {n} terms")));
                }
                let mut terms = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    terms.push(wire::get_str(&mut src)?);
                }
                Ok(SearchMsg::Query {
                    request,
                    terms,
                    k,
                    mode,
                })
            }
            2 => Ok(SearchMsg::Reply {
                request: wire::get_u64(&mut src)?,
                payload: wire::get_bytes(&mut src)?,
            }),
            t => Err(NetError::Corrupt(format!("bad search msg tag {t}"))),
        }
    }
}

/// Address of backend `w`'s query listener.
pub fn backend_service_addr(app: AppId, worker: u32) -> NodeId {
    service_addr(app, worker)
}

/// Per-backend counters.
#[derive(Debug, Default)]
pub struct BackendStats {
    /// Sub-queries answered.
    pub queries_served: AtomicU64,
    /// Serialised partial-result bytes produced.
    pub result_bytes: AtomicU64,
}

/// A running backend.
pub struct Backend {
    stats: Arc<BackendStats>,
    cancel: CancelToken,
    scope: Arc<JoinScope>,
}

impl Backend {
    /// Start serving queries against `index`; partial results leave through
    /// `shim`.
    pub fn start(
        transport: Arc<dyn Transport>,
        app: AppId,
        worker: u32,
        index: Arc<InvertedIndex>,
        shim: Arc<WorkerShim>,
    ) -> Result<Self, NetError> {
        Self::start_with_stats(transport, app, worker, index, None, shim)
    }

    /// Start with corpus-global statistics so distributed scoring matches
    /// a single index exactly (distributed IDF).
    pub fn start_with_stats(
        transport: Arc<dyn Transport>,
        app: AppId,
        worker: u32,
        index: Arc<InvertedIndex>,
        global: Option<Arc<GlobalStats>>,
        shim: Arc<WorkerShim>,
    ) -> Result<Self, NetError> {
        let listener = transport.bind(backend_service_addr(app, worker))?;
        let stats = Arc::new(BackendStats::default());
        let cancel = CancelToken::new();
        let scope = Arc::new(JoinScope::new(
            format!("backend-{}-{}", app.0, worker),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
        ));
        let (st, serve_cancel) = (stats.clone(), cancel.clone());
        netagg_core::lifecycle::serve(
            &scope,
            listener,
            format!("backend-{}-{}", app.0, worker),
            format!("backend-{}-{}-serve", app.0, worker),
            move |conn| serve(conn, &index, global.as_deref(), &shim, &serve_cancel, &st),
        )?;
        Ok(Self {
            stats,
            cancel,
            scope,
        })
    }

    /// Counters exposed for the harness and tests.
    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    /// Stop serving, waking blocked accept/recv calls, and join the
    /// backend's threads under the scope deadline. Idempotent.
    pub fn shutdown(&mut self) {
        self.cancel.cancel();
        self.scope.finish();
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(
    mut conn: Box<dyn Connection>,
    index: &InvertedIndex,
    global: Option<&GlobalStats>,
    shim: &WorkerShim,
    cancel: &CancelToken,
    stats: &BackendStats,
) {
    // Until cancelled or the peer is gone.
    while let Ok(frame) = conn.recv_cancellable(cancel) {
        let Ok(SearchMsg::Query {
            request,
            terms,
            k,
            mode,
        }) = SearchMsg::decode(frame)
        else {
            continue;
        };
        let results = score::search_mode(index, global, &terms, k as usize, mode);
        stats.queries_served.fetch_add(1, Ordering::Relaxed);
        let payload = results.encode();
        stats
            .result_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        // The shim intercepts the "response" and redirects it on-path.
        let _ = shim.send_partial(request, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_msg_roundtrip() {
        let q = SearchMsg::Query {
            request: 99,
            terms: vec!["rust".into(), "netagg".into()],
            k: 10,
            mode: QueryMode::All,
        };
        assert_eq!(SearchMsg::decode(q.encode()).unwrap(), q);
        let r = SearchMsg::Reply {
            request: 99,
            payload: Bytes::from_static(b"result-bytes"),
        };
        assert_eq!(SearchMsg::decode(r.encode()).unwrap(), r);
    }

    #[test]
    fn search_msg_rejects_garbage() {
        assert!(SearchMsg::decode(Bytes::from_static(&[9, 9, 9])).is_err());
        assert!(SearchMsg::decode(Bytes::new()).is_err());
    }
}
