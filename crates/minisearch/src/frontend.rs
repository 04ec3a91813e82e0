//! Frontend (master): accepts client queries, fans sub-queries out to the
//! backends, collects the aggregated result through the master shim and
//! replies to the client.

use crate::backend::{backend_service_addr, SearchMsg};
use crate::score::{QueryMode, SearchResults};
use bytes::Bytes;
use netagg_core::lifecycle::{serve, CancelToken, JoinScope, DEFAULT_JOIN_DEADLINE};
use netagg_core::protocol::AppId;
use netagg_core::shim::MasterShim;
use netagg_core::tree::service_addr;
use netagg_core::AggError;
use netagg_net::{Connection, NetError, NodeId, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Index of the frontend's client-facing listener in the service space
/// (backends use their worker ids; this is above any worker id).
const FRONTEND_SERVICE_IDX: u32 = 9_999;

/// Address clients connect to.
pub fn frontend_service_addr(app: AppId) -> NodeId {
    service_addr(app, FRONTEND_SERVICE_IDX)
}

/// Frontend configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Top-k each backend returns.
    pub backend_k: u32,
    /// Per-request timeout.
    pub timeout: Duration,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            backend_k: 100,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Frontend counters.
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// Queries answered end-to-end.
    pub queries_completed: AtomicU64,
    /// Queries that timed out or failed.
    pub queries_failed: AtomicU64,
    /// Combined-result bytes delivered.
    pub result_bytes: AtomicU64,
}

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

struct Inner {
    /// Unique per frontend instance; distinguishes connection caches when
    /// several clusters share one process (tests, benches).
    instance: u64,
    app: AppId,
    cfg: FrontendConfig,
    transport: Arc<dyn Transport>,
    master: Arc<MasterShim>,
    backend_workers: Vec<u32>,
    stats: FrontendStats,
    next_request: AtomicU64,
    cancel: CancelToken,
}

/// A running frontend.
pub struct Frontend {
    inner: Arc<Inner>,
    scope: Arc<JoinScope>,
}

impl Frontend {
    /// Bind the client-facing listener and start serving.
    pub fn start(
        transport: Arc<dyn Transport>,
        app: AppId,
        master: Arc<MasterShim>,
        backend_workers: Vec<u32>,
        cfg: FrontendConfig,
    ) -> Result<Arc<Self>, NetError> {
        let listener = transport.bind(frontend_service_addr(app))?;
        let cancel = CancelToken::new();
        let inner = Arc::new(Inner {
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            app,
            cfg,
            transport,
            master,
            backend_workers,
            stats: FrontendStats::default(),
            next_request: AtomicU64::new(1),
            cancel: cancel.clone(),
        });
        let scope = Arc::new(JoinScope::new(
            format!("frontend-{}", app.0),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
        ));
        {
            let inner = inner.clone();
            serve(
                &scope,
                listener,
                format!("frontend-{}", app.0),
                format!("frontend-{}-client", app.0),
                move |conn| serve_client(&inner, conn),
            )?;
        }
        Ok(Arc::new(Self { inner, scope }))
    }

    /// Counters exposed for the harness and tests.
    pub fn stats(&self) -> &FrontendStats {
        &self.inner.stats
    }

    /// Execute one query end-to-end on behalf of a caller in-process (used
    /// by tests and the harness when no client connection is needed).
    pub fn query(&self, terms: &[String]) -> Result<QueryOutcome, AggError> {
        execute(&self.inner, terms, QueryMode::Any)
    }

    /// Like [`Frontend::query`] with an explicit match mode.
    pub fn query_mode(&self, terms: &[String], mode: QueryMode) -> Result<QueryOutcome, AggError> {
        execute(&self.inner, terms, mode)
    }

    /// Stop serving, waking blocked accept/recv calls, and join the
    /// frontend's threads under the scope deadline. Idempotent.
    pub fn shutdown(&self) {
        self.inner.cancel.cancel();
        self.scope.finish();
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Result of one query as observed at the frontend.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The merged result list.
    pub results: SearchResults,
    /// End-to-end latency observed at the frontend.
    pub latency: Duration,
    /// Bytes of the combined result delivered to the frontend.
    pub result_bytes: usize,
}

fn execute(
    inner: &Arc<Inner>,
    terms: &[String],
    mode: QueryMode,
) -> Result<QueryOutcome, AggError> {
    let request = inner.next_request.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    let pending = inner
        .master
        .register_request(request, inner.backend_workers.len());
    let q = SearchMsg::Query {
        request,
        terms: terms.to_vec(),
        k: inner.cfg.backend_k,
        mode,
    };
    // Fan the sub-queries out (fresh connections per request would be
    // wasteful; the frontend keeps one connection per backend per calling
    // thread via thread-local caching below).
    BACKEND_CONNS.with(|cache| -> Result<(), AggError> {
        let mut cache = cache.borrow_mut();
        for &w in &inner.backend_workers {
            let addr = backend_service_addr(inner.app, w);
            let key = (inner.instance, w);
            let conn = match cache.get_mut(&key) {
                Some(c) => c,
                None => {
                    let c = inner
                        .transport
                        .connect(frontend_service_addr(inner.app), addr)
                        .map_err(AggError::from)?;
                    cache.entry(key).or_insert(c)
                }
            };
            conn.send(q.encode()).map_err(AggError::from)?;
        }
        Ok(())
    })?;
    let result = pending.wait(inner.cfg.timeout);
    match result {
        Ok(agg) => {
            inner
                .stats
                .queries_completed
                .fetch_add(1, Ordering::Relaxed);
            inner
                .stats
                .result_bytes
                .fetch_add(agg.combined.len() as u64, Ordering::Relaxed);
            Ok(QueryOutcome {
                result_bytes: agg.combined.len(),
                results: SearchResults::decode(&agg.combined)?,
                latency: t0.elapsed(),
            })
        }
        Err(e) => {
            inner.stats.queries_failed.fetch_add(1, Ordering::Relaxed);
            Err(e)
        }
    }
}

thread_local! {
    static BACKEND_CONNS: std::cell::RefCell<std::collections::HashMap<(u64, u32), Box<dyn Connection>>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

fn serve_client(inner: &Arc<Inner>, mut conn: Box<dyn Connection>) {
    // Until cancelled or the client is gone.
    while let Ok(frame) = conn.recv_cancellable(&inner.cancel) {
        let Ok(SearchMsg::Query {
            request,
            terms,
            mode,
            ..
        }) = SearchMsg::decode(frame)
        else {
            continue;
        };
        let reply = match execute(inner, &terms, mode) {
            Ok(outcome) => SearchMsg::Reply {
                request,
                payload: outcome.results.encode(),
            },
            Err(_) => SearchMsg::Reply {
                request,
                payload: Bytes::new(),
            },
        };
        if conn.send(reply.encode()).is_err() {
            return;
        }
    }
}

/// A load-generating client: connects to the frontend and issues random
/// three-word queries (Section 4.2.1), measuring latency.
pub struct Client {
    conn: Box<dyn Connection>,
    rng: StdRng,
    vocabulary: usize,
    next_request: u64,
}

impl Client {
    /// Connect a load-generating client to the frontend.
    pub fn connect(
        transport: &Arc<dyn Transport>,
        app: AppId,
        client_id: u32,
        vocabulary: usize,
    ) -> Result<Self, NetError> {
        let conn = transport.connect(
            netagg_core::tree::client_addr(app, client_id),
            frontend_service_addr(app),
        )?;
        Ok(Self {
            conn,
            rng: StdRng::seed_from_u64(client_id as u64),
            vocabulary,
            next_request: (client_id as u64) << 32,
        })
    }

    /// Issue one random three-word query; returns (result payload bytes,
    /// latency).
    pub fn query_once(&mut self, timeout: Duration) -> Result<(usize, Duration), NetError> {
        use rand::Rng;
        let terms: Vec<String> = (0..3)
            .map(|_| crate::corpus::word(self.rng.random_range(0..self.vocabulary)))
            .collect();
        self.next_request += 1;
        let q = SearchMsg::Query {
            request: self.next_request,
            terms,
            k: 100,
            mode: QueryMode::Any,
        };
        let t0 = Instant::now();
        self.conn.send(q.encode())?;
        let frame = self.conn.recv_timeout(timeout)?;
        let latency = t0.elapsed();
        match SearchMsg::decode(frame)? {
            SearchMsg::Reply { payload, .. } => Ok((payload.len(), latency)),
            _ => Err(NetError::Corrupt("expected reply".into())),
        }
    }
}
