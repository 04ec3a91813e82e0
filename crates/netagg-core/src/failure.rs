//! Failure detection and recovery (Section 3.1, "Handling failures").
//!
//! A lightweight detector runs at every node that is the *parent* of agg
//! boxes in a tree (other boxes and the master shim). It periodically
//! heartbeats its child boxes; after `misses` consecutive unanswered
//! probes a child is declared failed, its children (workers or further
//! boxes) are told to redirect future partial results to the detecting
//! node, and the owner is notified so it adjusts the sources it expects.
//! Duplicate suppression at the new parent (sequence numbers per source)
//! keeps resent results from being double-counted.

use crate::conn_cache::ConnCache;
use crate::lifecycle::{CancelToken, JoinScope, DEFAULT_JOIN_DEADLINE};
use crate::protocol::{AppId, Message, RequestId, TreeId};
use netagg_net::{NetError, NodeId, Transport};
use netagg_obs::{names, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Detector timing parameters.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Probe interval.
    pub interval: Duration,
    /// How long to wait for a heartbeat ack.
    pub timeout: Duration,
    /// Consecutive misses before declaring failure.
    pub misses: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(100),
            timeout: Duration::from_millis(100),
            misses: 3,
        }
    }
}

/// A child box watched by the detector.
#[derive(Debug, Clone)]
pub struct WatchedChild {
    /// Global id of the watched box.
    pub box_id: u32,
    /// Its transport address.
    pub addr: NodeId,
    /// Addresses of the box's children, to be re-pointed on failure.
    pub children_addrs: Vec<NodeId>,
    /// Trees (per application) the box serves under this parent.
    pub apps_trees: Vec<(AppId, TreeId)>,
}

/// A shared, mutable set of children one detector probes. Clones are
/// cheap and refer to the same set, so recovery logic can *adopt* the
/// children of a failed box into a running detector: after a re-point,
/// the new watches make a later failure of an orphaned subtree box
/// (double-kill chains) detectable too.
#[derive(Clone, Default)]
pub struct WatchSet {
    children: Arc<Mutex<Vec<WatchedChild>>>,
}

impl WatchSet {
    /// Add a watched child. Entries for an already-watched box merge
    /// their (app, tree) pairs and child addresses instead of
    /// duplicating: the detector tracks liveness per box id, and a
    /// duplicate entry would stop being probed (and re-pointed) the
    /// moment the first one fires.
    pub fn add(&self, child: WatchedChild) {
        let mut v = self.children.lock();
        if let Some(e) = v.iter_mut().find(|e| e.box_id == child.box_id) {
            for at in child.apps_trees {
                if !e.apps_trees.contains(&at) {
                    e.apps_trees.push(at);
                }
            }
            for a in child.children_addrs {
                if !e.children_addrs.contains(&a) {
                    e.children_addrs.push(a);
                }
            }
            return;
        }
        v.push(child);
    }

    /// Whether no children are watched.
    pub fn is_empty(&self) -> bool {
        self.children.lock().is_empty()
    }

    fn snapshot(&self) -> Vec<WatchedChild> {
        self.children.lock().clone()
    }
}

/// A running failure detector.
pub struct FailureDetector {
    scope: JoinScope,
}

impl FailureDetector {
    /// Start probing the live set `children` from `self_addr`; children
    /// added to the set while the detector runs are picked up on the next
    /// probe round (recovery logic uses this to adopt the children of a
    /// failed box). On a confirmed failure, `on_failed(box_id)` is invoked
    /// once so the owner can adjust its expected sources, then permanent
    /// redirects point the failed box's children at `self_addr`.
    /// `failure.detections` / `failure.repoints` metrics and `failure`
    /// events go to `obs`.
    pub fn start(
        transport: Arc<dyn Transport>,
        self_addr: NodeId,
        children: WatchSet,
        cfg: DetectorConfig,
        on_failed: Box<dyn Fn(u32) + Send>,
        obs: MetricsRegistry,
    ) -> Self {
        let cancel = CancelToken::new();
        let scope = JoinScope::with_obs(
            format!("failure-detector-{self_addr}"),
            cancel.clone(),
            DEFAULT_JOIN_DEADLINE,
            Some(&obs),
        );
        scope
            .spawn(format!("failure-detector-{self_addr}"), move || {
                let conns = ConnCache::new(transport, self_addr);
                detector_loop(&conns, self_addr, children, &cfg, on_failed, &cancel, &obs)
            })
            .expect("spawn failure detector");
        Self { scope }
    }

    /// Stop probing: cancel the token (ending the current inter-probe
    /// sleep immediately) and join the detector thread. Idempotent.
    pub fn stop(&mut self) {
        self.scope.finish();
    }
}

impl Drop for FailureDetector {
    fn drop(&mut self) {
        self.stop();
    }
}

fn detector_loop(
    conns: &ConnCache,
    self_addr: NodeId,
    children: WatchSet,
    cfg: &DetectorConfig,
    on_failed: Box<dyn Fn(u32) + Send>,
    cancel: &CancelToken,
    obs: &MetricsRegistry,
) {
    let mut miss_count: HashMap<u32, u32> = HashMap::new();
    let mut failed: HashSet<u32> = HashSet::new();
    let mut nonce = 0u64;
    // Interruptible inter-probe sleep: stop() ends it immediately.
    while !cancel.wait_timeout(cfg.interval) {
        // Snapshot per round: `on_failed` may adopt the failed box's
        // children into the set mid-round.
        for child in children.snapshot() {
            if failed.contains(&child.box_id) {
                continue;
            }
            nonce += 1;
            if probe(conns, self_addr, child.addr, nonce, cfg.timeout) {
                miss_count.insert(child.box_id, 0);
                continue;
            }
            let m = miss_count.entry(child.box_id).or_insert(0);
            *m += 1;
            if *m < cfg.misses {
                continue;
            }
            // Declare failure. Accounting first, data movement second:
            // `on_failed` re-points the owner's fan-in ledgers *before*
            // the redirects trigger worker replays, so a replayed chunk
            // can never race the expected-source update (the seed bug).
            failed.insert(child.box_id);
            obs.counter(names::FAILURE_DETECTIONS).inc();
            obs.emit(
                names::EVENT_FAILURE,
                format!(
                    "detector at {} declared box {} (addr {}) failed after {} missed probes",
                    self_addr, child.box_id, child.addr, cfg.misses
                ),
            );
            on_failed(child.box_id);
            for &(app, tree) in &child.apps_trees {
                let msg = Message::Redirect {
                    app,
                    permanent: true,
                    request: RequestId(0),
                    tree,
                    new_parent: self_addr,
                };
                for &grandchild in &child.children_addrs {
                    if conns.send_to(grandchild, msg.encode()).is_ok() {
                        obs.counter(names::FAILURE_REPOINTS).inc();
                    }
                }
            }
        }
    }
}

/// One heartbeat round trip: send, then wait on the same connection for
/// the matching ack (tolerating unrelated frames) until `timeout`. The
/// cache is this thread's own, so holding it across the wait stalls nobody;
/// any failure evicts the connection and the next probe redials.
fn probe(conns: &ConnCache, from: NodeId, child: NodeId, nonce: u64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let hb = Message::Heartbeat { from, nonce }.encode();
    let acked = conns.send_then(child, hb, |conn| loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NetError::Timeout);
        }
        let frame = conn.recv_timeout(left)?;
        if let Ok(Message::HeartbeatAck { nonce: n, .. }) = Message::decode(frame) {
            if n == nonce {
                return Ok(());
            }
        }
    });
    acked.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggbox::{AggBox, AggBoxConfig};
    use netagg_net::{ChannelTransport, FaultController, FaultTransport};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A watch set holding box 0 at `addr`, with nothing behind it.
    fn watching(addr: NodeId) -> WatchSet {
        let set = WatchSet::default();
        set.add(WatchedChild {
            box_id: 0,
            addr,
            children_addrs: vec![],
            apps_trees: vec![],
        });
        set
    }

    #[test]
    fn healthy_child_is_not_declared_failed() {
        let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
        let b = AggBox::start(
            transport.clone(),
            AggBoxConfig::new(0, crate::tree::box_addr(0)),
        )
        .unwrap();
        let failed = Arc::new(AtomicU32::new(0));
        let f2 = failed.clone();
        let mut det = FailureDetector::start(
            transport,
            999,
            watching(b.addr()),
            DetectorConfig {
                interval: Duration::from_millis(20),
                timeout: Duration::from_millis(100),
                misses: 2,
            },
            Box::new(move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
            }),
            MetricsRegistry::new(),
        );
        std::thread::sleep(Duration::from_millis(300));
        det.stop();
        assert_eq!(failed.load(Ordering::SeqCst), 0);
        b.shutdown();
    }

    #[test]
    fn dead_child_triggers_failure_callback() {
        let ctl = FaultController::new();
        let transport: Arc<dyn Transport> =
            Arc::new(FaultTransport::new(ChannelTransport::new(), ctl.clone()));
        let b = AggBox::start(
            transport.clone(),
            AggBoxConfig::new(0, crate::tree::box_addr(0)),
        )
        .unwrap();
        let failed = Arc::new(AtomicU32::new(0));
        let f2 = failed.clone();
        let mut det = FailureDetector::start(
            transport,
            999,
            watching(b.addr()),
            DetectorConfig {
                interval: Duration::from_millis(20),
                timeout: Duration::from_millis(60),
                misses: 2,
            },
            Box::new(move |id| {
                assert_eq!(id, 0);
                f2.fetch_add(1, Ordering::SeqCst);
            }),
            MetricsRegistry::new(),
        );
        std::thread::sleep(Duration::from_millis(150));
        ctl.kill(b.addr());
        std::thread::sleep(Duration::from_millis(500));
        det.stop();
        assert_eq!(
            failed.load(Ordering::SeqCst),
            1,
            "exactly one failure event"
        );
        ctl.revive(b.addr());
        b.shutdown();
    }
}
