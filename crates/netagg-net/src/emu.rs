//! Emulated network: a transport whose endpoints have finite ingress and
//! egress link capacities.
//!
//! This reproduces the paper's testbed on one machine: servers get 1 Gbps
//! links, agg boxes 10 Gbps. A `bandwidth_scale` factor shrinks all rates
//! uniformly so experiments preserve every capacity *ratio* while running
//! quickly on CI hardware.

use crate::channel::ChannelTransport;
use crate::interpose::{Interposed, Interposer};
use crate::ratelimit::TokenBucket;
use crate::transport::{NetError, NodeId, Transport};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone)]
struct Nic {
    egress: Arc<TokenBucket>,
    ingress: Arc<TokenBucket>,
}

/// Builder for [`EmuNet`].
pub struct EmuNetBuilder {
    endpoints: HashMap<NodeId, f64>,
    scale: f64,
}

impl Default for EmuNetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EmuNetBuilder {
    /// Start an empty builder at scale 1.0.
    pub fn new() -> Self {
        Self {
            endpoints: HashMap::new(),
            scale: 1.0,
        }
    }

    /// Scale every configured rate by `s` (e.g. `1e-2` to emulate a 1 Gbps
    /// link as 10 Mbps). Ratios between endpoints are preserved.
    pub fn bandwidth_scale(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.scale = s;
        self
    }

    /// Add an endpoint with symmetric link capacity in bytes/s.
    pub fn endpoint(mut self, node: NodeId, rate: f64) -> Self {
        self.endpoints.insert(node, rate);
        self
    }

    /// Materialise the emulated network over the in-process transport.
    pub fn build(self) -> EmuNet {
        self.build_over(Arc::new(ChannelTransport::new()))
    }

    /// Materialise the emulated network over any inner transport (e.g.
    /// real TCP loopback sockets with emulated link capacities on top).
    pub fn build_over(self, inner: Arc<dyn Transport>) -> EmuNet {
        let bucket = |rate: f64| Arc::new(TokenBucket::for_link(rate * self.scale));
        let nic = |rate| Nic {
            egress: bucket(rate),
            ingress: bucket(rate),
        };
        let nics = self.endpoints.iter().map(|(n, r)| (*n, nic(*r))).collect();
        EmuNet::over(inner, Nics(Arc::new(RwLock::new(nics))))
    }
}

/// The NIC table of an [`EmuNet`], shared by its clones.
#[derive(Clone)]
pub struct Nics(Arc<RwLock<HashMap<NodeId, Nic>>>);

/// A transport with emulated per-endpoint link capacities. Cheap to clone.
pub type EmuNet = Interposed<Nics>;

impl EmuNet {
    /// Builder for a new emulated network.
    pub fn builder() -> EmuNetBuilder {
        EmuNetBuilder::new()
    }

    /// Make `node` share the NIC (both token buckets) of `existing`,
    /// modelling several logical listeners on one physical server.
    pub fn alias(&self, node: NodeId, existing: NodeId) -> Result<(), NetError> {
        let nic = self.hook().nic(existing)?;
        self.hook().0.write().insert(node, nic);
        Ok(())
    }
}

impl Nics {
    fn nic(&self, node: NodeId) -> Result<Nic, NetError> {
        let nics = self.0.read();
        nics.get(&node).cloned().ok_or(NetError::NotFound(node))
    }
}

/// The two links a connection's sends are charged to.
pub struct EmuLink {
    egress: Arc<TokenBucket>,
    peer_ingress: Arc<TokenBucket>,
}

impl Interposer for Nics {
    type Link = EmuLink;

    /// Endpoints must be declared.
    fn admit(&self, local: NodeId, peer: Option<NodeId>) -> Result<(), NetError> {
        self.nic(local)?;
        peer.map_or(Ok(()), |p| self.nic(p).map(drop))
    }

    fn link(&self, local: NodeId, peer: NodeId) -> Result<EmuLink, NetError> {
        Ok(EmuLink {
            egress: self.nic(local)?.egress,
            peer_ingress: self.nic(peer)?.ingress,
        })
    }

    /// Sending a message serialises it through the local egress link and
    /// the peer's ingress link; both charge before delivery, so
    /// many-to-one senders contend on the receiver's NIC (incast).
    fn before_send(link: &mut EmuLink, len: usize) -> Result<(), NetError> {
        link.egress.acquire(len as f64);
        link.peer_ingress.acquire(len as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Listener;
    use bytes::Bytes;
    use std::thread::{self, JoinHandle};
    use std::time::{Duration, Instant};

    /// 1 "Gbps" scaled down for test speed: 1 MB/s.
    const EDGE: f64 = 125e6;
    const SCALE: f64 = 1e-2; // -> 1.25 MB/s
    const CHUNK: usize = 64 * 1024;

    fn two_node_net() -> EmuNet {
        EmuNet::builder()
            .bandwidth_scale(SCALE)
            .endpoint(1, EDGE)
            .endpoint(2, EDGE)
            .endpoint(3, EDGE * 10.0) // "10 Gbps" box
            .build()
    }

    /// Send `chunks` 64 KiB chunks from `from` to `to` on a thread of its
    /// own; the time the sends took.
    fn sender(net: &EmuNet, from: NodeId, to: NodeId, chunks: usize) -> JoinHandle<Duration> {
        let net = net.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "test sender; a plain thread keeps the timing honest"
        )]
        let h = thread::spawn(move || {
            let mut c = net.connect(from, to).unwrap();
            let chunk = Bytes::from(vec![0u8; CHUNK]);
            let t0 = Instant::now();
            for _ in 0..chunks {
                c.send(chunk.clone()).unwrap();
            }
            t0.elapsed()
        });
        h
    }

    /// Accept `conns` connections, then drain `chunks` chunks from each,
    /// all at once.
    fn drain(l: &mut dyn Listener, conns: usize, chunks: usize) {
        let accepted: Vec<_> = (0..conns).map(|_| l.accept().unwrap()).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "test fan-in receivers; scoped threads, joined before the asserts"
        )]
        thread::scope(|s| {
            for mut c in accepted {
                s.spawn(move || {
                    for _ in 0..chunks {
                        assert_eq!(c.recv().unwrap().len(), CHUNK);
                    }
                });
            }
        });
    }

    #[test]
    fn transfer_takes_link_serialisation_time() {
        let net = two_node_net();
        let mut l = net.bind(1).unwrap();
        // 1 MB total over a 1.25 MB/s link: ~0.8 s.
        let h = sender(&net, 2, 1, 16);
        drain(&mut *l, 1, 16);
        let elapsed = h.join().unwrap();
        assert!(
            elapsed.as_secs_f64() > 0.4,
            "1 MB over an emulated 1.25 MB/s link took only {elapsed:?}"
        );
    }

    #[test]
    fn fast_endpoint_is_not_limited_by_its_own_nic() {
        // Node 3 has 10x the capacity: sending to it is limited by the
        // sender's egress only, so two senders together get ~2x throughput.
        let net = two_node_net();
        let mut l = net.bind(3).unwrap();
        let senders = [sender(&net, 1, 3, 8), sender(&net, 2, 3, 8)];
        drain(&mut *l, 2, 8);
        for s in senders {
            let elapsed = s.join().unwrap().as_secs_f64();
            // 512 KB over 1.25 MB/s ~ 0.41 s; allow slack but require that
            // the two senders ran in parallel (not serialised to ~0.8 s).
            assert!(elapsed < 0.75, "sender took {elapsed}s: not parallel");
        }
    }

    #[test]
    fn incast_contends_on_receiver_ingress() {
        // Two 10x-fast senders into one slow receiver: aggregate limited by
        // the receiver's ingress.
        let net = EmuNet::builder()
            .bandwidth_scale(SCALE)
            .endpoint(1, EDGE * 10.0)
            .endpoint(2, EDGE * 10.0)
            .endpoint(9, EDGE)
            .build();
        let mut l = net.bind(9).unwrap();
        let t0 = Instant::now();
        let senders = [sender(&net, 1, 9, 8), sender(&net, 2, 9, 8)];
        drain(&mut *l, 2, 8);
        for s in senders {
            s.join().unwrap();
        }
        // 1 MB total into a 1.25 MB/s ingress: >= ~0.6 s.
        assert!(t0.elapsed().as_secs_f64() > 0.5, "{:?}", t0.elapsed());
    }

    #[test]
    fn aliased_endpoints_share_the_nic() {
        let net = two_node_net();
        net.alias(100, 1).unwrap();
        let mut l = net.bind(100).unwrap();
        let h = sender(&net, 2, 100, 8);
        drain(&mut *l, 1, 8);
        // 512 KB over endpoint 1's shared 1.25 MB/s ingress: not instant.
        assert!(h.join().unwrap().as_secs_f64() > 0.2);
        assert!(net.alias(101, 999).is_err());
    }

    #[test]
    fn emulation_composes_over_tcp() {
        // Emulated 1.25 MB/s links over REAL loopback sockets.
        let tcp: Arc<dyn Transport> = Arc::new(crate::tcp::TcpTransport::new());
        let net = EmuNet::builder()
            .bandwidth_scale(SCALE)
            .endpoint(1, EDGE)
            .endpoint(2, EDGE)
            .build_over(tcp);
        let mut l = net.bind(1).unwrap();
        let h = sender(&net, 2, 1, 8);
        drain(&mut *l, 1, 8);
        // 512 KB over 1.25 MB/s: rate limiting applies on top of TCP.
        assert!(h.join().unwrap().as_secs_f64() > 0.25);
    }

    #[test]
    fn undeclared_endpoint_is_rejected() {
        let net = two_node_net();
        assert!(matches!(net.bind(42), Err(NetError::NotFound(42))));
        assert!(net.connect(1, 42).is_err());
    }
}
