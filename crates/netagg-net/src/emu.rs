//! Emulated network: a transport whose endpoints have finite ingress and
//! egress link capacities.
//!
//! This reproduces the paper's testbed on one machine: servers get 1 Gbps
//! links, agg boxes 10 Gbps. A `bandwidth_scale` factor shrinks all rates
//! uniformly so experiments preserve every capacity *ratio* while running
//! quickly on CI hardware.

use crate::channel::ChannelTransport;
use crate::lifecycle::CancelToken;
use crate::ratelimit::TokenBucket;
use crate::transport::{Connection, Listener, NetError, NodeId, Transport};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone)]
struct Nic {
    egress: Arc<TokenBucket>,
    ingress: Arc<TokenBucket>,
}

/// Builder for [`EmuNet`].
pub struct EmuNetBuilder {
    endpoints: HashMap<NodeId, (f64, f64)>,
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
        self.endpoints.insert(node, (rate, rate));
        self
    }

    /// Materialise the emulated network over the in-process transport.
    pub fn build(self) -> EmuNet {
        self.build_over(Arc::new(ChannelTransport::new()))
    }

    /// Materialise the emulated network over any inner transport (e.g.
    /// real TCP loopback sockets with emulated link capacities on top).
    pub fn build_over(self, inner: Arc<dyn Transport>) -> EmuNet {
        let nics = self
            .endpoints
            .into_iter()
            .map(|(node, (eg, ing))| {
                (
                    node,
                    Nic {
                        egress: Arc::new(TokenBucket::for_link(eg * self.scale)),
                        ingress: Arc::new(TokenBucket::for_link(ing * self.scale)),
                    },
                )
            })
            .collect();
        EmuNet {
            inner,
            nics: Arc::new(RwLock::new(nics)),
        }
    }
}

/// A transport with emulated per-endpoint link capacities. Cheap to clone.
#[derive(Clone)]
pub struct EmuNet {
    inner: Arc<dyn Transport>,
    nics: Arc<RwLock<HashMap<NodeId, Nic>>>,
}

impl EmuNet {
    /// Builder for a new emulated network.
    pub fn builder() -> EmuNetBuilder {
        EmuNetBuilder::new()
    }

    /// Make `node` share the NIC (both token buckets) of `existing`,
    /// modelling several logical listeners on one physical server.
    pub fn alias(&self, node: NodeId, existing: NodeId) -> Result<(), NetError> {
        let nic = self.nic(existing)?;
        self.nics.write().insert(node, nic);
        Ok(())
    }

    fn nic(&self, node: NodeId) -> Result<Nic, NetError> {
        self.nics
            .read()
            .get(&node)
            .cloned()
            .ok_or(NetError::NotFound(node))
    }
}

impl Transport for EmuNet {
    fn bind(&self, local: NodeId) -> Result<Box<dyn Listener>, NetError> {
        self.nic(local)?; // endpoints must be declared
        let inner = self.inner.bind(local)?;
        Ok(Box::new(EmuListener {
            inner,
            net: self.clone(),
            local,
        }))
    }

    fn connect(&self, local: NodeId, peer: NodeId) -> Result<Box<dyn Connection>, NetError> {
        let local_nic = self.nic(local)?;
        let peer_nic = self.nic(peer)?;
        let inner = self.inner.connect(local, peer)?;
        Ok(Box::new(EmuConnection {
            inner,
            egress: local_nic.egress,
            peer_ingress: peer_nic.ingress,
        }))
    }

    fn attach_obs(&self, obs: &netagg_obs::MetricsRegistry) {
        self.inner.attach_obs(obs);
    }
}

struct EmuListener {
    inner: Box<dyn Listener>,
    net: EmuNet,
    local: NodeId,
}

impl EmuListener {
    fn wrap(&self, conn: Box<dyn Connection>) -> Result<Box<dyn Connection>, NetError> {
        let peer = conn.peer();
        let peer_nic = self.net.nic(peer)?;
        let local_nic = self.net.nic(self.local)?;
        Ok(Box::new(EmuConnection {
            inner: conn,
            egress: local_nic.egress,
            peer_ingress: peer_nic.ingress,
        }))
    }
}

impl Listener for EmuListener {
    fn accept(&mut self) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept()?;
        self.wrap(c)
    }

    fn accept_timeout(&mut self, timeout: Duration) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept_timeout(timeout)?;
        self.wrap(c)
    }

    fn accept_cancellable(
        &mut self,
        cancel: &CancelToken,
    ) -> Result<Box<dyn Connection>, NetError> {
        let c = self.inner.accept_cancellable(cancel)?;
        self.wrap(c)
    }
}

struct EmuConnection {
    inner: Box<dyn Connection>,
    egress: Arc<TokenBucket>,
    peer_ingress: Arc<TokenBucket>,
}

impl Connection for EmuConnection {
    fn send(&mut self, payload: Bytes) -> Result<(), NetError> {
        // Sending a message serialises it through the local egress link and
        // the peer's ingress link; both charge before delivery, so
        // many-to-one senders contend on the receiver's NIC (incast).
        let n = payload.len() as f64;
        self.egress.acquire(n);
        self.peer_ingress.acquire(n);
        self.inner.send(payload)
    }

    fn recv(&mut self) -> Result<Bytes, NetError> {
        self.inner.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Bytes, NetError> {
        self.inner.recv_timeout(timeout)
    }

    fn recv_cancellable(&mut self, cancel: &CancelToken) -> Result<Bytes, NetError> {
        self.inner.recv_cancellable(cancel)
    }

    fn peer(&self) -> NodeId {
        self.inner.peer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    /// 1 "Gbps" scaled down for test speed: 1 MB/s.
    const EDGE: f64 = 125e6;
    const SCALE: f64 = 1e-2; // -> 1.25 MB/s

    fn two_node_net() -> EmuNet {
        EmuNet::builder()
            .bandwidth_scale(SCALE)
            .endpoint(1, EDGE)
            .endpoint(2, EDGE)
            .endpoint(3, EDGE * 10.0) // "10 Gbps" box
            .build()
    }

    #[test]
    fn transfer_takes_link_serialisation_time() {
        let net = two_node_net();
        let mut l = net.bind(1).unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness thread; the emulated link is what is under test"
        )]
        let h = thread::spawn({
            let net = net.clone();
            move || {
                let mut c = net.connect(2, 1).unwrap();
                let t0 = Instant::now();
                let chunk = Bytes::from(vec![0u8; 64 * 1024]);
                // 1 MB total over a 1.25 MB/s link: ~0.8 s.
                for _ in 0..16 {
                    c.send(chunk.clone()).unwrap();
                }
                t0.elapsed()
            }
        });
        let mut server = l.accept().unwrap();
        for _ in 0..16 {
            server.recv().unwrap();
        }
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
        #[expect(
            clippy::disallowed_methods,
            reason = "test fan-in senders; plain threads keep the timing honest"
        )]
        let senders: Vec<_> = [1u32, 2u32]
            .into_iter()
            .map(|id| {
                let net = net.clone();
                thread::spawn(move || {
                    let mut c = net.connect(id, 3).unwrap();
                    let chunk = Bytes::from(vec![0u8; 64 * 1024]);
                    let t0 = Instant::now();
                    for _ in 0..8 {
                        c.send(chunk.clone()).unwrap();
                    }
                    t0.elapsed()
                })
            })
            .collect();
        let mut conns = Vec::new();
        for _ in 0..2 {
            conns.push(l.accept().unwrap());
        }
        let mut handles = Vec::new();
        for mut c in conns {
            #[expect(
                clippy::disallowed_methods,
                reason = "test fan-in receivers; plain threads keep the timing honest"
            )]
            handles.push(thread::spawn(move || {
                for _ in 0..8 {
                    c.recv().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
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
        #[expect(
            clippy::disallowed_methods,
            reason = "test fan-in senders; plain threads keep the timing honest"
        )]
        let senders: Vec<_> = [1u32, 2]
            .into_iter()
            .map(|id| {
                let net = net.clone();
                thread::spawn(move || {
                    let mut c = net.connect(id, 9).unwrap();
                    let chunk = Bytes::from(vec![0u8; 64 * 1024]);
                    for _ in 0..8 {
                        c.send(chunk.clone()).unwrap();
                    }
                })
            })
            .collect();
        let mut conns = Vec::new();
        for _ in 0..2 {
            conns.push(l.accept().unwrap());
        }
        let mut handles = Vec::new();
        for mut c in conns {
            #[expect(
                clippy::disallowed_methods,
                reason = "test fan-in receivers; plain threads keep the timing honest"
            )]
            handles.push(thread::spawn(move || {
                for _ in 0..8 {
                    c.recv().unwrap();
                }
            }));
        }
        for h in senders.into_iter().chain(handles) {
            h.join().unwrap();
        }
        // 1 MB total into a 1.25 MB/s ingress: >= ~0.6 s.
        assert!(t0.elapsed().as_secs_f64() > 0.5, "{:?}", t0.elapsed());
    }

    #[test]
    fn aliased_endpoints_share_the_nic() {
        let net = two_node_net();
        net.alias(100, 1).unwrap();
        let mut l = net.bind(100).unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness thread; the alias routing is what is under test"
        )]
        let h = thread::spawn({
            let net = net.clone();
            move || {
                let mut c = net.connect(2, 100).unwrap();
                let t0 = Instant::now();
                let chunk = Bytes::from(vec![0u8; 64 * 1024]);
                for _ in 0..8 {
                    c.send(chunk.clone()).unwrap();
                }
                t0.elapsed()
            }
        });
        let mut server = l.accept().unwrap();
        for _ in 0..8 {
            server.recv().unwrap();
        }
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
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness thread; the TCP-backed emulation is under test"
        )]
        let h = thread::spawn({
            let net = net.clone();
            move || {
                let mut c = net.connect(2, 1).unwrap();
                let t0 = Instant::now();
                let chunk = Bytes::from(vec![0u8; 64 * 1024]);
                for _ in 0..8 {
                    c.send(chunk.clone()).unwrap();
                }
                t0.elapsed()
            }
        });
        let mut server = l.accept().unwrap();
        for _ in 0..8 {
            assert_eq!(server.recv().unwrap().len(), 64 * 1024);
        }
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
