//! Three-tier, multi-rooted data-centre topology.
//!
//! The fabric is a folded Clos modelled after the architectures the paper
//! cites (fat-tree, VL2): `pods` pods, each with `tors_per_pod` top-of-rack
//! switches and `aggs_per_pod` aggregation switches; every ToR connects to
//! every aggregation switch of its pod; aggregation switch `j` of every pod
//! connects to the `j`-th group of core switches. Servers hang off ToRs.
//!
//! Over-subscription is applied at the ToR tier (as in the paper): the
//! aggregate uplink capacity of a ToR is `1/oversub` of its aggregate
//! downlink (server-facing) capacity. Tiers above the ToR are non-blocking
//! relative to the ToR uplinks.

use std::fmt;

/// Index of a node (server or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a *directed* link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// What a node is. Agg boxes are not topology nodes: they are attachment
/// points managed by [`crate::deployment::BoxPlacement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An edge server; `rack` is the index of its ToR switch among ToRs.
    Server {
        /// Rack (ToR) index the server hangs off.
        rack: u32,
    },
    /// Top-of-rack switch.
    Tor {
        /// Pod the switch belongs to.
        pod: u32,
        /// Index among the pod's ToRs.
        idx: u32,
    },
    /// Pod aggregation switch.
    AggSwitch {
        /// Pod the switch belongs to.
        pod: u32,
        /// Index among the pod's aggregation switches.
        idx: u32,
    },
    /// Core switch.
    CoreSwitch {
        /// Index within the core tier.
        idx: u32,
    },
}

/// Tier of a switch, ordered from the edge upwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// Top-of-rack tier (edge).
    Tor,
    /// Pod aggregation tier.
    Aggregation,
    /// Core tier.
    Core,
}

/// A directed link with a fixed capacity in bytes/s.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Transmitting end.
    pub src: NodeId,
    /// Receiving end.
    pub dst: NodeId,
    /// Capacity in bytes/s.
    pub capacity: f64,
}

/// One end of a flow: an edge server or an agg box attached to a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// An edge server.
    Server(NodeId),
    /// An agg box, identified by the switch it attaches to and its index
    /// among the boxes at that switch (for scale-out).
    AggBox {
        /// Switch the box attaches to.
        switch: NodeId,
        /// Slot among the boxes at that switch (scale-out).
        slot: u32,
    },
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Server(n) => write!(f, "server{}", n.0),
            Endpoint::AggBox { switch, slot } => write!(f, "box{}@sw{}", slot, switch.0),
        }
    }
}

/// Sizing and link-speed parameters of the fabric.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TopologyConfig {
    /// Number of pods.
    pub pods: u32,
    /// Top-of-rack switches per pod.
    pub tors_per_pod: u32,
    /// Servers attached to each ToR.
    pub servers_per_tor: u32,
    /// Aggregation switches per pod.
    pub aggs_per_pod: u32,
    /// Core switches; must be a multiple of `aggs_per_pod`.
    pub cores: u32,
    /// Server-to-ToR link capacity, bytes/s.
    pub edge_capacity: f64,
    /// Over-subscription factor at the ToR tier (1.0 = full bisection).
    pub oversub: f64,
}

impl TopologyConfig {
    /// Paper scale: 1 024 servers (16 pods x 4 ToRs x 16 servers),
    /// 1 Gbps edge links, 1:4 over-subscription.
    pub fn paper() -> Self {
        Self {
            pods: 16,
            tors_per_pod: 4,
            servers_per_tor: 16,
            aggs_per_pod: 4,
            cores: 16,
            edge_capacity: crate::GBPS,
            oversub: 4.0,
        }
    }

    /// 10x the paper's server count: 10 240 servers
    /// (32 pods x 10 ToRs x 32 servers), same 1 Gbps edge and 1:4
    /// over-subscription (the scale target of the scoped solver and the
    /// fabric of the benchmark's `sim-*` workloads).
    pub fn scale10x() -> Self {
        Self {
            pods: 32,
            tors_per_pod: 10,
            servers_per_tor: 32,
            aggs_per_pod: 8,
            cores: 32,
            edge_capacity: crate::GBPS,
            oversub: 4.0,
        }
    }

    /// 256 servers (8 pods x 2 ToRs x 16 servers); same capacity ratios.
    pub fn default_scale() -> Self {
        Self {
            pods: 8,
            tors_per_pod: 2,
            servers_per_tor: 16,
            aggs_per_pod: 2,
            cores: 4,
            edge_capacity: crate::GBPS,
            oversub: 4.0,
        }
    }

    /// 32 servers for fast unit tests.
    pub fn quick() -> Self {
        Self {
            pods: 2,
            tors_per_pod: 2,
            servers_per_tor: 8,
            aggs_per_pod: 2,
            cores: 2,
            edge_capacity: crate::GBPS,
            oversub: 4.0,
        }
    }

    /// Total servers in the fabric.
    pub fn num_servers(&self) -> u32 {
        self.pods * self.tors_per_pod * self.servers_per_tor
    }

    /// Total top-of-rack switches.
    pub fn num_tors(&self) -> u32 {
        self.pods * self.tors_per_pod
    }

    /// Total aggregation switches.
    pub fn num_agg_switches(&self) -> u32 {
        self.pods * self.aggs_per_pod
    }

    /// Total switches across all three tiers.
    pub fn num_switches(&self) -> u32 {
        self.num_tors() + self.num_agg_switches() + self.cores
    }

    /// Capacity of one ToR-to-aggregation uplink, derived from the
    /// over-subscription ratio.
    pub fn uplink_capacity(&self) -> f64 {
        self.servers_per_tor as f64 * self.edge_capacity / (self.aggs_per_pod as f64 * self.oversub)
    }

    /// Capacity of one aggregation-to-core link: sized so that the tier above
    /// the ToRs is non-blocking w.r.t. the ToR uplinks.
    pub fn core_link_capacity(&self) -> f64 {
        let cores_per_agg = self.cores / self.aggs_per_pod;
        self.uplink_capacity() * self.tors_per_pod as f64 / cores_per_agg as f64
    }
}

/// The built fabric: nodes, directed links and the index structures used by
/// [`crate::routing`].
#[derive(Debug, Clone)]
pub struct Topology {
    /// The sizing parameters the fabric was built from.
    pub config: TopologyConfig,
    /// Every node, indexed by [`NodeId`].
    pub nodes: Vec<NodeKind>,
    /// Every directed link, indexed by [`LinkId`].
    pub links: Vec<Link>,
    /// link (a, b) -> LinkId lookup, keyed by `(src, dst)`.
    link_index: std::collections::HashMap<(NodeId, NodeId), LinkId>,
    server_base: u32,
    tor_base: u32,
    agg_base: u32,
    core_base: u32,
}

impl Topology {
    /// Build the fabric from its sizing parameters.
    pub fn build(cfg: &TopologyConfig) -> Self {
        assert!(cfg.pods > 0 && cfg.tors_per_pod > 0 && cfg.servers_per_tor > 0);
        assert!(
            cfg.cores.is_multiple_of(cfg.aggs_per_pod),
            "cores must be a multiple of aggs_per_pod for the grouped core wiring"
        );
        let mut nodes = Vec::new();

        let server_base = 0u32;
        for p in 0..cfg.pods {
            for t in 0..cfg.tors_per_pod {
                let rack = p * cfg.tors_per_pod + t;
                for _ in 0..cfg.servers_per_tor {
                    nodes.push(NodeKind::Server { rack });
                }
            }
        }
        let tor_base = nodes.len() as u32;
        for p in 0..cfg.pods {
            for t in 0..cfg.tors_per_pod {
                nodes.push(NodeKind::Tor { pod: p, idx: t });
            }
        }
        let agg_base = nodes.len() as u32;
        for p in 0..cfg.pods {
            for a in 0..cfg.aggs_per_pod {
                nodes.push(NodeKind::AggSwitch { pod: p, idx: a });
            }
        }
        let core_base = nodes.len() as u32;
        for c in 0..cfg.cores {
            nodes.push(NodeKind::CoreSwitch { idx: c });
        }

        let mut topo = Self {
            config: cfg.clone(),
            nodes,
            links: Vec::new(),
            link_index: std::collections::HashMap::new(),
            server_base,
            tor_base,
            agg_base,
            core_base,
        };

        // Server <-> ToR links.
        for s in 0..cfg.num_servers() {
            let server = NodeId(server_base + s);
            let tor = topo.tor_of_server(server);
            topo.add_duplex(server, tor, cfg.edge_capacity);
        }
        // ToR <-> aggregation links (full mesh within a pod).
        let uplink = cfg.uplink_capacity();
        for p in 0..cfg.pods {
            for t in 0..cfg.tors_per_pod {
                let tor = NodeId(tor_base + p * cfg.tors_per_pod + t);
                for a in 0..cfg.aggs_per_pod {
                    let agg = NodeId(agg_base + p * cfg.aggs_per_pod + a);
                    topo.add_duplex(tor, agg, uplink);
                }
            }
        }
        // Aggregation <-> core links: agg switch `a` of each pod connects to
        // core group `a` (cores [a*g, (a+1)*g) with g = cores / aggs_per_pod).
        let core_cap = cfg.core_link_capacity();
        let group = cfg.cores / cfg.aggs_per_pod;
        for p in 0..cfg.pods {
            for a in 0..cfg.aggs_per_pod {
                let agg = NodeId(agg_base + p * cfg.aggs_per_pod + a);
                for g in 0..group {
                    let core = NodeId(core_base + a * group + g);
                    topo.add_duplex(agg, core, core_cap);
                }
            }
        }
        topo
    }

    fn add_duplex(&mut self, a: NodeId, b: NodeId, capacity: f64) {
        for (src, dst) in [(a, b), (b, a)] {
            let id = LinkId(self.links.len() as u32);
            self.links.push(Link { src, dst, capacity });
            self.link_index.insert((src, dst), id);
        }
    }

    /// Directed link from `src` to `dst`; panics if the pair is not adjacent.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> LinkId {
        *self
            .link_index
            .get(&(src, dst))
            .unwrap_or_else(|| panic!("no link {}->{}", src.0, dst.0))
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// What node `n` is.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0 as usize]
    }

    /// Whether `n` is an edge server.
    pub fn is_server(&self, n: NodeId) -> bool {
        matches!(self.kind(n), NodeKind::Server { .. })
    }

    /// Iterate over all server node ids.
    pub fn servers(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.config.num_servers()).map(move |i| NodeId(self.server_base + i))
    }

    /// Node id of server `idx` (0-based).
    pub fn server(&self, idx: u32) -> NodeId {
        debug_assert!(idx < self.config.num_servers());
        NodeId(self.server_base + idx)
    }

    /// Node id of the ToR switch of `rack`.
    pub fn tor(&self, rack: u32) -> NodeId {
        debug_assert!(rack < self.config.num_tors());
        NodeId(self.tor_base + rack)
    }

    /// Node id of aggregation switch `idx` in `pod`.
    pub fn agg_switch(&self, pod: u32, idx: u32) -> NodeId {
        NodeId(self.agg_base + pod * self.config.aggs_per_pod + idx)
    }

    /// Node id of core switch `idx`.
    pub fn core_switch(&self, idx: u32) -> NodeId {
        NodeId(self.core_base + idx)
    }

    /// The ToR switch a server hangs off.
    pub fn tor_of_server(&self, s: NodeId) -> NodeId {
        match self.kind(s) {
            NodeKind::Server { rack } => NodeId(self.tor_base + rack),
            k => panic!("tor_of_server on non-server {k:?}"),
        }
    }

    /// The rack index of a server.
    pub fn rack_of_server(&self, s: NodeId) -> u32 {
        match self.kind(s) {
            NodeKind::Server { rack } => rack,
            k => panic!("rack_of_server on non-server {k:?}"),
        }
    }

    /// The pod a rack belongs to.
    pub fn pod_of_rack(&self, rack: u32) -> u32 {
        rack / self.config.tors_per_pod
    }

    /// Tier of a switch node; panics on servers.
    pub fn tier(&self, n: NodeId) -> Tier {
        match self.kind(n) {
            NodeKind::Tor { .. } => Tier::Tor,
            NodeKind::AggSwitch { .. } => Tier::Aggregation,
            NodeKind::CoreSwitch { .. } => Tier::Core,
            NodeKind::Server { .. } => panic!("tier of server"),
        }
    }

    /// All switches of a given tier.
    pub fn switches(&self, tier: Tier) -> Vec<NodeId> {
        match tier {
            Tier::Tor => (0..self.config.num_tors())
                .map(|i| NodeId(self.tor_base + i))
                .collect(),
            Tier::Aggregation => (0..self.config.num_agg_switches())
                .map(|i| NodeId(self.agg_base + i))
                .collect(),
            Tier::Core => (0..self.config.cores)
                .map(|i| NodeId(self.core_base + i))
                .collect(),
        }
    }

    /// All switches, ToR tier first.
    pub fn all_switches(&self) -> Vec<NodeId> {
        let mut v = self.switches(Tier::Tor);
        v.extend(self.switches(Tier::Aggregation));
        v.extend(self.switches(Tier::Core));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_dimensions() {
        let cfg = TopologyConfig::paper();
        let t = Topology::build(&cfg);
        assert_eq!(cfg.num_servers(), 1024);
        assert_eq!(cfg.num_tors(), 64);
        assert_eq!(cfg.num_agg_switches(), 64);
        assert_eq!(cfg.num_switches(), 144);
        assert_eq!(t.nodes.len(), 1024 + 144);
        // servers + tor-agg mesh + agg-core, duplex.
        let expected_links = 2 * (1024 + 64 * 4 + 64 * (16 / 4));
        assert_eq!(t.num_links(), expected_links);
    }

    #[test]
    fn scale10x_topology_dimensions() {
        let cfg = TopologyConfig::scale10x();
        let t = Topology::build(&cfg);
        assert_eq!(cfg.num_servers(), 10_240);
        assert_eq!(cfg.num_tors(), 320);
        assert_eq!(cfg.num_agg_switches(), 256);
        assert_eq!(cfg.num_switches(), 320 + 256 + 32);
        // servers + tor-agg mesh + agg-core, duplex.
        let expected_links = 2 * (10_240 + 320 * 8 + 256 * (32 / 8));
        assert_eq!(t.num_links(), expected_links);
        // Same capacity ratios as the paper fabric.
        let down = cfg.servers_per_tor as f64 * cfg.edge_capacity;
        let up = cfg.aggs_per_pod as f64 * cfg.uplink_capacity();
        assert!((down / up - cfg.oversub).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_ratio_holds() {
        let cfg = TopologyConfig::paper();
        let down = cfg.servers_per_tor as f64 * cfg.edge_capacity;
        let up = cfg.aggs_per_pod as f64 * cfg.uplink_capacity();
        assert!((down / up - cfg.oversub).abs() < 1e-9);
    }

    #[test]
    fn non_blocking_above_tor() {
        let cfg = TopologyConfig::paper();
        // Aggregate capacity into an agg switch from its ToRs equals the
        // aggregate capacity up to its cores.
        let from_tors = cfg.tors_per_pod as f64 * cfg.uplink_capacity();
        let to_cores = (cfg.cores / cfg.aggs_per_pod) as f64 * cfg.core_link_capacity();
        assert!((from_tors - to_cores).abs() < 1e-6);
    }

    #[test]
    fn server_rack_mapping_roundtrip() {
        let t = Topology::build(&TopologyConfig::quick());
        for s in t.servers() {
            let tor = t.tor_of_server(s);
            assert_eq!(t.tier(tor), Tier::Tor);
            let rack = t.rack_of_server(s);
            assert_eq!(t.tor(rack), tor);
        }
    }

    #[test]
    fn links_are_duplex_and_indexed() {
        let t = Topology::build(&TopologyConfig::quick());
        for l in &t.links {
            let fwd = t.link_between(l.src, l.dst);
            let rev = t.link_between(l.dst, l.src);
            assert_ne!(fwd, rev);
            assert!(t.links[rev.0 as usize].capacity == l.capacity);
        }
    }

    #[test]
    #[should_panic]
    fn no_link_between_servers() {
        let t = Topology::build(&TopologyConfig::quick());
        t.link_between(t.server(0), t.server(1));
    }
}
