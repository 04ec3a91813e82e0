//! ECMP routing over the three-tier fabric.
//!
//! Routes are computed at the granularity the paper's simulator uses:
//! per-flow ECMP, where the hash input is the flow identifier for background
//! traffic and the *request* identifier for aggregation traffic, so that all
//! partial results of one request traverse the same upper-tier switches (and
//! therefore the same agg boxes — Section 3.1 of the paper).

use crate::topology::{LinkId, NodeId, Topology};

/// A server-to-server route: the ordered switch path plus the full ordered
/// directed-link path (including the server attach links at both ends).
#[derive(Debug, Clone)]
pub struct Route {
    /// Source server.
    pub src: NodeId,
    /// Destination server.
    pub dst: NodeId,
    /// Switches traversed, in order (never empty for distinct servers).
    pub switches: Vec<NodeId>,
    /// Directed links traversed, in order: `src -> sw0 -> .. -> swN -> dst`.
    pub links: Vec<LinkId>,
}

impl Route {
    /// Links of the sub-path from position `from` to position `to` in the
    /// switch path (indices into `switches`, inclusive endpoints). The first
    /// returned link leaves `switches[from]`, the last enters `switches[to]`.
    pub fn links_between_switches(&self, from: usize, to: usize) -> &[LinkId] {
        debug_assert!(from <= to && to < self.switches.len());
        // links[0] is src->sw0; links[i+1] is sw_i -> sw_{i+1}.
        &self.links[from + 1..to + 1]
    }
}

/// Deterministically mix a 64-bit hash (splitmix64 finaliser). Used to derive
/// independent ECMP choices from one request identifier.
pub fn mix(x: u64) -> u64 {
    netagg_obs::splitmix64(x)
}

/// Compute the ECMP route between two (distinct or equal) servers.
///
/// Equal-cost choices (which pod aggregation switch, which core of the
/// group) are selected by `hash`.
pub fn server_route(topo: &Topology, src: NodeId, dst: NodeId, hash: u64) -> Route {
    assert!(topo.is_server(src) && topo.is_server(dst));
    assert_ne!(src, dst, "route requires distinct endpoints");
    let cfg = &topo.config;
    let rack_s = topo.rack_of_server(src);
    let rack_d = topo.rack_of_server(dst);
    let tor_s = topo.tor(rack_s);
    let tor_d = topo.tor(rack_d);

    let mut switches = vec![tor_s];
    if rack_s != rack_d {
        let pod_s = topo.pod_of_rack(rack_s);
        let pod_d = topo.pod_of_rack(rack_d);
        let j = (mix(hash) % cfg.aggs_per_pod as u64) as u32;
        if pod_s == pod_d {
            switches.push(topo.agg_switch(pod_s, j));
        } else {
            let group = cfg.cores / cfg.aggs_per_pod;
            let c = (mix(hash ^ 0xc0de) % group as u64) as u32;
            switches.push(topo.agg_switch(pod_s, j));
            switches.push(topo.core_switch(j * group + c));
            switches.push(topo.agg_switch(pod_d, j));
        }
        switches.push(tor_d);
    }

    let mut links = Vec::with_capacity(switches.len() + 1);
    links.push(topo.link_between(src, switches[0]));
    for w in switches.windows(2) {
        links.push(topo.link_between(w[0], w[1]));
    }
    links.push(topo.link_between(*switches.last().unwrap(), dst));
    Route {
        src,
        dst,
        switches,
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Tier, TopologyConfig};

    fn quick() -> Topology {
        Topology::build(&TopologyConfig::quick())
    }

    #[test]
    fn same_rack_route_is_two_hops() {
        let t = quick();
        let r = server_route(&t, t.server(0), t.server(1), 7);
        assert_eq!(r.switches.len(), 1);
        assert_eq!(r.links.len(), 2);
        assert_eq!(t.tier(r.switches[0]), Tier::Tor);
    }

    #[test]
    fn same_pod_route_goes_via_aggregation() {
        let t = quick();
        let spr = t.config.servers_per_tor;
        // servers 0 and spr are in racks 0 and 1, both pod 0.
        let r = server_route(&t, t.server(0), t.server(spr), 7);
        assert_eq!(r.switches.len(), 3);
        assert_eq!(t.tier(r.switches[1]), Tier::Aggregation);
        assert_eq!(r.links.len(), 4);
    }

    #[test]
    fn cross_pod_route_goes_via_core() {
        let t = quick();
        let per_pod = t.config.tors_per_pod * t.config.servers_per_tor;
        let r = server_route(&t, t.server(0), t.server(per_pod), 7);
        assert_eq!(r.switches.len(), 5);
        assert_eq!(t.tier(r.switches[2]), Tier::Core);
    }

    #[test]
    fn route_links_are_consecutive() {
        let t = quick();
        let per_pod = t.config.tors_per_pod * t.config.servers_per_tor;
        for hash in 0..16u64 {
            let r = server_route(&t, t.server(1), t.server(per_pod + 3), hash);
            // Each link's dst is the next link's src.
            for w in r.links.windows(2) {
                assert_eq!(t.links[w[0].0 as usize].dst, t.links[w[1].0 as usize].src);
            }
            assert_eq!(t.links[r.links[0].0 as usize].src, r.src);
            assert_eq!(t.links[r.links.last().unwrap().0 as usize].dst, r.dst);
        }
    }

    #[test]
    fn ecmp_spreads_over_paths() {
        let t = quick();
        let per_pod = t.config.tors_per_pod * t.config.servers_per_tor;
        let mut seen = std::collections::HashSet::new();
        for hash in 0..64u64 {
            let r = server_route(&t, t.server(0), t.server(per_pod), hash);
            seen.insert(r.switches[1]);
        }
        assert!(seen.len() > 1, "ECMP should use more than one agg switch");
    }

    #[test]
    fn same_hash_same_route() {
        let t = quick();
        let per_pod = t.config.tors_per_pod * t.config.servers_per_tor;
        let a = server_route(&t, t.server(0), t.server(per_pod), 42);
        let b = server_route(&t, t.server(0), t.server(per_pod), 42);
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.links, b.links);
    }

    #[test]
    fn links_between_switches_slices_correctly() {
        let t = quick();
        let per_pod = t.config.tors_per_pod * t.config.servers_per_tor;
        let r = server_route(&t, t.server(0), t.server(per_pod), 3);
        let all = r.links_between_switches(0, r.switches.len() - 1);
        assert_eq!(all.len(), r.links.len() - 2);
        let none = r.links_between_switches(1, 1);
        assert!(none.is_empty());
    }
}
