//! Agg-box deployment: which switches have boxes, and how many.
//!
//! The paper evaluates a full deployment (every switch), tier-restricted
//! partial deployments (Fig. 12), a fixed box budget spread over tiers
//! (Fig. 12, right half), and scale-out with several boxes per switch
//! (Fig. 13, Fig. 20).

use crate::flow::BoxId;
use crate::topology::{NodeId, Tier, Topology};
use std::collections::HashMap;

/// How a fixed budget of boxes is distributed over the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSpread {
    /// All boxes at core switches.
    CoreOnly,
    /// Uniformly over aggregation switches.
    AggrUniform,
    /// Uniformly over aggregation and core switches.
    CoreAndAggr,
}

/// Deployment policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Deployment {
    /// `per_switch` boxes on every switch of every tier.
    All {
        /// Boxes attached to each switch.
        per_switch: u32,
    },
    /// Boxes only at the listed tiers.
    Tiers {
        /// Tiers that get boxes.
        tiers: Vec<Tier>,
        /// Boxes attached to each switch of those tiers.
        per_switch: u32,
    },
    /// Exactly `count` boxes spread per `spread`.
    Budget {
        /// Total box budget.
        count: u32,
        /// How the budget is distributed.
        spread: BudgetSpread,
    },
    /// No boxes anywhere (degenerates NetAgg to direct worker->master).
    None,
}

impl Deployment {
    /// One box on every switch (the paper's "NetAgg" configuration).
    pub fn all() -> Self {
        Deployment::All { per_switch: 1 }
    }

    /// The paper's "Incremental-NetAgg": boxes only at the middle
    /// (aggregation) tier.
    pub fn incremental() -> Self {
        Deployment::Tiers {
            tiers: vec![Tier::Aggregation],
            per_switch: 1,
        }
    }
}

/// Materialised deployment: the set of boxes and a per-switch index.
#[derive(Debug, Clone)]
pub struct BoxPlacement {
    /// Switch each box attaches to, indexed by [`BoxId`].
    pub boxes: Vec<NodeId>,
    by_switch: HashMap<NodeId, Vec<BoxId>>,
}

impl BoxPlacement {
    /// Materialise a deployment policy on a topology.
    pub fn new(topo: &Topology, dep: &Deployment) -> Self {
        let mut boxes = Vec::new();
        let mut by_switch: HashMap<NodeId, Vec<BoxId>> = HashMap::new();
        let mut place = |sw: NodeId, boxes: &mut Vec<NodeId>| {
            let id = BoxId(boxes.len() as u32);
            boxes.push(sw);
            by_switch.entry(sw).or_default().push(id);
        };
        match dep {
            Deployment::None => {}
            Deployment::All { per_switch } => {
                for sw in topo.all_switches() {
                    for _ in 0..*per_switch {
                        place(sw, &mut boxes);
                    }
                }
            }
            Deployment::Tiers { tiers, per_switch } => {
                for tier in tiers {
                    for sw in topo.switches(*tier) {
                        for _ in 0..*per_switch {
                            place(sw, &mut boxes);
                        }
                    }
                }
            }
            Deployment::Budget { count, spread } => {
                let switches: Vec<NodeId> = match spread {
                    BudgetSpread::CoreOnly => topo.switches(Tier::Core),
                    BudgetSpread::AggrUniform => topo.switches(Tier::Aggregation),
                    BudgetSpread::CoreAndAggr => {
                        let mut v = topo.switches(Tier::Aggregation);
                        v.extend(topo.switches(Tier::Core));
                        v
                    }
                };
                // Round-robin the budget over the candidate switches so the
                // spread is uniform; a switch may get several boxes if the
                // budget exceeds the number of switches.
                for i in 0..*count {
                    let sw = switches[i as usize % switches.len()];
                    place(sw, &mut boxes);
                }
            }
        }
        Self { boxes, by_switch }
    }

    /// Total boxes deployed.
    pub fn num_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// Boxes at a given switch (empty slice if none).
    pub fn boxes_at(&self, sw: NodeId) -> &[BoxId] {
        self.by_switch.get(&sw).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The box at `sw` serving a request with the given hash, if any
    /// (scale-out load balancing: requests are hashed over the boxes
    /// attached to one switch, Section 3.1).
    pub fn box_for(&self, sw: NodeId, hash: u64) -> Option<BoxId> {
        let slots = self.boxes_at(sw);
        if slots.is_empty() {
            None
        } else {
            Some(slots[(hash % slots.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::build(&TopologyConfig::quick())
    }

    #[test]
    fn all_deployment_covers_every_switch() {
        let t = topo();
        let p = BoxPlacement::new(&t, &Deployment::all());
        assert_eq!(p.num_boxes() as u32, t.config.num_switches());
        for sw in t.all_switches() {
            assert_eq!(p.boxes_at(sw).len(), 1);
        }
    }

    #[test]
    fn scale_out_places_multiple_boxes() {
        let t = topo();
        let p = BoxPlacement::new(&t, &Deployment::All { per_switch: 3 });
        for sw in t.all_switches() {
            assert_eq!(p.boxes_at(sw).len(), 3);
        }
        // Hashing spreads requests over slots.
        let sw = t.all_switches()[0];
        let mut seen = std::collections::HashSet::new();
        for h in 0..32u64 {
            seen.insert(p.box_for(sw, h).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn tier_deployment_restricts_placement() {
        let t = topo();
        let p = BoxPlacement::new(
            &t,
            &Deployment::Tiers {
                tiers: vec![Tier::Core],
                per_switch: 1,
            },
        );
        assert_eq!(p.num_boxes() as u32, t.config.cores);
        for sw in t.switches(Tier::Tor) {
            assert!(p.boxes_at(sw).is_empty());
        }
    }

    #[test]
    fn budget_is_exact_and_uniform() {
        let t = topo();
        let p = BoxPlacement::new(
            &t,
            &Deployment::Budget {
                count: 7,
                spread: BudgetSpread::CoreAndAggr,
            },
        );
        assert_eq!(p.num_boxes(), 7);
        for sw in t.switches(Tier::Tor) {
            assert!(p.boxes_at(sw).is_empty());
        }
    }

    #[test]
    fn none_deployment_is_empty() {
        let t = topo();
        let p = BoxPlacement::new(&t, &Deployment::None);
        assert_eq!(p.num_boxes(), 0);
        assert!(p.box_for(t.all_switches()[0], 5).is_none());
    }
}
