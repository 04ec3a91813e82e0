//! Aggregation-tree construction (Section 3.1).
//!
//! A [`ClusterSpec`] describes the physical deployment: racks of workers,
//! agg boxes per rack (scale-out), and where the master sits. From it,
//! [`build_tree_specs`] derives one [`TreeSpec`] per aggregation tree:
//! workers feed their rack's box, rack boxes feed the master rack's box,
//! and that root box feeds the master — the on-path spanning tree of the
//! paper, specialised to the testbed's two-tier topology. With multiple
//! boxes per rack, tree `t` uses box slot `t mod boxes`, so concurrent
//! trees spread over the scale-out boxes.
//!
//! With **zero boxes**, workers are unassigned and shims fall back to
//! sending partial results directly to the master — the "plain
//! application" baseline of the testbed evaluation.

use crate::protocol::{AppId, SourceId, TreeId};
use netagg_net::NodeId;
use std::collections::HashMap;

/// Address block size per application. Agg boxes live in application 0's
/// block above [`BOX_BASE`] and are shared by all applications.
const APP_BLOCK: NodeId = 100_000;
const WORKER_BASE: NodeId = 1_000;
const BOX_BASE: NodeId = 10_000;
const CLIENT_BASE: NodeId = 50_000;

/// Transport address of an application's master shim.
pub fn master_addr(app: AppId) -> NodeId {
    app.0 as NodeId * APP_BLOCK
}

/// Transport address of an application's worker shim `w`.
pub fn worker_addr(app: AppId, worker: u32) -> NodeId {
    assert!(worker < BOX_BASE - WORKER_BASE, "worker id too large");
    app.0 as NodeId * APP_BLOCK + WORKER_BASE + worker
}

/// Transport address of agg box `b` (shared by all applications).
pub fn box_addr(box_id: u32) -> NodeId {
    assert!(box_id < CLIENT_BASE - BOX_BASE, "box id too large");
    BOX_BASE + box_id
}

/// Transport address of an application's client `c`.
pub fn client_addr(app: AppId, client: u32) -> NodeId {
    assert!(client < APP_BLOCK - CLIENT_BASE, "client id too large");
    app.0 as NodeId * APP_BLOCK + CLIENT_BASE + client
}

const SERVICE_BASE: NodeId = 20_000;

/// Transport address of an application-level service listener (e.g. a
/// search backend's query port or the frontend's client port) — distinct
/// from the shim addresses, mirroring how the paper's shims wrap the
/// application's own sockets rather than replacing them.
pub fn service_addr(app: AppId, idx: u32) -> NodeId {
    assert!(idx < CLIENT_BASE - SERVICE_BASE, "service id too large");
    app.0 as NodeId * APP_BLOCK + SERVICE_BASE + idx
}

/// One rack: the workers it hosts and how many agg boxes attach to its
/// switch.
#[derive(Debug, Clone)]
pub struct RackSpec {
    /// Worker ids hosted in this rack.
    pub workers: Vec<u32>,
    /// Agg boxes attached to the rack's switch.
    pub boxes: u32,
}

/// Physical deployment description.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The racks, in order.
    pub racks: Vec<RackSpec>,
    /// Rack hosting the master (frontend / reducer).
    pub master_rack: usize,
    /// Number of aggregation trees per application (Section 3.1).
    pub num_trees: u32,
}

impl ClusterSpec {
    /// One rack with `workers` workers and `boxes` agg boxes.
    pub fn single_rack(workers: u32, boxes: u32) -> Self {
        Self {
            racks: vec![RackSpec {
                workers: (0..workers).collect(),
                boxes,
            }],
            master_rack: 0,
            num_trees: 1,
        }
    }

    /// `racks` racks of `workers_per_rack` workers, each with
    /// `boxes_per_rack` boxes; master in rack 0; one tree per master-rack
    /// box slot.
    pub fn multi_rack(racks: u32, workers_per_rack: u32, boxes_per_rack: u32) -> Self {
        let mut specs = Vec::new();
        let mut next = 0;
        for _ in 0..racks {
            specs.push(RackSpec {
                workers: (next..next + workers_per_rack).collect(),
                boxes: boxes_per_rack,
            });
            next += workers_per_rack;
        }
        Self {
            racks: specs,
            master_rack: 0,
            num_trees: 1,
        }
    }

    /// Use `trees` aggregation trees per application (Section 3.1).
    pub fn with_trees(mut self, trees: u32) -> Self {
        assert!(trees >= 1);
        self.num_trees = trees;
        self
    }

    /// Sorted ids of every worker in the cluster.
    pub fn all_workers(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.racks.iter().flat_map(|r| r.workers.clone()).collect();
        v.sort_unstable();
        v
    }

    /// Total agg boxes across all racks.
    pub fn total_boxes(&self) -> u32 {
        self.racks.iter().map(|r| r.boxes).sum()
    }

    /// Global box id of slot `slot` in `rack`.
    pub fn box_id(&self, rack: usize, slot: u32) -> u32 {
        let offset: u32 = self.racks[..rack].iter().map(|r| r.boxes).sum();
        offset + slot
    }
}

/// Parent of a box within a tree: another box or the master — the nodes
/// a route is derived for ([`TreeSpec::children`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// Another box, by global id.
    Box(u32),
    /// The application's master shim.
    Master,
}

/// One box's role within a tree.
#[derive(Debug, Clone)]
pub struct TreeBox {
    /// Global box id.
    pub box_id: u32,
    /// Where this box's output goes.
    pub parent: Parent,
    /// Workers sending their partial results here.
    pub worker_children: Vec<u32>,
    /// Boxes sending their aggregates here.
    pub box_children: Vec<u32>,
}

impl TreeBox {
    /// Distinct sources (workers + child boxes) feeding this box.
    pub fn expected_sources(&self) -> usize {
        self.worker_children.len() + self.box_children.len()
    }
}

/// Logical description of one aggregation tree. The spec is
/// application-agnostic: addresses of masters and workers are derived per
/// application via [`master_addr`] / [`worker_addr`].
#[derive(Debug, Clone)]
pub struct TreeSpec {
    /// The tree's identifier.
    pub tree: TreeId,
    /// The boxes participating in this tree.
    pub boxes: Vec<TreeBox>,
    /// worker id -> global box id of its first on-path box.
    pub worker_assignment: HashMap<u32, u32>,
    /// Workers with no on-path box: they send directly to the master.
    pub direct_workers: Vec<u32>,
}

impl TreeSpec {
    /// The tree node for `box_id`, if it participates in this tree.
    pub fn tree_box(&self, box_id: u32) -> Option<&TreeBox> {
        self.boxes.iter().find(|b| b.box_id == box_id)
    }

    /// The sources feeding the node at `at` — a box, or the master above
    /// the root boxes: its workers, then the boxes whose parent it is.
    pub fn children(&self, at: Parent) -> Vec<SourceId> {
        let workers = match at {
            Parent::Box(b) => self.tree_box(b).map_or(&[][..], |b| &b.worker_children),
            Parent::Master => &self.direct_workers,
        };
        let workers = workers.iter().map(|w| SourceId::Worker(*w));
        let boxes = self.boxes.iter().filter(|b| b.parent == at);
        workers
            .chain(boxes.map(|b| SourceId::Box(b.box_id)))
            .collect()
    }

    /// Address a box's output goes to for one application.
    pub fn parent_addr(&self, app: AppId, box_id: u32) -> NodeId {
        match self.tree_box(box_id).map(|b| b.parent) {
            Some(Parent::Box(p)) => box_addr(p),
            _ => master_addr(app),
        }
    }
}

/// Build the per-tree specs for a cluster.
pub fn build_tree_specs(cluster: &ClusterSpec) -> Vec<TreeSpec> {
    let mut specs = Vec::new();
    for t in 0..cluster.num_trees {
        let mut boxes: Vec<TreeBox> = Vec::new();
        let mut worker_assignment = HashMap::new();
        let mut direct_workers = Vec::new();

        // Root box: the master rack's slot for this tree (if any).
        let mroot = {
            let mr = &cluster.racks[cluster.master_rack];
            if mr.boxes > 0 {
                Some(cluster.box_id(cluster.master_rack, t % mr.boxes))
            } else {
                None
            }
        };
        if let Some(root) = mroot {
            boxes.push(TreeBox {
                box_id: root,
                parent: Parent::Master,
                worker_children: Vec::new(),
                box_children: Vec::new(),
            });
        }
        // A rack without workers adds no box: a box of its own would be
        // linked under the root and then dropped, leaving the root owing it.
        let racks = cluster.racks.iter().enumerate();
        for (r, rack) in racks.filter(|(_, rack)| !rack.workers.is_empty()) {
            let rack_box = if rack.boxes > 0 {
                Some(cluster.box_id(r, t % rack.boxes))
            } else {
                None
            };
            // The box workers of this rack feed: their rack box, else the
            // root box, else nothing (direct to master).
            let target = rack_box.or(mroot);
            match target {
                Some(bid) => {
                    if boxes.iter().all(|b| b.box_id != bid) {
                        let parent = if Some(bid) == mroot {
                            Parent::Master
                        } else {
                            match mroot {
                                Some(root) => Parent::Box(root),
                                None => Parent::Master,
                            }
                        };
                        boxes.push(TreeBox {
                            box_id: bid,
                            parent,
                            worker_children: Vec::new(),
                            box_children: Vec::new(),
                        });
                    }
                    let b = boxes.iter_mut().find(|b| b.box_id == bid).unwrap();
                    b.worker_children.extend(rack.workers.iter().copied());
                    for w in &rack.workers {
                        worker_assignment.insert(*w, bid);
                    }
                }
                None => direct_workers.extend(rack.workers.iter().copied()),
            }
        }
        // Wire box children: every non-root box is a child of its parent.
        let links: Vec<(u32, u32)> = boxes
            .iter()
            .filter_map(|b| match b.parent {
                Parent::Box(p) => Some((p, b.box_id)),
                Parent::Master => None,
            })
            .collect();
        for (p, c) in links {
            if let Some(pb) = boxes.iter_mut().find(|b| b.box_id == p) {
                pb.box_children.push(c);
            }
        }
        // Drop boxes that ended up with no children at all (e.g. a root in
        // a rack with no workers and no child boxes).
        boxes.retain(|b| b.expected_sources() > 0);
        specs.push(TreeSpec {
            tree: TreeId(t),
            boxes,
            worker_assignment,
            direct_workers,
        });
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_single_box() {
        let c = ClusterSpec::single_rack(4, 1);
        let specs = build_tree_specs(&c);
        assert_eq!(specs.len(), 1);
        let s = &specs[0];
        assert_eq!(s.boxes.len(), 1);
        assert_eq!(s.boxes[0].parent, Parent::Master);
        assert_eq!(s.boxes[0].worker_children.len(), 4);
        assert_eq!(s.children(Parent::Master).len(), 1);
        assert!(s.direct_workers.is_empty());
        assert_eq!(
            s.parent_addr(AppId(2), s.boxes[0].box_id),
            master_addr(AppId(2))
        );
    }

    #[test]
    fn no_boxes_means_direct_workers() {
        let c = ClusterSpec::single_rack(5, 0);
        let specs = build_tree_specs(&c);
        let s = &specs[0];
        assert!(s.boxes.is_empty());
        assert_eq!(s.direct_workers.len(), 5);
        assert_eq!(s.children(Parent::Master).len(), 5);
    }

    #[test]
    fn two_racks_chain_through_master_rack_box() {
        let c = ClusterSpec::multi_rack(2, 3, 1);
        let specs = build_tree_specs(&c);
        let s = &specs[0];
        assert_eq!(s.boxes.len(), 2);
        let root = s.tree_box(0).unwrap();
        assert_eq!(root.parent, Parent::Master);
        assert_eq!(root.box_children, vec![1]);
        let leafbox = s.tree_box(1).unwrap();
        assert_eq!(leafbox.parent, Parent::Box(0));
        assert_eq!(leafbox.worker_children.len(), 3);
        assert_eq!(s.children(Parent::Master).len(), 1);
        // Children addresses used by failure recovery.
        let kids = crate::fanin::Route::of(s, AppId(1), Parent::Box(0)).children_addrs;
        assert!(kids.contains(&box_addr(1)));
        assert_eq!(s.parent_addr(AppId(1), 1), box_addr(0));
    }

    #[test]
    fn rack_without_box_feeds_root() {
        let mut c = ClusterSpec::multi_rack(2, 2, 1);
        c.racks[1].boxes = 0;
        let specs = build_tree_specs(&c);
        let s = &specs[0];
        assert_eq!(s.boxes.len(), 1);
        assert_eq!(s.boxes[0].worker_children.len(), 4);
    }

    #[test]
    fn a_rack_without_workers_leaves_no_phantom_child_box() {
        let rack = |workers, boxes| RackSpec { workers, boxes };
        let c = ClusterSpec {
            racks: vec![rack(vec![0, 1], 1), rack(vec![], 1)],
            master_rack: 0,
            num_trees: 1,
        };
        let s = &build_tree_specs(&c)[0];
        for b in &s.boxes {
            let phantom = b.box_children.iter().find(|c| s.tree_box(**c).is_none());
            assert_eq!(phantom, None, "box {} owes a box not in the spec", b.box_id);
        }
    }

    #[test]
    fn scale_out_spreads_trees_over_slots() {
        let c = ClusterSpec::single_rack(4, 2).with_trees(2);
        let specs = build_tree_specs(&c);
        assert_eq!(specs.len(), 2);
        assert_ne!(specs[0].boxes[0].box_id, specs[1].boxes[0].box_id);
    }

    #[test]
    fn box_ids_are_globally_unique() {
        let c = ClusterSpec::multi_rack(3, 2, 2);
        assert_eq!(c.total_boxes(), 6);
        assert_eq!(c.box_id(0, 0), 0);
        assert_eq!(c.box_id(1, 0), 2);
        assert_eq!(c.box_id(2, 1), 5);
    }

    #[test]
    fn address_spaces_do_not_collide() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for app in [AppId(0), AppId(1), AppId(7)] {
            assert!(seen.insert(master_addr(app)));
            for w in [0u32, 1, 500] {
                assert!(seen.insert(worker_addr(app, w)));
            }
            for c in [0u32, 3] {
                assert!(seen.insert(client_addr(app, c)));
            }
        }
        for b in [0u32, 1, 99] {
            assert!(seen.insert(box_addr(b)));
        }
    }
}
