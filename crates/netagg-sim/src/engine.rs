//! The fluid (flow-level) model with TCP max-min fairness: what a run
//! returns, why it may refuse to start, and the progressive-filling
//! allocator. The event loop that drives them is [`crate::incremental`].
//!
//! Between events, every active flow transfers bytes at a constant rate
//! determined by progressive-filling max-min fair allocation over all the
//! resources it traverses (links, box attach links, box processors).
//! Events are flow starts and flow completions; the engine advances in
//! closed form from event to event, so results are exact for the fluid
//! model and independent of any tick size.
//!
//! Aggregation-tree coupling is modelled by *completion gating*: an
//! aggregation point's output flow starts together with its earliest child
//! and cannot complete before every child has delivered its input (the last
//! byte of a streamed aggregate depends on the last input byte). A flow
//! that has pushed all its bytes but still waits for children is *drained*:
//! it stops consuming bandwidth and completes the instant its last child
//! does. This captures pipelined streaming aggregation end-to-end timing
//! while keeping each event's rate allocation a pure max-min problem.
//!
//! The tests below pin that model to closed forms, for both solvers of
//! the one loop.

use crate::flow::SegmentKind;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Why an engine refused to run.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A resource was configured with a non-positive or non-finite
    /// capacity. A zero-capacity resource would give every flow crossing
    /// it a 0/0 = NaN rate, which would then poison every f64 ordering in
    /// the event machinery; it is rejected up front instead.
    InvalidCapacity {
        /// Index into the engine's resource table (links first, then
        /// `[in, out, proc]` per box).
        resource: usize,
        /// The offending capacity value, bytes/s.
        capacity: f64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidCapacity { resource, capacity } => write!(
                f,
                "resource {resource} has invalid capacity {capacity} bytes/s; \
                 capacities must be finite and > 0 (a zero-capacity resource \
                 would yield NaN rates)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Completion record of one flow.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FlowRecord {
    /// Bytes transferred.
    pub size: f64,
    /// Start time, seconds.
    pub start: f64,
    /// Completion time, seconds.
    pub finish: f64,
    /// Role of the segment.
    pub kind: SegmentKind,
    /// Request the flow belonged to (`None` for background).
    pub request: Option<u32>,
}

impl FlowRecord {
    /// Flow completion time (`finish - start`), seconds.
    pub fn fct(&self) -> f64 {
        self.finish - self.start
    }
}

/// Result of one simulation run.
///
/// The determinism fence in `tests/incremental_parity.rs` asserts results
/// are byte-identical (bit-exact f64s) across runs with the same seed.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SimResult {
    /// One record per simulated flow, in expansion order.
    pub records: Vec<FlowRecord>,
    /// Total bytes carried by each fabric link over the run, indexed by
    /// [`crate::topology::LinkId`].
    pub link_bytes: Vec<f64>,
    /// Time at which the last flow completed.
    pub makespan: f64,
}

impl SimResult {
    /// Flow completion times for the given class, sorted ascending.
    pub fn fcts(&self, class: crate::metrics::FlowClass) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| class.matches(r.kind))
            .map(FlowRecord::fct)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// 99th-percentile FCT of a flow class (the paper's headline metric).
    pub fn fct_p99(&self, class: crate::metrics::FlowClass) -> f64 {
        crate::metrics::percentile(&self.fcts(class), 0.99)
    }

    /// Median FCT of a flow class.
    pub fn fct_median(&self, class: crate::metrics::FlowClass) -> f64 {
        crate::metrics::percentile(&self.fcts(class), 0.5)
    }

    /// Completion time of each aggregation request (when its last segment
    /// finished), sorted ascending.
    pub fn request_completion_times(&self) -> Vec<f64> {
        let mut per_req: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for r in &self.records {
            if let Some(q) = r.request {
                let e = per_req.entry(q).or_insert(0.0);
                *e = e.max(r.finish);
            }
        }
        let mut v: Vec<f64> = per_req.into_values().collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Heap entry for the progressive-filling allocator: the water level at
/// which the resource in `slot` saturates, with a version for lazy
/// invalidation.
struct Entry {
    level: f64,
    slot: u32,
    version: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on level. `total_cmp` is a genuine total order even for
        // degenerate levels: no incomparable pair can corrupt the heap.
        other.level.total_cmp(&self.level)
    }
}

/// One resource a fill touches: its row of the per-fill table. The seed
/// pass of [`crate::incremental`] writes it from one scan of the
/// resource's crossers, the fill updates it, the verify pass reads it.
#[derive(Default)]
pub(crate) struct Slot {
    /// The resource, and its capacity.
    pub res: u32,
    pub cap: f64,
    /// Sum and maximum of its crossers' rates before the re-solve.
    pub sum_old: f64,
    pub max_old: f64,
    /// The same under the fill: seeded with the crossers the fill leaves
    /// out (they keep their rates), then each flow's level as it freezes.
    /// Until the resource saturates this is the frozen sum its water level
    /// is computed from; afterwards, its load.
    pub sum_new: f64,
    pub max_new: f64,
    /// Flows of the fill crossing it that are not frozen yet.
    pub live: u32,
    version: u32,
}

impl Slot {
    pub(crate) fn new(res: u32, cap: f64) -> Self {
        Self {
            res,
            cap,
            ..Self::default()
        }
    }

    fn saturation_level(&self) -> f64 {
        (self.cap - self.sum_new).max(0.0) / self.live as f64
    }
}

/// Progressive-filling max-min allocator.
///
/// Every resource saturates at water level
/// `(capacity - sum of frozen rates) / live flow count`; the next resource
/// to saturate is popped from a lazily invalidated min-heap, its flows are
/// frozen at that level, and the levels of their other resources are
/// updated. Total cost per allocation is
/// `O(sum of path lengths x log(resources))`.
///
/// A solve covers the flows it is given and nothing else, and sees no
/// resource-indexed state: the caller hands it the touched resources as a
/// dense table (`slots`, each seeded with the bandwidth committed to the
/// flows left out) and each flow's path as indices into it (`inc`), which
/// is how [`crate::incremental`] re-rates a scope with everyone else
/// frozen. It leaves every slot's new load and crosser-maximum behind.
#[derive(Default)]
pub(crate) struct Allocator {
    pub slots: Vec<Slot>,
    /// CSR: the path of the flow at position `p`, as slots, is
    /// `inc[inc_off[p]..inc_off[p + 1]]`.
    pub inc_off: Vec<u32>,
    pub inc: Vec<u32>,
    /// CSR, counted from `live`: the positions using slot `s`, ascending.
    users_off: Vec<u32>,
    users: Vec<u32>,
    // Per-call scratch, kept for its capacity.
    heap: BinaryHeap<Entry>,
    frozen: Vec<bool>,
}

impl Allocator {
    /// The path of the flow at position `pos`, as slots.
    pub(crate) fn path(&self, pos: usize) -> &[u32] {
        &self.inc[self.inc_off[pos] as usize..self.inc_off[pos + 1] as usize]
    }

    /// Progressive filling over `active` (the flows `inc` describes, in
    /// its order) on the table in `slots`, whose `live` counts the caller
    /// has set to each slot's number of users.
    pub(crate) fn waterfill(&mut self, active: &[u32], rates: &mut [f64]) {
        let Self {
            slots,
            inc_off,
            inc,
            users_off,
            users,
            heap,
            frozen,
        } = self;
        let path = |pos: usize| &inc[inc_off[pos] as usize..inc_off[pos + 1] as usize];
        // Users of each slot, counted then placed: `users_off[s + 1]` is
        // the cursor of `s` while placing and the start of `s + 1` after.
        users_off.clear();
        users_off.push(0);
        let mut total = 0u32;
        for slot in slots.iter() {
            users_off.push(total);
            total += slot.live;
        }
        users.clear();
        users.resize(total as usize, 0);
        for pos in 0..active.len() {
            for &s in path(pos) {
                let at = &mut users_off[s as usize + 1];
                users[*at as usize] = pos as u32;
                *at += 1;
            }
        }

        heap.clear();
        for (s, slot) in slots.iter().enumerate() {
            heap.push(Entry {
                level: slot.saturation_level(),
                slot: s as u32,
                version: 0,
            });
        }
        frozen.clear();
        frozen.resize(active.len(), false);
        let mut unfrozen = active.len();

        while unfrozen > 0 {
            let e = heap.pop().expect("live flows imply live resources");
            let s = e.slot as usize;
            if e.version != slots[s].version || slots[s].live == 0 {
                continue; // stale entry
            }
            let level = e.level;
            // Freeze every live flow using the slot at `level`.
            for &pos in &users[users_off[s] as usize..users_off[s + 1] as usize] {
                let pos = pos as usize;
                if frozen[pos] {
                    continue;
                }
                frozen[pos] = true;
                unfrozen -= 1;
                rates[active[pos] as usize] = level;
                for &s2 in path(pos) {
                    let slot = &mut slots[s2 as usize];
                    slot.sum_new += level;
                    slot.max_new = slot.max_new.max(level);
                    if s2 as usize == s {
                        continue;
                    }
                    slot.live -= 1;
                    slot.version += 1;
                    if slot.live > 0 {
                        heap.push(Entry {
                            level: slot.saturation_level().max(level),
                            slot: s2,
                            version: slot.version,
                        });
                    }
                }
            }
            slots[s].live = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{BoxPlacement, Deployment};
    use crate::flow::{self, FlowSpec};
    use crate::metrics::FlowClass;
    use crate::topology::{Topology, TopologyConfig};
    use crate::workload::WorkloadConfig;
    use crate::{EngineKind, EngineStats, ExperimentConfig, IncrementalEngine, Strategy, GBPS};

    /// No boxes deployed: flows cross links only.
    fn direct_cfg(topo: &Topology) -> ExperimentConfig {
        ExperimentConfig {
            topology: topo.config.clone(),
            workload: WorkloadConfig::default(),
            strategy: Strategy::Direct,
            deployment: Deployment::None,
            box_rate: 9.2 * GBPS,
            box_link: 10.0 * GBPS,
            engine: crate::EngineKind::Reference,
        }
    }

    /// Run `flows` through the one loop under each solver, whatever
    /// `cfg.engine` says. The closed forms below are asserted on each
    /// result: the parity suites compare the solvers on random workloads,
    /// which cannot catch a semantics bug the two share.
    fn run_both_stats(
        topo: &Topology,
        cfg: &ExperimentConfig,
        flows: Vec<FlowSpec>,
    ) -> [(&'static str, SimResult, EngineStats); 2] {
        let placement = BoxPlacement::new(topo, &cfg.deployment);
        [
            ("reference", EngineKind::Reference),
            ("incremental", EngineKind::Incremental),
        ]
        .map(|(name, engine)| {
            let cfg = ExperimentConfig {
                engine,
                ..cfg.clone()
            };
            let (res, stats) =
                IncrementalEngine::new(topo, &placement, &cfg).run_stats(flows.clone());
            (name, res, stats)
        })
    }

    fn run_both(
        topo: &Topology,
        cfg: &ExperimentConfig,
        flows: Vec<FlowSpec>,
    ) -> [(&'static str, SimResult); 2] {
        run_both_stats(topo, cfg, flows).map(|(name, res, _)| (name, res))
    }

    #[test]
    fn single_flow_runs_at_edge_capacity() {
        let topo = Topology::build(&TopologyConfig::quick());
        let route = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let size = 1e6;
        let flows = vec![FlowSpec::background(size, route.links, 0.0)];
        let expected = size / GBPS;
        for (engine, res, stats) in run_both_stats(&topo, &direct_cfg(&topo), flows) {
            let fct = res.records[0].fct();
            assert!(
                (fct - expected).abs() < 1e-6 * expected.max(1.0) + 1e-9,
                "{engine}: fct {fct} expected {expected}"
            );
            assert_eq!((stats.starts, stats.completions), (1, 1), "{engine}");
        }
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let topo = Topology::build(&TopologyConfig::quick());
        // Both flows target server 1: its downlink is shared.
        let r1 = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let r2 = crate::routing::server_route(&topo, topo.server(2), topo.server(1), 0);
        let size = 1e6;
        let flows = vec![
            FlowSpec::background(size, r1.links, 0.0),
            FlowSpec::background(size, r2.links, 0.0),
        ];
        // Equal flows sharing one bottleneck: both finish at 2x the solo
        // time.
        let expected = 2.0 * size / GBPS;
        for (engine, res) in run_both(&topo, &direct_cfg(&topo), flows) {
            for r in &res.records {
                assert!(
                    (r.fct() - expected).abs() < 1e-6 * expected,
                    "{engine}: fct {}",
                    r.fct()
                );
            }
        }
    }

    #[test]
    fn unequal_flows_complete_in_staggered_fashion() {
        let topo = Topology::build(&TopologyConfig::quick());
        let r1 = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let r2 = crate::routing::server_route(&topo, topo.server(2), topo.server(1), 0);
        let flows = vec![
            FlowSpec::background(1e6, r1.links, 0.0),
            FlowSpec::background(3e6, r2.links, 0.0),
        ];
        // Short flow shares the 1 Gbps downlink until it finishes at 2e6
        // bytes total crossing; long flow then runs alone: 4e6 bytes total.
        let t_short = 2e6 / GBPS;
        let t_long = 4e6 / GBPS;
        for (engine, res) in run_both(&topo, &direct_cfg(&topo), flows) {
            let (short, long) = (res.records[0].fct(), res.records[1].fct());
            assert!(
                (short - t_short).abs() < 1e-6 * t_short,
                "{engine}: {short}"
            );
            assert!((long - t_long).abs() < 1e-6 * t_long, "{engine}: {long}");
        }
    }

    #[test]
    fn late_start_is_respected() {
        let topo = Topology::build(&TopologyConfig::quick());
        let r1 = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let flows = vec![FlowSpec::background(1e6, r1.links, 5.0)];
        for (engine, res) in run_both(&topo, &direct_cfg(&topo), flows) {
            let r = &res.records[0];
            assert!(r.start == 5.0, "{engine}: start {}", r.start);
            assert!(
                (r.finish - (5.0 + 1e6 / GBPS)).abs() < 1e-6,
                "{engine}: finish {}",
                r.finish
            );
            assert!((r.fct() - 1e6 / GBPS).abs() < 1e-6, "{engine}");
        }
    }

    #[test]
    fn completion_gating_delays_aggregation_output() {
        let topo = Topology::build(&TopologyConfig::quick());
        // Worker 0 -> aggregator (server 1), aggregator -> master
        // (server 2). The output is half the input, so the output flow
        // drains early but must wait for the inbound flow to finish.
        let rin = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let rout = crate::routing::server_route(&topo, topo.server(1), topo.server(2), 0);
        let child = FlowSpec::leaf(
            2e6,
            rin.links
                .into_iter()
                .map(crate::flow::Resource::Link)
                .collect(),
            0.0,
            SegmentKind::WorkerPartial,
            0,
        );
        let parent = FlowSpec {
            size: 1e6,
            resources: rout
                .links
                .into_iter()
                .map(crate::flow::Resource::Link)
                .collect(),
            children: vec![0],
            alpha: 0.5,
            local_input: 0.0,
            start: 0.0,
            kind: SegmentKind::AggregatedOutput,
            request: Some(0),
        };
        let t_child = 2e6 / GBPS;
        for (engine, res) in run_both(&topo, &direct_cfg(&topo), vec![child, parent]) {
            assert!(
                (res.records[0].fct() - t_child).abs() < 1e-6 * t_child,
                "{engine}: child fct {}",
                res.records[0].fct()
            );
            // The parent cannot finish before the child feeds it its last
            // byte.
            assert!(
                (res.records[1].finish - t_child).abs() < 1e-6 * t_child,
                "{engine}: parent finish {} expected {t_child}",
                res.records[1].finish,
            );
        }
    }

    #[test]
    fn gating_cascades_through_deep_chains() {
        let topo = Topology::build(&TopologyConfig::quick());
        // w0 -> w1 -> w2 -> w3: a three-hop chain where every downstream
        // flow is smaller; all must finish when the first (largest) does.
        let mut flows = Vec::new();
        let mut prev: Option<u32> = None;
        for i in 0..3u32 {
            let r = crate::routing::server_route(&topo, topo.server(i), topo.server(i + 1), 0);
            let resources = r
                .links
                .into_iter()
                .map(crate::flow::Resource::Link)
                .collect();
            let f = match prev {
                None => FlowSpec::leaf(4e6, resources, 0.0, SegmentKind::WorkerPartial, 0),
                Some(p) => FlowSpec {
                    size: 1e6,
                    resources,
                    children: vec![p],
                    alpha: 0.25,
                    local_input: 0.0,
                    start: 0.0,
                    kind: SegmentKind::AggregatedOutput,
                    request: Some(0),
                },
            };
            prev = Some(flows.len() as u32);
            flows.push(f);
        }
        let t_first = 4e6 / GBPS;
        for (engine, res) in run_both(&topo, &direct_cfg(&topo), flows) {
            for r in &res.records {
                assert!(
                    r.finish >= t_first - 1e-9,
                    "{engine}: downstream hop finished {} before its input {t_first}",
                    r.finish
                );
            }
        }
    }

    #[test]
    fn box_processing_rate_caps_throughput() {
        let topo = Topology::build(&TopologyConfig::quick());
        let cfg = ExperimentConfig {
            topology: topo.config.clone(),
            workload: WorkloadConfig::default(),
            strategy: Strategy::NetAgg,
            deployment: Deployment::all(),
            box_rate: 0.5 * GBPS, // slower than the edge link
            box_link: 10.0 * GBPS,
            engine: crate::EngineKind::Reference,
        };
        let placement = BoxPlacement::new(&topo, &cfg.deployment);
        let route = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let b = placement.box_for(route.switches[0], 0).unwrap();
        let res_list = vec![
            crate::flow::Resource::Link(route.links[0]),
            crate::flow::Resource::BoxIn(b),
            crate::flow::Resource::BoxProc(b),
        ];
        let f = FlowSpec::leaf(1e6, res_list, 0.0, SegmentKind::WorkerPartial, 0);
        let expected = 1e6 / (0.5 * GBPS);
        for (engine, res) in run_both(&topo, &cfg, vec![f]) {
            assert!(
                (res.records[0].fct() - expected).abs() < 1e-6 * expected,
                "{engine}: fct {}",
                res.records[0].fct()
            );
        }
    }

    #[test]
    fn full_experiment_terminates_for_every_strategy() {
        for strategy in [
            Strategy::Direct,
            Strategy::RackLevel,
            Strategy::DAry(1),
            Strategy::DAry(2),
            Strategy::NetAgg,
        ] {
            let mut cfg = crate::ExperimentConfig::quick();
            cfg.strategy = strategy;
            let res = crate::run_experiment(&cfg);
            assert!(res.makespan > 0.0, "{strategy:?}");
            assert!(res.fct_p99(FlowClass::All) > 0.0, "{strategy:?}");
            for r in &res.records {
                assert!(
                    r.finish >= r.start - 1e-12,
                    "{strategy:?}: finish {} < start {}",
                    r.finish,
                    r.start
                );
            }
        }
    }

    #[test]
    fn zero_capacity_resource_is_an_error_not_nan() {
        let topo = Topology::build(&TopologyConfig::quick());
        let cfg = ExperimentConfig {
            topology: topo.config.clone(),
            workload: WorkloadConfig::default(),
            strategy: Strategy::NetAgg,
            deployment: Deployment::all(),
            box_rate: 0.0, // would yield 0/0 = NaN rates
            box_link: 10.0 * GBPS,
            engine: crate::EngineKind::Reference,
        };
        let placement = BoxPlacement::new(&topo, &cfg.deployment);
        let err = IncrementalEngine::try_new(&topo, &placement, &cfg).unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidCapacity { capacity, .. } if capacity == 0.0
        ));
        assert!(err.to_string().contains("invalid capacity"));
    }

    #[test]
    fn epsilon_boundary_residual_completes_exactly_once() {
        // A flow whose residual sits exactly on the EPS_BYTES boundary is
        // delivered at admission; gating a parent on it must complete both
        // exactly once (a double-complete underflows `open` and is caught
        // by the idempotence guard in `complete`).
        let topo = Topology::build(&TopologyConfig::quick());
        let rin = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let rout = crate::routing::server_route(&topo, topo.server(1), topo.server(2), 0);
        let child = FlowSpec::leaf(
            flow::EPS_BYTES,
            rin.links
                .into_iter()
                .map(crate::flow::Resource::Link)
                .collect(),
            0.0,
            SegmentKind::WorkerPartial,
            0,
        );
        let parent = FlowSpec {
            size: 1e6,
            resources: rout
                .links
                .into_iter()
                .map(crate::flow::Resource::Link)
                .collect(),
            children: vec![0],
            alpha: 1.0,
            local_input: 0.0,
            start: 0.0,
            kind: SegmentKind::AggregatedOutput,
            request: Some(0),
        };
        let expected = 1e6 / GBPS;
        for (engine, res) in run_both(&topo, &direct_cfg(&topo), vec![child, parent]) {
            assert_eq!(
                res.records[0].finish, 0.0,
                "{engine}: boundary residual is delivered"
            );
            assert!(
                (res.records[1].fct() - expected).abs() < 1e-6 * expected,
                "{engine}"
            );
        }
    }

    #[test]
    fn residual_just_above_epsilon_is_not_skipped() {
        // One ulp-ish above the boundary: the flow must actually transfer
        // (not be misclassified as delivered), in both engines.
        let topo = Topology::build(&TopologyConfig::quick());
        let route = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let size = flow::EPS_BYTES * 1.001;
        let flows = vec![FlowSpec::background(size, route.links, 0.0)];
        for (engine, res) in run_both(&topo, &direct_cfg(&topo), flows) {
            assert!(
                res.records[0].finish > 0.0,
                "{engine}: flow above the boundary ran"
            );
        }
    }

    #[test]
    fn stragglers_terminate_and_delay_completion() {
        let mut cfg = crate::ExperimentConfig::quick();
        cfg.strategy = Strategy::NetAgg;
        cfg.workload.straggler_frac = 0.2;
        cfg.workload.straggler_delay = 0.5;
        let res = crate::run_experiment(&cfg);
        assert!(res.makespan > 0.5, "stragglers push the makespan out");
    }
}
