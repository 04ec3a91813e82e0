//! Flow (segment) representation consumed by the fluid engine.
//!
//! A *flow* is a fixed number of bytes pushed over a fixed set of
//! resources. Resources are directed topology links plus, per agg box, an
//! ingress link, an egress link and a processor (the box's maximum
//! aggregation rate, Section 2.4 of the paper).
//!
//! Aggregation trees couple flows: an aggregation point's output flow lists
//! the flows feeding it as `children`; the engine *completion-gates* the
//! parent on its children (it starts with the earliest child and cannot
//! finish before all children have delivered their last byte), which
//! models pipelined streaming aggregation end-to-end.

use crate::topology::LinkId;

/// Byte slack below which a flow's residual is considered delivered.
///
/// This is the *single* completion boundary of the engine: admission of
/// zero-byte flows and the settle step at a projected completion both call
/// [`delivered`], so a residual landing exactly on the boundary is
/// classified identically everywhere — it can neither be completed twice
/// nor skipped (see `epsilon_boundary_*` regression tests in `engine.rs`).
pub const EPS_BYTES: f64 = 1e-3;

/// Whether a residual byte count counts as fully delivered.
///
/// The boundary is inclusive: a residual of exactly [`EPS_BYTES`] is
/// delivered. NaN residuals (which cannot arise once capacities are
/// validated, see [`crate::engine::EngineError`]) compare `false` and are
/// caught by the engine's degenerate-rate assert instead of silently
/// completing.
#[inline]
pub fn delivered(remaining: f64) -> bool {
    remaining <= EPS_BYTES
}

/// Index of a flow within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// Index of an agg box in the active [`crate::deployment::BoxPlacement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoxId(pub u32);

/// A capacity-constrained resource a flow consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A directed fabric link.
    Link(LinkId),
    /// The switch-to-box attach link, ingress direction.
    BoxIn(BoxId),
    /// The box-to-switch attach link, egress direction.
    BoxOut(BoxId),
    /// The box's aggregation processor (paper: 9.2 Gbps per box); consumed
    /// by flows *entering* the box.
    BoxProc(BoxId),
}

/// What role a segment plays inside (or outside) an aggregation tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SegmentKind {
    /// Point-to-point traffic that cannot be aggregated (e.g. HDFS reads).
    Background,
    /// Worker partial result towards its first aggregation point (or the
    /// master directly when no aggregation applies).
    WorkerPartial,
    /// Output of an aggregation point towards the next aggregation point or
    /// the master.
    AggregatedOutput,
}

/// A single simulated flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Bytes to transfer.
    pub size: f64,
    /// Resources traversed, in path order.
    pub resources: Vec<Resource>,
    /// Flows whose output this flow forwards (indices into the flow vector).
    pub children: Vec<u32>,
    /// Effective data-reduction factor of the aggregation point producing
    /// this flow (`size / total input received`); 1.0 for leaves and
    /// pass-through nodes.
    pub alpha: f64,
    /// Bytes available locally at the producing node at `start` (a worker's
    /// own partial result), i.e. input that arrives without a network flow.
    pub local_input: f64,
    /// Simulation time at which the flow starts (stragglers start late).
    pub start: f64,
    /// Role of this segment in (or outside) an aggregation tree.
    pub kind: SegmentKind,
    /// Identifier of the request this flow belongs to; `None` for background.
    pub request: Option<u32>,
}

impl FlowSpec {
    /// A background (non-aggregatable) point-to-point flow.
    pub fn background(size: f64, links: impl IntoIterator<Item = LinkId>, start: f64) -> Self {
        Self {
            size,
            resources: links.into_iter().map(Resource::Link).collect(),
            children: Vec::new(),
            alpha: 1.0,
            local_input: size,
            start,
            kind: SegmentKind::Background,
            request: None,
        }
    }

    /// A leaf flow carrying locally available data (a worker's partial
    /// result): never production-capped.
    pub fn leaf(
        size: f64,
        resources: Vec<Resource>,
        start: f64,
        kind: SegmentKind,
        request: u32,
    ) -> Self {
        Self {
            size,
            resources,
            children: Vec::new(),
            alpha: 1.0,
            local_input: size,
            start,
            kind,
            request: Some(request),
        }
    }

    /// Whether this flow belongs to an aggregation request.
    pub fn is_aggregation_traffic(&self) -> bool {
        !matches!(self.kind, SegmentKind::Background)
    }

    /// Total input bytes feeding this flow's producing node (for invariant
    /// checks: `size == alpha x total_input`).
    pub fn total_input(&self, all: &[FlowSpec]) -> f64 {
        self.local_input
            + self
                .children
                .iter()
                .map(|&c| all[c as usize].size)
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_flows_have_no_tree_structure() {
        let f = FlowSpec::background(100.0, vec![LinkId(0)], 0.0);
        assert!(f.children.is_empty());
        assert!(!f.is_aggregation_traffic());
        assert_eq!(f.alpha, 1.0);
        assert_eq!(f.local_input, f.size);
    }

    #[test]
    fn leaf_flow_size_consistency() {
        let f = FlowSpec::leaf(
            512.0,
            vec![Resource::Link(LinkId(3))],
            0.0,
            SegmentKind::WorkerPartial,
            9,
        );
        let all = vec![f.clone()];
        assert_eq!(f.total_input(&all), 512.0);
        assert!((f.size - f.alpha * f.total_input(&all)).abs() < 1e-9);
    }
}
