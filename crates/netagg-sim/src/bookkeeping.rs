//! Run bookkeeping of the fluid engine: the resource table, the per-flow
//! lifecycle with its completion cascade, the start order and the result
//! assembly.
//!
//! None of this decides a rate or an event time, and both solvers of
//! [`crate::incremental`]'s one loop run over it, so it is held to
//! definitions rather than to their agreement: the closed forms in
//! `engine.rs`, and `tests/maxmin.rs`, whose oracle has its own lifecycle.

use crate::deployment::BoxPlacement;
use crate::engine::{EngineError, FlowRecord, SimResult};
use crate::flow::{FlowSpec, Resource};
use crate::topology::Topology;
use crate::ExperimentConfig;

/// Capacity of every resource, bytes/s. Layout: fabric links first, then
/// `[in, out, proc]` per agg box.
#[derive(Debug)]
pub(crate) struct ResourceTable {
    pub(crate) caps: Vec<f64>,
    num_links: usize,
}

impl ResourceTable {
    /// Build the table for a topology and deployment, rejecting
    /// zero/negative/non-finite capacities: a zero-capacity resource would
    /// give every flow crossing it a 0/0 = NaN rate, which would poison
    /// every f64 ordering in the event machinery.
    pub(crate) fn try_new(
        topo: &Topology,
        placement: &BoxPlacement,
        cfg: &ExperimentConfig,
    ) -> Result<Self, EngineError> {
        let mut caps: Vec<f64> = topo.links.iter().map(|l| l.capacity).collect();
        for _ in 0..placement.num_boxes() {
            caps.push(cfg.box_link); // in
            caps.push(cfg.box_link); // out
            caps.push(cfg.box_rate); // proc
        }
        for (resource, &capacity) in caps.iter().enumerate() {
            if !(capacity.is_finite() && capacity > 0.0) {
                return Err(EngineError::InvalidCapacity { resource, capacity });
            }
        }
        Ok(Self {
            caps,
            num_links: topo.num_links(),
        })
    }

    fn index(&self, r: Resource) -> u32 {
        let i = match r {
            Resource::Link(l) => l.0 as usize,
            Resource::BoxIn(b) => self.num_links + 3 * b.0 as usize,
            Resource::BoxOut(b) => self.num_links + 3 * b.0 as usize + 1,
            Resource::BoxProc(b) => self.num_links + 3 * b.0 as usize + 2,
        };
        i as u32
    }

    /// Flow → dense resource ids, in path order.
    pub(crate) fn index_lists(&self, flows: &[FlowSpec]) -> Vec<Vec<u32>> {
        flows
            .iter()
            .map(|f| f.resources.iter().map(|r| self.index(*r)).collect())
            .collect()
    }

    /// Assemble the run's result: one record per flow in expansion order,
    /// and link traffic totals (every flow pushed all its bytes over each
    /// link it traversed).
    pub(crate) fn result(&self, flows: &[FlowSpec], finish: &[f64], makespan: f64) -> SimResult {
        let mut link_bytes = vec![0.0; self.num_links];
        for f in flows {
            for r in &f.resources {
                if let Resource::Link(l) = r {
                    link_bytes[l.0 as usize] += f.size;
                }
            }
        }
        let records = flows
            .iter()
            .zip(finish)
            .map(|(f, &finish)| FlowRecord {
                size: f.size,
                start: f.start,
                finish,
                kind: f.kind,
                request: f.request,
            })
            .collect();
        SimResult {
            records,
            link_bytes,
            makespan,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    Pending,
    /// Transferring bytes.
    Active,
    /// All bytes pushed, waiting for children to complete.
    Drained,
    Done,
}

/// Per-flow lifecycle and aggregation-tree completion gating.
pub(crate) struct Lifecycle {
    pub(crate) state: Vec<State>,
    pub(crate) finish: Vec<f64>,
    open_children: Vec<u32>,
    parent: Vec<Option<u32>>,
    /// Flows not yet `Done`.
    pub(crate) open: usize,
}

impl Lifecycle {
    pub(crate) fn new(flows: &[FlowSpec]) -> Self {
        let n = flows.len();
        // A flow has at most one parent in an aggregation tree; assert
        // that to catch malformed inputs.
        let mut parent: Vec<Option<u32>> = vec![None; n];
        for (i, f) in flows.iter().enumerate() {
            for &c in &f.children {
                assert!(
                    parent[c as usize].is_none(),
                    "flow {c} has more than one parent"
                );
                parent[c as usize] = Some(i as u32);
            }
        }
        Self {
            state: vec![State::Pending; n],
            finish: vec![0.0; n],
            open_children: flows.iter().map(|f| f.children.len() as u32).collect(),
            parent,
            open: n,
        }
    }

    /// Flow `f` has pushed its last byte at `t`: it completes if every
    /// child already has, otherwise it is `Drained` until the last one does.
    pub(crate) fn delivered(&mut self, f: u32, t: f64) {
        if self.open_children[f as usize] == 0 {
            self.complete(f, t);
        } else {
            self.state[f as usize] = State::Drained;
        }
    }

    /// Complete `f` at `t`, cascading to drained parents whose last child
    /// just finished.
    fn complete(&mut self, mut f: u32, t: f64) {
        loop {
            // Completion is idempotent: a flow already recorded as done
            // (e.g. a residual that sat exactly on the epsilon boundary
            // and was classified delivered on two paths) must not be
            // counted twice — that would underflow `open` and corrupt
            // parent accounting.
            if self.state[f as usize] == State::Done {
                debug_assert!(false, "flow {f} completed twice");
                break;
            }
            self.state[f as usize] = State::Done;
            self.finish[f as usize] = t;
            self.open -= 1;
            match self.parent[f as usize] {
                Some(p) => {
                    self.open_children[p as usize] -= 1;
                    if self.open_children[p as usize] == 0
                        && self.state[p as usize] == State::Drained
                    {
                        f = p;
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
    }
}

/// `(start, flow)` pairs sorted descending, so the earliest pops from the
/// back.
pub(crate) fn starts_descending(flows: &[FlowSpec]) -> Vec<(f64, u32)> {
    let mut starts: Vec<(f64, u32)> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| (f.start, i as u32))
        .collect();
    starts.sort_by(|a, b| b.0.total_cmp(&a.0));
    starts
}
