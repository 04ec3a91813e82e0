//! Incremental max-min fluid engine: event-driven, certificate-verified
//! local repair.
//!
//! [`crate::engine::Engine`] (the reference solver) recomputes the full
//! progressive-filling allocation over *every* active flow at *every*
//! event — quadratic work that tops out near the paper's 1,024-server
//! scale. This engine reaches the 10,240-server fabric by doing three
//! things differently:
//!
//! 1. **Versioned calendar events** ([`crate::events`]): each active flow
//!    has exactly one scheduled *projected completion*. When a re-solve
//!    changes the flow's rate, its version is bumped and a new event is
//!    pushed; the stale one is discarded in O(1) when the queue walks over
//!    it (minim's `version` trick, SNIPPETS.md §2).
//! 2. **Lazy byte settlement**: per flow the engine stores
//!    `(remaining, rate, settled_at)` and only folds elapsed time into
//!    `remaining` when the flow enters a re-solve scope or completes.
//!    Untouched flows cost nothing per event.
//! 3. **Bottleneck-scoped re-solves**: on each event only the flows that
//!    share a resource with the arriving/departing flows (the *scope*) are
//!    re-solved, with every out-of-scope flow's bandwidth frozen. The
//!    result is then checked against the max-min optimality certificate
//!    below; only when a certificate fails does the scope expand.
//!
//! # Why certificate verification makes the local repair exact
//!
//! Max-min fairness has a classic characterisation (Bertsekas & Gallager,
//! *Data Networks*, §6.5.2): a feasible allocation is **the** (unique)
//! max-min fair allocation iff every flow `f` has a *bottleneck* resource
//! `r` on its path with (i) `r` saturated and (ii) `rate(f) >= rate(g)`
//! for every flow `g` crossing `r`.
//!
//! A local re-solve over a scope `C` (a seeded waterfill with out-of-scope
//! rates frozen) always yields a
//! *feasible* allocation, but it can be globally unfair: a scope flow may
//! be pinned by a frozen flow that itself ought to yield (removals can
//! *lower* third-party rates through a cascade, so no monotonicity
//! argument applies). The engine therefore verifies certificates after
//! each local solve:
//!
//! * every scope flow is checked directly;
//! * a frozen flow's certificate can only break at a resource whose
//!   crosser-maximum rose or whose saturation was lost, so only frozen
//!   crossers of such *flagged* resources (plus the seed resources the
//!   event itself changed) are re-checked — every other flow keeps its old
//!   certificate verbatim because nothing on its path changed;
//! * any flow that fails joins the scope together with the crossers of its
//!   saturated resources (the flows pinning it), and the scope is
//!   re-solved.
//!
//! If certificates keep failing after [`MAX_EXPANSIONS`] rounds the engine
//! falls back to one global waterfill over all active flows, which is
//! exact by construction. In practice (the benchmark's `sim.expansions`
//! and `sim.fallbacks` ledger rows) the first scope — the bottleneck
//! cohort of the event — verifies almost always,
//! so per-event work is proportional to the flows whose rates actually
//! change, not to the number of active flows.
//!
//! # Invariants
//!
//! | invariant | maintained by |
//! |---|---|
//! | every `Active` flow has exactly one valid scheduled event | version bump + push on every rate change / deactivation |
//! | `crossers[r]` lists exactly the `Active` flows using `r` | admission push / swap-remove on deactivation (slot fix-up) |
//! | re-solve seeds are exact sums, not drifting accumulators | frozen bandwidth is re-scanned from `crossers[r]` per re-solve |
//! | completion uses [`crate::flow::delivered`] | single shared epsilon boundary (see `flow.rs`) |
//! | every committed allocation satisfies the max-min certificate | per-flow verification + scope expansion + global fallback |
//!
//! Results match the reference engine within floating-point accumulation
//! order (parity is pinned to 1e-6 relative by
//! `tests/incremental_parity.rs`), and identical inputs give byte-identical
//! [`SimResult`]s: the engine iterates only `Vec`s, never hash maps, in
//! event order.

use crate::bookkeeping::{starts_descending, Lifecycle, ResourceTable, State};
use crate::deployment::BoxPlacement;
use crate::engine::{Allocator, EngineError, SimResult};
use crate::events::{CalendarQueue, Event};
use crate::flow::{self, FlowSpec};
use crate::topology::Topology;
use crate::ExperimentConfig;

/// Scope-expansion rounds before giving up and re-solving globally.
pub const MAX_EXPANSIONS: u32 = 4;

/// Relative tolerance for the certificate checks (saturation and
/// crosser-maximum comparisons). Frozen rates are carried bitwise and
/// seeds are exact re-scans, so only waterfill accumulation noise has to
/// be absorbed; 1e-9 is orders of magnitude above that and orders of
/// magnitude below the 1e-6 parity tolerance.
const CERT_TOL: f64 = 1e-9;

/// Counters describing how much work one incremental run did; the basis of
/// the benchmark's `events_per_s` metric and its `sim.*` ledger rows.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct EngineStats {
    /// Flow starts admitted.
    pub starts: u64,
    /// Completion events popped from the calendar queue (incl. spurious).
    pub completions: u64,
    /// Stale events discarded in O(1) by the version check.
    pub stale_discards: u64,
    /// Wakeups whose flow had residual bytes left (FP drift); rescheduled.
    pub spurious_wakeups: u64,
    /// Scoped re-solves performed (one per event that touched any flow).
    pub resolves: u64,
    /// Total flows re-rated across all re-solve rounds.
    pub resolved_flows: u64,
    /// Largest single re-solve scope.
    pub max_scope: u64,
    /// Certificate failures that grew a scope and re-solved it.
    pub expansions: u64,
    /// Re-solves that gave up on local repair and went global.
    pub fallbacks: u64,
}

impl EngineStats {
    /// Total simulation events processed (starts + completions).
    pub fn events(&self) -> u64 {
        self.starts + self.completions
    }
}

/// Per-flow state, lazily settled: `remaining` is exact only at
/// `settled_at`; the live residual is `remaining - rate * (t - settled_at)`.
struct Flows {
    /// Flow -> resource ids (dense, see [`ResourceTable::index_lists`]).
    res: Vec<Vec<u32>>,
    /// Parallel to `res`: this flow's slot in `crossers[r]`.
    slot: Vec<Vec<u32>>,
    remaining: Vec<f64>,
    settled_at: Vec<f64>,
    rate: Vec<f64>,
    /// Rate at scope entry (valid while `in_scope` holds the current id).
    old_rate: Vec<f64>,
    version: Vec<u32>,
    /// Scope-membership stamp (generation counter, never cleared).
    in_scope: Vec<u64>,
    /// Dedup stamp for frozen-flow certificate checks.
    checked: Vec<u64>,
}

impl Flows {
    fn settle(&mut self, f: usize, t: f64) {
        let dt = t - self.settled_at[f];
        if dt > 0.0 && self.rate[f] > 0.0 {
            self.remaining[f] = (self.remaining[f] - self.rate[f] * dt).max(0.0);
        }
        self.settled_at[f] = t;
    }
}

/// Per-resource state: capacity, the live crosser list, and memoised
/// per-re-solve scan results (stamp-guarded, never cleared).
struct Resources {
    caps: Vec<f64>,
    /// Active flows crossing each resource as `(flow, j)` where `j` is the
    /// resource's position in `res[flow]` (for O(1) swap-remove fix-up).
    crossers: Vec<Vec<(u32, u32)>>,
    stamp: Vec<u64>,
    flag_stamp: Vec<u64>,
    gen: u64,
    /// Frozen (out-of-scope) bandwidth per resource, exact re-scan.
    seed: Vec<f64>,
    sum_old: Vec<f64>,
    sum_new: Vec<f64>,
    max_old: Vec<f64>,
    max_new: Vec<f64>,
}

impl Resources {
    fn new(caps: Vec<f64>) -> Self {
        let nr = caps.len();
        Self {
            caps,
            crossers: vec![Vec::new(); nr],
            stamp: vec![0; nr],
            flag_stamp: vec![0; nr],
            gen: 0,
            seed: vec![0.0; nr],
            sum_old: vec![0.0; nr],
            sum_new: vec![0.0; nr],
            max_old: vec![0.0; nr],
            max_new: vec![0.0; nr],
        }
    }

    /// Memoised exact scan of `r`'s crossers: old/new rate sums and maxima
    /// ("old" = rate at scope entry for scope members, current otherwise).
    fn ensure(&mut self, r: usize, fl: &Flows, scope_id: u64) {
        if self.stamp[r] == self.gen {
            return;
        }
        self.stamp[r] = self.gen;
        let (mut so, mut sn, mut mo, mut mn) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for &(g, _) in &self.crossers[r] {
            let g = g as usize;
            let new = fl.rate[g];
            let old = if fl.in_scope[g] == scope_id {
                fl.old_rate[g]
            } else {
                new
            };
            so += old;
            sn += new;
            if old > mo {
                mo = old;
            }
            if new > mn {
                mn = new;
            }
        }
        self.sum_old[r] = so;
        self.sum_new[r] = sn;
        self.max_old[r] = mo;
        self.max_new[r] = mn;
    }

    fn saturated_old(&self, r: usize) -> bool {
        self.sum_old[r] >= self.caps[r] * (1.0 - CERT_TOL)
    }

    fn saturated_new(&self, r: usize) -> bool {
        self.sum_new[r] >= self.caps[r] * (1.0 - CERT_TOL)
    }
}

/// Does `f` hold a max-min bottleneck certificate under the current
/// (tentative) rates: some saturated resource on its path where it is the
/// fastest crosser?
fn certificate(f: u32, fl: &Flows, rt: &mut Resources, scope_id: u64) -> bool {
    let fu = f as usize;
    let xf = fl.rate[fu];
    fl.res[fu].iter().any(|&r| {
        let r = r as usize;
        rt.ensure(r, fl, scope_id);
        rt.saturated_new(r) && xf >= rt.max_new[r] * (1.0 - CERT_TOL)
    })
}

fn add_to_scope(g: u32, t: f64, fl: &mut Flows, scope: &mut Vec<u32>, scope_id: u64) {
    let gu = g as usize;
    if fl.in_scope[gu] != scope_id {
        fl.in_scope[gu] = scope_id;
        fl.old_rate[gu] = fl.rate[gu];
        fl.settle(gu, t);
        scope.push(g);
    }
}

/// Re-solve the allocation around an event at time `t`.
///
/// `seeds` are the resources the event itself changed (the departed
/// flow's path, or the union of newly admitted paths); the initial scope
/// is their full crosser set. Solve locally (out-of-scope rates frozen),
/// verify certificates, expand on failure, fall back to a global solve
/// after [`MAX_EXPANSIONS`] rounds, then commit: bump versions and push
/// fresh events for every flow whose rate changed bitwise.
#[allow(clippy::too_many_arguments)]
fn resolve(
    t: f64,
    seeds: &[u32],
    fl: &mut Flows,
    rt: &mut Resources,
    scope: &mut Vec<u32>,
    touched: &mut Vec<u32>,
    flagged: &mut Vec<u32>,
    failures: &mut Vec<u32>,
    active_list: &[u32],
    alloc: &mut Allocator,
    queue: &mut Option<CalendarQueue>,
    scope_id: &mut u64,
    stats: &mut EngineStats,
) {
    *scope_id += 1;
    let sid = *scope_id;
    scope.clear();
    for &r in seeds {
        for i in 0..rt.crossers[r as usize].len() {
            let (g, _) = rt.crossers[r as usize][i];
            add_to_scope(g, t, fl, scope, sid);
        }
    }
    if scope.is_empty() {
        return;
    }
    stats.resolves += 1;

    let mut round = 0u32;
    loop {
        // Deterministic input order: the waterfill's FP accumulation (and
        // thus the byte-identical-result fence) must not depend on crosser
        // list history.
        scope.sort_unstable();
        stats.resolved_flows += scope.len() as u64;
        stats.max_scope = stats.max_scope.max(scope.len() as u64);

        // Seed pass: exact frozen-bandwidth re-scan per touched resource
        // (out-of-scope crossers keep their committed rates, so seeds never
        // accumulate drift across re-solves).
        rt.gen += 1;
        touched.clear();
        for &f in scope.iter() {
            for &r in &fl.res[f as usize] {
                let r = r as usize;
                if rt.stamp[r] != rt.gen {
                    rt.stamp[r] = rt.gen;
                    touched.push(r as u32);
                    let mut frozen = 0.0;
                    for &(g, _) in &rt.crossers[r] {
                        if fl.in_scope[g as usize] != sid {
                            frozen += fl.rate[g as usize];
                        }
                    }
                    rt.seed[r] = frozen;
                }
            }
        }
        {
            let seed = &rt.seed;
            let base = |r: usize| seed[r].max(0.0);
            alloc.waterfill_seeded(scope, &fl.res, &rt.caps, &mut fl.rate, Some(&base));
        }

        if scope.len() == active_list.len() {
            break; // Global solve: exact by construction, nothing to verify.
        }
        if round > MAX_EXPANSIONS {
            stats.fallbacks += 1;
            for &g in active_list {
                add_to_scope(g, t, fl, scope, sid);
            }
            continue; // Next round is the global solve and breaks above.
        }

        // Verify pass. Flagged resources: the seeds themselves, plus any
        // touched resource whose crosser-maximum rose or whose saturation
        // was lost — the only two changes that can break a frozen flow's
        // existing certificate.
        rt.gen += 1;
        flagged.clear();
        for &r in seeds {
            if rt.flag_stamp[r as usize] != rt.gen {
                rt.flag_stamp[r as usize] = rt.gen;
                flagged.push(r);
            }
        }
        for &r in touched.iter() {
            let r = r as usize;
            if rt.flag_stamp[r] == rt.gen {
                continue;
            }
            rt.ensure(r, fl, sid);
            if rt.max_new[r] > rt.max_old[r] || (rt.saturated_old(r) && !rt.saturated_new(r)) {
                rt.flag_stamp[r] = rt.gen;
                flagged.push(r as u32);
            }
        }
        failures.clear();
        for &f in scope.iter() {
            if !certificate(f, fl, rt, sid) {
                failures.push(f);
            }
        }
        for &r in flagged.iter() {
            let r = r as usize;
            for j in 0..rt.crossers[r].len() {
                let (g, _) = rt.crossers[r][j];
                let gu = g as usize;
                if fl.in_scope[gu] == sid || fl.checked[gu] == rt.gen {
                    continue;
                }
                fl.checked[gu] = rt.gen;
                if !certificate(g, fl, rt, sid) {
                    failures.push(g);
                }
            }
        }
        if failures.is_empty() {
            break;
        }

        // Expansion: each failing flow joins the scope along with the
        // blockers pinning it — every crosser of its saturated resources.
        stats.expansions += 1;
        let before = scope.len();
        for &f in failures.iter() {
            add_to_scope(f, t, fl, scope, sid);
            for j in 0..fl.res[f as usize].len() {
                let r = fl.res[f as usize][j] as usize;
                rt.ensure(r, fl, sid);
                if !rt.saturated_new(r) {
                    continue;
                }
                for k in 0..rt.crossers[r].len() {
                    let (g, _) = rt.crossers[r][k];
                    add_to_scope(g, t, fl, scope, sid);
                }
            }
        }
        if scope.len() == before {
            // Nothing new to add locally; only the global solve can fix it.
            round = MAX_EXPANSIONS;
        }
        round += 1;
    }

    // Commit: reschedule exactly the flows whose rate changed bitwise; an
    // unchanged flow's scheduled event still fires at the right absolute
    // time (linear drain), so it is kept.
    for &f in scope.iter() {
        let fu = f as usize;
        let (old, new) = (fl.old_rate[fu], fl.rate[fu]);
        if new.to_bits() == old.to_bits() {
            continue;
        }
        assert!(
            new.is_finite() && new > 0.0,
            "re-solve assigned degenerate rate {new} to flow {f} at t={t}"
        );
        fl.version[fu] += 1;
        let ev = Event {
            time: t + fl.remaining[fu] / new,
            flow: f,
            version: fl.version[fu],
        };
        let q = queue.get_or_insert_with(|| {
            // First-ever schedule: size the calendar from this batch's
            // projected completions. Mis-tuning degrades to linear bucket
            // scans / cursor jumps, never wrong order.
            let k = scope.len();
            let mean_dt = scope
                .iter()
                .map(|&f| fl.remaining[f as usize] / fl.rate[f as usize].max(1e-30))
                .sum::<f64>()
                / k as f64;
            let width = (mean_dt / 4.0).max(1e-9);
            CalendarQueue::new((2 * k).clamp(64, 1 << 17), width)
        });
        q.push(ev);
    }
}

/// The production engine: same fluid model and capacity table as
/// [`crate::engine::Engine`], selectable via
/// [`crate::EngineKind::Incremental`] (the default).
#[derive(Debug)]
pub struct IncrementalEngine {
    table: ResourceTable,
}

impl IncrementalEngine {
    /// Build the resource capacity table for a topology and deployment.
    ///
    /// Panics if any resource capacity is non-positive or non-finite; use
    /// [`IncrementalEngine::try_new`] to handle that case as an error.
    pub fn new(topo: &Topology, placement: &BoxPlacement, cfg: &ExperimentConfig) -> Self {
        Self::try_new(topo, placement, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the engine, rejecting zero/negative/non-finite capacities.
    pub fn try_new(
        topo: &Topology,
        placement: &BoxPlacement,
        cfg: &ExperimentConfig,
    ) -> Result<Self, EngineError> {
        Ok(Self {
            table: ResourceTable::try_new(topo, placement, cfg)?,
        })
    }

    /// Run all flows to completion. See [`IncrementalEngine::run_stats`].
    pub fn run(&mut self, flows: Vec<FlowSpec>) -> SimResult {
        self.run_stats(flows).0
    }

    /// Run all flows to completion, also returning event/re-solve counters.
    pub fn run_stats(&mut self, flows: Vec<FlowSpec>) -> (SimResult, EngineStats) {
        let n = flows.len();
        let res_lists = self.table.index_lists(&flows);
        let mut life = Lifecycle::new(&flows);

        let mut fl = Flows {
            slot: res_lists.iter().map(|l| vec![0; l.len()]).collect(),
            res: res_lists,
            remaining: flows.iter().map(|f| f.size).collect(),
            settled_at: vec![0.0; n],
            rate: vec![0.0; n],
            old_rate: vec![0.0; n],
            version: vec![0; n],
            in_scope: vec![0; n],
            checked: vec![0; n],
        };
        let mut rt = Resources::new(self.table.caps.clone());

        let mut active_list: Vec<u32> = Vec::new();
        let mut active_pos: Vec<u32> = vec![u32::MAX; n];
        let mut alloc = Allocator::new(rt.caps.len());
        let mut queue: Option<CalendarQueue> = None;

        // Scratch buffers reused across re-solves.
        let mut scope: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        let mut flagged: Vec<u32> = Vec::new();
        let mut failures: Vec<u32> = Vec::new();
        let mut seeds: Vec<u32> = Vec::new();
        let mut scope_id = 0u64;

        let mut stats = EngineStats::default();

        let mut starts = starts_descending(&flows);

        let mut t = 0.0f64;
        while life.open > 0 {
            // Admit every flow starting now (same 1e-12 slack as the
            // reference engine's event batching).
            seeds.clear();
            while let Some(&(s, i)) = starts.last() {
                if s > t + 1e-12 {
                    break;
                }
                starts.pop();
                stats.starts += 1;
                let iu = i as usize;
                debug_assert_eq!(life.state[iu], State::Pending);
                if flow::delivered(fl.remaining[iu]) {
                    // Zero-byte flow: immediately drained.
                    life.delivered(i, t);
                } else {
                    life.state[iu] = State::Active;
                    fl.settled_at[iu] = t;
                    for (j, &r) in fl.res[iu].iter().enumerate() {
                        fl.slot[iu][j] = rt.crossers[r as usize].len() as u32;
                        rt.crossers[r as usize].push((i, j as u32));
                    }
                    active_pos[iu] = active_list.len() as u32;
                    active_list.push(i);
                    seeds.extend_from_slice(&fl.res[iu]);
                }
            }
            if !seeds.is_empty() {
                seeds.sort_unstable();
                seeds.dedup();
                resolve(
                    t,
                    &seeds,
                    &mut fl,
                    &mut rt,
                    &mut scope,
                    &mut touched,
                    &mut flagged,
                    &mut failures,
                    &active_list,
                    &mut alloc,
                    &mut queue,
                    &mut scope_id,
                    &mut stats,
                );
            }

            // Next event: earliest projected completion vs. next start.
            let next_start = starts.last().map(|&(s, _)| s);
            let ev = queue.as_mut().and_then(|q| q.pop_min(&fl.version));
            let ev = match (ev, next_start) {
                (None, None) => {
                    // Only drained flows could remain, and the cascade has
                    // already completed them (their children are all done).
                    debug_assert_eq!(life.open, 0, "drained flows stuck with open children");
                    break;
                }
                (None, Some(s)) => {
                    t = t.max(s);
                    continue;
                }
                (Some(e), Some(s)) if s < e.time => {
                    // The start comes first; the popped event is still
                    // valid, so put it back untouched.
                    queue.as_mut().expect("queue produced an event").push(e);
                    t = t.max(s);
                    continue;
                }
                (Some(e), _) => e,
            };

            stats.completions += 1;
            t = t.max(ev.time);
            let f = ev.flow as usize;
            debug_assert_eq!(life.state[f], State::Active);
            fl.settle(f, t);
            if !flow::delivered(fl.remaining[f]) {
                // Settlement rounding left residual bytes: reschedule.
                stats.spurious_wakeups += 1;
                fl.version[f] += 1;
                queue
                    .as_mut()
                    .expect("queue produced an event")
                    .push(Event {
                        time: t + fl.remaining[f] / fl.rate[f],
                        flow: ev.flow,
                        version: fl.version[f],
                    });
                continue;
            }
            fl.remaining[f] = 0.0;
            // Deactivate: release the flow's crosser slots and list entry.
            for j in 0..fl.res[f].len() {
                let r = fl.res[f][j] as usize;
                let s = fl.slot[f][j] as usize;
                rt.crossers[r].swap_remove(s);
                if let Some(&(mf, mj)) = rt.crossers[r].get(s) {
                    fl.slot[mf as usize][mj as usize] = s as u32;
                }
            }
            let pos = active_pos[f] as usize;
            active_list.swap_remove(pos);
            if let Some(&moved) = active_list.get(pos) {
                active_pos[moved as usize] = pos as u32;
            }
            active_pos[f] = u32::MAX;
            fl.rate[f] = 0.0;
            fl.version[f] += 1;
            life.delivered(ev.flow, t);

            // Re-solve around the freed capacity: the departed flow's path.
            seeds.clear();
            seeds.extend_from_slice(&fl.res[f]);
            resolve(
                t,
                &seeds,
                &mut fl,
                &mut rt,
                &mut scope,
                &mut touched,
                &mut flagged,
                &mut failures,
                &active_list,
                &mut alloc,
                &mut queue,
                &mut scope_id,
                &mut stats,
            );
        }
        if let Some(q) = &queue {
            stats.stale_discards = q.stale_discards();
        }

        (self.table.result(&flows, &life.finish, t), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::flow::{Resource, SegmentKind};
    use crate::topology::TopologyConfig;
    use crate::{EngineKind, Strategy, GBPS};

    fn quick_cfg() -> (crate::Topology, ExperimentConfig) {
        let topo = crate::Topology::build(&TopologyConfig::quick());
        let cfg = ExperimentConfig {
            topology: topo.config.clone(),
            workload: crate::WorkloadConfig::default(),
            strategy: Strategy::Direct,
            deployment: Deployment::None,
            box_rate: 9.2 * GBPS,
            box_link: 10.0 * GBPS,
            engine: EngineKind::Incremental,
        };
        (topo, cfg)
    }

    #[test]
    fn single_flow_matches_closed_form() {
        let (topo, cfg) = quick_cfg();
        let placement = BoxPlacement::new(&topo, &cfg.deployment);
        let mut eng = IncrementalEngine::new(&topo, &placement, &cfg);
        let route = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let size = 1e6;
        let (res, stats) = eng.run_stats(vec![FlowSpec::background(size, route.links, 0.0)]);
        let expected = size / GBPS;
        let fct = res.records[0].fct();
        assert!(
            (fct - expected).abs() < 1e-6 * expected,
            "fct {fct} expected {expected}"
        );
        assert_eq!(stats.starts, 1);
        assert_eq!(stats.completions, 1);
    }

    #[test]
    fn staggered_sharing_matches_reference_staircase() {
        let (topo, cfg) = quick_cfg();
        let placement = BoxPlacement::new(&topo, &cfg.deployment);
        let mut eng = IncrementalEngine::new(&topo, &placement, &cfg);
        let r1 = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let r2 = crate::routing::server_route(&topo, topo.server(2), topo.server(1), 0);
        let res = eng.run(vec![
            FlowSpec::background(1e6, r1.links, 0.0),
            FlowSpec::background(3e6, r2.links, 0.0),
        ]);
        let t_short = 2e6 / GBPS;
        let t_long = 4e6 / GBPS;
        assert!((res.records[0].fct() - t_short).abs() < 1e-6 * t_short);
        assert!((res.records[1].fct() - t_long).abs() < 1e-6 * t_long);
    }

    #[test]
    fn completion_gating_matches_reference() {
        let (topo, cfg) = quick_cfg();
        let placement = BoxPlacement::new(&topo, &cfg.deployment);
        let mut eng = IncrementalEngine::new(&topo, &placement, &cfg);
        let rin = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let rout = crate::routing::server_route(&topo, topo.server(1), topo.server(2), 0);
        let child = FlowSpec::leaf(
            2e6,
            rin.links.into_iter().map(Resource::Link).collect(),
            0.0,
            SegmentKind::WorkerPartial,
            0,
        );
        let parent = FlowSpec {
            size: 1e6,
            resources: rout.links.into_iter().map(Resource::Link).collect(),
            children: vec![0],
            alpha: 0.5,
            local_input: 0.0,
            start: 0.0,
            kind: SegmentKind::AggregatedOutput,
            request: Some(0),
        };
        let res = eng.run(vec![child, parent]);
        let t_child = 2e6 / GBPS;
        assert!((res.records[0].fct() - t_child).abs() < 1e-6 * t_child);
        assert!(
            (res.records[1].finish - t_child).abs() < 1e-6 * t_child,
            "parent finish {} expected {t_child}",
            res.records[1].finish,
        );
    }

    /// The squeeze cascade: removing a flow can *lower* a third party's
    /// rate (max-min is not monotone under removal). A departure on one
    /// link lets a two-link flow rise, which must squeeze a flow that
    /// never shared anything with the departed one — reachable only
    /// through certificate verification, not through the departed flow's
    /// path.
    #[test]
    fn certificate_expansion_squeezes_third_party() {
        let (topo, cfg) = quick_cfg();
        let placement = BoxPlacement::new(&topo, &cfg.deployment);
        let ra = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let rb = crate::routing::server_route(&topo, topo.server(0), topo.server(2), 0);
        let rc = crate::routing::server_route(&topo, topo.server(3), topo.server(2), 0);
        // C (small, into server 2) finishes first; its departure frees
        // server 2's downlink, B rises to its server-0-uplink share and
        // squeezes A, which shares only that uplink with B.
        let specs = vec![
            FlowSpec::background(8e6, ra.links.clone(), 0.0),
            FlowSpec::background(8e6, rb.links.clone(), 0.0),
            FlowSpec::background(1e6, rc.links.clone(), 0.0),
        ];
        let mut inc = IncrementalEngine::new(&topo, &placement, &cfg);
        let got = inc.run(specs.clone());
        let mut reference = crate::engine::Engine::new(&topo, &placement, &cfg);
        let want = reference.run(specs);
        for (i, (a, b)) in got.records.iter().zip(&want.records).enumerate() {
            assert!(
                (a.finish - b.finish).abs() <= 1e-6 * b.finish.max(1e-9),
                "flow {i}: incremental {} vs reference {}",
                a.finish,
                b.finish
            );
        }
    }
}
