//! The fluid engine: one event loop, two rate solvers.
//!
//! The loop is event-driven over a heap of projected completions with
//! lazily settled bytes; at each event a solver decides which flows are
//! re-rated.
//! `GlobalWaterfill` ([`EngineKind::Reference`]) re-rates *every* active
//! flow at *every* event — exact by construction and quadratic, the oracle
//! the parity suites compare against. `ScopedRepair`
//! ([`EngineKind::Incremental`], production) re-rates the flows around the
//! event and proves the rest may keep their rates; it reaches the
//! 10,240-server fabric. The solver is a type parameter of the loop, so
//! the two differ in the scope and in nothing else; what that sharing
//! cannot witness is held to definitions instead (DESIGN.md §13 lists the
//! evidence and the test behind each item).
//!
//! Three mechanisms keep per-event work proportional to what changes:
//!
//! 1. **One projected completion per flow** ([`crate::events`]): an
//!    indexed min-heap holds exactly one entry per active flow. When a
//!    re-solve changes the flow's rate, pushing its new projection re-keys
//!    that entry in place, so a superseded projection is never stored,
//!    scanned or popped: the queue is as deep as the active set.
//! 2. **Lazy byte settlement**: per flow the engine stores
//!    `(remaining, rate, settled_at)` and only folds elapsed time into
//!    `remaining` when the flow enters a re-solve scope or completes.
//!    Untouched flows cost nothing per event.
//! 3. **Bottleneck-scoped re-solves** (`ScopedRepair` only): on each event
//!    only the flows that share a resource with the arriving/departing
//!    flows (the *scope*) are re-solved, with every out-of-scope flow's
//!    bandwidth frozen, and each resource is read once: the seed pass
//!    scans a touched resource's crossers into a row of a dense per-fill
//!    table (`engine::Slot`) and writes each scope flow's path as rows;
//!    the fill runs over rows and leaves each row's new load and maximum
//!    behind; the max-min optimality certificate below is then read off
//!    the same rows. Only when a certificate fails does the scope expand.
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
//! * every scope flow is checked on its rows of the table (no crosser is
//!   read), and the resource it holds its certificate at is *recorded*
//!   (`Flows::bneck`);
//! * a frozen flow's certificate can only break at a resource whose
//!   crosser-maximum rose or whose saturation was lost (*flagged*: a row's
//!   old against its new columns), so a frozen crosser of a flagged
//!   resource is re-checked in full — the table where the scope touches
//!   its path, a crosser scan on demand where not — only if its recorded
//!   bottleneck is itself flagged; everyone else keeps the old certificate
//!   verbatim. (The seeds need no flag: all their crossers are in the
//!   scope.) A certificate found elsewhere is recorded once the round
//!   commits: a record holds under *committed* rates, which is what the
//!   flags are relative to;
//! * any flow that fails joins the scope together with the crossers of its
//!   saturated resources (the flows pinning it), and the scope is
//!   re-solved.
//!
//! A scope is expanded at most [`MAX_EXPANSIONS`] times: when the verify
//! after the last expansion fails too — the fifth — or an expansion finds
//! nothing new to add, the solver falls back to `GlobalWaterfill`'s scope,
//! every active flow, which is exact by construction; the fallback is
//! decided before anything more is filled. How often the first scope —
//! the bottleneck cohort of the event — verifies is a measured thing (the
//! benchmark's `sim.expansions` and `sim.fallbacks` ledger rows): on
//! `sim-sparse` there are 0.43 expansions per re-solve (4 278 / 10 012,
//! seed 1) and no fallback, and about half the flows filled are expansion
//! re-fills; on `sim-dense` it is 0.81. Per-event work is still
//! proportional to the flows around the event, not to the active flows.
//!
//! # Invariants
//!
//! | invariant | maintained by |
//! |---|---|
//! | every `Active` flow has exactly one scheduled event | structural: the queue holds one entry per flow, `push` re-keys it; `queue.len() == active_list.len()` asserted after every commit in debug builds |
//! | `crossers[r]` lists exactly the `Active` flows using `r` | admission push / swap-remove on deactivation (slot fix-up) |
//! | re-solve seeds are exact sums, not drifting accumulators | frozen bandwidth is re-scanned from `crossers[r]` per re-solve, once, in the seed pass |
//! | a recorded bottleneck is a certificate: on the flow's path, saturated, the flow fastest there | written where a verify pass (or a global fill) found it; moves of frozen flows applied at commit; asserted for every active flow after every commit in debug builds |
//! | completion uses [`crate::flow::delivered`] | single shared epsilon boundary (see `flow.rs`) |
//! | every committed allocation satisfies the max-min certificate | per-flow verification + scope expansion + global fallback; asserted on the full rate vector in debug builds |
//!
//! The two solvers agree within floating-point accumulation order (parity
//! is pinned to 1e-6 relative by `tests/incremental_parity.rs`), and
//! identical inputs give byte-identical [`SimResult`]s: the engine
//! iterates only `Vec`s, never hash maps, in event order.

use crate::bookkeeping::{starts_descending, Lifecycle, ResourceTable, State};
use crate::deployment::BoxPlacement;
use crate::engine::{Allocator, EngineError, SimResult, Slot};
use crate::events::{Event, EventQueue};
use crate::flow::{self, FlowSpec};
use crate::topology::Topology;
use crate::{EngineKind, ExperimentConfig};

/// Expansions of one scope before giving up and re-solving globally.
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
    /// Completion events popped from the event queue (incl. spurious).
    pub completions: u64,
    /// Projections superseded before they fired: a flow re-rated while
    /// scheduled, counted when its queue entry is re-keyed.
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
    /// Crosser-list entries read by seed passes and on-demand scans.
    pub crossers_read: u64,
    /// Out-of-scope crossers of flagged resources the verify passes met.
    pub frozen_visited: u64,
    /// Of those, the ones re-checked in full: recorded bottleneck flagged.
    pub frozen_rechecked: u64,
    /// Committed re-checks that found the certificate at another resource.
    pub bottleneck_moved: u64,
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
    /// Stamp of the flow's latest projection (what the queue's entry for
    /// the flow must carry to be popped).
    version: Vec<u32>,
    /// Scope-membership stamp (generation counter, never cleared).
    in_scope: Vec<u64>,
    /// Dedup stamp for frozen-flow certificate checks.
    checked: Vec<u64>,
    /// The resource the flow holds its bottleneck certificate at under the
    /// committed rates, recorded when it was last checked; `u32::MAX` =
    /// none on record, always re-checked.
    bneck: Vec<u32>,
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

/// What stays resource-indexed: one record per resource and its live
/// crosser list; what a re-solve computes about it is in the fill's [`Slot`].
struct Resources {
    res: Vec<Res>,
    /// Active flows crossing each resource as `(flow, j)` where `j` is the
    /// resource's position in `res[flow]` (for O(1) swap-remove fix-up).
    crossers: Vec<Vec<(u32, u32)>>,
    /// Generation of the latest fill (stamps are never cleared).
    gen: u64,
}

#[derive(Default)]
struct Res {
    cap: f64,
    /// `== gen`: the latest fill touches the resource, at `slot`.
    stamp: u64,
    /// `== gen`: flagged by the latest verify pass.
    flag_stamp: u64,
    slot: u32,
}

impl Resources {
    fn new(caps: Vec<f64>) -> Self {
        let rec = |cap| Res {
            cap,
            ..Res::default()
        };
        Self {
            crossers: vec![Vec::new(); caps.len()],
            res: caps.into_iter().map(rec).collect(),
            gen: 0,
        }
    }

    /// Load, crosser-maximum and capacity of `r` under the tentative
    /// rates: read off the fill's table if the scope touches `r`, else —
    /// every crosser is frozen — scanned on demand, counted in `read`.
    fn load(&self, r: u32, slots: &[Slot], fl: &Flows, read: &mut u64) -> (f64, f64, f64) {
        let rec = &self.res[r as usize];
        if rec.stamp == self.gen {
            let s = &slots[rec.slot as usize];
            return (s.sum_new, s.max_new, s.cap);
        }
        let list = &self.crossers[r as usize];
        *read += list.len() as u64;
        let (mut sum, mut max) = (0.0f64, 0.0f64);
        for &(g, _) in list {
            sum += fl.rate[g as usize];
            max = max.max(fl.rate[g as usize]);
        }
        (sum, max, rec.cap)
    }
}

fn saturated(load: f64, cap: f64) -> bool {
    load >= cap * (1.0 - CERT_TOL)
}

/// The bottleneck condition: a flow at rate `x` holds its max-min
/// certificate at a saturated resource where it is the fastest crosser.
fn bottleneck(x: f64, load: f64, max: f64, cap: f64) -> bool {
    saturated(load, cap) && x >= max * (1.0 - CERT_TOL)
}

/// The first resource on the path of the scope flow at `pos` at which it
/// holds a certificate under the fill's rates (`u32::MAX`: none), read off
/// the table.
fn scope_certificate(al: &Allocator, pos: usize, x: f64) -> u32 {
    let mut path = al.path(pos).iter().map(|&s| &al.slots[s as usize]);
    path.find(|s| bottleneck(x, s.sum_new, s.max_new, s.cap))
        .map_or(u32::MAX, |s| s.res)
}

/// Which flows an event re-rates. The solvers share everything else — the
/// loop, settlement, the seeded waterfill, the commit — so the oracle
/// differs from production in the scope and in nothing besides.
trait Solver {
    /// Leave in `run.scope` the flows re-rated for an event at `t` that
    /// changed the resources `seeds`, their `rate`s max-min fair given
    /// every other flow's.
    fn solve(run: &mut Run, t: f64, seeds: &[u32]);
}

/// [`EngineKind::Reference`]: every active flow, at every event. Exact by
/// construction, nothing to verify, quadratic.
struct GlobalWaterfill;

impl Solver for GlobalWaterfill {
    fn solve(run: &mut Run, t: f64, _seeds: &[u32]) {
        run.scope_everyone(t);
        if !run.scope.is_empty() {
            run.waterfill();
        }
    }
}

/// [`EngineKind::Incremental`]: the crossers of `seeds` (the departed
/// flow's path, or the union of newly admitted paths). Solve locally
/// (out-of-scope rates frozen), verify certificates, expand on failure,
/// fall back to [`GlobalWaterfill`]'s scope when [`MAX_EXPANSIONS`]
/// expansions were not enough or there is nothing to expand by.
struct ScopedRepair;

impl Solver for ScopedRepair {
    fn solve(run: &mut Run, t: f64, seeds: &[u32]) {
        for &r in seeds {
            for i in 0..run.rt.crossers[r as usize].len() {
                let (g, _) = run.rt.crossers[r as usize][i];
                run.add_to_scope(g, t);
            }
        }
        if run.scope.is_empty() {
            return;
        }
        for round in 0u32.. {
            run.waterfill();
            if run.scope.len() == run.active_list.len() {
                break; // Global solve: exact by construction, nothing to verify.
            }
            run.verify();
            if run.failures.is_empty() {
                break;
            }

            // Expansion, `MAX_EXPANSIONS` times at most: each failing flow
            // joins the scope along with the blockers pinning it — every
            // crosser of its saturated resources.
            let before = run.scope.len();
            if round >= MAX_EXPANSIONS {
                run.failures.clear();
            }
            for i in 0..run.failures.len() {
                let f = run.failures[i];
                run.add_to_scope(f, t);
                for j in 0..run.fl.res[f as usize].len() {
                    let r = run.fl.res[f as usize][j];
                    let read = &mut run.stats.crossers_read;
                    let (load, _, cap) = run.rt.load(r, &run.alloc.slots, &run.fl, read);
                    if !saturated(load, cap) {
                        continue;
                    }
                    for k in 0..run.rt.crossers[r as usize].len() {
                        let (g, _) = run.rt.crossers[r as usize][k];
                        run.add_to_scope(g, t);
                    }
                }
            }
            if run.scope.len() > before {
                run.stats.expansions += 1;
            } else {
                // Out of rounds, or nothing new to add locally: only the
                // global solve can fix it. Decided here, before filling.
                run.stats.fallbacks += 1;
                run.scope_everyone(t);
            }
        }
    }
}

/// Rate state of one run: which flows are active, at what rate, with
/// which projected completion. The event loop
/// ([`IncrementalEngine::run_stats`]) owns the clock and the
/// [`Lifecycle`]; everything a re-solve reads or writes is here.
struct Run {
    fl: Flows,
    rt: Resources,
    active_list: Vec<u32>,
    /// Each active flow's position in `active_list` (`u32::MAX` otherwise).
    active_pos: Vec<u32>,
    alloc: Allocator,
    queue: EventQueue,
    /// Resources changed since the last re-solve: `admit` and `complete`
    /// fill it, `resolve` consumes it.
    seeds: Vec<u32>,
    // Scratch reused across re-solves.
    scope: Vec<u32>,
    flagged: Vec<u32>,
    failures: Vec<u32>,
    scope_id: u64,
    stats: EngineStats,
}

impl Run {
    fn new(caps: Vec<f64>, res_lists: Vec<Vec<u32>>, flows: &[FlowSpec]) -> Self {
        let n = flows.len();
        Self {
            fl: Flows {
                slot: res_lists.iter().map(|l| vec![0; l.len()]).collect(),
                res: res_lists,
                remaining: flows.iter().map(|f| f.size).collect(),
                settled_at: vec![0.0; n],
                rate: vec![0.0; n],
                old_rate: vec![0.0; n],
                version: vec![0; n],
                in_scope: vec![0; n],
                checked: vec![0; n],
                bneck: vec![u32::MAX; n],
            },
            active_list: Vec::new(),
            active_pos: vec![u32::MAX; n],
            alloc: Allocator::default(),
            rt: Resources::new(caps),
            queue: EventQueue::with_capacity(n),
            seeds: Vec::new(),
            scope: Vec::new(),
            flagged: Vec::new(),
            failures: Vec::new(),
            scope_id: 0,
            stats: EngineStats::default(),
        }
    }

    /// Flow `i` starts transferring. Its path is seeded, so the re-solve
    /// that follows has it in scope: entering settles it (at rate 0, which
    /// only stamps `settled_at`) before it is given a rate.
    fn admit(&mut self, i: u32) {
        let iu = i as usize;
        for (j, &r) in self.fl.res[iu].iter().enumerate() {
            self.fl.slot[iu][j] = self.rt.crossers[r as usize].len() as u32;
            self.rt.crossers[r as usize].push((i, j as u32));
        }
        self.active_pos[iu] = self.active_list.len() as u32;
        self.active_list.push(i);
        self.seeds.extend_from_slice(&self.fl.res[iu]);
    }

    /// The projected completion `ev` fired at `t`. Returns whether the flow
    /// pushed its last byte (and left the allocation) or was rescheduled.
    fn complete(&mut self, ev: Event, t: f64) -> bool {
        self.stats.completions += 1;
        let (fl, rt) = (&mut self.fl, &mut self.rt);
        let f = ev.flow as usize;
        fl.settle(f, t);
        if !flow::delivered(fl.remaining[f]) {
            // Settlement rounding left residual bytes: reschedule.
            self.stats.spurious_wakeups += 1;
            fl.version[f] += 1;
            self.queue.push(Event {
                time: t + fl.remaining[f] / fl.rate[f],
                flow: ev.flow,
                version: fl.version[f],
            });
            return false;
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
        let pos = self.active_pos[f] as usize;
        self.active_list.swap_remove(pos);
        if let Some(&moved) = self.active_list.get(pos) {
            self.active_pos[moved as usize] = pos as u32;
        }
        self.active_pos[f] = u32::MAX;
        fl.rate[f] = 0.0;
        // The freed capacity is on the departed flow's path.
        self.seeds.extend_from_slice(&fl.res[f]);
        true
    }

    fn add_to_scope(&mut self, g: u32, t: f64) {
        let gu = g as usize;
        if self.fl.in_scope[gu] != self.scope_id {
            self.fl.in_scope[gu] = self.scope_id;
            self.fl.old_rate[gu] = self.fl.rate[gu];
            self.fl.settle(gu, t);
            self.scope.push(g);
        }
    }

    fn scope_everyone(&mut self, t: f64) {
        for i in 0..self.active_list.len() {
            self.add_to_scope(self.active_list[i], t);
        }
    }

    /// Progressive filling over `scope` with every out-of-scope rate
    /// frozen.
    fn waterfill(&mut self) {
        let (fl, al, sid) = (&mut self.fl, &mut self.alloc, self.scope_id);
        let Resources { res, crossers, gen } = &mut self.rt;
        // Deterministic input order: the waterfill's FP accumulation (and
        // thus the byte-identical-result fence) must not depend on crosser
        // list history.
        self.scope.sort_unstable();
        self.stats.resolved_flows += self.scope.len() as u64;
        self.stats.max_scope = self.stats.max_scope.max(self.scope.len() as u64);

        // Seed pass: one scan of each touched resource's crossers into its
        // slot of the fill's table — the exact frozen bandwidth and maximum
        // of those out of scope (committed rates, so seeds never accumulate
        // drift across re-solves), the old sum and maximum of them all —
        // and each scope flow's path written once as slots. Nobody is out
        // of a scope that is everyone: nothing to scan, nothing to verify.
        let everyone = self.scope.len() == self.active_list.len();
        *gen += 1;
        al.slots.clear();
        al.inc.clear();
        al.inc_off.clear();
        al.inc_off.push(0);
        for &f in self.scope.iter() {
            for &r in &fl.res[f as usize] {
                let rec = &mut res[r as usize];
                if rec.stamp != *gen {
                    (rec.stamp, rec.slot) = (*gen, al.slots.len() as u32);
                    let mut s = Slot::new(r, rec.cap);
                    if !everyone {
                        self.stats.crossers_read += crossers[r as usize].len() as u64;
                        for &(g, _) in &crossers[r as usize] {
                            let g = g as usize;
                            let frozen = fl.in_scope[g] != sid;
                            let old = if frozen { fl.rate[g] } else { fl.old_rate[g] };
                            s.sum_old += old;
                            s.max_old = s.max_old.max(old);
                            if frozen {
                                s.sum_new += old;
                                s.max_new = s.max_new.max(old);
                            }
                        }
                    }
                    al.slots.push(s);
                }
                al.slots[rec.slot as usize].live += 1;
                al.inc.push(rec.slot);
            }
            al.inc_off.push(al.inc.len() as u32);
        }
        al.waterfill(&self.scope, &mut fl.rate);
        if everyone {
            // Exact by construction: record the bottlenecks, verify nothing.
            for (pos, &f) in self.scope.iter().enumerate() {
                fl.bneck[f as usize] = scope_certificate(al, pos, fl.rate[f as usize]);
            }
        }
    }

    /// Verify the latest fill, off its table; leaves the flows holding no
    /// certificate in `failures`. Flagged: any touched resource whose
    /// crosser-maximum rose or whose saturation was lost — the only two
    /// changes that can break a frozen flow's certificate.
    fn verify(&mut self) {
        let (fl, rt, al, stats) = (&mut self.fl, &mut self.rt, &self.alloc, &mut self.stats);
        let (sid, gen) = (self.scope_id, rt.gen);
        self.flagged.clear();
        for s in &al.slots {
            if s.max_new > s.max_old
                || (saturated(s.sum_old, s.cap) && !saturated(s.sum_new, s.cap))
            {
                rt.res[s.res as usize].flag_stamp = gen;
                self.flagged.push(s.res);
            }
        }
        self.failures.clear();
        for (pos, &f) in self.scope.iter().enumerate() {
            let fu = f as usize;
            fl.bneck[fu] = scope_certificate(al, pos, fl.rate[fu]);
            if fl.bneck[fu] == u32::MAX {
                self.failures.push(f);
            }
        }
        // A frozen crosser of a flagged resource keeps its certificate
        // unless the resource it is recorded to hold it at is flagged too.
        let mut moved = Vec::new();
        for &r in &self.flagged {
            for &(g, _) in &rt.crossers[r as usize] {
                let gu = g as usize;
                if fl.in_scope[gu] == sid || fl.checked[gu] == gen {
                    continue;
                }
                fl.checked[gu] = gen;
                stats.frozen_visited += 1;
                let b = fl.bneck[gu];
                if b != u32::MAX && rt.res[b as usize].flag_stamp != gen {
                    continue;
                }
                // In full: at `b` if it still holds there, else along the path.
                stats.frozen_rechecked += 1;
                let mut holds_at = |r: u32| {
                    let (load, max, cap) = rt.load(r, &al.slots, fl, &mut stats.crossers_read);
                    bottleneck(fl.rate[gu], load, max, cap)
                };
                if b != u32::MAX && holds_at(b) {
                    continue;
                }
                match fl.res[gu].iter().copied().find(|&r| holds_at(r)) {
                    Some(at) => moved.push((gu, at)),
                    None => self.failures.push(g),
                }
            }
        }
        if self.failures.is_empty() {
            // The round commits: the tentative rates the moved certificates
            // were found under are the committed rates now.
            stats.bottleneck_moved += moved.len() as u64;
            for (g, at) in moved {
                fl.bneck[g] = at;
            }
        }
    }

    /// Re-solve the allocation around the event at `t` that changed
    /// `seeds`, then commit: re-project the completion of every flow whose
    /// rate changed bitwise.
    fn resolve<S: Solver>(&mut self, t: f64) {
        self.scope_id += 1;
        self.scope.clear();
        let mut seeds = std::mem::take(&mut self.seeds);
        S::solve(self, t, &seeds);
        seeds.clear();
        self.seeds = seeds;
        if self.scope.is_empty() {
            return;
        }
        self.stats.resolves += 1;
        #[cfg(debug_assertions)]
        self.assert_max_min(t);

        // Reschedule exactly the flows whose rate changed bitwise; an
        // unchanged flow's scheduled event still fires at the right absolute
        // time (linear drain), so it is kept.
        let fl = &mut self.fl;
        for &f in self.scope.iter() {
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
            self.queue.push(Event {
                time: t + fl.remaining[fu] / new,
                flow: f,
                version: fl.version[fu],
            });
        }
        // Each active flow has its one projection; nobody else has any.
        debug_assert_eq!(self.queue.len(), self.active_list.len());
    }

    /// The definition of max-min fairness (Bertsekas & Gallager §6.5.2) on
    /// the *whole* rate vector, after every committed re-solve of either
    /// solver, debug builds only: no resource over capacity, every active
    /// flow crosses a saturated resource on which its rate is maximal, and
    /// a flow's recorded bottleneck is such a resource. Loads and maxima
    /// are rebuilt from the active flows' paths (into the fill's table,
    /// stale by now, as scratch) — not by the verify pass, not from the
    /// crosser lists.
    #[cfg(debug_assertions)]
    fn assert_max_min(&mut self, t: f64) {
        let (fl, rt, slots) = (&self.fl, &mut self.rt, &mut self.alloc.slots);
        rt.gen += 1;
        slots.clear();
        for &f in &self.active_list {
            for &r in &fl.res[f as usize] {
                let rec = &mut rt.res[r as usize];
                if rec.stamp != rt.gen {
                    (rec.stamp, rec.slot) = (rt.gen, slots.len() as u32);
                    slots.push(Slot::new(r, rec.cap));
                }
                let s = &mut slots[rec.slot as usize];
                s.sum_new += fl.rate[f as usize];
                s.max_new = s.max_new.max(fl.rate[f as usize]);
            }
        }
        for &f in &self.active_list {
            let (x, b) = (fl.rate[f as usize], fl.bneck[f as usize]);
            let (mut bottlenecked, mut recorded) = (false, b == u32::MAX);
            for &r in &fl.res[f as usize] {
                let s = &slots[rt.res[r as usize].slot as usize];
                let (load, cap) = (s.sum_new, s.cap);
                assert!(
                    load <= cap * (1.0 + CERT_TOL),
                    "t={t}: resource {r} (crossed by flow {f}) carries {load} over capacity {cap}"
                );
                let here = bottleneck(x, load, s.max_new, cap);
                bottlenecked |= here;
                recorded |= here && r == b;
            }
            assert!(
                bottlenecked,
                "t={t}: flow {f} at rate {x} has no bottleneck on its path {:?}",
                fl.res[f as usize]
            );
            assert!(
                recorded,
                "t={t}: flow {f} at rate {x} holds no certificate at its recorded bottleneck {b}"
            );
        }
    }
}

/// The fluid engine: one event loop over the completion heap, with the
/// rate solver chosen by [`ExperimentConfig::engine`] —
/// [`EngineKind::Incremental`] (the default) repairs a scope,
/// [`EngineKind::Reference`] re-solves every active flow at every event
/// and is the oracle the parity suites compare against.
#[derive(Debug)]
pub struct IncrementalEngine {
    table: ResourceTable,
    solver: EngineKind,
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
            solver: cfg.engine,
        })
    }

    /// Run all flows to completion. See [`IncrementalEngine::run_stats`].
    pub fn run(&mut self, flows: Vec<FlowSpec>) -> SimResult {
        self.run_stats(flows).0
    }

    /// Run all flows to completion, also returning event/re-solve counters.
    pub fn run_stats(&mut self, flows: Vec<FlowSpec>) -> (SimResult, EngineStats) {
        match self.solver {
            EngineKind::Incremental => self.run_with::<ScopedRepair>(flows),
            EngineKind::Reference => self.run_with::<GlobalWaterfill>(flows),
        }
    }

    fn run_with<S: Solver>(&self, flows: Vec<FlowSpec>) -> (SimResult, EngineStats) {
        let mut life = Lifecycle::new(&flows);
        let mut starts = starts_descending(&flows);
        let mut run = Run::new(
            self.table.caps.clone(),
            self.table.index_lists(&flows),
            &flows,
        );

        let mut t = 0.0f64;
        while life.open > 0 {
            // Admit every flow starting now; 1e-12 of slack batches starts
            // that differ by rounding only.
            while let Some(&(s, i)) = starts.last() {
                if s > t + 1e-12 {
                    break;
                }
                starts.pop();
                run.stats.starts += 1;
                debug_assert_eq!(life.state[i as usize], State::Pending);
                if flow::delivered(flows[i as usize].size) {
                    // Zero-byte flow: immediately drained.
                    life.delivered(i, t);
                } else {
                    life.state[i as usize] = State::Active;
                    run.admit(i);
                }
            }
            if !run.seeds.is_empty() {
                // Admitted paths overlap: each seed resource once.
                run.seeds.sort_unstable();
                run.seeds.dedup();
                run.resolve::<S>(t);
            }

            // Next event: earliest projected completion vs. next start.
            let next_start = starts.last().map(|&(s, _)| s);
            let next_done = run.queue.peek_min(&run.fl.version).map(|e| e.time);
            if let Some(s) = next_start.filter(|&s| next_done.is_none_or(|d| s < d)) {
                t = t.max(s);
                continue;
            }
            let Some(ev) = run.queue.pop_min(&run.fl.version) else {
                // Only drained flows could remain, and the cascade has
                // already completed them (their children are all done).
                debug_assert_eq!(life.open, 0, "drained flows stuck with open children");
                break;
            };

            t = t.max(ev.time);
            debug_assert_eq!(life.state[ev.flow as usize], State::Active);
            if run.complete(ev, t) {
                life.delivered(ev.flow, t);
                run.resolve::<S>(t);
            }
        }
        run.stats.stale_discards = run.queue.stale_discards();

        (self.table.result(&flows, &life.finish, t), run.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The squeeze cascade: removing a flow can *lower* a third party's
    /// rate (max-min is not monotone under removal). A departure on one
    /// link lets a two-link flow rise, which must squeeze a flow that
    /// never shared anything with the departed one — reachable only
    /// through certificate verification, not through the departed flow's
    /// path.
    #[test]
    fn certificate_expansion_squeezes_third_party() {
        let cfg = ExperimentConfig {
            strategy: crate::Strategy::Direct,
            deployment: crate::Deployment::None,
            ..ExperimentConfig::quick()
        };
        let topo = Topology::build(&cfg.topology);
        let placement = BoxPlacement::new(&topo, &cfg.deployment);
        let ra = crate::routing::server_route(&topo, topo.server(0), topo.server(1), 0);
        let rb = crate::routing::server_route(&topo, topo.server(0), topo.server(2), 0);
        let rc = crate::routing::server_route(&topo, topo.server(3), topo.server(2), 0);
        let rd = crate::routing::server_route(&topo, topo.server(4), topo.server(2), 0);
        // B, C and D share server 2's downlink at 1/3 each, so A has 2/3 of
        // server 0's uplink. C (small) finishes first; its departure frees
        // a third of the downlink, B rises to half the uplink and squeezes
        // A, which shares only that uplink with B.
        let specs = vec![
            FlowSpec::background(8e6, ra.links.clone(), 0.0),
            FlowSpec::background(8e6, rb.links.clone(), 0.0),
            FlowSpec::background(1e6, rc.links.clone(), 0.0),
            FlowSpec::background(8e6, rd.links.clone(), 0.0),
        ];
        let mut inc = IncrementalEngine::new(&topo, &placement, &cfg);
        let (got, stats) = inc.run_stats(specs.clone());
        assert!(stats.expansions > 0, "the scope had to grow: {stats:?}");
        let global = ExperimentConfig {
            engine: EngineKind::Reference,
            ..cfg
        };
        let want = IncrementalEngine::new(&topo, &placement, &global).run(specs);
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
