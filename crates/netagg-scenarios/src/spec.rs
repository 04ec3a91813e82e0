//! [`ScenarioSpec`]: the declarative description of one NetAgg run.
//!
//! A spec names a topology, a workload mix (synthetic aggregations plus
//! the two real applications) and an impairment schedule, all seeded, so
//! one value runs bit-identically — same request ids, same payloads, same
//! armed fault steps — against any [`crate::TransportProvider`]. The
//! schema is documented in DESIGN.md §14.

use minisearch::corpus::CorpusConfig;
use netagg_core::failure::DetectorConfig;
use netagg_core::runtime::DeploymentConfig;
use netagg_core::tree::ClusterSpec;
use netagg_net::DetRng;
use std::time::Duration;

/// Physical topology, in the paper's two-tier shape (racks of workers,
/// agg boxes on the rack switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologySpec {
    /// Number of racks.
    pub racks: u32,
    /// Workers hosted per rack.
    pub workers_per_rack: u32,
    /// Agg boxes attached to each rack switch (0 = plain baseline).
    pub boxes_per_rack: u32,
    /// Aggregation trees per application (Section 3.1).
    pub trees: u32,
}

impl TopologySpec {
    /// One rack of `workers` workers and `boxes` boxes.
    pub fn single_rack(workers: u32, boxes: u32) -> Self {
        Self {
            racks: 1,
            workers_per_rack: workers,
            boxes_per_rack: boxes,
            trees: 1,
        }
    }

    /// `racks` racks of `workers_per_rack` workers, `boxes_per_rack`
    /// boxes each; master in rack 0.
    pub fn multi_rack(racks: u32, workers_per_rack: u32, boxes_per_rack: u32) -> Self {
        Self {
            racks,
            workers_per_rack,
            boxes_per_rack,
            trees: 1,
        }
    }

    /// Use `trees` aggregation trees per application.
    pub fn with_trees(mut self, trees: u32) -> Self {
        self.trees = trees;
        self
    }

    /// Total workers across all racks.
    pub fn total_workers(&self) -> u32 {
        self.racks * self.workers_per_rack
    }

    /// Total agg boxes across all racks.
    pub fn total_boxes(&self) -> u32 {
        self.racks * self.boxes_per_rack
    }

    /// Expand into the runtime's [`ClusterSpec`].
    pub fn cluster(&self) -> ClusterSpec {
        if self.racks == 1 {
            ClusterSpec::single_rack(self.workers_per_rack, self.boxes_per_rack)
                .with_trees(self.trees)
        } else {
            ClusterSpec::multi_rack(self.racks, self.workers_per_rack, self.boxes_per_rack)
                .with_trees(self.trees)
        }
    }
}

/// Aggregation function of a synthetic (shim-driven) workload. Every kind
/// has a closed-form expected result per request, so the runner verifies
/// *exactness* — not just completion — under every impairment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticKind {
    /// Sum of decimal integers; workers contribute `worker_value`.
    Sum,
    /// Max of decimal integers.
    Max,
    /// Top-k of `score|label` candidates; the runner checks the winner.
    TopK {
        /// Candidates retained by the aggregate.
        k: usize,
    },
}

/// One application in the scenario's workload mix.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name (also the deployment registration name).
    pub name: String,
    /// WFQ share on the boxes' schedulers.
    pub share: f64,
    /// What the application does.
    pub workload: Workload,
}

/// Workload families runnable from a spec.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `requests` closed-loop aggregations driven straight through the
    /// master/worker shims, verified exactly per request.
    Synthetic {
        /// Aggregation function.
        kind: SyntheticKind,
        /// Requests to issue.
        requests: u64,
    },
    /// `queries` top-k searches against a seeded minisearch cluster.
    Search {
        /// Queries to issue.
        queries: u64,
        /// Corpus to generate and shard over the workers.
        corpus: CorpusConfig,
        /// Results per query.
        k: usize,
        /// Top-k each backend returns (≥ `k`; a deeper backend cut
        /// improves merge quality at more shuffle bytes).
        backend_k: usize,
    },
    /// `jobs` minimr wordcount jobs over a small fixed input split.
    MapReduce {
        /// Jobs to run.
        jobs: u64,
    },
}

impl Workload {
    /// Requests this workload contributes to the scenario total.
    pub fn requests(&self) -> u64 {
        match self {
            Workload::Synthetic { requests, .. } => *requests,
            Workload::Search { queries, .. } => *queries,
            Workload::MapReduce { jobs } => *jobs,
        }
    }
}

/// One entry of the impairment schedule. Request-indexed triggers fire
/// when the *global* issued-request count crosses the threshold; frame
/// triggers arm a seeded [`netagg_net::FaultStep`] at run start. All of
/// them compile down to the deterministic `FaultController` machinery, so
/// a schedule replays exactly from the spec's seed.
#[derive(Debug, Clone)]
pub enum Impairment {
    /// Kill box `slot` after N frames have been delivered to it, with N
    /// drawn from `[frames_lo, frames_hi)` by the scenario's seeded RNG —
    /// the "loss" case: in-flight frames die with the box and must be
    /// recovered by replay.
    SeededBoxKill {
        /// Index into the deployment's box list.
        slot: usize,
        /// Lower bound (inclusive) of the seeded frame draw.
        frames_lo: u64,
        /// Upper bound (exclusive) of the seeded frame draw.
        frames_hi: u64,
    },
    /// Kill box `slot` once `after_requests` requests have been issued —
    /// the failover case.
    BoxKill {
        /// Index into the deployment's box list.
        slot: usize,
        /// Global issued-request threshold.
        after_requests: u64,
    },
    /// Kill every box in `slots` at `at_requests`, then revive them
    /// `heal_after_requests` later. Routing stays failed over (re-points
    /// are one-way); the heal restores liveness so the scenario fences
    /// that a healed partition cannot corrupt results.
    Partition {
        /// Box slots on the far side of the partition.
        slots: Vec<usize>,
        /// Global issued-request threshold for the cut.
        at_requests: u64,
        /// Issued requests after the cut at which the partition heals.
        heal_after_requests: u64,
    },
    /// Add `delay_ms` to every send from the selected workers between the
    /// two request thresholds — congestion / straggler storm.
    StragglerStorm {
        /// Global worker indexes to slow down.
        workers: Vec<u32>,
        /// Per-send delay while the storm lasts.
        delay_ms: u64,
        /// Global issued-request threshold at which the storm starts.
        from_requests: u64,
        /// Global issued-request threshold at which it clears.
        until_requests: u64,
    },
}

/// The declarative description of one scenario run (DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name, used in reports and artifacts.
    pub name: String,
    /// Physical topology.
    pub topology: TopologySpec,
    /// Platform tuning (scheduler, fan-in, stragglers, flush).
    pub tuning: DeploymentConfig,
    /// Failure detection; required when the impairment schedule kills
    /// boxes (the builder asserts this at run time).
    pub detector: Option<DetectorConfig>,
    /// The workload mix.
    pub apps: Vec<AppSpec>,
    /// The impairment schedule.
    pub impairments: Vec<Impairment>,
    /// Seed for payloads, query mixes and seeded fault steps.
    pub seed: u64,
    /// Per-app window of in-flight synthetic requests (closed loop = 1).
    pub inflight: usize,
    /// Per-request completion deadline before the runner counts a
    /// failure.
    pub wait_timeout: Duration,
    /// Request-id offset, kept per-app-disjoint by the runner (trace ids
    /// derive from request ids, so parallel legs stay distinguishable).
    pub request_base: u64,
}

impl ScenarioSpec {
    /// A spec with no apps and no impairments on `topology`.
    pub fn new(name: impl Into<String>, topology: TopologySpec) -> Self {
        Self {
            name: name.into(),
            topology,
            tuning: DeploymentConfig::default(),
            detector: None,
            apps: Vec::new(),
            impairments: Vec::new(),
            seed: 0xC0FFEE,
            inflight: 1,
            wait_timeout: Duration::from_secs(30),
            request_base: 0,
        }
    }

    /// Add a synthetic workload app.
    pub fn synthetic(mut self, name: &str, kind: SyntheticKind, requests: u64, share: f64) -> Self {
        self.apps.push(AppSpec {
            name: name.into(),
            share,
            workload: Workload::Synthetic { kind, requests },
        });
        self
    }

    /// Add a minisearch app (backends return 3·k candidates each).
    pub fn search(self, queries: u64, corpus: CorpusConfig, k: usize, share: f64) -> Self {
        self.search_with_backend_k(queries, corpus, k, 3 * k, share)
    }

    /// Add a minisearch app with an explicit per-backend cut.
    pub fn search_with_backend_k(
        mut self,
        queries: u64,
        corpus: CorpusConfig,
        k: usize,
        backend_k: usize,
        share: f64,
    ) -> Self {
        self.apps.push(AppSpec {
            name: "minisearch".into(),
            share,
            workload: Workload::Search {
                queries,
                corpus,
                k,
                backend_k,
            },
        });
        self
    }

    /// Add a minimr wordcount app.
    pub fn mapreduce(mut self, jobs: u64, share: f64) -> Self {
        self.apps.push(AppSpec {
            name: "minimr-wc".into(),
            share,
            workload: Workload::MapReduce { jobs },
        });
        self
    }

    /// Append an impairment.
    pub fn impair(mut self, i: Impairment) -> Self {
        self.impairments.push(i);
        self
    }

    /// Arm failure detection (fast probes suitable for tests and soaks).
    pub fn with_detector(mut self, cfg: DetectorConfig) -> Self {
        self.detector = Some(cfg);
        self
    }

    /// Standard fast detector used across the scenario matrix.
    pub fn with_fast_detector(self) -> Self {
        self.with_detector(DetectorConfig {
            interval: Duration::from_millis(30),
            timeout: Duration::from_millis(60),
            misses: 2,
        })
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the synthetic pipelining window.
    pub fn with_inflight(mut self, inflight: usize) -> Self {
        assert!(inflight >= 1, "inflight window must be at least 1");
        self.inflight = inflight;
        self
    }

    /// Set the request-id base.
    pub fn with_request_base(mut self, base: u64) -> Self {
        self.request_base = base;
        self
    }

    /// Set the per-request wait deadline (default 30 s).
    pub fn with_wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = timeout;
        self
    }

    /// Set the platform tuning.
    pub fn with_tuning(mut self, tuning: DeploymentConfig) -> Self {
        self.tuning = tuning;
        self
    }

    /// Total requests across the workload mix.
    pub fn total_requests(&self) -> u64 {
        self.apps.iter().map(|a| a.workload.requests()).sum()
    }

    /// The seeded box kills, in schedule order: each one's box slot, the
    /// frames drawn for it from the spec's seed, and the label every
    /// driver reports it under.
    pub fn seeded_kills(&self) -> Vec<(usize, u64, String)> {
        let mut rng = DetRng::new(self.seed ^ 0x5EED_FA17);
        let kills = self.impairments.iter().filter_map(|i| match *i {
            Impairment::SeededBoxKill {
                slot,
                frames_lo,
                frames_hi,
            } => Some((slot, frames_lo, frames_hi)),
            _ => None,
        });
        let draw = |(slot, lo, hi)| {
            let draw = rng.gen_range(lo, hi);
            (
                slot,
                draw,
                format!("seeded kill of box {slot} armed +{draw} frames"),
            )
        };
        kills.map(draw).collect()
    }

    /// Whether any impairment kills a box (and thus requires a detector).
    pub fn kills_boxes(&self) -> bool {
        self.impairments.iter().any(|i| {
            matches!(
                i,
                Impairment::SeededBoxKill { .. }
                    | Impairment::BoxKill { .. }
                    | Impairment::Partition { .. }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_expands_to_cluster() {
        let t = TopologySpec::multi_rack(2, 3, 1);
        assert_eq!(t.total_workers(), 6);
        assert_eq!(t.total_boxes(), 2);
        let c = t.cluster();
        assert_eq!(c.racks.len(), 2);
        assert_eq!(c.total_boxes(), 2);
    }

    #[test]
    fn builder_accumulates_mix_and_schedule() {
        let s = ScenarioSpec::new("x", TopologySpec::single_rack(4, 1))
            .synthetic("sum", SyntheticKind::Sum, 100, 1.0)
            .mapreduce(5, 1.0)
            .impair(Impairment::BoxKill {
                slot: 0,
                after_requests: 50,
            })
            .with_fast_detector();
        assert_eq!(s.total_requests(), 105);
        assert!(s.kills_boxes());
        assert!(s.detector.is_some());
    }
}
