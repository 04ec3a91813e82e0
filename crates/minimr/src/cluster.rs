//! The job driver: parallel mappers, shuffle through shims (and on-path
//! combiners when agg boxes are deployed), final reduce at the master.
//!
//! The driver measures the phases the paper's Hadoop evaluation reports:
//! map time (excluded from comparisons, as in the paper) and
//! shuffle+reduce time (Fig. 22–24's metric).

use crate::job::{combine_pairs, group_by_key, Job};
use crate::netagg::CombinerAgg;
use crate::seqfile;
use crate::shuffle::key_hash;
use crate::types::Pair;
use bytes::Bytes;
use netagg_core::prelude::*;
use netagg_core::runtime::NetAggDeployment;
use netagg_core::shim::TreeSelection;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-run options.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Platform request id used for the shuffle.
    pub request_id: u64,
    /// Target serialised chunk size for the shuffle.
    pub chunk_bytes: usize,
    /// Run the combiner at the mapper before the shuffle (Hadoop's
    /// map-side combine; on by default, as in plain Hadoop).
    pub map_side_combine: bool,
    /// Every n-th mapper also runs a speculative backup whose duplicate
    /// output is suppressed by the platform's per-source sequence numbers
    /// (0 disables). Models Hadoop's speculative execution.
    pub speculate_every: usize,
    /// Deadline for the aggregated shuffle to arrive at the reducer.
    pub timeout: Duration,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            request_id: 1,
            chunk_bytes: 256 * 1024,
            map_side_combine: true,
            speculate_every: 0,
            timeout: Duration::from_secs(120),
        }
    }
}

/// Outcome and measurements of one job run.
#[derive(Debug)]
pub struct JobResult {
    /// Reducer output, sorted by key.
    pub output: Vec<Pair>,
    /// Wall-clock time of the map phase (excluded from comparisons).
    pub map_time: Duration,
    /// The paper's metric: time from map completion to reduce completion.
    pub shuffle_reduce_time: Duration,
    /// Serialised intermediate bytes leaving the mappers.
    pub intermediate_bytes: u64,
    /// Bytes the reducer (master) received.
    pub reducer_input_bytes: u64,
    /// Serialised size of the final output.
    pub output_bytes: u64,
}

impl JobResult {
    /// Achieved reduction: reducer input / intermediate bytes.
    pub fn reduction_ratio(&self) -> f64 {
        if self.intermediate_bytes == 0 {
            1.0
        } else {
            self.reducer_input_bytes as f64 / self.intermediate_bytes as f64
        }
    }
}

/// A launched map/reduce application: shims wired to a deployment.
pub struct MRCluster {
    /// The application id the job registered on the platform.
    pub app: AppId,
    job: Arc<dyn Job>,
    master: Arc<MasterShim>,
    shims: Vec<Arc<WorkerShim>>,
    selection: TreeSelection,
    num_trees: u32,
}

impl MRCluster {
    /// Register the job's combiner on the deployment and create the shims
    /// (one per cluster worker = one mapper slot).
    pub fn launch(
        deployment: &mut NetAggDeployment,
        job: Arc<dyn Job>,
        selection: TreeSelection,
        share: f64,
    ) -> Self {
        let agg: Arc<dyn DynAggregator> = Arc::new(AggWrapper::new(CombinerAgg::new(job.clone())));
        let app = deployment.register_app(job.name(), agg, share);
        let master = deployment.master_shim(app);
        let workers: Vec<u32> = deployment
            .tree_specs()
            .first()
            .map(|s| {
                let mut w: Vec<u32> = s
                    .worker_assignment
                    .keys()
                    .copied()
                    .chain(s.direct_workers.iter().copied())
                    .collect();
                w.sort_unstable();
                w
            })
            .unwrap_or_default();
        let shims = workers
            .iter()
            .map(|&w| deployment.worker_shim(app, w))
            .collect();
        Self {
            app,
            job,
            master,
            shims,
            selection,
            num_trees: deployment.tree_specs().len() as u32,
        }
    }

    /// Number of mapper slots (cluster workers).
    pub fn num_mappers(&self) -> usize {
        self.shims.len()
    }

    /// Map one input split, combining at the mapper when configured.
    fn map_split(&self, split: &[Bytes], cfg: &JobConfig) -> Vec<Pair> {
        let mut pairs = Vec::new();
        for record in split {
            self.job.map(record, &mut |p| pairs.push(p));
        }
        if cfg.map_side_combine {
            pairs = combine_pairs(self.job.as_ref(), pairs);
        }
        pairs
    }

    /// Run one job over per-mapper input records. `inputs.len()` must equal
    /// [`Self::num_mappers`] (idle mappers still close their streams).
    pub fn run(&self, inputs: Vec<Vec<Bytes>>, cfg: &JobConfig) -> Result<JobResult, AggError> {
        assert_eq!(inputs.len(), self.shims.len(), "one input split per mapper");
        // Map phase (excluded from the paper's measurements).
        let t_map = Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "scoped mapper threads borrow the splits and are joined before `run` returns; outside the §9 inventory by design"
        )]
        let mapped: Vec<Vec<Pair>> = std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|split| s.spawn(move || self.map_split(split, cfg)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let map_time = t_map.elapsed();
        let mut result = self.shuffle_reduce(mapped, cfg)?;
        result.map_time = map_time;
        Ok(result)
    }

    /// Run one job with `reducers` reduce partitions: mappers hash-partition
    /// their intermediate pairs (Hadoop's hash partitioner) and each
    /// partition is shuffled, aggregated on-path and reduced as its own
    /// platform request, concurrently. Returns the merged output plus the
    /// slowest partition's shuffle+reduce time.
    pub fn run_partitioned(
        &self,
        inputs: Vec<Vec<Bytes>>,
        reducers: usize,
        cfg: &JobConfig,
    ) -> Result<JobResult, AggError> {
        assert!(reducers >= 1);
        assert_eq!(
            self.selection,
            TreeSelection::PerRequest,
            "partitioned runs use per-request trees"
        );
        assert_eq!(inputs.len(), self.shims.len(), "one input split per mapper");
        if reducers == 1 {
            return self.run(inputs, cfg);
        }
        let t_map = Instant::now();
        // Map phase once; partition each mapper's output by reducer.
        #[expect(
            clippy::disallowed_methods,
            reason = "scoped mapper threads borrow the splits and are joined before the shuffle starts; outside the §9 inventory by design"
        )]
        let mapped: Vec<Vec<Vec<Pair>>> = std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|split| {
                    s.spawn(move || crate::shuffle::partition(self.map_split(split, cfg), reducers))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let map_time = t_map.elapsed();

        // Shuffle + reduce each partition concurrently as its own request.
        #[expect(
            clippy::disallowed_methods,
            reason = "one scoped thread per reduce partition, joined before the merge; outside the §9 inventory by design"
        )]
        let results: Vec<Result<JobResult, AggError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..reducers)
                .map(|r| {
                    let mapped = &mapped;
                    s.spawn(move || {
                        let partition_inputs: Vec<Vec<Pair>> =
                            mapped.iter().map(|m| m[r].clone()).collect();
                        self.shuffle_reduce(
                            partition_inputs,
                            &JobConfig {
                                request_id: cfg.request_id.wrapping_mul(1_000) + r as u64,
                                ..cfg.clone()
                            },
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut output = Vec::new();
        let mut intermediate = 0;
        let mut reducer_in = 0;
        let mut slowest = Duration::ZERO;
        for r in results {
            let r = r?;
            output.extend(r.output);
            intermediate += r.intermediate_bytes;
            reducer_in += r.reducer_input_bytes;
            slowest = slowest.max(r.shuffle_reduce_time);
        }
        output.sort();
        let output_bytes = output.iter().map(|p| p.wire_size() as u64).sum();
        Ok(JobResult {
            output,
            map_time,
            shuffle_reduce_time: slowest,
            intermediate_bytes: intermediate,
            reducer_input_bytes: reducer_in,
            output_bytes,
        })
    }

    /// Shuffle mapped pairs through the shims and reduce what arrives —
    /// the measured phase. `map_time` is left zero for the caller to fill.
    fn shuffle_reduce(
        &self,
        mapped: Vec<Vec<Pair>>,
        cfg: &JobConfig,
    ) -> Result<JobResult, AggError> {
        let request = cfg.request_id;
        let pending = self.master.register_request(request, self.shims.len());
        let t0 = Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "scoped mapper-send threads borrow the shims and are joined before the reducer waits; outside the §9 inventory by design"
        )]
        let intermediate_bytes: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = mapped
                .into_iter()
                .zip(&self.shims)
                .map(|(pairs, shim)| {
                    s.spawn(move || -> Result<u64, AggError> {
                        let mut sent = 0u64;
                        match self.selection {
                            TreeSelection::PerRequest => {
                                let chunks = seqfile::chunk_pairs(&pairs, cfg.chunk_bytes);
                                if chunks.is_empty() {
                                    shim.send_chunk(request, Bytes::new(), true)?;
                                } else {
                                    let n = chunks.len();
                                    for (i, c) in chunks.into_iter().enumerate() {
                                        sent += c.len() as u64;
                                        shim.send_chunk(request, c, i + 1 == n)?;
                                    }
                                }
                            }
                            TreeSelection::Keyed => {
                                // Partition pairs over the trees by key, so
                                // each tree's boxes see a disjoint key range.
                                let mut per_tree: Vec<Vec<Pair>> =
                                    vec![Vec::new(); self.num_trees as usize];
                                for p in pairs {
                                    let t = (key_hash(&p.key) % self.num_trees as u64) as usize;
                                    per_tree[t].push(p);
                                }
                                for (t, tp) in per_tree.into_iter().enumerate() {
                                    for c in seqfile::chunk_pairs(&tp, cfg.chunk_bytes) {
                                        sent += c.len() as u64;
                                        shim.send_chunk_keyed(request, t as u64, c)?;
                                    }
                                }
                                shim.finish_request(request)?;
                            }
                        }
                        Ok(sent)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<Result<u64, AggError>>()
        })?;

        // Speculative backups: duplicate some mappers' output verbatim; the
        // boxes must deduplicate it.
        if cfg.speculate_every > 0 {
            for shim in self.shims.iter().step_by(cfg.speculate_every) {
                shim.resend_request(request);
            }
        }

        let agg_result = pending.wait(cfg.timeout)?;
        // Final reduce at the reducer. As in the paper, the reducer always
        // re-reads and reduces the (possibly already final) data it
        // received — a deliberate design decision keeping boxes transparent.
        let merged = seqfile::decode(&agg_result.combined)?;
        let mut output = Vec::new();
        for (key, values) in group_by_key(merged) {
            output.extend(self.job.reduce(&key, values));
        }
        output.sort();
        let shuffle_reduce_time = t0.elapsed();
        for shim in &self.shims {
            shim.complete_request(request);
        }
        let output_bytes = output.iter().map(|p| p.wire_size() as u64).sum();
        Ok(JobResult {
            output,
            map_time: Duration::ZERO,
            shuffle_reduce_time,
            intermediate_bytes,
            reducer_input_bytes: agg_result.master_input_bytes as u64,
            output_bytes,
        })
    }
}

/// One-shot convenience: launch an [`MRCluster`] on the deployment and run
/// a single job.
pub fn run_job(
    deployment: &mut NetAggDeployment,
    job: Arc<dyn Job>,
    inputs: Vec<Vec<Bytes>>,
    cfg: &JobConfig,
) -> Result<JobResult, AggError> {
    let cluster = MRCluster::launch(deployment, job, TreeSelection::PerRequest, 1.0);
    cluster.run(inputs, cfg)
}
