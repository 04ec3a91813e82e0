//! Emulated-testbed builders: wire search / map-reduce clusters over an
//! [`EmuNet`] with the paper's link capacities (1 Gbps edge servers,
//! 10 Gbps agg boxes), scaled down uniformly for wall-clock speed.

use crate::{DEFAULT_BW_SCALE, GBPS};
use minisearch::corpus::CorpusConfig;
use minisearch::frontend::{frontend_service_addr, Client, FrontendConfig};
use minisearch::netagg::{SearchCluster, SearchFunction};
use netagg_core::aggbox::scheduler::SchedulerConfig;
use netagg_core::prelude::*;
use netagg_core::runtime::{DeploymentConfig, NetAggDeployment};
use netagg_core::shim::TreeSelection;
use netagg_core::tree;
use netagg_net::{EmuNet, Transport};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Testbed sizing and options.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    pub racks: u32,
    pub workers_per_rack: u32,
    pub boxes_per_rack: u32,
    pub num_trees: u32,
    /// Scheduler threads per box (the paper's scale-up knob, Fig. 21).
    pub box_threads: usize,
    pub bw_scale: f64,
    /// How many client NICs to declare.
    pub max_clients: u32,
    pub selection: TreeSelection,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self {
            racks: 1,
            workers_per_rack: 10,
            boxes_per_rack: 1,
            num_trees: 1,
            box_threads: 8,
            bw_scale: DEFAULT_BW_SCALE,
            max_clients: 64,
            selection: TreeSelection::PerRequest,
        }
    }
}

impl TestbedConfig {
    pub fn cluster_spec(&self) -> ClusterSpec {
        ClusterSpec::multi_rack(self.racks, self.workers_per_rack, self.boxes_per_rack)
            .with_trees(self.num_trees)
    }
}

/// Build the emulated network for up to two applications sharing the
/// physical cluster: servers at 1 Gbps, boxes at 10 Gbps, clients at
/// 1 Gbps, all scaled by `bw_scale`. Shim and service addresses of the
/// same physical server share one NIC.
pub fn build_emu(cfg: &TestbedConfig, apps: &[AppId]) -> EmuNet {
    let spec = cfg.cluster_spec();
    let mut builder = EmuNet::builder().bandwidth_scale(cfg.bw_scale);
    for b in 0..spec.total_boxes() {
        builder = builder.endpoint(tree::box_addr(b), 10.0 * GBPS);
    }
    for &app in apps {
        builder = builder.endpoint(tree::master_addr(app), GBPS);
        for w in spec.all_workers() {
            builder = builder.endpoint(tree::worker_addr(app, w), GBPS);
        }
        for c in 0..cfg.max_clients {
            builder = builder.endpoint(tree::client_addr(app, c), GBPS);
        }
    }
    let emu = builder.build();
    for &app in apps {
        // The frontend listener shares the master server's NIC; backend
        // query listeners share their worker server's NIC.
        emu.alias(frontend_service_addr(app), tree::master_addr(app))
            .expect("master NIC declared");
        for w in spec.all_workers() {
            emu.alias(tree::service_addr(app, w), tree::worker_addr(app, w))
                .expect("worker NIC declared");
        }
    }
    emu
}

/// A fully wired emulated search testbed.
pub struct SearchTestbed {
    pub deployment: NetAggDeployment,
    pub cluster: SearchCluster,
    pub transport: Arc<dyn Transport>,
    pub cfg: TestbedConfig,
}

/// Launch a search cluster on an emulated testbed.
pub fn search_testbed(
    cfg: TestbedConfig,
    corpus: &CorpusConfig,
    function: SearchFunction,
    backend_k: u32,
) -> SearchTestbed {
    // The search app will be AppId(0): endpoints are declared up front.
    let emu = build_emu(&cfg, &[AppId(0)]);
    let transport: Arc<dyn Transport> = Arc::new(emu);
    let mut deployment = NetAggDeployment::launch_with_obs(
        transport.clone(),
        &cfg.cluster_spec(),
        DeploymentConfig {
            scheduler: SchedulerConfig {
                threads: cfg.box_threads,
                ..SchedulerConfig::default()
            },
            selection: cfg.selection,
            ..DeploymentConfig::default()
        },
        crate::obs::global().clone(),
    )
    .expect("launch deployment");
    let cluster = SearchCluster::launch(
        &mut deployment,
        transport.clone(),
        corpus,
        function,
        FrontendConfig {
            backend_k,
            timeout: Duration::from_secs(60),
        },
        1.0,
    )
    .expect("launch search cluster");
    SearchTestbed {
        deployment,
        cluster,
        transport,
        cfg,
    }
}

/// Result of one closed-loop client drive.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Aggregate partial-result traffic rate produced by the backends
    /// (the paper's "network throughput"), bytes/s of emulated network.
    pub throughput: f64,
    pub completed: u64,
    pub median_latency: Duration,
    pub p99_latency: Duration,
}

/// Drive the testbed with `clients` closed-loop clients for `duration`.
pub fn drive_search(testbed: &SearchTestbed, clients: u32, duration: Duration) -> LoadResult {
    assert!(clients <= testbed.cfg.max_clients);
    let before_bytes: u64 = testbed
        .cluster
        .backends
        .iter()
        .map(|b| b.stats().result_bytes.load(Ordering::Relaxed))
        .sum();
    let app = testbed.cluster.app;
    let vocab = testbed.cluster.corpus_vocabulary;
    let deadline = Instant::now() + duration;
    let t0 = Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "scoped load-generator clients, joined by construction when the drive window closes"
    )]
    let latencies: Vec<Vec<Duration>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let transport = testbed.transport.clone();
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let Ok(mut client) = Client::connect(&transport, app, c, vocab) else {
                        return lat;
                    };
                    while Instant::now() < deadline {
                        match client.query_once(Duration::from_secs(60)) {
                            Ok((_, l)) => lat.push(l),
                            Err(_) => break,
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let after_bytes: u64 = testbed
        .cluster
        .backends
        .iter()
        .map(|b| b.stats().result_bytes.load(Ordering::Relaxed))
        .sum();
    let mut all: Vec<Duration> = latencies.into_iter().flatten().collect();
    all.sort();
    let pick = |p: f64| -> Duration {
        if all.is_empty() {
            Duration::ZERO
        } else {
            all[((all.len() - 1) as f64 * p) as usize]
        }
    };
    LoadResult {
        // Scale back up to the emulated network's nominal rates.
        throughput: (after_bytes - before_bytes) as f64 / elapsed / testbed.cfg.bw_scale,
        completed: all.len() as u64,
        median_latency: pick(0.5),
        p99_latency: pick(0.99),
    }
}

/// Launch a map-reduce deployment on an emulated testbed (app 0).
pub fn mr_deployment(cfg: &TestbedConfig) -> (NetAggDeployment, Arc<dyn Transport>) {
    let emu = build_emu(cfg, &[AppId(0)]);
    let transport: Arc<dyn Transport> = Arc::new(emu);
    let deployment = NetAggDeployment::launch_with_obs(
        transport.clone(),
        &cfg.cluster_spec(),
        DeploymentConfig {
            scheduler: SchedulerConfig {
                threads: cfg.box_threads,
                ..SchedulerConfig::default()
            },
            selection: cfg.selection,
            ..DeploymentConfig::default()
        },
        crate::obs::global().clone(),
    )
    .expect("launch deployment");
    (deployment, transport)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulated_search_testbed_serves_queries() {
        let cfg = TestbedConfig {
            workers_per_rack: 3,
            bw_scale: 1e-1, // fast links for the unit test
            max_clients: 2,
            ..TestbedConfig::default()
        };
        let mut tb = search_testbed(
            cfg,
            &CorpusConfig {
                num_docs: 120,
                vocabulary: 500,
                mean_words: 30,
                markers_per_doc: 3,
                seed: 1,
            },
            SearchFunction::TopK { k: 10 },
            20,
        );
        let r = drive_search(&tb, 2, Duration::from_millis(600));
        assert!(r.completed > 0, "no queries completed");
        assert!(r.throughput > 0.0);
        assert!(r.p99_latency >= r.median_latency);
        tb.cluster.shutdown();
        tb.deployment.shutdown();
    }
}
