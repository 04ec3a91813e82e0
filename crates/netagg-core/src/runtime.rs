//! Deployment wiring: launch agg boxes over a transport, register
//! applications, hand out shims, and (optionally) arm failure detection.

use crate::aggbox::scheduler::SchedulerConfig;
use crate::aggbox::AggBox;
use crate::failure::DetectorConfig;
use crate::protocol::AppId;
use crate::shim::{MasterShim, TreeSelection, WorkerShim};
use crate::straggler::StragglerPolicy;
use crate::tree::{build_tree_specs, ClusterSpec, TreeSpec};
use crate::{AggError, DynAggregator};
use netagg_net::{MeteredTransport, Transport};
use netagg_obs::{MetricsRegistry, MetricsSnapshot};
use std::collections::HashMap;
use std::sync::Arc;

/// Platform-wide options.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Scheduler options applied to every box.
    pub scheduler: SchedulerConfig,
    /// Local aggregation tree fan-in on the boxes.
    pub fanin: usize,
    /// Straggler bypass policy for boxes and master shims; `None` disables.
    pub straggler: Option<StragglerPolicy>,
    /// Tree selection used by the shims.
    pub selection: TreeSelection,
    /// Stream partial aggregates downstream once a request buffers this
    /// many bytes at a box (`None` = emit only final aggregates).
    pub flush_bytes: Option<usize>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            fanin: 8,
            straggler: None,
            selection: TreeSelection::PerRequest,
            flush_bytes: None,
        }
    }
}

struct AppRecord {
    id: AppId,
    agg: Arc<dyn DynAggregator>,
}

/// A running NetAgg deployment: the boxes, tree specs and registered apps.
pub struct NetAggDeployment {
    transport: Arc<dyn Transport>,
    cfg: DeploymentConfig,
    specs: Vec<TreeSpec>,
    boxes: Vec<Arc<AggBox>>,
    apps: Vec<AppRecord>,
    master_shims: HashMap<AppId, Arc<MasterShim>>,
    next_app: u16,
    obs: MetricsRegistry,
}

impl NetAggDeployment {
    /// Launch the agg boxes of a cluster with default options.
    pub fn launch(transport: Arc<dyn Transport>, cluster: &ClusterSpec) -> Result<Self, AggError> {
        Self::launch_with(transport, cluster, DeploymentConfig::default())
    }

    /// Launch with explicit options, publishing metrics into a fresh
    /// deployment-private registry (see [`NetAggDeployment::snapshot`]).
    pub fn launch_with(
        transport: Arc<dyn Transport>,
        cluster: &ClusterSpec,
        cfg: DeploymentConfig,
    ) -> Result<Self, AggError> {
        Self::launch_with_obs(transport, cluster, cfg, MetricsRegistry::new())
    }

    /// Launch with explicit options and an externally owned metrics
    /// registry, so several deployments (or a surrounding harness) can
    /// share one registry and one snapshot.
    pub fn launch_with_obs(
        transport: Arc<dyn Transport>,
        cluster: &ClusterSpec,
        cfg: DeploymentConfig,
        obs: MetricsRegistry,
    ) -> Result<Self, AggError> {
        let specs = build_tree_specs(cluster);
        // Hand the registry to the transport itself first (the TCP
        // reactor publishes `net.tcp.*` and counts its shard threads in
        // `runtime.threads_active` — DESIGN.md §12), then wrap it in a
        // metered decorator so `net.*` traffic counters come for free.
        transport.attach_obs(&obs);
        let transport: Arc<dyn Transport> = Arc::new(MeteredTransport::new(transport, obs.clone()));
        let start = |b| AggBox::start(transport.clone(), b, &cfg, &obs);
        let boxes = (0..cluster.total_boxes()).map(start);
        let boxes = boxes.collect::<Result<_, _>>()?;
        Ok(Self {
            transport,
            cfg,
            specs,
            boxes,
            apps: Vec::new(),
            master_shims: HashMap::new(),
            next_app: 0,
            obs,
        })
    }

    /// Register an application: installs its aggregation function and its
    /// per-tree routes on every box. Returns the application id.
    pub fn register_app(&mut self, _name: &str, agg: Arc<dyn DynAggregator>, share: f64) -> AppId {
        let app = AppId(self.next_app);
        self.next_app += 1;
        for b in &self.boxes {
            b.register_app(app, agg.clone(), share, &self.specs);
        }
        self.apps.push(AppRecord { id: app, agg });
        app
    }

    /// The master shim of an application (started on first use).
    pub fn master_shim(&mut self, app: AppId) -> Arc<MasterShim> {
        if let Some(s) = self.master_shims.get(&app) {
            return s.clone();
        }
        let agg = self
            .apps
            .iter()
            .find(|a| a.id == app)
            .expect("app registered")
            .agg
            .clone();
        let (transport, specs) = (self.transport.clone(), &self.specs);
        let shim = MasterShim::start(transport, app, agg, specs, &self.cfg, &self.obs)
            .expect("start master shim");
        self.master_shims.insert(app, shim.clone());
        shim
    }

    /// A worker shim for one application worker.
    pub fn worker_shim(&mut self, app: AppId, worker: u32) -> Arc<WorkerShim> {
        let (transport, specs) = (self.transport.clone(), &self.specs);
        WorkerShim::start(transport, app, worker, specs, &self.cfg, &self.obs)
            .expect("start worker shim")
    }

    /// Arm failure detection: every parent of boxes (master shims and
    /// boxes) probes the child boxes its routes name and re-routes around
    /// failures — the master is just the root. Call after registering all
    /// applications and creating master shims.
    pub fn enable_failure_detection(&mut self, cfg: DetectorConfig) {
        for shim in self.master_shims.values() {
            shim.enable_failure_detection(cfg.clone());
        }
        for b in &self.boxes {
            b.enable_failure_detection(cfg.clone());
        }
    }

    /// The running agg boxes, indexed by global box id.
    pub fn boxes(&self) -> &[Arc<AggBox>] {
        &self.boxes
    }

    /// The aggregation-tree specs derived from the cluster.
    pub fn tree_specs(&self) -> &[TreeSpec] {
        &self.specs
    }

    /// The transport the deployment runs over (metered: all traffic it
    /// carries shows up in [`NetAggDeployment::snapshot`]).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The deployment-wide metrics registry. Boxes, shims and
    /// the transport all publish into it; see DESIGN.md ("Observability")
    /// for the metric names.
    pub fn obs(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// A point-in-time snapshot of every metric the deployment publishes
    /// (serialisable with [`MetricsSnapshot::to_json`] /
    /// [`MetricsSnapshot::to_text`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Stop shims and boxes.
    pub fn shutdown(&mut self) {
        for (_, s) in self.master_shims.drain() {
            s.shutdown();
        }
        for b in &self.boxes {
            b.shutdown();
        }
    }
}

impl Drop for NetAggDeployment {
    fn drop(&mut self) {
        self.shutdown();
    }
}
