//! Declarative simulation scenarios.
//!
//! A scenario is a JSON document describing a cluster, a controller
//! configuration, and a set of functions with workloads — everything
//! needed to run a LaSS simulation without writing Rust. Used by the
//! `lass-sim` binary:
//!
//! ```sh
//! cargo run --bin lass-sim -- scenarios/demo.json
//! ```

use lass_cluster::{Cluster, CpuMilli, MemMib, PlacementPolicy, Topology, UserId};
use lass_core::{
    FederatedSimReport, FederatedSimulation, FunctionSetup, KnativeSimulation, LassConfig,
    SimReport, Simulation, SitePolicyKind, StaticRrSimulation,
};
use lass_functions::{
    binary_alert, geofence, image_resizer, micro_benchmark, mobilenet_v2, shufflenet_v2,
    squeezenet, FunctionSpec, WorkloadClass, WorkloadSpec,
};
use lass_openwhisk::{OwConfig, OwFunctionSetup, OwReport, OwSimulation};
use lass_simcore::{
    ChaosConfig, Fault, HedgeConfig, RouterConfig, RouterKind, SimDuration, TelemetryConfig,
};
use serde::{Deserialize, Serialize};

/// Cluster shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: u32,
    /// CPU per node in milli-vCPU.
    pub cpu_milli: u32,
    /// Memory per node in MiB.
    pub mem_mib: u32,
    /// Network bandwidth per node in Mbps. Omit for the node default
    /// (effectively unconstrained); set it to make the bandwidth
    /// dimension bind for `"io"`-class functions.
    #[serde(default)]
    pub bw_mbps: Option<u32>,
    /// Placement policy (defaults to best-fit).
    #[serde(default)]
    pub placement: PlacementPolicy,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        // The paper's testbed.
        Self {
            nodes: 3,
            cpu_milli: 4000,
            mem_mib: 16 * 1024,
            bw_mbps: None,
            placement: PlacementPolicy::BestFit,
        }
    }
}

impl ClusterSpec {
    /// Check the shape before building.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster needs at least one node".into());
        }
        if self.cpu_milli == 0 || self.mem_mib == 0 {
            return Err("cluster nodes need non-zero cpu_milli and mem_mib".into());
        }
        if self.bw_mbps == Some(0) {
            return Err("cluster nodes need non-zero bw_mbps when set".into());
        }
        Ok(())
    }

    /// Materialize the cluster.
    pub fn build(&self) -> Cluster {
        match self.bw_mbps {
            Some(bw) => Cluster::homogeneous_vec(
                self.nodes,
                lass_cluster::ResourceVec::new(
                    CpuMilli(self.cpu_milli),
                    MemMib(self.mem_mib),
                    lass_cluster::BwMbps(bw),
                ),
                self.placement,
            ),
            None => Cluster::homogeneous(
                self.nodes,
                CpuMilli(self.cpu_milli),
                MemMib(self.mem_mib),
                self.placement,
            ),
        }
    }
}

/// Which scheduler runs the scenario.
///
/// All four are [`SchedulerPolicy`](lass_simcore::SchedulerPolicy)
/// implementations on the shared discrete-event engine; the JSON spelling
/// is lowercase (`"lass"`, `"static-rr"`, `"knative"`, `"openwhisk"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScenarioPolicy {
    /// The LaSS controller (model-driven autoscaling, fair share).
    #[default]
    Lass,
    /// Static allocation with round-robin dispatch (no autoscaling).
    StaticRr,
    /// Knative-style concurrency-target autoscaling (Little's-law
    /// heuristic; borrows `config.scaler`'s `ConcurrencyTarget` knob).
    Knative,
    /// The vanilla-OpenWhisk sharding-pool baseline (§6.6).
    OpenWhisk,
}

impl ScenarioPolicy {
    /// The JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioPolicy::Lass => "lass",
            ScenarioPolicy::StaticRr => "static-rr",
            ScenarioPolicy::Knative => "knative",
            ScenarioPolicy::OpenWhisk => "openwhisk",
        }
    }
}

impl serde::Serialize for ScenarioPolicy {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_owned())
    }
}

impl serde::Deserialize for ScenarioPolicy {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("lass") => Ok(ScenarioPolicy::Lass),
            Some("static-rr" | "static_rr" | "static") => Ok(ScenarioPolicy::StaticRr),
            Some("knative" | "concurrency-target") => Ok(ScenarioPolicy::Knative),
            Some("openwhisk" | "ow") => Ok(ScenarioPolicy::OpenWhisk),
            Some(other) => Err(serde::Error::custom(format!(
                "unknown policy {other:?} (expected \"lass\", \"static-rr\", \"knative\", or \"openwhisk\")"
            ))),
            None => Err(serde::Error::custom("policy must be a string")),
        }
    }
}

/// One site of a federated scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SiteSpec {
    /// Site display name (unique within the topology).
    pub name: String,
    /// The site's cluster shape (defaults to the paper's testbed).
    #[serde(default)]
    pub cluster: ClusterSpec,
    /// One-way network latency (milliseconds) from the front-end router
    /// to the site; added to every routed request's response time.
    #[serde(default)]
    pub latency_ms: f64,
}

/// The optional `topology` block: run the scenario over a federation of
/// named cluster sites behind a front-end router instead of a single
/// cluster. The scenario's `policy` is instantiated once per site
/// (`"openwhisk"` is not federatable).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TopologySpec {
    /// Which front-end router dispatches arrivals across sites
    /// (`"round-robin"`, `"least-loaded"`, `"latency-aware"`,
    /// `"slo-aware"`, `"affinity"`, or `"failure-aware"`; default
    /// round-robin).
    #[serde(default)]
    pub router: RouterKind,
    /// Knobs for the model-driven routers and the per-site telemetry
    /// feeding them: SLO budget, target percentile, hysteresis, spill
    /// and brown-out thresholds, and the λ̂/μ̂/health EWMA constants.
    /// Partial blocks fill from defaults; harmless for the non-model
    /// routers.
    #[serde(default)]
    pub router_config: RouterConfig,
    /// Threads for the conservative-synchronization parallel executor,
    /// counting the calling thread (`1` runs the windowed executor on
    /// the calling thread alone; omit or `null` for the sequential
    /// engine). Needs a
    /// multi-site topology where every `latency_ms` is strictly
    /// positive — zero latency leaves the executor no lookahead, so
    /// such topologies warn and fall back to the sequential engine.
    #[serde(default)]
    pub parallel_sites: Option<usize>,
    /// Telemetry propagation between sites and the router (omit for
    /// oracle-fresh routing, byte-identical to the classic engine).
    #[serde(default)]
    pub telemetry: TelemetrySpec,
    /// Request hedging: `{"trigger": "immediate" | {"deferred_ms": N} |
    /// "predicted-p95-over-slo", "max_clones": N}`. The router races
    /// extra copies of each request across sites; the first response
    /// wins and cancels chase the losers at network latency. Omit for
    /// the single-dispatch engine, byte-identical to pre-hedging runs.
    #[serde(default)]
    pub hedge: Option<HedgeConfig>,
    /// The sites, in id order.
    pub sites: Vec<SiteSpec>,
}

/// The optional `topology.telemetry` block: how site state reaches the
/// front-end router. With a nonzero `report_interval_ms` each site
/// publishes a snapshot of its telemetry (λ̂/μ̂ forecast inputs, warm
/// census, health, server count) on a jittered interval; the snapshot
/// travels at the site's network latency, and routing decisions score
/// sites on the last snapshot that *arrived* rather than on live state.
/// `report_interval_ms: 0` (the default) keeps the oracle-fresh hot
/// path, byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TelemetrySpec {
    /// Milliseconds between snapshot publishes per site; 0 disables the
    /// propagation model entirely (oracle-fresh routing).
    #[serde(default)]
    pub report_interval_ms: f64,
    /// Uniform jitter added to each publish slot, in milliseconds; must
    /// not exceed the interval (so slots never reorder).
    #[serde(default)]
    pub jitter_ms: f64,
    /// Drop snapshots published while a router↔site partition is
    /// active (default true); `false` models an out-of-band telemetry
    /// channel that survives data-plane partitions.
    #[serde(default = "default_true")]
    pub loss_under_partition: bool,
    /// Per-snapshot loss probability independent of partitions
    /// (background control-plane packet loss); default 0.
    #[serde(default)]
    pub loss_prob: f64,
}

fn default_true() -> bool {
    true
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self {
            report_interval_ms: 0.0,
            jitter_ms: 0.0,
            loss_under_partition: true,
            loss_prob: 0.0,
        }
    }
}

impl TelemetrySpec {
    fn to_config(&self) -> Result<TelemetryConfig, String> {
        if !(self.report_interval_ms.is_finite() && self.report_interval_ms >= 0.0) {
            return Err("topology.telemetry.report_interval_ms must be finite and >= 0".into());
        }
        if !(self.jitter_ms.is_finite() && self.jitter_ms >= 0.0) {
            return Err("topology.telemetry.jitter_ms must be finite and >= 0".into());
        }
        let cfg = TelemetryConfig {
            report_interval: SimDuration::from_secs_f64(self.report_interval_ms / 1e3),
            jitter: SimDuration::from_secs_f64(self.jitter_ms / 1e3),
            loss_under_partition: self.loss_under_partition,
            loss_prob: self.loss_prob,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

impl TopologySpec {
    /// Check the parallel-execution knob against the topology shape.
    pub fn validate_parallel(&self) -> Result<(), String> {
        match self.parallel_sites {
            Some(0) => Err("topology.parallel_sites must be >= 1 when set".into()),
            Some(n) if n > 1 && self.sites.iter().any(|s| s.latency_ms <= 0.0) => {
                // Not an error — the harness falls back to sequential —
                // but surface it early so scenario authors notice.
                eprintln!(
                    "warning: topology.parallel_sites={n} with a zero-latency site: \
                     no conservative lookahead, running sequentially"
                );
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// One timed fault in a scenario's `chaos` block.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChaosEventSpec {
    /// When the fault fires, in seconds from the start of the run.
    pub at: f64,
    /// Fault kind: `"site-down"`, `"site-up"`, `"partition-start"`,
    /// `"partition-end"`, `"container-burst"`, or `"site-slowdown"`.
    pub kind: String,
    /// Target site name (must exist in the scenario's `topology`).
    pub site: String,
    /// Containers to crash (`"container-burst"` only; default 1).
    #[serde(default = "one_u32")]
    pub count: u32,
    /// Service-speed factor (`"site-slowdown"` only): 0.5 = half speed,
    /// services take twice as long; 1.0 (the default) restores nominal
    /// speed, i.e. the brown-out's recovery event.
    #[serde(default = "one")]
    pub factor: f64,
}

/// The optional `chaos` block: timed faults plus stochastic fault
/// processes injected into a federated run. Requires a `topology`
/// block; every fault is drawn from labelled deterministic RNG streams,
/// so a chaos run is exactly reproducible under its seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChaosSpec {
    /// Optional profile name (labels `lass-sweep` rows).
    #[serde(default)]
    pub name: Option<String>,
    /// Explicit timed faults.
    #[serde(default)]
    pub events: Vec<ChaosEventSpec>,
    /// Mean time between stochastic site crashes, per site (exponential;
    /// omit to disable).
    #[serde(default)]
    pub site_mtbf_secs: Option<f64>,
    /// Mean time to recover a crashed site (default 30 s).
    #[serde(default = "thirty")]
    pub site_mttr_secs: f64,
    /// Mean time between stochastic router↔site partitions, per site
    /// (exponential; omit to disable).
    #[serde(default)]
    pub partition_mtbf_secs: Option<f64>,
    /// Mean time for a partition to heal (default 15 s).
    #[serde(default = "fifteen")]
    pub partition_mttr_secs: f64,
    /// Mean time between stochastic container-crash bursts (global; each
    /// burst hits one uniformly-drawn site; omit to disable).
    #[serde(default)]
    pub burst_mtbf_secs: Option<f64>,
    /// Containers crashed per stochastic burst (default 1).
    #[serde(default = "one_u32")]
    pub burst_size: u32,
    /// Extra latency (milliseconds) added to every migrated request's
    /// re-delivery, on top of the destination site's inbound hop.
    #[serde(default)]
    pub migration_penalty_ms: f64,
}

fn one_u32() -> u32 {
    1
}
fn thirty() -> f64 {
    30.0
}
fn fifteen() -> f64 {
    15.0
}

impl ChaosSpec {
    /// The profile label used in sweep tables (`name` or a digest of the
    /// knobs).
    pub fn label(&self) -> String {
        if let Some(name) = &self.name {
            return name.clone();
        }
        let mut parts = Vec::new();
        if !self.events.is_empty() {
            parts.push(format!("{}ev", self.events.len()));
        }
        if let Some(m) = self.site_mtbf_secs {
            parts.push(format!("crash{m}"));
        }
        if let Some(m) = self.partition_mtbf_secs {
            parts.push(format!("part{m}"));
        }
        if let Some(m) = self.burst_mtbf_secs {
            parts.push(format!("burst{m}"));
        }
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join("+")
        }
    }

    /// Resolve site names against the topology and build the simulator's
    /// [`ChaosConfig`].
    pub fn to_config(&self, topology: &TopologySpec) -> Result<ChaosConfig, String> {
        let site_index = |name: &str| -> Result<u32, String> {
            topology
                .sites
                .iter()
                .position(|s| s.name == name)
                .map(|i| i as u32)
                .ok_or_else(|| format!("chaos event targets unknown site {name:?}"))
        };
        let mut events = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            let site = site_index(&ev.site)?;
            let fault = match ev.kind.as_str() {
                "site-down" | "site_down" => Fault::SiteDown { site },
                "site-up" | "site_up" => Fault::SiteUp { site },
                "partition-start" | "partition_start" => Fault::PartitionStart { site },
                "partition-end" | "partition_end" => Fault::PartitionEnd { site },
                "container-burst" | "container_burst" => Fault::ContainerBurst {
                    site,
                    count: ev.count,
                },
                "site-slowdown" | "site_slowdown" => {
                    if !(ev.factor.is_finite() && ev.factor > 0.0) {
                        return Err(format!(
                            "site-slowdown factor must be finite and > 0, got {}",
                            ev.factor
                        ));
                    }
                    Fault::SiteSlowdown {
                        site,
                        permille: (ev.factor * 1000.0).round() as u32,
                    }
                }
                other => {
                    return Err(format!(
                        "unknown chaos fault kind {other:?} (expected \"site-down\", \
                         \"site-up\", \"partition-start\", \"partition-end\", \
                         \"container-burst\", or \"site-slowdown\")"
                    ))
                }
            };
            events.push((ev.at, fault));
        }
        let cfg = ChaosConfig {
            events,
            site_mtbf_secs: self.site_mtbf_secs,
            site_mttr_secs: self.site_mttr_secs,
            partition_mtbf_secs: self.partition_mtbf_secs,
            partition_mttr_secs: self.partition_mttr_secs,
            burst_mtbf_secs: self.burst_mtbf_secs,
            burst_size: self.burst_size,
            migration_penalty_secs: self.migration_penalty_ms / 1e3,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// The result of a scenario run: which report shape depends on the policy
/// and on whether a `topology` block is present.
#[derive(Debug, Serialize)]
pub enum ScenarioReport {
    /// Report from the LaSS, static round-robin, or knative policies.
    Lass(SimReport),
    /// Report from the OpenWhisk baseline policy.
    OpenWhisk(OwReport),
    /// Report from a federated (multi-site) run.
    Federated(FederatedSimReport),
}

/// A function entry: either a catalog name or a custom spec.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
pub enum FunctionRef {
    /// One of the Table 1 functions by name (`"mobilenet_v2"`,
    /// `"squeezenet"`, …; `"micro_benchmark:<ms>"` for the configurable
    /// micro-benchmark).
    Catalog(String),
    /// A fully custom function spec.
    Custom(FunctionSpec),
}

impl FunctionRef {
    /// Materialize the spec.
    pub fn resolve(&self) -> Result<FunctionSpec, String> {
        match self {
            FunctionRef::Custom(spec) => {
                spec.service
                    .validate()
                    .map_err(|e| format!("function {:?}: {e}", spec.name))?;
                Ok(spec.clone())
            }
            FunctionRef::Catalog(name) => {
                if let Some(ms) = name.strip_prefix("micro_benchmark:") {
                    let ms: f64 = ms
                        .parse()
                        .map_err(|_| format!("bad micro_benchmark service time: {name}"))?;
                    if !(ms > 0.0 && ms.is_finite()) {
                        return Err(format!(
                            "function {name:?}: service time must be positive and finite, got {ms} ms"
                        ));
                    }
                    return Ok(micro_benchmark(ms / 1e3));
                }
                match name.as_str() {
                    "micro_benchmark" => Ok(micro_benchmark(0.1)),
                    "mobilenet_v2" => Ok(mobilenet_v2()),
                    "shufflenet_v2" => Ok(shufflenet_v2()),
                    "squeezenet" => Ok(squeezenet()),
                    "binary_alert" => Ok(binary_alert()),
                    "geofence" => Ok(geofence()),
                    "image_resizer" => Ok(image_resizer()),
                    other => Err(format!("unknown catalog function: {other}")),
                }
            }
        }
    }
}

/// One deployed function in a scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FunctionEntry {
    /// The function (catalog name or custom spec).
    pub function: FunctionRef,
    /// SLO deadline in milliseconds (waiting time).
    pub slo_ms: f64,
    /// Workload specification.
    pub workload: WorkloadSpec,
    /// Weight within the user (default 1).
    #[serde(default = "one")]
    pub weight: f64,
    /// Owning user id (default 0).
    #[serde(default)]
    pub user: u32,
    /// The user's weight (default 1; the last entry per user wins).
    #[serde(default = "one")]
    pub user_weight: f64,
    /// Containers provisioned warm at t = 0 (default 0).
    #[serde(default)]
    pub initial_containers: u32,
    /// Workload class override (`"compute"`, `"memory"`, or `"io"`):
    /// shapes the container demand vector. Omit to keep the resolved
    /// spec's own class (catalog functions default to compute, which
    /// reserves cpu and memory only — the legacy behavior).
    #[serde(default)]
    pub class: Option<WorkloadClass>,
}

fn one() -> f64 {
    1.0
}

impl FunctionEntry {
    /// Check the entry's numbers: what the function registry and the
    /// workload generator would otherwise reject with a panic.
    fn validate(&self) -> Result<(), String> {
        let positive = |what: &str, v: f64| {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(format!("{what} must be positive and finite, got {v}"))
            }
        };
        positive("slo_ms", self.slo_ms)?;
        positive("weight", self.weight)?;
        positive("user_weight", self.user_weight)?;
        self.workload.validate()
    }
}

/// A complete simulation scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// RNG seed (default 42).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Which scheduler to run (default: the LaSS controller).
    #[serde(default)]
    pub policy: ScenarioPolicy,
    /// Cluster shape (default: the paper's 3×4-vCPU testbed).
    #[serde(default)]
    pub cluster: ClusterSpec,
    /// Controller configuration (default: the paper's settings).
    #[serde(default)]
    pub config: LassConfig,
    /// Deployed functions.
    pub functions: Vec<FunctionEntry>,
    /// Optional duration override in seconds (default: longest workload).
    #[serde(default)]
    pub duration_secs: Option<f64>,
    /// Optional federated topology; when present the single-cluster
    /// `cluster` field is ignored and the policy runs once per site.
    #[serde(default)]
    pub topology: Option<TopologySpec>,
    /// Optional fault injection (requires `topology`): timed site
    /// crashes / partitions / container bursts plus stochastic fault
    /// processes, with cross-site migration of a dead site's requests.
    #[serde(default)]
    pub chaos: Option<ChaosSpec>,
}

fn default_seed() -> u64 {
    42
}

impl Scenario {
    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        serde_json::from_str(text).map_err(|e| format!("scenario parse error: {e}"))
    }

    /// Build and run the simulation under the scenario's policy.
    ///
    /// Kept for callers that expect a [`SimReport`]; the `"openwhisk"`
    /// policy and federated topologies produce different report shapes
    /// and are only reachable via [`Scenario::run_report`].
    pub fn run(&self) -> Result<SimReport, String> {
        match self.run_report()? {
            ScenarioReport::Lass(report) => Ok(report),
            ScenarioReport::OpenWhisk(_) => {
                Err("the openwhisk policy produces an OwReport; use Scenario::run_report".into())
            }
            ScenarioReport::Federated(_) => Err(
                "a federated topology produces a FederatedSimReport; use Scenario::run_report"
                    .into(),
            ),
        }
    }

    fn build_cluster(&self) -> Cluster {
        self.cluster.build()
    }

    fn build_topology(&self, spec: &TopologySpec) -> Result<Topology, String> {
        let mut topology = Topology::new();
        for site in &spec.sites {
            site.cluster
                .validate()
                .map_err(|e| format!("site {:?}: {e}", site.name))?;
            topology.add_site(
                site.name.clone(),
                site.cluster.build(),
                site.latency_ms / 1e3,
            );
        }
        topology.validate()?;
        Ok(topology)
    }

    /// Run a scenario with a `topology` block through the federated
    /// harness.
    fn run_federated(&self, spec: &TopologySpec) -> Result<FederatedSimReport, String> {
        let site_policy = match self.policy {
            ScenarioPolicy::Lass => SitePolicyKind::Lass,
            ScenarioPolicy::StaticRr => SitePolicyKind::StaticRr,
            ScenarioPolicy::Knative => SitePolicyKind::Knative,
            ScenarioPolicy::OpenWhisk => {
                return Err(
                    "the openwhisk policy cannot run over a topology (its report shape is \
                     per-invoker, not per-site); use \"lass\", \"static-rr\", or \"knative\""
                        .into(),
                )
            }
        };
        spec.validate_parallel()?;
        let topology = self.build_topology(spec)?;
        let mut sim = FederatedSimulation::new(self.config.clone(), topology, self.seed);
        sim.set_router(spec.router)
            .set_router_config(spec.router_config)
            .set_telemetry(spec.telemetry.to_config()?)
            .set_hedge(spec.hedge)
            .set_policy(site_policy)
            .set_parallel(spec.parallel_sites);
        if let Some(chaos) = &self.chaos {
            sim.set_chaos(chaos.to_config(spec)?);
        }
        for setup in self.build_setups()? {
            sim.add_function(setup);
        }
        sim.run(self.duration_secs)
    }

    fn build_setups(&self) -> Result<Vec<FunctionSetup>, String> {
        self.functions
            .iter()
            .map(|entry| {
                let mut spec = entry.function.resolve()?;
                if let Some(class) = entry.class {
                    spec.class = class;
                }
                entry
                    .validate()
                    .map_err(|e| format!("function {:?}: {e}", spec.name))?;
                let mut setup =
                    FunctionSetup::new(spec, entry.slo_ms / 1e3, entry.workload.clone());
                setup.weight = entry.weight;
                setup.user = UserId(entry.user);
                setup.user_weight = entry.user_weight;
                setup.initial_containers = entry.initial_containers;
                Ok(setup)
            })
            .collect()
    }

    /// Build and run the simulation, returning whichever report shape the
    /// scenario's policy produces.
    pub fn run_report(&self) -> Result<ScenarioReport, String> {
        if self.functions.is_empty() {
            return Err("scenario has no functions".into());
        }
        self.config.validate()?;
        if let Some(spec) = &self.topology {
            return self.run_federated(spec).map(ScenarioReport::Federated);
        }
        if self.chaos.is_some() {
            return Err(
                "a \"chaos\" block requires a \"topology\" block (faults target topology sites)"
                    .into(),
            );
        }
        self.cluster.validate()?;
        match self.policy {
            ScenarioPolicy::Lass => {
                let mut sim = Simulation::new(self.config.clone(), self.build_cluster(), self.seed);
                for setup in self.build_setups()? {
                    sim.add_function(setup);
                }
                Ok(ScenarioReport::Lass(sim.run(self.duration_secs)))
            }
            ScenarioPolicy::StaticRr => {
                let mut sim = StaticRrSimulation::new(self.build_cluster(), self.seed);
                for setup in self.build_setups()? {
                    sim.add_function(setup);
                }
                Ok(ScenarioReport::Lass(sim.run(self.duration_secs)))
            }
            ScenarioPolicy::Knative => {
                let mut sim =
                    KnativeSimulation::new(self.config.clone(), self.build_cluster(), self.seed);
                for setup in self.build_setups()? {
                    sim.add_function(setup);
                }
                Ok(ScenarioReport::Lass(sim.run(self.duration_secs)))
            }
            ScenarioPolicy::OpenWhisk => {
                let mut sim = OwSimulation::new(OwConfig {
                    invokers: self.cluster.nodes,
                    mem_per_invoker: MemMib(self.cluster.mem_mib),
                    cpu_per_invoker: CpuMilli(self.cluster.cpu_milli),
                    seed: self.seed,
                    ..OwConfig::default()
                });
                for setup in self.build_setups()? {
                    sim.add_function(OwFunctionSetup {
                        spec: setup.spec,
                        workload: setup.workload,
                        slo_deadline: setup.slo_deadline,
                    });
                }
                Ok(ScenarioReport::OpenWhisk(sim.run(self.duration_secs)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"{
        "seed": 7,
        "cluster": { "nodes": 3, "cpu_milli": 4000, "mem_mib": 16384 },
        "functions": [
            {
                "function": "micro_benchmark:100",
                "slo_ms": 100,
                "workload": { "Static": { "rate": 15.0, "duration": 60.0 } },
                "initial_containers": 2
            },
            {
                "function": "squeezenet",
                "slo_ms": 100,
                "user": 1,
                "user_weight": 2.0,
                "workload": { "Steps": { "steps": [[0.0, 0.0], [30.0, 10.0]], "duration": 60.0 } }
            }
        ]
    }"#;

    #[test]
    fn demo_scenario_parses_and_runs() {
        let sc = Scenario::from_json(DEMO).expect("valid scenario");
        assert_eq!(sc.seed, 7);
        assert_eq!(sc.functions.len(), 2);
        let report = sc.run().expect("runs");
        assert!(report.per_fn[&0].completed > 500);
        assert!(report.per_fn[&1].completed > 100);
    }

    #[test]
    fn catalog_names_resolve() {
        for name in [
            "micro_benchmark",
            "mobilenet_v2",
            "shufflenet_v2",
            "squeezenet",
            "binary_alert",
            "geofence",
            "image_resizer",
        ] {
            assert!(
                FunctionRef::Catalog(name.into()).resolve().is_ok(),
                "{name}"
            );
        }
        assert!(FunctionRef::Catalog("nope".into()).resolve().is_err());
        let mb = FunctionRef::Catalog("micro_benchmark:250".into())
            .resolve()
            .unwrap();
        assert!((mb.service.base_time - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_scenario_rejected() {
        let sc = Scenario {
            seed: 1,
            policy: ScenarioPolicy::default(),
            cluster: ClusterSpec::default(),
            config: LassConfig::default(),
            functions: vec![],
            duration_secs: None,
            topology: None,
            chaos: None,
        };
        assert!(sc.run().is_err());
    }

    #[test]
    fn static_rr_policy_runs_from_json() {
        let text = r#"{
            "policy": "static-rr",
            "functions": [
                {
                    "function": "micro_benchmark:100",
                    "slo_ms": 100,
                    "workload": { "Static": { "rate": 10.0, "duration": 60.0 } },
                    "initial_containers": 3
                }
            ]
        }"#;
        let sc = Scenario::from_json(text).expect("valid scenario");
        assert_eq!(sc.policy, ScenarioPolicy::StaticRr);
        let report = sc.run().expect("runs");
        let f = &report.per_fn[&0];
        assert!(f.completed > 400, "completed={}", f.completed);
        // Static policy never plans epochs.
        assert_eq!(report.epochs, 0);
    }

    #[test]
    fn openwhisk_policy_runs_from_json() {
        let text = r#"{
            "policy": "openwhisk",
            "functions": [
                {
                    "function": "binary_alert",
                    "slo_ms": 100,
                    "workload": { "Static": { "rate": 10.0, "duration": 60.0 } }
                }
            ]
        }"#;
        let sc = Scenario::from_json(text).expect("valid scenario");
        let ScenarioReport::OpenWhisk(report) = sc.run_report().expect("runs") else {
            panic!("expected an OpenWhisk report");
        };
        assert!(report.per_fn[&0].completed > 400);
        assert!(report.failures.is_empty());
        // run() refuses the mismatched report shape.
        assert!(sc.run().is_err());
    }

    #[test]
    fn policy_strings_parse_and_roundtrip() {
        for (text, want) in [
            ("\"lass\"", ScenarioPolicy::Lass),
            ("\"static-rr\"", ScenarioPolicy::StaticRr),
            ("\"static\"", ScenarioPolicy::StaticRr),
            ("\"knative\"", ScenarioPolicy::Knative),
            ("\"openwhisk\"", ScenarioPolicy::OpenWhisk),
        ] {
            let got: ScenarioPolicy = serde_json::from_str(text).expect("parses");
            assert_eq!(got, want);
        }
        assert!(serde_json::from_str::<ScenarioPolicy>("\"fifo\"").is_err());
        let json = serde_json::to_string(&ScenarioPolicy::StaticRr).unwrap();
        assert_eq!(json, "\"static-rr\"");
    }

    #[test]
    fn knative_policy_runs_from_json() {
        let text = r#"{
            "policy": "knative",
            "config": { "scaler": { "ConcurrencyTarget": { "target": 2.0 } } },
            "functions": [
                {
                    "function": "micro_benchmark:100",
                    "slo_ms": 100,
                    "workload": { "Static": { "rate": 20.0, "duration": 90.0 } }
                }
            ]
        }"#;
        let sc = Scenario::from_json(text).expect("valid scenario");
        assert_eq!(sc.policy, ScenarioPolicy::Knative);
        let report = sc.run().expect("runs");
        let f = &report.per_fn[&0];
        assert!(f.completed > 1500, "completed={}", f.completed);
        assert!(report.epochs > 0);
    }

    const FEDERATED: &str = r#"{
        "seed": 9,
        "policy": "lass",
        "topology": {
            "router": "latency-aware",
            "sites": [
                { "name": "edge",  "cluster": { "nodes": 1, "cpu_milli": 4000, "mem_mib": 16384 }, "latency_ms": 2 },
                { "name": "cloud", "cluster": { "nodes": 6, "cpu_milli": 4000, "mem_mib": 16384 }, "latency_ms": 40 }
            ]
        },
        "functions": [
            {
                "function": "micro_benchmark:100",
                "slo_ms": 150,
                "workload": { "Static": { "rate": 60.0, "duration": 90.0 } },
                "initial_containers": 1
            }
        ]
    }"#;

    #[test]
    fn federated_scenario_parses_and_runs() {
        let sc = Scenario::from_json(FEDERATED).expect("valid scenario");
        let spec = sc.topology.as_ref().expect("topology block");
        assert_eq!(spec.router, lass_simcore::RouterKind::LatencyAware);
        assert_eq!(spec.sites.len(), 2);
        let ScenarioReport::Federated(report) = sc.run_report().expect("runs") else {
            panic!("expected a federated report");
        };
        assert_eq!(report.per_site.len(), 2);
        assert_eq!(report.router, "latency-aware");
        let routed: usize = report.per_site.iter().map(|s| s.routed).sum();
        assert_eq!(routed, report.aggregate_per_fn[0].arrivals);
        // run() refuses the mismatched report shape.
        assert!(sc.run().is_err());
    }

    #[test]
    fn federated_scenario_round_trips_through_json() {
        let sc = Scenario::from_json(FEDERATED).expect("valid scenario");
        let json = serde_json::to_string(&sc).unwrap();
        let back = Scenario::from_json(&json).expect("round-trips");
        let spec = back.topology.expect("topology survives");
        assert_eq!(spec.sites[1].name, "cloud");
        assert_eq!(spec.sites[1].latency_ms, 40.0);
    }

    #[test]
    fn openwhisk_rejects_topology() {
        let text = r#"{
            "policy": "openwhisk",
            "topology": { "sites": [ { "name": "a" } ] },
            "functions": [
                {
                    "function": "binary_alert",
                    "slo_ms": 100,
                    "workload": { "Static": { "rate": 5.0, "duration": 30.0 } }
                }
            ]
        }"#;
        let sc = Scenario::from_json(text).expect("parses");
        assert!(sc.run_report().is_err());
    }

    const CHAOS: &str = r#"{
        "seed": 13,
        "policy": "lass",
        "topology": {
            "router": "least-loaded",
            "sites": [
                { "name": "a", "cluster": { "nodes": 2, "cpu_milli": 4000, "mem_mib": 16384 }, "latency_ms": 2 },
                { "name": "b", "cluster": { "nodes": 2, "cpu_milli": 4000, "mem_mib": 16384 }, "latency_ms": 10 }
            ]
        },
        "chaos": {
            "name": "crash-a",
            "migration_penalty_ms": 5,
            "events": [
                { "at": 30.0, "kind": "site-down", "site": "a" },
                { "at": 60.0, "kind": "site-up", "site": "a" },
                { "at": 70.0, "kind": "container-burst", "site": "b", "count": 2 }
            ]
        },
        "functions": [
            {
                "function": "micro_benchmark:100",
                "slo_ms": 150,
                "workload": { "Static": { "rate": 30.0, "duration": 90.0 } },
                "initial_containers": 2
            }
        ]
    }"#;

    #[test]
    fn chaos_scenario_parses_runs_and_migrates() {
        let sc = Scenario::from_json(CHAOS).expect("valid scenario");
        let chaos = sc.chaos.as_ref().expect("chaos block");
        assert_eq!(chaos.label(), "crash-a");
        assert_eq!(chaos.events.len(), 3);
        let ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
            panic!("expected a federated report");
        };
        let a = &rep.per_site[0];
        assert!(a.migrated > 0, "site a's orphans must migrate");
        assert!((a.downtime_secs - 30.0).abs() < 1e-6, "{}", a.downtime_secs);
        assert_eq!(rep.per_site[1].migrated_in, a.migrated);
        assert!(rep.per_site[1].chaos_crashes > 0, "burst must land on b");
        // Conservation at the engine aggregate.
        let agg = &rep.aggregate_per_fn[0];
        assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding
        );
    }

    #[test]
    fn parallel_topology_runs_and_matches_itself() {
        let with_threads = |threads: &str| {
            FEDERATED.replace(
                "\"router\": \"latency-aware\",",
                &format!("\"router\": \"latency-aware\", \"parallel_sites\": {threads},"),
            )
        };
        let run = |text: &str| {
            let sc = Scenario::from_json(text).expect("valid scenario");
            let ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
                panic!("expected a federated report");
            };
            serde_json::to_string(&rep).unwrap()
        };
        let a = run(&with_threads("1"));
        let b = run(&with_threads("4"));
        assert_eq!(a, b, "parallel scenario diverged across thread counts");
    }

    #[test]
    fn parallel_sites_zero_is_rejected() {
        let text = FEDERATED.replace(
            "\"router\": \"latency-aware\",",
            "\"router\": \"latency-aware\", \"parallel_sites\": 0,",
        );
        let sc = Scenario::from_json(&text).expect("parses");
        let err = sc.run_report().unwrap_err();
        assert!(err.contains("parallel_sites"), "{err}");
    }

    #[test]
    fn zero_latency_parallel_topology_falls_back_to_sequential() {
        // Site latency 0 ms → no conservative lookahead; the run must
        // complete (sequential fallback) and match the plain sequential
        // report exactly.
        let base = FEDERATED.replace("\"latency_ms\": 2", "\"latency_ms\": 0");
        let par = base.replace(
            "\"router\": \"latency-aware\",",
            "\"router\": \"latency-aware\", \"parallel_sites\": 4,",
        );
        let run = |text: &str| {
            let sc = Scenario::from_json(text).expect("valid scenario");
            let ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
                panic!("expected a federated report");
            };
            serde_json::to_string(&rep).unwrap()
        };
        assert_eq!(run(&base), run(&par), "fallback must be the sequential run");
    }

    #[test]
    fn chaos_scenario_round_trips_through_json() {
        let sc = Scenario::from_json(CHAOS).expect("valid scenario");
        let json = serde_json::to_string(&sc).unwrap();
        let back = Scenario::from_json(&json).expect("round-trips");
        let chaos = back.chaos.expect("chaos survives");
        assert_eq!(chaos.events[0].kind, "site-down");
        assert_eq!(chaos.events[2].count, 2);
        assert_eq!(chaos.migration_penalty_ms, 5.0);
    }

    #[test]
    fn chaos_without_topology_is_rejected() {
        let text = r#"{
            "chaos": { "events": [ { "at": 10.0, "kind": "site-down", "site": "a" } ] },
            "functions": [
                {
                    "function": "binary_alert",
                    "slo_ms": 100,
                    "workload": { "Static": { "rate": 5.0, "duration": 30.0 } }
                }
            ]
        }"#;
        let sc = Scenario::from_json(text).expect("parses");
        let err = sc.run_report().unwrap_err();
        assert!(err.contains("topology"), "{err}");
    }

    #[test]
    fn chaos_bad_site_and_kind_are_rejected() {
        let mut sc = Scenario::from_json(CHAOS).expect("valid scenario");
        sc.chaos.as_mut().unwrap().events[0].site = "nope".into();
        assert!(sc.run_report().unwrap_err().contains("unknown site"));
        let mut sc = Scenario::from_json(CHAOS).expect("valid scenario");
        sc.chaos.as_mut().unwrap().events[0].kind = "meteor-strike".into();
        assert!(sc.run_report().unwrap_err().contains("fault kind"));
    }

    #[test]
    fn chaos_labels_summarize_profiles() {
        let spec: ChaosSpec = serde_json::from_str(r#"{ "site_mtbf_secs": 120.0 }"#).unwrap();
        assert_eq!(spec.label(), "crash120");
        let spec: ChaosSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(spec.label(), "none");
    }

    #[test]
    fn custom_function_round_trips_through_json() {
        let spec = micro_benchmark(0.2);
        let entry = FunctionEntry {
            function: FunctionRef::Custom(spec),
            slo_ms: 150.0,
            workload: WorkloadSpec::Static {
                rate: 5.0,
                duration: 30.0,
            },
            weight: 1.0,
            user: 0,
            user_weight: 1.0,
            initial_containers: 1,
            class: None,
        };
        let json = serde_json::to_string(&entry).unwrap();
        let back: FunctionEntry = serde_json::from_str(&json).unwrap();
        assert!(back.function.resolve().is_ok());
    }
}
