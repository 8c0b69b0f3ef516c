//! Federated simulation: a [`Topology`] of cluster sites behind a
//! front-end router, each running its own scheduler instance.
//!
//! This is the harness tying the layers together: `lass-cluster`'s
//! [`Topology`] describes the fleet, `lass-simcore`'s
//! [`Federation`] meta-policy multiplexes one event pump across the
//! per-site schedulers, and a [`RouterKind`] decides where each arrival
//! goes (with the network hop added to its response time). Any of the
//! `SimReport`-shaped schedulers — the LaSS controller, static
//! round-robin, or the Knative-style concurrency scaler — can serve as
//! the per-site policy.
//!
//! A single-site topology with zero latency is the degenerate case and
//! reproduces the corresponding plain single-cluster simulation
//! event-for-event (the golden-parity tests pin this).
//!
//! [`FederatedSimulation::set_chaos`] hands the federation its fault
//! schedule ([`Federation::with_chaos`]): site crashes, router↔site
//! partitions, container-crash bursts, and cross-site migration of a
//! dead site's orphans. The default (empty) [`ChaosConfig`] injects
//! nothing, and the goldens pin that such a run is untouched. Crashed
//! sites recover *cold*: the per-site scheduler is rebuilt from the
//! original provisioning (initial containers, fresh controller state),
//! with its crash RNG stream relabelled per restart so replays stay
//! deterministic. [`run_federation`] picks the driver.

use crate::config::LassConfig;
use crate::simulation::{FunctionSetup, SimReport};
use crate::site::{engine_config, run_inputs, site_builder};
use crate::SitePolicyKind;
use lass_cluster::{Cluster, FnId, Topology};
use lass_simcore::{
    run_federation, ChaosConfig, FedFunction, FederatedReport, Federation, FederationConfig,
    RouterKind, SimDuration, SiteMeta,
};

/// The report of a federated run: one [`SimReport`] per site plus the
/// engine's cross-site aggregate statistics.
pub type FederatedSimReport = FederatedReport<SimReport>;

/// A simulation over a federated [`Topology`].
pub struct FederatedSimulation {
    cfg: LassConfig,
    topology: Topology,
    seed: u64,
    router: RouterKind,
    federation: FederationConfig,
    policy: SitePolicyKind,
    chaos: ChaosConfig,
    parallel: Option<usize>,
    setups: Vec<FunctionSetup>,
}

impl FederatedSimulation {
    /// Create a federated simulation (round-robin router, LaSS sites,
    /// no chaos by default).
    pub fn new(cfg: LassConfig, topology: Topology, seed: u64) -> Self {
        cfg.validate().expect("invalid LassConfig");
        Self {
            cfg,
            topology,
            seed,
            router: RouterKind::default(),
            federation: FederationConfig::default(),
            policy: SitePolicyKind::default(),
            chaos: ChaosConfig::default(),
            parallel: None,
            setups: Vec::new(),
        }
    }

    /// Choose the front-end router.
    pub fn set_router(&mut self, router: RouterKind) -> &mut Self {
        self.router = router;
        self
    }

    /// Configure the front end: the router and telemetry constants,
    /// delayed telemetry, hedging, the migration penalty and the
    /// utilization reconciler (see [`FederationConfig`]). The default is
    /// oracle routing under the default constants, with none of the
    /// rest.
    pub fn set_federation(&mut self, federation: FederationConfig) -> &mut Self {
        self.federation = federation;
        self
    }

    /// Choose the per-site scheduler.
    pub fn set_policy(&mut self, policy: SitePolicyKind) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Arm fault injection: timed and stochastic site crashes,
    /// partitions, and container bursts (see [`ChaosConfig`]). Faults
    /// target sites by topology index; [`FederatedSimulation::run`]
    /// rejects one aimed past the last site.
    pub fn set_chaos(&mut self, chaos: ChaosConfig) -> &mut Self {
        self.chaos = chaos;
        self
    }

    /// Run sites on `threads` threads in total — the calling thread plus
    /// `threads - 1` workers — using the
    /// conservative-synchronization parallel executor (see
    /// `lass_simcore::parallel`). Requires a multi-site topology where
    /// every site has a strictly positive router latency — degenerate
    /// topologies fall back to the sequential engine with a warning on
    /// stderr. The parallel report is deterministic for a given seed
    /// regardless of `threads`, but is not byte-identical to the
    /// sequential engine's (per-site RNG streams, barrier-stale router
    /// telemetry).
    pub fn set_parallel(&mut self, threads: Option<usize>) -> &mut Self {
        self.parallel = threads;
        self
    }

    /// Deploy a function on every site; returns its id (assigned in
    /// registration order). `initial_containers` are provisioned
    /// per-site.
    pub fn add_function(&mut self, setup: FunctionSetup) -> FnId {
        let id = FnId(self.setups.len() as u32);
        self.setups.push(setup);
        id
    }

    /// Run to completion. `duration` defaults to the longest workload.
    pub fn run(self, duration_override: Option<f64>) -> Result<FederatedSimReport, String> {
        self.topology.validate()?;
        if self.setups.is_empty() {
            return Err("federated simulation has no functions".into());
        }
        let (duration, entries) = run_inputs(&self.setups, duration_override);
        if duration <= 0.0 {
            return Err("simulation needs a positive duration".into());
        }
        let fed_functions: Vec<FedFunction> = self
            .setups
            .iter()
            .map(|s| {
                let d = s.spec.standard_demand();
                FedFunction {
                    name: s.spec.name.clone(),
                    slo_deadline: s.slo_deadline,
                    demand: [
                        f64::from(d.cpu.0),
                        f64::from(d.mem.0),
                        f64::from(d.bandwidth.0),
                    ],
                }
            })
            .collect();
        let metas: Vec<SiteMeta> = self
            .topology
            .sites()
            .iter()
            .map(|site| SiteMeta {
                name: site.name.clone(),
                latency: SimDuration::from_secs_f64(site.latency_secs),
                capacity_hint: site.cluster.total_cpu_capacity().as_cores(),
            })
            .collect();
        // Pristine per-site clusters.
        let clusters: Vec<Cluster> = self
            .topology
            .into_sites()
            .into_iter()
            .map(|s| s.cluster)
            .collect();
        let router = self.router.build_with(&self.federation.router);
        // The build closure doubles as the federation's rebuild
        // factory, so a crashed site recovers with its original
        // provisioning.
        let mut build = site_builder(self.policy, self.cfg, clusters, self.seed, self.setups);
        let sites = metas
            .into_iter()
            .enumerate()
            .map(|(i, meta)| (meta, build(i, 0)))
            .collect();
        let fed =
            Federation::configured(sites, router, &fed_functions, self.federation, self.seed)?
                .with_rebuild(Box::new(build))
                .with_chaos(self.chaos, self.seed)?;
        let cfg = engine_config(self.policy, self.seed, duration, self.parallel);
        run_federation(cfg, entries, fed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_cluster::{Cluster, CpuMilli, MemMib, PlacementPolicy};
    use lass_functions::{micro_benchmark, WorkloadSpec};

    fn edge_cloud() -> Topology {
        let mut t = Topology::new();
        t.add_site(
            "edge",
            Cluster::homogeneous(
                1,
                CpuMilli(4000),
                MemMib(16 * 1024),
                PlacementPolicy::BestFit,
            ),
            0.002,
        );
        t.add_site(
            "cloud",
            Cluster::homogeneous(
                6,
                CpuMilli(4000),
                MemMib(16 * 1024),
                PlacementPolicy::BestFit,
            ),
            0.040,
        );
        t
    }

    fn overload_sim(router: RouterKind) -> FederatedSimReport {
        let mut sim = FederatedSimulation::new(LassConfig::default(), edge_cloud(), 42);
        sim.set_router(router);
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 60.0,
                duration: 120.0,
            },
        );
        setup.initial_containers = 1;
        sim.add_function(setup);
        sim.run(Some(120.0)).expect("runs")
    }

    #[test]
    fn latency_aware_offloads_overflow_to_the_cloud() {
        let rep = overload_sim(RouterKind::LatencyAware);
        assert_eq!(rep.per_site.len(), 2);
        let (edge, cloud) = (&rep.per_site[0], &rep.per_site[1]);
        assert!(edge.routed > 0, "edge starved");
        assert!(
            cloud.routed > 0,
            "60 req/s against a 4-core edge must spill: {:?}",
            (edge.routed, cloud.routed)
        );
        // Conservation: every arrival was routed somewhere.
        assert_eq!(edge.routed + cloud.routed, rep.aggregate_per_fn[0].arrivals);
    }

    /// Regression for the reconciler seam: with the site autoscaler
    /// off, only the control plane's utilization reconciler can grow an
    /// under-provisioned fleet — each directive round-trips through the
    /// telemetry layer (one latency each way) into
    /// [`LassPolicy`]'s `apply_desired_fleet`, which must actually
    /// create containers rather than hit the default no-op seam.
    #[test]
    fn reconciler_directives_scale_lass_sites_through_the_seam() {
        let run = |target: Option<f64>| {
            let mut cfg = LassConfig::default();
            cfg.autoscale = false;
            let mut sim = FederatedSimulation::new(cfg, edge_cloud(), 42);
            let mut federation = FederationConfig::default();
            federation.telemetry.report_interval = SimDuration::from_secs_f64(1.0);
            federation.reconciler_target = target;
            sim.set_federation(federation);
            let mut setup = FunctionSetup::new(
                micro_benchmark(0.1),
                0.1,
                WorkloadSpec::Static {
                    rate: 30.0,
                    duration: 60.0,
                },
            );
            setup.initial_containers = 1;
            sim.add_function(setup);
            sim.run(Some(60.0)).expect("runs")
        };
        let base = run(None);
        let scaled = run(Some(0.2));
        // 30 req/s against one μ=10 container per site cannot keep up —
        // the frozen fleet only finishes its backlog during the drain
        // grace, with queueing delays in the tens of seconds. The
        // reconciled fleet must hold waits near the service time and
        // violate the SLO far less.
        let (b, s) = (&base.aggregate_per_fn[0], &scaled.aggregate_per_fn[0]);
        let (bw, sw) = (
            b.wait.mean().unwrap_or(0.0),
            s.wait.mean().unwrap_or(f64::INFINITY),
        );
        assert!(
            sw < bw * 0.5,
            "reconciler failed to grow the fleet: mean wait {bw} -> {sw}"
        );
        assert!(
            s.slo_violations < b.slo_violations / 2,
            "slo violations {} -> {}",
            b.slo_violations,
            s.slo_violations
        );
    }

    #[test]
    fn federated_run_is_deterministic() {
        let a = overload_sim(RouterKind::LeastLoaded);
        let b = overload_sim(RouterKind::LeastLoaded);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn static_and_knative_site_policies_run() {
        for kind in [SitePolicyKind::StaticRr, SitePolicyKind::Knative] {
            let mut sim = FederatedSimulation::new(LassConfig::default(), edge_cloud(), 7);
            sim.set_policy(kind).set_router(RouterKind::RoundRobin);
            let mut setup = FunctionSetup::new(
                micro_benchmark(0.1),
                0.1,
                WorkloadSpec::Static {
                    rate: 20.0,
                    duration: 60.0,
                },
            );
            setup.initial_containers = 2;
            sim.add_function(setup);
            let rep = sim.run(Some(60.0)).expect("runs");
            let completed: usize = rep
                .per_site
                .iter()
                .map(|s| s.report.per_fn[&0].completed)
                .sum();
            assert!(completed > 900, "{kind:?}: completed={completed}");
        }
    }

    #[test]
    fn parallel_execution_is_thread_count_invariant() {
        let run = |threads: usize| {
            let mut sim = FederatedSimulation::new(LassConfig::default(), edge_cloud(), 42);
            sim.set_router(RouterKind::LeastLoaded)
                .set_parallel(Some(threads));
            let mut setup = FunctionSetup::new(
                micro_benchmark(0.1),
                0.1,
                WorkloadSpec::Static {
                    rate: 40.0,
                    duration: 60.0,
                },
            );
            setup.initial_containers = 1;
            sim.add_function(setup);
            sim.run(Some(60.0)).expect("runs")
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "parallel LaSS federation diverged across thread counts"
        );
        assert!(a.aggregate_per_fn[0].completed > 1000);
    }

    #[test]
    fn invalid_topology_is_rejected() {
        let sim = FederatedSimulation::new(LassConfig::default(), Topology::new(), 1);
        assert!(sim.run(Some(10.0)).is_err());
    }
}
