//! End-to-end simulation: workloads → load balancer → containers, with the
//! LaSS controller in the loop.
//!
//! This is the simulated equivalent of the paper's testbed runs: requests
//! arrive from per-function workload generators, the load balancer hands
//! them to containers (§5), containers serve FCFS with service times drawn
//! from the function's (deflation-dependent) model, and the controller
//! re-plans allocations every epoch from its sliding-window monitors.
//!
//! The event pump, request lifecycle, and latency statistics live in the
//! shared engine (`lass_simcore::engine`), and the cluster mechanics in
//! [`ClusterSite`]; this module contributes [`Simulation`], the
//! single-cluster harness for any [`SitePolicyKind`], and [`LassPolicy`],
//! the LaSS scheduling decisions under the [`LassController`]. Everything
//! is deterministic given the seed.

use crate::config::{DispatchPolicy, LassConfig};
use crate::controller::LassController;
use crate::loadbalancer::SmoothWrr;
use crate::registry::FunctionRegistry;
use crate::site::{engine_config, run_inputs, site_builder, ClusterSite, Ev, SitePolicy};
use crate::SitePolicyKind;
use lass_cluster::{Cluster, ContainerId, FnId, RequestId, UserId};
use lass_functions::{FunctionSpec, WorkloadSpec};
use lass_simcore::{
    run_simulation, EngineOutcome, PolicyCtx, ReqId, SampleStats, SimDuration, SimRng, SimTime,
    TimeSeries,
};
use serde::Serialize;
use std::collections::BTreeMap;

/// One function's deployment in a simulation run.
#[derive(Debug, Clone)]
pub struct FunctionSetup {
    /// Runtime characteristics.
    pub spec: FunctionSpec,
    /// SLO deadline (seconds) on the waiting time (§6.1 default 0.1).
    pub slo_deadline: f64,
    /// Weight within the owning user.
    pub weight: f64,
    /// Owning user.
    pub user: UserId,
    /// User's weight (set once per user; later setups may repeat it).
    pub user_weight: f64,
    /// The workload driving this function.
    pub workload: WorkloadSpec,
    /// Containers provisioned warm at t=0.
    pub initial_containers: u32,
}

impl FunctionSetup {
    /// A setup with the common defaults: weight 1 under user 0, no
    /// pre-provisioned containers.
    pub fn new(spec: FunctionSpec, slo_deadline: f64, workload: WorkloadSpec) -> Self {
        Self {
            spec,
            slo_deadline,
            weight: 1.0,
            user: UserId(0),
            user_weight: 1.0,
            workload,
            initial_containers: 0,
        }
    }
}

/// Per-function results.
#[derive(Debug, Serialize)]
pub struct FnReport {
    /// Function name.
    pub name: String,
    /// Total arrivals.
    pub arrivals: usize,
    /// Completed requests.
    pub completed: usize,
    /// Requests re-dispatched because their container was terminated or
    /// crashed.
    pub reruns: usize,
    /// Waiting times (arrival → service start), seconds.
    pub wait: SampleStats,
    /// Response times (arrival → completion), seconds.
    pub response: SampleStats,
    /// Service times (start → completion), seconds.
    pub service: SampleStats,
    /// Requests whose waiting time exceeded the SLO deadline.
    pub slo_violations: usize,
    /// Requests abandoned after exceeding the platform's hard time limit.
    pub timeouts: usize,
    /// Allocated CPU (milli) over time, sampled each epoch.
    pub cpu_timeline: TimeSeries,
    /// Container count over time, sampled each epoch.
    pub container_timeline: TimeSeries,
    /// Observed arrival rate (req/s) per monitor tick.
    pub rate_timeline: TimeSeries,
}

impl FnReport {
    /// Fraction of requests whose wait met the SLO deadline (abandoned
    /// requests count as violations).
    pub fn slo_attainment(&self) -> f64 {
        let finished = self.completed + self.timeouts;
        if finished == 0 {
            return 1.0;
        }
        1.0 - self.slo_violations as f64 / finished as f64
    }
}

/// Whole-run results.
#[derive(Debug, Serialize)]
pub struct SimReport {
    /// Per-function reports, keyed by function id index.
    pub per_fn: BTreeMap<u32, FnReport>,
    /// Time-weighted average of allocated CPU / capacity (the paper's
    /// "system utilization" in §6.6/§6.7).
    pub allocated_utilization: f64,
    /// CPU-seconds actually consumed by request service divided by
    /// capacity × duration (busy utilization).
    pub busy_utilization: f64,
    /// Simulated duration in seconds (excluding drain).
    pub duration: f64,
    /// Epochs planned under overload.
    pub overloaded_epochs: usize,
    /// Total epochs planned.
    pub epochs: usize,
    /// Creates that failed even after lazy reclamation.
    pub failed_creates: u32,
    /// Containers crashed by failure injection: MTBF crashes
    /// (`container_mtbf_secs`) and chaos bursts.
    pub crashes: usize,
    /// Cluster-wide unallocated-capacity timeline (fraction), per epoch.
    pub free_timeline: TimeSeries,
}

/// The single-cluster simulation harness: one cluster under a
/// [`SitePolicyKind`] (LaSS by default).
pub struct Simulation {
    cfg: LassConfig,
    seed: u64,
    cluster: Cluster,
    policy: SitePolicyKind,
    setups: Vec<FunctionSetup>,
}

impl Simulation {
    /// Create a LaSS simulation over a cluster.
    pub fn new(cfg: LassConfig, cluster: Cluster, seed: u64) -> Self {
        cfg.validate().expect("invalid LassConfig");
        Self {
            cfg,
            seed,
            cluster,
            policy: SitePolicyKind::default(),
            setups: Vec::new(),
        }
    }

    /// Choose the scheduler. Static round-robin reads only the setups'
    /// `initial_containers` (minimum one per function: the fixed pool);
    /// Knative reads the config's monitor interval, EWMA weight,
    /// container cap and [`ScalerKind::ConcurrencyTarget`](crate::ScalerKind)
    /// target.
    pub fn set_policy(&mut self, policy: SitePolicyKind) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Deploy a function; returns its id (assigned in registration order).
    pub fn add_function(&mut self, setup: FunctionSetup) -> FnId {
        let id = FnId(self.setups.len() as u32);
        self.setups.push(setup);
        id
    }

    /// Run to completion. `duration` defaults to the longest workload; a
    /// drain grace period lets in-flight requests finish afterwards.
    pub fn run(self, duration_override: Option<f64>) -> SimReport {
        self.launch(duration_override, |_| {})
    }

    /// Run a LaSS simulation with access to the controller right before
    /// the loop starts — used by validation harnesses to tweak
    /// controller knobs (e.g. disabling re-inflation for Fig. 4).
    /// Panics under any other policy.
    pub fn run_with(
        self,
        duration_override: Option<f64>,
        tweak: impl FnOnce(&mut LassController, &mut Cluster),
    ) -> SimReport {
        assert_eq!(
            self.policy,
            SitePolicyKind::Lass,
            "run_with tweaks the LaSS controller; other policies have none"
        );
        self.launch(duration_override, |policy| {
            let SitePolicy::Lass(p) = policy else {
                unreachable!("checked above")
            };
            tweak(&mut p.controller, &mut p.site.cluster);
        })
    }

    fn launch(
        self,
        duration_override: Option<f64>,
        prepare: impl FnOnce(&mut SitePolicy),
    ) -> SimReport {
        let (duration, entries) = run_inputs(&self.setups, duration_override);
        let cfg = engine_config(self.policy, self.seed, duration, None);
        let mut build = site_builder(
            self.policy,
            self.cfg,
            vec![self.cluster],
            self.seed,
            self.setups,
        );
        let mut policy = build(0, 0);
        prepare(&mut policy);
        run_simulation(cfg, entries, policy)
    }
}

/// The LaSS scheduling decisions over a [`ClusterSite`]: §5 dispatch,
/// the controller's epoch, its MTBF crash stream and the reconciler.
pub(crate) struct LassPolicy {
    pub(crate) site: ClusterSite,
    cfg: LassConfig,
    pub(crate) controller: LassController,
    /// One smooth-WRR picker per function, by `FnId`.
    wrr: Vec<SmoothWrr>,
    crash_rng: SimRng,
}

impl LassPolicy {
    /// Build the policy. `rng_site_label` prefixes the crash stream's
    /// RNG label (`""` for plain single-cluster runs — the historical
    /// label — and `"site<i>:"` under a federated topology so sites
    /// draw decorrelated failure times).
    pub(crate) fn new(
        cfg: LassConfig,
        cluster: Cluster,
        seed: u64,
        setups: &[FunctionSetup],
        rng_site_label: &str,
    ) -> Self {
        let mut registry = FunctionRegistry::new();
        for (i, s) in setups.iter().enumerate() {
            registry.set_user_weight(s.user, s.user_weight);
            let fn_id = registry.register(s.spec.clone(), s.slo_deadline, s.weight, s.user);
            debug_assert_eq!(fn_id, FnId(i as u32));
        }
        Self {
            site: ClusterSite::new(cluster, setups, 0, cfg.request_timeout_secs),
            controller: LassController::new(cfg.clone(), registry),
            cfg,
            wrr: setups.iter().map(|_| SmoothWrr::new()).collect(),
            crash_rng: SimRng::from_seed_label(seed, &format!("{rng_site_label}crashes")),
        }
    }

    /// Failure injection: arm an exponential crash timer for a container.
    fn arm_crash(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) {
        if let Some(mtbf) = self.cfg.container_mtbf_secs {
            let dt = self.crash_rng.exp(1.0 / mtbf);
            ctx.schedule(now + SimDuration::from_secs_f64(dt), Ev::Crash(cid));
        }
    }

    /// Crash `cid` and re-dispatch its orphans; `false` when it was
    /// already gone (a stale timer).
    fn on_crash(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) -> bool {
        let Some((f, orphans)) = self.site.crash(cid, now) else {
            return false;
        };
        self.rerun(ctx, f, orphans, now);
        true
    }

    /// Re-dispatch the orphans of a terminated container of `f`.
    fn rerun(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        f: FnId,
        orphans: Vec<RequestId>,
        now: SimTime,
    ) {
        for rid in orphans {
            if ctx.rerun(ReqId(rid.0)).is_some() {
                self.dispatch(ctx, rid, f, now);
            }
        }
    }

    /// Hand a request to a container per the dispatch policy, or park it in
    /// the function's pending queue when no container exists yet.
    pub(crate) fn dispatch(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        rid: RequestId,
        f: FnId,
        now: SimTime,
    ) {
        let cluster = &self.site.cluster;
        let chosen = match self.cfg.dispatch {
            DispatchPolicy::SharedQueue => {
                // Park centrally; the fastest idle container pulls first
                // (the opposite of the worst-case slowest-first analysis,
                // as §3.2 notes a real scheduler would do). One pass over
                // the cluster's per-function index, no snapshot.
                cluster.fastest_idle_container(f)
            }
            policy @ (DispatchPolicy::IdleFirstWrr | DispatchPolicy::Wrr) => {
                // The cluster maintains the candidate weights (and idle
                // flags) incrementally on create/terminate/resize and
                // the service transitions, so dispatch feeds the index
                // straight into the picker — no per-request snapshot,
                // no container-map walk.
                let wrr = &mut self.wrr[f.0 as usize];
                let cands = cluster.wrr_candidates(f);
                if policy == DispatchPolicy::IdleFirstWrr && cands.iter().any(|s| s.idle) {
                    wrr.pick_from(cands.iter().filter(|s| s.idle).map(|s| (s.cid, s.weight)))
                } else {
                    wrr.pick_from(cands.iter().map(|s| (s.cid, s.weight)))
                }
            }
        };
        match chosen {
            Some(cid) => self.site.enqueue(ctx, cid, rid, now),
            None => self.site.pending[f.0 as usize].push_back(rid),
        }
    }

    fn on_monitor(&mut self, ctx: &mut impl PolicyCtx<Ev>, now: SimTime) {
        let window = ctx.take_window_counts();
        self.site
            .record_rates(now, &window, self.cfg.monitor_interval_secs);
        self.controller.on_monitor_tick(now.as_secs_f64(), &window);
    }

    fn on_epoch(&mut self, ctx: &mut impl PolicyCtx<Ev>, now: SimTime) {
        let plan = self
            .controller
            .plan_epoch(&self.site.cluster, now.as_secs_f64());
        self.site.epochs += 1;
        if plan.overloaded {
            self.site.overloaded_epochs += 1;
        }
        let outcome = self.controller.apply(&mut self.site.cluster, &plan, now);
        self.site.failed_creates += outcome.failed_creates;
        for (cid, ready) in &outcome.created {
            ctx.schedule(*ready, Ev::Ready(*cid));
            self.arm_crash(ctx, *cid, now);
        }
        // Re-dispatch orphans (the paper's "requests that need to be
        // rerun").
        for rid in outcome.orphans {
            if let Some(fn_idx) = ctx.rerun(ReqId(rid.0)) {
                self.dispatch(ctx, rid, FnId(fn_idx), now);
            }
        }
        // Resizes may have slowed/sped containers; in-flight services keep
        // their sampled durations (documented simplification).
        self.site.record_allocation(now);
    }

    pub(crate) fn on_start(&mut self, ctx: &mut impl PolicyCtx<Ev>) {
        for cid in self.site.cluster.container_ids() {
            self.arm_crash(ctx, cid, SimTime::ZERO);
        }
        ctx.schedule(
            SimTime::from_secs_f64(self.cfg.monitor_interval_secs),
            Ev::Monitor,
        );
        // Epochs run 1 ms after the monitor tick they share an instant
        // with, so the planner always sees fully up-to-date windows.
        ctx.schedule(
            SimTime::from_secs_f64(self.cfg.epoch_secs) + SimDuration::from_millis(1),
            Ev::Epoch,
        );
    }

    pub(crate) fn on_event(&mut self, ctx: &mut impl PolicyCtx<Ev>, ev: Ev, now: SimTime) {
        let (period, next) = match ev {
            Ev::Ready(cid) => return self.site.ready(ctx, cid, now),
            Ev::Complete { cid, seq } => {
                if let Some((f, deflation, service)) = self.site.complete(ctx, cid, seq, now) {
                    self.controller.record_service(f, deflation, service);
                }
                return;
            }
            Ev::Crash(cid) => {
                self.on_crash(ctx, cid, now);
                return;
            }
            Ev::Monitor => {
                self.on_monitor(ctx, now);
                (self.cfg.monitor_interval_secs, Ev::Monitor)
            }
            Ev::Epoch => {
                self.on_epoch(ctx, now);
                (self.cfg.epoch_secs, Ev::Epoch)
            }
        };
        if now < ctx.end_time() {
            ctx.schedule(now + SimDuration::from_secs_f64(period), next);
        }
    }

    /// Chaos burst: crash up to `count` uniformly-drawn live containers
    /// (drawn from the site's crash stream, so bursts stay deterministic
    /// per seed). Orphaned requests are re-dispatched exactly like an
    /// MTBF crash's.
    pub(crate) fn crash_containers(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        count: u32,
        now: SimTime,
    ) -> u32 {
        let mut victims = self.site.cluster.container_ids();
        let mut crashed = 0;
        for _ in 0..count {
            if victims.is_empty() {
                break;
            }
            let pick = self.crash_rng.below(victims.len());
            let cid = victims.swap_remove(pick);
            crashed += u32::from(self.on_crash(ctx, cid, now));
        }
        crashed
    }

    /// Reconcile the site toward a fleet of `desired` containers — the
    /// receiving end of the utilization reconciler's directive. The
    /// directive was computed from a snapshot published one hop ago, so
    /// the epoch planner may already have moved the fleet; reconcile
    /// against the cluster as it stands now and report whether anything
    /// changed.
    ///
    /// Scale-up containers go to the functions with the deepest parked
    /// backlog per container (ties break toward the smaller fleet, then
    /// the lower function id), boot at the standard size through the
    /// usual cold start, and join the MTBF crash process like any
    /// epoch-planned create. Scale-down prefers containers the planner
    /// already marked for termination, then idle ones, never takes a
    /// function's last container, and re-dispatches orphaned requests.
    pub(crate) fn apply_desired_fleet(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        desired: u32,
        now: SimTime,
    ) -> bool {
        let current = self.site.cluster.container_count() as u32;
        let mut changed = false;
        if desired > current {
            for _ in 0..desired - current {
                let mut best: Option<(usize, usize, usize)> = None;
                for (f, pending) in self.site.pending.iter().enumerate() {
                    let pending = pending.len();
                    let count = self.site.cluster.fn_container_count(FnId(f as u32));
                    let better = match best {
                        None => true,
                        Some((_, bp, bc)) => pending > bp || (pending == bp && count < bc),
                    };
                    if better {
                        best = Some((f, pending, count));
                    }
                }
                let Some((f, _, _)) = best else { break };
                // A failed create means the cluster is full: further
                // creates would fail too.
                let Some(cid) = self.site.boot(ctx, FnId(f as u32), now) else {
                    break;
                };
                self.arm_crash(ctx, cid, now);
                changed = true;
            }
        } else if desired < current {
            // Rank victims: already-marked first, then idle, then the
            // lightest-loaded; container id breaks ties so the order is
            // deterministic whatever the map iteration order.
            let mut victims: Vec<(bool, bool, usize, ContainerId, FnId)> = self
                .site
                .cluster
                .all_containers()
                .map(|c| {
                    (
                        !c.is_marked_for_termination(),
                        !c.is_idle(),
                        c.load(),
                        c.id(),
                        c.fn_id(),
                    )
                })
                .collect();
            victims.sort_unstable();
            let mut excess = current - desired;
            for (_, _, _, cid, f) in victims {
                if excess == 0 {
                    break;
                }
                if self.site.cluster.fn_container_count(f) <= 1 {
                    continue; // never strand a function's parked backlog
                }
                let Ok(term) = self.site.cluster.terminate_container(cid, now) else {
                    continue;
                };
                self.rerun(ctx, f, term.orphans, now);
                excess -= 1;
                changed = true;
            }
        }
        changed
    }

    pub(crate) fn finish(self, outcome: EngineOutcome) -> SimReport {
        self.site.report(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_functions::micro_benchmark;

    fn quick_sim(rate: f64, duration: f64, autoscale: bool, initial: u32) -> SimReport {
        let mut cfg = LassConfig::default();
        cfg.autoscale = autoscale;
        let mut sim = Simulation::new(cfg, Cluster::paper_testbed(), 42);
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static { rate, duration },
        );
        setup.initial_containers = initial;
        sim.add_function(setup);
        sim.run(Some(duration))
    }

    #[test]
    fn static_load_with_adequate_fixed_allocation_meets_slo() {
        // 10 req/s at mu=10 with 4 warm containers, no autoscaling.
        let report = quick_sim(10.0, 120.0, false, 4);
        let f = &report.per_fn[&0];
        assert!(f.arrivals > 1000, "arrivals={}", f.arrivals);
        assert!(
            f.completed as f64 > f.arrivals as f64 * 0.99,
            "completed={} arrivals={}",
            f.completed,
            f.arrivals
        );
        assert!(
            f.slo_attainment() > 0.90,
            "attainment={}",
            f.slo_attainment()
        );
    }

    #[test]
    fn under_provisioned_fixed_allocation_violates_slo() {
        // 30 req/s at mu=10 with only 3 containers: rho=1, queue explodes.
        let report = quick_sim(30.0, 60.0, false, 3);
        let f = &report.per_fn[&0];
        assert!(
            f.slo_attainment() < 0.9,
            "attainment={} should be poor",
            f.slo_attainment()
        );
    }

    #[test]
    fn autoscaler_provisions_from_cold() {
        let report = quick_sim(20.0, 180.0, true, 0);
        let f = &report.per_fn[&0];
        assert!(f.completed > 2000);
        // After warm-up the allocation settles near the model's answer.
        let late = f
            .container_timeline
            .points()
            .iter()
            .filter(|(t, _)| *t > 60.0)
            .map(|(_, v)| *v)
            .collect::<Vec<_>>();
        assert!(!late.is_empty());
        let avg: f64 = late.iter().sum::<f64>() / late.len() as f64;
        assert!((3.0..=8.0).contains(&avg), "containers avg={avg}");
        // And the tail of the run meets the SLO.
        assert!(report.failed_creates == 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick_sim(15.0, 60.0, true, 1);
        let b = quick_sim(15.0, 60.0, true, 1);
        assert_eq!(a.per_fn[&0].arrivals, b.per_fn[&0].arrivals);
        assert_eq!(a.per_fn[&0].completed, b.per_fn[&0].completed);
        assert_eq!(a.per_fn[&0].wait.samples(), b.per_fn[&0].wait.samples());
    }

    #[test]
    fn utilization_bounded() {
        let report = quick_sim(10.0, 60.0, true, 0);
        assert!(report.allocated_utilization >= 0.0 && report.allocated_utilization <= 1.0);
        assert!(report.busy_utilization >= 0.0 && report.busy_utilization <= 1.0);
    }

    #[test]
    fn shared_queue_policy_runs() {
        let mut cfg = LassConfig::default();
        cfg.dispatch = DispatchPolicy::SharedQueue;
        let mut sim = Simulation::new(cfg, Cluster::paper_testbed(), 7);
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 10.0,
                duration: 60.0,
            },
        );
        setup.initial_containers = 3;
        sim.add_function(setup);
        let report = sim.run(Some(60.0));
        let f = &report.per_fn[&0];
        assert!(f.completed > 400);
    }

    /// `run_with` hands its tweak the LaSS controller; under another
    /// policy there is none, and the run refuses rather than skipping
    /// the tweak.
    #[test]
    #[should_panic(expected = "run_with tweaks the LaSS controller")]
    fn run_with_refuses_a_policy_without_a_controller() {
        let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), 3);
        sim.set_policy(SitePolicyKind::Knative);
        sim.add_function(FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 1.0,
                duration: 10.0,
            },
        ));
        sim.run_with(Some(10.0), |_, _| {});
    }

    #[test]
    fn two_functions_share_cluster() {
        let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), 11);
        sim.add_function(FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 10.0,
                duration: 120.0,
            },
        ));
        sim.add_function(FunctionSetup::new(
            lass_functions::binary_alert(),
            0.1,
            WorkloadSpec::Static {
                rate: 20.0,
                duration: 120.0,
            },
        ));
        let report = sim.run(Some(120.0));
        assert!(report.per_fn[&0].completed > 800);
        assert!(report.per_fn[&1].completed > 1800);
    }

    /// Minimal context for driving the policy's handlers directly.
    struct StubCtx {
        scheduled: Vec<(SimTime, Ev)>,
        rng: lass_simcore::SimRng,
        /// Requests reported complete, in order.
        completed: Vec<ReqId>,
    }

    impl StubCtx {
        fn new() -> Self {
            Self {
                scheduled: Vec::new(),
                rng: lass_simcore::SimRng::from_seed_label(7, "stub"),
                completed: Vec::new(),
            }
        }

        /// The most recently scheduled completion event.
        fn last_completion(&self) -> Ev {
            *self
                .scheduled
                .iter()
                .rev()
                .map(|(_, ev)| ev)
                .find(|ev| matches!(ev, Ev::Complete { .. }))
                .expect("a completion was scheduled")
        }
    }

    impl PolicyCtx<Ev> for StubCtx {
        fn schedule(&mut self, at: SimTime, ev: Ev) {
            self.scheduled.push((at, ev));
        }
        fn end_time(&self) -> SimTime {
            SimTime::from_secs_f64(1e9)
        }
        fn fn_count(&self) -> usize {
            1
        }
        fn service_rng(&mut self, _fn_idx: u32) -> &mut lass_simcore::SimRng {
            &mut self.rng
        }
        fn request_info(&self, _rid: ReqId) -> Option<(u32, SimTime)> {
            None
        }
        fn complete(
            &mut self,
            rid: ReqId,
            _started: SimTime,
            _now: SimTime,
        ) -> Option<lass_simcore::Completion> {
            self.completed.push(rid);
            None
        }
        fn abandon(&mut self, _rid: ReqId) -> Option<u32> {
            None
        }
        fn lose(&mut self, _rid: ReqId) -> Option<u32> {
            None
        }
        fn rerun(&mut self, _rid: ReqId) -> Option<u32> {
            None
        }
        fn take_window_counts(&mut self) -> Vec<u64> {
            vec![0]
        }
        fn outstanding(&self) -> usize {
            0
        }
    }

    /// The reconciler seam is real for [`LassPolicy`]: a desired-fleet
    /// directive grows the fleet (cold-starting each create through
    /// `Ev::Ready`) and shrinks it, never below one container per
    /// function, and reports convergence honestly.
    #[test]
    fn desired_fleet_directive_scales_the_cluster() {
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 1.0,
                duration: 10.0,
            },
        );
        setup.initial_containers = 2;
        let mut policy = LassPolicy::new(
            LassConfig::default(),
            Cluster::paper_testbed(),
            7,
            &[setup],
            "",
        );
        let mut ctx = StubCtx::new();
        let now = SimTime::from_secs_f64(1.0);
        // Scale up 2 → 5: three creates, each paying its cold start.
        assert!(policy.apply_desired_fleet(&mut ctx, 5, now));
        assert_eq!(policy.site.cluster.container_count(), 5);
        let readies = ctx
            .scheduled
            .iter()
            .filter(|(_, e)| matches!(e, Ev::Ready(_)))
            .count();
        assert_eq!(readies, 3, "each create boots through Ev::Ready");
        assert!(
            ctx.scheduled.iter().all(|(at, _)| *at > now),
            "new containers must not be ready instantly"
        );
        // Scale to zero keeps the function's last container.
        assert!(policy.apply_desired_fleet(&mut ctx, 0, now));
        assert_eq!(policy.site.cluster.container_count(), 1);
        // Converged: reapplying the directive changes nothing.
        assert!(!policy.apply_desired_fleet(&mut ctx, 1, now));
    }

    /// A LaSS policy over one warm container of a single function.
    fn one_container_policy() -> (LassPolicy, ContainerId) {
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 1.0,
                duration: 10.0,
            },
        );
        setup.initial_containers = 1;
        let policy = LassPolicy::new(
            LassConfig::default(),
            Cluster::paper_testbed(),
            7,
            &[setup],
            "",
        );
        let cid = policy.site.cluster.container_ids()[0];
        (policy, cid)
    }

    /// A completion whose container was terminated or crashed
    /// mid-service is ignored: nothing is reported complete.
    #[test]
    fn completion_of_a_crashed_container_is_ignored() {
        for crash in [true, false] {
            let (mut policy, cid) = one_container_policy();
            let mut ctx = StubCtx::new();
            let now = SimTime::from_secs(1);
            policy.dispatch(&mut ctx, RequestId(1), FnId(0), now);
            let done = ctx.last_completion();
            if crash {
                policy.on_crash(&mut ctx, cid, now);
            } else {
                policy
                    .site
                    .cluster
                    .terminate_container(cid, now)
                    .expect("live");
            }
            assert!(policy.site.cluster.container(cid).is_none());
            policy.on_event(&mut ctx, done, SimTime::from_secs(2));
            assert!(
                ctx.completed.is_empty(),
                "stale completion finished a request"
            );
        }
    }

    /// A completion token from an earlier service on the same live
    /// container is ignored, whether the container is busy with a later
    /// service or idle; the current token still finishes exactly once.
    #[test]
    fn completion_from_an_earlier_service_is_ignored() {
        let (mut policy, cid) = one_container_policy();
        let mut ctx = StubCtx::new();
        policy.dispatch(&mut ctx, RequestId(1), FnId(0), SimTime::from_secs(1));
        let first = ctx.last_completion();
        policy.on_event(&mut ctx, first, SimTime::from_secs(2));
        assert_eq!(ctx.completed, vec![ReqId(1)]);

        policy.dispatch(&mut ctx, RequestId(2), FnId(0), SimTime::from_secs(3));
        let second = ctx.last_completion();
        assert_ne!(first, second, "each service gets its own token");
        // The first service's token again, while the second is running.
        policy.on_event(&mut ctx, first, SimTime::from_secs(4));
        assert_eq!(ctx.completed, vec![ReqId(1)]);
        let c = policy.site.cluster.container(cid).expect("live");
        assert_eq!(
            c.in_service(),
            Some(RequestId(2)),
            "later service untouched"
        );

        policy.on_event(&mut ctx, second, SimTime::from_secs(5));
        assert_eq!(ctx.completed, vec![ReqId(1), ReqId(2)]);
        // Both tokens again on the now idle container: no double finish.
        policy.on_event(&mut ctx, first, SimTime::from_secs(6));
        policy.on_event(&mut ctx, second, SimTime::from_secs(6));
        assert_eq!(ctx.completed, vec![ReqId(1), ReqId(2)]);
        assert!(policy.site.cluster.container(cid).expect("live").is_idle());
        policy.site.cluster.check_invariants();
    }
}
