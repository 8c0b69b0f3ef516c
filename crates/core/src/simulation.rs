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
//! shared engine (`lass_simcore::engine`); this module contributes
//! [`LassPolicy`], the [`SchedulerPolicy`] implementation that drives a
//! [`Cluster`] under the [`LassController`]. Everything is deterministic
//! given the seed.

use crate::commands::Plan;
use crate::config::{DispatchPolicy, LassConfig};
use crate::controller::LassController;
use crate::registry::FunctionRegistry;
use lass_cluster::{Cluster, ContainerId, ContainerState, FnId, RequestId, UserId};
use lass_functions::{FunctionSpec, WorkloadSpec};
use lass_simcore::{
    run_simulation, EngineConfig, EngineOutcome, FunctionEntry, PolicyCtx, ReqId, SampleStats,
    SchedulerPolicy, SimTime, TimeSeries, TimeWeightedGauge,
};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

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
    /// Containers provisioned at t=0.
    pub initial_containers: u32,
    /// Whether initial containers start warm (ready at t=0).
    pub warm_start: bool,
}

impl FunctionSetup {
    /// A setup with the common defaults: weight 1 under user 0, warm start,
    /// no pre-provisioned containers.
    pub fn new(spec: FunctionSpec, slo_deadline: f64, workload: WorkloadSpec) -> Self {
        Self {
            spec,
            slo_deadline,
            weight: 1.0,
            user: UserId(0),
            user_weight: 1.0,
            workload,
            initial_containers: 0,
            warm_start: true,
        }
    }
}

/// Policy events for the LaSS simulation (arrivals are engine-level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    Ready(ContainerId),
    /// Service number `seq` on `cid` ends; stale once the container is
    /// gone or has begun a later service.
    Complete {
        cid: ContainerId,
        seq: u64,
    },
    /// Failure injection: the container crashes (if still alive).
    Crash(ContainerId),
    Monitor,
    Epoch,
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
    /// Injected container crashes (0 unless `container_mtbf_secs` is set).
    pub crashes: usize,
    /// Cluster-wide unallocated-capacity timeline (fraction), per epoch.
    pub free_timeline: TimeSeries,
}

/// The simulation harness.
pub struct Simulation {
    cfg: LassConfig,
    seed: u64,
    cluster: Cluster,
    setups: Vec<FunctionSetup>,
}

impl Simulation {
    /// Create a simulation over a cluster.
    pub fn new(cfg: LassConfig, cluster: Cluster, seed: u64) -> Self {
        cfg.validate().expect("invalid LassConfig");
        Self {
            cfg,
            seed,
            cluster,
            setups: Vec::new(),
        }
    }

    /// Deploy a function; returns its id (assigned in registration order).
    pub fn add_function(&mut self, setup: FunctionSetup) -> FnId {
        let id = FnId(self.setups.len() as u32);
        self.setups.push(setup);
        id
    }

    fn resolved_duration(&self, duration_override: Option<f64>) -> f64 {
        duration_override.unwrap_or_else(|| {
            self.setups
                .iter()
                .map(|s| s.workload.duration())
                .fold(0.0f64, f64::max)
        })
    }

    /// Run to completion. `duration` defaults to the longest workload; a
    /// drain grace period lets in-flight requests finish afterwards.
    pub fn run(self, duration_override: Option<f64>) -> SimReport {
        self.run_with(duration_override, |_, _| {})
    }

    /// Run with access to the controller right before the loop starts —
    /// used by validation harnesses to tweak controller knobs (e.g.
    /// disabling re-inflation for Fig. 4).
    pub fn run_with(
        self,
        duration_override: Option<f64>,
        tweak: impl FnOnce(&mut LassController, &mut Cluster),
    ) -> SimReport {
        let duration = self.resolved_duration(duration_override);
        assert!(duration > 0.0, "simulation needs a positive duration");
        let entries: Vec<FunctionEntry> = self
            .setups
            .iter()
            .map(|s| FunctionEntry {
                name: s.spec.name.clone(),
                slo_deadline: s.slo_deadline,
                process: s.workload.build(),
            })
            .collect();
        let engine_cfg = EngineConfig {
            seed: self.seed,
            rng_label_prefix: String::new(),
            duration_secs: duration,
            drain_secs: 120.0,
            stream_stats: false,
            parallel_sites: None,
        };
        let mut policy = LassPolicy::new(self.cfg, self.cluster, self.seed, &self.setups, "");
        tweak(&mut policy.controller, &mut policy.cluster);
        run_simulation(engine_cfg, entries, policy)
    }
}

struct FnRuntime {
    wrr: crate::loadbalancer::SmoothWrr,
    pending: VecDeque<RequestId>,
    cpu_timeline: TimeSeries,
    container_timeline: TimeSeries,
    rate_timeline: TimeSeries,
}

/// The LaSS scheduling policy: §5 dispatch over a [`Cluster`], with the
/// controller re-planning every epoch. Crate-visible so the federated
/// harness can instantiate one policy per topology site.
pub(crate) struct LassPolicy {
    cfg: LassConfig,
    cluster: Cluster,
    controller: LassController,
    /// Per-function runtime state, indexed densely by `FnId` (ids are
    /// assigned sequentially at registration).
    fns: Vec<FnRuntime>,
    crash_rng: lass_simcore::SimRng,
    crashes: usize,
    util_gauge: TimeWeightedGauge,
    busy_cpu_seconds: f64,
    overloaded_epochs: usize,
    epochs: usize,
    failed_creates: u32,
    free_timeline: TimeSeries,
    /// Chaos brown-out: a multiplicative service-speed factor (1.0 =
    /// nominal; 0.5 = every service draw takes twice as long). Set by
    /// [`lass_simcore::Fault::SiteSlowdown`] through the federation.
    service_scale: f64,
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
        let mut fns = Vec::with_capacity(setups.len());
        for (i, s) in setups.iter().enumerate() {
            registry.set_user_weight(s.user, s.user_weight);
            let fn_id = registry.register(s.spec.clone(), s.slo_deadline, s.weight, s.user);
            debug_assert_eq!(fn_id, FnId(i as u32));
            fns.push(FnRuntime {
                wrr: crate::loadbalancer::SmoothWrr::new(),
                pending: VecDeque::new(),
                cpu_timeline: TimeSeries::new(),
                container_timeline: TimeSeries::new(),
                rate_timeline: TimeSeries::new(),
            });
        }
        let mut cluster = cluster;
        // Pre-provision initial containers.
        for (i, s) in setups.iter().enumerate() {
            let fn_id = FnId(i as u32);
            for _ in 0..s.initial_containers {
                let ready = if s.warm_start {
                    SimTime::ZERO
                } else {
                    SimTime::ZERO + s.spec.cold_start
                };
                if let Ok(cid) = cluster.create_container_vec(
                    fn_id,
                    s.spec.standard_cpu,
                    s.spec.standard_demand(),
                    SimTime::ZERO,
                    ready,
                ) {
                    if s.warm_start {
                        cluster.mark_container_ready(cid);
                    }
                }
            }
        }
        let controller = LassController::new(cfg.clone(), registry);
        Self {
            cfg,
            cluster,
            controller,
            fns,
            crash_rng: lass_simcore::SimRng::from_seed_label(
                seed,
                &format!("{rng_site_label}crashes"),
            ),
            crashes: 0,
            util_gauge: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            busy_cpu_seconds: 0.0,
            overloaded_epochs: 0,
            epochs: 0,
            failed_creates: 0,
            free_timeline: TimeSeries::new(),
            service_scale: 1.0,
        }
    }

    /// Failure injection: arm an exponential crash timer for a container.
    fn arm_crash(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) {
        if let Some(mtbf) = self.cfg.container_mtbf_secs {
            let dt = self.crash_rng.exp(1.0 / mtbf);
            ctx.schedule(
                now + lass_simcore::SimDuration::from_secs_f64(dt),
                Ev::Crash(cid),
            );
        }
    }

    fn on_crash(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) {
        let Ok(term) = self.cluster.terminate_container(cid, now) else {
            return; // already gone (stale timer)
        };
        self.crashes += 1;
        let f = term.container.fn_id();
        for rid in term.orphans {
            if ctx.rerun(ReqId(rid.0)).is_some() {
                self.dispatch(ctx, rid, f, now);
            }
        }
    }

    /// Hand a request to a container per the dispatch policy, or park it in
    /// the function's pending queue when no container exists yet.
    fn dispatch(&mut self, ctx: &mut impl PolicyCtx<Ev>, rid: RequestId, f: FnId, now: SimTime) {
        let chosen = match self.cfg.dispatch {
            DispatchPolicy::SharedQueue => {
                // Park centrally; the fastest idle container pulls first
                // (the opposite of the worst-case slowest-first analysis,
                // as §3.2 notes a real scheduler would do). One pass over
                // the cluster's per-function index, no snapshot.
                self.cluster.fastest_idle_container(f)
            }
            policy @ (DispatchPolicy::IdleFirstWrr | DispatchPolicy::Wrr) => {
                // The cluster maintains the candidate weights (and idle
                // flags) incrementally on create/terminate/resize and
                // the service transitions, so dispatch feeds the index
                // straight into the picker — no per-request snapshot,
                // no container-map walk.
                let rt = self.fns.get_mut(f.0 as usize).expect("known fn");
                let cands = self.cluster.wrr_candidates(f);
                if policy == DispatchPolicy::IdleFirstWrr && cands.iter().any(|s| s.idle) {
                    rt.wrr
                        .pick_from(cands.iter().filter(|s| s.idle).map(|s| (s.cid, s.weight)))
                } else {
                    rt.wrr.pick_from(cands.iter().map(|s| (s.cid, s.weight)))
                }
            }
        };
        match chosen {
            Some(cid) => {
                self.cluster
                    .container_mut(cid)
                    .expect("live container")
                    .enqueue(rid);
                self.try_start(ctx, cid, now);
            }
            None => {
                self.fns
                    .get_mut(f.0 as usize)
                    .expect("known fn")
                    .pending
                    .push_back(rid);
            }
        }
    }

    /// Begin service on `cid` if it is idle with queued work. Requests
    /// whose queueing time already exceeds the platform's hard limit are
    /// abandoned at dequeue (§2.1's execution time limit).
    fn try_start(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) {
        let timeout = self.cfg.request_timeout_secs;
        let (fn_id, deflation, seq) = loop {
            let Some(c) = self.cluster.container(cid) else {
                return;
            };
            let fn_id = c.fn_id();
            let deflation = c.deflation_ratio();
            let Some((rid, seq)) = self.cluster.begin_service(cid, now) else {
                return;
            };
            let expired = timeout.is_some_and(|limit| {
                ctx.request_info(ReqId(rid.0))
                    .is_some_and(|(_, arrival)| now.saturating_since(arrival).as_secs_f64() > limit)
            });
            if !expired {
                break (fn_id, deflation, seq);
            }
            // Abandon: undo the service start and drop the request.
            let (dropped, _) = self
                .cluster
                .finish_service(cid, seq, now)
                .expect("still live");
            debug_assert_eq!(dropped, rid);
            ctx.abandon(ReqId(rid.0));
        };
        let spec_model = self
            .controller
            .registry()
            .get(fn_id)
            .expect("registered")
            .spec
            .service;
        let dur = spec_model.sample(deflation, ctx.service_rng(fn_id.0)) / self.service_scale;
        ctx.schedule(
            now + lass_simcore::SimDuration::from_secs_f64(dur),
            Ev::Complete { cid, seq },
        );
    }

    fn on_ready(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) {
        if !self.cluster.mark_container_ready(cid) {
            return; // terminated while starting, or a stale event
        }
        let f = self.cluster.container(cid).expect("just marked").fn_id();
        self.feed_container(ctx, cid, f, now);
    }

    /// Give an idle container work: first its own queue, then the
    /// function's pending backlog.
    fn feed_container(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        cid: ContainerId,
        f: FnId,
        now: SimTime,
    ) {
        self.try_start(ctx, cid, now);
        loop {
            let Some(c) = self.cluster.container(cid) else {
                return;
            };
            if c.state() != ContainerState::Idle {
                return;
            }
            let Some(rid) = self
                .fns
                .get_mut(f.0 as usize)
                .expect("known fn")
                .pending
                .pop_front()
            else {
                return;
            };
            self.cluster
                .container_mut(cid)
                .expect("live container")
                .enqueue(rid);
            self.try_start(ctx, cid, now);
        }
    }

    fn on_complete(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        cid: ContainerId,
        seq: u64,
        now: SimTime,
    ) {
        // Stale when the container was terminated or crashed mid-service.
        let Some((rid, started)) = self.cluster.finish_service(cid, seq, now) else {
            return;
        };
        let c = self.cluster.container(cid).expect("live container");
        let deflation = c.deflation_ratio();
        let f = c.fn_id();
        let cpu_cores = c.cpu().as_cores();

        // `None` means the completion was withheld upstream (a federated
        // site whose response is stalled behind a network partition): the
        // container is free either way, only the measurement is deferred.
        if let Some(completion) = ctx.complete(ReqId(rid.0), started, now) {
            self.busy_cpu_seconds += completion.service * cpu_cores;
            self.controller
                .record_service(f, deflation, completion.service);
        }

        self.feed_container(ctx, cid, f, now);
    }

    fn on_monitor(&mut self, ctx: &mut impl PolicyCtx<Ev>, now: SimTime) {
        let now_secs = now.as_secs_f64();
        let window = ctx.take_window_counts();
        for (rt, &n) in self.fns.iter_mut().zip(&window) {
            rt.rate_timeline
                .push(now, n as f64 / self.cfg.monitor_interval_secs);
        }
        self.controller.on_monitor_tick(now_secs, &window);
    }

    fn on_epoch(&mut self, ctx: &mut impl PolicyCtx<Ev>, now: SimTime) {
        let now_secs = now.as_secs_f64();
        let plan: Plan = self.controller.plan_epoch(&self.cluster, now_secs);
        self.epochs += 1;
        if plan.overloaded {
            self.overloaded_epochs += 1;
        }
        let outcome = self.controller.apply(&mut self.cluster, &plan, now);
        self.failed_creates += outcome.failed_creates;
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

        // Timelines.
        self.util_gauge.set(now, self.cluster.cpu_utilization());
        self.free_timeline
            .push(now, 1.0 - self.cluster.cpu_utilization());
        for (i, rt) in self.fns.iter_mut().enumerate() {
            // Lazily-marked containers are logically released (they are
            // cached for reuse, §3.3), so the reported allocation excludes
            // them — matching the downscaling visible in the paper's
            // timelines.
            let (mut cpu, mut count) = (0u32, 0u32);
            for c in self.cluster.fn_containers(FnId(i as u32)) {
                if !c.is_marked_for_termination() {
                    cpu += c.cpu().0;
                    count += 1;
                }
            }
            rt.cpu_timeline.push(now, f64::from(cpu));
            rt.container_timeline.push(now, f64::from(count));
        }
        #[cfg(debug_assertions)]
        self.cluster.check_invariants();
    }
}

impl lass_simcore::ContainerChaos for LassPolicy {
    /// Chaos burst: crash up to `count` uniformly-drawn live containers
    /// (drawn from the site's crash stream, so bursts stay deterministic
    /// per seed). Orphaned requests are re-dispatched exactly like an
    /// MTBF crash's.
    fn crash_containers(&mut self, ctx: &mut impl PolicyCtx<Ev>, count: u32, now: SimTime) -> u32 {
        let mut victims = self.cluster.container_ids();
        let before = self.crashes;
        for _ in 0..count {
            if victims.is_empty() {
                break;
            }
            let pick = self.crash_rng.below(victims.len());
            let cid = victims.swap_remove(pick);
            self.on_crash(ctx, cid, now);
        }
        (self.crashes - before) as u32
    }

    /// Warm-container census for the routers' cold-start penalty: the
    /// function's booted fleet (cold-starting containers excluded).
    fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.cluster.fn_warm_count(FnId(fn_idx))
    }

    /// Brown-out absorption: scale every subsequent service draw by
    /// `1/factor`. Factor 1.0 restores nominal speed exactly (the
    /// division by 1.0 is an IEEE identity, so recovered runs replay
    /// byte-for-byte).
    fn set_service_factor(&mut self, factor: f64) {
        self.service_scale = if factor.is_finite() && factor > 0.0 {
            factor.min(1.0)
        } else {
            1.0
        };
    }

    /// Per-dimension capacity/allocation census for vector telemetry
    /// and the planner router.
    fn resource_snapshot(&self) -> lass_simcore::ResourceSnapshot {
        let cap = self.cluster.total_capacity_vec();
        let used = self.cluster.total_used_vec();
        lass_simcore::ResourceSnapshot {
            cap: [
                f64::from(cap.cpu.0),
                f64::from(cap.mem.0),
                f64::from(cap.bandwidth.0),
            ],
            used: [
                f64::from(used.cpu.0),
                f64::from(used.mem.0),
                f64::from(used.bandwidth.0),
            ],
        }
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
    fn apply_desired_fleet(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        desired: u32,
        now: SimTime,
    ) -> bool {
        let current = self.cluster.container_count() as u32;
        let mut changed = false;
        if desired > current {
            for _ in 0..desired - current {
                let mut best: Option<(usize, usize, usize)> = None;
                for f in 0..self.fns.len() {
                    let pending = self.fns[f].pending.len();
                    let count = self.cluster.fn_container_count(FnId(f as u32));
                    let better = match best {
                        None => true,
                        Some((_, bp, bc)) => pending > bp || (pending == bp && count < bc),
                    };
                    if better {
                        best = Some((f, pending, count));
                    }
                }
                let Some((f, _, _)) = best else { break };
                let fn_id = FnId(f as u32);
                let (cpu, demand, cold) = {
                    let rec = self
                        .controller
                        .registry()
                        .get(fn_id)
                        .expect("registered fn");
                    (
                        rec.spec.standard_cpu,
                        rec.spec.standard_demand(),
                        rec.spec.cold_start,
                    )
                };
                match self
                    .cluster
                    .create_container_vec(fn_id, cpu, demand, now, now + cold)
                {
                    Ok(cid) => {
                        ctx.schedule(now + cold, Ev::Ready(cid));
                        self.arm_crash(ctx, cid, now);
                        changed = true;
                    }
                    Err(_) => {
                        self.failed_creates += 1;
                        break; // cluster full: further creates would fail too
                    }
                }
            }
        } else if desired < current {
            // Rank victims: already-marked first, then idle, then the
            // lightest-loaded; container id breaks ties so the order is
            // deterministic whatever the map iteration order.
            let mut victims: Vec<(bool, bool, usize, ContainerId, FnId)> = self
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
                if self.cluster.fn_container_count(f) <= 1 {
                    continue; // never strand a function's parked backlog
                }
                let Ok(term) = self.cluster.terminate_container(cid, now) else {
                    continue;
                };
                for rid in term.orphans {
                    if ctx.rerun(ReqId(rid.0)).is_some() {
                        self.dispatch(ctx, rid, f, now);
                    }
                }
                excess -= 1;
                changed = true;
            }
        }
        changed
    }
}

impl SchedulerPolicy for LassPolicy {
    type Event = Ev;
    type Report = SimReport;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<Ev>) {
        self.util_gauge
            .set(SimTime::ZERO, self.cluster.cpu_utilization());
        let initial: Vec<ContainerId> = self.cluster.all_containers().map(|c| c.id()).collect();
        for cid in initial {
            self.arm_crash(ctx, cid, SimTime::ZERO);
        }
        ctx.schedule(
            SimTime::from_secs_f64(self.cfg.monitor_interval_secs),
            Ev::Monitor,
        );
        // Epochs run 1 ms after the monitor tick they share an instant
        // with, so the planner always sees fully up-to-date windows.
        ctx.schedule(
            SimTime::from_secs_f64(self.cfg.epoch_secs) + lass_simcore::SimDuration::from_millis(1),
            Ev::Epoch,
        );
    }

    fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<Ev>, rid: ReqId, fn_idx: u32, now: SimTime) {
        self.dispatch(ctx, RequestId(rid.0), FnId(fn_idx), now);
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Ev>, ev: Ev, now: SimTime) {
        match ev {
            Ev::Ready(cid) => self.on_ready(ctx, cid, now),
            Ev::Complete { cid, seq } => self.on_complete(ctx, cid, seq, now),
            Ev::Crash(cid) => self.on_crash(ctx, cid, now),
            Ev::Monitor => {
                self.on_monitor(ctx, now);
                if now < ctx.end_time() {
                    ctx.schedule(
                        now + lass_simcore::SimDuration::from_secs_f64(
                            self.cfg.monitor_interval_secs,
                        ),
                        Ev::Monitor,
                    );
                }
            }
            Ev::Epoch => {
                self.on_epoch(ctx, now);
                if now < ctx.end_time() {
                    ctx.schedule(
                        now + lass_simcore::SimDuration::from_secs_f64(self.cfg.epoch_secs),
                        Ev::Epoch,
                    );
                }
            }
        }
    }

    fn finish(mut self, outcome: EngineOutcome) -> SimReport {
        let duration = outcome.duration_secs;
        let end = SimTime::from_secs_f64(duration);
        let capacity_cores = self.cluster.total_cpu_capacity().as_cores();
        let per_fn = outcome
            .per_fn
            .into_iter()
            .enumerate()
            .map(|(i, stats)| {
                let f = FnId(i as u32);
                let rt = self.fns.get_mut(i).expect("known fn");
                let name = self
                    .controller
                    .registry()
                    .get(f)
                    .map_or_else(|| f.to_string(), |r| r.spec.name.clone());
                (
                    f.0,
                    FnReport {
                        name,
                        arrivals: stats.arrivals,
                        completed: stats.completed,
                        reruns: stats.reruns,
                        wait: stats.wait,
                        response: stats.response,
                        service: stats.service,
                        slo_violations: stats.slo_violations,
                        timeouts: stats.timeouts,
                        cpu_timeline: std::mem::take(&mut rt.cpu_timeline),
                        container_timeline: std::mem::take(&mut rt.container_timeline),
                        rate_timeline: std::mem::take(&mut rt.rate_timeline),
                    },
                )
            })
            .collect();
        SimReport {
            per_fn,
            allocated_utilization: self.util_gauge.average_until(end),
            busy_utilization: if capacity_cores > 0.0 && duration > 0.0 {
                self.busy_cpu_seconds / (capacity_cores * duration)
            } else {
                0.0
            },
            duration,
            overloaded_epochs: self.overloaded_epochs,
            epochs: self.epochs,
            failed_creates: self.failed_creates,
            crashes: self.crashes,
            free_timeline: std::mem::take(&mut self.free_timeline),
        }
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
        use lass_simcore::ContainerChaos;
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
        assert_eq!(policy.cluster.container_count(), 5);
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
        assert_eq!(policy.cluster.container_count(), 1);
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
        let cid = policy.cluster.container_ids()[0];
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
            policy.on_arrival(&mut ctx, ReqId(1), 0, now);
            let done = ctx.last_completion();
            if crash {
                policy.on_crash(&mut ctx, cid, now);
            } else {
                policy.cluster.terminate_container(cid, now).expect("live");
            }
            assert!(policy.cluster.container(cid).is_none());
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
        policy.on_arrival(&mut ctx, ReqId(1), 0, SimTime::from_secs(1));
        let first = ctx.last_completion();
        policy.on_event(&mut ctx, first, SimTime::from_secs(2));
        assert_eq!(ctx.completed, vec![ReqId(1)]);

        policy.on_arrival(&mut ctx, ReqId(2), 0, SimTime::from_secs(3));
        let second = ctx.last_completion();
        assert_ne!(first, second, "each service gets its own token");
        // The first service's token again, while the second is running.
        policy.on_event(&mut ctx, first, SimTime::from_secs(4));
        assert_eq!(ctx.completed, vec![ReqId(1)]);
        let c = policy.cluster.container(cid).expect("live");
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
        assert!(policy.cluster.container(cid).expect("live").is_idle());
        policy.cluster.check_invariants();
    }
}
