//! The cluster-site core of the three cluster-backed scheduling
//! policies.
//!
//! LaSS, static round-robin and the Knative-style scaler differ only in
//! how they allocate containers and pick one for a request. Everything
//! else a policy does on a [`Cluster`] lives once, in [`ClusterSite`]:
//! initial provisioning, the service start (the service-time draw, the
//! brown-out factor, the scheduled completion), the completion fold, the
//! chaos hooks and the [`SimReport`] assembly. Each policy embeds one
//! and keeps only its allocation decisions:
//!
//! * [`LassPolicy`](crate::simulation) — the controller epoch, its MTBF
//!   crash stream and the reconciler;
//! * [`StaticRrPolicy`](crate::staticalloc) — the fixed pools;
//! * [`KnativePolicy`](crate::knative) — the concurrency scaler and the
//!   activator.
//!
//! [`SitePolicy`] puts the three behind the engine's traits by `match`,
//! and [`site_builder`] is the one per-site build closure both the
//! single-cluster [`Simulation`](crate::Simulation) and the federated
//! harness run.

use crate::config::LassConfig;
use crate::knative::KnativePolicy;
use crate::simulation::{FnReport, FunctionSetup, LassPolicy, SimReport};
use crate::staticalloc::StaticRrPolicy;
use lass_cluster::{Cluster, ContainerId, FnId, RequestId};
use lass_functions::FunctionSpec;
use lass_simcore::{
    ContainerChaos, EngineConfig, EngineOutcome, FunctionEntry, PolicyCtx, ReqId, ResourceSnapshot,
    SchedulerPolicy, SimDuration, SimTime, TimeSeries, TimeWeightedGauge,
};
use std::collections::VecDeque;

/// Which scheduler runs a cluster (every site of a federated topology,
/// or the one cluster of a plain run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SitePolicyKind {
    /// The LaSS controller (default).
    #[default]
    Lass,
    /// Static allocation with round-robin dispatch.
    StaticRr,
    /// The Knative-style concurrency-target autoscaler.
    Knative,
}

impl SitePolicyKind {
    /// The engine's RNG label prefix for runs of this policy. Plain and
    /// federated runs share it, so a degenerate one-site topology
    /// replays the plain run's arrival and service streams.
    pub(crate) fn rng_prefix(self) -> &'static str {
        match self {
            SitePolicyKind::Lass => "",
            SitePolicyKind::StaticRr => "static-",
            SitePolicyKind::Knative => "knative-",
        }
    }
}

/// Events of a cluster-site policy (arrivals are engine-level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// A cold-started container finished booting.
    Ready(ContainerId),
    /// Service number `seq` on `cid` ends; stale once the container is
    /// gone or has begun a later service.
    Complete { cid: ContainerId, seq: u64 },
    /// Failure injection: the container crashes (if still alive).
    Crash(ContainerId),
    /// The recurring monitor tick (LaSS's rate windows, Knative's
    /// scale loop).
    Monitor,
    /// The LaSS controller's planning epoch.
    Epoch,
}

/// One function's allocation timelines.
#[derive(Default)]
struct FnTimelines {
    cpu: TimeSeries,
    containers: TimeSeries,
    rate: TimeSeries,
}

/// A cluster plus the books every cluster-backed policy keeps on it.
pub(crate) struct ClusterSite {
    pub(crate) cluster: Cluster,
    /// Each function's spec, by `FnId` (ids are sequential from 0).
    specs: Vec<FunctionSpec>,
    /// Requests waiting for a container, per function.
    pub(crate) pending: Vec<VecDeque<RequestId>>,
    /// Chaos brown-out: a multiplicative service-speed factor (1.0 =
    /// nominal; 0.5 = every service draw takes twice as long).
    service_scale: f64,
    /// The platform's hard limit on queueing, seconds (§2.1): a request
    /// queued longer is abandoned when a container would start it.
    timeout: Option<f64>,
    util_gauge: TimeWeightedGauge,
    busy_cpu_seconds: f64,
    pub(crate) epochs: usize,
    pub(crate) overloaded_epochs: usize,
    pub(crate) failed_creates: u32,
    crashes: usize,
    free_timeline: TimeSeries,
    timelines: Vec<FnTimelines>,
}

impl ClusterSite {
    /// Provision each function's `initial_containers` (at least
    /// `min_per_fn`) warm at `t = 0`, in function order. A container
    /// the cluster cannot host is skipped. `timeout` is the config's
    /// `request_timeout_secs`.
    pub(crate) fn new(
        mut cluster: Cluster,
        setups: &[FunctionSetup],
        min_per_fn: u32,
        timeout: Option<f64>,
    ) -> Self {
        for (i, s) in setups.iter().enumerate() {
            for _ in 0..s.initial_containers.max(min_per_fn) {
                if let Ok(cid) = cluster.create_container_vec(
                    FnId(i as u32),
                    s.spec.standard_cpu,
                    s.spec.standard_demand(),
                    SimTime::ZERO,
                    SimTime::ZERO,
                ) {
                    cluster.mark_container_ready(cid);
                }
            }
        }
        Self {
            cluster,
            specs: setups.iter().map(|s| s.spec.clone()).collect(),
            pending: vec![VecDeque::new(); setups.len()],
            service_scale: 1.0,
            timeout,
            util_gauge: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            busy_cpu_seconds: 0.0,
            epochs: 0,
            overloaded_epochs: 0,
            failed_creates: 0,
            crashes: 0,
            free_timeline: TimeSeries::new(),
            timelines: setups.iter().map(|_| FnTimelines::default()).collect(),
        }
    }

    /// Take the allocation gauge's first reading, at `t = 0` (after any
    /// tweak to the provisioned cluster).
    fn open(&mut self) {
        let util = self.cluster.cpu_utilization();
        self.util_gauge.set(SimTime::ZERO, util);
    }

    /// The spec of function `f`.
    pub(crate) fn spec(&self, f: FnId) -> &FunctionSpec {
        &self.specs[f.0 as usize]
    }

    /// Cold-start a standard-size container of `f`, scheduling its
    /// `Ready`. A create the cluster cannot host counts as failed.
    pub(crate) fn boot(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        f: FnId,
        now: SimTime,
    ) -> Option<ContainerId> {
        let s = &self.specs[f.0 as usize];
        let ready = now + s.cold_start;
        match self
            .cluster
            .create_container_vec(f, s.standard_cpu, s.standard_demand(), now, ready)
        {
            Ok(cid) => {
                ctx.schedule(ready, Ev::Ready(cid));
                Some(cid)
            }
            Err(_) => {
                self.failed_creates += 1;
                None
            }
        }
    }

    /// Queue `rid` on the live container `cid` and start it if idle.
    pub(crate) fn enqueue(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        cid: ContainerId,
        rid: RequestId,
        now: SimTime,
    ) {
        self.cluster
            .container_mut(cid)
            .expect("live container")
            .enqueue(rid);
        self.try_start(ctx, cid, now);
    }

    /// Begin service on `cid` if it is idle with queued work: draw the
    /// service time, divide it by the brown-out factor and schedule the
    /// completion. A request queued longer than the timeout is
    /// abandoned at dequeue instead.
    pub(crate) fn try_start(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        cid: ContainerId,
        now: SimTime,
    ) {
        let (fn_id, deflation, seq) = loop {
            let Some(c) = self.cluster.container(cid) else {
                return;
            };
            let fn_id = c.fn_id();
            let deflation = c.deflation_ratio();
            let Some((rid, seq)) = self.cluster.begin_service(cid, now) else {
                return;
            };
            let expired = self.timeout.is_some_and(|limit| {
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
        let model = self.specs[fn_id.0 as usize].service;
        let dur = model.sample(deflation, ctx.service_rng(fn_id.0)) / self.service_scale;
        ctx.schedule(
            now + SimDuration::from_secs_f64(dur),
            Ev::Complete { cid, seq },
        );
    }

    /// Give an idle container work: first its own queue, then the
    /// function's pending backlog.
    pub(crate) fn feed(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        cid: ContainerId,
        f: FnId,
        now: SimTime,
    ) {
        self.try_start(ctx, cid, now);
        loop {
            if !self.cluster.container(cid).is_some_and(|c| c.is_idle()) {
                return;
            }
            let Some(rid) = self.pending[f.0 as usize].pop_front() else {
                return;
            };
            self.enqueue(ctx, cid, rid, now);
        }
    }

    /// A container finished booting: mark it ready and feed it.
    pub(crate) fn ready(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) {
        if !self.cluster.mark_container_ready(cid) {
            return; // terminated while starting, or a stale event
        }
        let f = self.cluster.container(cid).expect("just marked").fn_id();
        self.feed(ctx, cid, f, now);
    }

    /// Service number `seq` on `cid` ended: finish it, report it to the
    /// engine, fold its CPU-seconds into the busy utilization and feed
    /// the container. Returns the function, the container's deflation
    /// and the service time of a measured completion; `None` for a stale
    /// token (the container is gone or has moved on) or a completion the
    /// engine withheld (a federated site's response stalled behind a
    /// partition: the container is free, only the measurement waits).
    pub(crate) fn complete(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        cid: ContainerId,
        seq: u64,
        now: SimTime,
    ) -> Option<(FnId, f64, f64)> {
        let (rid, started) = self.cluster.finish_service(cid, seq, now)?;
        let c = self.cluster.container(cid).expect("live container");
        let (f, deflation, cpu_cores) = (c.fn_id(), c.deflation_ratio(), c.cpu().as_cores());
        let served = ctx.complete(ReqId(rid.0), started, now).map(|done| {
            self.busy_cpu_seconds += done.service * cpu_cores;
            (f, deflation, done.service)
        });
        self.feed(ctx, cid, f, now);
        served
    }

    /// Crash container `cid`, returning its function and orphaned
    /// requests; `None` when it is already gone (a stale timer).
    pub(crate) fn crash(
        &mut self,
        cid: ContainerId,
        now: SimTime,
    ) -> Option<(FnId, Vec<RequestId>)> {
        let term = self.cluster.terminate_container(cid, now).ok()?;
        self.crashes += 1;
        Some((term.container.fn_id(), term.orphans))
    }

    /// Chaos burst: crash up to `count` live containers, lowest ids
    /// first, so the order is reproducible without an RNG. Each
    /// crash's orphans go back through `dispatch` before the next
    /// container crashes. Returns the number crashed.
    pub(crate) fn crash_lowest<C: PolicyCtx<Ev>>(
        &mut self,
        ctx: &mut C,
        count: u32,
        now: SimTime,
        mut dispatch: impl FnMut(&mut Self, &mut C, RequestId, FnId),
    ) -> u32 {
        let mut victims = self.cluster.container_ids();
        victims.truncate(count as usize);
        let mut crashed = 0;
        for cid in victims {
            let Some((f, orphans)) = self.crash(cid, now) else {
                continue;
            };
            crashed += 1;
            for rid in orphans {
                if ctx.rerun(ReqId(rid.0)).is_some() {
                    dispatch(self, ctx, rid, f);
                }
            }
        }
        crashed
    }

    /// Record each function's arrival rate (req/s) over the tick's
    /// window.
    pub(crate) fn record_rates(&mut self, now: SimTime, window: &[u64], interval_secs: f64) {
        for (t, &n) in self.timelines.iter_mut().zip(window) {
            t.rate.push(now, n as f64 / interval_secs);
        }
    }

    /// Record each function's allocation: CPU and container count.
    /// Lazily-marked containers are logically released (cached for
    /// reuse, §3.3), so they are left out — matching the downscaling
    /// visible in the paper's timelines.
    pub(crate) fn record_fleet(&mut self, now: SimTime) {
        for (i, t) in self.timelines.iter_mut().enumerate() {
            let (mut cpu, mut count) = (0u32, 0u32);
            for c in self.cluster.fn_containers(FnId(i as u32)) {
                if !c.is_marked_for_termination() {
                    cpu += c.cpu().0;
                    count += 1;
                }
            }
            t.cpu.push(now, f64::from(cpu));
            t.containers.push(now, f64::from(count));
        }
    }

    /// Record the cluster's allocated and free CPU and every function's
    /// allocation (once per planning tick).
    pub(crate) fn record_allocation(&mut self, now: SimTime) {
        let util = self.cluster.cpu_utilization();
        self.util_gauge.set(now, util);
        self.free_timeline.push(now, 1.0 - util);
        self.record_fleet(now);
        #[cfg(debug_assertions)]
        self.cluster.check_invariants();
    }

    /// Warm-container census for the routers' cold-start penalty: the
    /// function's booted fleet (cold-starting containers excluded).
    pub(crate) fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.cluster.fn_warm_count(FnId(fn_idx))
    }

    /// Brown-out absorption: scale every subsequent service draw by
    /// `1/factor`. Factor 1.0 restores nominal speed exactly (the
    /// division by 1.0 is an IEEE identity, so recovered runs replay
    /// byte-for-byte).
    pub(crate) fn set_service_factor(&mut self, factor: f64) {
        self.service_scale = if factor.is_finite() && factor > 0.0 {
            factor.min(1.0)
        } else {
            1.0
        };
    }

    /// Per-dimension capacity/allocation census for vector telemetry
    /// and the planner router.
    pub(crate) fn resource_snapshot(&self) -> ResourceSnapshot {
        let (cap, used) = (
            self.cluster.total_capacity_vec(),
            self.cluster.total_used_vec(),
        );
        ResourceSnapshot {
            cap: [cap.cpu.0, cap.mem.0, cap.bandwidth.0].map(f64::from),
            used: [used.cpu.0, used.mem.0, used.bandwidth.0].map(f64::from),
        }
    }

    /// Build the run's report from the engine's measurements.
    pub(crate) fn report(self, outcome: EngineOutcome) -> SimReport {
        let duration = outcome.duration_secs;
        let end = SimTime::from_secs_f64(duration);
        let capacity_cores = self.cluster.total_cpu_capacity().as_cores();
        let per_fn = outcome
            .per_fn
            .into_iter()
            .zip(self.timelines)
            .enumerate()
            .map(|(i, (stats, t))| {
                let report = FnReport {
                    name: stats.name,
                    arrivals: stats.arrivals,
                    completed: stats.completed,
                    reruns: stats.reruns,
                    wait: stats.wait,
                    response: stats.response,
                    service: stats.service,
                    slo_violations: stats.slo_violations,
                    timeouts: stats.timeouts,
                    cpu_timeline: t.cpu,
                    container_timeline: t.containers,
                    rate_timeline: t.rate,
                };
                (i as u32, report)
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
            free_timeline: self.free_timeline,
        }
    }
}

/// One cluster's scheduler, chosen by [`SitePolicyKind`]. LaSS is boxed:
/// its controller makes it several times the size of the others.
pub(crate) enum SitePolicy {
    Lass(Box<LassPolicy>),
    StaticRr(StaticRrPolicy),
    Knative(KnativePolicy),
}

/// Evaluate `$e` with `$p` bound to whichever policy `$s` holds.
macro_rules! each {
    ($s:expr, $p:ident => $e:expr) => {
        match $s {
            SitePolicy::Lass($p) => $e,
            SitePolicy::StaticRr($p) => $e,
            SitePolicy::Knative($p) => $e,
        }
    };
}

impl SitePolicy {
    /// Build a `kind` policy over `cluster`. `crash_label` prefixes the
    /// LaSS crash stream's RNG label.
    pub(crate) fn new(
        kind: SitePolicyKind,
        cfg: &LassConfig,
        cluster: Cluster,
        seed: u64,
        setups: &[FunctionSetup],
        crash_label: &str,
    ) -> Self {
        match kind {
            SitePolicyKind::Lass => SitePolicy::Lass(Box::new(LassPolicy::new(
                cfg.clone(),
                cluster,
                seed,
                setups,
                crash_label,
            ))),
            SitePolicyKind::StaticRr => {
                SitePolicy::StaticRr(StaticRrPolicy::new(cfg, cluster, setups))
            }
            SitePolicyKind::Knative => {
                SitePolicy::Knative(KnativePolicy::new(cfg.clone(), cluster, setups))
            }
        }
    }

    fn site(&self) -> &ClusterSite {
        each!(self, p => &p.site)
    }

    fn site_mut(&mut self) -> &mut ClusterSite {
        each!(self, p => &mut p.site)
    }
}

impl SchedulerPolicy for SitePolicy {
    type Event = Ev;
    type Report = SimReport;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<Ev>) {
        self.site_mut().open();
        each!(self, p => p.on_start(ctx))
    }

    fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<Ev>, rid: ReqId, fn_idx: u32, now: SimTime) {
        each!(self, p => p.dispatch(ctx, RequestId(rid.0), FnId(fn_idx), now))
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Ev>, ev: Ev, now: SimTime) {
        each!(self, p => p.on_event(ctx, ev, now))
    }

    fn finish(self, outcome: EngineOutcome) -> SimReport {
        each!(self, p => p.finish(outcome))
    }
}

impl ContainerChaos for SitePolicy {
    fn crash_containers(&mut self, ctx: &mut impl PolicyCtx<Ev>, count: u32, now: SimTime) -> u32 {
        each!(self, p => p.crash_containers(ctx, count, now))
    }

    fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.site().warm_containers(fn_idx)
    }

    fn apply_desired_fleet(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        desired: u32,
        now: SimTime,
    ) -> bool {
        match self {
            SitePolicy::Lass(p) => p.apply_desired_fleet(ctx, desired, now),
            // Static pools are fixed and Knative scales itself.
            SitePolicy::StaticRr(_) | SitePolicy::Knative(_) => false,
        }
    }

    fn set_service_factor(&mut self, factor: f64) {
        self.site_mut().set_service_factor(factor);
    }

    fn resource_snapshot(&self) -> ResourceSnapshot {
        self.site().resource_snapshot()
    }
}

/// The per-site build closure of every cluster run: site `i`'s policy
/// over a fresh copy of `clusters[i]`, for its `restart`-th start. It
/// doubles as the federation's rebuild factory, so a crashed site
/// recovers with its original provisioning.
pub(crate) fn site_builder(
    kind: SitePolicyKind,
    cfg: LassConfig,
    clusters: Vec<Cluster>,
    seed: u64,
    setups: Vec<FunctionSetup>,
) -> impl FnMut(usize, u32) -> SitePolicy + Send + 'static {
    let sites = clusters.len();
    move |i, restart| {
        // One cluster keeps the plain run's crash-stream label, so a
        // degenerate topology replays it even with failure injection
        // on; several clusters decorrelate per site, and every restart
        // of a crashed site draws a fresh stream.
        let base = if sites == 1 {
            String::new()
        } else {
            format!("site{i}:")
        };
        let label = if restart == 0 {
            base
        } else {
            format!("{base}r{restart}:")
        };
        SitePolicy::new(kind, &cfg, clusters[i].clone(), seed, &setups, &label)
    }
}

/// A run's duration (`duration_override`, else the longest workload)
/// and the engine's view of its functions.
pub(crate) fn run_inputs(
    setups: &[FunctionSetup],
    duration_override: Option<f64>,
) -> (f64, Vec<FunctionEntry>) {
    let duration = duration_override.unwrap_or_else(|| {
        setups
            .iter()
            .map(|s| s.workload.duration())
            .fold(0.0f64, f64::max)
    });
    let entries = setups
        .iter()
        .map(|s| FunctionEntry {
            name: s.spec.name.clone(),
            slo_deadline: s.slo_deadline,
            process: s.workload.build(),
        })
        .collect();
    (duration, entries)
}

/// The engine config of a `kind` run: exact statistics and a 120 s
/// drain grace for in-flight requests.
pub(crate) fn engine_config(
    kind: SitePolicyKind,
    seed: u64,
    duration_secs: f64,
    parallel_sites: Option<usize>,
) -> EngineConfig {
    EngineConfig {
        seed,
        rng_label_prefix: kind.rng_prefix().into(),
        duration_secs,
        drain_secs: 120.0,
        stream_stats: false,
        parallel_sites,
    }
}
