//! A Knative-style concurrency-target autoscaler as a fourth
//! [`SchedulerPolicy`] on the shared discrete-event engine.
//!
//! Knative's horizontal pod autoscaler sizes a function's fleet from
//! *observed concurrency*: it provisions
//! `ceil(expected concurrency / containerConcurrency)` pods, where
//! expected concurrency is `λ̂ × E[service time]` by Little's law. No
//! queueing model, no tail-percentile awareness, no deflation — running
//! this policy against the same scenarios as the LaSS controller
//! quantifies exactly what the paper's models buy (the
//! [`ScalerKind::ConcurrencyTarget`](crate::ScalerKind) variant embeds
//! the same heuristic *inside* the LaSS controller; this policy is the
//! standalone scheduler the heuristic implies).
//!
//! Mechanics:
//!
//! * a scale loop every [`LassConfig::monitor_interval_secs`] (Knative's
//!   autoscaler ticks every couple of seconds) re-estimates each
//!   function's rate (EWMA over the tick's arrivals) and creates /
//!   retires containers toward the concurrency target;
//! * dispatch sends each arrival to the least-loaded schedulable
//!   container (Knative's concurrency-aware request balancing);
//! * scale-down only retires *empty* idle containers (pods drain before
//!   termination), and scale-from-zero is handled by an activator-style
//!   inline cold start on the first arrival.

use crate::config::{LassConfig, ScalerKind};
use crate::simulation::{FnReport, FunctionSetup, SimReport};
use lass_cluster::{Cluster, ContainerId, FnId, RequestId};
use lass_simcore::{
    run_simulation, EngineConfig, EngineOutcome, FunctionEntry, PolicyCtx, ReqId, SchedulerPolicy,
    SimDuration, SimTime, TimeSeries, TimeWeightedGauge,
};
use std::collections::{BTreeMap, VecDeque};

/// Concurrency-target simulation over a [`Cluster`].
///
/// Reachable from scenario JSON via `"policy": "knative"`; the target
/// comes from [`ScalerKind::ConcurrencyTarget`] when the scenario's
/// config sets it, and defaults to 1 concurrent request per container
/// (the sensible setting for CPU-bound inference functions).
pub struct KnativeSimulation {
    cfg: LassConfig,
    cluster: Cluster,
    seed: u64,
    setups: Vec<FunctionSetup>,
}

impl KnativeSimulation {
    /// Create a simulation over a cluster.
    pub fn new(cfg: LassConfig, cluster: Cluster, seed: u64) -> Self {
        cfg.validate().expect("invalid LassConfig");
        Self {
            cfg,
            cluster,
            seed,
            setups: Vec::new(),
        }
    }

    /// Deploy a function; returns its id (assigned in registration order).
    pub fn add_function(&mut self, setup: FunctionSetup) -> FnId {
        let id = FnId(self.setups.len() as u32);
        self.setups.push(setup);
        id
    }

    /// Run for `duration` seconds (defaults to the longest workload).
    pub fn run(self, duration_override: Option<f64>) -> SimReport {
        let duration = duration_override.unwrap_or_else(|| {
            self.setups
                .iter()
                .map(|s| s.workload.duration())
                .fold(0.0f64, f64::max)
        });
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
            rng_label_prefix: "knative-".into(),
            duration_secs: duration,
            drain_secs: 120.0,
            stream_stats: false,
            parallel_sites: None,
        };
        let policy = KnativePolicy::new(self.cfg, self.cluster, self.setups);
        run_simulation(engine_cfg, entries, policy)
    }
}

/// Policy events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A cold-started container finished booting.
    Ready(ContainerId),
    /// Service number `seq` on `cid` ends (stale once the container is
    /// gone or has begun a later service).
    Complete { cid: ContainerId, seq: u64 },
    /// The recurring autoscaler tick.
    Scale,
}

struct KnFn {
    pending: VecDeque<RequestId>,
    /// EWMA of the per-tick arrival rate (req/s); `None` until the
    /// first tick.
    ewma_rate: Option<f64>,
    cpu_timeline: TimeSeries,
    container_timeline: TimeSeries,
    rate_timeline: TimeSeries,
}

/// The concurrency-target scheduling policy. Crate-visible so the
/// federated harness can instantiate one per topology site.
pub(crate) struct KnativePolicy {
    cfg: LassConfig,
    cluster: Cluster,
    setups: Vec<FunctionSetup>,
    target: f64,
    fns: BTreeMap<FnId, KnFn>,
    util_gauge: TimeWeightedGauge,
    busy_cpu_seconds: f64,
    epochs: usize,
    overloaded_epochs: usize,
    failed_creates: u32,
    /// Containers lost to chaos bursts (the next scale tick replaces
    /// them if the concurrency target still wants the capacity).
    crashes: usize,
    free_timeline: TimeSeries,
    /// Chaos brown-out service-speed factor (1.0 = nominal).
    service_scale: f64,
}

impl KnativePolicy {
    /// Build the policy, pre-provisioning each function's
    /// `initial_containers` warm at `t = 0`.
    pub(crate) fn new(cfg: LassConfig, mut cluster: Cluster, setups: Vec<FunctionSetup>) -> Self {
        let target = match cfg.scaler {
            ScalerKind::ConcurrencyTarget { target } => target,
            ScalerKind::ModelDriven => 1.0,
        };
        let mut fns = BTreeMap::new();
        for (i, s) in setups.iter().enumerate() {
            let fn_id = FnId(i as u32);
            for _ in 0..s.initial_containers {
                if let Ok(cid) = cluster.create_container_vec(
                    fn_id,
                    s.spec.standard_cpu,
                    s.spec.standard_demand(),
                    SimTime::ZERO,
                    SimTime::ZERO,
                ) {
                    cluster.mark_container_ready(cid);
                }
            }
            fns.insert(
                fn_id,
                KnFn {
                    pending: VecDeque::new(),
                    ewma_rate: None,
                    cpu_timeline: TimeSeries::new(),
                    container_timeline: TimeSeries::new(),
                    rate_timeline: TimeSeries::new(),
                },
            );
        }
        Self {
            cfg,
            cluster,
            setups,
            target,
            fns,
            util_gauge: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            busy_cpu_seconds: 0.0,
            epochs: 0,
            overloaded_epochs: 0,
            failed_creates: 0,
            crashes: 0,
            free_timeline: TimeSeries::new(),
            service_scale: 1.0,
        }
    }

    /// The least-loaded schedulable container of `f` (ties toward the
    /// older container).
    fn least_loaded(&self, f: FnId) -> Option<ContainerId> {
        let mut best: Option<(usize, ContainerId)> = None;
        for c in self.cluster.fn_containers(f) {
            if !c.is_schedulable() {
                continue;
            }
            let load = c.load();
            match best {
                Some((bl, _)) if bl <= load => {}
                _ => best = Some((load, c.id())),
            }
        }
        best.map(|(_, cid)| cid)
    }

    fn dispatch(&mut self, ctx: &mut impl PolicyCtx<Ev>, rid: RequestId, f: FnId, now: SimTime) {
        if let Some(cid) = self.least_loaded(f) {
            self.cluster
                .container_mut(cid)
                .expect("live container")
                .enqueue(rid);
            self.try_start(ctx, cid, now);
            return;
        }
        // Activator path: nothing schedulable. Cold-start a container
        // immediately (scale-from-zero) and park the request on it.
        let s = &self.setups[f.0 as usize];
        match self.cluster.create_container_vec(
            f,
            s.spec.standard_cpu,
            s.spec.standard_demand(),
            now,
            now + s.spec.cold_start,
        ) {
            Ok(cid) => {
                ctx.schedule(now + s.spec.cold_start, Ev::Ready(cid));
                self.cluster
                    .container_mut(cid)
                    .expect("just created")
                    .enqueue(rid);
            }
            Err(_) => {
                self.failed_creates += 1;
                self.fns
                    .get_mut(&f)
                    .expect("known fn")
                    .pending
                    .push_back(rid);
            }
        }
    }

    fn try_start(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, now: SimTime) {
        let Some(c) = self.cluster.container(cid) else {
            return;
        };
        let fn_id = c.fn_id();
        let deflation = c.deflation_ratio();
        let Some((_, seq)) = self.cluster.begin_service(cid, now) else {
            return;
        };
        let dur = self.setups[fn_id.0 as usize]
            .spec
            .service
            .sample(deflation, ctx.service_rng(fn_id.0))
            / self.service_scale;
        ctx.schedule(
            now + SimDuration::from_secs_f64(dur),
            Ev::Complete { cid, seq },
        );
    }

    /// Give an idle container work: first its own queue, then the
    /// function's pending backlog.
    fn feed(&mut self, ctx: &mut impl PolicyCtx<Ev>, cid: ContainerId, f: FnId, now: SimTime) {
        self.try_start(ctx, cid, now);
        loop {
            let Some(c) = self.cluster.container(cid) else {
                return;
            };
            if !c.is_idle() {
                return;
            }
            let Some(rid) = self.fns.get_mut(&f).expect("known fn").pending.pop_front() else {
                return;
            };
            self.cluster
                .container_mut(cid)
                .expect("live container")
                .enqueue(rid);
            self.try_start(ctx, cid, now);
        }
    }

    fn on_scale(&mut self, ctx: &mut impl PolicyCtx<Ev>, now: SimTime) {
        self.epochs += 1;
        let window = ctx.take_window_counts();
        let alpha = self.cfg.ewma_alpha;
        let mut tick_overloaded = false;
        let fn_ids: Vec<FnId> = self.fns.keys().copied().collect();
        for f in fn_ids {
            let raw_rate = window[f.0 as usize] as f64 / self.cfg.monitor_interval_secs;
            let rt = self.fns.get_mut(&f).expect("known fn");
            let ewma = match rt.ewma_rate {
                Some(prev) => alpha * raw_rate + (1.0 - alpha) * prev,
                None => raw_rate,
            };
            rt.ewma_rate = Some(ewma);
            rt.rate_timeline.push(now, raw_rate);

            let s = &self.setups[f.0 as usize];
            let expected_concurrency = ewma * s.spec.service.base_time;
            let desired = if expected_concurrency <= f64::EPSILON {
                0
            } else {
                ((expected_concurrency / self.target).ceil() as u32)
                    .clamp(1, self.cfg.max_containers_per_fn)
            };
            let current = self.cluster.fn_container_count(f) as u32;
            if desired > current {
                for _ in 0..(desired - current) {
                    match self.cluster.create_container_vec(
                        f,
                        s.spec.standard_cpu,
                        s.spec.standard_demand(),
                        now,
                        now + s.spec.cold_start,
                    ) {
                        Ok(cid) => ctx.schedule(now + s.spec.cold_start, Ev::Ready(cid)),
                        Err(_) => {
                            self.failed_creates += 1;
                            tick_overloaded = true;
                        }
                    }
                }
            } else if desired < current {
                // Retire only drained (idle, empty) containers, newest
                // first — pods finish their work before termination.
                let mut victims: Vec<ContainerId> = self
                    .cluster
                    .fn_containers(f)
                    .filter(|c| c.is_idle() && c.load() == 0)
                    .map(|c| c.id())
                    .collect();
                victims.reverse();
                victims.truncate((current - desired) as usize);
                for cid in victims {
                    let term = self
                        .cluster
                        .terminate_container(cid, now)
                        .expect("victim is live");
                    debug_assert!(term.orphans.is_empty(), "drained container had work");
                }
            }

            // Timelines (post-scale allocation).
            let (mut cpu, mut count) = (0u32, 0u32);
            for c in self.cluster.fn_containers(f) {
                cpu += c.cpu().0;
                count += 1;
            }
            let rt = self.fns.get_mut(&f).expect("known fn");
            rt.cpu_timeline.push(now, f64::from(cpu));
            rt.container_timeline.push(now, f64::from(count));
        }
        if tick_overloaded {
            self.overloaded_epochs += 1;
        }
        self.util_gauge.set(now, self.cluster.cpu_utilization());
        self.free_timeline
            .push(now, 1.0 - self.cluster.cpu_utilization());
        #[cfg(debug_assertions)]
        self.cluster.check_invariants();
    }
}

impl lass_simcore::ContainerChaos for KnativePolicy {
    /// Chaos burst: terminate up to `count` live containers (lowest ids
    /// first). Orphans re-enter dispatch, which may activator-cold-start
    /// replacements immediately; the scale loop restores the fleet.
    fn crash_containers(&mut self, ctx: &mut impl PolicyCtx<Ev>, count: u32, now: SimTime) -> u32 {
        let mut victims = self.cluster.container_ids();
        victims.truncate(count as usize);
        let mut crashed = 0u32;
        for cid in victims {
            let Ok(term) = self.cluster.terminate_container(cid, now) else {
                continue;
            };
            crashed += 1;
            self.crashes += 1;
            let f = term.container.fn_id();
            for rid in term.orphans {
                if ctx.rerun(ReqId(rid.0)).is_some() {
                    self.dispatch(ctx, rid, f, now);
                }
            }
        }
        crashed
    }

    /// Brown-out absorption: scale every subsequent service draw by
    /// `1/factor` (1.0 restores nominal speed exactly).
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

    /// Warm-container census for the routers' cold-start penalty: the
    /// function's booted fleet (cold-starting containers excluded).
    fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.cluster.fn_warm_count(FnId(fn_idx))
    }
}

impl SchedulerPolicy for KnativePolicy {
    type Event = Ev;
    type Report = SimReport;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<Ev>) {
        self.util_gauge
            .set(SimTime::ZERO, self.cluster.cpu_utilization());
        ctx.schedule(
            SimTime::from_secs_f64(self.cfg.monitor_interval_secs),
            Ev::Scale,
        );
    }

    fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<Ev>, rid: ReqId, fn_idx: u32, now: SimTime) {
        self.dispatch(ctx, RequestId(rid.0), FnId(fn_idx), now);
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Ev>, ev: Ev, now: SimTime) {
        match ev {
            Ev::Ready(cid) => {
                if !self.cluster.mark_container_ready(cid) {
                    return; // terminated while starting, or a stale event
                }
                let f = self.cluster.container(cid).expect("just marked").fn_id();
                self.feed(ctx, cid, f, now);
            }
            Ev::Complete { cid, seq } => {
                let Some((rid, started)) = self.cluster.finish_service(cid, seq, now) else {
                    return; // the container crashed mid-service
                };
                let c = self.cluster.container(cid).expect("live container");
                let f = c.fn_id();
                let cpu_cores = c.cpu().as_cores();
                // `None`: the completion was withheld upstream (stalled
                // behind a federated network partition).
                if let Some(completion) = ctx.complete(ReqId(rid.0), started, now) {
                    self.busy_cpu_seconds += completion.service * cpu_cores;
                }
                self.feed(ctx, cid, f, now);
            }
            Ev::Scale => {
                self.on_scale(ctx, now);
                if now < ctx.end_time() {
                    ctx.schedule(
                        now + SimDuration::from_secs_f64(self.cfg.monitor_interval_secs),
                        Ev::Scale,
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
                let rt = self.fns.get_mut(&f).expect("known fn");
                (
                    f.0,
                    FnReport {
                        name: stats.name,
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
    use lass_functions::{micro_benchmark, WorkloadSpec};

    fn run_knative(rate: f64, duration: f64, target: f64, initial: u32) -> SimReport {
        let mut cfg = LassConfig::default();
        cfg.scaler = ScalerKind::ConcurrencyTarget { target };
        let mut sim = KnativeSimulation::new(cfg, Cluster::paper_testbed(), 42);
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
    fn scales_from_zero_and_serves_the_load() {
        let report = run_knative(20.0, 180.0, 1.0, 0);
        let f = &report.per_fn[&0];
        assert!(f.arrivals > 3000, "arrivals={}", f.arrivals);
        assert!(
            f.completed as f64 > f.arrivals as f64 * 0.98,
            "completed={} arrivals={}",
            f.completed,
            f.arrivals
        );
        // Little's law: 20 req/s × 0.1 s = 2 expected concurrency; the
        // EWMA fleet settles in that neighbourhood.
        let late: Vec<f64> = f
            .container_timeline
            .points()
            .iter()
            .filter(|(t, _)| *t > 60.0)
            .map(|(_, v)| *v)
            .collect();
        let avg: f64 = late.iter().sum::<f64>() / late.len() as f64;
        assert!((1.0..=6.0).contains(&avg), "containers avg={avg}");
        assert!(report.epochs > 10);
    }

    #[test]
    fn higher_target_provisions_fewer_containers() {
        let tight = run_knative(30.0, 120.0, 1.0, 0);
        let loose = run_knative(30.0, 120.0, 4.0, 0);
        let avg = |r: &SimReport| {
            let pts: Vec<f64> = r.per_fn[&0]
                .container_timeline
                .points()
                .iter()
                .filter(|(t, _)| *t > 60.0)
                .map(|(_, v)| *v)
                .collect();
            pts.iter().sum::<f64>() / pts.len() as f64
        };
        assert!(
            avg(&loose) < avg(&tight),
            "loose={} tight={}",
            avg(&loose),
            avg(&tight)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_knative(15.0, 60.0, 1.0, 1);
        let b = run_knative(15.0, 60.0, 1.0, 1);
        assert_eq!(a.per_fn[&0].arrivals, b.per_fn[&0].arrivals);
        assert_eq!(a.per_fn[&0].wait.samples(), b.per_fn[&0].wait.samples());
    }

    #[test]
    fn idle_fleet_scales_down() {
        // Load for 60 s, then silence; the fleet drains back toward zero.
        let mut cfg = LassConfig::default();
        cfg.scaler = ScalerKind::ConcurrencyTarget { target: 1.0 };
        let mut sim = KnativeSimulation::new(cfg, Cluster::paper_testbed(), 7);
        sim.add_function(FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Steps {
                steps: vec![(0.0, 25.0), (60.0, 0.0)],
                duration: 240.0,
            },
        ));
        let report = sim.run(Some(240.0));
        let f = &report.per_fn[&0];
        let last = f.container_timeline.points().last().expect("ticked").1;
        assert!(last <= 1.0, "fleet did not drain: {last}");
        assert!(f.completed > 1000);
    }
}
