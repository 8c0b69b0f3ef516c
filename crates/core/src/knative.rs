//! A Knative-style concurrency-target autoscaler as a site policy on
//! the shared discrete-event engine.
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
//! Reachable as [`SitePolicyKind::Knative`](crate::SitePolicyKind) and
//! from scenario JSON via `"policy": "knative"`; the target comes from
//! [`ScalerKind::ConcurrencyTarget`] when the config sets it, and
//! defaults to 1 concurrent request per container (the sensible setting
//! for CPU-bound inference functions).
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
//!
//! As under LaSS, a request queued longer than
//! [`LassConfig::request_timeout_secs`] is abandoned when a container
//! would start it (the [`ClusterSite`] core applies the limit).

use crate::config::{LassConfig, ScalerKind};
use crate::simulation::{FunctionSetup, SimReport};
use crate::site::{ClusterSite, Ev};
use lass_cluster::{Cluster, ContainerId, FnId, RequestId};
use lass_simcore::{EngineOutcome, PolicyCtx, SimDuration, SimTime};

/// The concurrency-target scheduling decisions over a [`ClusterSite`].
pub(crate) struct KnativePolicy {
    pub(crate) site: ClusterSite,
    cfg: LassConfig,
    target: f64,
    /// EWMA of each function's per-tick arrival rate (req/s), by
    /// `FnId`; `None` until the first tick.
    ewma_rate: Vec<Option<f64>>,
}

impl KnativePolicy {
    /// Build the policy, pre-provisioning each function's
    /// `initial_containers` warm at `t = 0`.
    pub(crate) fn new(cfg: LassConfig, cluster: Cluster, setups: &[FunctionSetup]) -> Self {
        let target = match cfg.scaler {
            ScalerKind::ConcurrencyTarget { target } => target,
            ScalerKind::ModelDriven => 1.0,
        };
        Self {
            site: ClusterSite::new(cluster, setups, 0, cfg.request_timeout_secs),
            cfg,
            target,
            ewma_rate: vec![None; setups.len()],
        }
    }

    pub(crate) fn dispatch(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        rid: RequestId,
        f: FnId,
        now: SimTime,
    ) {
        Self::dispatch_on(&mut self.site, ctx, rid, f, now);
    }

    /// Send `rid` to the least-loaded schedulable container of `f`
    /// (ties toward the older container). With none, the activator
    /// cold-starts one (scale-from-zero) and parks the request on it,
    /// or in the function's backlog when the cluster is full.
    fn dispatch_on(
        site: &mut ClusterSite,
        ctx: &mut impl PolicyCtx<Ev>,
        rid: RequestId,
        f: FnId,
        now: SimTime,
    ) {
        let mut best: Option<(usize, ContainerId)> = None;
        for c in site.cluster.fn_containers(f) {
            if !c.is_schedulable() {
                continue;
            }
            let load = c.load();
            match best {
                Some((bl, _)) if bl <= load => {}
                _ => best = Some((load, c.id())),
            }
        }
        if let Some((_, cid)) = best {
            site.enqueue(ctx, cid, rid, now);
            return;
        }
        match site.boot(ctx, f, now) {
            Some(cid) => site
                .cluster
                .container_mut(cid)
                .expect("just created")
                .enqueue(rid),
            None => site.pending[f.0 as usize].push_back(rid),
        }
    }

    fn on_scale(&mut self, ctx: &mut impl PolicyCtx<Ev>, now: SimTime) {
        self.site.epochs += 1;
        let window = ctx.take_window_counts();
        let interval = self.cfg.monitor_interval_secs;
        self.site.record_rates(now, &window, interval);
        let alpha = self.cfg.ewma_alpha;
        let mut tick_overloaded = false;
        for (i, ewma_rate) in self.ewma_rate.iter_mut().enumerate() {
            let f = FnId(i as u32);
            let raw_rate = window[i] as f64 / interval;
            let ewma = match *ewma_rate {
                Some(prev) => alpha * raw_rate + (1.0 - alpha) * prev,
                None => raw_rate,
            };
            *ewma_rate = Some(ewma);

            let expected_concurrency = ewma * self.site.spec(f).service.base_time;
            let desired = if expected_concurrency <= f64::EPSILON {
                0
            } else {
                ((expected_concurrency / self.target).ceil() as u32)
                    .clamp(1, self.cfg.max_containers_per_fn)
            };
            let current = self.site.cluster.fn_container_count(f) as u32;
            if desired > current {
                for _ in 0..(desired - current) {
                    tick_overloaded |= self.site.boot(ctx, f, now).is_none();
                }
            } else if desired < current {
                // Retire only drained (idle, empty) containers, newest
                // first — pods finish their work before termination.
                let mut victims: Vec<ContainerId> = self
                    .site
                    .cluster
                    .fn_containers(f)
                    .filter(|c| c.is_idle() && c.load() == 0)
                    .map(|c| c.id())
                    .collect();
                victims.reverse();
                victims.truncate((current - desired) as usize);
                for cid in victims {
                    let term = self
                        .site
                        .cluster
                        .terminate_container(cid, now)
                        .expect("victim is live");
                    debug_assert!(term.orphans.is_empty(), "drained container had work");
                }
            }
        }
        if tick_overloaded {
            self.site.overloaded_epochs += 1;
        }
        self.site.record_allocation(now);
    }

    pub(crate) fn on_start(&mut self, ctx: &mut impl PolicyCtx<Ev>) {
        ctx.schedule(
            SimTime::from_secs_f64(self.cfg.monitor_interval_secs),
            Ev::Monitor,
        );
    }

    pub(crate) fn on_event(&mut self, ctx: &mut impl PolicyCtx<Ev>, ev: Ev, now: SimTime) {
        match ev {
            Ev::Ready(cid) => self.site.ready(ctx, cid, now),
            Ev::Complete { cid, seq } => {
                self.site.complete(ctx, cid, seq, now);
            }
            Ev::Monitor => {
                self.on_scale(ctx, now);
                if now < ctx.end_time() {
                    ctx.schedule(
                        now + SimDuration::from_secs_f64(self.cfg.monitor_interval_secs),
                        Ev::Monitor,
                    );
                }
            }
            Ev::Crash(_) | Ev::Epoch => unreachable!("Knative schedules neither"),
        }
    }

    /// Chaos burst: crash the lowest-id containers. Orphans re-enter
    /// dispatch, which may activator-cold-start replacements at once;
    /// the scale loop restores the fleet.
    pub(crate) fn crash_containers(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        count: u32,
        now: SimTime,
    ) -> u32 {
        self.site
            .crash_lowest(ctx, count, now, |site, ctx, rid, f| {
                Self::dispatch_on(site, ctx, rid, f, now)
            })
    }

    pub(crate) fn finish(self, outcome: EngineOutcome) -> SimReport {
        self.site.report(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulation, SitePolicyKind};
    use lass_functions::{micro_benchmark, WorkloadSpec};

    fn run_knative(rate: f64, duration: f64, target: f64, initial: u32) -> SimReport {
        let mut cfg = LassConfig::default();
        cfg.scaler = ScalerKind::ConcurrencyTarget { target };
        let mut sim = Simulation::new(cfg, Cluster::paper_testbed(), 42);
        sim.set_policy(SitePolicyKind::Knative);
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
    fn site_at_capacity_abandons_requests_queued_past_the_timeout() {
        // At most 2 containers serving 20 req/s against 30 req/s: the
        // scaler is at its cap, and from about t = 120 s a queued
        // request has waited longer than the config's 60 s limit.
        let mut cfg = LassConfig::default();
        cfg.max_containers_per_fn = 2;
        let mut sim = Simulation::new(cfg, Cluster::paper_testbed(), 42);
        sim.set_policy(SitePolicyKind::Knative);
        sim.add_function(FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 30.0,
                duration: 240.0,
            },
        ));
        let report = sim.run(Some(240.0));
        let f = &report.per_fn[&0];
        assert!(f.timeouts > 100, "timeouts={}", f.timeouts);
        let longest = f.wait.max().expect("requests waited");
        assert!(longest <= 61.0, "a request waited {longest} s");
    }

    #[test]
    fn idle_fleet_scales_down() {
        // Load for 60 s, then silence; the fleet drains back toward zero.
        let mut cfg = LassConfig::default();
        cfg.scaler = ScalerKind::ConcurrencyTarget { target: 1.0 };
        let mut sim = Simulation::new(cfg, Cluster::paper_testbed(), 7);
        sim.set_policy(SitePolicyKind::Knative);
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
