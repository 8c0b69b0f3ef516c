//! A deliberately simple third scheduler: **static allocation with
//! round-robin dispatch**.
//!
//! Each function gets a fixed pool of warm containers at `t = 0` (its
//! `initial_containers`, minimum one) and requests are dealt to the
//! pool's containers in strict rotation. No autoscaling, no monitors
//! and no reclamation: the policy is the "provisioned-for-peak"
//! baseline of capacity experiments, and shares nothing with the LaSS
//! controller but the [`ClusterSite`] core (and with it the config's
//! request timeout).
//!
//! A pool is the cluster's own list of the function's live containers,
//! in creation order: the policy never creates a container after
//! `t = 0`, so chaos crashes shrink the pool for good, as a
//! no-autoscaler baseline honestly would.

use crate::config::LassConfig;
use crate::simulation::{FunctionSetup, SimReport};
use crate::site::{ClusterSite, Ev};
use lass_cluster::{Cluster, FnId, RequestId};
use lass_simcore::{EngineOutcome, PolicyCtx, ReqId, SimTime};

/// The static round-robin decisions over a [`ClusterSite`].
pub(crate) struct StaticRrPolicy {
    pub(crate) site: ClusterSite,
    /// Each function's round-robin position, by `FnId`.
    cursors: Vec<usize>,
}

impl StaticRrPolicy {
    /// Provision each function's fixed warm pool (minimum one container)
    /// on `cluster` at `t = 0` and build the policy.
    pub(crate) fn new(cfg: &LassConfig, cluster: Cluster, setups: &[FunctionSetup]) -> Self {
        Self {
            site: ClusterSite::new(cluster, setups, 1, cfg.request_timeout_secs),
            cursors: vec![0; setups.len()],
        }
    }

    pub(crate) fn dispatch(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        rid: RequestId,
        f: FnId,
        now: SimTime,
    ) {
        Self::dispatch_on(&mut self.site, &mut self.cursors, ctx, rid, f, now);
    }

    /// Deal `rid` to the next container of `f`'s pool.
    fn dispatch_on(
        site: &mut ClusterSite,
        cursors: &mut [usize],
        ctx: &mut impl PolicyCtx<Ev>,
        rid: RequestId,
        f: FnId,
        now: SimTime,
    ) {
        let pool = site.cluster.containers_of(f);
        let n = pool.len();
        if n == 0 {
            // The pool is empty (never hosted, or crashed away): the
            // request can never be served.
            ctx.lose(ReqId(rid.0));
            return;
        }
        let cursor = &mut cursors[f.0 as usize];
        let cid = pool[*cursor % n];
        *cursor = (*cursor + 1) % n;
        site.enqueue(ctx, cid, rid, now);
    }

    pub(crate) fn on_start(&mut self, _ctx: &mut impl PolicyCtx<Ev>) {}

    pub(crate) fn on_event(&mut self, ctx: &mut impl PolicyCtx<Ev>, ev: Ev, now: SimTime) {
        let Ev::Complete { cid, seq } = ev else {
            unreachable!("static pools schedule completions only")
        };
        self.site.complete(ctx, cid, seq, now);
    }

    /// Chaos burst: crash the lowest-id containers (the pools are
    /// fixed, so the order is reproducible without a policy-side RNG).
    /// Orphans are re-dispatched over whatever pool remains.
    pub(crate) fn crash_containers(
        &mut self,
        ctx: &mut impl PolicyCtx<Ev>,
        count: u32,
        now: SimTime,
    ) -> u32 {
        let cursors = &mut self.cursors;
        self.site
            .crash_lowest(ctx, count, now, |site, ctx, rid, f| {
                Self::dispatch_on(site, cursors, ctx, rid, f, now)
            })
    }

    /// The allocation is constant: a flat two-point timeline of the
    /// pools as they ended.
    pub(crate) fn finish(mut self, outcome: EngineOutcome) -> SimReport {
        let end = SimTime::from_secs_f64(outcome.duration_secs);
        self.site.record_fleet(SimTime::ZERO);
        self.site.record_fleet(end);
        self.site.report(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulation, SitePolicyKind};
    use lass_functions::{micro_benchmark, WorkloadSpec};

    fn static_sim(seed: u64) -> Simulation {
        let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), seed);
        sim.set_policy(SitePolicyKind::StaticRr);
        sim
    }

    fn run_static(rate: f64, containers: u32, duration: f64) -> SimReport {
        let mut sim = static_sim(42);
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static { rate, duration },
        );
        setup.initial_containers = containers;
        sim.add_function(setup);
        sim.run(Some(duration))
    }

    #[test]
    fn adequately_provisioned_pool_serves_the_load() {
        // 10 req/s at mu=10 across 4 containers: rho = 0.25.
        let report = run_static(10.0, 4, 120.0);
        let f = &report.per_fn[&0];
        assert!(f.arrivals > 1000);
        assert!(f.completed as f64 > f.arrivals as f64 * 0.99);
        assert!(
            f.slo_attainment() > 0.9,
            "attainment={}",
            f.slo_attainment()
        );
        assert_eq!(report.epochs, 0);
        assert_eq!(f.container_timeline.points()[0].1, 4.0);
    }

    #[test]
    fn overloaded_pool_degrades() {
        // 30 req/s at mu=10 into 2 containers: rho = 1.5, queues explode.
        let report = run_static(30.0, 2, 60.0);
        let f = &report.per_fn[&0];
        assert!(
            f.slo_attainment() < 0.7,
            "attainment={}",
            f.slo_attainment()
        );
    }

    #[test]
    fn overloaded_pool_abandons_requests_queued_past_the_timeout() {
        // 30 req/s into 2 containers serving 20 req/s: the backlog grows
        // by 10 req/s, so from about t = 120 s a request has queued
        // longer than the config's 60 s limit when a container frees up.
        let report = run_static(30.0, 2, 240.0);
        let f = &report.per_fn[&0];
        assert_eq!(LassConfig::default().request_timeout_secs, Some(60.0));
        assert!(f.timeouts > 100, "timeouts={}", f.timeouts);
        let longest = f.wait.max().expect("requests waited");
        assert!(longest <= 61.0, "a request waited {longest} s");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_static(15.0, 3, 60.0);
        let b = run_static(15.0, 3, 60.0);
        assert_eq!(a.per_fn[&0].arrivals, b.per_fn[&0].arrivals);
        assert_eq!(a.per_fn[&0].wait.samples(), b.per_fn[&0].wait.samples());
    }

    #[test]
    fn round_robin_spreads_work() {
        // With RR over 4 equal containers and light load, waits stay tiny
        // and utilization is sane.
        let report = run_static(8.0, 4, 60.0);
        assert!(report.busy_utilization > 0.0 && report.busy_utilization <= 1.0);
        assert!(report.allocated_utilization > 0.0);
    }

    #[test]
    fn two_pools_coexist() {
        let mut sim = static_sim(9);
        let mut a = FunctionSetup::new(
            micro_benchmark(0.05),
            0.1,
            WorkloadSpec::Static {
                rate: 12.0,
                duration: 60.0,
            },
        );
        a.initial_containers = 2;
        sim.add_function(a);
        let mut b = FunctionSetup::new(
            lass_functions::binary_alert(),
            0.1,
            WorkloadSpec::Static {
                rate: 20.0,
                duration: 60.0,
            },
        );
        b.initial_containers = 2;
        sim.add_function(b);
        let report = sim.run(Some(60.0));
        assert!(report.per_fn[&0].completed > 500);
        assert!(report.per_fn[&1].completed > 900);
    }
}
