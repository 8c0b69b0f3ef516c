//! Queueing-oracle differential tests: the simulator and the
//! closed-form mathematics check each other, as in the paper's
//! validation section.
//!
//! Three layers, each pinning one link of the model-driven routing
//! chain:
//!
//! * **Simulator vs closed form** — a fixed-seed M/M/c simulation
//!   (Poisson arrivals from the engine's arrival streams, exponential
//!   service from its service streams, `c` FCFS servers) must measure
//!   the waiting times the `lass-queueing` M/M/c formulas predict, at
//!   moderate (ρ = 0.5) and high (ρ = 0.8) utilization.
//! * **Telemetry vs ground truth** — a [`WaitPredictor`] fed the same
//!   stochastic streams must recover λ, μ, and through them the
//!   closed-form waits.
//! * **Router vs analytical optimum** — the `planner` router routing
//!   over two M/M/c sites must realize the per-site traffic split that
//!   the closed forms say is optimal: the score-equalizing equilibrium
//!   of minimum-predicted-response routing.

use lass::queueing::{MmcQueue, PredictorConfig, WaitPredictor};
use lass::simcore::{
    run_simulation, EngineConfig, EngineOutcome, FedFunction, Federation, FederationConfig,
    FunctionEntry, PolicyCtx, ReqId, RouterConfig, RouterKind, SchedulerPolicy, SimDuration,
    SimRng, SimTime, SiteMeta, StaticPoisson,
};
use std::collections::VecDeque;

/// A literal M/M/c/FCFS station: `c` identical servers, exponential
/// service at rate `mu` drawn from the engine's deterministic service
/// stream, FCFS queue. The simplest policy whose waiting times have an
/// exact closed form.
struct McServer {
    servers: u32,
    mu: f64,
    busy: u32,
    queue: VecDeque<ReqId>,
}

impl McServer {
    fn new(servers: u32, mu: f64) -> Self {
        Self {
            servers,
            mu,
            busy: 0,
            queue: VecDeque::new(),
        }
    }

    fn begin_service(
        &mut self,
        ctx: &mut impl PolicyCtx<McEv>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        self.busy += 1;
        let service = ctx.service_rng(fn_idx).exp(self.mu);
        ctx.schedule(
            now + SimDuration::from_secs_f64(service),
            McEv::Done(rid, now),
        );
    }
}

enum McEv {
    /// `(request, service start)`.
    Done(ReqId, SimTime),
}

impl SchedulerPolicy for McServer {
    type Event = McEv;
    type Report = EngineOutcome;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<McEv>) {}

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<McEv>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        if self.busy < self.servers {
            self.begin_service(ctx, rid, fn_idx, now);
        } else {
            self.queue.push_back(rid);
        }
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<McEv>, ev: McEv, now: SimTime) {
        let McEv::Done(rid, started) = ev;
        if ctx.complete(rid, started, now).is_none() {
            // Withheld by a wrapper (not exercised here); the server
            // still frees up.
        }
        self.busy = self.busy.saturating_sub(1);
        if let Some(next) = self.queue.pop_front() {
            let fn_idx = ctx.request_info(next).map_or(0, |(f, _)| f);
            self.begin_service(ctx, next, fn_idx, now);
        }
    }

    fn finish(self, outcome: EngineOutcome) -> EngineOutcome {
        outcome
    }
}

impl lass::simcore::ContainerChaos for McServer {}

/// Run one single-station M/M/c simulation and return its engine
/// outcome.
fn run_mmc(seed: u64, lambda: f64, mu: f64, servers: u32, duration: f64) -> EngineOutcome {
    run_simulation(
        EngineConfig {
            seed,
            rng_label_prefix: String::new(),
            duration_secs: duration,
            drain_secs: 120.0,
            stream_stats: false,
            parallel_sites: None,
        },
        vec![FunctionEntry {
            name: "probe".into(),
            slo_deadline: 1.0,
            process: Box::new(StaticPoisson::until(
                lambda,
                SimTime::from_secs_f64(duration),
            )),
        }],
        McServer::new(servers, mu),
    )
}

/// The headline acceptance check: at ρ ∈ {0.5, 0.8} the simulated mean
/// wait lands within 5% of the M/M/c closed form, and the simulated
/// p95 within 10% of the inverted exact CDF.
#[test]
fn single_site_waits_match_mmc_closed_form() {
    // (lambda, mu, c, duration, seed): rho = lambda / (c mu).
    for &(lambda, mu, c, duration, seed) in &[
        (10.0, 10.0, 2, 3000.0, 7),   // rho = 0.5
        (16.0, 10.0, 2, 20000.0, 11), // rho = 0.8 (longer: waits correlate)
    ] {
        let oracle = MmcQueue::new(lambda, mu, c).unwrap();
        let out = run_mmc(seed, lambda, mu, c, duration);
        let mut f = out.per_fn.into_iter().next().unwrap();
        assert!(
            f.completed as f64 > lambda * duration * 0.98,
            "run too short: {} completions",
            f.completed
        );

        let measured_mean = f.wait.mean().unwrap();
        let predicted_mean = oracle.mean_wait();
        let rel = (measured_mean - predicted_mean).abs() / predicted_mean;
        assert!(
            rel < 0.05,
            "rho={}: measured mean wait {measured_mean:.5}s vs closed form \
             {predicted_mean:.5}s ({:.1}% off)",
            oracle.utilization(),
            rel * 100.0
        );

        let measured_p95 = f.wait.percentile(0.95).unwrap();
        let predicted_p95 = oracle.wait_percentile(0.95);
        let rel = (measured_p95 - predicted_p95).abs() / predicted_p95.max(1e-9);
        assert!(
            rel < 0.10,
            "rho={}: measured p95 wait {measured_p95:.5}s vs closed form \
             {predicted_p95:.5}s ({:.1}% off)",
            oracle.utilization(),
            rel * 100.0
        );

        // The empirical waiting-time CDF agrees with the exact one at a
        // few probe points (two-sided check on P(W <= t)).
        for &p in &[0.5, 0.9] {
            let t = oracle.wait_percentile(p);
            if t > 0.0 {
                let measured_p = f.wait.samples().iter().filter(|&&w| w <= t).count() as f64
                    / f.wait.count() as f64;
                assert!(
                    (measured_p - p).abs() < 0.03,
                    "CDF mismatch at p={p}: measured {measured_p}"
                );
            }
        }
    }
}

/// The telemetry layer recovers the model: a predictor fed Poisson
/// arrivals and exponential service times from deterministic streams
/// reconstructs λ and μ, and therefore the closed-form waits, within a
/// few percent.
#[test]
fn predictor_recovers_model_from_stochastic_telemetry() {
    let (lambda, mu) = (12.0, 8.0);
    let mut p = WaitPredictor::new(PredictorConfig {
        tick_secs: 1.0,
        lambda_alpha: 0.05,
        service_alpha: 0.02,
    });
    let mut arr_rng = SimRng::from_seed_label(3, "oracle:arrivals");
    let mut svc_rng = SimRng::from_seed_label(3, "oracle:service");
    let mut t = 0.0;
    while t < 600.0 {
        t += arr_rng.exp(lambda);
        p.on_arrival(t);
        p.on_service(svc_rng.exp(mu));
    }
    let f = p.forecast(600.0, 3);
    assert!(
        (f.lambda - lambda).abs() / lambda < 0.10,
        "lambda estimate {} vs {}",
        f.lambda,
        lambda
    );
    assert!(
        (f.mu - mu).abs() / mu < 0.10,
        "mu estimate {} vs {}",
        f.mu,
        mu
    );
    // The forecast waits track the ground-truth model.
    let truth = MmcQueue::new(lambda, mu, 3).unwrap();
    let rel = (f.mean_wait() - truth.mean_wait()).abs() / truth.mean_wait();
    assert!(
        rel < 0.35,
        "forecast mean wait {} vs truth {} ({:.0}% off)",
        f.mean_wait(),
        truth.mean_wait(),
        rel * 100.0
    );
}

/// Two homogeneous M/M/c sites behind the planner router.
fn run_split(
    seed: u64,
    router_cfg: &RouterConfig,
    lambda: f64,
    latencies: (f64, f64),
    duration: f64,
) -> lass::simcore::FederatedReport<EngineOutcome> {
    let (mu, servers) = (10.0, 2u32);
    let functions = vec![FedFunction {
        name: "probe".into(),
        slo_deadline: 1.0,
        demand: [0.0; 3],
    }];
    let sites = vec![
        (
            SiteMeta {
                name: "near".into(),
                latency: SimDuration::from_secs_f64(latencies.0),
                capacity_hint: f64::from(servers),
            },
            McServer::new(servers, mu),
        ),
        (
            SiteMeta {
                name: "far".into(),
                latency: SimDuration::from_secs_f64(latencies.1),
                capacity_hint: f64::from(servers),
            },
            McServer::new(servers, mu),
        ),
    ];
    let cfg = FederationConfig {
        router: *router_cfg,
        ..FederationConfig::default()
    };
    let router = RouterKind::Planner.build_with(router_cfg);
    let fed = Federation::configured(sites, router, &functions, cfg, seed).expect("valid config");
    run_simulation(
        EngineConfig {
            seed,
            rng_label_prefix: String::new(),
            duration_secs: duration,
            drain_secs: 120.0,
            stream_stats: false,
            parallel_sites: None,
        },
        vec![FunctionEntry {
            name: "probe".into(),
            slo_deadline: 1.0,
            process: Box::new(StaticPoisson::until(
                lambda,
                SimTime::from_secs_f64(duration),
            )),
        }],
        fed,
    )
}

/// The analytical optimum for minimum-predicted-response routing over
/// two M/M/c sites: the split equalizing `latency_i + Wp(λ_i)` (the
/// router's score), found by bisection on the closed forms.
fn equilibrium_share(
    lambda: f64,
    mu: f64,
    servers: u32,
    percentile: f64,
    latencies: (f64, f64),
) -> f64 {
    let wp = |l: f64| -> f64 {
        if l <= 0.0 {
            return 0.0;
        }
        MmcQueue::new(l, mu, servers)
            .unwrap()
            .wait_percentile(percentile)
    };
    // score_near(x) - score_far(x) is increasing in x (near's share).
    let g = |x: f64| latencies.0 + wp(x * lambda) - (latencies.1 + wp((1.0 - x) * lambda));
    // Interior equilibrium: each site alone would be unstable, so both
    // carry traffic and the equalizer exists inside the stability band.
    let cap = f64::from(servers) * mu;
    let (mut lo, mut hi) = ((lambda - cap) / lambda + 1e-6, cap / lambda - 1e-6);
    assert!(g(lo) < 0.0 && g(hi) > 0.0, "no interior equilibrium");
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The acceptance check for the router itself: without demand vectors
/// the planner is pure minimum-predicted-response routing, and the
/// realized per-site traffic split converges to the score-equalizing
/// split the closed forms predict.
#[test]
fn planner_split_matches_analytic_equilibrium() {
    let lambda = 24.0; // each 2-server site alone (cap 20/s) is unstable
    let latencies = (0.005, 0.025);
    let cfg = RouterConfig {
        percentile: 0.95,
        lambda_alpha: 0.3,
        service_alpha: 0.05,
        ..RouterConfig::default()
    };
    let rep = run_split(42, &cfg, lambda, latencies, 2000.0);
    let routed: usize = rep.per_site.iter().map(|s| s.routed).sum();
    assert_eq!(routed, rep.aggregate_per_fn[0].arrivals);
    let measured = rep.per_site[0].routed as f64 / routed as f64;
    let optimal = equilibrium_share(lambda, 10.0, 2, 0.95, latencies);
    assert!(
        (0.5..0.95).contains(&optimal),
        "oracle equilibrium {optimal} out of expected band"
    );
    assert!(
        (measured - optimal).abs() < 0.05,
        "realized near-site share {measured:.3} vs analytic optimum {optimal:.3}"
    );
    // Both sites must be meaningfully used (no degenerate herd).
    assert!(rep.per_site[1].routed > routed / 10);
}

/// Differential determinism: the model-driven federated run is exactly
/// reproducible under its seed (telemetry, forecasts and all).
#[test]
fn model_driven_routing_is_deterministic() {
    let cfg = RouterConfig::default();
    let a = run_split(9, &cfg, 24.0, (0.005, 0.025), 300.0);
    let b = run_split(9, &cfg, 24.0, (0.005, 0.025), 300.0);
    assert_eq!(a.per_site[0].routed, b.per_site[0].routed);
    assert_eq!(a.per_site[1].routed, b.per_site[1].routed);
    assert_eq!(
        serde_json::to_string(&a.aggregate_per_fn).unwrap(),
        serde_json::to_string(&b.aggregate_per_fn).unwrap()
    );
}
