//! Federated-topology integration tests.
//!
//! Three families:
//!
//! * **Degenerate-topology parity** — a single-site, zero-latency
//!   topology must reproduce the corresponding plain single-cluster
//!   simulation *byte-for-byte* (same RNG streams, same event order,
//!   same statistics). Together with `golden_parity.rs`, which pins the
//!   plain runs against pre-refactor outputs, this pins the federated
//!   code path to the goldens transitively.
//! * **Router invariants** (property tests) — every arrival is routed
//!   to a live site, and arrivals are conserved across sites.
//! * **Fixed-seed federated end-to-end** — a two-site latency-aware
//!   edge↔cloud run is deterministic, offloads under overload, and
//!   reports consistent per-site and aggregate statistics.

use lass::cluster::{Cluster, CpuMilli, MemMib, PlacementPolicy, Topology};
use lass::core::{
    FederatedSimReport, FederatedSimulation, FunctionSetup, LassConfig, SimReport, Simulation,
    SitePolicyKind,
};
use lass::functions::{micro_benchmark, WorkloadSpec};
use lass::scenario::{Scenario, ScenarioReport};
use lass::simcore::{RouterKind, SimTime, SiteState, WaitForecast};
use proptest::prelude::*;

fn testbed_setup(rate: f64, duration: f64, initial: u32) -> FunctionSetup {
    let mut setup = FunctionSetup::new(
        micro_benchmark(0.1),
        0.1,
        WorkloadSpec::Static { rate, duration },
    );
    setup.initial_containers = initial;
    setup
}

/// A single-site zero-latency LaSS federation reproduces the plain
/// simulation byte-for-byte.
#[test]
fn degenerate_topology_matches_plain_lass_run() {
    let plain: SimReport = {
        let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), 42);
        sim.add_function(testbed_setup(20.0, 120.0, 1));
        sim.run(Some(120.0))
    };
    let fed: FederatedSimReport = {
        let mut sim = FederatedSimulation::new(
            LassConfig::default(),
            Topology::single(Cluster::paper_testbed()),
            42,
        );
        sim.add_function(testbed_setup(20.0, 120.0, 1));
        sim.run(Some(120.0)).expect("runs")
    };
    assert_eq!(fed.per_site.len(), 1);
    assert_eq!(fed.per_site[0].routed, plain.per_fn[&0].arrivals);
    // The site's inner report is the plain report, bit for bit.
    assert_eq!(
        serde_json::to_string(&fed.per_site[0].report).unwrap(),
        serde_json::to_string(&plain).unwrap()
    );
    // And the engine's aggregate repeats the same numbers.
    let agg = &fed.aggregate_per_fn[0];
    assert_eq!(agg.arrivals, plain.per_fn[&0].arrivals);
    assert_eq!(agg.completed, plain.per_fn[&0].completed);
    assert_eq!(agg.wait.samples(), plain.per_fn[&0].wait.samples());
}

/// Degenerate parity holds even with failure injection on: the single
/// site draws from the plain run's crash RNG stream.
#[test]
fn degenerate_topology_matches_plain_run_with_crashes() {
    let mut cfg = LassConfig::default();
    cfg.container_mtbf_secs = Some(120.0);
    let plain: SimReport = {
        let mut sim = Simulation::new(cfg.clone(), Cluster::paper_testbed(), 21);
        sim.add_function(testbed_setup(20.0, 120.0, 2));
        sim.run(Some(120.0))
    };
    assert!(plain.crashes > 0, "scenario must actually crash containers");
    let fed = {
        let mut sim = FederatedSimulation::new(cfg, Topology::single(Cluster::paper_testbed()), 21);
        sim.add_function(testbed_setup(20.0, 120.0, 2));
        sim.run(Some(120.0)).expect("runs")
    };
    assert_eq!(
        serde_json::to_string(&fed.per_site[0].report).unwrap(),
        serde_json::to_string(&plain).unwrap()
    );
}

/// A plain single-cluster `kind` run and the same run as a one-site,
/// zero-latency topology must serialize alike.
fn assert_degenerate_parity(kind: SitePolicyKind, cfg: LassConfig, seed: u64) {
    let plain: SimReport = {
        let mut sim = Simulation::new(cfg.clone(), Cluster::paper_testbed(), seed);
        sim.set_policy(kind);
        sim.add_function(testbed_setup(12.0, 60.0, 3));
        sim.run(Some(60.0))
    };
    let fed = {
        let mut sim =
            FederatedSimulation::new(cfg, Topology::single(Cluster::paper_testbed()), seed);
        sim.set_policy(kind);
        sim.add_function(testbed_setup(12.0, 60.0, 3));
        sim.run(Some(60.0)).expect("runs")
    };
    assert_eq!(
        serde_json::to_string(&fed.per_site[0].report).unwrap(),
        serde_json::to_string(&plain).unwrap()
    );
}

/// Same degenerate parity for the static round-robin site policy.
#[test]
fn degenerate_topology_matches_plain_static_rr_run() {
    assert_degenerate_parity(SitePolicyKind::StaticRr, LassConfig::default(), 5);
}

/// Same degenerate parity for the Knative site policy, with a scale
/// loop and activator cold starts in play.
#[test]
fn degenerate_topology_matches_plain_knative_run() {
    let mut cfg = LassConfig::default();
    cfg.scaler = lass::core::ScalerKind::ConcurrencyTarget { target: 0.7 };
    assert_degenerate_parity(SitePolicyKind::Knative, cfg, 5);
}

fn small_cluster(nodes: u32) -> Cluster {
    Cluster::homogeneous(
        nodes,
        CpuMilli(4000),
        MemMib(16 * 1024),
        PlacementPolicy::BestFit,
    )
}

/// Build a router-view site for the property tests. Telemetry starts
/// empty (zero forecast, healthy, no warm census) unless the test sets
/// it explicitly.
fn prop_site(latency: f64, cap: f64, in_flight: u64) -> SiteState {
    SiteState {
        name: String::new(),
        latency: lass::simcore::SimDuration::from_secs_f64(latency),
        capacity_hint: cap,
        in_flight,
        up: true,
        forecast: WaitForecast::default().into(),
        flakiness: 0.0,
        warm: 0,
        resources: lass::simcore::ResourceSnapshot::default(),
        fits: f64::INFINITY,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routers only ever pick live sites, whatever the load picture.
    #[test]
    fn routers_pick_live_sites(
        latencies in prop::collection::vec(0.0f64..0.2, 1..6),
        loads in prop::collection::vec(0u64..500, 1..6),
        caps in prop::collection::vec(1.0f64..64.0, 1..6),
        arrivals in 1u64..200,
    ) {
        let n = latencies.len().min(loads.len()).min(caps.len());
        prop_assume!(n >= 1);
        let mut sites: Vec<SiteState> = (0..n)
            .map(|i| {
                let mut s = prop_site(latencies[i], caps[i], loads[i]);
                s.name = format!("s{i}");
                s
            })
            .collect();
        for kind in RouterKind::ALL {
            let mut router = kind.build();
            for k in 0..arrivals {
                let idx = router.route((k % 3) as u32, SimTime::from_secs(k), &sites);
                prop_assert!(idx < n, "{}: site {idx} of {n}", kind.as_str());
                // Feed the decision back so stateful routers see load move.
                sites[idx].in_flight += 1;
            }
        }
    }

    /// Under arbitrary telemetry (forecasts, flakiness, warm censuses)
    /// and arbitrary up/down patterns with at least one live site, no
    /// router ever picks a down site — the chaos contract extended to
    /// the model-driven routers, whose extra signals might otherwise
    /// make a dark site look attractive.
    #[test]
    fn routers_never_pick_down_sites_under_random_telemetry(
        spec in prop::collection::vec(
            // ((latency, cap, in_flight, up), (lambda, mu, servers, flaky, warm))
            ((0.0f64..0.2, 1.0f64..32.0, 0u64..200, 0u8..2),
             (0.0f64..50.0, 0.1f64..20.0, 1u32..16, 0.0f64..1.0, 0u64..8)),
            2..6,
        ),
        arrivals in 1u64..150,
    ) {
        let mut sites: Vec<SiteState> = spec
            .iter()
            .map(|&((lat, cap, load, up), (lambda, mu, servers, flaky, warm))| {
                let mut s = prop_site(lat, cap, load);
                s.up = up == 1;
                s.forecast = WaitForecast { lambda, mu, servers }.into();
                s.flakiness = flaky;
                s.warm = warm;
                s
            })
            .collect();
        prop_assume!(sites.iter().any(|s| s.up));
        for kind in RouterKind::ALL {
            let mut router = kind.build();
            for k in 0..arrivals {
                let idx = router.route((k % 2) as u32, SimTime::from_secs(k), &sites);
                prop_assert!(idx < sites.len(), "{} out of range", kind.as_str());
                prop_assert!(sites[idx].up, "{} picked a down site", kind.as_str());
                sites[idx].in_flight += 1;
            }
        }
    }

    /// Overload/NaN scoring pin: with arbitrarily degenerate telemetry —
    /// non-finite λ̂/μ̂, unstable models, NaN flakiness — every router
    /// still returns an in-range up site, and whenever any up site has a
    /// finite predicted score the score-ranked router (planner) never
    /// elects a saturated/NaN-scored site over it.
    #[test]
    fn degenerate_telemetry_never_elects_a_saturated_site(
        spec in prop::collection::vec(
            ((0.0f64..0.2, 1.0f64..32.0, 0u64..200, 0u8..2),
             (0u8..6, 0.0f64..400.0, 0u8..6, 0.01f64..20.0, 1u32..40),
             (0u8..5, 0u64..8)),
            2..6,
        ),
        arrivals in 1u64..100,
    ) {
        fn weird(sel: u8, finite: f64) -> f64 {
            match sel {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => 1e308,
                3 => 5e-324,
                _ => finite,
            }
        }
        let mut sites: Vec<SiteState> = spec
            .iter()
            .map(
                |&((lat, cap, load, up), (lsel, lambda, msel, mu, servers), (fsel, warm))| {
                    let mut s = prop_site(lat, cap, load);
                    s.up = up == 1;
                    s.forecast = WaitForecast {
                        lambda: weird(lsel, lambda),
                        mu: weird(msel, mu),
                        servers,
                    }
                    .into();
                    s.flakiness = weird(fsel, 0.3);
                    s.warm = warm;
                    s
                },
            )
            .collect();
        prop_assume!(sites.iter().any(|s| s.up));
        let percentile = 0.95; // RouterConfig::default().percentile
        let finite_score = |s: &SiteState| {
            (s.latency.as_secs_f64() + s.forecast.wait_percentile(percentile)).is_finite()
        };
        for kind in RouterKind::ALL {
            let mut router = kind.build();
            let score_ranked = kind == RouterKind::Planner;
            for k in 0..arrivals {
                let idx = router.route((k % 2) as u32, SimTime::from_secs(k), &sites);
                prop_assert!(idx < sites.len(), "{} out of range", kind.as_str());
                prop_assert!(sites[idx].up, "{} picked a down site", kind.as_str());
                if score_ranked && sites.iter().any(|s| s.up && finite_score(s)) {
                    prop_assert!(
                        finite_score(&sites[idx]),
                        "{} elected a saturated site over a finite-scored one",
                        kind.as_str()
                    );
                }
                sites[idx].in_flight += 1;
            }
        }
    }

    /// Routing decisions are a pure function of the observed state
    /// sequence: two instances of the same router fed the same
    /// `SiteState` sequence pick identical sites (deterministic
    /// tie-breaks, no hidden randomness) — and every arrival lands on
    /// exactly one site, so routed counts are conserved.
    #[test]
    fn routers_are_deterministic_and_conserve_arrivals(
        spec in prop::collection::vec(
            (0.0f64..0.1, 1.0f64..16.0, 0u8..2, 0.0f64..40.0, 0.0f64..0.6),
            2..5,
        ),
        arrivals in 1u64..120,
    ) {
        prop_assume!(spec.iter().any(|&(_, _, up, _, _)| up == 1));
        let build_sites = || -> Vec<SiteState> {
            spec.iter()
                .map(|&(lat, cap, up, lambda, flaky)| {
                    let mut s = prop_site(lat, cap, 0);
                    s.up = up == 1;
                    s.forecast = WaitForecast { lambda, mu: 10.0, servers: 2 }.into();
                    s.flakiness = flaky;
                    s
                })
                .collect()
        };
        for kind in RouterKind::ALL {
            let (mut a, mut b) = (kind.build(), kind.build());
            let (mut sa, mut sb) = (build_sites(), build_sites());
            let mut picks = vec![0u64; sa.len()];
            for k in 0..arrivals {
                let t = SimTime::from_secs(k);
                let ia = a.route(0, t, &sa);
                let ib = b.route(0, t, &sb);
                prop_assert_eq!(ia, ib, "{} diverged at arrival {}", kind.as_str(), k);
                picks[ia] += 1;
                sa[ia].in_flight += 1;
                sb[ib].in_flight += 1;
            }
            // Conservation at the router: every arrival routed once.
            prop_assert_eq!(picks.iter().sum::<u64>(), arrivals);
            for (i, s) in sa.iter().enumerate() {
                prop_assert_eq!(u64::from(!s.up) * picks[i], 0, "down site got traffic");
            }
        }
    }
}

proptest! {
    // End-to-end conservation runs a real simulation per case; keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every arrival is routed exactly once and every site-side record
    /// adds back up to the engine's aggregate.
    #[test]
    fn arrivals_are_conserved_across_sites(
        rate in 5.0f64..40.0,
        seed in 0u64..1000,
        edge_latency_ms in 0.0f64..10.0,
        cloud_latency_ms in 10.0f64..80.0,
        router_pick in 0usize..3,
    ) {
        let mut topology = Topology::new();
        topology.add_site("edge", small_cluster(1), edge_latency_ms / 1e3);
        topology.add_site("cloud", small_cluster(4), cloud_latency_ms / 1e3);
        let mut sim = FederatedSimulation::new(LassConfig::default(), topology, seed);
        sim.set_router(RouterKind::ALL[router_pick]);
        sim.add_function(testbed_setup(rate, 30.0, 1));
        let rep = sim.run(Some(30.0)).expect("runs");

        let agg = &rep.aggregate_per_fn[0];
        let routed: usize = rep.per_site.iter().map(|s| s.routed).sum();
        prop_assert_eq!(routed, agg.arrivals, "every arrival routed to a live site");
        let delivered: usize = rep.per_site.iter().map(|s| s.report.per_fn[&0].arrivals).sum();
        prop_assert!(delivered <= routed);
        let completed: usize = rep.per_site.iter().map(|s| s.report.per_fn[&0].completed).sum();
        prop_assert_eq!(completed, agg.completed);
        let timeouts: usize = rep.per_site.iter().map(|s| s.report.per_fn[&0].timeouts).sum();
        prop_assert_eq!(timeouts, agg.timeouts);
        // Everything the engine still counts as open is either in
        // transit or held by a site.
        prop_assert!(rep.outstanding >= routed - delivered);
    }
}

/// The federated edge↔cloud scenario file: deterministic under its fixed
/// seed, with offload to the cloud and per-site + aggregate stats that
/// agree.
#[test]
fn fixed_seed_federated_scenario_end_to_end() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/federated-edge-cloud.json"
    ))
    .expect("scenario file");
    let sc = Scenario::from_json(&text).expect("valid scenario");

    let run = || {
        let ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
            panic!("expected a federated report");
        };
        rep
    };
    let (a, b) = (run(), run());
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "federated run must be deterministic under a fixed seed"
    );

    assert_eq!(a.router, "latency-aware");
    assert_eq!(a.per_site.len(), 2);
    let (edge, cloud) = (&a.per_site[0], &a.per_site[1]);
    assert_eq!(edge.name, "edge");
    assert_eq!(cloud.name, "cloud");
    // The 1-node edge cannot absorb the burst alone: offload happened.
    assert!(
        edge.routed > 0 && cloud.routed > 0,
        "no offload: {:?}",
        (edge.routed, cloud.routed)
    );
    // Latency preference: the close site takes the larger share.
    assert!(edge.routed > cloud.routed);

    // Per-site reports and the aggregate agree for every function.
    for (i, agg) in a.aggregate_per_fn.iter().enumerate() {
        let routed: usize = a.per_site.iter().map(|s| s.routed).sum();
        assert_eq!(routed, a.aggregate_per_fn.iter().map(|f| f.arrivals).sum());
        let completed: usize = a
            .per_site
            .iter()
            .map(|s| s.report.per_fn[&(i as u32)].completed)
            .sum();
        assert_eq!(completed, agg.completed, "fn {i} completion mismatch");
    }

    // Cloud waits include the 40 ms hop; edge waits only the 2 ms hop.
    let min_cloud_wait = cloud
        .report
        .per_fn
        .values()
        .flat_map(|f| f.wait.samples().iter().copied())
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_cloud_wait >= 0.040 - 1e-9,
        "cloud wait {min_cloud_wait} is missing the routing hop"
    );
}

/// A federated knative run exercises the third site-policy path.
#[test]
fn federated_knative_runs_deterministically() {
    let run = || {
        let mut topology = Topology::new();
        topology.add_site("edge", small_cluster(2), 0.002);
        topology.add_site("cloud", small_cluster(4), 0.030);
        let mut sim = FederatedSimulation::new(LassConfig::default(), topology, 13);
        sim.set_policy(SitePolicyKind::Knative)
            .set_router(RouterKind::LeastLoaded);
        sim.add_function(testbed_setup(25.0, 60.0, 1));
        sim.run(Some(60.0)).expect("runs")
    };
    let (a, b) = (run(), run());
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    let completed: usize = a
        .per_site
        .iter()
        .map(|s| s.report.per_fn[&0].completed)
        .sum();
    assert!(completed > 1000, "completed={completed}");
}
