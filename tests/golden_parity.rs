//! Engine-port parity goldens.
//!
//! Before `core/simulation.rs` and `openwhisk/baseline.rs` were ported
//! onto the shared discrete-event engine (`lass_simcore::engine`), the
//! pre-refactor simulators were run at fixed seeds and their summary
//! statistics — including an FNV-64 hash of the entire serialized
//! report — were recorded here. The ported policies must reproduce every
//! value **bit-for-bit**: same RNG stream labels, same event ordering,
//! same statistics accumulation order.
//!
//! If a deliberate behavioural change ever invalidates these numbers,
//! re-record them and say so in the commit message — a silent drift here
//! means the port changed simulation semantics.

use lass::cluster::Cluster;
use lass::core::{FunctionSetup, LassConfig, Simulation, SitePolicyKind};
use lass::functions::{binary_alert, micro_benchmark, mobilenet_v2, WorkloadSpec};
use lass::openwhisk::{OwConfig, OwFunctionSetup, OwSimulation};

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario_a() -> lass::core::SimReport {
    let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), 42);
    let mut setup = FunctionSetup::new(
        micro_benchmark(0.1),
        0.1,
        WorkloadSpec::Static {
            rate: 20.0,
            duration: 120.0,
        },
    );
    setup.initial_containers = 1;
    sim.add_function(setup);
    sim.run(Some(120.0))
}

#[test]
fn lass_single_function_matches_pre_refactor_goldens() {
    let report = scenario_a();
    let f = &report.per_fn[&0];
    assert_eq!(f.arrivals, 2358);
    assert_eq!(f.completed, 2358);
    assert_eq!(f.reruns, 0);
    assert_eq!(f.timeouts, 0);
    assert_eq!(f.slo_violations, 313);
    assert_eq!(f.wait.count(), 2358);
    assert_eq!(report.epochs, 12);
    assert_eq!(report.overloaded_epochs, 0);
    assert_eq!(report.failed_creates, 0);
    assert_eq!(report.crashes, 0);
    assert_eq!(f.wait.mean().unwrap().to_bits(), 4600885491099660003);
    assert_eq!(report.busy_utilization.to_bits(), 4589391036886297787);
    assert_eq!(report.allocated_utilization.to_bits(), 4594772509834817879);
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        fnv64(&json),
        6027010988220804034,
        "full-report hash drifted"
    );
}

#[test]
fn lass_two_functions_match_pre_refactor_goldens() {
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
        binary_alert(),
        0.1,
        WorkloadSpec::Static {
            rate: 20.0,
            duration: 120.0,
        },
    ));
    let report = sim.run(Some(120.0));
    assert_eq!(
        (
            report.per_fn[&0].arrivals,
            report.per_fn[&0].completed,
            report.per_fn[&0].slo_violations
        ),
        (1192, 1192, 145)
    );
    assert_eq!(
        (
            report.per_fn[&1].arrivals,
            report.per_fn[&1].completed,
            report.per_fn[&1].slo_violations
        ),
        (2325, 2325, 303)
    );
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        fnv64(&json),
        11229586572688345218,
        "full-report hash drifted"
    );
}

#[test]
fn openwhisk_cascade_matches_pre_refactor_goldens() {
    let mut sim = OwSimulation::new(OwConfig::default());
    sim.add_function(OwFunctionSetup {
        spec: binary_alert(),
        workload: WorkloadSpec::Static {
            rate: 10.0,
            duration: 120.0,
        },
        slo_deadline: 0.1,
    });
    sim.add_function(OwFunctionSetup {
        spec: mobilenet_v2(),
        workload: WorkloadSpec::Steps {
            steps: vec![(0.0, 0.0), (30.0, 40.0)],
            duration: 600.0,
        },
        slo_deadline: 0.1,
    });
    let report = sim.run(Some(600.0));
    assert_eq!(
        (
            report.per_fn[&0].arrivals,
            report.per_fn[&0].completed,
            report.per_fn[&0].lost
        ),
        (1239, 884, 255)
    );
    assert_eq!(
        (
            report.per_fn[&1].arrivals,
            report.per_fn[&1].completed,
            report.per_fn[&1].lost
        ),
        (22781, 257, 20279)
    );
    assert_eq!(report.failures.len(), 3);
    assert_eq!(report.outstanding, 2345);
    assert_eq!(
        report.cascade_complete_at.map(f64::to_bits),
        Some(4635506196350034989)
    );
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        fnv64(&json),
        17943746593620683722,
        "full-report hash drifted"
    );
}

#[test]
fn single_site_topology_matches_pre_refactor_goldens() {
    // The degenerate federated path (one zero-latency site) must hit the
    // same pre-refactor goldens as the plain run: same arrival stream,
    // same event order, same statistics, same serialized bytes.
    let mut sim = lass::core::FederatedSimulation::new(
        LassConfig::default(),
        lass::cluster::Topology::single(Cluster::paper_testbed()),
        42,
    );
    let mut setup = FunctionSetup::new(
        micro_benchmark(0.1),
        0.1,
        WorkloadSpec::Static {
            rate: 20.0,
            duration: 120.0,
        },
    );
    setup.initial_containers = 1;
    sim.add_function(setup);
    let fed = sim.run(Some(120.0)).expect("runs");
    let report = &fed.per_site[0].report;
    let f = &report.per_fn[&0];
    assert_eq!(f.arrivals, 2358);
    assert_eq!(f.completed, 2358);
    assert_eq!(f.slo_violations, 313);
    assert_eq!(f.wait.mean().unwrap().to_bits(), 4600885491099660003);
    assert_eq!(report.busy_utilization.to_bits(), 4589391036886297787);
    assert_eq!(report.allocated_utilization.to_bits(), 4594772509834817879);
    let json = serde_json::to_string(report).unwrap();
    assert_eq!(
        fnv64(&json),
        6027010988220804034,
        "single-site topology drifted from the plain-run golden"
    );
}

#[test]
fn same_seed_gives_byte_identical_serialized_reports() {
    // Determinism satellite: two runs at the same seed serialize to the
    // exact same bytes, for every policy.
    let (a, b) = (scenario_a(), scenario_a());
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );

    let ow = || {
        let mut sim = OwSimulation::new(OwConfig::default());
        sim.add_function(OwFunctionSetup {
            spec: binary_alert(),
            workload: WorkloadSpec::Static {
                rate: 10.0,
                duration: 60.0,
            },
            slo_deadline: 0.1,
        });
        sim.run(Some(60.0))
    };
    assert_eq!(
        serde_json::to_string(&ow()).unwrap(),
        serde_json::to_string(&ow()).unwrap()
    );

    let srr = || {
        let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), 5);
        sim.set_policy(SitePolicyKind::StaticRr);
        let mut setup = FunctionSetup::new(
            micro_benchmark(0.1),
            0.1,
            WorkloadSpec::Static {
                rate: 12.0,
                duration: 60.0,
            },
        );
        setup.initial_containers = 3;
        sim.add_function(setup);
        sim.run(Some(60.0))
    };
    assert_eq!(
        serde_json::to_string(&srr()).unwrap(),
        serde_json::to_string(&srr()).unwrap()
    );
}

#[test]
fn lass_and_static_policies_decorrelate_but_share_workload_shape() {
    // Same scenario through two engine policies: arrival counts are close
    // (same rate, decorrelated streams) and both serve the load.
    let lass = scenario_a();
    let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), 42);
    sim.set_policy(SitePolicyKind::StaticRr);
    let mut setup = FunctionSetup::new(
        micro_benchmark(0.1),
        0.1,
        WorkloadSpec::Static {
            rate: 20.0,
            duration: 120.0,
        },
    );
    setup.initial_containers = 4;
    sim.add_function(setup);
    let srr = sim.run(Some(120.0));
    let (a, b) = (
        lass.per_fn[&0].arrivals as f64,
        srr.per_fn[&0].arrivals as f64,
    );
    assert!(
        (a - b).abs() < a * 0.1,
        "arrival counts wildly differ: {a} vs {b}"
    );
    assert!(srr.per_fn[&0].completed as f64 > b * 0.99);
}

/// The multi-dimensional acceptance pin: on the memory-bound scenario
/// (edge nodes whose memory is exactly exhausted by the warm fleet, a
/// memory-class function, fixed seed 21) the vector-aware planner
/// achieves strictly higher SLO attainment than least-loaded, because
/// it sees the edge's binding dimension is full and stops feeding it.
/// The planner run itself replays byte-for-byte.
#[test]
fn planner_beats_baselines_on_memory_bound_scenario() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/memory-bound.json");
    let text = std::fs::read_to_string(path).expect("scenario file");
    assert!(
        text.contains("\"planner\""),
        "scenario must ship the planner"
    );
    let run = |router: &str| {
        let swapped = text.replace("\"planner\"", &format!("\"{router}\""));
        let sc = lass::scenario::Scenario::from_json(&swapped).expect("valid scenario");
        let lass::scenario::ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
            panic!("expected a federated report");
        };
        rep
    };
    let attainment = |rep: &lass::core::FederatedSimReport| -> f64 {
        let (mut done, mut viol) = (0usize, 0usize);
        for site in &rep.per_site {
            for f in site.report.per_fn.values() {
                done += f.completed;
                viol += f.slo_violations;
            }
        }
        1.0 - viol as f64 / done as f64
    };

    let planner = run("planner");
    let ll = run("least-loaded");
    // The planner routes far less to the memory-full edge than the
    // capacity-blind baseline…
    assert!(
        planner.per_site[0].routed * 2 < ll.per_site[0].routed,
        "planner kept feeding the full edge: {} vs {}",
        planner.per_site[0].routed,
        ll.per_site[0].routed
    );
    // …and converts that into strictly better SLO attainment.
    let (pa, la) = (attainment(&planner), attainment(&ll));
    assert!(
        pa > la,
        "planner must win on attainment: planner {pa:.4}, least-loaded {la:.4}"
    );
    // Fixed seed, fixed bytes.
    assert_eq!(
        serde_json::to_string(&planner).unwrap(),
        serde_json::to_string(&run("planner")).unwrap(),
        "memory-bound planner run must replay byte-for-byte"
    );
}

/// Fixed-seed golden for the model-driven routing layer: the
/// `slo-routing` scenario (planner router over an edge↔cloud LaSS
/// federation) pins its full serialized federated report. Telemetry and
/// forecasts must replay bit-for-bit. If a deliberate routing change
/// invalidates this, re-record and say so in the commit message.
#[test]
fn slo_routing_scenario_matches_pinned_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/slo-routing.json");
    let text = std::fs::read_to_string(path).expect("scenario file");
    let sc = lass::scenario::Scenario::from_json(&text).expect("valid scenario");
    let run = || {
        let lass::scenario::ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
            panic!("expected a federated report");
        };
        rep
    };
    let rep = run();
    assert_eq!(rep.router, "planner");
    assert_eq!(
        (rep.per_site[0].routed, rep.per_site[1].routed),
        (2353, 2399)
    );
    let json = serde_json::to_string(&rep).unwrap();
    assert_eq!(
        fnv64(&json),
        14749318010568491129,
        "slo-routing golden drifted"
    );
    // And it replays byte-for-byte.
    assert_eq!(json, serde_json::to_string(&run()).unwrap());
}

/// Runs a scenario file through the `lass-sim` entry point and returns
/// the FNV-64 hash of its serialized report.
fn scenario_file_hash(name: &str) -> u64 {
    use lass::scenario::ScenarioReport;
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("scenario file");
    let sc = lass::scenario::Scenario::from_json(&text).expect("valid scenario");
    let json = match sc.run_report().expect("runs") {
        ScenarioReport::Lass(rep) => serde_json::to_string(&rep),
        ScenarioReport::Federated(rep) => serde_json::to_string(&rep),
        ScenarioReport::OpenWhisk(_) => panic!("expected a cluster-policy report"),
    };
    fnv64(&json.unwrap())
}

/// Pinned values for the two baseline policies, not only run-to-run
/// determinism: a change to how they track in-service requests or look
/// containers up must leave their reports byte-identical.
#[test]
fn knative_and_static_rr_scenarios_match_pinned_goldens() {
    assert_eq!(
        scenario_file_hash("knative.json"),
        2831296833105806609,
        "knative golden drifted"
    );
    assert_eq!(
        scenario_file_hash("static-rr.json"),
        3184327130032953232,
        "static-rr golden drifted"
    );
}

/// The two baseline policies under chaos on an edge/cloud topology:
/// container bursts on both sites, a brown-out and its recovery, and an
/// edge restart. CI pins the same runs in `results/scenarios.sha256`.
#[test]
fn baseline_chaos_scenarios_match_pinned_goldens() {
    assert_eq!(
        scenario_file_hash("chaos-static-rr.json"),
        10058601709312910058,
        "chaos-static-rr golden drifted"
    );
    assert_eq!(
        scenario_file_hash("chaos-knative.json"),
        1720076527876013750,
        "chaos-knative golden drifted"
    );
}

/// An overloaded LaSS run that walks every site-path branch: weighted
/// fair share across users, deflation, lazy and forced terminations
/// whose orphans rerun, MTBF crashes of busy containers and timed-out
/// requests abandoned at dequeue. Its full report is pinned.
#[test]
fn overloaded_lass_with_crashes_matches_pinned_golden() {
    let mut cfg = LassConfig::default();
    cfg.container_mtbf_secs = Some(90.0);
    cfg.request_timeout_secs = Some(4.0);
    let mut sim = Simulation::new(cfg, Cluster::paper_testbed(), 17);
    let fns = [
        (
            mobilenet_v2(),
            1.0,
            1.0,
            vec![(0.0, 2.0), (60.0, 9.0), (180.0, 3.0)],
        ),
        (
            binary_alert(),
            2.0,
            3.0,
            vec![(0.0, 40.0), (120.0, 180.0), (240.0, 20.0)],
        ),
        (
            micro_benchmark(0.1),
            1.0,
            1.0,
            vec![(0.0, 10.0), (90.0, 45.0)],
        ),
    ];
    for (i, (spec, weight, user_weight, steps)) in fns.into_iter().enumerate() {
        let mut setup = FunctionSetup::new(
            spec,
            0.1,
            WorkloadSpec::Steps {
                steps,
                duration: 300.0,
            },
        );
        setup.weight = weight;
        setup.user = lass::cluster::UserId(i as u32 % 2);
        setup.user_weight = user_weight;
        setup.initial_containers = 2;
        sim.add_function(setup);
    }
    let report = sim.run(Some(300.0));
    // The run really exercises the branches it is meant to pin.
    assert!(report.overloaded_epochs > 0, "never overloaded");
    assert!(report.crashes > 0, "no container crashed");
    let reruns: usize = report.per_fn.values().map(|f| f.reruns).sum();
    let timeouts: usize = report.per_fn.values().map(|f| f.timeouts).sum();
    assert!(reruns > 0, "no request reran");
    assert!(timeouts > 0, "no request timed out");
    // A fleet whose CPU is not a whole number of standard containers
    // holds a deflated one.
    let standard_cpu = [2000.0, 500.0, 400.0];
    let deflated = report.per_fn.values().zip(standard_cpu).any(|(f, std)| {
        f.cpu_timeline
            .points()
            .iter()
            .any(|&(_, cpu)| cpu % std != 0.0)
    });
    assert!(deflated, "no container was deflated");
    assert_eq!(
        (report.epochs, report.overloaded_epochs, report.crashes),
        (30, 24, 67)
    );
    assert_eq!(
        fnv64(&serde_json::to_string(&report).unwrap()),
        11195249894080062191,
        "overloaded LaSS golden drifted"
    );
}

/// `scenarios/hedge-tail.json` with its hedge block replaced by `hedge`,
/// on the sequential driver (`parallel: None`) or the windowed one with
/// that many threads. Returns the FNV-64 hash of the serialized report.
fn hedge_tail_hash(hedge: lass::simcore::HedgeConfig, parallel: Option<usize>) -> u64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/hedge-tail.json");
    let text = std::fs::read_to_string(path).expect("scenario file");
    let mut sc = lass::scenario::Scenario::from_json(&text).expect("valid scenario");
    let topology = sc.topology.as_mut().expect("topology");
    topology.hedge = Some(hedge);
    topology.parallel_sites = parallel;
    let lass::scenario::ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
        panic!("expected a federated report");
    };
    fnv64(&serde_json::to_string(&rep).unwrap())
}

/// The hedge race on both drivers: every trigger family, a speculative
/// retry and a waste budget on the windowed driver, and the scenario's
/// own immediate hedge on the sequential one. Chaos crashes sites under
/// the races, so clones die, migrate and get eaten at the door.
#[test]
fn hedge_tail_races_match_pinned_goldens() {
    use lass::simcore::{HedgeConfig, HedgeTrigger};
    let immediate = HedgeConfig::default();
    let cases = [
        (
            "sequential immediate x1",
            immediate,
            None,
            617324616125682825,
        ),
        (
            "windowed immediate x1",
            immediate,
            Some(2),
            14321051615211579244,
        ),
        (
            "windowed deferred-40ms x1",
            HedgeConfig {
                trigger: HedgeTrigger::DeferredMs(40.0),
                ..immediate
            },
            Some(2),
            18175170146988748449,
        ),
        (
            "windowed retry-40ms x1",
            HedgeConfig {
                retry_after_ms: 40.0,
                ..immediate
            },
            Some(2),
            13835705560906519515,
        ),
        (
            "windowed immediate x1 w0.1",
            HedgeConfig {
                waste_budget: 0.1,
                ..immediate
            },
            Some(2),
            2409445367590857089,
        ),
    ];
    let drifted: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, hedge, parallel, golden)| {
            let got = hedge_tail_hash(hedge, parallel);
            (got != golden).then(|| format!("{name}: {got} (pinned {golden})"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "hedge-tail goldens drifted: {drifted:#?}"
    );
}
