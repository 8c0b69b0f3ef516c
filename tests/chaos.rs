//! Chaos-injection integration tests.
//!
//! Four families:
//!
//! * **Fixed-seed chaos goldens** — the shipped `scenarios/chaos-*.json`
//!   files (site crash + recovery, partition, migration) serialize to
//!   identical FNV-64 hashes across repeated runs: every fault is drawn
//!   from labelled deterministic RNG streams, so a chaos run is exactly
//!   as reproducible as a fault-free one.
//! * **No-chaos transparency** — a federation armed with an empty
//!   chaos schedule reproduces the plain runs byte-for-byte (same
//!   pattern as `tests/federation.rs`); together with `golden_parity.rs`
//!   this pins the chaos code path to the pre-refactor goldens
//!   transitively.
//! * **Conservation invariants** (property tests) — under random fault
//!   schedules every arrival is exactly one of completed, failed
//!   (lost), timed out, or still outstanding; cross-site migration is
//!   symmetric (every migrated-out request is migrated-in somewhere).
//! * **`lass-sweep` output** — the chaos-profile grid is complete and
//!   rows are deterministic per seed (the binary is parsed, not just
//!   smoke-run).

use lass::cluster::{Cluster, CpuMilli, MemMib, PlacementPolicy, Topology};
use lass::core::{FederatedSimulation, FunctionSetup, LassConfig, SimReport, Simulation};
use lass::functions::{micro_benchmark, WorkloadSpec};
use lass::scenario::{Scenario, ScenarioReport};
use lass::simcore::{ChaosConfig, Fault, FederationConfig, RouterKind, SimDuration};
use proptest::prelude::*;

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_scenario_file(name: &str) -> lass::core::FederatedSimReport {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("scenario file");
    let sc = Scenario::from_json(&text).expect("valid scenario");
    let ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
        panic!("expected a federated report from {name}");
    };
    rep
}

/// The acceptance scenario: site crash at t = 60 s, recovery at
/// t = 120 s. Two runs must produce identical FNV-64 hashes of the full
/// serialized report, and the faults must actually bite.
#[test]
fn site_crash_scenario_hashes_are_reproducible() {
    let a = run_scenario_file("chaos-site-crash.json");
    let b = run_scenario_file("chaos-site-crash.json");
    let ja = serde_json::to_string(&a).unwrap();
    let jb = serde_json::to_string(&b).unwrap();
    assert_eq!(
        fnv64(&ja),
        fnv64(&jb),
        "chaos run must be byte-for-byte reproducible under its seed"
    );
    assert_eq!(ja, jb);

    let edge = &a.per_site[0];
    assert_eq!(edge.name, "edge");
    // Crash at 60, recovery at 120: exactly 60 s of downtime.
    assert!(
        (edge.downtime_secs - 60.0).abs() < 1e-6,
        "downtime {}",
        edge.downtime_secs
    );
    // The orphans of the crash migrated to the surviving cloud site.
    assert!(edge.migrated > 0, "no cross-site migration happened");
    assert_eq!(a.per_site[1].migrated_in, edge.migrated);
    // Nothing was failed: the cloud had capacity for the orphans.
    assert_eq!(edge.failed + a.per_site[1].failed, 0);
    assert_eq!(a.unroutable, 0);
}

#[test]
fn partition_scenario_hashes_are_reproducible() {
    let a = run_scenario_file("chaos-partition.json");
    let b = run_scenario_file("chaos-partition.json");
    assert_eq!(
        fnv64(&serde_json::to_string(&a).unwrap()),
        fnv64(&serde_json::to_string(&b).unwrap())
    );
    let edge = &a.per_site[0];
    // Partition from 45 to 75: 30 s unroutable, but nothing failed or
    // crashed — the site kept its work and released it at the heal.
    assert!(
        (edge.downtime_secs - 30.0).abs() < 1e-6,
        "downtime {}",
        edge.downtime_secs
    );
    assert_eq!(edge.failed, 0);
    // The burst at t = 100 crashed cloud containers.
    assert_eq!(a.per_site[1].chaos_crashes, 3);
    assert_eq!(a.per_site[1].report.crashes, 3);
    // Stalled responses surface as a response-time tail ≥ the stall.
    let max_response = edge
        .report
        .per_fn
        .values()
        .flat_map(|f| f.response.samples().iter().copied())
        .fold(0.0f64, f64::max);
    assert!(
        max_response >= 1.0,
        "no stalled response visible (max {max_response})"
    );
}

#[test]
fn stochastic_chaos_is_deterministic_per_seed() {
    let a = run_scenario_file("chaos-stochastic.json");
    let b = run_scenario_file("chaos-stochastic.json");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    // The storm must actually do something under this seed.
    let downtime: f64 = a.per_site.iter().map(|s| s.downtime_secs).sum();
    assert!(downtime > 0.0, "no site ever went down");
    let agg = &a.aggregate_per_fn[0];
    assert_eq!(
        agg.arrivals,
        agg.completed + agg.lost + agg.timeouts + a.outstanding
    );
}

fn testbed_setup(rate: f64, duration: f64, initial: u32) -> FunctionSetup {
    let mut setup = FunctionSetup::new(
        micro_benchmark(0.1),
        0.1,
        WorkloadSpec::Static { rate, duration },
    );
    setup.initial_containers = initial;
    setup
}

/// A federation armed with an empty chaos schedule
/// (`Federation::with_chaos`, which every federated run goes through)
/// reproduces the plain single-cluster run byte-for-byte — the explicit
/// no-chaos parity pin of the production path.
#[test]
fn empty_chaos_schedule_reproduces_plain_run_byte_for_byte() {
    let plain: SimReport = {
        let mut sim = Simulation::new(LassConfig::default(), Cluster::paper_testbed(), 42);
        sim.add_function(testbed_setup(20.0, 120.0, 1));
        sim.run(Some(120.0))
    };
    let fed = {
        let mut sim = FederatedSimulation::new(
            LassConfig::default(),
            Topology::single(Cluster::paper_testbed()),
            42,
        );
        // An explicitly-default chaos config: schedules nothing.
        sim.set_chaos(ChaosConfig::default());
        sim.add_function(testbed_setup(20.0, 120.0, 1));
        sim.run(Some(120.0)).expect("runs")
    };
    assert_eq!(
        serde_json::to_string(&fed.per_site[0].report).unwrap(),
        serde_json::to_string(&plain).unwrap(),
        "an empty chaos schedule drifted from the plain run"
    );
    assert_eq!(fed.per_site[0].migrated, 0);
    assert_eq!(fed.per_site[0].downtime_secs, 0.0);
}

/// Brown-out golden: a [`Fault::SiteSlowdown`] stretches the slowed
/// site's service times without ever starting the downtime clock — the
/// site keeps serving and stays routable, nothing fails, and the
/// degradation is visible to the health EWMA (nonzero flakiness), which
/// is exactly the signal the failure-aware router acts on. The run is
/// byte-for-byte reproducible under its seed, and a `permille ≥ 1000`
/// event restores nominal speed.
#[test]
fn site_slowdown_brownout_is_reproducible_and_visible() {
    let slowdown = || ChaosConfig {
        events: vec![
            (
                5.0,
                Fault::SiteSlowdown {
                    site: 0,
                    permille: 250,
                },
            ),
            (
                28.0,
                Fault::SiteSlowdown {
                    site: 0,
                    permille: 1000,
                },
            ),
        ],
        ..ChaosConfig::default()
    };
    let a = two_site_sim(11, slowdown());
    let b = two_site_sim(11, slowdown());
    let ja = serde_json::to_string(&a).unwrap();
    assert_eq!(
        fnv64(&ja),
        fnv64(&serde_json::to_string(&b).unwrap()),
        "brown-out run must be byte-for-byte reproducible under its seed"
    );
    let baseline = two_site_sim(11, ChaosConfig::default());

    let slowed = &a.per_site[0];
    // A brown-out is not an outage: the site stayed up and routable the
    // whole run, kept its work, and nothing failed or migrated.
    assert_eq!(slowed.downtime_secs, 0.0);
    assert_eq!(slowed.failed, 0);
    assert_eq!(slowed.migrated, 0);
    assert_eq!(a.unroutable, 0);
    // The health EWMA saw the degradation; the fault-free twin did not.
    assert!(slowed.flakiness > 0.0, "flakiness {}", slowed.flakiness);
    assert_eq!(baseline.per_site[0].flakiness, 0.0);
    // And service genuinely slowed: the worst response on the
    // browned-out site dwarfs the fault-free run's.
    let max_response = |rep: &lass::core::FederatedSimReport| -> f64 {
        rep.per_site[0]
            .report
            .per_fn
            .values()
            .flat_map(|f| f.response.samples().iter().copied())
            .fold(0.0f64, f64::max)
    };
    assert!(
        max_response(&a) > 2.0 * max_response(&baseline),
        "slowdown did not bite: {} vs {}",
        max_response(&a),
        max_response(&baseline)
    );
    // Every arrival still has exactly one fate.
    let agg = &a.aggregate_per_fn[0];
    assert_eq!(
        agg.arrivals,
        agg.completed + agg.lost + agg.timeouts + a.outstanding
    );
}

/// The scenario layer's `"site-slowdown"` chaos kind: `factor` (a
/// service-speed multiplier) parses into the permille brown-out and
/// drives a real federated run end to end.
#[test]
fn scenario_site_slowdown_parses_and_runs() {
    let spec = r#"{
        "seed": 13,
        "policy": "lass",
        "topology": {
            "router": "least-loaded",
            "sites": [
                { "name": "a", "cluster": { "nodes": 1, "cpu_milli": 4000, "mem_mib": 16384 }, "latency_ms": 2 },
                { "name": "b", "cluster": { "nodes": 2, "cpu_milli": 4000, "mem_mib": 16384 }, "latency_ms": 20 }
            ]
        },
        "chaos": {
            "name": "brownout-a",
            "events": [
                { "at": 5.0, "kind": "site-slowdown", "site": "a", "factor": 0.25 },
                { "at": 28.0, "kind": "site-slowdown", "site": "a", "factor": 1.0 }
            ]
        },
        "functions": [
            {
                "function": "micro_benchmark:100",
                "slo_ms": 150,
                "workload": { "Static": { "rate": 20.0, "duration": 30.0 } },
                "initial_containers": 1
            }
        ]
    }"#;
    let sc = Scenario::from_json(spec).expect("valid scenario");
    let ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
        panic!("expected a federated report");
    };
    assert!(
        rep.per_site[0].flakiness > 0.0,
        "brown-out invisible to the health EWMA"
    );
    assert_eq!(rep.per_site[0].downtime_secs, 0.0);
    assert_eq!(rep.per_site[0].failed, 0);

    // An invalid factor is rejected at parse/validate time.
    let bad = spec.replace("0.25", "0.0");
    assert!(
        Scenario::from_json(&bad)
            .and_then(|s| s.run_report().map(|_| ()))
            .is_err(),
        "factor 0.0 must be rejected"
    );
}

fn small_cluster(nodes: u32) -> Cluster {
    Cluster::homogeneous(
        nodes,
        CpuMilli(4000),
        MemMib(16 * 1024),
        PlacementPolicy::BestFit,
    )
}

fn two_site_sim(seed: u64, chaos: ChaosConfig) -> lass::core::FederatedSimReport {
    let mut topology = Topology::new();
    topology.add_site("a", small_cluster(1), 0.002);
    topology.add_site("b", small_cluster(2), 0.020);
    let mut sim = FederatedSimulation::new(LassConfig::default(), topology, seed);
    sim.set_chaos(chaos);
    sim.add_function(testbed_setup(20.0, 30.0, 1));
    sim.run(Some(30.0)).expect("runs")
}

proptest! {
    // Every case runs a real federated simulation; keep the count
    // modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation under random fault schedules — brown-outs included:
    /// every arrival is exactly one of completed, failed (lost), timed
    /// out, or still outstanding — and migration is symmetric across
    /// sites. This is the "exactly one fate" invariant: migrated-then-
    /// completed requests count once, in `completed`, and a
    /// `SiteSlowdown` may stretch service times but never loses work.
    #[test]
    fn arrivals_are_conserved_under_random_faults(
        seed in 0u64..500,
        schedule in prop::collection::vec(
            (1.0f64..28.0, 0u8..6, 0u32..2, 1u32..4),
            0..8,
        ),
    ) {
        let events = schedule
            .into_iter()
            .map(|(at, kind, site, count)| {
                let fault = match kind {
                    0 => Fault::SiteDown { site },
                    1 => Fault::SiteUp { site },
                    2 => Fault::PartitionStart { site },
                    3 => Fault::PartitionEnd { site },
                    4 => Fault::ContainerBurst { site, count },
                    // 250/500/750 ‰ brown-outs (count ∈ 1..4).
                    _ => Fault::SiteSlowdown { site, permille: 250 * count },
                };
                (at, fault)
            })
            .collect();
        let chaos = ChaosConfig { events, ..ChaosConfig::default() };
        let rep = two_site_sim(seed, chaos);

        let agg = &rep.aggregate_per_fn[0];
        prop_assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding,
            "conservation broke"
        );
        let migrated_out: usize = rep.per_site.iter().map(|s| s.migrated).sum();
        let migrated_in: usize = rep.per_site.iter().map(|s| s.migrated_in).sum();
        prop_assert_eq!(migrated_out, migrated_in, "migration is not symmetric");
        // Failures only come from faults: front-door shedding plus
        // per-site dead ends, all bounded by the engine's lost count.
        let failed: usize = rep.per_site.iter().map(|s| s.failed).sum();
        prop_assert_eq!(failed + rep.unroutable, agg.lost);
    }

    /// A site crashed for the rest of the run receives zero deliveries
    /// after the crash: its per-function arrival count freezes at the
    /// crash instant (migrated orphans land only on the survivor).
    #[test]
    fn dead_sites_receive_nothing(
        seed in 0u64..500,
        crash_at in 2.0f64..25.0,
    ) {
        let chaos = ChaosConfig {
            events: vec![(crash_at, Fault::SiteDown { site: 0 })],
            ..ChaosConfig::default()
        };
        let rep = two_site_sim(seed, chaos);
        let dead = &rep.per_site[0];
        prop_assert!((dead.downtime_secs - (30.0 - crash_at)).abs() < 1e-6);
        // Everything the dead site ever saw arrived before the crash;
        // with a 20 req/s workload the pre-crash share is well under the
        // full-run total. The survivor took the rest plus the orphans.
        let dead_arrivals = dead.report.per_fn[&0].arrivals;
        let total = rep.aggregate_per_fn[0].arrivals;
        prop_assert!(dead_arrivals < total, "dead site kept absorbing traffic");
        let survivor = &rep.per_site[1];
        prop_assert_eq!(survivor.migrated_in, dead.migrated);
        prop_assert_eq!(survivor.downtime_secs, 0.0);
        // The dead site's monitor loop died with it: its rate timeline
        // has no points meaningfully past the crash instant.
        let last_tick = dead.report.per_fn[&0]
            .rate_timeline
            .points()
            .last()
            .map_or(0.0, |&(t, _)| t);
        prop_assert!(
            last_tick <= crash_at + 2.0 + 1e-9,
            "monitor tick at {last_tick} after crash at {crash_at}"
        );
    }
}

/// Chaos × routing interaction: under a stochastic MTBF/MTTR storm the
/// failure-aware router measurably cuts the requests that die with a
/// site (`failed`) compared to least-loaded, at a fixed seed.
///
/// Mechanism: least-loaded herds onto a just-recovered site the moment
/// it reports up (it is empty, hence maximally attractive); when that
/// site — or the last healthy peer — crashes again, everything
/// committed there dies. Failure-aware's downtime EWMA keeps the
/// recovering site browned out and re-admits it as a trickle, so far
/// fewer requests are exposed. The ordering is asserted, not exact
/// values; front-door shedding (`unroutable`) is router-independent
/// (all-dark windows) and must match between the two runs.
#[test]
fn failure_aware_routing_cuts_failures_under_chaos_storm() {
    let run = |kind: RouterKind| {
        let mut topology = Topology::new();
        topology.add_site("a", small_cluster(2), 0.002);
        topology.add_site("b", small_cluster(2), 0.008);
        topology.add_site("c", small_cluster(2), 0.015);
        let mut sim = FederatedSimulation::new(LassConfig::default(), topology, 7);
        sim.set_router(kind).set_federation(FederationConfig {
            migration_penalty: SimDuration::from_secs_f64(0.005),
            ..FederationConfig::default()
        });
        sim.set_chaos(ChaosConfig {
            site_mtbf_secs: Some(90.0),
            site_mttr_secs: 25.0,
            ..ChaosConfig::default()
        });
        sim.add_function(testbed_setup(45.0, 300.0, 2));
        sim.run(Some(300.0)).expect("runs")
    };
    let ll = run(RouterKind::LeastLoaded);
    let fa = run(RouterKind::FailureAware);

    // The storm actually bit, identically often (faults are drawn from
    // chaos streams independent of the router).
    let downtime = |rep: &lass::core::FederatedSimReport| -> f64 {
        rep.per_site.iter().map(|s| s.downtime_secs).sum()
    };
    assert!(downtime(&ll) > 0.0);
    assert_eq!(
        downtime(&ll),
        downtime(&fa),
        "fault schedule must not depend on router"
    );
    assert_eq!(
        ll.unroutable, fa.unroutable,
        "front-door shedding is router-independent"
    );

    let failed = |rep: &lass::core::FederatedSimReport| -> usize {
        rep.per_site.iter().map(|s| s.failed).sum()
    };
    let (ll_failed, fa_failed) = (failed(&ll), failed(&fa));
    assert!(
        ll_failed > 0,
        "seed must produce failures under least-loaded to compare against"
    );
    assert!(
        fa_failed * 2 < ll_failed,
        "failure-aware must cut failed requests: {fa_failed} vs {ll_failed}"
    );
    // A recently-crashed site ends the run with a worse health score
    // than one that stayed up longer — the signal the router acts on.
    assert!(fa.per_site.iter().any(|s| s.flakiness > 0.0));

    // Both runs still conserve every arrival.
    for rep in [&ll, &fa] {
        let agg = &rep.aggregate_per_fn[0];
        assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding
        );
    }
}

/// Run `lass-sweep` over a chaos grid and check the output table: the
/// grid is complete (one row per cell, in grid order) and rows are
/// deterministic per seed. The binary was previously only smoke-run.
#[test]
fn sweep_grid_is_complete_and_deterministic() {
    let spec = r#"{
        "base": {
            "seed": 1,
            "policy": "lass",
            "topology": {
                "router": "least-loaded",
                "sites": [
                    { "name": "a", "cluster": { "nodes": 1, "cpu_milli": 4000, "mem_mib": 16384 }, "latency_ms": 2 },
                    { "name": "b", "cluster": { "nodes": 1, "cpu_milli": 4000, "mem_mib": 16384 }, "latency_ms": 10 }
                ]
            },
            "functions": [
                {
                    "function": "micro_benchmark:100",
                    "slo_ms": 150,
                    "workload": { "Static": { "rate": 10.0, "duration": 30.0 } },
                    "initial_containers": 1
                }
            ]
        },
        "rate_scales": [1.0, 2.0],
        "chaos": [
            { "name": "baseline" },
            { "name": "crash-a", "events": [ { "at": 10.0, "kind": "site-down", "site": "a" } ] }
        ],
        "seeds": [5, 6]
    }"#;
    let dir = std::env::temp_dir();
    let spec_path = dir.join("lass-chaos-sweep-spec.json");
    std::fs::write(&spec_path, spec).expect("write spec");

    let run = |out: &std::path::Path| {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_lass-sweep"))
            .arg(&spec_path)
            .arg("--out")
            .arg(out)
            .status()
            .expect("lass-sweep runs");
        assert!(status.success(), "lass-sweep exited with {status}");
        std::fs::read_to_string(out).expect("table written")
    };
    let out_a = dir.join("lass-chaos-sweep-a.json");
    let out_b = dir.join("lass-chaos-sweep-b.json");
    let (table_a, table_b) = (run(&out_a), run(&out_b));
    assert_eq!(
        table_a, table_b,
        "sweep rows must be deterministic per seed"
    );

    let rows: serde_json::Value = serde_json::from_str(&table_a).expect("valid JSON table");
    let rows = rows.as_array().expect("array of rows");
    // 2 rate scales × 1 policy × 1 router(base) × 2 chaos × 2 seeds.
    assert_eq!(rows.len(), 8, "grid is incomplete");

    let num = |row: &serde_json::Value, key: &str| -> f64 {
        row.as_object()
            .expect("row object")
            .get(key)
            .unwrap_or_else(|| panic!("row missing {key}"))
            .as_f64()
            .unwrap_or_else(|| panic!("{key} is not a number"))
    };
    let mut seen = std::collections::BTreeSet::new();
    for row in rows {
        let scale = num(row, "rate_scale");
        let chaos = row
            .as_object()
            .unwrap()
            .get("chaos")
            .and_then(|v| v.as_str())
            .expect("chaos label")
            .to_owned();
        let seed = num(row, "seed") as u64;
        assert!(
            seen.insert((scale.to_bits(), chaos.clone(), seed)),
            "duplicate grid cell"
        );
        let arrivals = num(row, "arrivals");
        assert!(arrivals > 100.0, "cell barely ran: {arrivals} arrivals");
        // The crash profile migrates or fails work; the baseline must not.
        let (migrated, failed) = (num(row, "migrated"), num(row, "failed"));
        if chaos == "baseline" {
            assert_eq!((migrated, failed), (0.0, 0.0), "baseline rows saw faults");
        }
    }
    for (scale, chaos, seed) in [
        (1.0f64, "baseline", 5u64),
        (2.0, "crash-a", 6),
        (1.0, "crash-a", 5),
    ] {
        assert!(
            seen.contains(&(scale.to_bits(), chaos.to_owned(), seed)),
            "missing grid cell ({scale}, {chaos}, {seed})"
        );
    }
}
