//! Telemetry-propagation acceptance tests.
//!
//! The stale-telemetry layer routes on the last snapshot that *arrived*
//! at the front end rather than on live site state. Three contracts pin
//! it down:
//!
//! * **Oracle parity** — `report_interval_ms: 0` disables the layer and
//!   must reproduce the classic oracle-fresh engine byte-for-byte: same
//!   serialized report as a scenario with no `telemetry` block at all.
//! * **Fixed-seed golden** — the shipped `scenarios/stale-telemetry.json`
//!   (250 ms reports, 50 ms jitter, storm chaos, planner router) pins
//!   an FNV-64 hash of its full serialized report.
//! * **View discipline** — under arbitrary fault schedules and report
//!   intervals, no stale-view router may pick a site whose last-arrived
//!   snapshot (aged by the freshness window) marks it down; the
//!   federation's hot path `debug_assert`s exactly that, so driving it
//!   through random chaos in a debug-built test *is* the property
//!   check. Conservation must hold throughout, and parallel execution
//!   must stay byte-identical across worker-thread counts.

use lass::cluster::{Cluster, CpuMilli, MemMib, PlacementPolicy, Topology};
use lass::core::{FederatedSimulation, FunctionSetup, LassConfig};
use lass::functions::{micro_benchmark, WorkloadSpec};
use lass::scenario::{Scenario, ScenarioReport};
use lass::simcore::{
    ChaosConfig, Fault, FederationConfig, RouterKind, SimDuration, TelemetryConfig,
};
use proptest::prelude::*;

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn stale_scenario() -> Scenario {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/stale-telemetry.json"
    );
    let text = std::fs::read_to_string(path).expect("scenario file");
    Scenario::from_json(&text).expect("valid scenario")
}

fn run_federated(sc: &Scenario) -> lass::core::FederatedSimReport {
    let ScenarioReport::Federated(rep) = sc.run_report().expect("runs") else {
        panic!("expected a federated report");
    };
    rep
}

/// `report_interval_ms: 0` must be indistinguishable from never having
/// configured telemetry — the oracle-fresh hot path, byte-for-byte.
#[test]
fn interval_zero_reproduces_oracle_byte_for_byte() {
    let mut zeroed = stale_scenario();
    {
        let topo = zeroed.topology.as_mut().unwrap();
        topo.telemetry.report_interval_ms = 0.0;
        // Jitter is ignored (and validated away) when the interval is 0.
        topo.telemetry.jitter_ms = 0.0;
    }
    let mut absent = stale_scenario();
    absent.topology.as_mut().unwrap().telemetry = Default::default();

    let a = serde_json::to_string(&run_federated(&zeroed)).unwrap();
    let b = serde_json::to_string(&run_federated(&absent)).unwrap();
    assert_eq!(a, b, "interval-0 run drifted from the oracle engine");
}

/// Fixed-seed golden for the shipped staleness scenario. Telemetry
/// publish schedules, propagation delays, partition losses, passive
/// bounce detection — everything must replay bit-for-bit. If a
/// deliberate change invalidates this, re-record and say so in the
/// commit message.
#[test]
fn stale_telemetry_scenario_matches_pinned_golden() {
    let sc = stale_scenario();
    let rep = run_federated(&sc);
    assert_eq!(rep.router, "planner");
    let json = serde_json::to_string(&rep).unwrap();
    assert_eq!(
        fnv64(&json),
        ROUTED_GOLDEN.0,
        "stale-telemetry golden drifted: routed = {:?}",
        rep.per_site.iter().map(|s| s.routed).collect::<Vec<_>>()
    );
    assert_eq!(
        (
            rep.per_site[0].routed,
            rep.per_site[1].routed,
            rep.per_site[2].routed
        ),
        (ROUTED_GOLDEN.1, ROUTED_GOLDEN.2, ROUTED_GOLDEN.3)
    );
    // And it replays byte-for-byte.
    assert_eq!(json, serde_json::to_string(&run_federated(&sc)).unwrap());
}

/// `(fnv64 of the serialized report, routed per site)` for
/// `scenarios/stale-telemetry.json` at seed 31.
const ROUTED_GOLDEN: (u64, usize, usize, usize) = (8401110694223742243, 3296, 5813, 2134);

fn small_cluster(nodes: u32) -> Cluster {
    Cluster::homogeneous(
        nodes,
        CpuMilli(4000),
        MemMib(16 * 1024),
        PlacementPolicy::BestFit,
    )
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

fn telemetry(interval_ms: f64, jitter_ms: f64) -> TelemetryConfig {
    TelemetryConfig {
        report_interval: SimDuration::from_secs_f64(interval_ms / 1e3),
        jitter: SimDuration::from_secs_f64(jitter_ms / 1e3),
        loss_under_partition: true,
        loss_prob: 0.0,
    }
}

fn stale_sim(
    seed: u64,
    router: RouterKind,
    interval_ms: f64,
    chaos: ChaosConfig,
    parallel: Option<usize>,
) -> lass::core::FederatedSimReport {
    let mut topology = Topology::new();
    topology.add_site("a", small_cluster(1), 0.003);
    topology.add_site("b", small_cluster(2), 0.010);
    topology.add_site("c", small_cluster(1), 0.025);
    let mut sim = FederatedSimulation::new(LassConfig::default(), topology, seed);
    sim.set_router(router)
        .set_federation(FederationConfig {
            telemetry: telemetry(interval_ms, interval_ms / 4.0),
            ..FederationConfig::default()
        })
        .set_chaos(chaos)
        .set_parallel(parallel);
    sim.add_function(testbed_setup(25.0, 30.0, 1));
    sim.run(Some(30.0)).expect("runs")
}

proptest! {
    // Every case runs a real federated simulation; keep the count
    // modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Stale-view routing under arbitrary fault schedules, across every
    /// shipped router and a spread of report intervals. The federation
    /// `debug_assert`s that no router ever picks a site whose
    /// last-arrived snapshot marks it down (this test binary is built
    /// with debug assertions, so a violation panics the case), and the
    /// "exactly one fate" conservation invariant must survive stale
    /// views: routing on old data may be *slow*, it must never leak or
    /// invent requests.
    #[test]
    fn stale_routers_respect_views_and_conserve(
        seed in 0u64..500,
        router_idx in 0..RouterKind::ALL.len(),
        interval_ms in prop_oneof![Just(50.0f64), Just(250.0), Just(1000.0), Just(4000.0)],
        schedule in prop::collection::vec(
            (1.0f64..28.0, 0u8..5, 0u32..3, 1u32..4),
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
                    _ => Fault::ContainerBurst { site, count },
                };
                (at, fault)
            })
            .collect();
        let chaos = ChaosConfig { events, ..ChaosConfig::default() };
        let rep = stale_sim(seed, RouterKind::ALL[router_idx], interval_ms, chaos, None);

        let agg = &rep.aggregate_per_fn[0];
        prop_assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding,
            "conservation broke under stale telemetry"
        );
        let migrated_out: usize = rep.per_site.iter().map(|s| s.migrated).sum();
        let migrated_in: usize = rep.per_site.iter().map(|s| s.migrated_in).sum();
        prop_assert_eq!(migrated_out, migrated_in, "migration is not symmetric");
    }
}

/// With a nonzero report interval the parallel executor must stay
/// byte-identical across worker-thread counts: publish schedules are
/// drawn from site-labelled streams and telemetry events cross the
/// window barrier as ordinary calendar traffic, so the thread count
/// cannot reorder them.
#[test]
fn parallel_stale_telemetry_is_thread_count_invariant() {
    let chaos = ChaosConfig {
        events: vec![
            (8.0, Fault::SiteDown { site: 1 }),
            (14.0, Fault::SiteUp { site: 1 }),
            (18.0, Fault::PartitionStart { site: 2 }),
            (24.0, Fault::PartitionEnd { site: 2 }),
        ],
        ..ChaosConfig::default()
    };
    let run = |threads: usize| {
        serde_json::to_string(&stale_sim(
            7,
            RouterKind::Planner,
            250.0,
            chaos.clone(),
            Some(threads),
        ))
        .unwrap()
    };
    let a = run(1);
    let b = run(2);
    let c = run(3);
    assert_eq!(a, b, "parallel stale run drifted between 1 and 2 threads");
    assert_eq!(b, c, "parallel stale run drifted between 2 and 3 threads");
}
