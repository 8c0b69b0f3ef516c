//! Hedged-request integration tests.
//!
//! Three families:
//!
//! * **First-response-wins accounting** — with immediate hedging every
//!   resolved race dispatches clones and cancels exactly the losers;
//!   wasted work (a cancel landing after service start) is bounded by
//!   the cancellations it is a subset of.
//! * **Inert-hedge transparency** — an armed hedge whose deferred
//!   trigger lies beyond the horizon reproduces the unhedged run
//!   byte-for-byte, the library-level twin of the CI scenario diff.
//! * **Conservation under chaos** (property test) — the "exactly one
//!   fate" identity holds with hedging enabled under random site
//!   crash/partition/burst storms: clones never inflate the logical
//!   arrival count, and every dispatched clone either wins, is
//!   cancelled, or dies with its site before the race resolves.
//!
//! The last three tests run `scenarios/hedge-tail.json` on the
//! sequential and windowed drivers: wasted work, the race ledger's drain
//! audit under a retry and a waste budget, and SLO attainment and p95
//! response.

use lass::cluster::{Cluster, CpuMilli, MemMib, PlacementPolicy, Topology};
use lass::core::{FederatedSimReport, FederatedSimulation, FunctionSetup, LassConfig};
use lass::functions::{micro_benchmark, WorkloadSpec};
use lass::simcore::{
    ChaosConfig, Fault, FederationConfig, HedgeConfig, HedgeTrigger, RouterKind, SampleStats,
};
use proptest::prelude::*;

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

fn three_site_sim(
    seed: u64,
    hedge: Option<HedgeConfig>,
    chaos: Option<ChaosConfig>,
) -> lass::core::FederatedSimReport {
    let mut topology = Topology::new();
    topology.add_site("a", small_cluster(2), 0.002);
    topology.add_site("b", small_cluster(2), 0.010);
    topology.add_site("c", small_cluster(2), 0.030);
    let mut sim = FederatedSimulation::new(LassConfig::default(), topology, seed);
    sim.set_router(RouterKind::LeastLoaded)
        .set_federation(FederationConfig {
            hedge,
            ..FederationConfig::default()
        });
    if let Some(c) = chaos {
        sim.set_chaos(c);
    }
    sim.add_function(testbed_setup(25.0, 30.0, 1));
    sim.run(Some(30.0)).expect("runs")
}

/// Immediate hedging on a healthy topology: every race resolves inside
/// the drain, so the clone ledger closes — one cancellation per clone
/// (the winner is whichever copy answers first), wasted work only ever
/// a subset of those cancellations, and the logical ledger (arrivals,
/// completions) stays clone-free.
#[test]
fn first_response_wins_closes_the_clone_ledger() {
    let hedged = three_site_sim(
        11,
        Some(HedgeConfig {
            trigger: HedgeTrigger::Immediate,
            max_clones: 1,
            retry_after_ms: 0.0,
            waste_budget: 0.0,
        }),
        None,
    );
    let agg = &hedged.aggregate_per_fn[0];
    assert!(agg.hedged > 100, "hedging never fired: {}", agg.hedged);
    assert_eq!(
        agg.cancelled, agg.hedged,
        "every resolved race cancels exactly its losers"
    );
    assert_eq!(
        agg.arrivals,
        agg.completed + agg.lost + agg.timeouts + hedged.outstanding,
        "clones leaked into the logical ledger"
    );
    let wasted: usize = hedged.per_site.iter().map(|s| s.wasted_work).sum();
    assert!(
        wasted <= agg.cancelled,
        "wasted work ({wasted}) exceeds cancellations ({})",
        agg.cancelled
    );

    // The unhedged twin dispatches nothing and reports all-zero tallies.
    let plain = three_site_sim(11, None, None);
    let pagg = &plain.aggregate_per_fn[0];
    assert_eq!((pagg.hedged, pagg.cancelled), (0, 0));
    assert_eq!(pagg.arrivals, agg.arrivals, "workload must match");
}

/// A deferred trigger only clones requests the primary has not answered
/// in time: with the deferral comfortably above the typical response,
/// far fewer clones fire than under immediate hedging.
#[test]
fn deferred_trigger_hedges_only_the_slow_tail() {
    let immediate = three_site_sim(
        11,
        Some(HedgeConfig {
            trigger: HedgeTrigger::Immediate,
            max_clones: 1,
            retry_after_ms: 0.0,
            waste_budget: 0.0,
        }),
        None,
    );
    let deferred = three_site_sim(
        11,
        Some(HedgeConfig {
            trigger: HedgeTrigger::DeferredMs(400.0),
            max_clones: 1,
            retry_after_ms: 0.0,
            waste_budget: 0.0,
        }),
        None,
    );
    let (i, d) = (
        &immediate.aggregate_per_fn[0],
        &deferred.aggregate_per_fn[0],
    );
    assert!(
        d.hedged * 4 < i.hedged,
        "a 400 ms deferral should spare most requests: {} vs {}",
        d.hedged,
        i.hedged
    );
    assert_eq!(
        d.arrivals,
        d.completed + d.lost + d.timeouts + deferred.outstanding
    );
}

/// An armed hedge that can never fire inside the horizon must reproduce
/// the unhedged run byte-for-byte: arming the machinery alone may not
/// perturb RNG streams, the calendar, or the report.
#[test]
fn inert_hedge_reproduces_unhedged_run_byte_for_byte() {
    let unhedged = three_site_sim(13, None, None);
    let inert = three_site_sim(
        13,
        Some(HedgeConfig {
            trigger: HedgeTrigger::DeferredMs(10_000_000.0),
            max_clones: 1,
            retry_after_ms: 0.0,
            waste_budget: 0.0,
        }),
        None,
    );
    assert_eq!(
        serde_json::to_string(&unhedged).unwrap(),
        serde_json::to_string(&inert).unwrap(),
        "an inert hedge drifted from the unhedged run"
    );
}

/// Speculative retry supersedes the trigger: when `retry_after_ms` is
/// set, the configured trigger is irrelevant — two configs differing
/// only in trigger produce byte-identical runs — and the retries both
/// fire and keep the ledger closed.
#[test]
fn speculative_retry_supersedes_trigger_and_conserves() {
    let retry = |trigger: HedgeTrigger| {
        three_site_sim(
            11,
            Some(HedgeConfig {
                trigger,
                max_clones: 1,
                retry_after_ms: 40.0,
                waste_budget: 0.0,
            }),
            None,
        )
    };
    let a = retry(HedgeTrigger::Immediate);
    let b = retry(HedgeTrigger::DeferredMs(400.0));
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "retry_after_ms must supersede the trigger"
    );
    let agg = &a.aggregate_per_fn[0];
    assert!(agg.hedged > 0, "40 ms retries never fired");
    assert!(
        agg.hedged < agg.arrivals,
        "a 40 ms deferral must spare the fast majority"
    );
    assert_eq!(
        agg.arrivals,
        agg.completed + agg.lost + agg.timeouts + a.outstanding
    );
}

/// The waste budget is a real admission bound: a 10 % budget admits
/// strictly fewer clones than the unbudgeted twin, still hedges at all,
/// and the run-long waste ratio honors `wasted < budget × finished`.
#[test]
fn waste_budget_caps_cloning() {
    let run = |waste_budget: f64| {
        three_site_sim(
            11,
            Some(HedgeConfig {
                trigger: HedgeTrigger::Immediate,
                max_clones: 1,
                retry_after_ms: 0.0,
                waste_budget,
            }),
            None,
        )
    };
    let open = run(0.0);
    let capped = run(0.1);
    let (o, c) = (&open.aggregate_per_fn[0], &capped.aggregate_per_fn[0]);
    assert!(c.hedged > 0, "the budget must admit some clones");
    assert!(
        c.hedged * 2 < o.hedged,
        "a 10 % budget barely bit: {} vs {}",
        c.hedged,
        o.hedged
    );
    // The admission predicate (wasted < budget × (completed + wasted))
    // held at every admission, so the final ledger can exceed the line
    // by at most the clones admitted right at it.
    let wasted: usize = capped.per_site.iter().map(|s| s.wasted_work).sum();
    assert!(
        (wasted as f64) <= 0.1 * ((c.completed + wasted) as f64) + c.hedged as f64 * 0.01 + 1.0,
        "waste ratio blown: {wasted} wasted vs {} completed",
        c.completed
    );
    assert_eq!(
        c.arrivals,
        c.completed + c.lost + c.timeouts + capped.outstanding
    );
}

/// Regression pin on the committed sweep artifact: the 0.8×-load rows
/// of `results/sweep-hedging-table.json` carry the speculative-retry
/// and waste-budget variants, and the budgeted rows admit strictly
/// fewer clones than their unbudgeted twins at every seed.
#[test]
fn sweep_table_pins_retry_and_waste_rows_at_high_load() {
    let path = format!(
        "{}/results/sweep-hedging-table.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("committed sweep table");
    let rows: serde_json::Value = serde_json::from_str(&text).expect("valid JSON table");
    let rows = rows.as_array().expect("array of rows");

    let cell = |hedge: &str, seed: u64| -> &serde_json::Map {
        rows.iter()
            .map(|r| r.as_object().expect("row object"))
            .find(|r| {
                r["hedge"].as_str() == Some(hedge)
                    && r["seed"].as_f64() == Some(seed as f64)
                    && r["rate_scale"].as_f64() == Some(0.8)
            })
            .unwrap_or_else(|| panic!("missing 0.8×-load row ({hedge}, seed {seed})"))
    };
    for seed in [7u64, 8, 9] {
        let retry = cell("retry-40ms x1", seed);
        assert!(
            retry["hedged"].as_f64().unwrap() > 0.0,
            "retry row never hedged (seed {seed})"
        );
        let open = cell("immediate x1", seed);
        let capped = cell("immediate x1 w0.1", seed);
        let (oh, ch) = (
            open["hedged"].as_f64().unwrap(),
            capped["hedged"].as_f64().unwrap(),
        );
        assert!(ch > 0.0, "budgeted row never hedged (seed {seed})");
        assert!(
            ch < oh,
            "waste budget did not bite at seed {seed}: {ch} vs {oh}"
        );
    }
}

proptest! {
    // Every case runs a real federated simulation; keep the count
    // modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation under a chaos storm with hedging enabled, with or
    /// without a speculative retry: the logical ledger stays clone-free
    /// (arrivals = completed + lost + timeouts + outstanding),
    /// cancellations never exceed dispatched clones (the shortfall is
    /// clones that died with their site or were still racing at the
    /// horizon), wasted work stays within the cancellations it is a
    /// subset of, and migration stays symmetric. Debug builds also
    /// audit the race ledger and every site's hedge marks at the end
    /// of each run, so a copy that crashes or migrates mid-retry and
    /// leaks its books fails here.
    #[test]
    fn hedged_arrivals_are_conserved_under_random_faults(
        seed in 0u64..500,
        max_clones in 1u32..3,
        trigger_pick in 0u8..3,
        retry_pick in 0u8..2,
        schedule in prop::collection::vec(
            (1.0f64..28.0, 0u8..5, 0u32..3, 1u32..4),
            0..8,
        ),
    ) {
        let trigger = match trigger_pick {
            0 => HedgeTrigger::Immediate,
            1 => HedgeTrigger::DeferredMs(25.0),
            _ => HedgeTrigger::PredictedP95OverSlo,
        };
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
        let rep = three_site_sim(
            seed,
            Some(HedgeConfig {
                trigger,
                max_clones,
                retry_after_ms: f64::from(retry_pick) * 40.0,
                waste_budget: 0.0,
            }),
            Some(chaos),
        );

        let agg = &rep.aggregate_per_fn[0];
        prop_assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding,
            "conservation broke with hedging on"
        );
        prop_assert!(
            agg.cancelled <= agg.hedged,
            "more cancellations ({}) than clones ({})",
            agg.cancelled,
            agg.hedged
        );
        let wasted: usize = rep.per_site.iter().map(|s| s.wasted_work).sum();
        prop_assert!(wasted <= agg.cancelled);
        let migrated_out: usize = rep.per_site.iter().map(|s| s.migrated).sum();
        let migrated_in: usize = rep.per_site.iter().map(|s| s.migrated_in).sum();
        prop_assert_eq!(migrated_out, migrated_in, "migration is not symmetric");
    }
}

/// A retry abandons its primary, but the site's scheduler may still run
/// that copy after the cancel released it from the books, and a site
/// books one copy of a request. So a retried request never migrates
/// back to the site it abandoned: here sites a and c crash and b is cut
/// off, and a retry clone that would move onto its abandoned site fails
/// instead. Were it sent there, a completion of either copy at b would
/// settle the other's books and the run would cancel more copies than
/// it ever cloned.
#[test]
fn a_retried_request_never_migrates_back_to_the_site_it_abandoned() {
    let chaos = ChaosConfig {
        events: vec![
            (3.4, Fault::SiteDown { site: 0 }),
            (7.4, Fault::SiteDown { site: 2 }),
            (8.0, Fault::PartitionStart { site: 1 }),
            (20.4, Fault::PartitionEnd { site: 1 }),
        ],
        ..ChaosConfig::default()
    };
    let rep = three_site_sim(
        360,
        Some(HedgeConfig {
            trigger: HedgeTrigger::Immediate,
            max_clones: 2,
            retry_after_ms: 40.0,
            waste_budget: 0.0,
        }),
        Some(chaos),
    );
    let agg = &rep.aggregate_per_fn[0];
    assert!(agg.hedged > 100, "the retry never fired: {}", agg.hedged);
    assert!(
        agg.cancelled <= agg.hedged,
        "more cancellations ({}) than clones ({})",
        agg.cancelled,
        agg.hedged
    );
    assert_eq!(
        agg.arrivals,
        agg.completed + agg.lost + agg.timeouts + rep.outstanding
    );
}

/// `scenarios/hedge-tail.json` at `seed` (the file's own seed if `None`)
/// on the sequential driver (`parallel: None`) or the windowed one, with
/// `hedge` in place of the file's hedge block when given.
fn hedge_tail(
    seed: Option<u64>,
    parallel: Option<usize>,
    hedge: Option<HedgeConfig>,
) -> FederatedSimReport {
    let text = std::fs::read_to_string("scenarios/hedge-tail.json").expect("read scenario");
    let mut sc = lass::scenario::Scenario::from_json(&text).expect("valid scenario");
    if let Some(seed) = seed {
        sc.seed = seed;
    }
    let topology = sc.topology.as_mut().expect("topology");
    topology.parallel_sites = parallel;
    if hedge.is_some() {
        topology.hedge = hedge;
    }
    match sc.run_report().expect("runs") {
        lass::scenario::ScenarioReport::Federated(rep) => rep,
        _ => panic!("hedge-tail is federated"),
    }
}

/// The parallel executor counts wasted work like the sequential driver:
/// a hedge loser whose cancel lands after it started service still runs
/// to the end, and that completion is wasted — not silently dropped. On
/// the hedge-tail scenario the two drivers' totals agree within 10 %.
#[test]
fn parallel_counts_wasted_work_like_sequential() {
    let wasted = |parallel| hedge_tail(None, parallel, None).wasted_work;
    let (seq, par) = (wasted(None), wasted(Some(2)));
    assert!(seq > 1000, "sequential run wasted only {seq}");
    let gap = (par as f64 - seq as f64).abs() / seq as f64;
    assert!(
        gap <= 0.10,
        "parallel wasted {par} vs sequential {seq} ({:.0} % apart)",
        gap * 100.0
    );
}

/// The front end's race ledger drains on both drivers under a
/// speculative retry (one and two replacements) and under a waste
/// budget: its end-of-run audit (debug builds) finds no resolved race
/// owing a loser the sites no longer hold, and no more unresolved races
/// than outstanding requests. The logical ledger stays clone-free as
/// well: with two replacements, the race must outlive the abandoned
/// primary's cancel, or the second replacement's answer is counted as a
/// second completion.
#[test]
fn race_ledger_drains_under_retry_and_waste_budget_on_both_drivers() {
    let retry = HedgeConfig {
        retry_after_ms: 40.0,
        ..HedgeConfig::default()
    };
    let retry_two = HedgeConfig {
        max_clones: 2,
        ..retry
    };
    let budget = HedgeConfig {
        waste_budget: 0.1,
        ..HedgeConfig::default()
    };
    for hedge in [retry, retry_two, budget] {
        for parallel in [None, Some(2)] {
            let rep = hedge_tail(None, parallel, Some(hedge));
            let (mut arrivals, mut finished, mut hedged) = (0, 0, 0);
            for f in &rep.aggregate_per_fn {
                arrivals += f.arrivals;
                finished += f.completed + f.lost + f.timeouts;
                hedged += f.hedged;
            }
            assert!(hedged > 0, "{hedge:?} on {parallel:?} never hedged");
            assert_eq!(
                arrivals,
                finished + rep.outstanding,
                "{hedge:?} on {parallel:?} broke conservation"
            );
        }
    }
}

/// Aggregate SLO attainment (`1 − violations / finished`) and pooled p95
/// response time in seconds over every function.
fn attainment_and_p95(rep: &FederatedSimReport) -> (f64, f64) {
    let (mut violations, mut finished) = (0, 0);
    let mut responses = SampleStats::new();
    for f in &rep.aggregate_per_fn {
        violations += f.slo_violations;
        finished += f.completed + f.timeouts;
        for &r in f.response.samples() {
            responses.record(r);
        }
    }
    let attainment = 1.0 - violations as f64 / finished as f64;
    (attainment, responses.percentile(0.95).expect("completions"))
}

/// Driver agreement: the windowed driver is not byte-equal to the
/// sequential one by design (per-site service streams, window-stale
/// telemetry, same-instant merge order), so on one seed the two runs are
/// different realizations of the same system. Measured over seeds 1–12
/// with the scenario's planner router, the per-seed gap (parallel minus
/// sequential) has mean +0.007 and standard deviation 0.053 in
/// attainment, and mean +0.045 and standard deviation 0.16 in ln(p95
/// response); it takes both signs. The drivers agree in distribution,
/// not per seed, so the test compares the mean gap over seeds 1–3 with
/// a bound of about three standard errors of that mean. The bounds were
/// set from the spread under the scenario's earlier router (standard
/// deviations 0.043 and 0.33): 3 · 0.043 / √3 ≈ 0.075 and
/// 3 · 0.33 / √3 ≈ 0.57. Today's spread gives 3 · 0.053 / √3 ≈ 0.092
/// and 3 · 0.16 / √3 ≈ 0.28, so the attainment bound is now tighter
/// than three standard errors and the ln(p95) bound looser. Seeds 1–3
/// measure +0.030 and −0.017.
#[test]
fn sequential_and_parallel_drivers_agree_on_hedge_tail() {
    const ATTAINMENT_TOLERANCE: f64 = 0.075;
    const LN_P95_TOLERANCE: f64 = 0.57;
    let seeds = [1, 2, 3];
    let (mut attainment_gap, mut ln_p95_gap) = (0.0, 0.0);
    for seed in seeds {
        let (seq_att, seq_p95) = attainment_and_p95(&hedge_tail(Some(seed), None, None));
        let (par_att, par_p95) = attainment_and_p95(&hedge_tail(Some(seed), Some(2), None));
        attainment_gap += (par_att - seq_att) / seeds.len() as f64;
        ln_p95_gap += (par_p95 / seq_p95).ln() / seeds.len() as f64;
    }
    assert!(
        attainment_gap.abs() <= ATTAINMENT_TOLERANCE,
        "mean attainment gap {attainment_gap:+.4} over seeds {seeds:?}"
    );
    assert!(
        ln_p95_gap.abs() <= LN_P95_TOLERANCE,
        "mean ln(p95 response) gap {ln_p95_gap:+.3} over seeds {seeds:?}"
    );
}
