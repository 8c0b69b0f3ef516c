//! `lass-sweep` — fan a scenario grid across worker threads and emit
//! one JSON table.
//!
//! Takes a sweep spec: a base scenario plus the grid axes to vary —
//! rate multipliers, scheduling policies, front-end routers (for
//! federated scenarios), chaos profiles, and seeds. Every combination
//! is an independent simulation; they run in parallel on the rayon
//! thread pool and the collected rows (one summary per run, in grid
//! order) are printed as a JSON array on stdout.
//!
//! ```sh
//! cargo run --release --bin lass-sweep -- scenarios/sweep-demo.json [--out table.json]
//! ```
//!
//! Spec format (every axis optional; omitted axes keep the base
//! scenario's setting):
//!
//! ```json
//! {
//!     "scenario": "scenarios/demo.json",
//!     "rate_scales": [0.5, 1.0, 2.0],
//!     "policies": ["lass", "static-rr", "knative"],
//!     "routers": ["round-robin", "latency-aware"],
//!     "chaos": [
//!         { "name": "baseline" },
//!         { "name": "crash", "events": [ { "at": 60.0, "kind": "site-down", "site": "edge" } ] }
//!     ],
//!     "report_intervals_ms": [0, 250, 1000],
//!     "seeds": [42, 43, 44]
//! }
//! ```
//!
//! The `report_intervals_ms` axis sweeps telemetry staleness: each value
//! replaces `topology.telemetry.report_interval_ms`, so the same grid
//! cell runs once with oracle-fresh routing (`0`) and once per
//! propagation delay — the decay curve of router advantage vs staleness
//! falls straight out of the table.

use lass::scenario::{ChaosSpec, Scenario, ScenarioPolicy, ScenarioReport};
use lass_simcore::{HedgeConfig, HedgeTrigger, RouterKind, SampleStats};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The sweep specification. Unknown keys are rejected, so a misspelt
/// axis fails loudly instead of silently running the base scenario.
#[derive(Debug, Deserialize)]
#[serde(deny_unknown_fields)]
struct SweepSpec {
    /// Path to the base scenario JSON (relative to the cwd). Exactly one
    /// of `scenario` / `base` must be given.
    #[serde(default)]
    scenario: Option<String>,
    /// Inline base scenario.
    #[serde(default)]
    base: Option<Scenario>,
    /// Rate multipliers applied to every function's workload.
    #[serde(default)]
    rate_scales: Option<Vec<f64>>,
    /// Scheduling policies to run.
    #[serde(default)]
    policies: Option<Vec<ScenarioPolicy>>,
    /// Front-end routers (requires a `topology` in the base scenario).
    #[serde(default)]
    routers: Option<Vec<RouterKind>>,
    /// Chaos profiles (requires a `topology` in the base scenario).
    /// Each profile replaces the base scenario's `chaos` block; an empty
    /// profile (`{ "name": "baseline" }`) is the fault-free control.
    #[serde(default)]
    chaos: Option<Vec<ChaosSpec>>,
    /// Telemetry report intervals (milliseconds) to sweep; each value
    /// overwrites `topology.telemetry.report_interval_ms` (requires a
    /// `topology` in the base scenario). `0` is the oracle-fresh
    /// control.
    #[serde(default)]
    report_intervals_ms: Option<Vec<f64>>,
    /// Hedging configurations to sweep (requires a `topology` in the
    /// base scenario). Each entry replaces `topology.hedge`; `null` is
    /// the single-dispatch control. Example:
    /// `[null, {"trigger": "immediate", "max_clones": 1},
    ///   {"trigger": {"deferred_ms": 50}, "max_clones": 1}]`.
    #[serde(default)]
    hedges: Option<Vec<Option<HedgeConfig>>>,
    /// RNG seeds.
    #[serde(default)]
    seeds: Option<Vec<u64>>,
    /// Override the topology's `parallel_sites` knob for every cell
    /// (requires a `topology` in the base scenario): run each federated
    /// cell on this many threads, the cell's own thread included, via
    /// the conservative parallel executor. Cells still run concurrently on the rayon pool, so
    /// prefer this only when sweeping a few large scenarios.
    #[serde(default)]
    parallel_sites: Option<usize>,
}

/// One row of the output table: the grid point plus run summary
/// statistics aggregated over every function.
#[derive(Debug, Serialize)]
struct SweepRow {
    policy: String,
    router: Option<String>,
    chaos: Option<String>,
    /// Grid point on the staleness axis; `None` when the sweep spec has
    /// no `report_intervals_ms` axis (the base scenario's telemetry
    /// block, if any, applies unchanged).
    report_interval_ms: Option<f64>,
    /// Grid point on the hedging axis (`"off"`, `"immediate x2"`, ...);
    /// `None` when the sweep spec has no `hedges` axis.
    hedge: Option<String>,
    rate_scale: f64,
    seed: u64,
    /// Worker threads the cell actually ran on, as recorded by the
    /// engine (1 = sequential, including parallel requests that fell
    /// back or were clamped to the site count).
    threads: usize,
    arrivals: usize,
    completed: usize,
    lost: usize,
    timeouts: usize,
    slo_violations: usize,
    migrated: usize,
    failed: usize,
    /// Hedge clones dispatched (0 with hedging off).
    hedged: usize,
    /// Hedge clones cancelled after a sibling won.
    cancelled: usize,
    /// Clones whose site finished the work after the race was already
    /// decided — the honest cost column of the hedging tail table.
    wasted_work: usize,
    /// End-of-run cpu allocation fraction, maximum across sites; `null`
    /// for a single-cluster run, which has no sites.
    util_cpu: Option<f64>,
    /// End-of-run memory allocation fraction, maximum across sites.
    util_mem: Option<f64>,
    /// End-of-run bandwidth allocation fraction, maximum across sites.
    util_bw: Option<f64>,
    slo_attainment: f64,
    mean_wait_ms: f64,
    p95_wait_ms: f64,
    p99_wait_ms: f64,
    p95_response_ms: f64,
    p99_response_ms: f64,
    duration_secs: f64,
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: lass-sweep <sweep.json> [--out <table.json>]");
        std::process::exit(2);
    };
    let out_path = match (args.next().as_deref(), args.next()) {
        (Some("--out"), Some(p)) => Some(p),
        (None, _) => None,
        _ => {
            eprintln!("usage: lass-sweep <sweep.json> [--out <table.json>]");
            std::process::exit(2);
        }
    };

    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("reading {path}: {e}")));
    let spec: SweepSpec =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("sweep spec: {e}")));

    let base: Scenario = match (&spec.base, &spec.scenario) {
        (Some(base), None) => base.clone(),
        (None, Some(p)) => {
            let text =
                std::fs::read_to_string(p).unwrap_or_else(|e| fail(format!("reading {p}: {e}")));
            Scenario::from_json(&text).unwrap_or_else(|e| fail(e))
        }
        _ => fail("sweep spec needs exactly one of \"scenario\" (path) or \"base\" (inline)"),
    };

    let scales = spec.rate_scales.unwrap_or_else(|| vec![1.0]);
    let policies = spec.policies.unwrap_or_else(|| vec![base.policy]);
    let seeds = spec.seeds.unwrap_or_else(|| vec![base.seed]);
    let routers: Vec<Option<RouterKind>> = match spec.routers {
        Some(list) => {
            if base.topology.is_none() {
                fail("\"routers\" requires the base scenario to have a \"topology\" block");
            }
            list.into_iter().map(Some).collect()
        }
        None => vec![None],
    };
    if spec.parallel_sites.is_some() && base.topology.is_none() {
        fail("\"parallel_sites\" requires the base scenario to have a \"topology\" block");
    }
    let chaos_profiles: Vec<Option<ChaosSpec>> = match spec.chaos {
        Some(list) => {
            if base.topology.is_none() {
                fail("\"chaos\" requires the base scenario to have a \"topology\" block");
            }
            list.into_iter().map(Some).collect()
        }
        None => vec![None],
    };
    let report_intervals: Vec<Option<f64>> = match spec.report_intervals_ms {
        Some(list) => {
            if base.topology.is_none() {
                fail("\"report_intervals_ms\" requires the base scenario to have a \"topology\" block");
            }
            list.into_iter().map(Some).collect()
        }
        None => vec![None],
    };
    let hedges: Vec<Option<Option<HedgeConfig>>> = match spec.hedges {
        Some(list) => {
            if base.topology.is_none() {
                fail("\"hedges\" requires the base scenario to have a \"topology\" block");
            }
            list.into_iter().map(Some).collect()
        }
        None => vec![None],
    };

    // Build the full grid up front; each cell is an independent scenario.
    let mut grid: Vec<(Scenario, SweepRowKey)> = Vec::new();
    for &scale in &scales {
        for &policy in &policies {
            for &router in &routers {
                for chaos in &chaos_profiles {
                    for &interval in &report_intervals {
                        for &hedge in &hedges {
                            for &seed in &seeds {
                                let mut sc = base.clone();
                                sc.seed = seed;
                                sc.policy = policy;
                                for f in &mut sc.functions {
                                    f.workload = f.workload.scale_rate(scale);
                                }
                                if let (Some(r), Some(topo)) = (router, sc.topology.as_mut()) {
                                    topo.router = r;
                                }
                                if let (Some(n), Some(topo)) =
                                    (spec.parallel_sites, sc.topology.as_mut())
                                {
                                    topo.parallel_sites = Some(n);
                                }
                                if let (Some(ms), Some(topo)) = (interval, sc.topology.as_mut()) {
                                    topo.telemetry.report_interval_ms = ms;
                                }
                                if let (Some(h), Some(topo)) = (hedge, sc.topology.as_mut()) {
                                    topo.hedge = h;
                                }
                                if let Some(profile) = chaos {
                                    sc.chaos = Some(profile.clone());
                                }
                                grid.push((
                                    sc,
                                    SweepRowKey {
                                        policy,
                                        router,
                                        chaos: chaos.as_ref().map(ChaosSpec::label),
                                        report_interval_ms: interval,
                                        hedge: hedge.map(|h| hedge_label(&h)),
                                        rate_scale: scale,
                                        seed,
                                    },
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    eprintln!("sweep: {} runs across the grid", grid.len());

    let rows: Vec<SweepRow> = grid
        .into_par_iter()
        .map(|(sc, key)| run_cell(&sc, &key).unwrap_or_else(|e| fail(e)))
        .collect();

    let json = serde_json::to_string_pretty(&rows).expect("serializable");
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).unwrap_or_else(|e| fail(format!("writing {p}: {e}")));
            eprintln!("(wrote {p})");
        }
        None => println!("{json}"),
    }
}

#[derive(Clone)]
struct SweepRowKey {
    policy: ScenarioPolicy,
    router: Option<RouterKind>,
    chaos: Option<String>,
    report_interval_ms: Option<f64>,
    hedge: Option<String>,
    rate_scale: f64,
    seed: u64,
}

/// Human-readable grid label for a hedging axis entry.
fn hedge_label(h: &Option<HedgeConfig>) -> String {
    match h {
        None => "off".into(),
        Some(cfg) => {
            // A speculative-retry deadline supersedes the clone trigger.
            let trigger = if cfg.retry_after_ms > 0.0 {
                format!("retry-{}ms", cfg.retry_after_ms)
            } else {
                match cfg.trigger {
                    HedgeTrigger::Immediate => "immediate".to_string(),
                    HedgeTrigger::DeferredMs(ms) => format!("deferred-{ms}ms"),
                    HedgeTrigger::PredictedP95OverSlo => "p95-over-slo".to_string(),
                }
            };
            let mut label = format!("{trigger} x{}", cfg.max_clones);
            if cfg.waste_budget > 0.0 {
                label.push_str(&format!(" w{}", cfg.waste_budget));
            }
            label
        }
    }
}

/// Run one grid cell and summarize whichever report shape it produced.
fn run_cell(sc: &Scenario, key: &SweepRowKey) -> Result<SweepRow, String> {
    let report = sc.run_report()?;
    let mut row = SweepRow {
        policy: key.policy.as_str().to_owned(),
        router: key.router.map(|r| r.as_str().to_owned()),
        chaos: key.chaos.clone(),
        report_interval_ms: key.report_interval_ms,
        hedge: key.hedge.clone(),
        rate_scale: key.rate_scale,
        seed: key.seed,
        threads: 1,
        arrivals: 0,
        completed: 0,
        lost: 0,
        timeouts: 0,
        slo_violations: 0,
        migrated: 0,
        failed: 0,
        hedged: 0,
        cancelled: 0,
        wasted_work: 0,
        util_cpu: None,
        util_mem: None,
        util_bw: None,
        slo_attainment: 1.0,
        mean_wait_ms: 0.0,
        p95_wait_ms: 0.0,
        p99_wait_ms: 0.0,
        p95_response_ms: 0.0,
        p99_response_ms: 0.0,
        duration_secs: 0.0,
    };
    let mut waits = SampleStats::new();
    let mut responses = SampleStats::new();
    match report {
        ScenarioReport::Lass(rep) => {
            row.duration_secs = rep.duration;
            for f in rep.per_fn.values() {
                row.arrivals += f.arrivals;
                row.completed += f.completed;
                row.timeouts += f.timeouts;
                row.slo_violations += f.slo_violations;
                pool(&mut waits, &f.wait);
                pool(&mut responses, &f.response);
            }
        }
        ScenarioReport::OpenWhisk(rep) => {
            // OwReport carries no duration; recompute the simulator's
            // default (longest workload) when the override is absent.
            row.duration_secs = sc.duration_secs.unwrap_or_else(|| {
                sc.functions
                    .iter()
                    .map(|f| f.workload.duration())
                    .fold(0.0f64, f64::max)
            });
            for f in rep.per_fn.values() {
                row.arrivals += f.arrivals;
                row.completed += f.completed;
                row.lost += f.lost;
                row.slo_violations += f.slo_violations;
                // OwFnReport carries no response samples; the response
                // percentile stays 0 for openwhisk rows.
                pool(&mut waits, &f.wait);
            }
        }
        ScenarioReport::Federated(rep) => {
            row.duration_secs = rep.duration;
            row.threads = rep.threads;
            for f in &rep.aggregate_per_fn {
                row.arrivals += f.arrivals;
                row.completed += f.completed;
                row.lost += f.lost;
                row.timeouts += f.timeouts;
                row.slo_violations += f.slo_violations;
                row.hedged += f.hedged;
                row.cancelled += f.cancelled;
                pool(&mut waits, &f.wait);
                pool(&mut responses, &f.response);
            }
            for site in &rep.per_site {
                row.migrated += site.migrated;
                row.failed += site.failed;
                row.wasted_work += site.wasted_work;
                let u = site.utilization;
                row.util_cpu = Some(row.util_cpu.unwrap_or(0.0).max(u[0]));
                row.util_mem = Some(row.util_mem.unwrap_or(0.0).max(u[1]));
                row.util_bw = Some(row.util_bw.unwrap_or(0.0).max(u[2]));
            }
            row.failed += rep.unroutable;
        }
    }
    let finished = row.completed + row.timeouts;
    row.slo_attainment = if finished == 0 {
        1.0
    } else {
        1.0 - row.slo_violations as f64 / finished as f64
    };
    row.mean_wait_ms = waits.mean().unwrap_or(0.0) * 1e3;
    row.p95_wait_ms = waits.percentile(0.95).unwrap_or(0.0) * 1e3;
    row.p99_wait_ms = waits.percentile(0.99).unwrap_or(0.0) * 1e3;
    row.p95_response_ms = responses.percentile(0.95).unwrap_or(0.0) * 1e3;
    row.p99_response_ms = responses.percentile(0.99).unwrap_or(0.0) * 1e3;
    Ok(row)
}

/// Pool one instrument's samples into the run-level aggregate.
fn pool(into: &mut SampleStats, from: &SampleStats) {
    for &w in from.samples() {
        into.record(w);
    }
}
