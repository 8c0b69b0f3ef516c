//! The benchmark's four workloads: how each builds its inputs from a
//! seed, runs, and checks its outputs.
//!
//! * `replay-wide` — many functions through the sequential engine with
//!   a scheduler-light site policy: per-function state in the engine,
//!   calendar, stats and the oracle routing refresh dominates.
//! * `replay-parallel` — few functions over 16 sites in the windowed
//!   parallel executor, with stale telemetry, deferred hedging and one
//!   site outage.
//! * `lass-edge` — the LaSS controller on one cluster under a load that
//!   swings across its capacity.
//! * `lass-federated` — LaSS sites behind a router with stale telemetry,
//!   hedging, an outage and a container burst.
//!
//! The `replay-*` workloads are assembled here from public parts so the
//! tracing wrappers can sit on every seam; the `lass-*` workloads go
//! through [`Scenario::run_report`], the entry point `lass-sim` uses, and
//! are opaque to the wrappers.

use crate::stats;
use crate::trace::{self, Sink, TimedArrivals, TimedRouter, TimedSite, TimedTop};
use lass::core::LassConfig;
use lass::functions::{synthesize, TracePattern, WorkloadSpec};
use lass::replay::{CapacityPolicy, CapacityReport};
use lass::scenario::{
    ChaosEventSpec, ChaosSpec, ClusterSpec, FunctionEntry as ScenarioFunction, FunctionRef,
    Scenario, ScenarioPolicy, ScenarioReport, SiteSpec, TelemetrySpec, TopologySpec,
};
use lass::simcore::{
    run_federation_parallel, run_simulation, ArrivalProcess, ChaosConfig, ContainerChaos,
    EngineConfig, Fault, FedFunction, FederatedReport, Federation, FunctionEntry, HedgeConfig,
    HedgeTrigger, RouterConfig, RouterKind, RouterPolicy, ScaledShapeTrace, SimDuration, SimRng,
    SiteMeta, TelemetryConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order the benchmark runs them.
pub const NAMES: [&str; 4] = [
    "replay-wide",
    "replay-parallel",
    "lass-edge",
    "lass-federated",
];

/// Threads a run of `workload` computes on: the parallel executor's
/// workers for `replay-parallel`, one for the sequential engine.
pub fn threads(workload: &str) -> usize {
    match workload {
        "replay-parallel" => parallel_threads(),
        _ => 1,
    }
}

fn parallel_threads() -> usize {
    stats::nproc().min(2)
}

/// One output check of a run.
#[derive(Debug, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The values it was judged on.
    pub detail: String,
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the tracing wrappers were installed.
    pub traced: bool,
    /// CPU seconds spent building inputs before the first event: the
    /// median of [`SETUPS`] set-ups.
    pub setup_cpu_s: f64,
    /// Wall seconds of the run phase.
    pub run_s: f64,
    /// Process CPU seconds (user + system, all threads) of the run phase.
    pub cpu_s: f64,
    /// Peak resident set size at the end of the run phase, MiB.
    pub peak_rss_mib: f64,
    /// Logical arrivals.
    pub arrivals: u64,
    /// Arrivals that completed with wait within their SLO.
    pub slo_met: u64,
    /// FNV-64 digest of the simulated report, hex.
    pub sim_digest: String,
    /// Counts read from the report (controller, hedging, chaos).
    pub counts: BTreeMap<String, f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Output checks.
    pub checks: Vec<Check>,
}

/// Run one workload once. With `spans_path`, the tracing wrappers are
/// installed and the sampled spans are written there as JSONL.
pub fn run(workload: &str, seed: u64, spans_path: Option<&str>) -> Result<Outcome, String> {
    let sink = spans_path.map(|_| Sink::default());
    let mut out = match workload {
        "replay-wide" => replay(&ReplaySpec::wide(), seed, sink.as_ref()),
        "replay-parallel" => replay(&ReplaySpec::parallel(), seed, sink.as_ref()),
        "lass-edge" => lass(edge_scenario(seed), sink.is_some()),
        "lass-federated" => lass(federated_scenario(seed), sink.is_some()),
        other => return Err(format!("unknown workload {other:?}")),
    };
    out.workload = workload.to_string();
    out.seed = seed;
    if let (Some(path), Some(sink)) = (spans_path, sink) {
        let totals = sink.lock().map_err(|_| "trace sink poisoned".to_string())?;
        write_spans(path, &totals.spans)?;
    }
    Ok(out)
}

fn write_spans(path: &str, spans: &[trace::Span]) -> Result<(), String> {
    use std::io::Write;
    let io = |e: std::io::Error| format!("writing {path}: {e}");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| (s.rid, s.start_ns));
    for s in sorted {
        writeln!(
            w,
            r#"{{"rid":{},"name":"{}","start_ns":{},"end_ns":{},"parent":"{}"}}"#,
            s.rid,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.parent.name()
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)
}

/// Host-side timing of one run: build inputs, then run them.
struct Phases {
    setup_cpu_s: f64,
    run_s: f64,
    run_ns: u64,
    cpu_s: f64,
    peak_rss_mib: f64,
}

/// Set-ups timed per run; the median is reported. A single set-up takes
/// milliseconds, too short to time steadily once.
const SETUPS: usize = 7;

/// Build the inputs [`SETUPS`] times, dropping each before the next, and
/// run the last.
fn measure<I, R>(setup: impl Fn() -> I, run: impl FnOnce(I) -> R) -> (Phases, R) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        let cpu0 = stats::thread_cpu_ns();
        input = Some(setup());
        times.push((stats::thread_cpu_ns() - cpu0) as f64 / 1e9);
    }
    let input = input.expect("at least one set-up");
    let setup_cpu_s = stats::quartiles(&times)[1];
    let cpu0 = stats::process_cpu_ns();
    let t1 = Instant::now();
    let out = run(input);
    let wall = t1.elapsed();
    let cpu_s = (stats::process_cpu_ns() - cpu0) as f64 / 1e9;
    let phases = Phases {
        setup_cpu_s,
        run_s: wall.as_secs_f64(),
        run_ns: wall.as_nanos() as u64,
        cpu_s,
        peak_rss_mib: stats::peak_rss_mib(),
    };
    (phases, out)
}

/// Request outcomes summed over functions.
#[derive(Debug, Default)]
struct Tally {
    arrivals: u64,
    completed: u64,
    lost: u64,
    timeouts: u64,
    outstanding: u64,
    slo_met: u64,
}

impl Tally {
    /// Fold one function: `violations` counts timeouts as well as late
    /// completions, so late completions are `violations - timeouts`.
    fn add(
        &mut self,
        arrivals: usize,
        completed: usize,
        lost: usize,
        timeouts: usize,
        violations: usize,
    ) {
        self.arrivals += arrivals as u64;
        self.completed += completed as u64;
        self.lost += lost as u64;
        self.timeouts += timeouts as u64;
        self.slo_met += (completed - violations.saturating_sub(timeouts)) as u64;
    }

    fn conservation(&self) -> Check {
        let accounted = self.completed + self.lost + self.timeouts + self.outstanding;
        Check {
            name: "conservation".into(),
            ok: accounted == self.arrivals,
            detail: format!(
                "arrivals {} = completed {} + lost {} + timeouts {} + outstanding {}",
                self.arrivals, self.completed, self.lost, self.timeouts, self.outstanding
            ),
        }
    }
}

fn federated_tally<R>(rep: &FederatedReport<R>) -> Tally {
    let mut t = Tally {
        outstanding: rep.outstanding as u64,
        ..Tally::default()
    };
    for f in &rep.aggregate_per_fn {
        t.add(
            f.arrivals,
            f.completed,
            f.lost,
            f.timeouts,
            f.slo_violations,
        );
    }
    t
}

/// Hedging and chaos counts every federated report carries.
fn federated_counts<R>(rep: &FederatedReport<R>) -> Vec<(&'static str, f64)> {
    let clones: usize = rep.aggregate_per_fn.iter().map(|f| f.hedged).sum();
    let cancelled: usize = rep.aggregate_per_fn.iter().map(|f| f.cancelled).sum();
    let ratio = |n: usize| {
        if clones == 0 {
            0.0
        } else {
            n as f64 / clones as f64
        }
    };
    vec![
        ("hedge.clones", clones as f64),
        ("hedge.cancel_ratio", ratio(cancelled)),
        ("hedge.wasted_ratio", ratio(rep.wasted_work)),
        (
            "chaos.migrated",
            rep.per_site.iter().map(|s| s.migrated).sum::<usize>() as f64,
        ),
        ("chaos.unroutable", rep.unroutable as f64),
        (
            "chaos.downtime",
            rep.per_site.iter().map(|s| s.downtime_secs).sum(),
        ),
        (
            "cluster.reruns",
            rep.aggregate_per_fn.iter().map(|f| f.reruns).sum::<usize>() as f64,
        ),
    ]
}

/// Every count key a run reports, zero where the workload has no such
/// layer.
const COUNT_KEYS: [&str; 10] = [
    "controller.epochs",
    "controller.overloaded_ratio",
    "controller.failed_creates",
    "cluster.reruns",
    "hedge.clones",
    "hedge.cancel_ratio",
    "hedge.wasted_ratio",
    "chaos.migrated",
    "chaos.unroutable",
    "chaos.downtime",
];

fn counts_from(pairs: impl IntoIterator<Item = (&'static str, f64)>) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = COUNT_KEYS.iter().map(|k| (k.to_string(), 0.0)).collect();
    for (k, v) in pairs {
        debug_assert!(COUNT_KEYS.contains(&k), "unlisted count {k}");
        m.insert(k.to_string(), v);
    }
    m
}

fn positive(counts: &BTreeMap<String, f64>, keys: &[&str]) -> Check {
    let values: Vec<String> = keys.iter().map(|k| format!("{k} {}", counts[*k])).collect();
    Check {
        name: format!("{} > 0", keys.join(", ")),
        ok: keys.iter().all(|k| counts[*k] > 0.0),
        detail: values.join(", "),
    }
}

// ---------------------------------------------------------------------
// replay-*
// ---------------------------------------------------------------------

/// Which executor runs a replay, and the faults it injects.
enum Executor {
    Sequential,
    /// The windowed parallel executor at `threads` workers, with one
    /// site down over `(site, down, up)` fractions of the run.
    Parallel {
        threads: usize,
        outage: (u32, f64, f64),
    },
}

/// A synthesized trace replay over a federation of FCFS capacity sites.
struct ReplaySpec {
    functions: usize,
    total_rps: f64,
    minutes: usize,
    /// One-way router→site latency per site, ms.
    latencies_ms: Vec<f64>,
    router: RouterKind,
    /// Planned utilization: total servers = offered erlangs / this.
    utilization: f64,
    slo_secs: f64,
    /// Telemetry report interval and jitter, ms (`None` = oracle view).
    telemetry_ms: Option<(f64, f64)>,
    hedge: Option<HedgeConfig>,
    executor: Executor,
}

impl ReplaySpec {
    /// 2·10⁴ Zipf(1.1) functions at 5·10³ req/s over two sites with
    /// round-robin routing and the oracle view: every routing decision
    /// refreshes per-function state at each site, and each function
    /// keeps one pending arrival in the calendar.
    fn wide() -> Self {
        Self {
            functions: 20_000,
            total_rps: 5_000.0,
            minutes: 1,
            latencies_ms: vec![0.0, 2.0],
            router: RouterKind::RoundRobin,
            utilization: 0.7,
            slo_secs: 0.1,
            telemetry_ms: None,
            hedge: None,
            executor: Executor::Sequential,
        }
    }

    /// 10³ functions at 2·10³ req/s over 16 sites 5 ms away, routed
    /// least-loaded on 100 ± 20 ms telemetry, hedged after 50 ms, with
    /// one site down for a fifth of the run.
    fn parallel() -> Self {
        Self {
            functions: 1_000,
            total_rps: 2_000.0,
            minutes: 2,
            latencies_ms: vec![5.0; 16],
            router: RouterKind::LeastLoaded,
            utilization: 0.45,
            slo_secs: 0.1,
            telemetry_ms: Some((100.0, 20.0)),
            hedge: Some(HedgeConfig {
                trigger: HedgeTrigger::DeferredMs(50.0),
                max_clones: 1,
                retry_after_ms: 0.0,
                waste_budget: 0.1,
            }),
            executor: Executor::Parallel {
                threads: parallel_threads(),
                outage: (3, 0.4, 0.6),
            },
        }
    }
}

/// Deterministic per-function mean service time in `[10 ms, 100 ms)`.
fn service_mean(fn_idx: usize) -> f64 {
    let h = (fn_idx as u64).wrapping_mul(2_654_435_761) % 1_000;
    0.010 + 0.090 * (h as f64 / 1_000.0)
}

/// The `lass-replay` shape pool: four per-minute rate shapes with mean 1
/// drawn from `seed` under the same stream labels, so `replay-wide`
/// replays the same inputs as `lass-replay --functions 20000 --rps 5000
/// --minutes 1`. Function `i` follows shape `i % 4`.
fn shape_pool(seed: u64, minutes: usize) -> Vec<Arc<[f64]>> {
    let patterns = [
        (
            "steady",
            TracePattern::Steady {
                mean_per_min: 600.0,
            },
        ),
        (
            "diurnal",
            TracePattern::Diurnal {
                mean_per_min: 600.0,
                amplitude: 0.5,
                period_min: 60.0,
            },
        ),
        (
            "sporadic",
            TracePattern::Sporadic {
                burst_mean_per_min: 1_200.0,
                mean_burst_min: 6.0,
                mean_idle_min: 6.0,
            },
        ),
        (
            "spiky",
            TracePattern::Spiky {
                base_per_min: 600.0,
                spike_prob: 0.05,
                spike_factor: 4.0,
            },
        ),
    ];
    patterns
        .iter()
        .map(|(label, pattern)| {
            let mut rng = SimRng::from_seed_label(seed, &format!("replay:shape:{label}"));
            let counts = synthesize(*pattern, minutes, &mut rng);
            let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
            let shape: Vec<f64> = if mean > 0.0 {
                counts.iter().map(|&c| c as f64 / mean).collect()
            } else {
                vec![1.0; counts.len()]
            };
            Arc::from(shape.into_boxed_slice())
        })
        .collect()
}

fn replay(spec: &ReplaySpec, seed: u64, sink: Option<&Sink>) -> Outcome {
    match sink {
        None => replay_with(spec, seed, None, |_, p| p),
        Some(sink) => {
            let site_sink = sink.clone();
            let wrap_ctx = matches!(spec.executor, Executor::Parallel { .. });
            replay_with(spec, seed, Some(sink), move |i, p| {
                TimedSite::new(p, i, wrap_ctx, site_sink.clone())
            })
        }
    }
}

fn replay_with<P>(
    spec: &ReplaySpec,
    seed: u64,
    sink: Option<&Sink>,
    site: impl Fn(usize, CapacityPolicy) -> P + Clone + Send + 'static,
) -> Outcome
where
    P: ContainerChaos<Report = CapacityReport> + Send + 'static,
    P::Event: Send,
{
    let duration_secs = spec.minutes as f64 * 60.0;
    let setup = || {
        let shapes = shape_pool(seed, spec.minutes);
        let weights: Vec<f64> = (0..spec.functions)
            .map(|i| (i as f64 + 1.0).powf(-1.1))
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let mut entries = Vec::with_capacity(spec.functions);
        let mut functions = Vec::with_capacity(spec.functions);
        let mut means = Vec::with_capacity(spec.functions);
        let mut offered = 0.0;
        for (i, w) in weights.iter().enumerate() {
            let name = format!("fn-{i:06}");
            let rate = spec.total_rps * w / total_weight;
            let mean = service_mean(i);
            offered += rate * mean;
            means.push(mean);
            let mut process: Box<dyn ArrivalProcess + Send> = Box::new(ScaledShapeTrace::new(
                shapes[i % shapes.len()].clone(),
                rate,
            ));
            if let Some(sink) = sink {
                process = Box::new(TimedArrivals::new(process, sink.clone()));
            }
            entries.push(FunctionEntry {
                name: name.clone(),
                slo_deadline: spec.slo_secs,
                process,
            });
            functions.push(FedFunction {
                name,
                slo_deadline: spec.slo_secs,
                demand: [0.0; 3],
            });
        }
        let means: Arc<[f64]> = Arc::from(means.into_boxed_slice());
        let sites = spec.latencies_ms.len();
        let servers = (offered / spec.utilization).ceil() as u32 / sites as u32 + 1;
        let metas = spec
            .latencies_ms
            .iter()
            .enumerate()
            .map(|(i, ms)| SiteMeta {
                name: format!("site{i}"),
                latency: SimDuration::from_secs_f64(ms / 1e3),
                capacity_hint: f64::from(servers),
            });
        let members = metas
            .enumerate()
            .map(|(i, m)| (m, site(i, CapacityPolicy::new(servers, means.clone()))))
            .collect();
        let mut router: Box<dyn RouterPolicy + Send> = spec.router.build();
        if let Some(sink) = sink {
            router = Box::new(TimedRouter::new(router, sink.clone()));
        }
        let site = site.clone();
        let rebuild = move |i, _restarts| site(i, CapacityPolicy::new(servers, means.clone()));
        let mut fed = Federation::new(members, router, &functions)
            .with_streaming_stats()
            .with_rebuild(Box::new(rebuild));
        if let Some((interval, jitter)) = spec.telemetry_ms {
            let cfg = TelemetryConfig {
                report_interval: SimDuration::from_secs_f64(interval / 1e3),
                jitter: SimDuration::from_secs_f64(jitter / 1e3),
                loss_under_partition: true,
                loss_prob: 0.0,
            };
            fed.set_telemetry(cfg, seed);
        }
        if let Some(h) = spec.hedge {
            fed.set_hedge(h);
        }
        let cfg = EngineConfig {
            seed,
            rng_label_prefix: String::new(),
            duration_secs,
            drain_secs: 120.0,
            stream_stats: true,
            parallel_sites: match spec.executor {
                Executor::Sequential => None,
                Executor::Parallel { threads, .. } => Some(threads),
            },
        };
        (entries, fed, cfg)
    };
    let run = |(entries, fed, cfg): (Vec<FunctionEntry>, Federation<P>, EngineConfig)| match (
        &spec.executor,
        sink,
    ) {
        (Executor::Sequential, None) => run_simulation(cfg, entries, fed),
        (Executor::Sequential, Some(sink)) => {
            run_simulation(cfg, entries, TimedTop::new(fed, sink.clone()))
        }
        (Executor::Parallel { outage, .. }, _) => {
            let (site, down, up) = *outage;
            let chaos = ChaosConfig {
                events: vec![
                    (down * duration_secs, Fault::SiteDown { site }),
                    (up * duration_secs, Fault::SiteUp { site }),
                ],
                ..ChaosConfig::default()
            };
            run_federation_parallel(cfg, entries, fed, chaos, seed)
        }
    };
    let (ph, report) = measure(setup, run);

    let tally = federated_tally(&report);
    let counts = counts_from(federated_counts(&report));
    let mut checks = vec![tally.conservation()];
    if let Executor::Parallel { threads, .. } = spec.executor {
        checks.push(Check {
            name: "parallel executor used the requested threads".into(),
            ok: report.threads == threads,
            detail: format!("requested {threads}, used {}", report.threads),
        });
        checks.push(positive(
            &counts,
            &["hedge.clones", "hedge.cancel_ratio", "chaos.migrated"],
        ));
    }
    let parallel_threads = match spec.executor {
        Executor::Sequential => None,
        Executor::Parallel { .. } => Some(report.threads),
    };
    let layers = match sink {
        Some(sink) => {
            let totals = sink.lock().expect("trace sink poisoned");
            trace::layer_metrics(&totals, ph.run_ns, parallel_threads)
        }
        None => BTreeMap::new(),
    };
    Outcome {
        traced: sink.is_some(),
        setup_cpu_s: ph.setup_cpu_s,
        run_s: ph.run_s,
        cpu_s: ph.cpu_s,
        peak_rss_mib: ph.peak_rss_mib,
        arrivals: tally.arrivals,
        slo_met: tally.slo_met,
        sim_digest: format!("{:016x}", stats::digest(&serde_json::to_value(&report))),
        counts,
        layers,
        checks,
        ..Outcome::default()
    }
}

// ---------------------------------------------------------------------
// lass-*
// ---------------------------------------------------------------------

/// The seven Table-1 catalog functions the LaSS workloads cycle through.
const CATALOG: [&str; 7] = [
    "mobilenet_v2",
    "shufflenet_v2",
    "squeezenet",
    "binary_alert",
    "geofence",
    "image_resizer",
    "micro_benchmark:100",
];

/// 64 functions cycling through [`CATALOG`], owned by four users of
/// weights 1–4. Each follows a per-minute trace of `minutes` minutes: a
/// one-hour sine around `rps` req/s with ±80 % swing, with Poisson counts
/// drawn from `seed`. Users 1 and 3 run ten minutes behind users 0 and 2;
/// two groups rather than four phases keep the aggregate swinging widely
/// enough that the overloaded share of epochs barely depends on the seed.
fn lass_functions(seed: u64, minutes: usize, rps: f64) -> Vec<ScenarioFunction> {
    let mut rng = SimRng::from_seed_label(seed, "perfbench:lass-traces");
    (0..64)
        .map(|i| {
            let user = i % 4;
            let shift = 10.0 * (user % 2) as f64;
            let per_minute = (0..minutes)
                .map(|m| {
                    let phase = 2.0 * std::f64::consts::PI * (m as f64 - shift) / 60.0;
                    rng.poisson(60.0 * rps * (1.0 + 0.8 * phase.sin()))
                })
                .collect();
            ScenarioFunction {
                function: FunctionRef::Catalog(CATALOG[i % CATALOG.len()].into()),
                slo_ms: 100.0,
                workload: WorkloadSpec::Trace { per_minute },
                weight: 1.0 + (i / 4 % 3) as f64,
                user: user as u32,
                user_weight: 1.0 + user as f64,
                initial_containers: 1,
                class: None,
            }
        })
        .collect()
}

fn cluster(nodes: u32) -> ClusterSpec {
    ClusterSpec {
        nodes,
        cpu_milli: 4000,
        mem_mib: 16 * 1024,
        ..ClusterSpec::default()
    }
}

fn scenario(seed: u64, cluster: ClusterSpec, functions: Vec<ScenarioFunction>) -> Scenario {
    Scenario {
        seed,
        policy: ScenarioPolicy::Lass,
        cluster,
        config: LassConfig::default(),
        functions,
        duration_secs: None,
        topology: None,
        chaos: None,
    }
}

/// One cluster of 32 four-vCPU nodes for two hours, loaded so that
/// roughly half of the controller's epochs are planned under overload.
fn edge_scenario(seed: u64) -> Scenario {
    scenario(seed, cluster(32), lass_functions(seed, 120, 2.0))
}

/// Two edge sites (2 ms, 3 ms) and a cloud site (40 ms) for an hour,
/// routed least-loaded on 250 ± 50 ms telemetry, hedged when the
/// predicted p95 response exceeds the SLO; edge-b is down from 1500 s to
/// 1800 s and edge-a loses 8 containers at 2400 s.
fn federated_scenario(seed: u64) -> Scenario {
    let site = |name: &str, nodes, latency_ms| SiteSpec {
        name: name.into(),
        cluster: cluster(nodes),
        latency_ms,
    };
    let event = |at: f64, kind: &str, site: &str, count| ChaosEventSpec {
        at,
        kind: kind.into(),
        site: site.into(),
        count,
        factor: 1.0,
    };
    let mut sc = scenario(seed, cluster(1), lass_functions(seed, 60, 2.5));
    sc.topology = Some(TopologySpec {
        router: RouterKind::LeastLoaded,
        // The pooled M/M/c forecast predicts no wait under LaSS sizing,
        // so the hedge fires through the cold-start term: a request is
        // cloned when its primary site has no warm container of its
        // function.
        router_config: RouterConfig {
            cold_start_penalty_ms: 100.0,
            ..RouterConfig::default()
        },
        parallel_sites: None,
        telemetry: TelemetrySpec {
            report_interval_ms: 250.0,
            jitter_ms: 50.0,
            ..TelemetrySpec::default()
        },
        hedge: Some(HedgeConfig {
            trigger: HedgeTrigger::PredictedP95OverSlo,
            ..HedgeConfig::default()
        }),
        sites: vec![
            site("edge-a", 12, 2.0),
            site("edge-b", 12, 3.0),
            site("cloud", 24, 40.0),
        ],
    });
    sc.chaos = Some(ChaosSpec {
        name: None,
        events: vec![
            event(1500.0, "site-down", "edge-b", 1),
            event(1800.0, "site-up", "edge-b", 1),
            event(2400.0, "container-burst", "edge-a", 8),
        ],
        site_mtbf_secs: None,
        site_mttr_secs: 30.0,
        partition_mtbf_secs: None,
        partition_mttr_secs: 15.0,
        burst_mtbf_secs: None,
        burst_size: 1,
        migration_penalty_ms: 0.0,
    });
    sc
}

/// Run a scenario the way `lass-sim` does: the input arrives as JSON
/// text and is parsed before the run. Tracing records only the setup and
/// run phases (the whole run is engine time to the wrappers).
fn lass(sc: Scenario, traced: bool) -> Outcome {
    let setup = || {
        let text = serde_json::to_string(&sc).expect("scenario serializes");
        Scenario::from_json(&text).expect("generated scenario parses")
    };
    let (ph, report) = measure(setup, |sc| sc.run_report());
    let report = report.expect("generated scenario runs");
    let (tally, counts, checks) = match &report {
        ScenarioReport::Lass(rep) => {
            let mut t = Tally::default();
            for f in rep.per_fn.values() {
                t.add(f.arrivals, f.completed, 0, f.timeouts, f.slo_violations);
            }
            let ratio = rep.overloaded_epochs as f64 / rep.epochs.max(1) as f64;
            let counts = counts_from([
                ("controller.epochs", rep.epochs as f64),
                ("controller.overloaded_ratio", ratio),
                ("controller.failed_creates", f64::from(rep.failed_creates)),
                (
                    "cluster.reruns",
                    rep.per_fn.values().map(|f| f.reruns).sum::<usize>() as f64,
                ),
            ]);
            // The single-cluster report carries no outstanding count, so
            // conservation can only bound what finished.
            let finished = t.completed + t.timeouts;
            let checks = vec![
                Check {
                    name: "conservation".into(),
                    ok: finished <= t.arrivals,
                    detail: format!(
                        "completed {} + timeouts {} <= arrivals {}",
                        t.completed, t.timeouts, t.arrivals
                    ),
                },
                Check {
                    name: "overloaded epochs in [0.3, 0.7]".into(),
                    ok: (0.3..=0.7).contains(&ratio),
                    detail: format!("{} of {} epochs", rep.overloaded_epochs, rep.epochs),
                },
            ];
            (t, counts, checks)
        }
        ScenarioReport::Federated(rep) => {
            let t = federated_tally(rep);
            let sites = rep.per_site.iter().map(|s| &s.report);
            let epochs: usize = sites.clone().map(|r| r.epochs).sum();
            let overloaded: usize = sites.clone().map(|r| r.overloaded_epochs).sum();
            let failed: u32 = sites.map(|r| r.failed_creates).sum();
            let mut pairs = federated_counts(rep);
            pairs.extend([
                ("controller.epochs", epochs as f64),
                (
                    "controller.overloaded_ratio",
                    overloaded as f64 / epochs.max(1) as f64,
                ),
                ("controller.failed_creates", f64::from(failed)),
            ]);
            let counts = counts_from(pairs);
            let checks = vec![
                t.conservation(),
                positive(
                    &counts,
                    &["chaos.migrated", "hedge.clones", "chaos.downtime"],
                ),
            ];
            (t, counts, checks)
        }
        ScenarioReport::OpenWhisk(_) => unreachable!("the LaSS scenarios use the lass policy"),
    };
    let layers = if traced {
        trace::layer_metrics(&trace::Totals::default(), ph.run_ns, None)
    } else {
        BTreeMap::new()
    };
    Outcome {
        traced,
        setup_cpu_s: ph.setup_cpu_s,
        run_s: ph.run_s,
        cpu_s: ph.cpu_s,
        peak_rss_mib: ph.peak_rss_mib,
        arrivals: tally.arrivals,
        slo_met: tally.slo_met,
        sim_digest: format!("{:016x}", stats::digest(&serde_json::to_value(&report))),
        counts,
        layers,
        checks,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run must compute exactly what the untraced run does.
    fn transparent(spec: &ReplaySpec) {
        let plain = replay(spec, 5, None);
        let sink = Sink::default();
        let traced = replay(spec, 5, Some(&sink));
        assert!(plain.arrivals > 1_000, "arrivals {}", plain.arrivals);
        assert_eq!(plain.sim_digest, traced.sim_digest);
        assert_eq!(plain.counts, traced.counts);
        for c in plain.checks.iter().chain(&traced.checks) {
            assert!(c.ok, "{}: {}", c.name, c.detail);
        }
        let l = &traced.layers;
        assert!(l["site.calls"] > 0.0 && l["calendar.pushes"] > 0.0);
        assert!(l["router.decisions"] > 0.0 && l["arrivals.calls"] > 0.0);
        assert!(l["stats.completions"] > 0.0);
    }

    #[test]
    fn tracing_is_transparent_on_shrunken_replay_wide() {
        let spec = ReplaySpec {
            functions: 500,
            total_rps: 200.0,
            ..ReplaySpec::wide()
        };
        transparent(&spec);
    }

    #[test]
    fn tracing_is_transparent_on_shrunken_replay_parallel() {
        let spec = ReplaySpec {
            functions: 100,
            total_rps: 200.0,
            minutes: 1,
            ..ReplaySpec::parallel()
        };
        transparent(&spec);
    }
}
