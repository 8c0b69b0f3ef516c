//! Million-function trace replay: the workload harness behind the
//! `lass-replay` binary and the engine-throughput benchmark.
//!
//! The figure-repro simulations drive a handful of functions through the
//! full LaSS controller; this module instead stresses the *engine* — the
//! event calendar, the arena request table, and the streaming
//! statistics — with hour-long traces for 10⁴–10⁶ distinct functions,
//! routed across a federated topology end-to-end. Streaming statistics
//! keep one [`LatencySketch`](lass_queueing::LatencySketch) per
//! instrument (relative accuracy α = 2 %, samples at or below 1 ns
//! counted as zero), so the summary's quantiles are sketch estimates.
//!
//! Two trace sources:
//!
//! * **Synthesis** (default): function popularity follows a Zipf law
//!   over the configured aggregate rate, and each function replays one
//!   of a small pool of temporal shapes built from the Azure-style
//!   [`synthesize`](lass_functions::synthesize) patterns. Shapes are
//!   shared behind `Arc`s ([`ScaledShapeTrace`]), so per-function
//!   arrival state is O(1) whatever the trace length.
//! * **CSV** (`csv` config): rows in the Azure Functions 2019 schema,
//!   loaded with [`parse_invocations_csv`](lass_functions::parse_invocations_csv)
//!   and windowed with [`sample_window`](lass_functions::sample_window).
//!
//! Function names are interned to dense ids through
//! [`FnInterner`](lass_cluster::FnInterner) — the engine, the federation
//! tallies, and the per-site policies all index flat vectors.
//!
//! Each site is a fixed-capacity FCFS multi-server ([`CapacityPolicy`]):
//! deliberately scheduler-light so the measured cost is the engine's hot
//! loop, not a controller. Capacity is planned from the offered load at
//! a configurable utilization, so the replay neither idles nor melts.

use lass_cluster::FnInterner;
use lass_functions::{parse_invocations_csv, sample_window, synthesize, TracePattern};
use lass_simcore::{
    run_federation, ArrivalProcess, ContainerChaos, EngineConfig, EngineOutcome, FedFunction,
    FederatedReport, Federation, FederationConfig, FunctionEntry, HedgeConfig, PerMinuteTrace,
    PolicyCtx, ReqId, RouterKind, ScaledShapeTrace, SchedulerPolicy, SimDuration, SimRng, SimTime,
    SiteMeta,
};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;

/// Replay parameters. `Default` gives the CI smoke shape: 10³ functions,
/// 5 minutes, 2 sites, round-robin routing.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Number of distinct functions (synthesis mode; CSV mode caps the
    /// row count at this when non-zero).
    pub functions: usize,
    /// Simulated minutes to replay.
    pub minutes: usize,
    /// Master seed for shapes, arrivals, and service draws.
    pub seed: u64,
    /// Zipf popularity exponent `s` (rate of function `i` ∝ `(i+1)^-s`).
    pub zipf_exponent: f64,
    /// Aggregate offered load across all functions, req/s (synthesis
    /// mode; CSV mode takes rates from the trace).
    pub total_rps: f64,
    /// Number of federated sites.
    pub sites: usize,
    /// Front-end routing policy.
    pub router: RouterKind,
    /// Capacity-planning utilization target in (0, 1): total servers =
    /// offered erlangs / utilization.
    pub utilization: f64,
    /// SLO deadline (seconds) on the waiting time, for violation
    /// accounting.
    pub slo_deadline: f64,
    /// Path to an Azure-schema invocations CSV; `None` synthesizes.
    pub csv: Option<String>,
    /// First minute of the CSV window (e.g. 660 for 11:00).
    pub window_start: usize,
    /// Threads for the conservative-synchronization parallel executor,
    /// counting the calling thread (`Some(1)` runs it on the calling
    /// thread alone); `None` runs the sequential engine. Needs `sites >= 2`
    /// and strictly positive inbound latency on every site (set
    /// `site_latency_ms`), otherwise the replay warns and falls back to
    /// the sequential engine.
    pub parallel: Option<usize>,
    /// Uniform router→site latency in milliseconds for every site;
    /// `None` keeps the legacy ladder (site `i` pays `2·i` ms, so site 0
    /// is the zero-latency local pool).
    pub site_latency_ms: Option<f64>,
    /// Request hedging: race extra copies of each request across sites,
    /// first response wins, cancels chase the losers at site latency.
    /// `None` (the default) keeps the single-dispatch engine
    /// byte-identical.
    pub hedge: Option<HedgeConfig>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            functions: 1_000,
            minutes: 5,
            seed: 42,
            zipf_exponent: 1.1,
            total_rps: 1_000.0,
            sites: 2,
            router: RouterKind::RoundRobin,
            utilization: 0.7,
            slo_deadline: 0.1,
            csv: None,
            window_start: 0,
            parallel: None,
            site_latency_ms: None,
            hedge: None,
        }
    }
}

/// What one replay run produced, JSON-serializable for the binary and
/// the CI smoke check.
#[derive(Debug, Serialize)]
pub struct ReplaySummary {
    /// Distinct functions replayed.
    pub functions: usize,
    /// Simulated minutes.
    pub minutes: usize,
    /// Seed used.
    pub seed: u64,
    /// Sites in the topology.
    pub sites: usize,
    /// Worker threads the run actually used, as recorded by the engine
    /// itself (1 = sequential, including parallel requests that fell
    /// back; requests beyond the site count are clamped, and the clamp
    /// shows here rather than the requested figure).
    pub threads: usize,
    /// Router name.
    pub router: String,
    /// FCFS servers provisioned per site.
    pub servers_per_site: u32,
    /// Total arrivals.
    pub arrivals: usize,
    /// Completed requests.
    pub completed: usize,
    /// Requests lost (no routable site).
    pub lost: usize,
    /// Requests abandoned on a hard time limit (none in this harness).
    pub timeouts: usize,
    /// Requests still in flight when the drain ended.
    pub outstanding: usize,
    /// Whether every arrival is accounted for:
    /// `arrivals == completed + lost + timeouts + outstanding`.
    pub conserved: bool,
    /// Completion-weighted mean waiting time, milliseconds.
    pub mean_wait_ms: f64,
    /// Completion-weighted mean response time, milliseconds.
    pub mean_response_ms: f64,
    /// p95 waiting time of the busiest function, milliseconds.
    pub p95_wait_ms_top_fn: f64,
    /// Completions whose wait exceeded the SLO deadline.
    pub slo_violations: usize,
    /// Hedge clones dispatched (0 with hedging off).
    pub hedged: usize,
    /// Hedge clones cancelled after a sibling won the race.
    pub cancelled: usize,
    /// Clones whose site finished the work after the race was decided —
    /// the wasted-work cost of hedging.
    pub wasted_work: usize,
    /// Simulated duration, seconds (excluding drain).
    pub sim_duration_secs: f64,
    /// Wall-clock time of the engine run, seconds.
    pub wall_secs: f64,
    /// Simulated requests processed per wall-clock minute — the
    /// headline throughput number (`arrivals / wall_minutes`).
    pub sim_req_per_wall_min: f64,
}

/// Per-site FCFS multi-server policy: `servers` interchangeable slots,
/// one shared queue, exponential service at the function's mean rate.
/// No autoscaling and no per-container state — the cheapest scheduler
/// that still exercises the full request lifecycle, so replay
/// throughput measures the engine, not a controller.
pub struct CapacityPolicy {
    servers: u32,
    busy: u32,
    queue: VecDeque<ReqId>,
    /// Mean service time (seconds) per function, shared across sites.
    service_means: Arc<[f64]>,
    completed: usize,
}

/// The capacity policy's only event: a service slot finishing.
pub enum CapEv {
    /// Request `rid`, started at `started`, finished service.
    Done {
        /// The finished request.
        rid: ReqId,
        /// When its service began.
        started: SimTime,
    },
}

/// Per-site totals returned by [`CapacityPolicy::finish`].
#[derive(Debug, Serialize)]
pub struct CapacityReport {
    /// Requests this site completed.
    pub completed: usize,
}

impl CapacityPolicy {
    /// A site with `servers` slots drawing service times from
    /// `service_means` (indexed by dense function id).
    pub fn new(servers: u32, service_means: Arc<[f64]>) -> Self {
        assert!(servers > 0, "a site needs at least one server");
        Self {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            service_means,
            completed: 0,
        }
    }

    fn start(&mut self, ctx: &mut impl PolicyCtx<CapEv>, rid: ReqId, fn_idx: u32, now: SimTime) {
        let mean = self.service_means[fn_idx as usize];
        let dur = ctx.service_rng(fn_idx).exp(1.0 / mean);
        self.busy += 1;
        ctx.schedule(
            now + SimDuration::from_secs_f64(dur),
            CapEv::Done { rid, started: now },
        );
    }
}

impl SchedulerPolicy for CapacityPolicy {
    type Event = CapEv;
    type Report = CapacityReport;
    // The report counts completions itself: the site's ledger need not
    // record a latency sample.
    const READS_SAMPLES: bool = false;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<CapEv>) {}

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<CapEv>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        if self.busy < self.servers {
            self.start(ctx, rid, fn_idx, now);
        } else {
            self.queue.push_back(rid);
        }
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<CapEv>, ev: CapEv, now: SimTime) {
        let CapEv::Done { rid, started } = ev;
        if ctx.complete(rid, started, now).is_some() {
            self.completed += 1;
        }
        self.busy -= 1;
        while self.busy < self.servers {
            let Some(next) = self.queue.pop_front() else {
                return;
            };
            // A request can leave the queue only by starting service, so
            // lookups fail only for requests retired upstream.
            let Some((fn_idx, _)) = ctx.request_info(next) else {
                ctx.discard(next);
                continue;
            };
            self.start(ctx, next, fn_idx, now);
        }
    }

    fn finish(self, _outcome: EngineOutcome) -> CapacityReport {
        CapacityReport {
            completed: self.completed,
        }
    }
}

// No container fleet: nothing to crash, nothing warm to census. The
// default (zero) implementations are exactly right.
impl ContainerChaos for CapacityPolicy {}

/// One replayable workload: entries for the engine, per-function mean
/// service times, and the offered load in erlangs (for capacity
/// planning).
struct Workload {
    entries: Vec<FunctionEntry>,
    functions: Vec<FedFunction>,
    service_means: Arc<[f64]>,
    offered_erlangs: f64,
}

/// Deterministic per-function mean service time in `[10 ms, 100 ms)`,
/// spread by a Weyl-style multiplicative hash so neighbours differ.
fn service_mean(fn_idx: usize) -> f64 {
    let h = (fn_idx as u64).wrapping_mul(2_654_435_761) % 1_000;
    0.010 + 0.090 * (h as f64 / 1_000.0)
}

/// The pool of shared temporal shapes, each normalized to mean 1.0 so a
/// function's long-run average rate equals its Zipf scale.
fn shape_pool(seed: u64, minutes: usize) -> Vec<Arc<[f64]>> {
    let patterns: [(&str, TracePattern); 4] = [
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

fn synthesize_workload(cfg: &ReplayConfig) -> Result<Workload, String> {
    if cfg.functions == 0 {
        return Err("need at least one function to synthesize".into());
    }
    let shapes = shape_pool(cfg.seed, cfg.minutes);
    // Zipf popularity: rate of function i ∝ (i+1)^-s, normalized to the
    // configured aggregate.
    let weights: Vec<f64> = (0..cfg.functions)
        .map(|i| (i as f64 + 1.0).powf(-cfg.zipf_exponent))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let mut interner = FnInterner::new();
    let mut entries = Vec::with_capacity(cfg.functions);
    let mut functions = Vec::with_capacity(cfg.functions);
    let mut means = Vec::with_capacity(cfg.functions);
    let mut offered = 0.0;
    for (i, w) in weights.iter().enumerate() {
        let name = format!("fn-{i:06}");
        let id = interner.intern(&name);
        debug_assert_eq!(id.0 as usize, i);
        let rate = cfg.total_rps * w / total_weight;
        let mean = service_mean(i);
        offered += rate * mean;
        means.push(mean);
        entries.push(FunctionEntry {
            name: name.clone(),
            slo_deadline: cfg.slo_deadline,
            process: Box::new(ScaledShapeTrace::new(
                shapes[i % shapes.len()].clone(),
                rate,
            )),
        });
        functions.push(FedFunction {
            name,
            slo_deadline: cfg.slo_deadline,
            demand: [0.0; 3],
        });
    }
    Ok(Workload {
        entries,
        functions,
        service_means: Arc::from(means.into_boxed_slice()),
        offered_erlangs: offered,
    })
}

fn csv_workload(cfg: &ReplayConfig, text: &str) -> Result<Workload, String> {
    let rows = parse_invocations_csv(text).map_err(|e| e.to_string())?;
    let mut interner = FnInterner::new();
    let mut entries = Vec::new();
    let mut functions = Vec::new();
    let mut means = Vec::new();
    let mut offered = 0.0;
    for row in &rows {
        if cfg.functions > 0 && interner.len() >= cfg.functions {
            break;
        }
        let before = interner.len();
        let id = interner.intern(&row.function);
        if interner.len() == before {
            continue; // duplicate function hash: first row wins
        }
        let counts = sample_window(row, cfg.window_start, cfg.minutes);
        let rate = counts.iter().sum::<u64>() as f64 / (cfg.minutes as f64 * 60.0);
        let mean = service_mean(id.0 as usize);
        offered += rate * mean;
        means.push(mean);
        entries.push(FunctionEntry {
            name: row.function.clone(),
            slo_deadline: cfg.slo_deadline,
            process: Box::new(PerMinuteTrace::new(&counts)) as Box<dyn ArrivalProcess + Send>,
        });
        functions.push(FedFunction {
            name: row.function.clone(),
            slo_deadline: cfg.slo_deadline,
            demand: [0.0; 3],
        });
    }
    if entries.is_empty() {
        return Err("trace contains no functions".into());
    }
    Ok(Workload {
        entries,
        functions,
        service_means: Arc::from(means.into_boxed_slice()),
        offered_erlangs: offered,
    })
}

/// Run one replay to completion and summarize it.
pub fn run_replay(cfg: &ReplayConfig) -> Result<ReplaySummary, String> {
    if cfg.minutes == 0 {
        return Err("need at least one simulated minute".into());
    }
    if cfg.sites == 0 {
        return Err("need at least one site".into());
    }
    if !(cfg.utilization > 0.0 && cfg.utilization < 1.0) {
        return Err(format!(
            "utilization must be in (0, 1), got {}",
            cfg.utilization
        ));
    }
    let workload = match &cfg.csv {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            csv_workload(cfg, &text)?
        }
        None => synthesize_workload(cfg)?,
    };
    let fn_count = workload.entries.len();
    // Capacity plan: enough interchangeable servers to keep utilization
    // at the target, split evenly (the +1 per site absorbs rounding and
    // burst shapes).
    let total_servers = (workload.offered_erlangs / cfg.utilization).ceil() as u32;
    let servers_per_site = (total_servers / cfg.sites as u32).max(1) + 1;
    let site_latency = |i: usize| match cfg.site_latency_ms {
        Some(ms) => SimDuration::from_secs_f64(ms / 1e3),
        // Legacy ladder: site 0 is the zero-latency local pool; remote
        // pools pay a small inbound hop (more calendar traffic).
        None => SimDuration::from_millis(2 * i as u64),
    };
    let sites: Vec<(SiteMeta, CapacityPolicy)> = (0..cfg.sites)
        .map(|i| {
            (
                SiteMeta {
                    name: format!("site{i}"),
                    latency: site_latency(i),
                    capacity_hint: f64::from(servers_per_site),
                },
                CapacityPolicy::new(servers_per_site, workload.service_means.clone()),
            )
        })
        .collect();
    let fed_cfg = FederationConfig {
        hedge: cfg.hedge,
        ..FederationConfig::default()
    };
    let federation = Federation::configured(
        sites,
        cfg.router.build(),
        &workload.functions,
        fed_cfg,
        cfg.seed,
    )?
    .with_streaming_stats();
    let engine_cfg = EngineConfig {
        seed: cfg.seed,
        rng_label_prefix: String::new(),
        duration_secs: cfg.minutes as f64 * 60.0,
        drain_secs: 120.0,
        stream_stats: true,
        parallel_sites: cfg.parallel,
    };
    let wall_start = std::time::Instant::now();
    let mut report: FederatedReport<CapacityReport> =
        run_federation(engine_cfg, workload.entries, federation)?;
    let wall_secs = wall_start.elapsed().as_secs_f64();

    // Aggregate the engine's cross-site per-function statistics.
    let (mut arrivals, mut completed, mut lost, mut timeouts, mut slo_violations) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let (mut hedged, mut cancelled) = (0usize, 0usize);
    let (mut wait_sum, mut response_sum) = (0.0f64, 0.0f64);
    let mut top: (usize, f64) = (0, 0.0); // (arrivals, p95 wait)
    for f in &mut report.aggregate_per_fn {
        arrivals += f.arrivals;
        completed += f.completed;
        lost += f.lost;
        timeouts += f.timeouts;
        slo_violations += f.slo_violations;
        hedged += f.hedged;
        cancelled += f.cancelled;
        if let Some(mean) = f.wait.mean() {
            wait_sum += mean * f.wait.count() as f64;
        }
        if let Some(mean) = f.response.mean() {
            response_sum += mean * f.response.count() as f64;
        }
        if f.arrivals > top.0 {
            top = (f.arrivals, f.wait.percentile(0.95).unwrap_or(0.0));
        }
    }
    let conserved = arrivals == completed + lost + timeouts + report.outstanding;
    let wall_minutes = wall_secs / 60.0;
    Ok(ReplaySummary {
        functions: fn_count,
        minutes: cfg.minutes,
        seed: cfg.seed,
        sites: cfg.sites,
        threads: report.threads,
        router: cfg.router.as_str().to_string(),
        servers_per_site,
        arrivals,
        completed,
        lost,
        timeouts,
        outstanding: report.outstanding,
        conserved,
        mean_wait_ms: if completed > 0 {
            wait_sum / completed as f64 * 1e3
        } else {
            0.0
        },
        mean_response_ms: if completed > 0 {
            response_sum / completed as f64 * 1e3
        } else {
            0.0
        },
        p95_wait_ms_top_fn: top.1 * 1e3,
        slo_violations,
        hedged,
        cancelled,
        wasted_work: report.wasted_work,
        sim_duration_secs: report.duration,
        wall_secs,
        sim_req_per_wall_min: if wall_minutes > 0.0 {
            arrivals as f64 / wall_minutes
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ReplayConfig {
        ReplayConfig {
            functions: 200,
            minutes: 2,
            seed: 7,
            total_rps: 100.0,
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn replay_conserves_and_summarizes() {
        let summary = run_replay(&quick_cfg()).unwrap();
        assert_eq!(summary.functions, 200);
        assert!(summary.arrivals > 5_000, "arrivals={}", summary.arrivals);
        assert!(summary.conserved, "{summary:?}");
        assert!(summary.completed > 0);
        assert_eq!(summary.lost, 0);
        assert!(summary.mean_wait_ms >= 0.0);
        assert!(summary.mean_response_ms >= summary.mean_wait_ms);
        // The summary round-trips through JSON (the CI smoke contract).
        let json = serde_json::to_string(&summary).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj.get("arrivals").and_then(|a| a.as_f64()),
            Some(summary.arrivals as f64)
        );
        assert_eq!(obj.get("conserved"), Some(&serde_json::Value::Bool(true)));
    }

    #[test]
    fn invalid_hedge_config_is_an_error_not_a_panic() {
        let no_clones = HedgeConfig {
            max_clones: 0,
            ..HedgeConfig::default()
        };
        let negative_delay = HedgeConfig {
            trigger: lass_simcore::HedgeTrigger::DeferredMs(-5.0),
            ..HedgeConfig::default()
        };
        for hedge in [no_clones, negative_delay] {
            let cfg = ReplayConfig {
                hedge: Some(hedge),
                ..quick_cfg()
            };
            let err = run_replay(&cfg).expect_err("invalid hedge must be rejected");
            assert!(err.contains("hedge"), "{err}");
        }
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let a = run_replay(&quick_cfg()).unwrap();
        let b = run_replay(&quick_cfg()).unwrap();
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.outstanding, b.outstanding);
        assert_eq!(a.mean_wait_ms, b.mean_wait_ms);
        let mut other = quick_cfg();
        other.seed = 8;
        let c = run_replay(&other).unwrap();
        assert_ne!(a.arrivals, c.arrivals);
    }

    #[test]
    fn parallel_replay_conserves_and_is_thread_count_invariant() {
        let cfg = |threads: usize| ReplayConfig {
            sites: 4,
            parallel: Some(threads),
            site_latency_ms: Some(5.0),
            ..quick_cfg()
        };
        let a = run_replay(&cfg(1)).unwrap();
        let b = run_replay(&cfg(4)).unwrap();
        assert_eq!(a.threads, 1);
        assert_eq!(b.threads, 4);
        assert!(a.conserved, "{a:?}");
        assert!(a.arrivals > 5_000);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.outstanding, b.outstanding);
        assert_eq!(a.mean_wait_ms, b.mean_wait_ms);
        assert_eq!(a.p95_wait_ms_top_fn, b.p95_wait_ms_top_fn);
        // Requesting more workers than sites is clamped by the engine,
        // and the summary reports the clamp, not the request.
        let c = run_replay(&cfg(8)).unwrap();
        assert_eq!(c.threads, 4);
        assert_eq!(a.arrivals, c.arrivals);
        assert_eq!(a.mean_wait_ms, c.mean_wait_ms);
    }

    #[test]
    fn parallel_replay_with_zero_latency_falls_back() {
        // Legacy ladder gives site 0 zero latency → sequential fallback,
        // bit-identical to the plain sequential replay.
        let seq = run_replay(&ReplayConfig {
            sites: 2,
            ..quick_cfg()
        })
        .unwrap();
        let fell_back = run_replay(&ReplayConfig {
            sites: 2,
            parallel: Some(4),
            ..quick_cfg()
        })
        .unwrap();
        assert_eq!(fell_back.threads, 1);
        assert_eq!(seq.arrivals, fell_back.arrivals);
        assert_eq!(seq.completed, fell_back.completed);
        assert_eq!(seq.mean_wait_ms, fell_back.mean_wait_ms);
        assert!(run_replay(&ReplayConfig {
            parallel: Some(0),
            ..quick_cfg()
        })
        .is_err());
    }

    #[test]
    fn csv_workload_interned_and_replayed() {
        let csv = "\
HashOwner,HashApp,HashFunction,Trigger,1,2,3,4,5
o1,a1,alpha,http,60,120,60,60,60
o1,a1,beta,timer,600,600,600,600,600
o1,a1,alpha,http,9,9,9,9,9
";
        let dir = std::env::temp_dir().join("lass-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        std::fs::write(&path, csv).unwrap();
        let cfg = ReplayConfig {
            functions: 0, // no cap
            minutes: 5,
            seed: 3,
            sites: 1,
            csv: Some(path.to_string_lossy().into_owned()),
            ..ReplayConfig::default()
        };
        let summary = run_replay(&cfg).unwrap();
        // The duplicate "alpha" row is dropped by the interner.
        assert_eq!(summary.functions, 2);
        assert!(summary.conserved);
        // ~ (360 + 3000) arrivals over 5 minutes.
        assert!(
            (summary.arrivals as f64 - 3360.0).abs() < 400.0,
            "arrivals={}",
            summary.arrivals
        );
    }

    #[test]
    fn zipf_concentrates_load_on_head_functions() {
        let w = synthesize_workload(&ReplayConfig {
            functions: 100,
            minutes: 1,
            total_rps: 100.0,
            ..ReplayConfig::default()
        })
        .unwrap();
        assert_eq!(w.entries.len(), 100);
        assert!(w.offered_erlangs > 0.0);
        // Head function carries more than 10% of a 100-fn Zipf(1.1) load.
        let head = &w.entries[0];
        assert_eq!(head.name, "fn-000000");
    }
}
