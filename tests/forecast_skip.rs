//! On-demand forecasts: under oracle routing the federation evaluates
//! each site's M/M/c wait forecast only when someone reads it — a
//! router whose `RouterPolicy::reads_forecast` is `true`, or the hedge
//! trigger.
//!
//! Two families:
//!
//! * **Declaration soundness** — every shipped router yields the same
//!   report bytes whether its declaration is honoured or overridden to
//!   "reads the forecast" (so the forecast is always evaluated), on the
//!   sequential driver and on the parallel one. A router that reads the
//!   forecast but declares `false` would route on the "no model"
//!   default and diverge.
//! * **Skip tripwire** — spy routers record what they see: a router
//!   declaring `false` never sees a model without hedging and sees
//!   models again with hedging on; a router declaring `true` sees them
//!   once telemetry has accumulated. This pins the saving, so the
//!   per-decision Erlang-C cannot silently return for routers that
//!   never read it.

use lass::simcore::{
    run_federation, ChaosConfig, ContainerChaos, EngineConfig, EngineOutcome, Fault, FedFunction,
    FederatedReport, Federation, FederationConfig, FnStats, FunctionEntry, HedgeConfig,
    HedgeTrigger, PolicyCtx, ReqId, RouterKind, RouterPolicy, SchedulerPolicy, SimDuration,
    SimTime, SiteMeta, SiteState, StaticPoisson,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A `c`-server FCFS site with exponential service drawn from the
/// engine's service streams. Its warm census is the number of servers
/// busy with each function, so the warm census the cold-start penalty
/// reads and the fleet behind the forecast's server count both move
/// during the run.
struct Pool {
    servers: usize,
    mean: f64,
    busy: Vec<u64>,
    queue: VecDeque<(ReqId, u32)>,
}

impl Pool {
    fn new(servers: usize, mean: f64) -> Self {
        Self {
            servers,
            mean,
            busy: vec![0; RATES.len()],
            queue: VecDeque::new(),
        }
    }

    fn start(&mut self, ctx: &mut impl PolicyCtx<PoolEv>, rid: ReqId, fn_idx: u32, now: SimTime) {
        self.busy[fn_idx as usize] += 1;
        let s = ctx.service_rng(fn_idx).exp(1.0 / self.mean);
        ctx.schedule(
            now + SimDuration::from_secs_f64(s),
            PoolEv::Done(rid, fn_idx, now),
        );
    }
}

enum PoolEv {
    /// `(request, function, service start)`.
    Done(ReqId, u32, SimTime),
}

impl SchedulerPolicy for Pool {
    type Event = PoolEv;
    type Report = Vec<FnStats>;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<PoolEv>) {}

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<PoolEv>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        if self.busy.iter().sum::<u64>() < self.servers as u64 {
            self.start(ctx, rid, fn_idx, now);
        } else {
            self.queue.push_back((rid, fn_idx));
        }
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<PoolEv>, ev: PoolEv, now: SimTime) {
        let PoolEv::Done(rid, fn_idx, started) = ev;
        ctx.complete(rid, started, now);
        self.busy[fn_idx as usize] -= 1;
        if let Some((next, f)) = self.queue.pop_front() {
            self.start(ctx, next, f, now);
        }
    }

    fn finish(self, outcome: EngineOutcome) -> Vec<FnStats> {
        outcome.per_fn
    }
}

impl ContainerChaos for Pool {
    fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.busy.get(fn_idx as usize).copied().unwrap_or(0)
    }
}

/// Per-function arrival rates (req/s): together about 0.8 of the
/// fleet's capacity, so queues form and the forecasts separate sites.
const RATES: [f64; 3] = [30.0, 20.0, 10.0];
const MEAN_SERVICE: f64 = 0.1;
/// `(latency ms, servers)` per site: a small near site, a mid site and
/// a large far one.
const SITES: [(f64, usize); 3] = [(2.0, 2), (8.0, 3), (30.0, 4)];
const SEED: u64 = 7;

fn fed_functions() -> Vec<FedFunction> {
    (0..RATES.len())
        .map(|f| FedFunction {
            name: format!("f{f}"),
            slo_deadline: 0.5,
            demand: [0.0; 3],
        })
        .collect()
}

fn entries() -> Vec<FunctionEntry> {
    RATES
        .iter()
        .enumerate()
        .map(|(f, &rate)| FunctionEntry {
            name: format!("f{f}"),
            slo_deadline: 0.5,
            process: Box::new(StaticPoisson::until(rate, SimTime::from_secs(60))),
        })
        .collect()
}

fn federation(
    router: Box<dyn RouterPolicy + Send>,
    hedge: Option<HedgeConfig>,
) -> Federation<Pool> {
    let sites = SITES
        .iter()
        .enumerate()
        .map(|(i, &(ms, servers))| {
            let meta = SiteMeta {
                name: format!("s{i}"),
                latency: SimDuration::from_secs_f64(ms / 1000.0),
                capacity_hint: servers as f64,
            };
            (meta, Pool::new(servers, MEAN_SERVICE))
        })
        .collect();
    let cfg = FederationConfig {
        hedge,
        ..FederationConfig::default()
    };
    Federation::configured(sites, router, &fed_functions(), cfg, 0)
        .expect("valid config")
        .with_rebuild(Box::new(|i, _| Pool::new(SITES[i].1, MEAN_SERVICE)))
}

/// The near site crashes for ten seconds: the failure-aware router's
/// flakiness column and the migration path both get exercised.
fn outage() -> ChaosConfig {
    ChaosConfig {
        events: vec![
            (20.0, Fault::SiteDown { site: 0 }),
            (30.0, Fault::SiteUp { site: 0 }),
        ],
        ..ChaosConfig::default()
    }
}

/// Run `fed` on the sequential driver (`threads: None`) or the parallel
/// one.
fn run(fed: Federation<Pool>, threads: Option<usize>) -> FederatedReport<Vec<FnStats>> {
    let cfg = EngineConfig {
        seed: SEED,
        parallel_sites: threads,
        ..EngineConfig::default()
    };
    let fed = fed.with_chaos(outage(), SEED).expect("valid chaos");
    run_federation(cfg, entries(), fed).expect("runs")
}

fn report_json(rep: &FederatedReport<Vec<FnStats>>) -> String {
    serde_json::to_string(rep).expect("serializes")
}

/// Forwards to a shipped router but claims to read the forecast, so the
/// federation evaluates it on every decision.
struct ReadsForecast(Box<dyn RouterPolicy + Send>);

impl RouterPolicy for ReadsForecast {
    fn route(&mut self, fn_idx: u32, now: SimTime, sites: &[SiteState]) -> usize {
        self.0.route(fn_idx, now, sites)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[test]
fn every_router_declares_its_forecast_reads_soundly() {
    for kind in RouterKind::ALL {
        for threads in [None, Some(2)] {
            let declared = report_json(&run(federation(kind.build(), None), threads));
            let evaluated = report_json(&run(
                federation(Box::new(ReadsForecast(kind.build())), None),
                threads,
            ));
            assert!(
                declared == evaluated,
                "{} (threads {threads:?}) routes differently when the forecast is \
                 always evaluated: its reads_forecast() declaration is unsound",
                kind.as_str()
            );
        }
    }
}

/// Decision counts a [`Spy`] shares with the test.
#[derive(Default)]
struct Seen {
    decisions: AtomicUsize,
    /// Decisions where at least one site carried an evaluated model.
    with_model: AtomicUsize,
}

/// Joins the shortest queue and records whether any site's forecast
/// carries a model; declares `reads` as its forecast use.
struct Spy {
    reads: bool,
    seen: Arc<Seen>,
}

impl RouterPolicy for Spy {
    fn route(&mut self, _fn_idx: u32, _now: SimTime, sites: &[SiteState]) -> usize {
        self.seen.decisions.fetch_add(1, Ordering::Relaxed);
        if sites.iter().any(|s| s.forecast.has_model()) {
            self.seen.with_model.fetch_add(1, Ordering::Relaxed);
        }
        (0..sites.len())
            .filter(|&i| sites[i].up)
            .min_by_key(|&i| sites[i].in_flight)
            .expect("some site is up")
    }

    fn name(&self) -> &'static str {
        "spy"
    }

    fn reads_forecast(&self) -> bool {
        self.reads
    }
}

/// Run a spy declaring `reads` and return `(decisions, with_model)`.
fn spy(reads: bool, hedge: bool, threads: Option<usize>) -> (usize, usize) {
    let seen = Arc::new(Seen::default());
    let hedge = hedge.then_some(HedgeConfig {
        trigger: HedgeTrigger::DeferredMs(200.0),
        ..HedgeConfig::default()
    });
    let spy = Spy {
        reads,
        seen: Arc::clone(&seen),
    };
    let fed = federation(Box::new(spy), hedge);
    run(fed, threads);
    (
        seen.decisions.load(Ordering::Relaxed),
        seen.with_model.load(Ordering::Relaxed),
    )
}

#[test]
fn oracle_refresh_skips_the_forecast_nobody_reads() {
    for threads in [None, Some(2)] {
        let (decisions, with_model) = spy(false, false, threads);
        assert!(decisions > 3000, "too few decisions: {decisions}");
        assert_eq!(
            with_model, 0,
            "threads {threads:?}: a router declaring reads_forecast() == false \
             saw an evaluated forecast"
        );

        let (decisions, with_model) = spy(true, false, threads);
        assert!(
            with_model * 10 > decisions * 9,
            "threads {threads:?}: a forecast-reading router saw models on only \
             {with_model} of {decisions} decisions"
        );

        // Hedging scores the runner-up by forecast, so the refresh
        // evaluates it whatever the router declares.
        let (decisions, with_model) = spy(false, true, threads);
        assert!(
            with_model * 10 > decisions * 9,
            "threads {threads:?}: with hedging on, only {with_model} of \
             {decisions} decisions carried models"
        );
    }
}
