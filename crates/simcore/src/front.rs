//! The router-facing half of a federated run, shared by both drivers.
//!
//! A federation is a router in front of many sites. Everything the
//! router side knows and decides lives here, once: the per-site
//! commitment counters and fault flags, the λ̂/μ̂ predictors and health
//! EWMAs, the routing refresh and pick, the delayed-telemetry publish /
//! arrive / directive steps, the hedge race, the front half of fault
//! handling and migration, and the router's half of the per-site report.
//!
//! The two drivers differ only in transport. The sequential
//! [`Federation`](crate::federation::Federation) carries requests and
//! telemetry over the engine calendar and reads each site's census
//! straight off its scheduler; the windowed
//! [`run_federation_parallel`](crate::parallel::run_federation_parallel)
//! carries them over its own front calendar and per-site inboxes and
//! reads the census from the shards parked between windows. Each driver hands
//! the front end a census closure (statically dispatched — the refresh
//! runs once per routing decision) and acts on what the front end
//! returns.
//!
//! Oracle routing is the zero-age view: the site columns come from the
//! live census and the live predictor and health. With delayed telemetry
//! they come from the last snapshot that arrived. Either way one loop
//! fills the router's [`SiteState`]s and one pick consults the router.
//! The oracle forecast column — an M/M/c evaluation per site, the bulk
//! of a refresh — is filled only when someone reads it: a router whose
//! [`RouterPolicy::reads_forecast`] is `true`, or the hedge trigger.
//!
//! # The hedge race
//!
//! One ledger here keeps every open hedge race and decides it; the
//! drivers only carry the clones, cancels and timers it asks for. A race
//! opens after the pick ([`Front::open_race`]) and may clone again when
//! its timer fires ([`Front::fire_race`]), where a retry also abandons
//! the primary. The first terminal outcome the driver reports wins
//! ([`Front::settle`]); later ones, and an abandoned copy's, are wasted
//! work. On a site failure only the last racing copy of an unresolved
//! race moves ([`Front::migrate`]), never to the site a retry abandoned
//! (its scheduler may still run the abandoned copy), and a delivery
//! that arrives after its race resolved is eaten at the door
//! ([`Front::door`]). A resolved race stays until every loser reached
//! its terminal event, so these verdicts hold for copies still in
//! flight.

use crate::chaos::{ContainerChaos, Fault};
use crate::engine::FnStats;
use crate::federation::{
    FedFunction, FederatedReport, FederationConfig, HedgeTrigger, SiteMeta, SiteReport,
};
use crate::metrics::DowntimeClock;
use crate::router::{predicted_score, ResourceSnapshot, RouterConfig, RouterPolicy, SiteState};
use crate::telemetry::{
    TelemetryConfig, TelemetryRuntime, TelemetrySnapshot, UtilizationReconciler,
};
use crate::time::{SimDuration, SimTime};
use lass_queueing::{EvaluatedForecast, ForecastCache, HealthEwma, WaitPredictor};
use std::collections::BTreeMap;

/// The router's bookkeeping for one site.
pub(crate) struct RouterSite {
    pub(crate) meta: SiteMeta,
    /// Requests the router sent to this site (delivered or in transit).
    routed: usize,
    /// Requests that finished at this site (completed, abandoned, lost,
    /// cancelled, or migrated away). `routed - finished` is the router's
    /// view of the site's commitment: it includes requests still in
    /// transit, which the front end knows it dispatched even though the
    /// site hasn't seen them yet — otherwise a burst shorter than the
    /// network hop would herd entirely onto a high-latency site before
    /// any delivery moves its visible load.
    pub(crate) finished: usize,
    /// Whether the site is alive (not crashed).
    up: bool,
    /// Whether the router↔site link is currently cut.
    pub(crate) partitioned: bool,
    /// Whether a [`Fault::SiteSlowdown`] brown-out is active: the site
    /// keeps serving (and stays routable), but the health EWMA sees it
    /// as degraded so the failure-aware router browns it out.
    slowed: bool,
    /// The site crashed and its scheduler must be rebuilt on recovery.
    needs_rebuild: bool,
    /// Completed crash/rebuild cycles (labels the replacement policy).
    pub(crate) restarts: u32,
    /// Requests migrated away from this site (orphans of a crash plus
    /// in-transit bounces off a dead or partitioned site).
    migrated_out: usize,
    /// Migrated requests this site accepted from a failing site.
    migrated_in: usize,
    /// Requests committed to this site that could not be migrated
    /// anywhere (engine-level lost).
    failed: usize,
    /// Total time the site was unroutable (crashed or partitioned).
    downtime: DowntimeClock,
    /// Online λ̂/μ̂ telemetry feeding the model-driven routers'
    /// forecasts. Observe-only: fed for every run, read only when the
    /// router or the hedge trigger scores forecasts, or a snapshot is
    /// published.
    pub(crate) predictor: WaitPredictor,
    /// Memoized M/M/c evaluation of the predictor's forecast, keyed by
    /// its value `(λ̂, μ̂, server count)`: the refresh re-evaluates the
    /// model only when an estimate or the fleet changed — under load,
    /// after every completion.
    fcache: ForecastCache,
    /// Downtime EWMA behind the failure-aware router's flakiness score.
    pub(crate) health: HealthEwma,
    /// Hedge clones that ran to completion here after their sibling had
    /// already answered: work nobody was waiting for.
    wasted: usize,
    /// Service seconds burned by those wasted completions.
    wasted_secs: f64,
}

impl RouterSite {
    fn new(meta: SiteMeta, cfg: &RouterConfig) -> Self {
        Self {
            meta,
            routed: 0,
            finished: 0,
            up: true,
            partitioned: false,
            slowed: false,
            needs_rebuild: false,
            restarts: 0,
            migrated_out: 0,
            migrated_in: 0,
            failed: 0,
            downtime: DowntimeClock::new(),
            predictor: WaitPredictor::new(cfg.predictor()),
            fcache: ForecastCache::new(),
            health: HealthEwma::new(cfg.health_tick_secs, cfg.health_alpha),
            wasted: 0,
            wasted_secs: 0.0,
        }
    }

    /// Whether the router may send arrivals here right now.
    pub(crate) fn routable(&self) -> bool {
        self.up && !self.partitioned
    }

    /// Count one wasted completion of `secs` service.
    pub(crate) fn waste(&mut self, secs: f64) {
        self.wasted += 1;
        self.wasted_secs += secs;
    }

    /// Feed the health EWMA the site's current condition at `t`. A
    /// browned-out (slowed) site counts as degraded even though it
    /// stays routable.
    fn observe_health(&mut self, t: f64) {
        self.health.observe(t, self.slowed || !self.routable());
    }

    /// Model server count: the predictor's λ̂/μ̂ are site-wide (all
    /// functions pooled), so the matching `c` is the site-wide warm
    /// fleet, falling back to the static hint while nothing is warm
    /// (cold start, or a site policy without a census).
    fn servers(&self, fleet: u64) -> u32 {
        if fleet > 0 {
            fleet.min(u64::from(u32::MAX)) as u32
        } else {
            self.meta.capacity_hint.round().max(1.0) as u32
        }
    }

    /// Close the downtime clock transition after routability may have
    /// changed. The flakiness EWMA sees the true instant; the clock is
    /// clamped to the nominal end of the run, so a recovery during the
    /// drain closes its interval at `end` instead of spilling into the
    /// report.
    fn clock_routability(&mut self, now: SimTime, end: SimTime) {
        self.observe_health(now.as_secs_f64());
        let now = now.min(end);
        if self.routable() {
            self.downtime.mark_up(now);
        } else {
            self.downtime.mark_down(now);
        }
    }
}

/// A site's live census for one routing decision.
pub(crate) struct Census {
    /// Warm containers for the routed function.
    pub(crate) warm: u64,
    /// Warm containers across every function (the model's servers).
    pub(crate) fleet: u64,
    /// The site's per-dimension capacity picture.
    pub(crate) resources: ResourceSnapshot,
}

impl Census {
    /// The live census of a site's scheduler for routing `fn_idx`, with
    /// `n_fns` functions registered.
    pub(crate) fn of(site: &impl ContainerChaos, fn_idx: u32, n_fns: usize) -> Self {
        Self {
            warm: site.warm_containers(fn_idx),
            fleet: (0..n_fns as u32).map(|f| site.warm_containers(f)).sum(),
            resources: site.resource_snapshot(),
        }
    }
}

/// The site-side work a fault leaves to the driver once the front end
/// has flipped its flags and clocks.
pub(crate) enum SiteWork {
    /// The site crashed: drop its incarnation and migrate its orphans.
    Evacuate,
    /// A crashed site recovered: rebuild it with this restart count.
    Rebuild(u32),
    /// The router↔site link was cut.
    PartitionStart,
    /// The link healed: release the held-back responses.
    PartitionEnd,
    /// Scale the site's service speed by this factor.
    Slow(f64),
    /// Crash up to this many containers.
    Burst(u32),
}

/// What opening a hedge race does right away: send clones already
/// committed to these sites, or arm a timer at this instant and hand
/// its token to [`Front::arm_race`].
pub(crate) enum HedgeStep {
    Clone(Vec<usize>),
    Arm(SimTime),
}

/// A fired timer's clones to send (they inherit the front-door
/// `arrival`), and what to cancel: the primary a retry abandoned.
pub(crate) struct Fired {
    pub(crate) arrival: SimTime,
    pub(crate) clones: Vec<usize>,
    pub(crate) cancel: Cancel,
}

/// What the driver cancels: the copies at these sites, and the pending
/// timer.
#[derive(Default)]
pub(crate) struct Cancel {
    pub(crate) copies: Vec<u32>,
    pub(crate) timer: Option<u64>,
}

/// Where a copy on a failing site goes: nowhere (it dies), nowhere
/// because no site is routable (the request fails, settling its race),
/// or to a site after a hop.
pub(crate) enum Migration {
    Dies,
    Fails(Cancel),
    Moves(usize, SimDuration),
}

/// One logical request's hedge race.
#[derive(Default)]
struct Race {
    /// Sites holding or about to receive a racing copy; primary first.
    copies: Vec<u32>,
    /// Token of the pending deferred trigger or retry deadline.
    fire: Option<u64>,
    resolved: bool,
    /// The site whose copy a retry abandoned: its outcome never wins,
    /// and no copy of the request goes there again. A site books one
    /// copy of a request, and its scheduler may run the abandoned copy
    /// long after the cancel released it from the books.
    abandoned: Option<u32>,
    /// Sites still booking an abandoned or losing copy. A site books
    /// one copy of a request, so a copy leaving a site settles what is
    /// owed there; a resolved race owed nothing is dropped.
    owed: Vec<u32>,
    /// The front-door arrival, which every copy inherits.
    arrival: SimTime,
}

/// The router's view of a site before any telemetry.
fn blank_state(meta: &SiteMeta) -> SiteState {
    SiteState {
        name: meta.name.clone(),
        latency: meta.latency,
        capacity_hint: meta.capacity_hint,
        in_flight: 0,
        up: true,
        forecast: EvaluatedForecast::default(),
        flakiness: 0.0,
        warm: 0,
        resources: ResourceSnapshot::default(),
        fits: f64::INFINITY,
    }
}

/// The router-facing state of a federated run.
pub(crate) struct Front {
    pub(crate) sites: Vec<RouterSite>,
    router: Box<dyn RouterPolicy + Send>,
    /// Scratch router view, refreshed per decision.
    pub(crate) states: Vec<SiteState>,
    /// The configuration the front end was built under.
    pub(crate) cfg: FederationConfig,
    /// Delayed-telemetry propagation state; disabled (zero interval)
    /// means oracle routing.
    pub(crate) telemetry: TelemetryRuntime,
    /// The scaling reconciler fed each snapshot as it arrives, if any.
    reconciler: Option<UtilizationReconciler>,
    /// Arrivals dropped because no site was routable.
    pub(crate) unroutable: usize,
    /// Per-function demand vectors in registration order (the planner
    /// router's fit denominators).
    fn_demands: Vec<[f64; 3]>,
    /// Logical completions so far: the waste budget's denominator.
    pub(crate) completed: usize,
    /// Open hedge races by logical request id (empty unless hedging).
    races: BTreeMap<u64, Race>,
}

impl Front {
    /// The front end of `metas`, fronted by `router`, under `cfg` (which
    /// the caller validated); `seed` labels the telemetry streams.
    pub(crate) fn new(
        metas: Vec<SiteMeta>,
        router: Box<dyn RouterPolicy + Send>,
        functions: &[FedFunction],
        cfg: FederationConfig,
        seed: u64,
    ) -> Self {
        let states = metas.iter().map(blank_state).collect();
        let mut front = Self {
            sites: metas
                .into_iter()
                .map(|m| RouterSite::new(m, &cfg.router))
                .collect(),
            router,
            states,
            cfg,
            telemetry: TelemetryRuntime::default(),
            reconciler: cfg.reconciler_target.map(UtilizationReconciler::new),
            unroutable: 0,
            fn_demands: functions.iter().map(|f| f.demand).collect(),
            completed: 0,
            races: BTreeMap::new(),
        };
        front.set_telemetry(cfg.telemetry, seed);
        front
    }

    /// Run under telemetry `cfg` (valid), with streams labelled off
    /// `seed`.
    pub(crate) fn set_telemetry(&mut self, cfg: TelemetryConfig, seed: u64) {
        self.cfg.telemetry = cfg;
        let names: Vec<String> = self.sites.iter().map(|s| s.meta.name.clone()).collect();
        self.telemetry = TelemetryRuntime::new(cfg, seed, &names, self.fn_demands.len());
    }

    /// Whether any site can take traffic right now.
    pub(crate) fn any_routable(&self) -> bool {
        self.sites.iter().any(RouterSite::routable)
    }

    /// The first site other than `avoid` that can take traffic.
    fn first_routable(&self, avoid: Option<usize>) -> Option<usize> {
        (0..self.sites.len()).find(|&i| self.sites[i].routable() && Some(i) != avoid)
    }

    /// Refresh the router's scratch view for routing `fn_idx` at `now`.
    /// The commitment counter is always live (the front end counts what
    /// it dispatched itself). The site-side columns — reachability,
    /// forecast, flakiness, warm census, resources — come from `census`
    /// plus the live predictor and health under oracle routing, and
    /// from the last *arrived* snapshot under delayed telemetry, however
    /// old. Pure bookkeeping — no randomness, no events — so routers
    /// that ignore a column replay their decisions exactly.
    ///
    /// Under oracle routing the forecast column is the expensive one:
    /// every completion moves μ̂, so the [`ForecastCache`] misses on
    /// nearly every decision and re-runs an O(c) Erlang-C per site. It
    /// is evaluated only when the router [reads
    /// it](RouterPolicy::reads_forecast) or hedging is on; otherwise
    /// the column stays at the "no model" default, never a stale value.
    pub(crate) fn refresh<C: FnMut(usize) -> Census>(
        &mut self,
        fn_idx: u32,
        now: SimTime,
        mut census: C,
    ) {
        let t = now.as_secs_f64();
        let stale = self.telemetry.enabled();
        // The hedge trigger and runner-up ranking score forecasts too.
        let forecast = self.cfg.hedge.is_some() || self.router.reads_forecast();
        let demand = self
            .fn_demands
            .get(fn_idx as usize)
            .copied()
            .unwrap_or_default();
        for (i, (site, state)) in self.sites.iter_mut().zip(&mut self.states).enumerate() {
            state.in_flight = site.routed.saturating_sub(site.finished) as u64;
            if stale {
                let view = &self.telemetry.views[i];
                state.up = self.telemetry.view_up(i, site.meta.latency, now);
                state.forecast = view.forecast;
                state.flakiness = view.flakiness;
                state.warm = view.warm.get(fn_idx as usize).copied().unwrap_or(0);
                state.resources = view.resources;
            } else {
                let c = census(i);
                state.up = site.routable();
                site.observe_health(t);
                state.flakiness = site.health.value();
                state.warm = c.warm;
                state.resources = c.resources;
                // Evaluate only for a reader. Skipping also skips the
                // predictor's advance; the dispatch's `commit` advances
                // the chosen site's predictor anyway.
                state.forecast = if forecast {
                    let servers = site.servers(c.fleet);
                    site.fcache.evaluate(site.predictor.forecast(t, servers))
                } else {
                    EvaluatedForecast::default()
                };
            }
            state.fits = state.resources.fit_count(demand);
        }
    }

    /// Route `fn_idx` at `now` (an arrival or a migrated orphan) and
    /// return the chosen site. The caller checked that some site is
    /// routable. The router's contract is judged against its own view:
    /// it must never pick a view-down site. Under oracle routing the
    /// view is the truth; under delayed telemetry a view-up site may
    /// still be physically dead and the delivery will bounce. When the
    /// view marks every site down the front end routes blind to the
    /// first physically routable site rather than shedding traffic its
    /// own counters can't justify dropping. Site `avoid` is never
    /// picked; the caller checked that another one is routable.
    pub(crate) fn pick<C: FnMut(usize) -> Census>(
        &mut self,
        fn_idx: u32,
        now: SimTime,
        census: C,
        avoid: Option<usize>,
    ) -> usize {
        self.refresh(fn_idx, now, census);
        if let Some(a) = avoid {
            self.states[a].up = false;
        }
        let Some(fallback) = self.states.iter().position(|s| s.up) else {
            return self
                .first_routable(avoid)
                .expect("caller checked a routable site exists");
        };
        let chosen = self.router.route(fn_idx, now, &self.states);
        let ok = chosen < self.states.len() && self.states[chosen].up;
        debug_assert!(ok, "router returned view-down site {chosen}");
        if ok {
            chosen
        } else {
            fallback
        }
    }

    /// Book a request dispatched to `site` at `now`: the commitment
    /// counter and the site's λ̂.
    pub(crate) fn commit(&mut self, site: usize, now: SimTime) {
        self.sites[site].routed += 1;
        self.sites[site].predictor.on_arrival(now.as_secs_f64());
    }

    /// Book a logical completion at `site`: its service time feeds μ̂.
    /// (A partition-stalled completion's service absorbs the stall — the
    /// predictor sees the same degraded rate the front end observes.)
    pub(crate) fn record_completion(&mut self, site: usize, service: f64) {
        let s = &mut self.sites[site];
        s.predictor.on_service(service);
        s.finished += 1;
        self.completed += 1;
    }

    /// Whether the waste-admission budget permits another clone or
    /// retry: the fraction of wasted completions among finished work
    /// must stay under `waste_budget` (`0` = unlimited).
    fn hedge_within_budget(&self) -> bool {
        let Some(cfg) = self.cfg.hedge else {
            return false;
        };
        if cfg.waste_budget <= 0.0 {
            return true;
        }
        let wasted: usize = self.sites.iter().map(|s| s.wasted).sum();
        wasted == 0 || (wasted as f64) < cfg.waste_budget * ((self.completed + wasted) as f64)
    }

    /// The best-scored view-up site not in `copies` — the next hedge
    /// clone's destination. Ranks by the predicted score the model
    /// routers use but never touches the router itself, so the primary
    /// decision stream is unperturbed. Assumes the states are fresh.
    fn runner_up(&self, copies: &[u32]) -> Option<usize> {
        let pct = self.cfg.router.percentile;
        let cold = self.cfg.router.cold_start_penalty_ms / 1e3;
        let mut best: Option<(f64, usize)> = None;
        for (i, s) in self.states.iter().enumerate() {
            if !s.up || copies.contains(&(i as u32)) {
                continue;
            }
            let score = predicted_score(s, pct, cold);
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Open the race of `rid`, just routed to `primary` at `now` (states
    /// fresh from the pick). A retry deadline or deferred trigger arms a
    /// timer; an immediate trigger clones now, as does the predicted-p95
    /// one when the primary is predicted to miss the SLO — both only
    /// within the waste budget. `None`: no race.
    pub(crate) fn open_race(
        &mut self,
        rid: u64,
        primary: usize,
        now: SimTime,
    ) -> Option<HedgeStep> {
        let cfg = self.cfg.hedge?;
        let race = Race {
            copies: vec![primary as u32],
            arrival: now,
            ..Race::default()
        };
        let deadline_ms = match cfg.trigger {
            _ if cfg.retry_after_ms > 0.0 => cfg.retry_after_ms,
            HedgeTrigger::DeferredMs(ms) => ms,
            HedgeTrigger::Immediate | HedgeTrigger::PredictedP95OverSlo => {
                let rc = &self.cfg.router;
                let late = cfg.trigger == HedgeTrigger::Immediate
                    || predicted_score(
                        &self.states[primary],
                        rc.percentile,
                        rc.cold_start_penalty_ms / 1e3,
                    ) > rc.slo_ms / 1e3;
                return (late && self.hedge_within_budget())
                    .then(|| HedgeStep::Clone(self.clone_race(rid, race, now)));
            }
        };
        self.races.insert(rid, race);
        Some(HedgeStep::Arm(
            now + SimDuration::from_secs_f64(deadline_ms / 1e3),
        ))
    }

    /// Record the token of the timer [`HedgeStep::Arm`] asked for
    /// (`None` if the calendar cannot cancel it).
    pub(crate) fn arm_race(&mut self, rid: u64, token: Option<u64>) {
        if let Some(race) = self.races.get_mut(&rid) {
            race.fire = token;
        }
    }

    /// Commit up to `max_clones` clones of `race` to the runner-up sites
    /// and return them. A race with one copy and no timer dissolves.
    fn clone_race(&mut self, rid: u64, mut race: Race, now: SimTime) -> Vec<usize> {
        let mut clones = Vec::new();
        for _ in 0..self.cfg.hedge.map_or(0, |cfg| cfg.max_clones) {
            let Some(c) = self.runner_up(&race.copies) else {
                break;
            };
            race.copies.push(c as u32);
            self.commit(c, now);
            clones.push(c);
        }
        if race.copies.len() > 1 || race.fire.is_some() {
            self.races.insert(rid, race);
        }
        clones
    }

    /// The timer of `rid` fires at `now`. An unresolved race clones from
    /// a fresh view for `fn_idx`, within the waste budget (over it, the
    /// race dissolves). A retry then abandons the primary: a late answer
    /// from it is wasted work, not a win.
    pub(crate) fn fire_race<C: FnMut(usize) -> Census>(
        &mut self,
        rid: u64,
        fn_idx: u32,
        now: SimTime,
        census: C,
    ) -> Option<Fired> {
        self.races.get(&rid).filter(|race| !race.resolved)?;
        let mut race = self.races.remove(&rid)?;
        race.fire = None;
        let (primary, arrival) = (race.copies[0], race.arrival);
        if !self.hedge_within_budget() {
            return None;
        }
        self.refresh(fn_idx, now, census);
        let clones = self.clone_race(rid, race, now);
        let retry = self.cfg.hedge.is_some_and(|cfg| cfg.retry_after_ms > 0.0);
        let mut cancel = Cancel::default();
        if let Some(race) = self.races.get_mut(&rid) {
            if retry && race.copies.len() > 1 && race.copies[0] == primary {
                race.copies.remove(0);
                race.abandoned = Some(primary);
                race.owed.push(primary);
                cancel.copies.push(primary);
            }
        }
        Some(Fired {
            arrival,
            clones,
            cancel,
        })
    }

    /// Settle a terminal outcome of `rid` at `site`, in the order the
    /// driver observes them. The first wins: the race resolves and hands
    /// back its other copies and its timer to cancel. A later outcome,
    /// or an abandoned copy's, loses (`None`). A request without a race
    /// wins with nothing to cancel.
    pub(crate) fn settle(&mut self, rid: u64, site: u32) -> Option<Cancel> {
        let Some(race) = self.races.get_mut(&rid) else {
            return Some(Cancel::default());
        };
        if race.resolved || race.abandoned == Some(site) {
            self.loser_settled(rid, site);
            return None;
        }
        race.resolved = true;
        let mut losers = std::mem::take(&mut race.copies);
        losers.retain(|&s| s != site);
        race.owed.retain(|&s| s != site);
        race.owed.extend_from_slice(&losers);
        let timer = race.fire.take();
        if race.owed.is_empty() {
            self.races.remove(&rid);
        }
        Some(Cancel {
            copies: losers,
            timer,
        })
    }

    /// Whether the copy of `rid` at failing site `from` dies instead of
    /// migrating: an abandoned copy, a copy with a sibling racing
    /// elsewhere, or one whose race is won — an orphaned copy must never
    /// resurrect a request that was answered or given up on.
    fn race_dies(&mut self, rid: u64, from: u32) -> bool {
        let Some(race) = self.races.get_mut(&rid) else {
            return false;
        };
        if race.resolved || race.abandoned == Some(from) {
            self.loser_settled(rid, from);
            return true;
        }
        let sibling = race.copies.len() > 1;
        if sibling {
            race.copies.retain(|&s| s != from);
        }
        sibling
    }

    /// Whether a delivery of `rid` reaching `site` is eaten at the door
    /// because its race resolved while the copy crossed the network. An
    /// eaten copy never enters the site.
    pub(crate) fn door(&mut self, rid: u64, site: u32) -> bool {
        if !self.races.get(&rid).is_some_and(|race| race.resolved) {
            return false;
        }
        self.sites[site as usize].finished += 1;
        self.loser_settled(rid, site);
        true
    }

    /// The losing or abandoned copy of `rid` at `site` reached its
    /// terminal event (a cancel released it, it lost, died or was eaten
    /// at the door). A resolved race owed nothing more is dropped.
    pub(crate) fn loser_settled(&mut self, rid: u64, site: u32) {
        let Some(race) = self.races.get_mut(&rid) else {
            return;
        };
        race.owed.retain(|&s| s != site);
        if race.resolved && race.owed.is_empty() {
            self.races.remove(&rid);
        }
    }

    /// A delivery bounced off dark site `i`. Under delayed telemetry the
    /// bounce doubles as passive failure detection: the view marks the
    /// site down long before its snapshots age out (which also bounds
    /// the inline zero-hop migrate recursion — each dark site is marked
    /// down at most once per outage).
    pub(crate) fn bounce(&mut self, i: usize) {
        if self.telemetry.enabled() {
            self.telemetry.mark_down(i);
        }
    }

    /// Site `i`'s node agent publishes at `now`. Returns the next
    /// publish instant — one jitter draw per grid slot whatever the
    /// site's fate, so the schedule is identical across fault histories
    /// and thread counts — and the snapshot with its arrival instant,
    /// unless the site is dead or the snapshot is lost (cut link or
    /// background loss). The snapshot censuses the site's scheduler
    /// `policy`: its warm counts per function and its resource picture.
    pub(crate) fn publish(
        &mut self,
        i: usize,
        now: SimTime,
        policy: &impl ContainerChaos,
    ) -> (SimTime, Option<(SimTime, TelemetrySnapshot)>) {
        let next = self.telemetry.next_publish(i);
        // Drawn before the fate checks so the stream position is the
        // same whether or not the site is down this slot.
        let lost_in_transit = self.telemetry.publish_lost(i);
        let site = &mut self.sites[i];
        if lost_in_transit
            || !site.up
            || (site.partitioned && self.telemetry.cfg.loss_under_partition)
        {
            return (next, None);
        }
        let n_fns = self.fn_demands.len() as u32;
        let warm: Vec<u64> = (0..n_fns).map(|f| policy.warm_containers(f)).collect();
        let t = now.as_secs_f64();
        let servers = site.servers(warm.iter().sum());
        site.observe_health(t);
        let snap = TelemetrySnapshot {
            published_at: now,
            forecast: site.predictor.forecast(t, servers),
            flakiness: site.health.value(),
            warm,
            resources: policy.resource_snapshot(),
        };
        (next, Some((now + site.meta.latency, snap)))
    }

    /// Site `i`'s snapshot reaches the control plane at `now` (unless
    /// the link was cut while it flew): fold it into the router's view
    /// and return the reconciler's directive, if any, with the instant
    /// it lands back at the site.
    pub(crate) fn snapshot_arrive(
        &mut self,
        i: usize,
        snap: TelemetrySnapshot,
        now: SimTime,
    ) -> Option<(SimTime, u32)> {
        if self.sites[i].partitioned && self.telemetry.cfg.loss_under_partition {
            return None;
        }
        let directive = self.reconciler.and_then(|rec| {
            rec.desired_fleet(&snap)
                .map(|desired| (now + self.sites[i].meta.latency, desired))
        });
        self.telemetry.ingest(i, snap, now);
        directive
    }

    /// Whether a directive reaching site `i` lands (it is lost with a
    /// dead site or a cut link).
    pub(crate) fn directive_lands(&self, i: usize) -> bool {
        let s = &self.sites[i];
        s.up && !(s.partitioned && self.telemetry.cfg.loss_under_partition)
    }

    /// The front half of a fault at `now`: flip the site's flags, close
    /// the downtime clock (clamped to `end`), and on a rebuild forget the
    /// dead incarnation's λ̂/μ̂ — the health EWMA stays, the router
    /// remembers the crash even though the site forgot. Returns the
    /// site-side work still to do, or `None` for a no-op fault.
    pub(crate) fn fault(&mut self, fault: Fault, now: SimTime, end: SimTime) -> Option<SiteWork> {
        let i = fault.site() as usize;
        let Some(site) = self.sites.get_mut(i) else {
            debug_assert!(false, "fault targets unknown site {i}");
            return None;
        };
        let work = match fault {
            Fault::SiteDown { .. } if site.up => {
                site.up = false;
                site.needs_rebuild = true;
                SiteWork::Evacuate
            }
            Fault::SiteUp { .. } if !site.up => {
                site.up = true;
                site.clock_routability(now, end);
                if !site.needs_rebuild {
                    return None;
                }
                site.needs_rebuild = false;
                site.restarts += 1;
                site.predictor = WaitPredictor::new(self.cfg.router.predictor());
                return Some(SiteWork::Rebuild(site.restarts));
            }
            Fault::PartitionStart { .. } if !site.partitioned => {
                site.partitioned = true;
                SiteWork::PartitionStart
            }
            Fault::PartitionEnd { .. } if site.partitioned => {
                site.partitioned = false;
                SiteWork::PartitionEnd
            }
            Fault::SiteSlowdown { permille, .. } => {
                site.slowed = permille < 1000;
                SiteWork::Slow(permille as f64 / 1000.0)
            }
            // A dead site has nothing left to crash.
            Fault::ContainerBurst { count, .. } if site.up => return Some(SiteWork::Burst(count)),
            _ => return None,
        };
        site.clock_routability(now, end);
        Some(work)
    }

    /// The front half of migrating request `rid` off site `from` at
    /// `now`: release the source commitment and ask the race whether the
    /// copy dies. A moving copy fails when no site is routable but the
    /// one its race abandoned; otherwise pick and book the destination,
    /// follow it in the race, and return the re-delivery hop (inbound
    /// latency plus the migration penalty).
    pub(crate) fn migrate<C: FnMut(usize) -> Census>(
        &mut self,
        rid: u64,
        from: usize,
        fn_idx: u32,
        now: SimTime,
        census: C,
    ) -> Migration {
        self.sites[from].finished += 1;
        if self.race_dies(rid, from as u32) {
            return Migration::Dies;
        }
        let avoid = self
            .races
            .get(&rid)
            .and_then(|race| race.abandoned)
            .map(|s| s as usize);
        if self.first_routable(avoid).is_none() {
            self.sites[from].failed += 1;
            return Migration::Fails(self.settle(rid, from as u32).unwrap_or_default());
        }
        self.sites[from].migrated_out += 1;
        let dest = self.pick(fn_idx, now, census, avoid);
        self.commit(dest, now);
        self.sites[dest].migrated_in += 1;
        if let Some(race) = self.races.get_mut(&rid) {
            if let Some(copy) = race.copies.iter_mut().find(|s| **s == from as u32) {
                *copy = dest as u32;
            }
            race.owed.retain(|&s| s != from as u32);
        }
        Migration::Moves(
            dest,
            self.sites[dest].meta.latency + self.cfg.migration_penalty,
        )
    }

    /// Audit the race ledger at the end of a run (debug builds): a
    /// resolved race is open only for losers still `held(rid, site)` by
    /// their site, and every unresolved one is an outstanding request.
    pub(crate) fn audit_races(&self, outstanding: usize, held: impl Fn(u64, u32) -> bool) {
        debug_assert!(
            self.races
                .iter()
                .all(|(&rid, race)| !race.resolved || race.owed.iter().all(|&s| held(rid, s))),
            "a resolved hedge race still owes a loser its site no longer holds"
        );
        debug_assert!(
            self.races.values().filter(|race| !race.resolved).count() <= outstanding,
            "more unresolved hedge races than the {outstanding} requests outstanding"
        );
    }

    /// Assemble the federated report. `site_parts` yields, per site in
    /// topology order, the driver-owned half of its [`SiteReport`]:
    /// chaos-crashed containers, end-of-run utilization, and the inner
    /// scheduler's report.
    pub(crate) fn finish<R>(
        self,
        site_parts: impl IntoIterator<Item = (u32, [f64; 3], R)>,
        aggregate_per_fn: Vec<FnStats>,
        outstanding: usize,
        duration: f64,
        threads: usize,
    ) -> FederatedReport<R> {
        let end = SimTime::from_secs_f64(duration);
        let per_site: Vec<SiteReport<R>> = self
            .sites
            .into_iter()
            .zip(site_parts)
            .map(|(s, (chaos_crashes, utilization, report))| SiteReport {
                latency_secs: s.meta.latency.as_secs_f64(),
                name: s.meta.name,
                routed: s.routed,
                migrated: s.migrated_out,
                migrated_in: s.migrated_in,
                failed: s.failed,
                chaos_crashes,
                downtime_secs: s.downtime.total_until(end),
                flakiness: s.health.value(),
                wasted_work: s.wasted,
                wasted_secs: s.wasted_secs,
                utilization,
                report,
            })
            .collect();
        FederatedReport {
            router: self.router.name().to_owned(),
            wasted_work: per_site.iter().map(|s| s.wasted_work).sum(),
            per_site,
            aggregate_per_fn,
            unroutable: self.unroutable,
            outstanding,
            duration,
            threads,
        }
    }
}
