//! Front-end routing policies for federated multi-site topologies.
//!
//! A federated simulation runs one scheduler instance per *site* (an
//! independent cluster with its own capacity, reached over a network hop
//! of known latency). Every arrival first passes through a front-end
//! router that picks a site; the routing hop's latency is added to the
//! request's response time. [`RouterPolicy`] is the seam that decision
//! plugs into — mirroring how [`SchedulerPolicy`](crate::SchedulerPolicy)
//! is the seam for per-site scheduling.
//!
//! Five routers ship with the workspace, in two families.
//!
//! **Load/latency routers** read only the instantaneous load picture:
//!
//! * [`RoundRobinRouter`] — deal arrivals across sites in rotation.
//! * [`LeastLoadedRouter`] — send each arrival to the site with the
//!   lowest in-flight load relative to its capacity.
//! * [`LatencyAwareRouter`] — prefer the lowest-latency (edge) site while
//!   it has headroom and spill to farther (cloud) sites under overload —
//!   the paper's future-work edge↔cloud offload pattern.
//!
//! **Model-driven routers** additionally consume the per-site telemetry
//! the federation fills in [`SiteState`] — a
//! [`WaitForecast`](lass_queueing::WaitForecast) built from EWMA'd
//! arrival/service rates (the same M/M/c mathematics the per-site
//! scheduler plans with), a warm-container census for the routed
//! function, and a downtime EWMA fed by the chaos layer:
//!
//! * [`FailureAwareRouter`] — avoid recently-failed (browned-out) sites
//!   by their downtime EWMA, re-admitting them through a deterministic
//!   credit trickle as their health score decays.
//! * [`PlannerRouter`] — route where the next container of the function
//!   fits on its binding resource dimension, by predicted wait; without
//!   demand vectors, plain minimum predicted response.
//!
//! The planner is the only router that reads the wait forecast; the
//! other four say so through [`RouterPolicy::reads_forecast`], which
//! spares the federation the per-decision M/M/c evaluation behind it.
//!
//! All routers are deterministic: decisions depend only on the event
//! history, never on wall-clock time or ambient randomness (the
//! failure-aware router's "probabilistic" re-admission is a Bresenham
//! style credit counter, not a coin flip).

use crate::time::{SimDuration, SimTime};
use lass_queueing::{EvaluatedForecast, PredictorConfig};
use serde::{Deserialize, Error, Serialize, Value};

/// A site's multi-dimensional capacity picture as the router sees it:
/// per-dimension capacity and usage in `[cpu, mem, bandwidth]` order
/// (milli-vCPU, MiB, Mbps). Plain floats so the router layer stays
/// decoupled from the cluster crate's integer newtypes. An all-zero
/// capacity means the site never reported resources (older policies,
/// cpu-only scenarios) — consumers must treat it as *unknown*, not as
/// a full site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceSnapshot {
    /// Per-dimension capacity, `[cpu, mem, bandwidth]`.
    pub cap: [f64; 3],
    /// Per-dimension allocation, same order.
    pub used: [f64; 3],
}

impl ResourceSnapshot {
    /// Whether the site ever reported a capacity vector.
    pub fn known(&self) -> bool {
        self.cap.iter().any(|&c| c > 0.0)
    }

    /// How many more containers of `demand` the site can host, judged
    /// on its *binding* dimension (the minimum over demanded
    /// dimensions of `free / need`). Infinite when the demand is zero
    /// on every dimension or the site never reported resources — an
    /// unknown picture must not exclude a site.
    pub fn fit_count(&self, demand: [f64; 3]) -> f64 {
        if !self.known() {
            return f64::INFINITY;
        }
        let mut fits = f64::INFINITY;
        for (d, &need) in demand.iter().enumerate() {
            if need > 0.0 {
                let free = (self.cap[d] - self.used[d]).max(0.0);
                fits = fits.min((free / need).floor());
            }
        }
        fits
    }

    /// Per-dimension utilization in `[0, 1]` (0 where capacity is
    /// unreported).
    pub fn utilization(&self) -> [f64; 3] {
        let mut u = [0.0; 3];
        for (d, slot) in u.iter_mut().enumerate() {
            if self.cap[d] > 0.0 {
                *slot = (self.used[d] / self.cap[d]).clamp(0.0, 1.0);
            }
        }
        u
    }

    /// The highest per-dimension utilization — the binding dimension's.
    pub fn max_utilization(&self) -> f64 {
        self.utilization().into_iter().fold(0.0, f64::max)
    }
}

/// A router's view of one site at the instant of a routing decision.
#[derive(Debug, Clone)]
pub struct SiteState {
    /// Site display name (for reports and debugging).
    pub name: String,
    /// One-way network latency from the front-end router to the site.
    pub latency: SimDuration,
    /// Rough concurrent-request capacity of the site (the federated
    /// harness uses the site's total CPU core count). Only ratios
    /// matter; the hint normalizes load across heterogeneous sites.
    pub capacity_hint: f64,
    /// Requests currently delivered to the site and not yet finished
    /// (queued + in service).
    pub in_flight: u64,
    /// Whether the site is reachable *right now*. A crashed or
    /// partitioned site is marked down by the chaos layer; every router
    /// must treat a down site as nonexistent, so a site that dies
    /// mid-window stops receiving arrivals at the very next routing
    /// decision (not at the next load refresh).
    pub up: bool,
    /// Model-driven waiting-time forecast from the site's live λ̂/μ̂
    /// telemetry (zero-wait before any telemetry accumulates), with its
    /// M/M/c model pre-evaluated through the federation's per-site
    /// [`ForecastCache`](lass_queueing::ForecastCache) so the routers'
    /// waiting-time queries are O(1) and allocation-free. Under oracle
    /// routing the federation fills it only for a router whose
    /// [`RouterPolicy::reads_forecast`] is `true` (or when hedging is
    /// on); otherwise it is the "no model" default. Under delayed
    /// telemetry it is the last arrived snapshot's, whatever the router.
    pub forecast: EvaluatedForecast,
    /// EWMA'd recent downtime fraction in `[0, 1]` fed by the chaos
    /// layer: 0 for a site that has been healthy for a while, high for
    /// one that recently crashed or partitioned.
    pub flakiness: f64,
    /// Warm (booted, non-terminated) containers the site holds for the
    /// function being routed — the warm census the cold-start penalty
    /// reads.
    pub warm: u64,
    /// The site's per-dimension capacity picture (all-zero = never
    /// reported; with delayed telemetry this is the last *arrived*
    /// snapshot's, like every other site-side column).
    pub resources: ResourceSnapshot,
    /// Containers of the routed function the site can still fit, judged
    /// on the binding dimension of the function's demand vector —
    /// `resources.fit_count(demand)`, refreshed per decision. Infinite
    /// when the demand or the capacity picture is unknown.
    pub fits: f64,
}

impl SiteState {
    /// In-flight load normalized by the capacity hint.
    pub fn load(&self) -> f64 {
        self.in_flight as f64 / self.capacity_hint.max(f64::MIN_POSITIVE)
    }
}

/// Knobs for the model-driven routers and the per-site telemetry that
/// feeds them, carried by the scenario `topology.router_config` block.
/// Every field has a default, so partial JSON blocks work; an unknown
/// key is an error.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct RouterConfig {
    /// SLO budget (milliseconds) on the predicted percentile response
    /// (hop latency + predicted wait). No router reads it: the
    /// `predicted-p95-over-slo` hedge trigger clones a request when its
    /// site's predicted response exceeds this budget.
    pub slo_ms: f64,
    /// Waiting-time percentile the planner and the hedge layer predict.
    pub percentile: f64,
    /// Normalized load beyond which the latency-aware router considers
    /// a site saturated and spills to the next-closest one.
    pub spill_load: f64,
    /// Downtime-EWMA score above which the failure-aware router browns
    /// a site out.
    pub flakiness_threshold: f64,
    /// Re-admission credit a browned-out site accrues per routing
    /// decision (scaled by its health); at credit 1 it receives one
    /// probe request.
    pub readmit_rate: f64,
    /// Arrival-rate estimation tick (seconds) for the per-site λ̂ EWMA.
    pub lambda_tick_secs: f64,
    /// EWMA weight on the newest per-tick arrival rate.
    pub lambda_alpha: f64,
    /// EWMA weight on the newest observed service time.
    pub service_alpha: f64,
    /// Downtime-EWMA tick (seconds) for the flakiness score.
    pub health_tick_secs: f64,
    /// EWMA weight on the newest per-tick downtime fraction.
    pub health_alpha: f64,
    /// Cold-start penalty (milliseconds) the planner and the hedge layer
    /// blend into a site's predicted response, weighted by the probability
    /// that the routed function finds no warm container there
    /// (`1 / (1 + warm)` — certain when the census is zero, vanishing
    /// as warm capacity accumulates). `0` (the default) disables the
    /// term entirely, keeping older scenarios' scores bit-identical.
    pub cold_start_penalty_ms: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            slo_ms: 100.0,
            percentile: 0.95,
            spill_load: 1.0,
            flakiness_threshold: 0.1,
            readmit_rate: 0.05,
            lambda_tick_secs: 1.0,
            lambda_alpha: 0.3,
            service_alpha: 0.05,
            health_tick_secs: 5.0,
            health_alpha: 0.2,
            cold_start_penalty_ms: 0.0,
        }
    }
}

impl RouterConfig {
    /// The smoothing constants consumed by the federation's per-site
    /// [`WaitPredictor`](lass_queueing::WaitPredictor)s.
    pub fn predictor(&self) -> PredictorConfig {
        PredictorConfig {
            tick_secs: self.lambda_tick_secs,
            lambda_alpha: self.lambda_alpha,
            service_alpha: self.service_alpha,
        }
    }

    /// Check the knobs before building routers.
    pub fn validate(&self) -> Result<(), String> {
        self.predictor().validate()?;
        if !(self.slo_ms.is_finite() && self.slo_ms >= 0.0) {
            return Err(format!("slo_ms must be non-negative, got {}", self.slo_ms));
        }
        if !(0.0..1.0).contains(&self.percentile) {
            return Err(format!(
                "percentile must be in [0, 1), got {}",
                self.percentile
            ));
        }
        if !(self.spill_load.is_finite() && self.spill_load > 0.0) {
            return Err(format!(
                "spill_load must be positive, got {}",
                self.spill_load
            ));
        }
        if !(0.0..=1.0).contains(&self.flakiness_threshold) {
            return Err(format!(
                "flakiness_threshold must be in [0, 1], got {}",
                self.flakiness_threshold
            ));
        }
        if !(self.readmit_rate.is_finite() && self.readmit_rate >= 0.0) {
            return Err(format!(
                "readmit_rate must be non-negative, got {}",
                self.readmit_rate
            ));
        }
        if !(self.health_tick_secs.is_finite() && self.health_tick_secs > 0.0) {
            return Err(format!(
                "health_tick_secs must be positive, got {}",
                self.health_tick_secs
            ));
        }
        if !(self.health_alpha > 0.0 && self.health_alpha <= 1.0) {
            return Err(format!(
                "health_alpha must be in (0, 1], got {}",
                self.health_alpha
            ));
        }
        if !(self.cold_start_penalty_ms.is_finite() && self.cold_start_penalty_ms >= 0.0) {
            return Err(format!(
                "cold_start_penalty_ms must be non-negative, got {}",
                self.cold_start_penalty_ms
            ));
        }
        Ok(())
    }
}

/// A front-end routing policy: picks the destination site for each
/// arrival in a federated topology.
pub trait RouterPolicy {
    /// Choose a site index in `0..sites.len()` for an arrival of
    /// function `fn_idx` at simulated time `now`. `sites` is never
    /// empty and at least one site is up; the chosen site must be up
    /// (down sites are invisible to arrivals), and returning an
    /// out-of-range or down index is a logic error (the federation
    /// falls back to a live site in release builds and panics in
    /// debug).
    fn route(&mut self, fn_idx: u32, now: SimTime, sites: &[SiteState]) -> usize;

    /// Short policy name carried into reports.
    fn name(&self) -> &'static str;

    /// Whether [`route`](Self::route) reads [`SiteState::forecast`].
    /// Under oracle routing the federation evaluates each site's M/M/c
    /// forecast only when the router (or the hedge trigger) reads it;
    /// a router answering `false` sees the "no model" default instead.
    /// `true` is the safe answer for any router that might look.
    fn reads_forecast(&self) -> bool {
        true
    }
}

/// Index of the least-loaded **up** site (ties broken toward the lower
/// index). Falls back to index 0 if every site is down (the federation
/// never routes in that state).
fn least_loaded(sites: &[SiteState]) -> usize {
    let mut best: Option<usize> = None;
    for (i, s) in sites.iter().enumerate() {
        if !s.up {
            continue;
        }
        match best {
            Some(b) if sites[b].load() <= s.load() => {}
            _ => best = Some(i),
        }
    }
    best.unwrap_or(0)
}

/// Deal arrivals across sites in strict rotation, ignoring load and
/// latency. The baseline router.
#[derive(Debug, Default)]
pub struct RoundRobinRouter {
    cursor: usize,
}

impl RoundRobinRouter {
    /// A router starting at site 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RouterPolicy for RoundRobinRouter {
    fn route(&mut self, _fn_idx: u32, _now: SimTime, sites: &[SiteState]) -> usize {
        // Deal from the cursor, skipping down sites; when every site is
        // up this is the classic strict rotation.
        let n = sites.len();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if sites[i].up {
                self.cursor = (i + 1) % n;
                return i;
            }
        }
        self.cursor % n
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn reads_forecast(&self) -> bool {
        false
    }
}

/// Send each arrival to the site with the lowest normalized in-flight
/// load (capacity-aware join-the-shortest-queue).
#[derive(Debug, Default)]
pub struct LeastLoadedRouter;

impl LeastLoadedRouter {
    /// A stateless least-loaded router.
    pub fn new() -> Self {
        Self
    }
}

impl RouterPolicy for LeastLoadedRouter {
    fn route(&mut self, _fn_idx: u32, _now: SimTime, sites: &[SiteState]) -> usize {
        least_loaded(sites)
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn reads_forecast(&self) -> bool {
        false
    }
}

/// Prefer the lowest-latency site that still has headroom; spill to the
/// next-closest site when the preferred one is saturated, and fall back
/// to plain least-loaded when every site is saturated.
///
/// This is the edge↔cloud offload pattern: requests stay at the nearby
/// edge site until its in-flight load exceeds `spill_load × capacity`,
/// then overflow to the (higher-latency, higher-capacity) cloud site.
#[derive(Debug)]
pub struct LatencyAwareRouter {
    /// Normalized load (see [`SiteState::load`]) beyond which a site is
    /// considered saturated. 1.0 means "one in-flight request per unit
    /// of capacity".
    pub spill_load: f64,
}

impl LatencyAwareRouter {
    /// A router that spills once in-flight load reaches the site's
    /// capacity hint.
    pub fn new() -> Self {
        Self { spill_load: 1.0 }
    }
}

impl Default for LatencyAwareRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl RouterPolicy for LatencyAwareRouter {
    fn route(&mut self, _fn_idx: u32, _now: SimTime, sites: &[SiteState]) -> usize {
        let mut best: Option<usize> = None;
        for (i, s) in sites.iter().enumerate() {
            if !s.up || s.load() >= self.spill_load {
                continue;
            }
            match best {
                Some(b) if sites[b].latency <= s.latency => {}
                _ => best = Some(i),
            }
        }
        best.unwrap_or_else(|| least_loaded(sites))
    }

    fn name(&self) -> &'static str {
        "latency-aware"
    }

    fn reads_forecast(&self) -> bool {
        false
    }
}

/// The explicit saturated score assigned to a site whose forecast is
/// unusable for ranking: an unstable model (estimated load at or beyond
/// estimated capacity) and any non-finite arithmetic both land here.
/// A saturated site loses every score comparison, so it is only picked
/// through the explicit least-loaded degradation once *every* site
/// saturates — a NaN can therefore never win a min-comparison.
const SATURATED_SCORE: f64 = f64::INFINITY;

/// A site's predicted percentile *response* score: hop latency plus the
/// model-forecast waiting-time percentile (service time is omitted — it
/// is the same wherever the request lands), plus a cold-start term
/// blending the warm-container census in as a probability: the full
/// penalty when the site holds no warm container for the function,
/// shrinking as `1 / (1 + warm)` while capacity accumulates.
/// `cold_penalty_secs` is 0 unless the scenario opts in, keeping the
/// score identical for existing configurations. [`SATURATED_SCORE`]
/// when the site's estimated load exceeds its estimated capacity, or
/// when the telemetry is degenerate enough to produce a NaN.
pub(crate) fn predicted_score(s: &SiteState, percentile: f64, cold_penalty_secs: f64) -> f64 {
    let mut score = s.latency.as_secs_f64() + s.forecast.wait_percentile(percentile);
    if cold_penalty_secs > 0.0 {
        score += cold_penalty_secs / (1.0 + s.warm as f64);
    }
    if score.is_nan() {
        SATURATED_SCORE
    } else {
        score
    }
}

/// Failure-aware brown-out avoidance: sites whose downtime EWMA exceeds
/// the flakiness threshold are excluded from normal (least-loaded)
/// routing and re-admitted through a deterministic credit trickle —
/// each browned-out site accrues `readmit_rate × (1 − flakiness)`
/// credit per decision and receives one probe request whenever the
/// credit reaches 1, so a recovering site is eased back in proportion
/// to its health instead of being herded onto the moment it reports up.
/// When every up site is browned out the router routes among all of
/// them (degraded service beats shedding).
#[derive(Debug)]
pub struct FailureAwareRouter {
    threshold: f64,
    readmit_rate: f64,
    /// Per-site deterministic re-admission credit.
    credit: Vec<f64>,
    /// Scratch: sites admitted for this decision.
    admitted: Vec<bool>,
}

impl FailureAwareRouter {
    /// Build from the shared [`RouterConfig`].
    pub fn new(cfg: &RouterConfig) -> Self {
        Self {
            threshold: cfg.flakiness_threshold,
            readmit_rate: cfg.readmit_rate,
            credit: Vec::new(),
            admitted: Vec::new(),
        }
    }
}

impl RouterPolicy for FailureAwareRouter {
    fn route(&mut self, _fn_idx: u32, _now: SimTime, sites: &[SiteState]) -> usize {
        let n = sites.len();
        self.credit.resize(n, 0.0);
        self.admitted.clear();
        self.admitted.resize(n, false);

        let any_healthy = sites.iter().any(|s| s.up && s.flakiness <= self.threshold);
        for (i, s) in sites.iter().enumerate() {
            if !s.up {
                // A dark site restarts its probation from zero.
                self.credit[i] = 0.0;
                continue;
            }
            if s.flakiness <= self.threshold || !any_healthy {
                self.admitted[i] = true;
            } else {
                // Browned out: accrue credit toward one probe request.
                // The bucket caps at one token so a site that stays
                // admitted-but-unpicked for a long stretch cannot bank
                // credit and later absorb a burst of back-to-back
                // probes — the whole point is a trickle.
                self.credit[i] =
                    (self.credit[i] + self.readmit_rate * (1.0 - s.flakiness).max(0.0)).min(1.0);
                if self.credit[i] >= 1.0 {
                    self.admitted[i] = true;
                }
            }
        }

        // Least-loaded among the admitted sites (ties → lower index).
        let mut best: Option<usize> = None;
        for (i, s) in sites.iter().enumerate() {
            if !s.up || !self.admitted[i] {
                continue;
            }
            match best {
                Some(b) if sites[b].load() <= s.load() => {}
                _ => best = Some(i),
            }
        }
        let pick = best.unwrap_or_else(|| least_loaded(sites));
        // A browned-out site spends its credit only when actually probed.
        if sites[pick].flakiness > self.threshold && self.credit[pick] >= 1.0 {
            self.credit[pick] -= 1.0;
        }
        pick
    }

    fn name(&self) -> &'static str {
        "failure-aware"
    }

    fn reads_forecast(&self) -> bool {
        false
    }
}

/// Vector-aware placement planner: route where the next container of
/// the function actually *fits*. Tier 1 restricts the candidates to up
/// sites whose per-dimension capacity picture still has headroom for at
/// least one more container of the routed function's demand vector
/// ([`SiteState::fits`] ≥ 1 — headroom judged on the function's
/// *binding* dimension), and picks the minimum predicted percentile
/// response among them, breaking score ties toward the larger
/// binding-dimension headroom, then the lower index. When no site can
/// fit another container the planner degrades to minimum predicted
/// response over all up sites (the work must land somewhere), and to
/// least-loaded when every forecast is saturated.
///
/// With cpu-only scenarios (no demand vectors, no resource snapshots)
/// every site reports infinite fits, and the planner reduces to pure
/// minimum-predicted-response routing.
#[derive(Debug)]
pub struct PlannerRouter {
    percentile: f64,
    /// Cold-start penalty, seconds (0 disables the census blend).
    cold: f64,
    /// Scratch: per-site scores, computed once per decision.
    scores: Vec<f64>,
}

impl PlannerRouter {
    /// Build from the shared [`RouterConfig`].
    pub fn new(cfg: &RouterConfig) -> Self {
        Self {
            percentile: cfg.percentile,
            cold: cfg.cold_start_penalty_ms / 1e3,
            scores: Vec::new(),
        }
    }

    /// Minimum-score site among up sites passing `eligible`; ties break
    /// toward the larger fit headroom, then the lower index.
    fn best_fitting(
        &self,
        sites: &[SiteState],
        mut eligible: impl FnMut(usize, &SiteState) -> bool,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in sites.iter().enumerate() {
            if !s.up || !eligible(i, s) {
                continue;
            }
            let score = self.scores[i];
            if !score.is_finite() {
                continue;
            }
            match best {
                Some((b, bs)) if bs < score || (bs == score && sites[b].fits >= s.fits) => {}
                _ => best = Some((i, score)),
            }
        }
        best.map(|(i, _)| i)
    }
}

impl RouterPolicy for PlannerRouter {
    fn route(&mut self, _fn_idx: u32, _now: SimTime, sites: &[SiteState]) -> usize {
        self.scores.clear();
        self.scores.extend(
            sites
                .iter()
                .map(|s| predicted_score(s, self.percentile, self.cold)),
        );
        self.best_fitting(sites, |_, s| s.fits >= 1.0)
            .or_else(|| self.best_fitting(sites, |_, _| true))
            .unwrap_or_else(|| least_loaded(sites))
    }

    fn name(&self) -> &'static str {
        "planner"
    }
}

/// The shipped router choices, as named in scenario JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterKind {
    /// [`RoundRobinRouter`] (default).
    #[default]
    RoundRobin,
    /// [`LeastLoadedRouter`].
    LeastLoaded,
    /// [`LatencyAwareRouter`] with the default spill threshold.
    LatencyAware,
    /// [`FailureAwareRouter`] (downtime-EWMA brown-out avoidance).
    FailureAware,
    /// [`PlannerRouter`] (vector-aware placement planner).
    Planner,
}

impl RouterKind {
    /// Every shipped router, for sweeps and tests.
    pub const ALL: [RouterKind; 5] = [
        RouterKind::RoundRobin,
        RouterKind::LeastLoaded,
        RouterKind::LatencyAware,
        RouterKind::FailureAware,
        RouterKind::Planner,
    ];

    /// The JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastLoaded => "least-loaded",
            RouterKind::LatencyAware => "latency-aware",
            RouterKind::FailureAware => "failure-aware",
            RouterKind::Planner => "planner",
        }
    }

    /// Parse a JSON spelling (hyphen or underscore separated).
    pub fn parse(s: &str) -> Option<RouterKind> {
        match s {
            "round-robin" | "round_robin" | "rr" => Some(RouterKind::RoundRobin),
            "least-loaded" | "least_loaded" => Some(RouterKind::LeastLoaded),
            "latency-aware" | "latency_aware" => Some(RouterKind::LatencyAware),
            "failure-aware" | "failure_aware" => Some(RouterKind::FailureAware),
            "planner" | "placement-planner" | "placement_planner" => Some(RouterKind::Planner),
            _ => None,
        }
    }

    /// Instantiate the router with the default [`RouterConfig`].
    pub fn build(self) -> Box<dyn RouterPolicy + Send> {
        self.build_with(&RouterConfig::default())
    }

    /// Instantiate the router with explicit knobs.
    pub fn build_with(self, cfg: &RouterConfig) -> Box<dyn RouterPolicy + Send> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobinRouter::new()),
            RouterKind::LeastLoaded => Box::new(LeastLoadedRouter::new()),
            RouterKind::LatencyAware => Box::new(LatencyAwareRouter {
                spill_load: cfg.spill_load,
            }),
            RouterKind::FailureAware => Box::new(FailureAwareRouter::new(cfg)),
            RouterKind::Planner => Box::new(PlannerRouter::new(cfg)),
        }
    }
}

impl Serialize for RouterKind {
    fn serialize(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for RouterKind {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v.as_str() {
            Some(s) => RouterKind::parse(s).ok_or_else(|| {
                Error::custom(format!(
                    "unknown router {s:?} (expected \"round-robin\", \"least-loaded\", \
                     \"latency-aware\", \"failure-aware\", or \"planner\")"
                ))
            }),
            None => Err(Error::custom("router must be a string")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_queueing::WaitForecast;

    pub(crate) fn site(latency: f64, cap: f64, in_flight: u64) -> SiteState {
        SiteState {
            name: String::new(),
            latency: SimDuration::from_secs_f64(latency),
            capacity_hint: cap,
            in_flight,
            up: true,
            forecast: EvaluatedForecast::default(),
            flakiness: 0.0,
            warm: 0,
            resources: ResourceSnapshot::default(),
            fits: f64::INFINITY,
        }
    }

    fn sites(spec: &[(f64, f64, u64)]) -> Vec<SiteState> {
        spec.iter()
            .enumerate()
            .map(|(i, &(latency, cap, in_flight))| {
                let mut s = site(latency, cap, in_flight);
                s.name = format!("s{i}");
                s
            })
            .collect()
    }

    /// A forecast predicting the given λ/μ/c model, pre-evaluated the
    /// way the federation's cache would.
    fn forecast(lambda: f64, mu: f64, servers: u32) -> EvaluatedForecast {
        WaitForecast {
            lambda,
            mu,
            servers,
        }
        .into()
    }

    #[test]
    fn round_robin_rotates() {
        let s = sites(&[(0.0, 1.0, 0), (0.0, 1.0, 0), (0.0, 1.0, 0)]);
        let mut r = RoundRobinRouter::new();
        let picks: Vec<usize> = (0..6).map(|_| r.route(0, SimTime::ZERO, &s)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_normalizes_by_capacity() {
        // Site 0: 3 in flight / 4 cap = 0.75; site 1: 5 / 12 ≈ 0.42.
        let s = sites(&[(0.001, 4.0, 3), (0.040, 12.0, 5)]);
        assert_eq!(LeastLoadedRouter::new().route(0, SimTime::ZERO, &s), 1);
    }

    #[test]
    fn latency_aware_prefers_edge_until_saturated() {
        let mut r = LatencyAwareRouter::new();
        // Edge has headroom: stay at the edge despite cloud being empty.
        let s = sites(&[(0.002, 4.0, 3), (0.040, 100.0, 0)]);
        assert_eq!(r.route(0, SimTime::ZERO, &s), 0);
        // Edge saturated: spill to the cloud.
        let s = sites(&[(0.002, 4.0, 4), (0.040, 100.0, 0)]);
        assert_eq!(r.route(0, SimTime::ZERO, &s), 1);
        // Everything saturated: degrade to least-loaded.
        let s = sites(&[(0.002, 4.0, 8), (0.040, 100.0, 150)]);
        assert_eq!(r.route(0, SimTime::ZERO, &s), 1);
    }

    /// Regression (chaos layer): a site marked down must receive zero
    /// picks from every router, even though routers only read load at
    /// routing time — the `up` flag is part of the per-decision
    /// snapshot, not of a periodic refresh.
    #[test]
    fn down_sites_are_never_picked() {
        let mut s = sites(&[(0.001, 4.0, 0), (0.020, 8.0, 50), (0.050, 16.0, 80)]);
        s[0].up = false; // the attractive site (empty, closest) is down
        s[0].warm = 5; // …and the only one holding warm containers
        for kind in RouterKind::ALL {
            let mut r = kind.build();
            for k in 0..100u64 {
                let i = r.route(0, SimTime::from_secs(k), &s);
                assert_ne!(i, 0, "{} picked a down site", kind.as_str());
                assert!(i < s.len());
            }
        }
    }

    #[test]
    fn round_robin_skips_down_sites_and_keeps_rotating() {
        let mut s = sites(&[(0.0, 1.0, 0), (0.0, 1.0, 0), (0.0, 1.0, 0)]);
        s[1].up = false;
        let mut r = RoundRobinRouter::new();
        let picks: Vec<usize> = (0..6).map(|_| r.route(0, SimTime::ZERO, &s)).collect();
        assert_eq!(picks, vec![0, 2, 0, 2, 0, 2]);
        // The site coming back mid-window rejoins the rotation.
        s[1].up = true;
        let picks: Vec<usize> = (0..6).map(|_| r.route(0, SimTime::ZERO, &s)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn kind_round_trips() {
        for kind in RouterKind::ALL {
            assert_eq!(RouterKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.build().name(), kind.as_str());
        }
        assert_eq!(RouterKind::parse("nope"), None);
    }

    #[test]
    fn router_config_validates() {
        assert!(RouterConfig::default().validate().is_ok());
        let mut cfg = RouterConfig::default();
        cfg.percentile = 1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = RouterConfig::default();
        cfg.lambda_alpha = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = RouterConfig::default();
        cfg.flakiness_threshold = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn planner_minimizes_predicted_response() {
        let mut r = PlannerRouter::new(&RouterConfig::default());
        let mut s = sites(&[(0.005, 2.0, 0), (0.030, 2.0, 0)]);
        // Site 0 is closer but predicts a long queue; site 1's model is
        // idle: 5 ms + W(0.95) vs 30 ms + ~0.
        s[0].forecast = forecast(18.0, 10.0, 2); // rho = 0.9 => long waits
        s[1].forecast = forecast(1.0, 10.0, 2);
        assert_eq!(r.route(0, SimTime::ZERO, &s), 1);
        // With no telemetry at all the score is the pure hop latency.
        let s = sites(&[(0.005, 2.0, 0), (0.030, 2.0, 0)]);
        assert_eq!(r.route(0, SimTime::ZERO, &s), 0);
    }

    #[test]
    fn planner_degrades_to_least_loaded_under_total_overload() {
        let mut r = PlannerRouter::new(&RouterConfig::default());
        let mut s = sites(&[(0.005, 2.0, 9), (0.030, 2.0, 2)]);
        s[0].forecast = forecast(30.0, 10.0, 2); // unstable
        s[1].forecast = forecast(28.0, 10.0, 2); // unstable
        assert_eq!(r.route(0, SimTime::ZERO, &s), 1);
    }

    #[test]
    fn failure_aware_avoids_flaky_sites_with_trickle_readmission() {
        let cfg = RouterConfig {
            flakiness_threshold: 0.1,
            readmit_rate: 0.25,
            ..RouterConfig::default()
        };
        let mut r = FailureAwareRouter::new(&cfg);
        // Site 0 recently crashed (flaky, now empty and attractive);
        // site 1 is healthy but loaded.
        let mut s = sites(&[(0.002, 4.0, 0), (0.020, 4.0, 10)]);
        s[0].flakiness = 0.5;
        // credit grows by 0.25 × 0.5 = 0.125/decision: one probe every
        // 8 decisions, the rest pinned to the healthy site.
        let picks: Vec<usize> = (0..16).map(|_| r.route(0, SimTime::ZERO, &s)).collect();
        let probes = picks.iter().filter(|&&i| i == 0).count();
        assert_eq!(probes, 2, "picks {picks:?}");
        // Once the EWMA decays below threshold, normal routing resumes.
        s[0].flakiness = 0.05;
        assert_eq!(r.route(0, SimTime::ZERO, &s), 0);
        // All sites flaky: still route (degraded beats shedding).
        s[0].flakiness = 0.9;
        s[1].flakiness = 0.9;
        let i = r.route(0, SimTime::ZERO, &s);
        assert!(i < 2);
    }

    #[test]
    fn failure_aware_matches_least_loaded_on_healthy_fleet() {
        let cfg = RouterConfig::default();
        let mut fa = FailureAwareRouter::new(&cfg);
        let mut ll = LeastLoadedRouter::new();
        let s = sites(&[(0.001, 4.0, 3), (0.040, 12.0, 5), (0.010, 2.0, 1)]);
        for k in 0..20u64 {
            let t = SimTime::from_secs(k);
            assert_eq!(fa.route(0, t, &s), ll.route(0, t, &s));
        }
    }

    /// Regression (overload/NaN scoring): degenerate telemetry — an
    /// unstable model, μ̂ = 0 with traffic, extreme magnitudes — must
    /// never produce a NaN score, and a site with a saturated score
    /// must lose to any site with a finite one in the planner's score
    /// pass.
    #[test]
    fn saturated_and_degenerate_forecasts_never_win() {
        let degenerate = [
            forecast(25.0, 10.0, 2),     // ρ > 1: unstable
            forecast(1e308, 1e-300, 1),  // r overflows to ∞
            forecast(1e-308, 1e308, 3),  // r underflows to 0
            forecast(5e-324, 5e-324, 1), // subnormal rates, ρ = 1
            forecast(1e10, 1e308, 10),   // c·μ̂ overflows
            WaitForecast {
                lambda: f64::NAN,
                mu: f64::NAN,
                servers: 2,
            }
            .into(), // hand-built NaN telemetry
        ];
        for (i, f) in degenerate.iter().enumerate() {
            let mut s = site(0.001, 2.0, 0);
            s.forecast = *f;
            let score = predicted_score(&s, 0.95, 0.0);
            assert!(!score.is_nan(), "case {i}: NaN score leaked");
        }
        // A healthy-but-distant site must beat every saturated site.
        let cfg = RouterConfig::default();
        for f in &degenerate[..2] {
            let mut s = sites(&[(0.001, 2.0, 0), (0.090, 2.0, 5)]);
            s[0].forecast = *f; // attractive hop, saturated model
            s[1].forecast = forecast(1.0, 10.0, 2);
            let mut planner = PlannerRouter::new(&cfg);
            assert_eq!(planner.route(0, SimTime::ZERO, &s), 1);
        }
        // Saturated everywhere: the explicit least-loaded degradation
        // picks the lower-load site instead of shedding.
        let mut s = sites(&[(0.001, 2.0, 7), (0.090, 2.0, 3)]);
        s[0].forecast = forecast(25.0, 10.0, 2);
        s[1].forecast = forecast(30.0, 10.0, 2);
        let mut planner = PlannerRouter::new(&cfg);
        assert_eq!(planner.route(0, SimTime::ZERO, &s), 1);
    }

    /// Satellite (cold-start blend): a nonzero penalty shifts routing
    /// toward warm sites in proportion to `1 / (1 + warm)`, while the
    /// default zero penalty leaves scores — and hence every existing
    /// golden — untouched.
    #[test]
    fn cold_start_penalty_blends_warm_census_into_score() {
        let mut s = site(0.010, 2.0, 0);
        // Zero penalty: identical to the pre-blend score.
        assert_eq!(
            predicted_score(&s, 0.95, 0.0),
            s.latency.as_secs_f64() + s.forecast.wait_percentile(0.95)
        );
        // No warm containers: full penalty lands on the score.
        let base = predicted_score(&s, 0.95, 0.0);
        assert!((predicted_score(&s, 0.95, 0.050) - (base + 0.050)).abs() < 1e-12);
        // Census grows: the expected cold-start cost decays as 1/(1+w).
        s.warm = 4;
        assert!((predicted_score(&s, 0.95, 0.050) - (base + 0.010)).abs() < 1e-12);

        // End to end: a closer cold site loses to a farther warm site
        // once the penalty outweighs the hop difference.
        let cfg = RouterConfig {
            cold_start_penalty_ms: 100.0,
            ..RouterConfig::default()
        };
        let mut r = PlannerRouter::new(&cfg);
        let mut sites = sites(&[(0.005, 2.0, 0), (0.030, 2.0, 0)]);
        sites[1].warm = 9; // 100 ms / 10 = 10 ms expected cold cost
        assert_eq!(r.route(0, SimTime::ZERO, &sites), 1);
        // Penalty off: the closer site wins again.
        let mut r = PlannerRouter::new(&RouterConfig::default());
        assert_eq!(r.route(0, SimTime::ZERO, &sites), 0);
    }

    #[test]
    fn router_config_round_trips_through_json() {
        let cfg = RouterConfig {
            slo_ms: 150.0,
            percentile: 0.99,
            ..RouterConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: RouterConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.slo_ms, 150.0);
        assert_eq!(back.percentile, 0.99);
        // Partial blocks fill from defaults.
        let partial: RouterConfig = serde_json::from_str(r#"{ "percentile": 0.9 }"#).unwrap();
        assert_eq!(partial.percentile, 0.9);
        assert_eq!(partial.slo_ms, RouterConfig::default().slo_ms);
    }
}
