//! The federated meta-policy: one engine, many sites.
//!
//! [`Federation`] is itself a [`SchedulerPolicy`] — it plugs into the
//! ordinary [`run_simulation`](crate::run_simulation) pump — but instead
//! of scheduling requests onto containers it owns a router and one
//! *inner* scheduler instance per site. Arrivals are routed to a site,
//! delayed by the site's network latency, and then delivered to that
//! site's scheduler through a scoped [`PolicyCtx`] that:
//!
//! * tags the site's scheduled events so they come back to the right
//!   instance ([`FedEv::Site`]), stamped with the site's *incarnation*
//!   so events of a crashed instance are dropped instead of corrupting
//!   its replacement;
//! * maintains per-site request statistics (the engine's own statistics
//!   remain the cross-site aggregate);
//! * gives each site its own arrival-rate windows, so per-site monitors
//!   observe only the traffic routed to them.
//!
//! Because the inner scheduler is written against [`PolicyCtx`] rather
//! than the concrete engine context, it runs *unchanged* — the same
//! `LassPolicy` that owns a whole simulation serves one site of a
//! federation. A single-site federation with zero latency is the
//! degenerate case and reproduces the plain single-cluster run.
//!
//! Routing latency is modeled on the inbound hop: a request routed at
//! `t` reaches its site at `t + latency`, and since waiting time is
//! measured from the front-end arrival instant, the hop is part of the
//! request's waiting — and therefore response — time.
//!
//! # Configuration
//!
//! The front end is configured once, by one [`FederationConfig`] handed
//! to [`Federation::configured`]: the router and telemetry constants,
//! delayed telemetry, hedging, the migration penalty, and the
//! utilization reconciler. [`FederationConfig::validate`] is the one
//! check of all of it; the windowed driver takes the federation as
//! built, so both drivers run under the same config.
//!
//! # The shared front end
//!
//! Everything router-facing — per-site commitment counters and fault
//! flags, the λ̂/μ̂ predictors and health EWMAs, the routing refresh and
//! pick (oracle routing is the zero-age view of the delayed-telemetry
//! one), the telemetry publish / arrive / directive steps, the hedge
//! race, the front half of fault handling and migration, and the
//! router's half of each [`SiteReport`] — lives in the crate-private
//! `front` module and is shared with the windowed parallel driver
//! ([`run_federation_parallel`](crate::parallel::run_federation_parallel)).
//!
//! This driver owns its transport: the engine calendar with [`FedEv`],
//! the scoped site context, and the site incarnations. Its merge point
//! is the end of each callback: the requests the callback retired are
//! settled with the front end's race ledger in the order they retired.
//!
//! # The site ledger
//!
//! A site's request books — in-flight and live requests, per-function
//! statistics and arrival windows, responses stalled behind a partition,
//! chaos crashes, and the marks of copies that must not win a hedge
//! race — are one ledger, `SiteTally`, which both drivers keep per site
//! and change through the same operations: admit, release, complete,
//! time out, lose, cancel, stall, take the arrival window, evacuate,
//! restart and close. A completion's latency samples are recorded
//! there only when the site's policy reads them
//! ([`SchedulerPolicy::READS_SAMPLES`]); the counts always are. The
//! drivers still differ in three ways, each
//! following from their transport:
//!
//! * A completion's timings come from the engine's request table here,
//!   and from the ledger's live entry, which holds the front-door
//!   arrival, in the windowed driver (it has no engine).
//! * This driver marks a losing copy when its race decides, since the
//!   race settles inline; a marked copy's timeout or loss then never
//!   retires the request. The windowed driver learns the verdict only
//!   at the merge, so it marks a copy when the cancel lands and
//!   releases it at once.
//! * A delivery eaten at the door counts here as an arrival and a
//!   cancellation at its site, and a hedge clone as hedged at its site;
//!   the windowed driver books both in the aggregate only, because its
//!   front end does not touch shard state between barriers.
//!
//! # Failure semantics
//!
//! A federation carries its own fault schedule
//! ([`Federation::with_chaos`]): the timed and stochastic site-level
//! faults of one [`ChaosConfig`], materialized by
//! [`ChaosConfig::build_schedule`]. This driver schedules them as
//! [`FedEv::Fault`] events after its start-up work; the windowed driver
//! splits its windows at the same list and applies each fault between
//! windows. Both take the front half of a fault from the shared front
//! end:
//!
//! * **Site crash** ([`Fault::SiteDown`]): the site leaves the router's
//!   view immediately. Its queued and in-service requests are orphaned
//!   and **migrated** — re-routed among the surviving sites with the
//!   destination's inbound hop plus the configured migration penalty,
//!   all of it visible in the request's waiting/response time. Requests
//!   still crossing the network when the site died bounce the same way
//!   at delivery time, so nothing ever lands on a dead site. With no
//!   survivor the request is **failed** (engine-level `lost`). On
//!   [`Fault::SiteUp`] the site restarts *cold* from the rebuild
//!   factory ([`Federation::with_rebuild`]).
//! * **Partition** ([`Fault::PartitionStart`]): the router↔site link is
//!   cut. Arrivals route around the site and in-transit requests bounce
//!   exactly as for a crash, but the site keeps serving what it already
//!   holds; completions are **stalled** — buffered and recorded when
//!   the partition heals, so the stall shows up in response time (and
//!   in the recorded service time: the front end cannot observe where
//!   inside the dark interval the container actually finished).
//! * **Container bursts** ([`Fault::ContainerBurst`]) are forwarded to
//!   the site's scheduler through the [`ContainerChaos`] seam.
//!
//! Per-site fault accounting (`migrated`, `failed`, `downtime_secs`, …)
//! is carried in [`SiteReport`]; the engine's aggregate conserves every
//! arrival as completed, failed (lost), timed out, or still outstanding.
//!
//! # Running a federation
//!
//! [`run_federation`] is the one entry of both drivers: it reads
//! [`EngineConfig::parallel_sites`], falls back to this driver when the
//! topology leaves the windowed one no lookahead, and runs the chosen
//! driver.

use crate::chaos::{ChaosConfig, ContainerChaos, Fault};
use crate::engine::{
    run_simulation, Completion, EngineConfig, EngineOutcome, FnStats, FunctionEntry, PolicyCtx,
    ReqId, SchedulerPolicy,
};
use crate::front::{Cancel, Census, Front, HedgeStep, Migration, SiteWork};
use crate::metrics::SampleStats;
use crate::parallel::run_windowed;
use crate::rng::SimRng;
use crate::router::{RouterConfig, RouterPolicy};
use crate::telemetry::{TelemetryConfig, TelemetrySnapshot};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Error, Map, Serialize, Value};
use std::collections::BTreeMap;

/// Static description of one site handed to [`Federation::new`].
#[derive(Debug, Clone)]
pub struct SiteMeta {
    /// Site display name (unique within the topology).
    pub name: String,
    /// One-way network latency from the front-end router to the site.
    pub latency: SimDuration,
    /// Concurrent-request capacity hint used to normalize router load
    /// (typically the site's total CPU core count).
    pub capacity_hint: f64,
}

/// Per-function metadata shared by every site (used to seed the
/// per-site statistics tables).
#[derive(Debug, Clone)]
pub struct FedFunction {
    /// Function display name.
    pub name: String,
    /// SLO deadline (seconds) on the waiting time.
    pub slo_deadline: f64,
    /// Per-container demand vector `[cpu milli, mem MiB, bw Mbps]` of
    /// the function's standard size — what the planner router fits
    /// against a site's
    /// [`ResourceSnapshot`](crate::router::ResourceSnapshot). All-zero
    /// (the default for pre-vector callers) means unknown and never
    /// constrains routing.
    pub demand: [f64; 3],
}

/// When a hedged topology dispatches the extra request clones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HedgeTrigger {
    /// Clone at dispatch time, unconditionally.
    Immediate,
    /// Clone only if the primary has not answered after this many
    /// milliseconds (classic deferred hedging: the follow-up fires from
    /// the front-end's own calendar and is cancelled — or degrades to a
    /// liveness-checked no-op — once the primary responds).
    DeferredMs(f64),
    /// Clone at dispatch time only when the primary site's predicted
    /// response (its forecast wait percentile plus the network hop)
    /// already exceeds the configured SLO — hedge exactly the requests
    /// the model expects to miss.
    PredictedP95OverSlo,
}

/// Hedged-request configuration for a [`Federation`] (the `hedge` of
/// its [`FederationConfig`]; absent = no hedging, byte-identical to the
/// pre-hedging engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// When clones are dispatched.
    pub trigger: HedgeTrigger,
    /// Maximum extra clones per request (1 = classic hedging pair).
    /// Clones go to the best-scored routable sites not already holding
    /// a copy, so the effective count is also bounded by the topology.
    pub max_clones: u32,
    /// Speculative *retry* deadline, milliseconds. When nonzero it
    /// takes precedence over `trigger`: instead of cloning, the front
    /// end re-issues the request to the next-best site once the
    /// deadline passes and *abandons* the original — a late response
    /// from the abandoned copy is wasted work, not a win. `0` (the
    /// default) disables retries and leaves the trigger in charge.
    pub retry_after_ms: f64,
    /// Admission budget on measured waste: once the fraction of wasted
    /// completions among finished work crosses this value, no further
    /// clones or retries are issued until completions dilute it back
    /// under budget. `0` (the default) means unlimited.
    pub waste_budget: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            trigger: HedgeTrigger::Immediate,
            max_clones: 1,
            retry_after_ms: 0.0,
            waste_budget: 0.0,
        }
    }
}

impl HedgeConfig {
    /// Basic sanity checks on the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_clones == 0 {
            return Err("hedge max_clones must be at least 1".into());
        }
        if let HedgeTrigger::DeferredMs(ms) = self.trigger {
            if !(ms.is_finite() && ms >= 0.0) {
                return Err(format!(
                    "hedge deferred_ms must be finite and non-negative, got {ms}"
                ));
            }
        }
        if !(self.retry_after_ms.is_finite() && self.retry_after_ms >= 0.0) {
            return Err(format!(
                "hedge retry_after_ms must be finite and non-negative, got {}",
                self.retry_after_ms
            ));
        }
        if !(self.waste_budget.is_finite() && (0.0..=1.0).contains(&self.waste_budget)) {
            return Err(format!(
                "hedge waste_budget must be in [0, 1], got {}",
                self.waste_budget
            ));
        }
        Ok(())
    }
}

impl Serialize for HedgeTrigger {
    fn serialize(&self) -> Value {
        match self {
            HedgeTrigger::Immediate => Value::String("immediate".into()),
            HedgeTrigger::DeferredMs(ms) => {
                let mut m = Map::new();
                m.insert("deferred_ms".into(), ms.serialize());
                Value::Object(m)
            }
            HedgeTrigger::PredictedP95OverSlo => Value::String("predicted-p95-over-slo".into()),
        }
    }
}

impl Deserialize for HedgeTrigger {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        if let Some(s) = v.as_str() {
            return match s {
                "immediate" => Ok(HedgeTrigger::Immediate),
                "predicted-p95-over-slo" => Ok(HedgeTrigger::PredictedP95OverSlo),
                other => Err(Error::custom(format!(
                    "unknown hedge trigger {other:?} (expected \"immediate\", \
                     \"predicted-p95-over-slo\", or {{\"deferred_ms\": <ms>}})"
                ))),
            };
        }
        if let Value::Object(m) = v {
            if let (1, Some(ms)) = (m.len(), m.get("deferred_ms")) {
                return Ok(HedgeTrigger::DeferredMs(f64::deserialize(ms)?));
            }
        }
        Err(Error::custom(
            "hedge trigger must be \"immediate\", \"predicted-p95-over-slo\", \
             or {\"deferred_ms\": <ms>}",
        ))
    }
}

impl Serialize for HedgeConfig {
    fn serialize(&self) -> Value {
        let mut m = Map::new();
        m.insert("trigger".into(), self.trigger.serialize());
        m.insert("max_clones".into(), self.max_clones.serialize());
        // New knobs appear only when set, so pre-retry configs keep
        // their exact historical byte layout.
        if self.retry_after_ms > 0.0 {
            m.insert("retry_after_ms".into(), self.retry_after_ms.serialize());
        }
        if self.waste_budget > 0.0 {
            m.insert("waste_budget".into(), self.waste_budget.serialize());
        }
        Value::Object(m)
    }
}

impl Deserialize for HedgeConfig {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let m = serde::helpers::as_object(v, "hedge config")?;
        let mut cfg = HedgeConfig::default();
        for (k, val) in m {
            match k.as_str() {
                "trigger" => cfg.trigger = HedgeTrigger::deserialize(val)?,
                "max_clones" => cfg.max_clones = u32::deserialize(val)?,
                "retry_after_ms" => cfg.retry_after_ms = f64::deserialize(val)?,
                "waste_budget" => cfg.waste_budget = f64::deserialize(val)?,
                other => {
                    return Err(Error::custom(format!(
                        "unknown hedge config field {other:?}"
                    )))
                }
            }
        }
        Ok(cfg)
    }
}

/// Everything the front end of a [`Federation`] is configured with,
/// fixed for the whole run: one value from the scenario to the front
/// end, checked once by [`FederationConfig::validate`]. The default is
/// oracle routing under the default router constants, no hedging, no
/// migration penalty and no reconciler.
#[derive(Debug, Clone, Copy, Default)]
pub struct FederationConfig {
    /// The router and per-site telemetry constants (SLO budget,
    /// percentile, λ̂/μ̂/health smoothing).
    pub router: RouterConfig,
    /// Delayed telemetry propagation; a zero report interval routes on
    /// oracle-fresh state.
    pub telemetry: TelemetryConfig,
    /// Hedged requests; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// Extra latency added to every migrated request's re-delivery, on
    /// top of the destination's inbound hop.
    pub migration_penalty: SimDuration,
    /// Target utilization of the control plane's
    /// [`UtilizationReconciler`](crate::telemetry::UtilizationReconciler):
    /// each snapshot, as it *arrives*, may yield a desired server count
    /// that travels back to the site at the same latency and lands
    /// through [`ContainerChaos::apply_desired_fleet`]. Needs telemetry
    /// (snapshots are its only input).
    pub reconciler_target: Option<f64>,
}

impl FederationConfig {
    /// Check every knob, and the ones that depend on each other.
    pub fn validate(&self) -> Result<(), String> {
        self.router.validate()?;
        self.telemetry.validate()?;
        if let Some(hedge) = &self.hedge {
            hedge.validate()?;
        }
        if let Some(rho) = self.reconciler_target {
            if !(rho.is_finite() && rho > 0.0 && rho < 1.0) {
                return Err(format!(
                    "reconciler target utilization must be in (0, 1), got {rho}"
                ));
            }
            if !self.telemetry.enabled() {
                return Err(
                    "the reconciler needs telemetry enabled (snapshots are its only input)".into(),
                );
            }
        }
        Ok(())
    }
}

/// Events of a federated run: deliveries completing their network hop,
/// the inner schedulers' own events tagged by site, and the front end's
/// timers and faults.
pub enum FedEv<E> {
    /// A routed request reaches its destination site.
    Deliver {
        /// Destination site index.
        site: u32,
        /// The request.
        rid: ReqId,
        /// The request's function.
        fn_idx: u32,
    },
    /// An inner scheduler's event, tagged with its site.
    Site {
        /// Owning site index.
        site: u32,
        /// The site incarnation that scheduled the event. A crash bumps
        /// the incarnation, so events of the dead instance are dropped
        /// instead of being misdelivered to its replacement.
        epoch: u32,
        /// The inner event payload.
        ev: E,
    },
    /// A site's node agent publishes its telemetry snapshot (only
    /// scheduled when the propagation layer is enabled). The handler
    /// re-arms the next publish, so the schedule is self-perpetuating.
    Publish {
        /// Publishing site index.
        site: u32,
    },
    /// A published snapshot completes its network hop and reaches the
    /// router's view.
    SnapshotArrive {
        /// Originating site index.
        site: u32,
        /// The snapshot, as published (boxed: it is several times the
        /// size of every other event).
        snap: Box<TelemetrySnapshot>,
    },
    /// A reconciler directive (desired server count, computed from a
    /// *reported* snapshot) completes its return hop to the site.
    Directive {
        /// Destination site index.
        site: u32,
        /// Desired total warm-container count.
        desired: u32,
    },
    /// A deferred hedge timer fires: if the race is still unresolved,
    /// dispatch its clones now. Cancelled once the race resolves (a
    /// no-op then, on a calendar that cannot cancel).
    HedgeFire {
        /// The hedged request.
        rid: ReqId,
        /// The request's function.
        fn_idx: u32,
    },
    /// A cancellation message for a losing hedge clone completes its
    /// network hop to the clone's site. Arriving after the clone began
    /// service is a wasted-work tally, not an error; arriving at a site
    /// that already shed the clone (crash, migration) is a no-op.
    CancelDeliver {
        /// The losing clone's site.
        site: u32,
        /// The hedged request.
        rid: ReqId,
    },
    /// A scheduled fault of the federation's chaos schedule fires.
    Fault(Fault),
}

/// The books one site keeps on the requests it holds: the one ledger
/// of both federation drivers (the router-facing half of a site lives
/// in the shared front end). `A` is what a driver keeps per live
/// request to time its completion: nothing in the sequential driver,
/// whose engine request table holds the arrival, and the front-door
/// arrival in the windowed driver.
pub(crate) struct SiteTally<A = ()> {
    /// Per-function arrival counts since the site's last window take.
    pub(crate) window: Vec<u64>,
    /// Per-function statistics of requests finished at this site.
    pub(crate) per_fn: Vec<FnStats>,
    /// Live requests held by the site (delivered, not yet finished):
    /// rid → (fn, `A`), keyed by request id for deterministic
    /// evacuation order.
    pub(crate) live: BTreeMap<u64, (u32, A)>,
    /// Completions held back by an ongoing partition: `(rid, started)`.
    pub(crate) stalled: Vec<(u64, SimTime)>,
    /// Containers crashed here by chaos bursts.
    pub(crate) chaos_crashes: u32,
    /// Copies here that must never win: losers of a resolved race and
    /// copies a retry abandoned, keyed by request id. A marked copy's
    /// completion is wasted work. The sequential driver marks a copy
    /// when the race decides, before the cancel lands, so its timeout
    /// or loss must not retire the request; the windowed driver marks
    /// it when the cancel lands and releases it. A mark leaves with its
    /// copy: when the copy runs out as wasted work, times out, is lost
    /// or discarded by the scheduler, migrates, is eaten at the door,
    /// or dies in a crash. Every mark names a live request, except a
    /// copy still crossing the network and a released copy that the
    /// scheduler may still run; [`Mark`] says which (see
    /// [`SiteTally::audit`]).
    pub(crate) hedge_lost: BTreeMap<u64, Mark>,
    /// Whether completions record their samples: only when the site's
    /// policy reads them ([`SchedulerPolicy::READS_SAMPLES`]).
    pub(crate) samples: bool,
}

/// Where a marked copy (see `SiteTally::hedge_lost`) stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mark {
    /// Still crossing the network to the site.
    InTransit,
    /// On the site's books (a live request).
    Held,
    /// Off the books (its cancel landed), but the scheduler may still
    /// hold it.
    Released,
}

impl<A> SiteTally<A> {
    /// Empty books over the site's per-function statistics, recording
    /// completion samples when `samples` is set.
    pub(crate) fn new(per_fn: Vec<FnStats>, samples: bool) -> Self {
        Self {
            window: vec![0; per_fn.len()],
            per_fn,
            live: BTreeMap::new(),
            stalled: Vec::new(),
            chaos_crashes: 0,
            hedge_lost: BTreeMap::new(),
            samples,
        }
    }

    /// A request reaches the site (a marked copy crossing the network
    /// arrives with its mark).
    pub(crate) fn admit(&mut self, rid: u64, fn_idx: u32, timing: A) {
        self.window[fn_idx as usize] += 1;
        self.per_fn[fn_idx as usize].arrivals += 1;
        self.live.insert(rid, (fn_idx, timing));
        if let Some(mark) = self.hedge_lost.get_mut(&rid) {
            *mark = Mark::Held;
        }
    }

    /// The request leaves the site, however it ended; `None` if the
    /// site no longer holds it.
    pub(crate) fn release(&mut self, rid: u64) -> Option<(u32, A)> {
        self.live.remove(&rid)
    }

    /// Mark the copy of `rid` here as one that must never win, wherever
    /// it stands.
    pub(crate) fn mark(&mut self, rid: u64) {
        let mark = if self.live.contains_key(&rid) {
            Mark::Held
        } else {
            Mark::InTransit
        };
        self.hedge_lost.insert(rid, mark);
    }

    /// The copy of `rid` here left the scheduler without answering
    /// (ran out as wasted work, timed out, was lost or discarded):
    /// whether it was marked. Its mark goes with it.
    pub(crate) fn unmark(&mut self, rid: u64) -> bool {
        self.hedge_lost.remove(&rid).is_some()
    }

    /// Per-function arrivals since the last take; resets the windows.
    pub(crate) fn take_window(&mut self) -> Vec<u64> {
        self.window.iter_mut().map(std::mem::take).collect()
    }

    /// The request completed here.
    pub(crate) fn complete(&mut self, c: &Completion) {
        let stats = &mut self.per_fn[c.fn_idx as usize];
        if self.samples {
            stats.record(c);
        } else {
            stats.count(c);
        }
    }

    /// The request timed out here.
    pub(crate) fn time_out(&mut self, rid: u64) -> Option<u32> {
        let (fn_idx, _) = self.release(rid)?;
        self.per_fn[fn_idx as usize].time_out();
        Some(fn_idx)
    }

    /// The request was lost here.
    pub(crate) fn lose(&mut self, rid: u64) -> Option<u32> {
        let (fn_idx, _) = self.release(rid)?;
        self.per_fn[fn_idx as usize].lost += 1;
        Some(fn_idx)
    }

    /// A losing copy's cancel lands: the site drops it from its books,
    /// if it still holds it. The scheduler is not told, so the copy's
    /// mark stays until the copy leaves the scheduler.
    pub(crate) fn cancel(&mut self, rid: u64) -> Option<u32> {
        let (fn_idx, _) = self.release(rid)?;
        self.per_fn[fn_idx as usize].cancelled += 1;
        if let Some(mark) = self.hedge_lost.get_mut(&rid) {
            *mark = Mark::Released;
        }
        Some(fn_idx)
    }

    /// A completion cannot cross the cut link: hold it until the
    /// partition heals (the stall lands in its response time).
    pub(crate) fn stall(&mut self, rid: u64, started: SimTime) {
        if self.live.contains_key(&rid) {
            self.stalled.push((rid, started));
        }
    }

    /// The site crashed: hand over every request it held, in request-id
    /// order, and drop the held-back responses. Every copy the
    /// scheduler held dies with it and takes its mark along; a marked
    /// copy still crossing the network keeps its mark.
    pub(crate) fn evacuate(&mut self) -> BTreeMap<u64, (u32, A)> {
        self.stalled.clear();
        self.hedge_lost.retain(|_, mark| *mark == Mark::InTransit);
        std::mem::take(&mut self.live)
    }

    /// A crashed site comes back: its rebuilt scheduler starts with
    /// fresh arrival windows (it holds nothing since the evacuation).
    pub(crate) fn restart(&mut self) {
        self.window.fill(0);
    }

    /// The ledger's invariant: a mark says `Held` exactly when its copy
    /// is a live request here.
    pub(crate) fn audit(&self) {
        for (rid, &mark) in &self.hedge_lost {
            assert_eq!(
                self.live.contains_key(rid),
                mark == Mark::Held,
                "hedge mark {mark:?} of request {rid} disagrees with the live requests"
            );
        }
    }

    /// Close the books when the run ends (auditing them in debug
    /// builds): the site's chaos-crashed containers and the outcome its
    /// scheduler reports from.
    pub(crate) fn close(self, duration_secs: f64) -> (u32, EngineOutcome) {
        if cfg!(debug_assertions) {
            self.audit();
        }
        let outcome = EngineOutcome {
            outstanding: self.live.len(),
            per_fn: self.per_fn,
            duration_secs,
        };
        (self.chaos_crashes, outcome)
    }
}

/// The per-site view of the engine: delegates to the real context while
/// tagging events with the site and keeping the site's statistics.
struct SiteCtx<'a, C> {
    inner: &'a mut C,
    site: u32,
    /// The site's incarnation, stamped on every event it schedules.
    epoch: u32,
    tally: &'a mut SiteTally,
    front: &'a mut Front,
    /// Shift applied to scheduled times — non-zero only while replaying
    /// a rebuilt policy's `on_start` (written against `t = 0`) after a
    /// crash recovery.
    offset: SimDuration,
    /// Logical-request retirements (complete / abandon / lose) recorded
    /// during this callback, as `(rid, site)` — the federation settles
    /// their hedge races afterwards. Unused — pushed to and cleared —
    /// when hedging is off.
    retired: &'a mut Vec<(u64, u32)>,
}

impl<C> SiteCtx<'_, C> {
    /// The logical request `rid` left this site without completing.
    fn retire(&mut self, rid: ReqId) {
        self.front.sites[self.site as usize].finished += 1;
        self.retired.push((rid.0, self.site));
    }
}

impl<E, C: PolicyCtx<FedEv<E>>> PolicyCtx<E> for SiteCtx<'_, C> {
    fn schedule(&mut self, at: SimTime, ev: E) {
        self.inner.schedule(
            at + self.offset,
            FedEv::Site {
                site: self.site,
                epoch: self.epoch,
                ev,
            },
        );
    }

    fn end_time(&self) -> SimTime {
        self.inner.end_time()
    }

    fn fn_count(&self) -> usize {
        self.inner.fn_count()
    }

    fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng {
        self.inner.service_rng(fn_idx)
    }

    fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)> {
        self.inner.request_info(rid)
    }

    fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion> {
        if self.front.sites[self.site as usize].partitioned {
            // The policy sees `None` and skips its own completion
            // accounting; the request stays live engine-side.
            self.tally.stall(rid.0, started);
            return None;
        }
        // A copy this federation already abandoned (a retried original,
        // or a hedge clone whose sibling already answered) never wins,
        // even while the logical request is still live engine-side: the
        // container ran it to the end for nothing — wasted work.
        if self.tally.unmark(rid.0) {
            let secs = now.saturating_since(started).as_secs_f64();
            self.front.sites[self.site as usize].waste(secs);
            return None;
        }
        let c = self.inner.complete(rid, started, now)?;
        self.tally.release(rid.0);
        self.tally.complete(&c);
        self.front.record_completion(self.site as usize, c.service);
        self.retired.push((rid.0, self.site));
        Some(c)
    }

    // A marked copy (see `SiteTally::hedge_lost`) never retires the
    // request: it stays on the books until its cancel lands, and only
    // its mark leaves.
    fn abandon(&mut self, rid: ReqId) -> Option<u32> {
        if self.tally.unmark(rid.0) {
            return None;
        }
        let fn_idx = self.inner.abandon(rid)?;
        self.tally.time_out(rid.0);
        self.retire(rid);
        Some(fn_idx)
    }

    fn lose(&mut self, rid: ReqId) -> Option<u32> {
        if self.tally.unmark(rid.0) {
            return None;
        }
        let fn_idx = self.inner.lose(rid)?;
        self.tally.lose(rid.0);
        self.retire(rid);
        Some(fn_idx)
    }

    fn rerun(&mut self, rid: ReqId) -> Option<u32> {
        let fn_idx = self.inner.rerun(rid)?;
        self.tally.per_fn[fn_idx as usize].reruns += 1;
        Some(fn_idx)
    }

    fn take_window_counts(&mut self) -> Vec<u64> {
        self.tally.take_window()
    }

    fn discard(&mut self, rid: ReqId) {
        self.tally.unmark(rid.0);
    }

    fn outstanding(&self) -> usize {
        self.tally.live.len()
    }
}

/// One site's slice of a [`FederatedReport`].
#[derive(Debug)]
pub struct SiteReport<R> {
    /// Site name.
    pub name: String,
    /// One-way routing latency to the site, seconds.
    pub latency_secs: f64,
    /// Requests the router sent to this site.
    pub routed: usize,
    /// Requests migrated away from this site (crash orphans plus
    /// bounced in-transit deliveries).
    pub migrated: usize,
    /// Migrated requests this site accepted from failing sites.
    pub migrated_in: usize,
    /// Requests committed here that could not be migrated anywhere and
    /// were failed.
    pub failed: usize,
    /// Containers crashed here by chaos bursts.
    pub chaos_crashes: u32,
    /// Total time the site was unroutable (crashed or partitioned),
    /// seconds, measured over the nominal run duration.
    pub downtime_secs: f64,
    /// The site's flakiness score (downtime EWMA in `[0, 1]`) at the
    /// end of the run — the failure-aware router's view of the site.
    pub flakiness: f64,
    /// Hedge clones that ran to completion here after their sibling had
    /// already answered (cancel arrived mid-service or too late).
    pub wasted_work: usize,
    /// Service seconds burned by those wasted completions.
    pub wasted_secs: f64,
    /// End-of-run per-dimension utilization `[cpu, mem, bw]` in
    /// `[0, 1]`.
    pub utilization: [f64; 3],
    /// The inner scheduler's own report, built from the site-local
    /// request statistics.
    pub report: R,
}

/// The report of a federated run: one inner report per site plus the
/// engine's cross-site aggregate.
#[derive(Debug)]
pub struct FederatedReport<R> {
    /// Name of the router that made the dispatch decisions.
    pub router: String,
    /// Per-site reports, in topology order.
    pub per_site: Vec<SiteReport<R>>,
    /// Cross-site per-function statistics (the engine's own measurement,
    /// indexed by function registration order). Waiting times include the
    /// routing hop.
    pub aggregate_per_fn: Vec<FnStats>,
    /// Arrivals dropped at the front door because no site was routable.
    pub unroutable: usize,
    /// Total wasted-work completions across sites (hedge clones served
    /// to the end after their sibling won).
    pub wasted_work: usize,
    /// Requests unanswered when the run ended (including in-transit).
    pub outstanding: usize,
    /// Simulated duration in seconds (excluding drain).
    pub duration: f64,
    /// Threads the run *actually* used, the calling thread included: 1
    /// for a sequential run (including the parallel driver's
    /// zero-latency/single-site fallback), the effective thread count
    /// otherwise. Deliberately
    /// excluded from the serialized report — the JSON key set is pinned
    /// by goldens, and the thread count must never differ across
    /// byte-identical runs anyway.
    pub threads: usize,
}

impl<R: Serialize> Serialize for SiteReport<R> {
    fn serialize(&self) -> Value {
        let mut m = Map::new();
        m.insert("name".into(), self.name.serialize());
        m.insert("latency_secs".into(), self.latency_secs.serialize());
        m.insert("routed".into(), self.routed.serialize());
        m.insert("migrated".into(), self.migrated.serialize());
        m.insert("migrated_in".into(), self.migrated_in.serialize());
        m.insert("failed".into(), self.failed.serialize());
        m.insert("chaos_crashes".into(), self.chaos_crashes.serialize());
        m.insert("downtime_secs".into(), self.downtime_secs.serialize());
        m.insert("flakiness".into(), self.flakiness.serialize());
        // Hedging keys appear only when hedging actually wasted work, so
        // hedge-free reports keep their exact historical byte layout.
        if self.wasted_work != 0 {
            m.insert("wasted_work".into(), self.wasted_work.serialize());
            m.insert("wasted_secs".into(), self.wasted_secs.serialize());
        }
        m.insert("utilization".into(), self.utilization.serialize());
        m.insert("report".into(), self.report.serialize());
        Value::Object(m)
    }
}

impl<R: Serialize> Serialize for FederatedReport<R> {
    fn serialize(&self) -> Value {
        let mut m = Map::new();
        m.insert("router".into(), self.router.serialize());
        m.insert("per_site".into(), self.per_site.serialize());
        m.insert("aggregate_per_fn".into(), self.aggregate_per_fn.serialize());
        m.insert("unroutable".into(), self.unroutable.serialize());
        if self.wasted_work != 0 {
            m.insert("wasted_work".into(), self.wasted_work.serialize());
        }
        m.insert("outstanding".into(), self.outstanding.serialize());
        m.insert("duration".into(), self.duration.serialize());
        Value::Object(m)
    }
}

/// Rebuilds a site's scheduler after a crash: `(site index, restart
/// count)` → a fresh policy instance (cold, as provisioned at `t = 0`).
pub type SiteRebuild<P> = Box<dyn FnMut(usize, u32) -> P + Send>;

/// The federated meta-policy: a router in front of one inner scheduler
/// instance per site. See the module docs for the full contract.
pub struct Federation<P: SchedulerPolicy> {
    pub(crate) sites: Vec<P>,
    pub(crate) tallies: Vec<SiteTally>,
    /// Site incarnations; a crash bumps one to invalidate the dead
    /// instance's events.
    epochs: Vec<u32>,
    /// The router-facing half, shared with the parallel driver.
    pub(crate) front: Front,
    /// Factory that rebuilds a crashed site's scheduler on recovery.
    pub(crate) rebuild: Option<SiteRebuild<P>>,
    /// Retirements recorded by the scoped contexts during the current
    /// callback, settled afterwards.
    retired: Vec<(u64, u32)>,
    /// The fault schedule's config and seed (see
    /// [`Federation::with_chaos`]); the default injects nothing.
    chaos: ChaosConfig,
    chaos_seed: u64,
}

impl<P: ContainerChaos> Federation<P> {
    /// Build a federation over `sites` (meta + inner scheduler each),
    /// fronted by `router`, under the default [`FederationConfig`].
    /// `functions` carries the per-function names and SLO deadlines used
    /// for per-site statistics; it must match the engine's function
    /// registration order.
    pub fn new(
        sites: Vec<(SiteMeta, P)>,
        router: Box<dyn RouterPolicy + Send>,
        functions: &[FedFunction],
    ) -> Self {
        Self::configured(sites, router, functions, FederationConfig::default(), 0)
            .expect("the default federation config is valid")
    }

    /// Build a federation as [`Federation::new`] does, with its front end
    /// configured by `cfg`. `seed` is the run's master seed: the per-site
    /// telemetry jitter streams are labelled off it, identically in the
    /// sequential and parallel drivers.
    pub fn configured(
        sites: Vec<(SiteMeta, P)>,
        router: Box<dyn RouterPolicy + Send>,
        functions: &[FedFunction],
        cfg: FederationConfig,
        seed: u64,
    ) -> Result<Self, String> {
        cfg.validate()?;
        assert!(!sites.is_empty(), "federation needs at least one site");
        let (metas, sites): (Vec<SiteMeta>, Vec<P>) = sites.into_iter().unzip();
        let stats =
            |f: &FedFunction| FnStats::empty(f.name.clone(), f.slo_deadline, SampleStats::new);
        let tallies = sites.iter().map(|_| functions.iter().map(stats).collect());
        Ok(Self {
            tallies: tallies
                .map(|per_fn| SiteTally::new(per_fn, P::READS_SAMPLES))
                .collect(),
            epochs: vec![0; sites.len()],
            sites,
            front: Front::new(metas, router, functions, cfg, seed),
            rebuild: None,
            retired: Vec::new(),
            chaos: ChaosConfig::default(),
            chaos_seed: 0,
        })
    }

    /// Install the factory that rebuilds a crashed site's scheduler on
    /// recovery. Required before injecting [`Fault::SiteDown`].
    pub fn with_rebuild(mut self, rebuild: SiteRebuild<P>) -> Self {
        self.rebuild = Some(rebuild);
        self
    }

    /// Run under the fault schedule of `chaos`, replacing any set
    /// before. `seed` feeds the labelled fault streams
    /// (`chaos:crash:<site>`, `chaos:partition:<site>`, `chaos:burst`):
    /// pass the engine seed so one scenario seed pins the whole run.
    /// Faults target sites by index; a timed fault aimed past the last
    /// site is an error, as is a knob [`ChaosConfig::validate`] rejects.
    pub fn with_chaos(mut self, chaos: ChaosConfig, seed: u64) -> Result<Self, String> {
        chaos.validate()?;
        let sites = self.sites.len();
        if let Some((at, fault)) = chaos
            .events
            .iter()
            .find(|(_, f)| f.site() as usize >= sites)
        {
            return Err(format!(
                "chaos event at t={at}s targets site {} of a {sites}-site topology",
                fault.site()
            ));
        }
        self.chaos = chaos;
        self.chaos_seed = seed;
        Ok(self)
    }

    /// The faults this federation injects over a run ending (nominally)
    /// at `end`, in scheduling order (see [`ChaosConfig::build_schedule`]).
    /// Both drivers take their faults from here.
    pub(crate) fn fault_schedule(&self, end: SimTime) -> Vec<(SimTime, Fault)> {
        self.chaos
            .build_schedule(self.chaos_seed, self.sites.len(), end)
    }

    /// Collect per-site per-function statistics in streaming
    /// (latency-sketch, O(1)-memory) form instead of retaining every
    /// sample. Pair with [`crate::engine::EngineConfig::stream_stats`]
    /// when replaying traces with very large function populations; call
    /// before the run starts. A site policy that declares
    /// [`SchedulerPolicy::READS_SAMPLES`] `false` gets no samples in
    /// either form, so its ledger's sketches stay empty and unallocated.
    pub fn with_streaming_stats(mut self) -> Self {
        for tally in &mut self.tallies {
            for f in &mut tally.per_fn {
                f.wait = SampleStats::streaming();
                f.response = SampleStats::streaming();
                f.service = SampleStats::streaming();
            }
        }
        self
    }

    /// Switch on delayed telemetry propagation after [`Federation::new`]
    /// (`seed` as in [`Federation::configured`]). Kept for the benchmark,
    /// which builds its federations this way; everything else passes a
    /// [`FederationConfig`] to [`Federation::configured`]. Call before
    /// the run starts.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig, seed: u64) -> &mut Self {
        let config = FederationConfig {
            telemetry: cfg,
            ..self.front.cfg
        };
        config.validate().expect("invalid FederationConfig");
        self.front.set_telemetry(cfg, seed);
        self
    }

    /// Switch on hedged requests after [`Federation::new`]. Kept for the
    /// benchmark, like [`Federation::set_telemetry`]. Call before the run
    /// starts.
    pub fn set_hedge(&mut self, cfg: HedgeConfig) -> &mut Self {
        let config = FederationConfig {
            hedge: Some(cfg),
            ..self.front.cfg
        };
        config.validate().expect("invalid FederationConfig");
        self.front.cfg = config;
        self
    }

    /// The scoped context of site `i` over the engine context `ctx`.
    fn site_ctx<'a, C>(&'a mut self, ctx: &'a mut C, i: usize) -> (&'a mut P, SiteCtx<'a, C>) {
        (
            &mut self.sites[i],
            SiteCtx {
                inner: ctx,
                site: i as u32,
                epoch: self.epochs[i],
                tally: &mut self.tallies[i],
                front: &mut self.front,
                offset: SimDuration::ZERO,
                retired: &mut self.retired,
            },
        )
    }

    /// Send `rid` to site `to` over a hop of `hop` (inline when zero, so
    /// the degenerate single-site topology replays the plain run
    /// event-for-event).
    fn send(
        &mut self,
        ctx: &mut impl PolicyCtx<FedEv<P::Event>>,
        to: usize,
        hop: SimDuration,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        let site = to as u32;
        if hop == SimDuration::ZERO {
            self.deliver(ctx, site, rid, fn_idx, now);
        } else {
            ctx.schedule(now + hop, FedEv::Deliver { site, rid, fn_idx });
        }
    }

    /// Send hedge clones of `rid` to the sites the front end committed.
    fn send_clones(
        &mut self,
        ctx: &mut impl PolicyCtx<FedEv<P::Event>>,
        rid: ReqId,
        fn_idx: u32,
        clones: Vec<usize>,
        now: SimTime,
    ) {
        for c in clones {
            self.tallies[c].per_fn[fn_idx as usize].hedged += 1;
            ctx.note_hedged(fn_idx);
            let latency = self.front.sites[c].meta.latency;
            self.send(ctx, c, latency, rid, fn_idx, now);
        }
    }

    /// The landing side of a loser-cancellation hop: release the site's
    /// books for the clone if it still holds one. Idempotent — the clone
    /// may already have crashed away, migrated, or been consumed at the
    /// delivery door.
    fn cancel_clone_at(
        &mut self,
        ctx: &mut impl PolicyCtx<FedEv<P::Event>>,
        site: u32,
        rid: ReqId,
    ) {
        if let Some(fn_idx) = self.tallies[site as usize].cancel(rid.0) {
            self.front.sites[site as usize].finished += 1;
            self.front.loser_settled(rid.0, site);
            ctx.note_cancelled(fn_idx);
        }
    }

    /// Cancel what the front end asked for: the timer where the
    /// calendar allows, and each copy of `rid`. A copy is marked at once
    /// (a completion that beats the cancel home is already wasted work)
    /// but its books are released only when the cancel lands, after the
    /// copy's latency (inline for a zero-latency site).
    fn cancel(
        &mut self,
        ctx: &mut impl PolicyCtx<FedEv<P::Event>>,
        rid: u64,
        cancel: Cancel,
        now: SimTime,
    ) {
        if let Some(token) = cancel.timer {
            ctx.cancel_scheduled(token);
        }
        for site in cancel.copies {
            self.tallies[site as usize].mark(rid);
            let latency = self.front.sites[site as usize].meta.latency;
            let rid = ReqId(rid);
            if latency == SimDuration::ZERO {
                self.cancel_clone_at(ctx, site, rid);
            } else {
                ctx.schedule(now + latency, FedEv::CancelDeliver { site, rid });
            }
        }
    }

    /// Settle the retirements recorded during the callback that just
    /// returned — this driver's merge point — in the order they
    /// happened.
    fn settle_retired(&mut self, ctx: &mut impl PolicyCtx<FedEv<P::Event>>, now: SimTime) {
        if self.retired.is_empty() || self.front.cfg.hedge.is_none() {
            self.retired.clear();
            return;
        }
        let mut retired = std::mem::take(&mut self.retired);
        for (rid, site) in retired.drain(..) {
            if let Some(cancel) = self.front.settle(rid, site) {
                self.cancel(ctx, rid, cancel, now);
            }
        }
        self.retired = retired;
    }

    /// Deliver a routed request to its site's scheduler.
    fn deliver(
        &mut self,
        ctx: &mut impl PolicyCtx<FedEv<P::Event>>,
        site: u32,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        let i = site as usize;
        if self.front.door(rid.0, site) {
            // The copy never enters the site; its mark goes with it.
            let tally = &mut self.tallies[i];
            tally.unmark(rid.0);
            let f = &mut tally.per_fn[fn_idx as usize];
            f.arrivals += 1;
            f.cancelled += 1;
            ctx.note_cancelled(fn_idx);
            return;
        }
        if !self.front.sites[i].routable() {
            // The destination died (or was cut off) while the request
            // was in flight: it bounces off the dark site and migrates.
            self.front.bounce(i);
            self.migrate(ctx, i, rid, fn_idx, now, false);
            return;
        }
        self.tallies[i].admit(rid.0, fn_idx, ());
        let (policy, mut sctx) = self.site_ctx(ctx, i);
        policy.on_arrival(&mut sctx, rid, fn_idx, now);
    }

    /// Move a request committed to site `from` onto a surviving site
    /// (or fail it when none is left). `delivered` says whether the
    /// request had already reached the site (crash orphan, its books
    /// already handed over) or was still in transit (bounced delivery).
    fn migrate(
        &mut self,
        ctx: &mut impl PolicyCtx<FedEv<P::Event>>,
        from: usize,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
        delivered: bool,
    ) {
        // The copy leaves the site, and its mark with it.
        self.tallies[from].unmark(rid.0);
        let n_fns = ctx.fn_count();
        let census = |i| Census::of(&self.sites[i], fn_idx, n_fns);
        match self.front.migrate(rid.0, from, fn_idx, now, census) {
            Migration::Dies => {
                if delivered {
                    self.tallies[from].per_fn[fn_idx as usize].cancelled += 1;
                }
                ctx.note_cancelled(fn_idx);
            }
            Migration::Fails(cancel) => {
                if delivered {
                    self.tallies[from].per_fn[fn_idx as usize].lost += 1;
                }
                ctx.lose(rid);
                self.cancel(ctx, rid.0, cancel, now);
            }
            Migration::Moves(dest, hop) => {
                if delivered {
                    // The orphan lost its server; the aggregate rerun
                    // counter is the cross-site view of that.
                    ctx.rerun(rid);
                }
                self.send(ctx, dest, hop, rid, fn_idx, now);
            }
        }
    }
}

impl<P: ContainerChaos> SchedulerPolicy for Federation<P> {
    type Event = FedEv<P::Event>;
    type Report = FederatedReport<P::Report>;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<Self::Event>) {
        for i in 0..self.sites.len() {
            let (policy, mut sctx) = self.site_ctx(ctx, i);
            policy.on_start(&mut sctx);
        }
        if self.front.telemetry.enabled() {
            for i in 0..self.sites.len() {
                let at = self.front.telemetry.next_publish(i);
                ctx.schedule(at, FedEv::Publish { site: i as u32 });
            }
        }
        for (at, fault) in self.fault_schedule(ctx.end_time()) {
            ctx.schedule(at, FedEv::Fault(fault));
        }
    }

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<Self::Event>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        if !self.front.any_routable() {
            // Every site is dark: the front door has nowhere to send
            // the request and sheds it.
            self.front.unroutable += 1;
            ctx.lose(rid);
            return;
        }
        let n_fns = ctx.fn_count();
        let census = |i| Census::of(&self.sites[i], fn_idx, n_fns);
        let chosen = self.front.pick(fn_idx, now, census, None);
        self.front.commit(chosen, now);
        // The race opens before the primary leaves: a zero-latency
        // primary is delivered inline, and may bounce and migrate, or
        // answer, before this call returns.
        let step = self.front.open_race(rid.0, chosen, now);
        let latency = self.front.sites[chosen].meta.latency;
        self.send(ctx, chosen, latency, rid, fn_idx, now);
        match step {
            Some(HedgeStep::Clone(clones)) => self.send_clones(ctx, rid, fn_idx, clones, now),
            Some(HedgeStep::Arm(at)) => {
                let token = ctx.schedule_cancellable(at, FedEv::HedgeFire { rid, fn_idx });
                self.front.arm_race(rid.0, token);
            }
            None => {}
        }
        self.settle_retired(ctx, now);
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Self::Event>, ev: Self::Event, now: SimTime) {
        match ev {
            FedEv::Deliver { site, rid, fn_idx } => self.deliver(ctx, site, rid, fn_idx, now),
            FedEv::Site { site, epoch, ev } => {
                let i = site as usize;
                if epoch != self.epochs[i] {
                    return; // stale event of a crashed incarnation
                }
                let (policy, mut sctx) = self.site_ctx(ctx, i);
                policy.on_event(&mut sctx, ev, now);
            }
            FedEv::HedgeFire { rid, fn_idx } => {
                let n_fns = ctx.fn_count();
                let census = |i| Census::of(&self.sites[i], fn_idx, n_fns);
                if let Some(fired) = self.front.fire_race(rid.0, fn_idx, now, census) {
                    self.send_clones(ctx, rid, fn_idx, fired.clones, now);
                    self.cancel(ctx, rid.0, fired.cancel, now);
                }
            }
            FedEv::CancelDeliver { site, rid } => self.cancel_clone_at(ctx, site, rid),
            FedEv::Publish { site } => {
                let i = site as usize;
                let (next, snap) = self.front.publish(i, now, &self.sites[i]);
                ctx.schedule(next, FedEv::Publish { site });
                if let Some((at, snap)) = snap {
                    let snap = Box::new(snap);
                    ctx.schedule(at, FedEv::SnapshotArrive { site, snap });
                }
            }
            FedEv::SnapshotArrive { site, snap } => {
                if let Some((at, desired)) = self.front.snapshot_arrive(site as usize, *snap, now) {
                    ctx.schedule(at, FedEv::Directive { site, desired });
                }
            }
            FedEv::Directive { site, desired } => {
                let i = site as usize;
                if self.front.directive_lands(i) {
                    let (policy, mut sctx) = self.site_ctx(ctx, i);
                    policy.apply_desired_fleet(&mut sctx, desired, now);
                }
            }
            FedEv::Fault(fault) => self.inject(ctx, fault, now),
        }
        self.settle_retired(ctx, now);
    }

    fn finish(self, outcome: EngineOutcome) -> Self::Report {
        self.front.audit_races(outcome.outstanding, |rid, site| {
            self.tallies[site as usize].live.contains_key(&rid)
        });
        let duration = outcome.duration_secs;
        let parts = self
            .sites
            .into_iter()
            .zip(self.tallies)
            .map(|(site, tally)| {
                let utilization = site.resource_snapshot().utilization();
                let (crashes, site_outcome) = tally.close(duration);
                (crashes, utilization, site.finish(site_outcome))
            });
        self.front
            .finish(parts, outcome.per_fn, outcome.outstanding, duration, 1)
    }
}

impl<P: ContainerChaos> Federation<P> {
    /// Apply one fault at `now`. Redundant transitions (downing a dead
    /// site, healing an intact link) are ignored, so overlapping timed
    /// and stochastic schedules compose.
    fn inject(&mut self, ctx: &mut impl PolicyCtx<FedEv<P::Event>>, fault: Fault, now: SimTime) {
        let i = fault.site() as usize;
        let Some(work) = self.front.fault(fault, now, ctx.end_time()) else {
            return;
        };
        match work {
            SiteWork::Evacuate => {
                assert!(
                    self.rebuild.is_some(),
                    "site-crash faults require Federation::with_rebuild"
                );
                // Invalidate every event the dead incarnation scheduled.
                self.epochs[i] += 1;
                for (rid, (fn_idx, ())) in self.tallies[i].evacuate() {
                    self.migrate(ctx, i, ReqId(rid), fn_idx, now, true);
                }
            }
            SiteWork::Rebuild(restarts) => {
                self.tallies[i].restart();
                let rebuild = self.rebuild.as_mut().expect("checked at SiteDown");
                self.sites[i] = rebuild(i, restarts);
                // Replay the fresh policy's start-up (timer setup,
                // initial provisioning) shifted to the present.
                let (policy, mut sctx) = self.site_ctx(ctx, i);
                sctx.offset = now.saturating_since(SimTime::ZERO);
                policy.on_start(&mut sctx);
            }
            SiteWork::PartitionStart => {}
            SiteWork::PartitionEnd => {
                // Release the responses the cut link held back; their
                // response time now includes the stall.
                let stalled = std::mem::take(&mut self.tallies[i].stalled);
                for (rid, started) in stalled {
                    if self.tallies[i].unmark(rid) {
                        // The race went against this copy while it was
                        // stalled behind the cut: the held response is
                        // wasted work, and the copy leaves the books as
                        // cancelled rather than completed.
                        let secs = now.saturating_since(started).as_secs_f64();
                        self.front.sites[i].waste(secs);
                        self.cancel_clone_at(ctx, i as u32, ReqId(rid));
                    } else if let Some(c) = ctx.complete(ReqId(rid), started, now) {
                        self.tallies[i].release(rid);
                        self.tallies[i].complete(&c);
                        self.front.record_completion(i, c.service);
                        self.retired.push((rid, i as u32));
                    } else if self.front.cfg.hedge.is_some() {
                        self.cancel_clone_at(ctx, i as u32, ReqId(rid));
                    }
                }
            }
            SiteWork::Slow(factor) => self.sites[i].set_service_factor(factor),
            SiteWork::Burst(count) => {
                let (policy, mut sctx) = self.site_ctx(ctx, i);
                let crashed = policy.crash_containers(&mut sctx, count, now);
                self.tallies[i].chaos_crashes += crashed;
            }
        }
    }
}

/// Run `federation` to completion on the driver `cfg` asks for: the
/// windowed parallel driver on `cfg.parallel_sites` threads in total,
/// or the sequential engine when it is `None`. The windowed driver needs
/// lookahead — at least two sites, every latency positive — so a
/// topology without it runs sequentially, after one `warning:` line on
/// stderr. `parallel_sites = Some(0)` is an error.
pub fn run_federation<P>(
    cfg: EngineConfig,
    functions: Vec<FunctionEntry>,
    federation: Federation<P>,
) -> Result<FederatedReport<P::Report>, String>
where
    P: ContainerChaos + Send,
    P::Event: Send,
{
    let Some(n) = cfg.parallel_sites else {
        return Ok(run_simulation(cfg, functions, federation));
    };
    if n == 0 {
        return Err("parallel_sites must be >= 1 when set".into());
    }
    let fallback = if federation.sites.len() < 2 {
        Some("single-site topology")
    } else if federation
        .front
        .sites
        .iter()
        .any(|s| s.meta.latency == SimDuration::ZERO)
    {
        Some("zero-latency site leaves no lookahead")
    } else {
        None
    };
    Ok(match fallback {
        Some(why) => {
            eprintln!("warning: parallel_sites={n} ignored — {why}; running sequentially");
            run_simulation(cfg, functions, federation)
        }
        None => run_windowed(cfg, functions, federation),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::StaticPoisson;
    use crate::front::RouterSite;
    use crate::router::RouterKind;
    use proptest::prelude::*;

    /// A fixed-service-time single-server policy (per site) that records
    /// the instant of the last delivery it saw.
    struct OneServer {
        busy: bool,
        queue: std::collections::VecDeque<ReqId>,
        service_secs: f64,
        last_delivery: Option<SimTime>,
        /// Desired-fleet directives received through the reconciler seam.
        desired: Vec<u32>,
    }

    impl OneServer {
        fn new(service_secs: f64) -> Self {
            Self {
                busy: false,
                queue: Default::default(),
                service_secs,
                last_delivery: None,
                desired: Vec::new(),
            }
        }
    }

    enum Ev {
        Done(ReqId, SimTime),
    }

    struct OneServerReport {
        outcome: EngineOutcome,
        last_delivery: Option<SimTime>,
        desired: Vec<u32>,
    }

    impl SchedulerPolicy for OneServer {
        type Event = Ev;
        type Report = OneServerReport;

        fn on_start(&mut self, _ctx: &mut impl PolicyCtx<Ev>) {}

        fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<Ev>, rid: ReqId, _f: u32, now: SimTime) {
            self.last_delivery = Some(now);
            if self.busy {
                self.queue.push_back(rid);
            } else {
                self.busy = true;
                ctx.schedule(
                    now + SimDuration::from_secs_f64(self.service_secs),
                    Ev::Done(rid, now),
                );
            }
        }

        fn on_event(&mut self, ctx: &mut impl PolicyCtx<Ev>, ev: Ev, now: SimTime) {
            let Ev::Done(rid, started) = ev;
            ctx.complete(rid, started, now);
            self.busy = false;
            if let Some(next) = self.queue.pop_front() {
                self.busy = true;
                ctx.schedule(
                    now + SimDuration::from_secs_f64(self.service_secs),
                    Ev::Done(next, now),
                );
            }
        }

        fn finish(self, outcome: EngineOutcome) -> OneServerReport {
            OneServerReport {
                outcome,
                last_delivery: self.last_delivery,
                desired: self.desired,
            }
        }
    }

    impl ContainerChaos for OneServer {
        fn apply_desired_fleet(
            &mut self,
            _ctx: &mut impl PolicyCtx<Ev>,
            desired: u32,
            _now: SimTime,
        ) -> bool {
            self.desired.push(desired);
            true
        }
    }

    fn make_fed(kind: RouterKind, latencies: &[f64], service_secs: f64) -> Federation<OneServer> {
        make_fed_with(kind, latencies, service_secs, FederationConfig::default())
    }

    fn make_fed_with(
        kind: RouterKind,
        latencies: &[f64],
        service_secs: f64,
        cfg: FederationConfig,
    ) -> Federation<OneServer> {
        let sites = latencies
            .iter()
            .enumerate()
            .map(|(i, &lat)| {
                (
                    SiteMeta {
                        name: format!("s{i}"),
                        latency: SimDuration::from_secs_f64(lat),
                        capacity_hint: 1.0,
                    },
                    OneServer::new(service_secs),
                )
            })
            .collect();
        let functions = vec![FedFunction {
            name: "probe".into(),
            slo_deadline: 0.5,
            demand: [0.0; 3],
        }];
        Federation::configured(sites, kind.build(), &functions, cfg, 11)
            .expect("valid config")
            .with_rebuild(Box::new(move |_, _| OneServer::new(service_secs)))
    }

    fn engine_cfg(seed: u64) -> EngineConfig {
        EngineConfig {
            seed,
            rng_label_prefix: String::new(),
            duration_secs: 60.0,
            drain_secs: 30.0,
            stream_stats: false,
            parallel_sites: None,
        }
    }

    fn probe_entry(rate: f64) -> Vec<FunctionEntry> {
        vec![FunctionEntry {
            name: "probe".into(),
            slo_deadline: 0.5,
            process: Box::new(StaticPoisson::until(rate, SimTime::from_secs(60))),
        }]
    }

    fn run_fed(kind: RouterKind, latencies: &[f64]) -> FederatedReport<OneServerReport> {
        run_simulation(
            engine_cfg(11),
            probe_entry(8.0),
            make_fed(kind, latencies, 0.05),
        )
    }

    /// Chaos runs use a long service time (0.3 s at 8 req/s over ≤ 2
    /// servers) so the sites are saturated and every fault instant is
    /// guaranteed to catch requests in flight.
    fn run_chaos(
        kind: RouterKind,
        latencies: &[f64],
        chaos: ChaosConfig,
    ) -> FederatedReport<OneServerReport> {
        run_simulation(
            engine_cfg(11),
            probe_entry(8.0),
            make_fed(kind, latencies, 0.3)
                .with_chaos(chaos, 11)
                .expect("valid chaos"),
        )
    }

    #[test]
    fn arrivals_are_conserved_across_sites() {
        let rep = run_fed(RouterKind::RoundRobin, &[0.001, 0.02]);
        let total = rep.aggregate_per_fn[0].arrivals;
        let routed: usize = rep.per_site.iter().map(|s| s.routed).sum();
        assert_eq!(total, routed);
        let delivered: usize = rep
            .per_site
            .iter()
            .map(|s| s.report.outcome.per_fn[0].arrivals)
            .sum();
        // Every routed request is delivered (latencies are shorter than
        // the drain, and nothing else retires in-transit requests).
        assert_eq!(delivered, routed);
        let completed: usize = rep
            .per_site
            .iter()
            .map(|s| s.report.outcome.per_fn[0].completed)
            .sum();
        assert_eq!(completed, rep.aggregate_per_fn[0].completed);
        assert_eq!(rep.unroutable, 0);
        for s in &rep.per_site {
            assert_eq!((s.migrated, s.failed), (0, 0));
            assert_eq!(s.downtime_secs, 0.0);
        }
    }

    #[test]
    fn routing_latency_shows_up_in_waits() {
        // One site, 100 ms away: every wait includes the hop.
        let rep = run_fed(RouterKind::RoundRobin, &[0.1]);
        let agg = &rep.aggregate_per_fn[0];
        assert!(agg.completed > 100);
        let min_wait = agg
            .wait
            .samples()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_wait >= 0.1 - 1e-9,
            "min wait {min_wait} missing the hop"
        );
    }

    #[test]
    fn federated_runs_are_deterministic() {
        let a = run_fed(RouterKind::LeastLoaded, &[0.001, 0.02]);
        let b = run_fed(RouterKind::LeastLoaded, &[0.001, 0.02]);
        assert_eq!(
            serde_json::to_string(&a.aggregate_per_fn[0]).unwrap(),
            serde_json::to_string(&b.aggregate_per_fn[0]).unwrap()
        );
        assert_eq!(a.per_site[0].routed, b.per_site[0].routed);
        assert_eq!(a.per_site[1].routed, b.per_site[1].routed);
    }

    /// Regression: once a site crashes mid-run, it receives no further
    /// deliveries — not even requests that were in transit — until it
    /// recovers. The router sees the site vanish at the very next
    /// decision, mid-window.
    #[test]
    fn crashed_site_receives_zero_deliveries_while_down() {
        let chaos = ChaosConfig {
            events: vec![(30.0, Fault::SiteDown { site: 0 })],
            ..ChaosConfig::default()
        };
        let rep = run_chaos(RouterKind::RoundRobin, &[0.001, 0.02], chaos);
        let dead = &rep.per_site[0];
        // The (never-recovered) site saw its last delivery before the
        // crash instant.
        let last = dead.report.last_delivery.expect("site saw traffic");
        assert!(
            last <= SimTime::from_secs_f64(30.0),
            "delivery at {last} after the crash"
        );
        assert!(dead.migrated > 0, "orphans/no in-transit migrated?");
        // ~30s of a 60s run spent down.
        assert!(
            (dead.downtime_secs - 30.0).abs() < 1e-6,
            "downtime {}",
            dead.downtime_secs
        );
        // Everything still adds up at the engine.
        let agg = &rep.aggregate_per_fn[0];
        assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding
        );
        assert_eq!(rep.per_site[1].migrated_in, dead.migrated);
    }

    #[test]
    fn single_site_crash_fails_everything_with_no_survivor() {
        let chaos = ChaosConfig {
            events: vec![(30.0, Fault::SiteDown { site: 0 })],
            ..ChaosConfig::default()
        };
        let rep = run_chaos(RouterKind::RoundRobin, &[0.001], chaos);
        let site = &rep.per_site[0];
        assert!(site.failed > 0, "orphans had nowhere to go");
        assert_eq!(site.migrated, 0);
        let agg = &rep.aggregate_per_fn[0];
        assert!(agg.lost >= site.failed);
        // Post-crash arrivals are shed at the front door.
        assert!(rep.unroutable > 0);
        assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding
        );
    }

    #[test]
    fn site_recovers_and_serves_again() {
        let chaos = ChaosConfig {
            events: vec![
                (20.0, Fault::SiteDown { site: 0 }),
                (40.0, Fault::SiteUp { site: 0 }),
            ],
            ..ChaosConfig::default()
        };
        let rep = run_chaos(RouterKind::RoundRobin, &[0.001, 0.02], chaos);
        let revived = &rep.per_site[0];
        let last = revived.report.last_delivery.expect("recovered site used");
        assert!(
            last >= SimTime::from_secs_f64(40.0),
            "no delivery after recovery (last {last})"
        );
        assert!((revived.downtime_secs - 20.0).abs() < 1e-6);
    }

    #[test]
    fn partition_stalls_responses_until_heal() {
        let chaos = ChaosConfig {
            events: vec![
                (20.0, Fault::PartitionStart { site: 0 }),
                (35.0, Fault::PartitionEnd { site: 0 }),
            ],
            ..ChaosConfig::default()
        };
        let rep = run_chaos(RouterKind::RoundRobin, &[0.001, 0.02], chaos);
        let part = &rep.per_site[0];
        assert!((part.downtime_secs - 15.0).abs() < 1e-6);
        // At least one response was stalled across the partition: its
        // response time spans from just before the cut to the heal.
        let max_response = part.report.outcome.per_fn[0]
            .response
            .samples()
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        assert!(
            max_response >= 14.0,
            "no stalled response visible (max {max_response})"
        );
        // Nothing was failed: the site kept its work.
        assert_eq!(part.failed, 0);
        let agg = &rep.aggregate_per_fn[0];
        assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding
        );
    }

    /// A recovery scheduled past the nominal end still fires in the
    /// drain (the partition heals, stalled responses are released), and
    /// `downtime_secs` is clamped to the nominal window rather than
    /// spilling into the drain.
    #[test]
    fn recovery_in_the_drain_heals_and_downtime_is_clamped() {
        let chaos = ChaosConfig {
            events: vec![
                (40.0, Fault::PartitionStart { site: 0 }),
                (70.0, Fault::PartitionEnd { site: 0 }), // past end=60, inside drain
            ],
            ..ChaosConfig::default()
        };
        let rep = run_chaos(RouterKind::RoundRobin, &[0.001, 0.02], chaos);
        let part = &rep.per_site[0];
        // Unroutable from 40 to the nominal end at 60: 20 s, not 30.
        assert!(
            (part.downtime_secs - 20.0).abs() < 1e-6,
            "downtime {}",
            part.downtime_secs
        );
        // The heal released the stalled responses: completions recorded
        // at t=70 with the stall visible in the response tail.
        let max_response = part.report.outcome.per_fn[0]
            .response
            .samples()
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        assert!(
            max_response >= 25.0,
            "stalled responses never released (max {max_response})"
        );
        let agg = &rep.aggregate_per_fn[0];
        assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding
        );

        // Same for a crash healing in the drain: downtime stops at end.
        let chaos = ChaosConfig {
            events: vec![
                (50.0, Fault::SiteDown { site: 0 }),
                (80.0, Fault::SiteUp { site: 0 }),
            ],
            ..ChaosConfig::default()
        };
        let rep = run_chaos(RouterKind::RoundRobin, &[0.001, 0.02], chaos);
        assert!(
            (rep.per_site[0].downtime_secs - 10.0).abs() < 1e-6,
            "downtime {}",
            rep.per_site[0].downtime_secs
        );
    }

    /// A schedule aimed past the last site, or with a knob
    /// `ChaosConfig::validate` rejects, never reaches a run.
    #[test]
    fn with_chaos_rejects_unknown_sites_and_bad_knobs() {
        let fed = || make_fed(RouterKind::RoundRobin, &[0.001, 0.02], 0.05);
        let at_site = |site| ChaosConfig {
            events: vec![(5.0, Fault::PartitionStart { site })],
            ..ChaosConfig::default()
        };
        assert!(fed().with_chaos(at_site(1), 1).is_ok());
        let err = fed().with_chaos(at_site(2), 1).err().expect("site 2 of 2");
        assert!(err.contains("site 2 of a 2-site topology"), "{err}");
        let bad = ChaosConfig {
            site_mtbf_secs: Some(-1.0),
            ..ChaosConfig::default()
        };
        assert!(fed().with_chaos(bad, 1).is_err());
    }

    #[test]
    fn noop_chaos_reproduces_plain_federated_run() {
        let plain = run_fed(RouterKind::LeastLoaded, &[0.001, 0.02]);
        let wrapped = run_simulation(
            engine_cfg(11),
            probe_entry(8.0),
            make_fed(RouterKind::LeastLoaded, &[0.001, 0.02], 0.05)
                .with_chaos(ChaosConfig::default(), 11)
                .expect("valid chaos"),
        );
        assert_eq!(
            serde_json::to_string(&plain.aggregate_per_fn).unwrap(),
            serde_json::to_string(&wrapped.aggregate_per_fn).unwrap()
        );
        assert_eq!(plain.per_site[0].routed, wrapped.per_site[0].routed);
        assert_eq!(plain.per_site[1].routed, wrapped.per_site[1].routed);
    }

    /// An inert [`PolicyCtx`] for driving `Federation::inject`
    /// directly against a federation with no live requests.
    struct NullCtx {
        end: SimTime,
        rng: SimRng,
    }

    impl PolicyCtx<FedEv<Ev>> for NullCtx {
        fn schedule(&mut self, _at: SimTime, _ev: FedEv<Ev>) {}
        fn end_time(&self) -> SimTime {
            self.end
        }
        fn fn_count(&self) -> usize {
            1
        }
        fn service_rng(&mut self, _fn_idx: u32) -> &mut SimRng {
            &mut self.rng
        }
        fn request_info(&self, _rid: ReqId) -> Option<(u32, SimTime)> {
            None
        }
        fn complete(
            &mut self,
            _rid: ReqId,
            _started: SimTime,
            _now: SimTime,
        ) -> Option<Completion> {
            None
        }
        fn abandon(&mut self, _rid: ReqId) -> Option<u32> {
            None
        }
        fn lose(&mut self, _rid: ReqId) -> Option<u32> {
            None
        }
        fn rerun(&mut self, _rid: ReqId) -> Option<u32> {
            None
        }
        fn take_window_counts(&mut self) -> Vec<u64> {
            vec![0]
        }
        fn outstanding(&self) -> usize {
            0
        }
    }

    fn null_ctx() -> NullCtx {
        NullCtx {
            end: SimTime::from_secs(60),
            rng: SimRng::from_seed_label(1, "null"),
        }
    }

    /// Warm a tally's predictor well past the model threshold: steady
    /// 20 req/s arrivals with 50 ms services over `secs` seconds.
    fn warm_predictor(site: &mut RouterSite, secs: f64) {
        let mut t = 0.0;
        while t < secs {
            site.predictor.on_arrival(t);
            site.predictor.on_service(0.05);
            t += 0.05;
        }
    }

    /// Regression: a crash + `with_rebuild` recovery must not carry the
    /// dead incarnation's λ̂/μ̂ into the replacement's forecasts. The
    /// router's health memory of the crash, by contrast, survives — the
    /// site forgot, the router didn't.
    #[test]
    fn rebuilt_site_starts_with_cold_rates() {
        let mut fed = make_fed(RouterKind::Planner, &[0.003, 0.010], 0.05);
        warm_predictor(&mut fed.front.sites[0], 10.0);
        assert!(
            fed.front.sites[0].predictor.forecast(10.0, 1).has_model(),
            "predictor should be warm before the crash"
        );
        let mut ctx = null_ctx();
        fed.inject(
            &mut ctx,
            Fault::SiteDown { site: 0 },
            SimTime::from_secs(12),
        );
        fed.inject(&mut ctx, Fault::SiteUp { site: 0 }, SimTime::from_secs(19));
        assert_eq!(fed.front.sites[0].restarts, 1);
        assert!(
            !fed.front.sites[0].predictor.forecast(19.0, 1).has_model(),
            "rebuilt site inherited pre-crash rates"
        );
        assert!(
            fed.front.sites[0].health.value() > 0.0,
            "the router's crash memory must survive the rebuild"
        );
        // The untouched site keeps its telemetry.
        warm_predictor(&mut fed.front.sites[1], 10.0);
        assert!(fed.front.sites[1].predictor.forecast(19.0, 1).has_model());
    }

    /// One `validate` covers every knob of the front end, and the
    /// reconciler's dependence on telemetry.
    #[test]
    fn federation_config_validation_rejects_bad_knobs() {
        let ok = FederationConfig::default();
        assert!(ok.validate().is_ok());
        let telemetry = TelemetryConfig {
            report_interval: SimDuration::from_millis(100),
            ..TelemetryConfig::default()
        };
        let bad = [
            FederationConfig {
                router: RouterConfig {
                    percentile: 1.5,
                    ..RouterConfig::default()
                },
                ..ok
            },
            FederationConfig {
                telemetry: TelemetryConfig {
                    jitter: SimDuration::from_millis(101),
                    ..telemetry
                },
                ..ok
            },
            FederationConfig {
                hedge: Some(HedgeConfig {
                    max_clones: 0,
                    ..HedgeConfig::default()
                }),
                ..ok
            },
            FederationConfig {
                telemetry,
                reconciler_target: Some(1.0),
                ..ok
            },
            FederationConfig {
                reconciler_target: Some(0.5),
                ..ok
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} passed");
        }
        let reconciled = FederationConfig {
            telemetry,
            reconciler_target: Some(0.5),
            ..ok
        };
        assert!(reconciled.validate().is_ok());
    }

    /// The reconciler round-trips: snapshots arrive at the control
    /// plane, the reconciler sizes the fleet from the *reported* state,
    /// and the directive lands back at the site through
    /// [`ContainerChaos::apply_desired_fleet`] one latency later.
    #[test]
    fn reconciler_directives_round_trip_to_sites() {
        let telemetry = TelemetryConfig {
            report_interval: SimDuration::from_millis(250),
            jitter: SimDuration::from_millis(50),
            loss_under_partition: true,
            loss_prob: 0.0,
        };
        // μ̂ ≈ 20/s at λ ≈ 4/s per site: targeting ρ = 0.2 wants
        // ceil(4 / (20 · 0.2)) = 1 = the reported single server, so
        // nothing fires; ρ = 0.05 wants 4 and every snapshot does.
        let cfg = FederationConfig {
            telemetry,
            reconciler_target: Some(0.05),
            ..FederationConfig::default()
        };
        let fed = make_fed_with(RouterKind::RoundRobin, &[0.003, 0.010], 0.05, cfg);
        let rep = run_simulation(engine_cfg(11), probe_entry(8.0), fed);
        let landed: usize = rep.per_site.iter().map(|s| s.report.desired.len()).sum();
        assert!(landed > 100, "only {landed} directives reached the sites");
        for site in &rep.per_site {
            for &d in &site.report.desired {
                assert!(d >= 2, "reconciler sized below the reported fleet");
            }
        }
    }

    /// The telemetry snapshot rides boxed: a federated event stays a
    /// few words, not the snapshot's 112 bytes.
    #[test]
    fn federated_events_stay_small() {
        assert!(std::mem::size_of::<TelemetrySnapshot>() > 100);
        assert!(std::mem::size_of::<FedEv<()>>() <= 24);
    }

    proptest! {
        /// Any order of the ledger's operations keeps its books
        /// consistent: a hedge mark says `Held` exactly when its copy is
        /// live, and every request the site admitted is still live or
        /// booked as completed, timed out, lost, cancelled or evacuated.
        /// As in both drivers, a marked copy that leaves the scheduler
        /// takes its mark along instead of retiring the request.
        #[test]
        fn ledger_operations_keep_the_books_consistent(
            ops in prop::collection::vec((0u8..12, 0u64..6, 0u32..2), 0..120),
        ) {
            let fns = ["f0", "f1"].map(|n| FnStats::empty(n.into(), 0.1, SampleStats::new));
            let mut t: SiteTally<SimTime> = SiteTally::new(fns.into(), true);
            let mut evacuated = 0;
            let complete = |t: &mut SiteTally<SimTime>, rid| {
                if t.unmark(rid) {
                    return;
                }
                if let Some((fn_idx, arrival)) = t.release(rid) {
                    t.complete(&Completion {
                        fn_idx,
                        arrival,
                        wait: 0.0,
                        service: 0.01,
                        response: 0.01,
                        violated_slo: false,
                    });
                }
            };
            for (op, rid, fn_idx) in ops {
                match op {
                    // A site books at most one copy of a request.
                    0 | 1 if !t.live.contains_key(&rid) => t.admit(rid, fn_idx, SimTime::ZERO),
                    2 => complete(&mut t, rid),
                    3 if !t.unmark(rid) => drop(t.time_out(rid)),
                    4 if !t.unmark(rid) => drop(t.lose(rid)),
                    5 => drop(t.cancel(rid)),
                    6 => t.stall(rid, SimTime::ZERO),
                    7 => {
                        for (rid, _) in std::mem::take(&mut t.stalled) {
                            complete(&mut t, rid);
                        }
                    }
                    8 => evacuated += t.evacuate().len(),
                    9 => t.restart(),
                    10 => t.mark(rid),
                    11 => drop(t.unmark(rid)),
                    _ => {}
                }
                t.audit();
                let admitted: usize = t.per_fn.iter().map(|f| f.arrivals).sum();
                let ended = |f: &FnStats| f.completed + f.timeouts + f.lost + f.cancelled;
                let booked: usize = t.per_fn.iter().map(ended).sum();
                prop_assert_eq!(admitted, booked + t.live.len() + evacuated);
            }
        }
    }
}
