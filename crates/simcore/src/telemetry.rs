//! Delayed control-plane telemetry between sites and the router.
//!
//! The oracle-fresh federation rebuilds every site's forecast
//! synchronously at the instant of each routing decision — something no
//! real control plane can do. This module models the realistic path: a
//! per-site node agent publishes a [`TelemetrySnapshot`] of its local
//! estimates on a jittered report interval, the snapshot crosses the
//! network at the site's latency, and the router scores sites on the
//! last snapshot that **arrived** — not on live state. While a
//! router↔site partition is active, snapshots are (configurably)
//! dropped, so a partitioned site ages out of the router's view instead
//! of vanishing instantly.
//!
//! Three pieces live here:
//!
//! * [`TelemetryConfig`] — the scenario-level knobs
//!   (`report_interval_ms`, `jitter_ms`, `loss_under_partition`). A
//!   zero interval disables the layer entirely and the federation
//!   routes on oracle-fresh state, byte-for-byte identical to the
//!   pre-telemetry engine (pinned by the goldens).
//! * [`TelemetryRuntime`] — the router-side bookkeeping shared by the
//!   sequential ([`Federation`](crate::federation::Federation)) and
//!   parallel ([`run_federation_parallel`](crate::parallel)) drivers:
//!   the per-site publish schedule (deterministic, from labelled RNG
//!   streams) and the per-site [`SiteView`] of the last arrived
//!   snapshot, with its M/M/c model evaluated once per *arrival*
//!   through a value-keyed
//!   [`ForecastCache`](lass_queueing::ForecastCache) — cheaper than the
//!   oracle path, which looks the live forecast up per decision for
//!   forecast-reading routers.
//! * [`UtilizationReconciler`] — the scaling side of the same delay: it
//!   reads each *reported* snapshot and emits a desired server count,
//!   which travels back to the site at the same latency and is applied
//!   through the
//!   [`ContainerChaos::apply_desired_fleet`](crate::chaos::ContainerChaos::apply_desired_fleet)
//!   seam — so scaling decisions act on desired-vs-reported state, one
//!   full round-trip stale, like a real control loop.
//!
//! Failure detection under stale telemetry is *passive*: the router
//! marks a site down when its snapshots age out
//! ([`TelemetryRuntime::view_up`]) or when a delivery bounces off the
//! dark site ([`TelemetryRuntime::mark_down`]); the next arrived
//! snapshot marks it back up.

use crate::rng::SimRng;
use crate::router::ResourceSnapshot;
use crate::time::{SimDuration, SimTime};
use lass_queueing::{EvaluatedForecast, ForecastCache, WaitForecast};

/// Scenario-level telemetry-propagation knobs (the
/// `topology.telemetry` block).
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Interval between a site's telemetry publishes. `ZERO` disables
    /// the propagation layer: the router reads oracle-fresh state,
    /// byte-for-byte identical to the pre-telemetry engine.
    pub report_interval: SimDuration,
    /// Uniform per-publish jitter added to each report instant
    /// (de-synchronizes site agents; must not exceed the interval).
    pub jitter: SimDuration,
    /// Drop snapshots (and reconciler directives) while a router↔site
    /// partition is active, so a partitioned site ages out of the
    /// router's view. `false` models a control plane on a separate
    /// network that survives data-path partitions.
    pub loss_under_partition: bool,
    /// Per-snapshot loss probability, independent of partitions —
    /// background packet loss on the control plane. Each publish slot
    /// draws once from the site's `telemetry:{site}` stream whenever
    /// the probability is nonzero (crashed or partitioned slots
    /// included), so the loss pattern — and the jitter schedule sharing
    /// the stream — is invariant across fault histories and thread
    /// counts. `0` (the default) draws nothing and is byte-identical
    /// to the pre-loss engine.
    pub loss_prob: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            report_interval: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss_under_partition: true,
            loss_prob: 0.0,
        }
    }
}

impl TelemetryConfig {
    /// Whether the propagation layer is active (nonzero interval).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.report_interval > SimDuration::ZERO
    }

    /// Check the knobs. A disabled config (zero interval) is always
    /// valid, whatever the jitter — scenario tooling zeroes the
    /// interval to recover oracle behavior without touching the other
    /// fields.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled() && self.jitter > self.report_interval {
            return Err(format!(
                "telemetry jitter ({}) must not exceed the report interval ({})",
                self.jitter, self.report_interval
            ));
        }
        if self.enabled() && !(self.loss_prob.is_finite() && (0.0..=1.0).contains(&self.loss_prob))
        {
            return Err(format!(
                "telemetry loss_prob ({}) must be a probability in [0, 1]",
                self.loss_prob
            ));
        }
        Ok(())
    }
}

/// One site's published view of itself: what the node agent knew at
/// `published_at`, as it travels toward the router.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Publish instant at the site (routers can compute snapshot age).
    pub published_at: SimTime,
    /// The site's raw λ̂/μ̂/c forecast at publish time.
    pub forecast: WaitForecast,
    /// The site's downtime-EWMA flakiness score at publish time.
    pub flakiness: f64,
    /// Warm-container census per function (registration order).
    pub warm: Vec<u64>,
    /// The site's per-dimension capacity picture at publish time
    /// (all-zero = the site's scheduler reports no resources).
    pub resources: ResourceSnapshot,
}

/// The scaling half of the stale-telemetry loop, installed by a
/// federation's
/// [`reconciler_target`](crate::federation::FederationConfig::reconciler_target):
/// it sizes each site's fleet so the *reported* λ̂/μ̂ would run at the
/// target utilization — `c = ⌈λ̂ / (μ̂ ρ)⌉`,
/// floored at one server. Emits a directive only when the desired count
/// differs from the reported one, and stays silent before the site has
/// accumulated a model.
///
/// When the reported snapshot carries a per-dimension capacity picture,
/// a scale-*up* is clamped to the reported fleet once the site's
/// binding dimension is nearly full (≥ `dimension_ceiling`): a fleet
/// directive cannot conjure memory or NIC capacity the site does not
/// have, so the reconciler stops asking. Snapshots without resources
/// (the historical cpu-only path) report zero utilization on every
/// dimension and are never clamped — byte-identical behavior.
#[derive(Debug, Clone, Copy)]
pub struct UtilizationReconciler {
    /// Target per-server utilization ρ ∈ (0, 1).
    pub target_utilization: f64,
    /// Binding-dimension utilization at which scale-up directives are
    /// suppressed (the site cannot fit the extra containers anyway).
    pub dimension_ceiling: f64,
}

impl UtilizationReconciler {
    /// A reconciler targeting utilization `rho`.
    pub fn new(rho: f64) -> Self {
        assert!(
            rho.is_finite() && rho > 0.0 && rho < 1.0,
            "target utilization must be in (0, 1), got {rho}"
        );
        Self {
            target_utilization: rho,
            dimension_ceiling: 0.95,
        }
    }

    /// Desired server count for a site given its `reported` snapshot,
    /// or `None` to leave the site alone this round.
    pub fn desired_fleet(&self, reported: &TelemetrySnapshot) -> Option<u32> {
        let f = reported.forecast;
        if !f.has_model() {
            return None;
        }
        let mut desired = (f.lambda / (f.mu * self.target_utilization))
            .ceil()
            .max(1.0) as u32;
        if desired > f.servers && reported.resources.max_utilization() >= self.dimension_ceiling {
            desired = f.servers;
        }
        (desired != f.servers).then_some(desired)
    }
}

/// The router's last-arrived view of one site.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteView {
    /// Believed reachability: cleared when a delivery bounces off the
    /// site, restored by the next arrived snapshot. Freshness is
    /// checked separately ([`TelemetryRuntime::view_up`]).
    pub(crate) up: bool,
    /// Publish instant of the last arrived snapshot (drops stale
    /// out-of-order arrivals; `ZERO` before any snapshot lands).
    pub(crate) last_published: SimTime,
    /// Arrival instant of the last snapshot (drives freshness aging).
    pub(crate) last_arrival: SimTime,
    /// The last arrived forecast, model pre-evaluated at ingest.
    pub(crate) forecast: EvaluatedForecast,
    /// The last arrived flakiness score.
    pub(crate) flakiness: f64,
    /// The last arrived warm census (empty before any snapshot).
    pub(crate) warm: Vec<u64>,
    /// The last arrived per-dimension capacity picture.
    pub(crate) resources: ResourceSnapshot,
    /// Value-keyed evaluation cache: consecutive snapshots of a quiet
    /// site hit without re-running the Erlang-C recurrence.
    cache: ForecastCache,
}

/// Router-side telemetry bookkeeping: the per-site publish schedule and
/// the per-site last-arrived [`SiteView`]s. Shared by the sequential
/// and parallel federation drivers, which schedule the publish/arrive
/// instants through their own event plumbing but must agree bit-for-bit
/// on *when* snapshots are published (labelled RNG streams keyed by
/// site name) and on what the router sees.
#[derive(Default)]
pub(crate) struct TelemetryRuntime {
    pub(crate) cfg: TelemetryConfig,
    /// Per-site jitter streams, labelled `telemetry:{site name}` off the
    /// master seed — identical across sequential and parallel drivers.
    rngs: Vec<SimRng>,
    /// Per-site next *unjittered* publish instant (the jitter rides on
    /// top, so the base grid never drifts).
    base: Vec<SimTime>,
    pub(crate) views: Vec<SiteView>,
}

impl TelemetryRuntime {
    /// Build the runtime for `site_names`, with `n_fns` functions, off
    /// the run's master seed, under a valid `cfg`. A disabled config
    /// (zero interval) keeps no per-site state: nothing reads it.
    pub(crate) fn new(
        cfg: TelemetryConfig,
        seed: u64,
        site_names: &[String],
        n_fns: usize,
    ) -> Self {
        if !cfg.enabled() {
            return Self {
                cfg,
                ..Self::default()
            };
        }
        Self {
            cfg,
            rngs: site_names
                .iter()
                .map(|name| SimRng::from_seed_label(seed, &format!("telemetry:{name}")))
                .collect(),
            base: vec![SimTime::ZERO; site_names.len()],
            views: site_names
                .iter()
                .map(|_| SiteView {
                    up: true,
                    warm: vec![0; n_fns],
                    ..SiteView::default()
                })
                .collect(),
        }
    }

    /// Whether the propagation layer is active.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The next publish instant for `site`: the base grid advances by
    /// exactly one interval, and a fresh uniform jitter rides on top.
    /// One RNG draw per call, so the schedule is identical however the
    /// run is partitioned across threads.
    pub(crate) fn next_publish(&mut self, site: usize) -> SimTime {
        debug_assert!(self.enabled());
        self.base[site] += self.cfg.report_interval;
        let jitter =
            SimDuration::from_secs_f64(self.rngs[site].uniform() * self.cfg.jitter.as_secs_f64());
        self.base[site] + jitter
    }

    /// Whether this publish slot's snapshot is lost in transit. Exactly
    /// one uniform draw per slot whenever `loss_prob > 0` — callers
    /// invoke this before any crash/partition gating, so the per-site
    /// stream position (and every schedule derived from it) is
    /// invariant across fault histories and thread counts. The zero
    /// default draws nothing, leaving pre-loss schedules untouched.
    pub(crate) fn publish_lost(&mut self, site: usize) -> bool {
        self.cfg.loss_prob > 0.0 && self.rngs[site].uniform() < self.cfg.loss_prob
    }

    /// Fold an arrived snapshot into the site's view. Snapshots
    /// published before the one already ingested are dropped (jitter ≤
    /// interval keeps arrivals in publish order per site, but the guard
    /// makes out-of-order delivery harmless).
    pub(crate) fn ingest(&mut self, site: usize, snap: TelemetrySnapshot, now: SimTime) {
        let view = &mut self.views[site];
        if snap.published_at < view.last_published {
            return;
        }
        view.up = true;
        view.last_published = snap.published_at;
        view.last_arrival = now;
        view.forecast = view.cache.evaluate(snap.forecast);
        view.flakiness = snap.flakiness;
        view.warm = snap.warm;
        view.resources = snap.resources;
    }

    /// Whether the router should treat `site` as up: believed reachable
    /// *and* heard from recently. A site is stale once no snapshot has
    /// arrived for three report intervals plus the maximum jitter plus
    /// the site's network latency — a crashed or partitioned site ages
    /// out after ~3 missed reports instead of vanishing instantly.
    pub(crate) fn view_up(&self, site: usize, latency: SimDuration, now: SimTime) -> bool {
        let view = &self.views[site];
        if !view.up {
            return false;
        }
        let stale_after = self.cfg.report_interval * 3 + self.cfg.jitter + latency;
        now.saturating_since(view.last_arrival) <= stale_after
    }

    /// Mark `site` unreachable in the router's view — passive failure
    /// detection when a delivery bounces off a dark site. The next
    /// arrived snapshot marks it back up.
    pub(crate) fn mark_down(&mut self, site: usize) {
        self.views[site].up = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("s{i}")).collect()
    }

    #[test]
    fn disabled_config_is_valid_whatever_the_jitter() {
        let cfg = TelemetryConfig {
            report_interval: SimDuration::ZERO,
            jitter: SimDuration::from_millis(50),
            loss_under_partition: true,
            loss_prob: 0.0,
        };
        assert!(!cfg.enabled());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn jitter_beyond_interval_is_rejected_when_enabled() {
        let cfg = TelemetryConfig {
            report_interval: SimDuration::from_millis(100),
            jitter: SimDuration::from_millis(101),
            loss_under_partition: true,
            loss_prob: 0.0,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn loss_prob_outside_unit_interval_is_rejected_when_enabled() {
        let mut cfg = TelemetryConfig {
            report_interval: SimDuration::from_millis(100),
            ..TelemetryConfig::default()
        };
        cfg.loss_prob = 1.5;
        assert!(cfg.validate().is_err());
        cfg.loss_prob = f64::NAN;
        assert!(cfg.validate().is_err());
        cfg.loss_prob = 1.0;
        assert!(cfg.validate().is_ok());
    }

    /// `loss_prob = 0` must draw nothing: the jitter schedule of a
    /// runtime that consults `publish_lost` every slot has to match one
    /// that never heard of snapshot loss, so pre-loss goldens hold.
    #[test]
    fn zero_loss_prob_leaves_the_jitter_stream_untouched() {
        let cfg = TelemetryConfig {
            report_interval: SimDuration::from_millis(250),
            jitter: SimDuration::from_millis(50),
            loss_under_partition: true,
            loss_prob: 0.0,
        };
        let mut with_calls = TelemetryRuntime::new(cfg, 7, &names(1), 1);
        let mut without = TelemetryRuntime::new(cfg, 7, &names(1), 1);
        for _ in 0..20 {
            assert!(!with_calls.publish_lost(0));
            assert_eq!(with_calls.next_publish(0), without.next_publish(0));
        }
    }

    /// With a nonzero probability the loss pattern is deterministic,
    /// per-site, and roughly calibrated.
    #[test]
    fn loss_draws_are_deterministic_per_site_streams() {
        let mut cfg = TelemetryConfig {
            report_interval: SimDuration::from_millis(100),
            ..TelemetryConfig::default()
        };
        cfg.loss_prob = 0.3;
        let mut a = TelemetryRuntime::new(cfg, 7, &names(2), 1);
        let mut b = TelemetryRuntime::new(cfg, 7, &names(2), 1);
        let mut lost = [0u32; 2];
        for _ in 0..400 {
            for (site, tally) in lost.iter_mut().enumerate() {
                a.next_publish(site);
                b.next_publish(site);
                let la = a.publish_lost(site);
                assert_eq!(la, b.publish_lost(site), "loss must be deterministic");
                *tally += u32::from(la);
            }
        }
        for l in lost {
            assert!((60..=180).contains(&l), "loss rate off: {l}/400");
        }
    }

    #[test]
    fn publish_schedule_is_deterministic_and_jitter_bounded() {
        let cfg = TelemetryConfig {
            report_interval: SimDuration::from_millis(250),
            jitter: SimDuration::from_millis(50),
            loss_under_partition: true,
            loss_prob: 0.0,
        };
        let mut a = TelemetryRuntime::new(cfg, 7, &names(2), 1);
        let mut b = TelemetryRuntime::new(cfg, 7, &names(2), 1);
        let mut prev = SimTime::ZERO;
        for k in 1..=20u64 {
            let ta = a.next_publish(0);
            assert_eq!(ta, b.next_publish(0), "schedule must be deterministic");
            let base = SimTime::ZERO + cfg.report_interval * k;
            assert!(
                ta >= base && ta <= base + cfg.jitter,
                "publish {ta} off-grid"
            );
            assert!(ta > prev, "publishes must be strictly ordered");
            prev = ta;
        }
        // Distinct sites draw from distinct streams.
        assert_ne!(a.next_publish(0), b.next_publish(1));
    }

    #[test]
    fn ingest_updates_view_and_drops_out_of_order() {
        let cfg = TelemetryConfig {
            report_interval: SimDuration::from_millis(100),
            jitter: SimDuration::ZERO,
            loss_under_partition: true,
            loss_prob: 0.0,
        };
        let mut rt = TelemetryRuntime::new(cfg, 1, &names(1), 2);
        let fresh = TelemetrySnapshot {
            published_at: SimTime::from_millis(200),
            forecast: WaitForecast {
                lambda: 4.0,
                mu: 10.0,
                servers: 2,
            },
            flakiness: 0.25,
            warm: vec![3, 1],
            resources: ResourceSnapshot::default(),
        };
        rt.ingest(0, fresh, SimTime::from_millis(210));
        assert_eq!(rt.views[0].warm, vec![3, 1]);
        assert_eq!(rt.views[0].flakiness, 0.25);
        assert!(rt.views[0].forecast.has_model());
        // An older publish arriving late must not clobber the view.
        let stale = TelemetrySnapshot {
            published_at: SimTime::from_millis(100),
            forecast: WaitForecast::default(),
            flakiness: 0.9,
            warm: vec![0, 0],
            resources: ResourceSnapshot::default(),
        };
        rt.ingest(0, stale, SimTime::from_millis(215));
        assert_eq!(rt.views[0].flakiness, 0.25);
        assert_eq!(rt.views[0].last_published, SimTime::from_millis(200));
    }

    #[test]
    fn views_age_out_and_bounces_mark_down() {
        let cfg = TelemetryConfig {
            report_interval: SimDuration::from_millis(100),
            jitter: SimDuration::from_millis(20),
            loss_under_partition: true,
            loss_prob: 0.0,
        };
        let mut rt = TelemetryRuntime::new(cfg, 1, &names(1), 1);
        let lat = SimDuration::from_millis(10);
        // Cold start counts as "heard at t=0": up until the threshold.
        assert!(rt.view_up(0, lat, SimTime::from_millis(330)));
        assert!(!rt.view_up(0, lat, SimTime::from_millis(331)));
        let snap = TelemetrySnapshot {
            published_at: SimTime::from_millis(500),
            forecast: WaitForecast::default(),
            flakiness: 0.0,
            warm: vec![0],
            resources: ResourceSnapshot::default(),
        };
        rt.ingest(0, snap.clone(), SimTime::from_millis(510));
        assert!(rt.view_up(0, lat, SimTime::from_millis(840)));
        assert!(!rt.view_up(0, lat, SimTime::from_millis(841)));
        // A bounce marks the site down immediately…
        rt.mark_down(0);
        assert!(!rt.view_up(0, lat, SimTime::from_millis(600)));
        // …and the next arrived snapshot restores it.
        let again = TelemetrySnapshot {
            published_at: SimTime::from_millis(600),
            ..snap
        };
        rt.ingest(0, again, SimTime::from_millis(610));
        assert!(rt.view_up(0, lat, SimTime::from_millis(700)));
    }

    #[test]
    fn utilization_reconciler_sizes_from_reported_state() {
        let rec = UtilizationReconciler::new(0.5);
        let mut snap = TelemetrySnapshot {
            published_at: SimTime::ZERO,
            forecast: WaitForecast {
                lambda: 9.0,
                mu: 2.0,
                servers: 3,
            },
            flakiness: 0.0,
            warm: vec![],
            resources: ResourceSnapshot::default(),
        };
        // ⌈9 / (2 · 0.5)⌉ = 9 servers desired vs 3 reported.
        assert_eq!(rec.desired_fleet(&snap), Some(9));
        // Already at the desired size: silent.
        snap.forecast.servers = 9;
        assert_eq!(rec.desired_fleet(&snap), None);
        // No model yet: silent.
        snap.forecast = WaitForecast::default();
        assert_eq!(rec.desired_fleet(&snap), None);
    }

    #[test]
    #[should_panic(expected = "target utilization must be in (0, 1)")]
    fn reconciler_rejects_bad_target() {
        UtilizationReconciler::new(1.5);
    }
}
