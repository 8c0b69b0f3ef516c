//! Chaos injection: the faults a federated run can suffer and the
//! schedule that injects them.
//!
//! A [`ChaosConfig`] describes faults from two sources:
//!
//! * **timed events** (`ChaosConfig::events`): an explicit list of
//!   `(instant, fault)` pairs, for reproducing one specific disaster
//!   (the site crash at t = 60 s in the golden tests, say);
//! * **stochastic processes**: per-domain crash/recovery and
//!   partition/heal alternating renewal processes (exponential MTBF /
//!   MTTR) plus a global container-crash-burst process, all drawn from
//!   labelled deterministic [`SimRng`] streams so every chaos run is
//!   byte-for-byte reproducible under its seed.
//!
//! [`ChaosConfig::build_schedule`] turns it into one list of
//! `(instant, fault)` pairs. A
//! [`Federation`](crate::federation::Federation) carries its config
//! ([`Federation::with_chaos`](crate::federation::Federation::with_chaos))
//! and both federation drivers inject that one list. An empty config
//! schedules nothing and draws nothing, so a run without faults is
//! byte-identical to one that never heard of chaos.
//!
//! What a fault *means* is the federation's business: it re-routes a
//! crashed site's orphans to surviving sites (cross-site migration),
//! routes arrivals around partitions, and forwards container bursts to
//! the per-site schedulers through the [`ContainerChaos`] seam.

use crate::engine::{PolicyCtx, SchedulerPolicy};
use crate::rng::SimRng;
use crate::time::SimTime;

/// One injectable fault. `site` indexes the target's fault domains
/// (topology order for a federation; domain 0 for single-site targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The site crashes: it drops out of the router's view, its queued
    /// and in-flight requests are orphaned (migrated or failed), and it
    /// stays dark until a matching [`Fault::SiteUp`].
    SiteDown {
        /// Fault-domain index.
        site: u32,
    },
    /// The site recovers from a crash, cold (freshly provisioned).
    SiteUp {
        /// Fault-domain index.
        site: u32,
    },
    /// The router↔site network link is cut: new arrivals are routed
    /// around the site, requests in transit are re-routed, and requests
    /// already at the site have their responses stalled until the
    /// partition heals.
    PartitionStart {
        /// Fault-domain index.
        site: u32,
    },
    /// The partition heals; stalled responses are released.
    PartitionEnd {
        /// Fault-domain index.
        site: u32,
    },
    /// A correlated burst of container crashes at the site — beyond the
    /// independent per-container `container_mtbf_secs` process.
    ContainerBurst {
        /// Fault-domain index.
        site: u32,
        /// How many containers to crash (clamped to the live fleet).
        count: u32,
    },
    /// A brown-out: the site keeps serving, but every service at it runs
    /// at `permille / 1000` of nominal speed (thermal throttling, noisy
    /// neighbours, a degraded disk). The site stays routable — the
    /// slowdown is visible only through the health EWMA and the service
    /// times themselves. `permille ≥ 1000` restores nominal speed (the
    /// recovery event).
    SiteSlowdown {
        /// Fault-domain index.
        site: u32,
        /// Service-speed factor in permille (500 = half speed). Integer
        /// so the fault stays `Eq`/hashable like its siblings.
        permille: u32,
    },
}

impl Fault {
    /// The fault-domain index the fault targets.
    pub fn site(&self) -> u32 {
        match *self {
            Fault::SiteDown { site }
            | Fault::SiteUp { site }
            | Fault::PartitionStart { site }
            | Fault::PartitionEnd { site }
            | Fault::ContainerBurst { site, .. }
            | Fault::SiteSlowdown { site, .. } => site,
        }
    }
}

/// The chaos schedule: timed faults plus stochastic fault processes.
///
/// The default configuration injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Explicit faults, as `(seconds, fault)`. Faults at or past the
    /// nominal end of the run are dropped.
    pub events: Vec<(f64, Fault)>,
    /// Mean time between site crashes (per site, exponential). `None`
    /// disables the stochastic crash process.
    pub site_mtbf_secs: Option<f64>,
    /// Mean time to recover a crashed site (exponential).
    pub site_mttr_secs: f64,
    /// Mean time between router↔site partitions (per site, exponential).
    /// `None` disables the stochastic partition process.
    pub partition_mtbf_secs: Option<f64>,
    /// Mean time for a partition to heal (exponential).
    pub partition_mttr_secs: f64,
    /// Mean time between container-crash bursts (global, exponential;
    /// each burst hits one uniformly-drawn site). `None` disables the
    /// stochastic burst process.
    pub burst_mtbf_secs: Option<f64>,
    /// Containers crashed per stochastic burst.
    pub burst_size: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            site_mtbf_secs: None,
            site_mttr_secs: 30.0,
            partition_mtbf_secs: None,
            partition_mttr_secs: 15.0,
            burst_mtbf_secs: None,
            burst_size: 1,
        }
    }
}

impl ChaosConfig {
    /// Whether this configuration injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.events.is_empty()
            && self.site_mtbf_secs.is_none()
            && self.partition_mtbf_secs.is_none()
            && self.burst_mtbf_secs.is_none()
    }

    /// Materialize the full fault schedule this configuration injects
    /// over a run of `domains` fault domains ending (nominally) at
    /// `end`, in **scheduling order**: timed events in config order
    /// (onsets at or past `end` dropped, recoveries kept), then the
    /// per-domain crash renewals, the per-domain partition renewals, and
    /// the burst process. The sequential federation schedules them in
    /// this order, so the `(time, seq)` pairs of its run are
    /// reproducible from this list, and the windowed driver injects the
    /// same list, which keeps its fault timeline byte-identical to the
    /// sequential one.
    pub fn build_schedule(&self, seed: u64, domains: usize, end: SimTime) -> Vec<(SimTime, Fault)> {
        let mut out = Vec::new();
        for &(at, fault) in &self.events {
            let at = SimTime::from_secs_f64(at);
            let is_recovery = matches!(
                fault,
                Fault::SiteUp { .. }
                    | Fault::PartitionEnd { .. }
                    | Fault::SiteSlowdown {
                        permille: 1000..,
                        ..
                    }
            );
            if is_recovery || at < end {
                out.push((at, fault));
            }
        }
        let renewal = |rng: &mut SimRng,
                       mtbf: f64,
                       mttr: f64,
                       out: &mut Vec<(SimTime, Fault)>,
                       mut fault_pair: Box<dyn FnMut(bool) -> Fault>| {
            let mut t = 0.0f64;
            loop {
                let down_at = t + rng.exp(1.0 / mtbf);
                if down_at >= end.as_secs_f64() {
                    return;
                }
                let up_at = down_at + rng.exp(1.0 / mttr);
                out.push((SimTime::from_secs_f64(down_at), fault_pair(true)));
                out.push((SimTime::from_secs_f64(up_at), fault_pair(false)));
                t = up_at;
            }
        };
        if let Some(mtbf) = self.site_mtbf_secs {
            for site in 0..domains as u32 {
                let mut rng = SimRng::from_seed_label(seed, &format!("chaos:crash:{site}"));
                renewal(
                    &mut rng,
                    mtbf,
                    self.site_mttr_secs,
                    &mut out,
                    Box::new(move |down| {
                        if down {
                            Fault::SiteDown { site }
                        } else {
                            Fault::SiteUp { site }
                        }
                    }),
                );
            }
        }
        if let Some(mtbf) = self.partition_mtbf_secs {
            for site in 0..domains as u32 {
                let mut rng = SimRng::from_seed_label(seed, &format!("chaos:partition:{site}"));
                renewal(
                    &mut rng,
                    mtbf,
                    self.partition_mttr_secs,
                    &mut out,
                    Box::new(move |down| {
                        if down {
                            Fault::PartitionStart { site }
                        } else {
                            Fault::PartitionEnd { site }
                        }
                    }),
                );
            }
        }
        if let Some(mtbf) = self.burst_mtbf_secs {
            let mut rng = SimRng::from_seed_label(seed, "chaos:burst");
            let mut t = 0.0f64;
            loop {
                t += rng.exp(1.0 / mtbf);
                if t >= end.as_secs_f64() {
                    break;
                }
                let site = rng.below(domains.max(1)) as u32;
                out.push((
                    SimTime::from_secs_f64(t),
                    Fault::ContainerBurst {
                        site,
                        count: self.burst_size,
                    },
                ));
            }
        }
        out
    }

    /// Basic sanity checks on the knobs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("site_mtbf_secs", self.site_mtbf_secs),
            ("partition_mtbf_secs", self.partition_mtbf_secs),
            ("burst_mtbf_secs", self.burst_mtbf_secs),
        ] {
            if let Some(v) = v {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{name} must be positive, got {v}"));
                }
            }
        }
        for (name, v) in [
            ("site_mttr_secs", self.site_mttr_secs),
            ("partition_mttr_secs", self.partition_mttr_secs),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        for (at, _) in &self.events {
            if !(at.is_finite() && *at >= 0.0) {
                return Err(format!("chaos event time must be non-negative, got {at}"));
            }
        }
        Ok(())
    }
}

/// The per-site scheduler's introspection seam: how the federation
/// reaches *inside* a scheduler — to crash its containers (chaos) and
/// to census its warm fleet (the routing telemetry behind the cold-start
/// penalty and the forecast's server count).
///
/// The default implementations ignore the request (a scheduler with no
/// container fleet, like a test stub, has nothing to crash or census).
/// Real schedulers terminate up to `count` live containers and
/// re-dispatch the orphaned requests, returning how many containers
/// actually died, and report their per-function warm-container counts.
pub trait ContainerChaos: SchedulerPolicy {
    /// Crash up to `count` containers at `now`. Returns the number of
    /// containers actually crashed.
    fn crash_containers(
        &mut self,
        _ctx: &mut impl PolicyCtx<Self::Event>,
        _count: u32,
        _now: SimTime,
    ) -> u32 {
        0
    }

    /// Warm (booted, non-terminated) containers currently held for
    /// function `fn_idx` — the warm census the routers' cold-start
    /// penalty reads. Observe-only: implementations must not mutate
    /// state or draw randomness.
    fn warm_containers(&self, _fn_idx: u32) -> u64 {
        0
    }

    /// Apply a reconciler directive: resize toward `desired` total warm
    /// containers. This is the receiving end of the
    /// [`UtilizationReconciler`](crate::telemetry::UtilizationReconciler)
    /// round-trip — the directive was computed from a *reported* snapshot
    /// and arrives one network hop later, so by the time it lands the
    /// site may already have moved on; implementations reconcile toward
    /// the desired state rather than assuming it. Returns whether the
    /// directive changed anything. The default ignores it (a scheduler
    /// with no elastic fleet, or one that scales autonomously, has
    /// nothing to reconcile).
    fn apply_desired_fleet(
        &mut self,
        _ctx: &mut impl PolicyCtx<Self::Event>,
        _desired: u32,
        _now: SimTime,
    ) -> bool {
        false
    }

    /// Scale every subsequent service duration by `factor` (a
    /// [`Fault::SiteSlowdown`] brown-out: 0.5 = half speed = services
    /// take twice as long; 1.0 restores nominal). Requests already in
    /// service finish on their old clock — only new dispatches see the
    /// new factor. The default ignores it (a stub with no service
    /// process has nothing to slow down).
    fn set_service_factor(&mut self, _factor: f64) {}

    /// The site's per-dimension capacity picture (capacity and
    /// allocation on cpu / memory / bandwidth), feeding the planner
    /// router and the per-dimension telemetry columns. Observe-only.
    /// The default reports nothing (all-zero = unknown), which keeps
    /// resource-blind schedulers and their reports byte-identical.
    fn resource_snapshot(&self) -> crate::router::ResourceSnapshot {
        crate::router::ResourceSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule over three domains and a 100 s run, as
    /// `(seconds, fault)` in scheduling order.
    fn schedule(cfg: &ChaosConfig, seed: u64) -> Vec<(f64, Fault)> {
        cfg.build_schedule(seed, 3, SimTime::from_secs(100))
            .into_iter()
            .map(|(at, f)| (at.as_secs_f64(), f))
            .collect()
    }

    #[test]
    fn timed_faults_fire_in_order_and_past_end_onsets_are_dropped() {
        let cfg = ChaosConfig {
            events: vec![
                (60.0, Fault::SiteDown { site: 0 }),
                (20.0, Fault::PartitionStart { site: 1 }),
                (80.0, Fault::SiteUp { site: 0 }),
                (500.0, Fault::SiteDown { site: 2 }), // onset past the end: dropped
                (110.0, Fault::PartitionEnd { site: 1 }), // recovery in the drain: kept
            ],
            ..ChaosConfig::default()
        };
        let mut faults = schedule(&cfg, 1);
        // Timed events keep config order; a stable sort by time is the
        // order they fire in.
        assert_eq!(faults[0], (60.0, Fault::SiteDown { site: 0 }));
        faults.sort_by(|a, b| a.0.total_cmp(&b.0));
        let times: Vec<f64> = faults.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![20.0, 60.0, 80.0, 110.0]);
        assert_eq!(faults[1].1, Fault::SiteDown { site: 0 });
        assert_eq!(faults[3].1, Fault::PartitionEnd { site: 1 });
    }

    #[test]
    fn stochastic_faults_are_deterministic_and_alternate() {
        let cfg = ChaosConfig {
            site_mtbf_secs: Some(30.0),
            site_mttr_secs: 10.0,
            ..ChaosConfig::default()
        };
        let a = schedule(&cfg, 7);
        assert!(!a.is_empty(), "mtbf 30 over 100s should crash something");
        assert_eq!(a, schedule(&cfg, 7), "same seed, same fault schedule");
        assert_ne!(a, schedule(&cfg, 8), "the seed drives the schedule");
        // Per site, the first fault is a SiteDown, states alternate and
        // time never runs backwards.
        for site in 0..3u32 {
            let seq: Vec<&(f64, Fault)> = a.iter().filter(|(_, f)| f.site() == site).collect();
            assert!(seq.windows(2).all(|w| w[0].0 <= w[1].0), "site {site}");
            for (i, (_, f)) in seq.iter().enumerate() {
                let expect_down = i % 2 == 0;
                match f {
                    Fault::SiteDown { .. } => assert!(expect_down, "site {site} seq {i}"),
                    Fault::SiteUp { .. } => assert!(!expect_down, "site {site} seq {i}"),
                    other => panic!("unexpected fault {other:?}"),
                }
            }
        }
    }

    #[test]
    fn burst_process_targets_valid_sites() {
        let cfg = ChaosConfig {
            burst_mtbf_secs: Some(10.0),
            burst_size: 4,
            ..ChaosConfig::default()
        };
        let faults = schedule(&cfg, 3);
        assert!(!faults.is_empty());
        for (at, f) in &faults {
            assert!(*at < 100.0, "burst onset {at} past the end");
            match f {
                Fault::ContainerBurst { site, count } => {
                    assert!(*site < 3);
                    assert_eq!(*count, 4);
                }
                other => panic!("unexpected fault {other:?}"),
            }
        }
    }

    #[test]
    fn noop_chaos_is_transparent() {
        let cfg = ChaosConfig::default();
        assert!(cfg.is_noop());
        assert!(schedule(&cfg, 5).is_empty());
        // Any one source makes the config a live one.
        let timed = ChaosConfig {
            events: vec![(1.0, Fault::SiteDown { site: 0 })],
            ..ChaosConfig::default()
        };
        assert!(!timed.is_noop());
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let mut cfg = ChaosConfig::default();
        cfg.site_mtbf_secs = Some(0.0);
        assert!(cfg.validate().is_err());
        let mut cfg = ChaosConfig::default();
        cfg.site_mttr_secs = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = ChaosConfig::default();
        cfg.events.push((-2.0, Fault::SiteDown { site: 0 }));
        assert!(cfg.validate().is_err());
        assert!(ChaosConfig::default().validate().is_ok());
    }
}
