//! Service-time profiling.
//!
//! The controller "needs to know the service time distribution … LaSS
//! supports two approaches: 1) load offline profiling results … and 2) use
//! an online learning algorithm to learn the service time distribution(s)
//! over time" (§5). Under deflation there is a *family* of distributions,
//! one per container size; we bucket by deflation decile.
//!
//! The online learner keeps a running mean per `(function,
//! deflation-bucket)` and takes over from the offline profile once it has
//! seen enough samples. The controller reads a service-time tail only to
//! cut it from the SLO budget when the SLO covers the response time
//! (`slo_on_waiting_only = false`), so a streaming P² p99 per bucket is
//! learned only when asked for; otherwise the p99 comes from the offline
//! profile. State is dense: bucket `fn * 10 + decile` of a flat vector,
//! since function ids are assigned sequentially from 0.

use crate::servicetime::ServiceModel;
use lass_cluster::FnId;
use lass_queueing::P2Quantile;
use serde::{Deserialize, Serialize};

/// What the controller needs to know about service times at a given
/// container size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceEstimate {
    /// Mean service time (seconds).
    pub mean: f64,
    /// Service rate μ = 1/mean (req/s).
    pub rate: f64,
    /// 99th percentile of the service time: learned online when the
    /// profiler tracks tails, otherwise the offline profile's (or the
    /// mean, for a function without one).
    pub p99: f64,
    /// Whether the estimate came from online observations (vs. the offline
    /// profile).
    pub online: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct OnlineBucket {
    count: usize,
    mean: f64,
}

/// Deflation deciles per function.
const DECILES: usize = 10;

/// Offline profiles + online learner for per-function service times.
#[derive(Debug, Clone)]
pub struct ServiceTimeProfiler {
    /// Offline model per function id (`None` where none was registered).
    offline: Vec<Option<ServiceModel>>,
    /// Online buckets, indexed by [`slot`].
    online: Vec<OnlineBucket>,
    /// Online p99 per bucket, parallel to `online`; `None` when tails
    /// are not learned.
    p99: Option<Vec<P2Quantile>>,
    /// Online estimates are used only after this many samples in a bucket.
    min_samples: usize,
}

/// Deflation-decile bucket index (0 ⇒ [0, 0.1), 9 ⇒ [0.9, 1)).
fn bucket(deflation: f64) -> u8 {
    debug_assert!((0.0..1.0).contains(&deflation));
    ((deflation * 10.0) as u8).min(9)
}

/// Index of the online bucket of `fn_id` at `deflation`.
fn slot(fn_id: FnId, deflation: f64) -> usize {
    fn_id.0 as usize * DECILES + usize::from(bucket(deflation))
}

impl ServiceTimeProfiler {
    /// A profiler that trusts online data after `min_samples` observations
    /// per bucket (the paper does not specify; 50 is conservative).
    /// `learn_p99` keeps a streaming p99 per bucket for estimates that
    /// read the tail.
    pub fn new(min_samples: usize, learn_p99: bool) -> Self {
        Self {
            offline: Vec::new(),
            online: Vec::new(),
            p99: learn_p99.then(Vec::new),
            min_samples,
        }
    }

    /// Register a function's offline profile (its deflation service-time
    /// model, e.g. from Table 1 / Fig. 7 measurements).
    pub fn register(&mut self, fn_id: FnId, model: ServiceModel) {
        let i = fn_id.0 as usize;
        if i >= self.offline.len() {
            self.offline.resize(i + 1, None);
        }
        self.offline[i] = Some(model);
    }

    /// The offline model, if registered.
    pub fn offline_model(&self, fn_id: FnId) -> Option<&ServiceModel> {
        self.offline.get(fn_id.0 as usize)?.as_ref()
    }

    /// Record one observed service time (seconds) at the given deflation
    /// ratio.
    pub fn record(&mut self, fn_id: FnId, deflation: f64, observed: f64) {
        debug_assert!(observed.is_finite() && observed >= 0.0);
        let i = slot(fn_id, deflation);
        if i >= self.online.len() {
            let len = (fn_id.0 as usize + 1) * DECILES;
            self.online.resize(len, OnlineBucket::default());
            if let Some(p99) = &mut self.p99 {
                p99.resize_with(len, || P2Quantile::new(0.99));
            }
        }
        let b = &mut self.online[i];
        b.count += 1;
        b.mean += (observed - b.mean) / b.count as f64;
        if let Some(p99) = &mut self.p99 {
            p99[i].observe(observed);
        }
    }

    /// Number of online samples in the bucket covering `deflation`.
    pub fn online_samples(&self, fn_id: FnId, deflation: f64) -> usize {
        self.online
            .get(slot(fn_id, deflation))
            .map_or(0, |b| b.count)
    }

    /// Estimate the service-time distribution of `fn_id` at `deflation`.
    /// Prefers the online learner once its bucket is warm; falls back to
    /// the offline profile; `None` if the function is unknown both ways.
    pub fn estimate(&self, fn_id: FnId, deflation: f64) -> Option<ServiceEstimate> {
        let i = slot(fn_id, deflation);
        let offline = self.offline_model(fn_id);
        if let Some(b) = self.online.get(i) {
            if b.count > 0 && b.count >= self.min_samples {
                let mean = b.mean.max(1e-9);
                let p99 = match &self.p99 {
                    Some(p99) => p99[i].estimate(),
                    None => offline.map(|m| m.service_percentile(deflation, 0.99)),
                };
                return Some(ServiceEstimate {
                    mean,
                    rate: 1.0 / mean,
                    p99: p99.unwrap_or(mean),
                    online: true,
                });
            }
        }
        let model = offline?;
        let mean = model.mean_service_time(deflation);
        Some(ServiceEstimate {
            mean,
            rate: 1.0 / mean,
            p99: model.service_percentile(deflation, 0.99),
            online: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_simcore::SimRng;

    #[test]
    fn offline_fallback_matches_model() {
        let mut p = ServiceTimeProfiler::new(50, false);
        p.register(FnId(0), ServiceModel::exponential(0.1, 0.7));
        let est = p.estimate(FnId(0), 0.0).unwrap();
        assert!(!est.online);
        assert!((est.mean - 0.1).abs() < 1e-12);
        assert!((est.rate - 10.0).abs() < 1e-9);
        assert!((est.p99 - 0.1 * 100.0f64.ln()).abs() < 1e-9);
        // Deflated bucket uses the slack model.
        let est50 = p.estimate(FnId(0), 0.5).unwrap();
        assert!((est50.mean - 0.14).abs() < 1e-9);
    }

    #[test]
    fn unknown_function_yields_none() {
        let p = ServiceTimeProfiler::new(10, false);
        assert!(p.estimate(FnId(9), 0.0).is_none());
    }

    #[test]
    fn online_takes_over_after_min_samples() {
        let mut p = ServiceTimeProfiler::new(100, true);
        p.register(FnId(1), ServiceModel::exponential(0.1, 0.7));
        let mut rng = SimRng::from_seed(5);
        // The function actually runs at 0.2 mean (offline profile is stale).
        for _ in 0..99 {
            p.record(FnId(1), 0.0, rng.exp(5.0));
        }
        assert!(!p.estimate(FnId(1), 0.0).unwrap().online);
        for _ in 0..2000 {
            p.record(FnId(1), 0.0, rng.exp(5.0));
        }
        let est = p.estimate(FnId(1), 0.0).unwrap();
        assert!(est.online);
        assert!((est.mean - 0.2).abs() < 0.01, "mean={}", est.mean);
        assert!((est.rate - 5.0).abs() < 0.3);
        let truth_p99 = 0.2 * 100.0f64.ln();
        assert!(
            (est.p99 - truth_p99).abs() / truth_p99 < 0.2,
            "p99={}",
            est.p99
        );
    }

    #[test]
    fn buckets_are_independent_per_deflation() {
        let mut p = ServiceTimeProfiler::new(10, false);
        p.register(FnId(2), ServiceModel::exponential(0.1, 0.7));
        for _ in 0..50 {
            p.record(FnId(2), 0.05, 0.1); // bucket 0
            p.record(FnId(2), 0.55, 0.2); // bucket 5
        }
        assert_eq!(p.online_samples(FnId(2), 0.0), 50);
        assert_eq!(p.online_samples(FnId(2), 0.5), 50);
        assert_eq!(p.online_samples(FnId(2), 0.9), 0);
        let shallow = p.estimate(FnId(2), 0.02).unwrap();
        let deep = p.estimate(FnId(2), 0.52).unwrap();
        assert!((shallow.mean - 0.1).abs() < 1e-9);
        assert!((deep.mean - 0.2).abs() < 1e-9);
    }

    #[test]
    fn online_without_offline_profile_works() {
        let mut p = ServiceTimeProfiler::new(5, false);
        for _ in 0..10 {
            p.record(FnId(3), 0.0, 0.3);
        }
        let est = p.estimate(FnId(3), 0.0).unwrap();
        assert!(est.online);
        assert!((est.mean - 0.3).abs() < 1e-9);
        // But an unwarmed bucket of the same function has no fallback.
        assert!(p.estimate(FnId(3), 0.5).is_none());
    }

    #[test]
    fn unrecorded_bucket_falls_back_offline_with_zero_min_samples() {
        let mut p = ServiceTimeProfiler::new(0, false);
        p.register(FnId(0), ServiceModel::exponential(0.1, 0.7));
        p.register(FnId(1), ServiceModel::exponential(0.3, 0.7));
        p.record(FnId(0), 0.0, 0.25);
        let warm = p.estimate(FnId(0), 0.0).unwrap();
        assert!(warm.online);
        assert!((warm.mean - 0.25).abs() < 1e-12);
        // The same function's other deciles, and a function never
        // recorded at all, still read the offline profile.
        let cold = p.estimate(FnId(0), 0.5).unwrap();
        assert!(!cold.online);
        assert!((cold.mean - 0.14).abs() < 1e-9);
        let unseen = p.estimate(FnId(1), 0.0).unwrap();
        assert!(!unseen.online);
        assert!((unseen.mean - 0.3).abs() < 1e-12);
    }

    #[test]
    fn sparse_ids_register_and_record() {
        let mut p = ServiceTimeProfiler::new(3, false);
        p.register(FnId(1000), ServiceModel::exponential(0.2, 0.7));
        assert!(p.offline_model(FnId(999)).is_none());
        assert!(p.estimate(FnId(999), 0.0).is_none());
        assert!(p.estimate(FnId(1001), 0.0).is_none());
        assert!((p.estimate(FnId(1000), 0.0).unwrap().mean - 0.2).abs() < 1e-12);
        for _ in 0..3 {
            p.record(FnId(1000), 0.95, 0.5);
        }
        assert_eq!(p.online_samples(FnId(1000), 0.95), 3);
        assert_eq!(p.online_samples(FnId(1000), 0.0), 0);
        assert_eq!(p.online_samples(FnId(999), 0.95), 0);
        let deep = p.estimate(FnId(1000), 0.95).unwrap();
        assert!(deep.online);
        assert!((deep.mean - 0.5).abs() < 1e-12);
        assert!(!p.estimate(FnId(1000), 0.0).unwrap().online);
    }

    #[test]
    fn online_p99_is_learned_only_when_asked_for() {
        let model = ServiceModel::exponential(0.1, 0.7);
        // The function actually runs at 0.2 mean, so the learned tail
        // and the offline one differ by 2x.
        let learned = 0.2 * 100.0f64.ln();
        for learn in [true, false] {
            let mut p = ServiceTimeProfiler::new(10, learn);
            p.register(FnId(0), model);
            let mut rng = SimRng::from_seed(11);
            for _ in 0..5000 {
                p.record(FnId(0), 0.0, rng.exp(5.0));
            }
            assert_eq!(p.p99.is_some(), learn);
            let est = p.estimate(FnId(0), 0.0).unwrap();
            assert!(est.online);
            assert!((est.mean - 0.2).abs() < 0.01, "mean={}", est.mean);
            if learn {
                assert!((est.p99 - learned).abs() / learned < 0.2, "p99={}", est.p99);
            } else {
                assert_eq!(est.p99, model.service_percentile(0.0, 0.99));
            }
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(0.0), 0);
        assert_eq!(bucket(0.0999), 0);
        assert_eq!(bucket(0.1), 1);
        assert_eq!(bucket(0.95), 9);
        assert_eq!(bucket(0.9999), 9);
    }
}
