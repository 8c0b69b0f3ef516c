//! Service-time models under CPU deflation.
//!
//! §6.5 of the paper measures how each function's service time responds to
//! CPU deflation (Fig. 7): functions typically use only a fraction of their
//! standard allocation ("slack"), so reclaiming up to that slack has little
//! effect, while deeper deflation slows the function roughly in proportion
//! to the CPU taken away. MobileNet is the exception — it saturates its
//! 2-vCPU allocation, so *any* deflation slows it down.
//!
//! We capture this with a two-parameter model: a base service time at the
//! standard size and a `demand_fraction` `u ∈ (0, 1]` — the share of the
//! standard allocation the function actually needs. With deflation ratio
//! `d`, the effective slowdown is `max(1, u / (1 − d))`: flat until the
//! slack is exhausted (`d ≤ 1 − u`), then inversely proportional to the
//! remaining CPU.

use lass_simcore::SimRng;
use serde::{Deserialize, Serialize};

/// Shape of the service-time distribution around its (deflation-dependent)
/// mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceDistribution {
    /// Exponential (the M/M/c modeling assumption; default).
    Exponential,
    /// Deterministic (micro-benchmark with fixed cycle count).
    Deterministic,
    /// Log-normal with the given coefficient of variation (robustness
    /// studies: the models assume exponential, real inference is not).
    LogNormal {
        /// Coefficient of variation (σ/μ in linear space).
        cv: f64,
    },
}

/// A function's service-time response to CPU deflation.
///
/// ```
/// use lass_functions::ServiceModel;
///
/// // 100 ms base time, 30% CPU slack (Fig. 7's typical shape).
/// let m = ServiceModel::exponential(0.1, 0.7);
/// assert_eq!(m.mean_service_time(0.2), 0.1);            // within slack: free
/// assert!((m.mean_service_time(0.5) - 0.14).abs() < 1e-12); // beyond: slower
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Mean service time (seconds) at the standard container size.
    pub base_time: f64,
    /// Fraction of the standard CPU allocation the function actually
    /// consumes (1 − slack). MobileNet ≈ 0.98; most functions ≈ 0.7.
    pub demand_fraction: f64,
    /// Distribution shape.
    pub distribution: ServiceDistribution,
}

impl ServiceModel {
    /// Exponential service model with the given base time and demand.
    pub fn exponential(base_time: f64, demand_fraction: f64) -> Self {
        Self::new(base_time, demand_fraction, ServiceDistribution::Exponential)
    }

    /// General constructor.
    pub fn new(base_time: f64, demand_fraction: f64, distribution: ServiceDistribution) -> Self {
        let model = Self {
            base_time,
            demand_fraction,
            distribution,
        };
        if let Err(e) = model.validate() {
            panic!("{e}");
        }
        model
    }

    /// Check the parameters [`ServiceModel::new`] insists on; a model
    /// deserialized from a scenario bypasses the constructor.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.base_time > 0.0 && self.base_time.is_finite()) {
            return Err(format!("bad base time {}", self.base_time));
        }
        if !(self.demand_fraction > 0.0 && self.demand_fraction <= 1.0) {
            return Err(format!(
                "demand fraction must be in (0, 1], got {}",
                self.demand_fraction
            ));
        }
        if let ServiceDistribution::LogNormal { cv } = self.distribution {
            if !(cv > 0.0 && cv.is_finite()) {
                return Err(format!("bad CV {cv}"));
            }
        }
        Ok(())
    }

    /// Multiplicative slowdown at deflation ratio `d ∈ [0, 1)`:
    /// `max(1, u/(1−d))`.
    pub fn slowdown(&self, deflation: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&deflation),
            "deflation ratio must be in [0, 1), got {deflation}"
        );
        (self.demand_fraction / (1.0 - deflation)).max(1.0)
    }

    /// The deflation ratio at which slowdown begins (the function's slack).
    pub fn slack(&self) -> f64 {
        1.0 - self.demand_fraction
    }

    /// Mean service time (seconds) at deflation ratio `d`.
    pub fn mean_service_time(&self, deflation: f64) -> f64 {
        self.base_time * self.slowdown(deflation)
    }

    /// Service rate μ (req/s) at deflation ratio `d`.
    pub fn service_rate(&self, deflation: f64) -> f64 {
        1.0 / self.mean_service_time(deflation)
    }

    /// The `p`-percentile of the service time at deflation `d` under this
    /// model's distribution (used to derive the wait budget `t = d − s_p`).
    pub fn service_percentile(&self, deflation: f64, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p));
        let mean = self.mean_service_time(deflation);
        match self.distribution {
            ServiceDistribution::Exponential => -(1.0 - p).ln() * mean,
            ServiceDistribution::Deterministic => mean,
            ServiceDistribution::LogNormal { cv } => {
                let sigma2 = (1.0 + cv * cv).ln();
                let mu = mean.ln() - sigma2 / 2.0;
                // Quantile via inverse error function approximation.
                (mu + sigma2.sqrt() * normal_quantile(p)).exp()
            }
        }
    }

    /// Draw one service time at deflation ratio `d`.
    pub fn sample(&self, deflation: f64, rng: &mut SimRng) -> f64 {
        let mean = self.mean_service_time(deflation);
        match self.distribution {
            ServiceDistribution::Exponential => rng.exp(1.0 / mean),
            ServiceDistribution::Deterministic => mean,
            ServiceDistribution::LogNormal { cv } => rng.lognormal_mean_cv(mean, cv),
        }
    }
}

/// Standard normal quantile (Acklam's rational approximation, |err| < 1e-8).
fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_region_is_flat() {
        // 30% slack: deflation up to 0.3 costs nothing.
        let m = ServiceModel::exponential(0.1, 0.7);
        assert!((m.slack() - 0.3).abs() < 1e-12);
        assert_eq!(m.slowdown(0.0), 1.0);
        assert_eq!(m.slowdown(0.2), 1.0);
        assert!((m.slowdown(0.3) - 1.0).abs() < 1e-9);
        assert!(m.slowdown(0.5) > 1.0);
    }

    #[test]
    fn beyond_slack_slowdown_is_inverse_proportional() {
        let m = ServiceModel::exponential(0.1, 0.7);
        // At d=0.5, remaining CPU = 0.5 of standard; demand 0.7 -> 1.4x.
        assert!((m.slowdown(0.5) - 1.4).abs() < 1e-9);
        assert!((m.mean_service_time(0.5) - 0.14).abs() < 1e-9);
        // At d=0.65: 0.7/0.35 = 2x.
        assert!((m.slowdown(0.65) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mobilenet_like_has_no_flat_region() {
        let m = ServiceModel::exponential(0.25, 0.98);
        assert!(m.slack() < 0.03);
        // 30% deflation hurts immediately: 0.98/0.7 = 1.4x.
        assert!((m.slowdown(0.3) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn slowdown_is_monotone_in_deflation() {
        let m = ServiceModel::exponential(0.1, 0.7);
        let mut last = 0.0;
        for i in 0..90 {
            let d = f64::from(i) / 100.0;
            let s = m.slowdown(d);
            assert!(s >= last);
            last = s;
        }
    }

    #[test]
    fn service_rate_is_reciprocal_mean() {
        let m = ServiceModel::exponential(0.2, 0.7);
        assert!((m.service_rate(0.0) - 5.0).abs() < 1e-9);
        assert!((m.service_rate(0.65) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn exponential_percentile() {
        let m = ServiceModel::exponential(0.1, 1.0);
        let p99 = m.service_percentile(0.0, 0.99);
        assert!((p99 - 0.1 * (100.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn deterministic_percentile_is_mean() {
        let m = ServiceModel::new(0.1, 0.7, ServiceDistribution::Deterministic);
        assert_eq!(m.service_percentile(0.0, 0.99), 0.1);
        let mut rng = SimRng::from_seed(1);
        assert_eq!(m.sample(0.0, &mut rng), 0.1);
    }

    #[test]
    fn lognormal_sampling_matches_mean() {
        let m = ServiceModel::new(0.1, 0.7, ServiceDistribution::LogNormal { cv: 0.4 });
        let mut rng = SimRng::from_seed(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| m.sample(0.0, &mut rng)).sum::<f64>() / f64::from(n);
        assert!((mean - 0.1).abs() < 0.002, "mean={mean}");
        // Median of lognormal < mean; p50 percentile should reflect that.
        let p50 = m.service_percentile(0.0, 0.5);
        assert!(p50 < 0.1);
    }

    #[test]
    fn exponential_sampling_matches_deflated_mean() {
        let m = ServiceModel::exponential(0.1, 0.8);
        let mut rng = SimRng::from_seed(3);
        let n = 100_000;
        let d = 0.5; // slowdown 0.8/0.5 = 1.6 -> mean 0.16
        let mean: f64 = (0..n).map(|_| m.sample(d, &mut rng)).sum::<f64>() / f64::from(n);
        assert!((mean - 0.16).abs() < 0.003, "mean={mean}");
    }

    #[test]
    fn normal_quantile_sanity() {
        assert!((normal_quantile(0.5)).abs() < 1e-8);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.99) - 2.326348).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "deflation ratio")]
    fn full_deflation_is_rejected() {
        ServiceModel::exponential(0.1, 0.7).slowdown(1.0);
    }
}
