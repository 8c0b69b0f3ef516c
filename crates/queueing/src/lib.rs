//! Queueing-theoretic capacity models for latency-sensitive serverless
//! functions, as described in §3 of the LaSS paper (HPDC '21).
//!
//! This crate is pure mathematics: no simulation, no I/O, no clocks. It
//! provides
//!
//! * [`mmc`] — steady-state analysis of the homogeneous M/M/c/FCFS queue
//!   (Eq. 1–2 of the paper), including the waiting-time tail bound the paper
//!   derives from the state probabilities (Eq. 3–4) and the classical exact
//!   waiting-time distribution for cross-validation. For hot paths that
//!   evaluate many models, [`ErlangScratch`] is an allocation-free
//!   incremental evaluator producing bit-identical [`MmcSnapshot`]s.
//! * [`solver`] — Algorithm 1: the iterative procedure that finds the
//!   smallest container count `c` such that a target percentile of requests
//!   waits no longer than the SLO budget.
//! * [`hetero`] — the worst-case upper bounds of Alves et al. for
//!   *heterogeneous* M/M/c queues (Eq. 5–6), used when resource deflation
//!   leaves a function with containers of different sizes, plus the matching
//!   iterative solver. Two implementations are provided: a numerically naive
//!   direct evaluation (the paper's fragile "Scala" implementation analogue)
//!   and a robust incremental log-space evaluation (the "Julia" analogue).
//! * [`approx`] — G/G/c approximations (Allen–Cunneen / Kingman) for
//!   non-Poisson arrivals and non-exponential service — the paper's §8
//!   future work.
//! * [`estimator`] — arrival-rate estimation: EWMA smoothing over per-epoch
//!   observations (§3.3) and the dual sliding-window burst detector the
//!   prototype borrows from Knative (§5).
//! * [`predictor`] — online λ̂/μ̂ telemetry feeding the M/M/c closed forms:
//!   the waiting-time forecasts behind model-driven (SLO-aware) routing,
//!   plus the downtime EWMA behind failure-aware routing.
//! * [`quantile`] — [`LatencySketch`], a log-bucketed streaming quantile
//!   sketch after DDSketch (relative accuracy α = 2 %, up to 8 sorted
//!   buckets then a window of 160 `u32` buckets, an implicit zero count
//!   for samples at or below 1 ns), used by the online
//!   service-time learner and the streaming statistics; plus exact
//!   percentiles over samples.
//!
//! All probabilities are computed with incremental, log-space-safe
//! recurrences so that the models remain stable for thousands of containers
//! (cf. §6.3, where the naive implementation fails at scale).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod approx;
pub mod estimator;
pub mod hetero;
pub mod mmc;
pub mod predictor;
pub mod quantile;
pub mod solver;

pub use approx::{required_containers_general, GgcApprox, Variability};
pub use estimator::{DualWindowEstimator, Ewma};
pub use hetero::{
    required_additional_containers, required_additional_containers_naive, HeteroMmc, HeteroMmcNaive,
};
pub use mmc::{ErlangScratch, MmcQueue, MmcSnapshot, QueueError};
pub use predictor::{
    EvaluatedForecast, ForecastCache, HealthEwma, PredictorConfig, WaitForecast, WaitPredictor,
};
pub use quantile::{percentile_of_sorted, ExactPercentiles, LatencySketch};
pub use solver::{
    required_containers, required_containers_exact, required_containers_for_slo, wait_budget,
    SolverConfig, SolverError, SolverResult,
};

/// Convenience: 99th percentile of an exponential service-time distribution
/// with rate `mu` (requests/second). The paper sets the wait budget to
/// `t_p99 = d − 1/μ_p99`, where `1/μ_p99` is this value.
#[inline]
pub fn exp_service_percentile(mu: f64, percentile: f64) -> f64 {
    assert!(mu > 0.0, "service rate must be positive");
    assert!(
        (0.0..1.0).contains(&percentile),
        "percentile must be in [0, 1)"
    );
    -(1.0 - percentile).ln() / mu
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_percentile_median() {
        // Median of Exp(mu) is ln(2)/mu.
        let m = exp_service_percentile(2.0, 0.5);
        assert!((m - std::f64::consts::LN_2 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn exp_percentile_p99_scales_inversely_with_mu() {
        let a = exp_service_percentile(5.0, 0.99);
        let b = exp_service_percentile(10.0, 0.99);
        assert!((a / b - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "service rate must be positive")]
    fn exp_percentile_rejects_zero_rate() {
        exp_service_percentile(0.0, 0.99);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn exp_percentile_rejects_unit_percentile() {
        exp_service_percentile(1.0, 1.0);
    }
}
