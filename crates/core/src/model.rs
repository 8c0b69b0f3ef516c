//! Per-function desired-allocation computation (§3.3).
//!
//! Each epoch, the controller feeds the smoothed arrival rate, the
//! profiler's service-time estimates and the SLO deadline into the queueing
//! models to obtain the container allocation each function *wants*:
//!
//! * homogeneous fleets use Algorithm 1 over M/M/c (§3.1);
//! * fleets with deflated (heterogeneous) containers keep their existing
//!   containers and use the Alves worst-case bound to size the standard
//!   containers to add (§3.2).

use crate::config::LassConfig;
use lass_cluster::{Cluster, FnId};
use lass_functions::ServiceTimeProfiler;
use lass_queueing::{
    required_additional_containers, required_containers_exact, SolverConfig, SolverError,
};

/// The model's verdict for one function this epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct DesiredAllocation {
    /// The function.
    pub fn_id: FnId,
    /// Total desired containers (kept existing + additional standard).
    pub count: u32,
    /// Desired aggregate CPU in milli (fractional to carry deflated sizes).
    pub cpu: f64,
    /// New standard-size containers beyond the kept existing fleet.
    pub additional: u32,
    /// Whether the heterogeneous model was used.
    pub hetero: bool,
    /// Solver iterations (scalability reporting, Fig. 5).
    pub solver_iterations: u32,
}

/// Why the model could not produce an allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// No service-time information for the function.
    NoServiceEstimate(FnId),
    /// The solver failed (budget exhausted / infeasible).
    Solver(SolverError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NoServiceEstimate(id) => {
                write!(f, "no service-time estimate for {id}")
            }
            ModelError::Solver(e) => write!(f, "solver: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<SolverError> for ModelError {
    fn from(e: SolverError) -> Self {
        ModelError::Solver(e)
    }
}

/// The wait budget for a function: the full SLO deadline when the SLO is on
/// waiting time only (the paper's evaluation convention), otherwise the
/// deadline minus the service-time tail (§3.1: `t = d − 1/μ_p99`).
pub fn wait_budget_for(cfg: &LassConfig, slo_deadline: f64, service_p99: f64) -> f64 {
    if cfg.slo_on_waiting_only {
        slo_deadline
    } else {
        slo_deadline - service_p99
    }
}

/// Compute the desired allocation for one function.
///
/// `standard_cpu_milli` is the function's standard container size (from its
/// spec). `keep_deflated` selects the heterogeneous path: existing
/// containers are kept at their current (possibly deflated) sizes and only
/// *additional* standard containers are sized (used when re-inflation is
/// not possible or suppressed, e.g. the Fig. 4 validation). Otherwise the
/// fleet is assumed homogeneous at the standard size.
pub fn desired_allocation(
    cluster: &Cluster,
    fn_id: FnId,
    lambda: f64,
    slo_deadline: f64,
    standard_cpu_milli: f64,
    profiler: &ServiceTimeProfiler,
    cfg: &LassConfig,
    keep_deflated: bool,
) -> Result<DesiredAllocation, ModelError> {
    if lambda <= f64::EPSILON {
        return Ok(DesiredAllocation {
            fn_id,
            count: 0,
            cpu: 0.0,
            additional: 0,
            hetero: false,
            solver_iterations: 0,
        });
    }
    let std_est = profiler
        .estimate(fn_id, 0.0)
        .ok_or(ModelError::NoServiceEstimate(fn_id))?;
    let t = wait_budget_for(cfg, slo_deadline, std_est.p99);
    let solver_cfg = SolverConfig {
        target_percentile: cfg.target_percentile,
        max_containers: cfg.max_containers_per_fn,
    };

    let has_deflated = keep_deflated && cluster.fn_containers(fn_id).any(|c| c.is_deflated());

    if !has_deflated {
        // Homogeneous: Algorithm 1.
        let res = required_containers_exact(lambda, std_est.rate, t, &solver_cfg)?;
        Ok(DesiredAllocation {
            fn_id,
            count: res.containers,
            cpu: f64::from(res.containers) * standard_cpu_milli,
            additional: res.containers,
            hetero: false,
            solver_iterations: res.iterations,
        })
    } else {
        // Heterogeneous: keep the whole existing fleet (deflated and
        // standard members) and top up with standard containers.
        let mut existing: Vec<f64> = cluster
            .fn_containers(fn_id)
            .map(|c| {
                profiler
                    .estimate(fn_id, c.deflation_ratio())
                    .map_or(std_est.rate, |e| e.rate)
            })
            .collect();
        existing.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        let res = required_additional_containers(lambda, &existing, std_est.rate, t, &solver_cfg)?;
        let existing_cpu: f64 = cluster
            .fn_containers(fn_id)
            .map(|c| f64::from(c.cpu().0))
            .sum();
        Ok(DesiredAllocation {
            fn_id,
            count: existing.len() as u32 + res.containers,
            cpu: existing_cpu + f64::from(res.containers) * standard_cpu_milli,
            additional: res.containers,
            hetero: true,
            solver_iterations: res.iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_cluster::{CpuMilli, MemMib, PlacementPolicy};
    use lass_functions::ServiceModel;
    use lass_simcore::SimTime;

    fn profiler_with(fn_id: FnId, base: f64) -> ServiceTimeProfiler {
        let mut p = ServiceTimeProfiler::new(50, false);
        p.register(fn_id, ServiceModel::exponential(base, 0.7));
        p
    }

    fn big_cluster() -> Cluster {
        Cluster::homogeneous(
            10,
            CpuMilli(100_000),
            MemMib(1 << 20),
            PlacementPolicy::WorstFit,
        )
    }

    #[test]
    fn zero_rate_desires_nothing() {
        let cl = big_cluster();
        let p = profiler_with(FnId(0), 0.1);
        let d = desired_allocation(
            &cl,
            FnId(0),
            0.0,
            0.1,
            1000.0,
            &p,
            &LassConfig::default(),
            false,
        )
        .unwrap();
        assert_eq!(d.count, 0);
        assert_eq!(d.cpu, 0.0);
    }

    #[test]
    fn homogeneous_matches_solver() {
        let cl = big_cluster();
        let p = profiler_with(FnId(0), 0.1);
        let cfg = LassConfig::default();
        let d = desired_allocation(&cl, FnId(0), 30.0, 0.1, 1000.0, &p, &cfg, false).unwrap();
        let expect = required_containers_exact(
            30.0,
            10.0,
            0.1,
            &SolverConfig {
                target_percentile: cfg.target_percentile,
                max_containers: cfg.max_containers_per_fn,
            },
        )
        .unwrap();
        assert_eq!(d.count, expect.containers);
        assert!(!d.hetero);
    }

    #[test]
    fn unknown_function_errors() {
        let cl = big_cluster();
        let p = ServiceTimeProfiler::new(50, false);
        let err = desired_allocation(
            &cl,
            FnId(7),
            5.0,
            0.1,
            1000.0,
            &p,
            &LassConfig::default(),
            false,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::NoServiceEstimate(_)));
    }

    #[test]
    fn heterogeneous_path_keeps_deflated_fleet() {
        let mut cl = big_cluster();
        let fn_id = FnId(0);
        let mut ids = Vec::new();
        for _ in 0..4 {
            ids.push(
                cl.create_container(
                    fn_id,
                    CpuMilli(1000),
                    MemMib(512),
                    SimTime::ZERO,
                    SimTime::ZERO,
                )
                .unwrap(),
            );
        }
        // Deflate two containers by 50%.
        cl.resize_container_cpu(ids[0], CpuMilli(500)).unwrap();
        cl.resize_container_cpu(ids[1], CpuMilli(500)).unwrap();
        let p = profiler_with(fn_id, 0.1);
        let cfg = LassConfig::default();
        let d = desired_allocation(&cl, fn_id, 40.0, 0.1, 1000.0, &p, &cfg, true).unwrap();
        assert!(d.hetero);
        assert!(d.count >= 4, "keeps the existing fleet");
        assert_eq!(d.count - 4, d.additional);
        // CPU accounts for deflated sizes: 2*500 + 2*1000 + extra*1000.
        let expect_cpu = 3000.0 + f64::from(d.additional) * 1000.0;
        assert!((d.cpu - expect_cpu).abs() < 1e-9);
    }

    #[test]
    fn waiting_only_budget_is_full_deadline() {
        let cfg = LassConfig::default();
        assert_eq!(wait_budget_for(&cfg, 0.1, 0.46), 0.1);
        let mut cfg2 = cfg;
        cfg2.slo_on_waiting_only = false;
        assert!((wait_budget_for(&cfg2, 0.5, 0.2) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn higher_load_desires_more_cpu() {
        let mut cl = big_cluster();
        let fn_id = FnId(0);
        cl.create_container(
            fn_id,
            CpuMilli(1000),
            MemMib(512),
            SimTime::ZERO,
            SimTime::ZERO,
        )
        .unwrap();
        let p = profiler_with(fn_id, 0.1);
        let cfg = LassConfig::default();
        let lo = desired_allocation(&cl, fn_id, 10.0, 0.1, 1000.0, &p, &cfg, false).unwrap();
        let hi = desired_allocation(&cl, fn_id, 50.0, 0.1, 1000.0, &p, &cfg, false).unwrap();
        assert!(hi.count > lo.count);
        assert!(hi.cpu > lo.cpu);
    }
}
