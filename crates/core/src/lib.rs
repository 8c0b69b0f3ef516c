//! # lass-core — the LaSS controller
//!
//! The paper's primary contribution (Wang, Ali-Eldin, Shenoy, HPDC '21):
//! model-driven resource allocation for latency-sensitive serverless
//! functions on a resource-constrained edge cluster, with weighted
//! fair-share allocation and container-reclamation policies under
//! overload.
//!
//! Module map (paper section in parentheses):
//!
//! * [`config`] — all knobs with the paper's defaults.
//! * [`registry`] — function registration: CPU+memory sizing, SLOs,
//!   weights, users (§5).
//! * [`tree`] — hierarchical scheduling tree for fair-share weights (§5).
//! * [`model`] — per-function desired allocation via the queueing models
//!   (§3.1–3.3).
//! * [`predictor`] — pluggable arrival-rate predictors (§5): the paper's
//!   burst-aware dual windows (default), Holt trend extrapolation, peak
//!   hold.
//! * [`fairshare`] — Eq. 7–8 with Lemmas 1–2, plus a non-wasteful
//!   water-filling refinement (§4.1).
//! * [`reclaim`] — termination and deflation reclamation policies (§4.2).
//! * [`loadbalancer`] — smooth weighted round robin over containers (§5).
//! * [`controller`] — the epoch loop tying it together; command executor
//!   with lazy termination (§3.3).
//! * [`simulation`] — the LaSS scheduling policy plugged into the shared
//!   discrete-event engine (`lass_simcore::engine`): end-to-end
//!   deterministic simulation of a LaSS cluster (the evaluation
//!   substrate).
//! * [`site`] — the cluster-site core the three cluster-backed policies
//!   embed: provisioning, service start and completion, the chaos hooks
//!   and report assembly, plus [`SitePolicyKind`] to choose a policy.
//! * [`staticalloc`] — a static-allocation round-robin policy on the same
//!   core: the "provisioned-for-peak" baseline.
//! * [`knative`] — a Knative-style concurrency-target autoscaler on the
//!   same core: the model-free baseline.
//! * [`federated`] — a topology of cluster sites behind a front-end
//!   router, any of the three policies on every site.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commands;
pub mod config;
pub mod controller;
pub mod fairshare;
pub mod federated;
pub mod knative;
pub mod loadbalancer;
pub mod model;
pub mod predictor;
pub mod reclaim;
pub mod registry;
pub mod simulation;
pub mod site;
pub mod staticalloc;
pub mod tree;

pub use commands::{Command, Plan};
pub use config::{DispatchPolicy, LassConfig, ReclamationPolicy, ScalerKind};
pub use controller::{ApplyOutcome, LassController};
pub use fairshare::{fair_share, fair_share_paper, guaranteed_shares, is_overloaded, ShareRequest};
pub use federated::{FederatedSimReport, FederatedSimulation};
pub use loadbalancer::SmoothWrr;
pub use model::{desired_allocation, wait_budget_for, DesiredAllocation, ModelError};
pub use predictor::{BurstAwarePredictor, HoltPredictor, PeakPredictor, Predictor, PredictorKind};
pub use reclaim::{deflation_commands, termination_commands, FnSnapshot};
pub use registry::{FunctionRecord, FunctionRegistry};
pub use simulation::{FnReport, FunctionSetup, SimReport, Simulation};
pub use site::SitePolicyKind;
pub use tree::WeightTree;
