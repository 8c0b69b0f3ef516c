//! Deterministic discrete-event simulation substrate for the LaSS
//! reproduction.
//!
//! The paper's prototype runs on a physical OpenWhisk cluster; this crate
//! provides the simulated equivalent of "the world": a nanosecond-precision
//! clock, an event calendar with deterministic tie-breaking, seeded random
//! streams, the paper's three workload-generator modes plus per-minute
//! trace replay, and measurement instruments (exact percentiles,
//! time-weighted gauges, timeline series).
//!
//! On top of that substrate, [`engine`] provides the generic
//! discrete-event simulation engine shared by every simulator in the
//! workspace: the event pump, the request lifecycle and its statistics,
//! and the [`SchedulerPolicy`] seam (driven through [`PolicyCtx`]) that
//! schedulers (LaSS, the OpenWhisk baseline, static round-robin,
//! Knative-style scaling, …) plug into. [`federation`] stacks a
//! multi-site meta-policy on that seam — one scheduler instance per
//! site behind a [`router`]-provided front-end routing policy — for
//! federated edge↔cloud topologies. A federation carries its own
//! [`chaos`] schedule: site crashes, router↔site partitions,
//! container-crash bursts, and cross-site migration of a dead site's
//! orphans, all from labelled deterministic RNG streams.
//!
//! Nothing in this crate knows about containers or controllers — those live
//! in `lass-cluster` and `lass-core`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod calendar;
pub mod chaos;
pub mod engine;
pub mod events;
pub mod federation;
mod front;
pub mod metrics;
pub mod parallel;
pub mod reqtable;
pub mod rng;
pub mod router;
pub mod telemetry;
pub mod time;

pub use arrivals::{
    collect_arrivals, ArrivalProcess, ModulatedPoisson, PerMinuteTrace, PiecewiseConstantPoisson,
    ScaledShapeTrace, StaticPoisson,
};
pub use calendar::Calendar;
pub use chaos::{ChaosConfig, ContainerChaos, Fault};
pub use engine::{
    run_simulation, Completion, EngineConfig, EngineCtx, EngineOutcome, FnStats, FunctionEntry,
    PolicyCtx, ReqId, SchedulerPolicy,
};
pub use events::{EventQueue, HeapCalendar};
pub use federation::{
    run_federation, FedEv, FedFunction, FederatedReport, Federation, FederationConfig, HedgeConfig,
    HedgeTrigger, SiteMeta, SiteReport,
};
pub use lass_queueing::{
    EvaluatedForecast, ForecastCache, PredictorConfig, WaitForecast, WaitPredictor,
};
pub use metrics::{DowntimeClock, SampleStats, TimeSeries, TimeWeightedGauge};
pub use parallel::run_federation_parallel;
pub use reqtable::RequestTable;
pub use rng::SimRng;
pub use router::{
    FailureAwareRouter, LatencyAwareRouter, LeastLoadedRouter, PlannerRouter, ResourceSnapshot,
    RoundRobinRouter, RouterConfig, RouterKind, RouterPolicy, SiteState,
};
pub use telemetry::{TelemetryConfig, TelemetrySnapshot, UtilizationReconciler};
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};
