//! Edge-cluster substrate for the LaSS reproduction.
//!
//! This crate models the data plane the paper's prototype runs on: worker
//! nodes with CPU/memory capacity, containers with cold starts and
//! per-container FCFS queues, placement policies, and — crucially for the
//! deflation reclamation policy — **in-place CPU resize** of running
//! containers (the capability that made the authors run functions in
//! native Docker rather than Kubernetes pods, §5).
//!
//! The crate is policy-free: deciding *how many* containers a function
//! gets, *when* to deflate and *where* requests go is `lass-core`'s job.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod container;
pub mod ids;
pub mod node;
pub mod placement;
pub mod resources;
mod store;
pub mod topology;

pub use cluster::{Cluster, ClusterError, Termination, WrrSlot};
pub use container::{Container, ContainerState};
pub use ids::{ContainerId, FnId, FnInterner, NodeId, RequestId, UserId};
pub use node::{Node, DEFAULT_NODE_BW};
pub use placement::{plan_batch, PlacementPolicy};
pub use resources::{BwMbps, CpuMilli, Dimension, MemMib, ResourceVec};
pub use topology::{Site, SiteId, Topology};
