//! The edge cluster: nodes + containers + capacity accounting.
//!
//! All mutation of containers and node reservations goes through
//! [`Cluster`], which maintains the invariant that every node's reserved
//! resources equal the sum of its resident (non-terminated) containers'
//! allocations. Containers iterate in id (creation) order and functions in
//! `FnId` order, so simulations replay exactly.

use crate::container::{Container, ContainerState};
use crate::ids::{ContainerId, FnId, NodeId};
use crate::node::Node;
use crate::placement::PlacementPolicy;
use crate::resources::{CpuMilli, Dimension, MemMib, ResourceVec};
use crate::store::ContainerStore;
use crate::RequestId;
use lass_simcore::SimTime;

/// Errors from cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No node can host the requested reservation.
    InsufficientCapacity {
        /// CPU that was requested.
        cpu: CpuMilli,
        /// Memory that was requested.
        mem: MemMib,
    },
    /// Unknown container id.
    NoSuchContainer(ContainerId),
    /// The requested resize would exceed the hosting node's capacity.
    ResizeExceedsNode(ContainerId),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InsufficientCapacity { cpu, mem } => {
                write!(f, "no node can host {cpu} + {mem}")
            }
            ClusterError::NoSuchContainer(id) => write!(f, "unknown container {id}"),
            ClusterError::ResizeExceedsNode(id) => {
                write!(f, "resize of {id} exceeds node capacity")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Result of terminating a container: its final record plus the requests
/// that must be re-dispatched elsewhere.
#[derive(Debug)]
pub struct Termination {
    /// The terminated container (state is `Terminated`).
    pub container: Container,
    /// In-service + queued requests orphaned by the termination.
    pub orphans: Vec<RequestId>,
}

/// One candidate in a function's incrementally-maintained weighted
/// dispatch index (see [`Cluster::wrr_candidates`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrrSlot {
    /// The container.
    pub cid: ContainerId,
    /// WRR dispatch weight: the container's *current* CPU allocation in
    /// milli (never below 1.0), updated in place on every resize.
    pub weight: f64,
    /// Whether the container is warm and not serving anything.
    pub idle: bool,
    /// Whether the container has finished booting (idle or busy) — the
    /// warm-census predicate.
    pub warm: bool,
}

/// A function's dense per-function record: its live container ids and its
/// dispatch index — the containers' WRR weights and readiness flags in
/// creation order (`slots` mirrors `containers` slot for slot) plus the
/// warm census, all maintained incrementally so the per-request dispatch
/// path never walks the container map.
#[derive(Debug, Clone, Default)]
struct FnEntry {
    containers: Vec<ContainerId>,
    slots: Vec<WrrSlot>,
    /// Number of warm slots (kept in lockstep with the flags).
    warm: u64,
}

/// The edge cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    containers: ContainerStore,
    /// Per-function records, indexed densely by `FnId` (ids are interned
    /// first-seen, so this is a flat vector rather than a map — O(1)
    /// lookups with no tree walk or hashing even at 10⁶ functions).
    /// Weights change only on create/terminate/resize and the idle/warm
    /// flags only through the cluster-level service transitions, so the
    /// index is updated at those (rare) points instead of being rebuilt
    /// per request.
    fns: Vec<FnEntry>,
    next_container: u64,
    placement: PlacementPolicy,
}

/// The WRR dispatch weight of a container allocation.
fn wrr_weight(cpu: CpuMilli) -> f64 {
    f64::from(cpu.0).max(1.0)
}

impl Cluster {
    /// A homogeneous cluster of `node_count` nodes (the paper's testbed is
    /// 3 × (4-core, 16 GB)).
    pub fn homogeneous(
        node_count: u32,
        cpu_per_node: CpuMilli,
        mem_per_node: MemMib,
        placement: PlacementPolicy,
    ) -> Self {
        let nodes = (0..node_count)
            .map(|i| Node::new(NodeId(i), cpu_per_node, mem_per_node))
            .collect();
        Self {
            nodes,
            containers: ContainerStore::default(),
            fns: Vec::new(),
            next_container: 0,
            placement,
        }
    }

    /// A homogeneous cluster with an explicit per-node capacity vector
    /// (bandwidth included).
    pub fn homogeneous_vec(
        node_count: u32,
        capacity_per_node: ResourceVec,
        placement: PlacementPolicy,
    ) -> Self {
        let nodes = (0..node_count)
            .map(|i| Node::with_resources(NodeId(i), capacity_per_node))
            .collect();
        Self {
            nodes,
            containers: ContainerStore::default(),
            fns: Vec::new(),
            next_container: 0,
            placement,
        }
    }

    /// The paper's testbed: 3 nodes × 4 vCPU × 16 GiB. Best-fit packing is
    /// used so large (e.g. 2-vCPU MobileNet) containers are not stranded
    /// by fragments of small ones.
    pub fn paper_testbed() -> Self {
        Self::homogeneous(
            3,
            CpuMilli::from_cores(4.0),
            MemMib(16 * 1024),
            PlacementPolicy::BestFit,
        )
    }

    /// Nodes (read-only).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Placement policy in force.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// Total CPU capacity across nodes.
    pub fn total_cpu_capacity(&self) -> CpuMilli {
        self.nodes.iter().map(Node::cpu_capacity).sum()
    }

    /// Total reserved CPU across nodes.
    pub fn total_cpu_used(&self) -> CpuMilli {
        self.nodes.iter().map(Node::cpu_used).sum()
    }

    /// Total free CPU across nodes (fragmented; a single container may not
    /// fit even when this is large).
    pub fn total_cpu_free(&self) -> CpuMilli {
        self.nodes.iter().map(Node::cpu_free).sum()
    }

    /// Total memory capacity across nodes.
    pub fn total_mem_capacity(&self) -> MemMib {
        self.nodes.iter().map(Node::mem_capacity).sum()
    }

    /// Total capacity vector across nodes.
    pub fn total_capacity_vec(&self) -> ResourceVec {
        self.nodes.iter().map(Node::capacity_vec).sum()
    }

    /// Total reserved vector across nodes.
    pub fn total_used_vec(&self) -> ResourceVec {
        self.nodes.iter().map(Node::used_vec).sum()
    }

    /// Fraction of cluster CPU currently reserved (the paper's "system
    /// utilization" in §6.6/6.7).
    pub fn cpu_utilization(&self) -> f64 {
        self.total_cpu_used().ratio(self.total_cpu_capacity())
    }

    /// Fraction of cluster capacity reserved along one dimension.
    pub fn utilization(&self, dim: Dimension) -> f64 {
        self.total_used_vec().share(self.total_capacity_vec(), dim)
    }

    /// Create a standard-size container for `fn_id`, choosing a node by the
    /// cluster's placement policy. The container starts cold and becomes
    /// ready at `ready_at`.
    pub fn create_container(
        &mut self,
        fn_id: FnId,
        cpu: CpuMilli,
        mem: MemMib,
        now: SimTime,
        ready_at: SimTime,
    ) -> Result<ContainerId, ClusterError> {
        self.create_container_sized(fn_id, cpu, cpu, mem, now, ready_at)
    }

    /// Create a container whose initial allocation `cpu` may be below its
    /// `standard_cpu` (a pre-deflated container using a capacity fragment;
    /// it may re-inflate to `standard_cpu` later).
    pub fn create_container_sized(
        &mut self,
        fn_id: FnId,
        standard_cpu: CpuMilli,
        cpu: CpuMilli,
        mem: MemMib,
        now: SimTime,
        ready_at: SimTime,
    ) -> Result<ContainerId, ClusterError> {
        self.create_container_vec(
            fn_id,
            standard_cpu,
            ResourceVec::cpu_mem(cpu, mem),
            now,
            ready_at,
        )
    }

    /// Create a container from a full demand vector (`demand.cpu` is the
    /// initial — possibly pre-deflated — allocation), choosing a node by
    /// the cluster's placement policy over every dimension.
    pub fn create_container_vec(
        &mut self,
        fn_id: FnId,
        standard_cpu: CpuMilli,
        demand: ResourceVec,
        now: SimTime,
        ready_at: SimTime,
    ) -> Result<ContainerId, ClusterError> {
        let node_id = self.placement.choose_vec(&self.nodes, demand).ok_or(
            ClusterError::InsufficientCapacity {
                cpu: demand.cpu,
                mem: demand.mem,
            },
        )?;
        self.create_container_on_vec(fn_id, node_id, standard_cpu, demand, now, ready_at)
    }

    /// Create a container on a specific node (used by the OpenWhisk
    /// baseline's sharding scheduler).
    pub fn create_container_on(
        &mut self,
        fn_id: FnId,
        node_id: NodeId,
        standard_cpu: CpuMilli,
        cpu: CpuMilli,
        mem: MemMib,
        now: SimTime,
        ready_at: SimTime,
    ) -> Result<ContainerId, ClusterError> {
        self.create_container_on_vec(
            fn_id,
            node_id,
            standard_cpu,
            ResourceVec::cpu_mem(cpu, mem),
            now,
            ready_at,
        )
    }

    /// Create a container with a full demand vector on a specific node.
    pub fn create_container_on_vec(
        &mut self,
        fn_id: FnId,
        node_id: NodeId,
        standard_cpu: CpuMilli,
        demand: ResourceVec,
        now: SimTime,
        ready_at: SimTime,
    ) -> Result<ContainerId, ClusterError> {
        let node = &mut self.nodes[node_id.0 as usize];
        if !node.can_fit_vec(demand) {
            return Err(ClusterError::InsufficientCapacity {
                cpu: demand.cpu,
                mem: demand.mem,
            });
        }
        node.reserve_vec(demand);
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        let mut ctr = Container::new(
            id,
            fn_id,
            node_id,
            standard_cpu,
            demand.cpu,
            demand.mem,
            now,
            ready_at,
        );
        ctr.set_bandwidth(demand.bandwidth);
        self.containers.insert(ctr);
        let entry = self.fn_entry_mut(fn_id);
        entry.containers.push(id);
        entry.slots.push(WrrSlot {
            cid: id,
            weight: wrr_weight(demand.cpu),
            idle: false, // cold-starting until marked ready
            warm: false,
        });
        Ok(id)
    }

    /// Terminate a container, releasing its node reservation and returning
    /// the orphaned requests for re-dispatch.
    pub fn terminate_container(
        &mut self,
        cid: ContainerId,
        now: SimTime,
    ) -> Result<Termination, ClusterError> {
        let mut ctr = self
            .containers
            .remove(cid)
            .ok_or(ClusterError::NoSuchContainer(cid))?;
        let orphans = ctr.terminate(now);
        let node = &mut self.nodes[ctr.node().0 as usize];
        node.release_vec(ctr.demand());
        if let Some(e) = self.fns.get_mut(ctr.fn_id().0 as usize) {
            e.containers.retain(|&c| c != cid);
            if let Some(pos) = e.slots.iter().position(|s| s.cid == cid) {
                if e.slots[pos].warm {
                    e.warm -= 1;
                }
                e.slots.remove(pos);
            }
        }
        Ok(Termination {
            container: ctr,
            orphans,
        })
    }

    /// Resize a container's CPU allocation in place (deflation or
    /// re-inflation). Memory is never resized (§5).
    pub fn resize_container_cpu(
        &mut self,
        cid: ContainerId,
        new_cpu: CpuMilli,
    ) -> Result<(), ClusterError> {
        let ctr = self
            .containers
            .get(cid)
            .ok_or(ClusterError::NoSuchContainer(cid))?;
        let old = ctr.cpu();
        if new_cpu > ctr.standard_cpu() {
            return Err(ClusterError::ResizeExceedsNode(cid));
        }
        let node = &mut self.nodes[ctr.node().0 as usize];
        if new_cpu > old && (new_cpu - old) > node.cpu_free() {
            return Err(ClusterError::ResizeExceedsNode(cid));
        }
        node.resize_cpu(old, new_cpu);
        let fn_id = {
            let c = self.containers.get_mut(cid).expect("checked above");
            c.set_cpu(new_cpu);
            c.fn_id()
        };
        // Keep the dispatch index's weight current: resizes are the only
        // way a live container's WRR weight changes.
        if let Some(slot) = self.slot_mut(fn_id, cid) {
            slot.weight = wrr_weight(new_cpu);
        }
        Ok(())
    }

    /// The function's record, growing the dense vector on first sight.
    fn fn_entry_mut(&mut self, fn_id: FnId) -> &mut FnEntry {
        let idx = fn_id.0 as usize;
        if idx >= self.fns.len() {
            self.fns.resize_with(idx + 1, FnEntry::default);
        }
        &mut self.fns[idx]
    }

    /// Mutable access to a container's dispatch-index slot.
    fn slot_mut(&mut self, fn_id: FnId, cid: ContainerId) -> Option<&mut WrrSlot> {
        self.fns
            .get_mut(fn_id.0 as usize)?
            .slots
            .iter_mut()
            .find(|s| s.cid == cid)
    }

    /// Mark a cold-starting container ready (idle, warm). Returns
    /// `false` — without touching anything — when the container is gone
    /// or not in the `Starting` state, so stale readiness events are
    /// harmless.
    pub fn mark_container_ready(&mut self, cid: ContainerId) -> bool {
        let Some(c) = self.containers.get_mut(cid) else {
            return false;
        };
        if !matches!(c.state(), ContainerState::Starting { .. }) {
            return false;
        }
        c.mark_ready();
        let fn_id = c.fn_id();
        let slot = self.slot_mut(fn_id, cid).expect("live container indexed");
        slot.idle = true;
        slot.warm = true;
        self.fns[fn_id.0 as usize].warm += 1;
        true
    }

    /// Begin service on `cid` if it is idle with queued work, keeping
    /// the dispatch index coherent. Returns the request now in service
    /// and the service's completion token, to be handed back to
    /// [`Cluster::finish_service`]. `None` when the container is gone,
    /// not idle, or has nothing queued.
    pub fn begin_service(&mut self, cid: ContainerId, now: SimTime) -> Option<(RequestId, u64)> {
        let c = self.containers.get_mut(cid)?;
        let begun = c.try_begin_service(now)?;
        let fn_id = c.fn_id();
        self.slot_mut(fn_id, cid)
            .expect("live container indexed")
            .idle = false;
        Some(begun)
    }

    /// Finish the service `token` names on `cid`, keeping the dispatch
    /// index coherent. Returns the request and the instant its service
    /// began. `None`, touching nothing, when the completion is stale:
    /// the container is gone (terminated or crashed mid-service), idle,
    /// or already serving a later request.
    pub fn finish_service(
        &mut self,
        cid: ContainerId,
        token: u64,
        now: SimTime,
    ) -> Option<(RequestId, SimTime)> {
        let c = self.containers.get_mut(cid)?;
        if c.service_token() != Some(token) {
            return None;
        }
        let done = c.complete_service(now);
        let fn_id = c.fn_id();
        self.slot_mut(fn_id, cid)
            .expect("live container indexed")
            .idle = true;
        Some(done)
    }

    /// The function's weighted dispatch index: every live container's
    /// WRR weight and readiness flags, in creation order — the same
    /// candidates (same order, same weights) the historical per-request
    /// walk over [`Cluster::fn_containers`] produced, but maintained
    /// incrementally on create/terminate/resize and the service
    /// transitions instead of being rebuilt per request.
    pub fn wrr_candidates(&self, fn_id: FnId) -> &[WrrSlot] {
        self.fns
            .get(fn_id.0 as usize)
            .map_or(&[], |e| e.slots.as_slice())
    }

    /// Immutable container access.
    pub fn container(&self, cid: ContainerId) -> Option<&Container> {
        self.containers.get(cid)
    }

    /// Mutable container access.
    pub fn container_mut(&mut self, cid: ContainerId) -> Option<&mut Container> {
        self.containers.get_mut(cid)
    }

    /// Ids of the live containers of a function (deterministic order).
    pub fn containers_of(&self, fn_id: FnId) -> &[ContainerId] {
        self.fns
            .get(fn_id.0 as usize)
            .map_or(&[], |e| e.containers.as_slice())
    }

    /// Live containers of a function.
    pub fn fn_containers(&self, fn_id: FnId) -> impl Iterator<Item = &Container> {
        self.containers_of(fn_id)
            .iter()
            .filter_map(move |&cid| self.containers.get(cid))
    }

    /// Aggregate CPU currently allocated to a function.
    pub fn fn_cpu(&self, fn_id: FnId) -> CpuMilli {
        self.fn_containers(fn_id).map(Container::cpu).sum()
    }

    /// Number of live containers of a function.
    pub fn fn_container_count(&self, fn_id: FnId) -> usize {
        self.containers_of(fn_id).len()
    }

    /// Number of *warm* containers of a function: booted (past their
    /// cold start) and not terminated — the fleet that could serve a
    /// request right now without paying a cold start. The per-site warm
    /// census the routers' cold-start penalty reads, answered in O(1)
    /// from the maintained count (the federation sums this over every
    /// function at every routing decision).
    pub fn fn_warm_count(&self, fn_id: FnId) -> u64 {
        self.fns.get(fn_id.0 as usize).map_or(0, |e| e.warm)
    }

    /// The fastest (highest-CPU) idle schedulable container of a
    /// function, resolved in one pass over the weighted dispatch index
    /// (no container-map lookups) — the hot-path query behind the
    /// default shared-queue dispatch. Ties keep the later container in
    /// index order, matching a `max_by` scan over the same sequence.
    pub fn fastest_idle_container(&self, fn_id: FnId) -> Option<ContainerId> {
        let mut best: Option<(ContainerId, f64)> = None;
        for s in self.wrr_candidates(fn_id) {
            if !s.idle {
                continue;
            }
            match best {
                Some((_, bw)) if s.weight < bw => {}
                _ => best = Some((s.cid, s.weight)),
            }
        }
        best.map(|(cid, _)| cid)
    }

    /// All live containers, in id (creation) order.
    pub fn all_containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.iter()
    }

    /// Ids of all live containers, in id (creation) order — the
    /// deterministic victim pool for fault-injection bursts.
    pub fn container_ids(&self) -> Vec<ContainerId> {
        self.containers.iter().map(Container::id).collect()
    }

    /// Total number of live containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Verify capacity bookkeeping: each node's reserved resources must
    /// equal the sum of its resident containers **on every dimension**
    /// (cpu, mem, bandwidth), and allocated + free must re-compose the
    /// capacity vector. Panics on violation; intended for tests and
    /// debug builds.
    pub fn check_invariants(&self) {
        self.containers.check_invariants(self.next_container);
        for node in &self.nodes {
            let mut used = ResourceVec::ZERO;
            let mut count = 0u32;
            for ctr in self.containers.iter() {
                if ctr.node() == node.id() {
                    assert!(
                        ctr.state() != ContainerState::Terminated,
                        "terminated container retained in cluster"
                    );
                    used += ctr.demand();
                    count += 1;
                }
            }
            for dim in Dimension::ALL {
                assert_eq!(
                    node.used_vec().get(dim),
                    used.get(dim),
                    "{dim} accounting drift on {}",
                    node.id()
                );
                assert_eq!(
                    node.used_vec().get(dim) + node.free_vec().get(dim),
                    node.capacity_vec().get(dim),
                    "{dim} allocated+free != capacity on {}",
                    node.id()
                );
            }
            assert_eq!(
                node.container_count(),
                count,
                "count drift on {}",
                node.id()
            );
        }
        for (idx, entry) in self.fns.iter().enumerate() {
            let fn_id = FnId(idx as u32);
            let list = &entry.containers;
            for cid in list {
                let ctr = self
                    .containers
                    .get(*cid)
                    .expect("fn entry points at live container");
                assert_eq!(ctr.fn_id(), fn_id, "container index corrupted");
            }
            // The dispatch index must be the container walk, slot for
            // slot: same containers in the same order, weights equal to
            // the current allocation, flags equal to the current state.
            let slots = self.wrr_candidates(fn_id);
            assert_eq!(slots.len(), list.len(), "dispatch index drift on {fn_id}");
            let mut warm = 0u64;
            for (slot, cid) in slots.iter().zip(list) {
                assert_eq!(slot.cid, *cid, "dispatch order drift on {fn_id}");
                let ctr = self.containers.get(*cid).expect("checked above");
                assert_eq!(
                    slot.weight,
                    wrr_weight(ctr.cpu()),
                    "stale weight for {cid} of {fn_id}"
                );
                assert_eq!(
                    slot.idle,
                    ctr.state() == ContainerState::Idle,
                    "stale idle flag for {cid} of {fn_id}"
                );
                let is_warm = matches!(ctr.state(), ContainerState::Idle | ContainerState::Busy);
                assert_eq!(slot.warm, is_warm, "stale warm flag for {cid} of {fn_id}");
                warm += u64::from(is_warm);
            }
            assert_eq!(
                self.fn_warm_count(fn_id),
                warm,
                "warm census drift on {fn_id}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn small() -> Cluster {
        Cluster::homogeneous(2, CpuMilli(4000), MemMib(8192), PlacementPolicy::WorstFit)
    }

    #[test]
    fn create_and_terminate_round_trip() {
        let mut cl = small();
        let cid = cl
            .create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::from_millis(500),
            )
            .unwrap();
        assert_eq!(cl.container_count(), 1);
        assert_eq!(cl.fn_container_count(FnId(0)), 1);
        assert_eq!(cl.total_cpu_used(), CpuMilli(1000));
        cl.check_invariants();
        let term = cl.terminate_container(cid, SimTime::from_secs(1)).unwrap();
        assert!(term.orphans.is_empty());
        assert_eq!(cl.container_count(), 0);
        assert_eq!(cl.total_cpu_used(), CpuMilli::ZERO);
        cl.check_invariants();
    }

    #[test]
    fn placement_spreads_with_worst_fit() {
        let mut cl = small();
        let a = cl
            .create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .unwrap();
        let b = cl
            .create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .unwrap();
        let na = cl.container(a).unwrap().node();
        let nb = cl.container(b).unwrap().node();
        assert_ne!(na, nb, "worst-fit should alternate nodes");
        cl.check_invariants();
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let mut cl = small();
        for _ in 0..8 {
            cl.create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .unwrap();
        }
        let err = cl
            .create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientCapacity { .. }));
        cl.check_invariants();
    }

    #[test]
    fn deflation_frees_capacity_for_new_containers() {
        let mut cl = small();
        let mut ids = Vec::new();
        for _ in 0..8 {
            ids.push(
                cl.create_container(
                    FnId(0),
                    CpuMilli(1000),
                    MemMib(512),
                    SimTime::ZERO,
                    SimTime::ZERO,
                )
                .unwrap(),
            );
        }
        // Deflate four containers by 30% => frees 1200 milli spread 2/2.
        for cid in ids.iter().take(4) {
            cl.resize_container_cpu(*cid, CpuMilli(700)).unwrap();
        }
        cl.check_invariants();
        assert_eq!(cl.total_cpu_used(), CpuMilli(8000 - 1200));
        // A 0.5-vCPU container now fits.
        cl.create_container(
            FnId(1),
            CpuMilli(500),
            MemMib(256),
            SimTime::ZERO,
            SimTime::ZERO,
        )
        .unwrap();
        cl.check_invariants();
    }

    #[test]
    fn reinflation_respects_node_capacity() {
        let mut cl =
            Cluster::homogeneous(1, CpuMilli(2000), MemMib(4096), PlacementPolicy::FirstFit);
        let a = cl
            .create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .unwrap();
        cl.resize_container_cpu(a, CpuMilli(600)).unwrap();
        // Fill the freed space.
        cl.create_container(
            FnId(1),
            CpuMilli(1400),
            MemMib(512),
            SimTime::ZERO,
            SimTime::ZERO,
        )
        .unwrap();
        // Re-inflation no longer fits.
        let err = cl.resize_container_cpu(a, CpuMilli(1000)).unwrap_err();
        assert!(matches!(err, ClusterError::ResizeExceedsNode(_)));
        cl.check_invariants();
    }

    #[test]
    fn resize_rejects_above_standard() {
        let mut cl = small();
        let a = cl
            .create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .unwrap();
        assert!(cl.resize_container_cpu(a, CpuMilli(1500)).is_err());
    }

    #[test]
    fn terminate_unknown_container() {
        let mut cl = small();
        let err = cl
            .terminate_container(ContainerId(99), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, ClusterError::NoSuchContainer(ContainerId(99)));
    }

    #[test]
    fn orphans_survive_termination() {
        let mut cl = small();
        let a = cl
            .create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .unwrap();
        cl.mark_container_ready(a);
        {
            let c = cl.container_mut(a).unwrap();
            c.enqueue(RequestId(1));
            c.enqueue(RequestId(2));
        }
        cl.begin_service(a, SimTime::ZERO);
        let term = cl.terminate_container(a, SimTime::from_secs(1)).unwrap();
        assert_eq!(term.orphans, vec![RequestId(1), RequestId(2)]);
    }

    #[test]
    fn fn_cpu_aggregates_deflated_sizes() {
        let mut cl = small();
        let a = cl
            .create_container(
                FnId(3),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::ZERO,
            )
            .unwrap();
        cl.create_container(
            FnId(3),
            CpuMilli(1000),
            MemMib(512),
            SimTime::ZERO,
            SimTime::ZERO,
        )
        .unwrap();
        cl.resize_container_cpu(a, CpuMilli(750)).unwrap();
        assert_eq!(cl.fn_cpu(FnId(3)), CpuMilli(1750));
        assert_eq!(cl.fn_container_count(FnId(3)), 2);
    }

    #[test]
    fn warm_census_tracks_container_lifecycle() {
        let mut cl = small();
        let a = cl
            .create_container(
                FnId(0),
                CpuMilli(1000),
                MemMib(512),
                SimTime::ZERO,
                SimTime::from_millis(500),
            )
            .unwrap();
        cl.create_container(
            FnId(0),
            CpuMilli(1000),
            MemMib(512),
            SimTime::ZERO,
            SimTime::from_millis(500),
        )
        .unwrap();
        // Both containers still cold-starting: nothing is warm.
        assert_eq!(cl.fn_warm_count(FnId(0)), 0);
        assert_eq!(cl.fn_container_count(FnId(0)), 2);
        cl.mark_container_ready(a);
        assert_eq!(cl.fn_warm_count(FnId(0)), 1);
        // A busy container still counts as warm.
        cl.container_mut(a).unwrap().enqueue(RequestId(1));
        cl.begin_service(a, SimTime::from_secs(1));
        assert_eq!(cl.fn_warm_count(FnId(0)), 1);
        // Other functions see their own (empty) census.
        assert_eq!(cl.fn_warm_count(FnId(9)), 0);
        cl.check_invariants();
    }

    /// One step of the container-store differential test; `pick`
    /// selects a live container by rank.
    #[derive(Debug, Clone)]
    enum StoreOp {
        Create { fn_id: u32, cpu: u32 },
        Ready { pick: usize },
        Begin { pick: usize },
        Finish { pick: usize },
        Resize { pick: usize, ratio: f64 },
        Terminate { pick: usize },
    }

    fn store_op() -> impl Strategy<Value = StoreOp> {
        prop_oneof![
            (0u32..3, 100u32..1500).prop_map(|(fn_id, cpu)| StoreOp::Create { fn_id, cpu }),
            (0usize..32).prop_map(|pick| StoreOp::Ready { pick }),
            (0usize..32).prop_map(|pick| StoreOp::Begin { pick }),
            (0usize..32).prop_map(|pick| StoreOp::Finish { pick }),
            ((0usize..32), 0.5f64..1.0).prop_map(|(pick, ratio)| StoreOp::Resize { pick, ratio }),
            (0usize..32).prop_map(|pick| StoreOp::Terminate { pick }),
        ]
    }

    /// What the reference map remembers of a live container.
    type Seen = (FnId, CpuMilli, ContainerState);

    fn seen(c: &Container) -> Seen {
        (c.fn_id(), c.cpu(), c.state())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense container store against a `BTreeMap` reference:
        /// every lookup agrees, iteration runs in id order, the cluster
        /// invariants hold, and the index never spans more than the ids
        /// from the oldest live container to the newest issued one.
        #[test]
        fn container_store_matches_btreemap_reference(
            ops in prop::collection::vec(store_op(), 1..200),
        ) {
            let mut cl = small();
            let mut reference: BTreeMap<ContainerId, Seen> = BTreeMap::new();
            let mut next_rid = 0u64;
            for (t, op) in ops.into_iter().enumerate() {
                let now = SimTime::from_secs(t as u64);
                let nth = |reference: &BTreeMap<ContainerId, Seen>, pick: usize| {
                    (!reference.is_empty())
                        .then(|| *reference.keys().nth(pick % reference.len()).expect("in range"))
                };
                match op {
                    StoreOp::Create { fn_id, cpu } => {
                        let (f, cpu) = (FnId(fn_id), CpuMilli(cpu));
                        if let Ok(cid) = cl.create_container(f, cpu, MemMib(256), now, now) {
                            let state = ContainerState::Starting { ready_at: now };
                            reference.insert(cid, (f, cpu, state));
                        }
                    }
                    StoreOp::Ready { pick } => {
                        if let Some(cid) = nth(&reference, pick) {
                            if cl.mark_container_ready(cid) {
                                reference.get_mut(&cid).expect("live").2 = ContainerState::Idle;
                            }
                        }
                    }
                    StoreOp::Begin { pick } => {
                        if let Some(cid) = nth(&reference, pick) {
                            next_rid += 1;
                            cl.container_mut(cid).expect("live").enqueue(RequestId(next_rid));
                            if cl.begin_service(cid, now).is_some() {
                                reference.get_mut(&cid).expect("live").2 = ContainerState::Busy;
                            }
                        }
                    }
                    StoreOp::Finish { pick } => {
                        if let Some(cid) = nth(&reference, pick) {
                            let token = cl.container(cid).expect("live").service_token();
                            if let Some(token) = token {
                                prop_assert!(cl.finish_service(cid, token, now).is_some());
                                reference.get_mut(&cid).expect("live").2 = ContainerState::Idle;
                            }
                        }
                    }
                    StoreOp::Resize { pick, ratio } => {
                        if let Some(cid) = nth(&reference, pick) {
                            let entry = reference.get_mut(&cid).expect("live");
                            let cpu = entry.1.scale(ratio).max(CpuMilli(1));
                            if cl.resize_container_cpu(cid, cpu).is_ok() {
                                entry.1 = cpu;
                            }
                        }
                    }
                    StoreOp::Terminate { pick } => {
                        if let Some(cid) = nth(&reference, pick) {
                            let term = cl.terminate_container(cid, now).expect("live");
                            prop_assert_eq!(term.container.id(), cid);
                            reference.remove(&cid);
                        }
                    }
                }
                // Every id agrees, retired and not-yet-issued ones included.
                for id in 0..=cl.next_container + 1 {
                    let cid = ContainerId(id);
                    prop_assert_eq!(cl.container(cid).map(seen), reference.get(&cid).copied());
                }
                let walked: Vec<ContainerId> = cl.all_containers().map(Container::id).collect();
                let expected: Vec<ContainerId> = reference.keys().copied().collect();
                prop_assert_eq!(&walked, &expected);
                prop_assert_eq!(&cl.container_ids(), &expected);
                prop_assert_eq!(cl.container_count(), reference.len());
                cl.check_invariants();
                let span = reference
                    .keys()
                    .next()
                    .map_or(0, |oldest| cl.next_container - oldest.0);
                prop_assert!(
                    cl.containers.index_len() as u64 <= span,
                    "{} index slots for a span of {} ids",
                    cl.containers.index_len(),
                    span
                );
            }
        }
    }

    #[test]
    fn paper_testbed_shape() {
        let cl = Cluster::paper_testbed();
        assert_eq!(cl.nodes().len(), 3);
        assert_eq!(cl.total_cpu_capacity(), CpuMilli(12000));
        assert_eq!(cl.total_mem_capacity(), MemMib(3 * 16 * 1024));
    }
}
