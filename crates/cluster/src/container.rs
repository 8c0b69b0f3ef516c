//! Container instances.
//!
//! A container hosts exactly one function and serves requests one at a time
//! from its own FCFS queue (the queueing "server" of the paper's M/M/c
//! model). Containers support **in-place CPU resize** — the mechanism
//! behind LaSS's deflation policy (§4.2, §5: functions run in native Docker
//! containers precisely because Kubernetes cannot resize in place).

use crate::ids::{ContainerId, FnId, NodeId, RequestId};
use crate::resources::{BwMbps, CpuMilli, MemMib, ResourceVec};
use lass_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContainerState {
    /// Cold-starting; becomes `Idle` at the given instant.
    Starting {
        /// When the container finishes booting.
        ready_at: SimTime,
    },
    /// Warm and free to accept a request.
    Idle,
    /// Serving one request.
    Busy,
    /// Terminated (kept only for post-mortem accounting).
    Terminated,
}

/// A container instance.
#[derive(Debug, Clone)]
pub struct Container {
    id: ContainerId,
    fn_id: FnId,
    node: NodeId,
    /// The function's standard allocation (Table 1).
    standard_cpu: CpuMilli,
    /// Current allocation after any deflation (≤ standard).
    cpu: CpuMilli,
    mem: MemMib,
    /// Network bandwidth reservation (zero for the historical cpu-only
    /// demand shape; never deflated).
    bandwidth: BwMbps,
    state: ContainerState,
    /// The request currently in service, if `Busy`.
    in_service: Option<RequestId>,
    /// Requests waiting in this container's FCFS queue.
    queue: VecDeque<RequestId>,
    created_at: SimTime,
    /// Lazy-termination mark (§3.3: reclaimed only when needed).
    marked_for_termination: bool,
    busy_since: Option<SimTime>,
    busy_total: SimDuration,
    /// Services begun so far; the current one's completion token.
    services: u64,
}

impl Container {
    /// Create a container in `Starting` state; it becomes schedulable once
    /// `ready_at` passes (callers deliver a readiness event).
    ///
    /// `cpu` is the initial allocation and may be below `standard_cpu`:
    /// the deflation reclamation policy creates pre-deflated containers to
    /// use capacity fragments (§4.2), and such containers re-inflate to the
    /// standard size later.
    pub fn new(
        id: ContainerId,
        fn_id: FnId,
        node: NodeId,
        standard_cpu: CpuMilli,
        cpu: CpuMilli,
        mem: MemMib,
        created_at: SimTime,
        ready_at: SimTime,
    ) -> Self {
        assert!(standard_cpu > CpuMilli::ZERO, "container needs CPU");
        assert!(cpu > CpuMilli::ZERO, "initial CPU must be positive");
        assert!(cpu <= standard_cpu, "initial CPU exceeds the standard size");
        Self {
            id,
            fn_id,
            node,
            standard_cpu,
            cpu,
            mem,
            bandwidth: BwMbps::ZERO,
            state: ContainerState::Starting { ready_at },
            in_service: None,
            queue: VecDeque::new(),
            created_at,
            marked_for_termination: false,
            busy_since: None,
            busy_total: SimDuration::ZERO,
            services: 0,
        }
    }

    /// Container id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// Hosted function.
    pub fn fn_id(&self) -> FnId {
        self.fn_id
    }

    /// Hosting node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Standard (undeflated) CPU allocation.
    pub fn standard_cpu(&self) -> CpuMilli {
        self.standard_cpu
    }

    /// Current CPU allocation.
    pub fn cpu(&self) -> CpuMilli {
        self.cpu
    }

    /// Memory allocation (never deflated; §5 implements CPU deflation only).
    pub fn mem(&self) -> MemMib {
        self.mem
    }

    /// Bandwidth reservation.
    pub fn bandwidth(&self) -> BwMbps {
        self.bandwidth
    }

    /// Set the bandwidth reservation at creation time. Crate-private:
    /// the cluster assigns it before the node reservation is taken, so
    /// the two always agree.
    pub(crate) fn set_bandwidth(&mut self, bandwidth: BwMbps) {
        self.bandwidth = bandwidth;
    }

    /// The container's current demand vector — what its node reservation
    /// holds: the (possibly deflated) CPU, the memory, the bandwidth.
    pub fn demand(&self) -> ResourceVec {
        ResourceVec::new(self.cpu, self.mem, self.bandwidth)
    }

    /// Current state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Creation instant.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// Deflation ratio `d ∈ [0, 1)`: the fraction of the standard
    /// allocation that has been reclaimed.
    pub fn deflation_ratio(&self) -> f64 {
        1.0 - self.cpu.ratio(self.standard_cpu)
    }

    /// Whether the container has been deflated below its standard size.
    pub fn is_deflated(&self) -> bool {
        self.cpu < self.standard_cpu
    }

    /// Lazy-termination mark.
    pub fn is_marked_for_termination(&self) -> bool {
        self.marked_for_termination
    }

    /// Set or clear the lazy-termination mark.
    pub fn set_marked_for_termination(&mut self, marked: bool) {
        self.marked_for_termination = marked;
    }

    /// Resize the CPU allocation in place (deflate or re-inflate). The node
    /// accounting is the cluster's responsibility; this only enforces the
    /// container-local bound `0 < cpu ≤ standard`.
    ///
    /// Crate-private: go through
    /// [`Cluster::resize_container_cpu`](crate::Cluster::resize_container_cpu),
    /// which also updates the node reservation and the dispatch index's
    /// WRR weight.
    pub(crate) fn set_cpu(&mut self, cpu: CpuMilli) {
        assert!(cpu > CpuMilli::ZERO, "cannot deflate to zero");
        assert!(
            cpu <= self.standard_cpu,
            "cannot inflate beyond the standard size"
        );
        self.cpu = cpu;
    }

    /// Whether the container is warm and not serving anything.
    pub fn is_idle(&self) -> bool {
        self.state == ContainerState::Idle
    }

    /// Whether the container can be handed new requests (not terminated).
    pub fn is_schedulable(&self) -> bool {
        !matches!(self.state, ContainerState::Terminated)
    }

    /// Mark boot complete. Panics unless currently `Starting`.
    ///
    /// Crate-private: state transitions must go through the cluster
    /// ([`Cluster::mark_container_ready`](crate::Cluster::mark_container_ready)),
    /// which keeps the per-function weighted dispatch index coherent.
    pub(crate) fn mark_ready(&mut self) {
        match self.state {
            ContainerState::Starting { .. } => self.state = ContainerState::Idle,
            s => panic!("mark_ready on container in state {s:?}"),
        }
    }

    /// Append a request to this container's FCFS queue.
    pub fn enqueue(&mut self, rid: RequestId) {
        debug_assert!(self.is_schedulable(), "enqueue on terminated container");
        self.queue.push_back(rid);
    }

    /// If idle with a non-empty queue, pop the head and begin service.
    /// Returns the request now in service and the service's completion
    /// token (the number of services begun, this one included).
    ///
    /// Crate-private: go through
    /// [`Cluster::begin_service`](crate::Cluster::begin_service) so the
    /// dispatch index's idle flag stays coherent.
    pub(crate) fn try_begin_service(&mut self, now: SimTime) -> Option<(RequestId, u64)> {
        if self.state != ContainerState::Idle {
            return None;
        }
        let rid = self.queue.pop_front()?;
        self.state = ContainerState::Busy;
        self.in_service = Some(rid);
        self.busy_since = Some(now);
        self.services += 1;
        Some((rid, self.services))
    }

    /// The completion token of the service in progress, if busy.
    pub fn service_token(&self) -> Option<u64> {
        (self.state == ContainerState::Busy).then_some(self.services)
    }

    /// Finish the in-service request, returning it and the instant its
    /// service began. Panics unless `Busy`.
    ///
    /// Crate-private: go through
    /// [`Cluster::finish_service`](crate::Cluster::finish_service) so the
    /// dispatch index's idle flag stays coherent.
    pub(crate) fn complete_service(&mut self, now: SimTime) -> (RequestId, SimTime) {
        assert_eq!(self.state, ContainerState::Busy, "complete on non-busy");
        let rid = self.in_service.take().expect("busy implies in-service");
        let since = self.busy_since.take().expect("busy implies a start");
        self.busy_total = self.busy_total + now.saturating_since(since);
        self.state = ContainerState::Idle;
        (rid, since)
    }

    /// Terminate, returning every request that must be re-dispatched (the
    /// in-service one first, then the queue — the paper notes terminated
    /// containers cause "requests that need to be rerun").
    ///
    /// Crate-private: go through
    /// [`Cluster::terminate_container`](crate::Cluster::terminate_container),
    /// which also releases the node reservation and the dispatch index
    /// entry.
    pub(crate) fn terminate(&mut self, now: SimTime) -> Vec<RequestId> {
        if let Some(since) = self.busy_since.take() {
            self.busy_total = self.busy_total + now.saturating_since(since);
        }
        let mut orphans = Vec::with_capacity(self.queue.len() + 1);
        if let Some(rid) = self.in_service.take() {
            orphans.push(rid);
        }
        orphans.extend(self.queue.drain(..));
        self.state = ContainerState::Terminated;
        orphans
    }

    /// The request currently in service.
    pub fn in_service(&self) -> Option<RequestId> {
        self.in_service
    }

    /// Number of queued (not yet in-service) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queued plus in-service requests.
    pub fn load(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    /// Fraction of the container's lifetime spent serving requests.
    pub fn busy_fraction(&self, now: SimTime) -> f64 {
        let life = now.saturating_since(self.created_at).as_secs_f64();
        if life <= 0.0 {
            return 0.0;
        }
        let mut busy = self.busy_total.as_secs_f64();
        if let Some(since) = self.busy_since {
            busy += now.saturating_since(since).as_secs_f64();
        }
        (busy / life).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctr() -> Container {
        Container::new(
            ContainerId(1),
            FnId(0),
            NodeId(0),
            CpuMilli(1000),
            CpuMilli(1000),
            MemMib(512),
            SimTime::ZERO,
            SimTime::from_millis(500),
        )
    }

    #[test]
    fn lifecycle_starting_to_idle_to_busy() {
        let mut c = ctr();
        assert!(matches!(c.state(), ContainerState::Starting { .. }));
        assert!(c.is_schedulable());
        c.enqueue(RequestId(1));
        // Not ready yet: no service begins.
        assert_eq!(c.try_begin_service(SimTime::from_millis(100)), None);
        c.mark_ready();
        assert!(c.is_idle());
        let begun = c.try_begin_service(SimTime::from_millis(500));
        assert_eq!(begun, Some((RequestId(1), 1)));
        assert_eq!(c.state(), ContainerState::Busy);
        assert_eq!(c.in_service(), Some(RequestId(1)));
        assert_eq!(c.service_token(), Some(1));
        let done = c.complete_service(SimTime::from_millis(700));
        assert_eq!(done, (RequestId(1), SimTime::from_millis(500)));
        assert!(c.is_idle());
        assert_eq!(c.service_token(), None, "an idle container serves no token");
    }

    #[test]
    fn fcfs_order() {
        let mut c = ctr();
        c.mark_ready();
        c.enqueue(RequestId(1));
        c.enqueue(RequestId(2));
        c.enqueue(RequestId(3));
        assert_eq!(c.queue_len(), 3);
        assert_eq!(c.try_begin_service(SimTime::ZERO), Some((RequestId(1), 1)));
        assert_eq!(c.load(), 3);
        c.complete_service(SimTime::from_millis(10));
        assert_eq!(
            c.try_begin_service(SimTime::from_millis(10)),
            Some((RequestId(2), 2))
        );
        assert_eq!(c.service_token(), Some(2), "a later service, a new token");
    }

    #[test]
    fn busy_container_does_not_double_serve() {
        let mut c = ctr();
        c.mark_ready();
        c.enqueue(RequestId(1));
        c.enqueue(RequestId(2));
        assert!(c.try_begin_service(SimTime::ZERO).is_some());
        assert_eq!(c.try_begin_service(SimTime::ZERO), None);
    }

    #[test]
    fn deflation_ratio_and_resize() {
        let mut c = ctr();
        assert_eq!(c.deflation_ratio(), 0.0);
        assert!(!c.is_deflated());
        c.set_cpu(CpuMilli(700));
        assert!((c.deflation_ratio() - 0.3).abs() < 1e-12);
        assert!(c.is_deflated());
        c.set_cpu(CpuMilli(1000));
        assert_eq!(c.deflation_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "inflate beyond")]
    fn cannot_exceed_standard() {
        let mut c = ctr();
        c.set_cpu(CpuMilli(1200));
    }

    #[test]
    fn terminate_returns_orphans_in_service_first() {
        let mut c = ctr();
        c.mark_ready();
        c.enqueue(RequestId(1));
        c.enqueue(RequestId(2));
        c.try_begin_service(SimTime::ZERO);
        c.enqueue(RequestId(3));
        let orphans = c.terminate(SimTime::from_secs(1));
        assert_eq!(orphans, vec![RequestId(1), RequestId(2), RequestId(3)]);
        assert_eq!(c.state(), ContainerState::Terminated);
        assert!(!c.is_schedulable());
    }

    #[test]
    fn busy_fraction_accounting() {
        let mut c = ctr();
        c.mark_ready();
        c.enqueue(RequestId(1));
        c.try_begin_service(SimTime::from_secs(1));
        c.complete_service(SimTime::from_secs(3));
        // Busy 2s out of 4s.
        let bf = c.busy_fraction(SimTime::from_secs(4));
        assert!((bf - 0.5).abs() < 1e-9, "bf={bf}");
        // While busy, the open interval counts too.
        c.enqueue(RequestId(2));
        c.try_begin_service(SimTime::from_secs(4));
        let bf = c.busy_fraction(SimTime::from_secs(6));
        assert!((bf - 4.0 / 6.0).abs() < 1e-9, "bf={bf}");
    }

    #[test]
    fn termination_mark_is_togglable() {
        let mut c = ctr();
        assert!(!c.is_marked_for_termination());
        c.set_marked_for_termination(true);
        assert!(c.is_marked_for_termination());
        c.set_marked_for_termination(false);
        assert!(!c.is_marked_for_termination());
    }
}
