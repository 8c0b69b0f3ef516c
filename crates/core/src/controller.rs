//! The LaSS controller (§3.3 + §4): per-epoch, model-driven planning of
//! container allocations with fair-share fallback under overload, plus the
//! command executor that applies a plan to the cluster.
//!
//! Each epoch the controller:
//!
//! 1. turns the sliding-window arrival counts into a burst-aware, EWMA-
//!    smoothed rate estimate per function (§3.3, §5),
//! 2. solves the queueing model for every function's desired allocation,
//!    one function after another on the calling thread (the paper notes
//!    the solves could run in parallel, §6.3, but each is microseconds of
//!    pure work and simulated time does not depend on wall-clock
//!    concurrency, so a per-epoch thread fan-out only costs),
//! 3. detects overload (`Σ desired > capacity`) and, if so, applies
//!    weighted fair share (Eq. 7–8) using the hierarchical weight tree,
//! 4. emits container commands through the configured reclamation policy
//!    (termination or deflation), with lazy termination marks in the
//!    normal (non-overloaded) case.

use crate::commands::{Command, Plan};
use crate::config::{LassConfig, ReclamationPolicy, ScalerKind};
use crate::fairshare::{fair_share, is_overloaded, ShareRequest};
use crate::model::{desired_allocation, DesiredAllocation};
use crate::predictor::Predictor;
use crate::reclaim::{deflation_commands, termination_commands, FnSnapshot};
use crate::registry::FunctionRegistry;
use lass_cluster::{Cluster, ContainerId, FnId, RequestId};
use lass_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Outcome of applying a plan to the cluster.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// Newly created containers and the instant each becomes ready.
    pub created: Vec<(ContainerId, SimTime)>,
    /// Requests orphaned by terminations; they must be re-dispatched.
    pub orphans: Vec<RequestId>,
    /// Creates that could not be satisfied even after lazy reclamation.
    pub failed_creates: u32,
    /// Resizes that could not be applied (e.g. re-inflation with no room).
    pub failed_resizes: u32,
}

/// The LaSS control module.
#[derive(Debug, Clone)]
pub struct LassController {
    cfg: LassConfig,
    registry: FunctionRegistry,
    profiler: lass_functions::ServiceTimeProfiler,
    trackers: BTreeMap<FnId, Predictor>,
    /// Re-inflate deflated containers when capacity allows (disabled for
    /// the Fig. 4 heterogeneous-model validation).
    reinflate: bool,
}

impl LassController {
    /// Build a controller over a function registry. Offline service-time
    /// profiles are loaded from each function's spec (§5, approach 1).
    pub fn new(cfg: LassConfig, registry: FunctionRegistry) -> Self {
        cfg.validate().expect("invalid LassConfig");
        let mut profiler = lass_functions::ServiceTimeProfiler::new(cfg.profiler_min_samples);
        let mut trackers = BTreeMap::new();
        for rec in registry.iter() {
            profiler.register(rec.fn_id, rec.spec.service);
            trackers.insert(
                rec.fn_id,
                Predictor::new(
                    cfg.predictor,
                    cfg.long_window_secs,
                    cfg.short_window_secs,
                    cfg.burst_factor,
                    cfg.ewma_alpha,
                ),
            );
        }
        Self {
            cfg,
            registry,
            profiler,
            trackers,
            reinflate: true,
        }
    }

    /// The configuration in force.
    pub fn cfg(&self) -> &LassConfig {
        &self.cfg
    }

    /// The function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The service-time profiler (offline profiles + online learner).
    pub fn profiler(&self) -> &lass_functions::ServiceTimeProfiler {
        &self.profiler
    }

    /// Enable/disable re-inflation of deflated containers outside overload
    /// (default on; Fig. 4 turns it off to validate the heterogeneous
    /// model).
    pub fn set_reinflate(&mut self, on: bool) {
        self.reinflate = on;
    }

    /// Feed the per-function arrival counts observed since the last
    /// monitoring tick (§5: every 5 seconds).
    pub fn on_monitor_tick(&mut self, now_secs: f64, arrivals: &BTreeMap<FnId, u64>) {
        for (fn_id, tracker) in &mut self.trackers {
            let n = arrivals.get(fn_id).copied().unwrap_or(0);
            tracker.record(now_secs, n);
        }
    }

    /// Feed one observed service time (§5: online learning of the service
    /// time distributions, bucketed by deflation).
    pub fn record_service(&mut self, fn_id: FnId, deflation: f64, secs: f64) {
        self.profiler.record(fn_id, deflation, secs);
    }

    /// The configured predictor's arrival-rate estimate for a function
    /// (the paper's default: burst-aware dual windows with EWMA smoothing
    /// and a short-window override during bursts, §5).
    pub fn estimated_rate(&mut self, fn_id: FnId, now_secs: f64) -> f64 {
        self.trackers
            .get_mut(&fn_id)
            .map_or(0.0, |t| t.predict(now_secs))
    }

    /// Plan one epoch: model solve → overload check → fair share →
    /// reclamation commands. Does not mutate the cluster; see
    /// [`LassController::apply`].
    pub fn plan_epoch(&mut self, cluster: &Cluster, now_secs: f64) -> Plan {
        if !self.cfg.autoscale {
            return Plan::default();
        }
        // 1. Rate estimates (sequential: mutates EWMA state).
        let fn_ids: Vec<FnId> = self.registry.iter().map(|r| r.fn_id).collect();
        let rates: BTreeMap<FnId, f64> = fn_ids
            .iter()
            .map(|&f| (f, self.estimated_rate(f, now_secs)))
            .collect();

        // 2. Model solves, in turn on this thread: each is pure and
        //    microsecond-scale, cheaper than spawning threads per epoch.
        let cfg = &self.cfg;
        let profiler = &self.profiler;
        let registry = &self.registry;
        let reinflate = self.reinflate;
        let desired: BTreeMap<FnId, DesiredAllocation> = fn_ids
            .iter()
            .map(|&fn_id| {
                let rec = registry.get(fn_id).expect("registered");
                let std_cpu = f64::from(rec.spec.standard_cpu.0);
                if let ScalerKind::ConcurrencyTarget { target } = cfg.scaler {
                    // Knative-style heuristic: Little's-law concurrency
                    // divided by the per-container target.
                    let lambda = rates[&fn_id];
                    let mean_s = profiler
                        .estimate(fn_id, 0.0)
                        .map_or(rec.spec.service.base_time, |e| e.mean);
                    let count = if lambda <= f64::EPSILON {
                        0
                    } else {
                        ((lambda * mean_s / target).ceil() as u32).max(1)
                    };
                    return (
                        fn_id,
                        DesiredAllocation {
                            fn_id,
                            count,
                            cpu: f64::from(count) * std_cpu,
                            additional: count,
                            hetero: false,
                            solver_iterations: 1,
                        },
                    );
                }
                let d = desired_allocation(
                    cluster,
                    fn_id,
                    rates[&fn_id],
                    rec.slo_deadline,
                    std_cpu,
                    profiler,
                    cfg,
                    !reinflate,
                )
                .unwrap_or_else(|_| {
                    // Model failure: hold the current allocation.
                    let count = cluster.fn_container_count(fn_id) as u32;
                    DesiredAllocation {
                        fn_id,
                        count,
                        cpu: f64::from(cluster.fn_cpu(fn_id).0),
                        additional: 0,
                        hetero: false,
                        solver_iterations: 0,
                    }
                })
                .clamp_to_solver_cap(cfg.max_containers_per_fn, std_cpu);
                (fn_id, d)
            })
            .collect();
        let solver_iterations = desired.values().map(|d| d.solver_iterations).sum();

        // 3. Overload detection & fair share (on CPU-milli).
        let capacity = f64::from(cluster.total_cpu_capacity().0);
        let requests: Vec<ShareRequest> = {
            let weights = self
                .registry
                .weight_tree()
                .effective_weights_among(fn_ids.iter().copied());
            fn_ids
                .iter()
                .map(|&f| ShareRequest {
                    fn_id: f,
                    weight: weights.get(&f).copied().unwrap_or(1.0).max(1e-12),
                    desired: desired[&f].cpu,
                })
                .collect()
        };
        let overloaded = is_overloaded(&requests, capacity);
        let adjusted: BTreeMap<FnId, f64> = if overloaded {
            fair_share(&requests, capacity)
        } else {
            requests.iter().map(|r| (r.fn_id, r.desired)).collect()
        };

        // 4. Per-function commands.
        let mut commands = Vec::new();
        for &fn_id in &fn_ids {
            let rec = self.registry.get(fn_id).expect("registered");
            let snapshot = FnSnapshot {
                fn_id,
                standard_cpu: rec.spec.standard_cpu,
                mem: rec.spec.standard_mem,
                containers: cluster
                    .fn_containers(fn_id)
                    .map(|c| (c.id(), c.cpu(), c.is_marked_for_termination()))
                    .collect(),
                desired_count: desired[&fn_id].count,
                adjusted_cpu: adjusted[&fn_id],
            };
            if overloaded {
                match self.cfg.reclamation {
                    ReclamationPolicy::Termination => {
                        commands.extend(termination_commands(&snapshot));
                    }
                    ReclamationPolicy::Deflation => {
                        commands.extend(deflation_commands(&snapshot, self.cfg.deflation_max));
                    }
                }
            } else {
                commands.extend(self.normal_mode_commands(&snapshot, &desired[&fn_id]));
            }
        }

        // Capacity-releasing commands first, creates last; creates are
        // ordered largest-first (first-fit-decreasing) so big containers
        // are not stranded by fragmentation from small ones.
        commands.sort_by_key(|c| match c {
            Command::Terminate { .. } => (0, 0u32),
            Command::Resize { .. } => (1, 0),
            Command::Mark { .. } | Command::Unmark { .. } => (2, 0),
            Command::Create { cpu, .. } => (3, u32::MAX - cpu.0),
        });

        Plan {
            commands,
            overloaded,
            desired_cpu: desired.iter().map(|(f, d)| (*f, d.cpu)).collect(),
            adjusted_cpu: adjusted,
            solver_iterations,
        }
    }

    /// Commands for one function when the cluster is *not* overloaded:
    /// scale to the model's desired count, marking surplus containers for
    /// lazy termination and reusing marked ones before creating (§3.3).
    fn normal_mode_commands(&self, s: &FnSnapshot, d: &DesiredAllocation) -> Vec<Command> {
        let mut cmds = Vec::new();
        let current = s.containers.len() as u32;
        let target = d.count;
        if current > target {
            // Mark the (current - target) lowest-capacity containers.
            let mut order = s.containers.clone();
            order.sort_by_key(|&(cid, cpu, _)| (cpu, std::cmp::Reverse(cid)));
            let surplus = (current - target) as usize;
            for &(cid, _, marked) in order.iter().take(surplus) {
                if !marked {
                    cmds.push(Command::Mark { cid });
                }
            }
            for &(cid, cpu, marked) in order.iter().skip(surplus) {
                if marked {
                    cmds.push(Command::Unmark { cid });
                }
                if self.reinflate && cpu != s.standard_cpu {
                    cmds.push(Command::Resize {
                        cid,
                        cpu: s.standard_cpu,
                    });
                }
            }
        } else {
            for &(cid, cpu, marked) in &s.containers {
                if marked {
                    cmds.push(Command::Unmark { cid });
                }
                if self.reinflate && cpu != s.standard_cpu && !d.hetero {
                    cmds.push(Command::Resize {
                        cid,
                        cpu: s.standard_cpu,
                    });
                }
            }
            for _ in current..target {
                cmds.push(Command::Create {
                    fn_id: s.fn_id,
                    cpu: s.standard_cpu,
                    mem: s.mem,
                });
            }
        }
        cmds
    }

    /// Execute a plan against the cluster. `now` is the simulated instant;
    /// new containers become ready after their function's cold-start
    /// latency. When a create does not fit, lazily-marked containers (any
    /// function) are terminated smallest-first to make room — the paper's
    /// lazy reclamation (§3.3).
    pub fn apply(&self, cluster: &mut Cluster, plan: &Plan, now: SimTime) -> ApplyOutcome {
        let mut out = ApplyOutcome::default();
        for cmd in &plan.commands {
            match *cmd {
                Command::Terminate { cid } => {
                    if let Ok(t) = cluster.terminate_container(cid, now) {
                        out.orphans.extend(t.orphans);
                    }
                }
                Command::Resize { cid, cpu } => {
                    // A failed up-resize (re-inflation) may be blocked by
                    // lazily-marked containers; reclaim them like a failed
                    // create would (§3.3).
                    loop {
                        match cluster.resize_container_cpu(cid, cpu) {
                            Ok(()) => break,
                            Err(_) => {
                                let victim = cluster
                                    .all_containers()
                                    .filter(|c| c.is_marked_for_termination() && c.id() != cid)
                                    .min_by_key(|c| (c.cpu(), c.id()))
                                    .map(|c| c.id());
                                match victim {
                                    Some(v) => {
                                        if let Ok(t) = cluster.terminate_container(v, now) {
                                            out.orphans.extend(t.orphans);
                                        }
                                    }
                                    None => {
                                        out.failed_resizes += 1;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
                Command::Mark { cid } => {
                    if let Some(c) = cluster.container_mut(cid) {
                        c.set_marked_for_termination(true);
                    }
                }
                Command::Unmark { cid } => {
                    if let Some(c) = cluster.container_mut(cid) {
                        c.set_marked_for_termination(false);
                    }
                }
                Command::Create { fn_id, cpu, mem } => {
                    let rec = self.registry.get(fn_id);
                    let cold = rec.map_or(SimDuration::from_millis(500), |r| r.spec.cold_start);
                    let standard = rec.map_or(cpu, |r| r.spec.standard_cpu).max(cpu);
                    // Class-shaped demand vector: compute/memory classes
                    // reserve no bandwidth, so legacy specs place exactly
                    // as before.
                    let demand = rec.map_or_else(
                        || lass_cluster::ResourceVec::cpu_mem(cpu, mem),
                        |r| r.spec.class.demand(cpu, mem),
                    );
                    let ready = now + cold;
                    // Bounded retry: each make_room call either frees
                    // capacity or returns false.
                    let mut attempts = cluster.container_count() + 4;
                    loop {
                        match cluster.create_container_vec(fn_id, standard, demand, now, ready) {
                            Ok(cid) => {
                                out.created.push((cid, ready));
                                break;
                            }
                            Err(_) => {
                                attempts = attempts.saturating_sub(1);
                                if attempts == 0
                                    || !self
                                        .make_room(cluster, plan, fn_id, cpu, mem, now, &mut out)
                                {
                                    out.failed_creates += 1;
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl LassController {
    /// Free room for a `(cpu, mem)` reservation, §3.3/§4.2 style:
    ///
    /// 1. terminate the smallest lazily-marked container (lazy reclamation);
    /// 2. under overload with the deflation policy: pick one node and
    ///    deflate containers of *over-budget* functions there — each by at
    ///    most `τ` below its standard size, and never taking more than the
    ///    function's excess over its fair-share-adjusted budget — until the
    ///    reservation fits ("in small increments … until sufficient
    ///    resources have been reclaimed");
    /// 3. if deflation cannot free enough anywhere, terminate the smallest
    ///    container of the most over-budget function (§4.2's fallback).
    ///
    /// Returns whether any capacity was freed.
    #[allow(clippy::too_many_arguments)]
    fn make_room(
        &self,
        cluster: &mut Cluster,
        plan: &Plan,
        requester: FnId,
        cpu: lass_cluster::CpuMilli,
        mem: lass_cluster::MemMib,
        now: SimTime,
        out: &mut ApplyOutcome,
    ) -> bool {
        // 1. Marked (lazily terminated) containers go first.
        let victim = cluster
            .all_containers()
            .filter(|c| c.is_marked_for_termination())
            .min_by_key(|c| (c.cpu(), c.id()))
            .map(|c| c.id());
        if let Some(v) = victim {
            if let Ok(t) = cluster.terminate_container(v, now) {
                out.orphans.extend(t.orphans);
                return true;
            }
        }
        if !(plan.overloaded && self.cfg.reclamation == ReclamationPolicy::Deflation) {
            return false;
        }
        let tau = self.cfg.deflation_max;
        // CPU each function still holds beyond its adjusted budget.
        let mut over_budget: std::collections::BTreeMap<FnId, f64> = plan
            .adjusted_cpu
            .iter()
            .filter(|&(&f, _)| f != requester)
            .map(|(&f, &adj)| (f, f64::from(cluster.fn_cpu(f).0) - adj))
            .filter(|&(_, o)| o > 0.0)
            .collect();

        // 2. Find the node where free + reclaimable covers the request
        //    (smallest sufficient total, best-fit style).
        let mut best: Option<(lass_cluster::NodeId, f64)> = None;
        for node in cluster.nodes() {
            if node.mem_free() < mem {
                continue;
            }
            let free = f64::from(node.cpu_free().0);
            let mut budgets = over_budget.clone();
            let mut reclaimable = 0.0;
            for c in cluster.all_containers().filter(|c| c.node() == node.id()) {
                let Some(b) = budgets.get_mut(&c.fn_id()) else {
                    continue;
                };
                let floor = f64::from(c.standard_cpu().0) * (1.0 - tau);
                let headroom = (f64::from(c.cpu().0) - floor).max(0.0).min(*b);
                reclaimable += headroom;
                *b -= headroom;
            }
            let total = free + reclaimable;
            if total + 1e-9 >= f64::from(cpu.0) {
                match best {
                    Some((_, t)) if t <= total => {}
                    _ => best = Some((node.id(), total)),
                }
            }
        }
        if let Some((node_id, _)) = best {
            let mut short =
                f64::from(cpu.0) - f64::from(cluster.nodes()[node_id.0 as usize].cpu_free().0);
            // Deflate containers on this node, largest headroom first.
            let mut candidates: Vec<(lass_cluster::ContainerId, FnId, f64)> = cluster
                .all_containers()
                .filter(|c| c.node() == node_id)
                .filter_map(|c| {
                    let b = over_budget.get(&c.fn_id()).copied().unwrap_or(0.0);
                    if b <= 0.0 {
                        return None;
                    }
                    let floor = f64::from(c.standard_cpu().0) * (1.0 - tau);
                    let headroom = (f64::from(c.cpu().0) - floor).max(0.0);
                    (headroom > 0.0).then_some((c.id(), c.fn_id(), headroom))
                })
                .collect();
            candidates.sort_by(|a, b| {
                b.2.partial_cmp(&a.2)
                    .expect("finite headroom")
                    .then(a.0.cmp(&b.0))
            });
            for (cid, f, headroom) in candidates {
                if short <= 0.0 {
                    break;
                }
                let budget = over_budget.get_mut(&f).expect("candidate has budget");
                let take = headroom.min(*budget).min(short).ceil();
                if take < 1.0 {
                    continue;
                }
                let cur = cluster.container(cid).expect("live").cpu();
                let new_cpu = lass_cluster::CpuMilli(cur.0.saturating_sub(take as u32).max(1));
                if cluster.resize_container_cpu(cid, new_cpu).is_ok() {
                    let freed = f64::from(cur.0 - new_cpu.0);
                    *budget -= freed;
                    short -= freed;
                }
            }
            if short <= 0.0 {
                return true;
            }
            // Fall through to forced termination if we somehow fell short.
        }
        // 3. Forced termination: the most over-budget function loses its
        //    smallest container.
        let victim_fn = over_budget
            .iter()
            .filter(|&(_, &o)| o > 0.0)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(&f, _)| f);
        if let Some(f) = victim_fn {
            let victim = cluster
                .fn_containers(f)
                .min_by_key(|c| (c.cpu(), c.id()))
                .map(|c| c.id());
            if let Some(v) = victim {
                if let Ok(t) = cluster.terminate_container(v, now) {
                    out.orphans.extend(t.orphans);
                    return true;
                }
            }
        }
        false
    }
}

impl DesiredAllocation {
    fn clamp_to_solver_cap(mut self, cap: u32, std_cpu: f64) -> Self {
        if self.count > cap {
            self.count = cap;
            self.cpu = self.cpu.min(f64::from(cap) * std_cpu);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lass_cluster::UserId;
    use lass_functions::{binary_alert, micro_benchmark, mobilenet_v2};

    fn controller_with(
        cfg: LassConfig,
        fns: Vec<(lass_functions::FunctionSpec, f64, f64, UserId)>,
    ) -> (LassController, Vec<FnId>) {
        let mut reg = FunctionRegistry::new();
        let ids = fns
            .into_iter()
            .map(|(spec, slo, w, u)| reg.register(spec, slo, w, u))
            .collect();
        (LassController::new(cfg, reg), ids)
    }

    /// Feed `rate` req/s over (`from_secs`, `to_secs`] in monitor ticks.
    fn feed_rate(ctl: &mut LassController, fn_id: FnId, rate: f64, from_secs: f64, to_secs: f64) {
        let tick = ctl.cfg().monitor_interval_secs;
        let mut t = from_secs + tick;
        while t <= to_secs + 1e-9 {
            let mut m = BTreeMap::new();
            m.insert(fn_id, (rate * tick).round() as u64);
            ctl.on_monitor_tick(t, &m);
            t += tick;
        }
    }

    #[test]
    fn scales_up_for_load_and_down_when_it_stops() {
        let mut cluster = Cluster::paper_testbed();
        let (mut ctl, ids) = controller_with(
            LassConfig::default(),
            vec![(micro_benchmark(0.1), 0.1, 1.0, UserId(0))],
        );
        let f = ids[0];
        feed_rate(&mut ctl, f, 20.0, 0.0, 120.0);
        let plan = ctl.plan_epoch(&cluster, 120.0);
        assert!(!plan.overloaded);
        let creates = plan
            .commands
            .iter()
            .filter(|c| matches!(c, Command::Create { .. }))
            .count();
        assert!(
            creates >= 3,
            "20 req/s at mu=10 needs >2 containers, got {creates}"
        );
        let out = ctl.apply(&mut cluster, &plan, SimTime::from_secs(120));
        assert_eq!(out.created.len(), creates);
        assert_eq!(out.failed_creates, 0);
        cluster.check_invariants();

        // Load stops: the next epochs see zero arrivals.
        feed_rate(&mut ctl, f, 0.0, 120.0, 400.0);
        // EWMA needs a couple of epochs to decay.
        let mut marked = 0;
        for e in 0..5 {
            let plan = ctl.plan_epoch(&cluster, 400.0 + f64::from(e) * 10.0);
            ctl.apply(&mut cluster, &plan, SimTime::from_secs(400 + e as u64 * 10));
        }
        for c in cluster.all_containers() {
            if c.is_marked_for_termination() {
                marked += 1;
            }
        }
        assert!(
            marked >= creates - 1,
            "idle containers get marked: {marked}"
        );
        cluster.check_invariants();
    }

    #[test]
    fn marked_containers_are_reused_on_load_return() {
        let mut cluster = Cluster::paper_testbed();
        let (mut ctl, ids) = controller_with(
            LassConfig::default(),
            vec![(micro_benchmark(0.1), 0.1, 1.0, UserId(0))],
        );
        let f = ids[0];
        feed_rate(&mut ctl, f, 20.0, 0.0, 120.0);
        let plan = ctl.plan_epoch(&cluster, 120.0);
        ctl.apply(&mut cluster, &plan, SimTime::from_secs(120));
        let n_before = cluster.fn_container_count(f);

        // Dip, then return.
        feed_rate(&mut ctl, f, 0.0, 120.0, 400.0);
        for e in 0..5 {
            let p = ctl.plan_epoch(&cluster, 400.0 + f64::from(e) * 10.0);
            ctl.apply(&mut cluster, &p, SimTime::from_secs(400 + e as u64 * 10));
        }
        assert_eq!(
            cluster.fn_container_count(f),
            n_before,
            "lazy marks keep containers alive"
        );
        feed_rate(&mut ctl, f, 20.0, 400.0 + 50.0, 600.0);
        let p = ctl.plan_epoch(&cluster, 600.0);
        let unmarks = p
            .commands
            .iter()
            .filter(|c| matches!(c, Command::Unmark { .. }))
            .count();
        assert!(unmarks > 0, "returning load reuses marked containers");
        ctl.apply(&mut cluster, &p, SimTime::from_secs(600));
        // The EWMA may not have fully recovered, so at most one container
        // can remain marked.
        let still_marked = cluster
            .all_containers()
            .filter(|c| c.is_marked_for_termination())
            .count();
        assert!(still_marked <= 1, "still marked: {still_marked}");
    }

    #[test]
    fn overload_triggers_fair_share_and_deflation() {
        let mut cluster = Cluster::paper_testbed(); // 12000 milli total
        let mut cfg = LassConfig::default();
        cfg.reclamation = ReclamationPolicy::Deflation;
        let (mut ctl, ids) = controller_with(
            cfg,
            vec![
                (binary_alert(), 0.1, 1.0, UserId(0)),
                (mobilenet_v2(), 0.1, 1.0, UserId(1)),
            ],
        );
        let (ba, mn) = (ids[0], ids[1]);
        // Phase 1: only MobileNet runs; it grows past its fair share.
        for t in 1..=24 {
            let now = f64::from(t) * 5.0;
            let mut m = BTreeMap::new();
            m.insert(mn, 50); // 10 req/s at mu=4 -> ~8000+ milli desired
            ctl.on_monitor_tick(now, &m);
        }
        let p1 = ctl.plan_epoch(&cluster, 120.0);
        assert!(!p1.overloaded);
        ctl.apply(&mut cluster, &p1, SimTime::from_secs(120));
        let mn_before = cluster.fn_cpu(mn);
        assert!(
            mn_before.0 > 6000,
            "MobileNet exceeds fair share: {mn_before}"
        );
        assert!(cluster.fn_containers(mn).all(|c| !c.is_deflated()));

        // Phase 2: BinaryAlert bursts; the cluster overloads and BA's
        // standard-size creates must reclaim space by deflating MobileNet.
        for t in 25..=48 {
            let now = f64::from(t) * 5.0;
            let mut m = BTreeMap::new();
            m.insert(ba, 1400); // 280 req/s
            m.insert(mn, 50);
            ctl.on_monitor_tick(now, &m);
        }
        let p2 = ctl.plan_epoch(&cluster, 240.0);
        assert!(
            p2.overloaded,
            "demand must exceed capacity: {:?}",
            p2.desired_cpu
        );
        let total: f64 = p2.adjusted_cpu.values().sum();
        assert!(total <= 12_000.0 + 1e-6);
        for f in [ba, mn] {
            let floor = 6000.0f64.min(p2.desired_cpu[&f]);
            assert!(
                p2.adjusted_cpu[&f] + 1e-6 >= floor,
                "{f}: adjusted {} < floor {floor}",
                p2.adjusted_cpu[&f]
            );
        }
        let out = ctl.apply(&mut cluster, &p2, SimTime::from_secs(240));
        cluster.check_invariants();
        // On-demand reclamation deflated MobileNet's fleet.
        let deflated = cluster
            .fn_containers(mn)
            .filter(|c| c.is_deflated())
            .count();
        assert!(deflated > 0, "deflation policy deflates the over-budget fn");
        for c in cluster.all_containers() {
            assert!(c.deflation_ratio() <= 0.30 + 1e-9);
        }
        // MobileNet keeps at least its fair-share-adjusted capacity.
        assert!(
            f64::from(cluster.fn_cpu(mn).0) + 1e-6 >= p2.adjusted_cpu[&mn] - 2000.0,
            "MobileNet kept {} of adjusted {}",
            cluster.fn_cpu(mn),
            p2.adjusted_cpu[&mn]
        );
        // BinaryAlert got room for its standard-size containers.
        assert!(
            cluster.fn_cpu(ba).0 >= 5000,
            "BA allocation {} too small",
            cluster.fn_cpu(ba)
        );
        let _ = out;
    }

    #[test]
    fn overload_with_termination_keeps_whole_containers() {
        let mut cluster = Cluster::paper_testbed();
        let mut cfg = LassConfig::default();
        cfg.reclamation = ReclamationPolicy::Termination;
        let (mut ctl, ids) = controller_with(
            cfg,
            vec![
                (binary_alert(), 0.1, 1.0, UserId(0)),
                (mobilenet_v2(), 0.1, 1.0, UserId(1)),
            ],
        );
        for t in 1..=24 {
            let now = f64::from(t) * 5.0;
            let mut m = BTreeMap::new();
            m.insert(ids[0], 1400);
            m.insert(ids[1], 60);
            ctl.on_monitor_tick(now, &m);
        }
        let plan = ctl.plan_epoch(&cluster, 120.0);
        assert!(plan.overloaded);
        ctl.apply(&mut cluster, &plan, SimTime::from_secs(120));
        cluster.check_invariants();
        for c in cluster.all_containers() {
            assert!(!c.is_deflated(), "termination policy never deflates");
        }
    }

    #[test]
    fn autoscale_off_produces_empty_plan() {
        let cluster = Cluster::paper_testbed();
        let mut cfg = LassConfig::default();
        cfg.autoscale = false;
        let (mut ctl, _) = controller_with(cfg, vec![(micro_benchmark(0.1), 0.1, 1.0, UserId(0))]);
        let plan = ctl.plan_epoch(&cluster, 60.0);
        assert!(plan.commands.is_empty());
    }

    #[test]
    fn burst_reaction_uses_short_window() {
        let mut cluster = Cluster::paper_testbed();
        let (mut ctl, ids) = controller_with(
            LassConfig::default(),
            vec![(micro_benchmark(0.1), 0.1, 1.0, UserId(0))],
        );
        let f = ids[0];
        feed_rate(&mut ctl, f, 5.0, 0.0, 200.0);
        let p = ctl.plan_epoch(&cluster, 200.0);
        ctl.apply(&mut cluster, &p, SimTime::from_secs(200));
        let small = cluster.fn_container_count(f);
        // 10x burst for one short window.
        let mut m = BTreeMap::new();
        m.insert(f, 250); // 50/s over 5s
        ctl.on_monitor_tick(205.0, &m);
        m.insert(f, 250);
        ctl.on_monitor_tick(210.0, &m);
        let p = ctl.plan_epoch(&cluster, 210.0);
        let creates = p
            .commands
            .iter()
            .filter(|c| matches!(c, Command::Create { .. }))
            .count();
        assert!(
            creates + small >= 6,
            "burst to 50/s must jump well past the smoothed level (creates={creates})"
        );
    }
}
