//! Property tests: cluster capacity accounting must survive arbitrary
//! interleavings of create / terminate / resize operations, and the
//! incrementally-maintained weighted dispatch index must stay
//! equivalent to a full walk of the container map through arbitrary
//! lifecycle/resize sequences.

use lass_cluster::{
    BwMbps, Cluster, ClusterError, ContainerId, ContainerState, CpuMilli, Dimension, FnId, MemMib,
    PlacementPolicy, RequestId, ResourceVec,
};
use lass_simcore::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create {
        fn_id: u32,
        cpu: u32,
        mem: u32,
    },
    /// Vector create: a full three-dimensional demand (io-class shapes
    /// carry bandwidth, memory-class shapes skew toward `mem`).
    CreateVec {
        fn_id: u32,
        cpu: u32,
        mem: u32,
        bw: u32,
    },
    Terminate {
        idx: usize,
    },
    Resize {
        idx: usize,
        ratio: f64,
    },
    Reinflate {
        idx: usize,
    },
    Ready {
        idx: usize,
    },
    Serve {
        idx: usize,
    },
    Finish {
        idx: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4, 100u32..2500, 64u32..2048).prop_map(|(fn_id, cpu, mem)| Op::Create {
            fn_id,
            cpu,
            mem
        }),
        (0usize..64).prop_map(|idx| Op::Terminate { idx }),
        ((0usize..64), 0.3f64..1.0).prop_map(|(idx, ratio)| Op::Resize { idx, ratio }),
        (0usize..64).prop_map(|idx| Op::Reinflate { idx }),
        (0usize..64).prop_map(|idx| Op::Ready { idx }),
        (0usize..64).prop_map(|idx| Op::Serve { idx }),
        (0usize..64).prop_map(|idx| Op::Finish { idx }),
    ]
}

/// Apply one lifecycle operation to the cluster — the single driver
/// shared by the capacity-accounting and index-equivalence proptests,
/// so the two suites cannot silently diverge in what they exercise.
/// Unplaceable creates are skipped; lifecycle ops against containers in
/// the wrong state are no-ops (both are part of the property space).
fn apply_op(
    cluster: &mut Cluster,
    live: &mut Vec<ContainerId>,
    next_rid: &mut u64,
    op: Op,
    now: SimTime,
) {
    match op {
        Op::Create { fn_id, cpu, mem } => {
            match cluster.create_container(FnId(fn_id), CpuMilli(cpu), MemMib(mem), now, now) {
                Ok(cid) => live.push(cid),
                Err(ClusterError::InsufficientCapacity { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        Op::CreateVec {
            fn_id,
            cpu,
            mem,
            bw,
        } => {
            let demand = ResourceVec::new(CpuMilli(cpu), MemMib(mem), BwMbps(bw));
            match cluster.create_container_vec(FnId(fn_id), CpuMilli(cpu), demand, now, now) {
                Ok(cid) => live.push(cid),
                Err(ClusterError::InsufficientCapacity { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        Op::Terminate { idx } => {
            if !live.is_empty() {
                let cid = live.remove(idx % live.len());
                cluster
                    .terminate_container(cid, now)
                    .expect("live container");
            }
        }
        Op::Resize { idx, ratio } => {
            if !live.is_empty() {
                let cid = live[idx % live.len()];
                let std = cluster.container(cid).expect("live").standard_cpu();
                // Down-resizes always succeed; treat as exercised.
                let _ = cluster.resize_container_cpu(cid, std.scale(ratio).max(CpuMilli(1)));
            }
        }
        Op::Reinflate { idx } => {
            if !live.is_empty() {
                let cid = live[idx % live.len()];
                let std = cluster.container(cid).expect("live").standard_cpu();
                // May fail when the node filled up meanwhile: fine.
                let _ = cluster.resize_container_cpu(cid, std);
            }
        }
        Op::Ready { idx } => {
            if !live.is_empty() {
                // A no-op unless the container is still starting.
                cluster.mark_container_ready(live[idx % live.len()]);
            }
        }
        Op::Serve { idx } => {
            if !live.is_empty() {
                let cid = live[idx % live.len()];
                if cluster.container(cid).expect("live").is_idle() {
                    *next_rid += 1;
                    cluster
                        .container_mut(cid)
                        .expect("live")
                        .enqueue(RequestId(*next_rid));
                    assert!(cluster.begin_service(cid, now).is_some());
                }
            }
        }
        Op::Finish { idx } => {
            if !live.is_empty() {
                let cid = live[idx % live.len()];
                if let Some(token) = cluster.container(cid).expect("live").service_token() {
                    assert!(cluster.finish_service(cid, token, now).is_some());
                }
            }
        }
    }
}

/// The vector-era operation mix: everything the legacy mix exercises
/// plus three-dimensional creates, so the bandwidth axis sees the same
/// interleavings the cpu/mem axes always have.
fn vec_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        (0u32..4, 100u32..2500, 64u32..2048, 0u32..600).prop_map(|(fn_id, cpu, mem, bw)| {
            Op::CreateVec {
                fn_id,
                cpu,
                mem,
                bw,
            }
        }),
    ]
}

/// Weighted candidates: (container, WRR weight) pairs.
type Candidates = Vec<(ContainerId, f64)>;

/// The historical per-request dispatch walk: every live container of the
/// function in index order with its current WRR weight, plus the idle
/// subset — the reference the maintained index must match exactly.
fn full_walk(cluster: &Cluster, f: FnId) -> (Candidates, Candidates) {
    let mut all = Vec::new();
    let mut idle = Vec::new();
    for c in cluster.fn_containers(f) {
        if !c.is_schedulable() {
            continue;
        }
        let w = f64::from(c.cpu().0).max(1.0);
        all.push((c.id(), w));
        if c.state() == ContainerState::Idle {
            idle.push((c.id(), w));
        }
    }
    (all, idle)
}

/// The historical `fastest_idle_container` walk over the container map.
fn fastest_idle_walk(cluster: &Cluster, f: FnId) -> Option<ContainerId> {
    let mut best: Option<(ContainerId, f64)> = None;
    for c in cluster.fn_containers(f) {
        if !c.is_schedulable() || c.state() != ContainerState::Idle {
            continue;
        }
        let w = f64::from(c.cpu().0).max(1.0);
        match best {
            Some((_, bw)) if w < bw => {}
            _ => best = Some((c.id(), w)),
        }
    }
    best.map(|(cid, _)| cid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accounting_survives_random_operations(
        ops in prop::collection::vec(op_strategy(), 1..120),
        policy in prop_oneof![
            Just(PlacementPolicy::FirstFit),
            Just(PlacementPolicy::BestFit),
            Just(PlacementPolicy::WorstFit),
        ],
    ) {
        let mut cluster = Cluster::homogeneous(3, CpuMilli(4000), MemMib(8192), policy);
        let mut live: Vec<ContainerId> = Vec::new();
        let mut next_rid = 0u64;
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            apply_op(&mut cluster, &mut live, &mut next_rid, op, now);
            // The load-bearing check: per-node accounting equals the sum of
            // resident containers after every single operation.
            cluster.check_invariants();
            // Aggregates stay within physical limits.
            prop_assert!(cluster.total_cpu_used() <= cluster.total_cpu_capacity());
            prop_assert!(cluster.cpu_utilization() <= 1.0 + 1e-12);
        }
        // Tear-down still balances.
        for cid in live {
            cluster.terminate_container(cid, SimTime::from_secs(t + 1)).expect("live");
        }
        cluster.check_invariants();
        prop_assert_eq!(cluster.total_cpu_used(), CpuMilli::ZERO);
        prop_assert_eq!(cluster.container_count(), 0);
    }

    /// Equivalence of the incrementally-maintained weighted dispatch
    /// index with a full container-map walk across arbitrary
    /// create / terminate / resize / ready / serve / finish sequences:
    /// same candidates in the same order with the same (bit-equal)
    /// weights, the same idle subset, the same fastest-idle answer, and
    /// the same warm census.
    #[test]
    fn wrr_index_matches_full_walk(
        ops in prop::collection::vec(op_strategy(), 1..160),
    ) {
        let mut cluster =
            Cluster::homogeneous(3, CpuMilli(4000), MemMib(8192), PlacementPolicy::BestFit);
        let mut live: Vec<ContainerId> = Vec::new();
        let mut next_rid = 0u64;
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            apply_op(&mut cluster, &mut live, &mut next_rid, op, now);
            // Index ≡ walk, for every function after every operation.
            for f in 0..4u32 {
                let f = FnId(f);
                let (all, idle) = full_walk(&cluster, f);
                let slots = cluster.wrr_candidates(f);
                prop_assert_eq!(slots.len(), all.len(), "candidate count drift");
                for (slot, (cid, w)) in slots.iter().zip(&all) {
                    prop_assert_eq!(slot.cid, *cid, "order drift");
                    prop_assert_eq!(slot.weight.to_bits(), w.to_bits(), "weight drift");
                }
                let idle_slots: Vec<(ContainerId, f64)> = slots
                    .iter()
                    .filter(|s| s.idle)
                    .map(|s| (s.cid, s.weight))
                    .collect();
                prop_assert_eq!(idle_slots, idle, "idle subset drift");
                prop_assert_eq!(
                    cluster.fastest_idle_container(f),
                    fastest_idle_walk(&cluster, f),
                    "fastest-idle drift"
                );
                let warm_walk = cluster
                    .fn_containers(f)
                    .filter(|c| {
                        matches!(c.state(), ContainerState::Idle | ContainerState::Busy)
                    })
                    .count() as u64;
                prop_assert_eq!(cluster.fn_warm_count(f), warm_walk, "warm census drift");
            }
            cluster.check_invariants();
        }
    }

    /// Per-dimension conservation under the full container lifecycle —
    /// including chaos-style kills: `Op::Terminate` removes a container
    /// in *any* state (busy included), which is exactly what the chaos
    /// layer's container-crash fault does. After every operation,
    /// allocated + free must equal capacity in **every** dimension, on
    /// every node (via `check_invariants`) and in aggregate, and a full
    /// tear-down must return every dimension to zero.
    #[test]
    fn vector_accounting_conserves_every_dimension(
        ops in prop::collection::vec(vec_op_strategy(), 1..120),
        policy in prop_oneof![
            Just(PlacementPolicy::FirstFit),
            Just(PlacementPolicy::BestFit),
            Just(PlacementPolicy::WorstFit),
            Just(PlacementPolicy::VectorBestFit),
        ],
    ) {
        let cap = ResourceVec::new(CpuMilli(4000), MemMib(8192), BwMbps(2000));
        let mut cluster = Cluster::homogeneous_vec(3, cap, policy);
        let mut live: Vec<ContainerId> = Vec::new();
        let mut next_rid = 0u64;
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            apply_op(&mut cluster, &mut live, &mut next_rid, op, now);
            cluster.check_invariants();
            let used = cluster.total_used_vec();
            let capacity = cluster.total_capacity_vec();
            let mut free = ResourceVec::ZERO;
            for node in cluster.nodes() {
                free += node.free_vec();
            }
            for dim in Dimension::ALL {
                prop_assert!(used.get(dim) <= capacity.get(dim), "{} over capacity", dim);
                prop_assert_eq!(
                    used.get(dim) + free.get(dim),
                    capacity.get(dim),
                    "{} allocated+free != capacity",
                    dim
                );
            }
        }
        for cid in live {
            cluster.terminate_container(cid, SimTime::from_secs(t + 1)).expect("live");
        }
        cluster.check_invariants();
        prop_assert_eq!(cluster.total_used_vec(), ResourceVec::ZERO);
        prop_assert_eq!(cluster.container_count(), 0);
    }

    /// A cpu/mem-only create is *defined* as a vector create whose
    /// bandwidth demand is zero: replaying the same operation sequence
    /// through `create_container` and through `create_container_vec` +
    /// a zero-bandwidth vector must produce identical clusters — same
    /// container ids on the same nodes, same per-node used/free vectors
    /// in every dimension, after every operation.
    #[test]
    fn defaulted_vector_create_matches_legacy(
        ops in prop::collection::vec(op_strategy(), 1..100),
        policy in prop_oneof![
            Just(PlacementPolicy::FirstFit),
            Just(PlacementPolicy::BestFit),
            Just(PlacementPolicy::WorstFit),
        ],
    ) {
        let mut legacy =
            Cluster::homogeneous(3, CpuMilli(4000), MemMib(8192), policy);
        let mut vector =
            Cluster::homogeneous(3, CpuMilli(4000), MemMib(8192), policy);
        let (mut live_l, mut live_v): (Vec<ContainerId>, Vec<ContainerId>) =
            (Vec::new(), Vec::new());
        let (mut rid_l, mut rid_v) = (0u64, 0u64);
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            let twin = match op {
                Op::Create { fn_id, cpu, mem } => Op::CreateVec { fn_id, cpu, mem, bw: 0 },
                ref other => other.clone(),
            };
            apply_op(&mut legacy, &mut live_l, &mut rid_l, op, now);
            apply_op(&mut vector, &mut live_v, &mut rid_v, twin, now);
            prop_assert_eq!(&live_l, &live_v, "container id stream diverged");
            for (a, b) in legacy.nodes().iter().zip(vector.nodes()) {
                prop_assert_eq!(a.used_vec(), b.used_vec());
                prop_assert_eq!(a.free_vec(), b.free_vec());
                prop_assert_eq!(a.container_count(), b.container_count());
            }
            for &cid in &live_l {
                prop_assert_eq!(
                    legacy.container(cid).expect("live").node(),
                    vector.container(cid).expect("live").node(),
                    "placement diverged"
                );
            }
        }
    }

    #[test]
    fn placement_never_overfills_a_node(
        sizes in prop::collection::vec((100u32..3000, 64u32..4096), 1..40),
        policy in prop_oneof![
            Just(PlacementPolicy::FirstFit),
            Just(PlacementPolicy::BestFit),
            Just(PlacementPolicy::WorstFit),
        ],
    ) {
        let mut cluster = Cluster::homogeneous(2, CpuMilli(4000), MemMib(4096), policy);
        for (i, (cpu, mem)) in sizes.into_iter().enumerate() {
            let _ = cluster.create_container(
                FnId(i as u32 % 3),
                CpuMilli(cpu),
                MemMib(mem),
                SimTime::ZERO,
                SimTime::ZERO,
            );
        }
        for node in cluster.nodes() {
            prop_assert!(node.cpu_used() <= node.cpu_capacity());
            prop_assert!(node.mem_used() <= node.mem_capacity());
        }
        cluster.check_invariants();
    }
}
