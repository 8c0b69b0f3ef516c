//! Parallel federated executor: determinism and differential tests.
//!
//! Three families:
//!
//! * **Thread-count byte-identity** — fixed-seed federated runs (plain
//!   and chaos-storm) serialize to identical FNV-64 report hashes at
//!   `parallel_sites` ∈ {1, 2, 8}: the windowed executor's merge order
//!   is `(time, site, log-index)`, independent of how many worker
//!   threads drained the shards.
//! * **Sequential differential oracle** — under a telemetry-free router
//!   (round-robin) and a deterministic-service policy, none of the
//!   parallel executor's documented divergences (per-site service
//!   streams, barrier-stale telemetry, same-instant cross-site ties)
//!   applies, so the parallel report must equal the sequential
//!   federation's report byte-for-byte — with and without chaos.
//! * **Conservation proptest** — randomized topologies, latencies and
//!   fault schedules conserve every request across shard boundaries
//!   (exactly one fate: completed, lost, timed out, or outstanding;
//!   migration symmetric), and two different thread counts hash
//!   identically on every sampled case.

use lass::simcore::{
    run_federation_parallel, run_simulation, ArrivalProcess, ChaosConfig, ContainerChaos,
    EngineConfig, EngineOutcome, Fault, FedFunction, FederatedReport, Federation, FederationConfig,
    FnStats, FunctionEntry, HedgeConfig, PolicyCtx, ReqId, RouterKind, SchedulerPolicy,
    SimDuration, SimRng, SimTime, SiteMeta, StaticPoisson,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic single-server FCFS policy: fixed service time, no
/// RNG draws. With a round-robin router this makes the parallel run
/// bit-identical to the sequential one (see the module docs of
/// `lass_simcore::parallel`).
struct FixedServer {
    busy: bool,
    queue: VecDeque<ReqId>,
    service: SimDuration,
}

impl FixedServer {
    fn new(service_secs: f64) -> Self {
        Self {
            busy: false,
            queue: VecDeque::new(),
            service: SimDuration::from_secs_f64(service_secs),
        }
    }
}

enum FsEv {
    Done(ReqId, SimTime),
}

impl SchedulerPolicy for FixedServer {
    type Event = FsEv;
    type Report = Vec<FnStats>;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<FsEv>) {}

    fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<FsEv>, rid: ReqId, _f: u32, now: SimTime) {
        if self.busy {
            self.queue.push_back(rid);
        } else {
            self.busy = true;
            ctx.schedule(now + self.service, FsEv::Done(rid, now));
        }
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<FsEv>, ev: FsEv, now: SimTime) {
        let FsEv::Done(rid, started) = ev;
        ctx.complete(rid, started, now);
        self.busy = false;
        if let Some(next) = self.queue.pop_front() {
            self.busy = true;
            ctx.schedule(now + self.service, FsEv::Done(next, now));
        }
    }

    fn finish(self, outcome: EngineOutcome) -> Vec<FnStats> {
        outcome.per_fn
    }
}

impl ContainerChaos for FixedServer {}

/// A stochastic two-server policy that draws service times from the
/// engine's labelled service streams — exercises the per-site RNG path
/// of the parallel executor.
struct StochServer {
    servers: usize,
    busy: usize,
    queue: VecDeque<ReqId>,
    mean: f64,
}

impl StochServer {
    fn new(servers: usize, mean: f64) -> Self {
        Self {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            mean,
        }
    }

    fn start(&mut self, ctx: &mut impl PolicyCtx<FsEv>, rid: ReqId, fn_idx: u32, now: SimTime) {
        self.busy += 1;
        let s = ctx.service_rng(fn_idx).exp(1.0 / self.mean);
        ctx.schedule(now + SimDuration::from_secs_f64(s), FsEv::Done(rid, now));
    }
}

impl SchedulerPolicy for StochServer {
    type Event = FsEv;
    type Report = Vec<FnStats>;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<FsEv>) {}

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<FsEv>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        if self.busy < self.servers {
            self.start(ctx, rid, fn_idx, now);
        } else {
            self.queue.push_back(rid);
        }
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<FsEv>, ev: FsEv, now: SimTime) {
        let FsEv::Done(rid, started) = ev;
        ctx.complete(rid, started, now);
        self.busy -= 1;
        if let Some(next) = self.queue.pop_front() {
            let fn_idx = ctx.request_info(next).map_or(0, |(f, _)| f);
            self.start(ctx, next, fn_idx, now);
        }
    }

    fn finish(self, outcome: EngineOutcome) -> Vec<FnStats> {
        outcome.per_fn
    }
}

impl ContainerChaos for StochServer {}

fn fed_functions() -> Vec<FedFunction> {
    vec![FedFunction {
        name: "probe".into(),
        slo_deadline: 0.5,
        demand: [0.0; 3],
    }]
}

fn probe_entry(rate: f64) -> Vec<FunctionEntry> {
    vec![FunctionEntry {
        name: "probe".into(),
        slo_deadline: 0.5,
        process: Box::new(StaticPoisson::until(rate, SimTime::from_secs(60))),
    }]
}

fn metas(latencies_ms: &[f64]) -> Vec<SiteMeta> {
    latencies_ms
        .iter()
        .enumerate()
        .map(|(i, &ms)| SiteMeta {
            name: format!("s{i}"),
            latency: SimDuration::from_secs_f64(ms / 1000.0),
            capacity_hint: 2.0,
        })
        .collect()
}

fn engine_cfg(seed: u64, parallel: Option<usize>) -> EngineConfig {
    EngineConfig {
        seed,
        parallel_sites: parallel,
        ..EngineConfig::default()
    }
}

fn fixed_fed(kind: RouterKind, latencies_ms: &[f64], service_secs: f64) -> Federation<FixedServer> {
    let sites = metas(latencies_ms)
        .into_iter()
        .map(|m| (m, FixedServer::new(service_secs)))
        .collect();
    Federation::new(sites, kind.build(), &fed_functions())
        .with_rebuild(Box::new(move |_, _| FixedServer::new(service_secs)))
}

fn stoch_fed(kind: RouterKind, latencies_ms: &[f64], mean: f64) -> Federation<StochServer> {
    let sites = metas(latencies_ms)
        .into_iter()
        .map(|m| (m, StochServer::new(2, mean)))
        .collect();
    Federation::new(sites, kind.build(), &fed_functions())
        .with_rebuild(Box::new(move |_, _| StochServer::new(2, mean)))
}

fn storm() -> ChaosConfig {
    ChaosConfig {
        events: vec![
            (20.0, Fault::SiteDown { site: 0 }),
            (25.0, Fault::PartitionStart { site: 1 }),
            (35.0, Fault::PartitionEnd { site: 1 }),
            (40.0, Fault::SiteUp { site: 0 }),
            (45.0, Fault::ContainerBurst { site: 2, count: 2 }),
        ],
        site_mtbf_secs: Some(40.0),
        site_mttr_secs: 10.0,
        ..ChaosConfig::default()
    }
}

fn report_json(rep: &FederatedReport<Vec<FnStats>>) -> String {
    serde_json::to_string(rep).expect("serializes")
}

const LATS: [f64; 4] = [13.0, 29.0, 47.0, 61.0];

fn run_parallel_stoch(threads: usize, chaos: ChaosConfig) -> FederatedReport<Vec<FnStats>> {
    run_federation_parallel(
        engine_cfg(11, Some(threads)),
        probe_entry(8.0),
        stoch_fed(RouterKind::LeastLoaded, &LATS, 0.2),
        chaos,
        11,
    )
}

#[test]
fn thread_count_does_not_change_the_bytes() {
    let h1 = fnv64(&report_json(&run_parallel_stoch(1, ChaosConfig::default())));
    let h2 = fnv64(&report_json(&run_parallel_stoch(2, ChaosConfig::default())));
    let h8 = fnv64(&report_json(&run_parallel_stoch(8, ChaosConfig::default())));
    assert_eq!(h1, h2, "1 vs 2 worker threads diverged");
    assert_eq!(h1, h8, "1 vs 8 worker threads diverged");
    // And the run actually did something.
    let rep = run_parallel_stoch(2, ChaosConfig::default());
    assert!(rep.aggregate_per_fn[0].completed > 100);
}

#[test]
fn thread_count_does_not_change_the_bytes_under_chaos() {
    let h1 = fnv64(&report_json(&run_parallel_stoch(1, storm())));
    let h2 = fnv64(&report_json(&run_parallel_stoch(2, storm())));
    let h8 = fnv64(&report_json(&run_parallel_stoch(8, storm())));
    assert_eq!(h1, h2, "1 vs 2 worker threads diverged under chaos");
    assert_eq!(h1, h8, "1 vs 8 worker threads diverged under chaos");
    // The storm must actually bite for the test to mean anything.
    let rep = run_parallel_stoch(2, storm());
    let migrated: usize = rep.per_site.iter().map(|s| s.migrated).sum();
    assert!(migrated > 0, "no migrations — chaos did not engage");
    assert!(rep.per_site[0].downtime_secs > 0.0);
}

#[test]
fn parallel_matches_sequential_exactly_for_rr_and_fixed_service() {
    let seq = run_simulation(
        engine_cfg(11, None),
        probe_entry(8.0),
        fixed_fed(RouterKind::RoundRobin, &LATS, 0.05),
    );
    let par = run_federation_parallel(
        engine_cfg(11, Some(3)),
        probe_entry(8.0),
        fixed_fed(RouterKind::RoundRobin, &LATS, 0.05),
        ChaosConfig::default(),
        11,
    );
    assert_eq!(
        report_json(&seq),
        report_json(&par),
        "parallel run is not bit-identical to the sequential oracle"
    );
}

#[test]
fn parallel_matches_sequential_exactly_under_chaos() {
    // Saturated fixed-service sites so every fault catches requests in
    // flight: crash orphans migrate, the partition stalls responses,
    // in-transit deliveries bounce.
    let chaos = storm();
    let seq = run_simulation(
        engine_cfg(11, None),
        probe_entry(8.0),
        fixed_fed(RouterKind::RoundRobin, &LATS, 0.3)
            .with_chaos(chaos.clone(), 11)
            .expect("valid chaos"),
    );
    let par = run_federation_parallel(
        engine_cfg(11, Some(4)),
        probe_entry(8.0),
        fixed_fed(RouterKind::RoundRobin, &LATS, 0.3),
        chaos,
        11,
    );
    let (sj, pj) = (report_json(&seq), report_json(&par));
    assert_eq!(
        sj, pj,
        "chaos parallel run is not bit-identical to the sequential oracle"
    );
    // The differential is only meaningful if the faults engaged.
    assert!(par.per_site.iter().map(|s| s.migrated).sum::<usize>() > 0);
}

/// Arrivals at fixed instants.
struct Instants(VecDeque<SimTime>);

impl ArrivalProcess for Instants {
    fn next_after(&mut self, now: SimTime, _rng: &mut SimRng) -> Option<SimTime> {
        while self.0.front().is_some_and(|&t| t <= now) {
            self.0.pop_front();
        }
        self.0.front().copied()
    }
}

/// A partition that heals while every calendar is idle leaves its
/// `PartitionEnd` in the site's inbox at the window start. The horizon
/// scan must count it: otherwise the window opens at the next calendar
/// event, the front end runs past the heal, and the merge then cancels
/// the hedge sibling of the released response at `heal + latency`,
/// behind the front clock ("scheduling into the past" in debug builds).
#[test]
fn partition_end_at_an_idle_window_start_opens_the_window() {
    let t = SimTime::from_secs_f64;
    // One request at 1 s, hedged onto both sites; the 1 s service on s0
    // finishes inside a 1.5–10 s partition and is held until the heal,
    // while the 100 s copy on s1 keeps the calendars idle until 101 s. A
    // second arrival just after that lets the front clock pass the heal.
    let entries = vec![FunctionEntry {
        name: "probe".into(),
        slo_deadline: 0.5,
        process: Box::new(Instants(VecDeque::from([t(1.0), t(101.007)]))),
    }];
    let sites = metas(&[5.0, 5.0])
        .into_iter()
        .zip([1.0, 100.0])
        .map(|(m, service)| (m, FixedServer::new(service)))
        .collect();
    let cfg = FederationConfig {
        hedge: Some(HedgeConfig::default()),
        ..FederationConfig::default()
    };
    let router = RouterKind::RoundRobin.build();
    let fed =
        Federation::configured(sites, router, &fed_functions(), cfg, 0).expect("valid config");
    let chaos = ChaosConfig {
        events: vec![
            (1.5, Fault::PartitionStart { site: 0 }),
            (10.0, Fault::PartitionEnd { site: 0 }),
        ],
        ..ChaosConfig::default()
    };
    let cfg = EngineConfig {
        duration_secs: 150.0,
        ..engine_cfg(3, Some(1))
    };
    let rep = run_federation_parallel(cfg, entries, fed, chaos, 3);
    let agg = &rep.aggregate_per_fn[0];
    assert_eq!(agg.arrivals, 2);
    assert_eq!(agg.completed + rep.outstanding, 2);
    // The held response won the race at the heal: 9 s after arrival.
    assert!(agg.response.max().is_some_and(|r| r > 8.9), "{agg:?}");
}

#[test]
#[should_panic(expected = "latency > 0")]
fn zero_latency_topologies_are_rejected() {
    run_federation_parallel(
        engine_cfg(1, Some(2)),
        probe_entry(4.0),
        fixed_fed(RouterKind::RoundRobin, &[0.0, 20.0], 0.05),
        ChaosConfig::default(),
        1,
    );
}

proptest! {
    // Every case runs two real federated simulations; keep the count
    // modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized topologies and fault schedules conserve requests
    /// across shard boundaries, and two different worker pools produce
    /// identical bytes.
    #[test]
    fn randomized_topologies_conserve_requests(
        seed in 0u64..1000,
        lat_ms in prop::collection::vec(1.0f64..80.0, 2..6),
        schedule in prop::collection::vec(
            (5.0f64..55.0, 0u8..5, 0u32..2, 1u32..3),
            0..6,
        ),
    ) {
        let events = schedule
            .into_iter()
            .map(|(at, kind, site, count)| {
                let fault = match kind {
                    0 => Fault::SiteDown { site },
                    1 => Fault::SiteUp { site },
                    2 => Fault::PartitionStart { site },
                    3 => Fault::PartitionEnd { site },
                    _ => Fault::ContainerBurst { site, count },
                };
                (at, fault)
            })
            .collect();
        let chaos = ChaosConfig { events, ..ChaosConfig::default() };
        let run = |threads: usize| {
            run_federation_parallel(
                engine_cfg(seed, Some(threads)),
                probe_entry(10.0),
                stoch_fed(RouterKind::RoundRobin, &lat_ms, 0.15),
                chaos.clone(),
                seed,
            )
        };
        let rep = run(2);

        let agg = &rep.aggregate_per_fn[0];
        prop_assert_eq!(
            agg.arrivals,
            agg.completed + agg.lost + agg.timeouts + rep.outstanding,
            "conservation broke"
        );
        let migrated_out: usize = rep.per_site.iter().map(|s| s.migrated).sum();
        let migrated_in: usize = rep.per_site.iter().map(|s| s.migrated_in).sum();
        prop_assert_eq!(migrated_out, migrated_in, "migration is not symmetric");
        let failed: usize = rep.per_site.iter().map(|s| s.failed).sum();
        prop_assert_eq!(failed + rep.unroutable, agg.lost);
        // Per-site delivered arrivals never exceed what the router sent.
        let routed: usize = rep.per_site.iter().map(|s| s.routed).sum();
        prop_assert_eq!(routed + rep.unroutable, agg.arrivals + migrated_in);

        let other = run(5);
        prop_assert_eq!(
            fnv64(&report_json(&rep)),
            fnv64(&report_json(&other)),
            "2 vs 5 worker threads diverged"
        );
    }
}

/// Sites 0 and 1 each fire one timer at 1 s, so both shards have work in
/// the same window; the faulty one's panics. When `wait` is set, the
/// other one's handler waits (up to 2 s) for the faulty one to start, so
/// the two shards are pumped by different threads.
struct Tripwire {
    timer: bool,
    faulty: bool,
    wait: bool,
    fired: Arc<AtomicBool>,
}

impl SchedulerPolicy for Tripwire {
    type Event = ();
    type Report = Vec<FnStats>;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<()>) {
        if self.timer {
            ctx.schedule(SimTime::from_secs(1), ());
        }
    }

    fn on_arrival(&mut self, _: &mut impl PolicyCtx<()>, _: ReqId, _: u32, _: SimTime) {}

    fn on_event(&mut self, _: &mut impl PolicyCtx<()>, _: (), _: SimTime) {
        if self.faulty {
            self.fired.store(true, Ordering::SeqCst);
            panic!("faulty site policy");
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.wait && !self.fired.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    fn finish(self, outcome: EngineOutcome) -> Vec<FnStats> {
        outcome.per_fn
    }
}

impl ContainerChaos for Tripwire {}

/// A site policy panicking inside a shard pump reaches the caller with
/// its own message, instead of leaving the window loop waiting for a
/// shard that will never finish or the scope waiting for parked workers.
/// The calling thread claims shard 0 first, so a faulty site 1 whose
/// sibling waits for it panics on a worker, and a faulty site 0 panics
/// on the calling thread. Each run happens on a helper thread so a
/// regression fails the test by timeout rather than hanging it.
#[test]
fn a_panicking_site_policy_reaches_the_caller() {
    for (threads, faulty) in [(1, 1), (2, 1), (4, 1), (2, 0), (4, 0)] {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let fired = Arc::new(AtomicBool::new(false));
            let sites = metas(&LATS)
                .into_iter()
                .enumerate()
                .map(|(site, m)| {
                    let policy = Tripwire {
                        timer: site < 2,
                        faulty: site == faulty,
                        wait: threads > 1 && faulty == 1,
                        fired: Arc::clone(&fired),
                    };
                    (m, policy)
                })
                .collect();
            let fed = Federation::new(sites, RouterKind::RoundRobin.build(), &fed_functions());
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_federation_parallel(
                    engine_cfg(3, Some(threads)),
                    probe_entry(8.0),
                    fed,
                    ChaosConfig::default(),
                    3,
                )
            }));
            let message = outcome.err().map(|panic| {
                panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            tx.send(message).expect("test thread waits");
        });
        let message = rx
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("{threads} threads hung after site {faulty} panicked"));
        assert_eq!(
            message.as_deref(),
            Some("faulty site policy"),
            "{threads} threads, site {faulty}"
        );
    }
}
