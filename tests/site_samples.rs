//! A federated site whose policy does not read the latency samples of
//! its outcome (`SchedulerPolicy::READS_SAMPLES == false`) keeps the
//! counts in its ledger but records no sample, in both drivers, and the
//! run reports exactly what a recording run reports.

use lass::simcore::{
    run_federation, ChaosConfig, ContainerChaos, EngineConfig, EngineOutcome, Fault, FedFunction,
    FederatedReport, Federation, FunctionEntry, PolicyCtx, ReqId, RouterKind, SchedulerPolicy,
    SimDuration, SimTime, SiteMeta, StaticPoisson,
};
use serde::{Serialize, Value};
use std::collections::VecDeque;

/// A two-server FCFS site that declares `READS` as whether it reads
/// its samples.
struct Server<const READS: bool> {
    busy: usize,
    queue: VecDeque<ReqId>,
}

enum Done {
    At(ReqId, SimTime),
}

/// A site's books as its ledger handed them over. Only the counts are
/// reported; `samples` (per function, the wait, service and response
/// sample counts) is what the test inspects.
struct SiteBooks {
    completed: Vec<usize>,
    slo_violations: Vec<usize>,
    samples: Vec<[usize; 3]>,
}

impl Serialize for SiteBooks {
    fn serialize(&self) -> Value {
        (&self.completed, &self.slo_violations).serialize()
    }
}

impl<const READS: bool> Server<READS> {
    fn new() -> Self {
        Self {
            busy: 0,
            queue: VecDeque::new(),
        }
    }

    fn start(&mut self, ctx: &mut impl PolicyCtx<Done>, rid: ReqId, fn_idx: u32, now: SimTime) {
        self.busy += 1;
        let s = ctx.service_rng(fn_idx).exp(1.0 / 0.2);
        ctx.schedule(now + SimDuration::from_secs_f64(s), Done::At(rid, now));
    }
}

impl<const READS: bool> SchedulerPolicy for Server<READS> {
    type Event = Done;
    type Report = SiteBooks;
    const READS_SAMPLES: bool = READS;

    fn on_start(&mut self, _ctx: &mut impl PolicyCtx<Done>) {}

    fn on_arrival(&mut self, ctx: &mut impl PolicyCtx<Done>, rid: ReqId, f: u32, now: SimTime) {
        if self.busy < 2 {
            self.start(ctx, rid, f, now);
        } else {
            self.queue.push_back(rid);
        }
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<Done>, ev: Done, now: SimTime) {
        let Done::At(rid, started) = ev;
        ctx.complete(rid, started, now);
        self.busy -= 1;
        while let Some(next) = self.queue.pop_front() {
            if let Some((fn_idx, _)) = ctx.request_info(next) {
                self.start(ctx, next, fn_idx, now);
                break;
            }
            ctx.discard(next);
        }
    }

    fn finish(self, outcome: EngineOutcome) -> SiteBooks {
        let per_fn = &outcome.per_fn;
        SiteBooks {
            completed: per_fn.iter().map(|f| f.completed).collect(),
            slo_violations: per_fn.iter().map(|f| f.slo_violations).collect(),
            samples: per_fn
                .iter()
                .map(|f| [f.wait.count(), f.service.count(), f.response.count()])
                .collect(),
        }
    }
}

impl<const READS: bool> ContainerChaos for Server<READS> {}

const FUNCTIONS: [&str; 2] = ["a", "b"];

fn entries() -> Vec<FunctionEntry> {
    FUNCTIONS
        .iter()
        .zip([14.0, 8.0])
        .map(|(name, rate)| FunctionEntry {
            name: (*name).into(),
            slo_deadline: 0.3,
            process: Box::new(StaticPoisson::until(rate, SimTime::from_secs(60))),
        })
        .collect()
}

/// Three sites 10–30 ms away behind least-loaded routing, a crash and a
/// partition (so stalled responses complete too).
fn federation<const READS: bool>(streaming: bool) -> Federation<Server<READS>> {
    let sites = (0..3)
        .map(|i| {
            let meta = SiteMeta {
                name: format!("s{i}"),
                latency: SimDuration::from_secs_f64(0.01 * (i + 1) as f64),
                capacity_hint: 2.0,
            };
            (meta, Server::new())
        })
        .collect();
    let functions: Vec<FedFunction> = FUNCTIONS
        .iter()
        .map(|name| FedFunction {
            name: (*name).into(),
            slo_deadline: 0.3,
            demand: [0.0; 3],
        })
        .collect();
    let fed = Federation::new(sites, RouterKind::LeastLoaded.build(), &functions)
        .with_rebuild(Box::new(|_, _| Server::new()));
    if streaming {
        fed.with_streaming_stats()
    } else {
        fed
    }
}

fn chaos() -> ChaosConfig {
    ChaosConfig {
        events: vec![
            (15.0, Fault::SiteDown { site: 0 }),
            (20.0, Fault::PartitionStart { site: 1 }),
            (30.0, Fault::PartitionEnd { site: 1 }),
            (35.0, Fault::SiteUp { site: 0 }),
        ],
        ..ChaosConfig::default()
    }
}

/// One run: the sequential driver when `threads` is `None`, the
/// windowed one otherwise.
fn run<const READS: bool>(threads: Option<usize>, streaming: bool) -> FederatedReport<SiteBooks> {
    let cfg = EngineConfig {
        seed: 7,
        duration_secs: 60.0,
        parallel_sites: threads,
        stream_stats: streaming,
        ..EngineConfig::default()
    };
    let fed = federation::<READS>(streaming)
        .with_chaos(chaos(), 7)
        .expect("valid chaos");
    run_federation(cfg, entries(), fed).expect("runs")
}

#[test]
fn a_site_that_reads_no_samples_records_none_and_reports_the_same() {
    for threads in [None, Some(2)] {
        for streaming in [false, true] {
            let case = format!("threads {threads:?}, streaming {streaming}");
            let recording = run::<true>(threads, streaming);
            let counting = run::<false>(threads, streaming);
            assert_eq!(
                serde_json::to_string(&recording).unwrap(),
                serde_json::to_string(&counting).unwrap(),
                "{case}: skipping the site samples changed the report"
            );
            let (mut completed, mut violations) = (0, 0);
            for (rec, cnt) in recording.per_site.iter().zip(&counting.per_site) {
                let (rec, cnt) = (&rec.report, &cnt.report);
                for (f, &done) in rec.completed.iter().enumerate() {
                    assert_eq!(rec.samples[f], [done; 3], "{case}: recording site");
                    assert_eq!(cnt.samples[f], [0; 3], "{case}: counting site");
                }
                completed += cnt.completed.iter().sum::<usize>();
                violations += cnt.slo_violations.iter().sum::<usize>();
            }
            assert!(completed > 1000, "{case}: only {completed} completions");
            assert!(violations > 0, "{case}: no SLO violation to count");
        }
    }
}
