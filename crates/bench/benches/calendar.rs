//! Event-calendar microbenchmark: a hold model of the engine's event
//! mix. Each pop is answered by the pushes the engine would make:
//!
//! - an arrival of function `f` (Zipf(1.1) rates) schedules that
//!   function's next arrival and a delivery 0 or 2 ms later (a near and
//!   a far site);
//! - a delivery schedules a completion 10–100 ms later;
//! - a completion schedules nothing.
//!
//! Half the pending events are arrivals (one per function), half are
//! deliveries and completions, at 10² and 10⁴ pending events in all.
//! Random draws come from tables built before the clock starts, so the
//! timed loop is the calendar plus a few loads and multiplies. The
//! figure is nanoseconds per pop plus its share of pushes (one push per
//! pop in the steady state).
//!
//! Besides the criterion output, the run merges one `calendar/` row
//! per depth into `BENCH_engine.json` (workspace root), keeping every
//! other row; each row records the host's core count.
//!
//! With `CALENDAR_BENCH_SMOKE` set, the run instead times a short
//! burst per depth and **fails** (non-zero exit) if a pop+push costs
//! more than a generous ceiling: the CI tripwire against a calendar
//! that allocates, hashes or scans per event.

use criterion::{BenchmarkId, Criterion, Throughput};
use lass_bench::{cores, merge_bench_rows};
use lass_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use std::time::Instant;

#[derive(Clone, Copy)]
enum Ev {
    Arrival(u32),
    Delivery,
    Completion,
}

/// Draws per random table; a power of two so the index wraps by mask.
const TABLE: usize = 1 << 16;

/// One hold model, warmed up to its steady depth.
struct Hold {
    queue: EventQueue<Ev>,
    /// Mean interarrival of each function, ns.
    mean_gap_ns: Vec<f64>,
    /// Unit-mean exponential draws.
    exp: Vec<f64>,
    /// Delivery delays: 0 or 2 ms.
    delivery: Vec<SimDuration>,
    /// Completion delays: uniform in 10–100 ms.
    completion: Vec<SimDuration>,
    draw: usize,
}

impl Hold {
    /// A model holding about `pending` events: `pending / 2` functions
    /// whose arrival rate keeps as many deliveries and completions in
    /// flight (a request spends 56 ms in flight on average).
    fn new(pending: usize) -> Self {
        let functions = (pending / 2).max(1);
        let total_rate = (pending - functions) as f64 / 0.056;
        let weights: Vec<f64> = (1..=functions).map(|k| (k as f64).powf(-1.1)).collect();
        let norm: f64 = weights.iter().sum();
        let mean_gap_ns = weights
            .iter()
            .map(|w| 1e9 * norm / (w * total_rate))
            .collect();
        let mut rng = SimRng::from_seed_label(7, &format!("calendar-bench:{pending}"));
        let exp = (0..TABLE).map(|_| rng.exp(1.0)).collect();
        let delivery = (0..TABLE)
            .map(|_| SimDuration::from_secs_f64(if rng.chance(0.5) { 0.0 } else { 0.002 }))
            .collect();
        let completion = (0..TABLE)
            .map(|_| SimDuration::from_secs_f64(0.010 + 0.090 * rng.uniform()))
            .collect();
        let mut hold = Self {
            queue: EventQueue::new(),
            mean_gap_ns,
            exp,
            delivery,
            completion,
            draw: 0,
        };
        for f in 0..functions {
            let at = SimTime::ZERO + hold.gap(f);
            hold.queue.schedule(at, Ev::Arrival(f as u32));
        }
        // Run long enough for the in-flight half to fill.
        hold.run(20 * pending as u64 + 10_000);
        hold
    }

    /// The index of the next draw from the tables.
    fn next_draw(&mut self) -> usize {
        self.draw = (self.draw + 1) & (TABLE - 1);
        self.draw
    }

    /// The next interarrival of function `f`.
    fn gap(&mut self, f: usize) -> SimDuration {
        let i = self.next_draw();
        SimDuration((self.exp[i] * self.mean_gap_ns[f]) as u64)
    }

    /// Pop `pops` events, pushing what each one schedules.
    fn run(&mut self, pops: u64) {
        for _ in 0..pops {
            let (now, ev) = self.queue.pop().expect("arrivals never run out");
            match ev {
                Ev::Arrival(f) => {
                    let next = now + self.gap(f as usize);
                    self.queue.schedule(next, Ev::Arrival(f));
                    let i = self.next_draw();
                    let at = now + self.delivery[i];
                    self.queue.schedule(at, Ev::Delivery);
                }
                Ev::Delivery => {
                    let i = self.next_draw();
                    let at = now + self.completion[i];
                    self.queue.schedule(at, Ev::Completion);
                }
                Ev::Completion => {}
            }
        }
    }

    /// Time `pops` pops with their pushes; returns ns per pop+push.
    fn measure(&mut self, pops: u64) -> f64 {
        let start = Instant::now();
        self.run(pops);
        start.elapsed().as_secs_f64() * 1e9 / pops as f64
    }
}

/// Smoke-mode ceiling, ns per pop+push. Release builds take well under
/// 100 ns at 10⁴ pending events on a 2-vCPU host; a hash lookup or an
/// allocation per event stays below this on a slow runner, but a scan
/// of the pending events does not.
const SMOKE_CEILING_NS: f64 = 2_000.0;

/// Pending-event depths measured.
const DEPTHS: [usize; 2] = [100, 10_000];

fn main() {
    if std::env::var_os("CALENDAR_BENCH_SMOKE").is_some() {
        let mut failed = false;
        for pending in DEPTHS {
            let ns = Hold::new(pending).measure(200_000);
            let verdict = if ns > SMOKE_CEILING_NS {
                failed = true;
                "FAIL"
            } else {
                "ok"
            };
            println!("smoke calendar/hold/{pending}: {ns:.1} ns per pop+push [{verdict}]");
        }
        assert!(
            !failed,
            "a pop+push exceeded the {SMOKE_CEILING_NS} ns smoke ceiling — \
             does the calendar allocate, hash or scan per event?"
        );
        return;
    }
    let mut c = Criterion::default();
    let mut rows = Vec::new();
    let pops = 4_000_000u64;
    let mut group = c.benchmark_group("calendar_hold");
    for pending in DEPTHS {
        let mut hold = Hold::new(pending);
        // The best of five passes: the host's noise only ever adds time.
        let ns = (0..5)
            .map(|_| hold.measure(pops))
            .fold(f64::INFINITY, f64::min);
        println!("calendar/hold/{pending}: {ns:.1} ns per pop+push");
        rows.push(format!(
            "{{ \"bench\": \"calendar/hold/{pending}\", \"ns_per_pop_push\": {ns:.1}, \
             \"pending\": {}, \"pops\": {pops}, \"cores\": {} }}",
            hold.queue.len(),
            cores()
        ));
        group.throughput(Throughput::Elements(100_000));
        group.sample_size(5).bench_with_input(
            BenchmarkId::new("hold", pending),
            &pending,
            |b, _| b.iter(|| hold.run(100_000)),
        );
    }
    group.finish();
    // Land the table at the workspace root whatever cwd cargo gave us.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let n = merge_bench_rows(path, "calendar/", rows);
    println!("(merged BENCH_engine.json: {n} rows)");
}
