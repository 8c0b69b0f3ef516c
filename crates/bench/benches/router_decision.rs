//! Criterion microbenchmark for the route-decision step: every arrival
//! in a federated run pays one `RouterPolicy::route` call. All seven
//! routers are measured over 2 / 8 / 64-site views with realistic
//! telemetry (the model-driven routers query one M/M/c forecast per
//! site per decision).
//!
//! Only `route` is timed. The forecasts are evaluated once, up front,
//! in `make_sites`, so neither this bench nor its smoke ceiling sees
//! the federation's routing refresh. Under oracle routing, for a
//! forecast-reading router or a hedged run, that refresh re-runs an
//! O(c) Erlang-C evaluation per site whenever μ̂ moved — in practice on
//! nearly every decision. End-to-end benchmarks measure that cost.
//!
//! Besides the criterion output, the run writes `BENCH_routing.json`
//! (workspace root) with ns-per-decision per router × fleet size and
//! the host's core count.
//!
//! With `ROUTER_BENCH_SMOKE` set, the run instead times a short burst
//! per router and **fails** (non-zero exit) if any router exceeds a
//! generous per-decision ceiling — the CI tripwire against
//! re-introducing per-decision model construction inside `route`
//! (the pre-cache model-driven routers paid ~20 µs/decision at 64
//! sites; the cached path is 2–3 orders of magnitude below the
//! ceiling).

use criterion::{BenchmarkId, Criterion, Throughput};
use lass_simcore::{RouterKind, SimDuration, SimRng, SimTime, SiteState, WaitForecast};
use std::time::Instant;

/// A deterministic pseudo-random site view: mixed latencies, loads, and
/// live telemetry, with one down site per 16 to exercise the skip path.
fn make_sites(n: usize) -> Vec<SiteState> {
    let mut rng = SimRng::from_seed_label(42, &format!("router-bench:{n}"));
    (0..n)
        .map(|i| {
            let cap = 4.0 + (rng.uniform() * 28.0).floor();
            let mu = 5.0 + rng.uniform() * 15.0;
            let servers = cap as u32;
            SiteState {
                name: format!("s{i}"),
                latency: SimDuration::from_secs_f64(0.001 + rng.uniform() * 0.05),
                capacity_hint: cap,
                in_flight: (rng.uniform() * cap * 1.5) as u64,
                up: i % 16 != 15,
                forecast: WaitForecast {
                    lambda: rng.uniform() * f64::from(servers) * mu * 1.1,
                    mu,
                    servers,
                }
                .into(),
                flakiness: if i % 5 == 0 { rng.uniform() * 0.5 } else { 0.0 },
                warm: (rng.uniform() * 4.0) as u64,
                resources: lass_simcore::ResourceSnapshot::default(),
                fits: f64::INFINITY,
            }
        })
        .collect()
}

/// Measure one router over `sites`, returning ns/decision.
fn measure(kind: RouterKind, sites: &mut [SiteState], decisions: u64) -> f64 {
    let mut router = kind.build();
    // Warm-up (stateful routers settle their cursors and credits).
    for k in 0..64u64 {
        router.route(0, SimTime::from_secs(k), sites);
    }
    let start = Instant::now();
    let mut sink = 0usize;
    for k in 0..decisions {
        let i = router.route((k % 4) as u32, SimTime::from_secs(k), sites);
        sink = sink.wrapping_add(i);
        // Feed load back so decisions do not degenerate to one site.
        sites[i].in_flight = sites[i].in_flight.wrapping_add(1) % 64;
    }
    std::hint::black_box(sink);
    start.elapsed().as_secs_f64() * 1e9 / decisions as f64
}

/// Smoke-mode ceiling, ns/decision. Generous (CI machines are noisy and
/// slow), yet half the pre-optimization cost of the model-driven family
/// at 64 sites — an accidental return of per-decision `MmcQueue`
/// construction blows straight through it.
const SMOKE_CEILING_NS: f64 = 10_000.0;

fn main() {
    if std::env::var_os("ROUTER_BENCH_SMOKE").is_some() {
        let mut failed = false;
        for &n in &[2usize, 64] {
            for kind in RouterKind::ALL {
                let mut sites = make_sites(n);
                let ns = measure(kind, &mut sites, 20_000);
                let verdict = if ns > SMOKE_CEILING_NS {
                    failed = true;
                    "FAIL"
                } else {
                    "ok"
                };
                println!(
                    "smoke route/{}/{}: {:.1} ns/decision [{}]",
                    kind.as_str(),
                    n,
                    ns,
                    verdict
                );
            }
        }
        assert!(
            !failed,
            "a router exceeded the {SMOKE_CEILING_NS} ns/decision smoke ceiling — \
             was per-decision allocation reintroduced on the route hot path?"
        );
        return;
    }
    let mut c = Criterion::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    let decisions = 100_000u64;
    for &n in &[2usize, 8, 64] {
        let mut group = c.benchmark_group(format!("route_decision/{n}_sites"));
        group.throughput(Throughput::Elements(decisions));
        for kind in RouterKind::ALL {
            let mut sites = make_sites(n);
            let ns = measure(kind, &mut sites, decisions);
            rows.push(format!(
                "    {{ \"bench\": \"route/{}/{}\", \"ns_per_decision\": {:.1}, \
                 \"decisions\": {}, \"cores\": {} }}",
                kind.as_str(),
                n,
                ns,
                decisions,
                cores
            ));
            // Criterion-visible timing of the same routine (smaller
            // sample so the shim's wall-clock loop stays fast).
            let mut sites = make_sites(n);
            group.sample_size(3).bench_with_input(
                BenchmarkId::new(kind.as_str(), n),
                &n,
                |b, _| b.iter(|| measure(kind, &mut sites, 10_000)),
            );
        }
        group.finish();
    }
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    // Land the table at the workspace root whatever cwd cargo gave us.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routing.json");
    std::fs::write(path, &json).expect("write BENCH_routing.json");
    println!("(wrote BENCH_routing.json: {} rows)", rows.len());
}
