//! End-to-end engine throughput: replay a synthesized Zipf workload for
//! 10³ / 10⁴ / 10⁵ distinct functions through the federated engine
//! (event calendar, arena request table, streaming per-function
//! statistics) and measure simulated requests processed per wall-clock
//! minute.
//!
//! Besides the criterion output, the run merges one row per scale into
//! `BENCH_engine.json` (workspace root), replacing its own `engine/`
//! rows and keeping the `engine_parallel` ones. Each row records the
//! host's core count. The acceptance bar for the engine stack is ≥10⁷
//! simulated requests per wall-clock minute at the 10⁴-function scale.
//!
//! With `ENGINE_BENCH_SMOKE` set, the run instead replays a short burst
//! at the 10³ scale and **fails** (non-zero exit) if throughput drops
//! below a deliberately generous floor — the CI tripwire against
//! re-introducing per-event allocation or O(total-events) calendar
//! operations on the hot loop.

use criterion::{BenchmarkId, Criterion, Throughput};
use lass::replay::{run_replay, ReplayConfig};
use lass_bench::{cores, merge_bench_rows};

/// One replay at `functions` scale; rates scale with the function count
/// so every scale keeps meaningful per-function traffic.
fn replay_at(functions: usize, minutes: usize) -> lass::replay::ReplaySummary {
    let cfg = ReplayConfig {
        functions,
        minutes,
        seed: 42,
        total_rps: functions as f64 / 2.0,
        ..ReplayConfig::default()
    };
    let summary = run_replay(&cfg).expect("replay runs");
    assert!(summary.conserved, "request conservation violated");
    summary
}

/// Smoke-mode floor, simulated requests per wall-clock minute at the
/// 10³-function scale. Debug builds on noisy CI machines run ~50×
/// slower than release, so the floor sits far below the release-mode
/// acceptance number (≥10⁷ at 10⁴ functions) — it only trips on
/// complexity regressions (per-event allocation, linear calendar
/// scans), not machine jitter.
const SMOKE_FLOOR_REQ_PER_MIN: f64 = 20_000.0;

fn main() {
    if std::env::var_os("ENGINE_BENCH_SMOKE").is_some() {
        let summary = replay_at(1_000, 5);
        println!(
            "smoke engine/1000 fns: {:.0} sim req/wall-min ({} arrivals in {:.2}s)",
            summary.sim_req_per_wall_min, summary.arrivals, summary.wall_secs
        );
        assert!(
            summary.sim_req_per_wall_min >= SMOKE_FLOOR_REQ_PER_MIN,
            "engine throughput fell below the {SMOKE_FLOOR_REQ_PER_MIN} req/min smoke floor — \
             was per-event allocation or a linear calendar scan reintroduced on the hot loop?"
        );
        return;
    }
    let mut c = Criterion::default();
    let mut rows = Vec::new();
    let mut group = c.benchmark_group("engine_throughput");
    for &(functions, minutes) in &[(1_000usize, 10usize), (10_000, 10), (100_000, 5)] {
        let summary = replay_at(functions, minutes);
        rows.push(format!(
            "{{ \"bench\": \"engine/{}fns/{}min\", \"sim_req_per_wall_min\": {:.0}, \
             \"arrivals\": {}, \"wall_secs\": {:.3}, \"servers_per_site\": {}, \"cores\": {} }}",
            functions,
            minutes,
            summary.sim_req_per_wall_min,
            summary.arrivals,
            summary.wall_secs,
            summary.servers_per_site,
            cores()
        ));
        println!(
            "engine/{functions} fns: {:.2}M sim req/wall-min",
            summary.sim_req_per_wall_min / 1e6
        );
        // Criterion-visible timing of a shortened replay at the same
        // scale (1 minute, single sample: each iteration is seconds).
        group.throughput(Throughput::Elements(summary.arrivals as u64));
        group.sample_size(2).bench_with_input(
            BenchmarkId::new("replay", functions),
            &functions,
            |b, &n| b.iter(|| replay_at(n, 1)),
        );
    }
    group.finish();
    // Land the table at the workspace root whatever cwd cargo gave us.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let n = merge_bench_rows(path, "engine/", rows);
    println!("(merged BENCH_engine.json: {n} rows)");
}
