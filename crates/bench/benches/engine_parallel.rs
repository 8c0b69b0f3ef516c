//! Parallel-federation speedup: replay the same Zipf workload through
//! the conservative-synchronization executor at 1/2/4/8 worker threads
//! over 8/64/256-site topologies and record speedup versus the
//! single-thread run of the same configuration.
//!
//! The determinism contract makes this an apples-to-apples measurement:
//! every thread count produces byte-identical reports, so the rows
//! differ only in wall-clock time. Rows are **merged** into
//! `BENCH_engine.json` alongside the `engine_throughput` rows (each
//! harness owns the rows whose `bench` name carries its prefix and
//! preserves the other's).
//!
//! With `ENGINE_BENCH_SMOKE` set, the run shrinks to one 64-site
//! configuration and **fails** (non-zero exit) unless 4 worker threads
//! beat 1 by ≥1.5× — the CI tripwire against serializing the worker
//! phase (an accidental global lock, a barrier per event instead of per
//! window). The tripwire needs real cores: on machines with fewer than
//! 4 it prints a loud skip and exits green, because a speedup target on
//! an oversubscribed core measures the scheduler, not the executor.

use lass::replay::{run_replay, ReplayConfig, ReplaySummary};
use lass_bench::{cores, merge_bench_rows};

/// One parallel replay: `sites` sites, uniform 5 ms inbound hop (the
/// conservative lookahead), load scaled with the site count so every
/// topology keeps its sites busy.
fn replay(sites: usize, threads: usize, minutes: usize) -> ReplaySummary {
    let summary = run_replay(&ReplayConfig {
        functions: 1_000,
        minutes,
        seed: 42,
        total_rps: 40.0 * sites as f64,
        sites,
        parallel: Some(threads),
        site_latency_ms: Some(5.0),
        ..ReplayConfig::default()
    })
    .expect("replay runs");
    assert!(summary.conserved, "request conservation violated");
    assert_eq!(summary.threads, threads, "parallel run fell back");
    summary
}

const SMOKE_SPEEDUP_FLOOR: f64 = 1.5;

fn main() {
    let cores = cores();
    if std::env::var_os("ENGINE_BENCH_SMOKE").is_some() {
        if cores < 4 {
            eprintln!(
                "SKIPPING engine_parallel smoke tripwire: {cores} core(s) available, \
                 need >= 4 to measure a speedup target honestly"
            );
            return;
        }
        let base = replay(64, 1, 2);
        let wide = replay(64, 4, 2);
        let speedup = base.wall_secs / wide.wall_secs;
        println!(
            "smoke engine_parallel/64sites: 1thr {:.2}s, 4thr {:.2}s -> {speedup:.2}x",
            base.wall_secs, wide.wall_secs
        );
        assert!(
            speedup >= SMOKE_SPEEDUP_FLOOR,
            "4-thread/64-site speedup {speedup:.2}x fell below the {SMOKE_SPEEDUP_FLOOR}x \
             tripwire — did the worker phase pick up a global lock or a per-event barrier?"
        );
        return;
    }

    let mut rows = Vec::new();
    for &sites in &[8usize, 64, 256] {
        let minutes = if sites >= 256 { 2 } else { 5 };
        // Unmeasured warm-up: the first replay at a new scale pays the
        // allocator's page faults for everyone after it.
        replay(sites, 1, 1);
        let mut base_wall = None;
        for &threads in &[1usize, 2, 4, 8] {
            // Best-of-2 to damp scheduler noise (this often runs on
            // shared or single-core CI hosts — see the cores field).
            let first = replay(sites, threads, minutes);
            let second = replay(sites, threads, minutes);
            let summary = if second.wall_secs < first.wall_secs {
                second
            } else {
                first
            };
            let base = *base_wall.get_or_insert(summary.wall_secs);
            let speedup = base / summary.wall_secs;
            println!(
                "engine_parallel/{sites}sites/{threads}thr: {:.2}s wall, {speedup:.2}x, \
                 {:.2}M sim req/wall-min",
                summary.wall_secs,
                summary.sim_req_per_wall_min / 1e6
            );
            rows.push(format!(
                "{{ \"bench\": \"engine_parallel/{sites}sites/{threads}thr\", \
                 \"sim_req_per_wall_min\": {:.0}, \"arrivals\": {}, \"wall_secs\": {:.3}, \
                 \"speedup_vs_1thr\": {speedup:.2}, \"cores\": {cores} }}",
                summary.sim_req_per_wall_min, summary.arrivals, summary.wall_secs,
            ));
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let n = merge_bench_rows(path, "engine_parallel/", rows);
    println!("(merged BENCH_engine.json: {n} rows)");
}
