//! `lass-sim` — run a declarative JSON scenario through the simulator
//! and print the per-function report.
//!
//! The scenario's `"policy"` field picks the scheduler: `"lass"` (the
//! paper's controller, default), `"static-rr"` (fixed pools, round-robin
//! dispatch), `"knative"` (concurrency-target autoscaling), or
//! `"openwhisk"` (the §6.6 sharding-pool baseline). An optional
//! `"topology"` block federates the run across several cluster sites
//! behind a front-end router (see `scenarios/federated-*.json`), and an
//! optional `"chaos"` block injects site crashes, router↔site
//! partitions, and container-crash bursts with cross-site migration
//! (see `scenarios/chaos-*.json`).
//!
//! ```sh
//! cargo run --bin lass-sim -- scenarios/demo.json [--json out.json]
//! ```

use lass::scenario::{Scenario, ScenarioReport};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: lass-sim <scenario.json> [--json <report.json>]");
        std::process::exit(2);
    };
    let json_out = match (args.next().as_deref(), args.next()) {
        (Some("--json"), Some(p)) => Some(p),
        (None, _) => None,
        _ => {
            eprintln!("usage: lass-sim <scenario.json> [--json <report.json>]");
            std::process::exit(2);
        }
    };

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(1);
    });
    let scenario = Scenario::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let report = scenario.run_report().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    println!("policy: {}\n", scenario.policy.as_str());
    match report {
        ScenarioReport::Lass(mut report) => {
            println!(
                "{:>4} {:>18} {:>9} {:>9} {:>7} {:>10} {:>10} {:>8}",
                "fn", "name", "arrivals", "done", "rerun", "p95W(ms)", "p99W(ms)", "attain"
            );
            for (id, f) in report.per_fn.iter_mut() {
                println!(
                    "{:>4} {:>18} {:>9} {:>9} {:>7} {:>10.1} {:>10.1} {:>8.3}",
                    id,
                    f.name,
                    f.arrivals,
                    f.completed,
                    f.reruns,
                    f.wait.percentile(0.95).unwrap_or(0.0) * 1e3,
                    f.wait.percentile(0.99).unwrap_or(0.0) * 1e3,
                    f.slo_attainment()
                );
            }
            println!(
                "\ncluster: {:.1}% allocated / {:.1}% busy; {} of {} epochs overloaded; {} failed creates",
                report.allocated_utilization * 100.0,
                report.busy_utilization * 100.0,
                report.overloaded_epochs,
                report.epochs,
                report.failed_creates
            );
            write_json(json_out.as_deref(), &report);
        }
        ScenarioReport::OpenWhisk(mut report) => {
            println!(
                "{:>4} {:>18} {:>9} {:>9} {:>7} {:>10} {:>8}",
                "fn", "name", "arrivals", "done", "lost", "p95W(ms)", "viol"
            );
            for (id, f) in report.per_fn.iter_mut() {
                println!(
                    "{:>4} {:>18} {:>9} {:>9} {:>7} {:>10.1} {:>8}",
                    id,
                    f.name,
                    f.arrivals,
                    f.completed,
                    f.lost,
                    f.wait.percentile(0.95).unwrap_or(0.0) * 1e3,
                    f.slo_violations
                );
            }
            println!("\noutstanding at end: {}", report.outstanding);
            if report.failures.is_empty() {
                println!("no invoker failures");
            } else {
                for (inv, t) in &report.failures {
                    println!("invoker {inv} went unresponsive at {t:.1}s");
                }
                if let Some(t) = report.cascade_complete_at {
                    println!("cascade completed at {t:.1}s");
                }
            }
            write_json(json_out.as_deref(), &report);
        }
        ScenarioReport::Federated(mut report) => {
            println!("router: {}\n", report.router);
            println!(
                "{:>10} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6} {:>8} {:>6} {:>10} {:>12}",
                "site",
                "lat(ms)",
                "routed",
                "done",
                "t/o",
                "migr",
                "fail",
                "down(s)",
                "flaky",
                "p95W(ms)",
                "util c/m/b"
            );
            for site in report.per_site.iter_mut() {
                let (mut done, mut timeouts) = (0, 0);
                let mut waits = lass_simcore::SampleStats::new();
                for f in site.report.per_fn.values() {
                    done += f.completed;
                    timeouts += f.timeouts;
                    for &w in f.wait.samples() {
                        waits.record(w);
                    }
                }
                // Per-dimension end-of-run utilization (cpu/mem/bw, in
                // percent).
                let [cpu, mem, bw] = site.utilization.map(|u| u * 100.0);
                let util = format!("{cpu:.0}/{mem:.0}/{bw:.0}%");
                println!(
                    "{:>10} {:>9.1} {:>9} {:>9} {:>7} {:>7} {:>6} {:>8.1} {:>6.2} {:>10.1} {:>12}",
                    site.name,
                    site.latency_secs * 1e3,
                    site.routed,
                    done,
                    timeouts,
                    site.migrated,
                    site.failed,
                    site.downtime_secs,
                    site.flakiness,
                    waits.percentile(0.95).unwrap_or(0.0) * 1e3,
                    util,
                );
            }
            if report.unroutable > 0 {
                println!(
                    "\n{} arrivals shed at the front door (no routable site)",
                    report.unroutable
                );
            }
            println!(
                "\n{:>4} {:>18} {:>9} {:>9} {:>7} {:>10} {:>10}",
                "fn", "name", "arrivals", "done", "lost", "p95W(ms)", "p99W(ms)"
            );
            for (id, f) in report.aggregate_per_fn.iter_mut().enumerate() {
                println!(
                    "{:>4} {:>18} {:>9} {:>9} {:>7} {:>10.1} {:>10.1}",
                    id,
                    f.name,
                    f.arrivals,
                    f.completed,
                    f.lost,
                    f.wait.percentile(0.95).unwrap_or(0.0) * 1e3,
                    f.wait.percentile(0.99).unwrap_or(0.0) * 1e3,
                );
            }
            println!("\noutstanding at end: {}", report.outstanding);
            write_json(json_out.as_deref(), &report);
        }
    }
}

/// Serialize and write the report only when `--json` was requested.
fn write_json<T: serde::Serialize>(path: Option<&str>, report: &T) {
    let Some(p) = path else { return };
    let json = serde_json::to_string_pretty(report).expect("serializable");
    std::fs::write(p, json).unwrap_or_else(|e| {
        eprintln!("error: writing {p}: {e}");
        std::process::exit(1);
    });
    eprintln!("(wrote {p})");
}
