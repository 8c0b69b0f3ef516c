//! `lass-perfbench` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed S] [--seconds T | --reps N] [--trace [0|1]] [--out FILE]
//! ```
//!
//! One driver process runs each (workload, repetition) in a child
//! process of its own, one child at a time, interleaving workloads within
//! every round of repetitions. It keeps starting rounds while the next
//! one is expected to finish within `--seconds` per workload (at least
//! three rounds), or runs exactly `--reps` rounds. With `--trace` every
//! round also runs a traced child per workload, and the per-layer
//! metrics are reported instead of the end-to-end ones.
//!
//! Host times are CPU times, and between children the driver times a
//! fixed reference kernel ([`calib`]) in CPU time too. Every time a child
//! measured is reported in reference CPU seconds: divided by the host
//! slowdown the two kernel timings that bracket the child show. This takes
//! out most of the drift in a shared host's speed.
//!
//! Every metric prints by name with its unit as median, quartiles and
//! repetition count; the last line of standard output is a JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The command exits
//! non-zero when a run fails: a panic or error, a failed output check, or
//! a simulated-report digest that differs from the other repetitions of
//! the same seed. See `README.md` next to this file for the workloads,
//! metrics and bounds.

mod calib;
mod stats;
mod trace;
mod workloads;

use serde::Serialize;
use serde_json::{Map, Value};
use stats::{quartiles, HostFacts};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::Outcome;

/// End-to-end metrics, reported from untraced runs.
const END_TO_END: [(&str, &str); 4] = [
    ("sim_req_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("slo_attainment", "ratio"),
];

/// Per-layer metrics, reported from traced runs.
const PER_LAYER: [(&str, &str); 41] = [
    ("engine.events", "count"),
    ("engine.self_s", "s"),
    ("engine.self_share", "ratio"),
    ("engine.ns_per_event", "ns/event"),
    ("arrivals.calls", "count"),
    ("arrivals.share", "ratio"),
    ("arrivals.ns_per_call", "ns/call"),
    ("calendar.pushes", "count"),
    ("calendar.share", "ratio"),
    ("calendar.ns_per_push", "ns/push"),
    ("calendar.cancels", "count"),
    ("calendar.cancel_hit_ratio", "ratio"),
    ("federation.calls", "count"),
    ("federation.self_share", "ratio"),
    ("federation.ns_per_route", "ns/route"),
    ("router.decisions", "count"),
    ("router.share", "ratio"),
    ("router.ns_per_decision", "ns/decision"),
    ("site.calls", "count"),
    ("site.self_share", "ratio"),
    ("site.busy_max_over_mean", "ratio"),
    ("stats.completions", "count"),
    ("stats.share", "ratio"),
    ("stats.ns_per_completion", "ns/completion"),
    ("stats.withheld_ratio", "ratio"),
    ("parallel.threads", "count"),
    ("parallel.frontend_share", "ratio"),
    ("parallel.worker_share", "ratio"),
    ("parallel.unattributed_share", "ratio"),
    ("parallel.busy_ratio", "ratio"),
    ("controller.epochs", "count"),
    ("controller.overloaded_ratio", "ratio"),
    ("controller.failed_creates", "count"),
    ("cluster.reruns", "count"),
    ("hedge.clones", "count"),
    ("hedge.cancel_ratio", "ratio"),
    ("hedge.wasted_ratio", "ratio"),
    ("chaos.migrated", "count"),
    ("chaos.unroutable", "count"),
    ("chaos.downtime", "sim_sec"),
    ("trace.overhead_ratio", "ratio"),
];

/// Rounds run even when the time budget says otherwise, so every median
/// has at least this many samples.
const MIN_ROUNDS: usize = 3;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    out: Option<String>,
    child: Option<String>,
    spans: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: lass-perfbench [--workload NAME|all] [--seed S] [--seconds T | --reps N] \
         [--trace [0|1]] [--out FILE]\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::NAMES.to_vec(),
        seed: 1,
        seconds: 28.0,
        reps: None,
        trace: false,
        out: None,
        child: None,
        spans: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = match workloads::NAMES.iter().find(|n| **n == name) {
                    Some(n) => vec![*n],
                    None if name == "all" => workloads::NAMES.to_vec(),
                    None => return Err(format!("unknown workload {name:?}")),
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds needs a positive number, got {v:?}"))?;
            }
            "--reps" => {
                let v = value()?;
                args.reps = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(format!("--reps needs a positive whole number, got {v:?}"))?,
                );
            }
            "--trace" => {
                let explicit = it.next_if(|v| v == "0" || v == "1");
                args.trace = explicit.as_deref() != Some("0");
            }
            "--out" => args.out = Some(value()?),
            "--child" => args.child = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage();
    });
    if let Some(name) = &args.child {
        match workloads::run(name, args.seed, args.spans.as_deref()) {
            Ok(outcome) => {
                println!(
                    "{}",
                    serde_json::to_string(&outcome).expect("outcome serializes")
                );
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    std::process::exit(drive(&args));
}

/// One child run as the driver saw it.
struct Run {
    traced: bool,
    /// Host slowdown around the run, from the reference kernel timings
    /// that bracket it ([`calib::slowdown`]).
    slowdown: f64,
    outcome: Result<Outcome, String>,
}

/// Run one repetition of `workload` in a child process and wait for it.
fn spawn_child(workload: &str, seed: u64, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload, "--seed", &seed.to_string()]);
    if traced {
        let spans = format!(
            "{}/out/spans-{workload}-seed{seed}.jsonl",
            env!("CARGO_MANIFEST_DIR")
        );
        cmd.args(["--spans", &spans]);
    }
    match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
        Err(e) => Err(format!("starting child: {e}")),
        Ok(out) if !out.status.success() => Err(format!("child exited with {}", out.status)),
        Ok(out) => {
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("");
            serde_json::from_str::<Outcome>(last).map_err(|e| format!("child output: {e}"))
        }
    }
}

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Serialize)]
struct Summary {
    unit: &'static str,
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

fn summarize(unit: &'static str, values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    Summary {
        unit,
        median,
        q1,
        q3,
        n: values.len(),
    }
}

/// Everything the driver concluded about one workload.
#[derive(Debug, Serialize)]
struct Report {
    attempted: usize,
    failed: usize,
    sim_digest: String,
    problems: Vec<String>,
    metrics: BTreeMap<String, Summary>,
    /// Host slowdown around the untraced runs the metrics come from.
    host_slowdown: Summary,
    runs: Vec<Value>,
}

/// One end-to-end metric of one run; CPU times are divided by the host
/// `slowdown` around the run, so they read in reference CPU seconds.
fn end_to_end(o: &Outcome, slowdown: f64, metric: &str) -> f64 {
    match metric {
        "sim_req_per_cpu_s" => o.arrivals as f64 * slowdown / o.cpu_s,
        "setup_s" => o.setup_cpu_s / slowdown,
        "peak_rss_mib" => o.peak_rss_mib,
        "slo_attainment" => o.slo_met as f64 / o.arrivals.max(1) as f64,
        other => unreachable!("unknown end-to-end metric {other}"),
    }
}

fn judge(runs: Vec<Run>, trace: bool) -> Report {
    let mut problems = Vec::new();
    // The digest most repetitions agree on; a run that disagrees failed.
    let mut votes: BTreeMap<&str, usize> = BTreeMap::new();
    for o in runs.iter().filter_map(|r| r.outcome.as_ref().ok()) {
        *votes.entry(&o.sim_digest).or_default() += 1;
    }
    let digest = votes
        .iter()
        .max_by_key(|(_, n)| **n)
        .map_or(String::new(), |(d, _)| d.to_string());
    let mut good: Vec<(&Run, &Outcome)> = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let kind = if r.traced { "traced" } else { "untraced" };
        match &r.outcome {
            Err(e) => problems.push(format!("run {i} ({kind}): {e}")),
            Ok(o) => {
                let failed: Vec<_> = o.checks.iter().filter(|c| !c.ok).collect();
                for c in &failed {
                    problems.push(format!(
                        "run {i} ({kind}): check {} failed: {}",
                        c.name, c.detail
                    ));
                }
                if o.sim_digest != digest {
                    problems.push(format!(
                        "run {i} ({kind}): sim_digest {} differs from {digest}",
                        o.sim_digest
                    ));
                } else if failed.is_empty() {
                    good.push((r, o));
                }
            }
        }
    }
    let mut metrics = BTreeMap::new();
    let plain: Vec<_> = good.iter().filter(|(r, _)| !r.traced).collect();
    let traced: Vec<_> = good.iter().filter(|(r, _)| r.traced).collect();
    for (name, unit) in END_TO_END {
        let values: Vec<f64> = plain
            .iter()
            .map(|(r, o)| end_to_end(o, r.slowdown, name))
            .collect();
        metrics.insert(name.to_string(), summarize(unit, &values));
    }
    let slowdowns: Vec<f64> = plain.iter().map(|(r, _)| r.slowdown).collect();
    let host_slowdown = summarize("ratio", &slowdowns);
    if trace {
        let plain_rate = metrics["sim_req_per_cpu_s"].median;
        for (name, unit) in PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .map(|(r, o)| match name {
                    "trace.overhead_ratio" => {
                        1.0 - end_to_end(o, r.slowdown, "sim_req_per_cpu_s") / plain_rate
                    }
                    _ => o
                        .layers
                        .get(name)
                        .or(o.counts.get(name))
                        .copied()
                        .unwrap_or(0.0),
                })
                .collect();
            metrics.insert(name.to_string(), summarize(unit, &values));
        }
    }
    let failed = runs.len() - good.len();
    Report {
        attempted: runs.len(),
        failed,
        sim_digest: digest,
        problems,
        metrics,
        host_slowdown,
        runs: runs
            .into_iter()
            .map(|r| match r.outcome {
                Ok(o) => {
                    let mut v = serde_json::to_value(&o);
                    if let Value::Object(m) = &mut v {
                        m.insert("host_slowdown".into(), r.slowdown.serialize());
                    }
                    v
                }
                Err(e) => Value::String(e),
            })
            .collect(),
    }
}

fn drive(args: &Args) -> i32 {
    let start = Instant::now();
    let budget = args.seconds * args.workloads.len() as f64;
    let mut runs: BTreeMap<&str, Vec<Run>> = BTreeMap::new();
    let mut rounds = 0;
    let parallel = args.workloads.iter().any(|w| workloads::threads(w) > 1);
    let mut kernel = calib::Kernel::new(parallel);
    let mut before = kernel.time();
    let mut run = |w: &str, traced: bool| {
        let outcome = spawn_child(w, args.seed, traced);
        let after = kernel.time();
        let slowdown = calib::slowdown(before, after, workloads::threads(w));
        before = after;
        Run {
            traced,
            slowdown,
            outcome,
        }
    };
    loop {
        let done = match args.reps {
            Some(n) => rounds >= n,
            None => {
                let elapsed = start.elapsed().as_secs_f64();
                rounds >= MIN_ROUNDS && elapsed + elapsed / rounds as f64 > budget
            }
        };
        if done {
            break;
        }
        for &w in &args.workloads {
            let list = runs.entry(w).or_default();
            list.push(run(w, false));
            if args.trace {
                list.push(run(w, true));
            }
        }
        rounds += 1;
    }

    let host = HostFacts::collect();
    println!(
        "# host: nproc={} cpu={:?} {} git={} profile={}",
        host.nproc, host.cpu_model, host.rustc, host.git_head, host.profile
    );
    println!(
        "# seed={} rounds={rounds} trace={} wall={:.1}s",
        args.seed,
        args.trace,
        start.elapsed().as_secs_f64()
    );
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut line_metrics = Map::new();
    let mut reports = BTreeMap::new();
    for &w in &args.workloads {
        let report = judge(runs.remove(w).unwrap_or_default(), args.trace);
        attempted += report.attempted;
        failed += report.failed;
        println!(
            "{w}: {} runs, {} failed, sim_digest {}, host slowdown {} (q1 {} q3 {})",
            report.attempted,
            report.failed,
            report.sim_digest,
            report.host_slowdown.median,
            report.host_slowdown.q1,
            report.host_slowdown.q3
        );
        for p in &report.problems {
            println!("  FAILED {p}");
        }
        let reported = if args.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        // Traced runs show the end-to-end metrics too, for context.
        let shown = if args.trace { &END_TO_END[..] } else { &[] };
        for (name, _) in shown.iter().chain(reported) {
            let s = &report.metrics[*name];
            println!(
                "  {name:<30} {:>16} {:<13} q1 {} q3 {} n {}",
                s.median, s.unit, s.q1, s.q3, s.n
            );
        }
        for (name, unit) in reported {
            let key = if single {
                name.to_string()
            } else {
                format!("{w}/{name}")
            };
            let mut m = Map::new();
            m.insert("value".into(), report.metrics[*name].median.serialize());
            m.insert("unit".into(), unit.serialize());
            line_metrics.insert(key, Value::Object(m));
        }
        reports.insert(w.to_string(), report);
    }
    let correct = failed == 0 && attempted > 0;
    if let Some(path) = &args.out {
        let mut doc = Map::new();
        doc.insert("host".into(), host.serialize());
        doc.insert("seed".into(), args.seed.serialize());
        doc.insert("rounds".into(), rounds.serialize());
        doc.insert("trace".into(), args.trace.serialize());
        doc.insert("correct".into(), correct.serialize());
        doc.insert("workloads".into(), reports.serialize());
        let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("results serialize");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
    }
    let mut line = Map::new();
    line.insert("correct".into(), correct.serialize());
    line.insert("attempted".into(), attempted.serialize());
    line.insert("failed".into(), failed.serialize());
    line.insert("metrics".into(), Value::Object(line_metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(line)).expect("result serializes")
    );
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics (with units) this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.as_object().expect("object")[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    m.as_object().expect("entry")[field]
                        .as_str()
                        .expect("string")
                        .to_string()
                })
                .collect()
        };
        let pairs = |t: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .unzip()
        };
        assert_eq!(list("workloads", "name"), workloads::NAMES);
        let (names, units) = pairs(&END_TO_END);
        assert_eq!(
            (list("end_to_end", "name"), list("end_to_end", "unit")),
            (names, units)
        );
        let (names, units) = pairs(&PER_LAYER);
        assert_eq!(
            (list("per_layer", "name"), list("per_layer", "unit")),
            (names, units)
        );
    }
}
