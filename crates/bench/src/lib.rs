//! Shared plumbing for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the LaSS
//! paper (see DESIGN.md's per-experiment index). They print the paper's
//! rows/series to stdout and, with `--json <path>`, also dump
//! machine-readable results.

#![warn(missing_docs)]

use std::fmt::Display;

/// Common command-line options for harnesses.
#[derive(Debug, Clone, Default)]
pub struct HarnessOpts {
    /// Shrink experiment durations for a fast smoke run (`--quick`).
    pub quick: bool,
    /// Master seed (`--seed N`, default 42).
    pub seed: u64,
    /// Optional JSON output path (`--json PATH`).
    pub json: Option<String>,
}

impl HarnessOpts {
    /// Parse from `std::env::args`.
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts {
            quick: false,
            seed: 42,
            json: None,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    i += 1;
                    opts.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer");
                }
                "--json" => {
                    i += 1;
                    opts.json = Some(args.get(i).expect("--json needs a path").clone());
                }
                other => {
                    eprintln!(
                        "warning: unknown argument {other} (supported: --quick, --seed N, --json PATH)"
                    );
                }
            }
            i += 1;
        }
        opts
    }

    /// `full` normally, `quick` under `--quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Write JSON results if `--json` was given.
    pub fn maybe_write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            let text = serde_json::to_string_pretty(value).expect("serializable results");
            std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("(wrote {path})");
        }
    }
}

/// Print a fixed-width table row.
pub fn row(cells: &[&dyn Display], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", c, width = w));
    }
    println!("{}", line.trim_end());
}

/// Print a header row followed by a separator.
pub fn header(names: &[&str], widths: &[usize]) {
    let cells: Vec<&dyn Display> = names.iter().map(|n| n as &dyn Display).collect();
    row(&cells, widths);
    let total: usize = widths.iter().map(|w| w + 2).sum();
    println!("{}", "-".repeat(total));
}

/// Format seconds as milliseconds with two decimals.
pub fn ms(secs: f64) -> String {
    format!("{:.2}", secs * 1e3)
}

/// Cores available to this process (1 if unknown). Every committed
/// bench row records it, so no speedup is read off an oversubscribed
/// host.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Rewrite the JSON array of bench rows at `path`: the rows whose
/// `bench` name starts with `prefix` are replaced by `rows` (one JSON
/// object each) and every other row is kept, so the harnesses sharing
/// one file regenerate independently. Returns the rows written.
pub fn merge_bench_rows(path: &str, prefix: &str, rows: Vec<String>) -> usize {
    let old = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::parse(&text).ok());
    let old = old.as_ref().and_then(|v| v.as_array());
    let mut all: Vec<String> = old
        .into_iter()
        .flatten()
        .filter(|row| {
            !row.as_object()
                .and_then(|o| o.get("bench"))
                .and_then(|b| b.as_str())
                .is_some_and(|name| name.starts_with(prefix))
        })
        .map(|row| serde_json::to_string(row).expect("row serializes"))
        .collect();
    all.extend(rows);
    let lines: Vec<String> = all.iter().map(|row| format!("    {row}")).collect();
    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    all.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_honours_quick() {
        let mut o = HarnessOpts::default();
        assert_eq!(o.pick(10, 1), 10);
        o.quick = true;
        assert_eq!(o.pick(10, 1), 1);
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(0.1), "100.00");
        assert_eq!(ms(0.0005), "0.50");
    }
}
