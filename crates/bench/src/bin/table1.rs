//! Experiment E1 — Table 1: the function catalog.
//!
//! Prints the functions used in the evaluation with their languages and
//! standard container sizes, plus the calibrated service-time parameters
//! this reproduction adds (see the README's per-experiment index).

use lass_bench::{header, row};
use lass_functions::{micro_benchmark, standard_catalog};

fn main() {
    println!("Table 1: Functions used in the evaluation experiments\n");
    let widths = [18, 22, 10, 10, 14, 12];
    header(
        &[
            "Function",
            "Language(s)",
            "vCPU",
            "Mem(MB)",
            "base svc (ms)",
            "slack (%)",
        ],
        &widths,
    );
    let mut all = vec![micro_benchmark(0.1)];
    all.extend(standard_catalog());
    for f in &all {
        row(
            &[
                &f.name,
                &f.languages,
                &format!("{:.1}", f.standard_cpu.as_cores()),
                &f.standard_mem.0,
                &format!("{:.0}", f.service.base_time * 1e3),
                &format!("{:.0}", f.service.slack() * 100.0),
            ],
            &widths,
        );
    }
    println!(
        "\n(vCPU / memory columns are Table 1 verbatim; base service time and\n\
         CPU slack are this reproduction's calibrated constants; see the\n\
         README's per-experiment index.)"
    );
}
