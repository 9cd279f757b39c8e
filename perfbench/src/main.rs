//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced, pass after pass, for
//! `--seconds` seconds and prints the end-to-end metrics (medians over
//! passes). With `--trace 1` it prints the per-layer metrics of one traced
//! run. Either way the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the process exits
//! 1 when any correctness check failed and 2 on a usage error. See
//! `README.md` beside this file.

mod check;
mod layers;
mod metrics;
mod procfs;
mod provenance;
mod rebuild;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Plan, Workload, BENCH};

/// Set-up is measured this many times per run; the median is reported.
const SETUP_REPEATS: usize = 25;

/// Where runs write results and telemetry, relative to the checkout root.
const OUT_ROOT: &str = ".perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(" "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = value("--workload");
    let workload = Workload::from_name(&workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let seed = value("--seed")
        .parse::<u64>()
        .unwrap_or_else(|_| usage("--seed takes a non-negative integer"));
    let seconds = value("--seconds")
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or_else(|| usage("--seconds takes a positive number"));
    let trace = match value("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

fn median(xs: &[f64]) -> f64 {
    stats::summarize(xs).median
}

fn main() {
    let args = parse_args();
    let out = PathBuf::from(OUT_ROOT).join(args.workload.name());
    workload::fresh_dir(&out);
    // Results go to the run's own directory, never to the repository's
    // `results/`. Set before any thread exists.
    std::env::set_var("EAC_RESULTS_DIR", out.join("results"));

    let plan = Plan::new(args.workload, args.seed, &BENCH);
    println!("provenance {}", provenance::line(&plan, args.trace));
    if args.trace {
        run_traced(&plan, &out);
    } else {
        run_end_to_end(&plan, &out, args.seconds);
    }
}

fn finish(correct: bool, failures: &[String], line: String) -> ! {
    for f in failures {
        eprintln!("FAILED: {f}");
    }
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}

fn run_end_to_end(plan: &Plan, out: &Path, seconds: f64) {
    let mut failures: Vec<String> = Vec::new();
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| workload::setup_once(plan))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| {
            failures.push(e);
            Vec::new()
        });

    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        passes.push(workload::run_pass(plan, out));
    }

    // Fig 11 reports carry no event count; the untimed rebuild of each
    // cell fires exactly the library's events and must reproduce its
    // report.
    let mut coexist_events = 0;
    for (i, cx) in plan.coexist.iter().enumerate() {
        let outcome = layers::finish(rebuild::coexist(cx, false), false);
        match (outcome, &passes[0].coexist[i]) {
            (Ok((mut cell, tr)), Some(r)) => {
                if rebuild::same_coexist(&cell.coexist_report(cx), r) {
                    coexist_events += tr.events;
                } else {
                    failures.push(format!(
                        "fig11 cell {i}: rebuild differs from the library run"
                    ));
                }
            }
            (Err(e), _) => failures.push(format!("fig11 cell {i} rebuild: {e}")),
            (_, None) => {}
        }
    }

    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failed_cells: usize = passes.iter().map(|p| p.failures.len()).sum();
    for p in &passes {
        failures.extend(p.failures.iter().cloned());
    }
    let digest = &passes[0].digest;
    if passes.iter().any(|p| &p.digest != digest) {
        failures.push("results differ between passes of the same seed".into());
    }
    println!("report_digest {} {digest}", plan.workload.name());

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| (p.events + coexist_events) as f64 / p.wall_s)
        .collect();
    let cells: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_s.iter().copied())
        .collect();
    for (name, xs) in [
        ("wall_s", &walls),
        ("cpu_s", &cpus),
        ("events_per_s", &rates),
        ("setup_s", &setups),
        ("cell_s", &cells),
    ] {
        if !xs.is_empty() {
            println!("stats {name} {}", stats::summarize(xs).line());
        }
    }
    println!("events_per_pass {}", passes[0].events + coexist_events);

    let correct = failures.is_empty();
    let values = [
        ("wall_s", median(&walls)),
        (
            "setup_s",
            if setups.is_empty() {
                0.0
            } else {
                median(&setups)
            },
        ),
        ("cpu_s", median(&cpus)),
        ("events_per_s", median(&rates)),
        ("peak_rss_mb", procfs::peak_rss_mb()),
        (
            "ok_frac",
            (attempted - failed_cells) as f64 / attempted.max(1) as f64,
        ),
    ];
    let line = metrics::result_line(
        correct,
        attempted as u64,
        failures.len() as u64,
        &metrics::END_TO_END,
        &values,
    );
    finish(correct, &failures, line);
}

fn run_traced(plan: &Plan, out: &Path) {
    let t = layers::traced(plan, out);
    println!("report_digest {} {}", plan.workload.name(), t.pass.digest);
    println!("stats cell_s {}", stats::summarize(&t.pass.cell_s).line());
    let correct = t.failures.is_empty();
    let line = metrics::result_line(
        correct,
        t.attempted as u64,
        t.failures.len() as u64,
        &metrics::PER_LAYER,
        &t.values,
    );
    finish(correct, &t.failures, line);
}
