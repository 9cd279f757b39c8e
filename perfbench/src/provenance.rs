//! What produced a benchmark output: code, toolchain, host and settings.

use crate::workload::Plan;
use serde_json::Value;

fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One-line JSON record of what produced a run of `plan`: commit
/// (`unknown` outside a git work tree), `rustc --version`, available
/// parallelism, CPU model, the worker count handed to the sweeps and the
/// count the pool can actually use (no more than the jobs in the largest
/// single sweep or pool call), seed, telemetry, workload and trace mode.
pub fn line(plan: &Plan, trace: bool) -> String {
    // Each single-link cell is a one-job sweep; multi-hop and Fig 11 cells
    // go to the pool in one call each.
    let largest_call = [1, plan.multihop.len(), plan.coexist.len()]
        .into_iter()
        .max()
        .unwrap_or(1);
    let s = |x: &str| Value::Str(x.to_string());
    let v = Value::Object(vec![
        ("git_rev".into(), s(&git_rev())),
        ("rustc".into(), s(&rustc_version())),
        (
            "nproc".into(),
            Value::UInt(eac_bench::available_jobs() as u64),
        ),
        ("cpu_model".into(), s(&cpu_model())),
        ("workers_requested".into(), Value::UInt(plan.jobs as u64)),
        (
            "workers_used".into(),
            Value::UInt(plan.jobs.min(largest_call).max(1) as u64),
        ),
        ("seed".into(), Value::UInt(plan.seed)),
        ("telemetry".into(), Value::Bool(plan.telemetry)),
        ("workload".into(), s(plan.workload.name())),
        ("trace".into(), Value::Bool(trace)),
    ]);
    serde_json::to_string(&v).expect("provenance serializes")
}
