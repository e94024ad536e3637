//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--serve-bin PATH]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A `# workload {…}` line before it carries the workload's
//! own outputs (energy saving, accuracy, request latency, …). Exits with 1
//! when a correctness check or an operation failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::layers::timer_overhead_ns;
use perfbench::report::{metric, print_info, print_result};
use perfbench::{run_workload, Ctx, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
[--serve-bin PATH]";

fn parse() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        overhead_ns: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--serve-bin" => ctx.serve_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    let (workload, mut ctx) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    ctx.overhead_ns = timer_overhead_ns();
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    let mut out = run_workload(&workload, &ctx).expect("workload name was validated");
    let metrics = if ctx.trace {
        out.layers.metrics()
    } else {
        out.e2e.metrics()
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        out.ledger
            .fail(1, &format!("{} is not a finite number", m.name));
    }
    let ledger = &out.ledger;
    let mut info = out.info.clone();
    info.push(metric(
        "failed_frac",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "share",
    ));
    if ctx.trace {
        info.push(metric("timer_overhead_ns", ctx.overhead_ns as f64, "ns"));
        println!("# layers {}", out.layers.layers().join(","));
    }
    print_info("workload", &info);
    print_result(ledger.attempted, ledger.failed, &metrics);
    if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
