//! Outside-in benchmark of the fedco workspace.
//!
//! Three workloads run through the program's public entry points only:
//! `sweep-paper` (the paper grid through `fedco_fleet::run_grid`),
//! `ml-fig5` (the Fig. 5 runs with real LeNet training) and `served-churn`
//! (the `fedco-serve` binary under a closed-loop churning client
//! population). An untraced run prints the end-to-end metrics; a traced run
//! prints the per-layer metrics, measured through forwarding wrappers
//! around the public seams and standalone calls of layer functions. See
//! `README.md` next to this crate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod layers;
pub mod measure;
pub mod report;
pub mod served;
pub mod simpath;
pub mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use measure::{Ledger, Metric};
use report::{EndToEnd, LayerReport};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sweep-paper", "ml-fig5", "served-churn"];

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed: every input is derived from it.
    pub seed: u64,
    /// Seconds the measured phase should last.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `fedco-serve` binary (served workload only).
    pub serve_bin: Option<PathBuf>,
    /// Timer overhead subtracted from each timed seam call, in ns.
    pub overhead_ns: u64,
}

impl Ctx {
    /// The measured phase's time budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations, checks included.
    pub ledger: Ledger,
    /// End-to-end metrics (untraced runs).
    pub e2e: EndToEnd,
    /// Per-layer metrics (traced runs).
    pub layers: LayerReport,
    /// Workload-specific outputs printed on the `# workload` line.
    pub info: Vec<Metric>,
}

/// Runs the named workload. Returns `None` for an unknown name.
pub fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    let mut out = Outcome::default();
    match name {
        "sweep-paper" => workloads::sweep(ctx, &mut out),
        "ml-fig5" => workloads::ml(ctx, &mut out),
        "served-churn" => served::served(ctx, &mut out),
        _ => return None,
    }
    Some(out)
}
