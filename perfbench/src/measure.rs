//! Measurement plumbing shared by every workload: order statistics, `/proc`
//! readings, result fingerprints, the operation/check ledger and the JSON
//! result line.

use std::fmt::Write as _;
// fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
use std::time::{Duration, Instant};

use fedco_sim::SimResult;

/// The end-to-end metrics every workload reports with tracing off, with
/// their units. `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with their units.
/// `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sim.loop_s", "s"),
    ("sim.self_s", "s"),
    ("sim.self_ns_per_dense_user_slot", "ns"),
    ("sim.dense_slots", "count"),
    ("sim.fast_forwarded_slots", "count"),
    ("sim.spans", "count"),
    ("sim.skip_frac", "share"),
    ("world.arrivals_s", "s"),
    ("world.arrivals", "count"),
    ("core.decide_calls", "count"),
    ("core.decide_s", "s"),
    ("core.idle_decide_frac", "share"),
    ("core.end_of_slot_calls", "count"),
    ("core.end_of_slot_s", "s"),
    ("core.ff_waiting_calls", "count"),
    ("core.ff_waiting_s", "s"),
    ("core.wakeup_queries", "count"),
    ("core.install_plan_calls", "count"),
    ("fl.apply_async_calls", "count"),
    ("fl.apply_async_s", "s"),
    ("fl.apply_sync_calls", "count"),
    ("fl.apply_sync_s", "s"),
    ("fl.download_calls", "count"),
    ("fl.download_s", "s"),
    ("neural.client_epoch_s", "s"),
    ("neural.eval_s", "s"),
    ("fleet.jobs", "count"),
    ("fleet.job_p50_ms", "ms"),
    ("fleet.job_p99_ms", "ms"),
    ("fleet.busy_frac", "share"),
    ("telemetry.semantic_events", "count"),
    ("telemetry.driver_events", "count"),
    ("telemetry.overhead_frac", "share"),
    ("server.handle_ns", "ns"),
    ("server.join_p99_us", "us"),
    ("server.pull_p99_us", "us"),
    ("server.push_p99_us", "us"),
    ("server.refused_frac", "share"),
    ("server.applied_frac", "share"),
    ("server.threads_max", "count"),
    ("server.requests", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "share"),
];

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The smallest of `values` (0 for an empty slice).
pub fn minimum(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A field of `/proc/<pid>/status` in its own unit (kB for memory fields),
/// `pid` being a process id or `"self"`.
pub fn proc_status(pid: &str, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    proc_status(pid, "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// FNV-1a over a string.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fingerprint of every simulated output of a run. `Debug` prints each
/// float as its shortest round-trip decimal, so two results share a
/// fingerprint exactly when their bits agree. The policy enters by label, so
/// a forwarding wrapper around a built-in compares equal to the built-in.
pub fn fingerprint(r: &SimResult) -> u64 {
    fnv1a(&format!(
        "{}|{:?}|{:?}|{}|{}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.policy.label(),
        r.total_energy_j,
        r.energy_by_component,
        r.total_updates,
        r.corun_epochs,
        r.mean_lag,
        r.max_lag,
        r.final_accuracy,
        r.final_queue,
        r.final_virtual_queue,
        r.mean_queue,
        r.mean_virtual_queue,
        r.trace,
        r.user_gaps,
        r.updates,
    ))
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Repeats `rep` until `budget` is spent: at least `min_reps` times, and no
/// more once another repetition as long as the last one would overrun it.
/// Stops early when `rep` returns `false`.
pub fn repeat_within(budget: Duration, min_reps: usize, mut rep: impl FnMut() -> bool) {
    // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
    let start = Instant::now();
    let mut done = 0;
    loop {
        // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
        let rep_start = Instant::now();
        if !rep() {
            return;
        }
        done += 1;
        if done >= min_reps && start.elapsed() + rep_start.elapsed() > budget {
            return;
        }
    }
}

/// Repeats `rep` on `copies` threads side by side until `budget` is spent
/// (at least once on each), and returns every repetition's output, thread
/// by thread. Each core of a shared host slows down and recovers on its
/// own, so one copy per core samples every core.
pub fn side_by_side<R: Send>(
    copies: usize,
    budget: Duration,
    rep: impl Fn() -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..copies.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut outs = Vec::new();
                    repeat_within(budget, 1, || {
                        outs.push(rep());
                        true
                    });
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
            .flat_map(|h| h.join().expect("a side-by-side copy panicked"))
            .collect()
    })
}

/// The operation ledger of a run: every job, run, request and correctness
/// check is one attempted operation; failed checks and failed operations
/// are counted against it.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ledger {
    /// Records `n` operations that completed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` operations that failed.
    pub fn fail(&mut self, n: u64, what: &str) {
        self.attempted += n;
        self.failed += n;
        eprintln!("perfbench: FAILED: {what}");
    }

    /// Records one correctness check.
    pub fn check(&mut self, passed: bool, what: &str) {
        if passed {
            self.ok(1);
        } else {
            self.fail(1, what);
        }
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Renders metrics as a JSON object of `{"value": …, "unit": …}` entries.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// A JSON number: integers without a fraction, floats with every digit of
/// their shortest round-trip form; non-finite values become 0 (and are
/// reported as failures by the caller's checks).
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}
