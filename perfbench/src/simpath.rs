//! Runs of one simulation configuration through `Simulation`, untraced,
//! behind the forwarding wrappers, or with a counting telemetry sink, and
//! the per-layer metrics a set of such runs yields.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fedco_core::experiment::SimConfig;
use fedco_sim::{EngineStats, SimResult, Simulation};

use crate::layers::{CoreStats, CountingSink, FlStats, ForwardingFactory, TimedService};
use crate::measure::{fingerprint, timed, Ledger};
use crate::report::LayerReport;

/// One untraced run: `Simulation::try_new` then `Simulation::run`.
#[derive(Debug)]
pub struct PlainRun {
    /// Seconds spent in `Simulation::try_new`.
    pub setup_s: f64,
    /// Seconds spent in `Simulation::run`.
    pub loop_s: f64,
    /// The result's fingerprint.
    pub fingerprint: u64,
    /// The simulated result.
    pub result: SimResult,
    /// Dense/fast-forward statistics of the run.
    pub stats: EngineStats,
}

/// Runs `config` untraced. A configuration the engine rejects is a
/// benchmark bug, so it panics with the engine's reason.
pub fn plain(config: &SimConfig) -> PlainRun {
    let (sim, setup_s) = timed(|| Simulation::try_new(config.clone()));
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    let mut sim = sim.unwrap_or_else(|e| panic!("invalid workload configuration: {e}"));
    let (result, loop_s) = timed(|| sim.run());
    PlainRun {
        setup_s,
        loop_s,
        fingerprint: fingerprint(&result),
        stats: sim.engine_stats(),
        result,
    }
}

/// Runs `config` with its policy behind a [`ForwardingFactory`] and its
/// parameter server behind a [`TimedService`]. Returns the loop seconds and
/// the result's fingerprint.
pub fn wrapped(
    config: &SimConfig,
    core: &Arc<CoreStats>,
    fl: &Arc<FlStats>,
    overhead_ns: u64,
) -> (f64, u64) {
    let mut config = config.clone();
    config.policy = ForwardingFactory::spec(config.policy, core.clone(), overhead_ns);
    let fl = fl.clone();
    let mut sim = Simulation::try_new(config)
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .unwrap_or_else(|e| panic!("invalid workload configuration: {e}"))
        .with_model_service(move |init| {
            Box::new(TimedService::new(
                init.into_parameter_server(),
                fl,
                overhead_ns,
            ))
        });
    let (result, loop_s) = timed(|| sim.run());
    (loop_s, fingerprint(&result))
}

/// Runs `config` with a [`CountingSink`] attached. Returns the loop
/// seconds and the result's fingerprint.
pub fn counted(config: &SimConfig, sink: &Arc<CountingSink>) -> (f64, u64) {
    let mut sim = Simulation::try_new(config.clone())
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .unwrap_or_else(|e| panic!("invalid workload configuration: {e}"))
        .with_telemetry(sink.clone());
    let (result, loop_s) = timed(|| sim.run());
    (loop_s, fingerprint(&result))
}

/// Maps `f` over `items` on `workers` scoped threads, keeping item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                done.lock()
                    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
                    .expect("a worker panicked while holding the result lock")[i] = Some(out);
            });
        }
    });
    done.into_inner()
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .expect("a worker panicked while holding the result lock")
        .into_iter()
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .map(|r| r.expect("scope joined every worker, so every item ran"))
        .collect()
}

/// Traces a workload made of `configs`, spread over `workers` threads: an
/// untraced pass (loop time and engine statistics), a pass behind the
/// forwarding wrappers (call counts and seam times) and a pass with a
/// counting sink (event counts). Loop times are summed over runs. Each
/// traced pass must reproduce the untraced results bit for bit; every
/// mismatch is a failed check in `ledger`.
pub fn trace_configs(
    configs: &[SimConfig],
    workers: usize,
    overhead_ns: u64,
    report: &mut LayerReport,
    ledger: &mut Ledger,
) {
    let runs = par_map(configs, workers, |config| {
        let run = plain(config);
        (run.loop_s, run.stats, run.fingerprint)
    });
    let mut untraced_s = 0.0;
    let mut stats = EngineStats::default();
    let mut dense_user_slots = 0.0;
    for ((loop_s, run_stats, _), config) in runs.iter().zip(configs) {
        untraced_s += loop_s;
        stats.dense_slots += run_stats.dense_slots;
        stats.fast_forwarded_slots += run_stats.fast_forwarded_slots;
        stats.spans += run_stats.spans;
        dense_user_slots += run_stats.dense_slots as f64 * config.num_users as f64;
    }
    ledger.ok(runs.len() as u64);

    let core = Arc::new(CoreStats::default());
    let fl = Arc::new(FlStats::default());
    let traced = par_map(configs, workers, |config| {
        wrapped(config, &core, &fl, overhead_ns)
    });
    let sink = Arc::new(CountingSink::default());
    let counted_runs = par_map(configs, workers, |config| counted(config, &sink));
    let mut traced_s = 0.0;
    let mut telemetry_s = 0.0;
    for ((run, (t_s, t_print)), (c_s, c_print)) in runs.iter().zip(&traced).zip(&counted_runs) {
        traced_s += t_s;
        telemetry_s += c_s;
        ledger.check(
            *t_print == run.2,
            "traced run differs from the untraced run",
        );
        ledger.check(
            *c_print == run.2,
            "run with a telemetry sink differs from the untraced run",
        );
    }

    let self_s = traced_s - core.seconds() - fl.seconds();
    report.set("sim.loop_s", untraced_s);
    report.set("sim.self_s", self_s);
    report.set(
        "sim.self_ns_per_dense_user_slot",
        if dense_user_slots > 0.0 {
            self_s * 1e9 / dense_user_slots
        } else {
            0.0
        },
    );
    report.set("sim.dense_slots", stats.dense_slots as f64);
    report.set(
        "sim.fast_forwarded_slots",
        stats.fast_forwarded_slots as f64,
    );
    report.set("sim.spans", stats.spans as f64);
    report.set("sim.skip_frac", stats.skip_fraction());
    report.core(&core);
    report.fl(&fl);
    report.set("telemetry.semantic_events", sink.semantic() as f64);
    report.set("telemetry.driver_events", sink.driver() as f64);
    report.set("telemetry.overhead_frac", telemetry_s / untraced_s - 1.0);
    report.set("trace.overhead_s", traced_s - untraced_s);
    report.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
}
