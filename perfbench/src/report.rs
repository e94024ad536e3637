//! The per-layer report of a traced run and the lines a run prints.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use crate::layers::{CoreStats, FlStats};
use crate::measure::{metrics_json, Metric, END_TO_END, PER_LAYER};

/// Per-layer values of a traced run, keyed by metric name. Layers the
/// workload does not run stay unset and print as 0.
#[derive(Debug, Default)]
pub struct LayerReport {
    values: BTreeMap<&'static str, f64>,
}

impl LayerReport {
    /// Sets one metric. Panics on a name missing from [`PER_LAYER`], which
    /// is a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Sets the `core.*` metrics from a forwarding factory's stats.
    pub fn core(&mut self, core: &CoreStats) {
        let decides = core.decide.calls();
        let idle = core.idle_decides.load(Ordering::Relaxed);
        self.set("core.decide_calls", decides as f64);
        self.set("core.decide_s", core.decide.seconds());
        self.set(
            "core.idle_decide_frac",
            if decides == 0 {
                0.0
            } else {
                idle as f64 / decides as f64
            },
        );
        self.set("core.end_of_slot_calls", core.end_of_slot.calls() as f64);
        self.set("core.end_of_slot_s", core.end_of_slot.seconds());
        self.set("core.ff_waiting_calls", core.ff_waiting.calls() as f64);
        self.set("core.ff_waiting_s", core.ff_waiting.seconds());
        self.set("core.wakeup_queries", core.wakeup.calls() as f64);
        self.set("core.install_plan_calls", core.install_plan.calls() as f64);
    }

    /// Sets the `fl.*` metrics from a timed service's stats.
    pub fn fl(&mut self, fl: &FlStats) {
        self.set("fl.apply_async_calls", fl.apply_async.calls() as f64);
        self.set("fl.apply_async_s", fl.apply_async.seconds());
        self.set("fl.apply_sync_calls", fl.apply_sync.calls() as f64);
        self.set("fl.apply_sync_s", fl.apply_sync.seconds());
        self.set("fl.download_calls", fl.download.calls() as f64);
        self.set("fl.download_s", fl.download.seconds());
    }

    /// Every per-layer metric in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric {
                name: (*name).to_string(),
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit: (*unit).to_string(),
            })
            .collect()
    }

    /// The layer prefixes (`sim`, `core`, …) this run measured.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut layers: Vec<&'static str> = self
            .values
            .keys()
            .filter_map(|name| name.split('.').next())
            .collect();
        layers.dedup();
        layers
    }
}

/// The end-to-end values of an untraced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Units of work completed per second: user-slots for the simulator
    /// workloads, request round trips for the served one.
    pub work_per_s: f64,
    /// Peak resident set size of the workload process, in MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The values as metrics, in [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [self.setup_s, self.work_per_s, self.peak_rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| Metric {
                name: (*name).to_string(),
                value,
                unit: (*unit).to_string(),
            })
            .collect()
    }
}

/// Prints a `# <tag> {…}` information line of workload-specific metrics.
pub fn print_info(tag: &str, metrics: &[Metric]) {
    println!("# {tag} {}", metrics_json(metrics));
}

/// Prints the result line: the last line of standard output.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics_json(metrics)
    );
}

/// Shorthand for a metric.
pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}
