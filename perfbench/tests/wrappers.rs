//! The benchmark's instruments must not change what they measure, and the
//! metric lists it prints must match `BENCHMARK.json`.

use std::sync::Arc;

use fedco_core::experiment::SimConfig;
use fedco_core::scenario::ScenarioSpec;
use fedco_core::spec::PolicySpec;
use fedco_sim::Simulation;
use perfbench::layers::{CoreStats, CountingSink, FlStats, ForwardingFactory, TimedService};
use perfbench::measure::{fingerprint, END_TO_END, PER_LAYER};

fn config(scenario: &str, policy: PolicySpec) -> SimConfig {
    ScenarioSpec::preset(scenario)
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .expect("preset")
        .build_with_policy(policy)
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .expect("valid scenario")
}

fn wrapped(config: &SimConfig, core: &Arc<CoreStats>, fl: &Arc<FlStats>) -> Simulation {
    let mut config = config.clone();
    config.policy = ForwardingFactory::spec(config.policy, core.clone(), 0);
    let fl = fl.clone();
    Simulation::try_new(config)
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .expect("valid config")
        .with_model_service(move |init| {
            Box::new(TimedService::new(init.into_parameter_server(), fl, 0))
        })
}

/// Every registry policy, on both drivers, gives the same bits behind the
/// forwarding policy and the timed model service as without them.
#[test]
fn wrappers_reproduce_results_across_the_registry_and_both_drivers() {
    let core = Arc::new(CoreStats::default());
    let fl = Arc::new(FlStats::default());
    for policy in PolicySpec::default_registry() {
        let label = policy.label();
        let config = config("smoke", policy);
        let plain_event = Simulation::try_new(config.clone()).expect("valid").run();
        let plain_dense = Simulation::try_new(config.clone())
            .expect("valid")
            .run_dense();
        let event = wrapped(&config, &core, &fl).run();
        let dense = wrapped(&config, &core, &fl).run_dense();
        assert_eq!(
            fingerprint(&event),
            fingerprint(&plain_event),
            "{label}, run"
        );
        assert_eq!(
            fingerprint(&dense),
            fingerprint(&plain_dense),
            "{label}, run_dense"
        );
        assert_eq!(event, plain_event, "{label}: whole result");
    }
    assert!(core.decide.calls() > 0 && core.end_of_slot.calls() > 0);
    assert!(core.install_plan.calls() > 0, "Offline installs plans");
    assert!(fl.apply_async.calls() > 0 && fl.apply_sync.calls() > 0);
}

/// The same holds with real training, where the model service carries the
/// LeNet parameters.
#[test]
fn wrappers_reproduce_a_training_run() {
    let core = Arc::new(CoreStats::default());
    let fl = Arc::new(FlStats::default());
    let config = config("ml-smoke", PolicySpec::Online { v: None });
    let plain = Simulation::try_new(config.clone()).expect("valid").run();
    let traced = wrapped(&config, &core, &fl).run();
    assert!(plain.final_accuracy.is_some());
    assert_eq!(fingerprint(&traced), fingerprint(&plain));
    assert!(fl.download.calls() > 0);
}

/// Attaching a telemetry sink forces the sampling slots dense (see
/// `Simulation::with_telemetry`) without changing the result. This is why
/// the `sim.*` slot counts come from the untraced run.
#[test]
fn a_telemetry_sink_forces_sampling_slots_dense() {
    let config = config("smoke", PolicySpec::Immediate).summary_only();
    let mut plain = Simulation::try_new(config.clone()).expect("valid");
    let plain_result = plain.run();
    let sink = Arc::new(CountingSink::default());
    let mut traced = Simulation::try_new(config)
        .expect("valid")
        .with_telemetry(sink.clone());
    let traced_result = traced.run();
    assert_eq!(fingerprint(&traced_result), fingerprint(&plain_result));
    assert!(sink.semantic() > 0);
    let (plain, traced) = (plain.engine_stats(), traced.engine_stats());
    assert!(
        traced.dense_slots > plain.dense_slots,
        "telemetry {traced:?} vs untraced {plain:?}"
    );
}

/// `BENCHMARK.json` lists exactly the metrics the benchmark prints.
#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let listed = |section: &str| -> Vec<(String, String)> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry
                        .find(&format!("\"{key}\": \""))
                        .expect("field present");
                    let rest = &entry[at + key.len() + 5..];
                    rest[..rest.find('"').expect("string closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
}
