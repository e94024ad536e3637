//! The served workload's devices are a copy of the fleet driver's private
//! state machine. Stepped the way the driver's in-process run steps its
//! own, the copy must reproduce the driver's report exactly: every client
//! tally, the server's churn counters and the final model.

use fedco_server::driver::run_in_process;
use fedco_world::churn::ChurnSpec;
use perfbench::served::{driver_config, run_lockstep};

#[test]
fn the_copied_fleet_reproduces_the_driver_on_the_benchmark_scenario() {
    for seed in [1, 2] {
        let cfg = driver_config(seed);
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        let copy = run_lockstep(&cfg).expect("channel transport");
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        let (driver, _) = run_in_process(&cfg).expect("channel transport");
        assert_eq!(copy, driver, "seed {seed}");
        // Every refusal path of the session layer is exercised.
        let s = &driver.server;
        assert!(s.joins_rejected > 0 && s.expired > 0 && s.pushes_refused > 0);
        assert!(driver.backpressure_seen > 0 && driver.silent_deaths > 0);
    }
}

/// The benchmark scenario queues every push; world churn and inline apply
/// (`queue_capacity` 0: a push is applied or refused at once) take the
/// paths it leaves out.
#[test]
fn the_copied_fleet_reproduces_the_driver_under_churn_and_inline_apply() {
    let mut churn = driver_config(3);
    churn.churn = ChurnSpec::Heavy;
    churn.ticks = 400;
    let mut inline = driver_config(4);
    inline.queue_capacity = 0;
    inline.ticks = 400;
    for cfg in [churn, inline] {
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        let copy = run_lockstep(&cfg).expect("channel transport");
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        let (driver, _) = run_in_process(&cfg).expect("channel transport");
        assert_eq!(copy, driver, "{cfg:?}");
        if cfg.churn == ChurnSpec::Heavy {
            assert!(driver.world_dropouts > 0);
        } else {
            assert!(driver.server.left > 0 && driver.server.pushes_queued == 0);
        }
    }
}
