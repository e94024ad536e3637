//! The two simulator workloads: `sweep-paper` and `ml-fig5`. Each has an
//! untraced run (end-to-end metrics) and a traced run (per-layer metrics),
//! and each checks its outputs on every run.

use fedco_core::experiment::SimConfig;
use fedco_core::scenario::ScenarioSpec;
use fedco_core::spec::PolicySpec;
use fedco_fl::client::{evaluate_network, ClientConfig, FlClient};
use fedco_fl::partition::{partition_dataset, PartitionStrategy};
use fedco_fleet::{run_grid, FleetJob, FleetReport, ScenarioGrid};
use fedco_neural::data::SyntheticCifarConfig;
use fedco_rng::rngs::SmallRng;
use fedco_rng::SeedableRng;
use fedco_sim::{ArrivalSchedule, SimResult, Simulation};

use crate::measure::{
    fingerprint, median, minimum, peak_rss_mib, quantile, side_by_side, timed, Ledger,
};
use crate::report::{metric, EndToEnd, LayerReport};
use crate::simpath::{plain, trace_configs};
use crate::{Ctx, Outcome};

/// Cores of the benchmark host: the copies run side by side in a measured
/// phase, and the worker threads of a traced pass over many runs.
pub const WORKERS: usize = 2;

/// Worker threads of one sweep. Each of the [`WORKERS`] sweeps that run
/// side by side has one, so a sweep's wall time depends on one core only.
pub const SWEEP_WORKERS: usize = 1;

/// How many times the sweep's set-up is repeated for the `setup_s` median.
const SWEEP_SETUP_REPEATS: usize = 7;

/// How many times each Fig. 5 engine is built for the `setup_s` median, on
/// top of one build per measured run.
const ML_SETUP_REPEATS: usize = 10;

fn build(spec: &ScenarioSpec, policy: PolicySpec) -> SimConfig {
    spec.build_with_policy(policy)
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .unwrap_or_else(|e| panic!("invalid workload scenario {}: {e}", spec.label()))
}

fn preset(name: &str) -> ScenarioSpec {
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    ScenarioSpec::preset(name).unwrap_or_else(|| panic!("missing scenario preset {name}"))
}

/// Arrival generation of `configs` through the world crate's models, timed
/// on its own: `world.arrivals_s` and `world.arrivals`.
fn trace_arrivals(configs: &[SimConfig], report: &mut LayerReport) {
    let (arrivals, seconds) = timed(|| {
        configs
            .iter()
            .map(|c| {
                ArrivalSchedule::from_model(
                    c.world.arrival.model().as_ref(),
                    c.num_users,
                    c.total_slots,
                    c.arrival_probability,
                    c.seed,
                )
                .total_arrivals()
            })
            .sum::<usize>()
    });
    report.set("world.arrivals_s", seconds);
    report.set("world.arrivals", arrivals as f64);
}

/// `run` and `run_dense` of `config` must agree bit for bit.
fn check_drivers(config: &SimConfig, ledger: &mut Ledger) {
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    let mut event = Simulation::try_new(config.clone()).expect("validated configuration");
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    let mut dense = Simulation::try_new(config.clone()).expect("validated configuration");
    ledger.check(
        fingerprint(&event.run()) == fingerprint(&dense.run_dense()),
        &format!("run and run_dense differ for {}", config.policy.label()),
    );
}

// ---------------------------------------------------------------- sweep

/// The scenarios of the paper sweep: Table II's setting and the three world
/// variants a reproduction reports next to it.
pub const SWEEP_SCENARIOS: [&str; 4] = [
    "paper-default",
    "battery-constrained",
    "diurnal-day",
    "lte-uplink",
];

/// Replicate seeds per (scenario, policy) cell.
pub const SWEEP_REPLICATES: usize = 20;

/// Horizon of the `run` versus `run_dense` check.
const DRIVER_CHECK_SLOTS: u64 = 1800;

/// The paper grid: every sweep scenario × the six-policy registry ×
/// [`SWEEP_REPLICATES`] seeds, derived from `seed`.
pub fn sweep_grid(seed: u64) -> ScenarioGrid {
    ScenarioGrid::from_scenarios(SWEEP_SCENARIOS.iter().map(|n| preset(n)).collect())
        .with_policy_specs(PolicySpec::default_registry())
        .with_base_seed(seed)
        .with_replicates(SWEEP_REPLICATES)
}

/// Mean over the paper-default replicates of 1 − E_Online / E_Immediate,
/// in percent.
fn energy_saving_pct(report: &FleetReport) -> f64 {
    let energy = |policy: &str| -> Vec<(u64, f64)> {
        report
            .jobs
            .iter()
            .filter(|j| j.scenario == SWEEP_SCENARIOS[0] && j.policy == policy)
            .map(|j| (j.seed, j.total_energy_j))
            .collect()
    };
    let immediate = energy("Immediate");
    let savings: Vec<f64> = energy("Online")
        .into_iter()
        .filter_map(|(seed, online)| {
            let (_, imm) = immediate.iter().find(|(s, _)| *s == seed)?;
            Some(1.0 - online / imm)
        })
        .collect();
    100.0 * savings.iter().sum::<f64>() / savings.len().max(1) as f64
}

fn sweep_checks(grid: &ScenarioGrid, jobs: &[FleetJob], ledger: &mut Ledger) {
    // One paper-default job per policy, on a short horizon.
    for policy in 0..grid.policies.len() {
        let job = jobs
            .iter()
            .find(|j| j.coord.scenario == 0 && j.coord.policy == policy && j.coord.seed == 0)
            // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
            .expect("the grid has every (scenario, policy, seed) cell");
        let mut config = job.config.clone();
        config.total_slots = DRIVER_CHECK_SLOTS;
        check_drivers(&config, ledger);
    }
}

/// `sweep-paper`: the paper grid through `fleet::run_grid`, one
/// single-worker sweep per core side by side.
pub fn sweep(ctx: &Ctx, out: &mut Outcome) {
    // Set-up is everything before the first slot: the grid, its jobs, and
    // one engine per job (`run_grid` builds them again as it runs them).
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SWEEP_SETUP_REPEATS {
        let ((grid, jobs), s) = timed(|| {
            let grid = sweep_grid(ctx.seed);
            // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
            grid.validate().expect("the paper grid is valid");
            let jobs = grid.expand();
            for job in &jobs {
                // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
                let sim = Simulation::try_new(job.config.clone()).expect("validated grid");
                std::hint::black_box(&sim);
            }
            (grid, jobs)
        });
        setups.push(s);
        built = Some((grid, jobs));
    }
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    let (grid, jobs) = built.expect("set-up ran");
    let user_slots: f64 = jobs
        .iter()
        .map(|j| j.config.num_users as f64 * j.config.total_slots as f64)
        .sum();
    sweep_checks(&grid, &jobs, &mut out.ledger);

    if ctx.trace {
        let (report, wall) = timed(|| run_grid(&grid, SWEEP_WORKERS));
        let mut walls: Vec<f64> = report.jobs.iter().map(|j| j.wall_ms.0).collect();
        walls.sort_by(f64::total_cmp);
        out.layers.set("fleet.jobs", report.jobs.len() as f64);
        out.layers.set("fleet.job_p50_ms", quantile(&walls, 0.5));
        out.layers.set("fleet.job_p99_ms", quantile(&walls, 0.99));
        out.layers.set(
            "fleet.busy_frac",
            walls.iter().sum::<f64>() / 1e3 / (wall * SWEEP_WORKERS as f64),
        );
        out.ledger.ok(report.jobs.len() as u64);
        let configs: Vec<SimConfig> = jobs.into_iter().map(|j| j.config).collect();
        trace_configs(
            &configs,
            WORKERS,
            ctx.overhead_ns,
            &mut out.layers,
            &mut out.ledger,
        );
        trace_arrivals(&configs, &mut out.layers);
        return;
    }

    let sweeps = side_by_side(WORKERS, ctx.budget(), || {
        timed(|| run_grid(&grid, SWEEP_WORKERS))
    });
    let mut walls = Vec::new();
    let mut job_ms = Vec::new();
    let mut first: Option<FleetReport> = None;
    for (report, wall) in sweeps {
        walls.push(wall);
        job_ms.extend(report.jobs.iter().map(|j| j.wall_ms.0));
        let finite = report.jobs.iter().all(|j| j.total_energy_j.is_finite());
        if finite {
            out.ledger.ok(report.jobs.len() as u64);
        } else {
            out.ledger.fail(
                report.jobs.len() as u64,
                "a sweep job has non-finite energy",
            );
        }
        match &first {
            None => first = Some(report),
            Some(f) => out.ledger.check(
                f.jobs == report.jobs,
                "repeated sweep differs from the first",
            ),
        }
    }
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    let report = first.expect("the sweep ran");
    let saving = energy_saving_pct(&report);
    out.ledger
        .check(saving > 0.0, "Online saves no energy against Immediate");
    out.e2e = EndToEnd {
        setup_s: median(&setups),
        // The fastest sweep: host load only ever slows a sweep down.
        work_per_s: user_slots / minimum(&walls),
        peak_rss_mb: peak_rss_mib("self"),
    };
    out.info = vec![
        metric("energy_saving_pct", saving, "%"),
        metric("sweeps", walls.len() as f64, "count"),
        metric("median_work_per_s", user_slots / median(&walls), "1/s"),
        metric("jobs_per_sweep", report.jobs.len() as f64, "count"),
        metric("job_p50_ms", quantile(&job_ms, 0.5), "ms"),
        metric("job_p99_ms", quantile(&job_ms, 0.99), "ms"),
        metric("job_samples", job_ms.len() as f64, "count"),
    ];
}

// ---------------------------------------------------------------- ml

/// The scenario of the Fig. 5 run: the paper setting with real LeNet
/// training.
pub const ML_SCENARIO: &str = "paper-default:ml=full";

/// The Online and Immediate configurations of the Fig. 5 run.
pub fn ml_configs(seed: u64) -> [SimConfig; 2] {
    let spec: ScenarioSpec = ML_SCENARIO
        .parse()
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .unwrap_or_else(|e| panic!("invalid scenario {ML_SCENARIO}: {e}"));
    let spec = spec.with_seed(seed);
    [
        build(&spec, PolicySpec::Online { v: None }),
        build(&spec, PolicySpec::Immediate),
    ]
}

/// One local epoch of one client and one evaluation of the global model,
/// each timed on its own: `neural.client_epoch_s` and `neural.eval_s`.
fn trace_neural(config: &SimConfig, report: &mut LayerReport) {
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    let ml = config.ml.clone().expect("the Fig. 5 run trains a model");
    let arch = ml.architecture;
    let data = SyntheticCifarConfig {
        image_size: arch.image_size,
        channels: arch.channels,
        classes: arch.classes,
        examples: ml.total_examples,
        noise_std: ml.noise_std,
        seed: config.seed,
    }
    .generate();
    let (train, test) = data.train_test_split(ml.test_fraction);
    let shard = partition_dataset(
        &train,
        config.num_users,
        PartitionStrategy::Iid,
        config.seed,
    )
    .swap_remove(0);
    let mut client = FlClient::new(
        0,
        arch,
        shard,
        ClientConfig {
            batch_size: ml.batch_size,
            learning_rate: config.scheduler.learning_rate,
            momentum: config.scheduler.momentum_beta,
            local_passes: 1,
        },
    );
    let epochs: Vec<f64> = (0..5)
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .map(|_| timed(|| client.local_epoch().expect("architecture matches data")).1)
        .collect();
    let mut net = arch.build(&mut SmallRng::seed_from_u64(config.seed));
    let evals: Vec<f64> = (0..5)
        .map(|_| {
            // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
            timed(|| evaluate_network(&mut net, &test, ml.eval_examples).expect("shapes match")).1
        })
        .collect();
    report.set("neural.client_epoch_s", median(&epochs));
    report.set("neural.eval_s", median(&evals));
}

/// `ml-fig5`: the Fig. 5 Online and Immediate runs with real training, one
/// pair per core side by side.
pub fn ml(ctx: &Ctx, out: &mut Outcome) {
    let configs = ml_configs(ctx.seed);
    if ctx.trace {
        trace_configs(
            &configs,
            WORKERS,
            ctx.overhead_ns,
            &mut out.layers,
            &mut out.ledger,
        );
        trace_arrivals(&configs, &mut out.layers);
        trace_neural(&configs[0], &mut out.layers);
        return;
    }
    let user_slots: f64 = configs
        .iter()
        .map(|c| c.num_users as f64 * c.total_slots as f64)
        .sum();
    let mut setups = Vec::new();
    for _ in 0..ML_SETUP_REPEATS {
        for config in &configs {
            setups.push(timed(|| Simulation::try_new(config.clone())).1);
        }
    }
    let pairs = side_by_side(WORKERS, ctx.budget(), || {
        configs.iter().map(plain).collect::<Vec<_>>()
    });
    let mut loops: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<Vec<SimResult>> = None;
    for pair in pairs {
        out.ledger.ok(2);
        for (run, loops) in pair.iter().zip(loops.iter_mut()) {
            setups.push(run.setup_s);
            loops.push(run.loop_s);
        }
        let prints: Vec<u64> = pair.iter().map(|r| r.fingerprint).collect();
        match &first {
            None => first = Some(pair.into_iter().map(|r| r.result).collect()),
            Some(f) => out.ledger.check(
                f.iter().map(fingerprint).eq(prints),
                "repeated Fig. 5 run differs from the first",
            ),
        }
    }
    // The fastest Online run plus the fastest Immediate run: host load only
    // ever slows a run down.
    let loop_s: f64 = loops.iter().map(|l| minimum(l)).sum();
    // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
    let results = first.expect("the Fig. 5 runs ran");
    let (online, immediate) = (&results[0], &results[1]);
    let accuracy = |a: Option<f32>| f64::from(a.unwrap_or(0.0));
    let (online_j, immediate_j) = (online.total_energy_j, immediate.total_energy_j);
    // The final evaluation swings widely from one evaluation to the next
    // (a seed can peak at 0.6 and end at 0.13), so learning is checked on
    // the best accuracy the Online run reached.
    let classes = configs[0]
        .ml
        .as_ref()
        .map_or(10, |m| m.architecture.classes);
    out.ledger.check(
        accuracy(online.best_accuracy()) > 1.5 / classes as f64,
        "Online training never beat chance accuracy",
    );
    out.ledger.check(
        online_j < immediate_j,
        "Online used more energy than Immediate",
    );
    out.e2e = EndToEnd {
        setup_s: median(&setups),
        work_per_s: user_slots / loop_s,
        peak_rss_mb: peak_rss_mib("self"),
    };
    out.info = vec![
        metric("test_accuracy", accuracy(online.final_accuracy), "fraction"),
        metric(
            "best_test_accuracy",
            accuracy(online.best_accuracy()),
            "fraction",
        ),
        metric(
            "immediate_test_accuracy",
            accuracy(immediate.final_accuracy),
            "fraction",
        ),
        metric(
            "energy_saving_pct",
            100.0 * (1.0 - online_j / immediate_j),
            "%",
        ),
        metric("runs", (loops[0].len() + loops[1].len()) as f64, "count"),
        metric(
            "median_work_per_s",
            user_slots / loops.iter().map(|l| median(l)).sum::<f64>(),
            "1/s",
        ),
    ];
}
