//! `registry-full`: every registered experiment except `fig9`, at the full
//! profile, one after another on the generated scenarios.

use std::time::Instant;

use strat_scenario::Scenario;
use strat_sim::output::to_csv;
use strat_sim::runner::{self, ExperimentContext, ExperimentEntry, ExperimentResult};

use crate::report::{self, fnv1a, metric, Check, Measured, Traced};
use crate::trace::Spans;
use crate::Opts;

/// The workload's experiments, in registry order. `fig9` is `fig9-mc`'s.
/// Listed here so that a new registry entry changes the workload only
/// through a change to the benchmark.
const EXPERIMENTS: [&str; 24] = [
    "fig1",
    "fig2",
    "fig3",
    "fig45",
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "bt1",
    "btflash",
    "btfree",
    "btchurn",
    "btevent",
    "btfault",
    "btcluster",
    "btoverlay",
    "btmulti",
    "ext1",
    "ext2",
    "latstrat",
    "fluid",
    "mmo",
];
/// Set-up is timed in batches of `SETUP_BATCH` generations: one takes
/// well under a millisecond, too short to time on its own. A batch runs
/// before the first timed unit and after every experiment of every unit,
/// so the samples span the whole run.
const SETUP_BATCH: usize = 25;

/// Experiments run one at a time; only `btflash` starts workers, as many
/// as `strat_par::default_threads()`.
fn btflash_threads() -> usize {
    strat_par::default_threads()
}

fn context(opts: &Opts) -> ExperimentContext {
    ExperimentContext {
        quick: false,
        seed: opts.seed,
    }
}

/// Every experiment with its preset, serialized and parsed back, so the
/// kernels receive only the generated scenarios.
fn generate(ctx: &ExperimentContext) -> Vec<(ExperimentEntry, Scenario)> {
    EXPERIMENTS
        .iter()
        .map(|id| {
            let entry = runner::find(id).unwrap_or_else(|| panic!("experiment {id} is registered"));
            let json = (entry.preset)(ctx).to_json();
            let scenario =
                Scenario::from_json(&json).unwrap_or_else(|e| panic!("{id} preset: {e}"));
            (entry, scenario)
        })
        .collect()
}

fn size() -> String {
    format!("{} experiments, full profile, jobs=1", EXPERIMENTS.len())
}

fn run(
    ctx: &ExperimentContext,
    (entry, scenario): &(ExperimentEntry, Scenario),
) -> ExperimentResult {
    (entry.run_scenario)(ctx, scenario)
}

fn fingerprint(result: &ExperimentResult) -> u64 {
    fnv1a(to_csv(result).into_bytes())
}

/// The experiments' own shape checks, counted.
fn shape_checks(results: &[ExperimentResult]) -> Vec<Check> {
    results
        .iter()
        .flat_map(|r| {
            r.checks
                .iter()
                .map(|c| Check::shape(format!("{}: {}", r.id, c.name), c.passed, &c.detail))
        })
        .collect()
}

/// Times one set-up batch; returns the scenarios of its last generation
/// and the mean time of one generation.
fn setup_batch(ctx: &ExperimentContext) -> (Vec<(ExperimentEntry, Scenario)>, f64) {
    let start = Instant::now();
    let mut scenarios = generate(ctx);
    for _ in 1..SETUP_BATCH {
        scenarios = std::hint::black_box(generate(ctx));
    }
    (scenarios, start.elapsed().as_secs_f64() / SETUP_BATCH as f64)
}

pub fn measure(opts: &Opts) -> Measured {
    let ctx = context(opts);
    let (scenarios, first) = setup_batch(&ctx);
    let mut setup_s = vec![first];

    let mut units: Vec<Vec<ExperimentResult>> = Vec::new();
    let unit_s = report::repeat_units(opts.seconds, || {
        let mut secs = 0.0;
        let mut results = Vec::with_capacity(scenarios.len());
        for s in &scenarios {
            let start = Instant::now();
            results.push(run(&ctx, s));
            secs += start.elapsed().as_secs_f64();
            setup_s.push(setup_batch(&ctx).1);
        }
        units.push(results);
        secs
    });

    let prints: Vec<u64> = units[0].iter().map(fingerprint).collect();
    let mut checks = shape_checks(&units[0]);
    let mut failed = 0;
    for (k, (id, print)) in EXPERIMENTS.iter().zip(&prints).enumerate() {
        let repeats = units
            .iter()
            .filter(|u| fingerprint(&u[k]) == *print)
            .count();
        failed += (units.len() - repeats) as u64;
        checks.push(Check::gate(
            format!("{id}: CSV fingerprint repeats across units"),
            repeats == units.len(),
            format!("{repeats} of {} units match {print:#018x}", units.len()),
        ));
    }
    Measured {
        setup_s,
        unit_s,
        work_per_unit: EXPERIMENTS.len() as f64,
        work: "experiments",
        also_per_s: None,
        size: size(),
        threads: btflash_threads(),
        attempted: (units.len() * EXPERIMENTS.len()) as u64,
        failed,
        checks,
    }
}

/// The traced registry pass. With `with_untraced_twin` it first runs the
/// registry untraced, so `overhead_s` is traced minus untraced time;
/// without it `overhead_s` is the traced time alone and goes unreported.
pub fn trace(opts: &Opts, spans: &mut Spans, with_untraced_twin: bool) -> Traced {
    let ctx = context(opts);
    let scenarios = generate(&ctx);
    let untraced_s = if with_untraced_twin {
        let start = Instant::now();
        for s in &scenarios {
            std::hint::black_box(run(&ctx, s));
        }
        start.elapsed().as_secs_f64()
    } else {
        0.0
    };

    let start = Instant::now();
    let results: Vec<ExperimentResult> = scenarios
        .iter()
        .map(|s| spans.time(format!("sim.{}", s.0.id), None, || run(&ctx, s)))
        .collect();
    let traced_s = start.elapsed().as_secs_f64();

    let shape = shape_checks(&results);
    let failed_checks = shape.iter().filter(|c| !c.passed).count();
    let mut metrics: Vec<_> = EXPERIMENTS
        .iter()
        .map(|id| {
            metric(
                format!("sim.{id}_s"),
                spans.total_s(&format!("sim.{id}")),
                "s",
            )
        })
        .collect();
    metrics.push(metric("sim.checks_attempted", shape.len() as f64, "count"));
    metrics.push(metric("sim.checks_failed", failed_checks as f64, "count"));
    Traced {
        metrics,
        size: size(),
        threads: btflash_threads(),
        checks: shape,
        attempted: EXPERIMENTS.len() as u64,
        overhead_s: traced_s - untraced_s,
    }
}
