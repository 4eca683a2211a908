//! The repository's benchmark: three workloads, each measured end to end
//! with tracing off, and a traced run that gives per-layer numbers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9-mc|flash-1e5|registry-full [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every metric line on stdout names the workload, the metric, its value
//! and unit, the thread count, `nproc` and the input size. The last line
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the `end_to_end` metrics of `BENCHMARK.json` with `--trace 0`, its
//! `per_layer` metrics with `--trace 1`). See `perfbench/README.md`.

mod fig9;
mod flash;
mod registry;
mod report;
mod sys;
mod trace;

use std::time::Instant;

use report::{fastest, median, metric, Check, Measured, Metric, Outcome, Traced};
use trace::Spans;

/// What every workload is given.
pub struct Opts {
    /// Workload seed; the default is the checked-in presets' seed.
    pub seed: u64,
    /// How long the timed units, with the set-ups between them, run; at
    /// least [`report::MIN_UNITS`] units.
    pub seconds: f64,
    /// Worker threads of the parallel units: `nproc`.
    pub nproc: usize,
}

const WORKLOADS: [&str; 3] = ["fig9-mc", "flash-1e5", "registry-full"];
const USAGE: &str = "usage: perfbench --workload fig9-mc|flash-1e5|registry-full \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<(String, Opts, bool), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: strat_sim::runner::ExperimentContext::default().seed,
        seconds: 25.0,
        nproc: sys::nproc(),
    };
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, opts, traced))
}

/// Prints one metric line with the facts every row records.
fn print_row(workload: &str, m: &Metric, threads: usize, opts: &Opts, size: &str) {
    println!(
        "{workload:<14} {:<32} {:>16.6} {:<6} threads={threads} nproc={} seed={} size=[{size}]",
        m.name, m.value, m.unit, opts.nproc, opts.seed
    );
}

/// The gate that no call starts more workers than `nproc`.
fn thread_gate(workers: usize, opts: &Opts) -> Check {
    Check::gate(
        "no call starts more than nproc workers",
        workers <= opts.nproc,
        format!("at most {workers} workers, nproc = {}", opts.nproc),
    )
}

fn print_failed(checks: &[Check]) {
    for c in checks.iter().filter(|c| !c.passed) {
        let kind = if c.gate {
            "GATE FAILED"
        } else {
            "check failed"
        };
        println!("# {kind}: {} ({})", c.name, c.detail);
    }
}

fn measured_outcome(workload: &str, opts: &Opts, m: Measured) -> Outcome {
    let mut checks = m.checks;
    checks.push(thread_gate(m.threads, opts));
    let passed = checks.iter().filter(|c| c.passed).count();
    let pass_ratio = passed as f64 / checks.len() as f64;
    let wall = median(&m.unit_s);
    let metrics = vec![
        metric("setup_s", fastest(&m.setup_s), "s"),
        metric("wall_s", wall, "s"),
        metric("work_per_s", m.work_per_unit / wall, "1/s"),
        metric("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        metric("check_pass_ratio", pass_ratio, "ratio"),
    ];
    println!(
        "# {workload}: set-ups {:?} s; {} timed units of {} {}: {:?} s; {passed} of {} checks passed",
        m.setup_s,
        m.unit_s.len(),
        m.work_per_unit,
        m.work,
        m.unit_s,
        checks.len()
    );
    for row in &metrics {
        print_row(workload, row, m.threads, opts, &m.size);
    }
    // The same numbers under the workload's own names.
    let mut named = vec![
        metric(format!("{}_per_s", m.work), m.work_per_unit / wall, "1/s"),
        metric("check_fail_ratio", 1.0 - pass_ratio, "ratio"),
    ];
    if let Some((name, per_unit)) = &m.also_per_s {
        named.push(metric(format!("{name}_per_s"), per_unit / wall, "1/s"));
    }
    for row in &named {
        print_row(workload, row, m.threads, opts, &m.size);
    }
    print_failed(&checks);
    Outcome {
        correct: checks.iter().all(|c| c.passed || !c.gate),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    }
}

/// The traced run: every layer's metrics, each measured on the workload
/// that exercises it, plus the selected workload's tracing overhead.
/// `parts` are in [`WORKLOADS`] order.
fn traced_outcome(workload: &str, opts: &Opts, parts: [Traced; 3]) -> Outcome {
    let selected = WORKLOADS.iter().position(|w| *w == workload);
    let overhead = parts[selected.expect("known workload")].overhead_s;
    let workers = parts.iter().map(|p| p.threads).max().unwrap_or(1);
    let mut metrics = Vec::new();
    let mut checks = vec![thread_gate(workers, opts)];
    let mut attempted = 0;
    for part in parts {
        for row in &part.metrics {
            print_row(workload, row, part.threads, opts, &part.size);
        }
        metrics.extend(part.metrics);
        checks.extend(part.checks);
        attempted += part.attempted;
    }
    let overhead = metric("trace.overhead_s", overhead, "s");
    print_row(workload, &overhead, opts.nproc, opts, workload);
    metrics.push(overhead);
    print_failed(&checks);
    Outcome {
        correct: checks.iter().all(|c| c.passed || !c.gate),
        attempted,
        failed: 0,
        metrics,
    }
}

fn main() {
    let (workload, opts, traced) = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (outcome, section) = if traced {
        let origin = Instant::now();
        let mut spans = Spans::new(origin);
        let parts = [
            fig9::trace(&opts, &mut spans, origin),
            flash::trace(&opts, &mut spans),
            registry::trace(&opts, &mut spans, workload == "registry-full"),
        ];
        spans.write_summary();
        (traced_outcome(&workload, &opts, parts), "per_layer")
    } else {
        let measured = match workload.as_str() {
            "fig9-mc" => fig9::measure(&opts),
            "flash-1e5" => flash::measure(&opts),
            _ => registry::measure(&opts),
        };
        (measured_outcome(&workload, &opts, measured), "end_to_end")
    };
    if let Err(e) = report::validate(&outcome.metrics, section) {
        eprintln!("perfbench: emitted metrics disagree with BENCHMARK.json: {e}");
        std::process::exit(1);
    }
    println!("{}", outcome.json());
}

#[cfg(test)]
mod tests {
    #[test]
    fn workloads_match_the_declaration() {
        assert_eq!(crate::report::declared_workloads(), crate::WORKLOADS);
    }
}
