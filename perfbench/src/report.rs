//! Metrics, checks and the result line, validated against the metric
//! names `BENCHMARK.json` declares.

use std::time::Instant;

use serde_json::Value;

/// The benchmark's declaration, compiled in so a run can check that it
/// emits exactly the metrics it declares.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// Fewest timed units a run measures, however short `--seconds` is: two,
/// so that every run can check that a unit's output repeats.
pub const MIN_UNITS: usize = 2;

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One correctness verdict. A gate checks the benchmark's own claim about
/// the program's output (determinism, completion, agreement with an
/// oracle) and decides `correct`; the others are the program's own shape
/// checks, which are counted but do not decide `correct`.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub gate: bool,
    pub detail: String,
}

impl Check {
    pub fn gate(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            passed,
            gate: true,
            detail: detail.into(),
        }
    }

    pub fn shape(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            passed,
            gate: false,
            detail: detail.into(),
        }
    }
}

/// What one untraced run of a workload measured.
#[derive(Debug)]
pub struct Measured {
    /// One duration per set-up repetition: one before the first timed
    /// unit and one after each unit (after each experiment on
    /// `registry-full`), so that they span the run.
    pub setup_s: Vec<f64>,
    /// One duration per timed unit.
    pub unit_s: Vec<f64>,
    /// Work one timed unit completes, in `work` units.
    pub work_per_unit: f64,
    /// Name of the work unit in the report, such as `mc_realizations`.
    pub work: &'static str,
    /// Another work unit and its amount per timed unit, printed as a rate
    /// beside `work`.
    pub also_per_s: Option<(&'static str, f64)>,
    /// Input size of one timed unit.
    pub size: String,
    /// Most worker threads any timed unit starts.
    pub threads: usize,
    /// Operations attempted and failed (realizations, downloads or
    /// experiment runs).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

/// What the traced run measured on one workload's path.
#[derive(Debug)]
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Input size of the traced calls.
    pub size: String,
    /// Most worker threads any traced call starts.
    pub threads: usize,
    pub checks: Vec<Check>,
    /// Operations the traced calls ran; none can fail without failing a
    /// gate.
    pub attempted: u64,
    /// Traced minus untraced duration of the workload's timed unit.
    pub overhead_s: f64,
}

/// The result line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest value: the least disturbed of several timings of the same
/// work. Set-up runs at one of two speeds on a shared machine, switching
/// within seconds, so the median of a run's set-ups jumps between the two
/// from run to run, while the fastest of set-ups that span the run holds.
pub fn fastest(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("fastest of no values")
}

/// Runs timed units until `seconds` have passed and at least
/// [`MIN_UNITS`] are done. `unit` returns the duration of its timed part.
pub fn repeat_units(seconds: f64, mut unit: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        times.push(unit());
    }
    times
}

/// 64-bit FNV-1a, the fingerprint of a program output.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn declaration() -> Value {
    serde_json::from_str_value(DECLARATION).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a section of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`).
pub fn declared_metrics(section: &str) -> Vec<(String, String)> {
    let field = |m: &Value, key: &str| {
        m.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{section} metric lacks a string {key}"))
            .to_string()
    };
    declaration()
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Names of the workloads `BENCHMARK.json` declares.
#[cfg(test)]
pub fn declared_workloads() -> Vec<String> {
    declaration()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect()
}

/// Checks that `metrics` are exactly the declared metrics of `section`,
/// with the declared units, valid names and finite values.
pub fn validate(metrics: &[Metric], section: &str) -> Result<(), String> {
    let mut emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut declared = declared_metrics(section);
    emitted.sort();
    declared.sort();
    if emitted != declared {
        let missing: Vec<_> = declared.iter().filter(|d| !emitted.contains(d)).collect();
        let extra: Vec<_> = emitted.iter().filter(|e| !declared.contains(e)).collect();
        return Err(format!(
            "{section}: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    for m in metrics {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut names = declared_workloads();
        for section in ["end_to_end", "per_layer"] {
            for (name, unit) in declared_metrics(section) {
                assert!(valid_name(&name), "{section} name {name:?}");
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "unit {unit:?} of {name}"
                );
                names.push(name);
            }
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let decl = declaration();
        let rows = decl
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end");
        let bound = |row: &Value| row.get("bound").and_then(Value::as_f64).expect("bound");
        let setup = rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s declared");
        for row in rows {
            assert!(bound(row) > 0.0 && bound(row) <= 0.25);
            assert!(bound(row) <= bound(setup));
        }
    }

    #[test]
    fn validate_rejects_missing_extra_and_non_finite_metrics() {
        let declared: Vec<Metric> = declared_metrics("end_to_end")
            .into_iter()
            .map(|(name, unit)| metric(name, 1.0, Box::leak(unit.into_boxed_str())))
            .collect();
        assert!(validate(&declared, "end_to_end").is_ok());
        assert!(validate(&declared[1..], "end_to_end").is_err());
        let mut extra = declared.clone();
        extra.push(metric("not_declared", 1.0, "s"));
        assert!(validate(&extra, "end_to_end").is_err());
        let mut nan = declared;
        nan[0].value = f64::NAN;
        assert!(validate(&nan, "end_to_end").is_err());
    }

    #[test]
    fn name_rule_matches_the_contract() {
        for ok in ["wall_s", "sim.fig1_s", "flash-1e5", "9a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
