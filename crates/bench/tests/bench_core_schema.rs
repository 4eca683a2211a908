//! Schema and row-presence gate for the checked-in `BENCH_core.json`:
//! the exporter's output must parse, every measurement must be a finite
//! positive median with non-empty names, every speedup row must be
//! consistent with its reference/optimized pair, and the scale-path rows
//! (n = 10⁵ and n = 10⁶ flash rounds, the million-peer churn round, the
//! streamed and eager Figure 9 Monte-Carlo blocks) must be present — a
//! refresh that silently drops them fails here instead of during the next
//! perf comparison.

use serde_json::Value;

fn load() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
    let raw = std::fs::read_to_string(path).expect("BENCH_core.json is checked in at repo root");
    serde_json::from_str_value(&raw).expect("BENCH_core.json parses")
}

fn rows(report: &Value, section: &str) -> Vec<(String, String, f64)> {
    report
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{section}` is an array"))
        .iter()
        .map(|row| {
            let field = |key: &str| {
                row.get(key)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("`{section}` row has string `{key}`: {row:?}"))
                    .to_string()
            };
            let ns = row
                .get(if section == "groups" {
                    "median_ns"
                } else {
                    "optimized_ns"
                })
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("`{section}` row has a numeric time: {row:?}"));
            (field("group"), field("bench"), ns)
        })
        .collect()
}

#[test]
fn report_schema_is_well_formed() {
    let report = load();
    for key in ["generated_by", "command"] {
        let s = report
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("`{key}` is a string"));
        assert!(!s.is_empty(), "`{key}` is non-empty");
    }
    let time_scale = report
        .get("time_scale")
        .and_then(Value::as_f64)
        .expect("`time_scale` is a number");
    assert!(time_scale.is_finite() && time_scale > 0.0);

    let groups = rows(&report, "groups");
    assert!(!groups.is_empty(), "at least one measurement");
    for (group, bench, median_ns) in &groups {
        assert!(!group.is_empty() && !bench.is_empty());
        assert!(
            median_ns.is_finite() && *median_ns > 0.0,
            "{group}/{bench}: median {median_ns} ns"
        );
    }
    let mut keys: Vec<_> = groups.iter().map(|(g, b, _)| (g, b)).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), groups.len(), "duplicate measurement rows");
}

#[test]
fn speedup_rows_are_consistent_with_their_pairs() {
    let report = load();
    let speedups = report
        .get("speedups")
        .and_then(Value::as_array)
        .expect("`speedups` is an array");
    assert!(!speedups.is_empty(), "at least one speedup pair");
    for row in speedups {
        let num = |key: &str| {
            row.get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("speedup row has `{key}`: {row:?}"))
        };
        let (reference, optimized, speedup) =
            (num("reference_ns"), num("optimized_ns"), num("speedup"));
        assert!(reference > 0.0 && optimized > 0.0);
        assert!(
            (speedup - reference / optimized).abs() <= 1e-6 * speedup.abs(),
            "speedup field disagrees with its ratio: {row:?}"
        );
    }
}

#[test]
fn scale_path_rows_are_present() {
    let report = load();
    let groups = rows(&report, "groups");
    for (group, bench) in [
        ("swarm", "flash_round_indexed_n100000_pieces"),
        ("swarm", "flash_round_indexed_n1000000_pieces"),
        ("session", "round_churn_n1000"),
        ("session", "round_churn_indexed_n1000000"),
        ("universe", "round_shared_n1000_t8"),
        ("universe", "membership_join_leave_d20"),
        ("monte_carlo", "fig9_n5000_r50_t1"),
        ("monte_carlo_ref", "fig9_n5000_r50_t1"),
    ] {
        assert!(
            groups.iter().any(|(g, b, _)| g == group && b == bench),
            "scale-path row {group}/{bench} missing from BENCH_core.json"
        );
    }
}
