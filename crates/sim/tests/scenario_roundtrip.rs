//! The Scenario contract, end to end:
//!
//! 1. every registered experiment's preset survives
//!    `to_json -> from_json` unchanged;
//! 2. the parsed preset *builds* bit-identical simulation state
//!    (dynamics / swarm fingerprints match the in-memory preset's);
//! 3. the parsed preset *measures* identically: `run_scenario` on it
//!    reproduces the exact rows of `run` (the `--scenario` CLI path's
//!    guarantee).

use strat_scenario::{stream_rng, Scenario, TopologyModel};
use strat_sim::runner::{self, ExperimentContext};

fn ctx() -> ExperimentContext {
    ExperimentContext {
        quick: true,
        seed: 2007,
    }
}

#[test]
fn every_preset_round_trips_through_json() {
    for entry in runner::registry() {
        let preset = (entry.preset)(&ctx());
        assert_eq!(preset.name, entry.id, "preset name matches registry id");
        assert_eq!(
            preset.experiment, entry.id,
            "preset binds to its own experiment"
        );
        let parsed =
            Scenario::from_json(&preset.to_json()).unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        assert_eq!(parsed, preset, "{} JSON round trip", entry.id);
        let parsed_pretty = Scenario::from_json(&preset.to_json_pretty())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        assert_eq!(parsed_pretty, preset, "{} pretty round trip", entry.id);
    }
}

/// A cheap structural fingerprint of built simulation state.
fn build_fingerprint(scenario: &Scenario) -> Vec<f64> {
    if scenario.swarm.is_some() {
        // Swarm path: run a few rounds, fingerprint the transfer totals.
        let mut swarm = scenario
            .build_swarm(&mut stream_rng(scenario.seed, 0xf1))
            .expect("valid swarm scenario");
        swarm.run_rounds(5);
        (0..swarm.peer_count())
            .map(|p| swarm.peer(p).total_downloaded() + swarm.peer(p).upload_kbps())
            .collect()
    } else if scenario.capacity.bandwidth_cdf().is_some() {
        // Bandwidth-only scenarios (fig10): the capacity assignment is the
        // observable.
        scenario
            .capacity
            .upload_bandwidths(scenario.peers, &mut stream_rng(scenario.seed, 0xf1))
            .expect("valid scenario")
    } else if matches!(scenario.topology, TopologyModel::Complete) {
        // Complete topologies never materialize the quadratic graph; the
        // stable configuration is the observable.
        let stable = scenario
            .stable_matching(&mut stream_rng(scenario.seed, 0xf1))
            .expect("valid scenario");
        (0..stable.node_count())
            .map(|v| stable.degree(strat_graph::NodeId::new(v)) as f64)
            .collect()
    } else {
        // Dynamics path: converge a little and fingerprint the matching.
        let mut dynamics = scenario
            .build_dynamics(&mut stream_rng(scenario.seed, 0xf1))
            .expect("valid scenario");
        let mut rng = stream_rng(scenario.seed, 0xf2);
        for _ in 0..3 {
            dynamics.run_base_unit(&mut rng);
        }
        let matching = dynamics.matching();
        (0..dynamics.node_count())
            .map(|v| {
                let v = strat_graph::NodeId::new(v);
                matching
                    .mates(v)
                    .iter()
                    .map(|m| m.index() as f64)
                    .sum::<f64>()
            })
            .collect()
    }
}

#[test]
fn parsed_presets_build_bit_identical_state() {
    for entry in runner::registry() {
        let preset = (entry.preset)(&ctx());
        // table1's headline instance is full-profile sized; its kernel
        // path is covered by the row-equality test below.
        if entry.id == "table1" {
            continue;
        }
        let parsed = Scenario::from_json(&preset.to_json()).expect("parses");
        assert_eq!(
            build_fingerprint(&preset),
            build_fingerprint(&parsed),
            "{}: parsed preset builds different state",
            entry.id
        );
    }
}

#[test]
fn run_scenario_on_parsed_preset_reproduces_run() {
    let ctx = ctx();
    for entry in runner::registry() {
        let preset = (entry.preset)(&ctx);
        let parsed = Scenario::from_json(&preset.to_json()).expect("parses");
        let direct = entry.run(&ctx);
        let via_json = (entry.run_scenario)(&ctx, &parsed);
        assert_eq!(direct.columns, via_json.columns, "{} columns", entry.id);
        assert_eq!(direct.rows, via_json.rows, "{} rows", entry.id);
        assert_eq!(direct.checks, via_json.checks, "{} checks", entry.id);
    }
}

/// Preset files written by earlier builds (`results/scenarios/legacy/`),
/// each of which must still parse to today's full-profile preset: keys a
/// build no longer knows are ignored.
const LEGACY_PRESETS: &[(&str, &str)] = &[
    // Carries the churn section's removed tracker-wiring flag.
    (
        "btchurn",
        include_str!("../../../results/scenarios/legacy/btchurn.json"),
    ),
];

#[test]
fn legacy_preset_files_parse_to_current_presets() {
    let full = ExperimentContext {
        quick: false,
        seed: 2007,
    };
    for &(id, json) in LEGACY_PRESETS {
        let entry = runner::find(id).unwrap_or_else(|| panic!("{id} is registered"));
        let parsed = Scenario::from_json(json).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(parsed, (entry.preset)(&full), "{id}: legacy file");
    }
}
