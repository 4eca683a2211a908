//! JSON round-trip for [`Scenario`]: both directions come from the serde
//! derives on the scenario-tree types (externally tagged enums, exactly
//! like upstream serde's defaults), so the schema is written down once, in
//! the type definitions.

use crate::{Scenario, ScenarioError};

impl Scenario {
    /// Compact JSON encoding of this scenario.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::Serialize::to_json(self)
    }

    /// Pretty-printed JSON encoding (what preset files ship as).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("in-memory serialization cannot fail")
    }

    /// Parses a scenario from its JSON encoding.
    ///
    /// # Examples
    ///
    /// ```
    /// use strat_scenario::{Scenario, TopologyModel};
    ///
    /// let json = r#"{
    ///   "name": "demo", "experiment": "fig3", "seed": 7, "peers": 100,
    ///   "capacity": { "Constant": { "value": 1 } },
    ///   "topology": { "ErdosRenyiMeanDegree": { "d": 10.0 } },
    ///   "preference": "GlobalRank",
    ///   "churn": { "Rate": { "rate": 0.03 } },
    ///   "strategy": "BestMate",
    ///   "swarm": null
    /// }"#;
    /// let scenario = Scenario::from_json(json)?;
    /// assert_eq!(scenario.peers, 100);
    /// assert_eq!(scenario.topology, TopologyModel::ErdosRenyiMeanDegree { d: 10.0 });
    /// // The encoding round-trips losslessly.
    /// assert_eq!(Scenario::from_json(&scenario.to_json())?, scenario);
    /// # Ok::<(), strat_scenario::ScenarioError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] on malformed JSON, unknown
    /// variants, or missing/ill-typed fields. Unknown keys are ignored; an
    /// absent `Option` key means `null`, and an absent
    /// `#[serde(default)]` key its default.
    pub fn from_json(input: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(input).map_err(ScenarioError::from)
    }
}

#[cfg(test)]
mod tests {
    use strat_bittorrent::universe::{CapacitySplit, MembershipModel};
    use strat_core::InitiativeStrategy;

    use super::*;
    use crate::{
        ArrivalProcess, BehaviorMix, CapacityModel, ChurnModel, DepartureRules, EventTiming,
        FaultPlan, FaultWindow, PreferenceModel, SessionConfig, SwarmParams, TopologyModel,
        UniverseParams,
    };

    fn full_scenario() -> Scenario {
        Scenario::new("full", 321)
            .with_seed(u64::MAX - 1)
            .with_experiment("bt1")
            .with_topology(TopologyModel::ErdosRenyiMeanDegree { d: 12.5 })
            .with_capacity(CapacityModel::SaroiuShuffled {
                shuffle_seed: 0x5455,
            })
            .with_preference(PreferenceModel::BandedRankLatency {
                class_width: 10,
                span: 1000.0,
            })
            .with_churn(ChurnModel::Rate { rate: 0.003 })
            .with_strategy(InitiativeStrategy::Random)
            .with_swarm(SwarmParams {
                seeds: 2,
                fluid_content: true,
                behavior: BehaviorMix {
                    free_riders: 4,
                    altruists: 2,
                },
                ..SwarmParams::default()
            })
    }

    #[test]
    fn round_trip_identity() {
        for scenario in [
            Scenario::new("minimal", 10),
            full_scenario(),
            Scenario::new("explicit", 3)
                .with_topology(TopologyModel::Explicit {
                    edges: vec![(0, 1), (1, 2)],
                })
                .with_capacity(CapacityModel::Explicit {
                    values: vec![3.0, 2.0, 2.0],
                })
                .with_preference(PreferenceModel::GossipEstimated { sample_size: 30 })
                .with_churn(ChurnModel::PoissonPerBaseUnit {
                    events_per_base_unit: 2.5,
                }),
        ] {
            let json = scenario.to_json();
            let parsed = Scenario::from_json(&json).expect("round trip parses");
            assert_eq!(parsed, scenario, "round trip for {}", scenario.name);
            // Pretty form parses to the same value.
            assert_eq!(
                Scenario::from_json(&scenario.to_json_pretty()).unwrap(),
                scenario
            );
        }
    }

    #[test]
    fn json_shape_is_externally_tagged() {
        let json = full_scenario().to_json();
        assert!(json.contains("\"capacity\":{\"SaroiuShuffled\":{\"shuffle_seed\":21589}}"));
        assert!(json.contains("\"strategy\":\"Random\""));
        assert!(json.contains("\"churn\":{\"Rate\":{\"rate\":0.003}}"));
    }

    #[test]
    fn missing_and_unknown_fields_error() {
        assert!(matches!(
            Scenario::from_json("{}"),
            Err(ScenarioError::Parse(_))
        ));
        let mut json = full_scenario().to_json();
        json = json.replace("SaroiuShuffled", "Saroiuu");
        assert!(matches!(
            Scenario::from_json(&json),
            Err(ScenarioError::Parse(_))
        ));
        assert!(Scenario::from_json("not json at all").is_err());
    }

    #[test]
    fn churn_section_round_trips() {
        for arrival in [
            ArrivalProcess::None,
            ArrivalProcess::Poisson { rate: 4.5 },
            ArrivalProcess::Burst {
                round: 12,
                count: 300,
            },
            ArrivalProcess::Trace {
                arrivals: vec![(1, 2), (9, 40)],
            },
        ] {
            let scenario = Scenario::new("churny", 40).with_swarm(SwarmParams {
                churn: Some(SessionConfig {
                    arrival,
                    departure: DepartureRules {
                        leave_on_completion: 0.1,
                        seed_leave_prob: 0.25,
                        seed_exodus_round: Some(40),
                        abort_prob: 0.01,
                    },
                    arrival_upload_kbps: 400.0,
                    arrival_completion: 0.05,
                    target_degree: 12,
                    session_seed: 99,
                    peer_list_cap: Some(16),
                    compact_threshold: Some(0.5),
                }),
                ..SwarmParams::default()
            });
            let parsed = Scenario::from_json(&scenario.to_json()).expect("round trip parses");
            assert_eq!(parsed, scenario);
        }
        // `seed_exodus_round: null` round-trips too.
        let scenario = Scenario::new("churny", 10).with_swarm(SwarmParams {
            churn: Some(SessionConfig::default()),
            ..SwarmParams::default()
        });
        assert_eq!(Scenario::from_json(&scenario.to_json()).unwrap(), scenario);
    }

    #[test]
    fn faults_section_round_trips() {
        let scenario = Scenario::new("faulty", 30).with_swarm(SwarmParams {
            churn: Some(SessionConfig::default()),
            faults: Some(FaultPlan {
                crash_prob: 0.01,
                loss_prob: 0.05,
                outages: vec![FaultWindow {
                    start: 5,
                    rounds: 3,
                }],
                partitions: vec![
                    FaultWindow {
                        start: 10,
                        rounds: 4,
                    },
                    FaultWindow {
                        start: 30,
                        rounds: 2,
                    },
                ],
                fault_seed: 0xfa17,
            }),
            ..SwarmParams::default()
        });
        let json = scenario.to_json();
        assert!(json.contains("\"faults\":{\"crash_prob\":0.01"));
        let parsed = Scenario::from_json(&json).expect("faults round trip parses");
        assert_eq!(parsed, scenario);
        // Pretty form too.
        assert_eq!(
            Scenario::from_json(&scenario.to_json_pretty()).unwrap(),
            scenario
        );
    }

    #[test]
    fn timing_section_round_trips() {
        for timing in [
            EventTiming::default(),
            EventTiming {
                rechoke_interval: 10.0,
                transfer_quantum: Some(10.0),
                announce_interval: Some(120.0),
                speed_multipliers: vec![0.5, 1.0, 2.0],
            },
        ] {
            let scenario = Scenario::new("timed", 20).with_swarm(SwarmParams {
                timing: Some(timing),
                ..SwarmParams::default()
            });
            let json = scenario.to_json();
            assert!(json.contains("\"timing\":{\"rechoke_interval\":10"));
            let parsed = Scenario::from_json(&json).expect("timing round trip parses");
            assert_eq!(parsed, scenario);
            // Pretty form too.
            assert_eq!(
                Scenario::from_json(&scenario.to_json_pretty()).unwrap(),
                scenario
            );
        }
    }

    #[test]
    fn universe_section_round_trips() {
        for (membership, split) in [
            (MembershipModel::Single, CapacitySplit::EqualShare),
            (
                MembershipModel::Fixed { extra: 2 },
                CapacitySplit::DemandWeighted,
            ),
        ] {
            let scenario = Scenario::new("multi", 25).with_swarm(SwarmParams {
                churn: Some(SessionConfig::default()),
                universe: Some(UniverseParams {
                    torrents: 8,
                    popularity_skew: 1.2,
                    membership,
                    split,
                    class_upload_kbps: vec![150.0, 400.0, 950.0],
                    universe_seed: 0xbead,
                }),
                ..SwarmParams::default()
            });
            let json = scenario.to_json();
            assert!(json.contains("\"universe\":{\"torrents\":8"));
            let parsed = Scenario::from_json(&json).expect("universe round trip parses");
            assert_eq!(parsed, scenario);
            // Pretty form too.
            assert_eq!(
                Scenario::from_json(&scenario.to_json_pretty()).unwrap(),
                scenario
            );
        }
    }

    /// `json` without the last `,"key":<value>` member.
    fn strip_last_key(json: &str, key: &str) -> String {
        let needle = format!(",\"{key}\":");
        let start = json
            .rfind(&needle)
            .unwrap_or_else(|| panic!("`{key}` not in {json}"));
        let value = start + needle.len();
        let mut depth = 0;
        let len = json[value..]
            .find(|c| {
                match c {
                    '{' | '[' => depth += 1,
                    '}' | ']' | ',' if depth == 0 => return true,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                false
            })
            .expect("value is followed by `,` or a closing bracket");
        format!("{}{}", &json[..start], &json[value + len..])
    }

    /// Every key the decoder accepts as absent, with the value it then
    /// takes: `Option` keys (absent = `null`) and `#[serde(default)]` keys
    /// (absent = default). Preset files written before a key existed rely
    /// on these rows.
    #[test]
    fn omitted_keys_parse_to_their_defaults() {
        let full = Scenario::new("omit", 8).with_swarm(SwarmParams {
            churn: Some(SessionConfig {
                departure: DepartureRules {
                    seed_exodus_round: Some(40),
                    ..DepartureRules::none()
                },
                peer_list_cap: Some(16),
                compact_threshold: Some(0.5),
                ..SessionConfig::default()
            }),
            faults: Some(FaultPlan::none()),
            timing: Some(EventTiming {
                transfer_quantum: Some(10.0),
                announce_interval: Some(120.0),
                ..EventTiming::default()
            }),
            universe: Some(UniverseParams::default()),
            ..SwarmParams::default()
        });
        fn swarm(s: &mut Scenario) -> &mut SwarmParams {
            s.swarm.as_mut().unwrap()
        }
        fn churn(s: &mut Scenario) -> &mut SessionConfig {
            swarm(s).churn.as_mut().unwrap()
        }
        fn timing(s: &mut Scenario) -> &mut EventTiming {
            swarm(s).timing.as_mut().unwrap()
        }
        /// Resets the field a row's key encodes to its absent value.
        type Omit = fn(&mut Scenario);
        let rows: [(&str, Omit); 10] = [
            ("swarm", |s| s.swarm = None),
            ("churn", |s| swarm(s).churn = None),
            ("faults", |s| swarm(s).faults = None),
            ("timing", |s| swarm(s).timing = None),
            ("universe", |s| swarm(s).universe = None),
            ("peer_list_cap", |s| churn(s).peer_list_cap = None),
            ("compact_threshold", |s| churn(s).compact_threshold = None),
            ("seed_exodus_round", |s| {
                churn(s).departure.seed_exodus_round = None;
            }),
            ("transfer_quantum", |s| timing(s).transfer_quantum = None),
            ("announce_interval", |s| timing(s).announce_interval = None),
        ];
        let json = full.to_json();
        for (key, omitted) in rows {
            let stripped = strip_last_key(&json, key);
            let parsed =
                Scenario::from_json(&stripped).unwrap_or_else(|e| panic!("without `{key}`: {e}"));
            let mut expected = full.clone();
            omitted(&mut expected);
            assert_eq!(parsed, expected, "without `{key}`");
        }
        // A required key stays required.
        let err = Scenario::from_json(&strip_last_key(&json, "abort_prob")).unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    #[test]
    fn null_swarm_round_trips_to_none() {
        let scenario = Scenario::new("dyn-only", 5);
        let json = scenario.to_json();
        assert!(json.contains("\"swarm\":null"));
        assert_eq!(Scenario::from_json(&json).unwrap().swarm, None);
    }

    #[test]
    fn to_json_matches_trait_serialization() {
        use serde::Serialize as _;
        let s = Scenario::new("x", 1);
        let mut out = String::new();
        s.serialize_json_into(&mut out);
        assert_eq!(out, s.to_json());
    }
}
