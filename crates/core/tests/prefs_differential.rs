//! Differential properties of the generalized-preference path: the
//! dirty-set engine (`GeneralDynamics::settle`) must be observationally
//! identical to the full-scan oracle `reference::best_mate_dynamics` —
//! same stable edge sets, and on instances without a stable
//! configuration the same revisit report (same configuration, same
//! number of active initiatives) — across latency, banded,
//! lexicographic, gossip-estimated and explicit preference systems.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_core::prefs::{
    odd_cycle_instance, BandedRankPrefs, ExplicitPrefs, GeneralDynamics, GlobalPrefs, LatencyPrefs,
    LexicographicPrefs, PreferenceSystem,
};
use strat_core::reference::{self, PrefDynamicsOutcome, PrefMatching};
use strat_core::{gossip, Capacities, GlobalRanking, InitiativeStrategy, Matching, ModelError};
use strat_graph::{Graph, NodeId};

/// Raw instance material: `(n, edge list, positions, capacities)`.
type RawInstance = (usize, Vec<(usize, usize)>, Vec<u32>, Vec<u32>);

fn instance(max_n: usize) -> impl Strategy<Value = RawInstance> {
    (3..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(5 * n));
        // Integer position material keeps latency ties exercising the
        // deterministic id tie-break.
        let positions = proptest::collection::vec(0u32..64, n);
        let caps = proptest::collection::vec(0u32..4, n);
        (Just(n), edges, positions, caps)
    })
}

fn build_graph(n: usize, raw_edges: &[(usize, usize)]) -> Graph {
    let mut builder = Graph::builder(n);
    for &(u, v) in raw_edges {
        if u != v {
            builder
                .add_edge(NodeId::new(u), NodeId::new(v))
                .expect("endpoints in range");
        }
    }
    builder.build()
}

/// The engine and the oracle must agree outcome for outcome: a stable
/// engine run reaches the oracle's edge set; an engine revisit
/// (`NoStableConfiguration`) stops at the oracle's oscillation point
/// after the oracle's number of active initiatives.
fn assert_identical<P: PreferenceSystem>(graph: &Graph, prefs: &P, caps: &Capacities) {
    let mut engine =
        GeneralDynamics::from_preferences(graph, prefs, caps.clone(), InitiativeStrategy::BestMate)
            .expect("capacities cover the graph");
    let settled = engine.settle();
    match (settled, reference::best_mate_dynamics(graph, prefs, caps)) {
        (Ok(steps), PrefDynamicsOutcome::Stable(oracle)) => {
            assert_eq!(steps, engine.active_initiative_count());
            assert_same_edges(engine.matching(), &oracle);
        }
        (
            Err(ModelError::NoStableConfiguration),
            PrefDynamicsOutcome::Oscillating { at, steps },
        ) => {
            assert_eq!(
                engine.active_initiative_count(),
                steps,
                "oscillation detected after different step counts"
            );
            assert_same_edges(engine.matching(), &at);
        }
        (settled, oracle) => panic!("outcome kind diverged: {settled:?} vs {oracle:?}"),
    }
}

/// Edge-set equality: the engine's arena lists mates in preference-key
/// order, the oracle's `PrefMatching` in insertion order, so rows are
/// compared as sets.
fn assert_same_edges(engine: &Matching, oracle: &PrefMatching) {
    assert_eq!(engine.node_count(), oracle.node_count());
    assert_eq!(engine.edge_count(), oracle.edge_count());
    for v in 0..engine.node_count() {
        let v = NodeId::new(v);
        let mut a = engine.mates(v).to_vec();
        let mut b = oracle.mates(v).to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "peer {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn latency_systems_agree((n, edges, positions, caps) in instance(40)) {
        let graph = build_graph(n, &edges);
        let prefs = LatencyPrefs::new(positions.iter().map(|&p| f64::from(p)).collect());
        let caps = Capacities::from_values(caps);
        assert_identical(&graph, &prefs, &caps);
    }

    #[test]
    fn banded_lexicographic_systems_agree(
        (n, edges, positions, caps) in instance(40),
        class_width in 1usize..8,
    ) {
        let graph = build_graph(n, &edges);
        let prefs = LexicographicPrefs::new(
            BandedRankPrefs::new(GlobalRanking::identity(n), class_width),
            LatencyPrefs::new(positions.iter().map(|&p| f64::from(p)).collect()),
        );
        let caps = Capacities::from_values(caps);
        assert_identical(&graph, &prefs, &caps);
    }

    #[test]
    fn gossip_estimated_systems_agree(
        (n, edges, _, caps) in instance(40),
        seed in 0u64..1000,
        sample_size in 1usize..20,
    ) {
        let graph = build_graph(n, &edges);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let estimated =
            gossip::estimate_ranking(&GlobalRanking::identity(n), sample_size, &mut rng);
        let prefs = GlobalPrefs::new(estimated);
        let caps = Capacities::from_values(caps);
        assert_identical(&graph, &prefs, &caps);
    }

    #[test]
    fn explicit_systems_agree_including_oscillations(
        (n, edges, orders_seed, caps) in instance(16),
    ) {
        // Explicit per-peer orders derived from hashing material: this is
        // the class where odd preference cycles actually occur, so both
        // the stable and the oscillating arm get exercised.
        let graph = build_graph(n, &edges);
        let orders: Vec<Vec<NodeId>> = (0..n)
            .map(|p| {
                let mut order: Vec<NodeId> = (0..n).filter(|&q| q != p).map(NodeId::new).collect();
                let key = orders_seed[p % orders_seed.len()] as usize;
                let len = order.len().max(1);
                order.rotate_left(key % len);
                if key % 2 == 1 {
                    order.reverse();
                }
                order
            })
            .collect();
        let prefs = ExplicitPrefs::new(orders);
        let caps = Capacities::from_values(caps);
        assert_identical(&graph, &prefs, &caps);
    }
}

#[test]
fn odd_cycle_oscillation_reports_agree() {
    let (graph, prefs) = odd_cycle_instance();
    let caps = Capacities::constant(3, 1);
    let PrefDynamicsOutcome::Oscillating { steps, .. } =
        reference::best_mate_dynamics(&graph, &prefs, &caps)
    else {
        panic!("oracle missed the odd cycle");
    };
    assert!(steps > 0);
    assert_identical(&graph, &prefs, &caps);
}
