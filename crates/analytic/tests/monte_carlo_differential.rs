//! Differential suite for the streamed Monte-Carlo estimator: running
//! Algorithm 1 online on the Erdős–Rényi pair stream, and stopping once the
//! observed peer has `b₀` mates, must give the eager estimator's histogram
//! (materialized graph, acceptance table, full Algorithm 1) bit for bit.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_analytic::monte_carlo::{self, MonteCarloConfig};
use strat_analytic::reference;
use strat_core::{stable_configuration, Capacities, GlobalRanking, RankedAcceptance};
use strat_graph::{generators, NodeId};

fn config(n: usize, p: f64, b0: u32, realizations: u64, threads: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        n,
        p,
        b0,
        realizations,
        seed: 0x5eed ^ n as u64,
        threads,
    }
}

/// Streamed and eager histograms agree; returns the streamed one.
fn assert_identical(cfg: &MonteCarloConfig, peer: usize) -> monte_carlo::ChoiceHistogram {
    let streamed = monte_carlo::estimate_choice_distribution(cfg, peer);
    let eager = reference::estimate_choice_distribution(cfg, peer);
    assert_eq!(streamed, eager, "{cfg:?}, peer {peer}");
    streamed
}

#[test]
fn streamed_matches_eager_on_the_figure9_regime_instances() {
    for (n, p, b0, peer) in [(120, 0.08, 2, 60), (200, 0.06, 2, 120), (600, 0.05, 2, 359)] {
        let h = assert_identical(&config(n, p, b0, 300, 2), peer);
        // Not vacuous: the observed peer is matched in most realizations.
        assert!(h.choice_mass(2) > 0.5, "n = {n}: {}", h.choice_mass(2));
    }
}

#[test]
fn streamed_matches_eager_for_every_slot_count() {
    for b0 in [0, 1, 3, 4] {
        let h = assert_identical(&config(200, 0.06, b0, 200, 2), 120);
        assert_eq!(h.counts.len(), b0 as usize);
    }
}

#[test]
fn streamed_matches_eager_at_the_first_and_last_peer() {
    for peer in [0, 199] {
        assert_identical(&config(200, 0.06, 2, 200, 2), peer);
    }
}

#[test]
fn streamed_matches_eager_on_empty_and_complete_graphs() {
    for p in [0.0, 1.0] {
        for peer in [0, 59, 119] {
            let h = assert_identical(&config(120, p, 2, 20, 2), peer);
            let expected = if p == 0.0 { 0.0 } else { 1.0 };
            assert_eq!(h.choice_mass(1), expected, "p = {p}, peer {peer}");
        }
    }
}

#[test]
fn streamed_matches_eager_on_one_and_two_peers() {
    for n in [1, 2] {
        for peer in 0..n {
            assert_identical(&config(n, 0.5, 2, 50, 2), peer);
        }
    }
}

#[test]
fn streamed_matches_eager_at_any_thread_count() {
    let serial = assert_identical(&config(200, 0.06, 2, 90, 1), 120);
    for threads in [2, 8] {
        let h = assert_identical(&config(200, 0.06, 2, 90, threads), 120);
        assert_eq!(h, serial, "threads = {threads}");
    }
}

#[test]
fn streamed_mates_of_every_peer_are_algorithm1_mates() {
    // One realization per histogram encodes its mates exactly, so this
    // checks every peer of each graph against Algorithm 1 directly.
    for (n, p, b0) in [(40, 0.15, 2), (60, 0.1, 3), (30, 0.3, 1)] {
        let cfg = config(n, p, b0, 1, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        rng.set_stream(1);
        let graph = generators::erdos_renyi(n, p, &mut rng);
        let acc = RankedAcceptance::new(graph, GlobalRanking::identity(n)).unwrap();
        let stable = stable_configuration(&acc, &Capacities::constant(n, b0)).unwrap();
        for q in 0..n {
            let h = monte_carlo::estimate_choice_distribution(&cfg, q);
            let streamed: Vec<usize> = (0..b0 as usize)
                .map_while(|c| h.counts[c].iter().position(|&k| k == 1))
                .collect();
            let mates: Vec<usize> = stable
                .mates(NodeId::new(q))
                .iter()
                .map(|m| m.index())
                .collect();
            assert_eq!(streamed, mates, "n = {n}, p = {p}, b0 = {b0}, peer {q}");
        }
    }
}
