//! The eager Monte-Carlo estimator, kept as the oracle for
//! [`crate::monte_carlo`].
//!
//! Each realization materializes its whole `G(n, p)` graph, builds the
//! rank-sorted acceptance table, runs Algorithm 1 over every peer and reads
//! the observed peer's mates. [`crate::monte_carlo`] runs the same greedy
//! online on the graph's pair stream and stops early; the differential
//! suite (`tests/monte_carlo_differential.rs`) requires the two histograms
//! to be equal bit for bit. Not meant for production use: on the Figure 9
//! instance it is several times slower than the streamed estimator.

use rand_chacha::ChaCha8Rng;
use strat_core::{stable_configuration, Capacities, GlobalRanking, RankedAcceptance};
use strat_graph::{generators, NodeId};

use crate::monte_carlo::{self, ChoiceHistogram, MonteCarloConfig};

/// [`monte_carlo::estimate_choice_distribution`] computed by materializing
/// each realization's graph and its full stable configuration. Same
/// configuration, same streams, same histogram.
///
/// # Panics
///
/// Panics if `peer >= cfg.n` or `cfg.p ∉ [0, 1]`.
#[must_use]
pub fn estimate_choice_distribution(cfg: &MonteCarloConfig, peer: usize) -> ChoiceHistogram {
    let ranking = GlobalRanking::identity(cfg.n);
    let caps = Capacities::constant(cfg.n, cfg.b0);
    monte_carlo::tally(cfg, peer, || {
        |rng: &mut ChaCha8Rng, mates: &mut Vec<usize>| {
            let g = generators::erdos_renyi(cfg.n, cfg.p, rng);
            let acc = RankedAcceptance::new(g, ranking.clone()).expect("sizes match");
            let m = stable_configuration(&acc, &caps).expect("sizes match");
            mates.extend(m.mates(NodeId::new(peer)).iter().map(|j| j.index()));
        }
    })
}
