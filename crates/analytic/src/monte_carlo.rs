//! Monte-Carlo estimation of mate distributions (§5.4.3, Figure 9).
//!
//! The paper validates Algorithm 3 by drawing one million Erdős–Rényi
//! realizations (`n = 5000`, `p = 1 %`, 2-matching), computing the stable
//! configuration of each, and histogramming the first/second choices of
//! peer 3000 — "simulations requiring several weeks" on 2006 hardware.
//! This module reproduces that estimator with multi-threaded sampling
//! ([`strat_par`] scoped threads), making tens of thousands of
//! realizations a matter of seconds.
//!
//! # Algorithm 1, online on the pair stream
//!
//! A realization never materializes its graph.
//! [`generators::erdos_renyi_pairs`] yields the edges `(v, w)`, `w < v`,
//! in increasing `(v, w)` order, and the estimator runs the global-ranking
//! greedy on them as they arrive: one remaining-slot counter per peer, and
//! a pair is linked iff both ends still have a free slot. The realization
//! stops as soon as the observed peer has `b₀` mates. Its mates equal
//! [`strat_core::Matching::mates`] of Algorithm 1 on the materialized
//! graph, bit for bit, for three reasons:
//!
//! 1. Row `v` arrives in ascending `w`, so `v` is offered to better peers
//!    best-first.
//! 2. A peer `w`'s worse-ranked neighbours arrive in ascending `v`, so `w`
//!    scans them best-first, as the rank-order greedy does.
//! 3. Every decision depends only on pairs already seen: when `(v, w)`
//!    arrives, `w`'s counter holds exactly its links to peers better than
//!    `v`, and `v`'s its links to peers better than `w`. Mates therefore
//!    also come out best-first, in the order of `Matching::mates`, and no
//!    later pair can change the first `b₀`.
//!
//! A realization thus draws only the pairs up to the observed peer's last
//! mate (on the Figure 9 instance, roughly the ~45k edges in the rows up
//! to peer 3000, out of ~125k) and keeps one `u32` per peer.
//! [`crate::reference`] keeps the eager loop (graph, acceptance table, full
//! Algorithm 1) as the differential oracle.
//!
//! # Determinism contract
//!
//! Every realization `r` draws from its **own** ChaCha8 stream
//! `(seed, stream = r + 1)`, so the estimate is a pure function of the
//! configuration — independent of [`MonteCarloConfig::threads`] and of OS
//! scheduling. Histograms produced with 1 thread and with N threads are
//! identical, bit for bit (covered by a unit test below). Stopping early
//! only shortens a realization's own stream.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use strat_graph::generators;

/// Configuration of a Monte-Carlo estimation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MonteCarloConfig {
    /// Number of peers.
    pub n: usize,
    /// Erdős–Rényi edge probability.
    pub p: f64,
    /// Slots per peer (constant `b₀`-matching).
    pub b0: u32,
    /// Number of independent graph realizations.
    pub realizations: u64,
    /// Base RNG seed; realization `r` uses stream `r + 1` of this seed.
    pub seed: u64,
    /// Worker threads (clamped to at least 1). Changes wall-clock time
    /// only, never the result.
    pub threads: usize,
}

impl MonteCarloConfig {
    /// The paper's Figure 9 setting, scaled down to `realizations` samples.
    #[must_use]
    pub fn figure9(realizations: u64) -> Self {
        Self {
            n: 5000,
            p: 0.01,
            b0: 2,
            realizations,
            seed: 0x51a7,
            threads: strat_par::default_threads(),
        }
    }
}

/// Per-choice mate-rank histograms for one observed peer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChoiceHistogram {
    /// The observed peer (0-based rank).
    pub peer: usize,
    /// `counts[c][j]` = number of realizations in which choice `c+1` of the
    /// observed peer was peer `j`.
    pub counts: Vec<Vec<u64>>,
    /// Realizations in which the peer had fewer than `c+1` mates.
    pub missing: Vec<u64>,
    /// Total realizations.
    pub realizations: u64,
}

impl ChoiceHistogram {
    /// Empirical probability `D̂_c(peer, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `c ∉ 1..=b₀` or `j` is out of range.
    #[must_use]
    pub fn probability(&self, c: u32, j: usize) -> f64 {
        self.counts[(c - 1) as usize][j] as f64 / self.realizations as f64
    }

    /// Empirical probability that the peer had at least `c` mates.
    #[must_use]
    pub fn choice_mass(&self, c: u32) -> f64 {
        1.0 - self.missing[(c - 1) as usize] as f64 / self.realizations as f64
    }

    /// Empirical distribution row for choice `c` (probabilities over ranks).
    #[must_use]
    pub fn row(&self, c: u32) -> Vec<f64> {
        self.counts[(c - 1) as usize]
            .iter()
            .map(|&k| k as f64 / self.realizations as f64)
            .collect()
    }
}

/// Estimates the per-choice mate distribution of `peer` by simulating
/// `cfg.realizations` independent acceptance graphs and running
/// Algorithm 1 on each, online on its pair stream (see the module docs).
///
/// Deterministic for a fixed `cfg.seed` — **regardless of
/// `cfg.threads`** — because realization `r` always draws from stream
/// `r + 1` of the base seed (see the module docs).
///
/// # Panics
///
/// Panics if `peer >= cfg.n` or `cfg.p ∉ [0, 1]`.
#[must_use]
pub fn estimate_choice_distribution(cfg: &MonteCarloConfig, peer: usize) -> ChoiceHistogram {
    let b = cfg.b0 as usize;
    tally(cfg, peer, || {
        let mut free = vec![0u32; cfg.n];
        move |rng: &mut ChaCha8Rng, mates: &mut Vec<usize>| {
            free.fill(cfg.b0);
            let mut pairs = generators::erdos_renyi_pairs(cfg.n, cfg.p, rng);
            // No later pair can change the observed peer's first b₀ mates.
            while mates.len() < b {
                let Some((v, w)) = pairs.next() else { break };
                let (v, w) = (v.index(), w.index());
                if free[v] > 0 && free[w] > 0 {
                    free[v] -= 1;
                    free[w] -= 1;
                    if v == peer {
                        mates.push(w);
                    } else if w == peer {
                        mates.push(v);
                    }
                }
            }
        }
    })
}

/// The estimator's driver: checks `cfg` and `peer`, runs realization `r`
/// on stream `r + 1` of `cfg.seed` through a per-thread observer built by
/// `worker`, and histograms the mates of `peer` (best-first) that the
/// observer appends.
pub(crate) fn tally<W, F>(cfg: &MonteCarloConfig, peer: usize, worker: W) -> ChoiceHistogram
where
    W: Fn() -> F + Sync,
    F: FnMut(&mut ChaCha8Rng, &mut Vec<usize>),
{
    assert!(
        peer < cfg.n,
        "observed peer {peer} out of range for n = {}",
        cfg.n
    );
    assert!(
        cfg.p.is_finite() && (0.0..=1.0).contains(&cfg.p),
        "p must be in [0, 1], got {}",
        cfg.p
    );
    let b = cfg.b0 as usize;
    let empty = || (vec![vec![0u64; cfg.n]; b], vec![0u64; b]);

    // Contiguous blocks of realization indices; the block → worker mapping
    // is irrelevant to the result because streams are per-realization.
    let blocks = strat_par::chunk_ranges(cfg.realizations, cfg.threads.max(1));
    let partials = strat_par::par_map(&blocks, cfg.threads.max(1), |_, block| {
        let (mut counts, mut missing) = empty();
        let mut observe = worker();
        let mut mates = Vec::with_capacity(b);
        for r in block.clone() {
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
            rng.set_stream(r + 1);
            mates.clear();
            observe(&mut rng, &mut mates);
            for c in 0..b {
                match mates.get(c) {
                    Some(&mate) => counts[c][mate] += 1,
                    None => missing[c] += 1,
                }
            }
        }
        (counts, missing)
    });

    let (mut counts, mut missing) = empty();
    for (part_counts, part_missing) in partials {
        for c in 0..b {
            for j in 0..cfg.n {
                counts[c][j] += part_counts[c][j];
            }
            missing[c] += part_missing[c];
        }
    }
    ChoiceHistogram {
        peer,
        counts,
        missing,
        realizations: cfg.realizations,
    }
}

/// L1 distance between an empirical row and an analytic row (both over
/// ranks), a scale-free agreement measure for Figure 9-style validations.
#[must_use]
pub fn l1_distance(empirical: &[f64], analytic: &[f64]) -> f64 {
    empirical
        .iter()
        .zip(analytic)
        .map(|(e, a)| (e - a).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use crate::b_matching;

    use super::*;

    fn small_cfg(realizations: u64) -> MonteCarloConfig {
        MonteCarloConfig {
            n: 120,
            p: 0.08,
            b0: 2,
            realizations,
            seed: 99,
            threads: 4,
        }
    }

    #[test]
    fn histogram_totals_are_consistent() {
        let cfg = small_cfg(400);
        let h = estimate_choice_distribution(&cfg, 60);
        for c in 0..2usize {
            let total: u64 = h.counts[c].iter().sum::<u64>() + h.missing[c];
            assert_eq!(total, 400, "choice {c}");
        }
        assert!(h.choice_mass(1) >= h.choice_mass(2));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = small_cfg(100);
        let a = estimate_choice_distribution(&cfg, 30);
        let b = estimate_choice_distribution(&cfg, 30);
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_matches_analytic_within_sampling_error() {
        // The Figure 9 validation in miniature: empirical vs Algorithm 3.
        let cfg = small_cfg(4000);
        let h = estimate_choice_distribution(&cfg, 60);
        let analytic = b_matching::solve(cfg.n, cfg.p, cfg.b0, &[60]);
        for c in 1..=2u32 {
            let l1 = l1_distance(&h.row(c), analytic.choice_row(60, c).unwrap());
            // L1 over ~25 effective support points with 4000 samples:
            // statistical noise ~ sqrt(k/N) ≈ 0.08; independence bias adds a
            // little. 0.25 is a conservative gate that still fails badly
            // wrong implementations (uniform rows would score ~1.9).
            assert!(l1 < 0.25, "choice {c}: L1 = {l1}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_histogram() {
        // Per-realization streams: the full histogram (not just totals) is
        // identical for every thread count.
        let mut cfg = small_cfg(60);
        let reference = estimate_choice_distribution(&cfg, 10);
        for threads in [1usize, 2, 3, 8, 64] {
            cfg.threads = threads;
            let h = estimate_choice_distribution(&cfg, 10);
            assert_eq!(h, reference, "threads = {threads}");
        }
    }

    #[test]
    fn l1_distance_basics() {
        assert_eq!(l1_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((l1_distance(&[1.0, 0.0], &[0.0, 1.0]) - 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_peer_panics() {
        let cfg = small_cfg(1);
        let _ = estimate_choice_distribution(&cfg, 500);
    }
}
