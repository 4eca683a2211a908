//! Graph generators used by the paper's experiments.
//!
//! The paper's simulations use *Erdős–Rényi loopless symmetric graphs*
//! `G(n, d)` where `d` is the expected degree (each edge exists independently
//! with probability `d / (n - 1)`), and *complete* acceptance graphs for the
//! toy stratification model of Section 4.

use rand::Rng;

use crate::{Graph, GraphBuilder, NodeId};

/// Complete (everybody-accepts-everybody) graph on `n` nodes.
///
/// This is the Section 4 toy model acceptance graph.
///
/// # Examples
///
/// ```
/// let g = strat_graph::generators::complete(5);
/// assert_eq!(g.edge_count(), 10);
/// ```
#[must_use]
pub fn complete(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            builder
                .add_edge(NodeId::new(u), NodeId::new(v))
                .expect("complete graph edges are valid");
        }
    }
    builder.build()
}

/// Cycle `0 - 1 - … - (n-1) - 0`.
///
/// Used by connectivity arguments (§4.1: the cycle is the unique connected
/// 2-regular graph).
///
/// # Panics
///
/// Panics if `n < 3` (a loopless cycle needs at least three nodes).
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires at least 3 nodes, got {n}");
    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        builder
            .add_edge(NodeId::new(u), NodeId::new((u + 1) % n))
            .expect("cycle edges are valid");
    }
    builder.build()
}

/// Path `0 - 1 - … - (n-1)`.
#[must_use]
pub fn path(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for u in 1..n {
        builder
            .add_edge(NodeId::new(u - 1), NodeId::new(u))
            .expect("path edges are valid");
    }
    builder.build()
}

/// Star with centre `0` and `n - 1` leaves.
#[must_use]
pub fn star(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for u in 1..n {
        builder
            .add_edge(NodeId::new(0), NodeId::new(u))
            .expect("star edges are valid");
    }
    builder.build()
}

/// Erdős–Rényi graph `G(n, p)`: every unordered pair is an edge independently
/// with probability `p`.
///
/// Collects [`erdos_renyi_pairs`], so it draws exactly the randomness of the
/// pair stream: `O(n + m)` expected time, and sparse graphs with large `n`
/// (the paper uses `n = 5000`, `p = 0.5 %`) are cheap.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is NaN.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = strat_graph::generators::erdos_renyi(100, 0.05, &mut rng);
/// assert!(g.check_invariants());
/// ```
#[must_use]
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    Graph::from_edges(n, erdos_renyi_pairs(n, p, rng)).expect("sampled pairs are valid edges")
}

/// The edges of `G(n, p)` as a stream of pairs `(v, w)` with `w < v`, in
/// strictly increasing `(v, w)` order.
///
/// This is the Batagelj–Brandes (2005) geometric-skip sampler: it walks the
/// lower-triangular pair enumeration and skips a geometric number of
/// non-edges per draw, so each yielded pair costs one draw and a consumer
/// that stops early leaves the rest of the stream undrawn. With `p >= 1`
/// it yields every pair and draws nothing; with `p == 0` or `n < 2` it
/// yields nothing.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is NaN.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use strat_graph::{generators, NodeId};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pairs: Vec<_> = generators::erdos_renyi_pairs(3, 1.0, &mut rng).collect();
/// let n = NodeId::new;
/// assert_eq!(pairs, [(n(1), n(0)), (n(2), n(0)), (n(2), n(1))]);
/// ```
pub fn erdos_renyi_pairs<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> ErdosRenyiPairs<'_, R> {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "p must be in [0, 1], got {p}"
    );
    ErdosRenyiPairs {
        rng,
        n,
        log_q: (1.0 - p).ln(),
        complete: p >= 1.0,
        v: if p == 0.0 { n } else { 1 },
        w: -1,
    }
}

/// Iterator returned by [`erdos_renyi_pairs`].
#[derive(Debug)]
pub struct ErdosRenyiPairs<'a, R: ?Sized> {
    rng: &'a mut R,
    n: usize,
    /// `ln(1 - p)`, the scale of the geometric skips.
    log_q: f64,
    /// `p >= 1`: enumerate every pair without drawing.
    complete: bool,
    /// Current row; the stream is exhausted once `v >= n`.
    v: usize,
    /// Last yielded column in row `v` (`-1` before the first pair).
    w: i64,
}

impl<R: Rng + ?Sized> Iterator for ErdosRenyiPairs<'_, R> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.n;
        if self.v >= n {
            return None;
        }
        if self.complete {
            self.w += 1;
            if self.w >= self.v as i64 {
                self.w = 0;
                self.v += 1;
            }
        } else {
            let r: f64 = self.rng.gen_range(0.0..1.0);
            // Number of skipped pairs: floor(log(1-r) / log(1-p)).
            let skip = ((1.0 - r).ln() / self.log_q).floor();
            // Guard against astronomically large skips overflowing i64.
            if !skip.is_finite() || skip >= (n * n) as f64 {
                self.v = n;
                return None;
            }
            self.w += 1 + skip as i64;
            while self.w >= self.v as i64 && self.v < n {
                self.w -= self.v as i64;
                self.v += 1;
            }
        }
        (self.v < n).then(|| (NodeId::new(self.v), NodeId::new(self.w as usize)))
    }
}

/// Erdős–Rényi graph `G(n, d)` parameterized by the *expected degree* `d`, as
/// in the paper: each edge exists with probability `d / (n - 1)`.
///
/// `d` is clamped to the feasible range `[0, n - 1]`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = strat_graph::generators::erdos_renyi_mean_degree(1000, 10.0, &mut rng);
/// let mean = 2.0 * g.edge_count() as f64 / 1000.0;
/// assert!((mean - 10.0).abs() < 1.5, "mean degree {mean} too far from 10");
/// ```
#[must_use]
pub fn erdos_renyi_mean_degree<R: Rng + ?Sized>(n: usize, d: f64, rng: &mut R) -> Graph {
    assert!(
        d.is_finite() && d >= 0.0,
        "expected degree must be non-negative, got {d}"
    );
    if n <= 1 {
        return Graph::empty(n);
    }
    let p = (d / (n as f64 - 1.0)).clamp(0.0, 1.0);
    erdos_renyi(n, p, rng)
}

#[cfg(test)]
mod tests {
    use rand::{RngCore as _, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;

    #[test]
    fn complete_counts() {
        for n in 0..8 {
            let g = complete(n);
            assert_eq!(g.edge_count(), n * n.saturating_sub(1) / 2);
            assert!(g.check_invariants());
        }
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(5);
        assert_eq!(g.edge_count(), 5);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn tiny_cycle_panics() {
        let _ = cycle(2);
    }

    #[test]
    fn path_and_star_shapes() {
        let p = path(4);
        assert_eq!(p.edge_count(), 3);
        assert_eq!(p.degree(NodeId::new(0)), 1);
        assert_eq!(p.degree(NodeId::new(1)), 2);

        let s = star(5);
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.degree(NodeId::new(0)), 4);
        assert_eq!(s.degree(NodeId::new(3)), 1);
    }

    #[test]
    fn er_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(erdos_renyi(10, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng).edge_count(), 45);
        assert_eq!(erdos_renyi(0, 0.5, &mut rng).node_count(), 0);
        assert_eq!(erdos_renyi(1, 0.5, &mut rng).edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn er_rejects_bad_p() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = erdos_renyi(5, 1.5, &mut rng);
    }

    #[test]
    fn er_edge_count_concentrates() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 2000;
        let p = 0.01;
        let g = erdos_renyi(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.edge_count() as f64;
        // ~sqrt(expected) std; allow 5 sigma.
        assert!(
            (got - expected).abs() < 5.0 * expected.sqrt(),
            "edge count {got} too far from {expected}"
        );
        assert!(g.check_invariants());
    }

    #[test]
    fn er_mean_degree_parameterization() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = erdos_renyi_mean_degree(1000, 50.0, &mut rng);
        let mean = 2.0 * g.edge_count() as f64 / 1000.0;
        assert!((mean - 50.0).abs() < 3.0, "mean degree {mean}");
    }

    #[test]
    fn er_mean_degree_clamps() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // d > n-1 clamps to complete.
        let g = erdos_renyi_mean_degree(5, 100.0, &mut rng);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn er_graph_collects_the_pair_stream() {
        for (n, p) in [
            (200, 0.03),
            (50, 0.5),
            (7, 1.0),
            (30, 0.0),
            (1, 0.5),
            (0, 0.5),
        ] {
            let g = erdos_renyi(n, p, &mut ChaCha8Rng::seed_from_u64(11));
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let pairs = erdos_renyi_pairs(n, p, &mut rng);
            assert_eq!(g, Graph::from_edges(n, pairs).unwrap(), "n = {n}, p = {p}");
        }
    }

    #[test]
    fn er_pairs_are_strictly_increasing_below_the_diagonal() {
        for p in [0.02, 0.3, 0.97, 1.0] {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let pairs: Vec<(usize, usize)> = erdos_renyi_pairs(150, p, &mut rng)
                .map(|(v, w)| (v.index(), w.index()))
                .collect();
            assert!(!pairs.is_empty(), "p = {p}");
            assert!(pairs.iter().all(|&(v, w)| w < v && v < 150), "p = {p}");
            assert!(pairs.windows(2).all(|x| x[0] < x[1]), "p = {p}");
        }
        let every = erdos_renyi_pairs(6, 1.0, &mut ChaCha8Rng::seed_from_u64(5)).count();
        assert_eq!(every, 15);
    }

    #[test]
    fn er_pairs_draw_nothing_at_p0_p1_and_below_two_nodes() {
        for (n, p) in [(40, 0.0), (40, 1.0), (1, 0.5), (0, 0.5)] {
            let mut used = ChaCha8Rng::seed_from_u64(8);
            let mut fresh = used.clone();
            let yielded = erdos_renyi_pairs(n, p, &mut used).count();
            assert_eq!(yielded, if p == 1.0 { n * (n - 1) / 2 } else { 0 });
            assert_eq!(used.next_u64(), fresh.next_u64(), "n = {n}, p = {p}");
        }
    }

    #[test]
    fn er_is_deterministic_for_fixed_seed() {
        let g1 = erdos_renyi(200, 0.03, &mut ChaCha8Rng::seed_from_u64(9));
        let g2 = erdos_renyi(200, 0.03, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(g1, g2);
    }
}
