//! Analytic mate-distribution solvers for global-ranking b-matching on
//! Erdős–Rényi acceptance graphs (Section 5 of *Stratification in P2P
//! Networks*).
//!
//! Four complementary routes to the mate distribution `D(i, j)`:
//!
//! | module | method | role |
//! |--------|--------|------|
//! | [`one_matching`] | Algorithm 2 (independence assumption) | fast `O(n²)` time / `O(n)` memory recurrence for 1-matching |
//! | [`b_matching`] | Algorithm 3 | per-choice distributions `D_c(i, j)` for `b₀`-matching |
//! | [`exact`] | exhaustive graph enumeration (tiny `n`) | gold standard; quantifies the independence error (Figure 7) |
//! | [`monte_carlo`] | parallel simulation of Algorithm 1, online on each graph's pair stream | empirical validation at real scale (Figure 9) |
//!
//! plus [`mod@reference`], the eager Monte-Carlo estimator kept as
//! [`monte_carlo`]'s oracle, and [`fluid`], the `n → ∞` fluid limit
//! `M_{0,d}(β) = d·e^{−βd}` (Conjecture 1) showing stratification is
//! governed solely by the mean acceptable-peer count `d` — the paper's
//! scalability argument.
//!
//! # Example: the regimes of Figure 8
//!
//! ```
//! use strat_analytic::one_matching;
//!
//! let n = 1000;
//! let sol = one_matching::solve(n, 0.025, &[40, 500, 960]);
//!
//! // Top peers mate just below themselves; mid-rank peers see a symmetric
//! // distribution centred on their own rank; bottom peers risk staying
//! // unmatched.
//! assert!(sol.unmatched_probability(40) < 1e-6);
//! assert!(sol.unmatched_probability(960) > 0.005);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// Index-coupled loops are the domain idiom here: the recurrence solvers iterate coupled (i, j, c) index families over triangular domains; iterator rewrites obscure the paper's algorithm statements.
#![allow(clippy::needless_range_loop)]

pub mod b_matching;
pub mod exact;
pub mod fluid;
pub mod monte_carlo;
pub mod one_matching;
pub mod reference;
