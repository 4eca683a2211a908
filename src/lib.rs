//! # stratification
//!
//! A from-scratch Rust reproduction of **“Stratification in P2P Networks —
//! Application to BitTorrent”** (Anh-Tuan Gai, Fabien Mathieu, Julien
//! Reynier, Fabien de Montgolfier; INRIA RR-6081, ICDCS 2007).
//!
//! The paper models collaborative peer-to-peer networks as **stable
//! b-matching under a global ranking**: every peer agrees on a single
//! quality order (upload bandwidth in BitTorrent), owns `b(p)` collaboration
//! slots, and keeps trading partners for better ones. A unique stable
//! configuration exists; initiative dynamics converge to it; and in it,
//! peers collaborate only with peers of nearby rank — **stratification** —
//! which explains BitTorrent's Tit-for-Tat clustering, the share-ratio
//! structure across bandwidth classes, and the default of 4 unchoke slots.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`graph`] | `strat-graph` | acceptance graphs, Erdős–Rényi generators, components |
//! | [`core`] | `strat-core` | ranking, b-matching, Algorithm 1, initiative dynamics, churn, cluster/MMO |
//! | [`analytic`] | `strat-analytic` | Algorithms 2–3, exact enumeration, fluid limit, Monte Carlo |
//! | [`bandwidth`] | `strat-bandwidth` | Saroiu-style bandwidth CDF, D/U efficiency model |
//! | [`bittorrent`] | `strat-bittorrent` | TFT swarm simulator (rarest-first, optimistic unchoke, behavior mixes) |
//! | [`scenario`] | `strat-scenario` | declarative, JSON-serializable `Scenario` values driving both backends |
//! | [`sim`] | `strat-sim` | the experiment harness regenerating every paper table/figure |
//!
//! # Quick start
//!
//! ```
//! use stratification::core::{
//!     blocking, stable_configuration, Capacities, GlobalRanking, RankedAcceptance,
//! };
//! use stratification::graph::generators;
//! use rand::SeedableRng;
//!
//! // 500 peers, each accepting ~20 random others, 3 collaboration slots.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
//! let graph = generators::erdos_renyi_mean_degree(500, 20.0, &mut rng);
//! let acc = RankedAcceptance::new(graph, GlobalRanking::identity(500))?;
//! let caps = Capacities::constant(500, 3);
//!
//! // The unique stable configuration (paper Algorithm 1).
//! let stable = stable_configuration(&acc, &caps)?;
//! assert!(blocking::is_stable(&acc, &caps, &stable));
//!
//! // Stratification: mates stay close in rank.
//! let stats = stratification::core::cluster::cluster_stats(acc.ranking(), &stable);
//! assert!(stats.mmo < 100.0); // mean max offset ≪ n
//! # Ok::<(), stratification::core::ModelError>(())
//! ```
//!
//! See `examples/` for runnable scenarios, README.md for the figure →
//! experiment index and docs/ARCHITECTURE.md for the system map.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use strat_analytic as analytic;
pub use strat_bandwidth as bandwidth;
pub use strat_bittorrent as bittorrent;
pub use strat_core as core;
pub use strat_graph as graph;
pub use strat_scenario as scenario;
pub use strat_sim as sim;
