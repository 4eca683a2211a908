//! Bandwidth distributions and the download/upload efficiency model of
//! *Stratification in P2P Networks*, Section 6 (Figures 10 and 11).
//!
//! [`BandwidthCdf`] models host upstream-bandwidth distributions as
//! piecewise log-linear CDFs; [`BandwidthCdf::saroiu_gnutella_upstream`] is
//! the synthetic stand-in for the Saroiu et al. Gnutella measurement the
//! paper uses (`src/distribution.rs` documents the substitution rationale).
//! [`efficiency_curve`] combines a CDF with the analytic `b₀`-matching mate
//! distribution (`strat-analytic`) to produce the expected
//! download/upload-ratio curve — the paper's practical BitTorrent insight.
//!
//! # Example
//!
//! ```
//! use strat_bandwidth::{efficiency_curve, BandwidthCdf, EfficiencyModel};
//!
//! let cdf = BandwidthCdf::saroiu_gnutella_upstream();
//! let curve = efficiency_curve(&EfficiencyModel { b0: 3, d: 20.0, n: 400 }, &cdf);
//! // Tit-for-Tat under stratification penalizes the fastest uploaders:
//! assert!(curve.first().unwrap().ratio < curve[200].ratio);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod distribution;
mod efficiency;

pub use distribution::{BandwidthCdf, BandwidthError};
pub use efficiency::{efficiency_curve, mean_ratio_in_band, EfficiencyModel, EfficiencyPoint};
