//! # jcdn-stats — descriptive statistics and sampling distributions
//!
//! Shared numeric substrate for the jcdn workspace:
//!
//! * [`Summary`] — streaming count/mean/variance/min/max (Welford),
//! * [`ExactQuantiles`] — exact order statistics over collected samples,
//! * [`Histogram`] / [`LogHistogram`] — fixed-bin and log-spaced histograms
//!   with ASCII rendering (used to print Figure 5 of the paper),
//! * [`Ecdf`] — empirical CDFs with evaluation and inverse (Figure 6),
//! * [`P2Quantile`] — O(1)-space streaming quantile estimation (P²) for
//!   trace scales where retaining samples is not an option,
//! * [`TimeSeries`] — fixed-width time buckets (Figure 1's monthly series),
//! * [`dist`] — seedable sampling distributions (Zipf, log-normal,
//!   exponential, Poisson, Pareto) implemented on top of `rand`'s core RNG,
//!   since the workspace deliberately avoids `rand_distr`.
//!
//! Everything here is deterministic given a seeded RNG; nothing reads the
//! wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

/// Sampling distributions (Zipf, Pareto, weighted choice) over a seeded RNG.
pub mod dist;
mod ecdf;
mod histogram;
mod p2;
mod quantile;
mod summary;
mod timeseries;

pub use ecdf::Ecdf;
pub use histogram::{Histogram, LogHistogram};
pub use p2::P2Quantile;
pub use quantile::ExactQuantiles;
pub use summary::Summary;
pub use timeseries::TimeSeries;
