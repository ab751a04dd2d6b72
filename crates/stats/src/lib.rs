//! # jcdn-stats — descriptive statistics and sampling distributions
//!
//! Shared numeric substrate for the jcdn workspace:
//!
//! * [`Summary`] — streaming count/mean/variance/min/max (Welford),
//! * [`ExactQuantiles`] — exact order statistics over collected samples,
//! * [`Histogram`] / [`LogHistogram`] — fixed-bin and log-spaced histograms
//!   with ASCII rendering (used to print Figure 5 of the paper),
//! * [`Ecdf`] — empirical CDFs with evaluation and inverse (Figure 6),
//! * [`dist`] — seedable sampling distributions (Zipf, log-normal,
//!   exponential, Poisson, Pareto) implemented on top of `rand`'s core RNG,
//!   since the workspace deliberately avoids `rand_distr`.
//!
//! Everything here is deterministic given a seeded RNG; nothing reads the
//! wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod dist;
mod ecdf;
mod histogram;
mod quantile;
mod summary;

pub use ecdf::Ecdf;
pub use histogram::{Histogram, LogHistogram};
pub use quantile::ExactQuantiles;
pub use summary::Summary;
