//! # jcdn-signal — FFT, autocorrelation, and periodicity detection
//!
//! §5.1 of the paper detects periodic request flows by "a combination of
//! autocorrelation (on the time domain) and fourier transform (on the
//! frequency domain) to extract key periods and randomness to filter noisy
//! periods", extending Vlachos et al. (SDM '05). This crate implements the
//! whole stack from scratch:
//!
//! * [`fft`] — planned radix-2 FFTs over [`fft::Complex`] (no external
//!   numeric dependency): twiddles computed once per length, and real
//!   transforms run as half-length complex ones,
//! * [`spectrum`] — periodograms, frequency/period conversion, and the one
//!   real transform per series that the periodogram and the ACF share,
//! * [`acf`] — linear (zero-padded) autocorrelation via the
//!   Wiener–Khinchin theorem,
//! * [`periodicity`] — the paper's four-step detection algorithm with
//!   permutation-derived significance thresholds (x = 100 by default) and a
//!   1-second sampling grid, parallelized across permutations on the
//!   `jcdn-exec` scatter–gather pool.
//!
//! ## Example: recover a planted 30-second period
//!
//! ```
//! use jcdn_signal::periodicity::{detect_period, PeriodicityConfig};
//!
//! // A client polling every 30s for an hour.
//! let times: Vec<f64> = (0..120).map(|i| i as f64 * 30.0).collect();
//! let cfg = PeriodicityConfig::default();
//! let hit = detect_period(&times, &cfg).expect("planted period must be found");
//! assert!((hit.period_seconds - 30.0).abs() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod acf;
pub mod fft;
pub mod periodicity;
pub mod spectrum;
