//! Periodograms, and the one transform the periodogram and the
//! autocorrelation are both read off.

use crate::acf::Autocorrelation;
use crate::fft::{next_pow2, Complex, FftPlan};

/// The length a series of `n` samples is zero-padded to before its one
/// real transform: `2·next_pow2(n)`. Twice the periodogram's length, so the
/// autocorrelation read off the same spectrum is linear, not circular, and
/// the periodogram's bins are its even bins (`X_2N[2k] = X_N[k]` for a
/// series that is zero beyond `N`).
pub(crate) fn padded_len(n: usize) -> usize {
    2 * next_pow2(n)
}

/// Reusable buffers for `analyze`: keep one per worker and pass it to
/// every series it transforms.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    fft: Vec<Complex>,
    /// `|X[k]|²`, `k = 0 ..= L/2`, of the last transformed series.
    power: Vec<f64>,
}

impl Scratch {
    /// Fills `power` with the spectrum of the mean-removed `signal`
    /// zero-padded to `plan.len()`.
    fn transform(&mut self, plan: &FftPlan, signal: &[f64]) {
        let mean = if signal.is_empty() {
            0.0
        } else {
            signal.iter().sum::<f64>() / signal.len() as f64
        };
        plan.real_power(signal, mean, &mut self.fft, &mut self.power);
    }
}

/// The periodogram and the autocorrelation of `signal` from one real
/// forward transform and one real inverse: what the §5.1 detector needs of
/// every series and every permutation of it.
///
/// # Panics
/// Panics when `plan.len() != padded_len(signal.len())`.
pub(crate) fn analyze(
    plan: &FftPlan,
    signal: &[f64],
    scratch: &mut Scratch,
) -> (Periodogram, Autocorrelation) {
    assert_eq!(
        plan.len(),
        padded_len(signal.len()),
        "plan length must be padded_len"
    );
    scratch.transform(plan, signal);
    let periodogram = Periodogram::from_power(&scratch.power, signal.len());
    let acf = Autocorrelation::from_power(plan, &scratch.power, signal.len(), &mut scratch.fft);
    (periodogram, acf)
}

/// The one-sided periodogram of a real signal.
///
/// The signal is mean-removed (so the DC bin does not dominate), zero-padded
/// to the next power of two, and transformed; `power[k]` is `|X[k]|²/N` for
/// `k = 0 .. N/2` where `N` is the padded length. `power[0]` is ~0 by
/// construction.
#[derive(Clone, Debug)]
pub struct Periodogram {
    /// Power per frequency bin, indices `0..=N/2`.
    pub power: Vec<f64>,
    /// Padded FFT length `N`.
    pub n: usize,
    /// Original (unpadded) signal length.
    pub signal_len: usize,
}

impl Periodogram {
    /// Computes the periodogram of `signal` through its own plan; the
    /// detector shares one plan per flow through `analyze`, and the tests
    /// check the math through this.
    #[cfg(test)]
    pub(crate) fn compute(signal: &[f64]) -> Periodogram {
        let plan = FftPlan::new(padded_len(signal.len()));
        let mut scratch = Scratch::default();
        scratch.transform(&plan, signal);
        Periodogram::from_power(&scratch.power, signal.len())
    }

    /// Reads the periodogram off the even bins of the `padded_len`-point
    /// power spectrum of a `signal_len`-sample series.
    fn from_power(power: &[f64], signal_len: usize) -> Periodogram {
        let n = next_pow2(signal_len);
        let scale = 1.0 / n as f64;
        let power = power.iter().step_by(2).map(|p| p * scale).collect();
        Periodogram {
            power,
            n,
            signal_len,
        }
    }

    /// The period (in samples) corresponding to frequency bin `k`.
    ///
    /// Bin `k` holds frequency `k/N` cycles per sample, i.e. period `N/k`
    /// samples. `k = 0` has no period; returns `f64::INFINITY`.
    pub(crate) fn bin_period(&self, k: usize) -> f64 {
        if k == 0 {
            f64::INFINITY
        } else {
            self.n as f64 / k as f64
        }
    }

    /// The frequency bin whose period is closest to `period` samples: the
    /// tests' reference inverse of [`Periodogram::bin_period`].
    #[cfg(test)]
    fn bin_for_period(&self, period: f64) -> usize {
        if period <= 0.0 {
            return 0;
        }
        let k = (self.n as f64 / period).round() as usize;
        k.min(self.power.len() - 1)
    }

    /// The maximum power over "interesting" bins — `k ≥ 2` (periods of at
    /// most half the padded window) up to Nyquist — and its bin. Returns
    /// `None` when the signal is too short.
    pub(crate) fn peak(&self) -> Option<(usize, f64)> {
        let lo = 2.min(self.power.len().saturating_sub(1)).max(1);
        (lo..self.power.len())
            .map(|k| (k, self.power[k]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Bins with power strictly above `threshold`, in decreasing power
    /// order, restricted to `k ≥ 2`.
    pub(crate) fn significant_bins(&self, threshold: f64) -> Vec<usize> {
        let mut bins: Vec<usize> = (2..self.power.len())
            .filter(|&k| self.power[k] > threshold)
            .collect();
        bins.sort_by(|&a, &b| self.power[b].total_cmp(&self.power[a]));
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acf::tests::naive_acf;
    use crate::fft::tests::dft;
    use proptest::prelude::*;

    /// `analyze` against the naive DFT and ACF, within 1e-9 of the
    /// signal's energy.
    fn check_against_naive(signal: &[f64]) {
        let n = signal.len();
        let plan = FftPlan::new(padded_len(n));
        let (periodogram, acf) = analyze(&plan, signal, &mut Scratch::default());

        let mean = signal.iter().sum::<f64>() / n as f64;
        let energy: f64 = signal.iter().map(|x| (x - mean) * (x - mean)).sum();
        let tol = 1e-9 * energy.max(1.0);
        let len = next_pow2(n);
        let padded: Vec<Complex> = (0..len)
            .map(|t| Complex::real(signal.get(t).map_or(0.0, |x| x - mean)))
            .collect();
        let expected = dft(&padded);
        assert_eq!((periodogram.n, periodogram.power.len()), (len, len / 2 + 1));
        for (k, (p, x)) in periodogram.power.iter().zip(&expected).enumerate() {
            let want = x.norm_sq() / len as f64;
            assert!((p - want).abs() <= tol, "n {n} bin {k}: {p} vs {want}");
        }
        for (lag, (a, b)) in acf.values.iter().zip(naive_acf(signal)).enumerate() {
            assert!((a - b).abs() <= 1e-9, "n {n} lag {lag}: {a} vs {b}");
        }
        assert_eq!(acf.values.len(), n);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn shared_transform_matches_naive_on_counts(
            draws in prop::collection::vec(0u8..8, 1..701),
        ) {
            // Mostly-empty bins holding 1–3 events, like a binned flow.
            let signal: Vec<f64> = draws
                .iter()
                .map(|&d| f64::from(d.saturating_sub(4)))
                .collect();
            check_against_naive(&signal);
        }

        #[test]
        fn shared_transform_matches_naive_on_reals(
            signal in prop::collection::vec(-100.0f64..100.0, 1..701),
        ) {
            check_against_naive(&signal);
        }
    }

    #[test]
    fn shared_transform_matches_naive_at_tiny_lengths() {
        for signal in [vec![2.0], vec![1.0, 3.0], vec![0.0, 5.0, 1.0], vec![4.0; 3]] {
            check_against_naive(&signal);
        }
    }

    fn tone(n: usize, period: f64) -> Vec<f64> {
        (0..n)
            .map(|t| (std::f64::consts::TAU * t as f64 / period).sin() + 5.0)
            .collect()
    }

    #[test]
    fn peak_finds_planted_period() {
        let p = Periodogram::compute(&tone(256, 16.0));
        let (k, _) = p.peak().unwrap();
        assert!(
            (p.bin_period(k) - 16.0).abs() < 1.0,
            "got {}",
            p.bin_period(k)
        );
    }

    #[test]
    fn dc_offset_is_removed() {
        let p = Periodogram::compute(&[7.0; 64]);
        assert!(p.power[0] < 1e-18);
        assert!(p.power.iter().all(|&x| x < 1e-18));
    }

    #[test]
    fn bin_period_inverse_of_bin_for_period() {
        let p = Periodogram::compute(&tone(128, 8.0));
        for k in 2..20 {
            let period = p.bin_period(k);
            assert_eq!(p.bin_for_period(period), k);
        }
        assert_eq!(p.bin_period(0), f64::INFINITY);
        assert_eq!(p.bin_for_period(0.0), 0);
    }

    #[test]
    fn significant_bins_sorted_by_power() {
        // Two tones with different amplitudes.
        let n = 256;
        let signal: Vec<f64> = (0..n)
            .map(|t| {
                3.0 * (std::f64::consts::TAU * t as f64 / 32.0).sin()
                    + 1.0 * (std::f64::consts::TAU * t as f64 / 8.0).sin()
            })
            .collect();
        let p = Periodogram::compute(&signal);
        let bins = p.significant_bins(1.0);
        assert!(bins.len() >= 2);
        // Strongest first: period 32 → bin 8; period 8 → bin 32.
        assert_eq!(bins[0], 8);
        assert!(bins.contains(&32));
    }

    #[test]
    fn empty_and_tiny_signals() {
        let p = Periodogram::compute(&[]);
        assert_eq!(p.signal_len, 0);
        let p = Periodogram::compute(&[1.0]);
        assert_eq!(p.n, 1);
    }
}
