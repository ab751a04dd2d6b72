//! The §5.1 period-detection algorithm.
//!
//! The paper (extending Vlachos et al. \[29\]):
//!
//! 1. Calculate the autocorrelation and Fourier transform for each flow.
//! 2. Randomly permute the flow x times and calculate autocorrelation and
//!    Fourier transform for each permutation, recording the max period and
//!    frequency of each.
//! 3. Of all max periods and frequencies, take the (x−1)-th largest as
//!    thresholds for the original, unpermuted flow.
//! 4. Use the thresholds to discard insignificant periods/frequencies, then
//!    line up autocorrelation and Fourier transform to find the most
//!    significant period.
//!
//! The algorithm returns either the single most significant period or
//! nothing ("we assume a flow only contains one significant period").
//!
//! Implementation notes:
//!
//! * Flows are sampled onto a 1-second counting grid by default, matching
//!   the paper's choice ("accurate detection of periods less than this
//!   sampling rate is difficult due to network jitter").
//! * Permutations shuffle the *sampled counting series* (as in Vlachos et
//!   al.): this preserves the per-bin count marginal while destroying
//!   temporal structure — the null model the thresholds are drawn from.
//!   (Shuffling inter-arrivals would be a broken null: a perfectly
//!   periodic flow has identical gaps, so every permutation would be
//!   exactly as periodic as the original.)
//! * "(x−1)-th largest" is implemented as the `significance_quantile`
//!   (default 0.99): with x = 100 permutations the threshold is the
//!   second-largest permutation maximum.
//! * The Fourier candidate gives the coarse period (bin resolution N/k);
//!   the ACF peak near it refines the estimate and acts as the lineup
//!   check — harmonics pass the power test but fail the ACF test.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fft::FftPlan;
use crate::spectrum::{analyze, padded_len, Scratch};

/// Tuning knobs for [`detect_period`]. Defaults match the paper.
#[derive(Clone, Debug)]
pub struct PeriodicityConfig {
    /// Width of one sampling bin, in seconds (paper: 1s).
    pub sampling_seconds: f64,
    /// Number of permutations `x` (paper: 100; "values greater than 100 do
    /// not produce significantly different results").
    pub permutations: usize,
    /// Quantile of permutation maxima used as the significance threshold
    /// (0.99 ≈ the paper's "(x−1)-th largest" with x = 100).
    pub significance_quantile: f64,
    /// Base seed for the permutation RNG; detection is deterministic in
    /// (input, config).
    pub seed: u64,
    /// Minimum number of events required to attempt detection.
    pub min_events: usize,
    /// Cap on series length; longer spans coarsen the sampling bin instead
    /// of growing the FFT without bound.
    pub max_bins: usize,
    /// ACF lineup tolerance as a fraction of the candidate period.
    pub acf_lineup_tolerance: f64,
    /// Run permutations on multiple threads.
    pub parallel: bool,
}

impl Default for PeriodicityConfig {
    fn default() -> Self {
        PeriodicityConfig {
            sampling_seconds: 1.0,
            permutations: 100,
            significance_quantile: 0.99,
            seed: 0x1a2b_3c4d,
            min_events: 4,
            max_bins: 1 << 17,
            acf_lineup_tolerance: 0.08,
            parallel: false,
        }
    }
}

/// A detected period and its evidence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectedPeriod {
    /// The period in seconds (ACF-refined).
    pub period_seconds: f64,
    /// The period in sampling bins.
    pub period_bins: usize,
    /// Periodogram power at the detecting bin.
    pub power: f64,
    /// ACF value at the refined lag.
    pub acf_value: f64,
    /// The permutation-derived power threshold that was exceeded.
    pub power_threshold: f64,
    /// The permutation-derived ACF threshold that was exceeded.
    pub acf_threshold: f64,
}

impl DetectedPeriod {
    /// True when `other` agrees with this period within `tolerance_bins`
    /// sampling bins — the paper's object/client period "match" test.
    pub fn matches(&self, other: &DetectedPeriod, tolerance_bins: usize) -> bool {
        self.period_bins.abs_diff(other.period_bins) <= tolerance_bins
    }
}

/// Detects the most significant period in a sequence of event times
/// (seconds, any order), or `None` when no period survives the
/// significance thresholds.
pub fn detect_period(times: &[f64], cfg: &PeriodicityConfig) -> Option<DetectedPeriod> {
    let (series, sampling) = bin_times(times, cfg)?;
    detect_in_series(&series, sampling, cfg)
}

/// Detects up to `max_periods` distinct periods — the multi-period
/// analysis the paper leaves as future work.
///
/// Iterative component removal: after each detection the per-phase mean
/// profile of the detected period is subtracted from the series (zeroing
/// its periodic structure), and detection reruns on the residual. Periods
/// that are within tolerance of — or small integer multiples of — an
/// already-found one are treated as residue of the same component and stop
/// the loop.
pub fn detect_periods(
    times: &[f64],
    cfg: &PeriodicityConfig,
    max_periods: usize,
) -> Vec<DetectedPeriod> {
    let Some((mut series, sampling)) = bin_times(times, cfg) else {
        return Vec::new();
    };
    let mut found: Vec<DetectedPeriod> = Vec::new();
    while found.len() < max_periods {
        let Some(hit) = detect_in_series(&series, sampling, cfg) else {
            break;
        };
        let duplicate = found.iter().any(|prev| {
            let ratio = hit.period_bins.max(prev.period_bins) as f64
                / hit.period_bins.min(prev.period_bins).max(1) as f64;
            (ratio - ratio.round()).abs() <= 0.1 && ratio.round() <= 4.0
        });
        if duplicate {
            break;
        }
        subtract_periodic_component(&mut series, hit.period_bins);
        found.push(hit);
    }
    found
}

/// Bins event times onto the sampling grid, or `None` when the input is
/// too small/degenerate for detection.
fn bin_times(times: &[f64], cfg: &PeriodicityConfig) -> Option<(Vec<f64>, f64)> {
    if times.len() < cfg.min_events || times.iter().any(|t| !t.is_finite()) {
        return None;
    }
    let mut sorted = times.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    let (Some(&first), Some(&last)) = (sorted.first(), sorted.last()) else {
        return None;
    };
    let span = last - first;
    if span <= 0.0 {
        return None;
    }
    // Coarsen sampling if the span would exceed the bin cap. At the
    // coarsened width the last event falls exactly on the far edge of bin
    // `max_bins - 1`; capping the count keeps it in that bin, which is
    // closed on the right.
    let sampling = cfg.sampling_seconds.max(span / cfg.max_bins as f64);
    let bins = ((span / sampling).floor() as usize + 1).min(cfg.max_bins);
    if bins < 8 {
        return None;
    }
    Some((bin_events(&sorted, sampling, bins), sampling))
}

/// Removes the `period`-periodic structure from `series` by subtracting
/// each phase class's mean.
fn subtract_periodic_component(series: &mut [f64], period: usize) {
    if period == 0 || period >= series.len() {
        return;
    }
    for phase in 0..period {
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut i = phase;
        while i < series.len() {
            sum += series[i];
            n += 1;
            i += period;
        }
        let mean = sum / n as f64;
        let mut i = phase;
        while i < series.len() {
            series[i] -= mean;
            i += period;
        }
    }
}

/// Runs detection on an already-binned series.
fn detect_in_series(
    series: &[f64],
    sampling: f64,
    cfg: &PeriodicityConfig,
) -> Option<DetectedPeriod> {
    let bins = series.len();
    // One plan serves the series and every permutation of it.
    let plan = FftPlan::new(padded_len(bins));
    let (periodogram, acf) = analyze(&plan, series, &mut Scratch::default());

    // Null-model thresholds from permutations of the sampled series.
    let (power_threshold, acf_threshold) = permutation_thresholds(&plan, series, cfg)?;

    // Step 4: line up FFT candidates with ACF peaks. Two directions:
    //
    // (a) every significant periodogram bin is mapped to the nearest ACF
    //     peak (harmonics pass the power test but fail the ACF test);
    // (b) the strongest ACF peaks whose lag is an integer multiple of some
    //     significant periodogram period are also candidates — a flow
    //     pooled from many clients with spread phases can have its
    //     *fundamental* Fourier component cancel while harmonics stay
    //     strong, yet the fundamental still autocorrelates fully.
    //
    // Among all candidates the winner is the highest ACF value; values
    // within 5% of the maximum count as ties and the shortest period wins
    // (a jittered flow has near-equal ACF peaks at every multiple of the
    // true period — the fundamental is the smallest of them).
    let mut candidates: Vec<DetectedPeriod> = Vec::new();
    let significant = periodogram.significant_bins(power_threshold);
    for &k in &significant {
        let coarse_period = periodogram.bin_period(k);
        let period_bins = coarse_period.round() as usize;
        if period_bins < 2 || period_bins > bins / 2 {
            continue;
        }
        let tolerance = ((period_bins as f64 * cfg.acf_lineup_tolerance).ceil() as usize).max(1);
        let Some((lag, acf_value)) = acf.peak_near(period_bins, tolerance) else {
            continue;
        };
        if acf_value <= acf_threshold {
            continue;
        }
        candidates.push(DetectedPeriod {
            period_seconds: lag as f64 * sampling,
            period_bins: lag,
            power: periodogram.power[k],
            acf_value,
            power_threshold,
            acf_threshold,
        });
    }
    for (lag, acf_value) in acf.peaks().into_iter().take(8) {
        if acf_value <= acf_threshold || lag < 2 || lag > bins / 2 {
            continue;
        }
        let supporting = significant.iter().copied().find(|&k| {
            let period = periodogram.bin_period(k);
            if period <= 0.0 || !period.is_finite() {
                return false;
            }
            let m = lag as f64 / period;
            // Bounded multiple: the cancelled fundamental sits a small
            // integer multiple above the surviving harmonics.
            (0.85..=6.5).contains(&m) && (m - m.round()).abs() <= 0.15
        });
        if let Some(k) = supporting {
            candidates.push(DetectedPeriod {
                period_seconds: lag as f64 * sampling,
                period_bins: lag,
                power: periodogram.power[k],
                acf_value,
                power_threshold,
                acf_threshold,
            });
        }
    }

    // Deduplicate by lag (several adjacent spectral bins map to the same
    // ACF peak), keeping the strongest spectral evidence per lag.
    candidates.sort_by(|a, b| {
        a.period_bins
            .cmp(&b.period_bins)
            .then(b.power.total_cmp(&a.power))
    });
    candidates.dedup_by_key(|c| c.period_bins);

    // Final pick: the fundamental is the candidate the *other* candidates
    // are integer multiples of (a periodic flow shows ACF peaks at every
    // multiple of its true period, all with similar values under jitter).
    // Rank by (multiple-support count, ACF value, shorter period).
    let support = |c: &DetectedPeriod| {
        candidates
            .iter()
            .filter(|o| {
                let m = o.period_bins as f64 / c.period_bins as f64;
                m >= 0.9 && (m - m.round()).abs() <= 0.1
            })
            .count()
    };
    candidates
        .iter()
        .max_by(|a, b| {
            support(a)
                .cmp(&support(b))
                .then(a.acf_value.total_cmp(&b.acf_value))
                .then(b.period_bins.cmp(&a.period_bins))
        })
        .copied()
}

/// Bins sorted event times (seconds) into a counting series.
fn bin_events(sorted_times: &[f64], sampling: f64, bins: usize) -> Vec<f64> {
    let t0 = sorted_times[0];
    let mut series = vec![0.0; bins];
    for &t in sorted_times {
        let idx = (((t - t0) / sampling) as usize).min(bins - 1);
        series[idx] += 1.0;
    }
    series
}

/// Runs the permutation null model and returns `(power, acf)` thresholds.
fn permutation_thresholds(
    plan: &FftPlan,
    series: &[f64],
    cfg: &PeriodicityConfig,
) -> Option<(f64, f64)> {
    if cfg.permutations == 0 || series.is_empty() {
        return None;
    }

    let threads = if cfg.parallel && cfg.permutations >= 8 {
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(cfg.permutations)
    } else {
        1
    };
    // Worker `w` runs every `threads`-th permutation, reusing one set of
    // buffers. Per-permutation derived RNGs make each maximum independent
    // of the worker that computes it, and the thresholds depend only on the
    // sorted maxima, so the pool width is purely a throughput knob.
    let worker = |w: usize| -> Vec<(f64, f64)> {
        let mut scratch = Scratch::default();
        let mut shuffled = Vec::with_capacity(series.len());
        (w..cfg.permutations)
            .step_by(threads)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(splitmix(
                    cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ));
                shuffled.clear();
                shuffled.extend_from_slice(series);
                shuffled.shuffle(&mut rng);
                let (periodogram, acf) = analyze(plan, &shuffled, &mut scratch);
                let max_power = periodogram.peak().map_or(0.0, |(_, p)| p);
                let max_acf = acf.max_peak().map_or(0.0, |(_, v)| v);
                (max_power, max_acf)
            })
            .collect()
    };
    let results = jcdn_exec::scatter_gather(threads, threads, worker).concat();

    let mut powers: Vec<f64> = results.iter().map(|&(p, _)| p).collect();
    let mut acfs: Vec<f64> = results.iter().map(|&(_, a)| a).collect();
    powers.sort_by(|a, b| b.total_cmp(a));
    acfs.sort_by(|a, b| b.total_cmp(a));
    let idx = (((1.0 - cfg.significance_quantile) * cfg.permutations as f64).floor() as usize)
        .min(cfg.permutations - 1);
    Some((powers[idx], acfs[idx]))
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn cfg() -> PeriodicityConfig {
        PeriodicityConfig {
            permutations: 50,
            ..PeriodicityConfig::default()
        }
    }

    fn periodic_times(period: f64, count: usize, jitter: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let j = if jitter > 0.0 {
                    rng.gen_range(-jitter..jitter)
                } else {
                    0.0
                };
                (i as f64 * period + j).max(0.0)
            })
            .collect()
    }

    #[test]
    fn clean_period_is_detected_exactly() {
        for period in [30.0, 60.0, 120.0] {
            let times = periodic_times(period, 120, 0.0, 1);
            let hit = detect_period(&times, &cfg()).unwrap_or_else(|| panic!("period {period}"));
            assert!(
                (hit.period_seconds - period).abs() <= 1.0,
                "period {period}: got {}",
                hit.period_seconds
            );
        }
    }

    #[test]
    fn jittered_period_is_detected() {
        // ±2s network jitter on a 60s poller, 2h of data.
        let times = periodic_times(60.0, 120, 2.0, 7);
        let hit = detect_period(&times, &cfg()).expect("jittered period");
        assert!(
            (hit.period_seconds - 60.0).abs() <= 3.0,
            "got {}",
            hit.period_seconds
        );
    }

    #[test]
    fn poisson_noise_is_rejected() {
        // Exponential inter-arrivals with the same mean rate as a 60s
        // poller must not produce a period.
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = 0.0;
        let times: Vec<f64> = (0..120)
            .map(|_| {
                let u: f64 = 1.0 - rng.gen::<f64>();
                t += -u.ln() * 60.0;
                t
            })
            .collect();
        let mut rejected = 0;
        for seed in 0..5u64 {
            let c = PeriodicityConfig { seed, ..cfg() };
            if detect_period(&times, &c).is_none() {
                rejected += 1;
            }
        }
        assert!(rejected >= 4, "only {rejected}/5 noise runs rejected");
    }

    #[test]
    fn too_few_events_or_degenerate_input() {
        assert!(detect_period(&[], &cfg()).is_none());
        assert!(detect_period(&[1.0, 2.0, 3.0], &cfg()).is_none());
        assert!(detect_period(&[5.0; 10], &cfg()).is_none()); // zero span
        assert!(detect_period(&[0.0, f64::NAN, 2.0, 3.0, 4.0], &cfg()).is_none());
        // Span shorter than 8 bins.
        let tight: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        assert!(detect_period(&tight, &cfg()).is_none());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut times = periodic_times(30.0, 100, 0.0, 3);
        times.reverse();
        times.swap(5, 50);
        let hit = detect_period(&times, &cfg()).expect("order must not matter");
        assert!((hit.period_seconds - 30.0).abs() <= 1.0);
    }

    #[test]
    fn deterministic_per_seed_and_parallel_equals_serial() {
        let times = periodic_times(45.0, 100, 1.0, 9);
        let serial = detect_period(
            &times,
            &PeriodicityConfig {
                parallel: false,
                ..cfg()
            },
        );
        let parallel = detect_period(
            &times,
            &PeriodicityConfig {
                parallel: true,
                ..cfg()
            },
        );
        assert_eq!(serial, parallel);
        assert_eq!(serial, detect_period(&times, &cfg()));
    }

    #[test]
    fn long_span_coarsens_sampling_instead_of_failing() {
        // A 10-day span at 1s sampling would need 864k bins > max_bins.
        let c = PeriodicityConfig {
            max_bins: 1 << 12,
            ..cfg()
        };
        let times = periodic_times(3600.0, 240, 0.0, 5); // hourly for 10 days
        let hit = detect_period(&times, &c).expect("hourly period");
        // Sampling coarsened to ~211s; accept within one coarse bin.
        assert!(
            (hit.period_seconds - 3600.0).abs() <= 260.0,
            "got {}",
            hit.period_seconds
        );
    }

    #[test]
    fn binned_series_never_exceed_the_cap() {
        for max_bins in [8, 1000, 1 << 12, 1 << 15, 1 << 17] {
            let c = PeriodicityConfig { max_bins, ..cfg() };
            let cap = max_bins as f64;
            for span in [cap - 0.5, cap, cap + 1.0, 2.5 * cap, 100_000.0, 864_000.0] {
                let times: Vec<f64> = (0..=50).map(|i| span * i as f64 / 50.0).collect();
                let (series, sampling) = bin_times(&times, &c).expect("wide enough");
                assert!(series.len() <= max_bins, "span {span}, cap {max_bins}");
                assert_eq!(series.iter().sum::<f64>(), times.len() as f64);
                if span < cap {
                    assert_eq!((sampling, series.len()), (1.0, span as usize + 1));
                }
            }
        }
        let times = [0.0, 25_000.0, 50_000.0, 75_000.0, 100_000.0];
        let c = PeriodicityConfig {
            max_bins: 1 << 15,
            ..cfg()
        };
        assert_eq!(bin_times(&times, &c).map(|(s, _)| s.len()), Some(1 << 15));
    }

    #[test]
    fn matches_tolerance() {
        let a = DetectedPeriod {
            period_seconds: 30.0,
            period_bins: 30,
            power: 1.0,
            acf_value: 0.9,
            power_threshold: 0.1,
            acf_threshold: 0.1,
        };
        let b = DetectedPeriod {
            period_bins: 32,
            ..a
        };
        assert!(a.matches(&b, 2));
        assert!(!a.matches(&b, 1));
    }

    #[test]
    fn multi_period_flow_yields_both_periods() {
        // Two interleaved pollers on the same object: 30s and 77s
        // (deliberately non-harmonic), over ~2 hours.
        let mut times = periodic_times(30.0, 240, 0.5, 21);
        times.extend(periodic_times(77.0, 94, 0.5, 22));
        let hits = detect_periods(&times, &cfg(), 4);
        assert!(
            hits.len() >= 2,
            "expected two periods, got {:?}",
            hits.iter().map(|h| h.period_seconds).collect::<Vec<_>>()
        );
        let periods: Vec<f64> = hits.iter().map(|h| h.period_seconds).collect();
        assert!(
            periods.iter().any(|p| (p - 30.0).abs() <= 2.0),
            "30s missing from {periods:?}"
        );
        assert!(
            periods.iter().any(|p| (p - 77.0).abs() <= 3.0),
            "77s missing from {periods:?}"
        );
    }

    #[test]
    fn single_period_flow_yields_one_period() {
        let times = periodic_times(60.0, 120, 0.5, 23);
        let hits = detect_periods(&times, &cfg(), 4);
        assert_eq!(
            hits.len(),
            1,
            "harmonic residue must not double-count: {:?}",
            hits.iter().map(|h| h.period_seconds).collect::<Vec<_>>()
        );
        assert!((hits[0].period_seconds - 60.0).abs() <= 1.5);
    }

    #[test]
    fn noise_yields_no_periods() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut t = 0.0;
        let times: Vec<f64> = (0..200)
            .map(|_| {
                let u: f64 = 1.0 - rng.gen::<f64>();
                t += -u.ln() * 45.0;
                t
            })
            .collect();
        let hits = detect_periods(&times, &cfg(), 4);
        assert!(hits.len() <= 1, "noise produced {:?}", hits.len());
    }

    #[test]
    fn detect_periods_respects_the_cap() {
        let times = periodic_times(30.0, 200, 0.0, 25);
        assert!(detect_periods(&times, &cfg(), 0).is_empty());
        assert!(detect_periods(&times, &cfg(), 1).len() <= 1);
    }

    #[test]
    fn zero_permutations_yields_none() {
        let times = periodic_times(30.0, 100, 0.0, 1);
        let c = PeriodicityConfig {
            permutations: 0,
            ..cfg()
        };
        assert!(detect_period(&times, &c).is_none());
    }
}
