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
//! * The permutations stop as soon as the flow cannot pass: once `idx + 1`
//!   permutation maxima reach the flow's own peak power (`idx` is the
//!   threshold's rank, 1 at x = 100), the power threshold is at least the
//!   power of every bin `k ≥ 2` that `Periodogram::peak` scans. Then no
//!   bin is strictly above it, as `significant_bins` requires, and every
//!   candidate starts from such a bin. Most flows have no period and stop
//!   within a few permutations. The stop is exact: a flow that can still
//!   pass runs all x permutations, each shuffled by its own seed, so its
//!   thresholds are unchanged; with `parallel` the workers share one
//!   count, and only its final value, read after they join, decides.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::acf::Autocorrelation;
use crate::fft::FftPlan;
use crate::spectrum::{analyze, padded_len, Periodogram, Scratch};

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
    // One plan serves the series and every permutation of it.
    let plan = FftPlan::new(padded_len(series.len()));
    let (periodogram, acf) = analyze(&plan, series, &mut Scratch::default());

    // Null-model thresholds from permutations of the sampled series; the
    // permutations stop once the flow's own peak power cannot pass.
    let peak_power = periodogram.peak().map_or(f64::INFINITY, |(_, p)| p);
    let thresholds = permutation_thresholds(&plan, series, peak_power, cfg)?;
    line_up(&periodogram, &acf, thresholds, sampling, cfg)
}

/// Step 4: the most significant period of a series whose periodogram and
/// ACF are given, against the permutation thresholds `(power, acf)`.
fn line_up(
    periodogram: &Periodogram,
    acf: &Autocorrelation,
    (power_threshold, acf_threshold): (f64, f64),
    sampling: f64,
    cfg: &PeriodicityConfig,
) -> Option<DetectedPeriod> {
    let bins = periodogram.signal_len;
    // Line up FFT candidates with ACF peaks. Two directions:
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

/// Runs the permutation null model and returns `(power, acf)` thresholds,
/// or `None` when the flow cannot pass: no permutations, or `idx + 1`
/// permutation maxima at or above `peak_power`, the original series'
/// [`Periodogram::peak`]. The module notes say why that stop is exact.
fn permutation_thresholds(
    plan: &FftPlan,
    series: &[f64],
    peak_power: f64,
    cfg: &PeriodicityConfig,
) -> Option<(f64, f64)> {
    if cfg.permutations == 0 || series.is_empty() {
        return None;
    }
    let idx = threshold_index(cfg);

    let threads = if cfg.parallel && cfg.permutations >= 8 {
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(cfg.permutations)
    } else {
        1
    };
    // Permutation maxima at or above `peak_power`, over all workers. A
    // worker counts a permutation after analysing it and checks the count
    // before starting the next, so the count only grows. Each permutation
    // counts once: the pool re-runs a worker only after a panic, and an
    // injected one fires before the worker starts. `Relaxed` suffices: the
    // count publishes no other data, and the final read follows the joins,
    // which synchronize.
    let reached = AtomicUsize::new(0);
    // Worker `w` runs every `threads`-th permutation, reusing one set of
    // buffers. Per-permutation derived RNGs make each maximum independent
    // of the worker that computes it, and the thresholds depend only on the
    // sorted maxima, so the pool width is purely a throughput knob.
    let worker = |w: usize| -> Vec<(f64, f64)> {
        let mut scratch = Scratch::default();
        let mut shuffled = Vec::with_capacity(series.len());
        let mut maxima = Vec::new();
        for i in (w..cfg.permutations).step_by(threads) {
            if reached.load(Ordering::Relaxed) > idx {
                break;
            }
            let (max_power, max_acf) =
                permutation_maxima(plan, series, cfg.seed, i, &mut scratch, &mut shuffled);
            if max_power >= peak_power {
                reached.fetch_add(1, Ordering::Relaxed);
            }
            maxima.push((max_power, max_acf));
        }
        maxima
    };
    let results = jcdn_exec::scatter_gather_labeled("exec.pool", threads, threads, worker).concat();
    // The scope has joined. Scheduling decides which permutations ran
    // before a stop, never whether the final count passes `idx`: a count
    // within it means no worker stopped, so every permutation ran.
    if reached.into_inner() > idx {
        return None;
    }

    let mut powers: Vec<f64> = results.iter().map(|&(p, _)| p).collect();
    let mut acfs: Vec<f64> = results.iter().map(|&(_, a)| a).collect();
    powers.sort_by(|a, b| b.total_cmp(a));
    acfs.sort_by(|a, b| b.total_cmp(a));
    Some((powers[idx], acfs[idx]))
}

/// Index of the threshold in the descending permutation maxima: the
/// `significance_quantile` read off `x` maxima (1 at x = 100 and 0.99).
fn threshold_index(cfg: &PeriodicityConfig) -> usize {
    (((1.0 - cfg.significance_quantile) * cfg.permutations as f64).floor() as usize)
        .min(cfg.permutations - 1)
}

/// The max periodogram power and max ACF peak of permutation `i` of
/// `series`, shuffled by an RNG derived from `(seed, i)` alone.
fn permutation_maxima(
    plan: &FftPlan,
    series: &[f64],
    seed: u64,
    i: usize,
    scratch: &mut Scratch,
    shuffled: &mut Vec<f64>,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(splitmix(
        seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ));
    shuffled.clear();
    shuffled.extend_from_slice(series);
    shuffled.shuffle(&mut rng);
    let (periodogram, acf) = analyze(plan, shuffled, scratch);
    let max_power = periodogram.peak().map_or(0.0, |(_, p)| p);
    let max_acf = acf.max_peak().map_or(0.0, |(_, v)| v);
    (max_power, max_acf)
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
    use proptest::prelude::*;
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

    /// Poisson arrivals: `count` events with exponential gaps of mean
    /// `mean_gap` seconds.
    fn poisson_times(count: usize, mean_gap: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        (0..count)
            .map(|_| {
                let u: f64 = 1.0 - rng.gen::<f64>();
                t += -u.ln() * mean_gap;
                t
            })
            .collect()
    }

    /// `per_bin` events in each of `bins` one-second bins: a constant
    /// counting series, whose periodogram is flat zero.
    fn constant_count_times(bins: usize, per_bin: usize) -> Vec<f64> {
        (0..bins)
            .flat_map(|b| std::iter::repeat_n(b as f64 + 0.5, per_bin))
            .collect()
    }

    /// `detect_period` without the early stop: all x permutations run, in
    /// order, and the thresholds come from all of their maxima.
    fn detect_period_full(times: &[f64], cfg: &PeriodicityConfig) -> Option<DetectedPeriod> {
        let (series, sampling) = bin_times(times, cfg)?;
        if cfg.permutations == 0 {
            return None;
        }
        let plan = FftPlan::new(padded_len(series.len()));
        let (periodogram, acf) = analyze(&plan, &series, &mut Scratch::default());
        let (mut scratch, mut shuffled) = (Scratch::default(), Vec::new());
        let (mut powers, mut acfs): (Vec<f64>, Vec<f64>) = (0..cfg.permutations)
            .map(|i| permutation_maxima(&plan, &series, cfg.seed, i, &mut scratch, &mut shuffled))
            .unzip();
        powers.sort_by(|a, b| b.total_cmp(a));
        acfs.sort_by(|a, b| b.total_cmp(a));
        let idx = (((1.0 - cfg.significance_quantile) * cfg.permutations as f64).floor() as usize)
            .min(cfg.permutations - 1);
        line_up(&periodogram, &acf, (powers[idx], acfs[idx]), sampling, cfg)
    }

    /// Every field of a detection, floats by bit pattern.
    fn bits(hit: Option<DetectedPeriod>) -> Option<(usize, [u64; 5])> {
        hit.map(|h| {
            let floats = [
                h.period_seconds,
                h.power,
                h.acf_value,
                h.power_threshold,
                h.acf_threshold,
            ];
            (h.period_bins, floats.map(f64::to_bits))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn early_stop_returns_what_the_full_run_returns(
            kind in 0u8..4,
            count in 12usize..100,
            scale in 5.0f64..30.0,
            // Jitter as a share of the period, and noise events per poll:
            // weak pollers sit near the threshold, where a stop one
            // permutation early would drop a period.
            blur in 0.05f64..0.5,
            noise in 0.5f64..4.0,
            seed in any::<u64>(),
            // (x, significance_quantile): threshold index 0, 0, 1, 2 and 5.
            setting in 0usize..5,
            parallel in any::<bool>(),
        ) {
            let times = match kind {
                0 => poisson_times(count, scale, seed),
                1 => periodic_times(scale, count, scale * blur, seed),
                2 => constant_count_times(4 * count, 1 + count % 4),
                _ => {
                    let mut times = periodic_times(scale, count, scale * blur, seed);
                    let extra = (count as f64 * noise) as usize;
                    times.extend(poisson_times(extra, scale / noise, seed ^ 1));
                    times
                }
            };
            let (permutations, significance_quantile) =
                [(10, 0.99), (50, 0.99), (100, 0.99), (200, 0.99), (100, 0.95)][setting];
            let c = PeriodicityConfig {
                permutations,
                significance_quantile,
                seed,
                parallel,
                ..PeriodicityConfig::default()
            };
            prop_assert_eq!(
                bits(detect_period(&times, &c)),
                bits(detect_period_full(&times, &c)),
                "kind {} count {} scale {} blur {} noise {} seed {} x {} q {} parallel {}",
                kind, count, scale, blur, noise, seed, permutations, significance_quantile, parallel
            );
        }
    }

    /// How many of the x permutation maxima reach the series' own peak.
    fn maxima_reaching_peak(times: &[f64], cfg: &PeriodicityConfig) -> usize {
        let Some((series, _)) = bin_times(times, cfg) else {
            return 0;
        };
        let plan = FftPlan::new(padded_len(series.len()));
        let (periodogram, _) = analyze(&plan, &series, &mut Scratch::default());
        let peak = periodogram.peak().map_or(f64::INFINITY, |(_, p)| p);
        let (mut scratch, mut shuffled) = (Scratch::default(), Vec::new());
        (0..cfg.permutations)
            .filter(|&i| {
                permutation_maxima(&plan, &series, cfg.seed, i, &mut scratch, &mut shuffled).0
                    >= peak
            })
            .count()
    }

    #[test]
    fn a_period_with_idx_maxima_at_its_peak_is_still_found() {
        // Weak pollers (±9 s jitter on a 30 s period) whose peak exactly
        // `idx` permutation maxima reach: one more would stop the run, and
        // the full run finds a period.
        for (seed, count, permutations, significance_quantile) in
            [(54, 38, 100, 0.99), (54, 38, 200, 0.99), (0, 20, 100, 0.95)]
        {
            let times = periodic_times(30.0, count, 9.0, seed);
            let c = PeriodicityConfig {
                permutations,
                significance_quantile,
                seed,
                ..PeriodicityConfig::default()
            };
            assert_eq!(maxima_reaching_peak(&times, &c), threshold_index(&c));
            let full = detect_period_full(&times, &c);
            assert!(full.is_some(), "seed {seed} x {permutations}");
            for parallel in [false, true] {
                let c = PeriodicityConfig {
                    parallel,
                    ..c.clone()
                };
                assert_eq!(bits(detect_period(&times, &c)), bits(full));
            }
        }
    }

    #[test]
    fn threshold_index_matches_the_quantile() {
        for (permutations, q, idx) in [
            (10, 0.99, 0),
            (50, 0.99, 0),
            (100, 0.99, 1),
            (200, 0.99, 2),
            (100, 0.95, 5),
        ] {
            let c = PeriodicityConfig {
                permutations,
                significance_quantile: q,
                ..PeriodicityConfig::default()
            };
            assert_eq!(threshold_index(&c), idx, "x {permutations} q {q}");
        }
    }

    #[test]
    fn poisson_noise_is_rejected() {
        // Exponential inter-arrivals with the same mean rate as a 60s
        // poller must not produce a period.
        let times = poisson_times(120, 60.0, 11);
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
        let times = poisson_times(200, 45.0, 31);
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
