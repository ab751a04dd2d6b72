//! The multi-year content-type trend (Figure 1) and size trend (§4).
//!
//! Figure 1 plots the ratio of JSON to HTML requests on the CDN monthly
//! from 2016 to 2019, ending above 4×. §4 adds that the average JSON
//! response size decreased ~28% since 2016. Replaying 3½ years of
//! request-level traffic would add nothing — the figure is about monthly
//! aggregates — so the trend is modelled directly at monthly resolution:
//! JSON volume follows logistic growth (API-first apps rolling out),
//! HTML volume stays roughly flat, and a seeded noise term keeps the
//! series from being suspiciously smooth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One month of aggregate counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonthPoint {
    /// Months since 2016-01 (0-based).
    pub month: usize,
    /// JSON requests observed that month (scaled units).
    pub json_requests: f64,
    /// HTML requests observed that month (scaled units).
    pub html_requests: f64,
    /// Mean JSON response size that month (bytes).
    pub json_mean_size: f64,
}

impl MonthPoint {
    /// The Figure 1 y-value: JSON:HTML request ratio.
    pub fn ratio(&self) -> f64 {
        self.json_requests / self.html_requests
    }

    /// Human-readable `YYYY-MM` label, anchored at 2016-01.
    pub fn label(&self) -> String {
        format!("{}-{:02}", 2016 + self.month / 12, self.month % 12 + 1)
    }
}

/// JSON:HTML ratio at the start of the window (JSON just below HTML in
/// 2016).
const START_RATIO: f64 = 0.85;
/// Ratio at the end of the window (paper: "over 4×").
const END_RATIO: f64 = 4.3;
/// Mean JSON size at the start (bytes).
const START_JSON_SIZE: f64 = 2500.0;
/// Total relative size decrease over the window (paper: ~28%).
const SIZE_DECREASE: f64 = 0.28;
/// Multiplicative month-to-month noise amplitude.
const NOISE: f64 = 0.04;

/// The trend generator.
#[derive(Clone, Debug)]
pub struct TrendModel {
    /// Number of months from 2016-01 (paper window ends mid-2019 ⇒ 42).
    pub months: usize,
    /// Seed for the noise.
    pub seed: u64,
}

impl Default for TrendModel {
    fn default() -> Self {
        TrendModel {
            months: 42,
            seed: 2016,
        }
    }
}

impl TrendModel {
    /// Generates the monthly series.
    pub fn generate(&self) -> Vec<MonthPoint> {
        assert!(self.months >= 2, "need at least two months");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let html_base = 1_000_000.0;
        (0..self.months)
            .map(|m| {
                let progress = m as f64 / (self.months - 1) as f64;
                // Logistic interpolation between start and end ratios: slow
                // start, fast middle, saturating end — the classic adoption
                // curve Figure 1 shows.
                let logistic = 1.0 / (1.0 + (-(progress * 8.0 - 4.0)).exp());
                let clean_ratio = START_RATIO + (END_RATIO - START_RATIO) * logistic;
                let wiggle = |rng: &mut StdRng| 1.0 + rng.gen_range(-NOISE..NOISE);

                // HTML drifts mildly; JSON follows the ratio.
                let html = html_base * (1.0 + 0.1 * progress) * wiggle(&mut rng);
                let json = clean_ratio * html * wiggle(&mut rng);

                let size = START_JSON_SIZE * (1.0 - SIZE_DECREASE * progress) * wiggle(&mut rng);
                MonthPoint {
                    month: m,
                    json_requests: json,
                    html_requests: html,
                    json_mean_size: size,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_grows_from_parity_to_over_four() {
        let series = TrendModel::default().generate();
        assert_eq!(series.len(), 42);
        let first = series.first().unwrap().ratio();
        let last = series.last().unwrap().ratio();
        assert!((0.7..1.1).contains(&first), "start ratio {first}");
        assert!(last > 4.0, "end ratio {last} (paper: >4x)");
    }

    #[test]
    fn growth_is_broadly_monotone() {
        let series = TrendModel::default().generate();
        // Noise allows local dips; quarters must still be ordered.
        let quarter = |start: usize| -> f64 {
            series[start..start + 3]
                .iter()
                .map(MonthPoint::ratio)
                .sum::<f64>()
                / 3.0
        };
        assert!(quarter(0) < quarter(18));
        assert!(quarter(18) < quarter(39));
    }

    #[test]
    fn json_size_decreases_by_about_28_percent() {
        let series = TrendModel::default().generate();
        let first = series.first().unwrap().json_mean_size;
        let last = series.last().unwrap().json_mean_size;
        let decrease = 1.0 - last / first;
        assert!((0.20..0.36).contains(&decrease), "size decrease {decrease}");
    }

    #[test]
    fn labels_are_calendar_months() {
        let series = TrendModel::default().generate();
        assert_eq!(series[0].label(), "2016-01");
        assert_eq!(series[11].label(), "2016-12");
        assert_eq!(series[12].label(), "2017-01");
        assert_eq!(series[41].label(), "2019-06");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TrendModel::default().generate();
        let b = TrendModel::default().generate();
        assert_eq!(a, b);
        let c = TrendModel {
            seed: 99,
            ..TrendModel::default()
        }
        .generate();
        assert_ne!(a, c);
    }
}
