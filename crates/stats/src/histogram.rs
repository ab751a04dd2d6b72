//! Fixed-bin and log-spaced histograms with ASCII rendering.

use std::fmt::Write as _;

/// A histogram over `[lo, hi)` with equal-width bins plus underflow and
/// overflow counters.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    /// Panics when `bins == 0` or `lo >= hi` or either bound is non-finite —
    /// these are programming errors, not data errors.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid bounds"
        );
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            // Guard against floating point landing exactly on the upper edge.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Adds every count of `other` into `self`. Merging is associative and
    /// commutative, so per-shard histograms combine into exactly the
    /// histogram a single pass would have produced.
    ///
    /// # Panics
    /// Panics when the two histograms have different bounds or bin counts —
    /// merging incompatible binnings is a programming error.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "cannot merge histograms with different binnings"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Per-bin counts (excluding under/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// The half-open range `[start, end)` covered by bin `idx`.
    pub fn bin_range(&self, idx: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let start = self.lo + width * idx as f64;
        (start, start + width)
    }

    /// Observations below `lo` (plus non-finite ones).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }

    /// Renders an ASCII bar chart, one row per bin, bars scaled to `width`
    /// characters. Rows outside `[first_nonzero ..= last_nonzero]` are
    /// omitted to keep sparse histograms readable.
    pub fn render(&self, width: usize) -> String {
        render_rows(
            (0..self.bins.len()).map(|i| {
                let (start, _) = self.bin_range(i);
                (format!("{start:>10.1}"), self.bins[i])
            }),
            width,
        )
    }
}

/// A histogram whose bin edges grow geometrically: bin `i` covers
/// `[base·ratio^i, base·ratio^(i+1))`.
///
/// Response sizes and detected periods both span several orders of
/// magnitude; log-spaced bins keep every decade visible (Figure 5 uses a
/// log-x histogram of periods).
#[derive(Clone, Debug)]
pub struct LogHistogram {
    base: f64,
    ratio: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl LogHistogram {
    /// Creates a log histogram with `bins` bins starting at `base`, each
    /// `ratio` times wider than the previous.
    ///
    /// # Panics
    /// Panics when `base <= 0`, `ratio <= 1`, or `bins == 0`.
    pub fn new(base: f64, ratio: f64, bins: usize) -> Self {
        assert!(base > 0.0 && base.is_finite(), "base must be positive");
        assert!(ratio > 1.0 && ratio.is_finite(), "ratio must exceed 1");
        assert!(bins > 0, "need at least one bin");
        LogHistogram {
            base,
            ratio,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < self.base {
            self.underflow += 1;
            return;
        }
        let idx = ((x / self.base).ln() / self.ratio.ln()).floor() as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Adds every count of `other` into `self`; see [`Histogram::merge`].
    ///
    /// # Panics
    /// Panics when `base`, `ratio`, or bin count differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.base == other.base
                && self.ratio == other.ratio
                && self.bins.len() == other.bins.len(),
            "cannot merge log histograms with different binnings"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// The half-open range covered by bin `idx`.
    pub fn bin_range(&self, idx: usize) -> (f64, f64) {
        let start = self.base * self.ratio.powi(idx as i32);
        (start, start * self.ratio)
    }

    /// Observations below `base` (plus non-finite ones).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }

    /// Renders an ASCII bar chart like [`Histogram::render`].
    pub fn render(&self, width: usize) -> String {
        render_rows(
            (0..self.bins.len()).map(|i| {
                let (start, _) = self.bin_range(i);
                (format!("{start:>10.1}"), self.bins[i])
            }),
            width,
        )
    }
}

fn render_rows(rows: impl Iterator<Item = (String, u64)>, width: usize) -> String {
    let rows: Vec<(String, u64)> = rows.collect();
    let first = rows.iter().position(|&(_, c)| c > 0);
    let last = rows.iter().rposition(|&(_, c)| c > 0);
    let (Some(first), Some(last)) = (first, last) else {
        return String::from("(empty histogram)\n");
    };
    let max = rows[first..=last]
        .iter()
        .map(|&(_, c)| c)
        .max()
        .unwrap_or(1)
        .max(1);
    let mut out = String::new();
    for (label, count) in &rows[first..=last] {
        let bar_len = ((count * width as u64) as f64 / max as f64).round() as usize;
        let _ = writeln!(out, "{label} | {:<width$} {count}", "#".repeat(bar_len));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.999);
        h.record(5.0);
        h.record(9.999);
        h.record(10.0); // overflow (hi is exclusive)
        h.record(-0.1); // underflow
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn bin_range_is_consistent_with_record() {
        let mut h = Histogram::new(2.0, 4.0, 4);
        let (s, e) = h.bin_range(1);
        assert!((s - 2.5).abs() < 1e-12 && (e - 3.0).abs() < 1e-12);
        h.record(2.5);
        assert_eq!(h.counts()[1], 1);
    }

    #[test]
    fn nan_goes_to_underflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(f64::NAN);
        assert_eq!(h.underflow(), 1);
    }

    #[test]
    fn log_binning_covers_decades() {
        let mut h = LogHistogram::new(1.0, 2.0, 10); // 1,2,4,...,512
        h.record(1.0);
        h.record(1.99);
        h.record(2.0);
        h.record(500.0);
        h.record(0.5); // underflow
        h.record(2000.0); // overflow
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[8], 1); // 256..512
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn log_bin_range() {
        let h = LogHistogram::new(1.0, 10.0, 3);
        let (s, e) = h.bin_range(2);
        assert!((s - 100.0).abs() < 1e-9 && (e - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn render_trims_empty_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(4.5);
        h.record(4.6);
        h.record(5.5);
        let rendered = h.render(20);
        assert_eq!(rendered.lines().count(), 2);
        assert!(rendered.contains('#'));
    }

    #[test]
    fn render_empty() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.render(10).contains("empty"));
    }

    #[test]
    fn merge_matches_single_pass() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.3 - 1.0).collect();
        let mut whole = Histogram::new(0.0, 10.0, 10);
        let mut left = Histogram::new(0.0, 10.0, 10);
        let mut right = Histogram::new(0.0, 10.0, 10);
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            if i % 2 == 0 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.counts(), whole.counts());
        assert_eq!(left.underflow(), whole.underflow());
        assert_eq!(left.overflow(), whole.overflow());
        assert_eq!(left.total(), whole.total());
    }

    #[test]
    fn log_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..60).map(|i| 0.5 * 1.4f64.powi(i % 20)).collect();
        let mut whole = LogHistogram::new(1.0, 2.0, 8);
        let mut left = LogHistogram::new(1.0, 2.0, 8);
        let mut right = LogHistogram::new(1.0, 2.0, 8);
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            if i % 3 == 0 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.counts(), whole.counts());
        assert_eq!(left.total(), whole.total());
    }

    #[test]
    #[should_panic(expected = "different binnings")]
    fn merge_rejects_incompatible_binnings() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let b = Histogram::new(0.0, 10.0, 5);
        a.merge(&b);
    }
}
