//! Log-spaced histograms with ASCII rendering.

use std::fmt::Write as _;

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

    /// The half-open range covered by bin `idx`.
    pub(crate) fn bin_range(&self, idx: usize) -> (f64, f64) {
        let start = self.base * self.ratio.powi(idx as i32);
        (start, start * self.ratio)
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
    fn log_binning_covers_decades() {
        let mut h = LogHistogram::new(1.0, 2.0, 10); // 1,2,4,...,512
        h.record(1.0);
        h.record(1.99);
        h.record(2.0);
        h.record(500.0);
        h.record(0.5); // underflow
        h.record(2000.0); // overflow
        assert_eq!(h.bins[0], 2);
        assert_eq!(h.bins[1], 1);
        assert_eq!(h.bins[8], 1); // 256..512
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
    }

    #[test]
    fn log_bin_range() {
        let h = LogHistogram::new(1.0, 10.0, 3);
        let (s, e) = h.bin_range(2);
        assert!((s - 100.0).abs() < 1e-9 && (e - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn render_trims_empty_edges() {
        let mut h = LogHistogram::new(1.0, 2.0, 10);
        h.record(4.5);
        h.record(4.6);
        h.record(9.0);
        let rendered = h.render(20);
        assert_eq!(rendered.lines().count(), 2);
        assert!(rendered.contains('#'));
    }

    #[test]
    fn render_empty() {
        let h = LogHistogram::new(1.0, 2.0, 4);
        assert!(h.render(10).contains("empty"));
    }
}
