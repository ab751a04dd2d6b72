//! Exact quantiles over collected samples.

/// Collects samples and answers exact quantile queries.
///
/// The paper reports medians and 75th percentiles of response sizes (§4);
/// at the scales this reproduction runs (≤ a few million samples) exact
/// order statistics are affordable and avoid sketch error in the comparison.
///
/// Samples are kept unsorted until the first query; sorting is done lazily
/// and cached.
#[derive(Clone, Debug, Default)]
pub struct ExactQuantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl ExactQuantiles {
    /// Creates an empty collector.
    pub(crate) fn new() -> Self {
        ExactQuantiles::default()
    }

    /// Adds an observation. Non-finite values are ignored (they would poison
    /// the sort order).
    pub fn record(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = false;
        }
    }

    /// Absorbs all samples of `other`. Quantile queries over the merged
    /// collector equal queries over a single collector fed both sample
    /// streams (order statistics are order-insensitive).
    pub fn merge(&mut self, other: &ExactQuantiles) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// Returns the `q`-quantile (0 ≤ q ≤ 1) using linear interpolation
    /// between closest ranks (type-7, the R/NumPy default), or `None` when
    /// empty or `q` is out of range.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] + (self.samples[hi] - self.samples[lo]) * frac)
    }

    /// The median (`quantile(0.5)`).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Share of the observations that are at least `x`, counted on the
    /// sorted samples, or `None` when empty.
    pub fn share_at_least(&mut self, x: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let below = self.samples.partition_point(|&s| s < x);
        Some((self.samples.len() - below) as f64 / self.samples.len() as f64)
    }
}

impl FromIterator<f64> for ExactQuantiles {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut qs = ExactQuantiles::new();
        for x in iter {
            qs.record(x);
        }
        qs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_out_of_range() {
        let mut q = ExactQuantiles::new();
        assert!(q.quantile(0.5).is_none());
        q.record(1.0);
        assert!(q.quantile(-0.1).is_none());
        assert!(q.quantile(1.1).is_none());
    }

    #[test]
    fn single_sample_everywhere() {
        let mut q: ExactQuantiles = [7.0].into_iter().collect();
        assert_eq!(q.quantile(0.0), Some(7.0));
        assert_eq!(q.quantile(0.5), Some(7.0));
        assert_eq!(q.quantile(1.0), Some(7.0));
    }

    #[test]
    fn interpolated_median_of_even_count() {
        let mut q: ExactQuantiles = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(q.median(), Some(2.5));
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(4.0));
        // Type-7: pos = 0.75 * 3 = 2.25 → 3 + 0.25*(4-3) = 3.25
        assert_eq!(q.quantile(0.75), Some(3.25));
    }

    #[test]
    fn order_of_insertion_is_irrelevant() {
        let mut a: ExactQuantiles = [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().collect();
        let mut b: ExactQuantiles = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(a.quantile(0.25), b.quantile(0.25));
        assert_eq!(a.median(), Some(3.0));
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut q = ExactQuantiles::new();
        q.record(f64::NAN);
        q.record(f64::INFINITY);
        q.record(2.0);
        assert_eq!(q.count(), 1);
        assert_eq!(q.median(), Some(2.0));
    }

    #[test]
    fn querying_then_recording_then_querying() {
        let mut q: ExactQuantiles = [3.0, 1.0].into_iter().collect();
        assert_eq!(q.median(), Some(2.0));
        q.record(5.0);
        assert_eq!(q.median(), Some(3.0));
    }

    #[test]
    fn merge_equals_pooled_samples() {
        let xs = [9.0, 2.0, 7.0, 1.0, 5.0, 5.0, 3.0];
        let mut whole: ExactQuantiles = xs.into_iter().collect();
        let mut left: ExactQuantiles = xs[..4].iter().copied().collect();
        let right: ExactQuantiles = xs[4..].iter().copied().collect();
        // Querying before the merge must not poison later results.
        let _ = left.median();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(left.quantile(q), whole.quantile(q));
        }
        left.merge(&ExactQuantiles::new());
        assert_eq!(left.count(), whole.count());
    }
}
