//! Streaming moment statistics.

/// Single-pass summary statistics using Welford's online algorithm.
///
/// Numerically stable for long streams (the CDN characterization summarizes
/// millions of response sizes per run) and mergeable, so per-shard summaries
/// can be combined.
#[derive(Clone, Debug)]
pub struct Summary {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// An empty summary.
    fn default() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Summary {
    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (Chan et al. parallel variant).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        self.mean += (other.mean - self.mean) * n2 / (n1 + n2);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::default();
        for x in iter {
            s.record(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_all_none() {
        let s = Summary::default();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
    }

    #[test]
    fn known_values() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn single_observation() {
        let s: Summary = [3.5].into_iter().collect();
        assert_eq!(s.mean(), Some(3.5));
        assert_eq!(s.min(), Some(3.5));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..37].iter().copied().collect();
        let right: Summary = xs[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean().unwrap() - all.mean().unwrap()).abs() < 1e-12);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        s.merge(&Summary::default());
        assert_eq!(s.count(), 2);
        let mut e = Summary::default();
        e.merge(&s);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), Some(1.5));
    }
}
