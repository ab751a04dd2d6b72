//! Empirical cumulative distribution functions.

use std::fmt::Write as _;

/// An empirical CDF over collected samples.
///
/// Figure 6 of the paper is a CDF of "percent of periodic clients across
/// objects"; [`Ecdf`] provides evaluation (`F(x)`), the inverse
/// (`F⁻¹(p)`), and an ASCII rendering used by the reproduction harness.
#[derive(Clone, Debug, Default)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples; non-finite values are dropped.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        Ecdf { sorted }
    }

    /// Absorbs all samples of `other`, keeping the sorted invariant via a
    /// linear two-way merge. Associative and commutative, so per-shard
    /// ECDFs combine into exactly the single-pass distribution.
    pub fn merge(&mut self, other: &Ecdf) {
        if other.sorted.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.sorted.len() + other.sorted.len());
        let (mut a, mut b) = (
            self.sorted.iter().peekable(),
            other.sorted.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    if x <= y {
                        merged.push(x);
                        a.next();
                    } else {
                        merged.push(y);
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    merged.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.sorted = merged;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` — the fraction of samples ≤ `x`. Returns `None` when empty.
    pub fn eval(&self, x: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        Some(count as f64 / self.sorted.len() as f64)
    }

    /// `F⁻¹(p)` — the smallest sample `x` with `F(x) ≥ p`, for `p ∈ (0, 1]`.
    /// Returns `None` when empty or `p` out of range.
    pub fn inverse(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&p) || p == 0.0 {
            return None;
        }
        let rank = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// Renders the CDF as `rows` ASCII lines, sampling `F` at evenly spaced
    /// sample values between min and max.
    pub fn render(&self, rows: usize, width: usize) -> String {
        let (Some(&lo), Some(&hi)) = (self.sorted.first(), self.sorted.last()) else {
            return String::from("(empty cdf)\n");
        };
        let mut out = String::new();
        for i in 0..rows {
            let x = if rows == 1 {
                hi
            } else {
                lo + (hi - lo) * i as f64 / (rows - 1) as f64
            };
            let p = self.eval(x).unwrap_or(0.0);
            let bar = (p * width as f64).round() as usize;
            let _ = writeln!(out, "{x:>10.2} | {:<width$} {:.3}", "█".repeat(bar), p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let e = Ecdf::from_samples([]);
        assert!(e.eval(0.0).is_none());
        assert!(e.inverse(0.5).is_none());
        assert!(e.is_empty());
    }

    #[test]
    fn step_function_semantics() {
        let e = Ecdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), Some(0.0));
        assert_eq!(e.eval(1.0), Some(0.25));
        assert_eq!(e.eval(2.5), Some(0.5));
        assert_eq!(e.eval(4.0), Some(1.0));
        assert_eq!(e.eval(100.0), Some(1.0));
    }

    #[test]
    fn inverse_is_left_continuous_quantile() {
        let e = Ecdf::from_samples([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.inverse(0.25), Some(10.0));
        assert_eq!(e.inverse(0.26), Some(20.0));
        assert_eq!(e.inverse(1.0), Some(40.0));
        assert!(e.inverse(0.0).is_none());
        assert!(e.inverse(1.5).is_none());
    }

    #[test]
    fn duplicates_and_unsorted_input() {
        let e = Ecdf::from_samples([3.0, 1.0, 3.0, 2.0]);
        assert_eq!(e.eval(3.0), Some(1.0));
        assert_eq!(e.eval(2.9), Some(0.5));
    }

    #[test]
    fn render_has_requested_rows() {
        let e = Ecdf::from_samples([0.0, 0.5, 1.0]);
        assert_eq!(e.render(5, 20).lines().count(), 5);
    }

    #[test]
    fn merge_equals_pooled_samples() {
        let xs = [5.0, 1.0, 3.0, 3.0, 9.0, 2.0, 8.0];
        let whole = Ecdf::from_samples(xs);
        let mut left = Ecdf::from_samples(xs[..3].iter().copied());
        let right = Ecdf::from_samples(xs[3..].iter().copied());
        left.merge(&right);
        assert_eq!(left.len(), whole.len());
        for x in [0.0, 1.0, 2.5, 3.0, 8.5, 10.0] {
            assert_eq!(left.eval(x), whole.eval(x));
        }
        // Merging an empty ECDF is the identity, both ways.
        let mut e = Ecdf::from_samples([1.0, 2.0]);
        e.merge(&Ecdf::default());
        assert_eq!(e.len(), 2);
        let mut empty = Ecdf::default();
        empty.merge(&e);
        assert_eq!(empty.eval(1.5), Some(0.5));
    }
}
