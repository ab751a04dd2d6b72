//! Seedable sampling distributions.
//!
//! The workspace's only external RNG dependency is `rand`'s core generator;
//! the distributions themselves live here so that every sampling decision in
//! the synthetic workload is visible, documented, and reproducible.
//!
//! All samplers implement [`Sample`] and draw from any `rand::Rng`.

use rand::Rng;

/// A distribution that can be sampled with any RNG.
pub trait Sample {
    /// The sample type.
    type Output;
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Output;
}

/// Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(k) ∝ k^(-s)`.
///
/// Object popularity on CDNs is classically Zipfian; the workload generator
/// uses this for per-domain object popularity. Sampling is by inverse CDF
/// over a precomputed cumulative table (O(log n) per draw), which is exact
/// and fast for the `n ≤ 10^6` universes used here.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty support");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and >= 0"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-s);
            cumulative.push(total);
        }
        // Normalize so the final entry is exactly 1.0.
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Zipf { cumulative }
    }

    /// Support size `n`.
    pub fn n(&self) -> usize {
        self.cumulative.len()
    }

    /// Probability of rank `k` (1-based), or 0 outside the support.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 || k > self.cumulative.len() {
            return 0.0;
        }
        let hi = self.cumulative[k - 1];
        let lo = if k >= 2 { self.cumulative[k - 2] } else { 0.0 };
        hi - lo
    }
}

impl Sample for Zipf {
    type Output = usize;

    /// Draws a 1-based rank.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index with cumulative >= u.
        self.cumulative.partition_point(|&c| c < u) + 1
    }
}

/// Standard normal via the Box–Muller transform.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdNormal;

impl Sample for StdNormal {
    type Output = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() is in [0,1); shift to (0,1] so ln() is finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Log-normal distribution: `exp(μ + σ·Z)`.
///
/// HTTP response sizes are heavy-tailed and well modelled log-normally; §4
/// of the paper compares JSON and HTML size distributions at the median and
/// 75th percentile, which this reproduction regenerates from log-normal
/// models with different (μ, σ).
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and scale `sigma ≥ 0`
    /// (parameters of the underlying normal).
    ///
    /// # Panics
    /// Panics on non-finite parameters or negative `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Constructs the log-normal whose *median* is `median` and whose
    /// underlying normal has scale `sigma`. The median of `exp(μ+σZ)` is
    /// `exp(μ)`, so this is just a readable way to calibrate size models.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// The distribution median, `exp(μ)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The distribution mean, `exp(μ + σ²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// The `q`-quantile via the probit function.
    pub fn quantile(&self, q: f64) -> f64 {
        (self.mu + self.sigma * probit(q)).exp()
    }
}

impl Sample for LogNormal {
    type Output = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * StdNormal.sample(rng)).exp()
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// Inter-arrival times of human-triggered (Poisson) traffic.
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential with rate `λ > 0`.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite rates.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { rate }
    }

    /// The distribution mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sample for Exponential {
    type Output = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        -u.ln() / self.rate
    }
}

/// Poisson distribution with mean `λ`.
///
/// Used for per-bucket request counts in synthetic noise flows. Knuth's
/// multiplication method below `λ = 30`; above that a rounded
/// normal approximation (error < 1% there, irrelevant for our use).
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson with mean `λ > 0`.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite `λ`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive"
        );
        Poisson { lambda }
    }
}

impl Sample for Poisson {
    type Output = u64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            let limit = (-self.lambda).exp();
            let mut product: f64 = rng.gen();
            let mut count = 0;
            while product > limit {
                product *= rng.gen::<f64>();
                count += 1;
            }
            count
        } else {
            let z = StdNormal.sample(rng);
            let x = self.lambda + self.lambda.sqrt() * z;
            x.round().max(0.0) as u64
        }
    }
}

/// Pareto distribution with scale `x_m` and shape `α`.
///
/// Heavy-tailed client activity: a few clients issue most requests.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto with minimum `scale > 0` and shape `α > 0`.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite parameters.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite());
        assert!(shape > 0.0 && shape.is_finite());
        Pareto { scale, shape }
    }
}

impl Sample for Pareto {
    type Output = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        self.scale / u.powf(1.0 / self.shape)
    }
}

/// Inverse standard normal CDF (probit), Acklam's rational approximation
/// (relative error < 1.15e-9 over (0,1)).
///
/// # Panics
/// Panics when `p` is outside `(0, 1)`.
pub fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit needs p in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Picks an index from `weights` proportionally to the weight values.
///
/// Handy for categorical draws (device mix, industry mix). Zero total weight
/// returns `None`.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    pick_weighted(rng, weights, positive_total(weights))
}

/// [`weighted_index`] over a fixed table, for many draws from the same
/// weights: the total is summed once instead of on every draw. Each draw
/// returns exactly what `weighted_index` would for the same weights and
/// RNG state.
#[derive(Clone, Debug)]
pub struct WeightedIndex {
    weights: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// A table over `weights`; non-finite and non-positive weights are
    /// never drawn.
    pub fn new(weights: Vec<f64>) -> Self {
        let total = positive_total(&weights);
        WeightedIndex { weights, total }
    }
}

impl Sample for WeightedIndex {
    type Output = Option<usize>;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        pick_weighted(rng, &self.weights, self.total)
    }
}

/// Sum of the finite, positive weights.
fn positive_total(weights: &[f64]) -> f64 {
    weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum()
}

/// One draw of one uniform, scaled by `total` and walked down `weights`.
fn pick_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64], total: f64) -> Option<usize> {
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if !(w.is_finite() && w > 0.0) {
            continue;
        }
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    // Floating-point slop: fall back to the last positive weight.
    weights.iter().rposition(|&w| w.is_finite() && w > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for k in 1..100 {
            assert!(z.pmf(k) >= z.pmf(k + 1), "pmf must decay with rank");
        }
        assert_eq!(z.pmf(0), 0.0);
        assert_eq!(z.pmf(101), 0.0);
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = rng();
        let mut counts = [0u64; 10];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for k in 1..=10 {
            let expected = z.pmf(k);
            let observed = counts[k - 1] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {k}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 1..=4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn lognormal_median_and_mean() {
        let ln = LogNormal::from_median(900.0, 0.8);
        assert!((ln.median() - 900.0).abs() < 1e-9);
        let mut rng = rng();
        let s: Summary = (0..100_000).map(|_| ln.sample(&mut rng)).collect();
        assert!((s.mean().unwrap() - ln.mean()).abs() / ln.mean() < 0.05);
    }

    #[test]
    fn lognormal_quantile_matches_samples() {
        let ln = LogNormal::new(0.0, 1.0);
        let mut rng = rng();
        let samples: Vec<f64> = (0..100_000).map(|_| ln.sample(&mut rng)).collect();
        let mut q = crate::ExactQuantiles::new();
        for &s in &samples {
            q.record(s);
        }
        let p75 = q.quantile(0.75).unwrap();
        assert!((p75 - ln.quantile(0.75)).abs() / ln.quantile(0.75) < 0.05);
    }

    #[test]
    fn exponential_mean() {
        let e = Exponential::new(0.25);
        assert_eq!(e.mean(), 4.0);
        let mut rng = rng();
        let s: Summary = (0..100_000).map(|_| e.sample(&mut rng)).collect();
        assert!((s.mean().unwrap() - 4.0).abs() < 0.1);
        assert!(s.min().unwrap() >= 0.0);
    }

    #[test]
    fn poisson_small_lambda() {
        let p = Poisson::new(3.0);
        let mut rng = rng();
        let s: Summary = (0..100_000).map(|_| p.sample(&mut rng) as f64).collect();
        assert!((s.mean().unwrap() - 3.0).abs() < 0.05);
        assert!((s.variance().unwrap() - 3.0).abs() < 0.15);
    }

    #[test]
    fn poisson_large_lambda_normal_approx() {
        let p = Poisson::new(400.0);
        let mut rng = rng();
        let s: Summary = (0..50_000).map(|_| p.sample(&mut rng) as f64).collect();
        assert!((s.mean().unwrap() - 400.0).abs() < 2.0);
        assert!((s.variance().unwrap() - 400.0).abs() < 20.0);
    }

    #[test]
    fn pareto_respects_scale() {
        let p = Pareto::new(10.0, 2.0);
        let mut rng = rng();
        for _ in 0..1000 {
            assert!(p.sample(&mut rng) >= 10.0);
        }
    }

    #[test]
    fn probit_known_values() {
        assert!((probit(0.5)).abs() < 1e-9);
        assert!((probit(0.975) - 1.959964).abs() < 1e-5);
        assert!((probit(0.025) + 1.959964).abs() < 1e-5);
        assert!((probit(0.999) - 3.090232).abs() < 1e-4);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = rng();
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u64; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut rng, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_zero_total_is_none() {
        let mut rng = rng();
        assert!(weighted_index(&mut rng, &[0.0, 0.0]).is_none());
        assert!(weighted_index(&mut rng, &[]).is_none());
        assert!(weighted_index(&mut rng, &[f64::NAN]).is_none());
    }

    #[test]
    fn determinism_with_same_seed() {
        let z = Zipf::new(50, 1.2);
        let a: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..100).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
