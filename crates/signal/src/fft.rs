//! Planned radix-2 FFTs.
//!
//! Self-contained (the workspace carries no numeric dependencies): a minimal
//! complex type and an [`FftPlan`] per power-of-two length. A plan computes
//! its twiddle factors once, each from `cos` and `sin` of its own angle
//! rather than by a multiplicative recurrence, and is then shared read-only
//! by every
//! transform of that length — the §5.1 detector transforms a series and
//! all its permutations with one plan.
//!
//! A real signal of length `L` is transformed as an `L/2`-point complex FFT
//! of its even/odd samples packed into one complex sequence, followed by an
//! O(L) split (`FftPlan::real_power`); the inverse of a real, even
//! spectrum runs the same way backwards (`FftPlan::real_even_inverse`).
//! Each therefore costs about half a complex `L`-point transform.

use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number, `re + i·im`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Constructs from parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A real number.
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Multiplies by `-i`.
    fn mul_neg_i(self) -> Self {
        Complex {
            re: self.im,
            im: -self.re,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

/// Smallest power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Twiddle factors and bit-reversal order for transforms of one
/// power-of-two length `L`.
///
/// `twiddles[h + k] = e^{-iπk/h}` for every stage half-width
/// `h = 1, 2, 4, … L/2` and `k < h`: stage `h` reads one contiguous table.
/// The same table serves the `L/2`-point complex FFT inside a real
/// `L`-point transform (stages `h < L/2`), and its last stage,
/// `e^{-2πik/L}`, is exactly the twiddle of the real split.
#[derive(Clone, Debug)]
pub struct FftPlan {
    twiddles: Vec<Complex>,
    /// `bit_reverse[t]` is `t` with its `log2 L` low bits reversed.
    bit_reverse: Vec<u32>,
}

impl FftPlan {
    /// Plans transforms of length `len`.
    ///
    /// # Panics
    /// Panics when `len` is not a power of two or exceeds `2^32`.
    pub fn new(len: usize) -> FftPlan {
        assert!(len.is_power_of_two(), "FFT length must be a power of two");
        let bits = len.trailing_zeros();
        assert!(bits <= u32::BITS, "FFT length must not exceed 2^32");
        // Every index has at most 32 significant bits, so `as u32` is exact.
        let bit_reverse = (0..len)
            .map(|t| {
                t.reverse_bits()
                    .checked_shr(usize::BITS - bits)
                    .unwrap_or(0) as u32
            })
            .collect();
        // The last stage, e^{-iθ} for θ = πk/top: cos and sin are evaluated
        // up to θ = π/4, and the rest follows exactly from
        // e^{-i(π/2-θ)} = -i·conj(e^{-iθ}) and e^{-i(π/2+θ)} = -i·e^{-iθ}.
        // Every smaller stage is a power-of-two subsample of it.
        let mut twiddles = vec![Complex::ZERO; len];
        let top = len / 2;
        let (quarter, eighth) = (top / 2, top / 4);
        for k in 0..top {
            twiddles[top + k] = if k <= eighth {
                Complex::cis(-PI * k as f64 / top as f64)
            } else if k < quarter {
                twiddles[top + quarter - k].conj().mul_neg_i()
            } else {
                twiddles[top + k - quarter].mul_neg_i()
            };
        }
        let mut h = top / 2;
        while h >= 1 {
            let stride = top / h;
            for k in 0..h {
                twiddles[h + k] = twiddles[top + k * stride];
            }
            h /= 2;
        }
        FftPlan {
            twiddles,
            bit_reverse,
        }
    }

    /// The planned length `L`.
    pub(crate) fn len(&self) -> usize {
        self.twiddles.len()
    }

    /// The power spectrum `|X[k]|²`, `k = 0 ..= L/2`, of the real signal
    /// `signal[t] - offset` zero-padded to the planned length `L`, written
    /// to `power` (resized to `L/2 + 1`). The bins above `L/2` mirror these.
    ///
    /// `scratch` is resized to `L/2` and may be reused across calls.
    ///
    /// # Panics
    /// Panics when the plan has length 1 or `signal` is longer than it.
    pub(crate) fn real_power(
        &self,
        signal: &[f64],
        offset: f64,
        scratch: &mut Vec<Complex>,
        power: &mut Vec<f64>,
    ) {
        let half = self.len() / 2;
        assert!(half >= 1, "a real transform needs length ≥ 2");
        assert!(signal.len() <= self.len(), "signal longer than the plan");
        // Pack z[t] = x[2t] + i·x[2t+1] straight into bit-reversed order.
        scratch.clear();
        scratch.resize(half, Complex::ZERO);
        let pairs = signal.chunks_exact(2);
        if let [last] = pairs.remainder() {
            scratch[self.half_reverse(signal.len() / 2)] = Complex::real(last - offset);
        }
        for (t, pair) in pairs.enumerate() {
            scratch[self.half_reverse(t)] = Complex::new(pair[0] - offset, pair[1] - offset);
        }
        self.butterflies(scratch);

        // Split Z into X: with Xe = (Z[k] + conj Z[N-k])/2 and
        // Xo = -i(Z[k] - conj Z[N-k])/2 (the transforms of the even and odd
        // samples), X[k] = Xe + W^k·Xo and X[N-k] = conj(Xe - W^k·Xo).
        power.clear();
        power.resize(half + 1, 0.0);
        let z0 = scratch[0];
        power[0] = (z0.re + z0.im) * (z0.re + z0.im);
        power[half] = (z0.re - z0.im) * (z0.re - z0.im);
        let twiddles = &self.twiddles[half..];
        for k in 1..=half / 2 {
            let (a, b) = (scratch[k], scratch[half - k].conj());
            let even = (a + b).scale(0.5);
            let odd = twiddles[k] * (a - b).scale(0.5).mul_neg_i();
            power[k] = (even + odd).norm_sq();
            power[half - k] = (even - odd).norm_sq();
        }
    }

    /// The inverse transform of the real, even spectrum whose bins
    /// `0 ..= L/2` are `spectrum` (the bins above `L/2` mirror them, as for
    /// a power spectrum from [`real_power`](Self::real_power)), normalized
    /// by `1/L`. Writes the first `out.len()` of its `L` real samples.
    ///
    /// `scratch` is resized to `L/2` and may be reused across calls.
    ///
    /// # Panics
    /// Panics when `spectrum.len() != L/2 + 1`, or `out` is longer than `L`.
    pub(crate) fn real_even_inverse(
        &self,
        spectrum: &[f64],
        scratch: &mut Vec<Complex>,
        out: &mut [f64],
    ) {
        let half = self.len() / 2;
        assert_eq!(spectrum.len(), half + 1, "spectrum must hold bins 0..=L/2");
        assert!(out.len() <= self.len(), "output longer than the plan");
        // Z[k] = Ye[k] + i·Yo[k] packs the spectra of the even and odd
        // output samples; with a = Y[k], b = Y[N-k] and W^k = c - i·s:
        //   Z[k]   = ((a+b) - (a-b)s + i(a-b)c) / 2,
        //   Z[N-k] = ((a+b) + (a-b)s + i(a-b)c) / 2.
        // The inverse runs as the forward transform of conj(Z)/N.
        scratch.clear();
        scratch.resize(half, Complex::ZERO);
        let scale = 0.5 / half as f64;
        let (a, b) = (spectrum[0], spectrum[half]);
        scratch[0] = Complex::new((a + b) * scale, -(a - b) * scale);
        let twiddles = &self.twiddles[half..];
        for k in 1..=half / 2 {
            let (a, b) = (spectrum[k], spectrum[half - k]);
            let w = twiddles[k];
            let (sum, diff) = ((a + b) * scale, (a - b) * scale);
            // w = c - i·s, so the conjugated imaginary part -(a-b)c is
            // -diff·w.re and -(a-b)s is diff·w.im.
            let im = -diff * w.re;
            scratch[self.half_reverse(k)] = Complex::new(sum + diff * w.im, im);
            scratch[self.half_reverse(half - k)] = Complex::new(sum - diff * w.im, im);
        }
        self.butterflies(scratch);
        for (pair, z) in out.chunks_mut(2).zip(scratch.iter()) {
            pair[0] = z.re;
            if let Some(odd) = pair.get_mut(1) {
                *odd = -z.im;
            }
        }
    }

    /// Bit-reversed position of `t` in an `L/2`-point transform.
    fn half_reverse(&self, t: usize) -> usize {
        (self.bit_reverse[t] >> 1) as usize
    }

    /// Decimation-in-time butterflies over bit-reversed `data` of any
    /// power-of-two length up to the planned one, leaving the transform in
    /// natural order. The first two stages (twiddles 1 and -i) are fused
    /// into one radix-4 pass without multiplications.
    fn butterflies(&self, data: &mut [Complex]) {
        let n = data.len();
        let mut h = 1;
        if n >= 4 {
            for q in data.chunks_exact_mut(4) {
                let (a, b) = (q[0] + q[1], q[0] - q[1]);
                let (c, d) = (q[2] + q[3], (q[2] - q[3]).mul_neg_i());
                q[0] = a + c;
                q[1] = b + d;
                q[2] = a - c;
                q[3] = b - d;
            }
            h = 4;
        }
        while h < n {
            let twiddles = &self.twiddles[h..2 * h];
            for block in data.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                for ((x, y), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                    let t = *y * w;
                    *y = *x - t;
                    *x = *x + t;
                }
            }
            h *= 2;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Naive O(n²) DFT for cross-checking.
    pub(crate) fn dft(signal: &[Complex]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut sum = Complex::ZERO;
                for (t, &x) in signal.iter().enumerate() {
                    sum = sum
                        + x * Complex::cis(-std::f64::consts::TAU * k as f64 * t as f64 / n as f64);
                }
                sum
            })
            .collect()
    }

    /// `|X[k]|²`, `k = 0..=len/2`, of `signal - offset` zero-padded to `len`.
    fn real_power(signal: &[f64], offset: f64, len: usize) -> Vec<f64> {
        let mut power = Vec::new();
        FftPlan::new(len).real_power(signal, offset, &mut Vec::new(), &mut power);
        power
    }

    #[test]
    fn twiddles_match_direct_evaluation() {
        for len in [1, 2, 4, 8, 64, 1 << 12] {
            let plan = FftPlan::new(len);
            let mut h = 1;
            while h < len {
                for k in 0..h {
                    let direct = Complex::cis(-PI * k as f64 / h as f64);
                    let d = plan.twiddles[h + k] - direct;
                    assert!(d.abs() < 1e-15, "len {len} stage {h} k {k}: {d:?}");
                }
                h *= 2;
            }
        }
    }

    #[test]
    fn real_power_matches_naive_dft() {
        for len in [2, 4, 8, 16, 64, 512] {
            for n in [0, 1, len / 2 - 1, len / 2, len - 1, len] {
                let signal: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64).sqrt()).collect();
                let padded: Vec<Complex> = (0..len)
                    .map(|t| Complex::real(signal.get(t).map_or(0.0, |x| x - 1.5)))
                    .collect();
                let expected: Vec<f64> = dft(&padded)[..=len / 2]
                    .iter()
                    .map(|c| c.norm_sq())
                    .collect();
                let got = real_power(&signal, 1.5, len);
                assert_eq!(got.len(), expected.len());
                let tol = 1e-12 * expected.iter().fold(1.0, |m: f64, &p| m.max(p));
                for (k, (a, b)) in got.iter().zip(&expected).enumerate() {
                    assert!((a - b).abs() < tol, "len {len} n {n} bin {k}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn real_even_inverse_matches_naive_inverse() {
        for len in [2, 4, 8, 32, 256] {
            let half: Vec<f64> = (0..=len / 2)
                .map(|k| 1.0 + (k as f64 * 0.9).cos())
                .collect();
            // The full even spectrum, and its inverse by the naive DFT.
            let full: Vec<Complex> = (0..len)
                .map(|k| Complex::real(half[k.min(len - k)]))
                .collect();
            let expected: Vec<f64> = dft(&full).iter().map(|c| c.re / len as f64).collect();
            let mut got = vec![0.0; len];
            FftPlan::new(len).real_even_inverse(&half, &mut Vec::new(), &mut got);
            for (t, (a, b)) in got.iter().zip(&expected).enumerate() {
                assert!((a - b).abs() < 1e-12, "len {len} sample {t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn pure_tone_concentrates_at_its_bin() {
        let n = 64;
        let k0 = 5;
        let signal: Vec<f64> = (0..n)
            .map(|t| (std::f64::consts::TAU * k0 as f64 * t as f64 / n as f64).cos())
            .collect();
        let powers = real_power(&signal, 0.0, n);
        let max_bin = (1..n / 2)
            .max_by(|&a, &b| powers[a].total_cmp(&powers[b]))
            .unwrap();
        assert_eq!(max_bin, k0);
    }

    #[test]
    fn parseval_identity() {
        let signal: Vec<f64> = (0..128).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let len = 256;
        let power = real_power(&signal, 0.0, len);
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        // Bins 1..len/2 appear twice in the full spectrum.
        let freq_energy =
            (power[0] + power[len / 2] + 2.0 * power[1..len / 2].iter().sum::<f64>()) / len as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn trivial_sizes() {
        assert_eq!(real_power(&[1.0, 2.0], 0.0, 2), vec![9.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        FftPlan::new(12);
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(17), 32);
        assert_eq!(next_pow2(32), 32);
    }
}
