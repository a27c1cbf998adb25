//! One-sided geometric distribution on `{0, 1, 2, …}`.
//!
//! `P(G = g) = (1 - α) α^g` with `α = e^{-εγ}` in mechanism use. This is both
//! the Ghosh-Roughgarden-Sundararajan geometric mechanism's building block and
//! the magnitude sampler for [`crate::DiscreteLaplace`] (a difference of two
//! i.i.d. geometrics) and [`crate::Staircase`] (the layer index).

use crate::error::{require_open_unit, NoiseError};
use rand::Rng;

/// Geometric distribution on non-negative integers with success ratio `α`:
/// `P(G = g) = (1 - α) αᵍ`, `α ∈ (0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    alpha: f64,
    /// Reciprocal of `ln(α)`, precomputed so the per-draw CDF inversion is
    /// a multiply instead of a divide (the sampler is on the discrete
    /// mechanisms' hot path; every caller — sequential or batched — goes
    /// through the same reciprocal, so the streams stay bit-identical
    /// across execution paths).
    inv_ln_alpha: f64,
}

impl Geometric {
    /// Creates the distribution from the decay ratio `α ∈ (0, 1)`.
    pub fn new(alpha: f64) -> Result<Self, NoiseError> {
        let alpha = require_open_unit("alpha", alpha)?;
        Ok(Self {
            alpha,
            inv_ln_alpha: alpha.ln().recip(),
        })
    }

    /// Creates the decay used by an ε-DP integer mechanism with step `γ`:
    /// `α = exp(-ε γ)`.
    pub fn for_budget(epsilon: f64, gamma: f64) -> Result<Self, NoiseError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(NoiseError::InvalidScale {
                name: "epsilon",
                value: epsilon,
            });
        }
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(NoiseError::InvalidScale {
                name: "gamma",
                value: gamma,
            });
        }
        Self::new((-epsilon * gamma).exp())
    }

    /// The decay ratio `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The precomputed `1 / ln(α)` (for sibling samplers that invert a
    /// geometric tail with the same hoisted reciprocal).
    pub(crate) fn inv_ln_alpha(&self) -> f64 {
        self.inv_ln_alpha
    }

    /// Probability mass `P(G = g)`.
    pub fn pmf(&self, g: u64) -> f64 {
        (1.0 - self.alpha) * self.alpha.powi(g.min(i32::MAX as u64) as i32)
    }

    /// Cumulative distribution `P(G <= g) = 1 - α^{g+1}`.
    pub fn cdf(&self, g: u64) -> f64 {
        1.0 - self.alpha.powf(g as f64 + 1.0)
    }

    /// Mean `α / (1 - α)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (1.0 - self.alpha)
    }

    /// Second moment `E[G²] = α(1 + α)/(1 - α)²`.
    pub fn second_moment(&self) -> f64 {
        self.alpha * (1.0 + self.alpha) / ((1.0 - self.alpha) * (1.0 - self.alpha))
    }

    /// Variance `α / (1 - α)²`.
    pub fn variance(&self) -> f64 {
        self.alpha / ((1.0 - self.alpha) * (1.0 - self.alpha))
    }

    /// Samples by inverting the CDF: `g = floor(ln(1-u) / ln(α))` — one
    /// uniform draw through [`index_from_uniform`](Self::index_from_uniform).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.index_from_uniform(rng.gen())
    }

    /// The CDF inversion as a pure transform of one uniform `u ∈ [0, 1)`:
    /// `sample(rng) == index_from_uniform(rng.gen())`, bit for bit. This is
    /// the hook the raw-uniform buffering paths
    /// ([`crate::BlockBuffer`]) use to serve geometric-tail draws from
    /// block-filled uniforms.
    #[inline]
    pub fn index_from_uniform(&self, u: f64) -> u64 {
        self.layer_from_uniform(u) as u64
    }

    /// `index_from_uniform(u) as f64`: the layer index as the staircase
    /// sampler consumes it.
    ///
    /// An exact kernel: `floor(ln(1-u) / ln(α))` clamped at zero, with the
    /// clamp first so that `floor` is an `i64` truncation (the baseline
    /// x86-64 target has no rounding instruction, so `f64::floor` is an
    /// out-of-line call there). The truncation is exact for every input:
    /// `1-u` is clamped to at least `f64::MIN_POSITIVE`, so `-ln(1-u)` is
    /// at most 708.4, and `|1/ln(α)| ≤ 2⁵³` for `α < 1`, so the quotient
    /// stays below `2⁶³`; from `2⁵²` up it is already an integer.
    #[inline]
    pub fn layer_from_uniform(&self, u: f64) -> f64 {
        ((1.0 - u).max(f64::MIN_POSITIVE).ln() * self.inv_ln_alpha).max(0.0) as i64 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::stats::RunningMoments;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_alpha() {
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.0).is_err());
        assert!(Geometric::new(-0.5).is_err());
    }

    #[test]
    fn for_budget_decay() {
        let g = Geometric::for_budget(1.0, 1.0).unwrap();
        assert!((g.alpha() - (-1.0f64).exp()).abs() < 1e-15);
        assert!(Geometric::for_budget(0.0, 1.0).is_err());
        assert!(Geometric::for_budget(1.0, -1.0).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        let g = Geometric::new(0.6).unwrap();
        let total: f64 = (0..200).map(|k| g.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_matches_pmf_partial_sums() {
        let g = Geometric::new(0.35).unwrap();
        let mut acc = 0.0;
        for k in 0..50u64 {
            acc += g.pmf(k);
            assert!((acc - g.cdf(k)).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn closed_form_moments_match_series() {
        let g = Geometric::new(0.45).unwrap();
        let mean: f64 = (0..500).map(|k| k as f64 * g.pmf(k)).sum();
        let m2: f64 = (0..500).map(|k| (k * k) as f64 * g.pmf(k)).sum();
        assert!((mean - g.mean()).abs() < 1e-10);
        assert!((m2 - g.second_moment()).abs() < 1e-10);
        assert!((g.variance() - (g.second_moment() - g.mean() * g.mean())).abs() < 1e-12);
    }

    #[test]
    fn sample_moments() {
        let g = Geometric::new(0.7).unwrap();
        let mut rng = rng_from_seed(21);
        let mut m = RunningMoments::new();
        for _ in 0..200_000 {
            m.push(g.sample(&mut rng) as f64);
        }
        assert!(
            (m.mean() - g.mean()).abs() / g.mean() < 0.02,
            "mean = {}",
            m.mean()
        );
        assert!((m.variance() - g.variance()).abs() / g.variance() < 0.05);
    }

    proptest! {
        #[test]
        fn sample_matches_cdf_at_zero(alpha in 0.05f64..0.95, seed in 0u64..200) {
            // P(G = 0) = 1 - alpha; check empirical frequency within 5 sigma.
            let g = Geometric::new(alpha).unwrap();
            let mut rng = rng_from_seed(seed);
            let n = 20_000;
            let zeros = (0..n).filter(|_| g.sample(&mut rng) == 0).count() as f64;
            let p = 1.0 - alpha;
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            prop_assert!((zeros / n as f64 - p).abs() < 5.0 * sigma + 1e-9);
        }
    }
}
