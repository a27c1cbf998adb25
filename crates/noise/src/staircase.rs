//! Staircase distribution of Geng & Viswanath ("The optimal mechanism in
//! differential privacy", ISIT 2014), cited by the paper (§3.1, §5.1) as an
//! alternative to Laplace noise satisfying the same bounded log-density-ratio
//! property required by Definition 6.
//!
//! The density is a symmetric geometric mixture of uniform "stairs" of width
//! `Δ` (the sensitivity), each stair split at `γΔ`:
//!
//! ```text
//! f(x) = a(γ)·e^{-kε}           x ∈ [kΔ, kΔ + γΔ)
//! f(x) = a(γ)·e^{-(k+1)ε}       x ∈ [kΔ + γΔ, (k+1)Δ)
//! f(-x) = f(x)
//! a(γ) = (1 - e^{-ε}) / (2Δ(γ + e^{-ε}(1 - γ)))
//! ```
//!
//! Sampling follows the authors' four-variable representation
//! `X = S·((1-B)(G + γU) + B(G + γ + (1-γ)U))·Δ` with `S` a random sign, `G`
//! geometric with ratio `e^{-ε}`, `U` uniform, and `B` the within-stair side.

use crate::error::{require_open_unit, require_positive, NoiseError};
use crate::geometric::Geometric;
use crate::traits::ContinuousDistribution;
use rand::Rng;
use std::hint::select_unpredictable;

/// Staircase distribution with privacy parameter `ε`, sensitivity `Δ`, and
/// stair-split parameter `γ ∈ (0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Staircase {
    epsilon: f64,
    delta: f64,
    gamma: f64,
    /// Decay per stair, `b = e^{-ε}`.
    b: f64,
    geometric: Geometric,
    /// `P(B = 0)`, hoisted out of the sampler (a division per draw).
    inner_probability: f64,
    /// `1 - γ`, the outer side's width.
    one_minus_gamma: f64,
}

impl Staircase {
    /// Creates a staircase distribution. `gamma` must lie in `(0, 1)`.
    pub fn new(epsilon: f64, sensitivity: f64, gamma: f64) -> Result<Self, NoiseError> {
        let epsilon = require_positive("epsilon", epsilon)?;
        let delta = require_positive("sensitivity", sensitivity)?;
        let gamma = require_open_unit("gamma", gamma)?;
        let b = (-epsilon).exp();
        Ok(Self {
            epsilon,
            delta,
            gamma,
            b,
            geometric: Geometric::new(b)?,
            inner_probability: gamma / (gamma + (1.0 - gamma) * b),
            one_minus_gamma: 1.0 - gamma,
        })
    }

    /// Creates the distribution with the variance-optimal split
    /// `γ* = 1 / (1 + e^{ε/2})`.
    pub fn optimal(epsilon: f64, sensitivity: f64) -> Result<Self, NoiseError> {
        let e = require_positive("epsilon", epsilon)?;
        Self::new(e, sensitivity, 1.0 / (1.0 + (e / 2.0).exp()))
    }

    /// The privacy parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The sensitivity `Δ` (stair width).
    pub fn sensitivity(&self) -> f64 {
        self.delta
    }

    /// The stair-split parameter `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Normalization constant `a(γ)`.
    pub fn height(&self) -> f64 {
        (1.0 - self.b) / (2.0 * self.delta * (self.gamma + self.b * (1.0 - self.gamma)))
    }

    /// Probability that a sample falls on the inner (cheaper) side of a stair,
    /// `P(B = 0) = γ / (γ + (1-γ)e^{-ε})`.
    pub fn inner_side_probability(&self) -> f64 {
        self.inner_probability
    }

    /// The sampler as a pure transform of four uniforms `u ∈ [0, 1)` —
    /// sign, geometric layer (one-uniform CDF inversion, see
    /// [`crate::Geometric::index_from_uniform`]), within-stair position,
    /// and stair side, in draw order.
    ///
    /// The law mirrors [`SingleUniform`](crate::SingleUniform) with arity
    /// four: `sample(rng)` is exactly
    /// `sample_from_uniforms([rng.gen(); 4])` — same arithmetic, same bits.
    /// This is the hook the raw-uniform tape uses to serve staircase draws
    /// from its buffered uniforms ([`crate::BlockBuffer::drain`]), which is
    /// what lets the staircase measurement mechanism share one buffered
    /// stream with the Laplace/Gumbel/discrete families.
    ///
    /// An exact kernel: one `ln` (the layer, through
    /// [`Geometric::layer_from_uniform`]) and no data-dependent branch. The
    /// sign is a fair coin and the side a biased one, so both are selects;
    /// both sides' positions are computed and the side picks one.
    #[inline]
    pub fn sample_from_uniforms(&self, u: [f64; Self::URANDS]) -> f64 {
        let sign = select_unpredictable(u[0] < 0.5, 1.0, -1.0);
        let g = self.geometric.layer_from_uniform(u[1]);
        let inner = g + self.gamma * u[2];
        let outer = g + self.gamma + self.one_minus_gamma * u[2];
        let position = select_unpredictable(u[3] < self.inner_probability, inner, outer);
        sign * (position * self.delta)
    }

    /// Uniform draws one staircase sample consumes (the Geng–Viswanath
    /// four-variable representation).
    pub const URANDS: usize = 4;
}

impl ContinuousDistribution for Staircase {
    /// Four uniform draws through
    /// [`sample_from_uniforms`](Self::sample_from_uniforms) — the arithmetic
    /// exists exactly once, so the raw-uniform tape path is bit-identical by
    /// construction.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_from_uniforms([rng.gen(), rng.gen(), rng.gen(), rng.gen()])
    }

    fn pdf(&self, x: f64) -> f64 {
        let t = x.abs() / self.delta;
        let k = t.floor();
        let frac = t - k;
        let decay = self.b.powf(if frac < self.gamma { k } else { k + 1.0 });
        self.height() * decay
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 1.0 - self.cdf(-x);
        }
        let t = x / self.delta;
        let m = t.floor();
        let frac = t - m;
        // Mass of the complete stairs [0, mΔ): half of (1 - b^m).
        let complete = 0.5 * (1.0 - self.b.powf(m));
        let a = self.height() * self.delta; // height per unit of `frac`
        let within = if frac < self.gamma {
            a * self.b.powf(m) * frac
        } else {
            a * self.b.powf(m) * self.gamma + a * self.b.powf(m + 1.0) * (frac - self.gamma)
        };
        0.5 + complete + within
    }

    fn quantile(&self, p: f64) -> Result<f64, NoiseError> {
        let p = require_open_unit("p", p)?;
        // Symmetric: solve for p >= 0.5 and mirror.
        if p < 0.5 {
            return Ok(-self.quantile(1.0 - p)?);
        }
        // Bisection over [0, hi]; expand hi until cdf(hi) > p.
        let mut hi = self.delta;
        let mut guard = 0;
        while self.cdf(hi) < p {
            hi *= 2.0;
            guard += 1;
            if guard > 200 {
                return Err(NoiseError::NoConvergence {
                    what: "staircase quantile",
                });
            }
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    fn mean(&self) -> f64 {
        0.0
    }

    /// Closed-form variance via the sampling representation:
    /// `Var = Δ²·E[M²]` with `M` the (unit-width) magnitude mixture.
    fn variance(&self) -> f64 {
        let g1 = self.geometric.mean();
        let g2 = self.geometric.second_moment();
        let c = self.gamma;
        let w = 1.0 - c;
        // Inner side: M = G + γU.
        let inner = g2 + c * g1 + c * c / 3.0;
        // Outer side: M = G + γ + (1-γ)U.
        let outer = g2 + 2.0 * g1 * (c + w / 2.0) + c * c + c * w + w * w / 3.0;
        let p0 = self.inner_side_probability();
        (p0 * inner + (1.0 - p0) * outer) * self.delta * self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::stats::{ks_statistic, RunningMoments};
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_params() {
        assert!(Staircase::new(0.0, 1.0, 0.5).is_err());
        assert!(Staircase::new(1.0, 0.0, 0.5).is_err());
        assert!(Staircase::new(1.0, 1.0, 0.0).is_err());
        assert!(Staircase::new(1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn optimal_gamma_formula() {
        let s = Staircase::optimal(2.0, 1.0).unwrap();
        assert!((s.gamma() - 1.0 / (1.0 + 1.0f64.exp())).abs() < 1e-15);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let s = Staircase::new(1.0, 1.0, 0.3).unwrap();
        let (a, b, n) = (-40.0, 40.0, 800_000);
        let h = (b - a) / n as f64;
        let mut area = 0.0;
        for i in 0..n {
            let x0 = a + i as f64 * h;
            area += 0.5 * h * (s.pdf(x0) + s.pdf(x0 + h));
        }
        assert!((area - 1.0).abs() < 1e-4, "area = {area}");
    }

    #[test]
    fn pdf_is_a_staircase() {
        let s = Staircase::new(1.0, 2.0, 0.5).unwrap();
        let a = s.height();
        let b = (-1.0f64).exp();
        // Inner region of stair 0: [0, 1)
        assert!((s.pdf(0.5) - a).abs() < 1e-12);
        // Outer region of stair 0: [1, 2)
        assert!((s.pdf(1.5) - a * b).abs() < 1e-12);
        // Inner region of stair 1: [2, 3)
        assert!((s.pdf(2.5) - a * b).abs() < 1e-12);
        // Outer region of stair 1: [3, 4)
        assert!((s.pdf(3.5) - a * b * b).abs() < 1e-12);
        // Symmetry
        assert!((s.pdf(-1.5) - s.pdf(1.5)).abs() < 1e-15);
    }

    #[test]
    fn dp_log_ratio_bounded_for_unit_shift() {
        // The staircase guarantees f(x)/f(x + Δ') <= e^ε for |Δ'| <= Δ.
        let s = Staircase::new(0.8, 1.0, 0.25).unwrap();
        for i in 0..400 {
            let x = -10.0 + i as f64 * 0.05;
            let ratio = (s.pdf(x) / s.pdf(x + 1.0)).ln().abs();
            assert!(ratio <= 0.8 + 1e-9, "x = {x}, ratio = {ratio}");
        }
    }

    #[test]
    fn cdf_matches_numeric_integral() {
        let s = Staircase::new(1.3, 1.0, 0.4).unwrap();
        for x in [-2.7, -1.0, -0.2, 0.0, 0.35, 0.9, 1.4, 3.2] {
            let (a, n) = (-35.0, 400_000);
            let h = (x - a) / n as f64;
            let mut area = 0.0;
            for i in 0..n {
                let x0 = a + i as f64 * h;
                area += 0.5 * h * (s.pdf(x0) + s.pdf(x0 + h));
            }
            assert!(
                (area - s.cdf(x)).abs() < 1e-4,
                "x = {x}: {area} vs {}",
                s.cdf(x)
            );
        }
    }

    #[test]
    fn sampler_matches_cdf_ks() {
        let s = Staircase::new(1.0, 1.0, 0.35).unwrap();
        let xs = s.sample_n(&mut rng_from_seed(8), 50_000);
        let d = ks_statistic(&xs, |x| s.cdf(x));
        assert!(d < 0.009, "KS = {d}");
    }

    #[test]
    fn closed_form_variance_matches_samples() {
        let s = Staircase::new(0.7, 2.0, 0.3).unwrap();
        let mut rng = rng_from_seed(10);
        let mut m = RunningMoments::new();
        for _ in 0..300_000 {
            m.push(s.sample(&mut rng));
        }
        let rel = (m.variance() - s.variance()).abs() / s.variance();
        assert!(
            rel < 0.03,
            "rel var err = {rel}: {} vs {}",
            m.variance(),
            s.variance()
        );
    }

    #[test]
    fn staircase_beats_laplace_variance_at_high_eps() {
        // Geng-Viswanath: staircase strictly dominates Laplace for large ε.
        let eps = 4.0;
        let stair = Staircase::optimal(eps, 1.0).unwrap();
        let lap_var = 2.0 / (eps * eps);
        assert!(
            stair.variance() < lap_var,
            "{} !< {lap_var}",
            stair.variance()
        );
    }

    #[test]
    fn transform_is_finite_at_uniform_endpoints() {
        let s = Staircase::new(1.0, 1.0, 0.3).unwrap();
        let edge = [0.0, f64::MIN_POSITIVE, 0.5, 1.0 - f64::EPSILON / 2.0, 1.0];
        for &a in &edge {
            for &b in &edge {
                let x = s.sample_from_uniforms([a, b, a, b]);
                assert!(x.is_finite(), "u = [{a:e}, {b:e}, ..] gave {x}");
            }
        }
    }

    proptest! {
        #[test]
        fn sample_matches_transform_bitwise(seed in 0u64..10_000, eps in 0.1f64..4.0) {
            // The four-uniform law behind the tape serving path.
            let s = Staircase::new(eps, 1.5, 0.35).unwrap();
            let mut a = rng_from_seed(seed);
            let mut b = rng_from_seed(seed);
            for _ in 0..16 {
                let direct = s.sample(&mut a);
                let via_u = s.sample_from_uniforms([b.gen(), b.gen(), b.gen(), b.gen()]);
                prop_assert!(direct.to_bits() == via_u.to_bits());
            }
        }

        #[test]
        fn quantile_inverts_cdf(p in 0.01f64..0.99, eps in 0.2f64..4.0, gamma in 0.05f64..0.95) {
            let s = Staircase::new(eps, 1.0, gamma).unwrap();
            let x = s.quantile(p).unwrap();
            prop_assert!((s.cdf(x) - p).abs() < 1e-6);
        }

        #[test]
        fn cdf_monotone(eps in 0.2f64..4.0, x in -10.0f64..10.0) {
            let s = Staircase::new(eps, 1.0, 0.5).unwrap();
            prop_assert!(s.cdf(x) <= s.cdf(x + 0.1) + 1e-12);
        }
    }
}
