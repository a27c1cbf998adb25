//! Zero-mean Laplace distribution `Lap(b)`.
//!
//! The paper writes `Lap(b)` for the distribution with density
//! `f(x) = exp(-|x|/b) / (2b)`; e.g. Algorithm 1 adds `Lap(2k/ε)` noise and
//! Algorithm 2 adds `Lap(1/ε₀)`, `Lap(2/ε₁)`, `Lap(2/ε₂)`.
//!
//! The key analytic property used throughout the randomness-alignment proofs
//! is the *bounded log-density ratio* (Definition 6):
//! `log(f(x)/f(y)) <= |x - y| / b`, which [`Laplace::log_density_ratio_bound`]
//! exposes for cost accounting.

use crate::error::{require_open_unit, require_positive, NoiseError};
use crate::traits::{ContinuousDistribution, SingleUniform};
use rand::Rng;

/// Zero-mean Laplace distribution with scale parameter `b > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// The largest draw of the unit-scale sampler over every `f64` uniform
    /// in `[0, 1)`: the positive branch's `ln` argument `1 - 2|u - ½|` is
    /// a multiple of `2⁻⁵²` there, so it is at least `2⁻⁵²` and the draw at
    /// most `52·ln 2 ≈ 36.04`. This is `52·ln 2` rounded up to the next
    /// `f64`, so it bounds the transform under any faithfully rounded `ln`.
    /// A draw at scale `b` is at most `UNIT_MAX * b`: the sampler is a
    /// single `b × f(u)` product, and rounding is monotone.
    pub const UNIT_MAX: f64 = 36.043_653_389_117_16;

    /// Creates `Lap(scale)`; `scale` must be finite and positive.
    pub fn new(scale: f64) -> Result<Self, NoiseError> {
        Ok(Self {
            scale: require_positive("scale", scale)?,
        })
    }

    /// Creates the Laplace mechanism noise `Lap(sensitivity / epsilon)`.
    pub fn for_budget(sensitivity: f64, epsilon: f64) -> Result<Self, NoiseError> {
        let s = require_positive("sensitivity", sensitivity)?;
        let e = require_positive("epsilon", epsilon)?;
        Self::new(s / e)
    }

    /// The scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Upper bound on `log(f(x)/f(y))` per unit of `|x - y|`, i.e. `1/b`.
    ///
    /// This is the `1/αᵢ` factor in the paper's Definition 6 alignment cost
    /// `Σᵢ |ηᵢ - η'ᵢ| / αᵢ`.
    pub fn log_density_ratio_bound(&self) -> f64 {
        1.0 / self.scale
    }

    /// Survival function `P(X > x)`; more accurate than `1 - cdf(x)` in the
    /// right tail.
    pub fn sf(&self, x: f64) -> f64 {
        if x >= 0.0 {
            0.5 * (-x / self.scale).exp()
        } else {
            1.0 - 0.5 * (x / self.scale).exp()
        }
    }
}

impl SingleUniform for Laplace {
    /// Inverse-CDF transform: `x = -b * sgn(u') * ln(1 - 2|u'|)` for
    /// `u' = u - 0.5 ∈ [-1/2, 1/2)`. The endpoint `u' = -1/2` (i.e.
    /// `u = 0`) maps to the extreme left tail; it stays finite because ln
    /// is clamped to `f64::MIN_POSITIVE`, not evaluated at 0.
    #[inline]
    fn sample_from_uniform(&self, u: f64) -> f64 {
        let u = u - 0.5;
        let magnitude = -self.scale * (1.0 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln();
        if u < 0.0 {
            -magnitude
        } else {
            magnitude
        }
    }
}

impl ContinuousDistribution for Laplace {
    /// One uniform draw through the
    /// [`SingleUniform`] transform — the arithmetic
    /// exists exactly once, so the raw-uniform buffering paths are
    /// bit-identical by construction.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_from_uniform(rng.gen::<f64>())
    }

    /// Batch inverse-CDF sampling: one uniform draw per sample, fused into a
    /// single pass over `out`. Bit-identical to a [`sample`](Self::sample)
    /// loop on the same RNG stream (same draw order, same arithmetic).
    #[inline]
    fn fill_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample_from_uniform(rng.gen::<f64>());
        }
    }

    /// Fused offset + batch sampling (`out[i] = base[i] + Lap(b)`): the
    /// Noisy-Max hot loop, one buffer write per query.
    #[inline]
    fn fill_into_offset<R: Rng + ?Sized>(&self, rng: &mut R, base: &[f64], out: &mut [f64]) {
        // lint:allow(panic-freedom): documented panic — the mechanism core sizes both buffers before the call
        assert_eq!(base.len(), out.len(), "offset/output length mismatch");
        for (slot, b) in out.iter_mut().zip(base) {
            *slot = b + self.sample_from_uniform(rng.gen::<f64>());
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        (-(x.abs()) / self.scale).exp() / (2.0 * self.scale)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.scale).exp()
        } else {
            1.0 - 0.5 * (-x / self.scale).exp()
        }
    }

    fn quantile(&self, p: f64) -> Result<f64, NoiseError> {
        let p = require_open_unit("p", p)?;
        Ok(if p < 0.5 {
            self.scale * (2.0 * p).ln()
        } else {
            -self.scale * (2.0 * (1.0 - p)).ln()
        })
    }

    fn mean(&self) -> f64 {
        0.0
    }

    /// `Var = 2 b²`.
    fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::stats::{ks_statistic, RunningMoments};
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_scale() {
        assert!(Laplace::new(0.0).is_err());
        assert!(Laplace::new(-1.0).is_err());
        assert!(Laplace::new(f64::NAN).is_err());
    }

    #[test]
    fn for_budget_matches_ratio() {
        let l = Laplace::for_budget(2.0, 0.5).unwrap();
        assert_eq!(l.scale(), 4.0);
        assert!(Laplace::for_budget(1.0, 0.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_one_trapezoid() {
        let l = Laplace::new(1.7).unwrap();
        let (a, b, n) = (-60.0, 60.0, 400_000);
        let h = (b - a) / n as f64;
        let mut area = 0.0;
        for i in 0..n {
            let x0 = a + i as f64 * h;
            area += 0.5 * h * (l.pdf(x0) + l.pdf(x0 + h));
        }
        assert!((area - 1.0).abs() < 1e-6, "area = {area}");
    }

    #[test]
    fn cdf_matches_numeric_integral_of_pdf() {
        let l = Laplace::new(0.8).unwrap();
        for x in [-3.0, -1.0, -0.1, 0.0, 0.1, 0.5, 2.0, 5.0] {
            // integrate pdf from -40 to x
            let (a, n) = (-40.0, 200_000);
            let h = (x - a) / n as f64;
            let mut area = 0.0;
            for i in 0..n {
                let x0 = a + i as f64 * h;
                area += 0.5 * h * (l.pdf(x0) + l.pdf(x0 + h));
            }
            assert!((area - l.cdf(x)).abs() < 1e-6, "x = {x}");
        }
    }

    #[test]
    fn cdf_symmetry() {
        let l = Laplace::new(2.5).unwrap();
        for x in [0.0, 0.3, 1.0, 4.0, 10.0] {
            assert!((l.cdf(-x) - (1.0 - l.cdf(x))).abs() < 1e-14);
        }
    }

    #[test]
    fn sf_complements_cdf() {
        let l = Laplace::new(1.0).unwrap();
        for x in [-5.0, -1.0, 0.0, 1.0, 30.0] {
            assert!((l.sf(x) + l.cdf(x) - 1.0).abs() < 1e-14);
        }
        // deep tail: sf stays meaningful where 1 - cdf loses all precision
        // (0.5*e^-700 ≈ 5e-305 is representable; beyond ~745 it underflows).
        assert!(l.sf(700.0) > 0.0);
        assert_eq!(1.0 - l.cdf(700.0), 0.0, "naive complement loses the tail");
    }

    /// The largest `f64` below 1: the top uniform.
    const TOP: f64 = 1.0 - f64::EPSILON / 2.0;

    #[test]
    fn unit_max_bounds_every_draw() {
        let unit = Laplace::new(1.0).unwrap();
        let scaled = [Laplace::new(3.7).unwrap(), Laplace::new(1e300).unwrap()];
        let check = |u: f64| {
            assert!(
                unit.sample_from_uniform(u) <= Laplace::UNIT_MAX,
                "u = {u:e}"
            );
            for lap in &scaled {
                let bound = Laplace::UNIT_MAX * lap.scale();
                assert!(lap.sample_from_uniform(u) <= bound, "u = {u:e}");
            }
        };
        check(0.0);
        let mut u = TOP;
        for _ in 0..1 << 20 {
            check(u);
            u = u.next_down();
        }
        let mut rng = rng_from_seed(36);
        for _ in 0..10_000_000 {
            check(rng.gen());
        }
    }

    #[test]
    fn unit_max_is_tight() {
        let top = Laplace::new(1.0).unwrap().sample_from_uniform(TOP);
        assert!(top <= Laplace::UNIT_MAX);
        assert!(
            (Laplace::UNIT_MAX - top) / Laplace::UNIT_MAX < 1e-12,
            "{top}"
        );
        assert_eq!(Laplace::UNIT_MAX, (52.0 * std::f64::consts::LN_2).next_up());
    }

    #[test]
    fn sample_moments_match() {
        let l = Laplace::new(3.0).unwrap();
        let mut rng = rng_from_seed(11);
        let mut m = RunningMoments::new();
        for _ in 0..200_000 {
            m.push(l.sample(&mut rng));
        }
        assert!(m.mean().abs() < 0.05, "mean = {}", m.mean());
        let rel = (m.variance() - l.variance()).abs() / l.variance();
        assert!(rel < 0.03, "variance rel err = {rel}");
    }

    #[test]
    fn sample_ks_against_cdf() {
        let l = Laplace::new(1.3).unwrap();
        let mut rng = rng_from_seed(5);
        let xs = l.sample_n(&mut rng, 50_000);
        let d = ks_statistic(&xs, |x| l.cdf(x));
        // KS critical value at alpha=0.001 for n=50k is ~ 1.949/sqrt(n) ≈ 0.0087
        assert!(d < 0.009, "KS distance {d}");
    }

    proptest! {
        #[test]
        fn quantile_inverts_cdf(p in 1e-6f64..1.0 - 1e-6, scale in 0.01f64..100.0) {
            let l = Laplace::new(scale).unwrap();
            let x = l.quantile(p).unwrap();
            prop_assert!((l.cdf(x) - p).abs() < 1e-9);
        }

        #[test]
        fn log_density_ratio_is_bounded(x in -15.0f64..15.0, y in -15.0f64..15.0,
                                        scale in 0.05f64..20.0) {
            // Keep |x - y|/scale below ~700 so exp(-|y|/b) cannot underflow
            // to zero and produce a spuriously infinite ratio.
            let l = Laplace::new(scale).unwrap();
            let lhs = (l.pdf(x) / l.pdf(y)).ln();
            let rhs = (x - y).abs() * l.log_density_ratio_bound();
            prop_assert!(lhs <= rhs + 1e-9, "lhs {lhs} rhs {rhs}");
        }

        #[test]
        fn cdf_monotone(a in -30.0f64..30.0, b in -30.0f64..30.0, scale in 0.1f64..10.0) {
            let l = Laplace::new(scale).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(l.cdf(lo) <= l.cdf(hi) + 1e-15);
        }

        #[test]
        fn samples_are_finite(seed in 0u64..1000, scale in 0.01f64..100.0) {
            let l = Laplace::new(scale).unwrap();
            let mut rng = rng_from_seed(seed);
            for _ in 0..64 {
                prop_assert!(l.sample(&mut rng).is_finite());
            }
        }
    }
}
