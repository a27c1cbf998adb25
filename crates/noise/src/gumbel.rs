//! Standard Gumbel distribution — the sampling engine behind the
//! exponential mechanism (the Gumbel-max trick: `argmaxᵢ(sᵢ + Gᵢ)` is a
//! softmax sample of the scores `sᵢ`).
//!
//! Density `f(x) = e^{-(x + e^{-x})}`, CDF `F(x) = e^{-e^{-x}}`,
//! mean `γ_EM` (Euler–Mascheroni), variance `π²/6`.

use crate::error::{require_open_unit, require_positive, NoiseError};
use crate::traits::{ContinuousDistribution, SingleUniform};
use rand::Rng;

/// Euler–Mascheroni constant (mean of the standard Gumbel).
pub const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;

/// Gumbel distribution with location 0 and scale `β`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gumbel {
    scale: f64,
}

impl Gumbel {
    /// The largest draw of the standard sampler over every `f64` uniform
    /// in `[0, 1)`: the inner `-ln u` is smallest at the top uniform
    /// `1 - 2⁻⁵³`, where it is `2⁻⁵³`, so the draw `-ln(-ln u)` is at most
    /// `53·ln 2 ≈ 36.74`. This is `53·ln 2` rounded up to the next `f64`,
    /// so it bounds the transform under any faithfully rounded `ln`. A draw
    /// at scale `β` is at most `UNIT_MAX * β`: the sampler is a single
    /// `β × f(u)` product, and rounding is monotone.
    pub const UNIT_MAX: f64 = 36.736_800_569_677_11;

    /// Creates a Gumbel with the given scale (`β = 1` is the standard form).
    pub fn new(scale: f64) -> Result<Self, NoiseError> {
        Ok(Self {
            scale: require_positive("scale", scale)?,
        })
    }

    /// The standard Gumbel (`β = 1`).
    pub fn standard() -> Self {
        Self { scale: 1.0 }
    }

    /// The scale parameter `β`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl SingleUniform for Gumbel {
    /// Inverse-CDF transform `x = -β·ln(-ln u)` under the workspace's
    /// endpoint-guard convention (see [`crate::Laplace`]): every `ln`
    /// argument is clamped below by `f64::MIN_POSITIVE`, so the output is
    /// finite for all of `[0, 1]` — `u = 0` maps deep into the left tail
    /// instead of `-∞`, and even the out-of-contract `u = 1` stays finite
    /// rather than overflowing through `ln 0`.
    #[inline]
    fn sample_from_uniform(&self, u: f64) -> f64 {
        let e = -(u.max(f64::MIN_POSITIVE).ln());
        -self.scale * e.max(f64::MIN_POSITIVE).ln()
    }
}

impl ContinuousDistribution for Gumbel {
    /// One uniform draw through the [`SingleUniform`] transform — the
    /// arithmetic exists exactly once, so the raw-uniform tape paths (and
    /// the trait's default batch fills) are bit-identical by construction.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_from_uniform(rng.gen::<f64>())
    }

    fn pdf(&self, x: f64) -> f64 {
        let z = x / self.scale;
        ((-z - (-z).exp()).exp()) / self.scale
    }

    fn cdf(&self, x: f64) -> f64 {
        (-(-x / self.scale).exp()).exp()
    }

    fn quantile(&self, p: f64) -> Result<f64, NoiseError> {
        let p = require_open_unit("p", p)?;
        Ok(-self.scale * (-(p.ln())).ln())
    }

    fn mean(&self) -> f64 {
        EULER_MASCHERONI * self.scale
    }

    /// `Var = π²β²/6`.
    fn variance(&self) -> f64 {
        std::f64::consts::PI * std::f64::consts::PI * self.scale * self.scale / 6.0
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
        assert!(Gumbel::new(0.0).is_err());
        assert!(Gumbel::new(f64::NAN).is_err());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let g = Gumbel::standard();
        let (a, b, n) = (-15.0, 40.0, 400_000);
        let h = (b - a) / n as f64;
        let mut area = 0.0;
        for i in 0..n {
            let x0 = a + i as f64 * h;
            area += 0.5 * h * (g.pdf(x0) + g.pdf(x0 + h));
        }
        assert!((area - 1.0).abs() < 1e-6, "area = {area}");
    }

    #[test]
    fn moments_match_samples() {
        let g = Gumbel::new(2.0).unwrap();
        let mut rng = rng_from_seed(1);
        let mut m = RunningMoments::new();
        for _ in 0..200_000 {
            m.push(g.sample(&mut rng));
        }
        assert!((m.mean() - g.mean()).abs() < 0.02, "mean {}", m.mean());
        assert!((m.variance() - g.variance()).abs() / g.variance() < 0.03);
    }

    #[test]
    fn sampler_ks() {
        let g = Gumbel::standard();
        let xs = g.sample_n(&mut rng_from_seed(2), 50_000);
        let d = ks_statistic(&xs, |x| g.cdf(x));
        assert!(d < 0.009, "KS = {d}");
    }

    #[test]
    fn gumbel_max_equals_softmax() {
        // The property the exponential mechanism relies on.
        let scores = [1.0f64, 0.0, -0.5];
        let g = Gumbel::standard();
        let mut rng = rng_from_seed(3);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let winner = (0..3)
                .map(|i| (scores[i] + g.sample(&mut rng), i))
                .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .unwrap()
                .1;
            counts[winner] += 1;
        }
        let z: f64 = scores.iter().map(|s| s.exp()).sum();
        for i in 0..3 {
            let p = scores[i].exp() / z;
            let emp = counts[i] as f64 / n as f64;
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!((emp - p).abs() < 5.0 * sigma, "i={i}: {emp} vs {p}");
        }
    }

    /// The largest `f64` below 1: the top uniform.
    const TOP: f64 = 1.0 - f64::EPSILON / 2.0;

    #[test]
    fn unit_max_bounds_every_draw() {
        let unit = Gumbel::standard();
        let scaled = [Gumbel::new(3.7).unwrap(), Gumbel::new(1e300).unwrap()];
        let check = |u: f64| {
            assert!(unit.sample_from_uniform(u) <= Gumbel::UNIT_MAX, "u = {u:e}");
            for g in &scaled {
                let bound = Gumbel::UNIT_MAX * g.scale();
                assert!(g.sample_from_uniform(u) <= bound, "u = {u:e}");
            }
        };
        check(0.0);
        let mut u = TOP;
        for _ in 0..1 << 20 {
            check(u);
            u = u.next_down();
        }
        let mut rng = rng_from_seed(53);
        for _ in 0..10_000_000 {
            check(rng.gen());
        }
    }

    #[test]
    fn unit_max_is_tight() {
        let top = Gumbel::standard().sample_from_uniform(TOP);
        assert!(top <= Gumbel::UNIT_MAX);
        assert!((Gumbel::UNIT_MAX - top) / Gumbel::UNIT_MAX < 1e-12, "{top}");
        assert_eq!(Gumbel::UNIT_MAX, (53.0 * std::f64::consts::LN_2).next_up());
    }

    #[test]
    fn transform_is_finite_at_both_endpoints() {
        // The endpoint-guard convention: finite output on the whole closed
        // unit interval, including the out-of-contract u = 1.
        let g = Gumbel::new(2.0).unwrap();
        for u in [
            0.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
        ] {
            let x = g.sample_from_uniform(u);
            assert!(x.is_finite(), "u = {u:e} gave {x}");
        }
    }

    proptest! {
        #[test]
        fn quantile_inverts_cdf(p in 1e-6f64..1.0-1e-6, scale in 0.1f64..10.0) {
            let g = Gumbel::new(scale).unwrap();
            let x = g.quantile(p).unwrap();
            prop_assert!((g.cdf(x) - p).abs() < 1e-9);
        }

        #[test]
        fn transform_never_returns_non_finite(u in 0.0f64..1.0, scale in 0.01f64..100.0) {
            let g = Gumbel::new(scale).unwrap();
            let x = g.sample_from_uniform(u);
            prop_assert!(x.is_finite(), "u = {u} gave {x}");
        }

        #[test]
        fn sample_matches_transform_bitwise(seed in 0u64..10_000, scale in 0.01f64..50.0) {
            // The SingleUniform law: `sample(rng)` IS the one-uniform
            // transform of `rng.gen()`, same bits.
            let g = Gumbel::new(scale).unwrap();
            let mut a = rng_from_seed(seed);
            let mut b = rng_from_seed(seed);
            for _ in 0..32 {
                use rand::Rng;
                let direct = g.sample(&mut a);
                let via_u = g.sample_from_uniform(b.gen::<f64>());
                prop_assert!(direct.to_bits() == via_u.to_bits());
            }
        }

        #[test]
        fn unit_gumbel_scales_exactly(seed in 0u64..10_000, scale in 0.01f64..100.0) {
            // The transform is a single `scale × f(u)` product, so serving
            // unit draws and rescaling is bit-identical to sampling at the
            // target scale — the property the scaled tape paths rely on.
            let unit = Gumbel::standard();
            let direct = Gumbel::new(scale).unwrap();
            let mut a = rng_from_seed(seed);
            let mut b = rng_from_seed(seed);
            for _ in 0..32 {
                prop_assert!(unit.sample(&mut a) * scale == direct.sample(&mut b));
            }
        }
    }
}
