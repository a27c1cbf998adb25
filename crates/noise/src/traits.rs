//! Distribution traits shared by the noise family.

use rand::Rng;

/// A continuous real-valued distribution with closed-form density and CDF.
///
/// All implementations in this crate are symmetric about their mean unless
/// documented otherwise (the [`crate::Exponential`] is one-sided).
pub trait ContinuousDistribution {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) for `p in (0, 1)`.
    ///
    /// Returns an error if `p` is outside the open unit interval or the
    /// solver fails to converge.
    fn quantile(&self, p: f64) -> Result<f64, crate::NoiseError>;

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// Variance of the distribution.
    fn variance(&self) -> f64;

    /// Standard deviation (square root of [`variance`](Self::variance)).
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Fills `out` with independent samples — the batch entry point of the
    /// workspace's Monte-Carlo hot paths.
    ///
    /// The default implementation loops [`sample`](Self::sample);
    /// distributions with a tight inverse-CDF (e.g. [`crate::Laplace`])
    /// override it with a fused loop. Implementations must consume the RNG
    /// exactly as repeated `sample` calls would, so `fill_into` and a
    /// `sample` loop produce **bit-identical** streams from the same RNG
    /// state — the scratch-buffer mechanism paths in `free-gap-core` rely on
    /// this to stay equivalent to the allocating paths.
    fn fill_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// Fills `out[i] = base[i] + sampleᵢ` in one fused pass — the
    /// noise-a-query-vector primitive of the mechanism fast paths, writing
    /// the output buffer exactly once.
    ///
    /// Same RNG-consumption contract as [`fill_into`](Self::fill_into):
    /// bit-identical to `base[i] + self.sample(rng)` in a loop.
    ///
    /// # Panics
    /// Panics if `base` and `out` have different lengths.
    fn fill_into_offset<R: Rng + ?Sized>(&self, rng: &mut R, base: &[f64], out: &mut [f64]) {
        // lint:allow(panic-freedom): documented panic — the mechanism core sizes both buffers before the call
        assert_eq!(base.len(), out.len(), "offset/output length mismatch");
        for (slot, b) in out.iter_mut().zip(base) {
            *slot = b + self.sample(rng);
        }
    }

    /// Draws `n` samples into a fresh vector (delegates to
    /// [`fill_into`](Self::fill_into)).
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.fill_into(rng, &mut out);
        out
    }
}

/// A continuous distribution whose sampler consumes **exactly one** uniform
/// draw and is a pure function of it.
///
/// The law: `sample(rng)` must be exactly
/// `sample_from_uniform(rng.gen::<f64>())` — same arithmetic, same bits.
/// This is the contract behind [`crate::BlockBuffer`]'s raw-uniform tape:
/// the buffer pulls uniforms from the RNG in blocks and applies the
/// transform at serve time, so continuous and discrete draws can share one
/// buffered stream without breaking the sequential draw order.
///
/// Distributions whose sampler needs more than one uniform cannot implement
/// this trait: [`crate::LaplaceDiff`] stays off the tape entirely, while
/// [`crate::Staircase`] rides it through its own fixed-arity transform
/// ([`crate::Staircase::sample_from_uniforms`], four uniforms per draw,
/// taken from [`crate::BlockBuffer::drain`] and completed from the RNG).
pub trait SingleUniform: ContinuousDistribution {
    /// The sampler as a pure transform of one uniform `u ∈ [0, 1)`.
    fn sample_from_uniform(&self, u: f64) -> f64;
}

/// A discrete distribution over integer multiples of a base step.
///
/// The support is `{ k * base : k in Z }` (or a sub-range for one-sided
/// distributions); methods are indexed by the *integer* `k`, while
/// [`sample_value`](Self::sample_value) returns `k * base` directly.
pub trait DiscreteDistribution {
    /// The spacing between support points (the paper's `γ`).
    fn base(&self) -> f64;

    /// Draws one sample, returned as the integer index `k`.
    fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> i64;

    /// Draws one sample, returned as the real value `k * base`.
    fn sample_value<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_index(rng) as f64 * self.base()
    }

    /// Probability mass at index `k`.
    fn pmf(&self, k: i64) -> f64;

    /// Cumulative distribution `P(K <= k)`.
    fn cdf(&self, k: i64) -> f64;

    /// Mean of the *index* variable `K` (multiply by `base` for the value).
    fn mean_index(&self) -> f64;

    /// Variance of the *index* variable `K`.
    fn variance_index(&self) -> f64;

    /// Variance of the value variable `K * base`.
    fn variance_value(&self) -> f64 {
        self.variance_index() * self.base() * self.base()
    }

    /// Fills `out` with independent value samples — the batch entry point of
    /// the finite-precision mechanisms' fast paths. The win over a caller
    /// loop is that the distribution (and its `exp`/`ln` normalization) is
    /// constructed once for the whole batch.
    ///
    /// Same RNG-consumption contract as
    /// [`ContinuousDistribution::fill_into`]: bit-identical to a
    /// [`sample_value`](Self::sample_value) loop on the same RNG stream.
    fn fill_values_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample_value(rng);
        }
    }

    /// Fills `out[i] = base[i] + sampleᵢ` in one fused pass — the
    /// discrete Noisy-Max shape, writing the output buffer exactly once.
    ///
    /// Bit-identical to `base[i] + self.sample_value(rng)` in a loop.
    ///
    /// # Panics
    /// Panics if `base` and `out` have different lengths.
    fn fill_values_into_offset<R: Rng + ?Sized>(&self, rng: &mut R, base: &[f64], out: &mut [f64]) {
        // lint:allow(panic-freedom): documented panic — the mechanism core sizes both buffers before the call
        assert_eq!(base.len(), out.len(), "offset/output length mismatch");
        for (slot, b) in out.iter_mut().zip(base) {
            *slot = b + self.sample_value(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::Laplace;
    use proptest::prelude::*;

    #[test]
    fn sample_n_len_and_determinism() {
        let lap = Laplace::new(1.0).unwrap();
        let xs = lap.sample_n(&mut rng_from_seed(3), 100);
        let ys = lap.sample_n(&mut rng_from_seed(3), 100);
        assert_eq!(xs.len(), 100);
        assert_eq!(xs, ys);
    }

    #[test]
    fn std_dev_is_sqrt_variance() {
        let lap = Laplace::new(2.0).unwrap();
        assert!((lap.std_dev() - lap.variance().sqrt()).abs() < 1e-15);
    }

    proptest! {
        #[test]
        fn fill_into_matches_sample_loop_bitwise(
            seed in 0u64..10_000,
            scale in 0.01f64..50.0,
            n in 0usize..300,
        ) {
            // The batched path must consume the RNG exactly like repeated
            // `sample` calls: same stream position, same bits out.
            let lap = Laplace::new(scale).unwrap();
            let mut batched = vec![0.0; n];
            lap.fill_into(&mut rng_from_seed(seed), &mut batched);
            let mut rng = rng_from_seed(seed);
            for (i, &b) in batched.iter().enumerate() {
                let s = lap.sample(&mut rng);
                prop_assert!(s == b, "draw {i}: sequential {s} vs batched {b}");
            }
        }

        #[test]
        fn fill_into_offset_matches_sample_loop_bitwise(
            seed in 0u64..10_000,
            scale in 0.01f64..50.0,
            n in 0usize..300,
        ) {
            let lap = Laplace::new(scale).unwrap();
            let base: Vec<f64> = (0..n).map(|i| i as f64 * 0.7 - 3.0).collect();
            let mut fused = vec![0.0; n];
            lap.fill_into_offset(&mut rng_from_seed(seed), &base, &mut fused);
            let mut rng = rng_from_seed(seed);
            for i in 0..n {
                let expect = base[i] + lap.sample(&mut rng);
                prop_assert!(expect == fused[i], "slot {i}: {expect} vs {}", fused[i]);
            }
        }

        #[test]
        fn sample_n_matches_fill_into(seed in 0u64..10_000, n in 0usize..200) {
            let lap = Laplace::new(1.5).unwrap();
            let via_n = lap.sample_n(&mut rng_from_seed(seed), n);
            let mut via_fill = vec![0.0; n];
            lap.fill_into(&mut rng_from_seed(seed), &mut via_fill);
            prop_assert_eq!(via_n, via_fill);
        }

        #[test]
        fn unit_laplace_scales_exactly(seed in 0u64..10_000, scale in 0.01f64..100.0) {
            // The SVT scratch path draws unit Laplace noise and multiplies by
            // the per-draw scale; IEEE multiplication keeps that bit-identical
            // to drawing at the target scale directly.
            let unit = Laplace::new(1.0).unwrap();
            let direct = Laplace::new(scale).unwrap();
            let mut a = rng_from_seed(seed);
            let mut b = rng_from_seed(seed);
            for _ in 0..32 {
                prop_assert!(unit.sample(&mut a) * scale == direct.sample(&mut b));
            }
        }
    }
}
