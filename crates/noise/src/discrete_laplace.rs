//! Discrete (two-sided geometric) Laplace over multiples of a base `γ`.
//!
//! Appendix A.1 of the paper analyses a discretized Laplace whose support is
//! `{0, ±γ, ±2γ, …}` with mass
//!
//! ```text
//! f(kγ; ε) = (1 - e^{-εγ}) / (1 + e^{-εγ}) · e^{-εγ|k|}
//! ```
//!
//! This is the distribution a finite-precision implementation actually adds
//! (the paper expects `γ` near machine epsilon, `≈ 2^{-52}`), and it is the
//! input to the tie-probability bound in [`crate::tie`].
//!
//! Distributionally this is the classic decomposition `K = G₁ - G₂` with
//! `G₁, G₂` i.i.d. [`crate::Geometric`] with ratio `α = e^{-εγ}` (which is
//! where the moments below come from). *Sampling*, however, inverts the
//! closed-form CDF directly — one uniform and one `ln` per draw, half the
//! generator and transcendental cost of drawing the two geometric tails
//! separately. The inversion is exact (each uniform interval
//! `[F(k-1), F(k))` maps to `k`), and the statistical acceptance suite
//! (`crates/noise/tests/discrete_stats.rs`) holds it to the closed-form pmf
//! by chi-square at significance 1e-4.

use crate::error::NoiseError;
use crate::geometric::Geometric;
use crate::traits::DiscreteDistribution;
use rand::Rng;
use std::hint::select_unpredictable;

/// Discrete Laplace distribution over `{kγ : k ∈ ℤ}` with decay `α = e^{-εγ}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteLaplace {
    geometric: Geometric,
    base: f64,
    /// Hoisted `1 + α` (the CDF normalization).
    one_plus_alpha: f64,
    /// `F(-1) = α/(1+α)`, the negative-branch threshold of the inversion.
    neg_cdf: f64,
}

impl DiscreteLaplace {
    /// Creates a discrete Laplace with privacy parameter `epsilon` (per unit
    /// of value) and support step `gamma`.
    ///
    /// The continuous analogue is `Lap(1/ε)`; as `γ → 0` this distribution
    /// converges to it.
    pub fn new(epsilon: f64, gamma: f64) -> Result<Self, NoiseError> {
        Ok(Self::from_geometric(
            Geometric::for_budget(epsilon, gamma)?,
            gamma,
        ))
    }

    /// Creates the distribution directly from the decay ratio `α ∈ (0,1)` and
    /// the support step.
    pub fn from_alpha(alpha: f64, gamma: f64) -> Result<Self, NoiseError> {
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(NoiseError::InvalidScale {
                name: "gamma",
                value: gamma,
            });
        }
        Ok(Self::from_geometric(Geometric::new(alpha)?, gamma))
    }

    fn from_geometric(geometric: Geometric, gamma: f64) -> Self {
        let alpha = geometric.alpha();
        Self {
            geometric,
            base: gamma,
            one_plus_alpha: 1.0 + alpha,
            neg_cdf: alpha / (1.0 + alpha),
        }
    }

    /// The decay ratio `α = e^{-εγ}`.
    pub fn alpha(&self) -> f64 {
        self.geometric.alpha()
    }

    /// Normalization constant `(1 - α) / (1 + α)` (the mass at zero).
    pub fn mass_at_zero(&self) -> f64 {
        (1.0 - self.alpha()) / (1.0 + self.alpha())
    }

    /// The closed-form CDF inversion as a pure transform of one uniform
    /// `u ∈ [0, 1)`: `sample_index(rng)` equals
    /// `index_from_uniform(rng.gen())`, bit for bit. This is the hook the
    /// raw-uniform buffering paths ([`crate::BlockBuffer`]) use to serve
    /// discrete draws from block-filled uniforms at any `(ε, γ)` requested
    /// at serve time.
    ///
    /// The inversion returns the smallest `k` with `F(k) ≥ u`, so each
    /// interval `[F(k-1), F(k))` (of mass exactly `pmf(k)`) maps to `k`:
    /// `u ≥ F(-1)` solves `1 - α^{k+1}/(1+α) ≥ u` over `k ≥ 0`, the
    /// negative tail solves `α^{-k}/(1+α) ≥ u`.
    ///
    /// An exact kernel: the side is a branch-free select (`P(k < 0)` nears
    /// one half at small `εγ`, so a branch on it would mispredict up to
    /// half the time), both sides share one `ln`, and `ceil`/`floor` are an
    /// `i64` truncation plus one compare (the baseline x86-64 target has no
    /// rounding instruction, so `f64::ceil`/`f64::floor` are out-of-line
    /// calls there). Every `u` maps to the index of the float formula
    /// `max(ceil(l) - 1.0, 0)` (upper side) or `min(-floor(l), -1)` (lower
    /// side), `l` the quotient below, at every `α` including the paper's
    /// `γ ≈ 2⁻⁵²` regime.
    #[inline]
    pub fn index_from_uniform(&self, u: f64) -> i64 {
        let upper = u >= self.neg_cdf;
        // Upper: α^{k+1} ≤ (1-u)(1+α)  ⟺  k ≥ ln((1-u)(1+α))/ln(α) - 1.
        // Lower: α^{-k} ≥ u(1+α)       ⟺  k ≥ -ln(u(1+α))/ln(α).
        let mass = select_unpredictable(upper, 1.0 - u, u) * self.one_plus_alpha;
        let l = mass.max(f64::MIN_POSITIVE).ln() * self.geometric.inv_ln_alpha();
        // Clamping into each side's support commutes with the rounding:
        // max(ceil(l) - 1, 0) = ceil(m - 1) and min(-floor(l), -1) = -floor(m)
        // for m = max(l, 1). `m - 1.0` is exact below 2⁵³ and, above it,
        // rounds exactly as the float formula's `ceil(l) - 1.0` does (there
        // `ceil(l) = l`). The quotient is below 2⁶³ (`mass` is clamped to at
        // least `f64::MIN_POSITIVE` and `|1/ln(α)| ≤ 2⁵³`), so truncating the
        // non-negative `x` is `floor`, and one compare gives `ceil`.
        let m = l.max(1.0);
        let x = select_unpredictable(upper, m - 1.0, m);
        let floor = x as i64;
        let ceil = floor + i64::from(x > floor as f64);
        select_unpredictable(upper, ceil, -floor)
    }

    /// Value twin of [`index_from_uniform`](Self::index_from_uniform):
    /// `k * γ` for the sampled index `k`.
    #[inline]
    pub fn value_from_uniform(&self, u: f64) -> f64 {
        self.index_from_uniform(u) as f64 * self.base
    }

    /// An upper bound on every value this sampler can return: the index of
    /// the top `f64` uniform below 1, plus one lattice step of slack for
    /// the rounding of its `ln`, times `γ`. The inversion's index does not
    /// decrease in `u`, so the top uniform's is the largest.
    pub fn max_value(&self) -> f64 {
        let top = 1.0 - f64::EPSILON / 2.0;
        (self.index_from_uniform(top) + 1) as f64 * self.base
    }
}

impl DiscreteDistribution for DiscreteLaplace {
    fn base(&self) -> f64 {
        self.base
    }

    /// One uniform draw through
    /// [`index_from_uniform`](DiscreteLaplace::index_from_uniform) — the
    /// arithmetic exists exactly once, so the raw-uniform buffering paths
    /// are bit-identical by construction.
    fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        self.index_from_uniform(rng.gen())
    }

    fn pmf(&self, k: i64) -> f64 {
        let a = self.alpha();
        self.mass_at_zero() * a.powf(k.unsigned_abs() as f64)
    }

    /// Closed-form CDF:
    /// `F(k) = 1 - α^{k+1}/(1+α)` for `k >= 0`; `F(k) = α^{-k}/(1+α)` for `k < 0`.
    fn cdf(&self, k: i64) -> f64 {
        let a = self.alpha();
        if k >= 0 {
            1.0 - a.powf(k as f64 + 1.0) / (1.0 + a)
        } else {
            a.powf(-k as f64) / (1.0 + a)
        }
    }

    fn mean_index(&self) -> f64 {
        0.0
    }

    /// Chunked batch sampling: uniforms are pulled from the RNG in one
    /// tight loop per chunk and transformed in a second (the generator's
    /// block refills and the scalar `ln` calls pipeline better apart than
    /// interleaved). Consumption order is unchanged — one uniform per
    /// value, in value order — so the output is bit-identical to a
    /// [`sample_value`](DiscreteDistribution::sample_value) loop on the
    /// same RNG stream.
    fn fill_values_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        const CHUNK: usize = 512;
        let mut uniforms = [0.0f64; CHUNK];
        let mut start = 0;
        while start < out.len() {
            let n = CHUNK.min(out.len() - start);
            for slot in &mut uniforms[..n] {
                *slot = rng.gen();
            }
            for (slot, &u) in out[start..start + n].iter_mut().zip(&uniforms[..n]) {
                *slot = self.value_from_uniform(u);
            }
            start += n;
        }
    }

    /// Fused offset twin of [`fill_values_into`](Self::fill_values_into)
    /// (`out[i] = base[i] + draw`), same chunked layout and the same
    /// bit-identity contract.
    fn fill_values_into_offset<R: Rng + ?Sized>(&self, rng: &mut R, base: &[f64], out: &mut [f64]) {
        // lint:allow(panic-freedom): documented panic — the mechanism core sizes both buffers before the call
        assert_eq!(base.len(), out.len(), "offset/output length mismatch");
        const CHUNK: usize = 512;
        let mut uniforms = [0.0f64; CHUNK];
        let mut start = 0;
        while start < out.len() {
            let n = CHUNK.min(out.len() - start);
            for slot in &mut uniforms[..n] {
                *slot = rng.gen();
            }
            for ((slot, b), &u) in out[start..start + n]
                .iter_mut()
                .zip(&base[start..start + n])
                .zip(&uniforms[..n])
            {
                *slot = b + self.value_from_uniform(u);
            }
            start += n;
        }
    }

    /// `Var(K) = 2α / (1 - α)²` (difference of two independent geometrics).
    fn variance_index(&self) -> f64 {
        2.0 * self.geometric.variance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::stats::RunningMoments;
    use proptest::prelude::*;

    fn dl(eps: f64, gamma: f64) -> DiscreteLaplace {
        DiscreteLaplace::new(eps, gamma).unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(DiscreteLaplace::new(0.0, 1.0).is_err());
        assert!(DiscreteLaplace::new(1.0, 0.0).is_err());
        assert!(DiscreteLaplace::from_alpha(1.0, 1.0).is_err());
        assert!(DiscreteLaplace::from_alpha(0.5, -1.0).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = dl(0.8, 1.0);
        let total: f64 = (-200..=200).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12, "total = {total}");
    }

    #[test]
    fn pmf_symmetric() {
        let d = dl(0.5, 0.25);
        for k in 0..30 {
            assert!((d.pmf(k) - d.pmf(-k)).abs() < 1e-15);
        }
    }

    #[test]
    fn cdf_matches_partial_sums() {
        let d = dl(1.2, 1.0);
        let mut acc = 0.0;
        for k in -40..=40 {
            acc += d.pmf(k);
            assert!(
                (acc - d.cdf(k)).abs() < 1e-12,
                "k = {k}: acc {acc} vs {}",
                d.cdf(k)
            );
        }
    }

    #[test]
    fn cdf_consistent_at_origin() {
        let d = dl(0.9, 1.0);
        assert!((d.cdf(0) - d.cdf(-1) - d.pmf(0)).abs() < 1e-14);
        // Median at 0 for a symmetric distribution: F(-1) + pmf(0)/... = ...
        assert!(d.cdf(-1) < 0.5 && d.cdf(0) > 0.5);
    }

    #[test]
    fn variance_matches_series() {
        let d = dl(0.6, 1.0);
        let var: f64 = (-400i64..=400).map(|k| (k * k) as f64 * d.pmf(k)).sum();
        assert!(
            (var - d.variance_index()).abs() < 1e-9,
            "{var} vs {}",
            d.variance_index()
        );
    }

    /// The largest `f64` below 1: the top uniform.
    const TOP: f64 = 1.0 - f64::EPSILON / 2.0;

    /// The accepted rate at γ = 1 next to the boundary between `refused`
    /// and `accepted`, by bisection on the bit patterns.
    fn accepted_edge(mut refused: f64, mut accepted: f64) -> f64 {
        loop {
            let mid = f64::from_bits((refused.to_bits() + accepted.to_bits()) / 2);
            if mid == refused || mid == accepted {
                return accepted;
            }
            if DiscreteLaplace::new(mid, 1.0).is_ok() {
                accepted = mid;
            } else {
                refused = mid;
            }
        }
    }

    /// The bound's settings: γ ∈ {1, 0.25, 2⁻⁵²} at two rates each, and
    /// the smallest and largest rates `DiscreteSparseVectorWithGap`
    /// accepts, which are this constructor's at its γ = 1.
    fn bound_settings() -> Vec<DiscreteLaplace> {
        let (lo, hi) = (accepted_edge(1e-30, 1.0), accepted_edge(1e4, 1.0));
        assert!(lo < 1e-15 && hi > 700.0, "edges {lo:e}, {hi}");
        let settings = [
            (0.05, 1.0),
            (1.0, 1.0),
            (0.05, 0.25),
            (1.0, 0.25),
            (1.0, f64::EPSILON),
            (4.0, f64::EPSILON),
            (lo, 1.0),
            (hi, 1.0),
        ];
        settings
            .iter()
            .map(|&(eps, gamma)| dl(eps, gamma))
            .collect()
    }

    #[test]
    fn max_value_bounds_every_draw() {
        let mut rng = rng_from_seed(52);
        for d in bound_settings() {
            let bound = d.max_value();
            let check = |u: f64| assert!(d.value_from_uniform(u) <= bound, "{d:?}, u = {u:e}");
            check(0.0);
            let mut u = TOP;
            for _ in 0..1 << 20 {
                check(u);
                u = u.next_down();
            }
            for _ in 0..1_000_000 {
                check(rng.gen());
            }
        }
    }

    #[test]
    fn max_value_is_one_step_above_the_top_uniform() {
        for d in bound_settings() {
            let (bound, top) = (d.max_value(), d.value_from_uniform(TOP));
            // Where the lattice is finer than the value's f64 spacing, one
            // step is at most one ulp of the value.
            let step = d.base().max(top.next_up() - top);
            assert!(top <= bound, "{d:?}");
            assert!(bound - top <= step, "{d:?}: {bound} vs {top}");
        }
    }

    #[test]
    fn sampler_matches_pmf() {
        let d = dl(1.0, 1.0);
        let mut rng = rng_from_seed(33);
        let n = 300_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(d.sample_index(&mut rng)).or_insert(0usize) += 1;
        }
        for k in -3..=3 {
            let emp = *counts.get(&k).unwrap_or(&0) as f64 / n as f64;
            let p = d.pmf(k);
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                (emp - p).abs() < 5.0 * sigma,
                "k = {k}: emp {emp} vs pmf {p}"
            );
        }
    }

    #[test]
    fn sample_value_scales_by_base() {
        let d = dl(1.0, 0.5);
        let mut rng = rng_from_seed(2);
        for _ in 0..100 {
            let v = d.sample_value(&mut rng);
            let k = (v / 0.5).round();
            assert!((v - k * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_to_continuous_laplace_variance() {
        // With eps=1 and gamma small, Var(value) -> 2 (the Lap(1) variance).
        let d = dl(1.0, 1e-3);
        assert!(
            (d.variance_value() - 2.0).abs() < 1e-2,
            "{}",
            d.variance_value()
        );
    }

    #[test]
    fn sample_mean_near_zero() {
        let d = dl(0.7, 1.0);
        let mut rng = rng_from_seed(17);
        let mut m = RunningMoments::new();
        for _ in 0..200_000 {
            m.push(d.sample_index(&mut rng) as f64);
        }
        assert!(m.mean().abs() < 0.05, "mean = {}", m.mean());
        let rel = (m.variance() - d.variance_index()).abs() / d.variance_index();
        assert!(rel < 0.05, "rel var err = {rel}");
    }

    proptest! {
        #[test]
        fn cdf_monotone(eps in 0.05f64..3.0, k in -50i64..50) {
            let d = dl(eps, 1.0);
            prop_assert!(d.cdf(k) <= d.cdf(k + 1) + 1e-15);
        }

        #[test]
        fn log_pmf_ratio_bounded_by_eps_gamma(eps in 0.05f64..3.0, k in -30i64..30) {
            // DP property of the discrete mechanism: adjacent outputs differ by
            // one support step, so pmf ratio <= e^{eps*gamma}.
            let d = dl(eps, 1.0);
            let ratio = d.pmf(k) / d.pmf(k + 1);
            prop_assert!(ratio.ln().abs() <= eps * 1.0 + 1e-10);
        }
    }
}
