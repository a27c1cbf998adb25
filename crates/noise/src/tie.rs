//! Tie-probability analysis for discretized Laplace noise (Appendix A.1).
//!
//! The continuous analysis of Noisy Max assumes ties between the largest and
//! second-largest noisy queries happen with probability zero. A real
//! implementation adds [`crate::DiscreteLaplace`] noise with base `γ`, where
//! ties have positive probability. Appendix A.1 derives
//!
//! * the exact tie probability for one pair of queries at (integer) distance
//!   `m·γ` ([`pair_tie_probability`]),
//! * the distance-free pair bound `γε(1 + e^{-1})` ([`pair_tie_bound`]), and
//! * the union bound over all `n²` pairs ([`union_tie_bound`]), which is the
//!   `δ` in the `(ε, δ)`-DP guarantee of the finite-precision mechanism.
//!
//! With `γ ≈ 2^{-52}` (double-precision machine epsilon) the failure
//! probability is negligible for any realistic `n` and `ε`.

use crate::error::NoiseError;
use crate::traits::DiscreteDistribution;
use crate::DiscreteLaplace;
use rand::Rng;

fn validate(epsilon: f64, gamma: f64) -> Result<(), NoiseError> {
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
    Ok(())
}

/// Exact probability that two queries whose true answers differ by `m·γ`
/// produce equal noisy values under independent discrete Laplace noise with
/// privacy parameter `epsilon` and base `gamma` (Appendix A.1):
///
/// ```text
/// P(tie) = (1-e^{-γε})²/(1+e^{-γε})² · e^{-γεm} · ((1+e^{-2γε})/(1-e^{-2γε}) + m)
/// ```
pub fn pair_tie_probability(epsilon: f64, gamma: f64, m: u64) -> Result<f64, NoiseError> {
    validate(epsilon, gamma)?;
    let a = (-gamma * epsilon).exp();
    let a2 = a * a;
    let front = (1.0 - a) * (1.0 - a) / ((1.0 + a) * (1.0 + a));
    let m = m as f64;
    Ok(front * a.powf(m) * ((1.0 + a2) / (1.0 - a2) + m))
}

/// The distance-free upper bound on the pair tie probability derived in
/// Appendix A.1: `γε(1 + e^{-1})`.
pub fn pair_tie_bound(epsilon: f64, gamma: f64) -> Result<f64, NoiseError> {
    validate(epsilon, gamma)?;
    Ok(gamma * epsilon * (1.0 + (-1.0f64).exp()))
}

/// Union bound on the probability of *any* tie among `n` queries:
/// `n² · γε(1 + e^{-1})` — the `δ` of the finite-precision `(ε, δ)` guarantee.
///
/// The paper conservatively uses `n²` pairs rather than `n(n-1)/2`. The
/// square is taken in `f64`, so it neither overflows nor wraps at
/// `n ≥ 2³²`; below `2^26.5` it is exact, as a `usize` square would be.
pub fn union_tie_bound(n: usize, epsilon: f64, gamma: f64) -> Result<f64, NoiseError> {
    let n = n as f64;
    Ok(n * n * pair_tie_bound(epsilon, gamma)?)
}

/// Monte-Carlo estimate of the pair tie probability, for validating the
/// closed form: draws `trials` pairs of noisy answers at distance `m·γ` and
/// returns the fraction of exact ties.
pub fn empirical_pair_tie_rate<R: Rng + ?Sized>(
    epsilon: f64,
    gamma: f64,
    m: u64,
    trials: usize,
    rng: &mut R,
) -> Result<f64, NoiseError> {
    let d = DiscreteLaplace::new(epsilon, gamma)?;
    let mut ties = 0usize;
    for _ in 0..trials {
        // Work on the integer lattice: q1 = m, q2 = 0 (units of γ).
        let n1 = d.sample_index(rng);
        let n2 = d.sample_index(rng);
        if m as i64 + n1 == n2 {
            ties += 1;
        }
    }
    Ok(ties as f64 / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_params() {
        assert!(pair_tie_probability(0.0, 1.0, 0).is_err());
        assert!(pair_tie_probability(1.0, 0.0, 0).is_err());
        assert!(pair_tie_bound(-1.0, 1.0).is_err());
        assert!(union_tie_bound(10, 1.0, f64::NAN).is_err());
    }

    /// Brute-force `P(tie) = Σ_ℓ P(η₁ = ℓ)·P(η₂ = ℓ + m)` from the pmf.
    fn brute_force_tie(epsilon: f64, gamma: f64, m: i64) -> f64 {
        let d = DiscreteLaplace::new(epsilon, gamma).unwrap();
        (-4000i64..4000).map(|l| d.pmf(l) * d.pmf(l + m)).sum()
    }

    #[test]
    fn exact_formula_matches_brute_force() {
        for (eps, m) in [(0.5, 0), (0.5, 3), (1.0, 1), (2.0, 5), (0.1, 10)] {
            let exact = pair_tie_probability(eps, 1.0, m as u64).unwrap();
            let brute = brute_force_tie(eps, 1.0, m);
            assert!(
                (exact - brute).abs() < 1e-10,
                "eps={eps}, m={m}: {exact} vs {brute}"
            );
        }
    }

    #[test]
    fn exact_below_distance_free_bound() {
        for eps in [0.1, 0.5, 1.0, 2.0] {
            for gamma in [0.001, 0.01, 0.1, 1.0] {
                let bound = pair_tie_bound(eps, gamma).unwrap();
                for m in [0u64, 1, 2, 10, 100] {
                    let p = pair_tie_probability(eps, gamma, m).unwrap();
                    // The appendix chain of inequalities needs γε modest; the
                    // final bound holds whenever γε(1+γεme^{-γεm}) ≤ γε(1+e⁻¹).
                    if gamma * eps <= 1.0 {
                        assert!(
                            p <= bound + 1e-12,
                            "eps={eps} γ={gamma} m={m}: {p} > {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tie_probability_decreases_with_distance() {
        for m in 0u64..20 {
            let p0 = pair_tie_probability(1.0, 0.5, m).unwrap();
            let p1 = pair_tie_probability(1.0, 0.5, m + 1).unwrap();
            assert!(p1 <= p0, "m = {m}");
        }
    }

    #[test]
    fn union_bound_scales_quadratically() {
        let one = union_tie_bound(1, 1.0, 1e-6).unwrap();
        let ten = union_tie_bound(10, 1.0, 1e-6).unwrap();
        assert!((ten / one - 100.0).abs() < 1e-9);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn union_bound_squares_n_without_overflow() {
        // n² = 2⁶⁴ does not fit a usize: squared there, it panicked in
        // debug builds and wrapped to δ = 0 in release ones.
        let n: usize = 1 << 32;
        let delta = union_tie_bound(n, 0.5, 1.0).unwrap();
        let pair = pair_tie_bound(0.5, 1.0).unwrap();
        assert_eq!(delta, 2f64.powi(64) * pair);
        assert!(delta > 1e18, "delta = {delta}");
    }

    #[test]
    fn machine_epsilon_delta_is_negligible() {
        // The headline claim of §5.1: with γ ≈ 2^-52, δ is tiny even for
        // millions of queries.
        let delta = union_tie_bound(1_000_000, 1.0, 2f64.powi(-52)).unwrap();
        assert!(delta < 1e-3, "delta = {delta}");
    }

    #[test]
    fn empirical_matches_exact() {
        let mut rng = rng_from_seed(99);
        let eps = 1.0;
        let gamma = 1.0;
        for m in [0u64, 2] {
            let exact = pair_tie_probability(eps, gamma, m).unwrap();
            let emp = empirical_pair_tie_rate(eps, gamma, m, 200_000, &mut rng).unwrap();
            let sigma = (exact * (1.0 - exact) / 200_000.0).sqrt();
            assert!((emp - exact).abs() < 5.0 * sigma, "m={m}: {emp} vs {exact}");
        }
    }

    proptest! {
        #[test]
        fn probabilities_in_unit_interval(eps in 0.01f64..4.0, gamma in 1e-6f64..1.0,
                                          m in 0u64..1000) {
            let p = pair_tie_probability(eps, gamma, m).unwrap();
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
