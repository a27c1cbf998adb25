//! Best linear unbiased estimation from measurements plus gaps — the
//! paper's Theorem 3 and Corollary 1.
//!
//! Setting: the analyst used Noisy-Top-K-with-Gap to select `k` queries
//! (receiving gaps `g₁..g_{k-1}` between consecutive selected queries for
//! free) and then measured each selected query with the Laplace mechanism
//! (`α₁..α_k`). With `λ = Var(gap noise per η) / Var(measurement noise)`,
//! Theorem 3 gives the BLUE of the true answers:
//!
//! ```text
//! βᵢ = (ᾱ + λk·αᵢ + p - k·p_{i-1}) / ((1+λ)k)
//!   ᾱ = Σαⱼ,  p = Σⱼ (k-j)·gⱼ,  p_i = g₁+…+gᵢ (prefix sums, p₀ = 0)
//! ```
//!
//! and Corollary 1 the error ratio `E|βᵢ-qᵢ|²/E|αᵢ-qᵢ|² = (1+λk)/(k+λk)`,
//! which at `λ = 1` (counting queries, even budget split) approaches 50%
//! as `k` grows.
//!
//! The module ships both the `O(k)` algorithm used in production and the
//! explicit matrix form `β = (Xα + Yg)/((1+λ)k)` used to cross-check it.

use crate::error::{require_positive, MechanismError};

/// Inputs to the BLUE combiner.
#[derive(Debug, Clone, PartialEq)]
pub struct BlueInput<'a> {
    /// Direct noisy measurements `α₁..α_k` of the selected queries, in the
    /// selection's rank order.
    pub measurements: &'a [f64],
    /// Free gaps `g₁..g_{k-1}` between consecutive selected queries (from
    /// Noisy-Top-K-with-Gap).
    pub gaps: &'a [f64],
    /// Variance ratio `λ = Var(ηᵢ)/Var(ξᵢ)` (gap-noise per η over
    /// measurement-noise).
    pub lambda: f64,
}

fn validate(input: &BlueInput<'_>) -> Result<usize, MechanismError> {
    let k = input.measurements.len();
    if k == 0 || input.gaps.len() + 1 != k {
        return Err(MechanismError::NotEnoughQueries {
            got: input.gaps.len(),
            need: k.saturating_sub(1),
        });
    }
    require_positive("lambda", input.lambda)?;
    Ok(k)
}

/// Theorem 3's BLUE via the linear-time algorithm (§5.2 steps 1–3).
pub fn blue_estimates(input: &BlueInput<'_>) -> Result<Vec<f64>, MechanismError> {
    let k = validate(input)?;
    let kf = k as f64;
    let lambda = input.lambda;

    // Step 1: ᾱ and p = Σ (k-i)·gᵢ.
    let alpha_sum: f64 = input.measurements.iter().sum();
    let p: f64 = input
        .gaps
        .iter()
        .enumerate()
        .map(|(i, g)| (kf - (i + 1) as f64) * g)
        .sum();

    // Steps 2–3: prefix sums and the estimate.
    let mut estimates = Vec::with_capacity(k);
    let mut prefix = 0.0; // p_{i-1}
    for i in 0..k {
        if i > 0 {
            prefix += input.gaps[i - 1];
        }
        let beta = (alpha_sum + lambda * kf * input.measurements[i] + p - kf * prefix)
            / ((1.0 + lambda) * kf);
        estimates.push(beta);
    }
    Ok(estimates)
}

/// Theorem 3's BLUE via the explicit matrices `X` and `Y` — `O(k²)`,
/// kept as an executable statement of the theorem and a cross-check for
/// [`blue_estimates`].
pub fn blue_estimates_matrix(input: &BlueInput<'_>) -> Result<Vec<f64>, MechanismError> {
    let k = validate(input)?;
    let kf = k as f64;
    let lambda = input.lambda;

    // X = (1+λk on the diagonal, 1 elsewhere), k×k.
    let x = |i: usize, j: usize| if i == j { 1.0 + lambda * kf } else { 1.0 };
    // Y: Y[i][j] = (k-1-j as rank) pattern minus k below the diagonal:
    // Y[i][j] = (k - (j+1)) - if i > j { k } else { 0 }   (0-indexed).
    let y = |i: usize, j: usize| (kf - (j + 1) as f64) - if i > j { kf } else { 0.0 };

    let mut estimates = Vec::with_capacity(k);
    for i in 0..k {
        let mut acc = 0.0;
        for j in 0..k {
            acc += x(i, j) * input.measurements[j];
        }
        for j in 0..k - 1 {
            acc += y(i, j) * input.gaps[j];
        }
        estimates.push(acc / ((1.0 + lambda) * kf));
    }
    Ok(estimates)
}

/// Corollary 1: the MSE ratio `E|βᵢ-qᵢ|² / E|αᵢ-qᵢ|² = (1+λk)/(k+λk)`.
///
/// The percentage *improvement* the experiments plot is
/// `1 - blue_variance_ratio(..)`.
pub fn blue_variance_ratio(k: usize, lambda: f64) -> f64 {
    let kf = k as f64;
    (1.0 + lambda * kf) / (kf + lambda * kf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::stats::RunningMoments;
    use free_gap_noise::{ContinuousDistribution, Laplace};
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_shapes() {
        assert!(blue_estimates(&BlueInput {
            measurements: &[],
            gaps: &[],
            lambda: 1.0
        })
        .is_err());
        assert!(blue_estimates(&BlueInput {
            measurements: &[1.0, 2.0],
            gaps: &[],
            lambda: 1.0
        })
        .is_err());
        assert!(blue_estimates(&BlueInput {
            measurements: &[1.0, 2.0],
            gaps: &[0.5],
            lambda: 0.0
        })
        .is_err());
    }

    #[test]
    fn k_equals_one_returns_measurement() {
        // With no gaps, the BLUE is just the measurement itself.
        let out = blue_estimates(&BlueInput {
            measurements: &[7.5],
            gaps: &[],
            lambda: 1.0,
        })
        .unwrap();
        assert_eq!(out, vec![7.5]);
        assert_eq!(blue_variance_ratio(1, 1.0), 1.0);
    }

    #[test]
    fn exact_on_noiseless_inputs() {
        // If measurements and gaps are exact, the BLUE must reproduce the
        // true values (unbiasedness on a consistent system).
        let q = [10.0, 8.0, 5.0, 1.0];
        let gaps = [2.0, 3.0, 4.0];
        for lambda in [0.25, 1.0, 4.0] {
            let out = blue_estimates(&BlueInput {
                measurements: &q,
                gaps: &gaps,
                lambda,
            })
            .unwrap();
            for (b, t) in out.iter().zip(&q) {
                assert!((b - t).abs() < 1e-12, "lambda {lambda}: {out:?}");
            }
        }
    }

    #[test]
    fn linear_time_matches_matrix_form() {
        let meas = [9.0, 7.5, 7.0, 3.0, 2.5];
        let gaps = [1.2, 0.4, 3.8, 0.6];
        for lambda in [0.5, 1.0, 2.0] {
            let a = blue_estimates(&BlueInput {
                measurements: &meas,
                gaps: &gaps,
                lambda,
            })
            .unwrap();
            let b = blue_estimates_matrix(&BlueInput {
                measurements: &meas,
                gaps: &gaps,
                lambda,
            })
            .unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-10, "λ={lambda}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn corollary1_variance_ratio_monte_carlo() {
        // Simulate the exact §5.2 noise model and verify both unbiasedness
        // and the (1+λk)/(k+λk) MSE ratio.
        let q = [100.0, 90.0, 70.0, 40.0];
        let k = q.len();
        let sigma_xi = Laplace::new(2.0).unwrap(); // measurement noise
        let lambda = 1.0;
        let sigma_eta = Laplace::new(2.0).unwrap(); // per-η gap noise (λ=1)
        let mut rng = rng_from_seed(31);
        let mut mse_blue = RunningMoments::new();
        let mut mse_meas = RunningMoments::new();
        let mut bias = RunningMoments::new();
        for _ in 0..60_000 {
            let alphas: Vec<f64> = q.iter().map(|v| v + sigma_xi.sample(&mut rng)).collect();
            let etas: Vec<f64> = (0..k).map(|_| sigma_eta.sample(&mut rng)).collect();
            let gaps: Vec<f64> = (0..k - 1)
                .map(|i| q[i] + etas[i] - q[i + 1] - etas[i + 1])
                .collect();
            let betas = blue_estimates(&BlueInput {
                measurements: &alphas,
                gaps: &gaps,
                lambda,
            })
            .unwrap();
            for i in 0..k {
                mse_blue.push((betas[i] - q[i]) * (betas[i] - q[i]));
                mse_meas.push((alphas[i] - q[i]) * (alphas[i] - q[i]));
                bias.push(betas[i] - q[i]);
            }
        }
        assert!(bias.mean().abs() < 0.02, "bias = {}", bias.mean());
        let ratio = mse_blue.mean() / mse_meas.mean();
        let expect = blue_variance_ratio(k, lambda); // (1+4)/(4+4) = 0.625
        assert!((ratio - expect).abs() < 0.02, "ratio {ratio} vs {expect}");
    }

    #[test]
    fn improvement_approaches_half_for_large_k() {
        assert!((1.0 - blue_variance_ratio(25, 1.0)) > 0.47);
        assert!((1.0 - blue_variance_ratio(2, 1.0) - 0.25).abs() < 1e-12);
        // General queries (λ = 4): improvement caps lower.
        let gen25 = 1.0 - blue_variance_ratio(25, 4.0);
        assert!(gen25 < 0.25, "general-query improvement {gen25}");
    }

    proptest! {
        #[test]
        fn blue_is_exact_interpolation_under_consistency(
            values in proptest::collection::vec(0.0f64..1000.0, 2..8),
            lambda in 0.1f64..10.0,
        ) {
            // Sort descending to emulate a top-k selection.
            let mut q = values;
            q.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let gaps: Vec<f64> = q.windows(2).map(|w| w[0] - w[1]).collect();
            let out = blue_estimates(&BlueInput { measurements: &q, gaps: &gaps, lambda }).unwrap();
            for (b, t) in out.iter().zip(&q) {
                prop_assert!((b - t).abs() < 1e-8);
            }
        }

        #[test]
        fn matrix_and_linear_agree(
            meas in proptest::collection::vec(-100.0f64..100.0, 2..10),
            lambda in 0.1f64..10.0,
            seed in 0u64..1000,
        ) {
            let mut rng = rng_from_seed(seed);
            let gaps: Vec<f64> = (0..meas.len() - 1)
                .map(|_| Laplace::new(1.0).unwrap().sample(&mut rng))
                .collect();
            let a = blue_estimates(&BlueInput { measurements: &meas, gaps: &gaps, lambda }).unwrap();
            let b = blue_estimates_matrix(&BlueInput { measurements: &meas, gaps: &gaps, lambda }).unwrap();
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-8);
            }
        }
    }
}
