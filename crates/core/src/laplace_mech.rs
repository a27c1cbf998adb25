//! The Laplace mechanism (paper Theorem 1) — the measurement workhorse.
//!
//! Given a sensitivity-`Δ` vector query and budget `ε`, adds independent
//! `Lap(Δ/ε)` noise to each coordinate. In the paper's select-then-measure
//! workflows (§5.2, §6.2), the *selected* queries are measured with the
//! second half of the budget split evenly: each of `k` queries gets `ε/k`,
//! i.e. noise `Lap(kΔ/ε)`.

use crate::answers::QueryAnswers;
use crate::error::{require_epsilon, require_positive, MechanismError};
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// Laplace mechanism over a vector of sensitivity-1 queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates the mechanism with budget `epsilon` for one sensitivity-1
    /// query (or a vector measured under *parallel* per-query budgets — see
    /// [`measure_each`](Self::measure_each)).
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        Ok(Self {
            epsilon: require_epsilon(epsilon)?,
            sensitivity: 1.0,
        })
    }

    /// Overrides the sensitivity (`Δ`) used for the noise scale.
    pub fn with_sensitivity(mut self, sensitivity: f64) -> Result<Self, MechanismError> {
        self.sensitivity = require_positive("sensitivity", sensitivity)?;
        Ok(self)
    }

    /// The budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The noise scale `Δ/ε`.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Noise variance per measurement, `2(Δ/ε)²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale() * self.scale()
    }

    /// Measures every answer with the *full* budget per query — correct when
    /// the queries are answered on disjoint data (parallel composition) or
    /// when `self.epsilon` is already the per-query share.
    pub fn measure_each(&self, answers: &[f64], source: &mut dyn NoiseSource) -> Vec<f64> {
        answers
            .iter()
            .map(|a| a + source.laplace(self.scale()))
            .collect()
    }

    /// Sequential-composition measurement: splits `self.epsilon` evenly over
    /// the `answers`, adding `Lap(kΔ/ε)` to each (the §5.2 protocol).
    pub fn measure_split(&self, answers: &[f64], source: &mut dyn NoiseSource) -> Vec<f64> {
        let k = answers.len().max(1) as f64;
        let scale = self.scale() * k;
        answers.iter().map(|a| a + source.laplace(scale)).collect()
    }

    /// Variance of each [`measure_split`](Self::measure_split) output for a
    /// batch of `k`: `2(kΔ/ε)²`.
    pub fn split_variance(&self, k: usize) -> f64 {
        let s = self.scale() * k.max(1) as f64;
        2.0 * s * s
    }

    /// Convenience wrapper over [`measure_split`](Self::measure_split) with a
    /// plain RNG.
    pub fn run(&self, answers: &[f64], rng: &mut StdRng) -> Vec<f64> {
        let mut source = SamplingSource::new(rng);
        self.measure_split(answers, &mut source)
    }
}

/// Alignment for the vector Laplace mechanism under sequential splitting:
/// the textbook `η'ᵢ = ηᵢ + qᵢ - q'ᵢ` (paper Example 1, generalized).
impl AlignedMechanism for LaplaceMechanism {
    type Input = QueryAnswers;
    type Output = Vec<f64>;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> Vec<f64> {
        self.measure_split(input.values(), source)
    }

    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        _output: &Vec<f64>,
    ) -> NoiseTape {
        tape.aligned_by(|i, _| input.values()[i] - neighbor.values()[i])
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn outputs_match(&self, a: &Vec<f64>, b: &Vec<f64>) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_alignment::checker::check_alignment_many;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::stats::RunningMoments;

    #[test]
    fn construction_validation() {
        assert!(LaplaceMechanism::new(0.0).is_err());
        assert!(LaplaceMechanism::new(1.0)
            .unwrap()
            .with_sensitivity(-1.0)
            .is_err());
        let m = LaplaceMechanism::new(0.5)
            .unwrap()
            .with_sensitivity(2.0)
            .unwrap();
        assert_eq!(m.scale(), 4.0);
    }

    #[test]
    fn split_scale_is_k_times() {
        let m = LaplaceMechanism::new(1.0).unwrap();
        assert_eq!(m.split_variance(4), 2.0 * 16.0);
        assert_eq!(m.split_variance(0), m.variance()); // degenerate batch
    }

    #[test]
    fn measurement_is_unbiased_with_expected_variance() {
        let m = LaplaceMechanism::new(0.5).unwrap();
        let mut rng = rng_from_seed(42);
        let mut moments = RunningMoments::new();
        for _ in 0..100_000 {
            let out = m.run(&[10.0, 20.0], &mut rng);
            moments.push(out[0] - 10.0);
        }
        assert!(moments.mean().abs() < 0.1);
        let expect = m.split_variance(2);
        assert!((moments.variance() - expect).abs() / expect < 0.05);
    }

    #[test]
    fn alignment_cost_equals_total_displacement() {
        // With per-query scale k/ε and each |δᵢ| <= 1, the total cost is
        // Σ|δᵢ|·ε/k <= ε — sequential composition, verified concretely.
        let m = LaplaceMechanism::new(0.8).unwrap();
        let d = QueryAnswers::counting(vec![5.0, 9.0, 2.0]);
        let dp = d.perturbed(&[1.0, 1.0, 1.0]);
        let mut rng = rng_from_seed(7);
        let max = check_alignment_many(&m, &d, &dp, 100, &mut rng).unwrap();
        assert!((max - 0.8).abs() < 1e-9, "max cost = {max}");
    }

    #[test]
    fn alignment_rejects_sensitivity_violation() {
        let m = LaplaceMechanism::new(0.8).unwrap();
        let d = QueryAnswers::counting(vec![5.0, 9.0]);
        let dp = d.perturbed(&[1.0, 1.0]);
        // Manually construct a worse "neighbor": deltas (2, 1) cost
        // (2 + 1)·ε/2 = 1.5ε, clearly over budget. (A single delta of 2
        // would cost exactly ε here, which the checker rightly accepts.)
        let bad = QueryAnswers::counting(vec![7.0, 10.0]);
        let mut rng = rng_from_seed(7);
        assert!(check_alignment_many(&m, &d, &bad, 10, &mut rng).is_err());
        // sanity: the legal neighbor passes
        assert!(check_alignment_many(&m, &d, &dp, 10, &mut rng).is_ok());
    }
}
