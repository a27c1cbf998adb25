//! Adjacent query-answer vectors.
//!
//! The paper's mechanisms consume a vector `q(D) = (q₁(D), …, qₙ(D))` of
//! sensitivity-1 query answers. Database adjacency `D ~ D'` induces a
//! perturbation `q(D') = q(D) + δ` with:
//!
//! * general sensitivity-1 queries: `δᵢ ∈ [-1, 1]` independently;
//! * monotone queries (Definition 7, e.g. counting queries under
//!   add/remove-one adjacency): all `δᵢ ∈ [0, 1]` or all `δᵢ ∈ [-1, 0]`.
//!
//! [`AdjacencyModel`] generates random perturbations of the right shape for
//! alignment checking.

use rand::Rng;

/// Which family of adjacent inputs to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdjacencyModel {
    /// Each query may move independently by at most 1 in either direction.
    General,
    /// All queries move up together (each by `[0, 1]`).
    MonotoneUp,
    /// All queries move down together (each by `[0, 1]`).
    MonotoneDown,
}

/// A concrete perturbation `δ` with `q(D') = q(D) + δ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    deltas: Vec<f64>,
}

impl Perturbation {
    /// Draws a random perturbation of length `n` under `model`.
    pub fn random<R: Rng + ?Sized>(model: AdjacencyModel, n: usize, rng: &mut R) -> Self {
        let deltas = (0..n)
            .map(|_| {
                let u: f64 = rng.gen(); // [0, 1)
                match model {
                    AdjacencyModel::General => 2.0 * u - 1.0,
                    AdjacencyModel::MonotoneUp => u,
                    AdjacencyModel::MonotoneDown => -u,
                }
            })
            .collect();
        Self { deltas }
    }

    /// The extreme integer perturbation for `model` (every delta at ±1):
    /// worst case for alignment cost.
    pub fn extreme(model: AdjacencyModel, n: usize, sign_pattern: u64) -> Self {
        let deltas = (0..n)
            .map(|i| match model {
                AdjacencyModel::General => {
                    if (sign_pattern >> (i % 64)) & 1 == 1 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                AdjacencyModel::MonotoneUp => 1.0,
                AdjacencyModel::MonotoneDown => -1.0,
            })
            .collect();
        Self { deltas }
    }

    /// Wraps explicit deltas, validating the sensitivity-1 constraint.
    ///
    /// # Panics
    /// Panics if any `|δᵢ| > 1` or is non-finite.
    pub fn from_deltas(deltas: Vec<f64>) -> Self {
        for (i, d) in deltas.iter().enumerate() {
            assert!(
                d.is_finite() && d.abs() <= 1.0,
                "delta {i} = {d} violates sensitivity 1"
            );
        }
        Self { deltas }
    }

    /// The raw deltas.
    pub fn deltas(&self) -> &[f64] {
        &self.deltas
    }

    /// Applies the perturbation: `q(D') = q(D) + δ`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn apply(&self, answers: &[f64]) -> Vec<f64> {
        assert_eq!(answers.len(), self.deltas.len(), "length mismatch");
        answers
            .iter()
            .zip(&self.deltas)
            .map(|(a, d)| a + d)
            .collect()
    }

    /// True when the perturbation is monotone (all non-negative or all
    /// non-positive) — the Definition-7 precondition for the tighter
    /// mechanism budgets.
    pub fn is_monotone(&self) -> bool {
        self.deltas.iter().all(|&d| d >= 0.0) || self.deltas.iter().all(|&d| d <= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_noise::rng::rng_from_seed;

    #[test]
    fn general_stays_in_band() {
        let mut rng = rng_from_seed(4);
        let p = Perturbation::random(AdjacencyModel::General, 100, &mut rng);
        assert!(p.deltas().iter().all(|d| (-1.0..=1.0).contains(d)));
    }

    #[test]
    fn monotone_models_are_monotone() {
        let mut rng = rng_from_seed(4);
        let up = Perturbation::random(AdjacencyModel::MonotoneUp, 50, &mut rng);
        assert!(up.is_monotone());
        assert!(up.deltas().iter().all(|&d| (0.0..=1.0).contains(&d)));
        let down = Perturbation::random(AdjacencyModel::MonotoneDown, 50, &mut rng);
        assert!(down.is_monotone());
        assert!(down.deltas().iter().all(|&d| (-1.0..=0.0).contains(&d)));
    }

    #[test]
    fn extreme_patterns() {
        let p = Perturbation::extreme(AdjacencyModel::General, 4, 0b0101);
        assert_eq!(p.deltas(), &[1.0, -1.0, 1.0, -1.0]);
        let up = Perturbation::extreme(AdjacencyModel::MonotoneUp, 3, 0);
        assert_eq!(up.deltas(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn apply_adds_deltas() {
        let p = Perturbation::from_deltas(vec![0.5, -1.0]);
        assert_eq!(p.apply(&[10.0, 20.0]), vec![10.5, 19.0]);
    }

    #[test]
    #[should_panic(expected = "sensitivity 1")]
    fn from_deltas_validates() {
        Perturbation::from_deltas(vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_checks_length() {
        Perturbation::from_deltas(vec![0.0]).apply(&[1.0, 2.0]);
    }

    #[test]
    fn mixed_deltas_not_monotone() {
        assert!(!Perturbation::from_deltas(vec![0.5, -0.5]).is_monotone());
        assert!(Perturbation::from_deltas(vec![0.0, 0.0]).is_monotone());
    }
}
