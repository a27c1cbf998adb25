//! Classic (index-only) Noisy Max and Noisy Top-K — the baselines Algorithm 1
//! strictly improves on.
//!
//! [`super::NoisyTopKWithGap`]'s core with the gaps withheld: the same
//! noise, the same selection rule and the same Eq. (2) alignment, run by
//! one body. Theorem 2's point is that both versions have exactly the same
//! privacy cost — the proof never uses the withholding — so the
//! experiments' comparison differs only in the released information.

use super::gap::{align_selected, NoisyTopKWithGap};
use crate::answers::QueryAnswers;
use crate::draw::DrawProvider;
use crate::error::MechanismError;
use crate::scratch::TopKScratch;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape};
use rand::rngs::StdRng;

/// Index-only Noisy Top-K (Dwork & Roth's Noisy Max generalized to `k`):
/// Noisy-Top-K-with-Gap with the gaps withheld.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassicNoisyTopK {
    inner: NoisyTopKWithGap,
}

impl ClassicNoisyTopK {
    /// Creates the mechanism with privacy cost `epsilon` (see
    /// [`super::NoisyTopKWithGap::new`] for the scale convention).
    pub fn new(k: usize, epsilon: f64, monotonic: bool) -> Result<Self, MechanismError> {
        Ok(Self {
            inner: NoisyTopKWithGap::new(k, epsilon, monotonic)?,
        })
    }

    /// The number of selected queries.
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// The total privacy budget `ε` one run costs.
    pub fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    /// The per-query Laplace scale.
    pub fn scale(&self) -> f64 {
        self.inner.scale()
    }

    /// The one provider-taking entry:
    /// [`NoisyTopKWithGap::run_into`](super::NoisyTopKWithGap::run_into)
    /// writing only the selected indices into `out`, best first, reusing
    /// its buffer. Providers as there.
    ///
    /// # Errors
    /// As the gap variant's, all before any draw:
    /// [`MechanismError::NonFiniteUtility`] if an answer is NaN or
    /// infinite, [`MechanismError::NotEnoughQueries`] if the workload has
    /// fewer than `k + 1` queries, and [`MechanismError::InvalidEpsilon`]
    /// if the scale overflows `f64`.
    pub fn run_into<P: DrawProvider>(
        &self,
        answers: &[f64],
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut Vec<usize>,
    ) -> Result<(), MechanismError> {
        self.inner.run_selection(answers, provider, scratch, out)
    }

    /// Runs with a plain RNG: indices of the `k` largest noisy answers,
    /// descending (the allocating reference path).
    ///
    /// # Errors
    /// As [`run_into`](Self::run_into).
    pub fn run(
        &self,
        answers: &QueryAnswers,
        rng: &mut StdRng,
    ) -> Result<Vec<usize>, MechanismError> {
        Ok(self.inner.run(answers, rng)?.indices())
    }
}

impl AlignedMechanism for ClassicNoisyTopK {
    type Input = QueryAnswers;
    type Output = Vec<usize>;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> Vec<usize> {
        AlignedMechanism::run(&self.inner, input, source).indices()
    }

    /// The gap variant's alignment (Eq. 2) — the proof never used the
    /// fact that gaps were withheld, which is the paper's core observation.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &Vec<usize>,
    ) -> NoiseTape {
        align_selected(input, neighbor, tape, output)
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }
}

/// Classic Noisy Max: `k = 1`, returns a single index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassicNoisyMax {
    inner: ClassicNoisyTopK,
}

impl ClassicNoisyMax {
    /// Creates the mechanism (see [`ClassicNoisyTopK::new`]).
    pub fn new(epsilon: f64, monotonic: bool) -> Result<Self, MechanismError> {
        Ok(Self {
            inner: ClassicNoisyTopK::new(1, epsilon, monotonic)?,
        })
    }

    /// Runs the mechanism, returning the approximate argmax index.
    ///
    /// # Errors
    /// [`MechanismError::NotEnoughQueries`] if the workload has fewer than
    /// 2 queries.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> Result<usize, MechanismError> {
        Ok(self.inner.run(answers, rng)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::RngDraws;
    use crate::noisy_max::NoisyTopKWithGap;
    use free_gap_alignment::checker::check_alignment_many;
    use free_gap_alignment::{AdjacencyModel, Perturbation};
    use free_gap_noise::rng::{fast_rng_from_seed, rng_from_seed};
    use rand::RngCore;

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![50.0, 10.0, 45.0, 30.0, 2.0])
    }

    #[test]
    fn validation() {
        assert!(ClassicNoisyTopK::new(0, 1.0, true).is_err());
        assert!(ClassicNoisyTopK::new(1, -1.0, true).is_err());
        // A subnormal ε overflows the scale: a typed error, not a panic.
        let tiny = ClassicNoisyTopK::new(2, 5e-324, true).unwrap();
        assert_eq!(
            tiny.run(&workload(), &mut rng_from_seed(1)),
            Err(MechanismError::InvalidEpsilon { value: 5e-324 })
        );
    }

    #[test]
    fn selection_matches_gap_variant_on_same_noise_stream() {
        // Same seed => same noise => identical selections: the baseline and
        // the gap mechanism differ only in released information.
        let classic = ClassicNoisyTopK::new(3, 0.7, true).unwrap();
        let with_gap = NoisyTopKWithGap::new(3, 0.7, true).unwrap();
        for seed in 0..50 {
            let a = classic.run(&workload(), &mut rng_from_seed(seed)).unwrap();
            let b = with_gap.run(&workload(), &mut rng_from_seed(seed)).unwrap();
            assert_eq!(a, b.indices(), "seed {seed}");
        }
    }

    #[test]
    fn non_finite_answer_is_rejected_before_any_draw() {
        // A NaN used to reset the `>=` insertion scan, so only indices
        // after it could win; now it is a typed error, raised before the
        // provider draws anything.
        let m = ClassicNoisyTopK::new(1, 1.0, true).unwrap();
        for answers in [
            [10.0, f64::NAN, 3.0, 2.0],
            [10.0, f64::INFINITY, 3.0, f64::INFINITY],
        ] {
            let mut rng = fast_rng_from_seed(1);
            let err = m
                .run_into(
                    &answers,
                    &mut RngDraws::new(&mut rng),
                    &mut TopKScratch::new(),
                    &mut Vec::new(),
                )
                .unwrap_err();
            assert!(matches!(
                err,
                MechanismError::NonFiniteUtility { index: 1, .. }
            ));
            assert_eq!(rng.next_u64(), fast_rng_from_seed(1).next_u64());
        }
    }

    #[test]
    fn high_epsilon_selects_true_argmax() {
        let m = ClassicNoisyMax::new(1e6, true).unwrap();
        assert_eq!(m.run(&workload(), &mut rng_from_seed(1)).unwrap(), 0);
    }

    #[test]
    fn alignment_within_budget() {
        let m = ClassicNoisyTopK::new(2, 0.5, false).unwrap();
        let d = QueryAnswers::general(vec![5.0, 4.0, 3.0, 2.0]);
        let mut rng = rng_from_seed(9);
        for _ in 0..30 {
            let p = Perturbation::random(AdjacencyModel::General, d.len(), &mut rng);
            let dp = d.perturbed(p.deltas());
            let max = check_alignment_many(&m, &d, &dp, 20, &mut rng).unwrap();
            assert!(max <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn selection_quality_improves_with_epsilon() {
        // Accuracy sanity: higher ε finds the true top-2 more often.
        let d = workload();
        let truth = vec![0usize, 2];
        let hit = |eps: f64| {
            let m = ClassicNoisyTopK::new(2, eps, true).unwrap();
            let mut rng = rng_from_seed(33);
            (0..2_000)
                .filter(|_| {
                    let mut got = m.run(&d, &mut rng).unwrap();
                    got.sort_unstable();
                    got == truth
                })
                .count()
        };
        let low = hit(0.05);
        let high = hit(2.0);
        assert!(
            high > low,
            "high-ε hits {high} should beat low-ε hits {low}"
        );
    }
}
