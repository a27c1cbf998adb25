//! Classic (index-only) Noisy Max and Noisy Top-K — the baselines Algorithm 1
//! strictly improves on.
//!
//! Identical noise and selection to [`super::NoisyTopKWithGap`]; the only
//! difference is that the gaps are discarded. Theorem 2's point is that both
//! versions have exactly the same privacy cost, so this baseline is
//! implemented independently to make the experiments' comparison honest
//! (same draw pattern, same selection rule).

use super::{require_scale, top_k_scale};
use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, MechanismError};
use crate::scratch::TopKScratch;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// Index-only Noisy Top-K (Dwork & Roth's Noisy Max generalized to `k`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassicNoisyTopK {
    k: usize,
    epsilon: f64,
    monotonic: bool,
}

impl ClassicNoisyTopK {
    /// Creates the mechanism with privacy cost `epsilon` (see
    /// [`super::NoisyTopKWithGap::new`] for the scale convention).
    pub fn new(k: usize, epsilon: f64, monotonic: bool) -> Result<Self, MechanismError> {
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        Ok(Self {
            k,
            epsilon: require_epsilon(epsilon)?,
            monotonic,
        })
    }

    /// The number of selected queries.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The total privacy budget `ε` one run costs.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The per-query Laplace scale.
    pub fn scale(&self) -> f64 {
        top_k_scale(self.k, self.epsilon, self.monotonic)
    }

    /// The single copy of the index-only selection and its one
    /// provider-taking entry (same draw pattern and selection rule as the
    /// gap variant — Theorem 2's honest-comparison requirement; see
    /// [`NoisyTopKWithGap::run_into`](super::NoisyTopKWithGap::run_into)
    /// for the providers). Writes the selected indices into `out`, reusing
    /// its buffer.
    ///
    /// # Errors
    /// [`MechanismError::NonFiniteUtility`] if an answer is NaN or
    /// infinite, [`MechanismError::NotEnoughQueries`] if the workload has
    /// fewer than `k + 1` queries (kept identical to the gap variant so the
    /// two are comparable on the same workloads), and
    /// [`MechanismError::InvalidEpsilon`] if the scale overflows `f64`; all
    /// before any draw.
    pub fn run_into<P: DrawProvider>(
        &self,
        answers: &[f64],
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut Vec<usize>,
    ) -> Result<(), MechanismError> {
        crate::answers::require_finite(answers)?;
        crate::answers::require_min_len(answers, self.k + 1)?;
        require_scale(self.scale(), self.epsilon)?;
        provider.begin();
        provider.fill_offset(answers, self.scale(), &mut scratch.noisy);
        provider.select_top(&scratch.noisy, self.k, out);
        Ok(())
    }

    fn run_with_source(
        &self,
        answers: &QueryAnswers,
        source: &mut dyn NoiseSource,
    ) -> Result<Vec<usize>, MechanismError> {
        let mut out = Vec::new();
        self.run_into(
            answers.values(),
            &mut SourceDraws::new(source),
            &mut TopKScratch::new(),
            &mut out,
        )?;
        Ok(out)
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
        self.run_with_source(answers, &mut SamplingSource::new(rng))
    }
}

impl AlignedMechanism for ClassicNoisyTopK {
    type Input = QueryAnswers;
    type Output = Vec<usize>;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> Vec<usize> {
        #[allow(clippy::expect_used)]
        self.run_with_source(input, source)
            // lint:allow(panic-freedom): checker replays pre-validated workloads; not a serving path
            .expect("alignment checker workloads are pre-validated")
    }

    /// Same alignment as the gap variant (Eq. 2) — the proof never used the
    /// fact that gaps were withheld, which is the paper's core observation.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &Vec<usize>,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        let mut max_d = f64::NEG_INFINITY;
        let mut max_dp = f64::NEG_INFINITY;
        for l in 0..q.len() {
            if !output.contains(&l) {
                max_d = max_d.max(q[l] + tape.value(l));
                max_dp = max_dp.max(qp[l] + tape.value(l));
            }
        }
        tape.aligned_by(|i, _| {
            if output.contains(&i) {
                (q[i] - qp[i]) + (max_dp - max_d)
            } else {
                0.0
            }
        })
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
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
