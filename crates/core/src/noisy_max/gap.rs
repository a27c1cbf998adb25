//! Noisy-Top-K-with-Gap — the paper's Algorithm 1.
//!
//! Adds `Lap(2k/ε)` noise (or `Lap(k/ε)` for monotone workloads) to every
//! query, returns the indices of the `k` largest noisy answers in descending
//! order, **and** — for free — the noisy gap between each selected query and
//! the next-best noisy answer. Theorem 2: this satisfies ε-DP (the classic
//! index-only mechanism has the *same* privacy cost, so withholding the gaps
//! wastes information).
//!
//! The local alignment (Lemma 2, Eq. 2) keeps the noise of all losing
//! queries fixed and shifts each winner by
//! `qᵢ - q'ᵢ + max_{l∉I}(q'_l + η_l) - max_{l∉I}(q_l + η_l)`,
//! which preserves every win margin exactly.

use super::{require_scale, top_k_scale};
use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, MechanismError};
use crate::scratch::TopKScratch;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// One selected query: its index and the noisy gap to the next-best noisy
/// answer (`gᵢ = q̃_{jᵢ} - q̃_{jᵢ₊₁}` in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKItem {
    /// Index of the selected query.
    pub index: usize,
    /// Noisy gap to the next-ranked noisy answer; positive by construction.
    pub gap: f64,
}

/// Output of [`NoisyTopKWithGap`]: `k` items in descending noisy order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopKOutput {
    /// Selected queries, best first.
    pub items: Vec<TopKItem>,
}

impl TopKOutput {
    /// Just the selected indices, in rank order.
    pub fn indices(&self) -> Vec<usize> {
        self.items.iter().map(|it| it.index).collect()
    }

    /// Just the gaps, in rank order.
    pub fn gaps(&self) -> Vec<f64> {
        self.items.iter().map(|it| it.gap).collect()
    }
}

/// Noisy-Top-K-with-Gap (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyTopKWithGap {
    k: usize,
    epsilon: f64,
    monotonic: bool,
}

impl NoisyTopKWithGap {
    /// Creates the mechanism: select `k` queries under total budget
    /// `epsilon`; `monotonic` enables the counting-query analysis that
    /// halves the noise (Theorem 2).
    ///
    /// The paper states Algorithm 1 with noise `Lap(2k/ε)` and budget `ε`
    /// (`ε/2` when monotone); this constructor instead fixes the *privacy
    /// cost* at `epsilon` and chooses the noise accordingly.
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

    /// The number of selected queries `k`.
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

    /// Variance of each released gap: `2·Var(Lap(scale)) = 4·scale²`
    /// (a gap is the difference of two independent noisy answers).
    pub fn gap_variance(&self) -> f64 {
        4.0 * self.scale() * self.scale()
    }

    /// The single copy of Algorithm 1 and its one provider-taking entry:
    /// one `Lap(scale)` draw per query through `provider` (batched by its
    /// [`fill_offset`](DrawProvider::fill_offset), fused with the `+ q`
    /// offset so the `n`-sized buffer is written exactly once), selection
    /// of the top `k + 1`, gap construction. Buffers live in `scratch`; the
    /// output is written into `out`, reusing its buffer. The provider picks
    /// the execution path: [`SourceDraws`] is the reference [`run`](Self::run)
    /// uses, and [`ScratchDraws`](crate::draw::ScratchDraws) the fast path.
    ///
    /// # Errors
    /// [`MechanismError::NonFiniteUtility`] if an answer is NaN or
    /// infinite, [`MechanismError::NotEnoughQueries`] if the workload has
    /// fewer than `k + 1` queries (the `k`-th gap needs a runner-up), and
    /// [`MechanismError::InvalidEpsilon`] if the scale overflows `f64` (a
    /// subnormal ε); all before any draw.
    pub fn run_into<P: DrawProvider>(
        &self,
        answers: &[f64],
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut TopKOutput,
    ) -> Result<(), MechanismError> {
        crate::answers::require_finite(answers)?;
        crate::answers::require_min_len(answers, self.k + 1)?;
        require_scale(self.scale(), self.epsilon)?;
        provider.begin();
        provider.fill_offset(answers, self.scale(), &mut scratch.noisy);
        provider.select_top(&scratch.noisy, self.k + 1, &mut scratch.top);
        out.items.clear();
        out.items.extend((0..self.k).map(|i| TopKItem {
            index: scratch.top[i],
            gap: scratch.noisy[scratch.top[i]] - scratch.noisy[scratch.top[i + 1]],
        }));
        Ok(())
    }

    fn run_with_source(
        &self,
        answers: &QueryAnswers,
        source: &mut dyn NoiseSource,
    ) -> Result<TopKOutput, MechanismError> {
        let mut out = TopKOutput::default();
        self.run_into(
            answers.values(),
            &mut SourceDraws::new(source),
            &mut TopKScratch::new(),
            &mut out,
        )?;
        Ok(out)
    }

    /// Runs with a plain RNG: the allocating reference path.
    ///
    /// # Errors
    /// As [`run_into`](Self::run_into).
    pub fn run(
        &self,
        answers: &QueryAnswers,
        rng: &mut StdRng,
    ) -> Result<TopKOutput, MechanismError> {
        self.run_with_source(answers, &mut SamplingSource::new(rng))
    }
}

impl AlignedMechanism for NoisyTopKWithGap {
    type Input = QueryAnswers;
    type Output = TopKOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> TopKOutput {
        // The alignment checker's trait is infallible by design (it replays
        // recorded tapes, so the workload was already validated on the
        // recording run); a short workload here is a checker-harness bug.
        #[allow(clippy::expect_used)]
        self.run_with_source(input, source)
            // lint:allow(panic-freedom): checker replays pre-validated workloads; not a serving path
            .expect("alignment checker workloads are pre-validated")
    }

    /// Equation (2): identity on losers; winners shifted to preserve margins.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &TopKOutput,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        // lint:allow(panic-freedom): alignment-checker invariant — adjacent workloads share arity by construction
        assert_eq!(q.len(), qp.len(), "adjacent inputs must have equal arity");
        // lint:allow(panic-freedom): alignment-checker invariant — the tape recorded one draw per query
        assert_eq!(tape.len(), q.len(), "tape must hold one draw per query");
        let selected = output.indices();

        // max over unselected of q_l + η_l and q'_l + η_l (same η — losers
        // keep their noise).
        let mut max_d = f64::NEG_INFINITY;
        let mut max_dp = f64::NEG_INFINITY;
        for l in 0..q.len() {
            if !selected.contains(&l) {
                max_d = max_d.max(q[l] + tape.value(l));
                max_dp = max_dp.max(qp[l] + tape.value(l));
            }
        }
        debug_assert!(max_d.is_finite(), "k < n guarantees at least one loser");

        tape.aligned_by(|i, _| {
            if selected.contains(&i) {
                (q[i] - qp[i]) + (max_dp - max_d)
            } else {
                0.0
            }
        })
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn outputs_match(&self, a: &TopKOutput, b: &TopKOutput) -> bool {
        a.items.len() == b.items.len()
            && a.items.iter().zip(&b.items).all(|(x, y)| {
                x.index == y.index
                    && (x.gap - y.gap).abs() <= 1e-9 * x.gap.abs().max(y.gap.abs()).max(1.0)
            })
    }
}

/// Noisy-Max-with-Gap: the `k = 1` special case of Algorithm 1, returning
/// the approximate argmax and its margin over the runner-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyMaxWithGap {
    inner: NoisyTopKWithGap,
}

impl NoisyMaxWithGap {
    /// Creates the mechanism (see [`NoisyTopKWithGap::new`]).
    pub fn new(epsilon: f64, monotonic: bool) -> Result<Self, MechanismError> {
        Ok(Self {
            inner: NoisyTopKWithGap::new(1, epsilon, monotonic)?,
        })
    }

    /// Runs the mechanism, returning `(argmax index, gap to runner-up)`.
    ///
    /// # Errors
    /// [`MechanismError::NotEnoughQueries`] if the workload has fewer than
    /// 2 queries.
    pub fn run(
        &self,
        answers: &QueryAnswers,
        rng: &mut StdRng,
    ) -> Result<(usize, f64), MechanismError> {
        let out = self.inner.run(answers, rng)?;
        let item = out.items[0];
        Ok((item.index, item.gap))
    }

    /// The underlying top-k mechanism (for alignment checking).
    pub fn as_top_k(&self) -> &NoisyTopKWithGap {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::RngDraws;
    use free_gap_alignment::checker::{check_alignment, check_alignment_many};
    use free_gap_alignment::{AdjacencyModel, Perturbation};
    use free_gap_noise::rng::{fast_rng_from_seed, rng_from_seed};
    use free_gap_noise::stats::RunningMoments;
    use proptest::prelude::*;
    use rand::RngCore;

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![100.0, 40.0, 95.0, 80.0, 3.0, 60.0])
    }

    #[test]
    fn construction_validation() {
        assert!(NoisyTopKWithGap::new(0, 1.0, true).is_err());
        assert!(NoisyTopKWithGap::new(1, 0.0, true).is_err());
        let m = NoisyTopKWithGap::new(2, 1.0, true).unwrap();
        assert_eq!(m.scale(), 2.0);
        assert_eq!(NoisyTopKWithGap::new(2, 1.0, false).unwrap().scale(), 4.0);
        // A subnormal ε overflows the scale: a typed error, not a panic.
        let tiny = NoisyTopKWithGap::new(2, 5e-324, true).unwrap();
        assert_eq!(
            tiny.run(&workload(), &mut rng_from_seed(1)),
            Err(MechanismError::InvalidEpsilon { value: 5e-324 })
        );
    }

    #[test]
    fn output_shape_and_gap_positivity() {
        let m = NoisyTopKWithGap::new(3, 1.0, true).unwrap();
        let mut rng = rng_from_seed(5);
        for _ in 0..200 {
            let out = m.run(&workload(), &mut rng).unwrap();
            assert_eq!(out.items.len(), 3);
            assert!(out.gaps().iter().all(|&g| g >= 0.0));
            // indices distinct
            let mut idx = out.indices();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), 3);
        }
    }

    #[test]
    fn short_workload_returns_typed_error() {
        // Regression: this used to panic through `unwrap_or_else(panic!)`;
        // a user-reachable workload shape must surface as a typed error.
        let m = NoisyTopKWithGap::new(5, 1.0, true).unwrap();
        let err = m
            .run(&QueryAnswers::counting(vec![1.0; 5]), &mut rng_from_seed(1))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::MechanismError::NotEnoughQueries { need: 6, got: 5 }
        ));
        // The batched fast path fails identically.
        assert!(m
            .run_into(
                &[1.0; 5],
                &mut RngDraws::new(&mut rng_from_seed(1)),
                &mut TopKScratch::new(),
                &mut TopKOutput::default(),
            )
            .is_err());
    }

    #[test]
    fn non_finite_answer_is_rejected_before_any_draw() {
        // A NaN used to fail every `>=` of the insertion scan and an
        // infinite winner released a NaN gap; both are now typed errors,
        // raised before the provider draws anything.
        let m = NoisyTopKWithGap::new(1, 1.0, true).unwrap();
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
                    &mut TopKOutput::default(),
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
    fn high_epsilon_recovers_true_ranking() {
        let m = NoisyTopKWithGap::new(2, 1e6, true).unwrap();
        let out = m.run(&workload(), &mut rng_from_seed(3)).unwrap();
        assert_eq!(out.indices(), vec![0, 2]);
        // gaps approach the true margins 5 and 15
        assert!((out.items[0].gap - 5.0).abs() < 0.1);
        assert!((out.items[1].gap - 15.0).abs() < 0.1);
    }

    #[test]
    fn gaps_are_unbiased_estimates_of_true_margins() {
        // With moderate noise, E[gap_i | selection correct] is biased by
        // selection, but E[q̃_a - q̃_b] for fixed indices is exact. Use high
        // enough epsilon that selection is almost always the true ranking.
        let m = NoisyTopKWithGap::new(2, 50.0, true).unwrap();
        let mut rng = rng_from_seed(11);
        let mut g0 = RunningMoments::new();
        for _ in 0..20_000 {
            let out = m.run(&workload(), &mut rng).unwrap();
            if out.indices() == vec![0, 2] {
                g0.push(out.items[0].gap);
            }
        }
        assert!((g0.mean() - 5.0).abs() < 0.2, "mean gap = {}", g0.mean());
    }

    #[test]
    fn alignment_checks_monotone_budget() {
        let m = NoisyTopKWithGap::new(3, 0.7, true).unwrap();
        let d = workload();
        let mut rng = rng_from_seed(21);
        for trial in 0..50 {
            let p = Perturbation::random(
                if trial % 2 == 0 {
                    AdjacencyModel::MonotoneUp
                } else {
                    AdjacencyModel::MonotoneDown
                },
                d.len(),
                &mut rng,
            );
            let dp = d.perturbed(p.deltas());
            let max = check_alignment_many(&m, &d, &dp, 20, &mut rng).unwrap();
            assert!(max <= 0.7 + 1e-9, "cost {max}");
        }
    }

    #[test]
    fn alignment_checks_general_budget() {
        let m = NoisyTopKWithGap::new(2, 1.1, false).unwrap();
        let d = QueryAnswers::general(vec![10.0, 9.5, 9.0, 2.0, 8.5]);
        let mut rng = rng_from_seed(22);
        for _ in 0..50 {
            let p = Perturbation::random(AdjacencyModel::General, d.len(), &mut rng);
            let dp = d.perturbed(p.deltas());
            let max = check_alignment_many(&m, &d, &dp, 20, &mut rng).unwrap();
            assert!(max <= 1.1 + 1e-9, "cost {max}");
        }
    }

    #[test]
    fn uniform_monotone_shift_has_zero_alignment_cost() {
        // When every answer moves by exactly +1, the winners' displacement
        // (q - q') and the losers' max displacement cancel: Eq. (2) shifts
        // nothing and the cost is 0 regardless of ε.
        let m = NoisyTopKWithGap::new(2, 0.9, true).unwrap();
        let d = workload();
        let dp =
            d.perturbed(Perturbation::extreme(AdjacencyModel::MonotoneUp, d.len(), 0).deltas());
        let mut rng = rng_from_seed(30);
        let max = check_alignment_many(&m, &d, &dp, 300, &mut rng).unwrap();
        assert!(max.abs() < 1e-9, "uniform shift should cost 0, got {max}");
    }

    #[test]
    fn alignment_worst_case_touches_budget() {
        // Tightness of Theorem 2 (monotone case): move only the winners by
        // +1 and leave the losers fixed. Each selected draw then shifts by
        // exactly -1, costing ε/k apiece — ε in total whenever the mechanism
        // selects precisely the perturbed pair.
        let m = NoisyTopKWithGap::new(2, 0.9, true).unwrap();
        let d = workload(); // true top-2 = indices {0, 2} with margin 15
        let mut deltas = vec![0.0; d.len()];
        deltas[0] = 1.0;
        deltas[2] = 1.0;
        let dp = d.perturbed(Perturbation::from_deltas(deltas).deltas());
        let mut rng = rng_from_seed(30);
        let max = check_alignment_many(&m, &d, &dp, 300, &mut rng).unwrap();
        assert!(max <= 0.9 + 1e-9, "cost {max} over budget");
        assert!(
            max > 0.9 - 1e-9,
            "expected a run that attains ε, best was {max}"
        );
    }

    #[test]
    fn noisy_max_with_gap_wraps_k1() {
        let m = NoisyMaxWithGap::new(1.0, true).unwrap();
        let (idx, gap) = m.run(&workload(), &mut rng_from_seed(2)).unwrap();
        assert!(idx < 6);
        assert!(gap >= 0.0);
        assert_eq!(m.as_top_k().k(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn alignment_holds_on_random_workloads(
            values in proptest::collection::vec(0.0f64..100.0, 4..12),
            k in 1usize..3,
            monotone in proptest::bool::ANY,
            seed in 0u64..10_000,
        ) {
            let k = k.min(values.len() - 1);
            let answers = if monotone {
                QueryAnswers::counting(values)
            } else {
                QueryAnswers::general(values)
            };
            let m = NoisyTopKWithGap::new(k, 0.8, monotone).unwrap();
            let mut rng = rng_from_seed(seed);
            let model = if monotone { AdjacencyModel::MonotoneUp } else { AdjacencyModel::General };
            let p = Perturbation::random(model, answers.len(), &mut rng);
            let dp = answers.perturbed(p.deltas());
            let report = check_alignment(&m, &answers, &dp, &mut rng);
            prop_assert!(report.is_ok(), "{:?}", report.err().map(|e| e.to_string()));
        }
    }
}
