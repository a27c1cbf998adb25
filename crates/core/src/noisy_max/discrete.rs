//! Noisy-Top-K-with-Gap under **discrete Laplace** noise — the
//! finite-precision variant the paper's "implementation issues" paragraph
//! (§5.1) analyses.
//!
//! The continuous analysis assumes ties never happen; a real implementation
//! adds noise supported on multiples of a base `γ`, where ties have positive
//! probability and the guarantee degrades to `(ε, δ)`-DP with
//! `δ ≤ n²·γε'·(1 + e⁻¹)` (Appendix A.1; `ε'` the per-query rate). This
//! module implements that variant end-to-end:
//!
//! * integer-valued queries (counts) with noise on the same lattice, so all
//!   released gaps are exact multiples of `γ`;
//! * deterministic tie-breaking by index (the event `δ` pays for);
//! * [`DiscreteNoisyTopKWithGap::delta`] computing the Appendix-A.1 bound
//!   for a given workload size;
//! * the same Eq.-2 alignment, whose shifts are automatically lattice-valued
//!   because adjacent integer workloads differ by integers.

use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, require_positive, MechanismError};
use crate::noisy_max::{TopKItem, TopKOutput};
use crate::scratch::TopKScratch;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use free_gap_noise::tie::union_tie_bound;
use free_gap_noise::DiscreteLaplace;
use rand::rngs::StdRng;

/// Noisy-Top-K-with-Gap over integer counts with discrete Laplace noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteNoisyTopKWithGap {
    k: usize,
    epsilon: f64,
    monotonic: bool,
    gamma: f64,
}

impl DiscreteNoisyTopKWithGap {
    /// Creates the mechanism with support step `γ = 1` (integer counts).
    pub fn new(k: usize, epsilon: f64, monotonic: bool) -> Result<Self, MechanismError> {
        Self::with_gamma(k, epsilon, monotonic, 1.0)
    }

    /// Creates the mechanism over the lattice `{m·γ}`. Queries must be
    /// multiples of `γ`.
    pub fn with_gamma(
        k: usize,
        epsilon: f64,
        monotonic: bool,
        gamma: f64,
    ) -> Result<Self, MechanismError> {
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        let gamma = require_positive("gamma", gamma)?;
        Ok(Self {
            k,
            epsilon: require_epsilon(epsilon)?,
            monotonic,
            gamma,
        })
    }

    /// The total privacy budget `ε` one run costs.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The per-query noise rate per unit of value: `ε/(2k)` in general,
    /// `ε/k` for monotone workloads (the discrete analogue of `Lap(2k/ε)`).
    pub fn unit_epsilon(&self) -> f64 {
        let factor = if self.monotonic { 1.0 } else { 2.0 };
        self.epsilon / (factor * self.k as f64)
    }

    /// Appendix A.1: the `δ` of the `(ε, δ)` guarantee for an `n`-query
    /// workload — the probability of any tie among the noisy answers.
    pub fn delta(&self, n: usize) -> f64 {
        #[allow(clippy::expect_used)]
        union_tie_bound(n, self.unit_epsilon(), self.gamma)
            // lint:allow(panic-freedom): rate and γ were range-checked in with_gamma; the bound cannot fail
            .expect("parameters validated at construction")
    }

    fn validate_lattice(&self, answers: &[f64]) {
        debug_assert!(
            answers.iter().all(|v| {
                let steps = v / self.gamma;
                (steps - steps.round()).abs() < 1e-9
            }),
            "query answers must be multiples of γ = {}",
            self.gamma
        );
    }

    /// The single copy of the discrete Top-K selection and its one
    /// provider-taking entry: one discrete Laplace draw per query (batched
    /// by the provider's
    /// [`discrete_fill_offset`](DrawProvider::discrete_fill_offset), fused
    /// with the `+ q` offset so the `n`-sized buffer is written exactly
    /// once), selection of the top `k + 1`, gap construction. Ties among
    /// noisy answers are broken by the smaller index; `delta(n)` bounds the
    /// probability that a tie among the top `k + 1` occurred at all.
    /// Buffers live in `scratch`; the output is written into `out`, reusing
    /// its buffer. Providers as in
    /// [`NoisyTopKWithGap::run_into`](crate::noisy_max::NoisyTopKWithGap::run_into).
    ///
    /// # Errors
    /// [`MechanismError::NonFiniteUtility`] if an answer is NaN or
    /// infinite, [`MechanismError::NotEnoughQueries`] if the workload has
    /// fewer than `k + 1` queries, and [`MechanismError::InvalidEpsilon`] if
    /// the per-query rate admits no discrete Laplace in `f64` (its decay
    /// ratio rounds to 1 or 0); all before any draw.
    pub fn run_into<P: DrawProvider>(
        &self,
        answers: &[f64],
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut TopKOutput,
    ) -> Result<(), MechanismError> {
        crate::answers::require_finite(answers)?;
        crate::answers::require_min_len(answers, self.k + 1)?;
        self.validate_lattice(answers);
        // Checked per run, not at construction: `delta` stays defined on
        // lattices too fine to sample.
        if DiscreteLaplace::new(self.unit_epsilon(), self.gamma).is_err() {
            return Err(MechanismError::InvalidEpsilon {
                value: self.epsilon,
            });
        }
        provider.begin();
        provider.discrete_fill_offset(answers, self.unit_epsilon(), self.gamma, &mut scratch.noisy);
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

impl AlignedMechanism for DiscreteNoisyTopKWithGap {
    type Input = QueryAnswers;
    type Output = TopKOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> TopKOutput {
        #[allow(clippy::expect_used)]
        self.run_with_source(input, source)
            // lint:allow(panic-freedom): checker replays pre-validated workloads; not a serving path
            .expect("alignment checker workloads are pre-validated")
    }

    /// Eq. (2) verbatim; all shifts are integer combinations of lattice
    /// points, so the aligned tape stays on the support.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &TopKOutput,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        let selected = output.indices();
        let mut max_d = f64::NEG_INFINITY;
        let mut max_dp = f64::NEG_INFINITY;
        for l in 0..q.len() {
            if !selected.contains(&l) {
                max_d = max_d.max(q[l] + tape.value(l));
                max_dp = max_dp.max(qp[l] + tape.value(l));
            }
        }
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
        // Lattice values compare exactly after identical integer shifts.
        a.items.len() == b.items.len()
            && a.items.iter().zip(&b.items).all(|(x, y)| {
                x.index == y.index
                    && (x.gap - y.gap).abs() <= 1e-9 * x.gap.abs().max(y.gap.abs()).max(1.0)
            })
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
        QueryAnswers::counting(vec![100.0, 40.0, 95.0, 80.0, 3.0, 60.0])
    }

    #[test]
    fn validation() {
        assert!(DiscreteNoisyTopKWithGap::new(0, 1.0, true).is_err());
        assert!(DiscreteNoisyTopKWithGap::new(1, 0.0, true).is_err());
        assert!(DiscreteNoisyTopKWithGap::with_gamma(1, 1.0, true, 0.0).is_err());
        // A rate whose decay ratio rounds to 1 or 0: a typed error, not a
        // panic mid-draw.
        for eps in [5e-324, 1e-300, 1e300] {
            let m = DiscreteNoisyTopKWithGap::new(2, eps, true).unwrap();
            assert_eq!(
                m.run(&workload(), &mut rng_from_seed(1)),
                Err(MechanismError::InvalidEpsilon { value: eps })
            );
        }
    }

    #[test]
    fn gaps_are_lattice_valued() {
        let m = DiscreteNoisyTopKWithGap::new(3, 1.0, true).unwrap();
        let mut rng = rng_from_seed(1);
        for _ in 0..100 {
            let out = m.run(&workload(), &mut rng).unwrap();
            for item in &out.items {
                assert!(item.gap >= 0.0);
                assert!(
                    (item.gap - item.gap.round()).abs() < 1e-9,
                    "gap {}",
                    item.gap
                );
            }
        }
    }

    #[test]
    fn delta_matches_appendix_bound_and_is_negligible_at_machine_epsilon() {
        let m = DiscreteNoisyTopKWithGap::new(5, 1.0, true).unwrap();
        // γ = 1, rate ε/k = 0.2: δ for 1000 queries is sizeable…
        assert!(m.delta(1000) > 0.1);
        // …while a machine-epsilon lattice is negligible even at n = 10⁶.
        let fine = DiscreteNoisyTopKWithGap::with_gamma(5, 1.0, true, 2f64.powi(-52)).unwrap();
        assert!(fine.delta(1_000_000) < 1e-3);
    }

    #[test]
    fn converges_to_continuous_behavior_on_fine_lattice() {
        // With γ tiny, the discrete mechanism's selection distribution must
        // approach the continuous one: compare top-1 hit rates.
        let answers = workload();
        let disc = DiscreteNoisyTopKWithGap::with_gamma(1, 1.0, true, 1e-6).unwrap();
        let cont = NoisyTopKWithGap::new(1, 1.0, true).unwrap();
        let mut rng = rng_from_seed(2);
        let n = 20_000;
        let d_hits = (0..n)
            .filter(|_| disc.run(&answers, &mut rng).unwrap().indices() == [0])
            .count();
        let c_hits = (0..n)
            .filter(|_| cont.run(&answers, &mut rng).unwrap().indices() == [0])
            .count();
        let diff = (d_hits as f64 - c_hits as f64).abs() / n as f64;
        assert!(diff < 0.02, "selection rates diverge: {d_hits} vs {c_hits}");
    }

    #[test]
    fn alignment_within_budget_integer_adjacency() {
        // Integer-valued adjacent workloads (counting-query deltas are 0/±1).
        let m = DiscreteNoisyTopKWithGap::new(2, 0.8, true).unwrap();
        let d = workload();
        let mut rng = rng_from_seed(3);
        for trial in 0..60 {
            // Round the random monotone perturbation to the lattice.
            let model = if trial % 2 == 0 {
                AdjacencyModel::MonotoneUp
            } else {
                AdjacencyModel::MonotoneDown
            };
            let p = Perturbation::random(model, d.len(), &mut rng);
            let deltas: Vec<f64> = p.deltas().iter().map(|x| x.round()).collect();
            let dp = d.perturbed(&deltas);
            let max = check_alignment_many(&m, &d, &dp, 15, &mut rng)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert!(max <= 0.8 + 1e-9, "cost {max}");
        }
    }

    #[test]
    fn non_finite_answer_is_rejected_before_any_draw() {
        // A NaN used to come back as the winner with a NaN gap, and two
        // infinite answers released `∞ - ∞`; both are now typed errors,
        // raised before the provider draws anything.
        let m = DiscreteNoisyTopKWithGap::new(1, 1.0, true).unwrap();
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
    fn unit_epsilon_halves_for_general_queries() {
        let mono = DiscreteNoisyTopKWithGap::new(4, 1.0, true).unwrap();
        let gen = DiscreteNoisyTopKWithGap::new(4, 1.0, false).unwrap();
        assert!((mono.unit_epsilon() - 0.25).abs() < 1e-15);
        assert!((gen.unit_epsilon() - 0.125).abs() < 1e-15);
    }
}
