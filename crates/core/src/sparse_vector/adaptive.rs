//! Adaptive-Sparse-Vector-with-Gap — the paper's Algorithm 2.
//!
//! The insight: SVT pays the *same* per-answer budget whether a query barely
//! clears the threshold or towers over it. Algorithm 2 first tests each
//! query with *much more* noise (`Lap(2/ε₂)`, `ε₂ = ε₁/2`) against a safety
//! margin `σ`; only when that cheap test fails does it fall back to the
//! baseline test (`Lap(2/ε₁)`). Queries answered by the cheap branch cost
//! `ε₂ = ε₁/2` — so if every answer is far above the threshold, the same
//! total budget buys **twice** as many answers. Budget accounting is inner
//! and adaptive: the loop stops when the remaining budget cannot cover a
//! worst-case (`ε₁`) answer.
//!
//! Budget layout (line 2 of Algorithm 2), driven by the hyperparameter
//! `θ ∈ (0,1)`:
//!
//! ```text
//! ε₀ = θε                (threshold noise, Lap(1/ε₀))
//! ε₁ = (1-θ)ε / k        (baseline per-answer budget)
//! ε₂ = ε₁ / 2            (cheap per-answer budget)
//! σ  = 2·std(Lap(2/ε₂)) = 4√2/ε₂
//! ```
//!
//! For monotone workloads the query noises improve to `Lap(1/ε₂)`,
//! `Lap(1/ε₁)` (end of §6.1) and `σ = 2√2/ε₂`.
//!
//! Algorithm 2 is the two-rung
//! [`MultiBranchAdaptiveSparseVector`]: rung 0 is the top branch (`ξᵢ`
//! against `σ`), rung 1 the middle branch (`ηᵢ` against 0). This type is a
//! thin wrapper that builds that ladder and names its quantities; the
//! loop, the Eq. (3) alignment and the output comparison are the ladder's.

use super::{AdaptiveSvOutput, MultiBranchAdaptiveSparseVector};
use crate::answers::QueryAnswers;
use crate::draw::DrawProvider;
use crate::error::MechanismError;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape};
use rand::rngs::StdRng;

/// Adaptive-Sparse-Vector-with-Gap (Algorithm 2): the two-rung ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSparseVector {
    inner: MultiBranchAdaptiveSparseVector,
}

impl AdaptiveSparseVector {
    /// Creates the mechanism: budget `epsilon`, public `threshold`, and `k`
    /// = the minimum number of above-threshold answers the budget is sized
    /// for (the mechanism may answer *more* when the cheap branch fires).
    ///
    /// `θ` defaults to the experiments' `1/(1 + k^{2/3})` (monotone) or
    /// `1/(1 + (2k)^{2/3})` (general).
    pub fn new(
        k: usize,
        epsilon: f64,
        threshold: f64,
        monotonic: bool,
    ) -> Result<Self, MechanismError> {
        Ok(Self {
            inner: MultiBranchAdaptiveSparseVector::new(k, epsilon, threshold, monotonic, 2)?,
        })
    }

    /// Overrides the budget-allocation hyperparameter `θ ∈ (0, 1)`.
    pub fn with_theta(mut self, theta: f64) -> Result<Self, MechanismError> {
        self.inner = self.inner.with_theta(theta)?;
        Ok(self)
    }

    /// Overrides the top-branch margin, expressed in standard deviations of
    /// the top-branch noise (the paper fixes 2). Used by the σ ablation.
    pub fn with_sigma_multiplier(mut self, m: f64) -> Result<Self, MechanismError> {
        if !(m.is_finite() && m >= 0.0) {
            return Err(MechanismError::InvalidParameter {
                name: "sigma_multiplier",
                value: m,
                requirement: "must be non-negative and finite",
            });
        }
        self.inner.set_margin_multiplier(m);
        Ok(self)
    }

    /// Stops the mechanism after it has produced `limit` above-threshold
    /// answers even if budget remains (the Figure-4 protocol, which then
    /// reads off [`AdaptiveSvOutput::remaining_fraction`]).
    pub fn with_answer_limit(mut self, limit: usize) -> Self {
        self.inner.set_answer_limit(limit);
        self
    }

    /// The sizing parameter `k`.
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.inner.threshold()
    }

    /// The total privacy budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    /// Threshold budget `ε₀ = θε`.
    pub fn epsilon0(&self) -> f64 {
        self.inner.epsilon0()
    }

    /// Baseline per-answer budget `ε₁ = (1-θ)ε/k`.
    pub fn epsilon1(&self) -> f64 {
        self.inner.epsilon1()
    }

    /// Cheap per-answer budget `ε₂ = ε₁/2`: rung 0's budget.
    pub fn epsilon2(&self) -> f64 {
        self.inner.branch_budget(0)
    }

    /// Laplace scale of the top-branch noise `ξᵢ`.
    pub fn top_scale(&self) -> f64 {
        self.inner.branch_scale(0)
    }

    /// Laplace scale of the middle-branch noise `ηᵢ`.
    pub fn middle_scale(&self) -> f64 {
        self.inner.branch_scale(1)
    }

    /// The top-branch margin `σ` (multiplier × std of `Lap(top_scale)`).
    pub fn sigma(&self) -> f64 {
        self.inner.branch_margin(0)
    }

    /// Algorithm 2's one provider-taking entry: the two-rung
    /// [`MultiBranchAdaptiveSparseVector::run_into`], whose draw shape is
    /// one `(ξᵢ, ηᵢ)` pair per query. Lazy consumption, the answer limit,
    /// bit-identity across providers and the finite-answer precondition are
    /// as documented there.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut AdaptiveSvOutput,
    ) {
        self.inner.run_into(queries, provider, out);
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> AdaptiveSvOutput {
        self.inner.run(answers, rng)
    }
}

impl AlignedMechanism for AdaptiveSparseVector {
    type Input = QueryAnswers;
    type Output = AdaptiveSvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> AdaptiveSvOutput {
        AlignedMechanism::run(&self.inner, input, source)
    }

    /// The ladder's Eq. (3) alignment at `m = 2`.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &AdaptiveSvOutput,
    ) -> NoiseTape {
        self.inner.align(input, neighbor, tape, output)
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    fn outputs_match(&self, a: &AdaptiveSvOutput, b: &AdaptiveSvOutput) -> bool {
        self.inner.outputs_match(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_alignment::checker::check_alignment_many;
    use free_gap_alignment::{AdjacencyModel, Perturbation};
    use free_gap_noise::rng::rng_from_seed;

    fn mech(k: usize, eps: f64, t: f64) -> AdaptiveSparseVector {
        AdaptiveSparseVector::new(k, eps, t, true).unwrap()
    }

    #[test]
    fn budget_layout_matches_algorithm_2() {
        let m = mech(4, 0.7, 50.0).with_theta(0.2).unwrap();
        assert!((m.epsilon0() - 0.14).abs() < 1e-12);
        assert!((m.epsilon1() - 0.56 / 4.0).abs() < 1e-12);
        assert!((m.epsilon2() - 0.56 / 8.0).abs() < 1e-12);
        // σ = 2·√2·(1/ε₂) for monotone workloads.
        assert!((m.sigma() - 2.0 * std::f64::consts::SQRT_2 / m.epsilon2()).abs() < 1e-9);
        // general σ = 2·√2·(2/ε₂) = 4√2/ε₂, the paper's constant.
        let g = AdaptiveSparseVector::new(4, 0.7, 50.0, false)
            .unwrap()
            .with_theta(0.2)
            .unwrap();
        assert!((g.sigma() - 4.0 * std::f64::consts::SQRT_2 / g.epsilon2()).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(AdaptiveSparseVector::new(0, 1.0, 0.0, true).is_err());
        assert!(AdaptiveSparseVector::new(1, -1.0, 0.0, true).is_err());
        assert!(mech(1, 1.0, 0.0).with_theta(0.0).is_err());
        assert!(mech(1, 1.0, 0.0).with_sigma_multiplier(-1.0).is_err());
    }

    #[test]
    fn spends_at_most_epsilon() {
        let m = mech(3, 0.7, 10.0);
        let answers = QueryAnswers::counting(vec![15.0; 100]); // everything near T
        let mut rng = rng_from_seed(1);
        for _ in 0..200 {
            let out = m.run(&answers, &mut rng);
            assert!(out.spent <= 0.7 + 1e-9, "spent {}", out.spent);
        }
    }

    #[test]
    fn budget_guarantees_at_least_k_answers() {
        // With answers available, the sizing guarantees >= k ⊤s before stop.
        let m = mech(3, 0.7, 10.0);
        let answers = QueryAnswers::counting(vec![1000.0; 100]); // far above
        let mut rng = rng_from_seed(2);
        for _ in 0..100 {
            let out = m.run(&answers, &mut rng);
            assert!(out.answered() >= 3, "answered only {}", out.answered());
        }
    }

    #[test]
    fn far_above_queries_double_the_answers() {
        // All queries miles above T: the top branch fires, each costs ε₂ =
        // ε₁/2, so the mechanism answers ~2k before exhausting the budget.
        let m = mech(5, 0.7, 10.0);
        let answers = QueryAnswers::counting(vec![1e7; 100]);
        let mut rng = rng_from_seed(3);
        let out = m.run(&answers, &mut rng);
        assert_eq!(out.answered_via(1), 0);
        assert!(out.answered() >= 9, "answered {}", out.answered());
        assert!(out.answered() <= 11);
    }

    #[test]
    fn near_threshold_queries_use_middle_branch() {
        let m = mech(5, 0.7, 1000.0);
        // Queries just at the threshold: the σ margin blocks the top branch.
        let answers = QueryAnswers::counting(vec![1000.0; 100]);
        let mut rng = rng_from_seed(4);
        let mut top = 0;
        let mut middle = 0;
        for _ in 0..50 {
            let out = m.run(&answers, &mut rng);
            top += out.answered_via(0);
            middle += out.answered_via(1);
        }
        assert!(middle > top * 5, "middle {middle} vs top {top}");
    }

    #[test]
    fn answer_limit_stops_early_leaving_budget() {
        let m = mech(10, 0.7, 10.0).with_answer_limit(10);
        let answers = QueryAnswers::counting(vec![1e7; 200]);
        let out = m.run(&answers, &mut rng_from_seed(5));
        assert_eq!(out.answered(), 10);
        // All answers via the cheap branch => ~half the query budget remains.
        assert!(
            out.remaining_fraction() > 0.3,
            "remaining fraction {}",
            out.remaining_fraction()
        );
    }

    #[test]
    fn recovers_sparse_vector_with_gap_when_sigma_huge() {
        // An effectively infinite σ disables the top branch: decisions then
        // follow the middle branch only, which is Wang et al.'s
        // Sparse-Vector-with-Gap (§6.1: "if we set σ = ∞, we recover ...").
        let m = mech(3, 0.7, 50.0).with_sigma_multiplier(1e12).unwrap();
        let answers = QueryAnswers::counting(vec![100.0, 5.0, 90.0, 4.0, 95.0]);
        let mut rng = rng_from_seed(6);
        for _ in 0..50 {
            let out = m.run(&answers, &mut rng);
            assert_eq!(out.answered_via(0), 0);
        }
    }

    #[test]
    fn alignment_monotone_both_directions() {
        let m = mech(2, 0.8, 60.0);
        let d = QueryAnswers::counting(vec![100.0, 5.0, 90.0, 4.0, 95.0, 3.0]);
        let mut rng = rng_from_seed(7);
        for model in [AdjacencyModel::MonotoneUp, AdjacencyModel::MonotoneDown] {
            for _ in 0..25 {
                let p = Perturbation::random(model, d.len(), &mut rng);
                let dp = d.perturbed(p.deltas());
                let max = check_alignment_many(&m, &d, &dp, 15, &mut rng).unwrap();
                assert!(max <= 0.8 + 1e-9, "cost {max} under {model:?}");
            }
        }
    }

    #[test]
    fn alignment_general_queries() {
        let m = AdaptiveSparseVector::new(2, 0.8, 60.0, false).unwrap();
        let d = QueryAnswers::general(vec![100.0, 5.0, 90.0, 4.0, 95.0, 3.0]);
        let mut rng = rng_from_seed(8);
        for _ in 0..40 {
            let p = Perturbation::random(AdjacencyModel::General, d.len(), &mut rng);
            let dp = d.perturbed(p.deltas());
            let max = check_alignment_many(&m, &d, &dp, 15, &mut rng).unwrap();
            assert!(max <= 0.8 + 1e-9, "cost {max}");
        }
    }
}
