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

use super::{optimal_threshold_share, AdaptiveOutcome, AdaptiveSvOutput, Branch};
use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, require_fraction, MechanismError};
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// Adaptive-Sparse-Vector-with-Gap (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSparseVector {
    k: usize,
    epsilon: f64,
    threshold: f64,
    theta: f64,
    monotonic: bool,
    sigma_multiplier: f64,
    answer_limit: Option<usize>,
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
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        Ok(Self {
            k,
            epsilon: require_epsilon(epsilon)?,
            threshold,
            theta: optimal_threshold_share(k, monotonic),
            monotonic,
            sigma_multiplier: 2.0,
            answer_limit: None,
        })
    }

    /// Overrides the budget-allocation hyperparameter `θ ∈ (0, 1)`.
    pub fn with_theta(mut self, theta: f64) -> Result<Self, MechanismError> {
        self.theta = require_fraction("theta", theta)?;
        Ok(self)
    }

    /// Overrides the top-branch margin, expressed in standard deviations of
    /// the top-branch noise (the paper fixes 2). Used by the σ ablation.
    pub fn with_sigma_multiplier(mut self, m: f64) -> Result<Self, MechanismError> {
        if !(m.is_finite() && m >= 0.0) {
            return Err(MechanismError::InvalidEpsilon { value: m });
        }
        self.sigma_multiplier = m;
        Ok(self)
    }

    /// Stops the mechanism after it has produced `limit` above-threshold
    /// answers even if budget remains (the Figure-4 protocol, which then
    /// reads off [`AdaptiveSvOutput::remaining_fraction`]).
    pub fn with_answer_limit(mut self, limit: usize) -> Self {
        self.answer_limit = Some(limit);
        self
    }

    /// The sizing parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The total privacy budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Threshold budget `ε₀ = θε`.
    pub fn epsilon0(&self) -> f64 {
        self.theta * self.epsilon
    }

    /// Baseline per-answer budget `ε₁ = (1-θ)ε/k`.
    pub fn epsilon1(&self) -> f64 {
        (1.0 - self.theta) * self.epsilon / self.k as f64
    }

    /// Cheap per-answer budget `ε₂ = ε₁/2`.
    pub fn epsilon2(&self) -> f64 {
        self.epsilon1() / 2.0
    }

    /// Sensitivity factor in the query-noise scales: 2 general, 1 monotone.
    fn noise_factor(&self) -> f64 {
        if self.monotonic {
            1.0
        } else {
            2.0
        }
    }

    /// Laplace scale of the top-branch noise `ξᵢ`.
    pub fn top_scale(&self) -> f64 {
        self.noise_factor() / self.epsilon2()
    }

    /// Laplace scale of the middle-branch noise `ηᵢ`.
    pub fn middle_scale(&self) -> f64 {
        self.noise_factor() / self.epsilon1()
    }

    /// The top-branch margin `σ` (multiplier × std of `Lap(top_scale)`).
    pub fn sigma(&self) -> f64 {
        self.sigma_multiplier * std::f64::consts::SQRT_2 * self.top_scale()
    }

    /// The single copy of Algorithm 2's branch and budget logic and its
    /// one provider-taking entry, writing into `out` (every field
    /// overwritten, buffers reused). Providers and bit-identity as in
    /// [`ClassicSparseVector::run_into`](super::ClassicSparseVector::run_into).
    ///
    /// Consumes `queries` lazily: the next answer is pulled only while the
    /// adaptive budget still covers a worst-case (`ε₁`) answer and the
    /// answer limit is not reached — queries after the halt are never
    /// observed. Noise comes in whole `(ξ, η)` pair blocks
    /// ([`DrawProvider::peek_pairs`]), iterated with `chunks_exact(2)` so
    /// the hot loop carries no per-query cursor arithmetic on blocked
    /// providers; each block's first query is pulled *before* the peek, so
    /// draw-exact providers never sample noise for a query that does not
    /// exist. Draw order (ξᵢ then ηᵢ, query by query) is identical on every
    /// provider.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut AdaptiveSvOutput,
    ) {
        let eps1 = self.epsilon1();
        let eps2 = self.epsilon2();
        let sigma = self.sigma();
        let scales = [self.top_scale(), self.middle_scale()];
        let cap = self.answer_limit.unwrap_or(usize::MAX);
        // Line 16's stopping product, identical on every path.
        let budget_cap = self.epsilon * (1.0 + 1e-12);
        provider.begin();
        let mut queries = queries.into_iter();
        // One outcome per (ξ, η) draw pair: pre-size from the provider's
        // consumption prediction (capped by the stream's upper bound when it
        // knows one) to skip the realloc chain on long streams.
        let predicted = provider.predicted_draws();
        let capacity = (predicted / 2 + usize::from(predicted > 0))
            .min(queries.size_hint().1.unwrap_or(usize::MAX));
        let noisy_threshold = self.threshold + provider.next(1.0 / self.epsilon0());

        out.outcomes.clear();
        out.outcomes.reserve(capacity);
        let mut spent = self.epsilon0();
        let mut answered = 0usize;
        let mut done = false;
        while !done && answered < cap {
            // Pull the block's first query before peeking: a draw-exact
            // provider must not draw noise for a query that never arrives.
            let Some(first) = queries.next() else { break };
            let mut pending = Some(first);
            let mut taken = 0usize;
            let pairs = provider.peek_pairs(scales);
            for pair in pairs.chunks_exact(2) {
                let Some(q) = pending.take().or_else(|| queries.next()) else {
                    done = true;
                    break;
                };
                // Both noises drawn unconditionally, exactly like line 7 of
                // Algorithm 2: the draw structure must not depend on data.
                let xi = pair[0];
                let eta = pair[1];
                taken += 2;
                let top_gap = q + xi - noisy_threshold;
                let mid_gap = q + eta - noisy_threshold;
                let outcome = if top_gap >= sigma {
                    spent += eps2;
                    answered += 1;
                    AdaptiveOutcome::Above {
                        gap: top_gap,
                        branch: Branch::Top,
                        cost: eps2,
                    }
                } else if mid_gap >= 0.0 {
                    spent += eps1;
                    answered += 1;
                    AdaptiveOutcome::Above {
                        gap: mid_gap,
                        branch: Branch::Middle,
                        cost: eps1,
                    }
                } else {
                    AdaptiveOutcome::Below
                };
                out.outcomes.push(outcome);
                // Line 16 + answer limit: stop when a worst-case answer no
                // longer fits or the limit is reached — checked before the
                // next query pull, so no query is observed past the halt.
                if spent + eps1 > budget_cap || answered >= cap {
                    done = true;
                    break;
                }
            }
            provider.consume(taken);
        }
        out.spent = spent;
        out.epsilon = self.epsilon;
    }

    fn run_with_source(
        &self,
        answers: &QueryAnswers,
        source: &mut dyn NoiseSource,
    ) -> AdaptiveSvOutput {
        let mut out = AdaptiveSvOutput::default();
        self.run_into(
            answers.values().iter().copied(),
            &mut SourceDraws::new(source),
            &mut out,
        );
        out
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> AdaptiveSvOutput {
        self.run_with_source(answers, &mut SamplingSource::new(rng))
    }
}

impl AlignedMechanism for AdaptiveSparseVector {
    type Input = QueryAnswers;
    type Output = AdaptiveSvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> AdaptiveSvOutput {
        self.run_with_source(input, source)
    }

    /// Equation (3), with the footnote-6 monotone refinement: threshold up
    /// by 1 and the *winning* noise of each above answer shifted so its gap
    /// is exactly preserved; losing branches keep their noise and stay
    /// losing because the threshold rose.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &AdaptiveSvOutput,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        let favorable = self.monotonic && q.iter().zip(qp).all(|(a, b)| a >= b);
        let threshold_shift = if favorable { 0.0 } else { 1.0 };
        tape.aligned_by(|draw_idx, _| {
            if draw_idx == 0 {
                return threshold_shift;
            }
            // Draws 1.. come in (ξᵢ, ηᵢ) pairs for query i.
            let qi = (draw_idx - 1) / 2;
            let is_xi = (draw_idx - 1) % 2 == 0;
            let shift = threshold_shift + q[qi] - qp[qi];
            match output.outcomes.get(qi) {
                Some(AdaptiveOutcome::Above {
                    branch: Branch::Top,
                    ..
                }) if is_xi => shift,
                Some(AdaptiveOutcome::Above {
                    branch: Branch::Middle,
                    ..
                }) if !is_xi => shift,
                _ => 0.0,
            }
        })
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn outputs_match(&self, a: &AdaptiveSvOutput, b: &AdaptiveSvOutput) -> bool {
        a.outcomes.len() == b.outcomes.len()
            && a.outcomes
                .iter()
                .zip(&b.outcomes)
                .all(|(x, y)| match (x, y) {
                    (AdaptiveOutcome::Below, AdaptiveOutcome::Below) => true,
                    (
                        AdaptiveOutcome::Above {
                            gap: gx,
                            branch: bx,
                            cost: cx,
                        },
                        AdaptiveOutcome::Above {
                            gap: gy,
                            branch: by,
                            cost: cy,
                        },
                    ) => {
                        bx == by
                            && cx == cy
                            && (gx - gy).abs() <= 1e-9 * gx.abs().max(gy.abs()).max(1.0)
                    }
                    _ => false,
                })
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
        assert_eq!(out.answered_via(Branch::Middle), 0);
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
            top += out.answered_via(Branch::Top);
            middle += out.answered_via(Branch::Middle);
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
            assert_eq!(out.answered_via(Branch::Top), 0);
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
