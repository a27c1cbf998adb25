//! Multi-branch Adaptive Sparse Vector — the extension §6.1 sketches:
//! *"Algorithm 2 can be easily extended with multiple additional 'if'
//! branches. For simplicity we do not include such variations."* We include
//! it, and it is the one adaptive SVT core: Algorithm 2
//! ([`AdaptiveSparseVector`](super::AdaptiveSparseVector)) is this ladder
//! with two rungs, run through the same loop, alignment and output
//! comparison.
//!
//! With `m` branches the per-answer budgets form a geometric ladder
//! `ε₁/2^{m-1} < … < ε₁/2 < ε₁`: each query is first tested with the
//! cheapest (noisiest) branch against a 2-standard-deviation margin, then
//! successively more expensive branches, ending with the margin-0 baseline
//! test. A query `2^{m-1}`× … far above the threshold costs `ε₁/2^{m-1}`,
//! so the same budget can answer up to `2^{m-1}·k` such queries.
//!
//! `m = 1` recovers Sparse-Vector-with-Gap's decisions; `m = 2` is
//! Algorithm 2, whose two settings — the margin multiplier and the answer
//! limit — the ladder carries privately.
//!
//! The local alignment generalizes Eq. (3) verbatim: the threshold noise
//! moves up by one, losing branch noises stay, and the single winning
//! branch noise of each answer absorbs `1 + qᵢ - q'ᵢ`; the Definition-6
//! cost telescopes to `ε₀ + Σ (winning branch budgets) ≤ ε`.

use super::{optimal_threshold_share, AdaptiveOutcome, AdaptiveSvOutput};
use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws, MAX_TUPLE};
use crate::error::{require_epsilon, require_fraction, MechanismError};
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// Adaptive Sparse Vector with `m ≥ 1` test branches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiBranchAdaptiveSparseVector {
    k: usize,
    epsilon: f64,
    threshold: f64,
    theta: f64,
    monotonic: bool,
    branches: usize,
    /// Margin of every rung but the baseline, in standard deviations of
    /// the rung's noise (the paper fixes 2).
    margin_multiplier: f64,
    /// Stop after this many above-threshold answers, budget or not.
    answer_limit: Option<usize>,
}

impl MultiBranchAdaptiveSparseVector {
    /// Maximum supported branch count: one draw per rung, so the deepest
    /// ladder is the widest tuple a provider serves. The ladder's noise
    /// scale grows as `2^{m-1}`, so deeper ladders are useless in practice
    /// and risk under/overflow in the margins.
    pub const MAX_BRANCHES: usize = MAX_TUPLE;

    /// Creates the mechanism. `branches = 1` is Sparse-Vector-with-Gap,
    /// `branches = 2` is Algorithm 2.
    pub fn new(
        k: usize,
        epsilon: f64,
        threshold: f64,
        monotonic: bool,
        branches: usize,
    ) -> Result<Self, MechanismError> {
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        if branches == 0 || branches > Self::MAX_BRANCHES {
            return Err(MechanismError::InvalidParameter {
                name: "branches",
                value: branches as f64,
                requirement: "must be in 1..=MAX_BRANCHES",
            });
        }
        Ok(Self {
            k,
            epsilon: require_epsilon(epsilon)?,
            threshold,
            theta: optimal_threshold_share(k, monotonic),
            monotonic,
            branches,
            margin_multiplier: 2.0,
            answer_limit: None,
        })
    }

    /// Overrides the budget-allocation hyperparameter `θ`.
    pub fn with_theta(mut self, theta: f64) -> Result<Self, MechanismError> {
        self.theta = require_fraction("theta", theta)?;
        Ok(self)
    }

    /// Sets the margin multiplier (validated by the caller).
    pub(super) fn set_margin_multiplier(&mut self, multiplier: f64) {
        self.margin_multiplier = multiplier;
    }

    /// Sets the answer limit.
    pub(super) fn set_answer_limit(&mut self, limit: usize) {
        self.answer_limit = Some(limit);
    }

    /// Number of branches `m`.
    pub fn branches(&self) -> usize {
        self.branches
    }

    /// The sizing parameter `k`.
    pub(super) fn k(&self) -> usize {
        self.k
    }

    /// The public threshold `T`.
    pub(super) fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The total privacy budget `ε` one run costs.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Threshold budget `ε₀ = θε`.
    pub fn epsilon0(&self) -> f64 {
        self.theta * self.epsilon
    }

    /// Baseline per-answer budget `ε₁ = (1-θ)ε/k` (the most expensive rung).
    pub fn epsilon1(&self) -> f64 {
        (1.0 - self.theta) * self.epsilon / self.k as f64
    }

    /// Budget of branch `b` (0 = cheapest): `ε₁ / 2^{m-1-b}`.
    pub(super) fn branch_budget(&self, b: usize) -> f64 {
        // lint:allow(panic-freedom): branch index is an internal loop variable, never user input
        assert!(b < self.branches, "branch index out of range");
        self.epsilon1() / (1u64 << (self.branches - 1 - b)) as f64
    }

    /// Laplace scale of branch `b`'s noise: `c / branch_budget(b)`.
    pub(super) fn branch_scale(&self, b: usize) -> f64 {
        let c = if self.monotonic { 1.0 } else { 2.0 };
        c / self.branch_budget(b)
    }

    /// Acceptance margin of branch `b`: the margin multiplier times the
    /// standard deviation of its noise for every rung except the
    /// baseline, which uses margin 0.
    pub(super) fn branch_margin(&self, b: usize) -> f64 {
        if b + 1 == self.branches {
            0.0
        } else {
            self.margin_multiplier * std::f64::consts::SQRT_2 * self.branch_scale(b)
        }
    }

    /// The single copy of the branch-ladder logic and its one
    /// provider-taking entry, writing into `out` (every field overwritten,
    /// buffers reused). Providers and bit-identity as in
    /// [`ClassicSparseVector::run_into`](super::ClassicSparseVector::run_into).
    ///
    /// Consumes `queries` lazily, pulling the next answer only while the
    /// remaining budget still covers a worst-case (`ε₁`) answer and the
    /// answer limit is not reached — queries after the halt are never
    /// observed. Each query consumes one whole `m`-tuple of draws
    /// ([`DrawProvider::peek_tuples`]), served in blocks on buffered
    /// providers and iterated with `chunks_exact(m)`; each block's first
    /// query is pulled *before* the peek, so draw-exact providers never
    /// sample noise for a query that does not exist. All `m` draws of a
    /// tuple are consumed unconditionally (data-independent draw
    /// structure); the ladder scan stops at the first winning branch. Draw
    /// order (branch `0..m` per query, query by query) is identical on
    /// every provider.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut AdaptiveSvOutput,
    ) {
        let m = self.branches;
        let eps1 = self.epsilon1();
        let cap = self.answer_limit.unwrap_or(usize::MAX);
        let budget_cap = self.epsilon * (1.0 + 1e-12);
        // Per-branch constants hoisted out of the loop. Stack arrays
        // (m <= MAX_BRANCHES) keep the fast path allocation-free apart from
        // the output vector.
        let mut scales = [0.0f64; Self::MAX_BRANCHES];
        let mut margins = [0.0f64; Self::MAX_BRANCHES];
        let mut budgets = [0.0f64; Self::MAX_BRANCHES];
        for b in 0..m {
            scales[b] = self.branch_scale(b);
            margins[b] = self.branch_margin(b);
            budgets[b] = self.branch_budget(b);
        }
        provider.begin();
        let mut queries = queries.into_iter();
        // One outcome per m-tuple of draws: pre-size from the provider's
        // consumption prediction (capped by the stream's upper bound when it
        // knows one).
        let predicted = provider.predicted_draws();
        let capacity = (predicted / m + usize::from(predicted > 0))
            .min(queries.size_hint().1.unwrap_or(usize::MAX));
        let noisy_threshold = self.threshold + provider.next(1.0 / self.epsilon0());
        out.outcomes.clear();
        out.outcomes.reserve(capacity);
        let mut spent = self.epsilon0();
        let mut answered = 0usize;
        let mut done = false;
        while !done && answered < cap {
            // Pull the block's first query before peeking (draw-exactness).
            let Some(first) = queries.next() else { break };
            let mut pending = Some(first);
            let mut taken = 0usize;
            let tuples = provider.peek_tuples(&scales[..m]);
            for tuple in tuples.chunks_exact(m) {
                let Some(q) = pending.take().or_else(|| queries.next()) else {
                    done = true;
                    break;
                };
                taken += m;
                let mut outcome = AdaptiveOutcome::Below;
                for b in 0..m {
                    let gap = q + tuple[b] - noisy_threshold;
                    if gap >= margins[b] {
                        let cost = budgets[b];
                        spent += cost;
                        answered += 1;
                        // b < MAX_BRANCHES, which fits a u8 (asserted at
                        // compile time in `output.rs`'s tests).
                        let branch = b as u8;
                        outcome = AdaptiveOutcome::Above { branch, gap, cost };
                        break;
                    }
                }
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

impl AlignedMechanism for MultiBranchAdaptiveSparseVector {
    type Input = QueryAnswers;
    type Output = AdaptiveSvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> AdaptiveSvOutput {
        self.run_with_source(input, source)
    }

    /// Equation (3), with the footnote-6 monotone refinement: threshold up
    /// by 1 and the *winning* rung's noise of each above answer shifted so
    /// its gap is exactly preserved; losing rungs keep their noise and stay
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
        let m = self.branches;
        tape.aligned_by(|draw_idx, _| {
            if draw_idx == 0 {
                return threshold_shift;
            }
            // Draws 1.. come in m-tuples, one per query.
            let qi = (draw_idx - 1) / m;
            let branch = (draw_idx - 1) % m;
            match output.outcomes.get(qi) {
                Some(AdaptiveOutcome::Above { branch: won, .. }) if usize::from(*won) == branch => {
                    threshold_shift + q[qi] - qp[qi]
                }
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
                            branch: bx,
                            gap: gx,
                            cost: cx,
                        },
                        AdaptiveOutcome::Above {
                            branch: by,
                            gap: gy,
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
    use crate::draw::ScratchDraws;
    use crate::scratch::SvtScratch;
    use crate::sparse_vector::{AdaptiveSparseVector, SparseVectorWithGap};
    use free_gap_alignment::checker::check_alignment_many;
    use free_gap_alignment::{AdjacencyModel, Perturbation};
    use free_gap_noise::rng::rng_from_seed;

    fn mech(k: usize, branches: usize, threshold: f64) -> MultiBranchAdaptiveSparseVector {
        MultiBranchAdaptiveSparseVector::new(k, 0.7, threshold, true, branches).unwrap()
    }

    #[test]
    fn validation() {
        assert!(MultiBranchAdaptiveSparseVector::new(0, 0.7, 0.0, true, 2).is_err());
        assert!(MultiBranchAdaptiveSparseVector::new(1, 0.7, 0.0, true, 0).is_err());
        assert!(MultiBranchAdaptiveSparseVector::new(1, 0.7, 0.0, true, 17).is_err());
        assert!(MultiBranchAdaptiveSparseVector::new(1, 0.0, 0.0, true, 2).is_err());
    }

    #[test]
    fn budget_ladder_is_geometric() {
        let m = mech(4, 3, 10.0);
        let e1 = m.epsilon1();
        assert!((m.branch_budget(2) - e1).abs() < 1e-15);
        assert!((m.branch_budget(1) - e1 / 2.0).abs() < 1e-15);
        assert!((m.branch_budget(0) - e1 / 4.0).abs() < 1e-15);
        assert_eq!(m.branch_margin(2), 0.0);
        assert!(m.branch_margin(0) > m.branch_margin(1));
    }

    #[test]
    fn two_branches_equal_algorithm_2_on_shared_noise() {
        // Algorithm 2 is the two-rung ladder, so on one stream the two
        // agree bit for bit: at the default settings, and with a
        // non-default σ multiplier and an answer limit, which the wrapper
        // must route to the ladder. Both the reference path and the
        // blocked ScratchDraws tape.
        let answers = QueryAnswers::counting(vec![100.0, 5.0, 90.0, 60.0, 4.0, 95.0, 3.0]);
        let alg2 = AdaptiveSparseVector::new(3, 0.7, 58.0, true).unwrap();
        let mut tuned = mech(3, 2, 58.0);
        tuned.set_margin_multiplier(0.5);
        tuned.set_answer_limit(2);
        let tuned_alg2 = alg2
            .with_sigma_multiplier(0.5)
            .unwrap()
            .with_answer_limit(2);
        let mut scratch = SvtScratch::new();
        let mut limit_bound = false;
        for (multi, alg2) in [(mech(3, 2, 58.0), alg2), (tuned, tuned_alg2)] {
            for seed in 0..60 {
                let a = multi.run(&answers, &mut rng_from_seed(seed));
                assert_eq!(
                    a,
                    alg2.run(&answers, &mut rng_from_seed(seed)),
                    "seed {seed}"
                );
                let mut fast = [AdaptiveSvOutput::default(), AdaptiveSvOutput::default()];
                multi.run_into(
                    answers.values().iter().copied(),
                    &mut ScratchDraws::new(&mut scratch, &mut rng_from_seed(seed)),
                    &mut fast[0],
                );
                alg2.run_into(
                    answers.values().iter().copied(),
                    &mut ScratchDraws::new(&mut scratch, &mut rng_from_seed(seed)),
                    &mut fast[1],
                );
                assert_eq!(fast[0], fast[1], "seed {seed}");
                assert_eq!(fast[0], a, "seed {seed}");
                // Two answers never exhaust a k = 3 budget, so a tuned run
                // that stops there with queries left was stopped by the limit.
                limit_bound |= multi == tuned && a.answered() == 2 && a.outcomes.len() < 7;
            }
        }
        assert!(limit_bound, "the answer limit never stopped a run early");
    }

    #[test]
    fn one_branch_equals_sparse_vector_with_gap_decisions() {
        // m = 1: single margin-0 test at budget ε₁ — Wang et al.'s mechanism
        // with per-answer budget ε₁ and the same stopping rule.
        let answers = QueryAnswers::counting(vec![100.0, 5.0, 90.0, 60.0, 4.0, 95.0]);
        let multi = mech(3, 1, 58.0);
        let svg = SparseVectorWithGap::new(3, 0.7, 58.0, true).unwrap();
        // Same θ split and same noise-draw structure (1 threshold + 1 per
        // query), so identical streams give identical decisions and gaps.
        for seed in 0..60 {
            let a = multi.run(&answers, &mut rng_from_seed(seed));
            let b = svg.run(&answers, &mut rng_from_seed(seed));
            let a_gaps = a.gaps();
            assert_eq!(a_gaps.len(), b.gaps().len(), "seed {seed}");
            for ((ia, ga), (ib, gb)) in a_gaps.iter().zip(b.gaps().iter()) {
                assert_eq!(ia, ib);
                assert!((ga - gb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn deeper_ladders_answer_more_far_above_queries() {
        let answers = QueryAnswers::counting(vec![1e12; 400]);
        let mut rng = rng_from_seed(1);
        let mut last = 0usize;
        for m in [1usize, 2, 3, 4] {
            let out = mech(5, m, 0.0).run(&answers, &mut rng);
            let answered = out.answered();
            assert!(
                answered >= last,
                "m = {m}: answered {answered} < previous {last}"
            );
            last = answered;
        }
        // m = 4 should approach 2^3·k = 40 answers.
        assert!(last >= 30, "m = 4 answered only {last}");
    }

    #[test]
    fn spends_at_most_epsilon() {
        let answers = QueryAnswers::counting(vec![12.0; 200]);
        let m = mech(4, 3, 10.0);
        let mut rng = rng_from_seed(3);
        for _ in 0..100 {
            let out = m.run(&answers, &mut rng);
            assert!(out.spent <= 0.7 + 1e-9, "spent {}", out.spent);
        }
    }

    #[test]
    fn alignment_within_budget_all_branch_counts() {
        let d = QueryAnswers::counting(vec![100.0, 5.0, 90.0, 4.0, 95.0, 3.0]);
        let mut rng = rng_from_seed(4);
        for m in [1usize, 2, 3, 4] {
            let mech = mech(2, m, 60.0);
            for model in [AdjacencyModel::MonotoneUp, AdjacencyModel::MonotoneDown] {
                for _ in 0..15 {
                    let p = Perturbation::random(model, d.len(), &mut rng);
                    let dp = d.perturbed(p.deltas());
                    let max = check_alignment_many(&mech, &d, &dp, 10, &mut rng)
                        .unwrap_or_else(|e| panic!("m = {m}: {e}"));
                    assert!(max <= 0.7 + 1e-9, "m = {m}: cost {max}");
                }
            }
        }
    }

    #[test]
    fn alignment_general_queries() {
        let d = QueryAnswers::general(vec![100.0, 5.0, 90.0, 4.0, 95.0]);
        let mech = MultiBranchAdaptiveSparseVector::new(2, 0.8, 60.0, false, 3).unwrap();
        let mut rng = rng_from_seed(5);
        for _ in 0..30 {
            let p = Perturbation::random(AdjacencyModel::General, d.len(), &mut rng);
            let dp = d.perturbed(p.deltas());
            let max = check_alignment_many(&mech, &d, &dp, 10, &mut rng).unwrap();
            assert!(max <= 0.8 + 1e-9, "cost {max}");
        }
    }
}
