//! Multi-branch Adaptive Sparse Vector — the extension §6.1 sketches:
//! *"Algorithm 2 can be easily extended with multiple additional 'if'
//! branches. For simplicity we do not include such variations."* We include
//! it, and its loop is the one loop of the SVT family: Algorithm
//! 2 ([`AdaptiveSparseVector`](super::AdaptiveSparseVector)) is the ladder
//! with two rungs, Sparse-Vector-with-Gap
//! ([`SparseVectorWithGap`](super::SparseVectorWithGap)) the ladder with one
//! rung, classic SVT ([`ClassicSparseVector`](super::ClassicSparseVector))
//! that one-rung run with its gaps withheld, and
//! [`DiscreteSparseVectorWithGap`](super::DiscreteSparseVectorWithGap) the
//! one-rung run over discrete Laplace draws on `{kγ}`, at its own rates.
//!
//! With `m` branches the per-answer budgets form a geometric ladder
//! `ε₁/2^{m-1} < … < ε₁/2 < ε₁`: each query is first tested with the
//! cheapest (noisiest) branch against a 2-standard-deviation margin, then
//! successively more expensive branches, ending with the margin-0 baseline
//! test, so the same budget can answer up to `2^{m-1}·k` far-above
//! queries. The stop rule counts exact budget units: rung `b` costs `2^b`
//! units, a run holds `k·2^{m-1}`, and the ladder stops once the units
//! left cannot cover a baseline answer — at `m = 1`, after exactly `k`
//! answers. The `f64` [`AdaptiveSvOutput::spent`] is reported, never
//! compared.
//!
//! `new(.., 1)` makes Sparse-Vector-with-Gap's decisions, with gaps equal
//! to within rounding: its rung scale is `c/(ε₁/2^{m-1})`, while
//! Sparse-Vector-with-Gap hands the loop its own `c·k/ε₂`. `m = 2` is
//! Algorithm 2, whose margin multiplier and answer limit the ladder
//! carries privately.
//!
//! With a [bounded](crate::draw::DrawProvider::bounded) provider the feed
//! step prunes: a query that no rung could accept even at that rung's
//! largest draw is `⊥` without a peek, and its draws are skipped (see
//! [`MultiBranchAdaptiveSparseVector::run_into`]). A run's time then also
//! depends on how many answers lie within reach of the threshold.
//!
//! The local alignment generalizes Eq. (3) verbatim: the threshold noise
//! moves up by one (one lattice step `γ` in the discrete family), losing
//! branch noises stay, and the single winning branch noise of each answer
//! absorbs `1 + qᵢ - q'ᵢ`; the Definition-6 cost telescopes to
//! `ε₀ + Σ (winning branch budgets) ≤ ε`.

use super::{optimal_threshold_share, AdaptiveOutcome, AdaptiveSvOutput};
use crate::answers::QueryAnswers;
use crate::draw::{Continuous, DrawProvider, Family, SourceDraws, MAX_TUPLE};
use crate::error::{require_epsilon, require_fraction, require_scale, MechanismError};
use crate::noisy_max::gaps_match;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// Where the feed step writes the outcome of each query it observes.
pub(super) trait Sink {
    fn reserve(&mut self, additional: usize);
    fn push(&mut self, outcome: AdaptiveOutcome);
}

impl Sink for Vec<AdaptiveOutcome> {
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }

    #[inline]
    fn push(&mut self, outcome: AdaptiveOutcome) {
        Vec::push(self, outcome);
    }
}

/// The one-rung decisions of an [`SvOutput`](super::SvOutput): `Some(gap)`
/// for `⊤`, or `Some(0.0)` when the gaps are withheld (the `bool` is
/// false: classic SVT), and `None` for `⊥`.
pub(super) struct Decisions<'a>(pub(super) &'a mut Vec<Option<f64>>, pub(super) bool);

impl Sink for Decisions<'_> {
    fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    #[inline]
    fn push(&mut self, outcome: AdaptiveOutcome) {
        self.0.push(match outcome {
            AdaptiveOutcome::Above { gap, .. } => Some(if self.1 { gap } else { 0.0 }),
            AdaptiveOutcome::Below => None,
        });
    }
}

/// Resumable state of one run of the branch ladder: the noisy threshold,
/// the baseline rung's budget and noise (a scale, or a discrete rate), the
/// stop rule's parameters, the answer count, the budget units used and the
/// `f64` budget spent.
///
/// [`SparseVectorWithGap::stream_open`](super::SparseVectorWithGap::stream_open)
/// opens one, and each
/// [`stream_feed`](super::SparseVectorWithGap::stream_feed) runs the
/// ladder's feed step over a batch, as a one-shot `run_into` does over its
/// whole stream. The state is plain data, so a server keeps it across
/// requests with the session's `rng`/`scratch` pair. It stays a few words,
/// because a server moves it in and out of its session table.
#[derive(Debug, Clone, Copy)]
pub struct SvtStreamState {
    noisy_threshold: f64,
    baseline_budget: f64,
    baseline_noise: f64,
    m: usize,
    k: usize,
    answer_limit: usize,
    answered: usize,
    used: u128,
    spent: f64,
}

impl SvtStreamState {
    /// Number of `⊤` answers emitted so far.
    pub fn answered(&self) -> usize {
        self.answered
    }

    /// True once the run has stopped — the units left cannot cover a
    /// baseline answer (after the `k`-th `⊤` of a one-rung run), or the
    /// answer limit is reached. Further feeds observe no query.
    pub fn is_halted(&self) -> bool {
        let top = 1u128 << (self.m - 1);
        self.answered >= self.answer_limit || self.used + top > self.k as u128 * top
    }

    /// The sizing parameter `k` of the mechanism that opened the stream
    /// (a one-rung run's answer cap).
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Adaptive Sparse Vector with `m ≥ 1` test branches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiBranchAdaptiveSparseVector {
    pub(super) k: usize,
    epsilon: f64,
    pub(super) threshold: f64,
    pub(super) theta: f64,
    pub(super) monotonic: bool,
    branches: usize,
    /// Margin of every rung but the baseline, in standard deviations of
    /// the rung's noise (the paper fixes 2; validated by the caller).
    pub(super) margin_multiplier: f64,
    /// Stop after this many above-threshold answers, budget or not.
    pub(super) answer_limit: Option<usize>,
}

impl MultiBranchAdaptiveSparseVector {
    /// Maximum supported branch count: one draw per rung, so the deepest
    /// ladder is the widest tuple a provider serves. The ladder's noise
    /// scale grows as `2^{m-1}`, so deeper ladders are useless in practice
    /// and risk under/overflow in the margins.
    pub const MAX_BRANCHES: usize = MAX_TUPLE;

    /// Creates the mechanism. `branches = 1` is Sparse-Vector-with-Gap,
    /// `branches = 2` is Algorithm 2. A budget whose threshold or rung
    /// noise scale overflows `f64` is [`MechanismError::InvalidEpsilon`].
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
        Self {
            k,
            epsilon: require_epsilon(epsilon)?,
            threshold,
            theta: optimal_threshold_share(k, monotonic),
            monotonic,
            branches,
            margin_multiplier: 2.0,
            answer_limit: None,
        }
        .require_scales()
    }

    /// Overrides the budget-allocation hyperparameter `θ`.
    pub fn with_theta(mut self, theta: f64) -> Result<Self, MechanismError> {
        self.theta = require_fraction("theta", theta)?;
        self.require_scales()
    }

    /// Rejects a budget whose threshold or rung noise scale overflows: a
    /// run would compare infinities.
    pub(super) fn require_scales(self) -> Result<Self, MechanismError> {
        require_scale(1.0 / self.epsilon0(), self.epsilon)?;
        for b in 0..self.branches {
            require_scale(self.rung(self.epsilon1(), b).1, self.epsilon)?;
        }
        Ok(self)
    }

    /// Number of branches `m`.
    pub fn branches(&self) -> usize {
        self.branches
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

    /// Budget and Laplace noise scale of branch `b` (0 = cheapest) given
    /// `ε₁`: `ε₁ / 2^{m-1-b}` and `c / budget`.
    pub(super) fn rung(&self, eps1: f64, b: usize) -> (f64, f64) {
        // lint:allow(panic-freedom): branch index is an internal loop variable, never user input
        assert!(b < self.branches, "branch index out of range");
        let budget = eps1 / (1u64 << (self.branches - 1 - b)) as f64;
        let c = if self.monotonic { 1.0 } else { 2.0 };
        (budget, c / budget)
    }

    /// Acceptance margin of a rung below the baseline (whose margin is 0)
    /// with noise scale `scale`: the multiplier times the noise's std.
    pub(super) fn margin(&self, scale: f64) -> f64 {
        self.margin_multiplier * std::f64::consts::SQRT_2 * scale
    }

    /// The open step, after `provider.begin()`: draws the noisy threshold
    /// in `family` and returns the state with no query observed.
    /// `one_rung_noise` replaces a one-rung ladder's noise with the
    /// wrapper's own: Sparse-Vector-with-Gap's scale `c·k/ε₂`, or the
    /// discrete SVT's rate `ε₂/(ck)`. Rungs below the baseline exist in the
    /// continuous family only ([`Family::MULTI_RUNG`]).
    pub(super) fn open<F: Family, P: DrawProvider>(
        &self,
        family: F,
        provider: &mut P,
        one_rung_noise: Option<f64>,
    ) -> SvtStreamState {
        debug_assert!(one_rung_noise.is_none() || self.branches == 1);
        let (baseline_budget, scale) = self.rung(self.epsilon1(), self.branches - 1);
        let threshold_noise = family.at_budget(self.epsilon0());
        SvtStreamState {
            noisy_threshold: self.threshold + family.next(provider, threshold_noise),
            baseline_budget,
            baseline_noise: one_rung_noise.unwrap_or(scale),
            m: self.branches,
            k: self.k,
            answer_limit: self.answer_limit.unwrap_or(usize::MAX),
            answered: 0,
            used: 0,
            spent: self.epsilon0(),
        }
    }

    /// The feed step: the blocked rung scan over `queries`, one outcome per
    /// observed query into `sink`, until the queries run out or the run
    /// that `state` holds halts. `state` must have been opened by this
    /// mechanism: the baseline rung and the stop rule come from the state,
    /// the cheaper rungs from `self`.
    ///
    /// Each query consumes one whole `m`-tuple of draws
    /// ([`DrawProvider::peek_tuples`]), and the scan stops at its first
    /// winning rung. A block's first query is pulled *before* the peek, so
    /// draw-exact providers never draw for a query that does not exist; the
    /// stop rule is checked after each answer, before the next pull.
    ///
    /// With a [bounded](DrawProvider::bounded) provider, a block's first
    /// query that no rung could accept even at that rung's largest draw
    /// ([`Laplace::UNIT_MAX`](free_gap_noise::Laplace::UNIT_MAX) times its
    /// scale, or the discrete sampler's
    /// [`max_value`](free_gap_noise::DiscreteLaplace::max_value)) is
    /// answered `⊥` without a peek, and its `m` draws are
    /// [skipped](DrawProvider::skip) before the next peek or at the end of
    /// the feed. Each rung is tested with its own expression, the bound in
    /// place of the draw; rounding is monotone, so no decision changes.
    /// Queries inside a peeked slab are tested on their draws.
    pub(super) fn feed<F: Family, P: DrawProvider, I: IntoIterator<Item = f64>, S: Sink>(
        &self,
        family: F,
        state: &mut SvtStreamState,
        queries: I,
        provider: &mut P,
        sink: &mut S,
    ) {
        debug_assert!((state.k, state.m) == (self.k, self.branches));
        debug_assert!(F::MULTI_RUNG || state.m == 1);
        if state.is_halted() {
            return;
        }
        let m = if F::MULTI_RUNG { state.m } else { 1 };
        let (last, eps1) = (m - 1, state.baseline_budget);
        // Only the noise scales are tabled (a wider table is a measurable
        // share of a short feed): a margin is one product away, and a
        // rung's budget is looked up on an answer only.
        let mut scales = [state.baseline_noise; MAX_TUPLE];
        for (b, scale) in scales[..last].iter_mut().enumerate() {
            *scale = self.rung(eps1, b).1;
        }
        let mut queries = queries.into_iter();
        let noisy_threshold = state.noisy_threshold;
        let (top, units) = (1u128 << last, state.k as u128 * (1u128 << last));
        let (mut answered, mut used, mut spent) = (state.answered, state.used, state.spent);
        let bounded = provider.bounded();
        let baseline_cap = family.max_draw(scales[last]);
        let could_win = |q: f64| {
            (0..last)
                .any(|b| q + family.max_draw(scales[b]) - noisy_threshold >= self.margin(scales[b]))
                || q + baseline_cap >= noisy_threshold
        };
        let mut owed = 0;
        let mut done = false;
        while !done {
            // Pull the block's first query before peeking (draw-exactness).
            let Some(mut q) = queries.next() else { break };
            if bounded && !could_win(q) {
                sink.push(AdaptiveOutcome::Below);
                owed += m;
                continue;
            }
            if owed > 0 {
                provider.skip(owed);
                owed = 0;
            }
            let tuples = family.peek_tuples(provider, &scales[..m]);
            let mut taken = 0;
            loop {
                let tuple = &tuples[taken..taken + m];
                taken += m;
                // The rungs with a margin, cheapest first, then the
                // baseline: the noisy answer against the noisy threshold.
                let won = (0..last)
                    .map(|b| (b, q + tuple[b] - noisy_threshold))
                    .find(|&(b, gap)| gap >= self.margin(scales[b]))
                    .or_else(|| {
                        let noisy = q + tuple[last];
                        (noisy >= noisy_threshold).then_some((last, noisy - noisy_threshold))
                    });
                if let Some((b, gap)) = won {
                    let cost = self.rung(eps1, b).0;
                    spent += cost;
                    answered += 1;
                    used += 1 << b;
                    // b < MAX_BRANCHES, which fits a u8 (asserted at
                    // compile time in `output.rs`'s tests).
                    let branch = b as u8;
                    sink.push(AdaptiveOutcome::Above { branch, gap, cost });
                    // Line 16 + answer limit: stop when the units left
                    // cannot cover a baseline answer or the limit is
                    // reached, before the next query is pulled.
                    if used + top > units || answered >= state.answer_limit {
                        done = true;
                        break;
                    }
                } else {
                    sink.push(AdaptiveOutcome::Below);
                }
                if taken == tuples.len() {
                    break;
                }
                let Some(next) = queries.next() else {
                    done = true;
                    break;
                };
                q = next;
            }
            family.consume(provider, taken);
        }
        if owed > 0 {
            provider.skip(owed);
        }
        (state.answered, state.used, state.spent) = (answered, used, spent);
    }

    /// One whole run into `sink`: `begin`, the open step, then the feed
    /// step over `queries`, with room for one outcome per predicted
    /// `m`-tuple of draws made first (capped by the stream's upper bound).
    /// Returns the budget spent.
    pub(super) fn run_sink<F: Family, P: DrawProvider, I: IntoIterator<Item = f64>, S: Sink>(
        &self,
        family: F,
        one_rung_noise: Option<f64>,
        queries: I,
        provider: &mut P,
        sink: &mut S,
    ) -> f64 {
        provider.begin();
        let mut state = self.open(family, provider, one_rung_noise);
        let queries = queries.into_iter();
        let predicted = provider.predicted_draws();
        sink.reserve(
            (predicted / self.branches + usize::from(predicted > 0))
                .min(queries.size_hint().1.unwrap_or(usize::MAX)),
        );
        self.feed(family, &mut state, queries, provider, sink);
        state.spent
    }

    /// The one provider-taking entry of the branch ladder, writing into
    /// `out` (every field overwritten, buffers reused): the open step, then
    /// the [feed step](SvtStreamState) over `queries`, which observes no
    /// query after the halt. Draw order (branch `0..m` per query) is the
    /// same on every provider: [`SourceDraws`] is the reference
    /// [`run`](Self::run) uses, [`ScratchDraws`](crate::draw::ScratchDraws)
    /// the blocked fast path (it buffers *noise* ahead, never answers), and
    /// every provider is bit-identical on the same RNG stream. A
    /// [bounded](DrawProvider::bounded) provider skips the draws of every
    /// query that leads a block and that no rung could accept at its
    /// largest draw, which changes no decision.
    ///
    /// Precondition: every answer is finite — a `+∞` answer clears any
    /// noisy threshold and a NaN never does. A lazy stream cannot be
    /// checked before the first draw, and an error mid-scan would reveal
    /// how far the scan got, so this entry does not check it; the
    /// [`AnyMechanism`](crate::api::AnyMechanism) arm of
    /// [`Mechanism::call`](crate::api::Mechanism::call) rejects a
    /// non-finite workload with a typed error before any draw.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut AdaptiveSvOutput,
    ) {
        out.outcomes.clear();
        out.spent = self.run_sink(Continuous, None, queries, provider, &mut out.outcomes);
        out.epsilon = self.epsilon;
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> AdaptiveSvOutput {
        AlignedMechanism::run(self, answers, &mut SamplingSource::new(rng))
    }

    /// The Eq. (3) alignment of [`align`](AlignedMechanism::align), given
    /// the threshold's shift (1, or one lattice step `γ` in the discrete
    /// family) and each processed query's winning rung (`None` for `⊥`);
    /// the one-rung types read theirs off an [`SvOutput`](super::SvOutput).
    pub(super) fn align_winners(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        shift: f64,
        winner: impl Fn(usize) -> Option<u8>,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        // Footnote 6: when all queries shrink (qᵢ >= q'ᵢ) on a monotone
        // workload, the threshold can stay put and winners shift by qᵢ - q'ᵢ.
        let favorable = self.monotonic && q.iter().zip(qp).all(|(a, b)| a >= b);
        let threshold_shift = if favorable { 0.0 } else { shift };
        let m = self.branches;
        tape.aligned_by(|draw_idx, _| {
            if draw_idx == 0 {
                return threshold_shift;
            }
            // Draws 1.. come in m-tuples, one per query.
            let qi = (draw_idx - 1) / m;
            match winner(qi) {
                Some(won) if usize::from(won) == (draw_idx - 1) % m => {
                    threshold_shift + q[qi] - qp[qi]
                }
                _ => 0.0,
            }
        })
    }
}

impl AlignedMechanism for MultiBranchAdaptiveSparseVector {
    type Input = QueryAnswers;
    type Output = AdaptiveSvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> AdaptiveSvOutput {
        let mut out = AdaptiveSvOutput::default();
        let queries = input.values().iter().copied();
        self.run_into(queries, &mut SourceDraws::new(source), &mut out);
        out
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
        self.align_winners(input, neighbor, tape, 1.0, |qi| {
            match output.outcomes.get(qi) {
                Some(AdaptiveOutcome::Above { branch, .. }) => Some(*branch),
                _ => None,
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
                    ) => bx == by && cx == cy && gaps_match(*gx, *gy),
                    _ => false,
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::ScratchDraws;
    use crate::scratch::SvtScratch;
    use crate::sparse_vector::{AdaptiveSparseVector, ClassicSparseVector, SparseVectorWithGap};
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
    fn budgets_whose_noise_scale_overflows_are_refused() {
        // At a subnormal ε the threshold's and rungs' noise scales overflow
        // to ∞ (and the rung budgets underflow to 0): a run would compare
        // infinities, so every continuous SVT refuses the budget.
        for eps in [5e-324, 1e-320, 1e-310] {
            let refused = MechanismError::InvalidEpsilon { value: eps };
            for m in 1..=3 {
                let ladder = MultiBranchAdaptiveSparseVector::new(3, eps, 0.0, true, m);
                assert_eq!(ladder.unwrap_err(), refused, "m = {m}");
            }
            let svg = SparseVectorWithGap::new(3, eps, 0.0, false);
            assert_eq!(svg.unwrap_err(), refused);
            let classic = ClassicSparseVector::new(3, eps, 0.0, false);
            assert_eq!(classic.unwrap_err(), refused);
            let alg2 = AdaptiveSparseVector::new(3, eps, 0.0, false);
            assert_eq!(alg2.unwrap_err(), refused);
        }
        assert!(mech(3, 3, 0.0).with_theta(1e-310).is_err());
        let svg = SparseVectorWithGap::new(3, 1.0, 0.0, true).unwrap();
        assert_eq!(
            svg.with_threshold_share(1e-310).unwrap_err(),
            MechanismError::InvalidEpsilon { value: 1.0 }
        );
        // The smallest normal budgets still run.
        assert!(MultiBranchAdaptiveSparseVector::new(3, 1e-300, 0.0, false, 3).is_ok());
        assert!(SparseVectorWithGap::new(3, 1e-300, 0.0, false).is_ok());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn stream_state_stays_ten_words() {
        // A server moves the state in and out of its session table on
        // every feed, and a larger state measurably slows session feeds;
        // the noise family is a parameter of the feed, not a field.
        assert_eq!(std::mem::size_of::<SvtStreamState>(), 80);
    }

    #[test]
    fn budget_ladder_is_geometric() {
        let m = mech(4, 3, 10.0);
        let e1 = m.epsilon1();
        assert!((m.rung(e1, 2).0 - e1).abs() < 1e-15);
        assert!((m.rung(e1, 1).0 - e1 / 2.0).abs() < 1e-15);
        assert!((m.rung(e1, 0).0 - e1 / 4.0).abs() < 1e-15);
        assert!(m.margin(m.rung(e1, 0).1) > m.margin(m.rung(e1, 1).1));
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
        tuned.margin_multiplier = 0.5;
        tuned.answer_limit = Some(2);
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
        // Same θ split, same noise-draw structure (1 threshold + 1 per
        // query) and the same loop, so identical streams give identical
        // decisions. The gaps agree only to within rounding: the ladder
        // computes its rung's scale as c/(ε₁/2^{m-1}) and
        // Sparse-Vector-with-Gap hands the loop its own c·k/ε₂, which
        // differ in the last bit on some budgets.
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
    fn one_rung_runs_answer_exactly_k_at_large_k() {
        // The budget is sized for k baseline answers. Summed in f64, 10⁵
        // answer budgets drift by more than a 1e-12 relative slack, so a
        // stop rule comparing that sum with ε stops one answer short; the
        // unit count stops at exactly k. A σ multiplier of 1e12 shuts
        // Algorithm 2's top branch, so all three run the baseline rung.
        let k = 100_000;
        let answers = QueryAnswers::counting(vec![1e12; 2 * k + 10]);
        let alg2 = AdaptiveSparseVector::new(k, 0.7, 0.0, true)
            .unwrap()
            .with_sigma_multiplier(1e12)
            .unwrap()
            .run(&answers, &mut rng_from_seed(1));
        assert_eq!(alg2.answered_via(0), 0);
        assert_eq!(alg2.answered(), k, "Algorithm 2");
        let one_rung = mech(k, 1, 0.0).run(&answers, &mut rng_from_seed(1));
        assert_eq!(one_rung.answered(), k, "one-rung ladder");
        let svg = SparseVectorWithGap::new(k, 0.7, 0.0, true)
            .unwrap()
            .run(&answers, &mut rng_from_seed(1));
        assert_eq!(svg.answered(), k, "Sparse-Vector-with-Gap");
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
