//! Sparse-Vector-with-Gap (Wang et al. [41], recovered from Algorithm 2 by
//! deleting the first branch / setting `σ = ∞`): the one-rung case of the
//! branch ladder ([`MultiBranchAdaptiveSparseVector`]).
//!
//! Classic SVT's noise, decisions, stopping rule and privacy cost — and
//! each `⊤` additionally releases the noisy gap `qᵢ + νᵢ - T̃`, for free.
//! `gap + T` is then a noisy estimate of `qᵢ(D)` that §6.2 sharpens with
//! measurements and confidence bounds. The ladder runs at this type's own
//! scales, `1/(θε)` and `c·k/((1-θ)ε)`, evaluated as the paper states them.

use super::multi_branch::Decisions;
use super::{MultiBranchAdaptiveSparseVector, SvOutput, SvtStreamState};
use crate::answers::QueryAnswers;
use crate::draw::{Continuous, DrawProvider, ScratchDraws, SourceDraws};
use crate::error::{require_fraction, require_scale, MechanismError};
use crate::noisy_max::gaps_match;
use crate::scratch::SvtScratch;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;
use rand::Rng;

/// Sparse-Vector-with-Gap: the one-rung branch ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseVectorWithGap {
    inner: MultiBranchAdaptiveSparseVector,
}

impl SparseVectorWithGap {
    /// Creates the mechanism: find up to `k` queries above `threshold` with
    /// total budget `epsilon`, using the Lyu-et-al optimal budget split. A
    /// budget whose noise scale overflows is [`MechanismError::InvalidEpsilon`].
    pub fn new(
        k: usize,
        epsilon: f64,
        threshold: f64,
        monotonic: bool,
    ) -> Result<Self, MechanismError> {
        Self::checked(MultiBranchAdaptiveSparseVector::new(
            k, epsilon, threshold, monotonic, 1,
        )?)
    }

    /// Overrides the threshold/query budget split (`θ ∈ (0,1)` is the
    /// threshold's share).
    pub fn with_threshold_share(mut self, share: f64) -> Result<Self, MechanismError> {
        self.inner.theta = require_fraction("threshold_share", share)?;
        Self::checked(self.inner)
    }

    /// Wraps a one-rung ladder whose noise scales, this type's own among
    /// them, are finite.
    fn checked(inner: MultiBranchAdaptiveSparseVector) -> Result<Self, MechanismError> {
        let svt = Self {
            inner: inner.require_scales()?,
        };
        require_scale(svt.query_scale(), svt.epsilon())?;
        Ok(svt)
    }

    /// The answer cap `k`.
    pub fn k(&self) -> usize {
        self.inner.k
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.inner.threshold
    }

    /// The total privacy budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    /// Threshold-noise budget `ε₁ = θε`.
    pub fn epsilon1(&self) -> f64 {
        self.inner.epsilon0()
    }

    /// Query-noise budget `ε₂ = (1-θ)ε`.
    pub fn epsilon2(&self) -> f64 {
        (1.0 - self.inner.theta) * self.inner.epsilon()
    }

    /// Laplace scale of the threshold noise, `1/ε₁`.
    pub(super) fn threshold_scale(&self) -> f64 {
        1.0 / self.epsilon1()
    }

    /// Laplace scale of each query's noise, `ck/ε₂`.
    pub(super) fn query_scale(&self) -> f64 {
        let c = if self.inner.monotonic { 1.0 } else { 2.0 };
        c * self.k() as f64 / self.epsilon2()
    }

    /// Variance of each released gap, `2/ε₁² + 2(ck/ε₂)²` (§6.2):
    /// threshold noise plus query noise.
    pub fn gap_variance(&self) -> f64 {
        let t = self.threshold_scale();
        let q = self.query_scale();
        2.0 * t * t + 2.0 * q * q
    }

    /// One run of the one-rung ladder into `out`, each `⊤` carrying its
    /// noisy gap, or `0.0` when `release_gaps` is false.
    pub(super) fn run_decisions<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
        release_gaps: bool,
    ) {
        out.above.clear();
        let mut sink = Decisions(&mut out.above, release_gaps);
        let scale = Some(self.query_scale());
        self.inner
            .run_sink(Continuous, scale, queries, provider, &mut sink);
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        AlignedMechanism::run(self, answers, &mut SamplingSource::new(rng))
    }

    /// The one provider-taking entry: the one-rung
    /// [`MultiBranchAdaptiveSparseVector::run_into`] with every `⊤`
    /// releasing its noisy gap, writing into `out` and reusing its buffer.
    /// Laziness (no query is pulled after the `k`-th `⊤`), providers,
    /// bit-identity and the finite-answer precondition as there.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        self.run_decisions(queries, provider, out, true);
    }

    /// Opens a resumable gap-releasing streaming run: starts a fresh noise
    /// tape on `scratch` and draws the threshold noise from `rng`. Feed the
    /// returned state batch by batch with [`stream_feed`](Self::stream_feed)
    /// — in any batching across any number of calls, the decisions are
    /// bit-identical to one [`run_into`](Self::run_into) call through
    /// [`ScratchDraws`] over the concatenated stream on the same RNG,
    /// provided the same `rng`/`scratch` pair keeps serving this stream
    /// until it halts (the scratch's buffered lookahead is part of the
    /// tape, so the pair must not be lent to another run in between).
    pub fn stream_open<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut SvtScratch,
    ) -> SvtStreamState {
        let mut provider = ScratchDraws::new(scratch, rng);
        provider.begin();
        self.inner
            .open(Continuous, &mut provider, Some(self.query_scale()))
    }

    /// Feeds a batch to an open stream — one call of the ladder's feed
    /// step — appending one decision per query observed before the halt:
    /// `Some(gap)` for `⊤`, `None` for `⊥`. The queries must be finite, as
    /// in [`run_into`](Self::run_into); a caller that accepts batches from
    /// outside checks the whole batch first. `state` must come from this
    /// mechanism's [`stream_open`](Self::stream_open): the feed takes the
    /// threshold, noise scale and stop rule from it (debug builds check).
    pub fn stream_feed<R: Rng + ?Sized, I: IntoIterator<Item = f64>>(
        &self,
        state: &mut SvtStreamState,
        queries: I,
        rng: &mut R,
        scratch: &mut SvtScratch,
        out: &mut Vec<Option<f64>>,
    ) {
        // The batch's length is known here: one peek serves the whole feed.
        let queries = queries.into_iter();
        scratch.window(rng, queries.size_hint().1.unwrap_or(0));
        let mut provider = ScratchDraws::new(scratch, rng);
        let mut sink = Decisions(out, true);
        self.inner
            .feed(Continuous, state, queries, &mut provider, &mut sink);
    }
}

impl AlignedMechanism for SparseVectorWithGap {
    type Input = QueryAnswers;
    type Output = SvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        let mut out = SvOutput::default();
        let queries = input.values().iter().copied();
        self.run_into(queries, &mut SourceDraws::new(source), &mut out);
        out
    }

    /// The ladder's Eq. (3) alignment at one rung, which classic SVT shares:
    /// Wang et al.'s observation is that it *already* preserves the gap
    /// values exactly, so releasing them adds no cost. The checker verifies
    /// gap equality through
    /// [`outputs_match`](AlignedMechanism::outputs_match).
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &SvOutput,
    ) -> NoiseTape {
        let winner = |qi: usize| output.above.get(qi).copied().flatten().map(|_| 0);
        self.inner.align_winners(input, neighbor, tape, 1.0, winner)
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    fn outputs_match(&self, a: &SvOutput, b: &SvOutput) -> bool {
        decisions_match(a, b)
    }
}

/// Whether two one-rung outputs make the same decisions with gaps equal to
/// within rounding.
pub(super) fn decisions_match(a: &SvOutput, b: &SvOutput) -> bool {
    a.above.len() == b.above.len()
        && a.above.iter().zip(&b.above).all(|(x, y)| match (x, y) {
            (None, None) => true,
            (Some(gx), Some(gy)) => gaps_match(*gx, *gy),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse_vector::ClassicSparseVector;
    use free_gap_alignment::checker::check_alignment_many;
    use free_gap_alignment::{AdjacencyModel, Perturbation};
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::stats::RunningMoments;

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![100.0, 5.0, 90.0, 4.0, 95.0, 3.0, 85.0, 2.0])
    }

    #[test]
    fn decisions_match_classic_on_same_stream() {
        let gap = SparseVectorWithGap::new(3, 0.7, 60.0, true).unwrap();
        let classic = ClassicSparseVector::new(3, 0.7, 60.0, true).unwrap();
        for seed in 0..40 {
            let a = gap.run(&workload(), &mut rng_from_seed(seed));
            let b = classic.run(&workload(), &mut rng_from_seed(seed));
            assert_eq!(a.above_indices(), b.above_indices(), "seed {seed}");
        }
    }

    #[test]
    fn gaps_are_nonnegative_and_unbiased() {
        // gap + T is an unbiased estimate of q(D) for the answered queries
        // (conditioned on answering, bias exists; at huge margins it's tiny).
        let m = SparseVectorWithGap::new(2, 2.0, 50.0, true).unwrap();
        let mut rng = rng_from_seed(4);
        let mut est = RunningMoments::new();
        for _ in 0..20_000 {
            let out = m.run(&workload(), &mut rng);
            for (i, g) in out.gaps() {
                assert!(g >= 0.0);
                if i == 0 {
                    est.push(g + 50.0);
                }
            }
        }
        assert!(
            (est.mean() - 100.0).abs() < 1.0,
            "mean estimate = {}",
            est.mean()
        );
    }

    #[test]
    fn gap_variance_closed_form_matches_empirical() {
        let m = SparseVectorWithGap::new(1, 1.0, 20.0, true).unwrap();
        // Single far-above query: always answered, gap = q + ν - T - η.
        let answers = QueryAnswers::counting(vec![520.0]);
        let mut rng = rng_from_seed(9);
        let mut mo = RunningMoments::new();
        for _ in 0..150_000 {
            let out = m.run(&answers, &mut rng);
            if let Some((_, g)) = out.gaps().first() {
                mo.push(*g);
            }
        }
        let expect = m.gap_variance();
        let rel = (mo.variance() - expect).abs() / expect;
        assert!(
            rel < 0.05,
            "empirical {} vs closed form {expect}",
            mo.variance()
        );
    }

    #[test]
    fn alignment_preserves_gaps_within_budget() {
        let m = SparseVectorWithGap::new(2, 0.9, 60.0, true).unwrap();
        let d = workload();
        let mut rng = rng_from_seed(14);
        for model in [AdjacencyModel::MonotoneUp, AdjacencyModel::MonotoneDown] {
            for _ in 0..25 {
                let p = Perturbation::random(model, d.len(), &mut rng);
                let dp = d.perturbed(p.deltas());
                let max = check_alignment_many(&m, &d, &dp, 15, &mut rng).unwrap();
                assert!(max <= 0.9 + 1e-9, "cost {max}");
            }
        }
    }

    #[test]
    fn alignment_general_queries() {
        let m = SparseVectorWithGap::new(2, 0.9, 60.0, false).unwrap();
        let d = QueryAnswers::general(workload().values().to_vec());
        let mut rng = rng_from_seed(15);
        for _ in 0..40 {
            let p = Perturbation::random(AdjacencyModel::General, d.len(), &mut rng);
            let dp = d.perturbed(p.deltas());
            let max = check_alignment_many(&m, &d, &dp, 15, &mut rng).unwrap();
            assert!(max <= 0.9 + 1e-9, "cost {max}");
        }
    }
}
