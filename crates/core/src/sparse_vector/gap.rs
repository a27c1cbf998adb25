//! Sparse-Vector-with-Gap (Wang et al. [41], recovered from Algorithm 2 by
//! deleting the first branch / setting `σ = ∞`).
//!
//! Identical to [`ClassicSparseVector`] in noise, decisions, stopping rule
//! and privacy cost — but each `⊤` additionally releases the noisy gap
//! `qᵢ + νᵢ - T̃`, for free. `gap + T` is then a noisy estimate of `qᵢ(D)`
//! that §6.2 sharpens with measurements and confidence bounds.

use super::classic::{ClassicSparseVector, SvtStreamState};
use super::SvOutput;
use crate::answers::QueryAnswers;
use crate::draw::DrawProvider;
use crate::error::MechanismError;
use crate::scratch::SvtScratch;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;
use rand::Rng;

/// Sparse-Vector-with-Gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseVectorWithGap {
    inner: ClassicSparseVector,
}

impl SparseVectorWithGap {
    /// Creates the mechanism (parameters as in [`ClassicSparseVector::new`]).
    pub fn new(
        k: usize,
        epsilon: f64,
        threshold: f64,
        monotonic: bool,
    ) -> Result<Self, MechanismError> {
        Ok(Self {
            inner: ClassicSparseVector::new(k, epsilon, threshold, monotonic)?,
        })
    }

    /// Overrides the threshold/query budget split.
    pub fn with_threshold_share(mut self, share: f64) -> Result<Self, MechanismError> {
        self.inner = self.inner.with_threshold_share(share)?;
        Ok(self)
    }

    /// The answer cap `k`.
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

    /// Threshold-noise budget `ε₁`.
    pub fn epsilon1(&self) -> f64 {
        self.inner.epsilon1()
    }

    /// Query-noise budget `ε₂`.
    pub fn epsilon2(&self) -> f64 {
        self.inner.epsilon2()
    }

    /// Variance of each released gap: threshold noise plus query noise.
    pub fn gap_variance(&self) -> f64 {
        let t = self.inner.threshold_scale();
        let q = self.inner.query_scale();
        2.0 * t * t + 2.0 * q * q
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        self.inner
            .run_impl(answers, &mut SamplingSource::new(rng), true)
    }

    /// The one provider-taking entry: the decision loop of
    /// [`ClassicSparseVector`] with every `⊤` releasing its noisy gap,
    /// writing into `out` and reusing its buffer. Laziness, providers and
    /// bit-identity as in [`ClassicSparseVector::run_into`].
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        self.inner.run_core(queries, provider, true, out);
    }

    /// Opens a resumable gap-releasing stream; contract as in
    /// [`ClassicSparseVector::stream_open`].
    pub fn stream_open<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut SvtScratch,
    ) -> SvtStreamState {
        self.inner.stream_open(rng, scratch)
    }

    /// Feeds one query to an open stream: `None` once the run has halted
    /// (the query is never observed), otherwise the decision — `Some(gap)`
    /// for `⊤` with the free gap released, `None` for `⊥`.
    pub fn stream_feed<R: Rng + ?Sized>(
        &self,
        state: &mut SvtStreamState,
        query: f64,
        rng: &mut R,
        scratch: &mut SvtScratch,
    ) -> Option<Option<f64>> {
        self.inner.stream_step_core(
            state,
            query,
            &mut crate::draw::ScratchDraws::new(scratch, rng),
            true,
        )
    }
}

impl AlignedMechanism for SparseVectorWithGap {
    type Input = QueryAnswers;
    type Output = SvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        self.inner.run_impl(input, source, true)
    }

    /// The same alignment as classic SVT: Wang et al.'s observation is that
    /// it *already* preserves the gap values exactly, so releasing them adds
    /// no cost. The checker verifies gap equality through
    /// [`outputs_match`](AlignedMechanism::outputs_match).
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &SvOutput,
    ) -> NoiseTape {
        self.inner.align_impl(input, neighbor, tape, output)
    }

    fn epsilon(&self) -> f64 {
        AlignedMechanism::epsilon(&self.inner)
    }

    fn outputs_match(&self, a: &SvOutput, b: &SvOutput) -> bool {
        a.above.len() == b.above.len()
            && a.above.iter().zip(&b.above).all(|(x, y)| match (x, y) {
                (None, None) => true,
                (Some(gx), Some(gy)) => (gx - gy).abs() <= 1e-9 * gx.abs().max(gy.abs()).max(1.0),
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
