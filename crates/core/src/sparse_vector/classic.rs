//! Classic Sparse Vector Technique (the correct variant catalogued by Lyu et
//! al., the paper's [31]) — the baseline of §7.3.
//!
//! Given a stream of sensitivity-1 queries and a public threshold `T`, adds
//! `Lap(1/ε₁)` to the threshold once, `Lap(ck/ε₂)` to each query
//! (`c` = 2 general, 1 monotone), answers `⊤`/`⊥` by comparing, and stops
//! after `k` `⊤`s. Total cost `ε = ε₁ + ε₂` regardless of how many `⊥`s are
//! emitted — answering below-threshold queries is free.
//!
//! It is [`SparseVectorWithGap`] with the gaps withheld, which is the
//! paper's point: the gap was free all along. Both run the one-rung branch
//! ladder's loop and alignment, so the two variants cannot silently diverge
//! (the Chen–Machanavajjhala hazard).

use super::{SparseVectorWithGap, SvOutput};
use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::MechanismError;
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// Classic SVT: Sparse-Vector-with-Gap answering each `⊤` with `Some(0.0)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassicSparseVector {
    inner: SparseVectorWithGap,
}

impl ClassicSparseVector {
    /// Creates the mechanism: find up to `k` queries above `threshold` with
    /// total budget `epsilon`, using the Lyu-et-al optimal budget split.
    pub fn new(
        k: usize,
        epsilon: f64,
        threshold: f64,
        monotonic: bool,
    ) -> Result<Self, MechanismError> {
        Ok(Self {
            inner: SparseVectorWithGap::new(k, epsilon, threshold, monotonic)?,
        })
    }

    /// Overrides the threshold/query budget split (`θ ∈ (0,1)` is the
    /// threshold's share).
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

    /// Threshold-noise budget `ε₁ = θε`.
    pub fn epsilon1(&self) -> f64 {
        self.inner.epsilon1()
    }

    /// Query-noise budget `ε₂ = (1-θ)ε`.
    pub fn epsilon2(&self) -> f64 {
        self.inner.epsilon2()
    }

    /// Laplace scale of the threshold noise, `1/ε₁`.
    pub fn threshold_scale(&self) -> f64 {
        self.inner.threshold_scale()
    }

    /// Laplace scale of each query's noise, `ck/ε₂`.
    pub fn query_scale(&self) -> f64 {
        self.inner.query_scale()
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        AlignedMechanism::run(self, answers, &mut SamplingSource::new(rng))
    }

    /// The one provider-taking entry:
    /// [`SparseVectorWithGap::run_into`] with every `⊤` answered
    /// `Some(0.0)`. Laziness, providers, bit-identity and the finite-answer
    /// precondition as there.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        self.inner.run_decisions(queries, provider, out, false);
    }
}

impl AlignedMechanism for ClassicSparseVector {
    type Input = QueryAnswers;
    type Output = SvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        let mut out = SvOutput::default();
        let queries = input.values().iter().copied();
        self.run_into(queries, &mut SourceDraws::new(source), &mut out);
        out
    }

    /// Sparse-Vector-with-Gap's alignment: threshold noise up by 1 (or 0 in
    /// the favorable monotone direction), each `⊤` query's noise shifted to
    /// keep clearing the higher threshold.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &SvOutput,
    ) -> NoiseTape {
        self.inner.align(input, neighbor, tape, output)
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_alignment::checker::check_alignment_many;
    use free_gap_alignment::{AdjacencyModel, Perturbation};
    use free_gap_noise::rng::rng_from_seed;

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![100.0, 5.0, 90.0, 4.0, 95.0, 3.0, 85.0, 2.0])
    }

    #[test]
    fn validation_and_budget_split() {
        assert!(ClassicSparseVector::new(0, 1.0, 50.0, true).is_err());
        assert!(ClassicSparseVector::new(1, 0.0, 50.0, true).is_err());
        let m = ClassicSparseVector::new(4, 1.0, 50.0, true).unwrap();
        assert!((m.epsilon1() + m.epsilon2() - 1.0).abs() < 1e-12);
        assert!(m.with_threshold_share(1.5).is_err());
        let m = m.with_threshold_share(0.5).unwrap();
        assert_eq!(m.epsilon1(), 0.5);
        // monotone scale: k/ε₂ = 4/0.5
        assert_eq!(m.query_scale(), 8.0);
    }

    #[test]
    fn stops_after_k_aboves() {
        let m = ClassicSparseVector::new(2, 100.0, 50.0, true).unwrap();
        let out = m.run(&workload(), &mut rng_from_seed(1));
        assert_eq!(out.answered(), 2);
        // With huge ε it answers the first two truly-above queries (0, 2)
        // and stops: query 4 is never processed.
        assert_eq!(out.above_indices(), vec![0, 2]);
        assert_eq!(out.processed(), 3);
    }

    #[test]
    fn below_threshold_answers_are_free_and_unlimited() {
        let lows = QueryAnswers::counting(vec![0.0; 500]);
        let m = ClassicSparseVector::new(1, 1.0, 100.0, true).unwrap();
        let out = m.run(&lows, &mut rng_from_seed(2));
        // Processes the whole stream without finding k aboves (w.h.p.).
        assert_eq!(out.processed(), 500);
        assert!(out.answered() <= 1);
    }

    #[test]
    fn alignment_within_budget_general() {
        let m = ClassicSparseVector::new(2, 0.8, 60.0, false).unwrap();
        let d = QueryAnswers::general(workload().values().to_vec());
        let mut rng = rng_from_seed(5);
        for _ in 0..40 {
            let p = Perturbation::random(AdjacencyModel::General, d.len(), &mut rng);
            let dp = d.perturbed(p.deltas());
            let max = check_alignment_many(&m, &d, &dp, 15, &mut rng).unwrap();
            assert!(max <= 0.8 + 1e-9, "cost {max}");
        }
    }

    #[test]
    fn alignment_within_budget_monotone_both_directions() {
        let m = ClassicSparseVector::new(2, 0.8, 60.0, true).unwrap();
        let d = workload();
        let mut rng = rng_from_seed(6);
        for model in [AdjacencyModel::MonotoneUp, AdjacencyModel::MonotoneDown] {
            for _ in 0..20 {
                let p = Perturbation::random(model, d.len(), &mut rng);
                let dp = d.perturbed(p.deltas());
                let max = check_alignment_many(&m, &d, &dp, 15, &mut rng).unwrap();
                assert!(max <= 0.8 + 1e-9, "cost {max} under {model:?}");
            }
        }
    }
}
