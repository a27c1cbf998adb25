//! Sparse-Vector-with-Gap under **discrete Laplace** noise — the
//! finite-precision counterpart of [`super::SparseVectorWithGap`].
//!
//! The §5.1 implementation-issues discussion shows the finite-precision
//! *Noisy Max* needs an `(ε, δ)` relaxation because argmax ties break the
//! alignment. Sparse Vector is different, and it is worth making the
//! contrast executable: its decisions are one-sided comparisons
//! `q̃ᵢ ≥ T̃`, and the alignment shifts both sides by the *same* lattice
//! amount, so equality cases replay identically — **no tie failure event
//! exists and the discrete mechanism satisfies pure ε-DP at any base `γ`**.
//! (Formally: on the lattice, `x < y` means `x ≤ y - γ`, which the +1
//! threshold shift preserves because all shifts are multiples of `γ` when
//! queries and threshold are.)
//!
//! It is the one-rung branch ladder
//! ([`MultiBranchAdaptiveSparseVector`]) over discrete Laplace draws, run
//! at this type's own rates `θε` and `(1-θ)ε/(ck)` as
//! [`SparseVectorWithGap`](super::SparseVectorWithGap) runs at its own
//! scales: the loop, the prune, the stop rule and the Eq. (3) alignment
//! (its threshold shifted by `γ`) are the ladder's.

use super::gap::decisions_match;
use super::multi_branch::Decisions;
use super::{MultiBranchAdaptiveSparseVector, SvOutput};
use crate::answers::{on_lattice, QueryAnswers};
use crate::draw::{Discrete, DrawProvider, SourceDraws};
use crate::error::{require_fraction, MechanismError};
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use free_gap_noise::DiscreteLaplace;
use rand::rngs::StdRng;

/// Sparse-Vector-with-Gap over an integer lattice with discrete Laplace
/// noise; pure ε-DP (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteSparseVectorWithGap {
    inner: MultiBranchAdaptiveSparseVector,
    gamma: f64,
}

impl DiscreteSparseVectorWithGap {
    /// Creates the mechanism with `γ = 1` (integer counts and threshold).
    pub fn new(
        k: usize,
        epsilon: f64,
        threshold: f64,
        monotonic: bool,
    ) -> Result<Self, MechanismError> {
        let gamma = 1.0;
        // The ladder checks `k` first, then ε; the lattice goes between.
        if k > 0 && !on_lattice(threshold, gamma) {
            return Err(MechanismError::InvalidParameter {
                name: "threshold",
                value: threshold,
                requirement: "must lie on the integer lattice (γ = 1)",
            });
        }
        let inner = MultiBranchAdaptiveSparseVector::new(k, epsilon, threshold, monotonic, 1)?;
        Self { inner, gamma }.require_rates()
    }

    /// Overrides the threshold/query budget split.
    pub fn with_threshold_share(mut self, share: f64) -> Result<Self, MechanismError> {
        self.inner.theta = require_fraction("threshold_share", share)?;
        self.require_rates()
    }

    /// Rejects a budget whose threshold or query rate admits no discrete
    /// Laplace in `f64` (its decay ratio rounds to 1 or 0 at a vanishing
    /// or huge ε): the run that follows would otherwise panic mid-draw.
    fn require_rates(self) -> Result<Self, MechanismError> {
        for rate in [self.threshold_rate(), self.query_rate()] {
            if DiscreteLaplace::new(rate, self.gamma).is_err() {
                return Err(MechanismError::InvalidEpsilon {
                    value: self.epsilon(),
                });
            }
        }
        Ok(self)
    }

    /// The total privacy budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.inner.threshold
    }

    /// Threshold-noise rate per unit: `ε₁ = θε`.
    pub fn threshold_rate(&self) -> f64 {
        self.inner.epsilon0()
    }

    /// Query-noise rate per unit: `ε₂/(ck)` (`c` = 2 general, 1 monotone).
    pub fn query_rate(&self) -> f64 {
        let c = if self.inner.monotonic { 1.0 } else { 2.0 };
        (1.0 - self.inner.theta) * self.epsilon() / (c * self.inner.k as f64)
    }

    /// The lattice step `γ` that answers and threshold must be multiples of.
    pub(crate) fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The one provider-taking entry: the one-rung ladder over discrete
    /// Laplace draws at this type's rates
    /// ([`discrete_next`](DrawProvider::discrete_next) for the threshold,
    /// [`discrete_peek_tuples`](DrawProvider::discrete_peek_tuples) for the
    /// queries), every `⊤` releasing its gap, an exact lattice multiple.
    /// Laziness (no query is pulled after the `k`-th `⊤`), providers,
    /// bit-identity and the bounded-provider prune (against
    /// [`DiscreteLaplace::max_value`]) as in
    /// [`MultiBranchAdaptiveSparseVector::run_into`].
    ///
    /// Precondition: every answer is a multiple of `γ` — an off-lattice
    /// answer's fractional part would reach the released gap exactly. A
    /// lazy stream cannot be checked before the first draw, and an error
    /// mid-scan would reveal how far the scan got, so this entry does not
    /// check it; [`Mechanism::call`](crate::api::Mechanism::call) rejects
    /// an off-lattice workload with a typed error before any draw.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        out.above.clear();
        let family = Discrete { gamma: self.gamma };
        let rate = Some(self.query_rate());
        let mut sink = Decisions(&mut out.above, true);
        self.inner
            .run_sink(family, rate, queries, provider, &mut sink);
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        AlignedMechanism::run(self, answers, &mut SamplingSource::new(rng))
    }
}

impl AlignedMechanism for DiscreteSparseVectorWithGap {
    type Input = QueryAnswers;
    type Output = SvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        let mut out = SvOutput::default();
        let queries = input.values().iter().copied();
        self.run_into(queries, &mut SourceDraws::new(source), &mut out);
        out
    }

    /// The one-rung ladder's alignment with lattice-valued shifts:
    /// threshold +γ (one unit, since sensitivity 1 means integer deltas on
    /// an integer lattice), winners shifted by `γ + qᵢ - q'ᵢ`.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &SvOutput,
    ) -> NoiseTape {
        let winner = |qi: usize| output.above.get(qi).copied().flatten().map(|_| 0);
        self.inner
            .align_winners(input, neighbor, tape, self.gamma, winner)
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    fn outputs_match(&self, a: &SvOutput, b: &SvOutput) -> bool {
        decisions_match(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_alignment::checker::check_alignment_many;
    use free_gap_alignment::{AdjacencyModel, Perturbation};
    use free_gap_noise::rng::rng_from_seed;

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![100.0, 5.0, 90.0, 4.0, 95.0, 3.0])
    }

    #[test]
    fn validation() {
        assert!(DiscreteSparseVectorWithGap::new(0, 1.0, 50.0, true).is_err());
        assert!(DiscreteSparseVectorWithGap::new(1, 0.0, 50.0, true).is_err());
        // threshold off the integer lattice, including NaN and infinities
        for threshold in [50.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                DiscreteSparseVectorWithGap::new(1, 1.0, threshold, true),
                Err(MechanismError::InvalidParameter {
                    name: "threshold",
                    ..
                })
            ));
        }
        // A rate whose decay ratio rounds to 1 or 0 would panic mid-draw.
        for eps in [5e-324, 1e-300, 1e300] {
            assert_eq!(
                DiscreteSparseVectorWithGap::new(2, eps, 50.0, true),
                Err(MechanismError::InvalidEpsilon { value: eps })
            );
        }
        let m = DiscreteSparseVectorWithGap::new(2, 1.0, 50.0, true).unwrap();
        assert!(m.with_threshold_share(1e-300).is_err());
    }

    #[test]
    fn gaps_are_integers() {
        let m = DiscreteSparseVectorWithGap::new(3, 1.0, 60.0, true).unwrap();
        let mut rng = rng_from_seed(1);
        for _ in 0..100 {
            let out = m.run(&workload(), &mut rng);
            for (_, g) in out.gaps() {
                assert!(g >= 0.0);
                assert!((g - g.round()).abs() < 1e-9, "gap {g}");
            }
        }
    }

    #[test]
    fn alignment_within_budget_on_integer_adjacency() {
        let m = DiscreteSparseVectorWithGap::new(2, 0.8, 60.0, true).unwrap();
        let d = workload();
        let mut rng = rng_from_seed(2);
        for model in [AdjacencyModel::MonotoneUp, AdjacencyModel::MonotoneDown] {
            for _ in 0..25 {
                let p = Perturbation::random(model, d.len(), &mut rng);
                let deltas: Vec<f64> = p.deltas().iter().map(|x| x.round()).collect();
                let dp = d.perturbed(&deltas);
                let max = check_alignment_many(&m, &d, &dp, 15, &mut rng)
                    .unwrap_or_else(|e| panic!("{model:?}: {e}"));
                assert!(max <= 0.8 + 1e-9, "cost {max}");
            }
        }
    }

    #[test]
    fn matches_continuous_decisions_statistically() {
        let disc = DiscreteSparseVectorWithGap::new(2, 1.0, 60.0, true).unwrap();
        let cont = super::super::SparseVectorWithGap::new(2, 1.0, 60.0, true).unwrap();
        let mut rng = rng_from_seed(4);
        let runs = 4_000;
        let d_answers: usize = (0..runs)
            .map(|_| disc.run(&workload(), &mut rng).answered())
            .sum();
        let c_answers: usize = (0..runs)
            .map(|_| cont.run(&workload(), &mut rng).answered())
            .sum();
        let gap = (d_answers as f64 - c_answers as f64).abs() / runs as f64;
        assert!(
            gap < 0.1,
            "answer counts diverge: {d_answers} vs {c_answers}"
        );
    }
}
