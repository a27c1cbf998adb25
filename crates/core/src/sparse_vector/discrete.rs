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

use super::{optimal_threshold_share, SvOutput};
use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, require_fraction, MechanismError};
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use free_gap_noise::DiscreteLaplace;
use rand::rngs::StdRng;

/// Sparse-Vector-with-Gap over an integer lattice with discrete Laplace
/// noise; pure ε-DP (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteSparseVectorWithGap {
    k: usize,
    epsilon: f64,
    threshold: f64,
    threshold_share: f64,
    monotonic: bool,
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
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        let gamma = 1.0;
        let t_steps = threshold / gamma;
        if (t_steps - t_steps.round()).abs() > 1e-9 {
            return Err(MechanismError::InvalidParameter {
                name: "threshold",
                value: threshold,
                requirement: "must lie on the integer lattice (γ = 1)",
            });
        }
        Self {
            k,
            epsilon: require_epsilon(epsilon)?,
            threshold,
            threshold_share: optimal_threshold_share(k, monotonic),
            monotonic,
            gamma,
        }
        .require_rates()
    }

    /// Overrides the threshold/query budget split.
    pub fn with_threshold_share(mut self, share: f64) -> Result<Self, MechanismError> {
        self.threshold_share = require_fraction("threshold_share", share)?;
        self.require_rates()
    }

    /// Rejects a budget whose threshold or query rate admits no discrete
    /// Laplace in `f64` (its decay ratio rounds to 1 or 0 at a vanishing
    /// or huge ε): the run that follows would otherwise panic mid-draw.
    fn require_rates(self) -> Result<Self, MechanismError> {
        for rate in [self.threshold_rate(), self.query_rate()] {
            if DiscreteLaplace::new(rate, self.gamma).is_err() {
                return Err(MechanismError::InvalidEpsilon {
                    value: self.epsilon,
                });
            }
        }
        Ok(self)
    }

    /// The total privacy budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Threshold-noise rate per unit: `ε₁ = θε`.
    pub fn threshold_rate(&self) -> f64 {
        self.threshold_share * self.epsilon
    }

    /// Query-noise rate per unit: `ε₂/(ck)` (`c` = 2 general, 1 monotone).
    pub fn query_rate(&self) -> f64 {
        let c = if self.monotonic { 1.0 } else { 2.0 };
        (1.0 - self.threshold_share) * self.epsilon / (c * self.k as f64)
    }

    fn validate_lattice(&self, answers: &QueryAnswers) {
        debug_assert!(
            answers.values().iter().all(|v| {
                let steps = v / self.gamma;
                (steps - steps.round()).abs() < 1e-9
            }),
            "query answers must be multiples of γ = {}",
            self.gamma
        );
    }

    /// The single copy of the discrete SVT decision loop and its one
    /// provider-taking entry; released gaps are exact lattice multiples.
    /// Providers and bit-identity as in
    /// [`ClassicSparseVector::run_into`](super::ClassicSparseVector::run_into).
    /// Query noise comes in whole blocks of
    /// arity-1 tuples
    /// ([`discrete_peek_tuples`](DrawProvider::discrete_peek_tuples)):
    /// blocked providers serve a slab of geometric-tail draws per peek with
    /// the per-draw refill check and rate lookup amortized across the
    /// block, draw-exact providers exactly one draw — and each block's
    /// first query is pulled *before* the peek, so draw-exact providers
    /// never sample noise for a query that was never pulled.
    ///
    /// Consumes `queries` lazily, writing into `out`: the stop condition is
    /// checked *before* pulling the next query, so once the `k`-th `⊤` is
    /// answered no further query is ever observed.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        provider.begin();
        let mut queries = queries.into_iter();
        // One decision per query draw: pre-size from the provider's
        // consumption prediction (capped by the stream's own upper bound
        // when it knows one) to skip the realloc chain on long streams.
        let capacity = provider
            .predicted_draws()
            .min(queries.size_hint().1.unwrap_or(usize::MAX));
        let noisy_threshold =
            self.threshold + provider.discrete_next(self.threshold_rate(), self.gamma);
        let qrate = [self.query_rate()];
        out.above.clear();
        out.above.reserve(capacity);
        let mut answered = 0usize;
        let mut done = false;
        while !done && answered < self.k {
            // Pull the block's first query before peeking: a draw-exact
            // provider must not draw noise for a query that never arrives.
            let Some(first) = queries.next() else { break };
            let mut pending = Some(first);
            let mut taken = 0usize;
            let slab = provider.discrete_peek_tuples(&qrate, self.gamma);
            for &noise in slab {
                let Some(q) = pending.take().or_else(|| queries.next()) else {
                    done = true;
                    break;
                };
                debug_assert!(
                    {
                        let steps = q / self.gamma;
                        (steps - steps.round()).abs() < 1e-9
                    },
                    "query answers must be multiples of γ = {}",
                    self.gamma
                );
                taken += 1;
                let noisy = q + noise;
                if noisy >= noisy_threshold {
                    out.above.push(Some(noisy - noisy_threshold));
                    answered += 1;
                    if answered == self.k {
                        done = true;
                        break;
                    }
                } else {
                    out.above.push(None);
                }
            }
            provider.discrete_consume(taken);
        }
    }

    fn run_with_source(&self, answers: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        self.validate_lattice(answers);
        let mut out = SvOutput::default();
        self.run_into(
            answers.values().iter().copied(),
            &mut SourceDraws::new(source),
            &mut out,
        );
        out
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        self.run_with_source(answers, &mut SamplingSource::new(rng))
    }
}

impl AlignedMechanism for DiscreteSparseVectorWithGap {
    type Input = QueryAnswers;
    type Output = SvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        self.run_with_source(input, source)
    }

    /// The classic SVT alignment with lattice-valued shifts: threshold +γ
    /// (one unit, since sensitivity 1 means integer deltas on an integer
    /// lattice), winners shifted by `γ + qᵢ - q'ᵢ`.
    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &SvOutput,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        let favorable = self.monotonic && q.iter().zip(qp).all(|(a, b)| a >= b);
        let threshold_shift = if favorable { 0.0 } else { self.gamma };
        tape.aligned_by(|draw_idx, _| {
            if draw_idx == 0 {
                threshold_shift
            } else {
                let qi = draw_idx - 1;
                match output.above.get(qi) {
                    Some(Some(_)) => threshold_shift + q[qi] - qp[qi],
                    _ => 0.0,
                }
            }
        })
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
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

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![100.0, 5.0, 90.0, 4.0, 95.0, 3.0])
    }

    #[test]
    fn validation() {
        assert!(DiscreteSparseVectorWithGap::new(0, 1.0, 50.0, true).is_err());
        assert!(DiscreteSparseVectorWithGap::new(1, 0.0, 50.0, true).is_err());
        // threshold off the integer lattice
        assert!(DiscreteSparseVectorWithGap::new(1, 1.0, 50.5, true).is_err());
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
