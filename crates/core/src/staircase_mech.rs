//! Staircase measurement mechanism — the §3.1 alternative to Laplace noise.
//!
//! Geng & Viswanath's staircase distribution is the variance-optimal
//! additive noise for ε-DP; the paper lists it (with Discrete Laplace) as a
//! drop-in replacement wherever the Laplace mechanism is used. This module
//! provides the measurement-mechanism counterpart of
//! [`crate::laplace_mech::LaplaceMechanism`] so the select-then-measure
//! pipelines can trade Laplace for staircase noise.
//!
//! A note on alignment: the staircase density is *piecewise constant*, so
//! its log-density ratio is not bounded by `|x - y|/α` pointwise (crossing
//! a stair edge by an inch costs a full `e^ε`) — only by
//! `ε·⌈|x - y|/Δ⌉`. The Definition-6 cost accounting of the alignment
//! framework therefore does not apply draw-for-draw, and this mechanism
//! deliberately does not implement `AlignedMechanism`; its privacy is the
//! classical per-measurement argument (each coordinate is an ε-DP additive
//! release, composed sequentially).

//! ## Execution paths
//!
//! The measurement loop exists once, generic over the [`DrawProvider`]
//! noise comes through (four uniforms per draw):
//! [`measure_split_into`](StaircaseMechanism::measure_split_into), the one
//! provider-taking entry, which [`Mechanism::call`](crate::api::Mechanism::call)
//! also runs. It takes a slice, because the batch size is the budget
//! divisor: the entry reads it off the answers it measures, so a caller
//! can never spend `ε/count` on more than `count` answers. The batch is
//! one [`staircase_fill_offset`](DrawProvider::staircase_fill_offset):
//! through [`ScratchDraws`](crate::draw::ScratchDraws) the distribution is
//! constructed once per batch, the tape's buffered uniforms served first
//! and the fused kernel run on the RNG, into a caller-owned output.
//!
//! `measure_split` is the dyn reference over the same loop, through
//! [`SourceDraws`]: the source reconstructs the staircase distribution per
//! draw (an `exp` and the stair-side normalization each time), the
//! historical per-draw cost. The two are bit-identical on the same RNG
//! stream (`tests/scratch_equivalence.rs`).

use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, require_positive, MechanismError};
use free_gap_alignment::SamplingSource;
use free_gap_noise::{ContinuousDistribution, Staircase};
use rand::rngs::StdRng;

/// Vector measurement with variance-optimal staircase noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaircaseMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl StaircaseMechanism {
    /// Creates the mechanism with budget `epsilon` per sensitivity-1 query.
    pub fn new(epsilon: f64) -> Result<Self, MechanismError> {
        Ok(Self {
            epsilon: require_epsilon(epsilon)?,
            sensitivity: 1.0,
        })
    }

    /// The privacy budget `ε` one measurement batch costs.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Overrides the sensitivity `Δ`.
    pub fn with_sensitivity(mut self, sensitivity: f64) -> Result<Self, MechanismError> {
        self.sensitivity = require_positive("sensitivity", sensitivity)?;
        Ok(self)
    }

    /// The noise distribution used per coordinate when the budget is split
    /// over `k` queries (optimal `γ*` split).
    ///
    /// # Errors
    /// [`MechanismError::InvalidEpsilon`] when the per-query budget `ε/k`
    /// admits no staircase in `f64`: so small that `e^{-ε/k}` rounds to 1
    /// (a long batch at a small `ε`), or so large that it rounds to 0.
    pub fn noise_for_batch(&self, k: usize) -> Result<Staircase, MechanismError> {
        let per_query = self.epsilon / k.max(1) as f64;
        Staircase::optimal(per_query, self.sensitivity)
            .map_err(|_| MechanismError::InvalidEpsilon { value: per_query })
    }

    /// Per-coordinate noise variance under [`measure_split`](Self::measure_split).
    ///
    /// # Errors
    /// As [`noise_for_batch`](Self::noise_for_batch).
    pub fn split_variance(&self, k: usize) -> Result<f64, MechanismError> {
        Ok(self.noise_for_batch(k)?.variance())
    }

    /// The measurement loop, and the one provider-taking entry: the budget
    /// split evenly over `answers` (the sequential-composition divisor is
    /// `answers.len()`), the batch's noise distribution constructed once,
    /// then one staircase draw per answer in index order through the
    /// provider's batch shape, written into `out` (reusing its buffer).
    /// Bit-identical to [`measure_split`](Self::measure_split) on the same
    /// RNG stream through every single-stream provider; the per-block
    /// providers fill the batch from their block streams. A batch whose
    /// budget admits no distribution fails before any draw.
    ///
    /// # Errors
    /// As [`noise_for_batch`](Self::noise_for_batch), for
    /// `k = answers.len()`.
    pub fn measure_split_into<P: DrawProvider>(
        &self,
        answers: &[f64],
        provider: &mut P,
        out: &mut Vec<f64>,
    ) -> Result<(), MechanismError> {
        let noise = self.noise_for_batch(answers.len())?;
        provider.begin();
        provider.staircase_fill_offset(answers, &noise, out);
        Ok(())
    }

    /// Sequential-composition measurement: splits the budget evenly over
    /// the answers (the staircase counterpart of
    /// [`crate::laplace_mech::LaplaceMechanism::measure_split`]). The dyn
    /// reference path: one
    /// [`NoiseSource::staircase`](free_gap_alignment::NoiseSource::staircase)
    /// call — and one distribution reconstruction — per draw.
    ///
    /// # Errors
    /// As [`noise_for_batch`](Self::noise_for_batch), for `k = answers.len()`.
    pub fn measure_split(
        &self,
        answers: &[f64],
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, MechanismError> {
        let mut out = Vec::new();
        self.measure_split_into(
            answers,
            &mut SourceDraws::new(&mut SamplingSource::new(rng)),
            &mut out,
        )?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::ScratchDraws;
    use crate::laplace_mech::LaplaceMechanism;
    use crate::scratch::SvtScratch;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::stats::RunningMoments;

    #[test]
    fn validation() {
        assert!(StaircaseMechanism::new(0.0).is_err());
        assert!(StaircaseMechanism::new(1.0)
            .unwrap()
            .with_sensitivity(-1.0)
            .is_err());
    }

    #[test]
    fn unbiased_with_advertised_variance() {
        let m = StaircaseMechanism::new(2.0).unwrap();
        let mut rng = rng_from_seed(1);
        let mut err = RunningMoments::new();
        for _ in 0..100_000 {
            let out = m.measure_split(&[50.0, 60.0], &mut rng).unwrap();
            err.push(out[0] - 50.0);
        }
        assert!(err.mean().abs() < 0.05, "bias {}", err.mean());
        let expect = m.split_variance(2).unwrap();
        assert!((err.variance() - expect).abs() / expect < 0.05);
    }

    #[test]
    fn beats_laplace_at_high_epsilon() {
        // Geng-Viswanath: staircase variance < Laplace variance, with the
        // advantage growing with ε.
        for (eps, k) in [(4.0, 1usize), (8.0, 2)] {
            let stair = StaircaseMechanism::new(eps)
                .unwrap()
                .split_variance(k)
                .unwrap();
            let lap = LaplaceMechanism::new(eps).unwrap().split_variance(k);
            assert!(
                stair < lap,
                "ε={eps}, k={k}: staircase {stair} vs laplace {lap}"
            );
        }
    }

    #[test]
    fn close_to_laplace_at_low_epsilon() {
        // As ε → 0 the two mechanisms' variances converge (ratio → 1).
        let stair = StaircaseMechanism::new(0.05)
            .unwrap()
            .split_variance(1)
            .unwrap();
        let lap = LaplaceMechanism::new(0.05).unwrap().split_variance(1);
        let ratio = stair / lap;
        assert!((0.9..=1.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn a_batch_whose_budget_rounds_away_is_a_typed_error() {
        // e^{-ε/n} rounds to 1 once ε/n falls below ~1.1e-16, and to 0 once
        // it passes ~745: no staircase exists at either end, and every path
        // says so instead of panicking.
        let tiny = StaircaseMechanism::new(1e-12).unwrap();
        let answers = vec![1.0; 20_000];
        let per_query = 1e-12 / 20_000.0;
        let invalid = MechanismError::InvalidEpsilon { value: per_query };
        assert_eq!(tiny.noise_for_batch(answers.len()), Err(invalid.clone()));
        assert_eq!(tiny.split_variance(answers.len()), Err(invalid.clone()));
        let mut rng = rng_from_seed(4);
        assert_eq!(tiny.measure_split(&answers, &mut rng), Err(invalid.clone()));
        let mut scratch = SvtScratch::new();
        let mut out = vec![7.0];
        assert_eq!(
            tiny.measure_split_into(
                &answers,
                &mut ScratchDraws::new(&mut scratch, &mut rng),
                &mut out
            ),
            Err(invalid)
        );
        assert_eq!(out, [7.0], "a rejected batch writes nothing");
        // A short batch at the same ε is fine.
        assert!(tiny.measure_split(&[1.0], &mut rng).is_ok());

        let huge = StaircaseMechanism::new(1e4).unwrap();
        assert!(matches!(
            huge.split_variance(1),
            Err(MechanismError::InvalidEpsilon { .. })
        ));
    }
}
