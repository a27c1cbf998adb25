//! End-to-end select-then-measure pipelines — the protocol of the paper's
//! §7.2 experiments.
//!
//! Both pipelines split the total budget in half: selection (with free
//! gaps) gets `ε/2`, direct measurement of the selected queries gets the
//! other `ε/2` (divided evenly among them). The free gap information is
//! then folded into the measurements by postprocessing:
//!
//! * [`topk_select_measure`] — Noisy-Top-K-with-Gap + BLUE (Theorem 3);
//! * [`svt_select_measure`] — Sparse-Vector-with-Gap + inverse-variance
//!   combination (§6.2).
//!
//! The `measurements` field of each result is the gap-free baseline an
//! analyst unaware of the free gaps would use; the experiments compare its
//! MSE against the postprocessed estimates.
//!
//! Like the mechanisms themselves, each pipeline is **one core** generic
//! over [`DrawProvider`], and that core is its public `_into` entry: the
//! protocol wiring (budget split, measurement scale convention, the BLUE
//! `λ` formula, inverse-variance weights) exists once, and the caller picks
//! the execution path by picking the provider. Selection and measurement
//! draw through the same provider in order, so every single-stream
//! provider reproduces the allocating reference entry bit for bit.

use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::MechanismError;
use crate::laplace_mech::LaplaceMechanism;
use crate::noisy_max::{NoisyTopKWithGap, TopKOutput};
use crate::postprocess::blue::{blue_estimates, BlueInput};
use crate::postprocess::weighted::{combine_gap_with_measurement, topk_lambda_for_even_split};
use crate::scratch::TopKScratch;
use crate::sparse_vector::{SparseVectorWithGap, SvOutput};
use crate::staircase_mech::StaircaseMechanism;
use free_gap_alignment::SamplingSource;
use free_gap_noise::ContinuousDistribution;
use rand::rngs::StdRng;

/// Result of the Top-K select-then-measure pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKPipelineResult {
    /// Selected query indices, best first.
    pub indices: Vec<usize>,
    /// The `k` free gaps from Algorithm 1 (the last one to the runner-up).
    pub gaps: Vec<f64>,
    /// Direct noisy measurements `αᵢ` of the selected queries (baseline).
    pub measurements: Vec<f64>,
    /// BLUE estimates `βᵢ` combining measurements with the first `k-1` gaps.
    pub blue: Vec<f64>,
    /// True answers of the selected queries (for scoring; not private).
    pub truths: Vec<f64>,
}

/// The single copy of the §5.2 protocol, generic over the [`DrawProvider`]:
/// Noisy-Top-K-with-Gap at `f·ε`, Laplace measurement of the selected
/// queries at `(1-f)·ε` shared evenly (the `measure_split` convention),
/// BLUE postprocessing. The BLUE λ adapts: with monotone factor `c`
/// (1 monotone, 2 general), the gap-noise scale is `c·k/(fε)` and the
/// measurement scale `k/((1-f)ε)`, so `λ = (c(1-f)/f)²` — the paper's
/// `λ = 1`/`λ = 4` at `f = 1/2`.
///
/// Selection and measurement draw through the *same* provider in order
/// (`n` selection draws, then `k` measurement draws). The fast path is
/// [`ScratchDraws`](crate::draw::ScratchDraws) with a reused [`TopKScratch`].
pub fn topk_select_measure_into<P: DrawProvider>(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    select_fraction: f64,
    provider: &mut P,
    scratch: &mut TopKScratch,
) -> Result<TopKPipelineResult, MechanismError> {
    answers.require_len(k + 1)?;
    let f = crate::error::require_fraction("select_fraction", select_fraction)?;
    let selector = NoisyTopKWithGap::new(k, f * epsilon, answers.monotonic())?;
    let measurer = LaplaceMechanism::new((1.0 - f) * epsilon)?;

    let mut selection = TopKOutput::default();
    selector.run_into(answers.values(), provider, scratch, &mut selection)?;
    let indices = selection.indices();
    let truths: Vec<f64> = indices.iter().map(|&i| answers.values()[i]).collect();

    // measure_split's convention: ε shared evenly across the k measurements.
    let meas_scale = measurer.scale() * truths.len().max(1) as f64;
    let mut measurements = Vec::new();
    provider.fill_offset(&truths, meas_scale, &mut measurements);

    let c = if answers.monotonic() { 1.0 } else { 2.0 };
    let lambda = (c * (1.0 - f) / f).powi(2);
    debug_assert!(
        (f - 0.5).abs() > 1e-12
            || (lambda - topk_lambda_for_even_split(answers.monotonic())).abs() < 1e-12
    );

    let gaps = selection.gaps();
    let blue = blue_estimates(&BlueInput {
        measurements: &measurements,
        gaps: &gaps[..k - 1],
        lambda,
    })?;

    Ok(TopKPipelineResult {
        indices,
        gaps,
        measurements,
        blue,
        truths,
    })
}

/// Runs the §5.2 protocol: Noisy-Top-K-with-Gap at `ε/2`, Laplace
/// measurement of the selected queries at `ε/2`, BLUE postprocessing.
pub fn topk_select_measure(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    rng: &mut StdRng,
) -> Result<TopKPipelineResult, MechanismError> {
    topk_select_measure_with_split(answers, k, epsilon, 0.5, rng)
}

/// The §5.2 protocol with an adjustable budget split (`select_fraction` of
/// `epsilon` goes to selection, the rest to measurement); used by the
/// budget-split ablation (the paper fixes `f = 1/2`). See
/// [`topk_select_measure_into`] for the λ adaptation.
pub fn topk_select_measure_with_split(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    select_fraction: f64,
    rng: &mut StdRng,
) -> Result<TopKPipelineResult, MechanismError> {
    let mut source = SamplingSource::new(rng);
    topk_select_measure_into(
        answers,
        k,
        epsilon,
        select_fraction,
        &mut SourceDraws::new(&mut source),
        &mut TopKScratch::new(),
    )
}

/// The §5.2 protocol with the variance-optimal **staircase** measurement of
/// §3.1 in place of Laplace: selection (and its free gaps) is the unchanged
/// Laplace-noised Algorithm 1 at `ε/2`, while the direct measurements of
/// the selected queries carry staircase noise at `ε/2` split evenly
/// (the [`StaircaseMechanism::measure_split`] convention, drawn through the
/// provider's [`staircase_fill_offset`](DrawProvider::staircase_fill_offset)
/// shape — four uniforms per measurement). BLUE is variance-weighted, so
/// `λ` adapts to the actual ratio `Var(selection noise)/Var(staircase
/// noise)` instead of the fixed Laplace-vs-Laplace constants. Draw counts
/// are data-independent (`n` Laplace + `4k` staircase uniforms).
pub fn topk_select_measure_staircase_into<P: DrawProvider>(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    provider: &mut P,
    scratch: &mut TopKScratch,
) -> Result<TopKPipelineResult, MechanismError> {
    answers.require_len(k + 1)?;
    let half = epsilon / 2.0;
    let selector = NoisyTopKWithGap::new(k, half, answers.monotonic())?;
    let measurer = StaircaseMechanism::new(half)?;

    let mut selection = TopKOutput::default();
    selector.run_into(answers.values(), provider, scratch, &mut selection)?;
    let indices = selection.indices();
    let truths: Vec<f64> = indices.iter().map(|&i| answers.values()[i]).collect();

    let noise = measurer.noise_for_batch(k)?;
    let mut measurements = Vec::new();
    provider.staircase_fill_offset(&truths, &noise, &mut measurements);

    // BLUE's λ is the per-draw noise-variance ratio (selection vs
    // measurement); for Laplace-vs-Laplace it collapses to the
    // `(c(1-f)/f)²` constants of `topk_select_measure_into`.
    let sel_scale = selector.scale();
    let lambda = 2.0 * sel_scale * sel_scale / noise.variance();

    let gaps = selection.gaps();
    let blue = blue_estimates(&BlueInput {
        measurements: &measurements,
        gaps: &gaps[..k - 1],
        lambda,
    })?;

    Ok(TopKPipelineResult {
        indices,
        gaps,
        measurements,
        blue,
        truths,
    })
}

/// Runs the §5.2 protocol with staircase measurement noise (§3.1): the
/// drop-in-replacement pipeline the paper's related-work discussion
/// sketches. Selection and its free gaps are unchanged.
pub fn topk_select_measure_staircase(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    rng: &mut StdRng,
) -> Result<TopKPipelineResult, MechanismError> {
    let mut source = SamplingSource::new(rng);
    topk_select_measure_staircase_into(
        answers,
        k,
        epsilon,
        &mut SourceDraws::new(&mut source),
        &mut TopKScratch::new(),
    )
}

/// Result of the SVT select-then-measure pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SvtPipelineResult {
    /// Indices answered above-threshold, in stream order.
    pub indices: Vec<usize>,
    /// Their released gaps.
    pub gaps: Vec<f64>,
    /// Direct noisy measurements `αᵢ` (baseline).
    pub measurements: Vec<f64>,
    /// Inverse-variance combinations of `gap + T` with the measurements.
    pub combined: Vec<f64>,
    /// True answers of the answered queries.
    pub truths: Vec<f64>,
}

/// The single copy of the §6.2 protocol, generic over the [`DrawProvider`]:
/// Sparse-Vector-with-Gap at `ε/2` (optimal internal split), Laplace
/// measurement at `ε/2` over `k` queries (sized for `k` even if fewer were
/// answered — the analyst commits to the split before seeing the
/// selection), inverse-variance combination.
///
/// SVT's draw count is data-dependent, and the measurements are drawn
/// through the selection's provider right after it halts. The fast path is
/// [`ScratchDraws`](crate::draw::ScratchDraws): its blocked tape may have
/// pulled uniforms past the halting query, but it serves them to the
/// measurement first, so the served sequence is still the sequential
/// stream and the result is bit-identical to [`svt_select_measure`] on the
/// same RNG stream.
pub fn svt_select_measure_into<P: DrawProvider>(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    threshold: f64,
    provider: &mut P,
) -> Result<SvtPipelineResult, MechanismError> {
    let half = epsilon / 2.0;
    let selector = SparseVectorWithGap::new(k, half, threshold, answers.monotonic())?;
    let measurer = LaplaceMechanism::new(half)?;

    let mut selection = SvOutput::default();
    selector.run_into(answers.values().iter().copied(), provider, &mut selection);
    let pairs = selection.gaps();
    let indices: Vec<usize> = pairs.iter().map(|(i, _)| *i).collect();
    let gaps: Vec<f64> = pairs.iter().map(|(_, g)| *g).collect();
    let truths: Vec<f64> = indices.iter().map(|&i| answers.values()[i]).collect();

    let meas_scale = measurer.scale() * k as f64;
    let mut measurements = Vec::new();
    provider.fill_offset(&truths, meas_scale, &mut measurements);

    let gap_var = selector.gap_variance();
    let meas_var = 2.0 * meas_scale * meas_scale;
    let combined = gaps
        .iter()
        .zip(&measurements)
        .map(|(g, a)| combine_gap_with_measurement(*g, threshold, gap_var, *a, meas_var))
        .collect::<Result<Vec<_>, _>>()?;

    Ok(SvtPipelineResult {
        indices,
        gaps,
        measurements,
        combined,
        truths,
    })
}

/// Runs the §6.2 protocol: Sparse-Vector-with-Gap at `ε/2` (optimal internal
/// split), Laplace measurement at `ε/2` over `k` queries, inverse-variance
/// combination.
pub fn svt_select_measure(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    threshold: f64,
    rng: &mut StdRng,
) -> Result<SvtPipelineResult, MechanismError> {
    let mut source = SamplingSource::new(rng);
    svt_select_measure_into(
        answers,
        k,
        epsilon,
        threshold,
        &mut SourceDraws::new(&mut source),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::{RngDraws, ScratchDraws};
    use crate::scratch::SvtScratch;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::stats::RunningMoments;

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![
            500.0, 480.0, 20.0, 460.0, 440.0, 10.0, 420.0, 400.0, 5.0, 380.0, 2.0,
        ])
    }

    #[test]
    fn topk_pipeline_shapes() {
        let mut rng = rng_from_seed(1);
        let r = topk_select_measure(&workload(), 4, 1.0, &mut rng).unwrap();
        assert_eq!(r.indices.len(), 4);
        assert_eq!(r.gaps.len(), 4);
        assert_eq!(r.measurements.len(), 4);
        assert_eq!(r.blue.len(), 4);
        assert_eq!(r.truths.len(), 4);
    }

    #[test]
    fn topk_pipeline_blue_beats_measurements() {
        // Monte-Carlo over the full pipeline: BLUE's MSE should undercut the
        // measurement-only baseline by about 1 - (1+k)/(2k) (Corollary 1).
        let k = 5;
        let mut rng = rng_from_seed(2);
        let mut mse_blue = RunningMoments::new();
        let mut mse_meas = RunningMoments::new();
        for _ in 0..4_000 {
            let r = topk_select_measure(&workload(), k, 1.0, &mut rng).unwrap();
            for i in 0..k {
                mse_blue.push((r.blue[i] - r.truths[i]).powi(2));
                mse_meas.push((r.measurements[i] - r.truths[i]).powi(2));
            }
        }
        let ratio = mse_blue.mean() / mse_meas.mean();
        let expect = (1.0 + k as f64) / (2.0 * k as f64); // 0.6 at k = 5
        assert!((ratio - expect).abs() < 0.05, "ratio {ratio} vs {expect}");
    }

    #[test]
    fn staircase_pipeline_shapes_and_blue_improvement() {
        let k = 4;
        let mut rng = rng_from_seed(11);
        let mut mse_blue = RunningMoments::new();
        let mut mse_meas = RunningMoments::new();
        for _ in 0..4_000 {
            let r = topk_select_measure_staircase(&workload(), k, 2.0, &mut rng).unwrap();
            assert_eq!(r.indices.len(), k);
            assert_eq!(r.measurements.len(), k);
            assert_eq!(r.blue.len(), k);
            for i in 0..k {
                mse_blue.push((r.blue[i] - r.truths[i]).powi(2));
                mse_meas.push((r.measurements[i] - r.truths[i]).powi(2));
            }
        }
        // BLUE folds the free gaps in; it must strictly beat the
        // measurement-only baseline whatever the measurement noise family.
        assert!(
            mse_blue.mean() < 0.95 * mse_meas.mean(),
            "blue {} vs measurements {}",
            mse_blue.mean(),
            mse_meas.mean()
        );
    }

    #[test]
    fn staircase_scratch_pipeline_is_bit_identical() {
        // Data-independent draw counts: the fast path reproduces the
        // allocating staircase pipeline exactly.
        let mut scratch = TopKScratch::new();
        for seed in 0..50 {
            let expect =
                topk_select_measure_staircase(&workload(), 4, 1.0, &mut rng_from_seed(seed))
                    .unwrap();
            let got = topk_select_measure_staircase_into(
                &workload(),
                4,
                1.0,
                &mut RngDraws::new(&mut rng_from_seed(seed)),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(expect, got, "seed {seed}");
        }
    }

    #[test]
    fn svt_pipeline_shapes_and_improvement() {
        let k = 5;
        let threshold = 300.0;
        let mut rng = rng_from_seed(3);
        let mut mse_comb = RunningMoments::new();
        let mut mse_meas = RunningMoments::new();
        for _ in 0..4_000 {
            let r = svt_select_measure(&workload(), k, 1.0, threshold, &mut rng).unwrap();
            assert!(r.indices.len() <= k);
            for i in 0..r.indices.len() {
                mse_comb.push((r.combined[i] - r.truths[i]).powi(2));
                mse_meas.push((r.measurements[i] - r.truths[i]).powi(2));
            }
        }
        let ratio = mse_comb.mean() / mse_meas.mean();
        let expect = crate::postprocess::weighted::svt_error_ratio(k, true);
        assert!((ratio - expect).abs() < 0.05, "ratio {ratio} vs {expect}");
    }

    #[test]
    fn rejects_undersized_workloads() {
        let mut rng = rng_from_seed(4);
        let small = QueryAnswers::counting(vec![1.0, 2.0]);
        assert!(topk_select_measure(&small, 2, 1.0, &mut rng).is_err());
        let mut provider = RngDraws::new(&mut rng);
        let mut scratch = TopKScratch::new();
        assert!(
            topk_select_measure_into(&small, 2, 1.0, 0.5, &mut provider, &mut scratch).is_err()
        );
    }

    #[test]
    fn topk_scratch_pipeline_is_bit_identical() {
        // The Top-K pipeline draws a data-independent number of variates, so
        // the fast path reproduces the allocating path exactly.
        let mut scratch = TopKScratch::new();
        for seed in 0..50 {
            let expect =
                topk_select_measure(&workload(), 4, 1.0, &mut rng_from_seed(seed)).unwrap();
            let got = topk_select_measure_into(
                &workload(),
                4,
                1.0,
                0.5,
                &mut RngDraws::new(&mut rng_from_seed(seed)),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(expect, got, "seed {seed}");
        }
    }

    #[test]
    fn svt_scratch_pipeline_is_bit_identical() {
        // SVT's draw count is data-dependent and the tape pulls ahead of the
        // halting query, but it serves that lookahead to the measurement
        // first: through one reused scratch, the fast path reproduces the
        // allocating pipeline exactly, at thresholds that halt early, late
        // and never.
        let mut scratch = SvtScratch::new();
        for threshold in [300.0, 450.0, 600.0] {
            for seed in 0..200 {
                let expect =
                    svt_select_measure(&workload(), 5, 1.0, threshold, &mut rng_from_seed(seed))
                        .unwrap();
                let mut rng = rng_from_seed(seed);
                let got = svt_select_measure_into(
                    &workload(),
                    5,
                    1.0,
                    threshold,
                    &mut ScratchDraws::new(&mut scratch, &mut rng),
                )
                .unwrap();
                assert_eq!(expect, got, "threshold {threshold} seed {seed}");
            }
        }
    }
}
