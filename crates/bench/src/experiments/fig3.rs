//! E-F3a–f — Figure 3: Adaptive-SVT-with-Gap vs classic Sparse Vector.
//!
//! For each `k` (with `ε = 0.7`, threshold at a random rank in `[2k, 8k]`
//! per run):
//!
//! * panels a–c: number of above-threshold answers — classic SVT vs the
//!   adaptive mechanism, the latter broken down into top-branch and
//!   middle-branch answers;
//! * panels d–f: precision and F-measure of both mechanisms against the
//!   noiseless ground truth.
//!
//! Expected shape (paper): the adaptive mechanism answers strictly more
//! (most answers via the cheap top branch, up to ~2× at large `k`),
//! with precision comparable to SVT and therefore an F-measure about 1.5×
//! higher.

// lint:allow-file(panic-freedom): offline experiment driver with compile-time-known parameters; abort beats emitting a half-written figure

use crate::runner::{mean_and_stderr, parallel_runs_with_state};
use crate::table::Table;
use crate::workloads::Workload;
use crate::ExperimentConfig;
use free_gap_core::draw::ScratchDraws;
use free_gap_core::metrics::selection_quality;
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, AdaptiveSvOutput, ClassicSparseVector, SvOutput,
};
use free_gap_data::Dataset;
use free_gap_noise::rng::rng_from_seed;
use rand::Rng;

/// Per-run observations.
#[derive(Debug, Clone, Copy)]
struct RunStats {
    svt_answers: f64,
    adaptive_top: f64,
    adaptive_middle: f64,
    svt_precision: f64,
    svt_f: f64,
    adaptive_precision: f64,
    adaptive_f: f64,
}

/// Runs Figure 3 (both the answer-count and quality panels) for one dataset.
pub fn run(config: &ExperimentConfig, dataset: Dataset, k_values: &[usize]) -> Table {
    let workload = Workload::load(dataset, config.scale, config.seed);
    let mut table = Table::new(
        format!(
            "fig3: SVT vs Adaptive-SVT-with-Gap ({}, ε = {}, {} runs)",
            dataset.name(),
            config.epsilon,
            config.runs
        ),
        &[
            "k",
            "svt_answers",
            "adaptive_answers",
            "adaptive_top",
            "adaptive_middle",
            "svt_precision",
            "adaptive_precision",
            "svt_f_measure",
            "adaptive_f_measure",
        ],
    );

    let salt = super::dataset_salt(dataset);
    for &k in k_values {
        // One scratch per mechanism: the scratch's predictive batch sizing
        // assumes consecutive runs of the *same* mechanism (SVT draws ~1 per
        // query, adaptive 2), so sharing one would mis-size every prefill.
        let stats = parallel_runs_with_state(
            config.runs,
            config.seed ^ salt ^ (k as u64) << 24,
            || {
                (
                    free_gap_core::scratch::SvtScratch::new(),
                    free_gap_core::scratch::SvtScratch::new(),
                )
            },
            |_, rng, (svt_scratch, adaptive_scratch)| {
                let threshold = workload.draw_threshold(k, rng);
                let truth = workload.truly_above(threshold);

                // Mechanisms are cheap value types; build them per run with the
                // freshly drawn threshold.
                let svt = ClassicSparseVector::new(k, config.epsilon, threshold, true)
                    .expect("validated parameters");
                let adaptive = AdaptiveSparseVector::new(k, config.epsilon, threshold, true)
                    .expect("validated parameters");

                // SvtScratch buffers a history-dependent lookahead from the
                // stream it draws on, so each mechanism gets its own
                // sub-stream (seeded by a fixed number of draws from the run
                // stream) — results stay independent of worker chunking.
                let mut svt_rng = rng_from_seed(rng.gen::<u64>());
                let mut adaptive_rng = rng_from_seed(rng.gen::<u64>());
                let queries = || workload.answers.values().iter().copied();
                let mut s = SvOutput::default();
                svt.run_into(
                    queries(),
                    &mut ScratchDraws::new(svt_scratch, &mut svt_rng),
                    &mut s,
                );
                let mut a = AdaptiveSvOutput::default();
                adaptive.run_into(
                    queries(),
                    &mut ScratchDraws::new(adaptive_scratch, &mut adaptive_rng),
                    &mut a,
                );
                let sq = selection_quality(&s.above_indices(), &truth);
                let aq = selection_quality(&a.above_indices(), &truth);
                RunStats {
                    svt_answers: s.answered() as f64,
                    adaptive_top: a.answered_via(0) as f64,
                    adaptive_middle: a.answered_via(1) as f64,
                    svt_precision: sq.precision,
                    svt_f: sq.f_measure,
                    adaptive_precision: aq.precision,
                    adaptive_f: aq.f_measure,
                }
            },
        );

        let col = |f: &dyn Fn(&RunStats) -> f64| {
            let xs: Vec<f64> = stats.iter().map(f).collect();
            mean_and_stderr(&xs).0
        };
        let top = col(&|s| s.adaptive_top);
        let middle = col(&|s| s.adaptive_middle);
        table.push_row(vec![
            k.into(),
            col(&|s| s.svt_answers).into(),
            (top + middle).into(),
            top.into(),
            middle.into(),
            col(&|s| s.svt_precision).into(),
            col(&|s| s.adaptive_precision).into(),
            col(&|s| s.svt_f).into(),
            col(&|s| s.adaptive_f).into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_answers_more_with_comparable_precision() {
        let cfg = ExperimentConfig {
            runs: 120,
            scale: 0.01,
            seed: 11,
            epsilon: 0.7,
        };
        let t = run(&cfg, Dataset::BmsPos, &[10]);
        let row = &t.rows[0];
        let svt_answers: f64 = row[1].to_string().parse().unwrap();
        let adaptive_answers: f64 = row[2].to_string().parse().unwrap();
        let svt_p: f64 = row[5].to_string().parse().unwrap();
        let ad_p: f64 = row[6].to_string().parse().unwrap();
        let svt_f: f64 = row[7].to_string().parse().unwrap();
        let ad_f: f64 = row[8].to_string().parse().unwrap();
        assert!(
            adaptive_answers > svt_answers,
            "adaptive {adaptive_answers} vs svt {svt_answers}"
        );
        assert!(
            (svt_p - ad_p).abs() < 0.25,
            "precision gap too large: {svt_p} vs {ad_p}"
        );
        assert!(ad_f > svt_f, "F-measure should improve: {ad_f} vs {svt_f}");
    }
}
