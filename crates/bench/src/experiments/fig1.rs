//! E-F1a / E-F1b — Figure 1: percent improvement in MSE vs `k`, on BMS-POS
//! with `ε = 0.7` (monotone counting queries).
//!
//! * Fig. 1a: Sparse-Vector-with-Gap + measures vs measures-only, with the
//!   theoretical curve `100·(1 - (1+∛k²)³/((1+∛k²)³+k²))`.
//! * Fig. 1b: Noisy-Top-K-with-Gap + measures (BLUE) vs measures-only, with
//!   the theoretical curve `100·(k-1)/(2k)` (Corollary 1 at λ = 1).
//!
//! Protocol per run (§7.2): half the budget selects (threshold drawn at a
//! random rank in `[2k, 8k]` for the SVT panel), half measures; MSE is over
//! the selected queries' estimates against their true counts, pooled over
//! all runs.

// lint:allow-file(panic-freedom): offline experiment driver with compile-time-known parameters; abort beats emitting a half-written figure

use crate::runner::parallel_runs_with_state;
use crate::table::Table;
use crate::workloads::Workload;
use crate::ExperimentConfig;
use free_gap_core::api::CallScratch;
use free_gap_core::draw::{RngDraws, ScratchDraws};
use free_gap_core::metrics::mse_improvement_percent;
use free_gap_core::pipelines::{svt_select_measure_into, topk_select_measure_into};
use free_gap_core::postprocess::{blue_variance_ratio, svt_error_ratio};
use free_gap_data::Dataset;

/// Which panel of Figure 1 to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// Fig. 1a: Sparse-Vector-with-Gap with measures.
    Svt,
    /// Fig. 1b: Noisy-Top-K-with-Gap with measures.
    TopK,
}

/// Sums of squared errors from one Monte-Carlo run.
#[derive(Debug, Clone, Copy, Default)]
struct SseSample {
    improved: f64,
    baseline: f64,
    n: usize,
}

/// Runs one panel of Figure 1 over `k_values`, on `dataset`.
pub fn run(config: &ExperimentConfig, panel: Panel, dataset: Dataset, k_values: &[usize]) -> Table {
    let workload = Workload::load(dataset, config.scale, config.seed);
    let label = match panel {
        Panel::Svt => "fig1a: Sparse-Vector-with-Gap + measures",
        Panel::TopK => "fig1b: Noisy-Top-K-with-Gap + measures",
    };
    let mut table = Table::new(
        format!(
            "{label} — % MSE improvement vs k ({}, ε = {}, {} runs)",
            dataset.name(),
            config.epsilon,
            config.runs
        ),
        &["k", "improvement_pct", "theory_pct", "pooled_pairs"],
    );

    for &k in k_values {
        // Each Monte-Carlo worker reuses one scratch across its whole chunk:
        // the batched pipeline paths keep the inner loop allocation-free.
        let samples = parallel_runs_with_state(
            config.runs,
            config.seed ^ (k as u64) << 32,
            CallScratch::new,
            |_, rng, scratch| {
                let mut s = SseSample::default();
                match panel {
                    Panel::TopK => {
                        let r = topk_select_measure_into(
                            &workload.answers,
                            k,
                            config.epsilon,
                            0.5,
                            &mut RngDraws::new(rng),
                            &mut scratch.topk,
                        )
                        .expect("workload sized for k");
                        for i in 0..k {
                            s.improved += (r.blue[i] - r.truths[i]).powi(2);
                            s.baseline += (r.measurements[i] - r.truths[i]).powi(2);
                        }
                        s.n = k;
                    }
                    Panel::Svt => {
                        let t = workload.draw_threshold(k, rng);
                        let r = svt_select_measure_into(
                            &workload.answers,
                            k,
                            config.epsilon,
                            t,
                            &mut ScratchDraws::new(&mut scratch.svt, rng),
                        )
                        .expect("valid configuration");
                        for i in 0..r.indices.len() {
                            s.improved += (r.combined[i] - r.truths[i]).powi(2);
                            s.baseline += (r.measurements[i] - r.truths[i]).powi(2);
                        }
                        s.n = r.indices.len();
                    }
                }
                s
            },
        );

        let (mut imp, mut base, mut n) = (0.0, 0.0, 0usize);
        for s in &samples {
            imp += s.improved;
            base += s.baseline;
            n += s.n;
        }
        let improvement = mse_improvement_percent(base / n as f64, imp / n as f64);
        let theory = match panel {
            Panel::TopK => 100.0 * (1.0 - blue_variance_ratio(k, 1.0)),
            Panel::Svt => 100.0 * (1.0 - svt_error_ratio(k, true)),
        };
        table.push_row(vec![k.into(), improvement.into(), theory.into(), n.into()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            runs: 150,
            scale: 0.01,
            seed: 7,
            epsilon: 0.7,
        }
    }

    #[test]
    fn topk_panel_tracks_theory() {
        let t = run(&small_config(), Panel::TopK, Dataset::BmsPos, &[2, 10]);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let emp: f64 = row[1].to_string().parse().unwrap();
            let theory: f64 = row[2].to_string().parse().unwrap();
            assert!(
                (emp - theory).abs() < 8.0,
                "empirical {emp} vs theory {theory}"
            );
        }
    }

    #[test]
    fn svt_panel_positive_improvement() {
        let t = run(&small_config(), Panel::Svt, Dataset::BmsPos, &[10]);
        let emp: f64 = t.rows[0][1].to_string().parse().unwrap();
        let theory: f64 = t.rows[0][2].to_string().parse().unwrap();
        assert!(emp > 10.0, "improvement {emp} too small");
        assert!(
            (emp - theory).abs() < 12.0,
            "empirical {emp} vs theory {theory}"
        );
    }
}
