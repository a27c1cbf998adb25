//! E-F2a / E-F2b — Figure 2: percent improvement in MSE vs `ε`, on kosarak
//! with `k = 10` (monotone counting queries).
//!
//! Same protocol as Figure 1 with the roles of `k` and `ε` swapped. The
//! paper's point is that the improvement is *stable across ε* — both
//! theoretical curves are flat in ε, and the empirical series should hug
//! them at every budget.

// lint:allow-file(panic-freedom): offline experiment driver with compile-time-known parameters; abort beats emitting a half-written figure

use super::fig1::Panel;
use crate::runner::parallel_runs_with_state;
use crate::table::Table;
use crate::workloads::Workload;
use crate::ExperimentConfig;
use free_gap_core::api::CallScratch;
use free_gap_core::draw::ScratchDraws;
use free_gap_core::metrics::mse_improvement_percent;
use free_gap_core::pipelines::{svt_select_measure_into, topk_select_measure_into};
use free_gap_core::postprocess::{blue_variance_ratio, svt_error_ratio};
use free_gap_data::Dataset;

/// Runs one panel of Figure 2 over `epsilons` at fixed `k`.
pub fn run(
    config: &ExperimentConfig,
    panel: Panel,
    dataset: Dataset,
    k: usize,
    epsilons: &[f64],
) -> Table {
    let workload = Workload::load(dataset, config.scale, config.seed);
    let label = match panel {
        Panel::Svt => "fig2a: Sparse-Vector-with-Gap + measures",
        Panel::TopK => "fig2b: Noisy-Top-K-with-Gap + measures",
    };
    let mut table = Table::new(
        format!(
            "{label} — % MSE improvement vs ε ({}, k = {k}, {} runs)",
            dataset.name(),
            config.runs
        ),
        &["epsilon", "improvement_pct", "theory_pct", "pooled_pairs"],
    );

    for (ei, &epsilon) in epsilons.iter().enumerate() {
        let samples = parallel_runs_with_state(
            config.runs,
            config.seed ^ (ei as u64) << 40,
            CallScratch::new,
            |_, rng, scratch| match panel {
                Panel::TopK => {
                    let r = topk_select_measure_into(
                        &workload.answers,
                        k,
                        epsilon,
                        0.5,
                        &mut ScratchDraws::new(&mut scratch.svt, rng),
                        &mut scratch.topk,
                    )
                    .expect("workload sized for k");
                    let mut imp = 0.0;
                    let mut base = 0.0;
                    for i in 0..k {
                        imp += (r.blue[i] - r.truths[i]).powi(2);
                        base += (r.measurements[i] - r.truths[i]).powi(2);
                    }
                    (imp, base, k)
                }
                Panel::Svt => {
                    let t = workload.draw_threshold(k, rng);
                    let r = svt_select_measure_into(
                        &workload.answers,
                        k,
                        epsilon,
                        t,
                        &mut ScratchDraws::new(&mut scratch.svt, rng),
                    )
                    .expect("valid configuration");
                    let mut imp = 0.0;
                    let mut base = 0.0;
                    for i in 0..r.indices.len() {
                        imp += (r.combined[i] - r.truths[i]).powi(2);
                        base += (r.measurements[i] - r.truths[i]).powi(2);
                    }
                    (imp, base, r.indices.len())
                }
            },
        );

        let (mut imp, mut base, mut n) = (0.0, 0.0, 0usize);
        for (i, b, c) in &samples {
            imp += i;
            base += b;
            n += c;
        }
        let improvement = mse_improvement_percent(base / n.max(1) as f64, imp / n.max(1) as f64);
        let theory = match panel {
            Panel::TopK => 100.0 * (1.0 - blue_variance_ratio(k, 1.0)),
            Panel::Svt => 100.0 * (1.0 - svt_error_ratio(k, true)),
        };
        table.push_row(vec![
            epsilon.into(),
            improvement.into(),
            theory.into(),
            n.into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_stable_across_epsilon() {
        let cfg = ExperimentConfig {
            runs: 200,
            scale: 0.02,
            seed: 3,
            epsilon: 0.7,
        };
        let t = run(&cfg, Panel::TopK, Dataset::Kosarak, 10, &[0.3, 1.1]);
        let a: f64 = t.rows[0][1].to_string().parse().unwrap();
        let b: f64 = t.rows[1][1].to_string().parse().unwrap();
        // Theory: 45% at k = 10, independent of ε.
        assert!((a - 45.0).abs() < 8.0, "ε=0.3 improvement {a}");
        assert!((b - 45.0).abs() < 8.0, "ε=1.1 improvement {b}");
    }
}
