//! E-X1..X3 — ablations over the design constants the paper fixes.
//!
//! * **θ sweep** (E-X1): Algorithm 2's budget-allocation hyperparameter.
//!   The paper follows Lyu et al.'s `θ = 1/(1 + k^{2/3})`; the sweep shows
//!   the answer count and F-measure around that choice.
//! * **σ sweep** (E-X2): the top-branch margin, fixed at 2 standard
//!   deviations in the paper (footnote 5). Smaller σ fires the cheap branch
//!   more (more answers, lower precision); larger σ degenerates to
//!   Sparse-Vector-with-Gap.
//! * **Budget-split sweep** (E-X3): the fraction of ε given to selection in
//!   the §5.2 select-then-measure protocol (paper: 1/2). The sweep traces
//!   the MSE improvement of BLUE as the split moves.

// lint:allow-file(panic-freedom): offline experiment driver with compile-time-known parameters; abort beats emitting a half-written figure

use crate::runner::{mean_and_stderr, parallel_runs, parallel_runs_with_state};
use crate::table::Table;
use crate::workloads::Workload;
use crate::ExperimentConfig;
use free_gap_core::draw::{RngDraws, ScratchDraws};
use free_gap_core::metrics::{mse_improvement_percent, selection_quality};
use free_gap_core::pipelines::topk_select_measure_into;
use free_gap_core::scratch::TopKScratch;
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, AdaptiveSvOutput, Branch, MultiBranchAdaptiveSparseVector,
};
use free_gap_core::QueryAnswers;
use free_gap_data::Dataset;
use free_gap_noise::rng::rng_from_seed;
use rand::seq::SliceRandom;
use rand::Rng;

/// A *hard* workload for the θ/σ ablations: query values spread uniformly
/// inside ±`spread` of the threshold, in shuffled order.
///
/// On the paper's rank-thresholded count workloads, every answered query is
/// so far above `T` that the cheap branch always fires and θ cancels out of
/// the answer count — the sweeps would be flat. The interesting regime for
/// both constants is queries *near* the threshold, which this workload
/// isolates. Returns `(answers, threshold, truly_above_indices)`.
fn near_threshold_workload(
    n: usize,
    threshold: f64,
    spread: f64,
    seed: u64,
) -> (QueryAnswers, f64, Vec<usize>) {
    let mut rng = rng_from_seed(seed ^ 0x0AB1_A7E5);
    let mut values: Vec<f64> = (0..n)
        .map(|_| threshold + spread * (2.0 * rng.gen::<f64>() - 1.0))
        .collect();
    values.shuffle(&mut rng);
    let truly_above = values
        .iter()
        .enumerate()
        .filter(|(_, &v)| v >= threshold)
        .map(|(i, _)| i)
        .collect();
    (QueryAnswers::counting(values), threshold, truly_above)
}

/// (answers, top-branch share, precision, F-measure) means for one point.
type SweepPoint = (f64, f64, f64, f64);

/// Per-sweep-point aggregation shared by the θ and σ sweeps.
fn sweep_adaptive_svt(
    config: &ExperimentConfig,
    k: usize,
    seed_salt: u64,
    build: impl Fn(f64) -> AdaptiveSparseVector + Sync,
) -> SweepPoint {
    // Spread chosen relative to the middle-branch noise at the paper's θ so
    // decisions are genuinely uncertain.
    let reference =
        AdaptiveSparseVector::new(k, config.epsilon, 0.0, true).expect("validated parameters");
    let spread = 4.0 * reference.middle_scale();
    let (answers, threshold, truth) = near_threshold_workload(400, 1_000.0, spread, config.seed);
    let stats = parallel_runs_with_state(
        config.runs,
        config.seed ^ seed_salt,
        free_gap_core::scratch::SvtScratch::new,
        |_, rng, scratch| {
            let mech = build(threshold);
            let mut out = AdaptiveSvOutput::default();
            let queries = answers.values().iter().copied();
            mech.run_into(queries, &mut ScratchDraws::new(scratch, rng), &mut out);
            let q = selection_quality(&out.above_indices(), &truth);
            let answered = out.answered() as f64;
            let top_share = if out.answered() == 0 {
                0.0
            } else {
                out.answered_via(Branch::Top) as f64 / answered
            };
            (answered, top_share, q.precision, q.f_measure)
        },
    );
    let mean_of = |f: &dyn Fn(&SweepPoint) -> f64| {
        mean_and_stderr(&stats.iter().map(f).collect::<Vec<_>>()).0
    };
    (
        mean_of(&|s| s.0),
        mean_of(&|s| s.1),
        mean_of(&|s| s.2),
        mean_of(&|s| s.3),
    )
}

/// E-X1: sweep Algorithm 2's θ at fixed `k`, on the near-threshold workload.
pub fn theta_sweep(config: &ExperimentConfig, k: usize, thetas: &[f64]) -> Table {
    let mut table = Table::new(
        format!(
            "ablation-theta: Adaptive-SVT θ sweep (near-threshold workload, k = {k}, ε = {}, {} runs; paper uses 1/(1+k^(2/3)) = {:.3})",
            config.epsilon,
            config.runs,
            1.0 / (1.0 + (k as f64).powf(2.0 / 3.0)),
        ),
        &["theta", "answers", "top_share", "precision", "f_measure"],
    );
    for (ti, &theta) in thetas.iter().enumerate() {
        let (answers, top, precision, f) =
            sweep_adaptive_svt(config, k, (ti as u64) << 8, |threshold| {
                AdaptiveSparseVector::new(k, config.epsilon, threshold, true)
                    .expect("validated parameters")
                    .with_theta(theta)
                    .expect("theta validated by caller")
            });
        table.push_row(vec![
            theta.into(),
            answers.into(),
            top.into(),
            precision.into(),
            f.into(),
        ]);
    }
    table
}

/// E-X2: sweep the top-branch margin multiplier (paper fixes 2), on the
/// near-threshold workload.
pub fn sigma_sweep(config: &ExperimentConfig, k: usize, multipliers: &[f64]) -> Table {
    let mut table = Table::new(
        format!(
            "ablation-sigma: Adaptive-SVT σ-multiplier sweep (near-threshold workload, k = {k}, ε = {}, {} runs; paper fixes 2 std)",
            config.epsilon, config.runs
        ),
        &["sigma_multiplier", "answers", "top_share", "precision", "f_measure"],
    );
    for (si, &mult) in multipliers.iter().enumerate() {
        let (answers, top, precision, f) =
            sweep_adaptive_svt(config, k, (si as u64) << 12, |threshold| {
                AdaptiveSparseVector::new(k, config.epsilon, threshold, true)
                    .expect("validated parameters")
                    .with_sigma_multiplier(mult)
                    .expect("multiplier validated by caller")
            });
        table.push_row(vec![
            mult.into(),
            answers.into(),
            top.into(),
            precision.into(),
            f.into(),
        ]);
    }
    table
}

/// E-X4: sweep the branch count of the multi-branch adaptive SVT (the §6.1
/// extension the paper sketches but does not evaluate) on the rank-
/// thresholded dataset workloads, where above-threshold queries are far
/// above and the cheapest branch dominates. Expected: answers ≈
/// `2^{m-1}·k`-ish up to the point where the deepest branch's noise and
/// margin (`∝ 2^{m-1}`) start rejecting real answers.
pub fn branches_sweep(
    config: &ExperimentConfig,
    dataset: Dataset,
    k: usize,
    branch_counts: &[usize],
) -> Table {
    let workload = Workload::load(dataset, config.scale, config.seed);
    let mut table = Table::new(
        format!(
            "ablation-branches: multi-branch Adaptive-SVT ({}, k = {k}, ε = {}, {} runs; Algorithm 2 is m = 2)",
            dataset.name(),
            config.epsilon,
            config.runs
        ),
        &["branches", "answers", "cheapest_share", "precision", "remaining_pct"],
    );
    for &m in branch_counts {
        let stats = parallel_runs(config.runs, config.seed ^ (m as u64) << 4, |_, rng| {
            let threshold = workload.draw_threshold(k, rng);
            let truth = workload.truly_above(threshold);
            let mech = MultiBranchAdaptiveSparseVector::new(k, config.epsilon, threshold, true, m)
                .expect("validated parameters");
            let out = mech.run(&workload.answers, rng);
            let q = selection_quality(&out.above_indices(), &truth);
            let answered = out.answered();
            let cheapest = if answered == 0 {
                0.0
            } else {
                out.answered_via(0) as f64 / answered as f64
            };
            (
                answered as f64,
                cheapest,
                q.precision,
                out.remaining_fraction() * 100.0,
            )
        });
        let mean_of = |f: &dyn Fn(&SweepPoint) -> f64| {
            mean_and_stderr(&stats.iter().map(f).collect::<Vec<_>>()).0
        };
        table.push_row(vec![
            m.into(),
            mean_of(&|s| s.0).into(),
            mean_of(&|s| s.1).into(),
            mean_of(&|s| s.2).into(),
            mean_of(&|s| s.3).into(),
        ]);
    }
    table
}

/// E-X3: sweep the selection/measurement budget split of the Top-K
/// pipeline (paper fixes 1/2).
///
/// The sweep exposes the tension behind the 50/50 choice: pushing budget
/// into selection improves the *recall* of the true top-k (you measure the
/// right queries) and makes the gaps sharper relative to the measurements
/// (larger BLUE improvement), while pushing budget into measurement
/// minimizes the raw estimation error on whatever got selected. No single
/// column peaks at 0.5 — the balanced split is the paper's compromise
/// between the two objectives.
pub fn split_sweep(
    config: &ExperimentConfig,
    dataset: Dataset,
    k: usize,
    fractions: &[f64],
) -> Table {
    let workload = Workload::load(dataset, config.scale, config.seed);
    let true_top: Vec<usize> = workload.counts.top_k_indices(k);
    let mut table = Table::new(
        format!(
            "ablation-split: selection-budget fraction sweep ({}, k = {k}, ε = {}, {} runs; paper fixes 0.5)",
            dataset.name(),
            config.epsilon,
            config.runs
        ),
        &["select_fraction", "topk_recall", "improvement_pct", "blue_mse", "baseline_mse"],
    );
    for (fi, &fraction) in fractions.iter().enumerate() {
        let samples = parallel_runs_with_state(
            config.runs,
            config.seed ^ (fi as u64) << 20,
            TopKScratch::new,
            |_, rng, scratch| {
                let r = topk_select_measure_into(
                    &workload.answers,
                    k,
                    config.epsilon,
                    fraction,
                    &mut RngDraws::new(rng),
                    scratch,
                )
                .expect("validated parameters");
                let mut blue = 0.0;
                let mut base = 0.0;
                for i in 0..k {
                    blue += (r.blue[i] - r.truths[i]).powi(2);
                    base += (r.measurements[i] - r.truths[i]).powi(2);
                }
                let recall = selection_quality(&r.indices, &true_top).recall;
                (blue, base, recall)
            },
        );
        let n = (config.runs * k) as f64;
        let blue_mse = samples.iter().map(|s| s.0).sum::<f64>() / n;
        let base_mse = samples.iter().map(|s| s.1).sum::<f64>() / n;
        let recall = samples.iter().map(|s| s.2).sum::<f64>() / config.runs as f64;
        table.push_row(vec![
            fraction.into(),
            recall.into(),
            mse_improvement_percent(base_mse, blue_mse).into(),
            blue_mse.into(),
            base_mse.into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            runs: 100,
            scale: 0.01,
            seed: 5,
            epsilon: 0.7,
        }
    }

    #[test]
    fn theta_sweep_validates_the_papers_choice() {
        // Precision peaks near the Lyu-et-al θ = 1/(1+k^{2/3}) and collapses
        // when almost the whole budget goes to the threshold (θ → 1 leaves
        // the per-query noises enormous).
        let paper_theta = 1.0 / (1.0 + 5f64.powf(2.0 / 3.0));
        let t = theta_sweep(&cfg(), 5, &[paper_theta, 0.9]);
        assert_eq!(t.rows.len(), 2);
        let p_paper: f64 = t.rows[0][3].to_string().parse().unwrap();
        let p_big: f64 = t.rows[1][3].to_string().parse().unwrap();
        assert!(
            p_paper > p_big + 0.05,
            "precision at paper θ ({p_paper}) vs θ=0.9 ({p_big})"
        );
    }

    #[test]
    fn small_sigma_answers_more_via_top() {
        let t = sigma_sweep(&cfg(), 5, &[0.5, 6.0]);
        let top_small: f64 = t.rows[0][2].to_string().parse().unwrap();
        let top_large: f64 = t.rows[1][2].to_string().parse().unwrap();
        assert!(
            top_small > top_large,
            "top-branch share should shrink with σ: {top_small} vs {top_large}"
        );
    }

    #[test]
    fn branches_sweep_monotone_answers_on_far_above_workload() {
        let t = branches_sweep(&cfg(), Dataset::BmsPos, 5, &[1, 2, 3]);
        let answers: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[1].to_string().parse().unwrap())
            .collect();
        assert!(answers[1] > answers[0], "m=2 vs m=1: {answers:?}");
        assert!(answers[2] >= answers[1] - 0.5, "m=3 vs m=2: {answers:?}");
    }

    #[test]
    fn near_threshold_workload_is_balanced_and_deterministic() {
        let (a, t, above) = near_threshold_workload(200, 1000.0, 50.0, 9);
        assert_eq!(a.len(), 200);
        // Roughly half above (uniform spread around T).
        assert!(
            (above.len() as f64 - 100.0).abs() < 30.0,
            "{} above",
            above.len()
        );
        assert!(a.values().iter().all(|v| (v - t).abs() <= 50.0));
        let (b, _, _) = near_threshold_workload(200, 1000.0, 50.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn split_sweep_exposes_the_tradeoff() {
        let t = split_sweep(&cfg(), Dataset::BmsPos, 5, &[0.15, 0.5, 0.85]);
        let col = |i: usize| -> Vec<f64> {
            t.rows
                .iter()
                .map(|r| r[i].to_string().parse().unwrap())
                .collect()
        };
        let recall = col(1);
        let improvement = col(2);
        let base_mse = col(4);
        // More selection budget => better recall of the true top-k…
        assert!(recall[2] > recall[0], "recall {recall:?}");
        // …and larger relative BLUE improvement (measurements degrade)…
        assert!(
            improvement[2] > improvement[0],
            "improvement {improvement:?}"
        );
        // …while the measurement baseline itself gets worse.
        assert!(base_mse[2] > base_mse[0], "baseline mse {base_mse:?}");
    }
}
