//! # free-gap-bench
//!
//! Experiment harness reproducing **every table and figure** in the
//! evaluation (§7) of Ding et al., *Free Gap Information from the
//! Differentially Private Sparse Vector and Noisy Max Mechanisms* (VLDB
//! 2019), plus the ablations called out in `DESIGN.md`.
//!
//! | Experiment | Paper artifact | Module |
//! |------------|----------------|--------|
//! | `datasets` | §7.1 dataset table | [`experiments::datasets`] |
//! | `fig1a` / `fig1b` | Fig. 1: % MSE improvement vs `k` (BMS-POS) | [`experiments::fig1`] |
//! | `fig2a` / `fig2b` | Fig. 2: % MSE improvement vs `ε` (kosarak) | [`experiments::fig2`] |
//! | `fig3` | Fig. 3: answers + precision/F-measure, SVT vs Adaptive | [`experiments::fig3`] |
//! | `fig4` | Fig. 4: % remaining budget | [`experiments::fig4`] |
//! | `ablation-*` | θ / σ / budget-split sweeps (not in the paper) | [`experiments::ablations`] |
//!
//! Every experiment is a pure function of `(ExperimentConfig, parameters)`;
//! the `repro` binary is a thin CLI over them. Monte-Carlo runs are
//! parallelized over threads with per-run derived RNG streams
//! ([`runner::parallel_runs`]) so results are independent of thread count,
//! and each worker thread reuses one set of scratch buffers across its whole
//! chunk ([`runner::parallel_runs_with_state`] + the `run_into` entries of
//! `free-gap-core` through its scratch providers), keeping the Monte-Carlo
//! noise draws batched.
//!
//! Performance is measured elsewhere: the gated benchmark under
//! `benchmark/` times every mechanism at the shapes of the §7 datasets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod table;
pub mod workloads;

/// Shared knobs for all experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Monte-Carlo runs per plotted point. The paper uses 10,000; defaults
    /// here are smaller (documented per experiment) for laptop-scale runs.
    pub runs: usize,
    /// Dataset scale fraction in `(0, 1]` (record count; the item universe
    /// always stays at full size so rank-based thresholds are comparable).
    pub scale: f64,
    /// Root RNG seed.
    pub seed: u64,
    /// Total privacy budget ε for the experiments that fix it.
    pub epsilon: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            runs: 1000,
            scale: 1.0,
            seed: 20190412,
            epsilon: 0.7,
        }
    }
}
