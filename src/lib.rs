//! # free-gap
//!
//! A production Rust implementation of **"Free Gap Information from the
//! Differentially Private Sparse Vector and Noisy Max Mechanisms"**
//! (Zeyu Ding, Yuxin Wang, Danfeng Zhang, Daniel Kifer — PVLDB 13(3), 2019;
//! arXiv:1904.12773).
//!
//! The paper's observation: two workhorse selection mechanisms of
//! differential privacy silently *discard* information their privacy proofs
//! already pay for.
//!
//! * **Noisy Max / Top-K** can release the noisy *gap* between each selected
//!   query and the runner-up at no extra privacy cost
//!   ([`NoisyTopKWithGap`], Algorithm 1), and a postprocessing BLUE
//!   ([`postprocess::blue`], Theorem 3) folds those gaps into subsequent
//!   measurements for up to a 50% MSE reduction.
//! * **Sparse Vector** can release the gap between each above-threshold
//!   query and the noisy threshold ([`SparseVectorWithGap`]), and an
//!   *adaptive* variant ([`AdaptiveSparseVector`], Algorithm 2) spends less
//!   budget on queries far above the threshold, answering up to twice as
//!   many at the same `ε`.
//!
//! This facade re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`](mod@core) (`free-gap-core`) | mechanisms, budget accounting, postprocessing, pipelines |
//! | [`noise`] (`free-gap-noise`) | Laplace / Discrete Laplace / Staircase / Lemma-5 distributions |
//! | [`alignment`] (`free-gap-alignment`) | executable randomness-alignment checker (§4/§8) |
//! | [`data`] (`free-gap-data`) | transaction datasets, surrogate generators, workloads |
//!
//! ## Quickstart
//!
//! ```
//! use free_gap::prelude::*;
//!
//! // Five counting queries; ask for the top 2 with free gaps at ε = 1.
//! let answers = QueryAnswers::counting(vec![120.0, 40.0, 97.0, 80.0, 3.0]);
//! let mech = NoisyTopKWithGap::new(2, 1.0, true).unwrap();
//! let mut rng = rng_from_seed(42);
//! let out = mech.run(&answers, &mut rng).unwrap();
//! println!("winner: query #{} (gap to runner-up ≈ {:.1})",
//!          out.items[0].index, out.items[0].gap);
//! ```
//!
//! See `examples/` for full select-measure-postprocess workflows and the
//! `repro` binary (`cargo run --release -p free-gap-bench --bin repro -- all`)
//! for the paper's complete evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use free_gap_alignment as alignment;
pub use free_gap_core as core;
pub use free_gap_data as data;
pub use free_gap_noise as noise;

/// One-stop imports for the common workflows.
///
/// Both adaptive SVT mechanisms, Algorithm 2 ([`AdaptiveSparseVector`],
/// the two-rung branch ladder) and [`MultiBranchAdaptiveSparseVector`],
/// write one output type, [`AdaptiveSvOutput`]: a list of
/// [`AdaptiveOutcome`]s, each naming its answering rung (0 is the
/// cheapest).
///
/// [`AdaptiveSparseVector`]: prelude::AdaptiveSparseVector
/// [`MultiBranchAdaptiveSparseVector`]: prelude::MultiBranchAdaptiveSparseVector
/// [`AdaptiveSvOutput`]: prelude::AdaptiveSvOutput
/// [`AdaptiveOutcome`]: prelude::AdaptiveOutcome
pub mod prelude {
    pub use free_gap_alignment::{check_alignment, AlignedMechanism};
    pub use free_gap_core::answers::QueryAnswers;
    pub use free_gap_core::budget::PrivacyBudget;
    pub use free_gap_core::draw::{DrawProvider, RngDraws, ScratchDraws, SourceDraws};
    pub use free_gap_core::exponential_mech::ExponentialMechanism;
    pub use free_gap_core::laplace_mech::LaplaceMechanism;
    pub use free_gap_core::metrics::{mse_improvement_percent, selection_quality};
    pub use free_gap_core::noisy_max::{
        pairwise_gap, pairwise_gap_variance, ClassicNoisyMax, ClassicNoisyTopK,
        DiscreteNoisyTopKWithGap, NoisyMaxWithGap, NoisyTopKWithGap, TopKOutput,
    };
    pub use free_gap_core::pipelines::{
        svt_select_measure, svt_select_measure_into, topk_select_measure, topk_select_measure_into,
        topk_select_measure_with_split,
    };
    pub use free_gap_core::postprocess::{
        blue_estimates, blue_variance_ratio, combine_gap_with_measurement, gap_confidence_offset,
        svt_error_ratio, BlueInput,
    };
    pub use free_gap_core::scratch::{SvtScratch, TopKScratch};
    pub use free_gap_core::sparse_vector::{
        AdaptiveOutcome, AdaptiveSparseVector, AdaptiveSvOutput, ClassicSparseVector,
        DiscreteSparseVectorWithGap, MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
        SvOutput,
    };
    pub use free_gap_core::staircase_mech::StaircaseMechanism;
    pub use free_gap_core::MechanismError;
    pub use free_gap_data::{Dataset, ItemCounts, TransactionDb};
    pub use free_gap_noise::rng::rng_from_seed;
    pub use free_gap_noise::{ContinuousDistribution, Laplace, LaplaceDiff};
}

// Re-export the most-used types at the crate root as well.
pub use free_gap_core::answers::QueryAnswers;
pub use free_gap_core::noisy_max::NoisyTopKWithGap;
pub use free_gap_core::sparse_vector::{AdaptiveSparseVector, SparseVectorWithGap};
pub use free_gap_core::{postprocess, MechanismError};
