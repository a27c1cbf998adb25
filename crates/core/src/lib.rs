//! # free-gap-core
//!
//! The primary contribution of Ding, Wang, Zhang & Kifer, *"Free Gap
//! Information from the Differentially Private Sparse Vector and Noisy Max
//! Mechanisms"* (VLDB 2019), as a production Rust library — plus every
//! baseline the paper compares against.
//!
//! ## Mechanisms
//!
//! | Module | Mechanism | Paper reference |
//! |--------|-----------|-----------------|
//! | [`noisy_max::NoisyTopKWithGap`] | Noisy-Top-K-with-Gap: Algorithm 1's core, the one core of the Noisy-Top-K family | Algorithm 1, Theorem 2 |
//! | [`noisy_max::ClassicNoisyTopK`] | index-only Noisy Max / Top-K baseline: Algorithm 1's core with the gaps withheld | Dwork & Roth, §5 |
//! | [`noisy_max::DiscreteNoisyTopKWithGap`] | finite-precision Noisy-Top-K-with-Gap: Algorithm 1's core over discrete Laplace draws | §5.1, Appendix A.1 |
//! | [`sparse_vector::AdaptiveSparseVector`] | Adaptive-Sparse-Vector-with-Gap: the two-rung branch ladder | Algorithm 2, Theorem 4 |
//! | [`sparse_vector::MultiBranchAdaptiveSparseVector`] | the `m`-rung branch ladder, the one loop of the SVT family | §6.1 extension |
//! | [`sparse_vector::SparseVectorWithGap`] | Sparse-Vector-with-Gap (Wang et al.): the one-rung branch ladder | §6.1 (σ = ∞ case) |
//! | [`sparse_vector::ClassicSparseVector`] | SVT baseline (Lyu et al.): the one-rung ladder with the gaps withheld | §2, §7.3 |
//! | [`sparse_vector::DiscreteSparseVectorWithGap`] | finite-precision Sparse-Vector-with-Gap: the one-rung ladder over discrete Laplace draws | §5.1 |
//! | [`exponential_mech::ExponentialMechanism`] | exponential-mechanism selection baseline | §2 related work |
//! | [`laplace_mech::LaplaceMechanism`] | Laplace measurement | Theorem 1 |
//!
//! ## Free-gap postprocessing
//!
//! * [`postprocess::blue`] — the best linear unbiased estimator combining
//!   direct measurements with Top-K gaps (Theorem 3) and its error ratio
//!   (Corollary 1, up to 50% MSE reduction for counting queries).
//! * [`postprocess::weighted`] — inverse-variance combination of SVT gaps
//!   with measurements (§6.2, up to 50%/20% reduction).
//! * [`postprocess::confidence`] — free lower-confidence intervals from the
//!   gap (Lemma 5).
//! * [`pipelines`] — end-to-end select-then-measure workflows with a 50/50
//!   budget split, the protocol of the paper's §7.2 experiments.
//!
//! Every mechanism implements
//! [`free_gap_alignment::AlignedMechanism`], packaging the local alignment
//! from its privacy proof (Lemma 2 / Lemma 4) so the test-suite can execute
//! the proof obligations on concrete runs.
//!
//! ## Execution paths: one core per mechanism, generic over [`draw::DrawProvider`]
//!
//! Each mechanism's decision/budget logic exists in **exactly one**
//! function, generic over the [`draw::DrawProvider`] it draws noise
//! through, and that function is the mechanism's one provider-taking
//! public entry, named `*_into`. The selection mechanisms share two cores,
//! the SVT family's branch ladder and Algorithm 1's, each generic over the
//! noise family too (continuous or discrete Laplace). The entries are
//! `run_into`,
//! [`exponential_mech::ExponentialMechanism::run_top_k_into`] and
//! [`staircase_mech::StaircaseMechanism::measure_split_into`]. Each writes
//! into a caller-owned output (build an empty one with `Default`; every
//! field is overwritten) and the caller picks the execution path by
//! picking the provider:
//!
//! * **[`draw::SourceDraws`]** over `dyn NoiseSource` — the path the
//!   alignment checker interposes on (recording and replaying tapes), and
//!   the reference semantics of the allocating `run` / `run_top_k` /
//!   `measure_split` entries; strictly draw-exact, so tapes stay
//!   draw-for-draw faithful.
//! * **[`draw::ScratchDraws`]** — the one fast path, for every mechanism.
//!   Scalar and tuple draws come off the chunked [`scratch::SvtScratch`]
//!   tape; bulk fills drain it, then run the fused
//!   [`free_gap_noise::ContinuousDistribution::fill_into_offset`] kernel
//!   on the RNG. Selection buffers live in a reusable
//!   [`scratch::TopKScratch`], and the RNG is a monomorphic generic (no
//!   virtual dispatch). Outputs are **bit-for-bit identical** to `run` on
//!   the same RNG stream; the blocked tape may consume *more* of the stream
//!   (batch lookahead), so derive a fresh
//!   [`free_gap_noise::rng::derive_stream`] per run. [`draw::RngDraws`] is
//!   its draw-exact twin, without a tape. Both are
//!   [bounded](draw::DrawProvider::bounded): the SVT cores answer `⊥`
//!   without drawing a query no draw could lift over the threshold, and
//!   skip its draws, which moves no output bit; `SourceDraws` never does.
//!
//! The SVT family's and the exponential race's `_into` entries consume
//! `impl IntoIterator<Item = f64>` *lazily*, answering each query as it is
//! pulled and halting the pull the moment the mechanism stops (k-th `⊤`,
//! answer limit, or exhausted adaptive budget). Queries after the halt are
//! **never observed** — the privacy-relevant property of SVT's online
//! form. The Noisy-Top-K family takes `&[f64]`: selection needs the whole
//! vector. So does the staircase measurement: its budget divisor is the
//! batch size, which it reads off the slice.
//!
//! See [`draw`] for the provider contract, [`scratch`] for the buffer
//! discipline and an example, and [`pipelines`] for the select-then-measure
//! versions, which take a provider the same way. The gated benchmark under
//! `benchmark/` times every mechanism's fast path per run.
//!
//! ## Unified call surface
//!
//! [`api`] packages every mechanism behind one request/response
//! shape: the [`api::Mechanism`] trait (`QuerySlice` in,
//! [`api::MechanismOutput`] out, noise through any provider), whose one
//! implementor is the [`api::AnyMechanism`] enum: one `match` per trait
//! method, each arm calling its mechanism's provider-taking entry, with
//! the conveniences [`api::AnyMechanism::call_batched`] (fast path) and
//! [`api::AnyMechanism::call_reference`] (dyn reference path). The
//! per-mechanism entries above are the typed surface; the unified one is
//! what uniform callers — the benchmark and the `free-gap-serve`
//! multi-tenant server — build on. No mechanism behind it answers a
//! workload holding a NaN or an infinity, and none draws noise for one:
//! each arm returns [`MechanismError::NonFiniteUtility`] for the first one
//! before its first draw (a discrete mechanism reports an earlier
//! off-lattice answer first).
//! Sparse-Vector-with-Gap additionally exposes a *resumable* streaming
//! form: [`sparse_vector::SparseVectorWithGap::stream_open`] runs the
//! branch ladder's open step, and
//! [`sparse_vector::SparseVectorWithGap::stream_feed`] its feed step over
//! one batch, so batched feeds are bit-identical to a one-shot streaming
//! run. An open server session drives it.
//!
//! ## Example
//!
//! ```
//! use free_gap_core::answers::QueryAnswers;
//! use free_gap_core::noisy_max::NoisyTopKWithGap;
//! use free_gap_noise::rng::rng_from_seed;
//!
//! // 5 counting queries, budget ε = 1.0, top-3 with free gaps.
//! let answers = QueryAnswers::counting(vec![120.0, 40.0, 97.0, 80.0, 3.0]);
//! let mech = NoisyTopKWithGap::new(3, 1.0, true).unwrap();
//! let out = mech.run(&answers, &mut rng_from_seed(1)).unwrap();
//! assert_eq!(out.items.len(), 3);
//! for item in &out.items {
//!     assert!(item.gap >= 0.0); // gaps are free — and always non-negative
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R3 (panic-freedom) surfaced in the compiler too: every non-test unwrap/expect
// in the two privacy-critical crates must carry a per-site justification.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod answers;
pub mod api;
pub mod budget;
pub mod draw;
pub mod error;
pub mod exponential_mech;
pub mod laplace_mech;
pub mod metrics;
pub mod noisy_max;
pub mod pipelines;
pub mod postprocess;
pub mod scratch;
pub mod sparse_vector;
pub mod staircase_mech;

pub use answers::QueryAnswers;
pub use api::{AnyMechanism, CallScratch, ExponentialTopK, Mechanism, MechanismOutput, QuerySlice};
pub use budget::PrivacyBudget;
pub use draw::{DrawProvider, RngDraws, ScratchDraws, SourceDraws};
pub use error::MechanismError;
pub use scratch::{SvtScratch, TopKScratch};
