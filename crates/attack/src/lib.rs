//! # free-gap-attack
//!
//! A black-box privacy fault-injection harness over the Sparse Vector and
//! Noisy-Max families: the correct mechanisms from the paper and the
//! deliberately broken variant zoo (`free_gap_core::sparse_vector::broken`)
//! behind one [`AttackTarget`] trait, attacked with the same machinery.
//! Noisy-Top-K-with-Gap's observation carries each selected index's
//! released gap, so an audit of it checks the paper's claim that the gap
//! comes free; the adaptive SVT's observation carries its branch tags.
//!
//! The attack shape follows dp-sniper (Bichsel et al., and the excerpt in
//! this repo's SNIPPETS.md): treat the mechanism as an opaque sampler and
//! look for a *witness* — a neighboring input pair `(D, D')` plus an output
//! event `E` with `P[M(D) ∈ E] > e^ε · P[M(D') ∈ E]`. The harness is
//! deliberately two-phase so the reported numbers are statistically sound:
//!
//! 1. **Search** ([`estimator`]): run every candidate input pair
//!    ([`inputs`]) through the target, project each output through a fixed
//!    family of classifiers ([`events`]), and score every observed
//!    `(pair, classifier, value, direction)` event with a Clopper–Pearson
//!    ε lower bound on the search sample.
//! 2. **Estimate**: re-run the *single* chosen event on fresh, disjoint
//!    RNG streams and report
//!    [`free_gap_alignment::binomial::epsilon_lower_bound`] at the
//!    configured significance. Because the event was fixed before these
//!    samples were drawn, the bound needs no multiple-testing correction —
//!    selection bias lives entirely in phase 1.
//!
//! The Monte-Carlo loops run the mechanisms' `run_into` entries through
//! the blocked `ScratchDraws` provider across worker threads, one derived
//! [`free_gap_noise::rng::FastRng`] sub-stream per trial, so results are
//! bit-reproducible for a given seed regardless of thread count.
//!
//! A sound lower bound can never exceed a mechanism's *true* ε (up to the
//! configured significance α), which is what makes the suite a two-sided
//! oracle: correct mechanisms must never be flagged, and every zoo variant
//! must be — see [`suite::run_suite`] and the `repro attack` CLI.
//!
//! The same [`attack`] call on a one-element pair slice is the fixed-pair
//! audit: the search picks the event on that pair alone, and the estimate
//! re-counts it on fresh streams. The workspace's black-box checks of
//! single mechanisms on hand-picked pairs (`tests/dp_empirical.rs` at the
//! repository root) all run this way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod events;
pub mod inputs;
pub mod suite;
pub mod target;

pub use estimator::{attack, AttackConfig, AttackResult};
pub use inputs::{standard_pairs, InputPair};
pub use suite::{
    run_suite, run_suite_with, standard_suite, SuiteEntry, SuiteReport, SUITE_THRESHOLD,
};
pub use target::{AttackTarget, Observation};
