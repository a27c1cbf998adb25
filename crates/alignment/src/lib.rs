//! # free-gap-alignment
//!
//! An executable randomness-alignment framework, mechanizing §4 and §8 of
//! Ding et al., *Free Gap Information from the Differentially Private Sparse
//! Vector and Noisy Max Mechanisms* (VLDB 2019).
//!
//! The paper proves its mechanisms private with *local alignments*
//! (Definition 4): for every pair of adjacent inputs `D ~ D'` and output `ω`,
//! a map `φ_{D,D',ω}` from noise vectors `H` to noise vectors `H'` such that
//! `M(D, H) = ω  ⇒  M(D', H') = ω`, with bounded *cost*
//! `Σᵢ |ηᵢ - η'ᵢ| / αᵢ ≤ ε` (Definition 6) and acyclicity (Definition 5).
//! Lemma 1 then yields ε-differential privacy.
//!
//! This crate turns those proof obligations into machine-checkable artifacts:
//!
//! * [`tape::NoiseTape`] — a recorded sequence of `(value, scale)` noise
//!   draws, the concrete prefix of the paper's `H`.
//! * [`source::NoiseSource`] — the sampling interface mechanisms draw
//!   through. A [`source::RecordingSource`] samples fresh noise and records
//!   it; a [`source::ReplaySource`] replays a (possibly aligned) tape and
//!   verifies that scales match draw-for-draw — catching mechanisms whose
//!   draw *structure* depends on data in unaligned ways.
//! * [`mechanism::AlignedMechanism`] — a mechanism plus its local-alignment
//!   constructor `φ`.
//! * [`checker`] — runs `M(D, H)`, builds `H' = φ(H)`, runs `M(D', H')`, and
//!   checks (i) output equality and (ii) `cost(φ) ≤ ε` on that concrete
//!   execution. Running this over many random `(D, D', H)` triples is a
//!   statistical audit of the paper's Lemma 2 / Lemma 4 proofs.
//! * [`adjacency`] — generators for adjacent query-answer vectors (general
//!   sensitivity-1 and monotone, per Definition 7).
//! * [`binomial`] — Clopper–Pearson bounds and the empirical ε lower bound
//!   the black-box attack harness (`free-gap-attack`) reports.
//!
//! The checker validates *necessary* conditions on sampled executions; the
//! paper's theorems remain the proof. What the checker adds is exactly what
//! the paper's §1 credits program verification with: catching the subtle
//! bugs (wrong branch budgets, reused noise, missing `+1` threshold shifts)
//! that hand-written alignment arguments historically got wrong.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod binomial;
pub mod checker;
pub mod mechanism;
pub mod source;
pub mod tape;

pub use adjacency::{AdjacencyModel, Perturbation};
pub use binomial::{clopper_pearson, epsilon_lower_bound};
pub use checker::{check_alignment, AlignmentError, AlignmentReport};
pub use mechanism::AlignedMechanism;
pub use source::{NoiseSource, RecordingSource, ReplaySource, SamplingSource};
pub use tape::{Draw, NoiseTape};
