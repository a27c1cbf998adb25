//! # free-gap-serve
//!
//! The long-lived multi-tenant serving layer over the `free-gap-core`
//! mechanism library — the "data curator answering a stream of analyst
//! queries" deployment the paper's interactive mechanisms assume (Ding,
//! Wang, Zhang, Kifer; VLDB 2019), rather than one-shot Monte-Carlo
//! batches.
//!
//! One server process holds many tenants. Each tenant owns:
//!
//! * a [`BudgetLedger`] — its total privacy budget ε, counted exactly in
//!   whole nano-ε, behind an atomic debit-or-reject gate: every call costs
//!   at least one unit, and no interleaving of concurrent requests can
//!   oversubscribe it (rejections are typed:
//!   [`server::RejectReason::Budget`] carries the requested/remaining ε);
//! * a family of derived noise sub-streams — request `s` of tenant `t`
//!   draws from `derive_fast_stream(tenant_seed, s)`, the same
//!   sharded-generator convention as `examples/streaming_svt.rs`, which
//!   makes every response bit-reproducible per server seed regardless of
//!   worker count or thread interleaving;
//! * open streaming-SVT [`sessions`](SvtSession) — resumable
//!   sparse-vector runs driven incrementally across requests, with their
//!   unused budget units returned on close or idle eviction, exactly
//!   once.
//!
//! Requests speak the unified call surface from `free_gap_core::api`:
//! a [`server::MechanismRequest`] carries an
//! [`AnyMechanism`](free_gap_core::AnyMechanism) (or a session verb) and
//! [`QueryServer::handle`] answers with a
//! [`server::MechanismResponse`]. Each serving thread reuses one
//! [`server::WorkerScratch`] across requests, so the steady state runs on
//! the same warm-buffer fast paths as the Monte-Carlo harness.
//!
//! The [`mod@bench`] module is the `repro serve-bench` deterministic
//! replay: a scripted multi-tenant load whose outcome counts and
//! reproducibility digest are the same at any worker count. It times
//! nothing; the gated `serve-mixed` benchmark workload measures serving
//! speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Serving code must not take the process down: recover or reject instead
// of panicking (free-gap-lint's panic-freedom rule checks this crate too).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bench;
pub mod ledger;
pub mod server;
pub mod session;

pub use bench::{ServeBenchConfig, ServeBenchReport};
pub use ledger::BudgetLedger;
pub use server::{MechanismRequest, MechanismResponse, QueryServer, RequestBody, WorkerScratch};
pub use session::SvtSession;
