//! The unified mechanism-call surface: one request/response shape over
//! every selection and measurement mechanism.
//!
//! Each mechanism exposes an allocating reference entry (`run`,
//! `run_top_k`, `measure_split`) and one provider-taking `_into` entry;
//! callers that treat mechanisms uniformly — the benchmark, the serving
//! layer — would otherwise hand-roll a dispatch table of closures.
//! This module folds that dispatch into the type system:
//!
//! * [`Mechanism`] — the one-call trait: a query slice in, a
//!   [`MechanismOutput`] out, noise through any [`DrawProvider`].
//! * [`AnyMechanism`] — a closed enum over the ten mechanisms, dispatching
//!   [`Mechanism::call`] plus three conveniences that each fix the
//!   provider: [`call_batched`](AnyMechanism::call_batched) (the fast path
//!   a server worker drives, [`ScratchDraws`] for every mechanism),
//!   [`call_par`](AnyMechanism::call_par) (the per-block
//!   [`ParallelDraws`] layout) and
//!   [`call_reference`](AnyMechanism::call_reference) (the dyn
//!   `NoiseSource` reference path).
//!
//! Design note — why `call` takes a scratch parameter where the obvious
//! sketch would not: the selection mechanisms need `n`- and `k`-sized
//! buffers, and `&self` receivers (the mechanisms are `Copy` parameter
//! packs) cannot own them. Threading one [`TopKScratch`] through the call
//! keeps the trait allocation-free across requests — the same pattern the
//! Top-K `run_into` entries use — while the noise tape rides inside the
//! provider ([`ScratchDraws`]) instead. `call` is a thin
//! adapter: it coerces the output and forwards to the mechanism's one
//! provider-taking `run_into` entry (`tests/api_surface.rs` pins this).

use crate::draw::{DrawProvider, ParallelDraws, ScratchDraws, SourceDraws};
use crate::error::MechanismError;
use crate::exponential_mech::ExponentialMechanism;
use crate::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap, TopKOutput};
use crate::scratch::{SvtScratch, TopKScratch};
use crate::sparse_vector::{
    AdaptiveOutcome, AdaptiveSparseVector, AdaptiveSvOutput, ClassicSparseVector,
    DiscreteSparseVectorWithGap, MultiBranchAdaptiveSparseVector, SparseVectorWithGap, SvOutput,
};
use crate::staircase_mech::StaircaseMechanism;
use free_gap_alignment::SamplingSource;
use free_gap_noise::rng::splitmix64;
use rand::rngs::StdRng;
use rand::Rng;

/// A borrowed query workload — the one request payload every mechanism
/// accepts. Selection mechanisms read it as query answers to select over;
/// measurement mechanisms read it as values to perturb.
#[derive(Debug, Clone, Copy)]
pub struct QuerySlice<'a> {
    values: &'a [f64],
}

impl<'a> QuerySlice<'a> {
    /// Wraps a slice of query answers.
    pub fn new(values: &'a [f64]) -> Self {
        Self { values }
    }

    /// Borrows the values of a [`crate::QueryAnswers`] workload.
    pub fn from_answers(answers: &'a crate::QueryAnswers) -> Self {
        Self {
            values: answers.values(),
        }
    }

    /// The raw answer values.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The one response payload: a closed union of every mechanism output
/// shape.
///
/// Callers keep one `MechanismOutput` alive across requests and let
/// [`Mechanism::call`] coerce it: when the live variant already matches
/// the mechanism's shape its buffers are reused in place, so a worker
/// serving a mixed request stream only allocates on variant switches.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismOutput {
    /// Selected indices with free gaps (Noisy-Top-K-with-Gap family).
    TopK(TopKOutput),
    /// Selected indices only (classic Top-K, exponential mechanism).
    Indices(Vec<usize>),
    /// Per-query `⊤`/`⊥` decisions with optional gaps (SVT family).
    SparseVector(SvOutput),
    /// Adaptive SVT outcomes with budget accounting (Algorithm 2).
    Adaptive(AdaptiveSvOutput),
    /// Multi-branch adaptive SVT outcomes: the same shape as
    /// [`Adaptive`](Self::Adaptive), kept apart because the digest tags
    /// the two differently.
    MultiBranch(AdaptiveSvOutput),
    /// Perturbed measurement values (staircase/Laplace measurement).
    Measurements(Vec<f64>),
}

/// Coerces `$self` to `$variant` (installing an empty default payload
/// only on a variant switch) and returns the inner value mutably.
macro_rules! coerce_output {
    ($self:ident, $variant:ident) => {{
        if !matches!($self, Self::$variant(_)) {
            *$self = Self::$variant(Default::default());
        }
        match $self {
            Self::$variant(inner) => inner,
            // lint:allow(panic-freedom): the variant was installed two lines above; this arm cannot be reached
            _ => unreachable!(),
        }
    }};
}

impl MechanismOutput {
    /// An empty output of the shape `mechanism` produces.
    pub fn new_for(mechanism: &AnyMechanism) -> Self {
        match mechanism {
            AnyMechanism::NoisyTopKWithGap(_) | AnyMechanism::DiscreteNoisyTopKWithGap(_) => {
                Self::TopK(TopKOutput::default())
            }
            AnyMechanism::ClassicNoisyTopK(_) | AnyMechanism::Exponential(_) => {
                Self::Indices(Vec::new())
            }
            AnyMechanism::SparseVectorWithGap(_)
            | AnyMechanism::ClassicSparseVector(_)
            | AnyMechanism::DiscreteSparseVectorWithGap(_) => {
                Self::SparseVector(SvOutput::default())
            }
            AnyMechanism::AdaptiveSparseVector(m) => Self::Adaptive(AdaptiveSvOutput {
                epsilon: m.epsilon(),
                ..Default::default()
            }),
            AnyMechanism::MultiBranchAdaptiveSparseVector(m) => {
                Self::MultiBranch(AdaptiveSvOutput {
                    epsilon: m.epsilon(),
                    ..Default::default()
                })
            }
            AnyMechanism::Staircase(_) => Self::Measurements(Vec::new()),
        }
    }

    /// Coerces to the [`TopK`](Self::TopK) variant, reusing buffers when
    /// the variant already matches.
    pub fn top_k_mut(&mut self) -> &mut TopKOutput {
        coerce_output!(self, TopK)
    }

    /// Coerces to the [`Indices`](Self::Indices) variant.
    pub fn indices_mut(&mut self) -> &mut Vec<usize> {
        coerce_output!(self, Indices)
    }

    /// Coerces to the [`SparseVector`](Self::SparseVector) variant.
    pub fn sparse_vector_mut(&mut self) -> &mut SvOutput {
        coerce_output!(self, SparseVector)
    }

    /// Coerces to the [`Adaptive`](Self::Adaptive) variant.
    pub fn adaptive_mut(&mut self) -> &mut AdaptiveSvOutput {
        coerce_output!(self, Adaptive)
    }

    /// Coerces to the [`MultiBranch`](Self::MultiBranch) variant.
    pub fn multi_branch_mut(&mut self) -> &mut AdaptiveSvOutput {
        coerce_output!(self, MultiBranch)
    }

    /// Coerces to the [`Measurements`](Self::Measurements) variant.
    pub fn measurements_mut(&mut self) -> &mut Vec<f64> {
        coerce_output!(self, Measurements)
    }

    /// Order-sensitive 64-bit fingerprint of the output, seeded by `seed` —
    /// the serving benchmark folds these across a request stream to pin
    /// bit-reproducibility without storing every response.
    pub fn digest(&self, seed: u64) -> u64 {
        fn mix(acc: u64, v: u64) -> u64 {
            let mut s = acc ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            splitmix64(&mut s)
        }
        let mut acc = mix(seed, self.variant_tag());
        match self {
            Self::TopK(o) => {
                for item in &o.items {
                    acc = mix(acc, item.index as u64);
                    acc = mix(acc, item.gap.to_bits());
                }
            }
            Self::Indices(indices) => {
                for &i in indices {
                    acc = mix(acc, i as u64);
                }
            }
            Self::SparseVector(o) => {
                for d in &o.above {
                    acc = match d {
                        Some(gap) => mix(mix(acc, 1), gap.to_bits()),
                        None => mix(acc, 2),
                    };
                }
            }
            Self::Adaptive(o) | Self::MultiBranch(o) => {
                let ladder = matches!(self, Self::MultiBranch(_));
                for outcome in &o.outcomes {
                    acc = match *outcome {
                        AdaptiveOutcome::Above { branch, gap, cost } => {
                            let branch = u64::from(branch);
                            // Algorithm 2 mixes one tag per rung (3 top, 4
                            // middle); the ladder mixes 5, then its rung.
                            let tagged = if ladder {
                                mix(mix(acc, 5), branch)
                            } else {
                                mix(acc, 3 + branch)
                            };
                            mix(mix(tagged, gap.to_bits()), cost.to_bits())
                        }
                        AdaptiveOutcome::Below => mix(acc, 2),
                    };
                }
                acc = mix(acc, o.spent.to_bits());
            }
            Self::Measurements(values) => {
                for v in values {
                    acc = mix(acc, v.to_bits());
                }
            }
        }
        acc
    }

    fn variant_tag(&self) -> u64 {
        match self {
            Self::TopK(_) => 1,
            Self::Indices(_) => 2,
            Self::SparseVector(_) => 3,
            Self::Adaptive(_) => 4,
            Self::MultiBranch(_) => 5,
            Self::Measurements(_) => 6,
        }
    }
}

/// The unified call surface: every mechanism answers a query slice
/// through an arbitrary [`DrawProvider`] into a coercible
/// [`MechanismOutput`].
pub trait Mechanism {
    /// Stable mechanism name (the benchmark's per-mechanism rows and the
    /// server's request scripts key on it).
    fn name(&self) -> &'static str;

    /// The privacy budget `ε` one call costs — what a serving ledger
    /// debits before the call runs.
    fn cost(&self) -> f64;

    /// Runs the mechanism once. Noise flows through `provider`; selection
    /// buffers come from `scratch`; `out` is coerced to the mechanism's
    /// output shape (buffers reused when it already matches).
    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError>;
}

impl Mechanism for NoisyTopKWithGap {
    fn name(&self) -> &'static str {
        "NoisyTopKWithGap"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.run_into(req.values(), provider, scratch, out.top_k_mut())
    }
}

impl Mechanism for ClassicNoisyTopK {
    fn name(&self) -> &'static str {
        "ClassicNoisyTopK"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.run_into(req.values(), provider, scratch, out.indices_mut())
    }
}

impl Mechanism for DiscreteNoisyTopKWithGap {
    fn name(&self) -> &'static str {
        "DiscreteNoisyTopKWithGap"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.run_into(req.values(), provider, scratch, out.top_k_mut())
    }
}

/// The exponential mechanism lifted to a Top-K selection by peeling
/// (`k` sequential draws, each costing the base mechanism's `ε`) — the
/// same composition `ExponentialMechanism::run_top_k` uses, packaged with
/// its `k` so it fits the one-call surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialTopK {
    mech: ExponentialMechanism,
    k: usize,
}

impl ExponentialTopK {
    /// Wraps `mech` with the selection size `k ≥ 1`.
    pub fn new(mech: ExponentialMechanism, k: usize) -> Result<Self, MechanismError> {
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        Ok(Self { mech, k })
    }

    /// The selection size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The wrapped base mechanism.
    pub fn mechanism(&self) -> &ExponentialMechanism {
        &self.mech
    }
}

impl Mechanism for ExponentialTopK {
    fn name(&self) -> &'static str {
        "ExponentialMechanism"
    }

    fn cost(&self) -> f64 {
        self.k as f64 * self.mech.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        ExponentialMechanism::require_top_k_len(req.len(), self.k)?;
        self.mech.run_top_k_into(
            req.values().iter().copied(),
            self.k,
            provider,
            scratch,
            out.indices_mut(),
        )
    }
}

impl Mechanism for StaircaseMechanism {
    fn name(&self) -> &'static str {
        "StaircaseMechanism"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        _scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.measure_split_into(req.values(), provider, out.measurements_mut())
    }
}

impl Mechanism for SparseVectorWithGap {
    fn name(&self) -> &'static str {
        "SparseVectorWithGap"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        _scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.run_into(
            req.values().iter().copied(),
            provider,
            out.sparse_vector_mut(),
        );
        Ok(())
    }
}

impl Mechanism for ClassicSparseVector {
    fn name(&self) -> &'static str {
        "ClassicSparseVector"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        _scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.run_into(
            req.values().iter().copied(),
            provider,
            out.sparse_vector_mut(),
        );
        Ok(())
    }
}

impl Mechanism for AdaptiveSparseVector {
    fn name(&self) -> &'static str {
        "AdaptiveSparseVector"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        _scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.run_into(req.values().iter().copied(), provider, out.adaptive_mut());
        Ok(())
    }
}

impl Mechanism for MultiBranchAdaptiveSparseVector {
    fn name(&self) -> &'static str {
        "MultiBranchAdaptiveSparseVector"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        _scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.run_into(
            req.values().iter().copied(),
            provider,
            out.multi_branch_mut(),
        );
        Ok(())
    }
}

impl Mechanism for DiscreteSparseVectorWithGap {
    fn name(&self) -> &'static str {
        "DiscreteSparseVectorWithGap"
    }

    fn cost(&self) -> f64 {
        self.epsilon()
    }

    /// Checks the lazy entry's lattice precondition on the materialized
    /// slice, before any draw.
    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        _scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        crate::answers::require_lattice(req.values(), self.gamma())?;
        self.run_into(
            req.values().iter().copied(),
            provider,
            out.sparse_vector_mut(),
        );
        Ok(())
    }
}

/// Reusable per-worker buffers for [`AnyMechanism::call_batched`]: the
/// selection scratch plus the noise tape, so one worker serves all ten
/// mechanisms without per-request allocation.
#[derive(Debug, Default, Clone)]
pub struct CallScratch {
    /// Selection buffers (Top-K family, exponential mechanism).
    pub topk: TopKScratch,
    /// The noise tape [`call_batched`](AnyMechanism::call_batched) draws
    /// every mechanism's noise through ([`ScratchDraws`]).
    pub svt: SvtScratch,
}

impl CallScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Closed union of the ten mechanisms — the dispatch type behind the
/// unified call surface (one variant per mechanism type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyMechanism {
    /// Algorithm 1: Noisy-Top-K-with-Gap.
    NoisyTopKWithGap(NoisyTopKWithGap),
    /// Classic Noisy Top-K baseline (no gaps).
    ClassicNoisyTopK(ClassicNoisyTopK),
    /// Discrete (geometric-noise) Noisy-Top-K-with-Gap.
    DiscreteNoisyTopKWithGap(DiscreteNoisyTopKWithGap),
    /// Exponential mechanism, peeled to Top-K.
    Exponential(ExponentialTopK),
    /// Staircase measurement mechanism.
    Staircase(StaircaseMechanism),
    /// Sparse-Vector-with-Gap.
    SparseVectorWithGap(SparseVectorWithGap),
    /// Classic SVT baseline.
    ClassicSparseVector(ClassicSparseVector),
    /// Adaptive-SVT-with-Gap (Algorithm 2).
    AdaptiveSparseVector(AdaptiveSparseVector),
    /// Multi-branch generalization of Algorithm 2.
    MultiBranchAdaptiveSparseVector(MultiBranchAdaptiveSparseVector),
    /// Discrete (geometric-noise) SVT-with-Gap.
    DiscreteSparseVectorWithGap(DiscreteSparseVectorWithGap),
}

impl Mechanism for AnyMechanism {
    fn name(&self) -> &'static str {
        match self {
            Self::NoisyTopKWithGap(m) => m.name(),
            Self::ClassicNoisyTopK(m) => m.name(),
            Self::DiscreteNoisyTopKWithGap(m) => m.name(),
            Self::Exponential(m) => m.name(),
            Self::Staircase(m) => m.name(),
            Self::SparseVectorWithGap(m) => m.name(),
            Self::ClassicSparseVector(m) => m.name(),
            Self::AdaptiveSparseVector(m) => m.name(),
            Self::MultiBranchAdaptiveSparseVector(m) => m.name(),
            Self::DiscreteSparseVectorWithGap(m) => m.name(),
        }
    }

    fn cost(&self) -> f64 {
        match self {
            Self::NoisyTopKWithGap(m) => m.cost(),
            Self::ClassicNoisyTopK(m) => m.cost(),
            Self::DiscreteNoisyTopKWithGap(m) => m.cost(),
            Self::Exponential(m) => m.cost(),
            Self::Staircase(m) => m.cost(),
            Self::SparseVectorWithGap(m) => m.cost(),
            Self::ClassicSparseVector(m) => m.cost(),
            Self::AdaptiveSparseVector(m) => m.cost(),
            Self::MultiBranchAdaptiveSparseVector(m) => m.cost(),
            Self::DiscreteSparseVectorWithGap(m) => m.cost(),
        }
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        match self {
            Self::NoisyTopKWithGap(m) => m.call(req, provider, scratch, out),
            Self::ClassicNoisyTopK(m) => m.call(req, provider, scratch, out),
            Self::DiscreteNoisyTopKWithGap(m) => m.call(req, provider, scratch, out),
            Self::Exponential(m) => m.call(req, provider, scratch, out),
            Self::Staircase(m) => m.call(req, provider, scratch, out),
            Self::SparseVectorWithGap(m) => m.call(req, provider, scratch, out),
            Self::ClassicSparseVector(m) => m.call(req, provider, scratch, out),
            Self::AdaptiveSparseVector(m) => m.call(req, provider, scratch, out),
            Self::MultiBranchAdaptiveSparseVector(m) => m.call(req, provider, scratch, out),
            Self::DiscreteSparseVectorWithGap(m) => m.call(req, provider, scratch, out),
        }
    }
}

impl AnyMechanism {
    /// The batched fast path: [`Mechanism::call`] through [`ScratchDraws`]
    /// over `scratch.svt`, for every mechanism. Scalar and tuple draws come
    /// off the blocked tape; bulk fills drain it, then run the family's
    /// fused kernel on `rng`. Bit-identical to the mechanism's `_into` entry
    /// through any single-stream provider on the same RNG stream.
    pub fn call_batched<R: Rng + ?Sized>(
        &self,
        req: &QuerySlice<'_>,
        rng: &mut R,
        scratch: &mut CallScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        let mut provider = ScratchDraws::new(&mut scratch.svt, rng);
        self.call(req, &mut provider, &mut scratch.topk, out)
    }

    /// The intra-run parallel path: [`Mechanism::call`] through a
    /// [`ParallelDraws`] provider over the per-block sub-stream layout.
    /// The Noisy-Max family gets a parallel noise fill plus the per-chunk
    /// selection reduce, the exponential race a batched parallel Gumbel
    /// fill with the race replayed over precomputed scores, staircase a
    /// parallel measurement fill; the SVT family runs sequentially off the
    /// provider's scalar tape (its adaptive threshold loop is inherently
    /// sequential). Bit-identical for any thread count of `par` — but a
    /// *different stream* than [`call_batched`](Self::call_batched): the
    /// run is keyed by the provider's run seed, so callers
    /// [`reset`](ParallelDraws::reset) `par` per request.
    pub fn call_par(
        &self,
        req: &QuerySlice<'_>,
        par: &mut ParallelDraws,
        scratch: &mut CallScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        match self {
            Self::Exponential(m) => {
                let indices = out.indices_mut();
                m.mechanism()
                    .race_par_core(req.values(), m.k(), par, &mut scratch.topk, indices)
            }
            _ => self.call(req, par, &mut scratch.topk, out),
        }
    }

    /// The dyn reference path: [`Mechanism::call`] through
    /// [`SourceDraws`] over a [`SamplingSource`], allocating fresh
    /// buffers per call — the historical per-draw-cost baseline, and the
    /// reference the benchmark checks the fast path's outputs against.
    pub fn call_reference(
        &self,
        req: &QuerySlice<'_>,
        rng: &mut StdRng,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        let mut source = SamplingSource::new(rng);
        let mut provider = SourceDraws::new(&mut source);
        let mut scratch = TopKScratch::new();
        self.call(req, &mut provider, &mut scratch, out)
    }
}

impl From<NoisyTopKWithGap> for AnyMechanism {
    fn from(m: NoisyTopKWithGap) -> Self {
        Self::NoisyTopKWithGap(m)
    }
}

impl From<ClassicNoisyTopK> for AnyMechanism {
    fn from(m: ClassicNoisyTopK) -> Self {
        Self::ClassicNoisyTopK(m)
    }
}

impl From<DiscreteNoisyTopKWithGap> for AnyMechanism {
    fn from(m: DiscreteNoisyTopKWithGap) -> Self {
        Self::DiscreteNoisyTopKWithGap(m)
    }
}

impl From<ExponentialTopK> for AnyMechanism {
    fn from(m: ExponentialTopK) -> Self {
        Self::Exponential(m)
    }
}

impl From<StaircaseMechanism> for AnyMechanism {
    fn from(m: StaircaseMechanism) -> Self {
        Self::Staircase(m)
    }
}

impl From<SparseVectorWithGap> for AnyMechanism {
    fn from(m: SparseVectorWithGap) -> Self {
        Self::SparseVectorWithGap(m)
    }
}

impl From<ClassicSparseVector> for AnyMechanism {
    fn from(m: ClassicSparseVector) -> Self {
        Self::ClassicSparseVector(m)
    }
}

impl From<AdaptiveSparseVector> for AnyMechanism {
    fn from(m: AdaptiveSparseVector) -> Self {
        Self::AdaptiveSparseVector(m)
    }
}

impl From<MultiBranchAdaptiveSparseVector> for AnyMechanism {
    fn from(m: MultiBranchAdaptiveSparseVector) -> Self {
        Self::MultiBranchAdaptiveSparseVector(m)
    }
}

impl From<DiscreteSparseVectorWithGap> for AnyMechanism {
    fn from(m: DiscreteSparseVectorWithGap) -> Self {
        Self::DiscreteSparseVectorWithGap(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_coercion_reuses_matching_variant() {
        let mut out = MechanismOutput::Indices(vec![1, 2, 3]);
        out.indices_mut().push(4);
        assert_eq!(out, MechanismOutput::Indices(vec![1, 2, 3, 4]));
        // Variant switch replaces the payload.
        assert!(out.top_k_mut().items.is_empty());
        assert!(matches!(out, MechanismOutput::TopK(_)));
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let a = MechanismOutput::Measurements(vec![1.0, 2.0]);
        let b = MechanismOutput::Measurements(vec![2.0, 1.0]);
        let c = MechanismOutput::Measurements(vec![1.0, 2.0]);
        assert_ne!(a.digest(7), b.digest(7));
        assert_eq!(a.digest(7), c.digest(7));
        assert_ne!(a.digest(7), a.digest(8));
    }

    #[test]
    fn digest_distinguishes_empty_variants() {
        let a = MechanismOutput::Indices(Vec::new());
        let b = MechanismOutput::Measurements(Vec::new());
        assert_ne!(a.digest(0), b.digest(0));
    }

    #[test]
    fn call_par_is_bit_identical_across_thread_counts() {
        // Every mechanism, a workload large enough to engage both the
        // parallel fill (> one block) and the parallel select reduce
        // (> PAR_SELECT_MIN), and a fresh same-seed provider per call: the
        // digest must not depend on the thread count.
        let k = 5;
        let threshold = 500.0;
        #[allow(clippy::expect_used)]
        // lint:allow(panic-freedom): test-only grid construction with known-valid parameters
        let grid: Vec<AnyMechanism> = vec![
            NoisyTopKWithGap::new(k, 0.7, true).expect("valid").into(),
            ClassicNoisyTopK::new(k, 0.7, true).expect("valid").into(),
            DiscreteNoisyTopKWithGap::new(k, 0.7, true)
                .expect("valid")
                .into(),
            ExponentialTopK::new(ExponentialMechanism::new(0.7, true).expect("valid"), k)
                .expect("valid")
                .into(),
            StaircaseMechanism::new(0.7).expect("valid").into(),
            SparseVectorWithGap::new(k, 0.7, threshold, true)
                .expect("valid")
                .into(),
            ClassicSparseVector::new(k, 0.7, threshold, true)
                .expect("valid")
                .into(),
            AdaptiveSparseVector::new(k, 0.7, threshold, true)
                .expect("valid")
                .into(),
            MultiBranchAdaptiveSparseVector::new(k, 0.7, threshold, true, 3)
                .expect("valid")
                .into(),
            DiscreteSparseVectorWithGap::new(k, 0.7, threshold, true)
                .expect("valid")
                .into(),
        ];
        let mut s = 0x5EED_u64;
        let values: Vec<f64> = (0..9000)
            .map(|_| (splitmix64(&mut s) % 1_000) as f64)
            .collect();
        let req = QuerySlice::new(&values);
        for mech in &grid {
            let mut digests = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut par = ParallelDraws::new(42, threads);
                let mut scratch = CallScratch::new();
                let mut out = MechanismOutput::new_for(mech);
                #[allow(clippy::expect_used)]
                // lint:allow(panic-freedom): test asserts the call succeeds
                mech.call_par(&req, &mut par, &mut scratch, &mut out)
                    .expect("call_par");
                digests.push(out.digest(7));
            }
            assert_eq!(digests[0], digests[1], "1 vs 2 threads: {}", mech.name());
            assert_eq!(digests[0], digests[2], "1 vs 4 threads: {}", mech.name());
        }
    }

    #[test]
    fn exponential_top_k_validates_k() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        assert!(ExponentialTopK::new(m, 0).is_err());
        let wrapped = ExponentialTopK::new(m, 3).unwrap();
        assert_eq!(wrapped.k(), 3);
        assert!((wrapped.cost() - 3.0).abs() < 1e-12);
    }
}
