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
//! * [`AnyMechanism`] — a closed enum over the ten mechanisms and the
//!   trait's one implementor, plus two conveniences that each fix the
//!   provider: [`call_batched`](AnyMechanism::call_batched) (the fast path
//!   a server worker drives, [`ScratchDraws`] for every mechanism) and
//!   [`call_reference`](AnyMechanism::call_reference) (the dyn
//!   `NoiseSource` reference path).
//!
//! Design note — why `call` takes a scratch parameter where the obvious
//! sketch would not: the selection mechanisms need `n`- and `k`-sized
//! buffers, and `&self` receivers (the mechanisms are `Copy` parameter
//! packs) cannot own them. Threading one [`TopKScratch`] through the call
//! keeps the trait allocation-free across requests — the same pattern the
//! Top-K `run_into` entries use — while the noise tape rides inside the
//! provider ([`ScratchDraws`]) instead. `call` is one `match`: each arm
//! runs its variant's slice check where the core reads a lazy stream
//! (`require_finite`, `require_lattice`, the race's `k ≤ n`), coerces the
//! output and calls the core's one provider-taking entry (`run_into`,
//! `run_top_k_into`, `measure_split_into`), so every arm refuses a
//! malformed workload before its first draw (`tests/api_surface.rs` pins
//! both).

use crate::answers::{require_finite, require_lattice};
use crate::draw::{DrawProvider, ScratchDraws, SourceDraws};
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

/// Coerces the output `$out` to `$variant` (installing an empty default
/// payload only on a variant switch) and returns the inner value mutably.
macro_rules! coerce_output {
    ($out:ident, $variant:ident) => {{
        if !matches!($out, MechanismOutput::$variant(_)) {
            *$out = MechanismOutput::$variant(Default::default());
        }
        match $out {
            MechanismOutput::$variant(inner) => inner,
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

/// The unified call surface: a mechanism answers a query slice through
/// an arbitrary [`DrawProvider`] into a coercible [`MechanismOutput`].
///
/// [`AnyMechanism`] is its one implementor; the per-mechanism types are
/// reached through the enum. It stays a trait rather than inherent
/// methods only because the gated benchmark imports it by name.
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

/// Closed union of the ten mechanisms — the one implementor of
/// [`Mechanism`], one variant per mechanism type.
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
            Self::NoisyTopKWithGap(_) => "NoisyTopKWithGap",
            Self::ClassicNoisyTopK(_) => "ClassicNoisyTopK",
            Self::DiscreteNoisyTopKWithGap(_) => "DiscreteNoisyTopKWithGap",
            Self::Exponential(_) => "ExponentialMechanism",
            Self::Staircase(_) => "StaircaseMechanism",
            Self::SparseVectorWithGap(_) => "SparseVectorWithGap",
            Self::ClassicSparseVector(_) => "ClassicSparseVector",
            Self::AdaptiveSparseVector(_) => "AdaptiveSparseVector",
            Self::MultiBranchAdaptiveSparseVector(_) => "MultiBranchAdaptiveSparseVector",
            Self::DiscreteSparseVectorWithGap(_) => "DiscreteSparseVectorWithGap",
        }
    }

    fn cost(&self) -> f64 {
        match self {
            Self::NoisyTopKWithGap(m) => m.epsilon(),
            Self::ClassicNoisyTopK(m) => m.epsilon(),
            Self::DiscreteNoisyTopKWithGap(m) => m.epsilon(),
            // `k` peels, each at the base mechanism's ε.
            Self::Exponential(m) => m.k as f64 * m.mech.epsilon(),
            Self::Staircase(m) => m.epsilon(),
            Self::SparseVectorWithGap(m) => m.epsilon(),
            Self::ClassicSparseVector(m) => m.epsilon(),
            Self::AdaptiveSparseVector(m) => m.epsilon(),
            Self::MultiBranchAdaptiveSparseVector(m) => m.epsilon(),
            Self::DiscreteSparseVectorWithGap(m) => m.epsilon(),
        }
    }

    /// Each arm checks the whole slice before its core's first draw: the
    /// Top-K cores and the staircase check their own slices, while the
    /// race and the SVT cores read a lazy stream, so their arms check the
    /// materialized slice (finite answers; for the discrete SVT, lattice
    /// answers) here.
    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        let values = req.values();
        let queries = values.iter().copied();
        match self {
            Self::NoisyTopKWithGap(m) => {
                m.run_into(values, provider, scratch, coerce_output!(out, TopK))
            }
            Self::ClassicNoisyTopK(m) => {
                m.run_into(values, provider, scratch, coerce_output!(out, Indices))
            }
            Self::DiscreteNoisyTopKWithGap(m) => {
                m.run_into(values, provider, scratch, coerce_output!(out, TopK))
            }
            Self::Exponential(m) => {
                ExponentialMechanism::require_top_k_len(values.len(), m.k)?;
                require_finite(values)?;
                let out = coerce_output!(out, Indices);
                m.mech.run_top_k_into(queries, m.k, provider, scratch, out)
            }
            Self::Staircase(m) => {
                m.measure_split_into(values, provider, coerce_output!(out, Measurements))
            }
            Self::SparseVectorWithGap(m) => {
                require_finite(values)?;
                m.run_into(queries, provider, coerce_output!(out, SparseVector));
                Ok(())
            }
            Self::ClassicSparseVector(m) => {
                require_finite(values)?;
                m.run_into(queries, provider, coerce_output!(out, SparseVector));
                Ok(())
            }
            Self::AdaptiveSparseVector(m) => {
                require_finite(values)?;
                m.run_into(queries, provider, coerce_output!(out, Adaptive));
                Ok(())
            }
            Self::MultiBranchAdaptiveSparseVector(m) => {
                require_finite(values)?;
                m.run_into(queries, provider, coerce_output!(out, MultiBranch));
                Ok(())
            }
            Self::DiscreteSparseVectorWithGap(m) => {
                require_lattice(values, m.gamma())?;
                m.run_into(queries, provider, coerce_output!(out, SparseVector));
                Ok(())
            }
        }
    }
}

impl AnyMechanism {
    /// The batched fast path: [`Mechanism::call`] through [`ScratchDraws`]
    /// over `scratch.svt`, for every mechanism. Scalar and tuple draws come
    /// off the blocked tape; bulk fills drain it, then run the family's
    /// fused kernel on `rng`. Bit-identical to the mechanism's `_into` entry
    /// through any provider on the same RNG stream.
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
    use free_gap_noise::rng::derive_fast_stream;

    #[test]
    fn output_coercion_reuses_matching_variant() {
        let values = [5.0, 1.0, 9.0, 3.0];
        let req = QuerySlice::new(&values);
        let (mut topk, mut svt) = (TopKScratch::new(), SvtScratch::new());
        let mut rng = derive_fast_stream(1, 1);
        let mut call = |mech: AnyMechanism, out: &mut MechanismOutput| {
            let mut provider = ScratchDraws::new(&mut svt, &mut rng);
            mech.call(&req, &mut provider, &mut topk, out).unwrap();
        };
        // A matching variant keeps its buffer: the call refills it in place.
        let mut out = MechanismOutput::Indices(Vec::with_capacity(64));
        let before = match &out {
            MechanismOutput::Indices(indices) => indices.as_ptr(),
            other => panic!("{other:?}"),
        };
        call(
            ClassicNoisyTopK::new(2, 1.0, true).unwrap().into(),
            &mut out,
        );
        match &out {
            MechanismOutput::Indices(indices) => {
                assert_eq!(indices.len(), 2);
                assert_eq!(indices.as_ptr(), before);
            }
            other => panic!("{other:?}"),
        }
        // A variant switch replaces the payload.
        call(
            NoisyTopKWithGap::new(2, 1.0, true).unwrap().into(),
            &mut out,
        );
        assert!(matches!(&out, MechanismOutput::TopK(o) if o.items.len() == 2));
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
    fn exponential_top_k_validates_k() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        assert!(ExponentialTopK::new(m, 0).is_err());
        let wrapped = ExponentialTopK::new(m, 3).unwrap();
        assert_eq!(wrapped.k(), 3);
        assert!((AnyMechanism::from(wrapped).cost() - 3.0).abs() < 1e-12);
    }
}
