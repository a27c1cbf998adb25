//! Shared harness for the entry-point suites (`scratch_equivalence`,
//! `output_reuse`, `api_surface`): every mechanism behind one test-local
//! [`Subject`] trait, run through every [`Provider`].
//!
//! A mechanism has two public ways to run: its allocating reference entry
//! (`run`, `run_top_k`, `measure_split`) and its one provider-taking
//! `_into` entry. The suites are loops over mechanisms × providers
//! asserting the two agree bit for bit. Outputs are compared through their
//! `{:?}` rendering, which prints every `f64` in its shortest exactly
//! round-tripping form, so equal strings mean equal bits (signed zeros
//! included). Output reuse is checked through [`ScratchDraws`], the one
//! provider `call_batched` runs for every mechanism.
#![allow(dead_code)]

use free_gap_alignment::SamplingSource;
use free_gap_core::api::CallScratch;
use free_gap_core::draw::{DrawProvider, RngDraws, ScratchDraws, SourceDraws};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{
    ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap, TopKOutput,
};
use free_gap_core::scratch::TopKScratch;
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, AdaptiveSvOutput, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap, SvOutput,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::QueryAnswers;
use free_gap_noise::rng::derive_stream;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Debug;

/// One mechanism under test: its allocating reference entry and its
/// `_into` entry.
pub trait Subject {
    /// The output shape `_into` writes.
    type Out: Debug + Default;
    /// The allocating reference entry on a `StdRng` stream.
    fn reference(&self, answers: &QueryAnswers, rng: &mut StdRng) -> Self::Out;
    /// The `_into` entry through `provider`. Slice-taking entries collect
    /// the queries first; lazy ones consume them as they are.
    fn entry<P: DrawProvider>(
        &self,
        queries: impl Iterator<Item = f64>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut Self::Out,
    );
    /// `(len, capacity)` of the output's buffer.
    fn buffer(out: &Self::Out) -> (usize, usize);
}

macro_rules! top_k_subject {
    ($($ty:ty => $out:ty, |$o:ident| $buf:expr;)*) => {$(
        impl Subject for $ty {
            type Out = $out;
            fn reference(&self, answers: &QueryAnswers, rng: &mut StdRng) -> $out {
                self.run(answers, rng).unwrap()
            }
            fn entry<P: DrawProvider>(
                &self,
                queries: impl Iterator<Item = f64>,
                provider: &mut P,
                scratch: &mut TopKScratch,
                out: &mut $out,
            ) {
                let values: Vec<f64> = queries.collect();
                self.run_into(&values, provider, scratch, out).unwrap();
            }
            fn buffer($o: &$out) -> (usize, usize) {
                ($buf.len(), $buf.capacity())
            }
        }
    )*};
}

top_k_subject! {
    NoisyTopKWithGap => TopKOutput, |o| o.items;
    ClassicNoisyTopK => Vec<usize>, |o| o;
    DiscreteNoisyTopKWithGap => TopKOutput, |o| o.items;
}

macro_rules! svt_subject {
    ($($ty:ty => $out:ty, |$o:ident| $buf:expr;)*) => {$(
        impl Subject for $ty {
            type Out = $out;
            fn reference(&self, answers: &QueryAnswers, rng: &mut StdRng) -> $out {
                self.run(answers, rng)
            }
            fn entry<P: DrawProvider>(
                &self,
                queries: impl Iterator<Item = f64>,
                provider: &mut P,
                _scratch: &mut TopKScratch,
                out: &mut $out,
            ) {
                self.run_into(queries, provider, out);
            }
            fn buffer($o: &$out) -> (usize, usize) {
                ($buf.len(), $buf.capacity())
            }
        }
    )*};
}

svt_subject! {
    ClassicSparseVector => SvOutput, |o| o.above;
    SparseVectorWithGap => SvOutput, |o| o.above;
    DiscreteSparseVectorWithGap => SvOutput, |o| o.above;
    AdaptiveSparseVector => AdaptiveSvOutput, |o| o.outcomes;
    MultiBranchAdaptiveSparseVector => AdaptiveSvOutput, |o| o.outcomes;
}

/// The exponential mechanism's Top-`k` race (`run_top_k` against
/// `run_top_k_into`).
#[derive(Debug, Clone, Copy)]
pub struct Race(pub ExponentialMechanism, pub usize);

impl Subject for Race {
    type Out = Vec<usize>;
    fn reference(&self, answers: &QueryAnswers, rng: &mut StdRng) -> Vec<usize> {
        self.0.run_top_k(answers, self.1, rng).unwrap()
    }
    fn entry<P: DrawProvider>(
        &self,
        queries: impl Iterator<Item = f64>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut Vec<usize>,
    ) {
        self.0
            .run_top_k_into(queries, self.1, provider, scratch, out)
            .unwrap();
    }
    fn buffer(out: &Vec<usize>) -> (usize, usize) {
        (out.len(), out.capacity())
    }
}

impl Subject for StaircaseMechanism {
    type Out = Vec<f64>;
    fn reference(&self, answers: &QueryAnswers, rng: &mut StdRng) -> Vec<f64> {
        self.measure_split(answers.values(), rng).unwrap()
    }
    fn entry<P: DrawProvider>(
        &self,
        queries: impl Iterator<Item = f64>,
        provider: &mut P,
        _scratch: &mut TopKScratch,
        out: &mut Vec<f64>,
    ) {
        let values: Vec<f64> = queries.collect();
        self.measure_split_into(&values, provider, out).unwrap();
    }
    fn buffer(out: &Vec<f64>) -> (usize, usize) {
        (out.len(), out.capacity())
    }
}

/// The draw providers. Each serves one sequential stream and must
/// reproduce the reference bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provider {
    Source,
    Rng,
    Scratch,
}

impl Provider {
    /// Every provider.
    pub const ALL: [Provider; 3] = [Provider::Source, Provider::Rng, Provider::Scratch];
}

/// Runs `m`'s `_into` entry once through a fresh `kind` provider on stream
/// `(seed, run)`; the scratch buffers persist across calls, as in a
/// Monte-Carlo loop.
pub fn run_entry<M: Subject>(
    m: &M,
    kind: Provider,
    (seed, run): (u64, u64),
    queries: impl Iterator<Item = f64>,
    scratch: &mut CallScratch,
    out: &mut M::Out,
) {
    let mut rng = derive_stream(seed, run);
    let topk = &mut scratch.topk;
    match kind {
        Provider::Source => {
            let mut source = SamplingSource::new(&mut rng);
            m.entry(queries, &mut SourceDraws::new(&mut source), topk, out);
        }
        Provider::Rng => m.entry(queries, &mut RngDraws::new(&mut rng), topk, out),
        Provider::Scratch => {
            let mut provider = ScratchDraws::new(&mut scratch.svt, &mut rng);
            m.entry(queries, &mut provider, topk, out);
        }
    }
}

/// The exact-bits rendering outputs are compared by.
pub fn bits<T: Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// A query stream that does not report its length, like a generator: the
/// lazy counterpart of a materialized slice iterator.
pub struct Lazy<I>(pub I);

impl<I: Iterator<Item = f64>> Iterator for Lazy<I> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.0.next()
    }
}

/// Wraps an iterator with a hard pull budget: the `allowed + 1`-th call to
/// `next` panics. Proves a mechanism never observes a query past its
/// halting point.
pub struct PanicAfter<I> {
    pub inner: I,
    pub allowed: usize,
}

impl<I: Iterator<Item = f64>> Iterator for PanicAfter<I> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        assert!(
            self.allowed > 0,
            "query stream pulled after the mechanism must have halted"
        );
        self.allowed -= 1;
        self.inner.next()
    }
}

/// For each run: the reference entry on stream `(seed, run)`, then the
/// `_into` entry through every provider on materialized and
/// on lazy input — all into one reused output, which must come back
/// bit-identical to the reference every time.
pub fn assert_providers_agree<M: Subject>(
    m: &M,
    answers: &QueryAnswers,
    seed: u64,
    runs: impl IntoIterator<Item = u64>,
) {
    let name = std::any::type_name::<M>();
    let mut scratch = CallScratch::new();
    let mut out = M::Out::default();
    let values = answers.values();
    for run in runs {
        let expect = bits(&m.reference(answers, &mut derive_stream(seed, run)));
        for kind in Provider::ALL {
            let queries = values.iter().copied();
            run_entry(m, kind, (seed, run), queries, &mut scratch, &mut out);
            assert_eq!(
                bits(&out),
                expect,
                "{name} run {run}: {kind:?}, materialized"
            );
            let queries = Lazy(values.iter().copied());
            run_entry(m, kind, (seed, run), queries, &mut scratch, &mut out);
            assert_eq!(bits(&out), expect, "{name} run {run}: {kind:?}, lazy");
        }
    }
}

/// Output-buffer reuse through the fast provider (`ScratchDraws`, the one
/// `call_batched` runs): a reused output matches the allocating reference
/// on every run, and once one fixed stream has been replayed twice (the
/// tape's consumption prediction settles) its buffer never grows again.
/// `fixed_len` outputs (Top-K selections, measurements) must not
/// reallocate after the first run at all.
pub fn assert_output_reused<M: Subject>(
    m: &M,
    answers: &QueryAnswers,
    seed: u64,
    runs: u64,
    fixed_len: bool,
) {
    let name = std::any::type_name::<M>();
    let kind = Provider::Scratch;
    let mut scratch = CallScratch::new();
    let mut out = M::Out::default();
    let values = answers.values();
    let mut first_capacity = 0;
    for run in 0..runs {
        let expect = bits(&m.reference(answers, &mut derive_stream(seed, run)));
        let queries = values.iter().copied();
        run_entry(m, kind, (seed, run), queries, &mut scratch, &mut out);
        assert_eq!(bits(&out), expect, "{name} run {run}");
        let capacity = M::buffer(&out).1;
        if run == 0 {
            first_capacity = capacity;
        } else if fixed_len {
            assert_eq!(capacity, first_capacity, "{name} run {run} reallocated");
        }
    }
    let mut steady_capacity = 0;
    for rep in 0..20 {
        let queries = values.iter().copied();
        run_entry(m, kind, (seed, 0), queries, &mut scratch, &mut out);
        let capacity = M::buffer(&out).1;
        if rep == 2 {
            steady_capacity = capacity;
        } else if rep > 2 {
            assert_eq!(capacity, steady_capacity, "{name} rep {rep} reallocated");
        }
    }
}

/// Laziness under every provider: on an endless stream of certain `⊤`s,
/// the mechanism halts after exactly the queries a materialized run of
/// the same provider processes (`expect_pulls` when the halt cause fixes
/// the count: `k` for the k-th `⊤`, the answer limit), and never pulls
/// another one — the output matching the materialized run bit for bit.
pub fn assert_halts_lazily<M: Subject>(m: &M, seed: u64, expect_pulls: Option<usize>) {
    let name = std::any::type_name::<M>();
    let mut scratch = CallScratch::new();
    let mut materialized = M::Out::default();
    let mut streamed = M::Out::default();
    for kind in Provider::ALL {
        for run in 0..25u64 {
            let queries = std::iter::repeat_n(1e9, 500);
            run_entry(
                m,
                kind,
                (seed, run),
                queries,
                &mut scratch,
                &mut materialized,
            );
            let processed = M::buffer(&materialized).0;
            assert!(
                processed < 500,
                "{name} {kind:?}: no halt before the stream ended"
            );
            if let Some(pulls) = expect_pulls {
                assert_eq!(processed, pulls, "{name} {kind:?} run {run}");
            }
            let queries = PanicAfter {
                inner: std::iter::repeat(1e9),
                allowed: processed,
            };
            run_entry(m, kind, (seed, run), queries, &mut scratch, &mut streamed);
            assert_eq!(
                bits(&streamed),
                bits(&materialized),
                "{name} {kind:?} run {run}"
            );
        }
    }
}

/// A mid-sized monotone workload with a mix of clear winners, near-ties and
/// noise-level entries, regenerated deterministically per seed.
pub fn workload(seed: u64, n: usize) -> QueryAnswers {
    let mut rng = derive_stream(seed, 999);
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let base = (n - i) as f64 * 0.37;
            base + rng.gen_range(0.0..30.0)
        })
        .collect();
    QueryAnswers::counting(values)
}

/// The integer-lattice (`γ = 1`) projection of [`workload`], for the
/// finite-precision mechanisms.
pub fn integer_workload(seed: u64, n: usize) -> QueryAnswers {
    QueryAnswers::counting(
        workload(seed, n)
            .values()
            .iter()
            .map(|v| v.round())
            .collect(),
    )
}
