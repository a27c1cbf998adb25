//! Pins the unified call surface (`free_gap_core::api`) to the
//! per-mechanism entries:
//!
//! * `call_reference` is bit-identical to each mechanism's allocating
//!   reference entry (`run`, `run_top_k`, `measure_split`);
//! * `call_batched` is bit-identical to each mechanism's `_into` entry
//!   through the one fast provider it runs, the `ScratchDraws` tape;
//! * the resumable streaming Sparse-Vector-with-Gap
//!   (`stream_open`, then the branch ladder's feed step once per batch
//!   through `stream_feed`) is bit-identical to a one-shot `run_into`
//!   under any batching of the query feed.
//!
//! Together with `tests/scratch_equivalence.rs` (which pins the `_into`
//! entries to the reference entries across providers) this makes the API
//! surface a pure re-packaging: no mechanism's served distribution changes.

mod common;

use common::{bits, Race, Subject};
use free_gap_core::answers::QueryAnswers;
use free_gap_core::api::{
    AnyMechanism, CallScratch, ExponentialTopK, Mechanism, MechanismOutput, QuerySlice,
};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap, SvOutput,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::{ScratchDraws, SvtScratch, TopKScratch};
use free_gap_noise::rng::{derive_fast_stream, derive_stream, splitmix64};

fn values() -> Vec<f64> {
    vec![120.0, 40.0, 97.0, 80.0, 3.0, 55.0, 101.0, 12.0]
}

fn grid() -> Vec<AnyMechanism> {
    let expo = ExponentialMechanism::new(0.8, true).unwrap();
    vec![
        NoisyTopKWithGap::new(3, 1.0, true).unwrap().into(),
        ClassicNoisyTopK::new(3, 1.0, true).unwrap().into(),
        DiscreteNoisyTopKWithGap::new(3, 1.0, true).unwrap().into(),
        ExponentialTopK::new(expo, 3).unwrap().into(),
        StaircaseMechanism::new(1.0).unwrap().into(),
        SparseVectorWithGap::new(3, 0.7, 60.0, true).unwrap().into(),
        ClassicSparseVector::new(3, 0.7, 60.0, true).unwrap().into(),
        AdaptiveSparseVector::new(3, 0.7, 60.0, true)
            .unwrap()
            .into(),
        MultiBranchAdaptiveSparseVector::new(3, 0.7, 60.0, true, 3)
            .unwrap()
            .into(),
        DiscreteSparseVectorWithGap::new(3, 0.7, 60.0, true)
            .unwrap()
            .into(),
    ]
}

/// `call_reference` goes through the same dyn `SourceDraws` path as each
/// mechanism's allocating reference entry, so on the same `StdRng` stream
/// the outputs must be bit-identical.
#[test]
fn call_reference_matches_run_entry_points() {
    let vals = values();
    let answers = QueryAnswers::counting(vals.clone());
    let req = QuerySlice::new(&vals);
    for mech in grid() {
        for seed in 0..20u64 {
            let mut out = MechanismOutput::new_for(&mech);
            mech.call_reference(&req, &mut derive_stream(seed, 0), &mut out)
                .unwrap();
            let expect = match &mech {
                AnyMechanism::NoisyTopKWithGap(m) => {
                    MechanismOutput::TopK(m.run(&answers, &mut derive_stream(seed, 0)).unwrap())
                }
                AnyMechanism::ClassicNoisyTopK(m) => {
                    MechanismOutput::Indices(m.run(&answers, &mut derive_stream(seed, 0)).unwrap())
                }
                AnyMechanism::DiscreteNoisyTopKWithGap(m) => {
                    MechanismOutput::TopK(m.run(&answers, &mut derive_stream(seed, 0)).unwrap())
                }
                AnyMechanism::Exponential(m) => MechanismOutput::Indices(
                    m.mechanism()
                        .run_top_k(&answers, m.k(), &mut derive_stream(seed, 0))
                        .unwrap(),
                ),
                AnyMechanism::Staircase(m) => MechanismOutput::Measurements(
                    m.measure_split(&vals, &mut derive_stream(seed, 0)).unwrap(),
                ),
                AnyMechanism::SparseVectorWithGap(m) => {
                    MechanismOutput::SparseVector(m.run(&answers, &mut derive_stream(seed, 0)))
                }
                AnyMechanism::ClassicSparseVector(m) => {
                    MechanismOutput::SparseVector(m.run(&answers, &mut derive_stream(seed, 0)))
                }
                AnyMechanism::AdaptiveSparseVector(m) => {
                    MechanismOutput::Adaptive(m.run(&answers, &mut derive_stream(seed, 0)))
                }
                AnyMechanism::MultiBranchAdaptiveSparseVector(m) => {
                    MechanismOutput::MultiBranch(m.run(&answers, &mut derive_stream(seed, 0)))
                }
                AnyMechanism::DiscreteSparseVectorWithGap(m) => {
                    MechanismOutput::SparseVector(m.run(&answers, &mut derive_stream(seed, 0)))
                }
            };
            assert_eq!(out, expect, "{} seed {seed}", mech.name());
        }
    }
}

/// `_into` entry of `m` through `ScratchDraws` on fresh scratches, on
/// stream `(seed, 1)` of the fast generator.
fn batched<M: Subject>(m: &M, vals: &[f64], seed: u64) -> M::Out {
    let mut rng = derive_fast_stream(seed, 1);
    let mut out = M::Out::default();
    let (mut topk, mut svt) = (TopKScratch::new(), SvtScratch::new());
    let queries = vals.iter().copied();
    m.entry(
        queries,
        &mut ScratchDraws::new(&mut svt, &mut rng),
        &mut topk,
        &mut out,
    );
    out
}

/// `call_batched` runs every mechanism through `ScratchDraws`, so on the
/// same RNG stream it must be bit-identical to the mechanism's `_into`
/// entry through that provider (on warm scratches, against fresh ones).
#[test]
fn call_batched_matches_into_entry_points() {
    let vals = values();
    let req = QuerySlice::new(&vals);
    for mech in grid() {
        let mut scratch = CallScratch::new();
        let mut out = MechanismOutput::new_for(&mech);
        for seed in 0..20u64 {
            mech.call_batched(
                &req,
                &mut derive_fast_stream(seed, 1),
                &mut scratch,
                &mut out,
            )
            .unwrap();
            let expect = match &mech {
                AnyMechanism::NoisyTopKWithGap(m) => MechanismOutput::TopK(batched(m, &vals, seed)),
                AnyMechanism::ClassicNoisyTopK(m) => {
                    MechanismOutput::Indices(batched(m, &vals, seed))
                }
                AnyMechanism::DiscreteNoisyTopKWithGap(m) => {
                    MechanismOutput::TopK(batched(m, &vals, seed))
                }
                AnyMechanism::Exponential(m) => {
                    MechanismOutput::Indices(batched(&Race(*m.mechanism(), m.k()), &vals, seed))
                }
                AnyMechanism::Staircase(m) => {
                    MechanismOutput::Measurements(batched(m, &vals, seed))
                }
                AnyMechanism::SparseVectorWithGap(m) => {
                    MechanismOutput::SparseVector(batched(m, &vals, seed))
                }
                AnyMechanism::ClassicSparseVector(m) => {
                    MechanismOutput::SparseVector(batched(m, &vals, seed))
                }
                AnyMechanism::AdaptiveSparseVector(m) => {
                    MechanismOutput::Adaptive(batched(m, &vals, seed))
                }
                AnyMechanism::MultiBranchAdaptiveSparseVector(m) => {
                    MechanismOutput::MultiBranch(batched(m, &vals, seed))
                }
                AnyMechanism::DiscreteSparseVectorWithGap(m) => {
                    MechanismOutput::SparseVector(batched(m, &vals, seed))
                }
            };
            assert_eq!(bits(&out), bits(&expect), "{} seed {seed}", mech.name());
        }
    }
}

/// The output bits of every mechanism, pinned on both of its paths: the
/// fast `call_batched` (the provider a server worker and the benchmark
/// drive) and the dyn `call_reference`, on a 2,000-query workload with
/// five derived streams each. Each path's digests fold into one value, so
/// a change that moves any served bit of any mechanism fails here.
#[test]
fn call_batched_and_reference_digests_are_pinned() {
    let (k, threshold) = (5, 500.0);
    let expo = ExponentialMechanism::new(0.7, true).unwrap();
    let grid: Vec<AnyMechanism> = vec![
        NoisyTopKWithGap::new(k, 0.7, true).unwrap().into(),
        ClassicNoisyTopK::new(k, 0.7, true).unwrap().into(),
        DiscreteNoisyTopKWithGap::new(k, 0.7, true).unwrap().into(),
        ExponentialTopK::new(expo, k).unwrap().into(),
        StaircaseMechanism::new(0.7).unwrap().into(),
        SparseVectorWithGap::new(k, 0.7, threshold, true)
            .unwrap()
            .into(),
        ClassicSparseVector::new(k, 0.7, threshold, true)
            .unwrap()
            .into(),
        AdaptiveSparseVector::new(k, 0.7, threshold, true)
            .unwrap()
            .into(),
        MultiBranchAdaptiveSparseVector::new(k, 0.7, threshold, true, 3)
            .unwrap()
            .into(),
        DiscreteSparseVectorWithGap::new(k, 0.7, threshold, true)
            .unwrap()
            .into(),
    ];
    let mut s = 0x5EED_u64;
    let vals: Vec<f64> = (0..2_000)
        .map(|_| (splitmix64(&mut s) % 1_000) as f64)
        .collect();
    let req = QuerySlice::new(&vals);
    let mut scratch = CallScratch::new();
    let (mut fast, mut reference) = (0u64, 0u64);
    for mech in &grid {
        let mut out = MechanismOutput::new_for(mech);
        for r in 0..4 {
            mech.call_batched(
                &req,
                &mut derive_fast_stream(2019, r),
                &mut scratch,
                &mut out,
            )
            .unwrap();
            fast = out.digest(fast);
            mech.call_reference(&req, &mut derive_stream(2019, r), &mut out)
                .unwrap();
            reference = out.digest(reference);
        }
    }
    assert_eq!(
        fast, 0xea15_5cec_0ee0_724f,
        "call_batched digest moved: {fast:#018x}"
    );
    assert_eq!(
        reference, 0x3662_5567_66a9_fa23,
        "call_reference digest moved: {reference:#018x}"
    );
}

/// Names and costs are what a uniform caller (the benchmark, the serving
/// ledger) keys on: pin them.
#[test]
fn names_and_costs_are_stable() {
    let expect = [
        ("NoisyTopKWithGap", 1.0),
        ("ClassicNoisyTopK", 1.0),
        ("DiscreteNoisyTopKWithGap", 1.0),
        ("ExponentialMechanism", 2.4), // k = 3 peels at ε = 0.8 each
        ("StaircaseMechanism", 1.0),
        ("SparseVectorWithGap", 0.7),
        ("ClassicSparseVector", 0.7),
        ("AdaptiveSparseVector", 0.7),
        ("MultiBranchAdaptiveSparseVector", 0.7),
        ("DiscreteSparseVectorWithGap", 0.7),
    ];
    let grid = grid();
    assert_eq!(grid.len(), expect.len());
    for (mech, (name, cost)) in grid.iter().zip(expect) {
        assert_eq!(mech.name(), name);
        assert!((mech.cost() - cost).abs() < 1e-12, "{name} cost");
    }
}

/// Feeding a streaming SVT run one query at a time (or in any other
/// batching) through `stream_open`/`stream_feed` must reproduce the
/// one-shot `run_into` through the same tape bit for bit — the property
/// that lets a server hold a session open across requests.
#[test]
fn resumable_stream_matches_one_shot() {
    let queries = values();
    let gap = SparseVectorWithGap::new(3, 0.7, 60.0, true).unwrap();
    // Batchings: one-at-a-time, pairs, front-loaded, everything-at-once.
    let batchings: &[&[usize]] = &[
        &[1, 1, 1, 1, 1, 1, 1, 1],
        &[2, 2, 2, 2],
        &[5, 3],
        &[8],
        &[3, 1, 4],
    ];
    for seed in 0..30u64 {
        let mut one_shot_gap = SvOutput::default();
        gap.run_into(
            queries.iter().copied(),
            &mut ScratchDraws::new(&mut SvtScratch::new(), &mut derive_fast_stream(seed, 2)),
            &mut one_shot_gap,
        );
        for batching in batchings {
            assert_eq!(batching.iter().sum::<usize>(), queries.len());
            let mut rng = derive_fast_stream(seed, 2);
            let mut scratch = SvtScratch::new();
            let mut state = gap.stream_open(&mut rng, &mut scratch);
            let mut decisions = Vec::new();
            let mut offset = 0;
            for &batch in *batching {
                let fed = queries[offset..offset + batch].iter().copied();
                gap.stream_feed(&mut state, fed, &mut rng, &mut scratch, &mut decisions);
                offset += batch;
            }
            assert_eq!(
                decisions, one_shot_gap.above,
                "gap seed {seed} batching {batching:?}"
            );
            assert_eq!(state.answered(), one_shot_gap.answered());
            assert_eq!(state.is_halted(), one_shot_gap.answered() == gap.k());
        }
    }
}

/// Once the answer cap is reached, further feeds decide nothing: no query
/// is pulled from the batch.
#[test]
fn halted_stream_ignores_further_queries() {
    let gap = SparseVectorWithGap::new(1, 1.0, 10.0, true).unwrap();
    let mut rng = derive_fast_stream(7, 3);
    let mut scratch = SvtScratch::new();
    let mut state = gap.stream_open(&mut rng, &mut scratch);
    // A query far above threshold: answered immediately, halting the run.
    let mut decisions = Vec::new();
    let mut fed = 0;
    while !state.is_halted() {
        gap.stream_feed(&mut state, [500.0], &mut rng, &mut scratch, &mut decisions);
        fed += 1;
        assert!(fed < 100, "far-above query never answered");
    }
    assert!(state.is_halted());
    assert_eq!(state.answered(), 1);
    assert_eq!(state.k(), 1);
    assert_eq!(decisions.len(), fed);
    let mut pulled = 0;
    let batch = std::iter::repeat_n(500.0, 5).inspect(|_| pulled += 1);
    gap.stream_feed(&mut state, batch, &mut rng, &mut scratch, &mut decisions);
    assert_eq!(pulled, 0, "a halted stream pulled a query");
    assert_eq!(decisions.len(), fed);
}

/// The two discrete mechanisms report the same error for the same
/// workload: the first offending answer by index, NaN and ±∞ as
/// `NonFiniteUtility` and a finite off-lattice value as `InvalidParameter`
/// naming `answer`, and only then a workload too short for the Top-K
/// (`NotEnoughQueries`; Sparse Vector has no length floor).
#[test]
fn discrete_mechanisms_report_the_first_offender_values_before_length() {
    use free_gap_core::MechanismError;
    #[derive(Debug)]
    enum Want {
        NonFinite(usize),
        OffLattice(f64),
        Short,
        Answered,
    }
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let cases: &[(&[f64], Want, Want)] = &[
        // (answers, Top-K at k = 1, Sparse Vector at k = 1)
        (
            &[1.5, nan, 3.0],
            Want::OffLattice(1.5),
            Want::OffLattice(1.5),
        ),
        (&[nan, 1.5, 3.0], Want::NonFinite(0), Want::NonFinite(0)),
        (
            &[2.0, 3.0, -inf, 0.5],
            Want::NonFinite(2),
            Want::NonFinite(2),
        ),
        (&[nan], Want::NonFinite(0), Want::NonFinite(0)),
        (&[1.5], Want::OffLattice(1.5), Want::OffLattice(1.5)),
        (&[2.0], Want::Short, Want::Answered),
        (&[], Want::Short, Want::Answered),
    ];
    let mechanisms: [AnyMechanism; 2] = [
        DiscreteNoisyTopKWithGap::new(1, 1.0, true).unwrap().into(),
        DiscreteSparseVectorWithGap::new(1, 1.0, 10.0, true)
            .unwrap()
            .into(),
    ];
    for (answers, top_k, sparse_vector) in cases {
        for (mech, want) in mechanisms.iter().zip([top_k, sparse_vector]) {
            let mut out = MechanismOutput::new_for(mech);
            let got = mech.call_batched(
                &QuerySlice::new(answers),
                &mut derive_fast_stream(1, 1),
                &mut CallScratch::new(),
                &mut out,
            );
            let ok = match (want, &got) {
                (Want::NonFinite(i), Err(MechanismError::NonFiniteUtility { index, .. })) => {
                    index == i
                }
                (
                    Want::OffLattice(v),
                    Err(MechanismError::InvalidParameter {
                        name: "answer",
                        value,
                        ..
                    }),
                ) => value == v,
                (Want::Short, Err(MechanismError::NotEnoughQueries { .. })) => true,
                (Want::Answered, Ok(())) => true,
                _ => false,
            };
            assert!(
                ok,
                "{} on {answers:?}: want {want:?}, got {got:?}",
                mech.name()
            );
        }
    }
}
