//! Execution-path equivalence: every mechanism's one provider-taking
//! `_into` entry, run through each provider (`SourceDraws`, `RngDraws`,
//! the blocked `ScratchDraws` tape) on materialized and on
//! lazy input, must produce **bit-for-bit** the same output as the
//! allocating reference entry on an identically seeded stream.
//!
//! This is the contract that lets the bench harness, Monte-Carlo loops and
//! streaming servers use the fast providers while the paper-protocol
//! experiments and the alignment checker keep their numbers: every path is
//! the same mechanism, not implementations that merely agree in
//! distribution.
//!
//! The suite also proves the SVT entries' *laziness*, the
//! privacy-relevant property of Algorithm 2's online form: once the
//! mechanism halts (k-th ⊤, answer limit, or exhausted budget), no further
//! query is ever pulled from the stream — under every provider, asserted
//! with iterators that panic when over-consumed.

mod common;

use common::{assert_halts_lazily, assert_providers_agree, bits, integer_workload, workload, Race};
use free_gap_core::api::{AnyMechanism, CallScratch, MechanismOutput, QuerySlice};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::QueryAnswers;
use free_gap_noise::rng::derive_stream;
use proptest::prelude::*;

#[test]
fn topk_with_gap_scratch_is_bit_identical() {
    let m = NoisyTopKWithGap::new(10, 0.7, true).unwrap();
    assert_providers_agree(&m, &workload(1, 400), 42, 0..200);
}

#[test]
fn classic_topk_scratch_is_bit_identical() {
    let m = ClassicNoisyTopK::new(5, 1.1, false).unwrap();
    assert_providers_agree(&m, &workload(2, 250), 7, 0..200);
}

#[test]
fn classic_svt_all_four_paths_are_bit_identical() {
    let answers = workload(3, 500);
    let m = ClassicSparseVector::new(8, 0.7, answers.values()[30], true).unwrap();
    assert_providers_agree(&m, &answers, 11, 0..200);
}

#[test]
fn svt_with_gap_all_four_paths_are_bit_identical() {
    let answers = workload(4, 500);
    let m = SparseVectorWithGap::new(6, 0.9, answers.values()[25], true).unwrap();
    assert_providers_agree(&m, &answers, 13, 0..200);
}

#[test]
fn adaptive_svt_all_four_paths_are_bit_identical() {
    let answers = workload(5, 600);
    let m = AdaptiveSparseVector::new(8, 0.7, answers.values()[40], true).unwrap();
    assert_providers_agree(&m, &answers, 17, 0..200);
}

#[test]
fn multi_branch_all_four_paths_are_bit_identical() {
    let answers = workload(6, 400);
    for branches in [1usize, 2, 3, 5] {
        let m = MultiBranchAdaptiveSparseVector::new(6, 0.7, answers.values()[30], true, branches)
            .unwrap();
        assert_providers_agree(&m, &answers, 23, 0..100);
    }
}

#[test]
fn discrete_topk_scratch_is_bit_identical() {
    let m = DiscreteNoisyTopKWithGap::new(8, 0.9, true).unwrap();
    assert_providers_agree(&m, &integer_workload(7, 350), 47, 0..200);
}

#[test]
fn discrete_svt_all_four_paths_are_bit_identical() {
    let answers = integer_workload(8, 500);
    let m = DiscreteSparseVectorWithGap::new(6, 0.8, answers.values()[30], true).unwrap();
    assert_providers_agree(&m, &answers, 53, 0..200);
    // The lattice survives: released gaps are exact multiples of γ = 1.
    for run in 0..200u64 {
        for (_, gap) in m.run(&answers, &mut derive_stream(53, run)).gaps() {
            assert_eq!(gap.fract(), 0.0, "run {run}: off-lattice gap {gap}");
        }
    }
}

/// The laziness table: every SVT mechanism × every provider × each halt
/// cause that applies to it — `(name, mechanism, seed, fixed pull count)`.
/// Every query of the endless stream towers over the threshold, so each
/// pull is a certain ⊤ and the halt cause alone decides the pull count.
fn halt_table() -> Vec<(&'static str, AnyMechanism, u64, Option<usize>)> {
    vec![
        (
            "classic: k-th ⊤",
            ClassicSparseVector::new(3, 50.0, 10.0, true)
                .unwrap()
                .into(),
            31,
            Some(3),
        ),
        (
            "gap: k-th ⊤",
            SparseVectorWithGap::new(3, 50.0, 10.0, true)
                .unwrap()
                .into(),
            33,
            Some(3),
        ),
        (
            "discrete: k-th ⊤",
            DiscreteSparseVectorWithGap::new(3, 50.0, 10.0, true)
                .unwrap()
                .into(),
            59,
            Some(3),
        ),
        (
            "adaptive: budget",
            AdaptiveSparseVector::new(5, 0.7, 10.0, true)
                .unwrap()
                .into(),
            37,
            None,
        ),
        (
            "adaptive: answer limit",
            AdaptiveSparseVector::new(10, 0.7, 10.0, true)
                .unwrap()
                .with_answer_limit(5)
                .into(),
            41,
            Some(5),
        ),
        (
            "multi-branch: budget",
            MultiBranchAdaptiveSparseVector::new(4, 0.7, 10.0, true, 3)
                .unwrap()
                .into(),
            43,
            None,
        ),
    ]
}

/// Runs one row of [`halt_table`] under every provider.
fn halt_row(name: &str) {
    let (_, mech, seed, pulls) = halt_table().into_iter().find(|row| row.0 == name).unwrap();
    match mech {
        AnyMechanism::ClassicSparseVector(m) => assert_halts_lazily(&m, seed, pulls),
        AnyMechanism::SparseVectorWithGap(m) => assert_halts_lazily(&m, seed, pulls),
        AnyMechanism::DiscreteSparseVectorWithGap(m) => assert_halts_lazily(&m, seed, pulls),
        AnyMechanism::AdaptiveSparseVector(m) => assert_halts_lazily(&m, seed, pulls),
        AnyMechanism::MultiBranchAdaptiveSparseVector(m) => assert_halts_lazily(&m, seed, pulls),
        other => panic!("{other:?} is not an SVT mechanism"),
    }
}

#[test]
fn svt_halts_lazily_under_every_provider() {
    let table = halt_table();
    // Five mechanisms, each with every halt cause it has.
    assert_eq!(table.len(), 6);
    for (name, ..) in table {
        halt_row(name);
    }
}

#[test]
fn discrete_svt_streaming_never_pulls_past_the_kth_top() {
    halt_row("discrete: k-th ⊤");
}

#[test]
fn discrete_svt_streaming_finite_stream_matches_materialized() {
    // A finite stream that ends before k ⊤s are found: the lazy entry must
    // drain it and agree with the materialized run, including when the
    // block buffer's noise lookahead extends past the stream's end.
    let answers = integer_workload(9, 40);
    let m = DiscreteSparseVectorWithGap::new(5, 0.8, 1e12, true).unwrap();
    for run in 0..50u64 {
        let expect = m.run(&answers, &mut derive_stream(61, run));
        assert_eq!(expect.answered(), 0);
        assert_eq!(expect.processed(), answers.len());
    }
    assert_providers_agree(&m, &answers, 61, 0..50);
}

#[test]
fn adaptive_svt_scratch_honors_answer_limit() {
    let answers = QueryAnswers::counting(vec![1e7; 200]);
    let m = AdaptiveSparseVector::new(10, 0.7, 10.0, true)
        .unwrap()
        .with_answer_limit(10);
    for run in 0..50u64 {
        assert_eq!(m.run(&answers, &mut derive_stream(19, run)).answered(), 10);
    }
    assert_providers_agree(&m, &answers, 19, 0..50);
}

#[test]
fn adaptive_answer_limit_edge_cases_agree_on_every_path() {
    // Regression guard for the answer-limit handling that used to exist
    // twice (dyn: `is_some_and`, scratch: `unwrap_or(usize::MAX)`): limits
    // 0 and 1 must behave identically under every provider, including the
    // degenerate never-answer case.
    let answers = QueryAnswers::counting(vec![1e7; 50]);
    for limit in [0usize, 1] {
        let m = AdaptiveSparseVector::new(10, 0.7, 10.0, true)
            .unwrap()
            .with_answer_limit(limit);
        for run in 0..20u64 {
            let expect = m.run(&answers, &mut derive_stream(29, run));
            assert_eq!(expect.answered(), limit, "limit {limit}, run {run}");
            // limit 0 must stop before processing any query at all.
            assert_eq!(expect.outcomes.len(), limit, "limit {limit}, run {run}");
        }
        assert_providers_agree(&m, &answers, 29, 0..20);
    }
}

#[test]
fn classic_svt_streaming_never_pulls_past_the_kth_top() {
    halt_row("classic: k-th ⊤");
}

#[test]
fn adaptive_streaming_never_pulls_past_budget_exhaustion() {
    halt_row("adaptive: budget");
}

#[test]
fn adaptive_streaming_answer_limit_caps_stream_pulls() {
    halt_row("adaptive: answer limit");
}

#[test]
fn multi_branch_streaming_never_pulls_past_budget_exhaustion() {
    halt_row("multi-branch: budget");
}

#[test]
fn exponential_mechanism_all_four_paths_are_bit_identical() {
    // The reference materializes and sorts all n Gumbel scores; the `_into`
    // race keeps a k-sized insertion buffer. Same draws, same total order —
    // the selections must agree index-for-index on every stream.
    let m = ExponentialMechanism::new(0.9, true).unwrap();
    let answers = workload(7, 400);
    assert_providers_agree(&Race(m, 10), &answers, 52, 0..200);
    // The argmax entry is the k = 1 race on the same stream.
    assert_providers_agree(&Race(m, 1), &answers, 52, 0..200);
    for run in 0..200u64 {
        let argmax = m.run(&answers, &mut derive_stream(52, run)).unwrap();
        let top1 = m.run_top_k(&answers, 1, &mut derive_stream(52, run));
        assert_eq!(vec![argmax], top1.unwrap(), "run {run} (argmax)");
    }
}

#[test]
fn staircase_measurement_all_four_paths_are_bit_identical() {
    let m = StaircaseMechanism::new(1.3).unwrap();
    let answers = workload(9, 300);
    assert_providers_agree(&m, &answers, 53, 0..200);
    // The batched fill shape the unified call surface runs agrees too.
    let any = AnyMechanism::from(m);
    let req = QuerySlice::from_answers(&answers);
    let mut scratch = CallScratch::new();
    let mut out = MechanismOutput::new_for(&any);
    for run in 0..200u64 {
        let expect = m.measure_split(answers.values(), &mut derive_stream(53, run));
        any.call_batched(&req, &mut derive_stream(53, run), &mut scratch, &mut out)
            .unwrap();
        let MechanismOutput::Measurements(got) = &out else {
            panic!("run {run}: not a measurement: {out:?}")
        };
        assert_eq!(
            bits(got),
            bits(&expect.unwrap()),
            "run {run} (batched fill)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_fast_paths_match_on_random_workloads(
        n in 12usize..120,
        k in 1usize..6,
        seed in 0u64..50_000,
        monotone in proptest::bool::ANY,
        threshold_rank in 2usize..10,
        branches in 1usize..5,
    ) {
        let base = workload(seed, n);
        let answers = if monotone {
            base
        } else {
            QueryAnswers::general(base.values().to_vec())
        };
        let mut sorted: Vec<f64> = answers.values().to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let threshold = sorted[threshold_rank.min(n - 1)];

        // One derived stream per mechanism, as a Monte-Carlo loop runs them.
        let topk = NoisyTopKWithGap::new(k, 0.8, monotone).unwrap();
        assert_providers_agree(&topk, &answers, seed, 0..1);
        let classic_topk = ClassicNoisyTopK::new(k, 0.8, monotone).unwrap();
        assert_providers_agree(&classic_topk, &answers, seed, 1..2);
        let svt = SparseVectorWithGap::new(k, 0.8, threshold, monotone).unwrap();
        assert_providers_agree(&svt, &answers, seed, 2..3);
        let adaptive = AdaptiveSparseVector::new(k, 0.8, threshold, monotone).unwrap();
        assert_providers_agree(&adaptive, &answers, seed, 3..4);
        let multi =
            MultiBranchAdaptiveSparseVector::new(k, 0.8, threshold, monotone, branches).unwrap();
        assert_providers_agree(&multi, &answers, seed, 4..5);

        // Baseline mechanisms: exponential-mechanism selection (reference
        // sort vs insertion race) and staircase measurement.
        let expo = ExponentialMechanism::new(0.8, monotone).unwrap();
        assert_providers_agree(&Race(expo, k), &answers, seed, 7..8);
        let stair = StaircaseMechanism::new(0.8).unwrap();
        prop_assert!(stair.measure_split(answers.values(), &mut derive_stream(seed, 8)).is_ok());
        assert_providers_agree(&stair, &answers, seed, 8..9);

        // Finite-precision variants on the integer projection of the same
        // workload (counting semantics keep the lattice at γ = 1).
        let int_answers = QueryAnswers::counting(
            answers.values().iter().map(|v| v.round()).collect());
        let disc_topk = DiscreteNoisyTopKWithGap::new(k, 0.8, monotone).unwrap();
        assert_providers_agree(&disc_topk, &int_answers, seed, 5..6);
        let disc_svt =
            DiscreteSparseVectorWithGap::new(k, 0.8, threshold.round(), monotone).unwrap();
        assert_providers_agree(&disc_svt, &int_answers, seed, 6..7);
    }
}
