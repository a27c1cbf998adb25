//! Execution-path equivalence: for every mechanism with fast paths, all
//! paths on a fresh RNG stream must produce **bit-for-bit** the same output
//! as `run` on an identically seeded stream — `run_with_scratch` (batched
//! noise), `run_streaming` (lazy query iterator), and
//! `run_streaming_with_scratch` (both). For the SVT family that is a
//! four-way check per mechanism.
//!
//! This is the contract that lets the bench harness, Monte-Carlo loops and
//! streaming servers use the fast paths while the paper-protocol experiments
//! and the alignment checker keep their numbers: every path is the same
//! mechanism, not implementations that merely agree in distribution.
//!
//! The suite also proves the streaming paths' *laziness*, the
//! privacy-relevant property of Algorithm 2's online form: once the
//! mechanism halts (k-th ⊤, answer limit, or exhausted budget), no further
//! query is ever pulled from the stream — asserted with iterators that
//! panic when over-consumed.

use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::scratch::{SvtScratch, TopKScratch};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::QueryAnswers;
use free_gap_noise::rng::derive_stream;
use proptest::prelude::*;
use rand::Rng;

/// Wraps an iterator with a hard pull budget: the `allowed + 1`-th call to
/// `next` panics. Used to prove a streaming mechanism never observes a query
/// past its halting point.
struct PanicAfter<I> {
    inner: I,
    allowed: usize,
}

impl<I> PanicAfter<I> {
    fn new(inner: I, allowed: usize) -> Self {
        Self { inner, allowed }
    }
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

/// A mid-sized monotone workload with a mix of clear winners, near-ties and
/// noise-level entries, regenerated deterministically per seed.
fn workload(seed: u64, n: usize) -> QueryAnswers {
    let mut rng = derive_stream(seed, 999);
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let base = (n - i) as f64 * 0.37;
            base + rng.gen_range(0.0..30.0)
        })
        .collect();
    QueryAnswers::counting(values)
}

#[test]
fn topk_with_gap_scratch_is_bit_identical() {
    let m = NoisyTopKWithGap::new(10, 0.7, true).unwrap();
    let answers = workload(1, 400);
    let mut scratch = TopKScratch::new();
    for run in 0..200u64 {
        let expect = m.run(&answers, &mut derive_stream(42, run)).unwrap();
        let got = m
            .run_with_scratch(&answers, &mut derive_stream(42, run), &mut scratch)
            .unwrap();
        assert_eq!(expect, got, "run {run}");
        // PartialEq on f64 gaps is exact equality: spot-check bits too.
        for (a, b) in expect.items.iter().zip(&got.items) {
            assert_eq!(a.gap.to_bits(), b.gap.to_bits(), "run {run}");
        }
    }
}

#[test]
fn classic_topk_scratch_is_bit_identical() {
    let m = ClassicNoisyTopK::new(5, 1.1, false).unwrap();
    let answers = workload(2, 250);
    let mut scratch = TopKScratch::new();
    for run in 0..200u64 {
        let expect = m.run(&answers, &mut derive_stream(7, run));
        let got = m.run_with_scratch(&answers, &mut derive_stream(7, run), &mut scratch);
        assert_eq!(expect, got, "run {run}");
    }
}

#[test]
fn classic_svt_all_four_paths_are_bit_identical() {
    let answers = workload(3, 500);
    let threshold = answers.values()[30];
    let m = ClassicSparseVector::new(8, 0.7, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();
    let mut stream_scratch = SvtScratch::new();
    for run in 0..200u64 {
        let expect = m.run(&answers, &mut derive_stream(11, run));
        let got = m.run_with_scratch(&answers, &mut derive_stream(11, run), &mut scratch);
        assert_eq!(expect, got, "run {run} (scratch)");
        let stream = m.run_streaming(
            answers.values().iter().copied(),
            &mut derive_stream(11, run),
        );
        assert_eq!(expect, stream, "run {run} (streaming)");
        let stream_sc = m.run_streaming_with_scratch(
            answers.values().iter().copied(),
            &mut derive_stream(11, run),
            &mut stream_scratch,
        );
        assert_eq!(expect, stream_sc, "run {run} (streaming scratch)");
    }
}

#[test]
fn svt_with_gap_all_four_paths_are_bit_identical() {
    let answers = workload(4, 500);
    let threshold = answers.values()[25];
    let m = SparseVectorWithGap::new(6, 0.9, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();
    let mut stream_scratch = SvtScratch::new();
    for run in 0..200u64 {
        let expect = m.run(&answers, &mut derive_stream(13, run));
        let got = m.run_with_scratch(&answers, &mut derive_stream(13, run), &mut scratch);
        assert_eq!(expect, got, "run {run} (scratch)");
        let stream = m.run_streaming(
            answers.values().iter().copied(),
            &mut derive_stream(13, run),
        );
        assert_eq!(expect, stream, "run {run} (streaming)");
        let stream_sc = m.run_streaming_with_scratch(
            answers.values().iter().copied(),
            &mut derive_stream(13, run),
            &mut stream_scratch,
        );
        assert_eq!(expect, stream_sc, "run {run} (streaming scratch)");
        // PartialEq on f64 gaps is exact equality: spot-check bits too.
        for ((_, a), (_, b)) in expect.gaps().iter().zip(stream_sc.gaps().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "run {run}");
        }
    }
}

#[test]
fn adaptive_svt_all_four_paths_are_bit_identical() {
    let answers = workload(5, 600);
    let threshold = answers.values()[40];
    let m = AdaptiveSparseVector::new(8, 0.7, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();
    let mut stream_scratch = SvtScratch::new();
    for run in 0..200u64 {
        let expect = m.run(&answers, &mut derive_stream(17, run));
        let got = m.run_with_scratch(&answers, &mut derive_stream(17, run), &mut scratch);
        assert_eq!(expect, got, "run {run} (scratch)");
        assert_eq!(expect.spent.to_bits(), got.spent.to_bits(), "run {run}");
        let stream = m.run_streaming(
            answers.values().iter().copied(),
            &mut derive_stream(17, run),
        );
        assert_eq!(expect, stream, "run {run} (streaming)");
        let stream_sc = m.run_streaming_with_scratch(
            answers.values().iter().copied(),
            &mut derive_stream(17, run),
            &mut stream_scratch,
        );
        assert_eq!(expect, stream_sc, "run {run} (streaming scratch)");
        assert_eq!(
            expect.spent.to_bits(),
            stream_sc.spent.to_bits(),
            "run {run}"
        );
    }
}

#[test]
fn multi_branch_all_four_paths_are_bit_identical() {
    let answers = workload(6, 400);
    let threshold = answers.values()[30];
    let mut scratch = SvtScratch::new();
    let mut stream_scratch = SvtScratch::new();
    for branches in [1usize, 2, 3, 5] {
        let m = MultiBranchAdaptiveSparseVector::new(6, 0.7, threshold, true, branches).unwrap();
        for run in 0..100u64 {
            let expect = m.run(&answers, &mut derive_stream(23, run));
            let got = m.run_with_scratch(&answers, &mut derive_stream(23, run), &mut scratch);
            assert_eq!(expect, got, "m = {branches}, run {run} (scratch)");
            assert_eq!(expect.spent.to_bits(), got.spent.to_bits());
            let stream = m.run_streaming(
                answers.values().iter().copied(),
                &mut derive_stream(23, run),
            );
            assert_eq!(expect, stream, "m = {branches}, run {run} (streaming)");
            let stream_sc = m.run_streaming_with_scratch(
                answers.values().iter().copied(),
                &mut derive_stream(23, run),
                &mut stream_scratch,
            );
            assert_eq!(
                expect, stream_sc,
                "m = {branches}, run {run} (streaming scratch)"
            );
        }
    }
}

/// The integer-lattice (`γ = 1`) projection of [`workload`], for the
/// finite-precision mechanisms.
fn integer_workload(seed: u64, n: usize) -> QueryAnswers {
    QueryAnswers::counting(
        workload(seed, n)
            .values()
            .iter()
            .map(|v| v.round())
            .collect(),
    )
}

#[test]
fn discrete_topk_scratch_is_bit_identical() {
    let m = DiscreteNoisyTopKWithGap::new(8, 0.9, true).unwrap();
    let answers = integer_workload(7, 350);
    let mut scratch = TopKScratch::new();
    for run in 0..200u64 {
        let expect = m.run(&answers, &mut derive_stream(47, run)).unwrap();
        let got = m
            .run_with_scratch(&answers, &mut derive_stream(47, run), &mut scratch)
            .unwrap();
        assert_eq!(expect, got, "run {run}");
        for (a, b) in expect.items.iter().zip(&got.items) {
            assert_eq!(a.gap.to_bits(), b.gap.to_bits(), "run {run}");
        }
    }
}

#[test]
fn discrete_svt_all_four_paths_are_bit_identical() {
    let answers = integer_workload(8, 500);
    let threshold = answers.values()[30];
    let m = DiscreteSparseVectorWithGap::new(6, 0.8, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();
    let mut stream_scratch = SvtScratch::new();
    for run in 0..200u64 {
        let expect = m.run(&answers, &mut derive_stream(53, run));
        let got = m.run_with_scratch(&answers, &mut derive_stream(53, run), &mut scratch);
        assert_eq!(expect, got, "run {run} (scratch)");
        let stream = m.run_streaming(
            answers.values().iter().copied(),
            &mut derive_stream(53, run),
        );
        assert_eq!(expect, stream, "run {run} (streaming)");
        let stream_sc = m.run_streaming_with_scratch(
            answers.values().iter().copied(),
            &mut derive_stream(53, run),
            &mut stream_scratch,
        );
        assert_eq!(expect, stream_sc, "run {run} (streaming scratch)");
        // PartialEq on f64 gaps is exact equality: spot-check bits too —
        // and pin that the lattice survives every path (gaps are exact
        // integer multiples of γ = 1).
        for ((_, a), (_, b)) in expect.gaps().iter().zip(stream_sc.gaps().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "run {run}");
            assert_eq!(a.fract(), 0.0, "run {run}: off-lattice gap {a}");
        }
    }
}

#[test]
fn discrete_svt_streaming_never_pulls_past_the_kth_top() {
    // The discrete mirror of the continuous laziness proof: every query
    // towers over the integer threshold at tiny noise, so each pull is a
    // certain ⊤ — the mechanism must pull exactly k queries from an
    // endless stream and halt without observing another one, on both the
    // draw-exact and the block-buffered (noise-lookahead) paths.
    let k = 3usize;
    let m = DiscreteSparseVectorWithGap::new(k, 50.0, 10.0, true).unwrap();
    let mut scratch = SvtScratch::new();
    for run in 0..25u64 {
        let endless = std::iter::repeat(1e9);
        let out = m.run_streaming(
            PanicAfter::new(endless.clone(), k),
            &mut derive_stream(59, run),
        );
        assert_eq!(out.answered(), k, "run {run}");
        let out = m.run_streaming_with_scratch(
            PanicAfter::new(endless, k),
            &mut derive_stream(59, run),
            &mut scratch,
        );
        assert_eq!(out.answered(), k, "run {run} (scratch)");
    }
}

#[test]
fn discrete_svt_streaming_finite_stream_matches_materialized() {
    // A finite stream that ends before k ⊤s are found: the streaming paths
    // must drain it and agree with the materialized run, including when the
    // block buffer's noise lookahead extends past the stream's end.
    let answers = integer_workload(9, 40);
    let threshold = 1e12_f64; // nothing ever clears it
    let m = DiscreteSparseVectorWithGap::new(5, 0.8, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();
    for run in 0..50u64 {
        let expect = m.run(&answers, &mut derive_stream(61, run));
        assert_eq!(expect.answered(), 0);
        assert_eq!(expect.processed(), answers.len());
        let stream_sc = m.run_streaming_with_scratch(
            answers.values().iter().copied(),
            &mut derive_stream(61, run),
            &mut scratch,
        );
        assert_eq!(expect, stream_sc, "run {run}");
    }
}

#[test]
fn adaptive_svt_scratch_honors_answer_limit() {
    let answers = QueryAnswers::counting(vec![1e7; 200]);
    let m = AdaptiveSparseVector::new(10, 0.7, 10.0, true)
        .unwrap()
        .with_answer_limit(10);
    let mut scratch = SvtScratch::new();
    for run in 0..50u64 {
        let expect = m.run(&answers, &mut derive_stream(19, run));
        let got = m.run_with_scratch(&answers, &mut derive_stream(19, run), &mut scratch);
        assert_eq!(expect, got, "run {run}");
        assert_eq!(got.answered(), 10);
    }
}

#[test]
fn adaptive_answer_limit_edge_cases_agree_on_every_path() {
    // Regression guard for the answer-limit handling that used to exist
    // twice (dyn: `is_some_and`, scratch: `unwrap_or(usize::MAX)`): limits
    // 0 and 1 must behave identically on the dyn, scratch and streaming
    // paths, including the degenerate never-answer case.
    let answers = QueryAnswers::counting(vec![1e7; 50]);
    let mut scratch = SvtScratch::new();
    for limit in [0usize, 1] {
        let m = AdaptiveSparseVector::new(10, 0.7, 10.0, true)
            .unwrap()
            .with_answer_limit(limit);
        for run in 0..20u64 {
            let expect = m.run(&answers, &mut derive_stream(29, run));
            assert_eq!(expect.answered(), limit, "limit {limit}, run {run}");
            // limit 0 must stop before processing any query at all.
            assert_eq!(expect.outcomes.len(), limit, "limit {limit}, run {run}");
            let got = m.run_with_scratch(&answers, &mut derive_stream(29, run), &mut scratch);
            assert_eq!(expect, got, "limit {limit}, run {run} (scratch)");
            let stream = m.run_streaming(
                answers.values().iter().copied(),
                &mut derive_stream(29, run),
            );
            assert_eq!(expect, stream, "limit {limit}, run {run} (streaming)");
        }
    }
}

#[test]
fn classic_svt_streaming_never_pulls_past_the_kth_top() {
    // Every query towers over the threshold at tiny noise, so each pull is a
    // certain ⊤: the mechanism must pull exactly k queries from an endless
    // stream and then halt without observing another one.
    let k = 3usize;
    let m = ClassicSparseVector::new(k, 50.0, 10.0, true).unwrap();
    let mut scratch = SvtScratch::new();
    for run in 0..25u64 {
        let endless = std::iter::repeat(1e9);
        let out = m.run_streaming(
            PanicAfter::new(endless.clone(), k),
            &mut derive_stream(31, run),
        );
        assert_eq!(out.answered(), k, "run {run}");
        let out = m.run_streaming_with_scratch(
            PanicAfter::new(endless, k),
            &mut derive_stream(31, run),
            &mut scratch,
        );
        assert_eq!(out.answered(), k, "run {run} (scratch)");
    }
}

#[test]
fn adaptive_streaming_never_pulls_past_budget_exhaustion() {
    // Replay a materialized run to learn exactly how many queries the
    // budget admits, then prove the streaming paths pull not one more from
    // an endless stream.
    let m = AdaptiveSparseVector::new(5, 0.7, 10.0, true).unwrap();
    let mut scratch = SvtScratch::new();
    for run in 0..25u64 {
        let materialized = m.run(
            &QueryAnswers::counting(vec![1e9; 500]),
            &mut derive_stream(37, run),
        );
        let processed = materialized.outcomes.len();
        assert!(processed < 500, "budget must stop before the stream ends");
        let endless = std::iter::repeat(1e9);
        let out = m.run_streaming(
            PanicAfter::new(endless.clone(), processed),
            &mut derive_stream(37, run),
        );
        assert_eq!(materialized, out, "run {run}");
        let out = m.run_streaming_with_scratch(
            PanicAfter::new(endless, processed),
            &mut derive_stream(37, run),
            &mut scratch,
        );
        assert_eq!(materialized, out, "run {run} (scratch)");
    }
}

#[test]
fn adaptive_streaming_answer_limit_caps_stream_pulls() {
    // With an answer limit and certain ⊤s, exactly `limit` pulls happen.
    let limit = 5usize;
    let m = AdaptiveSparseVector::new(10, 0.7, 10.0, true)
        .unwrap()
        .with_answer_limit(limit);
    let mut scratch = SvtScratch::new();
    for run in 0..25u64 {
        let endless = std::iter::repeat(1e9);
        let out = m.run_streaming(
            PanicAfter::new(endless.clone(), limit),
            &mut derive_stream(41, run),
        );
        assert_eq!(out.answered(), limit, "run {run}");
        let out = m.run_streaming_with_scratch(
            PanicAfter::new(endless, limit),
            &mut derive_stream(41, run),
            &mut scratch,
        );
        assert_eq!(out.answered(), limit, "run {run} (scratch)");
    }
}

#[test]
fn multi_branch_streaming_never_pulls_past_budget_exhaustion() {
    let m = MultiBranchAdaptiveSparseVector::new(4, 0.7, 10.0, true, 3).unwrap();
    let mut scratch = SvtScratch::new();
    for run in 0..25u64 {
        let materialized = m.run(
            &QueryAnswers::counting(vec![1e9; 500]),
            &mut derive_stream(43, run),
        );
        let processed = materialized.outcomes.len();
        assert!(processed < 500, "budget must stop before the stream ends");
        let endless = std::iter::repeat(1e9);
        let out = m.run_streaming(
            PanicAfter::new(endless.clone(), processed),
            &mut derive_stream(43, run),
        );
        assert_eq!(materialized, out, "run {run}");
        let out = m.run_streaming_with_scratch(
            PanicAfter::new(endless, processed),
            &mut derive_stream(43, run),
            &mut scratch,
        );
        assert_eq!(materialized, out, "run {run} (scratch)");
    }
}

#[test]
fn exponential_mechanism_all_four_paths_are_bit_identical() {
    // The dyn path materializes and sorts all n Gumbel scores; the
    // scratch/streaming paths run the race through a k-sized insertion
    // buffer. Same draws, same total order — the selections must agree
    // index-for-index on every stream.
    let m = ExponentialMechanism::new(0.9, true).unwrap();
    let answers = workload(7, 400);
    let mut scratch = TopKScratch::new();
    for run in 0..200u64 {
        let expect = m
            .run_top_k(&answers, 10, &mut derive_stream(52, run))
            .unwrap();
        let scratch_sel = m
            .run_top_k_with_scratch(&answers, 10, &mut derive_stream(52, run), &mut scratch)
            .unwrap();
        assert_eq!(expect, scratch_sel, "run {run} (scratch)");
        let streaming = m
            .run_top_k_streaming(
                answers.values().iter().copied(),
                10,
                &mut derive_stream(52, run),
            )
            .unwrap();
        assert_eq!(expect, streaming, "run {run} (streaming)");
        let stream_scratch = m
            .run_top_k_streaming_with_scratch(
                answers.values().iter().copied(),
                10,
                &mut derive_stream(52, run),
                &mut scratch,
            )
            .unwrap();
        assert_eq!(expect, stream_scratch, "run {run} (streaming + scratch)");
        // The argmax entry is the k = 1 race on the same stream.
        let argmax = m.run(&answers, &mut derive_stream(52, run)).unwrap();
        let argmax_scratch = m
            .run_with_scratch(&answers, &mut derive_stream(52, run), &mut scratch)
            .unwrap();
        assert_eq!(argmax, argmax_scratch, "run {run} (argmax)");
    }
}

#[test]
fn staircase_measurement_all_four_paths_are_bit_identical() {
    let m = StaircaseMechanism::new(1.3).unwrap();
    let answers = workload(9, 300);
    let mut scratch = SvtScratch::new();
    for run in 0..200u64 {
        let expect = m
            .measure_split(answers.values(), &mut derive_stream(53, run))
            .unwrap();
        let got = m
            .measure_split_with_scratch(answers.values(), &mut derive_stream(53, run), &mut scratch)
            .unwrap();
        assert_eq!(expect.len(), got.len());
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "run {run} slot {i} (scratch)");
        }
        let streaming = m
            .measure_split_streaming(
                answers.values().iter().copied(),
                answers.len(),
                &mut derive_stream(53, run),
            )
            .unwrap();
        for (i, (a, b)) in expect.iter().zip(&streaming).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "run {run} slot {i} (streaming)");
        }
        let stream_scratch = m
            .measure_split_streaming_with_scratch(
                answers.values().iter().copied(),
                answers.len(),
                &mut derive_stream(53, run),
                &mut scratch,
            )
            .unwrap();
        for (i, (a, b)) in expect.iter().zip(&stream_scratch).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "run {run} slot {i} (streaming + scratch)"
            );
        }
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
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let threshold = sorted[threshold_rank.min(n - 1)];

        let mut topk_scratch = TopKScratch::new();
        let mut svt_scratch = SvtScratch::new();

        let topk = NoisyTopKWithGap::new(k, 0.8, monotone).unwrap();
        prop_assert_eq!(
            topk.run(&answers, &mut derive_stream(seed, 0)),
            topk.run_with_scratch(&answers, &mut derive_stream(seed, 0), &mut topk_scratch)
        );

        let classic_topk = ClassicNoisyTopK::new(k, 0.8, monotone).unwrap();
        prop_assert_eq!(
            classic_topk.run(&answers, &mut derive_stream(seed, 1)),
            classic_topk.run_with_scratch(
                &answers, &mut derive_stream(seed, 1), &mut topk_scratch)
        );

        let svt = SparseVectorWithGap::new(k, 0.8, threshold, monotone).unwrap();
        let svt_expect = svt.run(&answers, &mut derive_stream(seed, 2));
        prop_assert_eq!(
            &svt_expect,
            &svt.run_with_scratch(&answers, &mut derive_stream(seed, 2), &mut svt_scratch)
        );
        prop_assert_eq!(
            &svt_expect,
            &svt.run_streaming(answers.values().iter().copied(), &mut derive_stream(seed, 2))
        );
        prop_assert_eq!(
            &svt_expect,
            &svt.run_streaming_with_scratch(
                answers.values().iter().copied(), &mut derive_stream(seed, 2), &mut svt_scratch)
        );

        let adaptive = AdaptiveSparseVector::new(k, 0.8, threshold, monotone).unwrap();
        let adaptive_expect = adaptive.run(&answers, &mut derive_stream(seed, 3));
        prop_assert_eq!(
            &adaptive_expect,
            &adaptive.run_with_scratch(&answers, &mut derive_stream(seed, 3), &mut svt_scratch)
        );
        prop_assert_eq!(
            &adaptive_expect,
            &adaptive.run_streaming(
                answers.values().iter().copied(), &mut derive_stream(seed, 3))
        );
        prop_assert_eq!(
            &adaptive_expect,
            &adaptive.run_streaming_with_scratch(
                answers.values().iter().copied(), &mut derive_stream(seed, 3), &mut svt_scratch)
        );

        let multi =
            MultiBranchAdaptiveSparseVector::new(k, 0.8, threshold, monotone, branches).unwrap();
        let multi_expect = multi.run(&answers, &mut derive_stream(seed, 4));
        prop_assert_eq!(
            &multi_expect,
            &multi.run_with_scratch(&answers, &mut derive_stream(seed, 4), &mut svt_scratch)
        );
        prop_assert_eq!(
            &multi_expect,
            &multi.run_streaming_with_scratch(
                answers.values().iter().copied(), &mut derive_stream(seed, 4), &mut svt_scratch)
        );

        // Baseline mechanisms: exponential-mechanism selection (reference
        // sort vs insertion race) and staircase measurement.
        let expo = ExponentialMechanism::new(0.8, monotone).unwrap();
        let expo_expect = expo.run_top_k(&answers, k, &mut derive_stream(seed, 7)).unwrap();
        prop_assert_eq!(
            &expo_expect,
            &expo.run_top_k_with_scratch(
                &answers, k, &mut derive_stream(seed, 7), &mut topk_scratch).unwrap()
        );
        prop_assert_eq!(
            &expo_expect,
            &expo.run_top_k_streaming(
                answers.values().iter().copied(), k, &mut derive_stream(seed, 7)).unwrap()
        );

        let stair = StaircaseMechanism::new(0.8).unwrap();
        let stair_expect = stair.measure_split(answers.values(), &mut derive_stream(seed, 8));
        prop_assert_eq!(
            &stair_expect,
            &stair.measure_split_with_scratch(
                answers.values(), &mut derive_stream(seed, 8), &mut svt_scratch)
        );
        prop_assert_eq!(
            &stair_expect,
            &stair.measure_split_streaming_with_scratch(
                answers.values().iter().copied(),
                answers.len(),
                &mut derive_stream(seed, 8),
                &mut svt_scratch)
        );
        prop_assert!(stair_expect.is_ok());

        // Finite-precision variants on the integer projection of the same
        // workload (counting semantics keep the lattice at γ = 1).
        let int_answers = QueryAnswers::counting(
            answers.values().iter().map(|v| v.round()).collect());
        let int_threshold = threshold.round();

        let disc_topk = DiscreteNoisyTopKWithGap::new(k, 0.8, monotone).unwrap();
        prop_assert_eq!(
            disc_topk.run(&int_answers, &mut derive_stream(seed, 5)),
            disc_topk.run_with_scratch(
                &int_answers, &mut derive_stream(seed, 5), &mut topk_scratch)
        );

        let disc_svt =
            DiscreteSparseVectorWithGap::new(k, 0.8, int_threshold, monotone).unwrap();
        let disc_expect = disc_svt.run(&int_answers, &mut derive_stream(seed, 6));
        prop_assert_eq!(
            &disc_expect,
            &disc_svt.run_with_scratch(
                &int_answers, &mut derive_stream(seed, 6), &mut svt_scratch)
        );
        prop_assert_eq!(
            &disc_expect,
            &disc_svt.run_streaming(
                int_answers.values().iter().copied(), &mut derive_stream(seed, 6))
        );
        prop_assert_eq!(
            &disc_expect,
            &disc_svt.run_streaming_with_scratch(
                int_answers.values().iter().copied(),
                &mut derive_stream(seed, 6),
                &mut svt_scratch)
        );
    }
}
