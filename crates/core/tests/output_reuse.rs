//! The `*_into` out-parameter entry points: bit-identical to their
//! allocating twins, and genuinely allocation-free once the output has
//! grown to steady state (the buffer is reused, never reallocated).

use free_gap_core::noisy_max::{
    ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap, TopKOutput,
};
use free_gap_core::scratch::{SvtScratch, TopKScratch};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, AdaptiveSvOutput, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, MultiBranchSvOutput, SparseVectorWithGap, SvOutput,
};
use free_gap_core::QueryAnswers;
use free_gap_noise::rng::derive_stream;
use rand::Rng;

fn workload(seed: u64, n: usize) -> QueryAnswers {
    let mut rng = derive_stream(seed, 999);
    let values: Vec<f64> = (0..n)
        .map(|i| (n - i) as f64 * 0.37 + rng.gen_range(0.0..30.0))
        .collect();
    QueryAnswers::counting(values)
}

/// Integer-lattice projection of [`workload`] for the finite-precision
/// mechanisms (`γ = 1`).
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
fn topk_into_is_bit_identical_and_reuses_the_buffer() {
    let m = NoisyTopKWithGap::new(8, 0.7, true).unwrap();
    let answers = workload(1, 300);
    let mut scratch = TopKScratch::new();
    let mut out = TopKOutput { items: Vec::new() };
    let mut steady_capacity = 0;
    for run in 0..100u64 {
        let expect = m
            .run_with_scratch(&answers, &mut derive_stream(3, run), &mut scratch)
            .unwrap();
        m.run_with_scratch_into(&answers, &mut derive_stream(3, run), &mut scratch, &mut out)
            .unwrap();
        assert_eq!(expect, out, "run {run}");
        if run == 0 {
            steady_capacity = out.items.capacity();
        } else {
            assert_eq!(
                out.items.capacity(),
                steady_capacity,
                "run {run} reallocated"
            );
        }
    }
}

#[test]
fn classic_topk_into_is_bit_identical_and_reuses_the_buffer() {
    let m = ClassicNoisyTopK::new(5, 0.9, true).unwrap();
    let answers = workload(2, 200);
    let mut scratch = TopKScratch::new();
    let mut out = Vec::new();
    let mut steady_capacity = 0;
    for run in 0..100u64 {
        let expect = m
            .run_with_scratch(&answers, &mut derive_stream(5, run), &mut scratch)
            .unwrap();
        m.run_with_scratch_into(&answers, &mut derive_stream(5, run), &mut scratch, &mut out)
            .unwrap();
        assert_eq!(expect, out, "run {run}");
        if run == 0 {
            steady_capacity = out.capacity();
        } else {
            assert_eq!(out.capacity(), steady_capacity, "run {run} reallocated");
        }
    }
}

#[test]
fn svt_into_variants_are_bit_identical_and_reuse_buffers() {
    let answers = workload(3, 400);
    let threshold = answers.values()[30];
    let classic = ClassicSparseVector::new(6, 0.7, threshold, true).unwrap();
    let gap = SparseVectorWithGap::new(6, 0.7, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();
    let mut out = SvOutput { above: Vec::new() };
    for run in 0..100u64 {
        let expect = classic.run_with_scratch(&answers, &mut derive_stream(7, run), &mut scratch);
        classic.run_with_scratch_into(&answers, &mut derive_stream(7, run), &mut scratch, &mut out);
        assert_eq!(expect, out, "classic run {run}");

        let expect = gap.run_with_scratch(&answers, &mut derive_stream(7, run), &mut scratch);
        gap.run_with_scratch_into(&answers, &mut derive_stream(7, run), &mut scratch, &mut out);
        assert_eq!(expect, out, "gap run {run}");

        // Streaming twins share the same core and output buffer.
        gap.run_streaming_with_scratch_into(
            answers.values().iter().copied(),
            &mut derive_stream(7, run),
            &mut scratch,
            &mut out,
        );
        assert_eq!(expect, out, "gap streaming run {run}");
    }
}

#[test]
fn adaptive_into_is_bit_identical_and_reuses_the_buffer() {
    let answers = workload(4, 500);
    let threshold = answers.values()[40];
    let m = AdaptiveSparseVector::new(8, 0.7, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();
    let mut out = AdaptiveSvOutput {
        outcomes: Vec::new(),
        spent: 0.0,
        epsilon: 0.0,
    };
    for run in 0..100u64 {
        let expect = m.run_with_scratch(&answers, &mut derive_stream(11, run), &mut scratch);
        m.run_with_scratch_into(
            &answers,
            &mut derive_stream(11, run),
            &mut scratch,
            &mut out,
        );
        assert_eq!(expect, out, "run {run}");
        assert_eq!(expect.spent.to_bits(), out.spent.to_bits(), "run {run}");
    }
    // Steady state: replaying one fixed stream, consumption (and thus the
    // capacity prediction) stabilizes after two runs — the buffer must then
    // stop growing entirely.
    let mut steady_capacity = 0;
    for rep in 0..20 {
        m.run_with_scratch_into(&answers, &mut derive_stream(11, 0), &mut scratch, &mut out);
        if rep == 2 {
            steady_capacity = out.outcomes.capacity();
        } else if rep > 2 {
            assert_eq!(
                out.outcomes.capacity(),
                steady_capacity,
                "rep {rep} reallocated"
            );
        }
    }
}

#[test]
fn discrete_topk_into_is_bit_identical_and_reuses_the_buffer() {
    let m = DiscreteNoisyTopKWithGap::new(6, 0.8, true).unwrap();
    let answers = integer_workload(6, 250);
    let mut scratch = TopKScratch::new();
    let mut out = TopKOutput { items: Vec::new() };
    let mut steady_capacity = 0;
    for run in 0..100u64 {
        let expect = m
            .run_with_scratch(&answers, &mut derive_stream(17, run), &mut scratch)
            .unwrap();
        m.run_with_scratch_into(
            &answers,
            &mut derive_stream(17, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(expect, out, "run {run}");
        if run == 0 {
            steady_capacity = out.items.capacity();
        } else {
            assert_eq!(
                out.items.capacity(),
                steady_capacity,
                "run {run} reallocated"
            );
        }
    }
}

#[test]
fn discrete_svt_into_variants_are_bit_identical_and_reuse_buffers() {
    let answers = integer_workload(7, 400);
    let threshold = answers.values()[30];
    let m = DiscreteSparseVectorWithGap::new(5, 0.8, threshold, true).unwrap();
    let mut scratch = SvtScratch::new();
    let mut out = SvOutput { above: Vec::new() };
    for run in 0..100u64 {
        let expect = m.run_with_scratch(&answers, &mut derive_stream(19, run), &mut scratch);
        m.run_with_scratch_into(
            &answers,
            &mut derive_stream(19, run),
            &mut scratch,
            &mut out,
        );
        assert_eq!(expect, out, "run {run}");

        // Streaming twin shares the same core and output buffer.
        m.run_streaming_with_scratch_into(
            answers.values().iter().copied(),
            &mut derive_stream(19, run),
            &mut scratch,
            &mut out,
        );
        assert_eq!(expect, out, "streaming run {run}");
    }
    // Steady state on one fixed stream: the consumption prediction
    // stabilizes and the reused output must stop growing entirely.
    let mut steady_capacity = 0;
    for rep in 0..20 {
        m.run_with_scratch_into(&answers, &mut derive_stream(19, 0), &mut scratch, &mut out);
        if rep == 2 {
            steady_capacity = out.above.capacity();
        } else if rep > 2 {
            assert_eq!(
                out.above.capacity(),
                steady_capacity,
                "rep {rep} reallocated"
            );
        }
    }
}

#[test]
fn multi_branch_into_is_bit_identical() {
    let answers = workload(5, 300);
    let threshold = answers.values()[25];
    let m = MultiBranchAdaptiveSparseVector::new(5, 0.7, threshold, true, 3).unwrap();
    let mut scratch = SvtScratch::new();
    let mut out = MultiBranchSvOutput {
        outcomes: Vec::new(),
        spent: 0.0,
        epsilon: 0.0,
    };
    for run in 0..100u64 {
        let expect = m.run_with_scratch(&answers, &mut derive_stream(13, run), &mut scratch);
        m.run_with_scratch_into(
            &answers,
            &mut derive_stream(13, run),
            &mut scratch,
            &mut out,
        );
        assert_eq!(expect, out, "run {run}");
    }
}

#[test]
fn exponential_top_k_into_is_bit_identical_and_reuses_the_buffer() {
    use free_gap_core::exponential_mech::ExponentialMechanism;
    let m = ExponentialMechanism::new(0.9, true).unwrap();
    let answers = workload(6, 300);
    let mut scratch = TopKScratch::new();
    let mut out: Vec<usize> = Vec::new();
    let mut steady_capacity = 0;
    for run in 0..100u64 {
        let expect = m
            .run_top_k_with_scratch(&answers, 8, &mut derive_stream(23, run), &mut scratch)
            .unwrap();
        m.run_top_k_with_scratch_into(
            &answers,
            8,
            &mut derive_stream(23, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(expect, out, "run {run}");

        // Streaming twin shares the same race core and output buffer.
        m.run_top_k_streaming_with_scratch_into(
            answers.values().iter().copied(),
            8,
            &mut derive_stream(23, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(expect, out, "streaming run {run}");
        if run == 0 {
            steady_capacity = out.capacity();
        } else {
            assert_eq!(out.capacity(), steady_capacity, "run {run} reallocated");
        }
    }
}

#[test]
fn staircase_measure_into_is_bit_identical_and_reuses_the_buffer() {
    use free_gap_core::staircase_mech::StaircaseMechanism;
    let m = StaircaseMechanism::new(1.1).unwrap();
    let answers = workload(7, 250);
    let mut scratch = SvtScratch::new();
    let mut out: Vec<f64> = Vec::new();
    let mut steady_capacity = 0;
    for run in 0..100u64 {
        let expect = m
            .measure_split_with_scratch(answers.values(), &mut derive_stream(29, run), &mut scratch)
            .unwrap();
        m.measure_split_with_scratch_into(
            answers.values(),
            &mut derive_stream(29, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(expect, out, "run {run}");

        m.measure_split_streaming_with_scratch_into(
            answers.values().iter().copied(),
            answers.len(),
            &mut derive_stream(29, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(expect, out, "streaming run {run}");
        if run == 0 {
            steady_capacity = out.capacity();
        } else {
            assert_eq!(out.capacity(), steady_capacity, "run {run} reallocated");
        }
    }
}
