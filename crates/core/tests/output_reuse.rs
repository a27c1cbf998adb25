//! Output-buffer reuse of the `_into` entries through the one fast
//! provider, the `ScratchDraws` tape `call_batched` runs: one caller-owned
//! output, built with `Default` and overwritten run after run, stays
//! bit-identical to the allocating reference entry and is genuinely
//! allocation-free once it has grown to steady state (the buffer is
//! reused, never reallocated).

mod common;

use common::{assert_output_reused, integer_workload, workload, Race};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;

#[test]
fn topk_into_is_bit_identical_and_reuses_the_buffer() {
    let m = NoisyTopKWithGap::new(8, 0.7, true).unwrap();
    assert_output_reused(&m, &workload(1, 300), 3, 100, true);
}

#[test]
fn classic_topk_into_is_bit_identical_and_reuses_the_buffer() {
    let m = ClassicNoisyTopK::new(5, 0.9, true).unwrap();
    assert_output_reused(&m, &workload(2, 200), 5, 100, true);
}

#[test]
fn svt_into_variants_are_bit_identical_and_reuse_buffers() {
    let answers = workload(3, 400);
    let threshold = answers.values()[30];
    let classic = ClassicSparseVector::new(6, 0.7, threshold, true).unwrap();
    assert_output_reused(&classic, &answers, 7, 100, false);
    let gap = SparseVectorWithGap::new(6, 0.7, threshold, true).unwrap();
    assert_output_reused(&gap, &answers, 7, 100, false);
}

#[test]
fn adaptive_into_is_bit_identical_and_reuses_the_buffer() {
    let answers = workload(4, 500);
    let m = AdaptiveSparseVector::new(8, 0.7, answers.values()[40], true).unwrap();
    assert_output_reused(&m, &answers, 11, 100, false);
}

#[test]
fn discrete_topk_into_is_bit_identical_and_reuses_the_buffer() {
    let m = DiscreteNoisyTopKWithGap::new(6, 0.8, true).unwrap();
    assert_output_reused(&m, &integer_workload(6, 250), 17, 100, true);
}

#[test]
fn discrete_svt_into_variants_are_bit_identical_and_reuse_buffers() {
    let answers = integer_workload(7, 400);
    let m = DiscreteSparseVectorWithGap::new(5, 0.8, answers.values()[30], true).unwrap();
    assert_output_reused(&m, &answers, 19, 100, false);
}

#[test]
fn multi_branch_into_is_bit_identical() {
    let answers = workload(5, 300);
    let m = MultiBranchAdaptiveSparseVector::new(5, 0.7, answers.values()[25], true, 3).unwrap();
    assert_output_reused(&m, &answers, 13, 100, false);
}

#[test]
fn exponential_top_k_into_is_bit_identical_and_reuses_the_buffer() {
    let m = ExponentialMechanism::new(0.9, true).unwrap();
    assert_output_reused(&Race(m, 8), &workload(6, 300), 23, 100, true);
}

#[test]
fn staircase_measure_into_is_bit_identical_and_reuses_the_buffer() {
    let m = StaircaseMechanism::new(1.1).unwrap();
    assert_output_reused(&m, &workload(7, 250), 29, 100, true);
}
