//! Integration tests: black-box privacy audits on fixed input pairs.
//!
//! Complementary to the alignment checks: each audit treats one mechanism
//! as a black box on one hand-picked adjacent pair and runs it through the
//! attack harness (`free_gap_attack::attack`) on a one-element pair slice.
//! The harness searches its classifier family for the event that best
//! distinguishes the two sides, re-counts that single event on fresh RNG
//! streams, and reports a Clopper–Pearson lower bound on ε at α = 0.05. A
//! bound above the claimed ε flags the mechanism; a correct mechanism is
//! flagged with probability at most α/2, so the verdict needs no slack
//! constant. Each audit pins its seed.
//!
//! Noisy-Max-with-Gap is audited through its Top-K target, whose
//! observation is the selected index together with its released gap — the
//! joint release Algorithm 1 claims costs no more than the index alone.

use free_gap::core::sparse_vector::broken::NoQueryNoiseSvt;
use free_gap::prelude::*;
use free_gap_attack::{attack, AttackConfig, AttackResult, AttackTarget, InputPair};

/// Search-phase trials per side.
const SEARCH_TRIALS: usize = 15_000;
/// Estimate-phase trials per side.
const TRIALS: usize = 60_000;

/// Audits `target` on the single pair `(d, dp)`.
fn audit(
    target: &dyn AttackTarget,
    d: Vec<f64>,
    dp: Vec<f64>,
    estimate_trials: usize,
    seed: u64,
) -> AttackResult {
    let pair = [InputPair::new("fixed-pair", d, dp)];
    let cfg = AttackConfig {
        search_trials: SEARCH_TRIALS,
        estimate_trials,
        alpha: 0.05,
        seed,
        threads: 0,
    };
    attack(target, &pair, &cfg)
}

/// The sentinel workload: `sentinels` half-unit queries around `t` that pin
/// the noisy threshold into a half-unit bucket, then one mover whose
/// `0.5` shift stays inside a bucket.
fn pinning_pair(t: f64, sentinels: usize) -> (Vec<f64>, Vec<f64>) {
    let half = sentinels as f64 / 2.0;
    let mut d: Vec<f64> = (0..sentinels)
        .map(|i| t + (i as f64 - half) * 0.5)
        .collect();
    let mut dp = d.clone();
    d.push(t + 0.25);
    dp.push(t + 0.75);
    (d, dp)
}

#[test]
fn noisy_max_with_gap_epsilon_hat() {
    // The paper's claim is ε-DP for the *joint* (index, gap) release.
    // Mixed-direction deltas require the general (non-monotone)
    // configuration. With the gap in the observation the bound sits close
    // to ε; hiding the gap drops it to about 0.58, so the audit sees the
    // gap and finds it free.
    let eps = 1.0;
    let mech = NoisyMaxWithGap::new(eps, false).unwrap();
    let r = audit(
        mech.as_top_k(),
        vec![3.0, 2.0, 0.0],
        vec![2.0, 3.0, 1.0],
        TRIALS,
        1,
    );
    assert!(!r.flagged, "{r:?}");
    assert!(r.epsilon_lower_bound > 0.7, "{r:?}");
}

#[test]
fn monotone_configuration_under_non_monotone_adjacency_is_flagged() {
    // The monotone configuration halves the noise (Theorem 2's tighter
    // analysis) and is only valid for monotone workloads. Feeding it
    // mixed-direction adjacent inputs breaks the assumption, and the audit
    // observes a loss above ε but below 2ε — the factor the skipped
    // analysis would have paid. This is the audit catching a
    // *workload-assumption* violation, not a mechanism bug.
    let eps = 1.0;
    let mech = NoisyMaxWithGap::new(eps, true).unwrap();
    let r = audit(
        mech.as_top_k(),
        vec![3.0, 2.0, 0.0],
        vec![2.0, 3.0, 1.0], // NOT monotone
        TRIALS,
        6,
    );
    assert!(r.flagged, "expected a flagged violation: {r:?}");
    assert!(r.epsilon_lower_bound < 2.0 * eps, "{r:?}");
}

#[test]
fn monotone_noisy_max_consumes_half_budget() {
    // Theorem 2: under monotone adjacency the mechanism configured for ε
    // is ε-DP with the *halved* noise. The pair must shift non-uniformly:
    // a uniform shift moves neither the index nor the gap, and its bound
    // is 0 whatever the noise.
    let eps = 0.8;
    let mech = NoisyTopKWithGap::new(1, eps, true).unwrap();
    let r = audit(
        &mech,
        vec![4.0, 3.0, 1.0],
        vec![4.0, 4.0, 2.0], // monotone (all up), not uniform
        TRIALS,
        2,
    );
    assert!(!r.flagged, "{r:?}");
    assert!(r.epsilon_lower_bound > 0.4, "{r:?}");
}

#[test]
fn adaptive_svt_epsilon_hat() {
    // The observation carries each answer's branch tag and gap, exactly
    // what Algorithm 2 releases. Mixed-direction deltas require the
    // general configuration.
    let mech = AdaptiveSparseVector::new(2, 0.7, 5.0, false).unwrap();
    let r = audit(
        &mech,
        vec![6.0, 4.0, 5.0, 3.0],
        vec![5.0, 5.0, 4.0, 4.0],
        TRIALS,
        3,
    );
    assert!(!r.flagged, "{r:?}");
}

#[test]
fn classic_svt_epsilon_hat() {
    let mech = ClassicSparseVector::new(1, 0.9, 4.0, false).unwrap();
    let r = audit(&mech, vec![5.0, 3.0, 4.0], vec![4.0, 4.0, 3.0], TRIALS, 4);
    assert!(!r.flagged, "{r:?}");
}

#[test]
fn sanity_the_audit_catches_overconfident_budgets() {
    // Same mechanism, but we *claim* a quarter of the true budget. The
    // bound must expose the understatement — demonstrating the audit has
    // teeth at these trial counts — while staying within the true budget.
    let true_eps = 2.0;
    let claimed = 0.5;
    let mech = NoisyTopKWithGap::new(1, true_eps, false).unwrap();
    let r = audit(&mech, vec![3.0, 2.0], vec![2.0, 3.0], TRIALS, 5);
    assert!(
        r.epsilon_lower_bound > claimed,
        "audit failed to flag the claim {claimed}: {r:?}"
    );
    assert!(!r.flagged, "bound above the true budget {true_eps}: {r:?}");
}

#[test]
fn no_query_noise_yields_infinite_empirical_epsilon() {
    // Sentinel queries pin the noisy threshold into a half-unit bucket;
    // the moving query's bit then separates the two output distributions
    // entirely on a frequent event: the winning event never occurs on the
    // neighbour (disjoint support, an unbounded loss).
    let mech = NoQueryNoiseSvt::new(1.0, 10.0).unwrap();
    let (d, dp) = pinning_pair(10.0, 16);
    let r = audit(&mech, d, dp, 40_000, 5);
    assert!(r.flagged, "catastrophic leak not surfaced: {r:?}");
    assert_eq!(r.counts.1, 0, "{r:?}");
}

#[test]
fn correct_svt_passes_the_pinning_workload() {
    // Control: classic SVT (with query noise) on the same sentinel
    // workload stays within its budget.
    let mech = ClassicSparseVector::new(4, 1.0, 10.0, false).unwrap();
    let (d, dp) = pinning_pair(10.0, 6);
    let r = audit(&mech, d, dp, 40_000, 6);
    assert!(!r.flagged, "{r:?}");
}

#[test]
fn pure_dp_at_coarse_gamma_no_tie_penalty() {
    // Even at γ = 1 (where the *Top-K* variant has a large δ), the discrete
    // SVT's comparisons stay within pure ε. Integer workloads sitting
    // exactly at the threshold: ties between noisy query and noisy
    // threshold happen constantly.
    let eps = 1.0;
    let mech = DiscreteSparseVectorWithGap::new(2, eps, 5.0, false).unwrap();
    let r = audit(&mech, vec![5.0, 5.0, 4.0], vec![4.0, 6.0, 5.0], TRIALS, 3);
    assert!(!r.flagged, "{r:?}");
}
