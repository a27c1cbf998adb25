//! The two-phase Monte-Carlo attack: search for a distinguishing event,
//! then estimate a statistically sound empirical ε lower bound on fresh
//! samples.
//!
//! **Phase 1 (search).** For every usable candidate pair, sample
//! `search_trials` observations per side, project each through the full
//! classifier family, and score every observed
//! `(pair, classifier, value, direction)` cell with the Clopper–Pearson
//! bound [`free_gap_alignment::binomial::epsilon_lower_bound`]. The
//! highest-scoring cell wins. Everything about this phase is exploratory —
//! its counts are discarded.
//!
//! **Phase 2 (estimate).** Re-sample `estimate_trials` per side on RNG
//! streams disjoint from phase 1 (different derived sub-stream seeds) and
//! count only the chosen event. Because the event was fixed before these
//! samples existed, the reported bound is a valid single-hypothesis
//! confidence bound at level `1 - alpha` — no correction for the size of
//! the search space is needed. This search/estimate split is the dp-sniper
//! discipline, and it is what lets `flagged` double as a *soundness* check:
//! a correct ε-DP mechanism produces a bound above ε with probability at
//! most `alpha/2`, no matter how adversarial the search was.
//!
//! Trials are distributed over worker threads in fixed-size chunks claimed
//! from an atomic counter; every trial uses its own
//! [`derive_fast_stream`]
//! sub-stream keyed by the *global* trial index, so counts are
//! bit-reproducible for a given seed regardless of thread count or
//! scheduling.

// lint:allow-file(panic-freedom): attack harness runs offline; an impossible count or a failed invariant must abort the audit loudly rather than ship a wrong epsilon estimate

use crate::events::{classify, CLASSIFIER_NAMES, NUM_CLASSIFIERS};
use crate::inputs::InputPair;
use crate::target::{AttackTarget, Observation};
use free_gap_alignment::binomial::epsilon_lower_bound;
use free_gap_core::answers::QueryAnswers;
use free_gap_core::scratch::SvtScratch;
use free_gap_noise::rng::{derive_fast_stream, splitmix64};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Monte-Carlo budget and significance for one attack run.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Trials per side per candidate pair in the search phase.
    pub search_trials: usize,
    /// Trials per side for the final fresh-sample estimate.
    pub estimate_trials: usize,
    /// Significance level of the reported lower bound (two-sided CP at
    /// `alpha/2` per tail).
    pub alpha: f64,
    /// Master seed; every stream the attack consumes derives from it.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
}

impl AttackConfig {
    /// The full-strength configuration used by `repro attack` and the
    /// regression tests.
    pub fn full(seed: u64) -> Self {
        Self {
            search_trials: 64_000,
            estimate_trials: 300_000,
            alpha: 0.01,
            seed,
            threads: 0,
        }
    }

    /// A budgeted smoke configuration for CI (`repro attack --quick`):
    /// fewer trials, looser significance, same verdicts on the standard
    /// suite.
    pub fn quick(seed: u64) -> Self {
        Self {
            search_trials: 16_000,
            estimate_trials: 80_000,
            alpha: 0.05,
            seed,
            threads: 0,
        }
    }
}

/// Outcome of attacking one target.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Target display name.
    pub name: &'static str,
    /// The ε the target's proof claims.
    pub claimed_epsilon: f64,
    /// Clopper–Pearson empirical ε lower bound from the estimate phase.
    pub epsilon_lower_bound: f64,
    /// `epsilon_lower_bound > claimed_epsilon`: the mechanism demonstrably
    /// leaks more than it claims, at confidence `1 - alpha`.
    pub flagged: bool,
    /// Name of the winning input pair.
    pub pair: &'static str,
    /// Name of the winning classifier.
    pub classifier: &'static str,
    /// The winning event's value within that classifier.
    pub event: u64,
    /// Whether the bound is on `P[M(D') ∈ E] / P[M(D) ∈ E]` (the search
    /// scores both directions).
    pub swapped: bool,
    /// Event occurrence counts `(numerator side, denominator side)` in the
    /// estimate phase.
    pub counts: (u64, u64),
    /// Estimate-phase trials per side.
    pub trials: u64,
    /// The search-phase score that selected the event (exploratory; the
    /// sound number is `epsilon_lower_bound`).
    pub search_score: f64,
}

fn mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn effective_threads(requested: usize, trials: usize) -> usize {
    let hw = if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    hw.clamp(1, trials.div_ceil(CHUNK).max(1))
}

const CHUNK: usize = 1024;

/// Runs `trials` observations of `target` on `answers`, each on its own
/// derived sub-stream of `stream_seed`, feeding every classified event
/// vector to a per-worker accumulator. Returns the worker accumulators
/// (merge order must not matter — all our merges are commutative counts).
fn run_trials<L, F>(
    target: &dyn AttackTarget,
    answers: &QueryAnswers,
    trials: usize,
    stream_seed: u64,
    threads: usize,
    collect: F,
) -> Vec<L>
where
    L: Default + Send,
    F: Fn(&mut L, &[u64; NUM_CLASSIFIERS]) + Sync,
{
    let threshold = target.public_threshold();
    let threads = effective_threads(threads, trials);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = L::default();
                    let mut scratch = SvtScratch::new();
                    let mut obs = Observation::new();
                    let mut ev = [0u64; NUM_CLASSIFIERS];
                    loop {
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= trials {
                            break;
                        }
                        for t in start..(start + CHUNK).min(trials) {
                            let mut rng = derive_fast_stream(stream_seed, t as u64);
                            target.observe(answers, &mut rng, &mut scratch, &mut obs);
                            classify(&obs, threshold, &mut ev);
                            collect(&mut local, &ev);
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("attack worker panicked"))
            .collect()
    })
}

type EventCounts = HashMap<(u8, u64), u64>;

fn count_all_events(
    target: &dyn AttackTarget,
    answers: &QueryAnswers,
    trials: usize,
    stream_seed: u64,
    threads: usize,
) -> EventCounts {
    let locals: Vec<EventCounts> = run_trials(
        target,
        answers,
        trials,
        stream_seed,
        threads,
        |local: &mut EventCounts, ev| {
            for (c, &v) in ev.iter().enumerate() {
                *local.entry((c as u8, v)).or_insert(0) += 1;
            }
        },
    );
    let mut merged = EventCounts::new();
    for l in locals {
        for (k, v) in l {
            *merged.entry(k).or_insert(0) += v;
        }
    }
    merged
}

fn count_one_event(
    target: &dyn AttackTarget,
    answers: &QueryAnswers,
    trials: usize,
    stream_seed: u64,
    threads: usize,
    classifier: u8,
    value: u64,
) -> u64 {
    run_trials(
        target,
        answers,
        trials,
        stream_seed,
        threads,
        |local: &mut u64, ev| {
            if ev[classifier as usize] == value {
                *local += 1;
            }
        },
    )
    .into_iter()
    .sum()
}

/// Attacks one target over the given candidate pairs.
///
/// Panics if no pair is usable (a lattice-only target with no lattice
/// pairs) — the standard suite always provides lattice candidates.
pub fn attack(target: &dyn AttackTarget, pairs: &[InputPair], cfg: &AttackConfig) -> AttackResult {
    let factor = target.sample_factor().max(1);
    let search_trials = cfg.search_trials * factor;
    let estimate_trials = cfg.estimate_trials * factor;
    let base = mix(cfg.seed, fnv1a(target.name().as_bytes()));

    let usable: Vec<(usize, &InputPair)> = pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.lattice() || !target.lattice_only())
        .collect();
    assert!(
        !usable.is_empty(),
        "{}: no candidate pair satisfies the target's input constraints",
        target.name()
    );

    // Phase 1: search. Score every (pair, classifier, value, direction)
    // cell; keys are sorted so the argmax is deterministic even though the
    // counts live in hash maps.
    //
    // The argmax over thousands of cells suffers a winner's curse: a rare
    // cell whose apparent ratio is inflated by luck can outscore a robust
    // high-count cell, and then regress in the estimate phase. Scoring the
    // search at a much stricter significance widens the CP slack sharply
    // for small counts while barely moving large ones, steering selection
    // toward events that replicate. Soundness is untouched — the *reported*
    // bound always comes from phase 2 at the configured `alpha`.
    let search_alpha = cfg.alpha / 50.0;
    let mut best: Option<(f64, usize, u8, u64, bool)> = None;
    for &(pair_idx, pair) in &usable {
        let seed_d = mix(base, 4 * pair_idx as u64);
        let seed_dp = mix(base, 4 * pair_idx as u64 + 1);
        let counts_d = count_all_events(target, &pair.d, search_trials, seed_d, cfg.threads);
        let counts_dp = count_all_events(target, &pair.dp, search_trials, seed_dp, cfg.threads);

        let mut keys: Vec<(u8, u64)> = counts_d.keys().chain(counts_dp.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let ca = counts_d.get(&key).copied().unwrap_or(0);
            let cb = counts_dp.get(&key).copied().unwrap_or(0);
            let n = search_trials as u64;
            for (score, swapped) in [
                (epsilon_lower_bound(ca, cb, n, search_alpha), false),
                (epsilon_lower_bound(cb, ca, n, search_alpha), true),
            ] {
                let candidate = (score, pair_idx, key.0, key.1, swapped);
                if best.is_none_or(|b| candidate.0 > b.0) {
                    best = Some(candidate);
                }
            }
        }
    }
    let (search_score, pair_idx, classifier, value, swapped) =
        best.expect("search phase produced no events");
    let pair = &pairs[pair_idx];
    let (num_side, den_side) = if swapped {
        (&pair.dp, &pair.d)
    } else {
        (&pair.d, &pair.dp)
    };

    // Phase 2: fresh-sample estimate of the single chosen event.
    let seed_a = mix(base, 0xE571_0000);
    let seed_b = mix(base, 0xE571_0001);
    let ca = count_one_event(
        target,
        num_side,
        estimate_trials,
        seed_a,
        cfg.threads,
        classifier,
        value,
    );
    let cb = count_one_event(
        target,
        den_side,
        estimate_trials,
        seed_b,
        cfg.threads,
        classifier,
        value,
    );
    let bound = epsilon_lower_bound(ca, cb, estimate_trials as u64, cfg.alpha);

    AttackResult {
        name: target.name(),
        claimed_epsilon: target.claimed_epsilon(),
        epsilon_lower_bound: bound,
        flagged: bound > target.claimed_epsilon(),
        pair: pair.name,
        classifier: CLASSIFIER_NAMES[classifier as usize],
        event: value,
        swapped,
        counts: (ca, cb),
        trials: estimate_trials as u64,
        search_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::standard_pairs;
    use free_gap_core::sparse_vector::ClassicSparseVector;

    #[test]
    fn mixing_is_stable_and_spread() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(fnv1a(b"classic-svt"), fnv1a(b"svt-with-gap"));
    }

    #[test]
    fn results_are_thread_count_invariant() {
        // The whole determinism story: same seed, different worker counts,
        // identical counts and bound.
        let target = ClassicSparseVector::new(2, 1.0, 10.0, false).unwrap();
        let pairs = standard_pairs(10.0);
        let mut cfg = AttackConfig {
            search_trials: 1_500,
            estimate_trials: 3_000,
            alpha: 0.05,
            seed: 11,
            threads: 1,
        };
        let one = attack(&target, &pairs, &cfg);
        cfg.threads = 4;
        let four = attack(&target, &pairs, &cfg);
        assert_eq!(one.counts, four.counts);
        assert_eq!(one.event, four.event);
        assert_eq!(one.pair, four.pair);
        assert_eq!(one.classifier, four.classifier);
        assert!((one.epsilon_lower_bound - four.epsilon_lower_bound).abs() < 1e-15);
    }

    #[test]
    fn null_pair_produces_a_null_bound() {
        // d == d': every event has identical probability on both sides, so
        // the CP lower bound must collapse to ~0 and nothing is flagged.
        let target = ClassicSparseVector::new(2, 1.0, 10.0, false).unwrap();
        let d = vec![10.5, 9.0, 11.0, 8.0];
        let pairs = vec![InputPair::new("null", d.clone(), d)];
        let cfg = AttackConfig {
            search_trials: 4_000,
            estimate_trials: 8_000,
            alpha: 0.05,
            seed: 3,
            threads: 0,
        };
        let r = attack(&target, &pairs, &cfg);
        assert!(
            r.epsilon_lower_bound < 0.35,
            "null pair bound {} should be near zero",
            r.epsilon_lower_bound
        );
        assert!(!r.flagged);
    }
}
