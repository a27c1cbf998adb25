//! Output-event classifiers: fixed projections from an [`Observation`]
//! to small discrete event spaces.
//!
//! A black-box ε lower bound needs an *event* whose probability can be
//! estimated on both sides of an input pair. Raw SVT outputs are too rich
//! (real-valued gaps, long decision vectors), so each observation is pushed
//! through every classifier below and each `(classifier, value)` cell is a
//! candidate event. The family is fixed up front — the estimator's search
//! phase picks a winning cell, and the fresh-sample estimate phase makes
//! that selection statistically free.
//!
//! The classifiers deliberately capture the axes along which the known
//! broken variants leak: decision patterns (no-query-noise's deterministic
//! comparisons), `⊤` counts (the unbounded-count variant), abort structure
//! (budget misallocation), *joint* pattern-plus-released-value events
//! (noisy-value reuse, whose witness is "many `⊥`s, then a `⊤` whose
//! released value exposes that the noisy threshold sat below `T`"), and
//! the branch pattern the adaptive SVT releases. For Noisy-Top-K at
//! `k = 1`, the joint event is the (index, gap bucket) pair Algorithm 1
//! releases.

use crate::target::Observation;

/// Number of classifiers in the fixed family.
pub const NUM_CLASSIFIERS: usize = 7;

/// Short names, index-aligned with the values written by [`classify`].
pub const CLASSIFIER_NAMES: [&str; NUM_CLASSIFIERS] = [
    "decision-bitmask",
    "top-count",
    "abort-position",
    "first-top-index",
    "first-top-value-bucket",
    "pattern+value-bucket",
    "branch-pattern",
];

/// Sentinel bucket for "no `⊤` in this run".
const NO_TOP: u64 = 0xFF;

/// Buckets a released value relative to the public threshold: unit-wide
/// buckets over `[T-8, T+8)`, clamped at the ends, offset to `0..16`.
fn value_bucket(v: f64, threshold: f64) -> u64 {
    let b = (v - threshold).floor();
    (b.clamp(-8.0, 7.0) + 8.0) as u64
}

/// Projects one observation through the whole classifier family.
///
/// `threshold` is the target's public `T`; `out[i]` receives classifier
/// `i`'s value for this run.
pub fn classify(obs: &Observation, threshold: f64, out: &mut [u64; NUM_CLASSIFIERS]) {
    let mut bitmask = 0u64;
    let mut top_count = 0u64;
    let mut first_top: Option<(usize, f64)> = None;
    for (i, o) in obs.above.iter().enumerate() {
        if let Some(v) = o {
            if i < 64 {
                bitmask |= 1 << i;
            }
            top_count += 1;
            if first_top.is_none() {
                first_top = Some((i, *v));
            }
        }
    }
    out[0] = bitmask;
    out[1] = top_count;
    out[2] = obs.above.len() as u64;
    out[3] = first_top.map_or(NO_TOP, |(i, _)| i as u64);
    out[4] = first_top.map_or(NO_TOP, |(_, v)| value_bucket(v, threshold));
    // Joint event: the decision pattern of the first 48 queries together
    // with where the first released value landed relative to T. This is
    // the compound witness shape for noisy-value reuse.
    out[5] = (bitmask & 0xFFFF_FFFF_FFFF) | (out[4] << 48);
    // The branch tags of the first 32 queries, 2 bits each. Constant (0)
    // for targets without branches, so it never wins their search.
    out[6] = obs
        .tags
        .iter()
        .take(32)
        .enumerate()
        .fold(0, |acc, (i, &tag)| acc | (u64::from(tag) << (2 * i)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_of(above: Vec<Option<f64>>) -> Observation {
        let mut o = Observation::new();
        o.above = above;
        o
    }

    #[test]
    fn classifies_the_compound_pattern() {
        let mut obs = obs_of(vec![None, None, None, None, Some(9.3)]);
        obs.tags = vec![0, 0, 0, 0, 2];
        let mut ev = [0u64; NUM_CLASSIFIERS];
        classify(&obs, 10.0, &mut ev);
        assert_eq!(ev[0], 0b10000);
        assert_eq!(ev[1], 1);
        assert_eq!(ev[2], 5);
        assert_eq!(ev[3], 4);
        // 9.3 - 10.0 = -0.7 → bucket floor(-0.7) = -1 → 7.
        assert_eq!(ev[4], 7);
        assert_eq!(ev[5], 0b10000 | (7 << 48));
        // Query 4 answered by the middle branch: tag 2 at bits 8..10.
        assert_eq!(ev[6], 2 << 8);
    }

    #[test]
    fn no_top_runs_use_the_sentinel() {
        let obs = obs_of(vec![None, None]);
        let mut ev = [0u64; NUM_CLASSIFIERS];
        classify(&obs, 10.0, &mut ev);
        assert_eq!(ev[0], 0);
        assert_eq!(ev[1], 0);
        assert_eq!(ev[3], NO_TOP);
        assert_eq!(ev[4], NO_TOP);
    }

    #[test]
    fn buckets_clamp_at_the_range_ends() {
        assert_eq!(value_bucket(-1e9, 0.0), 0);
        assert_eq!(value_bucket(1e9, 0.0), 15);
        assert_eq!(value_bucket(0.0, 0.0), 8);
        assert_eq!(value_bucket(-0.001, 0.0), 7);
    }
}
