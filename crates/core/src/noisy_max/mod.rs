//! The Noisy Max family: classic (index-only) baselines and the paper's
//! gap-releasing variants (§5).

mod classic;
mod discrete;
mod gap;
mod pairwise;

pub use classic::{ClassicNoisyMax, ClassicNoisyTopK};
pub use discrete::DiscreteNoisyTopKWithGap;
pub use gap::{NoisyMaxWithGap, NoisyTopKWithGap, TopKItem, TopKOutput};
pub use pairwise::{pairwise_gap, pairwise_gap_variance};

use crate::error::MechanismError;

/// Indices of the `m` largest values, descending; ties broken by the smaller
/// index (continuous noise makes ties measure-zero, so any deterministic rule
/// is fine — this one keeps runs reproducible).
///
/// Insertion into a small sorted buffer: `O(n·m)` with tiny constants, which
/// beats a full sort for the paper's `m = k + 1 ≤ 26` against `n` up to
/// 41,270 (Kosarak).
///
/// Every mechanism path now goes through the allocation-free
/// [`top_indices_into`]; this allocating wrapper remains for the tests.
#[cfg(test)]
pub(crate) fn top_indices(values: &[f64], m: usize) -> Vec<usize> {
    let mut buf = Vec::new();
    top_indices_into(values, m, &mut buf);
    buf
}

/// [`top_indices`] writing into a caller-owned buffer — the allocation-free
/// form used by the scratch fast paths. `buf` is cleared first.
#[inline]
pub(crate) fn top_indices_into(values: &[f64], m: usize, buf: &mut Vec<usize>) {
    buf.clear();
    if m == 0 {
        return;
    }
    buf.reserve(m + 1);
    for i in 0..values.len() {
        if buf.len() == m && values[i] <= values[buf[m - 1]] {
            continue;
        }
        // Equal values sort earlier-index-first because we scan ascending.
        let pos = buf.partition_point(|&j| values[j] >= values[i]);
        buf.insert(pos, i);
        if buf.len() > m {
            buf.pop();
        }
    }
}

/// The per-query Laplace scale of the Noisy Top-K family at budget `epsilon`:
/// `2k/ε` in general, `k/ε` for monotone workloads (Theorem 2's factor two).
pub(crate) fn top_k_scale(k: usize, epsilon: f64, monotonic: bool) -> f64 {
    let factor = if monotonic { 1.0 } else { 2.0 };
    factor * k as f64 / epsilon
}

/// Rejects a run whose Laplace scale overflows `f64` (a subnormal `epsilon`
/// makes `2k/ε` infinite): a typed error before any draw, not a panic in
/// the provider.
pub(crate) fn require_scale(scale: f64, epsilon: f64) -> Result<(), MechanismError> {
    match free_gap_noise::Laplace::new(scale) {
        Ok(_) => Ok(()),
        Err(_) => Err(MechanismError::InvalidEpsilon { value: epsilon }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_indices_basic() {
        let v = [3.0, 9.0, 1.0, 9.0, 8.0];
        assert_eq!(top_indices(&v, 1), vec![1]);
        assert_eq!(top_indices(&v, 3), vec![1, 3, 4]); // tie at 9.0: index 1 first
        assert_eq!(top_indices(&v, 99), vec![1, 3, 4, 0, 2]);
        assert!(top_indices(&v, 0).is_empty());
    }

    #[test]
    fn top_indices_matches_full_sort() {
        use free_gap_noise::rng::rng_from_seed;
        use rand::Rng;
        let mut rng = rng_from_seed(12);
        for _ in 0..50 {
            let n = rng.gen_range(1..60);
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let m = rng.gen_range(0..n + 3);
            let fast = top_indices(&v, m);
            let mut all: Vec<usize> = (0..n).collect();
            all.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap().then(a.cmp(&b)));
            all.truncate(m);
            assert_eq!(fast, all, "n={n} m={m} v={v:?}");
        }
    }

    #[test]
    fn scale_doubles_for_general_queries() {
        assert_eq!(top_k_scale(3, 1.5, true), 2.0);
        assert_eq!(top_k_scale(3, 1.5, false), 4.0);
    }
}
