//! The Noisy Max family: classic (index-only) baselines and the paper's
//! gap-releasing variants (§5). Every member runs Algorithm 1's one core
//! ([`NoisyTopKWithGap`]'s fill–select–gap body and Eq. (2) alignment):
//! [`ClassicNoisyTopK`] with the gaps withheld, which Theorem 2 says costs
//! the same, and [`DiscreteNoisyTopKWithGap`] with discrete Laplace draws
//! at its own rate.

mod classic;
mod discrete;
mod gap;
mod pairwise;

pub use classic::{ClassicNoisyMax, ClassicNoisyTopK};
pub use discrete::DiscreteNoisyTopKWithGap;
pub use gap::{NoisyMaxWithGap, NoisyTopKWithGap, TopKItem, TopKOutput};
pub use pairwise::{pairwise_gap, pairwise_gap_variance};

/// Indices of the `m` largest values, descending; ties broken by the smaller
/// index (continuous noise makes ties measure-zero, so any deterministic rule
/// is fine — this one keeps runs reproducible).
///
/// Insertion into a small sorted buffer: `O(n·m)` with tiny constants, which
/// beats a full sort for the paper's `m = k + 1 ≤ 26` against `n` up to
/// 41,270 (Kosarak).
///
/// The mechanism paths go through the allocation-free
/// [`top_indices_into`] or, ranking as they draw, [`insert_top`]; this
/// allocating wrapper remains for the tests.
#[cfg(test)]
pub(crate) fn top_indices(values: &[f64], m: usize) -> Vec<usize> {
    let mut buf = Vec::new();
    top_indices_into(values, m, &mut buf);
    buf
}

/// [`top_indices`] writing into a caller-owned buffer: the selection step
/// of [`DrawProvider::select_top`](crate::draw::DrawProvider::select_top),
/// which Algorithm 1's core runs over all `n` noisy answers with an
/// unbounded provider only (a bounded one ranks as it draws, through
/// [`insert_top`]). `buf` is cleared first.
#[inline]
pub(crate) fn top_indices_into(values: &[f64], m: usize, buf: &mut Vec<usize>) {
    buf.clear();
    if m == 0 {
        return;
    }
    buf.reserve(m + 1);
    for i in 0..values.len() {
        insert_top(buf, m, i, |&j| values[j]);
    }
}

/// Offers `item` to `top`, the best `m ≥ 1` items seen so far, descending
/// by `value` in the `f64` order: an item no better than the `m`-th is
/// dropped, and one equal to a kept item goes after it, so items offered
/// in index order break ties to the smaller index.
#[inline]
pub(crate) fn insert_top<T>(top: &mut Vec<T>, m: usize, item: T, value: impl Fn(&T) -> f64) {
    let v = value(&item);
    if top.len() == m && v <= value(&top[m - 1]) {
        return;
    }
    let pos = top.partition_point(|x| value(x) >= v);
    top.insert(pos, item);
    if top.len() > m {
        top.pop();
    }
}

/// Whether two released gaps agree to within rounding: 1e-9 relative, or
/// absolute below 1. The alignment checker's comparison for every
/// gap-releasing mechanism, whose aligned rerun re-associates the gap's
/// arithmetic.
pub(crate) fn gaps_match(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The per-query Laplace scale of the Noisy Top-K family at budget `epsilon`:
/// `2k/ε` in general, `k/ε` for monotone workloads (Theorem 2's factor two).
pub(crate) fn top_k_scale(k: usize, epsilon: f64, monotonic: bool) -> f64 {
    let factor = if monotonic { 1.0 } else { 2.0 };
    factor * k as f64 / epsilon
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
