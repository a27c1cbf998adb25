//! Candidate neighboring input pairs — the dp-sniper-style search space.
//!
//! Every pair satisfies the sensitivity-1 adjacency of the paper's
//! Definition 2: `|dᵢ - d'ᵢ| ≤ 1` for every query. The shapes are chosen
//! to excite the known SVT failure modes, not tailored to any one variant
//! — the search phase decides per target which pair actually
//! distinguishes:
//!
//! * **one-above** — the textbook SVT workload: a single clear `⊤` among
//!   clear `⊥`s, every answer shifted down on the neighbor.
//! * **all-at-threshold** — maximal decision uncertainty; every comparison
//!   is a coin flip whose bias the neighbor moves.
//! * **all-above** — every query clearly above `T`. A correct SVT answers
//!   `k` and halts; the unbounded-⊤-count variant answers *all* of them
//!   and its per-query ratios compound without limit.
//! * **push-below-pull-above** — general (non-monotone) adjacency that
//!   moves `⊥`-destined queries *up* and the final `⊤`-destined query
//!   *down* on the neighbor, so every factor of the likelihood ratio
//!   points the same way. With the released noisy value pinning the
//!   threshold noise from above, this is the compound witness against
//!   noisy-value reuse.
//! * **sparse-highs** — `k` clear `⊤`s spread between runs of clear `⊥`s
//!   with opposing shifts: many same-direction factors for variants whose
//!   per-query noise is not scaled to `k`.
//! * **sparse-highs-tight** — the same shape pulled toward `T`, where each
//!   decision is closest to a fair coin and a unit shift moves its odds the
//!   most (the per-factor likelihood ratio of a Laplace comparison peaks at
//!   the threshold).
//! * **push-pull-wide** — the push-below-pull-above shape widened to
//!   *three* `⊤`-destined movers. Uniform-shift pairs are ratio-capped at
//!   `e^{ε₁}` for any threshold mechanism (the threshold noise absorbs the
//!   shift), and a single-`⊤` event never exceeds a correct `k = 1` budget
//!   — so witnessing the unbounded-`⊤`-count flaw specifically needs mixed
//!   shift directions *and* several `⊤`s in one event.
//! * **sentinel-pinning** — half-unit sentinel queries that reveal which
//!   bucket the threshold noise fell in, plus a mover whose `0.5` shift
//!   crosses a bucket boundary. Decision vectors become *disjoint* across
//!   the pair for any mechanism whose comparisons are deterministic given
//!   the threshold draw (no per-query noise). Not on the integer lattice.

// lint:allow-file(panic-freedom): neighboring-input constructors assert their own shape invariants; a malformed pair must abort the audit, not silently weaken it

use free_gap_core::answers::QueryAnswers;

/// A named neighboring input pair.
#[derive(Debug, Clone)]
pub struct InputPair {
    /// Short name for reports.
    pub name: &'static str,
    /// The first database's query answers.
    pub d: QueryAnswers,
    /// The adjacent database's query answers.
    pub dp: QueryAnswers,
    lattice: bool,
}

impl InputPair {
    /// Builds a pair, asserting sensitivity-1 adjacency
    /// (`|dᵢ - d'ᵢ| ≤ 1` for every query).
    ///
    /// A one-pair slice `&[InputPair::new(..)]` turns [`attack`] into a
    /// fixed-pair audit: the search still picks the event, on that pair
    /// only.
    ///
    /// [`attack`]: crate::estimator::attack
    pub fn new(name: &'static str, d: Vec<f64>, dp: Vec<f64>) -> Self {
        assert_eq!(
            d.len(),
            dp.len(),
            "{name}: pair sides must have equal length"
        );
        assert!(
            d.iter().zip(&dp).all(|(a, b)| (a - b).abs() <= 1.0 + 1e-12),
            "{name}: adjacency violated (some |dᵢ - d'ᵢ| > 1)"
        );
        let lattice = d.iter().chain(&dp).all(|v| (v - v.round()).abs() < 1e-9);
        Self {
            name,
            d: QueryAnswers::general(d),
            dp: QueryAnswers::general(dp),
            lattice,
        }
    }

    /// Whether every value on both sides is an integer (required by
    /// lattice-only targets such as the discrete SVT).
    pub fn lattice(&self) -> bool {
        self.lattice
    }
}

/// The standard candidate pairs around a public threshold `t`.
///
/// All pairs are lattice-valued when `t` is an integer, except
/// `sentinel-pinning` (half-unit sentinels by construction).
pub fn standard_pairs(t: f64) -> Vec<InputPair> {
    let mut pairs = Vec::new();

    let d: Vec<f64> = std::iter::once(t + 1.0)
        .chain(std::iter::repeat_n(t - 2.0, 7))
        .collect();
    let dp: Vec<f64> = d.iter().map(|q| q - 1.0).collect();
    pairs.push(InputPair::new("one-above", d, dp));

    pairs.push(InputPair::new(
        "all-at-threshold",
        vec![t; 8],
        vec![t - 1.0; 8],
    ));

    pairs.push(InputPair::new(
        "all-above",
        vec![t + 6.0; 24],
        vec![t + 5.0; 24],
    ));

    let d = vec![t; 5];
    let mut dp = vec![t + 1.0; 4];
    dp.push(t - 1.0);
    pairs.push(InputPair::new("push-below-pull-above", d, dp));

    let mut d = Vec::new();
    let mut dp = Vec::new();
    for _ in 0..3 {
        for _ in 0..3 {
            d.push(t - 3.0);
            dp.push(t - 2.0); // ⊥ queries move up on the neighbor
        }
        d.push(t + 3.0);
        dp.push(t + 2.0); // ⊤ queries move down
    }
    pairs.push(InputPair::new("sparse-highs", d, dp));

    let mut d = Vec::new();
    let mut dp = Vec::new();
    for _ in 0..3 {
        for _ in 0..4 {
            d.push(t - 2.0);
            dp.push(t - 1.0);
        }
        d.push(t + 2.0);
        dp.push(t + 1.0);
    }
    pairs.push(InputPair::new("sparse-highs-tight", d, dp));

    let mut d = vec![t; 6];
    let mut dp = vec![t + 1.0; 6];
    for _ in 0..3 {
        d.push(t + 1.0);
        dp.push(t);
    }
    pairs.push(InputPair::new("push-pull-wide", d, dp));

    let sentinels: Vec<f64> = (0..16).map(|i| t + (i as f64 - 8.0) * 0.5).collect();
    let mut d = sentinels.clone();
    let mut dp = sentinels;
    d.push(t + 0.25);
    dp.push(t + 0.75);
    pairs.push(InputPair::new("sentinel-pinning", d, dp));

    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_respect_adjacency_and_lattice_tags() {
        let pairs = standard_pairs(10.0);
        assert_eq!(pairs.len(), 8);
        for p in &pairs {
            assert_eq!(p.d.len(), p.dp.len());
            for (a, b) in p.d.values().iter().zip(p.dp.values()) {
                assert!((a - b).abs() <= 1.0 + 1e-12, "{}", p.name);
            }
            if p.lattice() {
                for v in p.d.values().iter().chain(p.dp.values()) {
                    assert!((v - v.round()).abs() < 1e-9, "{}: {v}", p.name);
                }
            }
        }
        assert_eq!(
            pairs.iter().filter(|p| !p.lattice()).count(),
            1,
            "only sentinel-pinning leaves the lattice at an integer threshold"
        );
    }

    #[test]
    fn non_integer_threshold_marks_everything_off_lattice() {
        assert!(standard_pairs(10.5).iter().all(|p| !p.lattice()));
    }

    #[test]
    #[should_panic(expected = "adjacency violated")]
    fn adjacency_is_enforced() {
        InputPair::new("bad", vec![0.0], vec![2.0]);
    }
}
