//! The Sparse Vector family (§6): classic SVT baseline, Sparse-Vector-with-
//! Gap, and the paper's Adaptive-Sparse-Vector-with-Gap (Algorithm 2), which
//! is the two-rung case of the one adaptive core, the multi-branch ladder.

mod adaptive;
pub mod broken;
mod classic;
mod discrete;
mod gap;
mod multi_branch;
mod output;

pub use adaptive::AdaptiveSparseVector;
pub use classic::{ClassicSparseVector, SvtStreamState};
pub use discrete::DiscreteSparseVectorWithGap;
pub use gap::SparseVectorWithGap;
pub use multi_branch::MultiBranchAdaptiveSparseVector;
pub use output::{AdaptiveOutcome, AdaptiveSvOutput, SvOutput};

/// The Lyu et al. recommended budget split between threshold noise and query
/// noise: ratio `1 : (2k)^{2/3}` for general queries, `1 : k^{2/3}` for
/// monotone queries. Returns the threshold share
/// `θ = 1 / (1 + ratio)` used throughout §7.
pub fn optimal_threshold_share(k: usize, monotonic: bool) -> f64 {
    let base = if monotonic { k as f64 } else { 2.0 * k as f64 };
    1.0 / (1.0 + base.powf(2.0 / 3.0))
}

/// Variance of a gap released by (non-adaptive) Sparse-Vector-with-Gap run
/// at budget `epsilon` with the optimal split: `8(1+(2k)^{2/3})³/(2ε)²`-style
/// closed forms from §6.2.
///
/// Concretely: with `ε₁ = θε` on the threshold and `ε₂ = (1-θ)ε` across `k`
/// query answers at scale `c·k/ε₂` (`c` = 2 general, 1 monotone), the gap
/// variance is `2/ε₁² + 2(ck/ε₂)²`.
pub fn gap_variance(k: usize, epsilon: f64, monotonic: bool, threshold_share: f64) -> f64 {
    let c = if monotonic { 1.0 } else { 2.0 };
    let eps1 = threshold_share * epsilon;
    let eps2 = (1.0 - threshold_share) * epsilon;
    let query_scale = c * k as f64 / eps2;
    2.0 / (eps1 * eps1) + 2.0 * query_scale * query_scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_share_formulas() {
        let k = 4;
        let mono = optimal_threshold_share(k, true);
        assert!((mono - 1.0 / (1.0 + 4f64.powf(2.0 / 3.0))).abs() < 1e-12);
        let gen = optimal_threshold_share(k, false);
        assert!((gen - 1.0 / (1.0 + 8f64.powf(2.0 / 3.0))).abs() < 1e-12);
        assert!(
            gen < mono,
            "general split gives the threshold a smaller share"
        );
    }

    #[test]
    fn gap_variance_matches_section_6_2_closed_form() {
        // §6.2: with the optimal general split at budget ε' the gap variance
        // is 2(1+(2k)^{2/3})³/ε'².
        let k = 5;
        let eps = 0.35;
        let share = optimal_threshold_share(k, false);
        let got = gap_variance(k, eps, false, share);
        let c = (2.0 * k as f64).powf(2.0 / 3.0);
        let expect = 2.0 * (1.0 + c).powi(3) / (eps * eps);
        assert!((got - expect).abs() / expect < 1e-12, "{got} vs {expect}");
        // Monotone: 2(1+k^{2/3})³/ε'².
        let share_m = optimal_threshold_share(k, true);
        let got_m = gap_variance(k, eps, true, share_m);
        let cm = (k as f64).powf(2.0 / 3.0);
        let expect_m = 2.0 * (1.0 + cm).powi(3) / (eps * eps);
        assert!((got_m - expect_m).abs() / expect_m < 1e-12);
    }
}
