//! The Sparse Vector family (§6): classic SVT baseline, Sparse-Vector-with-
//! Gap, and the paper's Adaptive-Sparse-Vector-with-Gap (Algorithm 2). Every
//! member runs one loop, the multi-branch ladder's: Algorithm 2 is its
//! two-rung case, Sparse-Vector-with-Gap its one-rung case, classic SVT the
//! one-rung run with the gaps withheld, and the discrete variant the
//! one-rung run over discrete Laplace draws on `{kγ}`. The loop skips, on a
//! bounded provider, the draws of a query that no draw could lift over the
//! noisy threshold. The broken-variant zoo keeps its own loops: each is a
//! deliberate drift from this one.

mod adaptive;
pub mod broken;
mod classic;
mod discrete;
mod gap;
mod multi_branch;
mod output;

pub use adaptive::AdaptiveSparseVector;
pub use classic::ClassicSparseVector;
pub use discrete::DiscreteSparseVectorWithGap;
pub use gap::SparseVectorWithGap;
pub use multi_branch::{MultiBranchAdaptiveSparseVector, SvtStreamState};
pub use output::{AdaptiveOutcome, AdaptiveSvOutput, SvOutput};

/// The Lyu et al. recommended budget split between threshold noise and query
/// noise: ratio `1 : (2k)^{2/3}` for general queries, `1 : k^{2/3}` for
/// monotone queries. Returns the threshold share
/// `θ = 1 / (1 + ratio)` used throughout §7.
pub fn optimal_threshold_share(k: usize, monotonic: bool) -> f64 {
    let base = if monotonic { k as f64 } else { 2.0 * k as f64 };
    1.0 / (1.0 + base.powf(2.0 / 3.0))
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
        let got = SparseVectorWithGap::new(k, eps, 0.0, false)
            .unwrap()
            .gap_variance();
        let c = (2.0 * k as f64).powf(2.0 / 3.0);
        let expect = 2.0 * (1.0 + c).powi(3) / (eps * eps);
        assert!((got - expect).abs() / expect < 1e-12, "{got} vs {expect}");
        // Monotone: 2(1+k^{2/3})³/ε'².
        let got_m = SparseVectorWithGap::new(k, eps, 0.0, true)
            .unwrap()
            .gap_variance();
        let cm = (k as f64).powf(2.0 / 3.0);
        let expect_m = 2.0 * (1.0 + cm).powi(3) / (eps * eps);
        assert!((got_m - expect_m).abs() / expect_m < 1e-12);
    }
}
