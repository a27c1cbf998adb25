//! Output types for the Sparse Vector family.

/// Which branch of Algorithm 2 produced an above-threshold answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Branch {
    /// The cheap, very-noisy first branch (`ξᵢ` test against `σ`): costs `ε₂`.
    Top,
    /// The baseline second branch (`ηᵢ` test against 0): costs `ε₁`.
    Middle,
}

/// Per-query outcome of the adaptive mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptiveOutcome {
    /// Above threshold via the given branch, with the released noisy gap and
    /// the budget consumed for this answer.
    Above {
        /// The released noisy gap (noisy query minus noisy threshold).
        gap: f64,
        /// The branch that fired.
        branch: Branch,
        /// Budget consumed (`ε₂` for Top, `ε₁` for Middle).
        cost: f64,
    },
    /// Below threshold (`⊥`): free.
    Below,
}

impl AdaptiveOutcome {
    /// True for either above-threshold branch.
    pub fn is_above(&self) -> bool {
        matches!(self, AdaptiveOutcome::Above { .. })
    }
}

/// Output of [`super::AdaptiveSparseVector`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptiveSvOutput {
    /// One outcome per *processed* query (the mechanism may stop early when
    /// the budget cannot cover another worst-case answer).
    pub outcomes: Vec<AdaptiveOutcome>,
    /// Total budget consumed, including the threshold share `ε₀`.
    pub spent: f64,
    /// The mechanism's total budget `ε`.
    pub epsilon: f64,
}

impl AdaptiveSvOutput {
    /// Indices (into the processed prefix) answered above-threshold.
    pub fn above_indices(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_above())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of above-threshold answers.
    pub fn answered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_above()).count()
    }

    /// Number of above-threshold answers from a given branch.
    pub fn answered_via(&self, branch: Branch) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, AdaptiveOutcome::Above { branch: b, .. } if *b == branch))
            .count()
    }

    /// `(index, gap)` pairs for the above-threshold answers.
    pub fn gaps(&self) -> Vec<(usize, f64)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                AdaptiveOutcome::Above { gap, .. } => Some((i, *gap)),
                AdaptiveOutcome::Below => None,
            })
            .collect()
    }

    /// Budget still unspent when the mechanism stopped.
    pub fn remaining(&self) -> f64 {
        (self.epsilon - self.spent).max(0.0)
    }

    /// Unspent fraction of the budget (Figure 4's y-axis).
    pub fn remaining_fraction(&self) -> f64 {
        self.remaining() / self.epsilon
    }
}

/// Output of the non-adaptive mechanisms ([`super::ClassicSparseVector`],
/// [`super::SparseVectorWithGap`]): per-query decisions, where the gap is
/// `Some` only for the gap-releasing variant's above answers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SvOutput {
    /// One decision per processed query: `Some(gap)`/`Some(0.0)` above
    /// (gap-releasing / classic), `None` below.
    pub above: Vec<Option<f64>>,
}

impl SvOutput {
    /// Indices answered above-threshold.
    pub fn above_indices(&self) -> Vec<usize> {
        self.above
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of above-threshold answers.
    pub fn answered(&self) -> usize {
        self.above.iter().filter(|o| o.is_some()).count()
    }

    /// `(index, gap)` pairs for above answers.
    pub fn gaps(&self) -> Vec<(usize, f64)> {
        self.above
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|g| (i, g)))
            .collect()
    }

    /// Number of queries processed before stopping.
    pub fn processed(&self) -> usize {
        self.above.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive() -> AdaptiveSvOutput {
        AdaptiveSvOutput {
            outcomes: vec![
                AdaptiveOutcome::Below,
                AdaptiveOutcome::Above {
                    gap: 3.0,
                    branch: Branch::Top,
                    cost: 0.05,
                },
                AdaptiveOutcome::Above {
                    gap: 1.0,
                    branch: Branch::Middle,
                    cost: 0.1,
                },
                AdaptiveOutcome::Below,
            ],
            spent: 0.35,
            epsilon: 0.7,
        }
    }

    #[test]
    fn adaptive_accessors() {
        let o = adaptive();
        assert_eq!(o.above_indices(), vec![1, 2]);
        assert_eq!(o.answered(), 2);
        assert_eq!(o.answered_via(Branch::Top), 1);
        assert_eq!(o.answered_via(Branch::Middle), 1);
        assert_eq!(o.gaps(), vec![(1, 3.0), (2, 1.0)]);
        assert!((o.remaining() - 0.35).abs() < 1e-15);
        assert!((o.remaining_fraction() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn sv_output_accessors() {
        let o = SvOutput {
            above: vec![None, Some(2.5), None, Some(0.5)],
        };
        assert_eq!(o.above_indices(), vec![1, 3]);
        assert_eq!(o.answered(), 2);
        assert_eq!(o.gaps(), vec![(1, 2.5), (3, 0.5)]);
        assert_eq!(o.processed(), 4);
    }

    #[test]
    fn overspend_clamps_remaining() {
        let mut o = adaptive();
        o.spent = 0.8; // should never happen, but remaining() must not go negative
        assert_eq!(o.remaining(), 0.0);
    }
}
