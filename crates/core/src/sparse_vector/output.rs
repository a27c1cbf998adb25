//! Output types for the Sparse Vector family: [`SvOutput`] for classic SVT
//! and Sparse-Vector-with-Gap, and one [`AdaptiveSvOutput`] for the
//! adaptive branch ladder — Algorithm 2 (the two-rung ladder) and its
//! multi-branch extension alike.

/// Per-query outcome of the adaptive branch ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptiveOutcome {
    /// Above threshold via rung `branch`, with the released noisy gap and
    /// the budget consumed for this answer.
    Above {
        /// The rung that fired, `0 ..= m-1` from cheapest to baseline. In
        /// Algorithm 2, rung 0 is the top branch (`ξᵢ` against `σ`, cost
        /// `ε₂`) and rung 1 the middle branch (`ηᵢ` against 0, cost `ε₁`).
        /// A `u8` holds any rung of the deepest ladder and keeps the
        /// outcome at 24 bytes, where a `usize` would take 32.
        branch: u8,
        /// The released noisy gap (noisy query minus noisy threshold).
        gap: f64,
        /// Budget consumed: the rung's per-answer budget.
        cost: f64,
    },
    /// Below threshold (`⊥`): free.
    Below,
}

impl AdaptiveOutcome {
    /// True for any above-threshold rung.
    pub fn is_above(&self) -> bool {
        matches!(self, AdaptiveOutcome::Above { .. })
    }
}

/// Output of [`super::AdaptiveSparseVector`] and
/// [`super::MultiBranchAdaptiveSparseVector`].
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

    /// Number of above-threshold answers from rung `branch`.
    pub fn answered_via(&self, branch: u8) -> usize {
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

    // A `u8` rung shares the tag's word; a `usize` one would grow the
    // outcome to 32 bytes.
    const _: () = assert!(std::mem::size_of::<AdaptiveOutcome>() == 24);
    // The ladder's rung index, `0..MAX_BRANCHES`, must fit that `u8`.
    const _: () = assert!(
        crate::sparse_vector::MultiBranchAdaptiveSparseVector::MAX_BRANCHES <= 1 + u8::MAX as usize
    );

    fn adaptive() -> AdaptiveSvOutput {
        AdaptiveSvOutput {
            outcomes: vec![
                AdaptiveOutcome::Below,
                AdaptiveOutcome::Above {
                    branch: 0,
                    gap: 3.0,
                    cost: 0.05,
                },
                AdaptiveOutcome::Above {
                    branch: 1,
                    gap: 1.0,
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
        assert_eq!(o.answered_via(0), 1);
        assert_eq!(o.answered_via(1), 1);
        assert_eq!(o.answered_via(2), 0);
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
