//! Query-answer vectors: the mechanisms' input.
//!
//! All mechanisms in the paper consume a list of real-valued query answers
//! `q(D) = (q₁(D), …, qₙ(D))` of **global sensitivity 1** (Definition 2). The
//! only additional structure that matters for privacy accounting is
//! *monotonicity* (Definition 7): whether a database change moves all
//! answers in the same direction, as counting queries do. Monotone workloads
//! get twice the utility at the same `ε` (Theorem 2, footnote 6).

use crate::error::MechanismError;

/// Validates that a borrowed workload has at least `need` queries — the
/// slice-level form of [`QueryAnswers::require_len`], shared by the
/// mechanism cores and the unified [`crate::api`] call surface (whose
/// [`crate::api::QuerySlice`] borrows answers instead of owning them).
pub(crate) fn require_min_len(values: &[f64], need: usize) -> Result<(), MechanismError> {
    if values.len() >= need {
        Ok(())
    } else {
        Err(MechanismError::NotEnoughQueries {
            got: values.len(),
            need,
        })
    }
}

/// Validates that every answer is finite. Selection over a NaN or an
/// infinity is undefined (a NaN fails every `>=` of the Top-K scan, an
/// infinite winner releases a NaN gap), so the selection mechanisms reject
/// such a workload before drawing any noise.
pub(crate) fn require_finite(values: &[f64]) -> Result<(), MechanismError> {
    // A branch-free pass vectorizes, unlike an early-exit scan; the
    // offender is located only when there is one.
    if values.iter().fold(true, |finite, v| finite & v.is_finite()) {
        return Ok(());
    }
    match values.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(MechanismError::NonFiniteUtility {
            index,
            value: values[index],
        }),
        None => Ok(()),
    }
}

/// A vector of sensitivity-1 query answers, tagged with monotonicity.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswers {
    values: Vec<f64>,
    monotonic: bool,
}

impl QueryAnswers {
    /// Wraps answers to general (not necessarily monotone) sensitivity-1
    /// queries.
    pub fn general(values: Vec<f64>) -> Self {
        Self {
            values,
            monotonic: false,
        }
    }

    /// Wraps answers to monotone queries (e.g. counting queries) — enables
    /// the paper's tighter `ε/2`-style accounting.
    pub fn counting(values: Vec<f64>) -> Self {
        Self {
            values,
            monotonic: true,
        }
    }

    /// Builds from `u64` counts (the `free-gap-data` item-count form).
    pub fn from_counts(counts: &[u64]) -> Self {
        Self::counting(counts.iter().map(|&c| c as f64).collect())
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw answers.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whether the queries are monotone (Definition 7).
    pub fn monotonic(&self) -> bool {
        self.monotonic
    }

    /// Validates that the workload has at least `need` queries.
    pub fn require_len(&self, need: usize) -> Result<(), MechanismError> {
        require_min_len(&self.values, need)
    }

    /// Returns a copy with each answer shifted by the paired delta —
    /// used to build adjacent workloads in tests and audits.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn perturbed(&self, deltas: &[f64]) -> Self {
        // lint:allow(panic-freedom): documented panic; builds audit workloads, not a serving path
        assert_eq!(self.values.len(), deltas.len(), "delta length mismatch");
        Self {
            values: self.values.iter().zip(deltas).map(|(v, d)| v + d).collect(),
            monotonic: self.monotonic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_monotonicity() {
        assert!(!QueryAnswers::general(vec![1.0]).monotonic());
        assert!(QueryAnswers::counting(vec![1.0]).monotonic());
        let c = QueryAnswers::from_counts(&[3, 5]);
        assert!(c.monotonic());
        assert_eq!(c.values(), &[3.0, 5.0]);
    }

    #[test]
    fn require_len_boundary() {
        let q = QueryAnswers::general(vec![0.0; 3]);
        assert!(q.require_len(3).is_ok());
        assert!(q.require_len(4).is_err());
    }

    #[test]
    fn perturbed_shifts_preserving_flag() {
        let q = QueryAnswers::counting(vec![1.0, 2.0]);
        let p = q.perturbed(&[0.5, -0.5]);
        assert_eq!(p.values(), &[1.5, 1.5]);
        assert!(p.monotonic());
    }

    #[test]
    #[should_panic(expected = "delta length")]
    fn perturbed_checks_length() {
        QueryAnswers::general(vec![1.0]).perturbed(&[0.0, 0.0]);
    }
}
