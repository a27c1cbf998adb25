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
/// infinite winner releases a NaN gap, a `+∞` clears any SVT threshold),
/// so the mechanisms reject such a workload before drawing any noise. A
/// server feeding an open SVT session checks each batch with it first.
///
/// # Errors
/// [`MechanismError::NonFiniteUtility`] at the first NaN or infinity.
pub fn require_finite(values: &[f64]) -> Result<(), MechanismError> {
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

/// 2⁵²: below it, adding and subtracting it rounds a non-negative `f64` to
/// the nearest integer; from it up, every finite `f64` is an integer.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// The mantissa bits of an `f64`: all zero in a normal power of two.
const MANTISSA: u64 = (1 << 52) - 1;

/// True when `v` is a multiple of `gamma` up to the rounding of a lattice
/// point `k·γ` and of the division `v/γ`, each at most half an ulp: the
/// step count `s = |v/γ|` lies within `4·ε·s` of an integer (`ε` the
/// machine epsilon). A power-of-two `γ`, the default `γ = 1` among them,
/// rounds neither, so there the test is exact: any fractional step is
/// refused. NaN and infinities are off the lattice. Branch-free: below
/// 2⁵² steps, adding and subtracting 2⁵² rounds to the nearest integer
/// (ties to even, which moves only exact halves, off the lattice either
/// way); from 2⁵² up every finite step count is an integer.
pub(crate) fn on_lattice(v: f64, gamma: f64) -> bool {
    let tolerance = if gamma.to_bits() & MANTISSA == 0 {
        0.0
    } else {
        4.0 * f64::EPSILON
    };
    let steps = (v / gamma).abs();
    let rounded = (steps + TWO_52) - TWO_52;
    ((steps - rounded).abs() <= tolerance * steps) | ((steps >= TWO_52) & steps.is_finite())
}

/// Validates that every answer is a multiple of the lattice step `gamma`
/// ([`on_lattice`]), the precondition of the discrete mechanisms: an
/// off-lattice answer carries its fractional part into the released gap
/// exactly, so the release would not be private. A non-finite first
/// offender is reported as [`MechanismError::NonFiniteUtility`], as
/// [`require_finite`] would.
pub(crate) fn require_lattice(values: &[f64], gamma: f64) -> Result<(), MechanismError> {
    // Branch-free like `require_finite`; the offender is located only when
    // there is one.
    if values.iter().fold(true, |ok, &v| ok & on_lattice(v, gamma)) {
        return Ok(());
    }
    match values.iter().position(|&v| !on_lattice(v, gamma)) {
        Some(index) if !values[index].is_finite() => Err(MechanismError::NonFiniteUtility {
            index,
            value: values[index],
        }),
        Some(index) => Err(MechanismError::InvalidParameter {
            name: "answer",
            value: values[index],
            requirement: "must be a multiple of the lattice step γ",
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
    fn lattice_check_keeps_the_rounding_rule() {
        // The `round` form of the rule: a power-of-two γ rounds neither
        // `k·γ` nor `v/γ`, so it gets no tolerance.
        let rule = |v: f64, gamma: f64| {
            let steps = v / gamma;
            let tolerance = if gamma.log2().fract() == 0.0 {
                0.0
            } else {
                4.0 * f64::EPSILON * steps.abs()
            };
            (steps - steps.round()).abs() <= tolerance
        };
        let two_52 = 4_503_599_627_370_496.0;
        let edges = [
            0.0,
            -0.0,
            3.0,
            -3.0,
            3.5,
            -2.5,
            3.7,
            3.0 + 1e-10,
            3.0 - 1e-10,
            3.0 + 4.0 * f64::EPSILON,
            20.000_000_000_5,
            1e-300,
            two_52 - 0.5,
            two_52 - 1.0,
            two_52 + 1.0,
            2.0 * two_52 - 1.0,
            -(two_52 + 3.0),
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for gamma in [1.0, 0.5, 0.1, 3.0, 1e-6, 2f64.powi(-52)] {
            for v in edges {
                assert_eq!(on_lattice(v, gamma), rule(v, gamma), "{v} at γ = {gamma}");
                let checked = require_lattice(&[4.0 * gamma, v], gamma);
                assert_eq!(checked.is_ok(), rule(v, gamma), "{v} at γ = {gamma}");
            }
            // Every lattice point `k·γ` as `f64` arithmetic forms it is on.
            for k in [1.0, 3.0, 7.0, 10.0, 123_457.0, 1e9, 1e15] {
                assert!(on_lattice(k * gamma, gamma), "{k}·{gamma}");
                assert!(on_lattice(-k * gamma, gamma), "-{k}·{gamma}");
            }
        }
        // At γ = 1 the test is exact: a fraction of any size is refused.
        for v in [
            3.0 + 4.0 * f64::EPSILON,
            3.0 + 1e-10,
            20.000_000_000_5,
            1e-300,
        ] {
            assert!(!on_lattice(v, 1.0), "{v}");
        }
        assert_eq!(
            require_lattice(&[1.0, 2.5, 3.5], 1.0),
            Err(MechanismError::InvalidParameter {
                name: "answer",
                value: 2.5,
                requirement: "must be a multiple of the lattice step γ",
            })
        );
        // The first offender decides the error: non-finite is its own kind.
        assert!(matches!(
            require_lattice(&[1.0, f64::NAN, 2.5], 1.0),
            Err(MechanismError::NonFiniteUtility { index: 1, .. })
        ));
        assert!(matches!(
            require_lattice(&[1.0, 2.5, f64::INFINITY], 1.0),
            Err(MechanismError::InvalidParameter { value, .. }) if value == 2.5
        ));
    }

    #[test]
    #[should_panic(expected = "delta length")]
    fn perturbed_checks_length() {
        QueryAnswers::general(vec![1.0]).perturbed(&[0.0, 0.0]);
    }
}
