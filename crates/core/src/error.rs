//! Error type for mechanism construction and execution.

use std::fmt;

/// Errors raised when configuring or running a mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// The privacy budget must be positive and finite.
    InvalidEpsilon {
        /// The rejected value.
        value: f64,
    },
    /// `k` must satisfy the documented bounds (e.g. `1 <= k < n` for
    /// Noisy-Top-K, which needs a `(k+1)`-st query for the last gap).
    InvalidK {
        /// The rejected `k`.
        k: usize,
        /// Human-readable constraint.
        requirement: &'static str,
    },
    /// A ratio/fraction parameter (θ, budget split) left `(0, 1)`.
    InvalidFraction {
        /// Name of the parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The query workload was too small for the mechanism configuration.
    NotEnoughQueries {
        /// Queries supplied.
        got: usize,
        /// Queries required.
        need: usize,
    },
    /// The privacy accountant refused an over-budget spend.
    BudgetExhausted {
        /// Amount requested.
        requested: f64,
        /// Amount remaining.
        remaining: f64,
    },
    /// A budget split request was malformed (empty list, non-positive or
    /// non-finite fractions, or fractions summing above 1).
    InvalidSplit {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A named parameter that is not a privacy budget was out of range: a
    /// lattice step `γ`, a sensitivity `Δ`, a margin multiplier, an
    /// off-lattice threshold or answer (the discrete mechanisms need
    /// multiples of `γ`), a variance or BLUE's `λ`, a branch count, a
    /// serve-bench replay with zero tenants, or a tenant id the query
    /// server has already registered. Each is rejected by name, so the
    /// message never blames ε for it.
    InvalidParameter {
        /// Name of the rejected parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// The constraint it broke, phrased to follow the name
        /// ("must be positive and finite").
        requirement: &'static str,
    },
    /// A worker thread panicked mid-run. The run is aborted and the
    /// panic surfaced as a typed error instead of a hang or an opaque
    /// propagated unwind, so callers can report which worker died.
    WorkerPanicked {
        /// Index of the worker whose thread panicked.
        worker: usize,
    },
    /// A utility/answer fed to a selection mechanism was NaN or infinite.
    /// Selection over non-finite scores is undefined (a NaN poisons any
    /// comparison-based race and `±inf` degenerates the softmax), so the
    /// mechanisms reject the workload up front instead of panicking in a
    /// sort or silently mis-selecting.
    NonFiniteUtility {
        /// Index of the offending query.
        index: usize,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechanismError::InvalidEpsilon { value } => {
                write!(
                    f,
                    "privacy budget ε must be positive and finite, got {value}"
                )
            }
            MechanismError::InvalidK { k, requirement } => {
                write!(f, "invalid k = {k}: {requirement}")
            }
            MechanismError::InvalidFraction { name, value } => {
                write!(f, "parameter `{name}` must lie in (0, 1), got {value}")
            }
            MechanismError::NotEnoughQueries { got, need } => {
                write!(
                    f,
                    "workload has {got} queries but the mechanism needs {need}"
                )
            }
            MechanismError::BudgetExhausted {
                requested,
                remaining,
            } => {
                write!(f, "requested ε = {requested} but only {remaining} remains")
            }
            MechanismError::InvalidSplit { reason } => {
                write!(f, "invalid budget split: {reason}")
            }
            MechanismError::InvalidParameter {
                name,
                value,
                requirement,
            } => {
                write!(f, "parameter `{name}` {requirement}, got {value}")
            }
            MechanismError::WorkerPanicked { worker } => {
                write!(f, "worker {worker} panicked; run aborted")
            }
            MechanismError::NonFiniteUtility { index, value } => {
                write!(
                    f,
                    "utility {index} is {value}; selection requires finite utilities"
                )
            }
        }
    }
}

impl std::error::Error for MechanismError {}

/// Validates a privacy budget.
pub(crate) fn require_epsilon(value: f64) -> Result<f64, MechanismError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(MechanismError::InvalidEpsilon { value })
    }
}

/// Rejects a budget whose Laplace noise scale overflows `f64` (a subnormal
/// `epsilon` makes `1/ε` infinite): a typed error before any draw, not a
/// panic in the provider nor a run comparing infinities.
pub(crate) fn require_scale(scale: f64, epsilon: f64) -> Result<(), MechanismError> {
    match free_gap_noise::Laplace::new(scale) {
        Ok(_) => Ok(()),
        Err(_) => Err(MechanismError::InvalidEpsilon { value: epsilon }),
    }
}

/// Validates a parameter that must be positive and finite (a lattice step,
/// a sensitivity, a variance).
pub(crate) fn require_positive(name: &'static str, value: f64) -> Result<f64, MechanismError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(MechanismError::InvalidParameter {
            name,
            value,
            requirement: "must be positive and finite",
        })
    }
}

/// Validates a fraction strictly inside `(0, 1)`.
pub(crate) fn require_fraction(name: &'static str, value: f64) -> Result<f64, MechanismError> {
    if value.is_finite() && value > 0.0 && value < 1.0 {
        Ok(value)
    } else {
        Err(MechanismError::InvalidFraction { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert_eq!(require_epsilon(0.5), Ok(0.5));
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(require_epsilon(v).is_err());
        }
    }

    #[test]
    fn fraction_validation() {
        assert!(require_fraction("theta", 0.5).is_ok());
        for v in [0.0, 1.0, -0.2, 2.0] {
            assert!(require_fraction("theta", v).is_err());
        }
    }

    #[test]
    fn messages_are_informative() {
        let e = MechanismError::InvalidK {
            k: 0,
            requirement: "k >= 1",
        };
        assert!(e.to_string().contains("k >= 1"));
        let e = MechanismError::BudgetExhausted {
            requested: 1.0,
            remaining: 0.25,
        };
        assert!(e.to_string().contains("0.25"));
        let e = MechanismError::NotEnoughQueries { got: 2, need: 4 };
        assert!(e.to_string().contains('4'));
        let e = MechanismError::InvalidSplit {
            reason: "fraction list must be non-empty",
        };
        assert!(e.to_string().contains("non-empty"));
        let e = MechanismError::NonFiniteUtility {
            index: 3,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("utility 3"));
        let e = MechanismError::InvalidParameter {
            name: "tenants",
            value: 0.0,
            requirement: "must be at least 1",
        };
        assert_eq!(
            e.to_string(),
            "parameter `tenants` must be at least 1, got 0"
        );
        let e = MechanismError::WorkerPanicked { worker: 2 };
        assert!(e.to_string().contains("worker 2"));
    }

    #[test]
    fn non_epsilon_parameters_are_rejected_by_name() {
        use crate::laplace_mech::LaplaceMechanism;
        use crate::noisy_max::DiscreteNoisyTopKWithGap;
        use crate::postprocess::{blue_estimates, combine_gap_with_measurement, BlueInput};
        use crate::sparse_vector::{
            AdaptiveSparseVector, DiscreteSparseVectorWithGap, MultiBranchAdaptiveSparseVector,
        };
        use crate::staircase_mech::StaircaseMechanism;

        let adaptive = AdaptiveSparseVector::new(3, 1.0, 10.0, true).unwrap();
        let blue = |lambda| BlueInput {
            measurements: &[1.0, 2.0],
            gaps: &[0.5],
            lambda,
        };
        let cases: [(&str, Result<(), MechanismError>); 9] = [
            (
                "gamma",
                DiscreteNoisyTopKWithGap::with_gamma(3, 1.0, true, 0.0).map(drop),
            ),
            (
                "sensitivity",
                LaplaceMechanism::new(1.0)
                    .unwrap()
                    .with_sensitivity(-1.0)
                    .map(drop),
            ),
            (
                "sensitivity",
                StaircaseMechanism::new(1.0)
                    .unwrap()
                    .with_sensitivity(f64::NAN)
                    .map(drop),
            ),
            (
                "sigma_multiplier",
                adaptive.with_sigma_multiplier(-2.0).map(drop),
            ),
            (
                "threshold",
                DiscreteSparseVectorWithGap::new(1, 1.0, 50.5, true).map(drop),
            ),
            (
                "gap_variance",
                combine_gap_with_measurement(1.0, 2.0, 0.0, 3.0, 1.0).map(drop),
            ),
            (
                "measurement_variance",
                combine_gap_with_measurement(1.0, 2.0, 1.0, 3.0, f64::INFINITY).map(drop),
            ),
            ("lambda", blue_estimates(&blue(0.0)).map(drop)),
            (
                "branches",
                MultiBranchAdaptiveSparseVector::new(3, 1.0, 10.0, true, 17).map(drop),
            ),
        ];
        for (name, result) in cases {
            let err = result.unwrap_err();
            assert!(
                matches!(err, MechanismError::InvalidParameter { name: n, .. } if n == name),
                "{name}: {err:?}"
            );
            let message = err.to_string();
            assert!(message.contains(&format!("`{name}`")), "{message}");
            assert!(
                !message.contains('ε') && !message.contains("budget"),
                "{message}"
            );
        }
    }
}
