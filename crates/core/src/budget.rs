//! Privacy-budget accounting under sequential composition.
//!
//! The paper's adaptive mechanism (Algorithm 2) is budget accounting *inside*
//! a mechanism; this module is the conventional *outer* accountant an
//! application uses when chaining mechanisms (e.g. the 50/50
//! selection/measurement split of §5.2 and §6.2).
//!
//! The accountant counts in whole **nano-ε** (10⁻⁹ ε), so its ledger is
//! exact: a debit and a release of the same units cancel, and
//! `spent ≤ total` holds with no slack and no clamp. One rounding rule
//! converts an `f64` budget: [`units`]`(ε) = ⌈ε·10⁹⌉`, the product taken in
//! `f64` (so decimal budgets such as 0.1, 0.35 and 0.7 are whole units).
//! Debits round up, so every debit costs at least one unit; the total
//! rounds down. Rounding never favours the spender.

use crate::error::MechanismError;

const UNITS_PER_EPSILON: f64 = 1e9;

/// The nano-ε units `epsilon` costs: `⌈ε·10⁹⌉`. Every positive ε costs at
/// least one unit; a budget past the `u128` range saturates, and NaN or a
/// non-positive ε is 0.
pub fn units(epsilon: f64) -> u128 {
    (epsilon * UNITS_PER_EPSILON).ceil() as u128
}

/// The ε a count of nano-ε units stands for, `units / 10⁹` rounded to the
/// nearest `f64`.
pub fn to_epsilon(units: u128) -> f64 {
    units as f64 / UNITS_PER_EPSILON
}

/// A sequential-composition privacy accountant for pure ε-DP, exact in
/// nano-ε units (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyBudget {
    total: u128,
    spent: u128,
}

impl PrivacyBudget {
    /// Creates an accountant with `total` budget, rounded down to whole
    /// nano-ε.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite totals.
    pub fn new(total: f64) -> Result<Self, MechanismError> {
        let total = crate::error::require_epsilon(total)?;
        Ok(Self {
            total: (total * UNITS_PER_EPSILON).floor() as u128,
            spent: 0,
        })
    }

    /// The configured total `ε`.
    pub fn total(&self) -> f64 {
        to_epsilon(self.total)
    }

    /// Budget consumed so far.
    pub fn spent(&self) -> f64 {
        to_epsilon(self.spent)
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        to_epsilon(self.total - self.spent)
    }

    /// Debits [`units`]`(epsilon)`, or rejects without changing state. A
    /// serving ledger holds this under a lock so concurrent requests can
    /// never jointly oversubscribe the total.
    ///
    /// # Errors
    /// [`MechanismError::InvalidEpsilon`] for non-positive or non-finite
    /// requests, [`MechanismError::BudgetExhausted`] (carrying the
    /// requested and remaining amounts) when the debit does not fit.
    pub fn try_debit(&mut self, epsilon: f64) -> Result<(), MechanismError> {
        let epsilon = crate::error::require_epsilon(epsilon)?;
        let debit = units(epsilon);
        if debit > self.total - self.spent {
            return Err(MechanismError::BudgetExhausted {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        self.spent += debit;
        Ok(())
    }

    /// Credits back `credit` nano-ε of previously debited budget — the
    /// outer-accountant analogue of Algorithm 2's remaining-budget output:
    /// a failed call is refunded its [`units`]`(cost)`, and a session that
    /// closes before exhausting its answer cap hands back its unused share.
    /// Zero is a no-op.
    ///
    /// # Errors
    /// [`MechanismError::InvalidSplit`] when the credit exceeds what was
    /// spent — releasing budget that was never debited is a caller bug; the
    /// accountant is left unchanged.
    pub fn release(&mut self, credit: u128) -> Result<(), MechanismError> {
        self.spent = self
            .spent
            .checked_sub(credit)
            .ok_or(MechanismError::InvalidSplit {
                reason: "cannot release more budget than was spent",
            })?;
        Ok(())
    }

    /// Splits the *remaining* budget into `fractions` (which must sum to at
    /// most 1) and returns the corresponding ε shares without spending them.
    ///
    /// # Errors
    /// Rejects an empty fraction list (a vacuous split is almost certainly a
    /// caller bug — it would silently produce no shares), and any fraction
    /// that is non-positive or non-finite, and sums exceeding 1 + 1e-12.
    pub fn split(&self, fractions: &[f64]) -> Result<Vec<f64>, MechanismError> {
        if fractions.is_empty() {
            return Err(MechanismError::InvalidSplit {
                reason: "fraction list must be non-empty",
            });
        }
        if !fractions.iter().all(|f| f.is_finite() && *f > 0.0) {
            return Err(MechanismError::InvalidSplit {
                reason: "every fraction must be positive and finite",
            });
        }
        let sum: f64 = fractions.iter().sum();
        if sum > 1.0 + 1e-12 {
            return Err(MechanismError::InvalidSplit {
                reason: "fractions must sum to at most 1",
            });
        }
        Ok(fractions.iter().map(|f| f * self.remaining()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_and_remaining() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        assert_eq!(b.remaining(), 1.0);
        b.try_debit(0.3).unwrap();
        b.try_debit(0.3).unwrap();
        assert_eq!(b.spent(), 0.6);
        assert_eq!(b.remaining(), 0.4);
    }

    #[test]
    fn units_round_debits_up_and_totals_down() {
        assert_eq!(units(0.1), 100_000_000);
        assert_eq!(units(0.35), 350_000_000);
        assert_eq!(units(0.7), 700_000_000);
        assert_eq!(to_epsilon(units(0.7)), 0.7);
        assert_eq!(units(5e-13), 1);
        assert_eq!(units(5e-324), 1);
        assert_eq!(units(1e300), u128::MAX);
        assert_eq!(PrivacyBudget::new(1.5e-9).unwrap().total(), 1e-9);
        assert_eq!(PrivacyBudget::new(1e12).unwrap().total(), 1e12);
    }

    #[test]
    fn overspend_rejected() {
        let mut b = PrivacyBudget::new(0.5).unwrap();
        b.try_debit(0.4).unwrap();
        let err = b.try_debit(0.2).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        // The failed debit must not change state.
        assert_eq!(b.spent(), 0.4);
    }

    #[test]
    fn exact_exhaustion_allowed() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        // Ten shares of 0.1 are ten whole debits of 10⁸ units: no drift.
        for _ in 0..10 {
            b.try_debit(0.1).unwrap();
        }
        assert_eq!(b.remaining(), 0.0);
        // Every debit costs at least one unit, so a spent budget admits no
        // further debit, however small.
        let accepted = (0..1_000_000)
            .filter(|_| b.try_debit(5e-13).is_ok())
            .count();
        assert_eq!(accepted, 0);
        assert_eq!(b.spent(), 1.0);
    }

    #[test]
    fn split_scales_remaining() {
        let mut b = PrivacyBudget::new(2.0).unwrap();
        b.try_debit(1.0).unwrap();
        let shares = b.split(&[0.5, 0.5]).unwrap();
        assert_eq!(shares, vec![0.5, 0.5]);
    }

    #[test]
    fn split_rejects_malformed_requests() {
        let b = PrivacyBudget::new(1.0).unwrap();
        for bad in [
            &[0.7, 0.7][..],      // oversubscribed
            &[][..],              // vacuously "valid" before: now rejected
            &[0.5, 0.0][..],      // non-positive
            &[0.5, -0.1][..],     // negative
            &[0.5, f64::NAN][..], // NaN
            &[f64::INFINITY][..], // non-finite
        ] {
            assert!(
                matches!(b.split(bad), Err(MechanismError::InvalidSplit { .. })),
                "accepted {bad:?}"
            );
        }
        // Exactly 1 (within slack) still passes.
        assert!(b.split(&[0.5, 0.5]).is_ok());
    }

    #[test]
    fn rejects_bad_total() {
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(f64::NAN).is_err());
    }

    #[test]
    fn try_debit_edge_cases() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        // Zero, negative and non-finite debits are typed InvalidEpsilon.
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(b.try_debit(bad), Err(MechanismError::InvalidEpsilon { .. })),
                "accepted {bad}"
            );
            assert_eq!(b.spent(), 0.0, "failed debit of {bad} mutated state");
        }
        // An over-debit reports both sides and leaves state unchanged.
        b.try_debit(0.9).unwrap();
        match b.try_debit(0.2) {
            Err(MechanismError::BudgetExhausted {
                requested,
                remaining,
            }) => {
                assert_eq!(requested, 0.2);
                assert_eq!(remaining, 0.1);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(b.spent(), 0.9);
    }

    #[test]
    fn release_returns_spent_budget() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.try_debit(0.6).unwrap();
        b.release(units(0.25)).unwrap();
        assert_eq!(b.spent(), 0.35);
        assert_eq!(b.remaining(), 0.65);
        // The freed budget is spendable again, to the last unit.
        b.try_debit(0.65).unwrap();
        assert_eq!(b.remaining(), 0.0);
        // Debits and releases of the same units cancel: no drift after 10⁶
        // cycles.
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.try_debit(0.3).unwrap();
        for _ in 0..1_000_000 {
            b.try_debit(0.1).unwrap();
            b.release(units(0.1)).unwrap();
        }
        assert_eq!(b.spent(), 0.3);
    }

    #[test]
    fn release_edge_cases() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.try_debit(0.5).unwrap();
        // Zero is a no-op.
        b.release(0).unwrap();
        assert_eq!(b.spent(), 0.5);
        // Releasing more than was spent, even by one unit, is a caller bug
        // and must not mint budget.
        assert!(matches!(
            b.release(units(0.5 + 5e-13)),
            Err(MechanismError::InvalidSplit { .. })
        ));
        assert_eq!(b.spent(), 0.5);
        // Releasing exactly what was spent returns to a fresh accountant.
        b.release(units(0.5)).unwrap();
        assert_eq!(b.spent(), 0.0);
    }
}
