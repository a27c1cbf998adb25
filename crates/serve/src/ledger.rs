//! Per-tenant privacy-budget ledger: a [`PrivacyBudget`] behind a mutex,
//! so the debit-or-reject decision is atomic under concurrent requests.
//!
//! The invariant the server leans on: at every instant `spent ≤ total`,
//! exactly, in the accountant's nano-ε units — no interleaving of
//! concurrent debits can jointly oversubscribe a tenant's ε, because each
//! debit checks and mutates under the same lock (`tests/serve.rs` races
//! this).

use free_gap_core::{MechanismError, PrivacyBudget};
use std::sync::{Mutex, PoisonError};

/// Thread-safe budget accountant for one tenant.
#[derive(Debug)]
pub struct BudgetLedger {
    budget: Mutex<PrivacyBudget>,
}

impl BudgetLedger {
    /// Creates a ledger with `total` budget.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite totals.
    pub fn new(total: f64) -> Result<Self, MechanismError> {
        Ok(Self {
            budget: Mutex::new(PrivacyBudget::new(total)?),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PrivacyBudget> {
        // A poisoned lock means another thread panicked mid-debit; the
        // accountant itself is a plain pair of integers and is never left
        // half-updated (try_debit/release mutate only on success), so the
        // inner value is still consistent and serving can continue.
        self.budget.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Atomically debits `epsilon`, or rejects without changing state.
    ///
    /// # Errors
    /// [`MechanismError::InvalidEpsilon`] for malformed requests,
    /// [`MechanismError::BudgetExhausted`] when the debit does not fit.
    pub fn try_debit(&self, epsilon: f64) -> Result<(), MechanismError> {
        self.lock().try_debit(epsilon)
    }

    /// Credits back `credit` nano-ε of previously debited budget (refunds
    /// a failed call, or a closed or evicted session's unused share).
    ///
    /// # Errors
    /// As [`PrivacyBudget::release`].
    pub fn release(&self, credit: u128) -> Result<(), MechanismError> {
        self.lock().release(credit)
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        self.lock().remaining()
    }

    /// Budget consumed so far.
    pub fn spent(&self) -> f64 {
        self.lock().spent()
    }

    /// The configured total `ε`.
    pub fn total(&self) -> f64 {
        self.lock().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_core::budget::units;

    #[test]
    fn debit_and_release_round_trip() {
        let ledger = BudgetLedger::new(1.0).unwrap();
        ledger.try_debit(0.7).unwrap();
        assert!(matches!(
            ledger.try_debit(0.5),
            Err(MechanismError::BudgetExhausted { .. })
        ));
        ledger.release(units(0.2)).unwrap();
        ledger.try_debit(0.5).unwrap();
        assert_eq!(ledger.remaining(), 0.0);
        assert_eq!(ledger.total(), 1.0);
    }
}
