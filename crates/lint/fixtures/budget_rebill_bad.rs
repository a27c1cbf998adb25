//! R5 power-check fixture — an error arm that bills the tenant again
//! instead of refunding.
//!
//! `.spend(…)` was the accountant's alias of `try_debit` — a debit, not a
//! refund: this draft settled a failed call with `spend(cost)`, which
//! charges the tenant a second time for a call that produced no output.
//! R5 once counted `.spend(…)` as a release, so the draft linted clean.
//! Its fixed twin is `budget_refund_fixed.rs`.

impl QueryServer {
    fn handle_call(&self, tenant: &Tenant, req: &Request, worker: &mut Worker) -> MechanismResponse {
        let cost = req.mechanism.cost();
        if let Err(e) = tenant.ledger.try_debit(cost) {
            return MechanismResponse::Rejected(budget_reject(e));
        }
        let mut rng = derive_fast_stream(tenant.seed, 1);
        match req.mechanism.call_batched(&req.queries, &mut rng, &mut worker.out) {
            Ok(()) => MechanismResponse::Output(worker.out.clone()),
            Err(e) => {
                let billed = tenant.ledger.spend(cost);
                debug_assert!(billed.is_ok());
                MechanismResponse::Rejected(RejectReason::Invalid(e))
            }
        }
    }
}
