//! Serving-layer invariants: the ISSUE's acceptance criteria live here.
//!
//! * concurrent debits can never jointly oversubscribe a tenant's ε
//!   (seeded stress race + exact-sum assertion on dyadic amounts);
//! * every call costs at least one nano-ε unit, so a spent tenant cannot
//!   keep calling at a vanishing ε;
//! * an evicted session's unused units are released exactly once;
//! * per-tenant responses are independent of how requests from different
//!   tenants interleave (the sequential reference check);
//! * a call the mechanism cannot serve (an unrepresentable staircase batch,
//!   a non-finite answer to any mechanism, an off-lattice answer to a
//!   discrete mechanism) is a typed rejection whose debit is refunded in
//!   full, and a non-finite feed leaves its session untouched;
//! * the serve-bench digest is bit-identical for 1 vs 4 worker threads.

use free_gap_core::api::{AnyMechanism, ExponentialTopK, Mechanism};
use free_gap_core::budget::{to_epsilon, units};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::MechanismError;
use free_gap_serve::server::RejectReason;
use free_gap_serve::{
    BudgetLedger, MechanismRequest, MechanismResponse, QueryServer, RequestBody, ServeBenchConfig,
    WorkerScratch,
};

/// N threads race debits of dyadic amounts (exact in binary, so sums are
/// order-independent): the ledger's spent total must equal the exact sum
/// of the granted debits, and never exceed ε.
#[test]
fn concurrent_debits_never_oversubscribe_epsilon() {
    let total = 10.0;
    let ledger = BudgetLedger::new(total).unwrap();
    // Dyadic per-thread amounts: any interleaving sums exactly.
    let amounts = [0.25, 0.5, 0.125];
    let granted: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let ledger = &ledger;
                let amount = amounts[t % amounts.len()];
                scope.spawn(move || {
                    let mut granted = 0.0;
                    for _ in 0..200 {
                        if ledger.try_debit(amount).is_ok() {
                            granted += amount;
                        }
                    }
                    granted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let granted_sum: f64 = granted.iter().sum();
    // Exact equality: every quantity is a small dyadic rational.
    assert_eq!(ledger.spent(), granted_sum);
    assert!(ledger.spent() <= total);
    // The race must have actually filled the budget: every thread alone
    // requests 200 × amount ≥ 25 > ε, so less than ε spent would mean
    // debits were lost. The smallest amount always fits until < 0.125
    // remains, and all amounts divide evenly into 10.
    assert_eq!(ledger.spent(), total);
    assert!(matches!(
        ledger.try_debit(0.125),
        Err(free_gap_core::MechanismError::BudgetExhausted { .. })
    ));
}

/// Same race with uniform amounts: the grant count is exactly ε / amount.
#[test]
fn concurrent_debit_grant_count_is_exact() {
    let ledger = BudgetLedger::new(10.0).unwrap();
    let grants: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let ledger = &ledger;
                scope.spawn(move || (0..100).filter(|_| ledger.try_debit(0.25).is_ok()).count())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(grants, 40); // 10 / 0.25, no more, no less
    assert_eq!(ledger.spent(), 10.0);
}

fn tick(server: &QueryServer, tenant: u64, scratch: &mut WorkerScratch) -> MechanismResponse {
    // An unknown-session feed advances the tenant's logical clock (and so
    // drives idle eviction) without touching the ledger.
    server.handle(
        &MechanismRequest {
            tenant,
            body: RequestBody::Feed {
                session: u64::MAX,
                queries: vec![1.0],
            },
        },
        scratch,
    )
}

#[test]
fn evicted_session_budget_is_released_exactly_once() {
    let server = QueryServer::new(11).with_max_idle(2);
    server.register_tenant(0, 10.0).unwrap();
    let svt = SparseVectorWithGap::new(4, 0.5, 10.0, true).unwrap();
    let mut scratch = WorkerScratch::new();
    let open = server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::OpenSession { session: 7, svt },
        },
        &mut scratch,
    );
    assert_eq!(
        open,
        MechanismResponse::SessionOpened {
            session: 7,
            cost: to_epsilon(units(svt.epsilon()))
        }
    );
    assert_eq!(server.open_sessions(0), Some(1));
    assert_eq!(
        server.remaining(0),
        Some(to_epsilon(units(10.0) - units(svt.epsilon())))
    );
    // Tick the clock past the idle horizon without touching the session.
    for _ in 0..4 {
        assert!(tick(&server, 0, &mut scratch).is_rejected());
    }
    assert_eq!(server.evictions(), 1);
    assert_eq!(server.open_sessions(0), Some(0));
    // No query was answered, so the whole ε₂ share comes back; only the
    // threshold share's units(ε₁) stay spent.
    assert_eq!(server.spent(0), Some(to_epsilon(units(svt.epsilon1()))));
    let after_evict = server.remaining(0).unwrap();
    // Closing the already-evicted session must not release again.
    let close = server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::CloseSession { session: 7 },
        },
        &mut scratch,
    );
    assert_eq!(
        close,
        MechanismResponse::Rejected(RejectReason::UnknownSession)
    );
    assert_eq!(server.remaining(0), Some(after_evict));
    assert_eq!(server.evictions(), 1);
}

#[test]
fn explicit_close_releases_the_unanswered_share() {
    let server = QueryServer::new(11);
    server.register_tenant(0, 10.0).unwrap();
    let svt = SparseVectorWithGap::new(4, 0.5, 10.0, true).unwrap();
    let mut scratch = WorkerScratch::new();
    server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::OpenSession { session: 1, svt },
        },
        &mut scratch,
    );
    // One far-above query is answered almost surely: 1 of k = 4 answers.
    let feed = server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::Feed {
                session: 1,
                queries: vec![1000.0],
            },
        },
        &mut scratch,
    );
    let MechanismResponse::Decisions(decisions) = feed else {
        panic!("expected decisions, got {feed:?}");
    };
    let answered = decisions.iter().filter(|d| d.is_some()).count();
    let close = server.handle(
        &MechanismRequest {
            tenant: 0,
            body: RequestBody::CloseSession { session: 1 },
        },
        &mut scratch,
    );
    // The session rule: the answers used units(ε₁ + ε₂·a/k), and the rest
    // of the units(ε) debited at open comes back.
    let used = units(svt.epsilon1() + svt.epsilon2() * answered as f64 / 4.0);
    assert_eq!(
        close,
        MechanismResponse::SessionClosed {
            session: 1,
            released: to_epsilon(units(svt.epsilon()) - used)
        }
    );
    assert_eq!(server.spent(0), Some(to_epsilon(used)));
}

/// Per-tenant responses must not depend on how requests from *different*
/// tenants interleave: serving tenant 0's script before tenant 1's, or
/// alternating them request by request, yields bit-identical responses —
/// the sequential reference behind the derived-sub-stream design.
#[test]
fn tenant_responses_are_independent_of_cross_tenant_interleaving() {
    let mech = NoisyTopKWithGap::new(3, 0.7, true).unwrap();
    let queries: Vec<f64> = (0..16).map(|j| 100.0 - 3.0 * j as f64).collect();
    let mut script: Vec<MechanismRequest> = Vec::new();
    for t in 0..2u64 {
        for _ in 0..6 {
            script.push(MechanismRequest {
                tenant: t,
                body: RequestBody::Call {
                    mechanism: mech.into(),
                    queries: queries.clone(),
                },
            });
        }
    }
    let serve = |order: Vec<usize>| -> Vec<(u64, MechanismResponse)> {
        let server = QueryServer::new(42);
        server.register_tenant(0, 100.0).unwrap();
        server.register_tenant(1, 100.0).unwrap();
        let mut scratch = WorkerScratch::new();
        order
            .into_iter()
            .map(|idx| {
                let req = &script[idx];
                (req.tenant, server.handle(req, &mut scratch))
            })
            .collect()
    };
    // Sequential: all of tenant 0, then all of tenant 1.
    let sequential = serve((0..12).collect());
    // Interleaved: 0, 6, 1, 7, 2, 8, ...
    let interleaved = serve((0..6).flat_map(|i| [i, i + 6]).collect());
    for t in 0..2u64 {
        let a: Vec<_> = sequential.iter().filter(|(rt, _)| *rt == t).collect();
        let b: Vec<_> = interleaved.iter().filter(|(rt, _)| *rt == t).collect();
        assert_eq!(a, b, "tenant {t} responses diverged under interleaving");
    }
}

#[test]
fn budget_rejections_are_typed_and_leave_state_unchanged() {
    let server = QueryServer::new(9);
    server.register_tenant(0, 1.0).unwrap();
    let mech = NoisyTopKWithGap::new(3, 0.7, true).unwrap();
    let queries: Vec<f64> = (0..8).map(|j| 50.0 - j as f64).collect();
    let call = MechanismRequest {
        tenant: 0,
        body: RequestBody::Call {
            mechanism: mech.into(),
            queries,
        },
    };
    let mut scratch = WorkerScratch::new();
    assert!(matches!(
        server.handle(&call, &mut scratch),
        MechanismResponse::Output(_)
    ));
    // Second call needs 0.7 of the remaining 0.3: typed budget rejection.
    let rejected = server.handle(&call, &mut scratch);
    assert!(rejected.is_budget_rejected());
    let MechanismResponse::Rejected(RejectReason::Budget(
        free_gap_core::MechanismError::BudgetExhausted {
            requested,
            remaining,
        },
    )) = rejected
    else {
        panic!("expected typed budget rejection, got {rejected:?}");
    };
    assert!((requested - 0.7).abs() < 1e-12);
    assert!((remaining - 0.3).abs() < 1e-12);
    // The failed request debited nothing.
    assert!((server.remaining(0).unwrap() - 0.3).abs() < 1e-12);
    // Unknown tenants are their own rejection.
    let stray = MechanismRequest {
        tenant: 99,
        body: RequestBody::CloseSession { session: 0 },
    };
    assert_eq!(
        server.handle(&stray, &mut scratch),
        MechanismResponse::Rejected(RejectReason::UnknownTenant)
    );
}

/// A second registration of a live tenant id is rejected by name — not
/// reported as a budget-split error — and leaves the first tenant's ledger
/// as it was.
#[test]
fn registering_a_tenant_twice_is_rejected_by_name() {
    let server = QueryServer::new(9);
    server.register_tenant(3, 2.0).unwrap();
    let call = MechanismRequest {
        tenant: 3,
        body: RequestBody::Call {
            mechanism: NoisyTopKWithGap::new(3, 0.5, true).unwrap().into(),
            queries: (0..8).map(|j| 50.0 - j as f64).collect(),
        },
    };
    let mut scratch = WorkerScratch::new();
    assert!(matches!(
        server.handle(&call, &mut scratch),
        MechanismResponse::Output(_)
    ));
    let err = server.register_tenant(3, 5.0).unwrap_err();
    assert!(
        matches!(
            err,
            free_gap_core::MechanismError::InvalidParameter { name: "tenant", .. }
        ),
        "{err:?}"
    );
    let message = err.to_string();
    assert!(message.contains("tenant"), "{message}");
    assert!(!message.contains("split"), "{message}");
    assert_eq!(server.spent(3), Some(0.5));
    assert_eq!(server.remaining(3), Some(1.5));
}

/// A staircase call whose per-query budget rounds away (`e^{-ε/n}` is 1.0
/// in `f64` for ε = 1e-12 over 20,000 queries) is a typed invalid-request
/// rejection with the debit refunded — not a panic that takes the worker
/// down and keeps the tenant's ε.
#[test]
fn an_unrepresentable_staircase_batch_is_rejected_and_refunded() {
    let server = QueryServer::new(5);
    server.register_tenant(0, 1.0).unwrap();
    let mech = StaircaseMechanism::new(1e-12).unwrap();
    let mut scratch = WorkerScratch::new();
    let call = |queries: Vec<f64>| MechanismRequest {
        tenant: 0,
        body: RequestBody::Call {
            mechanism: mech.into(),
            queries,
        },
    };
    let response = server.handle(&call(vec![1.0; 20_000]), &mut scratch);
    assert_eq!(
        response,
        MechanismResponse::Rejected(RejectReason::Invalid(
            free_gap_core::MechanismError::InvalidEpsilon {
                value: 1e-12 / 20_000.0
            }
        ))
    );
    assert_eq!(server.remaining(0), Some(1.0));
    assert_eq!(server.spent(0), Some(0.0));
    // The tenant and the worker keep serving: a short batch at the same ε
    // is answered and debited.
    // It costs one whole nano-ε unit, the least any call costs.
    let response = server.handle(&call(vec![1.0; 4]), &mut scratch);
    assert!(matches!(response, MechanismResponse::Output(_)));
    assert_eq!(server.spent(0), Some(1e-9));
}

/// Once a tenant's ε is spent, no call gets through at any ε, however
/// small: each costs at least one nano-ε unit. (A relative slack in the
/// accountant used to let 5e-13-ε calls through without bound.)
#[test]
fn a_spent_tenant_cannot_call_at_a_vanishing_epsilon() {
    let server = QueryServer::new(5);
    server.register_tenant(0, 1.0).unwrap();
    let mut scratch = WorkerScratch::new();
    let queries: Vec<f64> = (0..8).map(|j| 50.0 - j as f64).collect();
    let call = |epsilon: f64| MechanismRequest {
        tenant: 0,
        body: RequestBody::Call {
            mechanism: NoisyTopKWithGap::new(3, epsilon, true).unwrap().into(),
            queries: queries.clone(),
        },
    };
    let response = server.handle(&call(1.0), &mut scratch);
    assert!(matches!(response, MechanismResponse::Output(_)));
    let tiny = call(5e-13);
    let answered = (0..100_000)
        .filter(|_| !server.handle(&tiny, &mut scratch).is_budget_rejected())
        .count();
    assert_eq!(answered, 0);
    assert_eq!(server.spent(0), Some(1.0));
}

/// A NaN or infinite answer used to corrupt selection and the SVT scans
/// (a NaN resets the Top-K `>=` scan and is never `⊤`; a `+∞` clears any
/// SVT threshold and releases an infinite gap). Every mechanism now
/// rejects such a request before drawing, and the server refunds the debit
/// in full. An open session rejects such a feed whole, before it sees any
/// query: the session's state and idle clock stay as they were, so a later
/// finite feed decides exactly as in a session that never saw the rejected
/// one, and the ledger does not move.
#[test]
fn a_non_finite_request_is_rejected_and_refunded() {
    let server = QueryServer::new(5);
    server.register_tenant(0, 10.0).unwrap();
    let mut scratch = WorkerScratch::new();
    let exponential = ExponentialMechanism::new(0.25, true).unwrap();
    let mechanisms: [AnyMechanism; 10] = [
        NoisyTopKWithGap::new(1, 0.25, true).unwrap().into(),
        ClassicNoisyTopK::new(1, 0.25, true).unwrap().into(),
        DiscreteNoisyTopKWithGap::new(1, 0.25, true).unwrap().into(),
        ExponentialTopK::new(exponential, 1).unwrap().into(),
        StaircaseMechanism::new(0.25).unwrap().into(),
        SparseVectorWithGap::new(1, 0.25, 5.0, true).unwrap().into(),
        ClassicSparseVector::new(1, 0.25, 5.0, true).unwrap().into(),
        AdaptiveSparseVector::new(1, 0.25, 5.0, true)
            .unwrap()
            .into(),
        MultiBranchAdaptiveSparseVector::new(1, 0.25, 5.0, true, 3)
            .unwrap()
            .into(),
        DiscreteSparseVectorWithGap::new(1, 0.25, 5.0, true)
            .unwrap()
            .into(),
    ];
    let call = |mechanism: AnyMechanism, queries: Vec<f64>| MechanismRequest {
        tenant: 0,
        body: RequestBody::Call { mechanism, queries },
    };
    for mechanism in mechanisms {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let response = server.handle(&call(mechanism, vec![10.0, bad, 3.0, 2.0]), &mut scratch);
            assert!(
                matches!(
                    response,
                    MechanismResponse::Rejected(RejectReason::Invalid(
                        MechanismError::NonFiniteUtility { index: 1, .. }
                    ))
                ),
                "{}: {response:?}",
                mechanism.name()
            );
            assert_eq!(server.spent(0), Some(0.0));
        }
    }
    // The tenant keeps serving: each finite request is answered and debited.
    for mechanism in mechanisms {
        let response = server.handle(&call(mechanism, vec![10.0, 4.0, 3.0, 2.0]), &mut scratch);
        assert!(
            matches!(response, MechanismResponse::Output(_)),
            "{response:?}"
        );
    }
    assert_eq!(server.spent(0), Some(2.5));

    let svt = SparseVectorWithGap::new(2, 0.5, 5.0, true).unwrap();
    let request = |body: RequestBody| MechanismRequest { tenant: 0, body };
    let feed = |queries: Vec<f64>| {
        request(RequestBody::Feed {
            session: 1,
            queries,
        })
    };
    let finite = vec![1.0, 9.0, 4.0, 30.0, 6.0, 2.0];
    let mut serve = |rejected_feeds: &[Vec<f64>]| {
        let server = QueryServer::new(9);
        server.register_tenant(0, 1.0).unwrap();
        server.handle(
            &request(RequestBody::OpenSession { session: 1, svt }),
            &mut scratch,
        );
        let spent = server.spent(0);
        for queries in rejected_feeds {
            let response = server.handle(&feed(queries.clone()), &mut scratch);
            assert!(
                matches!(
                    response,
                    MechanismResponse::Rejected(RejectReason::Invalid(
                        MechanismError::NonFiniteUtility { .. }
                    ))
                ),
                "{response:?}"
            );
            assert_eq!(server.spent(0), spent);
        }
        let decisions = server.handle(&feed(finite.clone()), &mut scratch);
        assert!(
            matches!(decisions, MechanismResponse::Decisions(_)),
            "{decisions:?}"
        );
        let closed = server.handle(
            &request(RequestBody::CloseSession { session: 1 }),
            &mut scratch,
        );
        (decisions, closed, server.spent(0))
    };
    let clean = serve(&[]);
    let poisoned = serve(&[
        vec![1.0, f64::NAN],
        vec![f64::INFINITY],
        vec![40.0, 3.0, f64::NEG_INFINITY],
    ]);
    assert_eq!(poisoned, clean);

    // A rejected feed does not refresh the idle clock: opened at tick 1 and
    // fed only non-finite batches at ticks 2 and 3, the session is evicted
    // at tick 4 under a two-tick horizon.
    let server = QueryServer::new(9).with_max_idle(2);
    server.register_tenant(0, 1.0).unwrap();
    server.handle(
        &request(RequestBody::OpenSession { session: 1, svt }),
        &mut scratch,
    );
    for _ in 0..2 {
        let response = server.handle(&feed(vec![f64::NAN]), &mut scratch);
        assert!(response.is_rejected() && !response.is_budget_rejected());
    }
    assert_eq!(
        server.handle(&feed(finite.clone()), &mut scratch),
        MechanismResponse::Rejected(RejectReason::UnknownSession)
    );
    assert_eq!(server.evictions(), 1);
    // An unknown session is reported as such, whatever the batch holds.
    assert_eq!(
        server.handle(&feed(vec![f64::NAN]), &mut scratch),
        MechanismResponse::Rejected(RejectReason::UnknownSession)
    );
}

/// The discrete mechanisms release gaps on the lattice `{kγ}`, so an
/// off-lattice answer's fractional part would reach the gap exactly (3.7
/// and 1.2 would release a Top-K gap of 2.5 plus integer noise). Each
/// rejects such a request before drawing, and the server refunds the debit
/// in full.
#[test]
fn an_off_lattice_discrete_request_is_rejected_and_refunded() {
    let server = QueryServer::new(5);
    server.register_tenant(0, 1.0).unwrap();
    let mut scratch = WorkerScratch::new();
    let requests: [(AnyMechanism, Vec<f64>); 2] = [
        (
            DiscreteNoisyTopKWithGap::new(1, 0.25, true).unwrap().into(),
            vec![3.7, 1.2, 0.4],
        ),
        (
            DiscreteSparseVectorWithGap::new(1, 0.25, 5.0, true)
                .unwrap()
                .into(),
            vec![3.7, 9.2, 0.4],
        ),
    ];
    let call = |mechanism: AnyMechanism, queries: Vec<f64>| MechanismRequest {
        tenant: 0,
        body: RequestBody::Call { mechanism, queries },
    };
    for (mechanism, queries) in &requests {
        let response = server.handle(&call(*mechanism, queries.clone()), &mut scratch);
        assert!(
            matches!(
                response,
                MechanismResponse::Rejected(RejectReason::Invalid(
                    MechanismError::InvalidParameter {
                        name: "answer",
                        value,
                        ..
                    }
                )) if value == 3.7
            ),
            "{response:?}"
        );
        assert_eq!(server.spent(0), Some(0.0));
    }
    // The same workloads rounded onto the lattice are answered and debited.
    for (mechanism, queries) in requests {
        let rounded = queries.iter().map(|q| q.round()).collect();
        let response = server.handle(&call(mechanism, rounded), &mut scratch);
        assert!(
            matches!(response, MechanismResponse::Output(_)),
            "{response:?}"
        );
    }
    assert_eq!(server.spent(0), Some(0.5));
}

/// The acceptance pin: a fixed-seed serve-bench run is bit-reproducible
/// across 1 vs 4 worker threads — same digest, same outcome counts — and
/// actually exercises rejections and evictions.
#[test]
fn serve_bench_is_bit_reproducible_across_worker_counts() {
    let mut config = ServeBenchConfig::quick(20190412);
    config.tenants = 4;
    config.requests_per_tenant = 150;
    config.epsilon_per_tenant = 0.45 * 150.0;
    let mut one = config;
    one.workers = 1;
    let mut four = config;
    four.workers = 4;
    let a = free_gap_serve::bench::run(&one).unwrap();
    let b = free_gap_serve::bench::run(&four).unwrap();
    assert_eq!(a.digest, b.digest, "digest diverged across worker counts");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.budget_rejected, b.budget_rejected);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.completed, a.planned);
    // The script is sized to overrun the budget and leak sessions.
    assert!(a.budget_rejected > 0, "no budget rejection exercised");
    assert!(a.evictions > 0, "no eviction exercised");
    assert!(a.rejected >= a.budget_rejected);
}

/// Different seeds must produce different digests (the digest actually
/// depends on the noise, not just the script shape).
#[test]
fn serve_bench_digest_depends_on_seed() {
    let mut config = ServeBenchConfig::quick(1);
    config.tenants = 2;
    config.requests_per_tenant = 40;
    config.epsilon_per_tenant = 40.0;
    let a = free_gap_serve::bench::run(&config).unwrap();
    config.seed = 2;
    let b = free_gap_serve::bench::run(&config).unwrap();
    assert_ne!(a.digest, b.digest);
}

/// The quick board's digest at the default seed, pinned: every response
/// bit of the scripted multi-tenant run (all ten mechanisms, SVT sessions,
/// rejections, evictions) folds into it, so a change that moves any served
/// output bit fails here. `repro serve-bench --quick` prints the same value.
#[test]
fn serve_bench_quick_digest_is_pinned() {
    let report = free_gap_serve::bench::run(&ServeBenchConfig::quick(20190412)).unwrap();
    assert_eq!(
        report.digest, 0xf935_4266_0fda_62ab,
        "serve-bench --quick digest moved: {:#018x}",
        report.digest
    );
}

/// The full board's digest and counts at the default seed, pinned: 8
/// tenants × 2,000 requests over 4 workers is the only scripted run with
/// several tenants per worker at four workers. `repro serve-bench` prints
/// the same values.
#[test]
fn serve_bench_full_digest_is_pinned() {
    let report = free_gap_serve::bench::run(&ServeBenchConfig::full(20190412)).unwrap();
    assert_eq!(
        report.digest, 0x1bbe_9ec3_3992_15b8,
        "serve-bench digest moved: {:#018x}",
        report.digest
    );
    assert_eq!(report.completed, 16_000);
    assert_eq!(report.rejected, 4_780);
    assert_eq!(report.budget_rejected, 3_403);
    assert_eq!(report.evictions, 213);
}
