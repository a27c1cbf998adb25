//! A seeded adversarial harness through `QueryServer::handle`.
//!
//! Each seed generates a request script for four tenants with a small idle
//! horizon: calls over all ten mechanisms at hostile budgets (ε from 5e-324
//! to 1e300, plus a fresh ε on every call), `k > n`, empty and off-lattice
//! workloads, some only 1e-10 off (which the two discrete mechanisms must
//! refuse), NaN and ±∞ answers in calls and feeds (which every mechanism
//! and every open session must refuse), duplicate opens, feeds and closes
//! to unknown, closed and evicted sessions, and idle runs that evict
//! sessions between feeds. A model of the accountant, in the ledger's
//! nano-ε units, predicts every response kind. For every seed the harness
//! asserts:
//!
//! * no panic;
//! * every response is of a kind the model allows for the verb sent, and
//!   session costs and credits are exactly the units the session rule
//!   gives;
//! * `spent ≤ total` after every response;
//! * once every session is closed, each tenant's spent units equal the
//!   units its answered calls cost plus, per session, `units(ε)` less its
//!   credit;
//! * each tenant's response digest, and the count of each response kind,
//!   is the same when the script is served from 1, 2 and 4 threads.
//!
//! The vendored `proptest` subset has no shrinking, so a failure prints
//! its seed; `check_seed(seed)` replays it.

use free_gap_core::api::{AnyMechanism, Mechanism};
use free_gap_core::budget::{to_epsilon, units};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::{ExponentialTopK, MechanismError};
use free_gap_noise::rng::splitmix64;
use free_gap_serve::server::RejectReason;
use free_gap_serve::{
    MechanismRequest, MechanismResponse, QueryServer, RequestBody, WorkerScratch,
};
use std::collections::BTreeMap;

const TENANTS: u64 = 4;
const TOTAL: f64 = 8.0;
const MAX_IDLE: u64 = 3;
const THRESHOLD: f64 = 50.0;
/// Session ids the script draws from, so duplicates and reuse are common.
const SESSION_IDS: u64 = 4;
/// A session id the script never opens.
const UNKNOWN: u64 = 99;
const ACTIONS_PER_TENANT: usize = 90;
const SEEDS: u64 = 256;

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A hostile budget: a decimal one, a vanishing or subnormal one, one
    /// past any total, or a fresh one no earlier call used.
    fn epsilon(&mut self) -> f64 {
        match self.below(8) {
            0 => 0.1,
            1 => 0.35,
            2 => 0.7,
            3 => 5e-13,
            4 => 5e-324,
            5 => 1e-320,
            6 => 1e300,
            _ => 1e-6 + 0.9 * self.unit(),
        }
    }

    /// Integer-valued answers, some far above the threshold so sessions get
    /// `⊤` answers. [`script`] moves one answer of some calls off the
    /// integer lattice. About one workload in eight has one answer
    /// replaced by a NaN or an infinity.
    fn queries(&mut self, max_len: u64) -> Vec<f64> {
        let n = self.below(max_len + 1);
        let mut queries: Vec<f64> = (0..n)
            .map(|_| match self.below(4) {
                0 => 1000.0,
                _ => self.below(100) as f64,
            })
            .collect();
        if n > 0 && self.below(8) == 0 {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            queries[self.below(n) as usize] = bad[self.below(3) as usize];
        }
        queries
    }
}

fn mechanism(which: u64, k: usize, eps: f64) -> Result<AnyMechanism, MechanismError> {
    Ok(match which {
        0 => NoisyTopKWithGap::new(k, eps, true)?.into(),
        1 => ClassicNoisyTopK::new(k, eps, true)?.into(),
        2 => DiscreteNoisyTopKWithGap::new(k, eps, true)?.into(),
        3 => ExponentialTopK::new(ExponentialMechanism::new(eps, true)?, k)?.into(),
        4 => StaircaseMechanism::new(eps)?.into(),
        5 => SparseVectorWithGap::new(k, eps, THRESHOLD, true)?.into(),
        6 => ClassicSparseVector::new(k, eps, THRESHOLD, true)?.into(),
        7 => AdaptiveSparseVector::new(k, eps, THRESHOLD, true)?.into(),
        8 => MultiBranchAdaptiveSparseVector::new(k, eps, THRESHOLD, true, 3)?.into(),
        _ => DiscreteSparseVectorWithGap::new(k, eps, THRESHOLD, true)?.into(),
    })
}

/// One tenant's script: a pure function of the seed and the tenant, ending
/// with a close of every session id so no session is left open.
fn script(seed: u64, tenant: u64) -> Vec<RequestBody> {
    let mut g = Gen(seed ^ tenant.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut out = Vec::new();
    for _ in 0..ACTIONS_PER_TENANT {
        let session = match g.below(8) {
            0 => UNKNOWN,
            _ => g.below(SESSION_IDS),
        };
        match g.below(100) {
            0..=39 => {
                let k = 1 + g.below(6) as usize;
                let eps = g.epsilon();
                let which = g.below(10);
                let mut queries = g.queries(8);
                if !queries.is_empty() && g.below(4) == 0 {
                    // A fractional part in [0.25, 0.75) or of 1e-10, which
                    // a rounding tolerance could let through: off the
                    // lattice (a non-finite answer stays non-finite).
                    let i = g.below(queries.len() as u64) as usize;
                    queries[i] += match g.below(2) {
                        0 => 0.25 + 0.5 * g.unit(),
                        _ => 1e-10,
                    };
                }
                match mechanism(which, k, eps) {
                    Ok(mechanism) => {
                        // The continuous SVT family's noise scales overflow
                        // at a subnormal ε, so it must refuse one.
                        assert!(
                            !((5..=8).contains(&which) && eps < f64::MIN_POSITIVE),
                            "mechanism {which} accepted ε = {eps:e}"
                        );
                        out.push(RequestBody::Call { mechanism, queries });
                    }
                    // A budget whose noise the mechanism cannot represent
                    // is refused at construction, before any request.
                    Err(MechanismError::InvalidEpsilon { .. }) => {}
                    Err(e) => panic!("mechanism {which} at ε = {eps:e}: {e:?}"),
                }
            }
            40..=54 => {
                let k = 1 + g.below(4) as usize;
                let eps = g.epsilon();
                match SparseVectorWithGap::new(k, eps, THRESHOLD, true) {
                    Ok(svt) => {
                        assert!(eps >= f64::MIN_POSITIVE, "session accepted ε = {eps:e}");
                        out.push(RequestBody::OpenSession { session, svt });
                    }
                    // Refused at construction, as for calls.
                    Err(MechanismError::InvalidEpsilon { .. }) => {}
                    Err(e) => panic!("session at ε = {eps:e}: {e:?}"),
                }
            }
            55..=74 => out.push(RequestBody::Feed {
                session,
                queries: g.queries(6),
            }),
            75..=86 => out.push(RequestBody::CloseSession { session }),
            _ => {
                // An idle run: clock ticks that touch no session.
                for _ in 0..=g.below(MAX_IDLE + 2) {
                    out.push(RequestBody::Feed {
                        session: UNKNOWN,
                        queries: vec![1.0],
                    });
                }
            }
        }
    }
    out.extend((0..SESSION_IDS).map(|session| RequestBody::CloseSession { session }));
    out
}

/// An open session as the model sees it.
struct Open {
    svt: SparseVectorWithGap,
    answered: usize,
    last_used: u64,
}

impl Open {
    /// The session rule: `units(ε) − units(ε₁ + ε₂·a/k)`, saturating.
    fn credit(&self) -> u128 {
        let used =
            self.svt.epsilon1() + self.svt.epsilon2() * self.answered as f64 / self.svt.k() as f64;
        units(self.svt.epsilon()).saturating_sub(units(used))
    }
}

/// The model of one tenant's accountant and sessions, in nano-ε units.
#[derive(Default)]
struct Model {
    clock: u64,
    spent: u128,
    /// Units the answered one-shot calls cost.
    calls: u128,
    /// Units closed or evicted sessions kept: `units(ε)` less the credit.
    sessions_kept: u128,
    /// Closed or evicted sessions that had answered above the threshold.
    answered_sessions: u64,
    open: BTreeMap<u64, Open>,
}

impl Model {
    fn close(&mut self, id: u64) -> Option<u128> {
        let open = self.open.remove(&id)?;
        let credit = open.credit();
        self.answered_sessions += u64::from(open.answered > 0);
        self.spent -= credit;
        self.sessions_kept += units(open.svt.epsilon()) - credit;
        Some(credit)
    }

    /// Advances the clock, evicts idle sessions, and checks `resp` against
    /// what the verb allows, updating the model. Returns a description of
    /// the mismatch, if any.
    fn step(&mut self, body: &RequestBody, resp: &MechanismResponse) -> Result<(), String> {
        self.clock += 1;
        let now = self.clock;
        let idle: Vec<u64> = self
            .open
            .iter()
            .filter(|(_, s)| now - s.last_used > MAX_IDLE)
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            self.close(id);
        }
        let left = units(TOTAL) - self.spent;
        let ok = match (body, resp) {
            (RequestBody::Call { mechanism, queries }, resp) => {
                let debit = units(mechanism.cost());
                // The discrete mechanisms release lattice gaps, so they
                // refuse any answer off the integer lattice.
                let off_lattice = matches!(
                    mechanism,
                    AnyMechanism::DiscreteNoisyTopKWithGap(_)
                        | AnyMechanism::DiscreteSparseVectorWithGap(_)
                ) && queries.iter().any(|q| q.fract() != 0.0);
                // No mechanism answers a NaN or an infinity.
                let non_finite = queries.iter().any(|q| !q.is_finite());
                match resp {
                    MechanismResponse::Rejected(RejectReason::Budget(_)) => debit > left,
                    MechanismResponse::Rejected(RejectReason::Invalid(
                        MechanismError::NonFiniteUtility { index, value },
                    )) => {
                        debit <= left
                            && !value.is_finite()
                            && queries
                                .get(*index)
                                .is_some_and(|q| q.to_bits() == value.to_bits())
                    }
                    MechanismResponse::Rejected(RejectReason::Invalid(_)) => debit <= left,
                    MechanismResponse::Output(_)
                        if debit <= left && !off_lattice && !non_finite =>
                    {
                        self.spent += debit;
                        self.calls += debit;
                        true
                    }
                    _ => false,
                }
            }
            (RequestBody::OpenSession { session, svt }, resp) => {
                let debit = units(svt.epsilon());
                match resp {
                    MechanismResponse::Rejected(RejectReason::SessionExists) => {
                        self.open.contains_key(session)
                    }
                    MechanismResponse::Rejected(RejectReason::Budget(_)) => {
                        !self.open.contains_key(session) && debit > left
                    }
                    MechanismResponse::SessionOpened { session: s, cost }
                        if s == session
                            && *cost == to_epsilon(debit)
                            && !self.open.contains_key(session)
                            && debit <= left =>
                    {
                        self.spent += debit;
                        let open = Open {
                            svt: *svt,
                            answered: 0,
                            last_used: now,
                        };
                        self.open.insert(*session, open);
                        true
                    }
                    _ => false,
                }
            }
            (RequestBody::Feed { session, queries }, resp) => {
                let non_finite = queries.iter().any(|q| !q.is_finite());
                match (self.open.get_mut(session), resp) {
                    (None, MechanismResponse::Rejected(RejectReason::UnknownSession)) => true,
                    // A non-finite batch is refused whole: the session, its
                    // answers and its idle clock are untouched.
                    (
                        Some(_),
                        MechanismResponse::Rejected(RejectReason::Invalid(
                            MechanismError::NonFiniteUtility { .. },
                        )),
                    ) => non_finite,
                    (Some(open), MechanismResponse::Decisions(decisions))
                        if !non_finite && decisions.len() <= queries.len() =>
                    {
                        open.answered += decisions.iter().filter(|d| d.is_some()).count();
                        open.last_used = now;
                        open.answered <= open.svt.k()
                    }
                    _ => false,
                }
            }
            (RequestBody::CloseSession { session }, resp) => match (self.close(*session), resp) {
                (None, MechanismResponse::Rejected(RejectReason::UnknownSession)) => true,
                (
                    Some(credit),
                    MechanismResponse::SessionClosed {
                        session: s,
                        released,
                    },
                ) => s == session && *released == to_epsilon(credit),
                _ => false,
            },
        };
        if ok {
            Ok(())
        } else {
            Err(format!("tick {now}: {body:?} answered {resp:?}"))
        }
    }
}

fn new_server(seed: u64) -> QueryServer {
    let server = QueryServer::new(seed).with_max_idle(MAX_IDLE);
    for t in 0..TENANTS {
        server.register_tenant(t, TOTAL).expect("valid tenant");
    }
    server
}

/// Serves `tenants`' scripts round-robin from one thread; returns each
/// tenant's response-digest fold, and checks each response with `check`.
fn serve(
    server: &QueryServer,
    scripts: &[Vec<RequestBody>],
    tenants: &[u64],
    mut check: impl FnMut(u64, &RequestBody, &MechanismResponse),
) -> Vec<(u64, u64)> {
    let mut worker = WorkerScratch::new();
    let mut folds: Vec<(u64, u64)> = tenants.iter().map(|&t| (t, t)).collect();
    let longest = tenants.iter().map(|&t| scripts[t as usize].len()).max();
    for i in 0..longest.unwrap_or(0) {
        for (t, fold) in folds.iter_mut() {
            let Some(body) = scripts[*t as usize].get(i) else {
                continue;
            };
            let req = MechanismRequest {
                tenant: *t,
                body: body.clone(),
            };
            let resp = server.handle(&req, &mut worker);
            check(*t, body, &resp);
            *fold = resp.digest(*fold);
        }
    }
    folds
}

/// Serves the script from `threads` threads, each owning a contiguous run
/// of tenants; returns the digest folds sorted by tenant and how often each
/// response kind occurred.
fn serve_threaded(
    seed: u64,
    scripts: &[Vec<RequestBody>],
    threads: u64,
) -> (Vec<(u64, u64)>, [u64; RESPONSE_KINDS]) {
    let server = new_server(seed);
    let mut folds = Vec::new();
    let mut tally = [0; RESPONSE_KINDS];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let mine: Vec<u64> = (0..TENANTS)
                    .filter(|t| t * threads / TENANTS == w)
                    .collect();
                let server = &server;
                scope.spawn(move || {
                    let mut seen = [0; RESPONSE_KINDS];
                    let folds = serve(server, scripts, &mine, |_, _, resp| seen[kind(resp)] += 1);
                    (folds, seen)
                })
            })
            .collect();
        for handle in handles {
            let (mine, seen) = handle.join().expect("a serving thread panicked");
            folds.extend(mine);
            tally.iter_mut().zip(seen).for_each(|(n, s)| *n += s);
        }
    });
    folds.sort_unstable();
    (folds, tally)
}

/// Response kinds the scripts must reach, so the harness cannot pass by
/// exercising nothing. The first [`RESPONSE_KINDS`] are what [`kind`]
/// classifies a response as; the last two are counted from the server and
/// the model.
const KINDS: [&str; 12] = [
    "output",
    "opened",
    "decisions",
    "closed",
    "unknown session",
    "session exists",
    "budget",
    "invalid",
    "off-lattice answer",
    "non-finite answer",
    "eviction",
    "release after a ⊤ answer",
];
const RESPONSE_KINDS: usize = 10;

fn kind(resp: &MechanismResponse) -> usize {
    match resp {
        MechanismResponse::Output(_) => 0,
        MechanismResponse::SessionOpened { .. } => 1,
        MechanismResponse::Decisions(_) => 2,
        MechanismResponse::SessionClosed { .. } => 3,
        MechanismResponse::Rejected(RejectReason::UnknownSession) => 4,
        MechanismResponse::Rejected(RejectReason::SessionExists) => 5,
        MechanismResponse::Rejected(RejectReason::Budget(_)) => 6,
        MechanismResponse::Rejected(RejectReason::Invalid(MechanismError::InvalidParameter {
            name: "answer",
            ..
        })) => 8,
        MechanismResponse::Rejected(RejectReason::Invalid(MechanismError::NonFiniteUtility {
            ..
        })) => 9,
        MechanismResponse::Rejected(RejectReason::Invalid(_)) => 7,
        MechanismResponse::Rejected(RejectReason::UnknownTenant) => unreachable!(),
    }
}

/// Checks one seed; returns how often each of [`KINDS`] occurred.
fn check_seed(seed: u64) -> [u64; 12] {
    let scripts: Vec<Vec<RequestBody>> = (0..TENANTS).map(|t| script(seed, t)).collect();
    let server = new_server(seed);
    let mut models: Vec<Model> = (0..TENANTS).map(|_| Model::default()).collect();
    let tenants: Vec<u64> = (0..TENANTS).collect();
    let mut tally = [0; 12];
    let reference = serve(&server, &scripts, &tenants, |t, body, resp| {
        if let Err(e) = models[t as usize].step(body, resp) {
            panic!("tenant {t}: {e}");
        }
        tally[kind(resp)] += 1;
        let spent = server.spent(t).expect("registered tenant");
        assert!(spent <= TOTAL, "tenant {t}: spent {spent} > {TOTAL}");
    });
    tally[10] = server.evictions();
    tally[11] = models.iter().map(|m| m.answered_sessions).sum();
    for (t, model) in models.iter().enumerate() {
        let t = t as u64;
        assert!(model.open.is_empty(), "tenant {t}: the model kept sessions");
        assert_eq!(server.open_sessions(t), Some(0), "tenant {t}");
        assert_eq!(
            server.spent(t),
            Some(to_epsilon(model.calls + model.sessions_kept)),
            "tenant {t}: spent units are not the calls' plus the sessions'"
        );
    }
    for threads in [2, 4] {
        let (folds, seen) = serve_threaded(seed, &scripts, threads);
        assert_eq!(folds, reference, "digests moved at {threads} threads");
        assert_eq!(
            seen,
            tally[..RESPONSE_KINDS],
            "response kinds moved at {threads} threads"
        );
    }
    tally
}

#[test]
fn adversarial_scripts_keep_the_ledger_exact_and_the_digests_fixed() {
    let mut tally = [0; 12];
    for i in 0..SEEDS {
        let seed = splitmix64(&mut (0xAD5E_ED00 + i));
        match std::panic::catch_unwind(|| check_seed(seed)) {
            Ok(seen) => tally.iter_mut().zip(seen).for_each(|(n, s)| *n += s),
            Err(panic) => {
                eprintln!(
                    "adversarial harness failed at seed {seed:#018x}; replay with check_seed"
                );
                std::panic::resume_unwind(panic);
            }
        }
    }
    for (name, n) in KINDS.iter().zip(tally) {
        assert!(n > 0, "no {name} in {SEEDS} seeds: {tally:?}");
    }
}
