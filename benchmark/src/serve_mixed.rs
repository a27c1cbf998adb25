//! `serve-mixed`: [`CLIENTS`] client threads calling
//! `QueryServer::handle` in-process for [`TENANTS`] tenants, each client
//! driving its own half of the tenants round-robin through their scripts
//! in a closed loop.
//!
//! Correctness: every response must be of the kind the script expects,
//! `spent ≤ total` must hold for every tenant at the end, and the ordered
//! response-digest fold of a seed-chosen quarter of the tenants must equal
//! a one-thread replay of the same script prefix on a fresh server
//! (responses are a function of the tenant's own request order).

use crate::stats::Windows;
use crate::trace::SpanLog;
use crate::workloads::{
    self, Expect, ServeScript, BLOCK, CLIENTS, MAX_IDLE, TENANTS, TENANT_BUDGET,
};
use free_gap_core::MechanismError;
use free_gap_noise::rng::splitmix64;
use free_gap_serve::{MechanismResponse, QueryServer, RequestBody, WorkerScratch};
use std::time::{Duration, Instant};

/// Script requests each tenant serves during set-up (warm-up).
const WARM_REQUESTS: u64 = BLOCK;

/// Request kinds of the traced counts.
pub const KINDS: [&str; 4] = ["call", "open", "feed", "close"];

/// Per-request counts of a traced run.
#[derive(Debug, Clone, Default)]
pub struct ServeCounts {
    /// Requests by [`KINDS`] index.
    pub requests: [u64; 4],
    /// Calls by `(grid index, wide)`.
    pub calls: Vec<[u64; 2]>,
    /// Queries of the wide calls.
    pub wide_queries: u64,
    pub feed_queries: u64,
    pub budget_rejects: u64,
    /// Closes that returned budget to the ledger.
    pub releases: u64,
}

impl ServeCounts {
    fn new(grid: usize) -> Self {
        Self {
            calls: vec![[0; 2]; grid],
            ..Self::default()
        }
    }

    fn merge(&mut self, o: &ServeCounts) {
        for (a, b) in self.requests.iter_mut().zip(o.requests) {
            *a += b;
        }
        for (a, b) in self.calls.iter_mut().zip(&o.calls) {
            a[0] += b[0];
            a[1] += b[1];
        }
        self.wide_queries += o.wide_queries;
        self.feed_queries += o.feed_queries;
        self.budget_rejects += o.budget_rejects;
        self.releases += o.releases;
    }

    pub fn total(&self) -> u64 {
        self.requests.iter().sum()
    }
}

/// The server after set-up, with each tenant's script position and fold.
#[derive(Debug)]
pub struct ServeState {
    pub seed: u64,
    pub script: ServeScript,
    pub server: QueryServer,
    /// Next script index per tenant.
    pub next: Vec<u64>,
    pub folds: Vec<u64>,
    /// Responses of the wrong kind so far.
    pub failed: u64,
}

fn new_server(seed: u64) -> Result<QueryServer, MechanismError> {
    let server = QueryServer::new(seed).with_max_idle(MAX_IDLE);
    for t in 0..TENANTS {
        server.register_tenant(t, TENANT_BUDGET)?;
    }
    Ok(server)
}

fn fold_seed(t: u64) -> u64 {
    let mut s = t ^ 0xD16E_57ED;
    splitmix64(&mut s)
}

/// True when `resp` is the kind the script expects.
pub fn kind_ok(resp: &MechanismResponse, expect: Expect) -> bool {
    match expect {
        Expect::Output => matches!(resp, MechanismResponse::Output(_)),
        Expect::Opened => matches!(resp, MechanismResponse::SessionOpened { .. }),
        Expect::Decisions => matches!(resp, MechanismResponse::Decisions(_)),
        Expect::Closed => matches!(resp, MechanismResponse::SessionClosed { .. }),
        Expect::BudgetRejected => resp.is_budget_rejected(),
    }
}

/// Set-up: dataset, script, server, tenant registration, warm-up.
pub fn setup(seed: u64) -> Result<ServeState, MechanismError> {
    let script = ServeScript::new(seed, workloads::bms_pos_counts(workloads::DATASET_SEED))?;
    let server = new_server(seed)?;
    let mut st = ServeState {
        seed,
        script,
        server,
        next: vec![0; TENANTS as usize],
        folds: (0..TENANTS).map(fold_seed).collect(),
        failed: 0,
    };
    let mut worker = WorkerScratch::new();
    for t in 0..TENANTS {
        for i in 0..WARM_REQUESTS {
            let (req, expect) = st.script.request(t, i);
            let resp = st.server.handle(&req, &mut worker);
            st.failed += u64::from(!kind_ok(&resp, expect));
            st.folds[t as usize] = resp.digest(st.folds[t as usize]);
        }
        st.next[t as usize] = WARM_REQUESTS;
    }
    Ok(st)
}

/// What one measured loop observed.
#[derive(Debug)]
pub struct ServeResult {
    pub ops: u64,
    pub failed: u64,
    /// One per client.
    pub windows: Vec<Windows>,
    /// Present for a traced loop.
    pub counts: Option<ServeCounts>,
    pub evictions: u64,
    pub spans: Option<SpanLog>,
}

struct ClientOut {
    tenants: Vec<(u64, u64, u64)>,
    ops: u64,
    failed: u64,
    windows: Windows,
    counts: ServeCounts,
    spans: SpanLog,
}

fn kind_index(body: &RequestBody) -> usize {
    match body {
        RequestBody::Call { .. } => 0,
        RequestBody::OpenSession { .. } => 1,
        RequestBody::Feed { .. } => 2,
        RequestBody::CloseSession { .. } => 3,
    }
}

fn client(
    st: &ServeState,
    mine: Vec<(u64, u64, u64)>,
    start: Instant,
    total: Duration,
    traced: bool,
) -> ClientOut {
    let deadline = start + total;
    let mut worker = WorkerScratch::new();
    // Latency samples are seeded by the client's first tenant.
    let sample_seed = st.seed ^ mine.first().map_or(0, |&(t, ..)| t);
    let mut out = ClientOut {
        tenants: mine,
        ops: 0,
        failed: 0,
        windows: Windows::new(start, total, sample_seed),
        counts: ServeCounts::new(st.script.grid.len()),
        spans: SpanLog::new(start),
    };
    let mut now = Instant::now();
    'run: loop {
        for slot in 0..out.tenants.len() {
            if now >= deadline {
                break 'run;
            }
            let (t, i, fold) = out.tenants[slot];
            let (req, expect) = st.script.request(t, i);
            let t0 = Instant::now();
            let resp = st.server.handle(&req, &mut worker);
            let t1 = Instant::now();
            let ns = t1.duration_since(t0).as_nanos() as u64;
            out.windows.record(t1, ns as f64 / 1e3);
            out.windows.calibrate();
            out.ops += 1;
            out.failed += u64::from(!kind_ok(&resp, expect));
            out.tenants[slot] = (t, i + 1, resp.digest(fold));
            if traced {
                let kind = kind_index(&req.body);
                let c = &mut out.counts;
                c.requests[kind] += 1;
                c.budget_rejects += u64::from(resp.is_budget_rejected());
                match (&req.body, &resp) {
                    (RequestBody::Call { mechanism, queries }, MechanismResponse::Output(_)) => {
                        let wide = queries.len() > workloads::CALL_LEN;
                        if let Some(g) = st.script.grid.iter().position(|m| m == mechanism) {
                            c.calls[g][usize::from(wide)] += 1;
                        }
                        if wide {
                            c.wide_queries += queries.len() as u64;
                        }
                    }
                    (RequestBody::Feed { queries, .. }, _) => {
                        c.feed_queries += queries.len() as u64
                    }
                    (_, MechanismResponse::SessionClosed { released, .. }) => {
                        c.releases += u64::from(*released > 0.0);
                    }
                    _ => {}
                }
                out.spans.op = t << 32 | i;
                out.spans.record(KINDS[kind], t0, ns);
            }
            now = t1;
        }
    }
    out
}

/// Runs the closed loop for `seconds` from `CLIENTS` threads.
pub fn run_loop(st: &mut ServeState, seconds: f64, traced: bool) -> ServeResult {
    let total = Duration::from_secs_f64(seconds);
    let evictions_before = st.server.evictions();
    let per_client: Vec<Vec<(u64, u64, u64)>> = (0..CLIENTS)
        .map(|w| {
            (0..TENANTS)
                .filter(|&t| (t as usize * CLIENTS / TENANTS as usize) == w)
                .map(|t| (t, st.next[t as usize], st.folds[t as usize]))
                .collect()
        })
        .collect();
    let start = Instant::now();
    let shared: &ServeState = st;
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .into_iter()
            .map(|mine| scope.spawn(move || client(shared, mine, start, total, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut res = ServeResult {
        ops: 0,
        failed: 0,
        windows: Vec::with_capacity(outs.len()),
        counts: traced.then(|| ServeCounts::new(st.script.grid.len())),
        evictions: 0,
        spans: traced.then(|| SpanLog::new(start)),
    };
    for o in outs {
        res.ops += o.ops;
        res.failed += o.failed;
        res.windows.push(o.windows);
        if let Some(c) = res.counts.as_mut() {
            c.merge(&o.counts);
        }
        if let Some(s) = res.spans.as_mut() {
            s.spans.extend(o.spans.spans);
            s.dropped += o.spans.dropped;
        }
        for (t, i, fold) in o.tenants {
            st.next[t as usize] = i;
            st.folds[t as usize] = fold;
        }
    }
    res.evictions = st.server.evictions() - evictions_before;
    res
}

/// Tenants a run replays: one in this many, chosen by the seed, so the
/// one-thread replay costs a fraction of the measured time while every
/// tenant is covered across seeds.
const REPLAY_EVERY: u64 = 4;

/// Checks every tenant's `spent ≤ total`, and replays the served script
/// prefix of the seed's share of the tenants on a fresh server from one
/// thread; returns the number of tenants that fail, by a spent budget over
/// its total or a fold or spent budget that differs from the replay.
pub fn check_replay(st: &ServeState) -> Result<u64, MechanismError> {
    let replay = new_server(st.seed)?;
    let mut worker = WorkerScratch::new();
    let mut failed = 0;
    for t in 0..TENANTS {
        let spent = st.server.spent(t);
        let mut ok = spent.is_some_and(|s| s <= TENANT_BUDGET);
        if t % REPLAY_EVERY == st.seed % REPLAY_EVERY {
            let mut fold = fold_seed(t);
            for i in 0..st.next[t as usize] {
                let (req, _) = st.script.request(t, i);
                fold = replay.handle(&req, &mut worker).digest(fold);
            }
            ok &= fold == st.folds[t as usize] && spent == replay.spent(t);
        }
        if !ok {
            eprintln!(
                "tenant {t} fails its check: spent {spent:?}, replay {:?}",
                replay.spent(t)
            );
            failed += 1;
        }
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_run_matches_a_one_thread_replay() {
        let mut st = setup(5).unwrap();
        assert_eq!(st.failed, 0);
        let res = run_loop(&mut st, 0.3, true);
        assert!(res.ops > 0);
        assert_eq!(res.failed, 0);
        assert_eq!(check_replay(&st).unwrap(), 0);
        let c = res.counts.unwrap();
        assert_eq!(c.total(), res.ops);
        assert!(c.budget_rejects > 0 && c.requests[1] > 0);
        // A tampered fold is caught in a replayed tenant (seed 5 replays
        // tenants 1, 5, 9, ...), not elsewhere.
        st.folds[3] ^= 1;
        assert_eq!(check_replay(&st).unwrap(), 0);
        st.folds[5] ^= 1;
        assert_eq!(check_replay(&st).unwrap(), 1);
    }
}
