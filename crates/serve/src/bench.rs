//! `repro serve-bench`: a closed-loop load generator over [`QueryServer`].
//!
//! Unlike a bare mechanism loop, this benchmark measures the *serving
//! layer*: per-request latency through the tenant lock, ledger debit,
//! derived sub-stream setup and mechanism dispatch, plus the rejection
//! counts a budget-enforcing server actually produces (tenants are
//! provisioned with less ε than their request script wants, so the tail of
//! every script is budget-rejected by design). Reported as p50/p95/p99
//! latency, not just runs/sec.
//!
//! ## Determinism
//!
//! Each tenant's request script is a pure function of `(tenant, request
//! index)`, tenants are partitioned across workers in contiguous runs by
//! the quotient rule `worker(t) = t × workers / tenants` (after clamping
//! the worker count to the tenant count, so no spawned worker ever idles),
//! and every worker drives its tenants round-robin in index order — so the
//! per-tenant request order is identical for any worker count. Combined
//! with the server's per-tenant derived noise sub-streams, the fold of
//! every response digest per tenant (XORed across tenants into
//! [`ServeBenchReport::digest`]) is bit-identical for 1 and 4 workers on
//! the same seed (`tests/serve.rs` pins this). Latencies are the only
//! numbers that vary run to run.
//!
//! Degenerate configurations (zero tenants, a zero/non-finite duration
//! cap, a non-positive QPS target) are rejected up front with
//! [`MechanismError::InvalidParameter`] instead of silently clamped,
//! and a worker thread that panics mid-run surfaces as
//! [`MechanismError::WorkerPanicked`] after every sibling is joined —
//! never a hang or an opaque propagated unwind.
//!
//! ## `BENCH_serve.json` protocol
//!
//! A single flat JSON object, schema `free-gap-serve/bench/v1`:
//! configuration echo (`seed`, `tenants`, `workers`,
//! `requests_per_tenant`, `epsilon_per_tenant`, `par_threshold` — `null`
//! when the parallel path is off), outcome counts
//! (`completed`, `rejected`, `budget_rejected`, `evictions`), the latency
//! quantiles in microseconds (`p50_us`/`p95_us`/`p99_us`), wall-clock
//! `elapsed_secs` with `requests_per_sec`, and the reproducibility
//! `digest` (hex). `truncated` records whether a `--duration` cap stopped
//! the script early (a truncated digest is only comparable to runs
//! truncated at the same point, so CI leaves the cap off).

use crate::server::{MechanismRequest, QueryServer, RequestBody, WorkerScratch};
use free_gap_core::api::AnyMechanism;
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::{ExponentialTopK, MechanismError};
use free_gap_noise::rng::{derive_fast_stream, splitmix64};
use rand::Rng;
use std::time::{Duration, Instant};

/// Configuration of one serve-bench run.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    /// Root seed: workload, thresholds and every tenant noise stream
    /// derive from it.
    pub seed: u64,
    /// Number of registered tenants.
    pub tenants: usize,
    /// Serving threads; tenants are partitioned by `tenant % workers`.
    pub workers: usize,
    /// Script length per tenant.
    pub requests_per_tenant: usize,
    /// Total privacy budget each tenant is provisioned with. The defaults
    /// cover roughly 60% of the script's demand, so budget rejections are
    /// exercised on every run.
    pub epsilon_per_tenant: f64,
    /// Optional wall-clock cap (`--duration`): workers stop issuing new
    /// requests once it elapses and the report is marked `truncated`.
    pub duration_cap_secs: Option<f64>,
    /// Optional aggregate request-rate target (`--qps`): workers pace
    /// themselves to `qps / workers` each. Affects timing only, never the
    /// per-tenant request order or digest.
    pub qps: Option<f64>,
    /// Optional opt-in (`--par-threshold`) to the server's intra-run
    /// parallel call path for one-shot calls with at least this many
    /// queries (see [`QueryServer::with_par_threshold`]). Changes the
    /// noise stream those calls draw, so the digest is only comparable
    /// between runs with the same setting.
    pub par_threshold: Option<usize>,
}

impl ServeBenchConfig {
    /// The full configuration: 8 tenants × 2000 requests over 4 workers.
    pub fn full(seed: u64) -> Self {
        Self::sized(seed, 8, 2000)
    }

    /// The CI smoke configuration (`--quick`): 4 tenants × 300 requests,
    /// same script shape and invariants, a fraction of the wall time.
    pub fn quick(seed: u64) -> Self {
        Self::sized(seed, 4, 300)
    }

    fn sized(seed: u64, tenants: usize, requests_per_tenant: usize) -> Self {
        Self {
            seed,
            tenants,
            workers: 4,
            requests_per_tenant,
            // The script demands ~0.72ε per request (see `script_request`);
            // provisioning 0.45 exhausts tenants ~60% through.
            epsilon_per_tenant: 0.45 * requests_per_tenant as f64,
            duration_cap_secs: None,
            qps: None,
            par_threshold: None,
        }
    }

    fn planned_requests(&self) -> usize {
        self.tenants * self.requests_per_tenant
    }

    /// Rejects degenerate configurations with a typed error before any
    /// tenant is registered or thread spawned: zero tenants would serve
    /// nothing, and a zero or non-finite duration cap / QPS target is
    /// always a mistyped flag, not a meaningful run.
    pub fn validate(&self) -> Result<(), MechanismError> {
        if self.tenants == 0 {
            return Err(MechanismError::InvalidParameter {
                name: "tenants",
                value: 0.0,
                requirement: "must be at least 1",
            });
        }
        if let Some(d) = self.duration_cap_secs {
            if !(d.is_finite() && d > 0.0) {
                return Err(MechanismError::InvalidParameter {
                    name: "duration",
                    value: d,
                    requirement: "must be a positive, finite number of seconds",
                });
            }
        }
        if let Some(q) = self.qps {
            if !(q.is_finite() && q > 0.0) {
                return Err(MechanismError::InvalidParameter {
                    name: "qps",
                    value: q,
                    requirement: "must be a positive, finite requests-per-second rate",
                });
            }
        }
        Ok(())
    }
}

/// The tenants worker `worker` owns under the contiguous quotient
/// partition `worker(t) = t × workers / tenants`. With `workers ≤
/// tenants` (the caller clamps) every worker owns at least one tenant —
/// unlike the old `tenant % workers` rule, which left workers idle
/// whenever there were fewer tenants than workers.
fn tenants_for_worker(tenants: usize, workers: usize, worker: usize) -> Vec<u64> {
    (0..tenants as u64)
        .filter(|&t| (t as usize).wrapping_mul(workers) / tenants == worker)
        .collect()
}

/// Spawns `workers` scoped threads over `body` and joins **every** handle
/// before returning, mapping the first panic to
/// [`MechanismError::WorkerPanicked`]. Joining each handle in a plain
/// loop matters: short-circuiting on the first failure would drop the
/// remaining handles back to the scope, which re-raises the captured
/// panic instead of returning the typed error.
fn run_partitioned<T, F>(workers: usize, body: F) -> Result<Vec<T>, MechanismError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || body(w))).collect();
        let mut out = Vec::with_capacity(workers);
        let mut panicked = None;
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(v) => out.push(v),
                Err(_) => {
                    panicked.get_or_insert(worker);
                }
            }
        }
        match panicked {
            None => Ok(out),
            Some(worker) => Err(MechanismError::WorkerPanicked { worker }),
        }
    })
}

/// The outcome of one serve-bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// Requests the script planned (`tenants × requests_per_tenant`).
    pub planned: usize,
    /// Requests actually served (less than `planned` only when a
    /// `--duration` cap truncated the run).
    pub completed: usize,
    /// Responses that were rejections of any kind.
    pub rejected: usize,
    /// The subset rejected specifically for budget exhaustion.
    pub budget_rejected: usize,
    /// Idle sessions the server evicted during the run.
    pub evictions: u64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Wall-clock duration of the serving phase.
    pub elapsed_secs: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
    /// XOR over tenants of each tenant's ordered response-digest fold —
    /// bit-identical across worker counts for a fixed seed and untruncated
    /// run.
    pub digest: u64,
    /// Whether a `--duration` cap stopped the script early.
    pub truncated: bool,
}

/// The per-call mechanism grid the script cycles through: all ten
/// mechanisms, at `k = 5`, over the shared
/// integer-valued workload (so the finite-precision mechanisms accept it).
fn script_grid(threshold: f64) -> Result<Vec<AnyMechanism>, free_gap_core::MechanismError> {
    let k = 5;
    Ok(vec![
        NoisyTopKWithGap::new(k, 0.7, true)?.into(),
        ClassicNoisyTopK::new(k, 0.7, true)?.into(),
        DiscreteNoisyTopKWithGap::new(k, 0.7, true)?.into(),
        ExponentialTopK::new(ExponentialMechanism::new(0.7, true)?, k)?.into(),
        StaircaseMechanism::new(0.7)?.into(),
        SparseVectorWithGap::new(k, 0.7, threshold, true)?.into(),
        ClassicSparseVector::new(k, 0.7, threshold, true)?.into(),
        AdaptiveSparseVector::new(k, 0.7, threshold, true)?.into(),
        MultiBranchAdaptiveSparseVector::new(k, 0.7, threshold, true, 3)?.into(),
        DiscreteSparseVectorWithGap::new(k, 0.7, threshold, true)?.into(),
    ])
}

/// Integer-valued Zipf-like counting workload shared by every call
/// (deterministic in the seed; integer so the discrete mechanisms accept
/// it without a parallel lattice copy).
fn synthetic_workload(seed: u64) -> Vec<f64> {
    let mut rng = derive_fast_stream(seed, 0x10AD);
    (0..64u64)
        .map(|j| (100_000.0 / (j + 1) as f64 + rng.gen_range(0.0..50.0)).round())
        .collect()
}

/// Mid-range threshold: descending rank 12 (≈ 2.4k for the script's
/// k = 5), on the integer lattice because the workload is.
fn rank_threshold(workload: &[f64]) -> f64 {
    let mut sorted = workload.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.reverse();
    sorted[12.min(sorted.len() - 1)]
}

/// Request `i` of tenant `t` — a pure function of `(t, i)`, which is what
/// makes the per-tenant response stream independent of worker count. Each
/// 13-request block mixes one-shot calls with a session lifecycle
/// (open → 3 feeds → close), and every 4th block leaks its session
/// unclosed so idle eviction is exercised too.
fn script_request(
    grid: &[AnyMechanism],
    svt: SparseVectorWithGap,
    workload: &[f64],
    t: u64,
    i: usize,
) -> MechanismRequest {
    let slot = i % 13;
    let body = match slot {
        5 => RequestBody::OpenSession {
            session: i as u64,
            svt,
        },
        6..=8 => RequestBody::Feed {
            session: (i - (slot - 5)) as u64,
            queries: feed_slice(workload, i),
        },
        9 if (i / 13) % 4 != 3 => RequestBody::CloseSession {
            session: (i - 4) as u64,
        },
        _ => RequestBody::Call {
            mechanism: grid[(t as usize + i) % grid.len()],
            queries: workload.to_vec(),
        },
    };
    MechanismRequest { tenant: t, body }
}

fn feed_slice(workload: &[f64], i: usize) -> Vec<f64> {
    let start = (i * 3) % (workload.len() - 4);
    workload[start..start + 4].to_vec()
}

#[derive(Debug, Default)]
struct WorkerStats {
    /// `(tenant, ordered digest fold)` for each tenant this worker owns.
    digests: Vec<(u64, u64)>,
    latencies_us: Vec<f64>,
    completed: usize,
    rejected: usize,
    budget_rejected: usize,
    truncated: bool,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    config: &ServeBenchConfig,
    server: &QueryServer,
    grid: &[AnyMechanism],
    svt: SparseVectorWithGap,
    workload: &[f64],
    worker: usize,
    workers: usize,
    start: Instant,
    deadline: Option<Instant>,
) -> WorkerStats {
    let mut scratch = WorkerScratch::new();
    let my_tenants = tenants_for_worker(config.tenants, workers, worker);
    let mut stats = WorkerStats {
        digests: my_tenants
            .iter()
            .map(|&t| {
                let mut s = t ^ 0xD16E_57ED;
                (t, splitmix64(&mut s))
            })
            .collect(),
        latencies_us: Vec::with_capacity(my_tenants.len() * config.requests_per_tenant),
        ..WorkerStats::default()
    };
    // The rate was validated up front; each of the `workers` live threads
    // paces itself to an equal share of it.
    let pace = config.qps.map(|q| workers as f64 / q);
    let mut issued = 0u64;
    'script: for i in 0..config.requests_per_tenant {
        for (slot, &t) in my_tenants.iter().enumerate() {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    stats.truncated = true;
                    break 'script;
                }
            }
            if let Some(interval) = pace {
                let due = start + Duration::from_secs_f64(interval * issued as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let req = script_request(grid, svt, workload, t, i);
            let begun = Instant::now();
            let resp = server.handle(&req, &mut scratch);
            stats.latencies_us.push(begun.elapsed().as_secs_f64() * 1e6);
            issued += 1;
            stats.completed += 1;
            if resp.is_rejected() {
                stats.rejected += 1;
                if resp.is_budget_rejected() {
                    stats.budget_rejected += 1;
                }
            }
            stats.digests[slot].1 = resp.digest(stats.digests[slot].1);
        }
    }
    stats
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Runs the closed-loop load generator: registers the tenants, serves each
/// tenant's deterministic request script from `config.workers` threads,
/// and aggregates latency quantiles, rejection counts and the
/// reproducibility digest.
pub fn run(config: &ServeBenchConfig) -> Result<ServeBenchReport, free_gap_core::MechanismError> {
    config.validate()?;
    let workload = synthetic_workload(config.seed);
    let threshold = rank_threshold(&workload);
    let grid = script_grid(threshold)?;
    // Sessions run a cheaper SVT than the call grid so open/close budget
    // flow is visible next to the calls.
    let session_svt = SparseVectorWithGap::new(3, 0.5, threshold, true)?;
    // 32 idle ticks: leaked sessions (every 4th block) get evicted a few
    // blocks later, well within even the --quick script.
    let mut server = QueryServer::new(config.seed).with_max_idle(32);
    if let Some(n) = config.par_threshold {
        server = server.with_par_threshold(n);
    }
    for t in 0..config.tenants as u64 {
        server.register_tenant(t, config.epsilon_per_tenant)?;
    }
    // Clamp to the tenant count so every spawned worker owns at least one
    // tenant (rebalancing never changes the digest: it folds per tenant).
    let workers = config.workers.min(config.tenants).max(1);
    let start = Instant::now();
    let deadline = config
        .duration_cap_secs
        .map(|d| start + Duration::from_secs_f64(d));
    let stats = run_partitioned(workers, |w| {
        worker_loop(
            config,
            &server,
            &grid,
            session_svt,
            &workload,
            w,
            workers,
            start,
            deadline,
        )
    })?;
    let elapsed_secs = start.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = Vec::new();
    let mut digest = 0u64;
    let mut report = ServeBenchReport {
        planned: config.planned_requests(),
        completed: 0,
        rejected: 0,
        budget_rejected: 0,
        evictions: server.evictions(),
        p50_us: 0.0,
        p95_us: 0.0,
        p99_us: 0.0,
        elapsed_secs,
        requests_per_sec: 0.0,
        digest: 0,
        truncated: false,
    };
    for s in stats {
        report.completed += s.completed;
        report.rejected += s.rejected;
        report.budget_rejected += s.budget_rejected;
        report.truncated |= s.truncated;
        latencies.extend(s.latencies_us);
        for (_, d) in s.digests {
            digest ^= d;
        }
    }
    report.digest = digest;
    latencies.sort_by(f64::total_cmp);
    report.p50_us = percentile(&latencies, 0.50);
    report.p95_us = percentile(&latencies, 0.95);
    report.p99_us = percentile(&latencies, 0.99);
    if elapsed_secs > 0.0 {
        report.requests_per_sec = report.completed as f64 / elapsed_secs;
    }
    Ok(report)
}

/// Serializes a report to the `BENCH_serve.json` schema.
pub fn to_json(config: &ServeBenchConfig, report: &ServeBenchReport) -> String {
    let par_threshold = config
        .par_threshold
        .map_or_else(|| "null".to_owned(), |n| n.to_string());
    format!(
        "{{\n  \"schema\": \"free-gap-serve/bench/v1\",\n  \
         \"seed\": {},\n  \"tenants\": {},\n  \"workers\": {},\n  \
         \"requests_per_tenant\": {},\n  \"epsilon_per_tenant\": {:.3},\n  \
         \"par_threshold\": {},\n  \
         \"planned\": {},\n  \"completed\": {},\n  \"rejected\": {},\n  \
         \"budget_rejected\": {},\n  \"evictions\": {},\n  \
         \"latency_us\": {{ \"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2} }},\n  \
         \"elapsed_secs\": {:.6},\n  \"requests_per_sec\": {:.1},\n  \
         \"digest\": \"{:#018x}\",\n  \"truncated\": {}\n}}\n",
        config.seed,
        config.tenants,
        config.workers,
        config.requests_per_tenant,
        config.epsilon_per_tenant,
        par_threshold,
        report.planned,
        report.completed,
        report.rejected,
        report.budget_rejected,
        report.evictions,
        report.p50_us,
        report.p95_us,
        report.p99_us,
        report.elapsed_secs,
        report.requests_per_sec,
        report.digest,
        report.truncated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sorted_positions() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 51.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn script_is_a_pure_function_of_tenant_and_index() {
        let workload = synthetic_workload(7);
        let grid = script_grid(rank_threshold(&workload)).unwrap();
        let svt = SparseVectorWithGap::new(3, 0.5, rank_threshold(&workload), true).unwrap();
        for (t, i) in [(0u64, 0usize), (3, 5), (3, 6), (5, 9), (5, 48)] {
            let a = script_request(&grid, svt, &workload, t, i);
            let b = script_request(&grid, svt, &workload, t, i);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        // Block 3 (i = 48 has i/13 == 3) leaks its session: slot 9 falls
        // through to a Call.
        let leak = script_request(&grid, svt, &workload, 0, 3 * 13 + 9);
        assert!(matches!(leak.body, RequestBody::Call { .. }));
        let close = script_request(&grid, svt, &workload, 0, 9);
        assert!(matches!(
            close.body,
            RequestBody::CloseSession { session: 5 }
        ));
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = ServeBenchConfig::quick(7);
        assert!(ok.validate().is_ok());
        let no_tenants = ServeBenchConfig { tenants: 0, ..ok };
        assert!(matches!(
            no_tenants.validate(),
            Err(MechanismError::InvalidParameter {
                name: "tenants",
                ..
            })
        ));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = ServeBenchConfig {
                duration_cap_secs: Some(bad),
                ..ok
            };
            assert!(matches!(
                cfg.validate(),
                Err(MechanismError::InvalidParameter {
                    name: "duration",
                    ..
                })
            ));
            let cfg = ServeBenchConfig {
                qps: Some(bad),
                ..ok
            };
            assert!(matches!(
                cfg.validate(),
                Err(MechanismError::InvalidParameter { name: "qps", .. })
            ));
        }
        // Well-formed caps pass.
        let capped = ServeBenchConfig {
            duration_cap_secs: Some(1.5),
            qps: Some(200.0),
            ..ok
        };
        assert!(capped.validate().is_ok());
        // run() refuses before doing any work.
        assert!(run(&no_tenants).is_err());
    }

    #[test]
    fn quotient_partition_keeps_every_worker_busy() {
        for tenants in [1usize, 2, 3, 4, 5, 8, 9] {
            for requested in 1usize..=6 {
                let workers = requested.min(tenants).max(1);
                let mut seen: Vec<u64> = Vec::new();
                for w in 0..workers {
                    let owned = tenants_for_worker(tenants, workers, w);
                    assert!(
                        !owned.is_empty(),
                        "worker {w} of {workers} idle with {tenants} tenants"
                    );
                    seen.extend(owned);
                }
                // Disjoint and complete: each tenant served exactly once.
                seen.sort_unstable();
                assert_eq!(seen, (0..tenants as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        // lint:allow(panic-freedom): test deliberately panics a worker
        let result = run_partitioned(3, |w| {
            if w == 1 {
                panic!("worker down");
            }
            w
        });
        assert_eq!(result, Err(MechanismError::WorkerPanicked { worker: 1 }));
        // All-success side: every worker's value comes back in order.
        assert_eq!(run_partitioned(3, |w| w), Ok(vec![0, 1, 2]));
    }

    #[test]
    fn rebalancing_fewer_tenants_than_workers_is_digest_invariant() {
        let base = ServeBenchConfig {
            seed: 11,
            tenants: 2,
            workers: 4,
            requests_per_tenant: 26,
            epsilon_per_tenant: 0.45 * 26.0,
            duration_cap_secs: None,
            qps: None,
            par_threshold: None,
        };
        let wide = run(&base).unwrap();
        assert_eq!(wide.completed, base.planned_requests());
        let narrow = run(&ServeBenchConfig { workers: 1, ..base }).unwrap();
        assert_eq!(wide.digest, narrow.digest);
        assert_eq!(wide.completed, narrow.completed);
    }

    #[test]
    fn par_threshold_runs_clean_and_deterministic() {
        let base = ServeBenchConfig {
            seed: 11,
            tenants: 2,
            workers: 2,
            requests_per_tenant: 26,
            epsilon_per_tenant: 0.45 * 26.0,
            duration_cap_secs: None,
            qps: None,
            par_threshold: Some(1),
        };
        let a = run(&base).unwrap();
        assert_eq!(a.completed, base.planned_requests());
        let b = run(&base).unwrap();
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn json_echoes_the_outcome() {
        let config = ServeBenchConfig::quick(7);
        let report = ServeBenchReport {
            planned: 1200,
            completed: 1200,
            rejected: 420,
            budget_rejected: 400,
            evictions: 12,
            p50_us: 10.5,
            p95_us: 42.0,
            p99_us: 99.9,
            elapsed_secs: 0.25,
            requests_per_sec: 4800.0,
            digest: 0xDEAD_BEEF,
            truncated: false,
        };
        let json = to_json(&config, &report);
        assert!(json.contains("\"schema\": \"free-gap-serve/bench/v1\""));
        assert!(json.contains("\"par_threshold\": null"));
        assert!(json.contains("\"budget_rejected\": 400"));
        let par_config = ServeBenchConfig {
            par_threshold: Some(32),
            ..config
        };
        assert!(to_json(&par_config, &report).contains("\"par_threshold\": 32"));
        assert!(json.contains("\"p99\": 99.90"));
        assert!(json.contains("\"digest\": \"0x00000000deadbeef\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
