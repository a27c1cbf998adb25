//! `repro serve-bench`: a deterministic multi-tenant replay over
//! [`QueryServer`].
//!
//! The replay drives the *serving layer* — tenant lock, ledger debit,
//! derived sub-stream setup and mechanism dispatch — through a scripted
//! load and reports what a budget-enforcing server answers: completed
//! requests, rejections, budget rejections and idle-session evictions
//! (tenants are provisioned with less ε than their request script wants,
//! so the tail of every script is budget-rejected by design), plus a
//! digest of every response bit. It times nothing: the gated `serve-mixed`
//! workload of the benchmark under `benchmark/` is the serving
//! measurement.
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
//! the same seed, and so is every count (`tests/serve.rs` pins this).
//!
//! A configuration with zero tenants is rejected up front with
//! [`MechanismError::InvalidParameter`], and a worker thread that panics
//! mid-run surfaces as [`MechanismError::WorkerPanicked`] after every
//! sibling is joined — never a hang or an opaque propagated unwind.

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

/// Configuration of one serve-bench run.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    /// Root seed: workload, thresholds and every tenant noise stream
    /// derive from it.
    pub seed: u64,
    /// Number of registered tenants.
    pub tenants: usize,
    /// Serving threads (clamped to the tenant count); worker `w` owns the
    /// contiguous run of tenants `t` with `t × workers / tenants = w`.
    pub workers: usize,
    /// Script length per tenant.
    pub requests_per_tenant: usize,
    /// Total privacy budget each tenant is provisioned with. The defaults
    /// cover roughly 60% of the script's demand, so budget rejections are
    /// exercised on every run.
    pub epsilon_per_tenant: f64,
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
        }
    }

    fn planned_requests(&self) -> usize {
        self.tenants * self.requests_per_tenant
    }

    /// Rejects a configuration with zero tenants, which would serve
    /// nothing, with a typed error before any tenant is registered or
    /// thread spawned.
    pub fn validate(&self) -> Result<(), MechanismError> {
        if self.tenants == 0 {
            return Err(MechanismError::InvalidParameter {
                name: "tenants",
                value: 0.0,
                requirement: "must be at least 1",
            });
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
    /// Requests the workers served (every planned one).
    pub completed: usize,
    /// Responses that were rejections of any kind.
    pub rejected: usize,
    /// The subset rejected specifically for budget exhaustion.
    pub budget_rejected: usize,
    /// Idle sessions the server evicted during the run.
    pub evictions: u64,
    /// XOR over tenants of each tenant's ordered response-digest fold —
    /// bit-identical across worker counts for a fixed seed.
    pub digest: u64,
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
    completed: usize,
    rejected: usize,
    budget_rejected: usize,
}

fn worker_loop(
    config: &ServeBenchConfig,
    server: &QueryServer,
    grid: &[AnyMechanism],
    svt: SparseVectorWithGap,
    workload: &[f64],
    worker: usize,
    workers: usize,
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
        ..WorkerStats::default()
    };
    for i in 0..config.requests_per_tenant {
        for (slot, &t) in my_tenants.iter().enumerate() {
            let req = script_request(grid, svt, workload, t, i);
            let resp = server.handle(&req, &mut scratch);
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

/// Runs the replay: registers the tenants, serves each tenant's
/// deterministic request script from `config.workers` threads, and
/// aggregates the outcome counts and the reproducibility digest.
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
    let server = QueryServer::new(config.seed).with_max_idle(32);
    for t in 0..config.tenants as u64 {
        server.register_tenant(t, config.epsilon_per_tenant)?;
    }
    // Clamp to the tenant count so every spawned worker owns at least one
    // tenant (rebalancing never changes the digest: it folds per tenant).
    let workers = config.workers.min(config.tenants).max(1);
    let stats = run_partitioned(workers, |w| {
        worker_loop(config, &server, &grid, session_svt, &workload, w, workers)
    })?;
    let mut report = ServeBenchReport {
        planned: config.planned_requests(),
        completed: 0,
        rejected: 0,
        budget_rejected: 0,
        evictions: server.evictions(),
        digest: 0,
    };
    for s in stats {
        report.completed += s.completed;
        report.rejected += s.rejected;
        report.budget_rejected += s.budget_rejected;
        for (_, d) in s.digests {
            report.digest ^= d;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        };
        let wide = run(&base).unwrap();
        assert_eq!(wide.completed, base.planned_requests());
        let narrow = run(&ServeBenchConfig { workers: 1, ..base }).unwrap();
        assert_eq!(wide.digest, narrow.digest);
        assert_eq!(wide.completed, narrow.completed);
    }
}
