//! Layer micro-timings at a workload's shapes, the probe of mechanisms a
//! workload does not run, and the explain model that adds layer costs up
//! against the measured per-operation time.
//!
//! Every micro-timing calls a public function of one layer in a tight loop
//! and reports the median of [`SAMPLES`] timed batches, in ns per unit.

use crate::stats::median;
use crate::trace::{call_traced, replay_ns, uses_tape, CountingRng, DrawStats, Sink};
use crate::workloads::{EPSILON, K};
use free_gap_core::api::{AnyMechanism, CallScratch, MechanismOutput, QuerySlice};
use free_gap_core::draw::{DrawProvider, RngDraws};
use free_gap_core::sparse_vector::{ClassicSparseVector, SparseVectorWithGap};
use free_gap_core::{MechanismError, PrivacyBudget};
use free_gap_noise::rng::{derive_fast_stream, FastRng};
use free_gap_noise::{
    par, BlockBuffer, DiscreteLaplace, Exponential, Gumbel, Laplace, SingleUniform, Staircase,
};
use free_gap_serve::{
    BudgetLedger, MechanismRequest, QueryServer, RequestBody, SvtSession, WorkerScratch,
};
use rand::{Rng, RngCore};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per micro-timing.
const SAMPLES: usize = 7;
/// Minimum length of one timed batch.
const BATCH: Duration = Duration::from_millis(2);

/// Median ns per unit of `f`, which performs `units` units per call.
pub fn time_ns(units: u64, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= BATCH || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / (iters * units) as f64
        })
        .collect();
    median(&mut samples)
}

/// The sizes a workload's layers work at.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Values per bulk fill (and per selection).
    pub fill_len: usize,
    /// Tape draws per run.
    pub scan_len: usize,
    /// Queries per session feed.
    pub feed_len: usize,
}

/// Per-unit layer costs, ns.
#[derive(Debug, Clone, Default)]
pub struct Micro {
    pub fast_ns_per_u64: f64,
    pub laplace_ns: f64,
    pub gumbel_ns: f64,
    pub exponential_ns: f64,
    pub discrete_laplace_ns: f64,
    pub staircase_ns: f64,
    pub block_next_ns: f64,
    pub block_peek_pair_ns: f64,
    pub derive_fast_stream_ns: f64,
    /// Fixed cost of one `AnyMechanism::call_batched` on a one-query
    /// request: enum dispatch, provider set-up, `begin` and one draw.
    pub dispatch_ns: f64,
    pub budget_try_debit_ns: f64,
    pub ledger_try_debit_ns: f64,
    /// Per debit as each of two threads debiting one ledger sees it.
    pub ledger_try_debit_ns_contended: f64,
    pub feed_ns_per_query: f64,
    pub par_fill_ns_per_value_t1: f64,
    pub par_fill_ns_per_value_t2: f64,
    /// Top-K selection per scanned value (not reported; explain only).
    pub select_ns_per_value: f64,
}

fn uniforms(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = derive_fast_stream(seed, 0xC0FFEE);
    (0..n).map(|_| rng.gen::<f64>()).collect()
}

fn transform_ns<D: SingleUniform>(dist: &D, slab: &[f64], out: &mut [f64]) -> f64 {
    time_ns(slab.len() as u64, || {
        for (o, &u) in out.iter_mut().zip(slab) {
            *o = dist.sample_from_uniform(u);
        }
        black_box(&mut *out);
    })
}

/// Measures every layer micro-timing at `shapes`; `values` (the
/// workload's queries) feed the session, dispatch and fill timings.
pub fn measure(shapes: Shapes, values: &[f64], seed: u64) -> Result<Micro, MechanismError> {
    let n = shapes.fill_len;
    let slab = uniforms(4 * n, seed);
    let mut out = vec![0.0; n];
    let mut rng: FastRng = derive_fast_stream(seed, 1);
    let mut words = vec![0u64; n];
    let mut m = Micro {
        fast_ns_per_u64: time_ns(n as u64, || {
            for w in words.iter_mut() {
                *w = rng.next_u64();
            }
            black_box(&mut words);
        }),
        ..Micro::default()
    };
    // The transforms' cost does not depend on their parameters; these are
    // the workloads' (Top-K noise at scale 2k/ε).
    let lap = Laplace::new(2.0 * K as f64 / EPSILON).expect("valid scale");
    m.laplace_ns = transform_ns(&lap, &slab[..n], &mut out);
    m.gumbel_ns = transform_ns(
        &Gumbel::new(1.0).expect("valid parameters"),
        &slab[..n],
        &mut out,
    );
    m.exponential_ns = transform_ns(
        &Exponential::new(1.0).expect("valid parameters"),
        &slab[..n],
        &mut out,
    );
    let dl = DiscreteLaplace::new(0.35, 1.0).expect("valid parameters");
    m.discrete_laplace_ns = time_ns(n as u64, || {
        for (o, &u) in out.iter_mut().zip(&slab[..n]) {
            *o = dl.value_from_uniform(u);
        }
        black_box(&mut out);
    });
    let stair = Staircase::optimal(0.7, 1.0).expect("valid parameters");
    m.staircase_ns = time_ns(n as u64, || {
        for (o, u) in out.iter_mut().zip(slab.chunks_exact(4)) {
            *o = stair.sample_from_uniforms([u[0], u[1], u[2], u[3]]);
        }
        black_box(&mut out);
    });

    let unit = Laplace::new(1.0).expect("valid parameters");
    let mut buf = BlockBuffer::new();
    let scan = shapes.scan_len.max(1);
    m.block_next_ns = time_ns(scan as u64, || {
        buf.begin();
        let mut acc = 0.0;
        for _ in 0..scan {
            acc += buf.next(&unit, &mut rng);
        }
        black_box(acc);
    });
    let pairs = scan.div_ceil(2);
    m.block_peek_pair_ns = time_ns(pairs as u64, || {
        buf.begin();
        let mut served = 0;
        let mut acc = 0.0;
        while served < pairs {
            let slab = buf.peek_tuples(&unit, &mut rng, 2);
            let take = (slab.len() / 2).min(pairs - served);
            for p in slab[..2 * take].chunks_exact(2) {
                acc += p[0] - p[1];
            }
            buf.consume(2 * take);
            served += take;
        }
        black_box(acc);
    });

    let mut i = 0u64;
    m.derive_fast_stream_ns = time_ns(1, || {
        i += 1;
        black_box(derive_fast_stream(seed, i).next_u64());
    });

    let one = [values[0]];
    let req = QuerySlice::new(&one);
    let mech: AnyMechanism = ClassicSparseVector::new(1, 0.7, values[0], true)?.into();
    let mut scratch = CallScratch::new();
    let mut mout = MechanismOutput::new_for(&mech);
    m.dispatch_ns = time_ns(1, || {
        let _ = black_box(mech.call_batched(&req, &mut rng, &mut scratch, &mut mout));
    });

    let mut budget = PrivacyBudget::new(1e12)?;
    m.budget_try_debit_ns = time_ns(1, || {
        let _ = black_box(budget.try_debit(1e-3));
    });
    let ledger = BudgetLedger::new(1e12)?;
    m.ledger_try_debit_ns = time_ns(1, || {
        let _ = black_box(ledger.try_debit(1e-3));
    });
    m.ledger_try_debit_ns_contended = contended_debit_ns()?;

    // Feeds against a threshold above every query, so the session never
    // halts and each fed query is decided.
    let top = values.iter().copied().fold(f64::MIN, f64::max);
    let svt = SparseVectorWithGap::new(3, 0.5, 10.0 * top + 1e6, true)?;
    let feed = &values[..shapes.feed_len.min(values.len())];
    let mut session = SvtSession::open(svt, derive_fast_stream(seed, 2), 0);
    let mut decisions = Vec::new();
    m.feed_ns_per_query = time_ns(feed.len() as u64, || {
        decisions.clear();
        session.feed(feed, 0, &mut decisions);
        black_box(&decisions);
    });

    let base = &values[..n.min(values.len())];
    let mut pout = vec![0.0; base.len()];
    for (threads, slot) in [
        (1, &mut m.par_fill_ns_per_value_t1),
        (2, &mut m.par_fill_ns_per_value_t2),
    ] {
        *slot = time_ns(base.len() as u64, || {
            par::par_fill_offset_blocks(&lap, seed, 0, threads, base, &mut pout);
            black_box(&mut pout);
        });
    }

    let noisy: Vec<f64> = base.iter().zip(&slab).map(|(b, u)| b + u).collect();
    let mut top_k = Vec::new();
    let mut draws = RngDraws::new(&mut rng);
    m.select_ns_per_value = time_ns(noisy.len() as u64, || {
        draws.select_top(&noisy, K + 1, &mut top_k);
        black_box(&top_k);
    });
    Ok(m)
}

/// Two threads debiting one ledger: ns per debit as each thread sees it.
fn contended_debit_ns() -> Result<f64, MechanismError> {
    const DEBITS: u64 = 200_000;
    let ledger = BudgetLedger::new(1e12)?;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            let t = Instant::now();
                            for _ in 0..DEBITS {
                                let _ = black_box(ledger.try_debit(1e-3));
                            }
                            t.elapsed().as_nanos() as f64 / DEBITS as f64
                        })
                    })
                    .collect();
                let per: Vec<f64> = hs
                    .into_iter()
                    .map(|h| h.join().expect("debit thread panicked"))
                    .collect();
                per.iter().sum::<f64>() / per.len() as f64
            })
        })
        .collect();
    Ok(median(&mut samples))
}

/// Decorated runs of `mech` on `values`, for at least `min_runs` runs and
/// `min_time`, each run's per-draw calls replayed.
pub fn probe(
    mech: &AnyMechanism,
    values: &[f64],
    seed: u64,
    min_runs: u64,
    min_time: Duration,
) -> Result<DrawStats, MechanismError> {
    let req = QuerySlice::new(values);
    let mut scratch = CallScratch::new();
    let mut out = MechanismOutput::new_for(mech);
    let mut stats = DrawStats::default();
    let mut log = Vec::new();
    let start = Instant::now();
    let mut r = 0;
    while r < min_runs || start.elapsed() < min_time {
        let stream = || derive_fast_stream(seed ^ 0x9B0BE, r);
        let mut rng = CountingRng::new(stream());
        log.clear();
        let sink = Sink {
            stats: &mut stats,
            spans: None,
            log: Some(&mut log),
        };
        let t0 = Instant::now();
        call_traced(mech, &req, &mut rng, &mut scratch, &mut out, sink)?;
        stats.finish_run(t0.elapsed().as_nanos() as u64, rng.words, &out);
        stats.replay_calls += log.len() as u64;
        stats.replay_ns += replay_ns(mech, &log, stream);
        r += 1;
    }
    Ok(stats)
}

/// Untraced `call_batched` time of `mech` on `values`, ns per run.
pub fn call_ns(mech: &AnyMechanism, values: &[f64], seed: u64) -> f64 {
    let req = QuerySlice::new(values);
    let mut scratch = CallScratch::new();
    let mut out = MechanismOutput::new_for(mech);
    let mut r = 0u64;
    time_ns(1, || {
        r += 1;
        let _ = black_box(mech.call_batched(
            &req,
            &mut derive_fast_stream(seed, r),
            &mut scratch,
            &mut out,
        ));
    })
}

/// Predicted ns of the runs in `s` of `mech` from per-unit layer costs:
/// uniform generation, the per-family transforms, the tape's own serving
/// cost on top of generation and transform, Top-K selection, and one
/// fixed call cost per run. What the model leaves out (the mechanisms'
/// decision loops, output writes) shows up as the residual.
pub fn predict_ns(mech: &AnyMechanism, s: &DrawStats, m: &Micro) -> f64 {
    let gen_plus_lap = m.fast_ns_per_u64 + m.laplace_ns;
    let mut ns = s.uniforms_pulled as f64 * m.fast_ns_per_u64
        + s.laplace as f64 * m.laplace_ns
        + s.discrete as f64 * m.discrete_laplace_ns
        + s.gumbel as f64 * m.gumbel_ns
        + s.exponential as f64 * m.exponential_ns
        + s.staircase as f64 * m.staircase_ns
        + s.select_values as f64 * m.select_ns_per_value
        + s.runs as f64 * m.dispatch_ns;
    if uses_tape(mech) {
        let scalar_tape = s.draws.saturating_sub(s.peeked) as f64;
        ns += scalar_tape * (m.block_next_ns - gen_plus_lap).max(0.0)
            + s.peeked as f64 * (m.block_peek_pair_ns / 2.0 - gen_plus_lap).max(0.0);
    }
    ns
}

/// Server overhead per request at a mechanism workload's shape: a
/// one-tenant server answers calls of each of `grid`'s mechanisms on
/// `values`, each timed back to back with the same call made directly
/// through `call_batched`; the median over all pairs of the `handle` time
/// minus the direct call, debit and stream-derivation time. µs.
pub fn server_self_us(
    grid: &[AnyMechanism],
    values: &[f64],
    seed: u64,
    m: &Micro,
) -> Result<f64, MechanismError> {
    const PAIRS: u64 = 12;
    let server = QueryServer::new(seed);
    server.register_tenant(0, 1e12)?;
    let mut worker = WorkerScratch::new();
    let mut scratch = CallScratch::new();
    let req = QuerySlice::new(values);
    let mut diffs = Vec::new();
    for (j, mech) in grid.iter().enumerate() {
        let mut out = MechanismOutput::new_for(mech);
        for i in 0..PAIRS {
            let request = MechanismRequest {
                tenant: 0,
                body: RequestBody::Call {
                    mechanism: *mech,
                    queries: values.to_vec(),
                },
            };
            let t = Instant::now();
            black_box(server.handle(&request, &mut worker));
            let handle_ns = t.elapsed().as_nanos() as f64;
            let mut rng = derive_fast_stream(seed, (j as u64) << 32 | i);
            let t = Instant::now();
            black_box(mech.call_batched(&req, &mut rng, &mut scratch, &mut out))?;
            let direct_ns = t.elapsed().as_nanos() as f64;
            diffs.push(handle_ns - direct_ns - m.ledger_try_debit_ns - m.derive_fast_stream_ns);
        }
    }
    Ok(median(&mut diffs) / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn time_ns_grows_with_the_work() {
        let mut v = vec![0u64; 4096];
        let small = time_ns(1, || {
            v[..64].iter_mut().for_each(|x| *x = black_box(*x + 1));
        });
        let large = time_ns(1, || {
            v.iter_mut().for_each(|x| *x = black_box(*x + 1));
        });
        assert!(large > 4.0 * small, "{large} vs {small}");
    }

    #[test]
    fn probe_counts_runs_and_draws() {
        let values = workloads::kosarak_counts(1, 0.01);
        let mech = workloads::bulk_grid().unwrap()[0];
        let s = probe(&mech, &values, 1, 3, Duration::ZERO).unwrap();
        assert_eq!(s.runs, 3);
        assert_eq!(s.draws, 3 * values.len() as u64);
        assert!(s.us_per_run() > 0.0);
    }
}
