//! `bulk-select` and `svt-scan`: a caller thread running its five
//! mechanisms round-robin through `AnyMechanism::call_batched`, run `r` on
//! `derive_fast_stream(seed, r)`, in a closed loop for the measured time;
//! an untraced run measures one such caller per core at once.

use crate::stats::Windows;
use crate::trace::{call_traced, replay_ns, CountingRng, DrawStats, ScalarCall, Sink, SpanLog};
use crate::workloads;
use free_gap_core::api::{AnyMechanism, CallScratch, Mechanism, MechanismOutput, QuerySlice};
use free_gap_core::MechanismError;
use free_gap_noise::rng::{derive_fast_stream, derive_stream, splitmix64};
use std::time::{Duration, Instant};

/// Stream indices of the warm-up runs (disjoint from the measured runs).
const WARM_STREAM: u64 = 1 << 40;
/// Runs sampled for the output checks: the first few, then one in
/// `SAMPLE_EVERY`, at most `MAX_SAMPLES` in all.
const SAMPLE_FIRST: u64 = 10;
const SAMPLE_EVERY: u64 = 101;
const MAX_SAMPLES: usize = 60;
/// A traced loop logs and replays the per-draw calls of one run of each
/// mechanism in this many.
const LOG_EVERY: u64 = 20;

/// A mechanism workload after set-up.
#[derive(Debug, Clone)]
pub struct MechWorkload {
    /// The query stream; stored twice over when runs rotate it, so every
    /// rotation is one contiguous slice.
    stream: Vec<f64>,
    n: usize,
    /// Whether run `r` starts at an `(seed, r)`-derived offset of the
    /// cyclic stream (`svt-scan`): the scan then ends at a smoothly
    /// distributed point instead of on one of the few heavy items' fixed
    /// positions, whose spacing would make the latency quantiles jump.
    rotate: bool,
    seed: u64,
    /// The mechanisms the workload runs.
    pub grid: Vec<AnyMechanism>,
    /// The other five grid mechanisms at this workload's shape, for the
    /// traced run's probe.
    pub others: Vec<AnyMechanism>,
}

/// `bulk-select`'s set-up: dataset, mechanisms, warm-up.
pub fn setup_bulk() -> Result<MechWorkload, MechanismError> {
    let values = workloads::kosarak_counts(workloads::DATASET_SEED, workloads::KOSARAK_SCALE);
    let threshold = workloads::svt_threshold(&values);
    let w = MechWorkload {
        n: values.len(),
        stream: values,
        rotate: false,
        seed: 0,
        grid: workloads::bulk_grid()?,
        others: workloads::svt_grid(threshold)?,
    };
    warm(&w)?;
    Ok(w)
}

/// `svt-scan`'s set-up: dataset, threshold, shuffled order, mechanisms,
/// warm-up.
pub fn setup_svt(seed: u64) -> Result<MechWorkload, MechanismError> {
    let counts = workloads::kosarak_counts(workloads::DATASET_SEED, workloads::KOSARAK_SCALE);
    let threshold = workloads::svt_threshold(&counts);
    let w = MechWorkload::rotating(workloads::svt_order(&counts, seed), seed, threshold)?;
    warm(&w)?;
    Ok(w)
}

impl MechWorkload {
    fn rotating(order: Vec<f64>, seed: u64, threshold: f64) -> Result<Self, MechanismError> {
        let n = order.len();
        let mut stream = order.clone();
        stream.extend(order);
        Ok(Self {
            stream,
            n,
            rotate: true,
            seed,
            grid: workloads::svt_grid(threshold)?,
            others: workloads::bulk_grid()?,
        })
    }

    /// The query stream in its stored order.
    pub fn values(&self) -> &[f64] {
        &self.stream[..self.n]
    }

    /// The queries of run `r`.
    pub fn input(&self, r: u64) -> &[f64] {
        if !self.rotate {
            return self.values();
        }
        let mut s = self.seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let offset = (splitmix64(&mut s) % self.n as u64) as usize;
        &self.stream[offset..offset + self.n]
    }
}

fn warm(w: &MechWorkload) -> Result<(), MechanismError> {
    let req = QuerySlice::new(w.values());
    let mut scratch = CallScratch::new();
    for (j, mech) in w.grid.iter().chain(&w.others).enumerate() {
        let mut out = MechanismOutput::new_for(mech);
        for r in 0..2 {
            let stream = WARM_STREAM + 2 * j as u64 + r;
            mech.call_batched(
                &req,
                &mut derive_fast_stream(0, stream),
                &mut scratch,
                &mut out,
            )?;
        }
    }
    Ok(())
}

/// Tracing state of a traced loop: per-mechanism stats, the span log and
/// the per-draw call log of the current sampled run.
#[derive(Debug)]
pub struct LoopTrace {
    pub per_mech: Vec<DrawStats>,
    pub spans: SpanLog,
    pub log: Vec<ScalarCall>,
}

impl LoopTrace {
    pub fn new(mechanisms: usize, origin: Instant) -> Self {
        Self {
            per_mech: vec![DrawStats::default(); mechanisms],
            spans: SpanLog::new(origin),
            log: Vec::new(),
        }
    }
}

/// What one measured loop observed.
#[derive(Debug)]
pub struct LoopResult {
    pub ops: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// One per thread.
    pub windows: Vec<Windows>,
    /// `(run, output digest)` of the sampled runs.
    pub samples: Vec<(u64, u64)>,
}

fn sampled(r: u64, taken: usize) -> bool {
    taken < MAX_SAMPLES && (r < SAMPLE_FIRST || r.is_multiple_of(SAMPLE_EVERY))
}

/// Runs the closed loop for `seconds` from one thread; traced when `trace`
/// is given.
pub fn run_loop(
    w: &MechWorkload,
    seed: u64,
    seconds: f64,
    trace: Option<&mut LoopTrace>,
) -> LoopResult {
    let total = Duration::from_secs_f64(seconds);
    run_from(w, seed, Instant::now(), total, (0, 1), trace)
}

/// Runs `replicas` copies of the untraced closed loop at once, one thread
/// each, replica `i` taking runs `i, i + replicas, ...`. Every replica's
/// windows are cells the figures are read from ([`crate::stats::figures`]):
/// one caller's figures, on whichever core ran fast.
pub fn run_replicas(w: &MechWorkload, seed: u64, seconds: f64, replicas: u64) -> LoopResult {
    let replicas = replicas.max(1);
    let total = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let parts: Vec<LoopResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..replicas)
            .map(|i| scope.spawn(move || run_from(w, seed, start, total, (i, replicas), None)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a replica thread panicked"))
            .collect()
    });
    let mut res = LoopResult {
        ops: 0,
        failed: 0,
        elapsed_s: 0.0,
        windows: Vec::with_capacity(parts.len()),
        samples: Vec::new(),
    };
    for p in parts {
        res.ops += p.ops;
        res.failed += p.failed;
        res.elapsed_s = res.elapsed_s.max(p.elapsed_s);
        res.samples.extend(p.samples);
        res.windows.extend(p.windows);
    }
    res
}

/// The closed loop over runs `first, first + step, ...` until `total`
/// after `start`.
fn run_from(
    w: &MechWorkload,
    seed: u64,
    start: Instant,
    total: Duration,
    (first, step): (u64, u64),
    mut trace: Option<&mut LoopTrace>,
) -> LoopResult {
    let mut scratch = CallScratch::new();
    let mut outs: Vec<MechanismOutput> = w.grid.iter().map(MechanismOutput::new_for).collect();
    let deadline = start + total;
    let mut res = LoopResult {
        ops: 0,
        failed: 0,
        elapsed_s: 0.0,
        windows: vec![Windows::new(start, total, seed ^ first)],
        samples: Vec::new(),
    };
    let mut now = Instant::now();
    let mut r = first;
    while now < deadline {
        let m = (r % w.grid.len() as u64) as usize;
        let mech = &w.grid[m];
        let out = &mut outs[m];
        let req = QuerySlice::new(w.input(r));
        let t0 = Instant::now();
        let result = match trace.as_deref_mut() {
            None => mech.call_batched(&req, &mut derive_fast_stream(seed, r), &mut scratch, out),
            Some(tr) => {
                let mut rng = CountingRng::new(derive_fast_stream(seed, r));
                let logged = (r / w.grid.len() as u64).is_multiple_of(LOG_EVERY);
                tr.spans.op = r;
                let sink = Sink {
                    stats: &mut tr.per_mech[m],
                    spans: Some(&mut tr.spans),
                    log: logged.then_some(&mut tr.log),
                };
                let result = call_traced(mech, &req, &mut rng, &mut scratch, out, sink);
                let ns = t0.elapsed().as_nanos() as u64;
                tr.spans.record(mech.name(), t0, ns);
                let stats = &mut tr.per_mech[m];
                if logged {
                    stats.replay_calls += tr.log.len() as u64;
                    stats.replay_ns += replay_ns(mech, &tr.log, || derive_fast_stream(seed, r));
                    tr.log.clear();
                }
                stats.finish_run(ns, rng.words, out);
                result
            }
        };
        let t1 = Instant::now();
        res.windows[0].record(t1, t1.duration_since(t0).as_nanos() as f64 / 1e3);
        res.windows[0].calibrate();
        if result.is_err() {
            res.failed += 1;
        } else if sampled(r, res.samples.len()) {
            res.samples.push((r, out.digest(r)));
        }
        res.ops += 1;
        r += step;
        now = t1;
    }
    res.elapsed_s = now.duration_since(start).as_secs_f64();
    res
}

/// Re-checks the sampled runs; returns how many failed. Each sampled run
/// must (1) give the same digest when replayed on a fresh scratch — which
/// also proves a traced run measured the same program as `call_batched` —
/// and (2) agree between `call_batched` and the `call_reference` path on
/// the same `derive_stream(seed, r)` stream.
pub fn check_samples(w: &MechWorkload, seed: u64, samples: &[(u64, u64)]) -> u64 {
    let mut failed = 0;
    for &(r, digest) in samples {
        let mech = &w.grid[(r % w.grid.len() as u64) as usize];
        let req = QuerySlice::new(w.input(r));
        let replay = {
            let mut out = MechanismOutput::new_for(mech);
            mech.call_batched(
                &req,
                &mut derive_fast_stream(seed, r),
                &mut CallScratch::new(),
                &mut out,
            )
            .map(|()| out.digest(r))
        };
        let batched = {
            let mut out = MechanismOutput::new_for(mech);
            mech.call_batched(
                &req,
                &mut derive_stream(seed, r),
                &mut CallScratch::new(),
                &mut out,
            )
            .map(|()| out.digest(r))
        };
        let reference = {
            let mut out = MechanismOutput::new_for(mech);
            mech.call_reference(&req, &mut derive_stream(seed, r), &mut out)
                .map(|()| out.digest(r))
        };
        let ok = replay == Ok(digest) && batched.is_ok() && batched == reference;
        if !ok {
            eprintln!(
                "check failed: {} run {r}: loop {digest:#x}, replay {replay:?}, batched {batched:?}, reference {reference:?}",
                mech.name()
            );
            failed += 1;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> MechWorkload {
        let counts = workloads::kosarak_counts(seed, 0.01);
        let threshold = workloads::svt_threshold(&counts);
        MechWorkload::rotating(workloads::svt_order(&counts, seed), seed, threshold).unwrap()
    }

    #[test]
    fn loop_outputs_pass_the_checks_traced_or_not() {
        let w = small(2);
        let plain = run_loop(&w, 2, 0.2, None);
        assert!(plain.ops > 0 && plain.failed == 0);
        assert_eq!(check_samples(&w, 2, &plain.samples), 0);
        let mut tr = LoopTrace::new(w.grid.len(), Instant::now());
        let traced = run_loop(&w, 2, 0.2, Some(&mut tr));
        assert_eq!(check_samples(&w, 2, &traced.samples), 0);
        // Same seed, same runs: the sampled digests agree across modes.
        for (a, b) in plain.samples.iter().zip(&traced.samples) {
            assert_eq!(a, b);
        }
        assert!(tr.per_mech.iter().all(|s| s.runs > 0 && s.sv_scanned > 0));
    }

    #[test]
    fn rotations_are_pure_and_cover_the_cycle() {
        let w = small(4);
        let n = w.values().len();
        assert_eq!(w.input(7), small(4).input(7));
        let base = w.stream.as_ptr() as usize;
        let starts: std::collections::HashSet<usize> = (0..50)
            .map(|r| w.input(r).as_ptr() as usize - base)
            .collect();
        assert!(starts.len() > 40, "rotations collapse: {}", starts.len());
        for r in 0..5 {
            let mut a = w.input(r).to_vec();
            let mut b = w.values().to_vec();
            a.sort_by(f64::total_cmp);
            b.sort_by(f64::total_cmp);
            assert_eq!(a, b, "run {r} is not a rotation of the stream");
            assert_eq!(w.input(r).len(), n);
        }
    }

    #[test]
    fn a_wrong_digest_is_caught() {
        let w = small(3);
        let res = run_loop(&w, 3, 0.05, None);
        let mut bad = res.samples.clone();
        bad[0].1 ^= 1;
        assert_eq!(check_samples(&w, 3, &bad), 1);
    }
}
