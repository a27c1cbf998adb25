//! Tracing from outside the program: a counting [`RngCore`] wrapper, a
//! counting and timing [`DrawProvider`] decorator, and an in-memory span
//! log.
//!
//! The decorator wraps the provider `AnyMechanism::call_batched` would
//! choose ([`call_traced`]) and forwards every method unchanged, so a
//! decorated run serves exactly the draws of the undecorated one (the tests
//! pin the output digests for all ten mechanisms). Bulk calls (fills,
//! selection, tape peeks) are timed on every call. Per-draw calls are only
//! counted: two clock reads cost more than a ~5 ns draw and would swamp
//! it. Instead the per-draw calls of sampled runs are logged and replayed
//! against a fresh provider on the same stream ([`replay_ns`]); the replay
//! time per call times the call count estimates the time spent in them.

use free_gap_core::api::{AnyMechanism, CallScratch, Mechanism, MechanismOutput, QuerySlice};
use free_gap_core::draw::{DrawProvider, RngDraws, ScratchDraws};
use free_gap_core::{MechanismError, SvtScratch};
use free_gap_noise::Staircase;
use rand::{Rng, RngCore};
use std::hint::black_box;
use std::time::Instant;

/// Raw spans kept in memory per run; later spans are only aggregated.
pub const SPAN_CAP: usize = 50_000;

/// Counts the 64-bit words a generator hands out (a `u32` counts as one
/// word: the workspace's generators spend a full step on it).
#[derive(Debug)]
pub struct CountingRng<R> {
    inner: R,
    pub words: u64,
}

impl<R> CountingRng<R> {
    pub fn new(inner: R) -> Self {
        Self { inner, words: 0 }
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
    }
}

/// A completed span. `op` identifies the operation (mechanism run or
/// request) it belongs to: the op-level span and the provider-call spans
/// inside it share it, so the op span is the others' parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory until the run ends; past [`SPAN_CAP`] they are
/// only counted.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
    /// The operation spans recorded now belong to.
    pub op: u64,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            dropped: 0,
            op: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                op: self.op,
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// JSON-lines rendering, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 64);
        for sp in &self.spans {
            s.push_str(&format!(
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}\n",
                sp.op, sp.name, sp.start_ns, sp.dur_ns
            ));
        }
        s
    }
}

/// Counts and times of the provider calls of one or more runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrawStats {
    /// Mechanism runs these stats cover (set by the caller).
    pub runs: u64,
    /// Wall time of the whole mechanism calls (set by the caller).
    pub call_ns: u64,
    pub fill_calls: u64,
    pub fill_ns: u64,
    pub select_calls: u64,
    pub select_ns: u64,
    /// Values selection scanned over.
    pub select_values: u64,
    pub peek_calls: u64,
    pub peek_ns: u64,
    pub scalar_calls: u64,
    /// Replayed per-draw calls and their replay time.
    pub replay_calls: u64,
    pub replay_ns: u64,
    /// Draws served to the mechanism.
    pub draws: u64,
    /// Served draws by family.
    pub laplace: u64,
    pub discrete: u64,
    pub gumbel: u64,
    pub exponential: u64,
    pub staircase: u64,
    /// Draws served from tape peeks (committed by `consume`).
    pub peeked: u64,
    /// Uniforms the served draws consume (four per staircase draw).
    pub uniforms_needed: u64,
    /// Uniforms the generator handed out (set by the caller).
    pub uniforms_pulled: u64,
    /// SVT-family outputs: queries decided, and above-threshold answers.
    pub sv_scanned: u64,
    pub sv_answers: u64,
}

impl DrawStats {
    /// Sets every field to `f(own, other's)`.
    fn zip_with(&mut self, o: &DrawStats, f: impl Fn(u64, u64) -> u64) {
        macro_rules! each {
            ($($x:ident),*) => { $( self.$x = f(self.$x, o.$x); )* };
        }
        each!(
            runs,
            call_ns,
            fill_calls,
            fill_ns,
            select_calls,
            select_ns,
            select_values,
            peek_calls,
            peek_ns,
            scalar_calls,
            replay_calls,
            replay_ns,
            draws,
            laplace,
            discrete,
            gumbel,
            exponential,
            staircase,
            peeked,
            uniforms_needed,
            uniforms_pulled,
            sv_scanned,
            sv_answers
        );
    }

    pub fn merge(&mut self, o: &DrawStats) {
        self.zip_with(o, |a, b| a + b);
    }

    /// These stats rescaled to stand for `runs` runs (per-run means kept).
    pub fn scaled(&self, runs: u64) -> DrawStats {
        let mut out = DrawStats::default();
        if self.runs > 0 {
            let f = runs as f64 / self.runs as f64;
            out.zip_with(self, |_, v| (v as f64 * f).round() as u64);
        }
        out
    }

    /// Accounts one finished decorated run: its call time, the uniforms
    /// its generator handed out, and its SVT output counts.
    pub fn finish_run(&mut self, call_ns: u64, words: u64, out: &MechanismOutput) {
        let (scanned, answers) = sv_counts(out);
        self.runs += 1;
        self.call_ns += call_ns;
        self.uniforms_pulled += words;
        self.sv_scanned += scanned;
        self.sv_answers += answers;
    }

    /// Estimated time spent inside provider calls, with `timer_ns` (the
    /// cost of one clock read) taken off each timed call.
    pub fn provider_ns(&self, timer_ns: f64) -> f64 {
        let net = |ns: u64, calls: u64| (ns as f64 - calls as f64 * timer_ns).max(0.0);
        let scalar = if self.replay_calls > 0 {
            self.replay_ns as f64 / self.replay_calls as f64 * self.scalar_calls as f64
        } else {
            0.0
        };
        net(self.fill_ns, self.fill_calls)
            + net(self.select_ns, self.select_calls)
            + net(self.peek_ns, self.peek_calls)
            + scalar
    }

    /// Mean call time per run, µs.
    pub fn us_per_run(&self) -> f64 {
        self.call_ns as f64 / self.runs.max(1) as f64 / 1e3
    }

    /// Mean call time minus provider time per run, µs.
    pub fn self_us_per_run(&self, timer_ns: f64) -> f64 {
        (self.call_ns as f64 - self.runs as f64 * timer_ns - self.provider_ns(timer_ns))
            / self.runs.max(1) as f64
            / 1e3
    }
}

/// Draw families, for the per-family counts.
#[derive(Clone, Copy)]
enum Family {
    Laplace,
    Discrete,
    Gumbel,
    Exponential,
    Staircase,
}

/// One logged per-draw provider call.
#[derive(Debug, Clone, Copy)]
pub enum ScalarCall {
    Laplace(f64),
    Discrete(f64, f64),
    Gumbel(f64),
    Exponential(f64),
    Staircase(Staircase),
}

/// Where a decorated run reports to.
pub struct Sink<'s> {
    pub stats: &'s mut DrawStats,
    pub spans: Option<&'s mut SpanLog>,
    /// Per-draw calls, logged for the replay when present.
    pub log: Option<&'s mut Vec<ScalarCall>>,
}

#[cfg(test)]
impl<'s> Sink<'s> {
    pub fn stats(stats: &'s mut DrawStats) -> Self {
        Self {
            stats,
            spans: None,
            log: None,
        }
    }
}

/// Counting and timing decorator over any [`DrawProvider`].
pub struct TracingDraws<'s, P> {
    inner: P,
    sink: Sink<'s>,
}

impl<'s, P: DrawProvider> TracingDraws<'s, P> {
    pub fn new(inner: P, sink: Sink<'s>) -> Self {
        Self { inner, sink }
    }

    fn served(&mut self, family: Family, n: u64) {
        let s = &mut *self.sink.stats;
        s.draws += n;
        match family {
            Family::Laplace => s.laplace += n,
            Family::Discrete => s.discrete += n,
            Family::Gumbel => s.gumbel += n,
            Family::Exponential => s.exponential += n,
            Family::Staircase => s.staircase += n,
        }
        s.uniforms_needed += n * if matches!(family, Family::Staircase) {
            4
        } else {
            1
        };
    }

    fn span(&mut self, name: &'static str, start: Instant, ns: u64) {
        if let Some(log) = self.sink.spans.as_deref_mut() {
            log.record(name, start, ns);
        }
    }

    /// A per-draw call: counted, and logged when the run is sampled.
    #[inline]
    fn scalar(&mut self, family: Family, call: ScalarCall, f: impl FnOnce(&mut P) -> f64) -> f64 {
        self.served(family, 1);
        self.sink.stats.scalar_calls += 1;
        if let Some(log) = self.sink.log.as_deref_mut() {
            log.push(call);
        }
        f(&mut self.inner)
    }

    /// A bulk fill: timed on every call.
    fn fill(&mut self, family: Family, n: usize, f: impl FnOnce(&mut P)) {
        self.served(family, n as u64);
        let t = Instant::now();
        f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        self.sink.stats.fill_calls += 1;
        self.sink.stats.fill_ns += ns;
        self.span("draw.fill", t, ns);
    }

    /// Accounts one timed tape peek.
    fn peeked(stats: &mut DrawStats, spans: Option<&mut SpanLog>, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        stats.peek_calls += 1;
        stats.peek_ns += ns;
        if let Some(log) = spans {
            log.record("draw.peek", start, ns);
        }
    }
}

impl<P: DrawProvider> DrawProvider for TracingDraws<'_, P> {
    fn begin(&mut self) {
        self.inner.begin();
    }

    fn predicted_draws(&self) -> usize {
        self.inner.predicted_draws()
    }

    fn next(&mut self, scale: f64) -> f64 {
        self.scalar(Family::Laplace, ScalarCall::Laplace(scale), |p| {
            p.next(scale)
        })
    }

    fn discrete_next(&mut self, unit_epsilon: f64, gamma: f64) -> f64 {
        self.scalar(
            Family::Discrete,
            ScalarCall::Discrete(unit_epsilon, gamma),
            |p| p.discrete_next(unit_epsilon, gamma),
        )
    }

    fn discrete_peek_tuples(&mut self, unit_epsilons: &[f64], gamma: f64) -> &[f64] {
        let t = Instant::now();
        let slab = self.inner.discrete_peek_tuples(unit_epsilons, gamma);
        Self::peeked(self.sink.stats, self.sink.spans.as_deref_mut(), t);
        slab
    }

    fn discrete_peek_pairs(&mut self, unit_epsilons: [f64; 2], gamma: f64) -> &[f64] {
        let t = Instant::now();
        let slab = self.inner.discrete_peek_pairs(unit_epsilons, gamma);
        Self::peeked(self.sink.stats, self.sink.spans.as_deref_mut(), t);
        slab
    }

    fn discrete_consume(&mut self, draws: usize) {
        self.served(Family::Discrete, draws as u64);
        self.sink.stats.peeked += draws as u64;
        self.inner.discrete_consume(draws);
    }

    fn discrete_fill_offset(
        &mut self,
        base: &[f64],
        unit_epsilon: f64,
        gamma: f64,
        out: &mut Vec<f64>,
    ) {
        self.fill(Family::Discrete, base.len(), |p| {
            p.discrete_fill_offset(base, unit_epsilon, gamma, out)
        });
    }

    fn peek_tuples(&mut self, scales: &[f64]) -> &[f64] {
        let t = Instant::now();
        let slab = self.inner.peek_tuples(scales);
        Self::peeked(self.sink.stats, self.sink.spans.as_deref_mut(), t);
        slab
    }

    fn peek_pairs(&mut self, scales: [f64; 2]) -> &[f64] {
        let t = Instant::now();
        let slab = self.inner.peek_pairs(scales);
        Self::peeked(self.sink.stats, self.sink.spans.as_deref_mut(), t);
        slab
    }

    fn consume(&mut self, draws: usize) {
        self.served(Family::Laplace, draws as u64);
        self.sink.stats.peeked += draws as u64;
        self.inner.consume(draws);
    }

    fn fill_offset(&mut self, base: &[f64], scale: f64, out: &mut Vec<f64>) {
        self.fill(Family::Laplace, base.len(), |p| {
            p.fill_offset(base, scale, out)
        });
    }

    fn gumbel_next(&mut self, beta: f64) -> f64 {
        self.scalar(Family::Gumbel, ScalarCall::Gumbel(beta), |p| {
            p.gumbel_next(beta)
        })
    }

    fn exp_next(&mut self, beta: f64) -> f64 {
        self.scalar(Family::Exponential, ScalarCall::Exponential(beta), |p| {
            p.exp_next(beta)
        })
    }

    fn staircase_next(&mut self, dist: &Staircase) -> f64 {
        self.scalar(Family::Staircase, ScalarCall::Staircase(*dist), |p| {
            p.staircase_next(dist)
        })
    }

    fn staircase_fill_offset(&mut self, base: &[f64], dist: &Staircase, out: &mut Vec<f64>) {
        self.fill(Family::Staircase, base.len(), |p| {
            p.staircase_fill_offset(base, dist, out)
        });
    }

    fn gumbel_fill_offset(&mut self, base: &[f64], beta: f64, out: &mut Vec<f64>) {
        self.fill(Family::Gumbel, base.len(), |p| {
            p.gumbel_fill_offset(base, beta, out)
        });
    }

    fn select_top(&mut self, values: &[f64], m: usize, out: &mut Vec<usize>) {
        let t = Instant::now();
        self.inner.select_top(values, m, out);
        let ns = t.elapsed().as_nanos() as u64;
        self.sink.stats.select_calls += 1;
        self.sink.stats.select_ns += ns;
        self.sink.stats.select_values += values.len() as u64;
        self.span("draw.select", t, ns);
    }
}

/// True for the mechanisms `call_batched` serves from the blocked tape
/// (`ScratchDraws`); the rest draw exact through `RngDraws`. Mirrors the
/// choice inside `AnyMechanism::call_batched`.
pub fn uses_tape(mech: &AnyMechanism) -> bool {
    matches!(
        mech,
        AnyMechanism::Staircase(_)
            | AnyMechanism::SparseVectorWithGap(_)
            | AnyMechanism::ClassicSparseVector(_)
            | AnyMechanism::AdaptiveSparseVector(_)
            | AnyMechanism::MultiBranchAdaptiveSparseVector(_)
            | AnyMechanism::DiscreteSparseVectorWithGap(_)
    )
}

/// One decorated run through the provider `call_batched` would pick. The
/// caller times the call and fills in `runs`/`call_ns`/`uniforms_pulled`.
pub fn call_traced<R: Rng + ?Sized>(
    mech: &AnyMechanism,
    req: &QuerySlice<'_>,
    rng: &mut R,
    scratch: &mut CallScratch,
    out: &mut MechanismOutput,
    sink: Sink<'_>,
) -> Result<(), MechanismError> {
    if uses_tape(mech) {
        let mut p = TracingDraws::new(ScratchDraws::new(&mut scratch.svt, rng), sink);
        mech.call(req, &mut p, &mut scratch.topk, out)
    } else {
        let mut p = TracingDraws::new(RngDraws::new(rng), sink);
        mech.call(req, &mut p, &mut scratch.topk, out)
    }
}

fn replay_into<P: DrawProvider>(p: &mut P, log: &[ScalarCall]) {
    p.begin();
    let mut acc = 0.0;
    for call in log {
        acc += match *call {
            ScalarCall::Laplace(scale) => p.next(scale),
            ScalarCall::Discrete(rate, gamma) => p.discrete_next(rate, gamma),
            ScalarCall::Gumbel(beta) => p.gumbel_next(beta),
            ScalarCall::Exponential(beta) => p.exp_next(beta),
            ScalarCall::Staircase(dist) => p.staircase_next(&dist),
        };
    }
    black_box(acc);
}

/// Time of `log`'s per-draw calls replayed back to back through the
/// provider `call_batched` picks for `mech`, on a fresh generator from
/// `rng()` each time: the median of three replays after one warming the
/// tape's block sizing, ns.
pub fn replay_ns<R: RngCore>(mech: &AnyMechanism, log: &[ScalarCall], rng: impl Fn() -> R) -> u64 {
    let mut tape = SvtScratch::new();
    let once = |tape: &mut SvtScratch| {
        let mut g = rng();
        let t = Instant::now();
        if uses_tape(mech) {
            replay_into(&mut ScratchDraws::new(tape, &mut g), log);
        } else {
            replay_into(&mut RngDraws::new(&mut g), log);
        }
        t.elapsed().as_nanos() as f64
    };
    once(&mut tape);
    let mut times: Vec<f64> = (0..3).map(|_| once(&mut tape)).collect();
    crate::stats::median(&mut times) as u64
}

/// Queries decided and above-threshold answers of an SVT-family output
/// (zero for the other shapes).
fn sv_counts(out: &MechanismOutput) -> (u64, u64) {
    match out {
        MechanismOutput::SparseVector(o) => (
            o.above.len() as u64,
            o.above.iter().filter(|d| d.is_some()).count() as u64,
        ),
        MechanismOutput::Adaptive(o) => (o.outcomes.len() as u64, o.answered() as u64),
        MechanismOutput::MultiBranch(o) => (o.outcomes.len() as u64, o.answered() as u64),
        _ => (0, 0),
    }
}

/// Cost of one clock read, ns: the median of many back-to-back reads.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use free_gap_noise::rng::derive_fast_stream;

    /// All ten grid mechanisms over one integer workload.
    fn all_ten(values: &[f64]) -> Vec<AnyMechanism> {
        let threshold = workloads::rank_value(values, 20);
        let mut grid = workloads::bulk_grid().unwrap();
        grid.extend(workloads::svt_grid(threshold).unwrap());
        grid
    }

    #[test]
    fn decorated_runs_are_bit_identical_to_call_batched() {
        let values = workloads::kosarak_counts(3, 0.02);
        let req = QuerySlice::new(&values);
        let grid = all_ten(&values);
        assert_eq!(grid.len(), 10);
        for mech in &grid {
            // Warm scratches on both sides, several runs each: the
            // decorator must not perturb the tape's lookahead either.
            let mut plain_scratch = CallScratch::new();
            let mut traced_scratch = CallScratch::new();
            let mut stats = DrawStats::default();
            for r in 0..4 {
                let mut plain = MechanismOutput::new_for(mech);
                mech.call_batched(
                    &req,
                    &mut derive_fast_stream(9, r),
                    &mut plain_scratch,
                    &mut plain,
                )
                .unwrap();
                let mut traced = MechanismOutput::new_for(mech);
                let mut rng = CountingRng::new(derive_fast_stream(9, r));
                call_traced(
                    mech,
                    &req,
                    &mut rng,
                    &mut traced_scratch,
                    &mut traced,
                    Sink::stats(&mut stats),
                )
                .unwrap();
                assert_eq!(plain.digest(1), traced.digest(1), "{} run {r}", mech.name());
                assert!(rng.words > 0, "{}: no uniforms counted", mech.name());
            }
            assert!(stats.draws > 0, "{}: no draws counted", mech.name());
            assert!(stats.uniforms_needed >= stats.draws);
        }
    }

    #[test]
    fn counts_match_the_draw_shapes() {
        let values = workloads::kosarak_counts(3, 0.02);
        let req = QuerySlice::new(&values);
        let n = values.len() as u64;
        for mech in workloads::bulk_grid().unwrap() {
            let mut stats = DrawStats::default();
            let mut log = Vec::new();
            let mut rng = CountingRng::new(derive_fast_stream(1, 1));
            let mut out = MechanismOutput::new_for(&mech);
            let sink = Sink {
                stats: &mut stats,
                spans: None,
                log: Some(&mut log),
            };
            call_traced(
                &mech,
                &req,
                &mut rng,
                &mut CallScratch::new(),
                &mut out,
                sink,
            )
            .unwrap();
            assert_eq!(log.len() as u64, stats.scalar_calls);
            // Every bulk mechanism draws one noise value per query.
            assert_eq!(stats.draws, n, "{}", mech.name());
            match mech {
                AnyMechanism::Exponential(_) => {
                    assert_eq!(stats.scalar_calls, n);
                    assert_eq!(stats.gumbel, n);
                    assert!(replay_ns(&mech, &log, || derive_fast_stream(1, 1)) > 0);
                }
                AnyMechanism::Staircase(_) => {
                    assert_eq!(stats.uniforms_needed, 4 * n);
                    assert!(rng.words >= 4 * n);
                }
                _ => {
                    assert_eq!(stats.fill_calls, 1);
                    assert_eq!(stats.select_calls, 1);
                    assert_eq!(stats.select_values, n);
                    // Draw-exact: one uniform per draw.
                    assert_eq!(rng.words, n);
                }
            }
        }
    }

    #[test]
    fn counting_rng_is_transparent() {
        let mut a = derive_fast_stream(5, 5);
        let mut b = CountingRng::new(derive_fast_stream(5, 5));
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let (mut x, mut y) = ([0u8; 13], [0u8; 13]);
        a.fill_bytes(&mut x);
        b.fill_bytes(&mut y);
        assert_eq!(x, y);
        assert_eq!(b.words, 12);
    }

    #[test]
    fn self_time_subtracts_provider_time() {
        let s = DrawStats {
            runs: 2,
            call_ns: 10_000,
            fill_calls: 2,
            fill_ns: 4_000,
            scalar_calls: 128,
            replay_calls: 64,
            replay_ns: 1_280,
            ..DrawStats::default()
        };
        // Provider: 4000 fill + 20 ns (replayed) × 128 per-draw = 6560 ns.
        assert_eq!(s.provider_ns(0.0), 6_560.0);
        assert!((s.self_us_per_run(0.0) - 1.72).abs() < 1e-12);
        assert_eq!(s.us_per_run(), 5.0);
        let doubled = s.scaled(4);
        assert_eq!(
            (doubled.runs, doubled.call_ns, doubled.replay_ns),
            (4, 20_000, 2_560)
        );
        assert_eq!(doubled.us_per_run(), s.us_per_run());
        assert_eq!(DrawStats::default().scaled(3), DrawStats::default());
    }
}
