//! The generic draw-provider abstraction behind every mechanism core.
//!
//! Each mechanism in [`crate::noisy_max`] and [`crate::sparse_vector`] keeps
//! **exactly one** copy of its decision/budget logic, written against the
//! [`DrawProvider`] trait, and that core is the mechanism's one public
//! `*_into` entry. The execution paths differ only in which provider the
//! caller passes in:
//!
//! ```text
//!                mechanism core (one function, generic over P: DrawProvider)
//!                                      │
//!          ┌───────────────────────────┼───────────────────────────┐
//!          ▼                           ▼                           ▼
//!   SourceDraws                  ScratchDraws                  RngDraws
//!   (dyn NoiseSource:            (SvtScratch tape: the one     (plain Rng:
//!    alignment checker,           fast path; blocked draws,     draw-exact,
//!    reference `run`;             fused bulk fills;             no tape;
//!    never bounded)               bounded)                      bounded)
//! ```
//!
//! [`ScratchDraws`] is the fast path for every mechanism:
//! [`call_batched`](crate::api::AnyMechanism::call_batched) runs it whatever
//! the draw shape, because its bulk fills run the same fused kernels
//! [`RngDraws`] does once the tape's buffered uniforms are drained.
//!
//! ## Contract
//!
//! The trait exposes the draw shapes the paper's mechanisms need — single
//! draws ([`next`](DrawProvider::next)), which the SVT family takes only
//! for its noisy threshold (the broken-variant zoo also draws its query
//! noise this way), the adaptive branch ladder's `m`-tuples
//! ([`peek_tuples`](DrawProvider::peek_tuples): Algorithm 2 is the ladder
//! at `m = 2`, so its `(ξ, η)` pairs are 2-tuples, and
//! Sparse-Vector-with-Gap and classic SVT draw their query noise as the
//! one-rung ladder's 1-tuples), the
//! Noisy-Max batch ([`fill_offset`](DrawProvider::fill_offset)), the
//! discrete (finite-precision) twins of each
//! ([`discrete_next`](DrawProvider::discrete_next),
//! [`discrete_peek_tuples`](DrawProvider::discrete_peek_tuples),
//! [`discrete_fill_offset`](DrawProvider::discrete_fill_offset)), and the
//! baseline-mechanism shapes
//! ([`gumbel_next`](DrawProvider::gumbel_next) for the
//! exponential-mechanism race, [`exp_next`](DrawProvider::exp_next),
//! [`staircase_next`](DrawProvider::staircase_next) /
//! [`staircase_fill_offset`](DrawProvider::staircase_fill_offset) for the
//! variance-optimal measurement) — under
//! one invariant, the **stream discipline** of `README.md`: however a
//! provider buffers internally, the sequence of draws it *serves* is
//! bit-identical to a sequential sampling loop at the requested scales on
//! the same underlying stream. A provider may pull more randomness than it
//! serves (block lookahead, [`ScratchDraws`]) or be draw-exact
//! ([`SourceDraws`], [`RngDraws`]); cores therefore only call
//! `peek_tuples` **after** the matching query is known to exist, so
//! draw-exact providers never sample noise for a query that was never
//! pulled — which is what keeps the recorded alignment tapes draw-for-draw
//! identical to the pre-provider implementations. The pair
//! specializations [`peek_pairs`](DrawProvider::peek_pairs) and
//! [`discrete_peek_pairs`](DrawProvider::discrete_peek_pairs) forward to
//! the tuple shapes; no mechanism core calls them.
//!
//! The two selection cores reach these shapes through a crate-private
//! noise family (continuous, or discrete on `{kγ}`), which maps each shape
//! onto the plain method or its `discrete_*` twin: the SVT family's branch
//! ladder takes `next`, `peek_tuples` and `consume`, and Algorithm 1's core
//! `fill_offset`, then, with an unbounded provider,
//! [`select_top`](DrawProvider::select_top).
//!
//! A provider whose every draw is its sampler's own output reports itself
//! [`bounded`](DrawProvider::bounded): no draw then exceeds the sampler's
//! largest value, so a core may pass over a query that no draw could lift
//! far enough to matter and [`skip`](DrawProvider::skip) its draws. Three
//! cores do: the SVT ladder answers `⊥` a query no draw could lift over
//! its threshold (in either family); Algorithm 1's core, scanning 64-query
//! chunks, skips an answer that stays below the running `(k + 1)`-th noisy
//! value at its largest draw (in either family), and draws the rest with
//! `fill_offset` chunk by chunk; the exponential race skips a query whose
//! score stays below the `k`-th at the largest Gumbel draw.
//! Skipped draws advance the stream exactly as served ones would, so the
//! served sequence, and every output, is unchanged. [`ScratchDraws`] and
//! [`RngDraws`] are bounded; [`SourceDraws`] never is, because the
//! alignment checker feeds its `dyn` source shifted tapes, so the
//! reference path stays the textbook loop the fast path is checked
//! against.
//!
//! The `scratch_equivalence` suite enforces output equality across all
//! providers, and `tests/prune.rs` does so for the pruned routes at each
//! cut, against the paper's algorithms written out draw by draw;
//! `tests/draw_provider.rs` proptests the stream discipline itself over
//! random interleavings of the draw shapes and skips.

use crate::scratch::SvtScratch;
use free_gap_alignment::NoiseSource;
use free_gap_noise::{
    ContinuousDistribution, DiscreteDistribution, DiscreteLaplace, Exponential, Gumbel, Laplace,
    Staircase,
};
use rand::Rng;

/// Largest tuple arity a provider must support: one draw per rung of the
/// deepest adaptive branch ladder, whose
/// [`MAX_BRANCHES`](crate::sparse_vector::MultiBranchAdaptiveSparseVector::MAX_BRANCHES)
/// is defined as this constant.
pub const MAX_TUPLE: usize = 16;

/// A source of Laplace (and discrete-Laplace) draws for a mechanism core.
///
/// See the [module docs](self) for the contract. All `f64` values returned
/// are finished draws at the requested scale — cores never rescale.
pub trait DrawProvider {
    /// Starts a run: discards internal lookahead buffered from a previous
    /// stream and refreshes consumption predictions. Cores call this before
    /// their first draw.
    fn begin(&mut self);

    /// Predicted total draw consumption of the run (0 when unknown) — cores
    /// use it to pre-size output buffers, never for control flow.
    fn predicted_draws(&self) -> usize;

    /// True when every draw this provider serves is its sampler's own
    /// output, so no draw exceeds the sampler's largest value
    /// ([`Laplace::UNIT_MAX`] times the scale,
    /// [`DiscreteLaplace::max_value`], [`Gumbel::UNIT_MAX`] times the
    /// scale). A core may then pass over a query that no draw could make
    /// matter without drawing, and [`skip`](DrawProvider::skip) the draws
    /// that query owes: an SVT query no draw could lift over its threshold,
    /// a Noisy-Top-K answer no draw could lift to the running `(k + 1)`-th
    /// noisy value, or a race query no draw could lift to the `k`-th
    /// score. Defaults to `false`: a provider whose draws come from
    /// elsewhere (a replayed or shifted tape) keeps every draw, and
    /// Algorithm 1's core then fills all `n` noisy answers and ranks them
    /// with [`select_top`](DrawProvider::select_top).
    fn bounded(&self) -> bool {
        false
    }

    /// Advances past the next `draws` draws exactly as serving them would,
    /// without returning them; every draw shape in this crate takes one
    /// uniform per draw except the staircase's, which cores never skip.
    /// Cores call it only when [`bounded`](DrawProvider::bounded), before
    /// the next draw of any shape. The default serves `draws` unit Laplace
    /// draws and drops them.
    fn skip(&mut self, draws: usize) {
        for _ in 0..draws {
            self.next(1.0);
        }
    }

    /// One `Lap(scale)` draw.
    fn next(&mut self, scale: f64) -> f64;

    /// One discrete Laplace draw over the lattice `{kγ}` with per-unit rate
    /// `unit_epsilon` (pmf ∝ `e^{-unit_epsilon·|kγ|}`).
    fn discrete_next(&mut self, unit_epsilon: f64, gamma: f64) -> f64;

    /// Discrete twin of [`peek_tuples`](DrawProvider::peek_tuples): borrows
    /// a slab of whole `unit_epsilons.len()`-tuples of discrete Laplace
    /// draws over `{kγ}`, slot `b` at rate `unit_epsilons[b]`. The slab
    /// length is a non-zero multiple of the arity; blocked providers may
    /// return many tuples per call, draw-exact providers exactly one. Call
    /// only when the query consuming the first tuple is known to exist, and
    /// commit consumption with
    /// [`discrete_consume`](DrawProvider::discrete_consume) (in served
    /// values) before the next draw of any shape.
    ///
    /// # Panics
    /// Implementations may panic when `unit_epsilons.len()` exceeds
    /// [`MAX_TUPLE`].
    fn discrete_peek_tuples(&mut self, unit_epsilons: &[f64], gamma: f64) -> &[f64];

    /// Pair specialization of
    /// [`discrete_peek_tuples`](DrawProvider::discrete_peek_tuples) — the
    /// discrete analogue of Algorithm 2's `(ξ, η)` draw shape.
    fn discrete_peek_pairs(&mut self, unit_epsilons: [f64; 2], gamma: f64) -> &[f64] {
        self.discrete_peek_tuples(&unit_epsilons, gamma)
    }

    /// Advances past `draws` values served by the last
    /// [`discrete_peek_tuples`](DrawProvider::discrete_peek_tuples) slab (a
    /// multiple of the arity; may be less than the slab length when the run
    /// halts mid-slab).
    fn discrete_consume(&mut self, draws: usize);

    /// Discrete twin of [`fill_offset`](DrawProvider::fill_offset): fills
    /// `out` with `base[i] +` a discrete Laplace draw at rate
    /// `unit_epsilon` over `{kγ}`, one draw per element in index order —
    /// the finite-precision Noisy-Max shape. Serves exactly `base.len()`
    /// draws; blocked providers drain their buffered lookahead first, so
    /// the served sequence always matches the sequential reference.
    fn discrete_fill_offset(
        &mut self,
        base: &[f64],
        unit_epsilon: f64,
        gamma: f64,
        out: &mut Vec<f64>,
    );

    /// Borrows a slab of whole `scales.len()`-tuples, slot `b` of each tuple
    /// distributed `Lap(scales[b])`. The slab length is a non-zero multiple
    /// of the arity; blocked providers may return many tuples per call,
    /// draw-exact providers exactly one. Call only when the query consuming
    /// the first tuple is known to exist, and commit consumption with
    /// [`consume`](DrawProvider::consume) before the next `peek`/`next`.
    ///
    /// # Panics
    /// Implementations may panic when `scales.len()` exceeds [`MAX_TUPLE`].
    fn peek_tuples(&mut self, scales: &[f64]) -> &[f64];

    /// Pair specialization of [`peek_tuples`](DrawProvider::peek_tuples):
    /// the shape of Algorithm 2's `(ξ, η)` pairs, which its core draws as
    /// 2-tuples.
    fn peek_pairs(&mut self, scales: [f64; 2]) -> &[f64] {
        self.peek_tuples(&scales)
    }

    /// Advances past `draws` values served by the last
    /// [`peek_tuples`](DrawProvider::peek_tuples)/[`peek_pairs`](DrawProvider::peek_pairs)
    /// slab (a multiple of the arity; may be less than the slab length when
    /// the run halts mid-slab).
    fn consume(&mut self, draws: usize);

    /// Fills `out` with `base[i] + Lap(scale)`, one draw per element in
    /// index order — the Noisy-Max / measurement shape. Serves exactly
    /// `base.len()` draws; draw-exact providers pull exactly that much from
    /// the underlying stream, while blocked providers drain their buffered
    /// lookahead first (and may buffer more), so the served sequence always
    /// matches the sequential reference.
    fn fill_offset(&mut self, base: &[f64], scale: f64, out: &mut Vec<f64>);

    /// One standard-shape `Gumbel(beta)` draw (location 0) — the
    /// exponential-mechanism race shape, one draw per query in stream
    /// order. Consumes one uniform of the underlying stream on every
    /// provider (the one-uniform inverse-CDF transform).
    fn gumbel_next(&mut self, beta: f64) -> f64;

    /// One one-sided `Exp(beta)` draw; same serving contract as
    /// [`gumbel_next`](DrawProvider::gumbel_next).
    fn exp_next(&mut self, beta: f64) -> f64;

    /// One staircase draw from `dist` — the variance-optimal measurement
    /// shape. Consumes exactly four uniforms of the underlying stream
    /// (the Geng–Viswanath four-variable representation) on every provider.
    fn staircase_next(&mut self, dist: &Staircase) -> f64;

    /// Fills `out` with `base[i] +` a staircase draw from `dist`, one draw
    /// (four uniforms) per element in index order — the staircase
    /// measurement batch shape. The distribution is constructed once by the
    /// caller; the dyn adapter intentionally re-derives it per draw (the
    /// draw-exact reference cost the batched paths hoist).
    fn staircase_fill_offset(&mut self, base: &[f64], dist: &Staircase, out: &mut Vec<f64>);

    /// Fills `out` with `base[i] + Gumbel(beta)`, one draw per element in
    /// index order. It loops [`gumbel_next`](DrawProvider::gumbel_next), so
    /// it is bit-identical to the race's per-query draws. No mechanism core
    /// calls it; it stays on the trait because the gated benchmark's
    /// tracing provider overrides it, and it goes with
    /// [`peek_pairs`](DrawProvider::peek_pairs) when that provider no
    /// longer pins the trait.
    fn gumbel_fill_offset(&mut self, base: &[f64], beta: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(base.iter().map(|b| b + self.gumbel_next(beta)));
    }

    /// Writes the indices of the `m` largest of `values` into `out`
    /// (descending, ties to the smaller index) — the selection step
    /// Algorithm 1's core runs after its `n`-value noise fill, with an
    /// unbounded provider only: a [bounded](DrawProvider::bounded) one
    /// ranks each chunk as it is drawn and never reaches this method.
    /// Selection consumes no randomness; it lives on the provider so a
    /// tracing provider can time it. Every provider in this crate runs
    /// this default scan.
    fn select_top(&mut self, values: &[f64], m: usize, out: &mut Vec<usize>) {
        crate::noisy_max::top_indices_into(values, m, out);
    }
}

/// The noise family of a selection core: continuous Laplace at a scale
/// ([`Continuous`]) or discrete Laplace on `{kγ}` at a rate per unit
/// ([`Discrete`]). It maps each draw shape the branch ladder and
/// Algorithm 1's core need onto one [`DrawProvider`] method; `noise` is a
/// draw's parameter in the family.
pub(crate) trait Family: Copy {
    /// Whether the branch ladder may have rungs below the baseline in this
    /// family. Without them the ladder has one rung, and the feed step is
    /// compiled for exactly one.
    const MULTI_RUNG: bool;

    /// The noise of a sensitivity-1 release at `budget`: scale `1/budget`, or rate `budget`.
    fn at_budget(self, budget: f64) -> f64;

    /// One draw: the SVT's noisy threshold.
    fn next(self, provider: &mut impl DrawProvider, noise: f64) -> f64;

    /// A slab of whole tuples, slot `b` at `noise[b]`: the ladder's per-query draws.
    fn peek_tuples<'p>(self, provider: &'p mut impl DrawProvider, noise: &[f64]) -> &'p [f64];

    /// Commits `draws` values of the last slab.
    fn consume(self, provider: &mut impl DrawProvider, draws: usize);

    /// `base[i]` plus one draw each: Algorithm 1's fill.
    fn fill_offset(self, p: &mut impl DrawProvider, base: &[f64], noise: f64, out: &mut Vec<f64>);

    /// The largest draw a [bounded](DrawProvider::bounded) provider serves, for the ladder's
    /// and Algorithm 1's prunes; `+∞`, which never prunes, where the rate admits no sampler.
    fn max_draw(self, noise: f64) -> f64;
}

/// Continuous Laplace at a scale: the plain shapes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Continuous;

impl Family for Continuous {
    const MULTI_RUNG: bool = true;

    fn at_budget(self, budget: f64) -> f64 {
        1.0 / budget
    }

    fn next(self, provider: &mut impl DrawProvider, noise: f64) -> f64 {
        provider.next(noise)
    }

    fn peek_tuples<'p>(self, provider: &'p mut impl DrawProvider, noise: &[f64]) -> &'p [f64] {
        provider.peek_tuples(noise)
    }

    fn consume(self, provider: &mut impl DrawProvider, draws: usize) {
        provider.consume(draws);
    }

    fn fill_offset(self, p: &mut impl DrawProvider, base: &[f64], noise: f64, out: &mut Vec<f64>) {
        p.fill_offset(base, noise, out);
    }

    fn max_draw(self, noise: f64) -> f64 {
        Laplace::UNIT_MAX * noise
    }
}

/// Discrete Laplace on the lattice `{kγ}` at a rate per unit: the
/// `discrete_*` shapes, called from here only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Discrete {
    pub(crate) gamma: f64,
}

impl Family for Discrete {
    const MULTI_RUNG: bool = false;

    fn at_budget(self, budget: f64) -> f64 {
        budget
    }

    fn next(self, provider: &mut impl DrawProvider, noise: f64) -> f64 {
        provider.discrete_next(noise, self.gamma)
    }

    fn peek_tuples<'p>(self, provider: &'p mut impl DrawProvider, noise: &[f64]) -> &'p [f64] {
        provider.discrete_peek_tuples(noise, self.gamma)
    }

    fn consume(self, provider: &mut impl DrawProvider, draws: usize) {
        provider.discrete_consume(draws);
    }

    fn fill_offset(self, p: &mut impl DrawProvider, base: &[f64], noise: f64, out: &mut Vec<f64>) {
        p.discrete_fill_offset(base, noise, self.gamma, out);
    }

    fn max_draw(self, noise: f64) -> f64 {
        DiscreteLaplace::new(noise, self.gamma).map_or(f64::INFINITY, |d| d.max_value())
    }
}

/// Draw-provider adapter over the alignment crate's `dyn NoiseSource` — the
/// reference path the checker interposes on (recording and replaying noise
/// tapes). Strictly draw-exact: every draw is forwarded 1:1, in order, at
/// the requested scale, so recorded tapes are identical to a hand-written
/// per-draw loop.
pub struct SourceDraws<'a> {
    source: &'a mut dyn NoiseSource,
    /// One-tuple backing store for `peek_tuples` (a dyn source cannot look
    /// ahead without corrupting the tape).
    tuple: [f64; MAX_TUPLE],
}

impl<'a> SourceDraws<'a> {
    /// Wraps a noise source.
    pub fn new(source: &'a mut dyn NoiseSource) -> Self {
        Self {
            source,
            tuple: [0.0; MAX_TUPLE],
        }
    }
}

impl DrawProvider for SourceDraws<'_> {
    fn begin(&mut self) {}

    fn predicted_draws(&self) -> usize {
        0
    }

    fn next(&mut self, scale: f64) -> f64 {
        self.source.laplace(scale)
    }

    fn discrete_next(&mut self, unit_epsilon: f64, gamma: f64) -> f64 {
        self.source.discrete_laplace(unit_epsilon, gamma)
    }

    fn discrete_peek_tuples(&mut self, unit_epsilons: &[f64], gamma: f64) -> &[f64] {
        let m = unit_epsilons.len();
        // lint:allow(panic-freedom): tuple arity is a compile-time property of the mechanism core, never user input
        assert!(
            (1..=MAX_TUPLE).contains(&m),
            "tuple arity must be in 1..={MAX_TUPLE}"
        );
        for (slot, &rate) in self.tuple[..m].iter_mut().zip(unit_epsilons) {
            *slot = self.source.discrete_laplace(rate, gamma);
        }
        &self.tuple[..m]
    }

    fn discrete_consume(&mut self, _draws: usize) {}

    fn discrete_fill_offset(
        &mut self,
        base: &[f64],
        unit_epsilon: f64,
        gamma: f64,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(
            base.iter()
                .map(|b| b + self.source.discrete_laplace(unit_epsilon, gamma)),
        );
    }

    fn peek_tuples(&mut self, scales: &[f64]) -> &[f64] {
        let m = scales.len();
        // lint:allow(panic-freedom): tuple arity is a compile-time property of the mechanism core, never user input
        assert!(
            (1..=MAX_TUPLE).contains(&m),
            "tuple arity must be in 1..={MAX_TUPLE}"
        );
        for (slot, &scale) in self.tuple[..m].iter_mut().zip(scales) {
            *slot = self.source.laplace(scale);
        }
        &self.tuple[..m]
    }

    fn consume(&mut self, _draws: usize) {}

    fn fill_offset(&mut self, base: &[f64], scale: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(base.iter().map(|b| b + self.source.laplace(scale)));
    }

    fn gumbel_next(&mut self, beta: f64) -> f64 {
        self.source.gumbel(beta)
    }

    fn exp_next(&mut self, beta: f64) -> f64 {
        self.source.exponential(beta)
    }

    fn staircase_next(&mut self, dist: &Staircase) -> f64 {
        self.source
            .staircase(dist.epsilon(), dist.sensitivity(), dist.gamma())
    }

    fn staircase_fill_offset(&mut self, base: &[f64], dist: &Staircase, out: &mut Vec<f64>) {
        // Forwarded draw-by-draw: the source reconstructs the distribution
        // per draw (one `exp` + one `ln` each), which is exactly the
        // reference cost the scratch providers hoist out of the loop.
        out.clear();
        out.extend(base.iter().map(|b| {
            b + self
                .source
                .staircase(dist.epsilon(), dist.sensitivity(), dist.gamma())
        }));
    }
}

/// Blocked monomorphic draw provider over [`SvtScratch`] — the one fast
/// path, which [`call_batched`](crate::api::AnyMechanism::call_batched)
/// runs for every mechanism. Scalar draws come off unit noise generated in
/// bounded [`BlockBuffer`](free_gap_noise::BlockBuffer) batches and
/// rescaled per draw (bit-identical to sampling at the scale directly);
/// `peek` calls return whole buffered blocks so the hot loop iterates slabs
/// with `chunks_exact` instead of per-draw cursor arithmetic. Bulk fills
/// serve the buffered uniforms first, then run the family's fused kernel
/// straight on the RNG, so a fill right after `begin` pulls exactly what it
/// serves. Scalar and tuple draws may consume more of the RNG stream than
/// they serve — see the stream discipline in [`crate::scratch`]. Every
/// method forwards to the tape.
pub struct ScratchDraws<'a, R: Rng + ?Sized> {
    scratch: &'a mut SvtScratch,
    rng: &'a mut R,
}

impl<'a, R: Rng + ?Sized> ScratchDraws<'a, R> {
    /// Wraps a scratch and the RNG stream of the current run.
    pub fn new(scratch: &'a mut SvtScratch, rng: &'a mut R) -> Self {
        Self { scratch, rng }
    }
}

impl<R: Rng + ?Sized> DrawProvider for ScratchDraws<'_, R> {
    fn begin(&mut self) {
        self.scratch.begin();
    }

    fn predicted_draws(&self) -> usize {
        self.scratch.predicted_draws()
    }

    fn bounded(&self) -> bool {
        true
    }

    /// Moves the cursor over the buffered uniforms and pulls the rest
    /// straight from the RNG, without transforming any.
    fn skip(&mut self, draws: usize) {
        self.scratch.skip(self.rng, draws);
    }

    #[inline]
    fn next(&mut self, scale: f64) -> f64 {
        self.scratch.next_scaled(self.rng, scale)
    }

    #[inline]
    fn discrete_next(&mut self, unit_epsilon: f64, gamma: f64) -> f64 {
        // Served from the shared raw-uniform tape: the draw's uniform comes
        // from the same blocked tape the continuous draws use, so discrete
        // and continuous draws interleave without breaking the stream
        // discipline.
        self.scratch.discrete_next(self.rng, unit_epsilon, gamma)
    }

    #[inline]
    fn discrete_peek_tuples(&mut self, unit_epsilons: &[f64], gamma: f64) -> &[f64] {
        // lint:allow(panic-freedom): tuple arity is a compile-time property of the mechanism core, never user input
        assert!(
            (1..=MAX_TUPLE).contains(&unit_epsilons.len()),
            "tuple arity must be in 1..={MAX_TUPLE}"
        );
        self.scratch
            .discrete_peek_tuples(self.rng, unit_epsilons, gamma)
    }

    #[inline]
    fn discrete_consume(&mut self, draws: usize) {
        self.scratch.consume(draws);
    }

    fn discrete_fill_offset(
        &mut self,
        base: &[f64],
        unit_epsilon: f64,
        gamma: f64,
        out: &mut Vec<f64>,
    ) {
        self.scratch
            .discrete_fill_offset(self.rng, base, unit_epsilon, gamma, out);
    }

    #[inline]
    fn peek_tuples(&mut self, scales: &[f64]) -> &[f64] {
        self.scratch.peek_tuples_scaled(self.rng, scales)
    }

    #[inline]
    fn consume(&mut self, draws: usize) {
        self.scratch.consume(draws);
    }

    fn fill_offset(&mut self, base: &[f64], scale: f64, out: &mut Vec<f64>) {
        self.scratch.fill_offset(self.rng, base, scale, out);
    }

    #[inline]
    fn gumbel_next(&mut self, beta: f64) -> f64 {
        // Served from the shared raw-uniform tape through the uncached
        // transform (the scale may vary per draw, and the run's watermark
        // cache belongs to the unit-Laplace transform) — interleaves with
        // every other family without breaking the stream discipline.
        self.scratch.gumbel_next(self.rng, beta)
    }

    #[inline]
    fn exp_next(&mut self, beta: f64) -> f64 {
        self.scratch.exp_next(self.rng, beta)
    }

    #[inline]
    fn staircase_next(&mut self, dist: &Staircase) -> f64 {
        self.scratch.staircase_next(self.rng, dist)
    }

    fn staircase_fill_offset(&mut self, base: &[f64], dist: &Staircase, out: &mut Vec<f64>) {
        self.scratch
            .staircase_fill_offset(self.rng, base, dist, out);
    }
}

/// Draw-exact monomorphic provider over a plain [`rand::Rng`] — no block
/// lookahead, no `dyn` dispatch: every draw samples straight from the RNG,
/// bulk fills through the same fused
/// [`fill_into_offset`](free_gap_noise::ContinuousDistribution::fill_into_offset)
/// kernels [`ScratchDraws`] runs. A general-purpose provider for callers
/// without an [`SvtScratch`] at hand; the fast path is [`ScratchDraws`].
pub struct RngDraws<'a, R: Rng + ?Sized> {
    rng: &'a mut R,
    tuple: [f64; MAX_TUPLE],
}

impl<'a, R: Rng + ?Sized> RngDraws<'a, R> {
    /// Wraps the RNG stream of the current run.
    pub fn new(rng: &'a mut R) -> Self {
        Self {
            rng,
            tuple: [0.0; MAX_TUPLE],
        }
    }
}

// Draw-exact construction re-checks parameters the mechanism already
// validated; the expects below are justified per-site for the lint.
#[allow(clippy::expect_used)]
impl<R: Rng + ?Sized> DrawProvider for RngDraws<'_, R> {
    fn begin(&mut self) {}

    fn predicted_draws(&self) -> usize {
        0
    }

    fn bounded(&self) -> bool {
        true
    }

    /// Pulls one uniform per draw, as every sampler it serves does.
    fn skip(&mut self, draws: usize) {
        for _ in 0..draws {
            let _: f64 = self.rng.gen();
        }
    }

    fn next(&mut self, scale: f64) -> f64 {
        Laplace::new(scale)
            // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
            .expect("mechanism-validated scale")
            .sample(self.rng)
    }

    fn discrete_next(&mut self, unit_epsilon: f64, gamma: f64) -> f64 {
        DiscreteLaplace::new(unit_epsilon, gamma)
            // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
            .expect("mechanism-validated rate")
            .sample_value(self.rng)
    }

    fn discrete_peek_tuples(&mut self, unit_epsilons: &[f64], gamma: f64) -> &[f64] {
        let m = unit_epsilons.len();
        // lint:allow(panic-freedom): tuple arity is a compile-time property of the mechanism core, never user input
        assert!(
            (1..=MAX_TUPLE).contains(&m),
            "tuple arity must be in 1..={MAX_TUPLE}"
        );
        for (slot, &rate) in self.tuple[..m].iter_mut().zip(unit_epsilons) {
            *slot = DiscreteLaplace::new(rate, gamma)
                // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
                .expect("mechanism-validated rate")
                .sample_value(self.rng);
        }
        &self.tuple[..m]
    }

    fn discrete_consume(&mut self, _draws: usize) {}

    fn discrete_fill_offset(
        &mut self,
        base: &[f64],
        unit_epsilon: f64,
        gamma: f64,
        out: &mut Vec<f64>,
    ) {
        // One distribution construction for the whole batch (`exp`/`ln`
        // hoisted), then the fused offset fill — the discrete analogue of
        // the continuous `fill_into_offset` fast path.
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let dl = DiscreteLaplace::new(unit_epsilon, gamma).expect("mechanism-validated rate");
        out.resize(base.len(), 0.0);
        dl.fill_values_into_offset(self.rng, base, out);
    }

    fn peek_tuples(&mut self, scales: &[f64]) -> &[f64] {
        let m = scales.len();
        // lint:allow(panic-freedom): tuple arity is a compile-time property of the mechanism core, never user input
        assert!(
            (1..=MAX_TUPLE).contains(&m),
            "tuple arity must be in 1..={MAX_TUPLE}"
        );
        for (slot, &scale) in self.tuple[..m].iter_mut().zip(scales) {
            *slot = Laplace::new(scale)
                // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
                .expect("mechanism-validated scale")
                .sample(self.rng);
        }
        &self.tuple[..m]
    }

    fn consume(&mut self, _draws: usize) {}

    fn fill_offset(&mut self, base: &[f64], scale: f64, out: &mut Vec<f64>) {
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let lap = Laplace::new(scale).expect("mechanism-validated scale");
        out.resize(base.len(), 0.0);
        lap.fill_into_offset(self.rng, base, out);
    }

    #[inline]
    fn gumbel_next(&mut self, beta: f64) -> f64 {
        Gumbel::new(beta)
            // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
            .expect("mechanism-validated scale")
            .sample(self.rng)
    }

    #[inline]
    fn exp_next(&mut self, beta: f64) -> f64 {
        Exponential::new(beta)
            // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
            .expect("mechanism-validated scale")
            .sample(self.rng)
    }

    #[inline]
    fn staircase_next(&mut self, dist: &Staircase) -> f64 {
        dist.sample(self.rng)
    }

    fn staircase_fill_offset(&mut self, base: &[f64], dist: &Staircase, out: &mut Vec<f64>) {
        // The caller-constructed distribution serves the whole batch through
        // the fused offset fill (construction, `exp`, and the stair-side
        // normalization hoisted out of the per-draw loop).
        out.resize(base.len(), 0.0);
        dist.fill_into_offset(self.rng, base, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_alignment::SamplingSource;
    use free_gap_noise::rng::rng_from_seed;

    #[test]
    fn source_draws_forward_in_order() {
        let mut ref_rng = rng_from_seed(5);
        let lap = |s: f64, r: &mut rand::rngs::StdRng| Laplace::new(s).unwrap().sample(r);
        let mut rng = rng_from_seed(5);
        let mut source = SamplingSource::new(&mut rng);
        let mut p = SourceDraws::new(&mut source);
        p.begin();
        assert_eq!(p.next(2.0), lap(2.0, &mut ref_rng));
        let pair = p.peek_pairs([3.0, 0.5]).to_vec();
        p.consume(2);
        assert_eq!(pair, vec![lap(3.0, &mut ref_rng), lap(0.5, &mut ref_rng)]);
        let mut out = Vec::new();
        p.fill_offset(&[10.0, 20.0], 1.5, &mut out);
        assert_eq!(
            out,
            vec![10.0 + lap(1.5, &mut ref_rng), 20.0 + lap(1.5, &mut ref_rng)]
        );
    }

    #[test]
    fn providers_serve_identical_streams() {
        // The three providers over identically seeded streams serve
        // bit-identical draws for the same request sequence — the unification
        // invariant (full interleaving coverage lives in
        // `tests/draw_provider.rs`).
        let mut rng_a = rng_from_seed(11);
        let mut source = SamplingSource::new(&mut rng_a);
        let mut a = SourceDraws::new(&mut source);
        let mut rng_b = rng_from_seed(11);
        let mut scratch = SvtScratch::new();
        let mut b = ScratchDraws::new(&mut scratch, &mut rng_b);
        let mut rng_c = rng_from_seed(11);
        let mut c = RngDraws::new(&mut rng_c);
        a.begin();
        b.begin();
        c.begin();
        for i in 0..50 {
            let scale = 0.5 + (i % 7) as f64;
            let (x, y, z) = (a.next(scale), b.next(scale), c.next(scale));
            assert_eq!(x.to_bits(), y.to_bits(), "draw {i}");
            assert_eq!(x.to_bits(), z.to_bits(), "draw {i}");
            // Every third round, interleave a discrete draw: all providers
            // must keep serving one shared sequential stream across the
            // family switch (the finite-precision interleaving contract).
            if i % 3 == 0 {
                let rate = 0.2 + (i % 5) as f64 * 0.3;
                let (x, y, z) = (
                    a.discrete_next(rate, 1.0),
                    b.discrete_next(rate, 1.0),
                    c.discrete_next(rate, 1.0),
                );
                assert_eq!(x.to_bits(), y.to_bits(), "discrete draw {i}");
                assert_eq!(x.to_bits(), z.to_bits(), "discrete draw {i}");
            }
        }
    }

    #[test]
    fn discrete_peek_and_fill_serve_identical_streams() {
        let mut rng_a = rng_from_seed(19);
        let mut source = SamplingSource::new(&mut rng_a);
        let mut a = SourceDraws::new(&mut source);
        let mut rng_b = rng_from_seed(19);
        let mut scratch = SvtScratch::new();
        let mut b = ScratchDraws::new(&mut scratch, &mut rng_b);
        let mut rng_c = rng_from_seed(19);
        let mut c = RngDraws::new(&mut rng_c);
        a.begin();
        b.begin();
        c.begin();
        let rates = [0.8, 0.25];
        let pa = a.discrete_peek_pairs(rates, 0.5)[..2].to_vec();
        a.discrete_consume(2);
        let pb = b.discrete_peek_pairs(rates, 0.5)[..2].to_vec();
        b.discrete_consume(2);
        let pc = c.discrete_peek_pairs(rates, 0.5)[..2].to_vec();
        c.discrete_consume(2);
        assert_eq!(pa[0].to_bits(), pb[0].to_bits());
        assert_eq!(pa[1].to_bits(), pb[1].to_bits());
        assert_eq!(pa[0].to_bits(), pc[0].to_bits());
        assert_eq!(pa[1].to_bits(), pc[1].to_bits());
        let base = [10.0, 20.0, 30.0];
        let (mut oa, mut ob, mut oc) = (Vec::new(), Vec::new(), Vec::new());
        a.discrete_fill_offset(&base, 0.6, 1.0, &mut oa);
        b.discrete_fill_offset(&base, 0.6, 1.0, &mut ob);
        c.discrete_fill_offset(&base, 0.6, 1.0, &mut oc);
        for i in 0..base.len() {
            assert_eq!(oa[i].to_bits(), ob[i].to_bits(), "fill slot {i}");
            assert_eq!(oa[i].to_bits(), oc[i].to_bits(), "fill slot {i}");
        }
    }

    #[test]
    fn baseline_shapes_serve_identical_streams() {
        // gumbel/exp/staircase draws across the three providers on
        // identically seeded streams — the same unification invariant as
        // the Laplace/discrete shapes (full interleaving coverage lives in
        // `tests/draw_provider.rs`).
        let stair = Staircase::new(0.8, 1.0, 0.3).expect("valid shape");
        let mut rng_a = rng_from_seed(23);
        let mut source = SamplingSource::new(&mut rng_a);
        let mut a = SourceDraws::new(&mut source);
        let mut rng_b = rng_from_seed(23);
        let mut scratch = SvtScratch::new();
        let mut b = ScratchDraws::new(&mut scratch, &mut rng_b);
        let mut rng_c = rng_from_seed(23);
        let mut c = RngDraws::new(&mut rng_c);
        a.begin();
        b.begin();
        c.begin();
        for i in 0..40 {
            let beta = 0.5 + (i % 5) as f64;
            let (x, y, z) = (
                a.gumbel_next(beta),
                b.gumbel_next(beta),
                c.gumbel_next(beta),
            );
            assert_eq!(x.to_bits(), y.to_bits(), "gumbel {i}");
            assert_eq!(x.to_bits(), z.to_bits(), "gumbel {i}");
            let (x, y, z) = (a.exp_next(beta), b.exp_next(beta), c.exp_next(beta));
            assert_eq!(x.to_bits(), y.to_bits(), "exponential {i}");
            assert_eq!(x.to_bits(), z.to_bits(), "exponential {i}");
            if i % 3 == 0 {
                let (x, y, z) = (
                    a.staircase_next(&stair),
                    b.staircase_next(&stair),
                    c.staircase_next(&stair),
                );
                assert_eq!(x.to_bits(), y.to_bits(), "staircase {i}");
                assert_eq!(x.to_bits(), z.to_bits(), "staircase {i}");
            }
        }
        let base = [5.0, -2.0, 11.0];
        let (mut oa, mut ob, mut oc) = (Vec::new(), Vec::new(), Vec::new());
        a.staircase_fill_offset(&base, &stair, &mut oa);
        b.staircase_fill_offset(&base, &stair, &mut ob);
        c.staircase_fill_offset(&base, &stair, &mut oc);
        for i in 0..base.len() {
            assert_eq!(oa[i].to_bits(), ob[i].to_bits(), "staircase fill {i}");
            assert_eq!(oa[i].to_bits(), oc[i].to_bits(), "staircase fill {i}");
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn oversized_tuple_is_rejected() {
        let mut rng = rng_from_seed(1);
        let mut p = RngDraws::new(&mut rng);
        p.peek_tuples(&[1.0; MAX_TUPLE + 1]);
    }
}
