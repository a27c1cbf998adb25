//! Reusable scratch buffers for the allocation-free mechanism fast paths.
//!
//! The `run` methods on each mechanism draw noise through `dyn NoiseSource`
//! — one virtual call and one `Laplace::new` per draw — and allocate a fresh
//! noisy-value vector per run. That is the right shape for the alignment
//! checker (which must interpose on every draw), but it is pure overhead for
//! Monte-Carlo loops that execute the same mechanism tens of thousands of
//! times on workloads with up to ~100k queries (§7 of the paper).
//!
//! Each mechanism's `_into` entry takes a [`DrawProvider`](crate::draw::DrawProvider);
//! the one fast path is [`ScratchDraws`](crate::draw::ScratchDraws) over an
//! [`SvtScratch`] noise tape, for every mechanism, with a [`TopKScratch`]
//! holding the selection mechanisms' buffers — so that:
//!
//! * noise is drawn **in batches**, not draw-by-draw: bulk fills run the
//!   distribution's fused
//!   [`fill_into_offset`](free_gap_noise::ContinuousDistribution::fill_into_offset)
//!   kernel, scalar and tuple draws come off blocked refills;
//! * noisy-value buffers live in the scratch and are **reused across runs**;
//! * the RNG is a **monomorphic** generic parameter, so the whole inner loop
//!   inlines — no `dyn` dispatch anywhere.
//!
//! Outputs are guaranteed **bit-for-bit identical** to the corresponding
//! allocating reference path run against the same RNG stream (asserted by
//! the `scratch_equivalence` test-suite). The SVT entries consume their
//! queries lazily: lookahead applies to *noise* only — query answers are
//! pulled strictly on demand and never buffered ahead of the mechanism's
//! halting point.
//!
//! ## Stream discipline
//!
//! An [`SvtScratch`] provider buffers lookahead from the stream it is
//! given, and *how much* depends on the scratch's consumption history (the
//! prediction that sizes its batches). Outputs are unaffected — they depend
//! only on the draws actually served — but the stream's final position is
//! not reproducible across scratch histories. Two rules keep everything
//! deterministic:
//!
//! 1. derive a fresh stream per run
//!    ([`free_gap_noise::rng::derive_stream`]), and
//! 2. make the scratch call the **last** consumer of that stream — when one
//!    run executes several mechanisms, give each its own sub-stream (e.g.
//!    seed one from a `rng.gen::<u64>()` drawn up front) instead of running
//!    them back-to-back on a shared stream.
//!
//! Bulk fills pull no lookahead: they serve the uniforms the tape has
//! already buffered and draw the rest straight from the stream. A run whose
//! draws are all bulk fills (the Noisy-Top-K family, the staircase
//! measurement, the Top-K pipeline) therefore leaves the stream exactly
//! where a sequential sampling loop would, and is exempt from rule 2.
//!
//! ```
//! use free_gap_core::draw::ScratchDraws;
//! use free_gap_core::noisy_max::{NoisyTopKWithGap, TopKOutput};
//! use free_gap_core::scratch::{SvtScratch, TopKScratch};
//! use free_gap_noise::rng::derive_stream;
//!
//! let answers = [120.0, 40.0, 97.0, 80.0, 3.0];
//! let mech = NoisyTopKWithGap::new(3, 1.0, true).unwrap();
//! let (mut tape, mut scratch) = (SvtScratch::new(), TopKScratch::new());
//! let mut out = TopKOutput::default();
//! for run in 0..100 {
//!     let mut rng = derive_stream(7, run);
//!     let mut draws = ScratchDraws::new(&mut tape, &mut rng);
//!     mech.run_into(&answers, &mut draws, &mut scratch, &mut out)
//!         .unwrap();
//!     assert_eq!(out.items.len(), 3);
//! }
//! ```

use free_gap_noise::{
    BlockBuffer, ContinuousDistribution, DiscreteDistribution, DiscreteLaplace, Exponential,
    Gumbel, Laplace, SingleUniform, Staircase,
};
use rand::Rng;

/// Reusable buffers for the Noisy Top-K family's batched fast path.
///
/// Holds the noisy-answer vector (length `n`; the exponential race keeps
/// its `k` best scores there) and the selection buffer (length `k + 1`);
/// both are grown on first use and reused afterwards.
#[derive(Debug, Default, Clone)]
pub struct TopKScratch {
    pub(crate) noisy: Vec<f64>,
    pub(crate) top: Vec<usize>,
}

impl TopKScratch {
    /// Creates an empty scratch (buffers grow on first run).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The noise tape behind [`ScratchDraws`](crate::draw::ScratchDraws), the
/// one fast provider, for every mechanism.
///
/// Draws come at several scales and rates, so the scratch buffers **raw
/// uniforms** (a [`BlockBuffer`], which also sizes the blocks) and derives
/// every scalar and tuple draw from them at serve time: continuous draws as
/// *unit* `Lap(1)` transforms rescaled per draw (IEEE multiplication makes
/// `unit * scale` bit-identical to drawing `Lap(scale)` directly), discrete
/// draws as one-uniform geometric-tail inversions. Any interleaving of the
/// families thus preserves the sequential stream order. Bulk fills follow
/// one rule: serve the buffered uniforms first, in order
/// ([`BlockBuffer::drain`]), then run the family's fused kernel straight on
/// the RNG; a staircase draw that straddles the end of the buffer takes its
/// missing uniforms from the RNG, and a single staircase draw is that draw.
#[derive(Debug, Clone)]
pub struct SvtScratch {
    block: BlockBuffer,
    unit: Laplace,
    /// Scaled view of the currently peeked tuple block (rebuilt per peek,
    /// reused across runs).
    scaled: Vec<f64>,
    /// Per-slot distributions of the currently peeked discrete tuple block.
    discrete_tuple: Vec<DiscreteLaplace>,
}

/// The discrete Laplace at `(unit_epsilon, gamma)`, built per call or per
/// peeked slab (an `exp` and an `ln`): caller-chosen rates never grow state.
#[allow(clippy::expect_used)]
fn discrete(unit_epsilon: f64, gamma: f64) -> DiscreteLaplace {
    // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
    DiscreteLaplace::new(unit_epsilon, gamma).expect("mechanism-validated rate")
}

/// One staircase draw from the buffered uniforms `head` (at most four),
/// the missing ones pulled straight from `rng` in stream order.
fn staircase_from<R: Rng + ?Sized>(head: &[f64], rng: &mut R, dist: &Staircase) -> f64 {
    let mut u = [0.0; Staircase::URANDS];
    for (i, slot) in u.iter_mut().enumerate() {
        *slot = head.get(i).copied().unwrap_or_else(|| rng.gen());
    }
    dist.sample_from_uniforms(u)
}

impl SvtScratch {
    /// Creates an empty scratch.
    #[allow(clippy::expect_used)]
    pub fn new() -> Self {
        Self {
            block: BlockBuffer::new(),
            // lint:allow(panic-freedom): the constant unit scale is always a valid Laplace parameter
            unit: Laplace::new(1.0).expect("unit scale is valid"),
            scaled: Vec::new(),
            discrete_tuple: Vec::new(),
        }
    }

    /// Starts a new run: discards draws buffered from the previous RNG
    /// stream and predicts this run's consumption from the last one.
    pub(crate) fn begin(&mut self) {
        self.block.begin();
    }

    /// Next `Lap(scale)` draw (bit-identical to sampling at `scale`),
    /// refilling the unit buffer in blocks as needed.
    #[inline]
    pub(crate) fn next_scaled<R: Rng + ?Sized>(&mut self, rng: &mut R, scale: f64) -> f64 {
        self.block.next(&self.unit, rng) * scale
    }

    /// Predicted draw consumption of the current run (last run's usage) —
    /// used by mechanisms to pre-size their output buffers.
    pub(crate) fn predicted_draws(&self) -> usize {
        self.block.predicted_draws()
    }

    /// The buffered draws ahead of the cursor as whole scaled
    /// `scales.len()`-tuples (slot `b` of each tuple is `Lap(scales[b])`,
    /// bit-identical to sampling at that scale) — see
    /// [`BlockBuffer::peek_tuples_scaled`].
    #[inline]
    pub(crate) fn peek_tuples_scaled<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        scales: &[f64],
    ) -> &[f64] {
        self.block
            .peek_tuples_scaled(&self.unit, rng, scales, &mut self.scaled);
        &self.scaled
    }

    /// Advances the cursor past `draws` values previously obtained from
    /// [`peek_tuples_scaled`](Self::peek_tuples_scaled) or
    /// [`discrete_peek_tuples`](Self::discrete_peek_tuples) (one uniform
    /// each).
    #[inline]
    pub(crate) fn consume(&mut self, draws: usize) {
        self.block.consume(draws);
    }

    /// Next discrete Laplace draw over `{kγ}` at per-unit rate
    /// `unit_epsilon`, served from the shared raw-uniform tape (one
    /// uniform through the closed-form tail inversion, bit-identical to
    /// [`sample_value`](free_gap_noise::DiscreteDistribution::sample_value)
    /// at the same stream position).
    #[inline]
    pub(crate) fn discrete_next<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        unit_epsilon: f64,
        gamma: f64,
    ) -> f64 {
        let d = discrete(unit_epsilon, gamma);
        self.block.next_discrete(&d, rng)
    }

    /// The buffered draws ahead of the cursor as whole
    /// `unit_epsilons.len()`-tuples of discrete Laplace values (slot `b` of
    /// each tuple at rate `unit_epsilons[b]`) — see
    /// [`BlockBuffer::discrete_peek_tuples`]. Commit consumption with
    /// [`consume`](Self::consume) in served values.
    #[inline]
    pub(crate) fn discrete_peek_tuples<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        unit_epsilons: &[f64],
        gamma: f64,
    ) -> &[f64] {
        self.discrete_tuple.clear();
        self.discrete_tuple
            .extend(unit_epsilons.iter().map(|&rate| discrete(rate, gamma)));
        self.block
            .discrete_peek_tuples(&self.discrete_tuple, rng, &mut self.scaled);
        &self.scaled
    }

    /// Next standard-shape Gumbel(`beta`) draw, served from the shared
    /// raw-uniform tape through the uncached transform path (the scale may
    /// vary per draw and differs from the run's cached unit-Laplace
    /// transform). Bit-identical to
    /// [`Gumbel::sample`](free_gap_noise::ContinuousDistribution::sample)
    /// at the same stream position.
    #[inline]
    #[allow(clippy::expect_used)]
    pub(crate) fn gumbel_next<R: Rng + ?Sized>(&mut self, rng: &mut R, beta: f64) -> f64 {
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let dist = Gumbel::new(beta).expect("mechanism-validated scale");
        self.block.next_uncached(&dist, rng)
    }

    /// Next one-sided Exponential(`beta`) draw from the shared tape; same
    /// serving contract as [`gumbel_next`](Self::gumbel_next).
    #[inline]
    #[allow(clippy::expect_used)]
    pub(crate) fn exp_next<R: Rng + ?Sized>(&mut self, rng: &mut R, beta: f64) -> f64 {
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let dist = Exponential::new(beta).expect("mechanism-validated scale");
        self.block.next_uncached(&dist, rng)
    }

    /// Next staircase draw, bit-identical to [`Staircase::sample`] at the
    /// same stream position: the first draw of
    /// [`staircase_fill_offset`](Self::staircase_fill_offset).
    #[inline]
    pub(crate) fn staircase_next<R: Rng + ?Sized>(&mut self, rng: &mut R, dist: &Staircase) -> f64 {
        staircase_from(self.block.drain(Staircase::URANDS), rng, dist)
    }

    /// The head of every bulk fill: sizes `out` to `base` and writes
    /// `base[i] + draw(tuple)` over the buffered uniforms, `arity` per draw
    /// (a short last tuple is `draw`'s to complete from `rng`). Returns the
    /// count written; the caller's fused kernel fills the rest from `rng`.
    fn drain_head<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        base: &[f64],
        arity: usize,
        out: &mut Vec<f64>,
        draw: impl Fn(&[f64], &mut R) -> f64,
    ) -> usize {
        out.resize(base.len(), 0.0);
        let drained = self.block.drain(base.len() * arity);
        for ((slot, b), tuple) in out.iter_mut().zip(base).zip(drained.chunks(arity)) {
            *slot = b + draw(tuple, rng);
        }
        drained.len().div_ceil(arity)
    }

    /// Fused `base[i] + Lap(scale)` batch: the buffered head, then the
    /// fused kernel on the RNG.
    #[allow(clippy::expect_used)]
    pub(crate) fn fill_offset<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        base: &[f64],
        scale: f64,
        out: &mut Vec<f64>,
    ) {
        // lint:allow(panic-freedom): the scale/rate was validated by the mechanism constructor; re-validation cannot fail
        let lap = Laplace::new(scale).expect("mechanism-validated scale");
        let head = self.drain_head(rng, base, 1, out, |u, _| lap.sample_from_uniform(u[0]));
        lap.fill_into_offset(rng, &base[head..], &mut out[head..]);
    }

    /// Fused `base[i] +` staircase-draw batch, likewise.
    pub(crate) fn staircase_fill_offset<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        base: &[f64],
        dist: &Staircase,
        out: &mut Vec<f64>,
    ) {
        let head = self.drain_head(rng, base, Staircase::URANDS, out, |u, rng| {
            staircase_from(u, rng, dist)
        });
        dist.fill_into_offset(rng, &base[head..], &mut out[head..]);
    }

    /// Fused `base[i] +` discrete-draw batch, likewise.
    pub(crate) fn discrete_fill_offset<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        base: &[f64],
        unit_epsilon: f64,
        gamma: f64,
        out: &mut Vec<f64>,
    ) {
        let d = discrete(unit_epsilon, gamma);
        let head = self.drain_head(rng, base, 1, out, |u, _| d.value_from_uniform(u[0]));
        d.fill_values_into_offset(rng, &base[head..], &mut out[head..]);
    }
}

impl Default for SvtScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::ContinuousDistribution;

    #[test]
    fn svt_scratch_replays_the_sequential_scaled_stream() {
        let lap = Laplace::new(2.5).unwrap();
        let mut expect_rng = rng_from_seed(3);
        let mut scratch = SvtScratch::new();
        let mut rng = rng_from_seed(3);
        scratch.begin();
        for i in 0..1000 {
            let got = scratch.next_scaled(&mut rng, 2.5);
            let want = lap.sample(&mut expect_rng);
            assert_eq!(got.to_bits(), want.to_bits(), "draw {i}");
        }
    }

    #[test]
    fn prefill_tracks_previous_consumption() {
        // Block sizing internals are covered in `free_gap_noise::block`;
        // here we only pin that the scratch forwards the prediction.
        let mut scratch = SvtScratch::new();
        let mut rng = rng_from_seed(6);
        scratch.begin();
        for _ in 0..1000 {
            scratch.next_scaled(&mut rng, 1.0);
        }
        scratch.begin();
        assert_eq!(scratch.predicted_draws(), 1000);
    }

    #[test]
    fn peek_tuples_scaled_preserves_sequential_order() {
        // Forwarding check for the scaled tuple API: the served stream
        // equals sequential draws at the per-slot scales. Refill/leftover
        // edge cases live in `free_gap_noise::block`.
        let scales = [3.0f64, 0.5, 7.0];
        let m = scales.len();
        let mut expect_rng = rng_from_seed(21);
        let mut scratch = SvtScratch::new();
        let mut rng = rng_from_seed(21);
        scratch.begin();
        let mut tuples_seen = 0usize;
        while tuples_seen < 200 {
            let slab = scratch.peek_tuples_scaled(&mut rng, &scales);
            assert!(slab.len() >= m && slab.len().is_multiple_of(m));
            let take = (slab.len() / m).min(2) * m;
            for tuple in slab[..take].chunks_exact(m) {
                for (j, &v) in tuple.iter().enumerate() {
                    let want = Laplace::new(scales[j]).unwrap().sample(&mut expect_rng);
                    assert_eq!(v.to_bits(), want.to_bits(), "tuple {tuples_seen} slot {j}");
                }
                tuples_seen += 1;
            }
            scratch.consume(take);
        }
    }
}
