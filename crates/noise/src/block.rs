//! Chunked noise-fill over fixed-size blocks: the buffering discipline
//! behind the mechanisms' batched and streaming fast paths.
//!
//! SVT-family mechanisms stop after a *data-dependent* number of draws, and
//! the streaming entry points do not even know the stream length up front —
//! so noise cannot be pre-generated in one run-sized pass. A [`BlockBuffer`]
//! instead pulls **raw uniforms** from the RNG in bounded blocks and applies
//! the distribution transform at serve time:
//!
//! * continuous draws go through [`SingleUniform::sample_from_uniform`]
//!   (one uniform per draw — Laplace, Gumbel, Exponential), cached behind a
//!   lazy watermark so each uniform is transformed at most once even when
//!   `peek` slabs overlap; a second, uncached per-draw path
//!   ([`BlockBuffer::next_uncached`]) serves transforms whose distribution
//!   varies per call alongside the run's cached one;
//! * discrete Laplace draws go through
//!   [`DiscreteLaplace::value_from_uniform`] (one uniform per draw — the
//!   closed-form geometric-tail inversion), evaluated block-at-a-time with
//!   the distribution's normalization hoisted out of the loop;
//! * staircase draws go through [`Staircase::sample_from_uniforms`] (four
//!   uniforms per draw, the Geng–Viswanath four-variable representation).
//!
//! Buffering *uniforms* rather than transformed values is what lets the two
//! families share one tape: a mechanism (or a random interleaving in the
//! stream-discipline proptest) can alternate continuous and discrete draws
//! and still serve exactly the sequence a sequential sampling loop would
//! produce on the same RNG stream, because every serve is a pure function of
//! the uniforms at the cursor.
//!
//! The load-bearing invariant is that **draw-order preservation**: however
//! the buffer is refilled, the sequence of draws served is bit-identical to
//! a sequential [`sample`](crate::ContinuousDistribution::sample) /
//! [`DiscreteDistribution::sample_value`](crate::DiscreteDistribution::sample_value)
//! loop on the same RNG stream. The buffer may pull *more* from the RNG
//! than it serves (block lookahead), which is why consumers derive a fresh
//! stream per run — see the stream-discipline notes on
//! `free_gap_core::scratch`.
//!
//! Block sizes adapt: the first block of a run is sized by the previous
//! run's consumption (consecutive Monte-Carlo runs of one mechanism consume
//! near-identical draw counts), later blocks taper toward the prediction and
//! are clamped to a cache-friendly maximum, so both short runs (little
//! overdraw) and unboundedly long streams (hot, L1-resident refills) are
//! served well.

use crate::discrete_laplace::DiscreteLaplace;
use crate::staircase::Staircase;
use crate::traits::SingleUniform;
use rand::Rng;

/// A reusable tape of pre-drawn raw uniforms, refilled in fixed-size blocks
/// and served as continuous or discrete draws.
///
/// Generic over the distribution at call time (the distribution is passed to
/// each draw method, not stored) so one buffer type serves every noise
/// family; callers must pass the *same* continuous distribution for the
/// lifetime of a run (the transform cache assumes it), while discrete
/// parameters may vary per draw — each discrete serve re-derives its value
/// from the raw uniforms.
#[derive(Debug, Clone)]
pub struct BlockBuffer {
    /// Raw uniforms; `raw[cursor..]` are buffered ahead of consumption.
    raw: Vec<f64>,
    /// Continuous-transform cache: `vals[i]` holds the run distribution's
    /// `sample_from_uniform(raw[i])` for `i < transformed` (stale garbage
    /// beyond the watermark; kept the same length as `raw`).
    vals: Vec<f64>,
    /// Transform watermark into `vals`.
    transformed: usize,
    cursor: usize,
    /// Fresh uniforms pulled from the RNG since the last
    /// [`begin`](Self::begin) (served = `filled - (raw.len() - cursor)`;
    /// tracked at refill time so the per-draw hot path carries no extra
    /// bookkeeping).
    filled: usize,
    /// Predicted consumption of the next run (last run's served count), in
    /// uniforms.
    predicted: usize,
}

impl BlockBuffer {
    /// Smallest block ever drawn (also the first-ever prediction).
    pub const MIN_CHUNK: usize = 16;
    /// Largest block: 4096 doubles = 32 KiB, comfortably L1-resident, so
    /// long runs stream through a hot buffer instead of round-tripping one
    /// run-sized buffer through DRAM.
    pub const CACHE_CHUNK: usize = 4096;

    /// Creates an empty buffer (grows on first use).
    pub fn new() -> Self {
        Self {
            raw: Vec::new(),
            vals: Vec::new(),
            transformed: 0,
            cursor: 0,
            filled: 0,
            predicted: Self::MIN_CHUNK,
        }
    }

    /// Starts a new run: discards uniforms buffered from the previous RNG
    /// stream and predicts this run's consumption from the last one.
    pub fn begin(&mut self) {
        let served = self.filled - (self.raw.len() - self.cursor);
        if served > 0 {
            self.predicted = served.max(Self::MIN_CHUNK);
        }
        self.raw.clear();
        self.vals.clear();
        self.transformed = 0;
        self.cursor = 0;
        self.filled = 0;
    }

    /// Next draw from `dist`, refilling the buffer in blocks as needed.
    #[inline]
    pub fn next<D: SingleUniform, R: Rng + ?Sized>(&mut self, dist: &D, rng: &mut R) -> f64 {
        if self.cursor == self.raw.len() {
            self.refill(rng);
        }
        let v = if self.cursor < self.transformed {
            self.vals[self.cursor]
        } else {
            dist.sample_from_uniform(self.raw[self.cursor])
        };
        self.cursor += 1;
        v
    }

    /// Next raw uniform at the cursor, refilling in blocks as needed — the
    /// shared serving step behind every per-draw transform below.
    #[inline]
    fn next_raw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.cursor == self.raw.len() {
            self.refill(rng);
        }
        let u = self.raw[self.cursor];
        self.cursor += 1;
        u
    }

    /// Next discrete Laplace draw (one buffered uniform through the
    /// closed-form tail inversion), bit-identical to
    /// [`sample_value`](crate::DiscreteDistribution::sample_value) at the
    /// same stream position. Unlike the continuous transform cache, the
    /// discrete parameters may differ per call — each serve re-derives from
    /// the raw uniform.
    #[inline]
    pub fn next_discrete<R: Rng + ?Sized>(&mut self, dist: &DiscreteLaplace, rng: &mut R) -> f64 {
        let u = self.next_raw(rng);
        dist.value_from_uniform(u)
    }

    /// Next draw from `dist`, transformed directly from the raw uniform at
    /// the cursor — no watermark cache, so unlike [`next`](Self::next) the
    /// distribution may vary per call and may differ from the run's cached
    /// continuous distribution (the Gumbel/Exponential provider shapes
    /// interleave with Laplace draws this way). Bit-identical to
    /// [`sample`](crate::ContinuousDistribution::sample) at the same stream
    /// position.
    #[inline]
    pub fn next_uncached<D: SingleUniform, R: Rng + ?Sized>(
        &mut self,
        dist: &D,
        rng: &mut R,
    ) -> f64 {
        let u = self.next_raw(rng);
        dist.sample_from_uniform(u)
    }

    /// Next staircase draw: four buffered uniforms through
    /// [`Staircase::sample_from_uniforms`], bit-identical to a
    /// [`sample`](crate::ContinuousDistribution::sample) call at the same
    /// stream position (the four-variable representation consumes exactly
    /// four uniforms in draw order; refills preserve the partial tuple's
    /// order because a refill only happens when the buffer is drained).
    #[inline]
    pub fn next_staircase<R: Rng + ?Sized>(&mut self, dist: &Staircase, rng: &mut R) -> f64 {
        let u = [
            self.next_raw(rng),
            self.next_raw(rng),
            self.next_raw(rng),
            self.next_raw(rng),
        ];
        dist.sample_from_uniforms(u)
    }

    /// Predicted draw consumption of the current run (last run's usage; one
    /// uniform per draw in both noise families) — used by mechanisms to
    /// pre-size their output buffers.
    pub fn predicted_draws(&self) -> usize {
        self.predicted
    }

    /// The buffered draws ahead of the cursor, truncated to whole `m`-tuples,
    /// refilling first if fewer than one tuple is available. Callers iterate
    /// the slice (e.g. `chunks_exact(m)`) with zero per-tuple cursor
    /// arithmetic, then commit consumption with [`consume`](Self::consume).
    /// Draw order is identical to sequential [`next`](Self::next) draws.
    #[inline]
    pub fn peek_tuples<D: SingleUniform, R: Rng + ?Sized>(
        &mut self,
        dist: &D,
        rng: &mut R,
        m: usize,
    ) -> &[f64] {
        // lint:allow(panic-freedom): tuple arity is a compile-time property of the mechanism core, never user input
        assert!(m >= 1, "tuple arity must be at least 1");
        if self.cursor + m > self.raw.len() {
            self.refill_keeping_leftover(rng, m);
        }
        let avail = self.raw.len() - self.cursor;
        let whole = avail - avail % m;
        self.ensure_transformed(dist, self.cursor + whole);
        &self.vals[self.cursor..self.cursor + whole]
    }

    /// Scaled twin of [`peek_tuples`](Self::peek_tuples), the draw-provider
    /// hook behind the mechanisms' blocked fast paths: writes
    /// `value[i] * scales[i % m]` into `out` for every buffered draw ahead
    /// of the cursor (whole `scales.len()`-tuples only, refilling first if
    /// fewer than one tuple is available).
    ///
    /// Slot `b` of each tuple is then distributed `scale[b] ×` the base
    /// distribution — for distributions whose sampler is a single
    /// `scale * f(u)` product (Laplace), bit-identical to sampling at
    /// `scales[b]` directly. Consumption is still committed with
    /// [`consume`](Self::consume) in raw draw counts.
    ///
    /// The whole buffered slab is rescaled per peek, including a tail the
    /// run may never consume (the underlying transform runs at most once
    /// per uniform thanks to the watermark cache). That extra pass is
    /// bounded: blocks taper toward the predicted per-run consumption, so
    /// the unconsumed tail is at most one block's overshoot (measured cost
    /// ≲ 10% on the shortest-decision mechanisms, vs. fusing the multiply
    /// into every consumer loop — the benchmark's `noise.block.*` and
    /// per-mechanism rows time the trade-off).
    #[inline]
    pub fn peek_tuples_scaled<D: SingleUniform, R: Rng + ?Sized>(
        &mut self,
        dist: &D,
        rng: &mut R,
        scales: &[f64],
        out: &mut Vec<f64>,
    ) {
        let units = self.peek_tuples(dist, rng, scales.len());
        out.clear();
        out.extend(units.iter().zip(scales.iter().cycle()).map(|(u, s)| u * s));
    }

    /// Discrete twin of [`peek_tuples`](Self::peek_tuples): writes whole
    /// `dists.len()`-tuples into `out`, slot `b` of each tuple drawn from
    /// `dists[b]` (refilling first if fewer than one tuple's worth of
    /// uniforms is available). Each served value consumes one raw uniform;
    /// commit consumption with [`consume`](Self::consume) in served values.
    /// Draw order is identical to sequential
    /// [`next_discrete`](Self::next_discrete) draws.
    #[inline]
    pub fn discrete_peek_tuples<R: Rng + ?Sized>(
        &mut self,
        dists: &[DiscreteLaplace],
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        let m = dists.len();
        // lint:allow(panic-freedom): tuple arity is a compile-time property of the mechanism core, never user input
        assert!(m >= 1, "tuple arity must be at least 1");
        if self.cursor + m > self.raw.len() {
            self.refill_keeping_leftover(rng, m);
        }
        let tuples = (self.raw.len() - self.cursor) / m;
        let raw = &self.raw[self.cursor..self.cursor + tuples * m];
        out.clear();
        out.reserve(tuples * m);
        for tuple in raw.chunks_exact(m) {
            for (dist, &u) in dists.iter().zip(tuple) {
                out.push(dist.value_from_uniform(u));
            }
        }
    }

    /// Advances the cursor past `draws` raw uniforms previously obtained
    /// from [`peek_tuples`](Self::peek_tuples) or
    /// [`discrete_peek_tuples`](Self::discrete_peek_tuples) (one uniform
    /// per served value in both families).
    ///
    /// # Panics
    /// Panics if `draws` exceeds the buffered uniforms ahead of the cursor
    /// (checked once per block, so the guard costs nothing per draw).
    #[inline]
    pub fn consume(&mut self, draws: usize) {
        // lint:allow(panic-freedom): tape-serving invariant — over-consuming is a provider bug, not user data
        assert!(
            self.cursor + draws <= self.raw.len(),
            "consumed more draws than were peeked"
        );
        self.cursor += draws;
    }

    /// Applies the continuous transform to `raw[max(transformed, cursor)..
    /// upto)` so each uniform is transformed at most once per run.
    fn ensure_transformed<D: SingleUniform>(&mut self, dist: &D, upto: usize) {
        // Slots behind the cursor are never served again: skipping them
        // (after discrete serves advanced past the watermark) is safe even
        // though the watermark then claims them.
        let start = self.transformed.max(self.cursor);
        for i in start..upto {
            self.vals[i] = dist.sample_from_uniform(self.raw[i]);
        }
        self.transformed = self.transformed.max(upto);
    }

    /// Size of the next block: the predicted remainder of this run, clamped
    /// to `[MIN_CHUNK, CACHE_CHUNK]` — tapering toward the prediction keeps
    /// end-of-run overdraw small while the cap keeps every block hot in L1.
    fn next_block_size(&self) -> usize {
        self.predicted
            .saturating_sub(self.filled)
            .clamp(Self::MIN_CHUNK, Self::CACHE_CHUNK)
    }

    #[cold]
    fn refill<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let size = self.next_block_size();
        self.raw.resize(size, 0.0);
        for slot in &mut self.raw {
            *slot = rng.gen();
        }
        self.vals.resize(size, 0.0);
        self.transformed = 0;
        self.cursor = 0;
        self.filled += size;
    }

    /// Refill for the peek/tuple paths: the up-to-`m - 1` already-drawn
    /// buffered leftovers move to the front (transform cache included) so
    /// the stream order stays identical to sequential draws, and fresh
    /// uniforms fill the rest of the block.
    #[cold]
    fn refill_keeping_leftover<R: Rng + ?Sized>(&mut self, rng: &mut R, m: usize) {
        let leftover = self.raw.len() - self.cursor;
        debug_assert!(leftover < m);
        self.raw.copy_within(self.cursor.., 0);
        self.vals.copy_within(self.cursor.., 0);
        self.transformed = self.transformed.saturating_sub(self.cursor).min(leftover);
        let size = self.next_block_size().max(m);
        self.raw.resize(size, 0.0);
        for slot in &mut self.raw[leftover..] {
            *slot = rng.gen();
        }
        self.vals.resize(size, 0.0);
        self.filled += size - leftover;
        self.cursor = 0;
    }
}

impl Default for BlockBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::traits::{ContinuousDistribution, DiscreteDistribution};
    use crate::Laplace;

    #[test]
    fn next_replays_the_sequential_stream() {
        let unit = Laplace::new(1.0).unwrap();
        let mut expect_rng = rng_from_seed(3);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(3);
        block.begin();
        for i in 0..1000 {
            let got = block.next(&unit, &mut rng);
            let want = unit.sample(&mut expect_rng);
            assert_eq!(got, want, "draw {i}");
        }
    }

    #[test]
    fn next_discrete_replays_the_sequential_stream() {
        let dl = DiscreteLaplace::new(0.8, 0.5).unwrap();
        let mut expect_rng = rng_from_seed(13);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(13);
        block.begin();
        for i in 0..1000 {
            let got = block.next_discrete(&dl, &mut rng);
            let want = dl.sample_value(&mut expect_rng);
            assert_eq!(got.to_bits(), want.to_bits(), "draw {i}");
        }
    }

    #[test]
    fn mixed_families_share_one_sequential_stream() {
        // The point of buffering raw uniforms: alternating continuous and
        // discrete draws (at varying parameters) still replays exactly the
        // sequential sampling loop, including across refill boundaries.
        let unit = Laplace::new(1.0).unwrap();
        let mut expect_rng = rng_from_seed(29);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(29);
        block.begin();
        for i in 0..2000 {
            match i % 4 {
                0 | 2 => {
                    let got = block.next(&unit, &mut rng);
                    let want = unit.sample(&mut expect_rng);
                    assert_eq!(got.to_bits(), want.to_bits(), "draw {i} (continuous)");
                }
                1 => {
                    let dl = DiscreteLaplace::new(1.0, 1.0).unwrap();
                    let got = block.next_discrete(&dl, &mut rng);
                    let want = dl.sample_value(&mut expect_rng);
                    assert_eq!(got.to_bits(), want.to_bits(), "draw {i} (discrete)");
                }
                _ => {
                    let dl = DiscreteLaplace::new(0.3, 0.25).unwrap();
                    let got = block.next_discrete(&dl, &mut rng);
                    let want = dl.sample_value(&mut expect_rng);
                    assert_eq!(got.to_bits(), want.to_bits(), "draw {i} (discrete fine)");
                }
            }
        }
    }

    #[test]
    fn next_replays_gumbel_and_exponential_sequential_streams() {
        // Gumbel/Exponential as the run's cached continuous distribution:
        // the watermark-cached serving path is generic over SingleUniform.
        let gum = crate::Gumbel::new(1.7).unwrap();
        let mut expect_rng = rng_from_seed(31);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(31);
        block.begin();
        for i in 0..1000 {
            let got = block.next(&gum, &mut rng);
            let want = gum.sample(&mut expect_rng);
            assert_eq!(got.to_bits(), want.to_bits(), "gumbel draw {i}");
        }
        let exp = crate::Exponential::new(0.4).unwrap();
        let mut expect_rng = rng_from_seed(32);
        let mut rng = rng_from_seed(32);
        block.begin();
        for i in 0..1000 {
            let got = block.next(&exp, &mut rng);
            let want = exp.sample(&mut expect_rng);
            assert_eq!(got.to_bits(), want.to_bits(), "exponential draw {i}");
        }
    }

    #[test]
    fn uncached_draws_interleave_with_cached_peeks() {
        // A Gumbel/Exponential draw served through the uncached path must
        // come from the raw uniform even when an earlier Laplace peek
        // already transformed that slot under the watermark cache.
        let unit = Laplace::new(1.0).unwrap();
        let gum = crate::Gumbel::standard();
        let exp = crate::Exponential::new(2.0).unwrap();
        let mut expect_rng = rng_from_seed(33);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(33);
        block.begin();
        for round in 0..300 {
            // Peek a pair (transforms a slab with Laplace), consume it...
            let pair = block.peek_tuples(&unit, &mut rng, 2)[..2].to_vec();
            block.consume(2);
            for (j, v) in pair.iter().enumerate() {
                let want = unit.sample(&mut expect_rng);
                assert_eq!(v.to_bits(), want.to_bits(), "round {round} pair {j}");
            }
            // ...then serve Gumbel and Exponential draws from slots the
            // watermark may already claim.
            let g = block.next_uncached(&gum, &mut rng);
            assert_eq!(g.to_bits(), gum.sample(&mut expect_rng).to_bits());
            let e = block.next_uncached(&exp, &mut rng);
            assert_eq!(e.to_bits(), exp.sample(&mut expect_rng).to_bits());
        }
    }

    #[test]
    fn staircase_serving_replays_the_sequential_stream() {
        let stair = Staircase::new(0.9, 1.0, 0.35).unwrap();
        let unit = Laplace::new(1.0).unwrap();
        let mut expect_rng = rng_from_seed(34);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(34);
        block.begin();
        for i in 0..500 {
            // Odd interleaving so staircase tuples straddle refills.
            if i % 3 == 0 {
                let got = block.next(&unit, &mut rng);
                let want = unit.sample(&mut expect_rng);
                assert_eq!(got.to_bits(), want.to_bits(), "draw {i} (laplace)");
            }
            let got = block.next_staircase(&stair, &mut rng);
            let want = stair.sample(&mut expect_rng);
            assert_eq!(got.to_bits(), want.to_bits(), "draw {i} (staircase)");
        }
    }

    #[test]
    fn begin_discards_stale_buffered_draws() {
        let unit = Laplace::new(1.0).unwrap();
        let mut block = BlockBuffer::new();
        block.begin();
        let first = block.next(&unit, &mut rng_from_seed(4));
        // New run, new stream: must not serve leftovers from seed 4.
        block.begin();
        let fresh = block.next(&unit, &mut rng_from_seed(5));
        let want = unit.sample(&mut rng_from_seed(5));
        assert_eq!(fresh, want);
        assert_ne!(first, fresh);
    }

    #[test]
    fn peek_tuples_preserve_sequential_order_across_refills() {
        let unit = Laplace::new(1.0).unwrap();
        // Tuple arities covering pairs, the multi-branch m-tuples, and one
        // above MIN_CHUNK alignment oddness.
        for m in [1usize, 2, 3, 5, 7] {
            let mut expect_rng = rng_from_seed(7);
            let mut block = BlockBuffer::new();
            let mut rng = rng_from_seed(7);
            block.begin();
            // Odd leading draw forces the tuple path to carry leftovers
            // across refill boundaries for every m > 1.
            let first = block.next(&unit, &mut rng);
            assert_eq!(first, unit.sample(&mut expect_rng));
            let mut tuples_seen = 0usize;
            while tuples_seen < 500 {
                let slab = block.peek_tuples(&unit, &mut rng, m);
                assert!(slab.len() >= m && slab.len().is_multiple_of(m), "m = {m}");
                // Consume only part of some slabs to exercise partial commits.
                let take = (slab.len() / m).min(3) * m;
                for tuple in slab[..take].chunks_exact(m) {
                    for (j, &v) in tuple.iter().enumerate() {
                        assert_eq!(
                            v,
                            unit.sample(&mut expect_rng),
                            "m = {m}, tuple {tuples_seen}, slot {j}"
                        );
                    }
                    tuples_seen += 1;
                }
                block.consume(take);
            }
        }
    }

    #[test]
    fn peek_tuples_scaled_matches_scaled_sequential_draws() {
        let unit = Laplace::new(1.0).unwrap();
        let scales = [3.0f64, 0.25, 17.5];
        let mut expect_rng = rng_from_seed(9);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(9);
        let mut scaled = Vec::new();
        block.begin();
        let mut tuples_seen = 0usize;
        while tuples_seen < 300 {
            block.peek_tuples_scaled(&unit, &mut rng, &scales, &mut scaled);
            assert!(scaled.len() >= scales.len() && scaled.len().is_multiple_of(scales.len()));
            let take = (scaled.len() / scales.len()).min(4) * scales.len();
            for tuple in scaled[..take].chunks_exact(scales.len()) {
                for (j, &v) in tuple.iter().enumerate() {
                    // unit * scale is bit-identical to sampling at the scale
                    // directly (the sampler is a single scale * f(u) product).
                    let want = Laplace::new(scales[j]).unwrap().sample(&mut expect_rng);
                    assert_eq!(v.to_bits(), want.to_bits(), "tuple {tuples_seen} slot {j}");
                }
                tuples_seen += 1;
            }
            block.consume(take);
        }
    }

    #[test]
    fn discrete_peek_tuples_match_sequential_draws_at_per_slot_rates() {
        let dists = [
            DiscreteLaplace::new(0.9, 1.0).unwrap(),
            DiscreteLaplace::new(0.2, 1.0).unwrap(),
        ];
        let m = dists.len();
        let mut expect_rng = rng_from_seed(17);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(17);
        let mut out = Vec::new();
        block.begin();
        // Odd leading continuous draw forces the discrete tuple path to
        // carry a lone leftover uniform across a refill boundary.
        let unit = Laplace::new(1.0).unwrap();
        let first = block.next(&unit, &mut rng);
        assert_eq!(first, unit.sample(&mut expect_rng));
        let mut tuples_seen = 0usize;
        while tuples_seen < 400 {
            block.discrete_peek_tuples(&dists, &mut rng, &mut out);
            assert!(out.len() >= m && out.len().is_multiple_of(m));
            let take = (out.len() / m).min(3) * m;
            for tuple in out[..take].chunks_exact(m) {
                for (j, &v) in tuple.iter().enumerate() {
                    let want = dists[j].sample_value(&mut expect_rng);
                    assert_eq!(v.to_bits(), want.to_bits(), "tuple {tuples_seen} slot {j}");
                }
                tuples_seen += 1;
            }
            block.consume(take);
        }
    }

    #[test]
    fn prediction_tracks_previous_consumption() {
        let unit = Laplace::new(1.0).unwrap();
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(6);
        block.begin();
        for _ in 0..1000 {
            block.next(&unit, &mut rng);
        }
        // Next run's first block should be sized like the last run...
        block.begin();
        assert_eq!(block.predicted_draws(), 1000);
        block.next(&unit, &mut rng);
        assert_eq!(block.raw.len(), 1000);
        // ...and a run that uses almost none leaves only marginal waste.
        block.begin();
        block.next(&unit, &mut rng);
        block.begin();
        assert_eq!(block.predicted_draws(), BlockBuffer::MIN_CHUNK);
    }

    #[test]
    fn blocks_are_clamped_to_the_cache_chunk() {
        let unit = Laplace::new(1.0).unwrap();
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(8);
        block.begin();
        for _ in 0..(3 * BlockBuffer::CACHE_CHUNK) {
            block.next(&unit, &mut rng);
        }
        block.begin();
        assert_eq!(block.predicted_draws(), 3 * BlockBuffer::CACHE_CHUNK);
        block.next(&unit, &mut rng);
        // Even with a huge prediction, one block never exceeds the cap.
        assert!(block.raw.len() <= BlockBuffer::CACHE_CHUNK);
    }
}
