//! Chunked noise-fill over fixed-size blocks: the buffering discipline
//! behind the mechanisms' batched and streaming fast path.
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
//!   the distribution's normalization hoisted out of the loop.
//!
//! Bulk fills skip the blocks: [`BlockBuffer::drain`] hands over the
//! uniforms already buffered, in order, and the caller draws the rest
//! straight from the RNG with the family's fused kernel. Staircase draws
//! ([`Staircase::sample_from_uniforms`](crate::Staircase::sample_from_uniforms),
//! four uniforms each) are served the same way, a draw that straddles the
//! end of the buffer taking its missing uniforms from the RNG. A fill right
//! after [`begin`](BlockBuffer::begin) thus pulls exactly what it serves.
//!
//! Buffering *uniforms* rather than transformed values is what lets the two
//! families share one tape: a mechanism (or a random interleaving in the
//! stream-discipline proptest) can alternate continuous and discrete draws
//! and still serve exactly the sequence a sequential sampling loop would
//! produce on the same RNG stream, because every serve is a pure function of
//! the uniforms at the cursor.
//!
//! The load-bearing invariant is that **draw-order preservation**: however
//! the buffer is refilled or drained, the sequence of draws served is
//! bit-identical to a sequential [`sample`](crate::ContinuousDistribution::sample) /
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
//! served well. Peeks transform eagerly, so each serves a bounded slab: a
//! caller that knows how many draws it will take (a session feed) readies
//! them with [`BlockBuffer::window`], and one peek serves exactly those;
//! otherwise a peek is sized by the draws the run has consumed from earlier
//! peeks, continuous and discrete alike.
//!
//! [`BlockBuffer::skip`] passes draws without transforming them, for a
//! caller that knows no value of theirs can matter (an SVT query no draw can
//! lift over its threshold, a Noisy-Top-K answer no draw can lift into the
//! top): the stream moves exactly as serving them would.

use crate::discrete_laplace::DiscreteLaplace;
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
    /// Fresh uniforms pulled into the buffer, or skipped straight past it
    /// ([`skip`](Self::skip)), since the last [`begin`](Self::begin)
    /// (served = `filled - (raw.len() - cursor)`; tracked at refill and
    /// skip time so the per-draw hot path carries no extra bookkeeping).
    /// Uniforms a bulk fill draws straight from the RNG after a
    /// [`drain`](Self::drain) never enter the buffer and are not counted.
    filled: usize,
    /// Draws committed through [`consume`](Self::consume) since the last
    /// [`begin`](Self::begin): what sizes a peek outside a window.
    consumed: usize,
    /// Predicted consumption of the next run (last run's served count), in
    /// uniforms.
    predicted: usize,
    /// End of the draws [`window`](Self::window) readied for peeking, an
    /// index into `raw` (peeks are capped there while the cursor is below
    /// it; every refill and [`begin`](Self::begin) clears it to 0).
    window: usize,
}

impl BlockBuffer {
    /// Smallest block ever drawn (also the first-ever prediction).
    pub const MIN_CHUNK: usize = 16;
    /// Largest block: 4096 doubles = 32 KiB, comfortably L1-resident, so
    /// long runs stream through a hot buffer instead of round-tripping one
    /// run-sized buffer through DRAM.
    pub const CACHE_CHUNK: usize = 4096;
    /// Fewest draws a peek outside a [`window`](Self::window) serves when
    /// buffered: a peek costs about as much as a few dozen draws, so a
    /// short call is served by one or two, and an early halt transforms at
    /// most this many draws it never uses.
    const PEEK_FLOOR: usize = 64;

    /// Creates an empty buffer (grows on first use).
    pub fn new() -> Self {
        Self {
            raw: Vec::new(),
            vals: Vec::new(),
            transformed: 0,
            cursor: 0,
            filled: 0,
            consumed: 0,
            predicted: Self::MIN_CHUNK,
            window: 0,
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
        self.consumed = 0;
        self.window = 0;
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

    /// Serves up to `max` raw uniforms buffered ahead of the cursor, in
    /// stream order, without refilling — the head of a bulk fill. When it
    /// returns fewer than `max` the buffer is empty, so the caller draws the
    /// rest of its batch straight from the RNG and the served sequence still
    /// matches sequential draws.
    #[inline]
    pub fn drain(&mut self, max: usize) -> &[f64] {
        let start = self.cursor;
        self.cursor += max.min(self.raw.len() - start);
        &self.raw[start..self.cursor]
    }

    /// Predicted draw consumption of the current run (last run's usage; one
    /// uniform per draw in both noise families) — used by mechanisms to
    /// pre-size their output buffers.
    pub fn predicted_draws(&self) -> usize {
        self.predicted
    }

    /// Buffered draws ahead of the cursor in whole `m`-tuples, refilling
    /// first if fewer than one tuple is available; how many is set by
    /// [`window`](Self::window) or the run's progress (see `peek_len`).
    /// Callers iterate the slice (e.g. `chunks_exact(m)`) with zero
    /// per-tuple cursor arithmetic, then commit consumption with
    /// [`consume`](Self::consume). Draw order is identical to sequential
    /// [`next`](Self::next) draws.
    #[inline]
    pub fn peek_tuples<D: SingleUniform, R: Rng + ?Sized>(
        &mut self,
        dist: &D,
        rng: &mut R,
        m: usize,
    ) -> &[f64] {
        // The peek may refill, which moves the cursor: take the length first.
        let len = self.peek_len(rng, m);
        self.ensure_transformed(dist, self.cursor + len);
        &self.vals[self.cursor..self.cursor + len]
    }

    /// Readies the next `n` draws (at most `CACHE_CHUNK`) for peeking, for
    /// a caller that knows how many it will take, such as a session feed
    /// of `n` one-draw queries: refills if fewer are buffered (leftovers
    /// kept), so that one peek serves them all, and caps the peeks at them
    /// until they are consumed, so that no draw past them is transformed.
    /// Which draws are served, and in what order, does not change.
    pub fn window<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) {
        let n = n.min(Self::CACHE_CHUNK);
        if self.cursor + n > self.raw.len() {
            self.refill_keeping_leftover(rng, n);
        }
        self.window = self.cursor + n;
    }

    /// How many draws the next peek serves, refilling first if fewer than
    /// one `m`-tuple is buffered: whole tuples, up to the end of a
    /// [`window`](Self::window), or else at most a quarter of the draws
    /// this run has committed through [`consume`](Self::consume) and at
    /// least `PEEK_FLOOR` (or one tuple). Peeks transform eagerly, and a
    /// run that stops early — an SVT halting, a short call after a long one
    /// sized the block — would otherwise pay the transform for the rest of
    /// a block it never uses. Draws passed by [`skip`](Self::skip) or
    /// served one at a time do not count: a peek after a long skip serves
    /// the query that ended it, not a quarter of the skipped stretch.
    #[inline]
    fn peek_len<R: Rng + ?Sized>(&mut self, rng: &mut R, m: usize) -> usize {
        // lint:allow(panic-freedom): tuple arity is a compile-time property of the mechanism core, never user input
        assert!(m >= 1, "tuple arity must be at least 1");
        if self.cursor + m > self.raw.len() {
            self.refill_keeping_leftover(rng, m);
        }
        let buffered = self.raw.len() - self.cursor;
        let want = if self.cursor < self.window {
            self.window - self.cursor
        } else {
            (self.consumed / 4).max(Self::PEEK_FLOOR)
        };
        let avail = buffered.min(want.max(m));
        avail - avail % m
    }

    /// Scaled twin of [`peek_tuples`](Self::peek_tuples), the draw-provider
    /// hook behind the mechanisms' blocked fast paths: writes
    /// `value[i] * scales[i % m]` into `out` for the draws the peek serves
    /// (whole `scales.len()`-tuples only, refilling first if fewer than one
    /// tuple is available).
    ///
    /// Slot `b` of each tuple is then distributed `scale[b] ×` the base
    /// distribution — for distributions whose sampler is a single
    /// `scale * f(u)` product (Laplace), bit-identical to sampling at
    /// `scales[b]` directly. Consumption is still committed with
    /// [`consume`](Self::consume) in raw draw counts.
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
        // A lone scale is hoisted out of the rescale, which keeps it a
        // straight multiply: cycling one scale per draw is a measurable
        // share of a one-rung SVT run.
        if let [scale] = scales {
            out.extend(units.iter().map(|u| u * scale));
        } else {
            out.extend(units.iter().zip(scales.iter().cycle()).map(|(u, s)| u * s));
        }
    }

    /// Discrete twin of [`peek_tuples`](Self::peek_tuples): writes whole
    /// `dists.len()`-tuples into `out`, slot `b` of each tuple drawn from
    /// `dists[b]` (refilling first if fewer than one tuple's worth of
    /// uniforms is available), as many as `peek_len` allows. Each served
    /// value consumes one raw uniform; commit consumption with
    /// [`consume`](Self::consume) in served values. Draw order is identical
    /// to sequential [`next_discrete`](Self::next_discrete) draws.
    #[inline]
    pub fn discrete_peek_tuples<R: Rng + ?Sized>(
        &mut self,
        dists: &[DiscreteLaplace],
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        let m = dists.len();
        let len = self.peek_len(rng, m);
        let raw = &self.raw[self.cursor..self.cursor + len];
        out.clear();
        out.reserve(len);
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
        self.consumed += draws;
    }

    /// Advances the tape past the next `n` draws without transforming
    /// them, moving the stream exactly as serving them would (one uniform
    /// per draw in every single-uniform family): the buffered uniforms are
    /// passed over first, and the rest are pulled straight from the RNG and
    /// dropped. Skipped draws count toward the run's prediction but not
    /// toward its peek sizing. So a pruned selection, which skips most of
    /// its draws and bulk-fills the rest, sizes the first block of the
    /// next run on a shared tape by its skips alone: its fills, drawn
    /// straight from the RNG, never counted.
    #[inline]
    pub fn skip<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) {
        let buffered = n.min(self.raw.len() - self.cursor);
        self.cursor += buffered;
        if buffered < n {
            self.skip_unbuffered(rng, n - buffered);
        }
    }

    /// The part of a [`skip`](Self::skip) past the buffered uniforms.
    #[cold]
    fn skip_unbuffered<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) {
        for _ in 0..n {
            let _: f64 = rng.gen();
        }
        self.filled += n;
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
        self.window = 0;
    }

    /// Refill for the peek/tuple paths: the up-to-`m - 1` already-drawn
    /// buffered leftovers move to the front (transform cache included) so
    /// the stream order stays identical to sequential draws, and fresh
    /// uniforms fill the rest of the block.
    #[cold]
    fn refill_keeping_leftover<R: Rng + ?Sized>(&mut self, rng: &mut R, m: usize) {
        let leftover = self.raw.len() - self.cursor;
        debug_assert!(leftover < m);
        // A block consumed to its end, the common case, has nothing to move.
        if leftover > 0 {
            self.raw.copy_within(self.cursor.., 0);
            self.vals.copy_within(self.cursor.., 0);
        }
        self.transformed = self.transformed.saturating_sub(self.cursor).min(leftover);
        let size = self.next_block_size().max(m);
        self.raw.resize(size, 0.0);
        for slot in &mut self.raw[leftover..] {
            *slot = rng.gen();
        }
        self.vals.resize(size, 0.0);
        self.filled += size - leftover;
        self.cursor = 0;
        self.window = 0;
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
    fn drain_serves_the_buffered_uniforms_in_order_without_refilling() {
        let unit = Laplace::new(1.0).unwrap();
        let mut expect_rng = rng_from_seed(34);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(34);
        block.begin();
        // Nothing buffered after `begin`: a drain serves nothing.
        assert!(block.drain(5).is_empty());
        let first = block.next(&unit, &mut rng);
        assert_eq!(first.to_bits(), unit.sample(&mut expect_rng).to_bits());
        let ahead = BlockBuffer::MIN_CHUNK - 1;
        let head = block.drain(3).to_vec();
        let rest = block.drain(usize::MAX).to_vec();
        assert_eq!((head.len(), head.len() + rest.len()), (3, ahead));
        for (i, u) in head.iter().chain(&rest).enumerate() {
            assert_eq!(
                u.to_bits(),
                expect_rng.gen::<f64>().to_bits(),
                "uniform {i}"
            );
        }
        // Drained dry: the buffer's next draw is the stream's next.
        assert!(block.drain(1).is_empty());
        let next = block.next(&unit, &mut rng);
        assert_eq!(next.to_bits(), unit.sample(&mut expect_rng).to_bits());
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
    fn peeks_transform_at_most_a_quarter_of_the_draws_served() {
        // A 1000-draw block, sized by the last run: the first peeks of a
        // run serve PEEK_FLOOR draws, later ones a quarter of those
        // consumed, which here are all those served.
        let unit = Laplace::new(1.0).unwrap();
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(9);
        block.begin();
        for _ in 0..1000 {
            block.next(&unit, &mut rng);
        }
        block.begin();
        let mut served = 0;
        while served < 900 {
            let len = block.peek_tuples(&unit, &mut rng, 3).len();
            assert!(len >= 3 && len.is_multiple_of(3));
            assert!(
                len <= (served / 4).max(BlockBuffer::PEEK_FLOOR),
                "{len} after {served}"
            );
            block.consume(len);
            served += len;
        }
        assert_eq!(
            block.transformed, block.cursor,
            "transformed past the peeks"
        );
    }

    #[test]
    fn a_window_is_served_by_one_peek_and_transformed_no_further() {
        // Session-shaped: one draw at open, then batches of one-draw
        // queries, each readied with `window`. Every batch is one peek of
        // exactly its length, nothing past it is transformed, and the
        // served stream is the sequential one.
        let unit = Laplace::new(1.0).unwrap();
        let mut expect_rng = rng_from_seed(10);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(10);
        let mut out = Vec::new();
        block.begin();
        assert_eq!(block.next(&unit, &mut rng), unit.sample(&mut expect_rng));
        for n in [16, 5, 40, 1, 16, 0, 3, 300] {
            block.window(&mut rng, n);
            if n > 0 {
                block.peek_tuples_scaled(&unit, &mut rng, &[2.0], &mut out);
                assert_eq!(out.len(), n, "batch of {n}");
                block.consume(n);
            }
            assert_eq!(block.transformed, block.cursor, "batch of {n}");
            for v in &out[..n] {
                assert_eq!(*v, 2.0 * unit.sample(&mut expect_rng));
            }
        }
    }

    #[test]
    fn skips_advance_the_stream_as_serving_would() {
        // Skips of every length against the buffer (none, inside it, to its
        // end, past it, across several blocks) between served draws: the
        // served stream is the sequential one with the skipped draws
        // dropped, and the skipped draws count toward the next prediction.
        let unit = Laplace::new(1.0).unwrap();
        let dl = DiscreteLaplace::new(0.4, 1.0).unwrap();
        let mut expect_rng = rng_from_seed(12);
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(12);
        block.begin();
        let mut passed = 0;
        for (round, n) in [0, 3, 12, 1, 40, 5000, 7, 0, 16, 333]
            .into_iter()
            .enumerate()
        {
            block.skip(&mut rng, n);
            for _ in 0..n {
                unit.sample(&mut expect_rng);
            }
            let slab = block.peek_tuples(&unit, &mut rng, 1)[..1].to_vec();
            block.consume(1);
            assert_eq!(slab[0], unit.sample(&mut expect_rng), "round {round}");
            let got = block.next_discrete(&dl, &mut rng);
            assert_eq!(got, dl.sample_value(&mut expect_rng), "round {round}");
            passed += n + 2;
        }
        block.begin();
        assert_eq!(block.predicted_draws(), passed);
    }

    #[test]
    fn a_peek_after_a_long_skip_serves_the_floor() {
        // A 4096-draw block, sized by the last run: a skip over most of it
        // leaves the next peek sized by the draws consumed, not passed.
        let unit = Laplace::new(1.0).unwrap();
        let dists = [DiscreteLaplace::new(0.4, 1.0).unwrap()];
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(14);
        let mut out = Vec::new();
        block.begin();
        block.skip(&mut rng, BlockBuffer::CACHE_CHUNK);
        block.begin();
        block.next(&unit, &mut rng);
        block.skip(&mut rng, 3000);
        let len = block.peek_tuples(&unit, &mut rng, 1).len();
        assert_eq!(len, BlockBuffer::PEEK_FLOOR);
        assert_eq!(block.transformed, block.cursor + len);
        block.consume(len);
        block.skip(&mut rng, 500);
        block.discrete_peek_tuples(&dists, &mut rng, &mut out);
        assert_eq!(out.len(), BlockBuffer::PEEK_FLOOR, "discrete peek");
    }

    #[test]
    fn discrete_peeks_transform_at_most_a_quarter_of_the_draws_consumed() {
        let dists = [
            DiscreteLaplace::new(0.9, 1.0).unwrap(),
            DiscreteLaplace::new(0.2, 1.0).unwrap(),
        ];
        let unit = Laplace::new(1.0).unwrap();
        let mut block = BlockBuffer::new();
        let mut rng = rng_from_seed(15);
        let mut out = Vec::new();
        block.begin();
        for _ in 0..BlockBuffer::CACHE_CHUNK {
            block.next(&unit, &mut rng);
        }
        block.begin();
        let mut consumed = 0;
        while consumed < 3000 {
            block.discrete_peek_tuples(&dists, &mut rng, &mut out);
            assert!(out.len() >= 2 && out.len().is_multiple_of(2));
            assert!(
                out.len() <= (consumed / 4).max(BlockBuffer::PEEK_FLOOR),
                "{} after {consumed}",
                out.len()
            );
            block.consume(out.len());
            consumed += out.len();
        }
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
