//! Per-block derived sub-streams: the intra-run parallel noise-fill layout.
//!
//! The workspace's fast paths fill an `n`-sized noise vector from **one**
//! sequential RNG, which caps a single request at one core. This module
//! defines the alternative layout the `free-gap-core` per-block provider
//! (`ParallelDraws`) builds on:
//!
//! * the tape is split into fixed-size blocks of [`BLOCK_LEN`] draws;
//! * block `b` of a run is filled from its own derived generator,
//!   `derive_fast_stream(run_seed, b)` (see
//!   [`derive_stream_seed`](crate::rng::derive_stream_seed) for the exact
//!   mixing) — so the value of any block is a pure function of
//!   `(run_seed, b)` and never of which thread filled it, or when;
//! * consecutive bulk fills within one run consume consecutive block
//!   indices; scalar (non-bulk) draws live on the reserved stream index
//!   [`SCALAR_STREAM`], far outside the block range.
//!
//! Because blocks are independent by construction, the parallel engines
//! ([`par_fill_offset_blocks`], [`par_fill_values_offset_blocks`]) and the
//! sequential reference engines ([`fill_offset_blocks`],
//! [`fill_values_offset_blocks`]) are **bit-identical for every thread
//! count** — the property the provider-level digest tests in
//! `free-gap-core` pin. The cost of the layout is that a blocked fill is a
//! *different stream* from the single-RNG fast paths; it is a new path
//! (`call_par` in `free-gap-core`), not a replacement.

use crate::rng::derive_fast_stream;
use crate::traits::{ContinuousDistribution, DiscreteDistribution};

/// Draws per block: 4096 `f64`s (32 KiB per slab — a few L1-sized chunks
/// per thread at the `n = 100k` sizes the serving layer cares about).
pub const BLOCK_LEN: usize = 4096;

/// The stream index reserved for scalar (non-bulk) draws of a run. Bulk
/// fills consume block indices counting up from 0; a run would need to
/// fill 2⁶⁴ − 1 blocks before colliding with this reserved stream.
pub const SCALAR_STREAM: u64 = u64::MAX;

/// Number of consecutive block indices a bulk fill of `n` values consumes.
pub fn blocks_for(n: usize) -> u64 {
    n.div_ceil(BLOCK_LEN) as u64
}

/// Sequential reference engine for a blocked continuous fill:
/// `out[i] = base[i] + noiseᵢ`, where the noise of block `b` (relative to
/// `first_block`) is drawn from `derive_fast_stream(run_seed, first_block
/// + b)` exactly as [`ContinuousDistribution::fill_into_offset`] would.
///
/// # Panics
/// Panics if `base` and `out` have different lengths.
pub fn fill_offset_blocks<D: ContinuousDistribution>(
    dist: &D,
    run_seed: u64,
    first_block: u64,
    base: &[f64],
    out: &mut [f64],
) {
    // lint:allow(panic-freedom): documented panic — callers size both buffers before the call
    assert_eq!(base.len(), out.len(), "offset/output length mismatch");
    for (i, (b, o)) in base
        .chunks(BLOCK_LEN)
        .zip(out.chunks_mut(BLOCK_LEN))
        .enumerate()
    {
        let mut rng = derive_fast_stream(run_seed, first_block + i as u64);
        dist.fill_into_offset(&mut rng, b, o);
    }
}

/// Parallel twin of [`fill_offset_blocks`]: the same per-block streams,
/// filled by up to `threads` scoped threads over disjoint slabs.
/// Bit-identical to the sequential engine for any `threads`.
///
/// # Panics
/// Panics if `base` and `out` have different lengths.
pub fn par_fill_offset_blocks<D: ContinuousDistribution + Sync>(
    dist: &D,
    run_seed: u64,
    first_block: u64,
    threads: usize,
    base: &[f64],
    out: &mut [f64],
) {
    // lint:allow(panic-freedom): documented panic — callers size both buffers before the call
    assert_eq!(base.len(), out.len(), "offset/output length mismatch");
    if threads <= 1 || out.len() <= BLOCK_LEN {
        fill_offset_blocks(dist, run_seed, first_block, base, out);
        return;
    }
    for_each_block_sharded(threads, base, out, |blk, b, o| {
        let mut rng = derive_fast_stream(run_seed, first_block + blk);
        dist.fill_into_offset(&mut rng, b, o);
    });
}

/// Sequential reference engine for a blocked discrete fill — the
/// [`DiscreteDistribution::fill_values_into_offset`] analogue of
/// [`fill_offset_blocks`], same block-to-stream mapping.
///
/// # Panics
/// Panics if `base` and `out` have different lengths.
pub fn fill_values_offset_blocks<D: DiscreteDistribution>(
    dist: &D,
    run_seed: u64,
    first_block: u64,
    base: &[f64],
    out: &mut [f64],
) {
    // lint:allow(panic-freedom): documented panic — callers size both buffers before the call
    assert_eq!(base.len(), out.len(), "offset/output length mismatch");
    for (i, (b, o)) in base
        .chunks(BLOCK_LEN)
        .zip(out.chunks_mut(BLOCK_LEN))
        .enumerate()
    {
        let mut rng = derive_fast_stream(run_seed, first_block + i as u64);
        dist.fill_values_into_offset(&mut rng, b, o);
    }
}

/// Parallel twin of [`fill_values_offset_blocks`]; bit-identical to it for
/// any `threads`.
///
/// # Panics
/// Panics if `base` and `out` have different lengths.
pub fn par_fill_values_offset_blocks<D: DiscreteDistribution + Sync>(
    dist: &D,
    run_seed: u64,
    first_block: u64,
    threads: usize,
    base: &[f64],
    out: &mut [f64],
) {
    // lint:allow(panic-freedom): documented panic — callers size both buffers before the call
    assert_eq!(base.len(), out.len(), "offset/output length mismatch");
    if threads <= 1 || out.len() <= BLOCK_LEN {
        fill_values_offset_blocks(dist, run_seed, first_block, base, out);
        return;
    }
    for_each_block_sharded(threads, base, out, |blk, b, o| {
        let mut rng = derive_fast_stream(run_seed, first_block + blk);
        dist.fill_values_into_offset(&mut rng, b, o);
    });
}

/// One unit of a sharded fill: the block index *relative to the start of
/// the fill*, its offset slab, and its output slab.
type BlockShard<'a> = (u64, &'a [f64], &'a mut [f64]);

/// Shards the `(base, out)` block pairs round-robin over `threads` scoped
/// threads and runs `fill` on each pair. `fill` receives the block index
/// *relative to the start of this fill*.
fn for_each_block_sharded<F>(threads: usize, base: &[f64], out: &mut [f64], fill: F)
where
    F: Fn(u64, &[f64], &mut [f64]) + Sync,
{
    std::thread::scope(|scope| {
        let mut shards: Vec<Vec<BlockShard<'_>>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, (b, o)) in base
            .chunks(BLOCK_LEN)
            .zip(out.chunks_mut(BLOCK_LEN))
            .enumerate()
        {
            shards[i % threads].push((i as u64, b, o));
        }
        for shard in shards {
            let fill = &fill;
            scope.spawn(move || {
                for (blk, b, o) in shard {
                    fill(blk, b, o);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiscreteLaplace, Gumbel, Laplace};

    fn base_vec(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 97) as f64 - 11.0).collect()
    }

    #[test]
    fn par_matches_seq_bitwise_across_thread_counts_and_boundaries() {
        let lap = Laplace::new(1.7).unwrap();
        for n in [
            0,
            1,
            100,
            BLOCK_LEN - 1,
            BLOCK_LEN,
            BLOCK_LEN + 1,
            3 * BLOCK_LEN + 17,
        ] {
            let base = base_vec(n);
            let mut seq = vec![0.0; n];
            fill_offset_blocks(&lap, 99, 5, &base, &mut seq);
            for threads in [1, 2, 3, 4] {
                let mut par = vec![f64::NAN; n];
                par_fill_offset_blocks(&lap, 99, 5, threads, &base, &mut par);
                assert!(
                    seq.iter()
                        .zip(&par)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "n = {n}, threads = {threads} diverged"
                );
            }
        }
    }

    #[test]
    fn discrete_par_matches_seq_bitwise() {
        let dl = DiscreteLaplace::new(0.2, 1.0).unwrap();
        for n in [1, BLOCK_LEN, 2 * BLOCK_LEN + 5] {
            let base: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
            let mut seq = vec![0.0; n];
            fill_values_offset_blocks(&dl, 7, 0, &base, &mut seq);
            for threads in [2, 4] {
                let mut par = vec![f64::NAN; n];
                par_fill_values_offset_blocks(&dl, 7, 0, threads, &base, &mut par);
                assert!(
                    seq.iter()
                        .zip(&par)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "n = {n}, threads = {threads} diverged"
                );
            }
        }
    }

    #[test]
    fn block_values_depend_only_on_run_seed_and_absolute_block_index() {
        // Filling [0, 2B) as one call equals filling [0, B) and [B, 2B)
        // as two calls with consecutive first_block values.
        let gum = Gumbel::new(1.0).unwrap();
        let n = 2 * BLOCK_LEN;
        let base = base_vec(n);
        let mut whole = vec![0.0; n];
        fill_offset_blocks(&gum, 3, 10, &base, &mut whole);
        let mut halves = vec![0.0; n];
        fill_offset_blocks(&gum, 3, 10, &base[..BLOCK_LEN], &mut halves[..BLOCK_LEN]);
        fill_offset_blocks(&gum, 3, 11, &base[BLOCK_LEN..], &mut halves[BLOCK_LEN..]);
        assert_eq!(whole, halves);
        // …and a different run seed or block offset moves every value.
        let mut other = vec![0.0; n];
        fill_offset_blocks(&gum, 4, 10, &base, &mut other);
        assert_ne!(whole, other);
        fill_offset_blocks(&gum, 3, 12, &base, &mut other);
        assert_ne!(whole, other);
    }

    #[test]
    fn blocks_for_counts_partial_blocks() {
        assert_eq!(blocks_for(0), 0);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(BLOCK_LEN), 1);
        assert_eq!(blocks_for(BLOCK_LEN + 1), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let lap = Laplace::new(1.0).unwrap();
        let mut out = vec![0.0; 3];
        par_fill_offset_blocks(&lap, 0, 0, 2, &[1.0, 2.0], &mut out);
    }
}
