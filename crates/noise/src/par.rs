//! Per-block derived sub-streams: a noise-fill layout that splits across
//! threads.
//!
//! The mechanisms fill an `n`-sized noise vector from **one** sequential
//! RNG, which caps a single request at one core. This module defines the
//! alternative layout:
//!
//! * the fill is split into fixed-size blocks of [`BLOCK_LEN`] draws;
//! * block `b` of a run is filled from its own derived generator,
//!   `derive_fast_stream(run_seed, b)` — so the value of any block is a
//!   pure function of `(run_seed, b)` and never of which thread filled it,
//!   or when.
//!
//! Because blocks are independent by construction, the parallel engine
//! ([`par_fill_offset_blocks`]) and the sequential reference engine
//! ([`fill_offset_blocks`]) are **bit-identical for every thread count**.
//! A blocked fill is a *different stream* from a single-RNG fill. No
//! mechanism runs this layout: it is a layer the gated benchmark times, at
//! one and two threads.

use crate::rng::derive_fast_stream;
use crate::traits::ContinuousDistribution;

/// Draws per block: 4096 `f64`s (32 KiB per slab — a few L1-sized chunks
/// per thread at the `n = 100k` sizes the serving layer cares about).
pub const BLOCK_LEN: usize = 4096;

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
            scope.spawn(move || {
                for (blk, b, o) in shard {
                    let mut rng = derive_fast_stream(run_seed, first_block + blk);
                    dist.fill_into_offset(&mut rng, b, o);
                }
            });
        }
    });
}

/// One unit of a sharded fill: the block index *relative to the start of
/// the fill*, its offset slab, and its output slab.
type BlockShard<'a> = (u64, &'a [f64], &'a mut [f64]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gumbel, Laplace};

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
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let lap = Laplace::new(1.0).unwrap();
        let mut out = vec![0.0; 3];
        par_fill_offset_blocks(&lap, 0, 0, 2, &[1.0, 2.0], &mut out);
    }
}
