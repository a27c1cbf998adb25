//! Seeded RNG conventions for the workspace.
//!
//! Everything in `free-gap` is Monte-Carlo; reproducibility therefore hinges
//! on disciplined seeding. The convention is:
//!
//! * experiments and tests construct a root [`StdRng`] via [`rng_from_seed`];
//! * independent parallel streams are derived with [`derive_stream`], which
//!   mixes the root seed with a stream index through SplitMix64 so streams
//!   are decorrelated even for adjacent indices.
//!
//! ## The fast path
//!
//! [`StdRng`] is ChaCha-based: cryptographic-quality and the right default
//! for anything privacy-adjacent, but several times more expensive per draw
//! than necessary for throughput benchmarking. Monte-Carlo inner loops that
//! only need statistical quality can opt into [`FastRng`]
//! (Xoshiro256++-family) via [`fast_rng_from_seed`] / [`derive_fast_stream`],
//! which mirror the `StdRng` constructors seed-for-seed. The two generator
//! families produce **different streams** — results are deterministic per
//! generator, and the workspace's published experiment numbers always use
//! the `StdRng` convention; `FastRng` is for the perf harness.

use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;

/// The fast non-cryptographic generator used by Monte-Carlo benchmarks.
pub type FastRng = SmallRng;

/// Builds a deterministic [`StdRng`] from a 64-bit seed.
///
/// The seed is expanded with SplitMix64 into the full 256-bit state so that
/// small seeds (0, 1, 2, …) still produce well-mixed initial states — this
/// is exactly `SeedableRng::seed_from_u64`'s documented expansion, so the
/// function delegates rather than duplicating it.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The 64-bit seed a `(seed, stream)` pair derives to — the mixing step
/// shared by [`derive_stream`] and [`derive_fast_stream`].
fn derive_stream_seed(seed: u64, stream: u64) -> u64 {
    // Golden-ratio increment separates (seed, stream) pairs before mixing.
    seed ^ splitmix64(&mut (stream.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// Derives the RNG for an independent stream (e.g. one Monte-Carlo worker).
///
/// `derive_stream(seed, i)` and `derive_stream(seed, j)` are decorrelated for
/// `i != j`, and the mapping is stable across runs and platforms.
pub fn derive_stream(seed: u64, stream: u64) -> StdRng {
    rng_from_seed(derive_stream_seed(seed, stream))
}

/// Builds a deterministic [`FastRng`] from a 64-bit seed (the fast-path
/// analogue of [`rng_from_seed`]; same SplitMix64 seed expansion).
pub fn fast_rng_from_seed(seed: u64) -> FastRng {
    FastRng::seed_from_u64(seed)
}

/// Derives an independent [`FastRng`] stream (the fast-path analogue of
/// [`derive_stream`]; same `(seed, stream)` mixing).
pub fn derive_fast_stream(seed: u64, stream: u64) -> FastRng {
    fast_rng_from_seed(derive_stream_seed(seed, stream))
}

/// SplitMix64 step: advances `state` and returns a mixed 64-bit output.
///
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (the standard seed-expansion mixer).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let mut s0 = derive_stream(7, 0);
        let mut s0b = derive_stream(7, 0);
        let mut s1 = derive_stream(7, 1);
        let x0: u64 = s0.gen();
        assert_eq!(x0, s0b.gen::<u64>());
        assert_ne!(x0, s1.gen::<u64>());
    }

    #[test]
    fn derive_stream_seed_is_the_shared_mixing_step() {
        // Both derive functions must expand exactly the seed
        // derive_stream_seed names, so the two generator families derive
        // their streams from one mixing step.
        for (seed, stream) in [(0u64, 0u64), (7, 3), (u64::MAX, u64::MAX), (42, 1 << 40)] {
            let derived = derive_stream_seed(seed, stream);
            let mut via_seed = fast_rng_from_seed(derived);
            let mut via_stream = derive_fast_stream(seed, stream);
            assert_eq!(via_seed.gen::<u64>(), via_stream.gen::<u64>());
            let mut std_via_seed = rng_from_seed(derived);
            let mut std_via_stream = derive_stream(seed, stream);
            assert_eq!(std_via_seed.gen::<u64>(), std_via_stream.gen::<u64>());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // First output for state 0 (published SplitMix64 test vector).
        let mut st = 0u64;
        assert_eq!(splitmix64(&mut st), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn seed_expansion_matches_documented_splitmix_convention() {
        // rng_from_seed delegates to seed_from_u64; this pins the documented
        // convention (SplitMix64 per 8-byte chunk) so a change to either
        // implementation cannot silently fork the workspace's streams.
        let mut state = 42u64;
        let mut key = [0u8; 32];
        for chunk in key.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        let mut manual = StdRng::from_seed(key);
        let mut derived = rng_from_seed(42);
        for _ in 0..8 {
            assert_eq!(manual.gen::<u64>(), derived.gen::<u64>());
        }
        let mut fast_manual = FastRng::from_seed(key);
        let mut fast_derived = fast_rng_from_seed(42);
        for _ in 0..8 {
            assert_eq!(fast_manual.gen::<u64>(), fast_derived.gen::<u64>());
        }
    }

    #[test]
    fn fast_streams_are_deterministic_and_distinct() {
        let mut a = fast_rng_from_seed(42);
        let mut b = fast_rng_from_seed(42);
        let mut c = fast_rng_from_seed(43);
        let x: u64 = a.gen();
        assert_eq!(x, b.gen::<u64>());
        assert_ne!(x, c.gen::<u64>());
        let mut s0 = derive_fast_stream(7, 0);
        let mut s1 = derive_fast_stream(7, 1);
        assert_ne!(s0.gen::<u64>(), s1.gen::<u64>());
    }

    #[test]
    fn small_seeds_are_well_mixed() {
        // Seeds 0 and 1 must not produce correlated first outputs.
        let mut a = rng_from_seed(0);
        let mut b = rng_from_seed(1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
        // Hamming distance should be near 32 for well-mixed states.
        let hd = (xa ^ xb).count_ones();
        assert!(hd > 10, "suspiciously close outputs: hamming distance {hd}");
    }
}
