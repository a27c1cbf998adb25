//! Stream discipline of the draw providers (README.md invariant): however a
//! provider buffers internally, the sequence of draws it *serves* is
//! bit-identical to a sequential sampling loop at the requested scales on
//! the same RNG stream.
//!
//! The proptest drives the dyn adapter ([`SourceDraws`]), the blocked
//! scratch provider ([`ScratchDraws`]) and the draw-exact monomorphic
//! provider ([`RngDraws`]) through **random interleavings** of every draw
//! shape — single `next()`, `peek_pairs()`, `peek_tuples(m)`,
//! `fill_offset()`, their discrete (finite-precision) twins
//! `discrete_next()` / `discrete_peek_pairs()` / `discrete_peek_tuples()` /
//! `discrete_fill_offset()`, and the baseline-mechanism shapes
//! `gumbel_next()` / `exp_next()` / `staircase_next()` /
//! `staircase_fill_offset()` — over identically seeded streams, and asserts
//! every consumed draw matches the sequential reference bit-for-bit. This
//! is the property that lets one mechanism core swap providers freely: the
//! alignment checker sees the same tape the reference loop would record,
//! and the scratch path's block lookahead is invisible in the served
//! values. Mixing the two noise families in one interleaving is exactly
//! what the scratch provider's raw-uniform tape exists for: a continuous
//! and a discrete draw must come out of the *same* buffered stream in
//! sequential order.

use free_gap_alignment::SamplingSource;
use free_gap_core::draw::{DrawProvider, ParallelDraws, RngDraws, ScratchDraws, SourceDraws};
use free_gap_core::SvtScratch;
use free_gap_noise::rng::{derive_fast_stream, rng_from_seed};
use free_gap_noise::{
    ContinuousDistribution, DiscreteDistribution, DiscreteLaplace, Exponential, Gumbel, Laplace,
    Staircase,
};
use proptest::prelude::*;
use rand::Rng;

/// One step of a provider interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// `next(scale)`.
    Next(f64),
    /// `peek_pairs([s0, s1])` + consumption of the first pair.
    Pairs(f64, f64),
    /// `peek_tuples(scales)` + consumption of up to `take` whole tuples
    /// (bounded by the provider's slab; draw-exact providers expose one).
    Tuples(Vec<f64>, usize),
    /// `fill_offset` over `len` zero offsets at the given scale (the
    /// Noisy-Max / measurement batch shape).
    Fill(usize, f64),
    /// `discrete_next(rate, gamma)`.
    DiscreteNext(f64, f64),
    /// `discrete_peek_pairs([r0, r1], gamma)` + consumption of the first
    /// pair.
    DiscretePairs(f64, f64, f64),
    /// `discrete_peek_tuples(rates, gamma)` + consumption of up to `take`
    /// whole tuples.
    DiscreteTuples(Vec<f64>, f64, usize),
    /// `discrete_fill_offset` over `len` zero offsets at the given rate.
    DiscreteFill(usize, f64, f64),
    /// `gumbel_next(beta)` — the exponential-mechanism race shape.
    GumbelNext(f64),
    /// `exp_next(beta)`.
    ExpNext(f64),
    /// `staircase_next` at `(epsilon, gamma)` on unit sensitivity (four
    /// uniforms per draw).
    StaircaseNext(f64, f64),
    /// `staircase_fill_offset` over `len` zero offsets at `(epsilon, gamma)`.
    StaircaseFill(usize, f64, f64),
}

impl Op {
    /// The same op with multi-tuple consumption disabled, so every provider
    /// consumes identically.
    fn single(&self) -> Op {
        match self {
            Op::Tuples(scales, _) => Op::Tuples(scales.clone(), 1),
            Op::DiscreteTuples(rates, gamma, _) => Op::DiscreteTuples(rates.clone(), *gamma, 1),
            other => other.clone(),
        }
    }
}

/// What a served draw was requested as: a continuous `Lap(scale)` or a
/// discrete Laplace at `(unit_epsilon, gamma)`.
#[derive(Debug, Clone, Copy)]
enum Want {
    Cont(f64),
    Disc(f64, f64),
    Gum(f64),
    Exp(f64),
    Stair(f64, f64),
}

/// Positive, finite scales spanning what mechanisms actually request.
const SCALES: [f64; 5] = [0.25, 1.0, 2.0, 7.5, 40.0];
/// Discrete per-unit rates (ε' in the Appendix-A.1 notation).
const RATES: [f64; 4] = [0.1, 0.4, 1.0, 2.5];
/// Lattice steps.
const GAMMAS: [f64; 2] = [0.5, 1.0];

/// Deterministically expands `(seed, count)` into an op interleaving — the
/// vendored proptest generates the raw numbers, this builds the structure.
fn random_ops(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = free_gap_noise::rng::derive_stream(seed, 0x0D5);
    let scale = |rng: &mut rand::rngs::StdRng| SCALES[rng.gen_range(0..SCALES.len())];
    let rate = |rng: &mut rand::rngs::StdRng| RATES[rng.gen_range(0..RATES.len())];
    let gamma = |rng: &mut rand::rngs::StdRng| GAMMAS[rng.gen_range(0..GAMMAS.len())];
    (0..count)
        .map(|_| match rng.gen_range(0..12) {
            0 => Op::Next(scale(&mut rng)),
            1 => {
                let a = scale(&mut rng);
                let b = scale(&mut rng);
                Op::Pairs(a, b)
            }
            2 => {
                let m = rng.gen_range(1..6);
                let scales: Vec<f64> = (0..m).map(|_| scale(&mut rng)).collect();
                let take = rng.gen_range(1..4);
                Op::Tuples(scales, take)
            }
            3 => Op::Fill(rng.gen_range(1..12), scale(&mut rng)),
            4 => Op::DiscreteNext(rate(&mut rng), gamma(&mut rng)),
            5 => {
                let a = rate(&mut rng);
                let b = rate(&mut rng);
                Op::DiscretePairs(a, b, gamma(&mut rng))
            }
            6 => {
                let m = rng.gen_range(1..6);
                let rates: Vec<f64> = (0..m).map(|_| rate(&mut rng)).collect();
                let take = rng.gen_range(1..4);
                Op::DiscreteTuples(rates, gamma(&mut rng), take)
            }
            7 => Op::DiscreteFill(rng.gen_range(1..12), rate(&mut rng), gamma(&mut rng)),
            8 => Op::GumbelNext(scale(&mut rng)),
            9 => Op::ExpNext(scale(&mut rng)),
            10 => Op::StaircaseNext(rate(&mut rng), SPLITS[rng.gen_range(0..SPLITS.len())]),
            _ => Op::StaircaseFill(
                rng.gen_range(1..8),
                rate(&mut rng),
                SPLITS[rng.gen_range(0..SPLITS.len())],
            ),
        })
        .collect()
}

/// Stair-split parameters for the staircase ops (must lie in (0, 1)).
const SPLITS: [f64; 2] = [0.3, 0.7];

/// The staircase distribution the ops request: unit sensitivity.
fn stair_dist(epsilon: f64, split: f64) -> Staircase {
    Staircase::new(epsilon, 1.0, split).expect("valid staircase shape")
}

/// Serves `ops` through `provider`, returning every consumed draw with the
/// request it was served for, in consumption order.
fn serve<P: DrawProvider>(ops: &[Op], provider: &mut P) -> Vec<(Want, f64)> {
    let mut served = Vec::new();
    provider.begin();
    for op in ops {
        match op {
            Op::Next(scale) => served.push((Want::Cont(*scale), provider.next(*scale))),
            Op::Pairs(a, b) => {
                let slab = provider.peek_pairs([*a, *b]);
                served.push((Want::Cont(*a), slab[0]));
                served.push((Want::Cont(*b), slab[1]));
                provider.consume(2);
            }
            Op::Tuples(scales, take) => {
                let m = scales.len();
                let slab = provider.peek_tuples(scales);
                assert!(slab.len() >= m && slab.len().is_multiple_of(m));
                let tuples = (slab.len() / m).min(*take);
                for t in 0..tuples {
                    for (b, &scale) in scales.iter().enumerate() {
                        served.push((Want::Cont(scale), slab[t * m + b]));
                    }
                }
                provider.consume(tuples * m);
            }
            Op::Fill(len, scale) => {
                let base = vec![0.0f64; *len];
                let mut out = Vec::new();
                provider.fill_offset(&base, *scale, &mut out);
                // Zero offsets: each output element IS the served draw.
                served.extend(out.iter().map(|v| (Want::Cont(*scale), *v)));
            }
            Op::DiscreteNext(rate, gamma) => served.push((
                Want::Disc(*rate, *gamma),
                provider.discrete_next(*rate, *gamma),
            )),
            Op::DiscretePairs(a, b, gamma) => {
                let slab = provider.discrete_peek_pairs([*a, *b], *gamma);
                served.push((Want::Disc(*a, *gamma), slab[0]));
                served.push((Want::Disc(*b, *gamma), slab[1]));
                provider.discrete_consume(2);
            }
            Op::DiscreteTuples(rates, gamma, take) => {
                let m = rates.len();
                let slab = provider.discrete_peek_tuples(rates, *gamma);
                assert!(slab.len() >= m && slab.len().is_multiple_of(m));
                let tuples = (slab.len() / m).min(*take);
                for t in 0..tuples {
                    for (b, &rate) in rates.iter().enumerate() {
                        served.push((Want::Disc(rate, *gamma), slab[t * m + b]));
                    }
                }
                provider.discrete_consume(tuples * m);
            }
            Op::DiscreteFill(len, rate, gamma) => {
                let base = vec![0.0f64; *len];
                let mut out = Vec::new();
                provider.discrete_fill_offset(&base, *rate, *gamma, &mut out);
                served.extend(out.iter().map(|v| (Want::Disc(*rate, *gamma), *v)));
            }
            Op::GumbelNext(beta) => {
                served.push((Want::Gum(*beta), provider.gumbel_next(*beta)));
            }
            Op::ExpNext(beta) => {
                served.push((Want::Exp(*beta), provider.exp_next(*beta)));
            }
            Op::StaircaseNext(eps, split) => {
                let dist = stair_dist(*eps, *split);
                served.push((Want::Stair(*eps, *split), provider.staircase_next(&dist)));
            }
            Op::StaircaseFill(len, eps, split) => {
                let dist = stair_dist(*eps, *split);
                let base = vec![0.0f64; *len];
                let mut out = Vec::new();
                provider.staircase_fill_offset(&base, &dist, &mut out);
                served.extend(out.iter().map(|v| (Want::Stair(*eps, *split), *v)));
            }
        }
    }
    served
}

/// Asserts `served` equals a sequential per-draw sampling loop at the
/// consumed request parameters on a fresh stream from `seed` — the
/// stream-discipline invariant, per provider.
fn assert_sequential(label: &str, served: &[(Want, f64)], seed: u64) {
    assert_sequential_on(label, served, rng_from_seed(seed));
}

/// [`assert_sequential`] against an arbitrary reference stream — the
/// per-block provider serves its scalar draws from a *derived*
/// sub-stream, not `rng_from_seed(seed)` directly.
fn assert_sequential_on<R: Rng>(label: &str, served: &[(Want, f64)], mut rng: R) {
    for (i, (want, value)) in served.iter().enumerate() {
        let expect = match want {
            Want::Cont(scale) => Laplace::new(*scale).unwrap().sample(&mut rng),
            Want::Disc(rate, gamma) => DiscreteLaplace::new(*rate, *gamma)
                .unwrap()
                .sample_value(&mut rng),
            Want::Gum(beta) => Gumbel::new(*beta).unwrap().sample(&mut rng),
            Want::Exp(beta) => Exponential::new(*beta).unwrap().sample(&mut rng),
            Want::Stair(eps, split) => stair_dist(*eps, *split).sample(&mut rng),
        };
        assert_eq!(
            value.to_bits(),
            expect.to_bits(),
            "{label}: draw {i} for {want:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any interleaving of the continuous and discrete draw shapes consumes
    /// the underlying RNG stream in sequential order on every provider, and
    /// the dyn adapter consumes it in exactly the same order as the scratch
    /// provider.
    #[test]
    fn interleavings_serve_identical_streams(
        ops_seed in 0u64..1_000_000,
        op_count in 1usize..40,
        seed in 0u64..100_000,
    ) {
        let ops = random_ops(ops_seed, op_count);
        // Per-provider invariant: consumed draws == sequential sampling at
        // the consumed scales (providers may differ in how many tuples they
        // expose per peek, so each is checked against its own consumption).
        let mut dyn_rng = rng_from_seed(seed);
        let mut source = SamplingSource::new(&mut dyn_rng);
        let dyn_served = serve(&ops, &mut SourceDraws::new(&mut source));
        assert_sequential("dyn adapter", &dyn_served, seed);

        let mut plain_rng = rng_from_seed(seed);
        let plain_served = serve(&ops, &mut RngDraws::new(&mut plain_rng));
        assert_sequential("rng provider", &plain_served, seed);

        let mut scratch = SvtScratch::new();
        let mut scratch_rng = rng_from_seed(seed);
        let scratch_served =
            serve(&ops, &mut ScratchDraws::new(&mut scratch, &mut scratch_rng));
        assert_sequential("scratch provider", &scratch_served, seed);

        // The two draw-exact providers consume identically: element-wise
        // bit equality.
        prop_assert_eq!(dyn_served.len(), plain_served.len());
        for (i, (a, b)) in dyn_served.iter().zip(&plain_served).enumerate() {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "dyn vs rng, draw {i}");
        }

        // With multi-tuple consumption disabled every provider consumes the
        // same draws — the dyn↔scratch order equivalence, element for
        // element.
        let single_ops: Vec<Op> = ops.iter().map(Op::single).collect();
        let mut dyn_rng = rng_from_seed(seed);
        let mut source = SamplingSource::new(&mut dyn_rng);
        let dyn_single = serve(&single_ops, &mut SourceDraws::new(&mut source));
        let mut scratch = SvtScratch::new();
        let mut scratch_rng = rng_from_seed(seed);
        let scratch_single =
            serve(&single_ops, &mut ScratchDraws::new(&mut scratch, &mut scratch_rng));
        prop_assert_eq!(dyn_single.len(), scratch_single.len());
        for (i, (a, b)) in dyn_single.iter().zip(&scratch_single).enumerate() {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "dyn vs scratch, draw {i}");
        }
    }

    /// The per-block provider is thread-invariant: [`ParallelDraws`] at 2
    /// and 4 threads serves the bit-identical stream of its sequential
    /// one-thread form through any interleaving of the draw shapes, a reset
    /// provider replays a fresh one exactly, and the scalar draws obey the
    /// usual stream discipline on the reserved scalar sub-stream
    /// (`derive_fast_stream(seed, SCALAR_STREAM)`).
    #[test]
    fn block_providers_are_thread_invariant(
        ops_seed in 0u64..1_000_000,
        op_count in 1usize..40,
        seed in 0u64..100_000,
    ) {
        let ops = random_ops(ops_seed, op_count);
        // Every thread count runs the same internal tape, so slab sizes (and
        // hence multi-tuple consumption) agree — no `single()` needed.
        let mut seq = ParallelDraws::new(seed, 1);
        let seq_served = serve(&ops, &mut seq);
        for threads in [2usize, 4] {
            let mut par = ParallelDraws::new(seed, threads);
            let par_served = serve(&ops, &mut par);
            prop_assert_eq!(seq_served.len(), par_served.len());
            for (i, (a, b)) in seq_served.iter().zip(&par_served).enumerate() {
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "seq vs {threads}-thread par, draw {i}"
                );
            }
        }

        // Rebinding to the same run seed replays the stream exactly —
        // buffer history from the first serve is invisible. Single-tuple
        // consumption, as in `scratch_reuse_is_invisible`: warm tape state
        // may expose larger (value-identical) slabs per peek.
        let single_ops: Vec<Op> = ops.iter().map(Op::single).collect();
        seq.reset(seed);
        let reset_served = serve(&single_ops, &mut seq);
        let mut fresh = ParallelDraws::new(seed, 1);
        let fresh_served = serve(&single_ops, &mut fresh);
        prop_assert_eq!(fresh_served.len(), reset_served.len());
        for (i, (a, b)) in fresh_served.iter().zip(&reset_served).enumerate() {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "fresh vs reset, draw {i}");
        }

        // Bulk fills consume block streams, not the scalar stream, so an
        // interleaving without them must match sequential sampling on the
        // scalar sub-stream alone.
        let scalar_ops: Vec<Op> = ops
            .iter()
            .filter(|op| {
                !matches!(op, Op::Fill(..) | Op::DiscreteFill(..) | Op::StaircaseFill(..))
            })
            .cloned()
            .collect();
        let mut scalar_provider = ParallelDraws::new(seed, 1);
        let scalar_served = serve(&scalar_ops, &mut scalar_provider);
        assert_sequential_on(
            "block scalar stream",
            &scalar_served,
            derive_fast_stream(seed, free_gap_noise::par::SCALAR_STREAM),
        );
    }

    /// A scratch provider reused across runs (dirty block state, stale
    /// prediction, warm discrete-distribution cache) still serves the same
    /// stream as a fresh one: `begin` fully isolates runs.
    #[test]
    fn scratch_reuse_is_invisible(
        warm_seed in 0u64..1_000_000,
        warm_count in 0usize..20,
        ops_seed in 0u64..1_000_000,
        op_count in 1usize..20,
        seed in 0u64..100_000,
    ) {
        let warm_ops = random_ops(warm_seed, warm_count);
        let ops = random_ops(ops_seed, op_count);
        let mut dirty = SvtScratch::new();
        {
            let mut warm_rng = rng_from_seed(seed.wrapping_add(1));
            serve(&warm_ops, &mut ScratchDraws::new(&mut dirty, &mut warm_rng));
        }
        // Single-tuple consumption so the dirty and fresh runs consume
        // identically regardless of history-dependent slab sizes.
        let single_ops: Vec<Op> = ops.iter().map(Op::single).collect();
        let mut dirty_rng = rng_from_seed(seed);
        let dirty_served =
            serve(&single_ops, &mut ScratchDraws::new(&mut dirty, &mut dirty_rng));
        assert_sequential("dirty scratch", &dirty_served, seed);

        let mut fresh = SvtScratch::new();
        let mut fresh_rng = rng_from_seed(seed);
        let fresh_served =
            serve(&single_ops, &mut ScratchDraws::new(&mut fresh, &mut fresh_rng));

        prop_assert_eq!(dirty_served.len(), fresh_served.len());
        for i in 0..dirty_served.len() {
            assert_eq!(
                dirty_served[i].1.to_bits(),
                fresh_served[i].1.to_bits(),
                "draw {i}"
            );
        }
    }
}
