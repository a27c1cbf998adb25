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
//! `staircase_fill_offset()` — and `skip(n)`, which must move the stream as
//! `n` served draws would, over identically seeded streams, and asserts
//! every consumed draw matches the sequential reference bit-for-bit. This
//! is the property that lets one mechanism core swap providers freely: the
//! alignment checker sees the same tape the reference loop would record,
//! and the scratch path's block lookahead is invisible in the served
//! values. Mixing the two noise families in one interleaving is exactly
//! what the scratch provider's raw-uniform tape exists for: a continuous
//! and a discrete draw must come out of the *same* buffered stream in
//! sequential order.
//!
//! Three deterministic cases pin the tape's bulk-fill rule (drain the
//! buffered uniforms, then run the fused kernel on the RNG), which random
//! interleavings reach only by chance: a fill right after `begin` pulls
//! from the RNG exactly what it serves, a staircase draw may straddle
//! the end of the buffered uniforms, and a pruned selection's skips and
//! fills leave the RNG where the `n`-draw loop does.

use free_gap_alignment::SamplingSource;
use free_gap_core::api::{AnyMechanism, ExponentialTopK, Mechanism, MechanismOutput, QuerySlice};
use free_gap_core::draw::{DrawProvider, RngDraws, ScratchDraws, SourceDraws};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::scratch::TopKScratch;
use free_gap_core::SvtScratch;
use free_gap_noise::rng::rng_from_seed;
use free_gap_noise::{
    BlockBuffer, ContinuousDistribution, DiscreteDistribution, DiscreteLaplace, Exponential,
    Gumbel, Laplace, Staircase,
};
use proptest::prelude::*;
use rand::{Rng, RngCore};

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
    /// `skip(n)`: the stream passes `n` draws, none of them served.
    Skip(usize),
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
/// discrete Laplace at `(unit_epsilon, gamma)`, and so on; `Skipped`
/// marks a draw the stream passed without serving it.
#[derive(Debug, Clone, Copy)]
enum Want {
    Cont(f64),
    Disc(f64, f64),
    Gum(f64),
    Exp(f64),
    Stair(f64, f64),
    Skipped,
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
        .map(|_| match rng.gen_range(0..13) {
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
            11 => Op::Skip([0, 1, 3, 17, 70, 5000][rng.gen_range(0..6usize)]),
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
            Op::Skip(n) => {
                provider.skip(*n);
                served.extend(std::iter::repeat_n((Want::Skipped, 0.0), *n));
            }
        }
    }
    served
}

/// Asserts `served` equals a sequential per-draw sampling loop at the
/// consumed request parameters on a fresh stream from `seed` — the
/// stream-discipline invariant, per provider.
fn assert_sequential(label: &str, served: &[(Want, f64)], seed: u64) {
    let mut rng = rng_from_seed(seed);
    for (i, (want, value)) in served.iter().enumerate() {
        let expect = match want {
            Want::Cont(scale) => Laplace::new(*scale).unwrap().sample(&mut rng),
            Want::Disc(rate, gamma) => DiscreteLaplace::new(*rate, *gamma)
                .unwrap()
                .sample_value(&mut rng),
            Want::Gum(beta) => Gumbel::new(*beta).unwrap().sample(&mut rng),
            Want::Exp(beta) => Exponential::new(*beta).unwrap().sample(&mut rng),
            Want::Stair(eps, split) => stair_dist(*eps, *split).sample(&mut rng),
            Want::Skipped => {
                // One uniform per skipped draw; nothing to compare.
                let _: f64 = rng.gen();
                continue;
            }
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

    /// A scratch provider reused across runs (dirty block state, stale
    /// prediction) still serves the same stream as a fresh one: `begin`
    /// fully isolates runs.
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

/// The three bulk-fill shapes of the tape.
#[derive(Debug, Clone, Copy)]
enum Bulk {
    Laplace,
    Discrete,
    Staircase,
}

/// A bulk fill right after `begin` pulls from the RNG exactly the uniforms
/// it serves (one per Laplace or discrete draw, four per staircase draw),
/// even on a tape left with stale lookahead and a stale prediction by an
/// earlier run.
#[test]
fn bulk_fills_after_begin_pull_exactly_what_they_serve() {
    let stair = stair_dist(0.9, 0.35);
    let mut scratch = SvtScratch::new();
    for n in [1usize, 17, 5000] {
        let base: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
        for shape in [Bulk::Laplace, Bulk::Discrete, Bulk::Staircase] {
            {
                let mut warm = rng_from_seed(99);
                let mut p = ScratchDraws::new(&mut scratch, &mut warm);
                p.begin();
                for _ in 0..37 {
                    p.next(1.0);
                }
            }
            let (mut rng, mut expect) = (rng_from_seed(7), rng_from_seed(7));
            let mut out = Vec::new();
            let mut p = ScratchDraws::new(&mut scratch, &mut rng);
            p.begin();
            let want: Vec<f64> = match shape {
                Bulk::Laplace => {
                    p.fill_offset(&base, 2.5, &mut out);
                    let lap = Laplace::new(2.5).unwrap();
                    base.iter().map(|b| b + lap.sample(&mut expect)).collect()
                }
                Bulk::Discrete => {
                    p.discrete_fill_offset(&base, 0.4, 1.0, &mut out);
                    let dl = DiscreteLaplace::new(0.4, 1.0).unwrap();
                    base.iter()
                        .map(|b| b + dl.sample_value(&mut expect))
                        .collect()
                }
                Bulk::Staircase => {
                    p.staircase_fill_offset(&base, &stair, &mut out);
                    base.iter().map(|b| b + stair.sample(&mut expect)).collect()
                }
            };
            assert_eq!(out.len(), n);
            for (i, (got, want)) in out.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{shape:?} n = {n}: value {i}"
                );
            }
            assert_eq!(
                rng.next_u64(),
                expect.next_u64(),
                "{shape:?} n = {n}: the fill pulled more than it served"
            );
        }
    }
}

/// A staircase draw may straddle the end of the tape's buffered uniforms:
/// with 1 to 7 uniforms buffered ahead of the cursor (one whole tuple at
/// most, then a partial one), three staircase draws served by
/// `staircase_fill_offset` or by `staircase_next` match the sequential
/// stream, and the missing uniforms come straight from the RNG, with no
/// refill.
#[test]
fn staircase_draws_straddle_the_buffered_uniforms() {
    let stair = stair_dist(0.9, 0.35);
    let unit = Laplace::new(1.0).unwrap();
    let base = [3.0, -1.5, 0.25];
    for ahead in 1..=7 {
        for fill in [true, false] {
            let (mut rng, mut expect) = (rng_from_seed(34), rng_from_seed(34));
            let mut scratch = SvtScratch::new();
            let mut p = ScratchDraws::new(&mut scratch, &mut rng);
            p.begin();
            // A fresh tape's first block is `MIN_CHUNK` uniforms.
            for i in 0..BlockBuffer::MIN_CHUNK - ahead {
                let want = unit.sample(&mut expect);
                assert_eq!(p.next(1.0).to_bits(), want.to_bits(), "draw {i}");
            }
            let mut out = Vec::new();
            if fill {
                p.staircase_fill_offset(&base, &stair, &mut out);
            } else {
                out.extend(base.iter().map(|b| b + p.staircase_next(&stair)));
            }
            for (i, (got, b)) in out.iter().zip(&base).enumerate() {
                let want = b + stair.sample(&mut expect);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{ahead} ahead, fill {fill}: staircase draw {i}"
                );
            }
            assert_eq!(
                rng.next_u64(),
                expect.next_u64(),
                "{ahead} ahead, fill {fill}: RNG position"
            );
        }
    }
}

/// A pruned selection pulls no lookahead either: its skips and its fills
/// move the stream exactly as its draws would. On descending counts, where
/// a bounded provider skips almost every draw, Algorithm 1 in both noise
/// families through `RngDraws` and through a fresh run of `ScratchDraws`
/// (on a tape left with stale lookahead), and the race through `RngDraws`,
/// leave the RNG where the textbook `n`-draw loop does. So the Noisy-Top-K
/// family keeps the bulk-fill exemption from rule 2 of the stream
/// discipline (`crate::scratch`).
#[test]
fn pruned_selections_leave_the_stream_where_the_n_draw_loop_does() {
    let counts: Vec<f64> = (1..=1000u32)
        .map(|i| (50_000.0 / f64::from(i)).floor())
        .collect();
    let req = QuerySlice::new(&counts);
    let race = ExponentialMechanism::new(0.7, true).unwrap();
    let top_k: [AnyMechanism; 3] = [
        NoisyTopKWithGap::new(5, 0.7, false).unwrap().into(),
        ClassicNoisyTopK::new(5, 0.7, true).unwrap().into(),
        DiscreteNoisyTopKWithGap::new(5, 0.7, true).unwrap().into(),
    ];
    let (mut topk, mut scratch) = (TopKScratch::new(), SvtScratch::new());
    for seed in 0..4 {
        let mut expect = rng_from_seed(seed);
        for _ in 0..counts.len() {
            let _: f64 = expect.gen();
        }
        let after = expect.next_u64();
        let race = AnyMechanism::from(ExponentialTopK::new(race, 5).unwrap());
        for mech in top_k.iter().chain([&race]) {
            let mut out = MechanismOutput::new_for(mech);
            let mut rng = rng_from_seed(seed);
            mech.call(&req, &mut RngDraws::new(&mut rng), &mut topk, &mut out)
                .unwrap();
            assert_eq!(rng.next_u64(), after, "{} through RngDraws", mech.name());
        }
        for mech in &top_k {
            {
                let mut warm = rng_from_seed(99);
                let mut p = ScratchDraws::new(&mut scratch, &mut warm);
                p.begin();
                for _ in 0..37 {
                    p.next(1.0);
                }
            }
            let mut out = MechanismOutput::new_for(mech);
            let mut rng = rng_from_seed(seed);
            let mut p = ScratchDraws::new(&mut scratch, &mut rng);
            mech.call(&req, &mut p, &mut topk, &mut out).unwrap();
            assert_eq!(
                rng.next_u64(),
                after,
                "{} through ScratchDraws",
                mech.name()
            );
        }
    }
}
