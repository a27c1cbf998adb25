//! The bounded-noise prune moves no output bit. Each SVT here runs on
//! workloads whose answers straddle the cut of every rung (the answer below
//! which no draw of that rung's sampler can accept it), placed from the
//! noisy threshold the run itself draws first: at the cut, one ULP (one
//! lattice step for the discrete SVT) either side of it, and in a
//! far-below/far-above mix. On those workloads the pruning providers
//! (`call_batched`'s `ScratchDraws`, and `RngDraws`) equal `call_reference`
//! bit for bit, a provider that reports itself unbounded gives the same
//! outputs and never sees `skip`, and a session fed one query at a time
//! equals one batch and one `run_into`. A lone answer at the prune's own
//! cut is peeked and the one just below it skipped, so the prune tests
//! exactly the bound: a looser or tighter cap fails here, although almost
//! no draw could show it in an output.
//!
//! The selections prune too: Algorithm 1 in both noise families skips an
//! answer that stays below the running `(k + 1)`-th noisy value at its
//! sampler's largest draw, and the exponential race one whose score stays
//! below the `k`-th at the largest Gumbel draw. They run on descending
//! counts (the cut is final early), the same counts with a rising spike
//! inside every few chunks (a skipped run, then a drawn answer that
//! enters the top), ascending counts (the cut rises at every query) and
//! an answer placed at the cut the run's own draws set, with its two
//! neighbours: the answer at the cut is drawn and the one just below it
//! skipped.
//!
//! The cores are also checked against the paper's pseudocode, written out
//! here one `NoiseSource` draw at a time in both noise families: the
//! textbook Sparse-Vector-with-Gap, Algorithm 1 and the Gumbel-max race.
//! Every other equivalence suite compares one core with itself through
//! different providers; this one compares it with an independent statement
//! of the algorithm.

use free_gap_alignment::{NoiseSource, SamplingSource};
use free_gap_core::api::{
    AnyMechanism, CallScratch, ExponentialTopK, Mechanism, MechanismOutput, QuerySlice,
};
use free_gap_core::draw::{DrawProvider, RngDraws, ScratchDraws};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{
    ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap, TopKItem, TopKOutput,
};
use free_gap_core::scratch::{SvtScratch, TopKScratch};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap, SvOutput,
};
use free_gap_core::MechanismError;
use free_gap_noise::rng::rng_from_seed;
use free_gap_noise::{
    ContinuousDistribution, DiscreteDistribution, DiscreteLaplace, Gumbel, Laplace, Staircase,
};
use std::collections::BTreeMap;
use std::f64::consts::SQRT_2;

const EPSILONS: [f64; 4] = [1e-300, 0.01, 0.7, 50.0];
const K: usize = 5;
const SEEDS: u64 = 6;

/// Forwards every draw to `inner`, reports `bounded` as told, and counts
/// the draws skipped and the peeks served; an unbounded probe panics on
/// `skip`, which a core must never call on it.
struct Probe<P> {
    inner: P,
    bounded: bool,
    skipped: usize,
    peeks: usize,
}

impl<P: DrawProvider> DrawProvider for Probe<P> {
    fn begin(&mut self) {
        self.inner.begin();
    }
    fn predicted_draws(&self) -> usize {
        self.inner.predicted_draws()
    }
    fn bounded(&self) -> bool {
        self.bounded
    }
    fn skip(&mut self, draws: usize) {
        assert!(self.bounded, "skip on an unbounded provider");
        self.skipped += draws;
        self.inner.skip(draws);
    }
    fn next(&mut self, scale: f64) -> f64 {
        self.inner.next(scale)
    }
    fn discrete_next(&mut self, unit_epsilon: f64, gamma: f64) -> f64 {
        self.inner.discrete_next(unit_epsilon, gamma)
    }
    fn discrete_peek_tuples(&mut self, unit_epsilons: &[f64], gamma: f64) -> &[f64] {
        self.peeks += 1;
        self.inner.discrete_peek_tuples(unit_epsilons, gamma)
    }
    fn discrete_consume(&mut self, draws: usize) {
        self.inner.discrete_consume(draws);
    }
    fn discrete_fill_offset(&mut self, base: &[f64], rate: f64, gamma: f64, out: &mut Vec<f64>) {
        self.inner.discrete_fill_offset(base, rate, gamma, out);
    }
    fn peek_tuples(&mut self, scales: &[f64]) -> &[f64] {
        self.peeks += 1;
        self.inner.peek_tuples(scales)
    }
    fn consume(&mut self, draws: usize) {
        self.inner.consume(draws);
    }
    fn fill_offset(&mut self, base: &[f64], scale: f64, out: &mut Vec<f64>) {
        self.inner.fill_offset(base, scale, out);
    }
    fn gumbel_next(&mut self, beta: f64) -> f64 {
        self.inner.gumbel_next(beta)
    }
    fn exp_next(&mut self, beta: f64) -> f64 {
        self.inner.exp_next(beta)
    }
    fn staircase_next(&mut self, dist: &Staircase) -> f64 {
        self.inner.staircase_next(dist)
    }
    fn staircase_fill_offset(&mut self, base: &[f64], dist: &Staircase, out: &mut Vec<f64>) {
        self.inner.staircase_fill_offset(base, dist, out);
    }
}

/// A continuous SVT under test: the noise scale of its threshold, and each
/// rung's noise scale and margin, cheapest rung first (the baseline's
/// margin is 0: it compares the noisy answer with the noisy threshold).
struct Continuous {
    mech: AnyMechanism,
    threshold_scale: f64,
    rungs: Vec<(f64, f64)>,
}

/// The continuous SVTs at budget `eps`: the one-, two- and three-rung
/// ladders, Algorithm 2, Sparse-Vector-with-Gap and classic SVT.
fn continuous(eps: f64) -> Vec<Continuous> {
    let mut all = Vec::new();
    for m in 1..=3 {
        let ladder = MultiBranchAdaptiveSparseVector::new(K, eps, 0.0, true, m).unwrap();
        // Rung b's budget is ε₁/2^{m-1-b} and its scale 1/budget on a
        // monotone workload; every rung but the baseline has a margin of
        // two standard deviations, 2√2·scale.
        let rungs = (0..m)
            .map(|b| {
                let scale = 1.0 / (ladder.epsilon1() / (1u64 << (m - 1 - b)) as f64);
                (scale, if b + 1 < m { 2.0 * SQRT_2 * scale } else { 0.0 })
            })
            .collect();
        all.push(Continuous {
            mech: ladder.into(),
            threshold_scale: 1.0 / ladder.epsilon0(),
            rungs,
        });
    }
    let alg2 = AdaptiveSparseVector::new(K, eps, 0.0, false).unwrap();
    all.push(Continuous {
        mech: alg2.into(),
        threshold_scale: 1.0 / alg2.epsilon0(),
        rungs: vec![(alg2.top_scale(), alg2.sigma()), (alg2.middle_scale(), 0.0)],
    });
    // Sparse-Vector-with-Gap runs at classic SVT's scales.
    let svg = SparseVectorWithGap::new(K, eps, 0.0, false).unwrap();
    let scales = ClassicSparseVector::new(K, eps, 0.0, false).unwrap();
    all.push(Continuous {
        mech: svg.into(),
        threshold_scale: scales.threshold_scale(),
        rungs: vec![(scales.query_scale(), 0.0)],
    });
    let classic = ClassicSparseVector::new(K, eps, 0.0, true).unwrap();
    all.push(Continuous {
        mech: classic.into(),
        threshold_scale: classic.threshold_scale(),
        rungs: vec![(classic.query_scale(), 0.0)],
    });
    all
}

/// The two workloads around a noisy threshold: `cuts` (each with its two
/// neighbours) cycled, with a far-above answer every 16th query, and a
/// far-below/far-above mix. `far` is beyond every rung's reach.
fn workloads(noisy_threshold: f64, cuts: &[f64], far: f64) -> [Vec<f64>; 2] {
    let straddle = (0..64)
        .map(|i| {
            if i % 16 == 15 {
                noisy_threshold + far
            } else {
                cuts[i % cuts.len()]
            }
        })
        .collect();
    let mix = (0..64)
        .map(|i| noisy_threshold + if i % 7 == 3 { far } else { -far })
        .collect();
    [straddle, mix]
}

/// Runs `mech` on `answers` at `seed` through the reference path and every
/// other provider, asserting equal outputs; returns the draws the bounded
/// probe skipped and the peeks it served.
fn assert_paths_agree(
    mech: &AnyMechanism,
    answers: &[f64],
    seed: u64,
    scratch: &mut CallScratch,
) -> (usize, usize) {
    let req = QuerySlice::new(answers);
    let label = format!("{} at cost {:e}, seed {seed}", mech.name(), mech.cost());
    let mut reference = MechanismOutput::new_for(mech);
    mech.call_reference(&req, &mut rng_from_seed(seed), &mut reference)
        .unwrap();
    let want = format!("{reference:?}");
    let mut out = MechanismOutput::new_for(mech);
    mech.call_batched(&req, &mut rng_from_seed(seed), scratch, &mut out)
        .unwrap();
    assert_eq!(format!("{out:?}"), want, "call_batched, {label}");
    let mut topk = TopKScratch::new();
    let mut rng = rng_from_seed(seed);
    mech.call(&req, &mut RngDraws::new(&mut rng), &mut topk, &mut out)
        .unwrap();
    assert_eq!(format!("{out:?}"), want, "RngDraws, {label}");
    let mut counts = (0, 0);
    for bounded in [false, true] {
        let mut rng = rng_from_seed(seed);
        let mut probe = Probe {
            inner: ScratchDraws::new(&mut scratch.svt, &mut rng),
            bounded,
            skipped: 0,
            peeks: 0,
        };
        mech.call(&req, &mut probe, &mut topk, &mut out).unwrap();
        assert_eq!(format!("{out:?}"), want, "bounded {bounded}, {label}");
        counts = (probe.skipped, probe.peeks);
    }
    counts
}

/// The `f64` order as an integer order, and back.
fn key(x: f64) -> i128 {
    let bits = x.to_bits() as i64;
    i128::from(if bits < 0 { i64::MIN - bits } else { bits })
}

fn unkey(k: i128) -> f64 {
    let k = k as i64;
    f64::from_bits(if k < 0 {
        (i64::MIN - k) as u64
    } else {
        k as u64
    })
}

/// The smallest finite answer at which `drawn` holds, for a `drawn` that
/// turns from false to true once along the `f64` order: a prune's cut.
/// Found by bisection over the order.
fn first_drawn(drawn: impl Fn(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (key(-f64::MAX), key(f64::MAX));
    assert!(!drawn(unkey(lo)) && drawn(unkey(hi)));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if drawn(unkey(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    unkey(hi)
}

/// The prune's cut: the smallest answer some rung could accept at its
/// largest draw, each rung tested with its own expression, the bound in
/// place of the draw.
fn prune_cut(noisy_threshold: f64, rungs: &[(f64, f64)]) -> f64 {
    let (&(baseline, _), cheaper) = rungs.split_last().unwrap();
    first_drawn(|q| {
        cheaper
            .iter()
            .any(|&(scale, margin)| q + Laplace::UNIT_MAX * scale - noisy_threshold >= margin)
            || q + Laplace::UNIT_MAX * baseline >= noisy_threshold
    })
}

#[test]
fn continuous_prunes_keep_every_bit_at_each_rungs_cut() {
    let mut scratch = CallScratch::new();
    for eps in EPSILONS {
        for svt in continuous(eps) {
            let (mut skipped, mut peeks) = (0, 0);
            let (m, name) = (svt.rungs.len(), svt.mech.name());
            for seed in 0..SEEDS {
                let noise = Laplace::new(svt.threshold_scale).unwrap();
                let noisy_threshold = 0.0 + noise.sample(&mut rng_from_seed(seed));
                let mut cuts = Vec::new();
                let mut far: f64 = 0.0;
                for &(scale, margin) in &svt.rungs {
                    let cap = Laplace::UNIT_MAX * scale;
                    let cut = noisy_threshold + margin - cap;
                    cuts.extend([cut.next_down(), cut, cut.next_up()]);
                    far = far.max(4.0 * (cap + margin));
                }
                // The answer at the prune's cut is peeked, the one below it
                // skipped: the prune tests exactly the bound.
                let cut = prune_cut(noisy_threshold, &svt.rungs);
                let below = assert_paths_agree(&svt.mech, &[cut.next_down()], seed, &mut scratch);
                assert_eq!(below, (m, 0), "{name} at ε = {eps:e}, seed {seed}");
                let at = assert_paths_agree(&svt.mech, &[cut], seed, &mut scratch);
                assert_eq!(at, (0, 1), "{name} at ε = {eps:e}, seed {seed}");
                for answers in workloads(noisy_threshold, &cuts, far) {
                    let (s, p) = assert_paths_agree(&svt.mech, &answers, seed, &mut scratch);
                    (skipped, peeks) = (skipped + s, peeks + p);
                }
            }
            assert!(
                skipped > 0 && peeks > 0,
                "{name} at ε = {eps:e}: {skipped}, {peeks}"
            );
        }
    }
}

#[test]
fn discrete_prunes_keep_every_bit_at_the_cut() {
    let mut scratch = CallScratch::new();
    for eps in EPSILONS {
        let Ok(svt) = DiscreteSparseVectorWithGap::new(K, eps, 0.0, true) else {
            // Its rates admit no discrete Laplace in f64 at 1e-300.
            assert_eq!(eps, 1e-300);
            let refused = DiscreteSparseVectorWithGap::new(K, eps, 0.0, true);
            assert_eq!(refused, Err(MechanismError::InvalidEpsilon { value: eps }));
            continue;
        };
        let (mut skipped, mut peeks) = (0, 0);
        for seed in 0..SEEDS {
            let noise = DiscreteLaplace::new(svt.threshold_rate(), 1.0).unwrap();
            let noisy_threshold = 0.0 + noise.sample_value(&mut rng_from_seed(seed));
            let cap = DiscreteLaplace::new(svt.query_rate(), 1.0)
                .unwrap()
                .max_value();
            let cut = noisy_threshold - cap;
            let cuts = [cut - 1.0, cut, cut + 1.0];
            let mech = AnyMechanism::from(svt);
            let below = assert_paths_agree(&mech, &[cut - 1.0], seed, &mut scratch);
            assert_eq!(below, (1, 0), "ε = {eps:e}, seed {seed}");
            let at = assert_paths_agree(&mech, &[cut], seed, &mut scratch);
            assert_eq!(at, (0, 1), "ε = {eps:e}, seed {seed}");
            for answers in workloads(noisy_threshold, &cuts, 4.0 * cap) {
                let (s, p) = assert_paths_agree(&mech, &answers, seed, &mut scratch);
                (skipped, peeks) = (skipped + s, peeks + p);
            }
        }
        assert!(skipped > 0 && peeks > 0, "ε = {eps:e}: {skipped}, {peeks}");
    }
}

#[test]
fn sessions_fed_one_query_at_a_time_equal_one_batch_and_one_run() {
    for eps in EPSILONS {
        let svt = SparseVectorWithGap::new(K, eps, 0.0, false).unwrap();
        let scales = ClassicSparseVector::new(K, eps, 0.0, false).unwrap();
        for seed in 0..SEEDS {
            let noise = Laplace::new(scales.threshold_scale()).unwrap();
            let noisy_threshold = 0.0 + noise.sample(&mut rng_from_seed(seed));
            let cap = Laplace::UNIT_MAX * scales.query_scale();
            let cut = noisy_threshold - cap;
            let cuts = [cut.next_down(), cut, cut.next_up()];
            for answers in workloads(noisy_threshold, &cuts, 4.0 * cap) {
                let mut one = SvOutput::default();
                let mut scratch = SvtScratch::new();
                let mut rng = rng_from_seed(seed);
                let mut provider = ScratchDraws::new(&mut scratch, &mut rng);
                svt.run_into(answers.iter().copied(), &mut provider, &mut one);
                let mut fed = [Vec::new(), Vec::new()];
                for (batch, out) in [1, answers.len()].into_iter().zip(&mut fed) {
                    let (mut rng, mut scratch) = (rng_from_seed(seed), SvtScratch::new());
                    let mut state = svt.stream_open(&mut rng, &mut scratch);
                    for chunk in answers.chunks(batch) {
                        let chunk = chunk.iter().copied();
                        svt.stream_feed(&mut state, chunk, &mut rng, &mut scratch, out);
                    }
                }
                let label = format!("ε = {eps:e}, seed {seed}");
                assert_eq!(
                    format!("{:?}", fed[0]),
                    format!("{:?}", one.above),
                    "{label}"
                );
                assert_eq!(
                    format!("{:?}", fed[1]),
                    format!("{:?}", one.above),
                    "{label}"
                );
            }
        }
    }
}

/// A noise family of the textbook algorithms: continuous Laplace at a
/// scale, or discrete Laplace on the integer lattice at a rate per unit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Noise {
    Continuous,
    Discrete,
}

fn draw(source: &mut dyn NoiseSource, noise: Noise, param: f64) -> f64 {
    match noise {
        Noise::Continuous => source.laplace(param),
        Noise::Discrete => source.discrete_laplace(param, 1.0),
    }
}

/// Textbook Sparse-Vector-with-Gap: the noisy threshold, then one draw per
/// query, `⊤` with its gap when `q + ν ≥ T̃` and `⊥` otherwise, stopping
/// after the `k`-th `⊤`.
fn textbook_svt(
    source: &mut dyn NoiseSource,
    noise: Noise,
    (threshold_noise, query_noise): (f64, f64),
    k: usize,
    threshold: f64,
    answers: &[f64],
) -> Vec<Option<f64>> {
    let noisy_threshold = threshold + draw(source, noise, threshold_noise);
    let mut above = Vec::new();
    for &q in answers {
        if above.iter().flatten().count() == k {
            break;
        }
        let noisy = q + draw(source, noise, query_noise);
        above.push((noisy >= noisy_threshold).then_some(noisy - noisy_threshold));
    }
    above
}

/// Textbook Algorithm 1: one draw per query, the noisy answers ranked in
/// the `f64` total order with ties to the smaller index, and each of the
/// top `k` with its gap to the next.
fn textbook_top_k(
    source: &mut dyn NoiseSource,
    noise: Noise,
    param: f64,
    k: usize,
    answers: &[f64],
) -> Vec<TopKItem> {
    let noisy: Vec<f64> = answers
        .iter()
        .map(|&q| q + draw(source, noise, param))
        .collect();
    let mut rank: Vec<usize> = (0..noisy.len()).collect();
    rank.sort_by(|&a, &b| noisy[b].total_cmp(&noisy[a]).then(a.cmp(&b)));
    (0..k)
        .map(|i| TopKItem {
            index: rank[i],
            gap: noisy[rank[i]] - noisy[rank[i + 1]],
        })
        .collect()
}

/// Textbook Gumbel-max race: one standard-Gumbel draw per query, the
/// scores `q·t + G` ranked in the `f64` total order with ties to the
/// smaller index, and the top `k`.
fn textbook_race(source: &mut dyn NoiseSource, t: f64, k: usize, answers: &[f64]) -> Vec<usize> {
    let scores: Vec<f64> = answers
        .iter()
        .map(|&q| q * t + source.gumbel(1.0))
        .collect();
    let mut rank: Vec<usize> = (0..scores.len()).collect();
    rank.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    rank.truncate(k);
    rank
}

/// What the textbook needs of a selection under test: Algorithm 1's noise
/// family and draw parameter, or the race's exponent `t`.
#[derive(Debug, Clone, Copy)]
enum Oracle {
    TopK(Noise, f64),
    Race(f64),
}

/// The selections at budget `eps` choosing `k`: Algorithm 1 with and
/// without gaps and in the discrete family, and the exponential race.
fn selections(eps: f64, k: usize) -> Vec<(AnyMechanism, Oracle)> {
    let gap = NoisyTopKWithGap::new(k, eps, false).unwrap();
    let classic = ClassicNoisyTopK::new(k, eps, true).unwrap();
    let discrete = DiscreteNoisyTopKWithGap::new(k, eps, true).unwrap();
    let race = ExponentialMechanism::new(eps, true).unwrap();
    let mut all = vec![
        (
            AnyMechanism::from(gap),
            Oracle::TopK(Noise::Continuous, gap.scale()),
        ),
        (
            classic.into(),
            Oracle::TopK(Noise::Continuous, classic.scale()),
        ),
        (
            ExponentialTopK::new(race, k).unwrap().into(),
            Oracle::Race(race.exponent()),
        ),
    ];
    // The discrete rate admits no sampler at the smallest budgets.
    let rate = discrete.unit_epsilon();
    if DiscreteLaplace::new(rate, 1.0).is_ok() {
        all.push((discrete.into(), Oracle::TopK(Noise::Discrete, rate)));
    }
    all
}

/// The textbook output of `mech` on `answers` at `seed`.
fn textbook(
    mech: &AnyMechanism,
    oracle: Oracle,
    k: usize,
    answers: &[f64],
    seed: u64,
) -> MechanismOutput {
    let mut rng = rng_from_seed(seed);
    let source = &mut SamplingSource::new(&mut rng);
    match oracle {
        Oracle::TopK(noise, param) => {
            let items = textbook_top_k(source, noise, param, k, answers);
            if matches!(mech, AnyMechanism::ClassicNoisyTopK(_)) {
                MechanismOutput::Indices(items.iter().map(|item| item.index).collect())
            } else {
                MechanismOutput::TopK(TopKOutput { items })
            }
        }
        Oracle::Race(t) => MechanismOutput::Indices(textbook_race(source, t, k, answers)),
    }
}

/// Whether the last released gap of `out` is zero: the `k`-th noisy value
/// ties with the `(k + 1)`-th, the cut.
fn ties_at_cut(out: &MechanismOutput) -> bool {
    let MechanismOutput::TopK(out) = out else {
        return false;
    };
    out.items.last().is_some_and(|item| item.gap == 0.0)
}

/// Answers Algorithm 1 draws before it can prune: its scan fills its whole
/// first 64-query chunk.
const FIRST_CHUNK: usize = 64;

/// The answers before a probe: [`FIRST_CHUNK`] for Algorithm 1, `k` for
/// the race (its buffer is full after `k`), so the probe is the first
/// answer tested against a cut the run's own draws set, and nothing before
/// it is skipped. Clustered integers, so discrete noisy values tie.
fn probe_base(oracle: Oracle, k: usize) -> Vec<f64> {
    let len = match oracle {
        Oracle::TopK(..) => FIRST_CHUNK,
        Oracle::Race(_) => k,
    };
    (0..len as u32)
        .map(|i| f64::from((i * 7919) % 13) + if i % 11 == 0 { 30.0 } else { 0.0 })
        .collect()
}

/// The probe answers after `base` at `seed`: just below the prune's cut,
/// at it, and just above it (one ULP, or one lattice step). The cut comes
/// from the run's own draws over `base`: the `(k + 1)`-th noisy value less
/// the sampler's largest draw, or the `k`-th score less the largest Gumbel
/// draw, over the exponent.
fn probes(oracle: Oracle, k: usize, base: &[f64], seed: u64) -> [f64; 3] {
    let mut rng = rng_from_seed(seed);
    let source = &mut SamplingSource::new(&mut rng);
    let descending = |mut v: Vec<f64>| {
        v.sort_by(|a, b| b.total_cmp(a));
        v
    };
    let cut = match oracle {
        Oracle::TopK(Noise::Discrete, rate) => {
            let noisy = base
                .iter()
                .map(|&q| q + draw(source, Noise::Discrete, rate));
            let cap = DiscreteLaplace::new(rate, 1.0).unwrap().max_value();
            let cut = descending(noisy.collect())[k] - cap;
            return [cut - 1.0, cut, cut + 1.0];
        }
        Oracle::TopK(Noise::Continuous, scale) => {
            let noisy = base.iter().map(|&q| q + source.laplace(scale));
            let (cut, cap) = (descending(noisy.collect())[k], Laplace::UNIT_MAX * scale);
            first_drawn(|q| q + cap >= cut)
        }
        Oracle::Race(t) => {
            let scores = base.iter().map(|&q| q * t + source.gumbel(1.0));
            let cut = descending(scores.collect())[k - 1];
            first_drawn(|q| q * t + Gumbel::UNIT_MAX >= cut)
        }
    };
    [cut.next_down(), cut, cut.next_up()]
}

/// Descending Zipf counts (bulk-select's order: the cut is final after the
/// first chunk), the same counts with a spike above every earlier answer
/// at positions 50, 147, 244, … (inside a chunk, after a run the prune
/// skips, so a drawn answer's index is offset within its chunk), and the
/// counts ascending (the cut rises at every query).
fn zipf_workloads() -> [Vec<f64>; 3] {
    let descending: Vec<f64> = (1..=600u32)
        .map(|i| (20_000.0 / f64::from(i)).floor())
        .collect();
    let spiked = (0..600u32)
        .zip(&descending)
        .map(|(i, &q)| {
            if i % 97 == 50 {
                f64::from(30_000 + i)
            } else {
                q
            }
        })
        .collect();
    let ascending = descending.iter().rev().copied().collect();
    [descending, spiked, ascending]
}

#[test]
fn selection_prunes_keep_every_bit() {
    let mut scratch = CallScratch::new();
    let mut skipped: BTreeMap<&str, usize> = BTreeMap::new();
    let mut ties = 0;
    for eps in EPSILONS {
        for k in [1, K] {
            for (mech, oracle) in selections(eps, k) {
                let name = mech.name();
                for seed in 0..SEEDS {
                    for answers in zipf_workloads() {
                        let want = textbook(&mech, oracle, k, &answers, seed);
                        assert_paths_equal(&mech, &answers, seed, &want, &mut scratch);
                        let (s, _) = assert_paths_agree(&mech, &answers, seed, &mut scratch);
                        *skipped.entry(name).or_default() += s;
                        ties += usize::from(ties_at_cut(&want));
                    }
                    // The answer at the cut is drawn and the one just below
                    // it skipped: the prune tests exactly the bound.
                    let base = probe_base(oracle, k);
                    for (probe, owed) in probes(oracle, k, &base, seed).into_iter().zip([1, 0, 0]) {
                        let mut answers = base.clone();
                        answers.push(probe);
                        let want = textbook(&mech, oracle, k, &answers, seed);
                        assert_paths_equal(&mech, &answers, seed, &want, &mut scratch);
                        let (s, _) = assert_paths_agree(&mech, &answers, seed, &mut scratch);
                        let label = format!("{name} at ε = {eps:e}, k = {k}, seed {seed}");
                        assert_eq!(s, owed, "probe {probe:e}: {label}");
                        ties += usize::from(ties_at_cut(&want));
                    }
                }
            }
        }
    }
    assert_eq!(skipped.len(), 4, "{skipped:?}");
    assert!(skipped.values().all(|&s| s > 0), "{skipped:?}");
    // Discrete noisy values tie with the cut, so the tie rule at the cut
    // is exercised.
    assert!(ties > 0, "no selection tied with its cut");
}

/// Asserts that `call_reference` and `call_batched` at `seed` both render
/// as `want`.
fn assert_paths_equal(
    mech: &AnyMechanism,
    answers: &[f64],
    seed: u64,
    want: &MechanismOutput,
    scratch: &mut CallScratch,
) {
    let req = QuerySlice::new(answers);
    let mut out = MechanismOutput::new_for(mech);
    mech.call_reference(&req, &mut rng_from_seed(seed), &mut out)
        .unwrap();
    let label = format!("{} at seed {seed}", mech.name());
    assert_eq!(
        format!("{out:?}"),
        format!("{want:?}"),
        "reference, {label}"
    );
    mech.call_batched(&req, &mut rng_from_seed(seed), scratch, &mut out)
        .unwrap();
    assert_eq!(format!("{out:?}"), format!("{want:?}"), "batched, {label}");
}

#[test]
fn svt_paths_equal_the_textbook_loop() {
    let mut scratch = CallScratch::new();
    let mut ties = 0;
    for eps in [0.05, 0.7, 5.0] {
        for k in [1, 3, 8] {
            let threshold = 40.0;
            let svg = SparseVectorWithGap::new(k, eps, threshold, false).unwrap();
            let classic = ClassicSparseVector::new(k, eps, threshold, true).unwrap();
            let discrete = DiscreteSparseVectorWithGap::new(k, eps, threshold, true).unwrap();
            // Sparse-Vector-with-Gap runs at classic SVT's scales.
            let scales = ClassicSparseVector::new(k, eps, threshold, false).unwrap();
            let cases = [
                (
                    AnyMechanism::from(svg),
                    Noise::Continuous,
                    (scales.threshold_scale(), scales.query_scale()),
                ),
                (
                    classic.into(),
                    Noise::Continuous,
                    (classic.threshold_scale(), classic.query_scale()),
                ),
                (
                    discrete.into(),
                    Noise::Discrete,
                    (discrete.threshold_rate(), discrete.query_rate()),
                ),
            ];
            for (mech, noise, params) in cases {
                for seed in 0..12 {
                    let mut rng = rng_from_seed(seed);
                    let source = &mut SamplingSource::new(&mut rng);
                    let noisy_threshold = threshold + draw(source, noise, params.0);
                    // Answers around the noisy threshold, within the query
                    // noise's reach, and at the prune's cut with its two
                    // neighbours (one lattice step, or one ULP).
                    let (step, cuts) = if noise == Noise::Discrete {
                        let cap = DiscreteLaplace::new(params.1, 1.0).unwrap().max_value();
                        let cut = noisy_threshold - cap;
                        (1.0, [cut - 1.0, cut, cut + 1.0])
                    } else {
                        let cut = noisy_threshold - Laplace::UNIT_MAX * params.1;
                        (params.1 / 4.0, [cut.next_down(), cut, cut.next_up()])
                    };
                    let near = (-4..=4).map(|d| noisy_threshold + f64::from(d) * step);
                    let answers: Vec<f64> = cuts.into_iter().chain(near).cycle().take(60).collect();
                    let mut rng = rng_from_seed(seed);
                    let source = &mut SamplingSource::new(&mut rng);
                    let mut above = textbook_svt(source, noise, params, k, threshold, &answers);
                    ties += answers
                        .iter()
                        .zip(&above)
                        .filter(|(_, d)| **d == Some(0.0))
                        .count();
                    if matches!(mech, AnyMechanism::ClassicSparseVector(_)) {
                        above.iter_mut().flatten().for_each(|gap| *gap = 0.0);
                    }
                    let want = MechanismOutput::SparseVector(SvOutput { above });
                    assert_paths_equal(&mech, &answers, seed, &want, &mut scratch);
                }
            }
        }
    }
    // Answers equal to the noisy threshold (a zero gap) occur on the
    // lattice, so the `≥` of the decision is exercised, not only `>`.
    assert!(ties > 0, "no answer landed on the noisy threshold");
}

#[test]
fn top_k_paths_equal_the_textbook_selection() {
    let mut scratch = CallScratch::new();
    let mut ties = 0;
    // Clustered integer counts: the discrete noisy answers tie often.
    let answers: Vec<f64> = (0..48u32)
        .map(|i| f64::from((i * 7919) % 13) + if i % 11 == 0 { 30.0 } else { 0.0 })
        .collect();
    for eps in [0.05, 0.7, 5.0] {
        for k in [1, 3, 8] {
            let gap = NoisyTopKWithGap::new(k, eps, false).unwrap();
            let classic = ClassicNoisyTopK::new(k, eps, true).unwrap();
            let discrete = DiscreteNoisyTopKWithGap::new(k, eps, true).unwrap();
            let cases = [
                (AnyMechanism::from(gap), Noise::Continuous, gap.scale()),
                (classic.into(), Noise::Continuous, classic.scale()),
                (discrete.into(), Noise::Discrete, discrete.unit_epsilon()),
            ];
            for (mech, noise, param) in cases {
                for seed in 0..12 {
                    let mut rng = rng_from_seed(seed);
                    let source = &mut SamplingSource::new(&mut rng);
                    let items = textbook_top_k(source, noise, param, k, &answers);
                    ties += items.iter().filter(|item| item.gap == 0.0).count();
                    let want = if matches!(mech, AnyMechanism::ClassicNoisyTopK(_)) {
                        MechanismOutput::Indices(items.iter().map(|item| item.index).collect())
                    } else {
                        MechanismOutput::TopK(TopKOutput { items })
                    };
                    assert_paths_equal(&mech, &answers, seed, &want, &mut scratch);
                }
            }
        }
    }
    // Ties among the top k + 1 occur on the lattice, so the tie rule is
    // exercised.
    assert!(ties > 0, "no tie among the selected answers");
}
