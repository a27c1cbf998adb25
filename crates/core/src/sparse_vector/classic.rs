//! Classic Sparse Vector Technique (the correct variant catalogued by Lyu et
//! al., the paper's [31]) — the baseline of §7.3.
//!
//! Given a stream of sensitivity-1 queries and a public threshold `T`, adds
//! `Lap(1/ε₁)` to the threshold once, `Lap(ck/ε₂)` to each query
//! (`c` = 2 general, 1 monotone), answers `⊤`/`⊥` by comparing, and stops
//! after `k` `⊤`s. Total cost `ε = ε₁ + ε₂` regardless of how many `⊥`s are
//! emitted — answering below-threshold queries is free.

use super::{optimal_threshold_share, SvOutput};
use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, require_fraction, MechanismError};
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// Resumable state of one streaming SVT run: the noisy threshold, the
/// hoisted per-query noise scale, and the `⊤`-answer count.
///
/// Created by
/// [`SparseVectorWithGap::stream_open`](super::SparseVectorWithGap::stream_open)
/// and advanced one query at a time with `stream_feed` — the shape a
/// long-lived server needs for analyst sessions whose query stream spans
/// many requests. The state is plain data (no borrow of the RNG or
/// scratch), so it can live across calls while each call reconstructs the
/// [`ScratchDraws`](crate::draw::ScratchDraws) provider over the session's
/// persistent `rng`/`scratch` pair.
#[derive(Debug, Clone, Copy)]
pub struct SvtStreamState {
    noisy_threshold: f64,
    query_scale: f64,
    answered: usize,
    k: usize,
}

impl SvtStreamState {
    /// Number of `⊤` answers emitted so far.
    pub fn answered(&self) -> usize {
        self.answered
    }

    /// True once the `k`-th `⊤` has been answered; further feeds return
    /// `None` without observing the query.
    pub fn is_halted(&self) -> bool {
        self.answered >= self.k
    }

    /// The answer cap `k` of the mechanism that opened the stream.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Classic SVT (no gap release).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassicSparseVector {
    k: usize,
    epsilon: f64,
    threshold: f64,
    threshold_share: f64,
    monotonic: bool,
}

impl ClassicSparseVector {
    /// Creates the mechanism: find up to `k` queries above `threshold` with
    /// total budget `epsilon`, using the Lyu-et-al optimal budget split.
    pub fn new(
        k: usize,
        epsilon: f64,
        threshold: f64,
        monotonic: bool,
    ) -> Result<Self, MechanismError> {
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        Ok(Self {
            k,
            epsilon: require_epsilon(epsilon)?,
            threshold,
            threshold_share: optimal_threshold_share(k, monotonic),
            monotonic,
        })
    }

    /// Overrides the threshold/query budget split (`θ ∈ (0,1)` is the
    /// threshold's share).
    pub fn with_threshold_share(mut self, share: f64) -> Result<Self, MechanismError> {
        self.threshold_share = require_fraction("threshold_share", share)?;
        Ok(self)
    }

    /// The answer cap `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The total privacy budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Threshold-noise budget `ε₁ = θε`.
    pub fn epsilon1(&self) -> f64 {
        self.threshold_share * self.epsilon
    }

    /// Query-noise budget `ε₂ = (1-θ)ε`.
    pub fn epsilon2(&self) -> f64 {
        (1.0 - self.threshold_share) * self.epsilon
    }

    /// Laplace scale of the threshold noise, `1/ε₁`.
    pub fn threshold_scale(&self) -> f64 {
        1.0 / self.epsilon1()
    }

    /// Laplace scale of each query's noise, `ck/ε₂`.
    pub fn query_scale(&self) -> f64 {
        let c = if self.monotonic { 1.0 } else { 2.0 };
        c * self.k as f64 / self.epsilon2()
    }

    /// The single copy of the SVT decision loop, generic over the
    /// [`DrawProvider`] noise comes through. Shared by the classic and
    /// gap-releasing variants (`release_gaps` controls whether above answers
    /// carry the noisy gap or a placeholder `0.0`) and by every execution
    /// path — the variants cannot silently diverge (the
    /// Chen–Machanavajjhala hazard).
    ///
    /// Writes into `out`, reusing its buffer; the stop condition is checked
    /// *before* pulling the next query, so once the k-th ⊤ is answered no
    /// further query is ever observed.
    pub(crate) fn run_core<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        release_gaps: bool,
        out: &mut SvOutput,
    ) {
        provider.begin();
        let mut queries = queries.into_iter();
        // One decision per query draw: pre-size from the provider's
        // consumption prediction (capped by the stream's own upper bound
        // when it knows one) to skip the realloc chain on long streams.
        let capacity = provider
            .predicted_draws()
            .min(queries.size_hint().1.unwrap_or(usize::MAX));
        let mut state = self.stream_state_core(provider);
        out.above.clear();
        out.above.reserve(capacity);
        while !state.is_halted() {
            let Some(q) = queries.next() else { break };
            if let Some(decision) = self.stream_step_core(&mut state, q, provider, release_gaps) {
                out.above.push(decision);
            }
        }
    }

    /// Draws the threshold noise and builds the resumable stream state.
    /// The caller must have called `provider.begin()` already (this is the
    /// first draw of a run); the public entry is
    /// [`SparseVectorWithGap::stream_open`](super::SparseVectorWithGap::stream_open).
    pub(crate) fn stream_state_core<P: DrawProvider>(&self, provider: &mut P) -> SvtStreamState {
        SvtStreamState {
            noisy_threshold: self.threshold + provider.next(self.threshold_scale()),
            query_scale: self.query_scale(),
            answered: 0,
            k: self.k,
        }
    }

    /// One step of the SVT decision loop — the single copy
    /// [`run_core`](Self::run_core) and the resumable
    /// [`SparseVectorWithGap::stream_feed`](super::SparseVectorWithGap::stream_feed)
    /// both execute. Returns `None` once the run has halted (the query is
    /// *not* observed in that case), otherwise `Some(decision)`:
    /// `Some(gap-or-0.0)` for `⊤`, `None` for `⊥`.
    #[inline]
    pub(crate) fn stream_step_core<P: DrawProvider>(
        &self,
        state: &mut SvtStreamState,
        q: f64,
        provider: &mut P,
        release_gaps: bool,
    ) -> Option<Option<f64>> {
        if state.is_halted() {
            return None;
        }
        let noisy = q + provider.next(state.query_scale);
        Some(if noisy >= state.noisy_threshold {
            state.answered += 1;
            Some(if release_gaps {
                noisy - state.noisy_threshold
            } else {
                0.0
            })
        } else {
            None
        })
    }

    /// Dyn-source reference entry shared by the classic and gap variants:
    /// [`run_core`](Self::run_core) through the [`SourceDraws`] adapter.
    pub(crate) fn run_impl(
        &self,
        answers: &QueryAnswers,
        source: &mut dyn NoiseSource,
        release_gaps: bool,
    ) -> SvOutput {
        let mut out = SvOutput::default();
        self.run_core(
            answers.values().iter().copied(),
            &mut SourceDraws::new(source),
            release_gaps,
            &mut out,
        );
        out
    }

    /// Runs with a plain RNG: the allocating reference path.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        self.run_impl(answers, &mut SamplingSource::new(rng), false)
    }

    /// The one provider-taking entry: the shared SVT decision loop without
    /// gap release, writing into `out` and reusing its buffer. `queries`
    /// is consumed lazily — pulling stops the moment the `k`-th `⊤` is
    /// answered, so queries after the halt are never observed. The
    /// provider picks the execution path: [`SourceDraws`] is the reference
    /// [`run`](Self::run) uses, and [`ScratchDraws`](crate::draw::ScratchDraws)
    /// the blocked fast path (it buffers *noise* ahead of the stream, never
    /// query answers; see [`crate::scratch`]). Every provider is
    /// bit-identical to [`run`](Self::run) on the same RNG stream and query
    /// sequence.
    ///
    /// Precondition: every answer is finite — a `+∞` answer clears any
    /// noisy threshold and a NaN never does. A lazy stream cannot be
    /// checked before the first draw, and an error mid-scan would reveal
    /// how far the scan got, so this entry does not check it;
    /// [`Mechanism::call`](crate::api::Mechanism::call) rejects a
    /// non-finite workload with a typed error before any draw.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        self.run_core(queries, provider, false, out);
    }

    /// Builds the SVT alignment shared by the classic and gap variants:
    /// threshold noise up by 1 (or 0 in the favorable monotone direction),
    /// each `⊤` query's noise shifted to keep clearing the higher threshold.
    pub(crate) fn align_impl(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &SvOutput,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        // Footnote 6: when all queries shrink (qᵢ >= q'ᵢ) on a monotone
        // workload, the threshold can stay put and winners shift by qᵢ - q'ᵢ.
        let favorable = self.monotonic && q.iter().zip(qp).all(|(a, b)| a >= b);
        let threshold_shift = if favorable { 0.0 } else { 1.0 };
        tape.aligned_by(|draw_idx, _| {
            if draw_idx == 0 {
                threshold_shift
            } else {
                let qi = draw_idx - 1; // draw i+1 belongs to query i
                match output.above.get(qi) {
                    Some(Some(_)) => threshold_shift + q[qi] - qp[qi],
                    _ => 0.0,
                }
            }
        })
    }
}

impl AlignedMechanism for ClassicSparseVector {
    type Input = QueryAnswers;
    type Output = SvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        self.run_impl(input, source, false)
    }

    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &SvOutput,
    ) -> NoiseTape {
        self.align_impl(input, neighbor, tape, output)
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_alignment::checker::check_alignment_many;
    use free_gap_alignment::{AdjacencyModel, Perturbation};
    use free_gap_noise::rng::rng_from_seed;

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![100.0, 5.0, 90.0, 4.0, 95.0, 3.0, 85.0, 2.0])
    }

    #[test]
    fn validation_and_budget_split() {
        assert!(ClassicSparseVector::new(0, 1.0, 50.0, true).is_err());
        assert!(ClassicSparseVector::new(1, 0.0, 50.0, true).is_err());
        let m = ClassicSparseVector::new(4, 1.0, 50.0, true).unwrap();
        assert!((m.epsilon1() + m.epsilon2() - 1.0).abs() < 1e-12);
        assert!(m.with_threshold_share(1.5).is_err());
        let m = m.with_threshold_share(0.5).unwrap();
        assert_eq!(m.epsilon1(), 0.5);
        // monotone scale: k/ε₂ = 4/0.5
        assert_eq!(m.query_scale(), 8.0);
    }

    #[test]
    fn stops_after_k_aboves() {
        let m = ClassicSparseVector::new(2, 100.0, 50.0, true).unwrap();
        let out = m.run(&workload(), &mut rng_from_seed(1));
        assert_eq!(out.answered(), 2);
        // With huge ε it answers the first two truly-above queries (0, 2)
        // and stops: query 4 is never processed.
        assert_eq!(out.above_indices(), vec![0, 2]);
        assert_eq!(out.processed(), 3);
    }

    #[test]
    fn below_threshold_answers_are_free_and_unlimited() {
        let lows = QueryAnswers::counting(vec![0.0; 500]);
        let m = ClassicSparseVector::new(1, 1.0, 100.0, true).unwrap();
        let out = m.run(&lows, &mut rng_from_seed(2));
        // Processes the whole stream without finding k aboves (w.h.p.).
        assert_eq!(out.processed(), 500);
        assert!(out.answered() <= 1);
    }

    #[test]
    fn alignment_within_budget_general() {
        let m = ClassicSparseVector::new(2, 0.8, 60.0, false).unwrap();
        let d = QueryAnswers::general(workload().values().to_vec());
        let mut rng = rng_from_seed(5);
        for _ in 0..40 {
            let p = Perturbation::random(AdjacencyModel::General, d.len(), &mut rng);
            let dp = d.perturbed(p.deltas());
            let max = check_alignment_many(&m, &d, &dp, 15, &mut rng).unwrap();
            assert!(max <= 0.8 + 1e-9, "cost {max}");
        }
    }

    #[test]
    fn alignment_within_budget_monotone_both_directions() {
        let m = ClassicSparseVector::new(2, 0.8, 60.0, true).unwrap();
        let d = workload();
        let mut rng = rng_from_seed(6);
        for model in [AdjacencyModel::MonotoneUp, AdjacencyModel::MonotoneDown] {
            for _ in 0..20 {
                let p = Perturbation::random(model, d.len(), &mut rng);
                let dp = d.perturbed(p.deltas());
                let max = check_alignment_many(&m, &d, &dp, 15, &mut rng).unwrap();
                assert!(max <= 0.8 + 1e-9, "cost {max} under {model:?}");
            }
        }
    }
}
