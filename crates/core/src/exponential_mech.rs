//! Exponential mechanism for private selection (McSherry & Talwar) — the
//! related-work baseline of §2.
//!
//! Selects index `i` with probability proportional to `exp(ε·qᵢ/(2Δ))`
//! (`exp(ε·qᵢ/Δ)` for monotone workloads, matching the Noisy-Max factor-two
//! convention). Implemented via the Gumbel-max trick — `argmaxᵢ (ε·qᵢ/(cΔ) +
//! Gumbelᵢ)` has exactly the softmax distribution — which keeps the
//! per-query work `O(1)` and numerically stable for large scores.
//!
//! ## Execution paths
//!
//! The Gumbel race exists once, in
//! [`run_top_k_into`](ExponentialMechanism::run_top_k_into), generic over
//! the [`DrawProvider`] noise comes through and lazy over the query
//! stream: one standard-Gumbel draw per query in stream order, scores
//! `qᵢ·t + Gᵢ` kept in a `k`-sized insertion buffer under the `f64`
//! **total order** (ties to the smaller index) — `O(n·k)` with tiny
//! constants and `O(k)` memory, the query vector never materialized.
//! (Selection must see every query, so unlike SVT the stream is always
//! fully consumed; a bounded provider skips the draws of queries that can
//! no longer reach the top.) `run` is its `k = 1` reference through [`SourceDraws`];
//! `run_top_k` / `run_top_k_with_source` are the one-shot Gumbel race as
//! usually stated, materializing all `n` scores and sorting them
//! (`O(n log n)`). The race is **bit-identical** to the reference sort on
//! the same RNG stream — same draws, same total order — asserted by
//! `tests/scratch_equivalence.rs`.
//!
//! Workloads are validated up front: a NaN or infinite utility is a typed
//! [`MechanismError::NonFiniteUtility`], never a sort panic or a silent
//! mis-selection.

use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, MechanismError};
use crate::scratch::TopKScratch;
use free_gap_alignment::{NoiseSource, SamplingSource};
use free_gap_noise::Gumbel;
use rand::rngs::StdRng;
use std::cmp::Ordering;

/// Exponential-mechanism selection over sensitivity-1 utility queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialMechanism {
    epsilon: f64,
    monotonic: bool,
}

impl ExponentialMechanism {
    /// Creates the mechanism with budget `epsilon`.
    pub fn new(epsilon: f64, monotonic: bool) -> Result<Self, MechanismError> {
        Ok(Self {
            epsilon: require_epsilon(epsilon)?,
            monotonic,
        })
    }

    /// The privacy budget `ε` one selection costs.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The softmax temperature exponent applied to each utility:
    /// `ε/2` in general, `ε` for monotone utilities.
    pub fn exponent(&self) -> f64 {
        if self.monotonic {
            self.epsilon
        } else {
            self.epsilon / 2.0
        }
    }

    /// Selection probabilities (softmax of the scaled utilities), computed
    /// with the max-subtraction trick for stability.
    ///
    /// Rejects empty workloads and non-finite utilities: with a `-∞`
    /// utility the max-subtraction `q - m` degenerates to `-∞ - -∞ = NaN`
    /// when every utility is `-∞`, and a `+∞`/NaN poisons the
    /// normalization — all-NaN "probabilities" used to come back silently.
    pub fn probabilities(&self, answers: &QueryAnswers) -> Result<Vec<f64>, MechanismError> {
        answers.require_len(1)?;
        crate::answers::require_finite(answers.values())?;
        let t = self.exponent();
        let m = answers
            .values()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, |a, b| {
                if a.total_cmp(&b).is_ge() {
                    a
                } else {
                    b
                }
            });
        let weights: Vec<f64> = answers
            .values()
            .iter()
            .map(|q| ((q - m) * t).exp())
            .collect();
        // With finite utilities the max term contributes exp(0) = 1, so the
        // total is at least 1 and the division cannot produce NaN.
        let total: f64 = weights.iter().sum();
        Ok(weights.into_iter().map(|w| w / total).collect())
    }

    /// Slice-level form of the Top-K validation, shared with the unified
    /// [`crate::api`] call surface.
    pub(crate) fn require_top_k_len(len: usize, k: usize) -> Result<(), MechanismError> {
        if k > len {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must not exceed the workload size",
            });
        }
        Ok(())
    }

    /// The utility of query `index`, refused when NaN or infinite: every
    /// path checks a query before its draw.
    fn finite(index: usize, q: f64) -> Result<f64, MechanismError> {
        if q.is_finite() {
            Ok(q)
        } else {
            Err(MechanismError::NonFiniteUtility { index, value: q })
        }
    }

    /// Scores one query: `q·t + standard Gumbel` — the Gumbel-max race
    /// entry, the one place the score arithmetic exists (every path shares
    /// it, so the reference sort and the insertion race are bit-comparable).
    #[inline]
    fn score<P: DrawProvider>(t: f64, q: f64, provider: &mut P) -> f64 {
        q * t + provider.gumbel_next(1.0)
    }

    /// The single copy of the Gumbel-max race and its one provider-taking
    /// entry: one standard-Gumbel draw per query in stream order,
    /// maintaining the `k` best `(score, index)` pairs — scores in
    /// `scratch`, indices in `out` (descending under the `f64` total
    /// order, ties to the smaller index — exactly the reference sort's
    /// order). Lazy over `queries`, `O(k)` memory. Through
    /// [`ScratchDraws`](crate::draw::ScratchDraws) it is the fast path.
    ///
    /// With a [bounded](DrawProvider::bounded) provider and `k > 0`, once
    /// `k` scores are kept, a query whose score would stay below the `k`-th
    /// even at the sampler's largest draw (`q·t + Gumbel::UNIT_MAX` below
    /// it, strictly) is not drawn: its draw joins one pending
    /// [`skip`](DrawProvider::skip), flushed before the next draw and at
    /// the end. Rounding is monotone, so the race would have dropped it,
    /// and a draw-exact provider ends where the `n`-draw race leaves it.
    ///
    /// # Errors
    /// [`MechanismError::NonFiniteUtility`] at the first NaN or infinite
    /// utility, and [`MechanismError::NotEnoughQueries`] if the stream
    /// yields fewer than `k` queries (checked at its end).
    pub fn run_top_k_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        k: usize,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut Vec<usize>,
    ) -> Result<(), MechanismError> {
        provider.begin();
        let t = self.exponent();
        let scores = &mut scratch.noisy;
        scores.clear();
        out.clear();
        // The buffer never holds more than min(k, processed) + 1 entries;
        // cap the pre-reservation so an oversized `k` (validated only at
        // end-of-stream) cannot trigger a huge allocation before the
        // stream is drained.
        let reserve = k.saturating_add(1).min(1024);
        scores.reserve(reserve);
        out.reserve(reserve);
        let prune = k > 0 && provider.bounded();
        // The prune's cut: the k-th score once k are kept, when pruning.
        let mut cut = f64::NEG_INFINITY;
        let (mut processed, mut owed, mut refused) = (0usize, 0, None);
        for q in queries {
            let index = processed;
            processed += 1;
            // Checked before the prune, which would pass a `−∞` silently.
            if let Err(err) = Self::finite(index, q) {
                refused = Some(err);
                break;
            }
            if q * t + Gumbel::UNIT_MAX < cut {
                owed += 1;
                continue;
            }
            if owed > 0 {
                provider.skip(owed);
                owed = 0;
            }
            let s = Self::score(t, q, provider);
            // One draw (or skip) per query even when k = 0 (or the buffer
            // is full and the score loses): the race consumes the stream
            // exactly like the materializing reference.
            if k == 0 || (out.len() == k && s.total_cmp(&scores[k - 1]) != Ordering::Greater) {
                continue;
            }
            let pos = scores.partition_point(|v| v.total_cmp(&s) != Ordering::Less);
            scores.insert(pos, s);
            out.insert(pos, index);
            if out.len() > k {
                scores.pop();
                out.pop();
            }
            if prune && out.len() == k {
                cut = scores[k - 1];
            }
        }
        if owed > 0 {
            provider.skip(owed);
        }
        if let Some(err) = refused {
            return Err(err);
        }
        if processed < k {
            return Err(MechanismError::NotEnoughQueries {
                got: processed,
                need: k,
            });
        }
        Ok(())
    }

    /// Samples one index via the Gumbel-max trick: the `k = 1` race
    /// through [`SourceDraws`] (the allocating reference path).
    ///
    /// # Errors
    /// As [`run_top_k_into`](Self::run_top_k_into) with `k = 1`.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> Result<usize, MechanismError> {
        let mut out = Vec::with_capacity(2);
        self.run_top_k_into(
            answers.values().iter().copied(),
            1,
            &mut SourceDraws::new(&mut SamplingSource::new(rng)),
            &mut TopKScratch::new(),
            &mut out,
        )?;
        Ok(out[0])
    }

    /// Samples `k` indices *with replacement-free sequential application*
    /// (peeling): repeatedly applies the mechanism to the not-yet-selected
    /// queries, spending `epsilon` each round — total cost `k·ε`. A
    /// selection baseline for the Top-K experiments.
    ///
    /// This is the dyn reference path: all `n` scores are materialized
    /// through [`SourceDraws`] and sorted (one-shot Gumbel top-k is
    /// equivalent to sequential peeling with fresh noise each round — the
    /// Gumbel race equivalence). [`run_top_k_into`](Self::run_top_k_into)
    /// runs the same race through a `k`-sized insertion buffer instead;
    /// outputs are bit-identical on the same RNG stream.
    ///
    /// # Errors
    /// [`MechanismError::InvalidK`] if `k` exceeds the workload size, and
    /// [`MechanismError::NonFiniteUtility`] at the first non-finite utility.
    pub fn run_top_k(
        &self,
        answers: &QueryAnswers,
        k: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<usize>, MechanismError> {
        self.run_top_k_with_source(answers, k, &mut SamplingSource::new(rng))
    }

    /// [`run_top_k`](Self::run_top_k) against an explicit noise source.
    ///
    /// # Errors
    /// As [`run_top_k`](Self::run_top_k).
    pub fn run_top_k_with_source(
        &self,
        answers: &QueryAnswers,
        k: usize,
        source: &mut dyn NoiseSource,
    ) -> Result<Vec<usize>, MechanismError> {
        Self::require_top_k_len(answers.len(), k)?;
        let mut provider = SourceDraws::new(source);
        provider.begin();
        let t = self.exponent();
        let mut scores: Vec<(f64, usize)> = Vec::with_capacity(answers.len());
        for (i, &q) in answers.values().iter().enumerate() {
            scores.push((Self::score(t, Self::finite(i, q)?, &mut provider), i));
        }
        // Reference selection: total-order sort, descending score, ties to
        // the smaller index — the exact order the race's insertion buffer
        // maintains (`scratch_equivalence` keeps the two honest).
        scores.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        Ok(scores.into_iter().take(k).map(|(_, i)| i).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::{RngDraws, ScratchDraws};
    use crate::scratch::SvtScratch;
    use free_gap_noise::rng::rng_from_seed;
    use rand::{Rng, RngCore};

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![5.0, 3.0, 1.0])
    }

    /// [`ExponentialMechanism::run_top_k_into`] through [`RngDraws`] on a
    /// fresh output.
    fn race(
        m: &ExponentialMechanism,
        queries: impl IntoIterator<Item = f64>,
        k: usize,
        seed: u64,
    ) -> Result<Vec<usize>, MechanismError> {
        let mut out = Vec::new();
        m.run_top_k_into(
            queries,
            k,
            &mut RngDraws::new(&mut rng_from_seed(seed)),
            &mut TopKScratch::new(),
            &mut out,
        )?;
        Ok(out)
    }

    #[test]
    fn validation() {
        assert!(ExponentialMechanism::new(0.0, true).is_err());
        assert_eq!(
            ExponentialMechanism::new(1.0, true).unwrap().exponent(),
            1.0
        );
        assert_eq!(
            ExponentialMechanism::new(1.0, false).unwrap().exponent(),
            0.5
        );
    }

    #[test]
    fn probabilities_sum_to_one_and_order_by_utility() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        let p = m.probabilities(&workload()).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[2]);
        // Softmax ratio: p0/p1 = e^{(5-3)·1} = e².
        assert!((p[0] / p[1] - 2f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn probabilities_reject_degenerate_workloads() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        // Regression: all-(-inf) utilities used to return all-NaN
        // "probabilities" (the `q - m` max-subtraction yields -inf - -inf).
        let all_neg_inf = QueryAnswers::counting(vec![f64::NEG_INFINITY; 3]);
        assert!(matches!(
            m.probabilities(&all_neg_inf),
            Err(MechanismError::NonFiniteUtility { index: 0, .. })
        ));
        let with_nan = QueryAnswers::counting(vec![1.0, f64::NAN, 2.0]);
        assert!(matches!(
            m.probabilities(&with_nan),
            Err(MechanismError::NonFiniteUtility { index: 1, .. })
        ));
        assert!(matches!(
            m.probabilities(&QueryAnswers::counting(vec![])),
            Err(MechanismError::NotEnoughQueries { .. })
        ));
    }

    #[test]
    fn gumbel_sampler_matches_softmax() {
        let m = ExponentialMechanism::new(0.8, true).unwrap();
        let p = m.probabilities(&workload()).unwrap();
        let mut rng = rng_from_seed(50);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[m.run(&workload(), &mut rng).unwrap()] += 1;
        }
        for i in 0..3 {
            let emp = counts[i] as f64 / n as f64;
            let sigma = (p[i] * (1.0 - p[i]) / n as f64).sqrt();
            assert!((emp - p[i]).abs() < 5.0 * sigma, "i={i}: {emp} vs {}", p[i]);
        }
    }

    #[test]
    fn top_k_returns_distinct_indices() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        let mut rng = rng_from_seed(51);
        let sel = m.run_top_k(&workload(), 2, &mut rng).unwrap();
        assert_eq!(sel.len(), 2);
        assert_ne!(sel[0], sel[1]);
    }

    #[test]
    fn empty_workload_is_a_typed_error() {
        // Regression: used to be an `assert!` panic.
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        assert!(matches!(
            m.run(&QueryAnswers::counting(vec![]), &mut rng_from_seed(1)),
            Err(MechanismError::NotEnoughQueries { got: 0, need: 1 })
        ));
        assert!(matches!(
            race(&m, std::iter::empty(), 1, 1),
            Err(MechanismError::NotEnoughQueries { got: 0, need: 1 })
        ));
    }

    #[test]
    fn oversized_k_is_a_typed_error() {
        // Regression: used to be an `assert!` panic on the materialized
        // path; the lazy race reports it at end-of-stream.
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        assert!(matches!(
            m.run_top_k(&workload(), 4, &mut rng_from_seed(1)),
            Err(MechanismError::InvalidK { k: 4, .. })
        ));
        assert!(matches!(
            race(&m, workload().values().iter().copied(), 4, 1),
            Err(MechanismError::NotEnoughQueries { got: 3, need: 4 })
        ));
    }

    #[test]
    fn nan_utility_is_a_typed_error_on_every_path() {
        // Regression: a NaN score used to panic `partial_cmp().unwrap()` in
        // `run_top_k` and silently lose every `>` comparison in `run`
        // (mis-selecting index 0 regardless of the race).
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        let bad = QueryAnswers::counting(vec![1.0, f64::NAN, 3.0]);
        assert!(matches!(
            m.run(&bad, &mut rng_from_seed(2)),
            Err(MechanismError::NonFiniteUtility { index: 1, .. })
        ));
        assert!(matches!(
            m.run_top_k(&bad, 2, &mut rng_from_seed(2)),
            Err(MechanismError::NonFiniteUtility { index: 1, .. })
        ));
        assert!(matches!(
            race(&m, bad.values().iter().copied(), 2, 2),
            Err(MechanismError::NonFiniteUtility { index: 1, .. })
        ));
        assert!(matches!(
            race(&m, [1.0, 2.0, f64::INFINITY], 1, 2),
            Err(MechanismError::NonFiniteUtility { index: 2, .. })
        ));
    }

    #[test]
    fn k_zero_selects_nothing() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        assert!(m
            .run_top_k(&workload(), 0, &mut rng_from_seed(3))
            .unwrap()
            .is_empty());
        assert!(m
            .run_top_k(&QueryAnswers::counting(vec![]), 0, &mut rng_from_seed(3))
            .unwrap()
            .is_empty());
    }

    /// The race through both bounded providers on fresh outputs: the
    /// draw-exact [`RngDraws`] and the blocked [`ScratchDraws`].
    fn bounded_races(
        m: &ExponentialMechanism,
        queries: &[f64],
        k: usize,
        seed: u64,
    ) -> [Result<Vec<usize>, MechanismError>; 2] {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut topk = TopKScratch::new();
        let mut rng = rng_from_seed(seed);
        let queries = queries.iter().copied();
        let draws = &mut RngDraws::new(&mut rng);
        let ra = m.run_top_k_into(queries.clone(), k, draws, &mut topk, &mut a);
        let (mut tape, mut rng) = (SvtScratch::new(), rng_from_seed(seed));
        let draws = &mut ScratchDraws::new(&mut tape, &mut rng);
        let rb = m.run_top_k_into(queries, k, draws, &mut topk, &mut b);
        [ra.map(|()| a), rb.map(|()| b)]
    }

    #[test]
    fn pruned_race_refuses_non_finite_utilities_after_the_kth_query() {
        // Once two scores are kept, every later answer here is far below
        // them: `−∞` would pass the prune's bound test silently.
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        for bad in [f64::NEG_INFINITY, f64::NAN] {
            let queries = [50.0, 40.0, 1.0, 1.0, bad, 1.0];
            for result in bounded_races(&m, &queries, 2, 4) {
                assert!(
                    matches!(
                        result,
                        Err(MechanismError::NonFiniteUtility { index: 4, .. })
                    ),
                    "{bad}: {result:?}"
                );
            }
        }
        // The same answers, finite, select the two far-above ones.
        for result in bounded_races(&m, &[50.0, 40.0, 1.0, 1.0, -1e300, 1.0], 2, 4) {
            assert_eq!(result, Ok(vec![0, 1]));
        }
    }

    #[test]
    fn k_zero_race_selects_nothing_and_draws_once_per_query() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        let queries = [5.0, 3.0, 1.0, -2.0, 8.0];
        for result in bounded_races(&m, &queries, 0, 6) {
            assert_eq!(result, Ok(Vec::new()));
        }
        let mut rng = rng_from_seed(6);
        let mut out = vec![7];
        let draws = &mut RngDraws::new(&mut rng);
        m.run_top_k_into(queries, 0, draws, &mut TopKScratch::new(), &mut out)
            .unwrap();
        assert!(out.is_empty());
        let mut expect = rng_from_seed(6);
        for _ in 0..queries.len() {
            let _: f64 = expect.gen();
        }
        assert_eq!(rng.next_u64(), expect.next_u64());
    }

    #[test]
    fn run_is_the_k1_race_on_the_same_stream() {
        let m = ExponentialMechanism::new(0.9, false).unwrap();
        for seed in 0..20 {
            let a = m.run(&workload(), &mut rng_from_seed(seed)).unwrap();
            let b = m
                .run_top_k(&workload(), 1, &mut rng_from_seed(seed))
                .unwrap();
            assert_eq!(a, b[0], "seed {seed}");
        }
    }
}
