//! ⚠️ The **variant zoo**: deliberately non-private Sparse Vector variants
//! from the literature — DO NOT USE on real data.
//!
//! The paper's §1 recalls that Sparse-Vector-with-Gap "was a surprising
//! result given the number of incorrect attempts at improving Sparse Vector
//! based on flawed manual proofs" (catalogued by Lyu et al., the paper's
//! reference \[31\], and analyzed again by Chen–Machanavajjhala, *On the
//! Privacy Properties of Variants on the Sparse Vector Technique*). This
//! module reproduces five of those catalogued mistakes so the workspace's
//! auditing layers — the alignment checker, the black-box empirical
//! auditor, and the `free-gap-attack` harness — can demonstrate that each
//! failure mode is detected:
//!
//! * [`NoisyValueSvt`] (**noisy-value reuse**; Roth's lecture-notes
//!   variant, Lyu's Alg. 3): releases the raw noisy value `qᵢ + νᵢ` for
//!   every `⊤`, reusing the compared noise with no extra budget. The
//!   candidate alignment that preserves the released value cannot
//!   simultaneously preserve the comparison, and the **alignment checker**
//!   reports the output mismatch. The contrast with the paper is surgical:
//!   releasing `qᵢ + νᵢ - T̃` (the gap) aligns perfectly; releasing
//!   `qᵢ + νᵢ` does not, because subtracting the noisy threshold is what
//!   lets the winner's noise shift absorb the threshold's shift.
//! * [`UnscaledNoiseSvt`] (**unscaled noise**; Lee–Clifton style, Lyu's
//!   Alg. 5): stops after `k` answers but adds per-query noise that does
//!   **not** scale with `k`. Its natural alignment is valid (outputs are
//!   preserved) but its Definition-6 **cost** reaches `ε₁ + k·ε₂ > ε`, and
//!   the checker reports the overrun — the proof obligation of Lemma 1(iv)
//!   fails exactly as Lyu et al. diagnosed.
//! * [`NoQueryNoiseSvt`] (**no query noise**; Stoddard et al. style, Lyu's
//!   Alg. 4): perturbs only the threshold and answers unboundedly. Given
//!   the single noise draw the output is a deterministic function of the
//!   data, so adjacent inputs produce **disjoint** output distributions;
//!   the black-box **empirical auditor** returns `ε̂ = ∞`.
//! * [`BudgetMisallocationSvt`] (**budget misallocation**): writes down the
//!   `ε₁ = ε₂ = ε/2` split in its (flawed) proof but calibrates both noise
//!   scales to the **full** `ε` — threshold `Lap(1/ε)` instead of
//!   `Lap(1/ε₁)`, queries `Lap(k/ε)` instead of `Lap(k/ε₂)`. Every draw is
//!   half as noisy as the accounting assumes, so the true cost is exactly
//!   `2ε` against a claimed `ε` — a *finite* overrun, which makes this the
//!   calibration case for empirical ε estimators (unlike the unbounded
//!   variants, a sound lower bound must land in `(ε, 2ε]`).
//! * [`UnboundedCountSvt`] (**unbounded ⊤ count**; Chen et al. style,
//!   Lyu's Alg. 6): uses the correct `k = 1` noise scales but never halts —
//!   every query is answered `⊤`/`⊥` with no cap on the number of `⊤`s.
//!   Each additional `⊤` spends another `ε₂`, so the true cost grows
//!   linearly in the number of above-threshold answers while the claim
//!   stays fixed: not `ε'`-DP for any finite `ε'` on long workloads.
//!
//! Every variant runs through the same [`DrawProvider`] substrate as the
//! correct mechanisms: `run` is the draw-exact dyn path (the alignment
//! checker interposes here) and `run_into` takes any provider — through
//! [`ScratchDraws`](crate::draw::ScratchDraws) it is the batched fast path,
//! bit-identical on the same RNG stream — which is what lets the
//! `free-gap-attack` Monte-Carlo harness hammer the zoo at full speed with
//! deterministic derived sub-streams.

// lint:allow-file(taxonomy): the zoo's `run_into` entries are attack targets, deliberately broken —
// they must never join the equivalence suite as if they were serving mechanisms.
use super::SvOutput;
use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, SourceDraws};
use crate::error::{require_epsilon, MechanismError};
use free_gap_alignment::{AlignedMechanism, NoiseSource, NoiseTape, SamplingSource};
use rand::rngs::StdRng;

/// Lyu Alg. 3 (Roth): SVT that releases `qᵢ + νᵢ` for `⊤` answers,
/// claiming the same ε as plain SVT. **Not ε-DP.**
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyValueSvt {
    k: usize,
    claimed_epsilon: f64,
    threshold: f64,
}

/// Output of [`NoisyValueSvt`]: per processed query, `Some(noisy value)`
/// above or `None` below.
pub type NoisyValueOutput = Vec<Option<f64>>;

impl NoisyValueSvt {
    /// Creates the (broken) mechanism with its claimed budget.
    pub fn new(k: usize, claimed_epsilon: f64, threshold: f64) -> Result<Self, MechanismError> {
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        Ok(Self {
            k,
            claimed_epsilon: require_epsilon(claimed_epsilon)?,
            threshold,
        })
    }

    /// The budget the flawed proof claims.
    pub fn claimed_epsilon(&self) -> f64 {
        self.claimed_epsilon
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The single copy of the decision loop and its one provider-taking
    /// entry — same budget split and noise as a correct monotone SVT, but
    /// the released value re-exposes `νᵢ` without the noisy threshold
    /// folded in: that is the flaw.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut NoisyValueOutput,
    ) {
        provider.begin();
        let eps1 = self.claimed_epsilon / 2.0;
        let eps2 = self.claimed_epsilon / 2.0;
        let noisy_threshold = self.threshold + provider.next(1.0 / eps1);
        let qscale = self.k as f64 / eps2;
        out.clear();
        let mut queries = queries.into_iter();
        let mut answered = 0usize;
        while answered < self.k {
            let Some(q) = queries.next() else { break };
            let noisy = q + provider.next(qscale);
            if noisy >= noisy_threshold {
                out.push(Some(noisy));
                answered += 1;
            } else {
                out.push(None);
            }
        }
    }

    /// Runs the mechanism.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> NoisyValueOutput {
        self.run_with_source(answers, &mut SamplingSource::new(rng))
    }

    fn run_with_source(
        &self,
        answers: &QueryAnswers,
        source: &mut dyn NoiseSource,
    ) -> NoisyValueOutput {
        let mut out = Vec::new();
        self.run_into(
            answers.values().iter().copied(),
            &mut SourceDraws::new(source),
            &mut out,
        );
        out
    }
}

/// The only alignment candidate that preserves the released values: shift
/// each winner's noise by `qᵢ - q'ᵢ` (value-preserving) and the threshold
/// by +1 (required for the `⊥` queries). The checker demonstrates these two
/// requirements collide — near-threshold wins flip to `⊥` on replay.
impl AlignedMechanism for NoisyValueSvt {
    type Input = QueryAnswers;
    type Output = NoisyValueOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> NoisyValueOutput {
        self.run_with_source(input, source)
    }

    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &NoisyValueOutput,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        tape.aligned_by(|draw_idx, _| {
            if draw_idx == 0 {
                return 1.0;
            }
            let qi = draw_idx - 1;
            match output.get(qi) {
                Some(Some(_)) => q[qi] - qp[qi], // preserve the released value
                _ => 0.0,
            }
        })
    }

    fn epsilon(&self) -> f64 {
        self.claimed_epsilon
    }

    fn outputs_match(&self, a: &NoisyValueOutput, b: &NoisyValueOutput) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| match (x, y) {
                (None, None) => true,
                (Some(vx), Some(vy)) => (vx - vy).abs() <= 1e-9 * vx.abs().max(vy.abs()).max(1.0),
                _ => false,
            })
    }
}

/// Lyu Alg. 5 (Lee–Clifton style): per-query noise `Lap(2/ε₂)` independent
/// of `k`, stop after `k` answers, claiming `ε = ε₁ + ε₂`. **Only private
/// for k = 1.**
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnscaledNoiseSvt {
    k: usize,
    claimed_epsilon: f64,
    threshold: f64,
}

impl UnscaledNoiseSvt {
    /// Creates the (broken) mechanism with its claimed budget.
    pub fn new(k: usize, claimed_epsilon: f64, threshold: f64) -> Result<Self, MechanismError> {
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        Ok(Self {
            k,
            claimed_epsilon: require_epsilon(claimed_epsilon)?,
            threshold,
        })
    }

    /// The budget the flawed proof claims.
    pub fn claimed_epsilon(&self) -> f64 {
        self.claimed_epsilon
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The loss the natural alignment actually needs in the worst case:
    /// `ε₁ + k·ε₂` (per-answer cost `ε₂` instead of `ε₂/k`).
    pub fn worst_case_alignment_cost(&self) -> f64 {
        let eps1 = self.claimed_epsilon / 2.0;
        let eps2 = self.claimed_epsilon / 2.0;
        eps1 + self.k as f64 * eps2
    }

    /// The decision loop and its one provider-taking entry.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        provider.begin();
        let eps1 = self.claimed_epsilon / 2.0;
        let eps2 = self.claimed_epsilon / 2.0;
        let noisy_threshold = self.threshold + provider.next(1.0 / eps1);
        // The bug: scale 2/ε₂ no matter how many answers the run will emit.
        let qscale = 2.0 / eps2;
        out.above.clear();
        let mut queries = queries.into_iter();
        let mut answered = 0usize;
        while answered < self.k {
            let Some(q) = queries.next() else { break };
            let noisy = q + provider.next(qscale);
            if noisy >= noisy_threshold {
                out.above.push(Some(0.0));
                answered += 1;
            } else {
                out.above.push(None);
            }
        }
    }

    fn run_with_source(&self, answers: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        let mut out = SvOutput::default();
        self.run_into(
            answers.values().iter().copied(),
            &mut SourceDraws::new(source),
            &mut out,
        );
        out
    }

    /// Runs the mechanism.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        self.run_with_source(answers, &mut SamplingSource::new(rng))
    }
}

/// The standard (valid) SVT alignment — outputs are preserved, but the
/// Definition-6 cost overruns the claimed ε whenever more than one answer
/// must be shifted: each costs `ε₂·|1 + qᵢ - q'ᵢ|/2 ≤ ε₂` instead of `ε₂/k`.
impl AlignedMechanism for UnscaledNoiseSvt {
    type Input = QueryAnswers;
    type Output = SvOutput;

    fn run(&self, input: &QueryAnswers, source: &mut dyn NoiseSource) -> SvOutput {
        self.run_with_source(input, source)
    }

    fn align(
        &self,
        input: &QueryAnswers,
        neighbor: &QueryAnswers,
        tape: &NoiseTape,
        output: &SvOutput,
    ) -> NoiseTape {
        let q = input.values();
        let qp = neighbor.values();
        tape.aligned_by(|draw_idx, _| {
            if draw_idx == 0 {
                return 1.0;
            }
            let qi = draw_idx - 1;
            match output.above.get(qi) {
                Some(Some(_)) => 1.0 + q[qi] - qp[qi],
                _ => 0.0,
            }
        })
    }

    fn epsilon(&self) -> f64 {
        self.claimed_epsilon
    }
}

/// Lyu Alg. 4 (Stoddard et al. style): threshold noise only, no per-query
/// noise, unbounded answers. **Not ε-DP for any finite ε.**
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoQueryNoiseSvt {
    claimed_epsilon: f64,
    threshold: f64,
}

impl NoQueryNoiseSvt {
    /// Creates the (broken) mechanism with its claimed budget.
    pub fn new(claimed_epsilon: f64, threshold: f64) -> Result<Self, MechanismError> {
        Ok(Self {
            claimed_epsilon: require_epsilon(claimed_epsilon)?,
            threshold,
        })
    }

    /// The budget the flawed proof claims.
    pub fn claimed_epsilon(&self) -> f64 {
        self.claimed_epsilon
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The decision loop and its one provider-taking entry.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        provider.begin();
        let noisy_threshold = self.threshold + provider.next(1.0 / self.claimed_epsilon);
        out.above.clear();
        out.above.extend(queries.into_iter().map(|q| {
            if q >= noisy_threshold {
                Some(0.0)
            } else {
                None
            }
        }));
    }

    /// Runs the mechanism.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        let mut out = SvOutput::default();
        self.run_into(
            answers.values().iter().copied(),
            &mut SourceDraws::new(&mut SamplingSource::new(rng)),
            &mut out,
        );
        out
    }
}

/// Budget-misallocation SVT: the proof splits `ε₁ = ε₂ = ε/2`, the code
/// calibrates both noise scales to the full `ε`. True cost exactly `2ε`
/// against a claimed `ε`. **Not ε-DP** (it *is* `2ε`-DP — the finite-gap
/// case an empirical ε estimator must be able to resolve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetMisallocationSvt {
    k: usize,
    claimed_epsilon: f64,
    threshold: f64,
}

impl BudgetMisallocationSvt {
    /// Creates the (broken) mechanism with its claimed budget.
    pub fn new(k: usize, claimed_epsilon: f64, threshold: f64) -> Result<Self, MechanismError> {
        if k == 0 {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must be at least 1",
            });
        }
        Ok(Self {
            k,
            claimed_epsilon: require_epsilon(claimed_epsilon)?,
            threshold,
        })
    }

    /// The budget the flawed proof claims.
    pub fn claimed_epsilon(&self) -> f64 {
        self.claimed_epsilon
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The budget the noise scales actually spend: `2ε` (each half of the
    /// written-down `ε/2 + ε/2` split is under-noised by exactly 2×).
    pub fn true_epsilon(&self) -> f64 {
        2.0 * self.claimed_epsilon
    }

    /// The decision loop and its one provider-taking entry.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        provider.begin();
        // The bug: the proof says Lap(1/ε₁) and Lap(k/ε₂) with
        // ε₁ = ε₂ = ε/2; the scales below plug in the *total* ε instead.
        let noisy_threshold = self.threshold + provider.next(1.0 / self.claimed_epsilon);
        let qscale = self.k as f64 / self.claimed_epsilon;
        out.above.clear();
        let mut queries = queries.into_iter();
        let mut answered = 0usize;
        while answered < self.k {
            let Some(q) = queries.next() else { break };
            let noisy = q + provider.next(qscale);
            if noisy >= noisy_threshold {
                out.above.push(Some(0.0));
                answered += 1;
            } else {
                out.above.push(None);
            }
        }
    }

    /// Runs the mechanism.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        let mut out = SvOutput::default();
        self.run_into(
            answers.values().iter().copied(),
            &mut SourceDraws::new(&mut SamplingSource::new(rng)),
            &mut out,
        );
        out
    }
}

/// Chen et al. style (Lyu Alg. 6): correct `k = 1` noise scales
/// (`Lap(2/ε)` threshold, `Lap(4/ε)` queries, the general-query even
/// split), but **no cap on the number of `⊤`s** — every query is answered.
/// Each `⊤` spends another `ε₂ = ε/2`, so the true cost is
/// `ε/2 + (#⊤)·ε/2`, unbounded on long workloads. **Not ε'-DP for any
/// finite ε'.**
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnboundedCountSvt {
    claimed_epsilon: f64,
    threshold: f64,
}

impl UnboundedCountSvt {
    /// Creates the (broken) mechanism with its claimed budget.
    pub fn new(claimed_epsilon: f64, threshold: f64) -> Result<Self, MechanismError> {
        Ok(Self {
            claimed_epsilon: require_epsilon(claimed_epsilon)?,
            threshold,
        })
    }

    /// The budget the flawed proof claims.
    pub fn claimed_epsilon(&self) -> f64 {
        self.claimed_epsilon
    }

    /// The public threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The budget a run actually spends when it answers `tops` queries
    /// above threshold: `ε₁ + tops·ε₂` with `ε₁ = ε₂ = ε/2`.
    pub fn true_epsilon_for(&self, tops: usize) -> f64 {
        0.5 * self.claimed_epsilon * (1.0 + tops as f64)
    }

    /// The decision loop and its one provider-taking entry.
    pub fn run_into<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        provider: &mut P,
        out: &mut SvOutput,
    ) {
        provider.begin();
        let eps1 = self.claimed_epsilon / 2.0;
        let eps2 = self.claimed_epsilon / 2.0;
        let noisy_threshold = self.threshold + provider.next(1.0 / eps1);
        let qscale = 2.0 / eps2;
        out.above.clear();
        // The bug: no `answered == k` stop — the loop runs to the end of
        // the workload no matter how many ⊤s it has already emitted.
        for q in queries {
            let noisy = q + provider.next(qscale);
            if noisy >= noisy_threshold {
                out.above.push(Some(0.0));
            } else {
                out.above.push(None);
            }
        }
    }

    /// Runs the mechanism.
    pub fn run(&self, answers: &QueryAnswers, rng: &mut StdRng) -> SvOutput {
        let mut out = SvOutput::default();
        self.run_into(
            answers.values().iter().copied(),
            &mut SourceDraws::new(&mut SamplingSource::new(rng)),
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::{RngDraws, ScratchDraws};
    use crate::scratch::SvtScratch;
    use crate::sparse_vector::{ClassicSparseVector, SparseVectorWithGap};
    use free_gap_alignment::checker::check_alignment;
    use free_gap_alignment::empirical::empirical_epsilon;
    use free_gap_alignment::AlignmentError;
    use free_gap_noise::rng::rng_from_seed;

    #[test]
    fn construction_validation() {
        assert!(NoisyValueSvt::new(0, 1.0, 0.0).is_err());
        assert!(UnscaledNoiseSvt::new(1, 0.0, 0.0).is_err());
        assert!(NoQueryNoiseSvt::new(f64::NAN, 0.0).is_err());
        assert!(BudgetMisallocationSvt::new(0, 1.0, 0.0).is_err());
        assert!(BudgetMisallocationSvt::new(2, -1.0, 0.0).is_err());
        assert!(UnboundedCountSvt::new(0.0, 0.0).is_err());
    }

    #[test]
    fn scratch_paths_are_bit_identical_to_run() {
        // Every zoo variant's blocked fast path must replay the dyn path's
        // exact outputs on the same RNG stream — the property the attack
        // harness's Monte-Carlo loops rely on.
        let answers = QueryAnswers::general(vec![10.5, 9.0, 10.0, 8.5, 11.0, 9.5, 10.2, 7.0]);
        let q = || answers.values().iter().copied();
        let mut scratch = SvtScratch::new();
        let mut sv = SvOutput::default();
        let mut nv = NoisyValueOutput::new();
        for seed in 0..25u64 {
            let nv_m = NoisyValueSvt::new(2, 0.8, 10.0).unwrap();
            let mut rng = rng_from_seed(seed);
            nv_m.run_into(q(), &mut ScratchDraws::new(&mut scratch, &mut rng), &mut nv);
            let a = nv_m.run(&answers, &mut rng_from_seed(seed));
            assert_eq!(a, nv, "NoisyValueSvt diverged at seed {seed}");

            let un = UnscaledNoiseSvt::new(3, 0.8, 10.0).unwrap();
            let mut rng = rng_from_seed(seed);
            un.run_into(q(), &mut ScratchDraws::new(&mut scratch, &mut rng), &mut sv);
            let a = un.run(&answers, &mut rng_from_seed(seed));
            assert_eq!(a, sv, "UnscaledNoiseSvt diverged at seed {seed}");

            let nq = NoQueryNoiseSvt::new(0.8, 10.0).unwrap();
            let mut rng = rng_from_seed(seed);
            nq.run_into(q(), &mut ScratchDraws::new(&mut scratch, &mut rng), &mut sv);
            let a = nq.run(&answers, &mut rng_from_seed(seed));
            assert_eq!(a, sv, "NoQueryNoiseSvt diverged at seed {seed}");

            let bm = BudgetMisallocationSvt::new(2, 0.8, 10.0).unwrap();
            let mut rng = rng_from_seed(seed);
            bm.run_into(q(), &mut ScratchDraws::new(&mut scratch, &mut rng), &mut sv);
            let a = bm.run(&answers, &mut rng_from_seed(seed));
            assert_eq!(a, sv, "BudgetMisallocationSvt diverged at seed {seed}");

            let ub = UnboundedCountSvt::new(0.8, 10.0).unwrap();
            let mut rng = rng_from_seed(seed);
            ub.run_into(q(), &mut ScratchDraws::new(&mut scratch, &mut rng), &mut sv);
            let a = ub.run(&answers, &mut rng_from_seed(seed));
            assert_eq!(a, sv, "UnboundedCountSvt diverged at seed {seed}");
        }
    }

    #[test]
    fn into_variants_reuse_buffers() {
        // One output buffer per shape serves every run, and the halting
        // variants pull no query past their k-th ⊤.
        let answers = QueryAnswers::general(vec![10.0, 9.0, 11.0]);
        let mut scratch = SvtScratch::new();
        let mut sv = SvOutput::default();
        let mut nv = NoisyValueOutput::new();
        for seed in 0..5u64 {
            let m = BudgetMisallocationSvt::new(2, 1.0, 10.0).unwrap();
            let mut rng = rng_from_seed(seed);
            m.run_into(
                answers.values().iter().copied(),
                &mut ScratchDraws::new(&mut scratch, &mut rng),
                &mut sv,
            );
            assert_eq!(sv, m.run(&answers, &mut rng_from_seed(seed)));
            let m = NoisyValueSvt::new(1, 1.0, 10.0).unwrap();
            let mut rng = rng_from_seed(seed);
            m.run_into(
                answers.values().iter().copied(),
                &mut ScratchDraws::new(&mut scratch, &mut rng),
                &mut nv,
            );
            assert_eq!(nv, m.run(&answers, &mut rng_from_seed(seed)));
        }
        let m = NoisyValueSvt::new(2, 1.0, 0.0).unwrap();
        let mut rng = rng_from_seed(0);
        let endless = std::iter::repeat_n(1e9, 2).chain(std::iter::from_fn(|| -> Option<f64> {
            panic!("query stream pulled after the k-th ⊤")
        }));
        m.run_into(endless, &mut RngDraws::new(&mut rng), &mut nv);
        assert_eq!(nv.len(), 2);
    }

    #[test]
    fn unbounded_count_processes_everything() {
        // No stop condition: every query of a long workload is answered,
        // and with a high threshold noise draw pinned low the ⊤ count can
        // exceed any fixed k.
        let m = UnboundedCountSvt::new(100.0, 0.0).unwrap();
        let answers = QueryAnswers::general(vec![5.0; 200]);
        let out = m.run(&answers, &mut rng_from_seed(1));
        assert_eq!(out.processed(), 200);
        assert!(out.answered() > 100, "answered {}", out.answered());
        assert!((m.true_epsilon_for(out.answered())) > m.claimed_epsilon());
    }

    #[test]
    fn budget_misallocation_true_epsilon_is_double() {
        let m = BudgetMisallocationSvt::new(3, 0.7, 5.0).unwrap();
        assert!((m.true_epsilon() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn noisy_value_alignment_breaks_on_near_threshold_wins() {
        // Value-preserving alignment vs. the +1 threshold shift: any win
        // with gap < 1 flips to ⊥ on replay. The checker must observe
        // OutputMismatch within a few hundred trials.
        let mech = NoisyValueSvt::new(1, 1.0, 10.0).unwrap();
        let d = QueryAnswers::counting(vec![10.0, 10.0, 10.0]);
        let dp = d.perturbed(&[-1.0, -1.0, -1.0]);
        let mut rng = rng_from_seed(1);
        let mut mismatches = 0;
        for _ in 0..400 {
            match check_alignment(&mech, &d, &dp, &mut rng) {
                // A flipped win shows up either directly (different output)
                // or as control-flow divergence (the replayed run continues
                // past the original stopping point and overruns the tape).
                Err(AlignmentError::OutputMismatch { .. })
                | Err(AlignmentError::TapeOverrun { .. })
                | Err(AlignmentError::TapeNotDrained { .. }) => mismatches += 1,
                Err(other) => panic!("unexpected failure mode: {other}"),
                Ok(_) => {}
            }
        }
        assert!(mismatches > 0, "the broken proof was never caught");
    }

    #[test]
    fn gap_variant_aligns_where_noisy_value_variant_cannot() {
        // Control: identical setup, but releasing the *gap* instead of the
        // raw value — the paper's mechanism — aligns on every single run.
        let mech = SparseVectorWithGap::new(1, 1.0, 10.0, true).unwrap();
        let d = QueryAnswers::counting(vec![10.0, 10.0, 10.0]);
        let dp = d.perturbed(&[-1.0, -1.0, -1.0]);
        let mut rng = rng_from_seed(1);
        for _ in 0..400 {
            check_alignment(&mech, &d, &dp, &mut rng)
                .unwrap_or_else(|e| panic!("correct mechanism failed: {e}"));
        }
    }

    #[test]
    fn unscaled_noise_alignment_cost_overruns_claim() {
        // Adversarial monotone-down deltas (q' = q - 1) make every answered
        // query's shift |1 + q - q'| = 2, i.e. cost ε₂ apiece: at k = 3 the
        // total reaches ε₁ + 3·ε₂ = 2ε, over the claimed ε.
        let mech = UnscaledNoiseSvt::new(3, 0.6, 5.0).unwrap();
        assert!(mech.worst_case_alignment_cost() > mech.claimed_epsilon());
        let d = QueryAnswers::counting(vec![50.0, 50.0, 50.0]); // all answered
        let dp = d.perturbed(&[-1.0, -1.0, -1.0]);
        let mut rng = rng_from_seed(2);
        let mut overruns = 0;
        for _ in 0..50 {
            match check_alignment(&mech, &d, &dp, &mut rng) {
                Err(AlignmentError::CostExceeded { cost, epsilon }) => {
                    overruns += 1;
                    // ε₁·1 + 3·(ε₂/2)·|1+1| = 0.3 + 0.9 = 1.2 = 2ε.
                    assert!((cost - 1.2).abs() < 1e-9, "cost {cost}");
                    assert_eq!(epsilon, 0.6);
                }
                Err(other) => panic!("unexpected failure mode: {other}"),
                Ok(_) => {}
            }
        }
        assert_eq!(overruns, 50, "every run should overrun on this workload");
    }

    #[test]
    fn unscaled_noise_is_fine_at_k_1() {
        // The flaw needs k >= 2: a single answer at scale 2/ε₂ costs exactly
        // ε₂ and the total stays within the claim.
        let mech = UnscaledNoiseSvt::new(1, 0.6, 5.0).unwrap();
        let d = QueryAnswers::counting(vec![50.0, 1.0, 1.0]);
        let dp = d.perturbed(&[1.0, 1.0, 1.0]);
        let mut rng = rng_from_seed(3);
        for _ in 0..50 {
            check_alignment(&mech, &d, &dp, &mut rng)
                .unwrap_or_else(|e| panic!("k = 1 should be private: {e}"));
        }
    }

    #[test]
    fn correctly_scaled_svt_aligns_on_the_adversarial_workload() {
        // Control for the cost-overrun test: classic SVT with k-scaled noise
        // passes the identical workload within the same claimed ε.
        let mech = ClassicSparseVector::new(3, 0.6, 5.0, true).unwrap();
        let d = QueryAnswers::counting(vec![50.0, 50.0, 50.0]);
        let dp = d.perturbed(&[1.0, 1.0, 1.0]);
        let mut rng = rng_from_seed(4);
        for _ in 0..50 {
            check_alignment(&mech, &d, &dp, &mut rng)
                .unwrap_or_else(|e| panic!("correct SVT failed: {e}"));
        }
    }

    #[test]
    fn no_query_noise_yields_infinite_empirical_epsilon() {
        // Sentinel queries pin the noisy threshold into a half-unit bucket;
        // the moving query's bit then separates the two output distributions
        // entirely on a frequent event → disjoint support → ε̂ = ∞.
        let mech = NoQueryNoiseSvt::new(1.0, 10.0).unwrap();
        let run = |answers: &[f64], rng: &mut StdRng| {
            mech.run(&QueryAnswers::general(answers.to_vec()), rng)
                .above
                .iter()
                .map(|o| o.is_some())
                .collect::<Vec<bool>>()
        };
        let mut d: Vec<f64> = (0..16).map(|i| 10.0 + (i as f64 - 8.0) * 0.5).collect();
        let mut dp = d.clone();
        d.push(10.25); // sits inside a sentinel bucket
        dp.push(10.75); // adjacent (|δ| = 0.5), lands in the same bucket
        let mut rng = rng_from_seed(5);
        let audit = empirical_epsilon(run, &d, &dp, 40_000, 100, &mut rng);
        assert!(
            audit.epsilon_hat.is_infinite(),
            "catastrophic leak not surfaced: ε̂ = {} via {}",
            audit.epsilon_hat,
            audit.witness
        );
        // The smoothed one-sided bound stays finite but still convicts.
        assert!(audit.epsilon_hat_smoothed.is_finite());
        assert!(audit.epsilon_hat_smoothed > mech.claimed_epsilon());
    }

    #[test]
    fn correct_svt_passes_the_pinning_workload() {
        // Control: classic SVT (with query noise) on the same sentinel
        // workload stays within its budget.
        let mech = ClassicSparseVector::new(4, 1.0, 10.0, false).unwrap();
        let run = |answers: &[f64], rng: &mut StdRng| {
            mech.run(&QueryAnswers::general(answers.to_vec()), rng)
                .above
                .iter()
                .map(|o| o.is_some())
                .collect::<Vec<bool>>()
        };
        let mut d: Vec<f64> = (0..6).map(|i| 10.0 + (i as f64 - 3.0) * 0.5).collect();
        let mut dp = d.clone();
        d.push(10.25);
        dp.push(10.75);
        let mut rng = rng_from_seed(6);
        let audit = empirical_epsilon(run, &d, &dp, 40_000, 100, &mut rng);
        assert!(
            audit.epsilon_hat <= 1.0 + 0.3,
            "ε̂ = {} via {}",
            audit.epsilon_hat,
            audit.witness
        );
    }
}
