//! Open streaming-SVT sessions: the server-side state that lets one
//! gap-releasing sparse-vector run span many requests.
//!
//! A session owns the resumable triple the core's
//! [`SparseVectorWithGap::stream_open`] contract requires — the stream
//! state, the RNG, and the [`SvtScratch`] noise tape (whose buffered
//! lookahead is part of the tape, so the pair must keep serving this
//! stream until it halts). Feeding the session in any batching is
//! bit-identical to one one-shot streaming run on the same RNG.
//!
//! ## Budget story (paper §4, Algorithm 2's remaining-budget output)
//!
//! The full ε = ε₁ + ε₂ is debited when the session opens: the threshold
//! draw (ε₁) happens at open, and the query noise is provisioned for the
//! worst case of `k` above-threshold answers. Below-threshold answers are
//! free — the SVT property the paper builds on — so when a session closes
//! (or is evicted) after only `a < k` answers, the unanswered share flows
//! back to the tenant's ledger, in the ledger's nano-ε units:
//! `units(ε) − units(ε₁ + ε₂·a/k)`, saturating. The used share rounds up,
//! so the credit never exceeds what the answers left unused. The threshold
//! share ε₁ is spent the moment the noisy threshold exists.

use free_gap_core::budget::units;
use free_gap_core::sparse_vector::{SparseVectorWithGap, SvtStreamState};
use free_gap_core::SvtScratch;
use free_gap_noise::rng::FastRng;

/// One open streaming run of [`SparseVectorWithGap`].
#[derive(Debug)]
pub struct SvtSession {
    svt: SparseVectorWithGap,
    state: SvtStreamState,
    rng: FastRng,
    scratch: SvtScratch,
    last_used: u64,
}

impl SvtSession {
    /// Opens the stream: draws the threshold noise from `rng` and takes
    /// ownership of the RNG/scratch pair for the lifetime of the run.
    pub fn open(svt: SparseVectorWithGap, mut rng: FastRng, now: u64) -> Self {
        let mut scratch = SvtScratch::new();
        let state = svt.stream_open(&mut rng, &mut scratch);
        Self {
            svt,
            state,
            rng,
            scratch,
            last_used: now,
        }
    }

    /// Feeds a batch of queries, appending one decision per query observed
    /// before the halt (`Some(gap)` for `⊤`, `None` for `⊥`); queries fed
    /// after the `k`-th `⊤` are never observed and produce no decision.
    /// Every query must be finite
    /// ([`require_finite`](free_gap_core::answers::require_finite)), which
    /// the server checks on the whole batch before it feeds any of it.
    pub fn feed(&mut self, queries: &[f64], now: u64, out: &mut Vec<Option<f64>>) {
        self.last_used = now;
        for &q in queries {
            match self
                .svt
                .stream_feed(&mut self.state, q, &mut self.rng, &mut self.scratch)
            {
                Some(decision) => out.push(decision),
                None => break,
            }
        }
    }

    /// Above-threshold answers so far.
    pub fn answered(&self) -> usize {
        self.state.answered()
    }

    /// True once the `k`-th `⊤` halted the run.
    pub fn is_halted(&self) -> bool {
        self.state.is_halted()
    }

    /// The nano-ε units closing or evicting the session credits back to
    /// the tenant's ledger, which debited [`units`]`(ε)` at open:
    /// `units(ε) − units(ε₁ + ε₂·a/k)`, saturating, for `a` answers so far.
    pub fn unspent(&self) -> u128 {
        let used = self.svt.epsilon1()
            + self.svt.epsilon2() * self.answered() as f64 / self.svt.k() as f64;
        units(self.svt.epsilon()).saturating_sub(units(used))
    }

    /// Logical tick of the last request that touched this session.
    pub fn last_used(&self) -> u64 {
        self.last_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_noise::rng::fast_rng_from_seed;

    #[test]
    fn unspent_decreases_with_answers_and_hits_zero_at_halt() {
        let svt = SparseVectorWithGap::new(2, 1.0, 10.0, true).unwrap();
        let mut s = SvtSession::open(svt, fast_rng_from_seed(3), 0);
        assert_eq!(s.unspent(), units(svt.epsilon()) - units(svt.epsilon1()));
        let mut out = Vec::new();
        // Far-above queries are answered almost surely; feed until halt.
        let mut guard = 0;
        while !s.is_halted() {
            s.feed(&[1000.0], guard, &mut out);
            guard += 1;
            assert!(guard < 100, "far-above queries never halted the run");
        }
        assert_eq!(s.answered(), 2);
        assert_eq!(s.unspent(), 0);
        assert_eq!(s.last_used(), guard - 1);
    }
}
