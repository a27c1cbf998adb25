//! The three workloads' inputs: fixed surrogate datasets, and everything
//! else a pure function of the seed.
//!
//! * `bulk-select` — the Kosarak surrogate's 41,270 item counts (the
//!   paper's largest query set), selected over by the five bulk-fill
//!   mechanisms at `k = 10`, `ε = 0.7`.
//! * `svt-scan` — the same counts in a seed-shuffled order, scanned by the
//!   five SVT mechanisms at `k = 10` against the count at rank `2k` (the
//!   low end of the paper's §7.2 rank range, so a run scans about half the
//!   stream). The seed shuffles every count except the `8k` largest —
//!   every item a run may answer — which sit at evenly spaced positions in
//!   a fixed rank-interleaved order: with so few of them, where a plain
//!   shuffle happens to put them would otherwise set the scan length (and
//!   the throughput) per seed. Each run scans a rotation of this cycle
//!   (`mech_loop`), so scan lengths spread smoothly.
//! * `serve-mixed` — a per-tenant request script over the BMS-POS
//!   surrogate's 1,657 item counts: one-shot calls over all ten mechanisms
//!   (64-query windows, one call in 32 over 64 up to all 1,657 queries), a
//!   streaming-SVT session per 16-request block (one in four leaked so idle
//!   eviction runs), and two calls per block that ask for more ε than the
//!   tenant was ever granted, so 12.5% of requests are budget-rejected
//!   throughout the run.

use free_gap_core::api::{AnyMechanism, ExponentialTopK};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, SparseVectorWithGap,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::MechanismError;
use free_gap_data::generator::Dataset;
use free_gap_noise::rng::{derive_fast_stream, splitmix64};
use free_gap_serve::{MechanismRequest, RequestBody};
use rand::seq::SliceRandom;

/// Privacy budget of every mechanism call.
pub const EPSILON: f64 = 0.7;
/// Selection size of `bulk-select` and answer cap of `svt-scan`.
pub const K: usize = 10;
/// Share of the Kosarak surrogate's records generated: enough for every
/// one of the 41,270 items to occur, at a fifth of the generation time.
pub const KOSARAK_SCALE: f64 = 0.2;

/// Seed of the surrogate datasets. The data is fixed, as a real
/// deployment's is; `--seed` drives the noise streams, the `svt-scan`
/// shuffle and the `serve-mixed` script and server.
pub const DATASET_SEED: u64 = 2019;

/// Stream index of the `svt-scan` shuffle.
const SHUFFLE_STREAM: u64 = 0x5C4_0000;

/// Per-item counts of the Kosarak surrogate at `scale`, item-id order.
pub fn kosarak_counts(seed: u64, scale: f64) -> Vec<f64> {
    Dataset::Kosarak
        .generate_scaled(scale, seed)
        .item_counts()
        .to_f64()
}

/// Per-item counts of the full-scale BMS-POS surrogate (1,657 items).
pub fn bms_pos_counts(seed: u64) -> Vec<f64> {
    Dataset::BmsPos.generate(seed).item_counts().to_f64()
}

/// The value at 0-based descending rank `rank` (clamped to the last).
pub fn rank_value(values: &[f64], rank: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted[rank.min(sorted.len() - 1)]
}

/// The ten grid mechanisms' names, in the order results list them.
pub const MECHANISMS: [&str; 10] = [
    "NoisyTopKWithGap",
    "ClassicNoisyTopK",
    "DiscreteNoisyTopKWithGap",
    "ExponentialMechanism",
    "StaircaseMechanism",
    "SparseVectorWithGap",
    "ClassicSparseVector",
    "AdaptiveSparseVector",
    "MultiBranchAdaptiveSparseVector",
    "DiscreteSparseVectorWithGap",
];

/// The five bulk-fill mechanisms of `bulk-select`.
pub fn bulk_grid() -> Result<Vec<AnyMechanism>, MechanismError> {
    Ok(vec![
        NoisyTopKWithGap::new(K, EPSILON, true)?.into(),
        ClassicNoisyTopK::new(K, EPSILON, true)?.into(),
        DiscreteNoisyTopKWithGap::new(K, EPSILON, true)?.into(),
        ExponentialTopK::new(ExponentialMechanism::new(EPSILON, true)?, K)?.into(),
        StaircaseMechanism::new(EPSILON)?.into(),
    ])
}

/// The five SVT mechanisms of `svt-scan` against `threshold`.
pub fn svt_grid(threshold: f64) -> Result<Vec<AnyMechanism>, MechanismError> {
    Ok(vec![
        SparseVectorWithGap::new(K, EPSILON, threshold, true)?.into(),
        ClassicSparseVector::new(K, EPSILON, threshold, true)?.into(),
        AdaptiveSparseVector::new(K, EPSILON, threshold, true)?.into(),
        MultiBranchAdaptiveSparseVector::new(K, EPSILON, threshold, true, 3)?.into(),
        DiscreteSparseVectorWithGap::new(K, EPSILON, threshold, true)?.into(),
    ])
}

/// `svt-scan`'s threshold: the count at descending rank `2k`.
pub fn svt_threshold(counts: &[f64]) -> f64 {
    rank_value(counts, 2 * K)
}

/// Items `svt_order` spreads evenly: the paper's §7.2 thresholds range
/// over ranks `2k..8k`, so these are all the items a run may answer.
pub const SPREAD: usize = 8 * K;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `counts` shuffled by `seed`, except the [`SPREAD`] largest: those sit at
/// evenly spaced slots, rank `r` at slot `r·s mod SPREAD` for a stride `s`
/// near `0.618·SPREAD` coprime to it, so every stretch of the stream holds
/// a like mix of large and near-threshold counts.
pub fn svt_order(counts: &[f64], seed: u64) -> Vec<f64> {
    let mut rng = derive_fast_stream(seed, SHUFFLE_STREAM);
    let mut sorted = counts.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let (top, below) = sorted.split_at(SPREAD.min(sorted.len()));
    let mut below = below.to_vec();
    below.shuffle(&mut rng);
    let m = top.len();
    let mut stride = (m as f64 * 0.618).round().max(1.0) as usize;
    while gcd(stride, m) != 1 {
        stride += 1;
    }
    let mut above = vec![0.0; m];
    for (r, &c) in top.iter().enumerate() {
        above[r * stride % m] = c;
    }
    let n = counts.len();
    let mut order = Vec::with_capacity(n);
    let (mut above, mut below) = (above.into_iter(), below.into_iter());
    let mut j = 0;
    for pos in 0..n {
        // Above-item j sits at floor((2j + 1) n / 2m): distinct for m ≤ n.
        if j < m && pos == (2 * j + 1) * n / (2 * m) {
            order.extend(above.next());
            j += 1;
        } else {
            order.extend(below.next());
        }
    }
    order
}

/// What a scripted request must get back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Output,
    Opened,
    Decisions,
    Closed,
    BudgetRejected,
}

/// Requests per script block.
pub const BLOCK: u64 = 16;
/// Tenants of `serve-mixed`.
pub const TENANTS: u64 = 32;
/// Client threads of `serve-mixed`.
pub const CLIENTS: usize = 2;
/// Each tenant's total budget: far more than any run spends, so only the
/// oversized requests are rejected and the rejected share stays constant.
pub const TENANT_BUDGET: f64 = 1e7;
/// Idle horizon, in per-tenant ticks: a leaked session is evicted about
/// two blocks after its last feed.
pub const MAX_IDLE: u64 = 24;
/// Queries of a regular one-shot call and of a session feed.
pub const CALL_LEN: usize = 64;
pub const FEED_LEN: usize = 16;
/// One regular call in this many is wide: a window of `CALL_LEN` up to all
/// of the BMS-POS query set, its width uniform.
pub const WIDE_EVERY: u64 = 32;

/// The `serve-mixed` request script.
#[derive(Debug, Clone)]
pub struct ServeScript {
    seed: u64,
    pub counts: Vec<f64>,
    pub grid: Vec<AnyMechanism>,
    /// Asks for twice the tenant's total budget.
    greedy: AnyMechanism,
    session_svt: SparseVectorWithGap,
}

impl ServeScript {
    pub fn new(seed: u64, counts: Vec<f64>) -> Result<Self, MechanismError> {
        // Rank 200 of 1,657: a 64-query window holds ~8 items above it.
        let threshold = rank_value(&counts, 200);
        let k = 5;
        let grid = vec![
            NoisyTopKWithGap::new(k, EPSILON, true)?.into(),
            ClassicNoisyTopK::new(k, EPSILON, true)?.into(),
            DiscreteNoisyTopKWithGap::new(k, EPSILON, true)?.into(),
            ExponentialTopK::new(ExponentialMechanism::new(EPSILON, true)?, k)?.into(),
            StaircaseMechanism::new(EPSILON)?.into(),
            SparseVectorWithGap::new(k, EPSILON, threshold, true)?.into(),
            ClassicSparseVector::new(k, EPSILON, threshold, true)?.into(),
            AdaptiveSparseVector::new(k, EPSILON, threshold, true)?.into(),
            MultiBranchAdaptiveSparseVector::new(k, EPSILON, threshold, true, 3)?.into(),
            DiscreteSparseVectorWithGap::new(k, EPSILON, threshold, true)?.into(),
        ];
        Ok(Self {
            seed,
            greedy: NoisyTopKWithGap::new(k, 2.0 * TENANT_BUDGET, true)?.into(),
            session_svt: SparseVectorWithGap::new(3, 0.5, threshold, true)?,
            counts,
            grid,
        })
    }

    fn hash(&self, t: u64, i: u64) -> u64 {
        let mut s = self.seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.rotate_left(32);
        splitmix64(&mut s)
    }

    fn window(&self, h: u64, len: usize) -> Vec<f64> {
        let start = (h >> 20) as usize % (self.counts.len() - len + 1);
        self.counts[start..start + len].to_vec()
    }

    /// Request `i` of tenant `t` and the response kind it must get.
    pub fn request(&self, t: u64, i: u64) -> (MechanismRequest, Expect) {
        let h = self.hash(t, i);
        let slot = i % BLOCK;
        let leaked = (i / BLOCK) % 4 == 3;
        let call =
            |mechanism: AnyMechanism, queries: Vec<f64>| RequestBody::Call { mechanism, queries };
        let (body, expect) = match slot {
            4 => (
                RequestBody::OpenSession {
                    session: i,
                    svt: self.session_svt,
                },
                Expect::Opened,
            ),
            5..=7 => (
                RequestBody::Feed {
                    session: i - (slot - 4),
                    queries: self.window(h, FEED_LEN),
                },
                Expect::Decisions,
            ),
            8 if !leaked => (RequestBody::CloseSession { session: i - 4 }, Expect::Closed),
            14 | 15 => (
                call(self.greedy, self.window(h, CALL_LEN)),
                Expect::BudgetRejected,
            ),
            _ => {
                let mech = self.grid[(h % self.grid.len() as u64) as usize];
                let queries = if (h >> 8).is_multiple_of(WIDE_EVERY) {
                    // Wide calls take CALL_LEN up to all the queries, so the
                    // latency tail is a continuum: with one fixed width it is
                    // a step per mechanism, and the p99 jumps between steps.
                    let n = self.counts.len();
                    self.window(h, CALL_LEN + (h >> 40) as usize % (n - CALL_LEN + 1))
                } else {
                    self.window(h, CALL_LEN)
                };
                (call(mech, queries), Expect::Output)
            }
        };
        (MechanismRequest { tenant: t, body }, expect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_core::api::Mechanism;

    #[test]
    fn svt_order_is_pure_in_the_seed_and_a_permutation() {
        let counts = kosarak_counts(4, 0.02);
        let threshold = svt_threshold(&counts);
        let a = svt_order(&counts, 11);
        let b = svt_order(&counts, 11);
        let c = svt_order(&counts, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sa = a.clone();
        let mut sc = counts.clone();
        sa.sort_by(f64::total_cmp);
        sc.sort_by(f64::total_cmp);
        assert_eq!(sa, sc);
        // The largest counts sit at the same evenly spaced positions for
        // every seed; only the rest moves.
        let big = rank_value(&counts, SPREAD - 1);
        let spread: Vec<usize> = (0..a.len()).filter(|&i| a[i] >= big).collect();
        assert_eq!(spread.len(), SPREAD);
        for (j, &pos) in spread.iter().enumerate() {
            assert_eq!(pos, (2 * j + 1) * a.len() / (2 * SPREAD));
            assert_eq!(a[pos], c[pos]);
        }
        // Every item at or above the threshold is among them, and the
        // largest ones are interleaved: the top quarter of ranks is spread
        // over all four quarters of the stream.
        assert!(threshold >= big);
        let top_quarter = rank_value(&counts, SPREAD / 4 - 1);
        for quarter in spread.chunks(SPREAD / 4) {
            assert!(quarter.iter().any(|&p| a[p] >= top_quarter));
        }
    }

    #[test]
    fn datasets_are_pure_in_the_seed() {
        assert_eq!(kosarak_counts(5, 0.01), kosarak_counts(5, 0.01));
        assert_ne!(kosarak_counts(5, 0.01), kosarak_counts(6, 0.01));
        assert_eq!(kosarak_counts(5, 0.01).len(), 41_270);
    }

    #[test]
    fn script_is_pure_and_mixes_every_kind() {
        let counts: Vec<f64> = (0..1657).map(|i| (5000 / (i + 1)) as f64).collect();
        let a = ServeScript::new(3, counts.clone()).unwrap();
        let b = ServeScript::new(3, counts).unwrap();
        let mut kinds = std::collections::HashMap::new();
        let mut widths = std::collections::HashSet::new();
        for t in 0..4 {
            for i in 0..640 {
                let (ra, ea) = a.request(t, i);
                let (rb, eb) = b.request(t, i);
                assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
                assert_eq!(ea, eb);
                *kinds.entry(format!("{ea:?}")).or_insert(0u64) += 1;
                if let RequestBody::Call { queries, .. } = &ra.body {
                    assert!((CALL_LEN..=1657).contains(&queries.len()));
                    widths.insert(queries.len());
                }
            }
        }
        let total = 4 * 640;
        assert_eq!(kinds["BudgetRejected"], total / 8);
        assert_eq!(kinds["Opened"], total / 16);
        assert_eq!(kinds["Decisions"], 3 * total / 16);
        // Three blocks in four close their session.
        assert_eq!(kinds["Closed"], total / 16 * 3 / 4);
        // Wide calls come in many widths.
        assert!(widths.len() > 10, "{widths:?}");
        let names: Vec<&str> = a.grid.iter().map(|m| m.name()).collect();
        assert_eq!(names, MECHANISMS);
        // The greedy call really exceeds the tenant's budget.
        let (greedy, _) = a.request(0, 14);
        if let RequestBody::Call { mechanism, .. } = greedy.body {
            assert!(mechanism.cost() > TENANT_BUDGET);
        } else {
            panic!("slot 14 must be a call");
        }
    }
}
