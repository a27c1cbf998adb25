//! Mechanism-throughput harness: the `repro bench` command.
//!
//! Times Monte-Carlo loops of each mechanism over an `n × k` grid, once per
//! execution path:
//!
//! | path | meaning |
//! |------|---------|
//! | `dyn` | the allocating `run` path — `dyn NoiseSource` dispatch, fresh buffers per run (the "before") |
//! | `scratch` | [`AnyMechanism::call_batched`] — batched noise, reused buffers, monomorphic `StdRng` |
//! | `scratch_fast` | [`AnyMechanism::call_batched`] driven by [`FastRng`](free_gap_noise::rng::FastRng) (Xoshiro) — the Monte-Carlo fast path |
//! | `streaming` | the mechanism's lazy `_into` entry over a query iterator — the streaming serving path (all mechanisms except the Noisy-Top-K family, which needs the whole vector by definition) |
//! | `par` | [`AnyMechanism::call_par`] — the intra-run parallel path: per-block sub-stream noise fill plus the per-chunk selection reduce, threads clamped to `min(available_parallelism, 4)` (the Top-K family, the exponential race and the staircase measurement; the SVT family's threshold loop is inherently sequential) |
//!
//! All paths execute the *same mechanism*: `scratch` and `streaming` are
//! bit-identical to `dyn` per run (see `free_gap_core::scratch` and the
//! `scratch_equivalence` suite), and `scratch_fast` only swaps the
//! generator. The `par` path draws the documented per-block sub-stream
//! layout instead of one sequential stream — a *different* (equally
//! well-defined) sample than `scratch_fast`, but bit-identical to itself
//! for every thread count (the `draw` module's 1-vs-4-thread digest tests
//! pin this), so its throughput is comparable cell-for-cell. The `dyn` and `scratch(_fast)` cells dispatch through the
//! unified `free_gap_core::api::Mechanism` trait
//! ([`AnyMechanism::call_reference`] / [`AnyMechanism::call_batched`], the
//! same surface the serving layer speaks), whose bit-identity to the
//! historical per-mechanism entry points is pinned by the `api_surface`
//! suite. Results are printed as a table and written to
//! `BENCH_mechanisms.json` so the perf trajectory is tracked across PRs —
//! compare the file in version control against a fresh run on the same
//! machine before claiming a regression or a win.
//!
//! The `streaming` cells here pull queries from an iterator over the same
//! materialized workload, so they isolate the *overhead* of the streaming
//! layer versus `scratch` (expected: none — both early-stop after the k-th
//! ⊤, which on the shuffled workloads is a small prefix of the long
//! streams). The *win* of the streaming path — answering from a generator
//! without ever materializing the query vector — is demonstrated
//! end-to-end by `examples/streaming_svt.rs`.
//!
//! The headline before/after comparison is `dyn` (the only path that
//! existed before the batching work) against `scratch_fast` (the Monte-Carlo
//! substrate those loops now use: batching + monomorphization + the fast
//! generator together) — ~2× on the continuous 100k-query cells and
//! ~2.4–2.9× on the discrete (finite-precision) ones. The `scratch` column
//! isolates how much of that is batching alone under the deterministic
//! ChaCha generator: ~1.1× for the continuous mechanisms (per-draw cost
//! there is dominated by ChaCha and `ln`, which batching cannot remove) and
//! ~1.7–2.0× for the discrete ones, whose dyn path additionally pays a
//! per-draw distribution construction (`exp` + `ln`) that the scratch tape
//! hoists and caches per rate.
//!
//! The discrete mechanisms run on the integer-lattice projection of the
//! same workload (their finite-precision contract), with the threshold
//! taken from the rounded counts so it sits on the lattice.
//!
//! ## `BENCH_mechanisms.json` protocol
//!
//! A single JSON object:
//!
//! ```json
//! {
//!   "schema": "free-gap-bench/mechanisms/v1",
//!   "seed": 20190412,
//!   "grid": { "n": [1000, ...], "k": [10, ...] },
//!   "results": [
//!     { "mechanism": "NoisyTopKWithGap", "path": "scratch", "n": 100000,
//!       "k": 10, "runs": 137, "elapsed_secs": 0.301,
//!       "runs_per_sec": 455.1 },
//!     ...
//!   ]
//! }
//! ```
//!
//! `runs_per_sec` is the headline number; `runs`/`elapsed_secs` let a reader
//! judge measurement quality. Records appear for every
//! `mechanism × path × n × k` cell (paths per mechanism as listed in
//! [`MECHANISM_PATHS`]: every mechanism except the Noisy-Top-K family has
//! the extra `streaming` path), so "the speedup" for a cell is the ratio of its
//! `scratch`(`_fast`)/`streaming` and `dyn` records. [`missing_cells`]
//! re-derives the expected cell set from the same table, which is what the
//! CI smoke step runs against a freshly written file.

// lint:allow-file(panic-freedom): the timing grid builds mechanisms from known-valid parameters; a failure must abort the run — a typed error would record a silently wrong baseline

use crate::table::Table;
use free_gap_core::api::{
    AnyMechanism, CallScratch, ExponentialTopK, Mechanism, MechanismOutput, QuerySlice,
};
use free_gap_core::draw::{ParallelDraws, RngDraws, ScratchDraws};
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::scratch::{SvtScratch, TopKScratch};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, AdaptiveSvOutput, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, MultiBranchSvOutput, SparseVectorWithGap, SvOutput,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::QueryAnswers;
use free_gap_noise::rng::{derive_fast_stream, derive_stream, derive_stream_seed};
use rand::seq::SliceRandom;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// The benchmarked mechanisms and the execution paths each one has, in
/// record order. This is the single source of truth for grid coverage:
/// [`run_grid`] produces exactly these cells and [`missing_cells`] checks a
/// written JSON against them.
pub const MECHANISM_PATHS: [(&str, &[&str]); 10] = [
    (
        "NoisyTopKWithGap",
        &["dyn", "scratch", "scratch_fast", "par"],
    ),
    (
        "ClassicNoisyTopK",
        &["dyn", "scratch", "scratch_fast", "par"],
    ),
    (
        "DiscreteNoisyTopKWithGap",
        &["dyn", "scratch", "scratch_fast", "par"],
    ),
    (
        "ExponentialMechanism",
        &["dyn", "scratch", "scratch_fast", "streaming", "par"],
    ),
    (
        "StaircaseMechanism",
        &["dyn", "scratch", "scratch_fast", "streaming", "par"],
    ),
    (
        "SparseVectorWithGap",
        &["dyn", "scratch", "scratch_fast", "streaming"],
    ),
    (
        "ClassicSparseVector",
        &["dyn", "scratch", "scratch_fast", "streaming"],
    ),
    (
        "AdaptiveSparseVector",
        &["dyn", "scratch", "scratch_fast", "streaming"],
    ),
    (
        "MultiBranchAdaptiveSparseVector",
        &["dyn", "scratch", "scratch_fast", "streaming"],
    ),
    (
        "DiscreteSparseVectorWithGap",
        &["dyn", "scratch", "scratch_fast", "streaming"],
    ),
];

/// One timed cell of the benchmark grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Mechanism name (type name, e.g. `NoisyTopKWithGap`).
    pub mechanism: &'static str,
    /// Execution path: `dyn`, `scratch`, `scratch_fast` or `streaming`.
    pub path: &'static str,
    /// Workload size (number of queries).
    pub n: usize,
    /// Selection parameter `k`.
    pub k: usize,
    /// Completed Monte-Carlo runs this record accounts for: the cell total
    /// in fixed-`runs` mode, the fastest window in time-budget mode.
    pub runs: usize,
    /// Wall-clock seconds spent on those runs.
    pub elapsed_secs: f64,
}

impl BenchRecord {
    /// Throughput in mechanism runs per second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.runs as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// Configuration for the throughput harness.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Root seed for workload generation and per-run streams.
    pub seed: u64,
    /// Fixed run count per cell: exactly this many timed runs are executed
    /// (partitioned across the timing windows) and the recorded
    /// `runs`/`elapsed_secs` are the cell totals. `None` uses the time
    /// budget instead.
    pub runs: Option<usize>,
    /// Time budget per cell in seconds when `runs` is `None`.
    pub budget_secs: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            seed: 20190412,
            runs: None,
            budget_secs: 1.0,
        }
    }
}

/// The workload sizes of the default grid (the largest matches the paper's
/// biggest dataset order of magnitude).
pub const N_GRID: [usize; 3] = [1_000, 10_000, 100_000];

/// The `k` values of the default grid.
pub const K_GRID: [usize; 2] = [10, 25];

/// A monotone counting workload of size `n`: Zipf-like counts, jittered so
/// rankings are non-trivial, in **shuffled** stream order (transaction
/// datasets do not arrive count-sorted, and SVT throughput is dominated by
/// how deep it scans before collecting its `k` answers). Deterministic in
/// `seed`.
fn synthetic_counts(n: usize, seed: u64) -> QueryAnswers {
    let mut rng = derive_stream(seed, 0xBEEC);
    let mut values: Vec<f64> = (0..n)
        .map(|i| 1_000_000.0 / (i + 1) as f64 + rng.gen_range(0.0..50.0))
        .collect();
    values.shuffle(&mut rng);
    QueryAnswers::counting(values)
}

/// The same workload rounded onto the integer lattice `γ = 1` — the
/// finite-precision mechanisms require exact lattice multiples.
fn synthetic_integer_counts(answers: &QueryAnswers) -> QueryAnswers {
    QueryAnswers::counting(answers.values().iter().map(|v| v.round()).collect())
}

/// SVT threshold at descending rank `4k` (mid-range per the §7.2 protocol).
fn rank_threshold(answers: &QueryAnswers, k: usize) -> f64 {
    let mut sorted: Vec<f64> = answers.values().to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted[(4 * k).min(sorted.len() - 1)]
}

/// Timing windows per cell. On shared machines a single window is hostage
/// to whatever else ran during it; in time-budget mode the fastest window
/// is reported (approximating uncontended throughput, symmetrically for
/// every path), while fixed-`runs` mode partitions the requested count
/// across the windows and reports the cell totals, so the recorded `runs`
/// equals what the user asked for and no extra work is executed.
const WINDOWS: usize = 3;

/// Times `body(run_index)` and returns `(runs, elapsed_secs)`.
///
/// * Fixed-`runs` mode: exactly `target` timed runs are executed,
///   partitioned across [`WINDOWS`] windows; the cell **total** runs and
///   elapsed time are returned (`runs == target`; a degenerate target of 0
///   is clamped to 1 so every record keeps a measurable cell — the `repro`
///   CLI rejects `--runs 0` up front).
/// * Time-budget mode: each window runs for a third of the budget and the
///   fastest window is returned.
fn time_cell(config: &BenchConfig, mut body: impl FnMut(u64)) -> (usize, f64) {
    // Warm up: populate caches/buffers outside the timed windows.
    body(u64::MAX);
    let mut next_run = 0u64;
    if let Some(target) = config.runs {
        let target = target.max(1);
        let mut total_elapsed = 0.0;
        for window in 0..WINDOWS {
            // Partition: the first `target % WINDOWS` windows take one extra
            // run, so window sizes sum to exactly `target`.
            let window_runs = target / WINDOWS + usize::from(window < target % WINDOWS);
            if window_runs == 0 {
                continue;
            }
            let start = Instant::now();
            for _ in 0..window_runs {
                body(next_run);
                next_run += 1;
            }
            total_elapsed += start.elapsed().as_secs_f64();
        }
        return (target, total_elapsed);
    }
    let mut best: Option<(usize, f64)> = None;
    for _ in 0..WINDOWS {
        let start = Instant::now();
        let mut runs = 0usize;
        loop {
            body(next_run);
            next_run += 1;
            runs += 1;
            // Check the clock in batches of 16 to keep `Instant::now`
            // out of the hot loop.
            if runs.is_multiple_of(16)
                && start.elapsed().as_secs_f64() >= config.budget_secs / WINDOWS as f64
            {
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let better = match best {
            Some((b_runs, b_elapsed)) => runs as f64 * b_elapsed > b_runs as f64 * elapsed,
            None => true,
        };
        if better {
            best = Some((runs, elapsed));
        }
    }
    best.expect("at least one window ran")
}

/// Times one `mechanism × n × k` cell across the three materialized paths,
/// pushing a record per path. `scratch_run` receives `fast = true` for the
/// FastRng variant so one closure (and one scratch borrow) serves both.
/// SVT mechanisms additionally get a `streaming` record via
/// [`bench_streaming_cell`].
#[allow(clippy::too_many_arguments)]
fn bench_cell(
    records: &mut Vec<BenchRecord>,
    config: &BenchConfig,
    mechanism: &'static str,
    n: usize,
    k: usize,
    mut dyn_run: impl FnMut(u64),
    mut scratch_run: impl FnMut(u64, bool),
) {
    let mut push = |path, (runs, elapsed_secs)| {
        records.push(BenchRecord {
            mechanism,
            path,
            n,
            k,
            runs,
            elapsed_secs,
        });
    };
    push("dyn", time_cell(config, &mut dyn_run));
    push("scratch", time_cell(config, |r| scratch_run(r, false)));
    push("scratch_fast", time_cell(config, |r| scratch_run(r, true)));
}

/// Times the lazy-iterator path of one SVT cell and pushes its `streaming`
/// record.
fn bench_streaming_cell(
    records: &mut Vec<BenchRecord>,
    config: &BenchConfig,
    mechanism: &'static str,
    n: usize,
    k: usize,
    mut streaming_run: impl FnMut(u64),
) {
    let (runs, elapsed_secs) = time_cell(config, &mut streaming_run);
    records.push(BenchRecord {
        mechanism,
        path: "streaming",
        n,
        k,
        runs,
        elapsed_secs,
    });
}

/// The ten grid mechanisms as [`AnyMechanism`] values, in
/// [`MECHANISM_PATHS`] record order. One constructor list instead of ten
/// inline blocks: the unified call surface is what lets [`run_grid`]'s
/// timing loop dispatch every dyn/scratch cell through the same two
/// closures.
fn grid_mechanisms(k: usize, threshold: f64, int_threshold: f64) -> Vec<AnyMechanism> {
    vec![
        NoisyTopKWithGap::new(k, 0.7, true)
            .expect("valid parameters")
            .into(),
        ClassicNoisyTopK::new(k, 0.7, true)
            .expect("valid parameters")
            .into(),
        DiscreteNoisyTopKWithGap::new(k, 0.7, true)
            .expect("valid parameters")
            .into(),
        ExponentialTopK::new(
            ExponentialMechanism::new(0.7, true).expect("valid parameters"),
            k,
        )
        .expect("valid parameters")
        .into(),
        StaircaseMechanism::new(0.7)
            .expect("valid parameters")
            .into(),
        SparseVectorWithGap::new(k, 0.7, threshold, true)
            .expect("valid parameters")
            .into(),
        ClassicSparseVector::new(k, 0.7, threshold, true)
            .expect("valid parameters")
            .into(),
        AdaptiveSparseVector::new(k, 0.7, threshold, true)
            .expect("valid parameters")
            .into(),
        MultiBranchAdaptiveSparseVector::new(k, 0.7, threshold, true, 3)
            .expect("valid parameters")
            .into(),
        DiscreteSparseVectorWithGap::new(k, 0.7, int_threshold, true)
            .expect("valid parameters")
            .into(),
    ]
}

/// Runs the full `mechanism × path × n × k` grid.
///
/// The `dyn`/`scratch`/`scratch_fast` cells all dispatch through the
/// unified `Mechanism` trait: `dyn` is [`AnyMechanism::call_reference`]
/// (the allocating `dyn NoiseSource` path) and the scratch cells are
/// [`AnyMechanism::call_batched`] under the two generator families — one
/// pair of closures for all ten mechanisms, where the old grid carried a
/// hand-written pair per mechanism. The `streaming` cells stay on the
/// mechanisms' own lazy-iterator entry points (streaming is not part of
/// the one-shot call surface).
pub fn run_grid(config: &BenchConfig) -> Vec<BenchRecord> {
    let seed = config.seed;
    // Thread count for the `par` cells: the machine's parallelism, clamped
    // to the four-way layout the digest tests pin. Only wall-clock depends
    // on it — ParallelDraws output is identical for every thread count.
    let par_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let mut records = Vec::new();
    for &n in &N_GRID {
        let answers = synthetic_counts(n, seed);
        let int_answers = synthetic_integer_counts(&answers);
        for &k in &K_GRID {
            let threshold = rank_threshold(&answers, k);
            // Element of the rounded workload, so it sits on the lattice.
            let int_threshold = rank_threshold(&int_answers, k);
            for mech in grid_mechanisms(k, threshold, int_threshold) {
                // The finite-precision mechanisms run on the
                // integer-lattice projection of the workload (their
                // contract); everything else on the continuous counts.
                let workload = match mech {
                    AnyMechanism::DiscreteNoisyTopKWithGap(_)
                    | AnyMechanism::DiscreteSparseVectorWithGap(_) => &int_answers,
                    _ => &answers,
                };
                let req = QuerySlice::from_answers(workload);
                let mut scratch = CallScratch::new();
                let mut dyn_out = MechanismOutput::new_for(&mech);
                let mut out = MechanismOutput::new_for(&mech);
                bench_cell(
                    &mut records,
                    config,
                    mech.name(),
                    n,
                    k,
                    |r| {
                        mech.call_reference(&req, &mut derive_stream(seed, r), &mut dyn_out)
                            .expect("validated workload");
                        black_box(&dyn_out);
                    },
                    |r, fast| {
                        if fast {
                            mech.call_batched(
                                &req,
                                &mut derive_fast_stream(seed, r),
                                &mut scratch,
                                &mut out,
                            )
                        } else {
                            mech.call_batched(
                                &req,
                                &mut derive_stream(seed, r),
                                &mut scratch,
                                &mut out,
                            )
                        }
                        .expect("validated workload");
                        black_box(&out);
                    },
                );

                // The intra-run parallel path: the mechanisms with a bulk
                // noise fill and/or a selection reduce (MECHANISM_PATHS
                // rows carrying "par").
                if matches!(
                    mech,
                    AnyMechanism::NoisyTopKWithGap(_)
                        | AnyMechanism::ClassicNoisyTopK(_)
                        | AnyMechanism::DiscreteNoisyTopKWithGap(_)
                        | AnyMechanism::Exponential(_)
                        | AnyMechanism::Staircase(_)
                ) {
                    let mut par = ParallelDraws::new(0, par_threads);
                    let mut par_out = MechanismOutput::new_for(&mech);
                    let (runs, elapsed_secs) = time_cell(config, |r| {
                        par.reset(derive_stream_seed(seed, r));
                        mech.call_par(&req, &mut par, &mut scratch, &mut par_out)
                            .expect("validated workload");
                        black_box(&par_out);
                    });
                    records.push(BenchRecord {
                        mechanism: mech.name(),
                        path: "par",
                        n,
                        k,
                        runs,
                        elapsed_secs,
                    });
                }
            }

            // Streaming cells: the lazy-iterator serving path, timed on the
            // mechanisms' own `_into` entries pulling from an iterator over
            // the workload, through the provider each fast path uses.
            let queries = || answers.values().iter().copied();
            let mut sv_out = SvOutput::default();
            let mut svt_gap_scratch = SvtScratch::new();
            let svt_gap =
                SparseVectorWithGap::new(k, 0.7, threshold, true).expect("valid parameters");
            bench_streaming_cell(&mut records, config, "SparseVectorWithGap", n, k, |r| {
                let mut rng = derive_stream(seed, r);
                let mut provider = ScratchDraws::new(&mut svt_gap_scratch, &mut rng);
                svt_gap.run_into(queries(), &mut provider, &mut sv_out);
                black_box(&sv_out);
            });

            let mut classic_svt_scratch = SvtScratch::new();
            let classic_svt =
                ClassicSparseVector::new(k, 0.7, threshold, true).expect("valid parameters");
            bench_streaming_cell(&mut records, config, "ClassicSparseVector", n, k, |r| {
                let mut rng = derive_stream(seed, r);
                let mut provider = ScratchDraws::new(&mut classic_svt_scratch, &mut rng);
                classic_svt.run_into(queries(), &mut provider, &mut sv_out);
                black_box(&sv_out);
            });

            let mut adaptive_scratch = SvtScratch::new();
            let mut adaptive_out = AdaptiveSvOutput::default();
            let adaptive =
                AdaptiveSparseVector::new(k, 0.7, threshold, true).expect("valid parameters");
            bench_streaming_cell(&mut records, config, "AdaptiveSparseVector", n, k, |r| {
                let mut rng = derive_stream(seed, r);
                let mut provider = ScratchDraws::new(&mut adaptive_scratch, &mut rng);
                adaptive.run_into(queries(), &mut provider, &mut adaptive_out);
                black_box(&adaptive_out);
            });

            let mut multi_scratch = SvtScratch::new();
            let mut multi_out = MultiBranchSvOutput::default();
            let multi = MultiBranchAdaptiveSparseVector::new(k, 0.7, threshold, true, 3)
                .expect("valid parameters");
            bench_streaming_cell(
                &mut records,
                config,
                "MultiBranchAdaptiveSparseVector",
                n,
                k,
                |r| {
                    let mut rng = derive_stream(seed, r);
                    let mut provider = ScratchDraws::new(&mut multi_scratch, &mut rng);
                    multi.run_into(queries(), &mut provider, &mut multi_out);
                    black_box(&multi_out);
                },
            );

            let mut expo_scratch = TopKScratch::new();
            let mut expo_out: Vec<usize> = Vec::new();
            let expo = ExponentialMechanism::new(0.7, true).expect("valid parameters");
            bench_streaming_cell(&mut records, config, "ExponentialMechanism", n, k, |r| {
                let mut rng = derive_stream(seed, r);
                expo.run_top_k_into(
                    queries(),
                    k,
                    &mut RngDraws::new(&mut rng),
                    &mut expo_scratch,
                    &mut expo_out,
                )
                .expect("validated workload");
                black_box(&expo_out);
            });

            let mut stair_scratch = SvtScratch::new();
            let mut stair_out: Vec<f64> = Vec::new();
            let stair = StaircaseMechanism::new(0.7).expect("valid parameters");
            bench_streaming_cell(&mut records, config, "StaircaseMechanism", n, k, |r| {
                let mut rng = derive_stream(seed, r);
                let mut provider = ScratchDraws::new(&mut stair_scratch, &mut rng);
                stair
                    .measure_split_into(queries(), n, &mut provider, &mut stair_out)
                    .expect("validated workload");
                black_box(&stair_out);
            });

            let mut disc_svt_scratch = SvtScratch::new();
            let disc_svt = DiscreteSparseVectorWithGap::new(k, 0.7, int_threshold, true)
                .expect("valid parameters");
            bench_streaming_cell(
                &mut records,
                config,
                "DiscreteSparseVectorWithGap",
                n,
                k,
                |r| {
                    let mut rng = derive_stream(seed, r);
                    let mut provider = ScratchDraws::new(&mut disc_svt_scratch, &mut rng);
                    disc_svt.run_into(
                        int_answers.values().iter().copied(),
                        &mut provider,
                        &mut sv_out,
                    );
                    black_box(&sv_out);
                },
            );
        }
    }
    records
}

/// Returns the `mechanism × path × n × k` cells missing from a
/// `BENCH_mechanisms.json` document, using the exact key-prefix format
/// [`to_json`] writes. Empty means full coverage. The CI bench smoke step
/// fails on any missing cell so a silently dropped path can never ship a
/// stale-looking baseline.
pub fn missing_cells(json: &str) -> Vec<String> {
    let mut missing = Vec::new();
    for (mechanism, paths) in MECHANISM_PATHS {
        for path in paths {
            for n in N_GRID {
                for k in K_GRID {
                    let needle = format!(
                        "\"mechanism\": \"{mechanism}\", \"path\": \"{path}\", \"n\": {n}, \"k\": {k},"
                    );
                    if !json.contains(&needle) {
                        missing.push(format!("{mechanism}/{path} n={n} k={k}"));
                    }
                }
            }
        }
    }
    missing
}

/// One cell parsed back out of a `BENCH_mechanisms.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCell {
    /// Mechanism name.
    pub mechanism: String,
    /// Execution path.
    pub path: String,
    /// Workload size.
    pub n: usize,
    /// Selection parameter.
    pub k: usize,
    /// Recorded throughput.
    pub runs_per_sec: f64,
}

impl ParsedCell {
    /// The human-readable cell key used in reports.
    pub fn key(&self) -> String {
        format!("{}/{} n={} k={}", self.mechanism, self.path, self.n, self.k)
    }
}

/// Parses the result records out of a `BENCH_mechanisms.json` document
/// (the exact one-record-per-line format [`to_json`] writes; no general
/// JSON parser is vendored, and none is needed for our own schema).
pub fn parse_cells(json: &str) -> Result<Vec<ParsedCell>, String> {
    fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
        let tag = format!("\"{key}\": ");
        let start = line
            .find(&tag)
            .ok_or_else(|| format!("record line missing `{key}`: {line}"))?
            + tag.len();
        let rest = &line[start..];
        let end = rest
            .find([',', ' ', '}'])
            .ok_or_else(|| format!("unterminated `{key}` in: {line}"))?;
        Ok(&rest[..end])
    }
    let mut cells = Vec::new();
    for line in json.lines() {
        if !line.contains("\"mechanism\":") {
            continue;
        }
        cells.push(ParsedCell {
            mechanism: field(line, "mechanism")?.trim_matches('"').to_string(),
            path: field(line, "path")?.trim_matches('"').to_string(),
            n: field(line, "n")?
                .parse()
                .map_err(|e| format!("bad n: {e}"))?,
            k: field(line, "k")?
                .parse()
                .map_err(|e| format!("bad k: {e}"))?,
            runs_per_sec: field(line, "runs_per_sec")?
                .parse()
                .map_err(|e| format!("bad runs_per_sec: {e}"))?,
        });
    }
    if cells.is_empty() {
        return Err("no bench records found (not a BENCH_mechanisms.json?)".into());
    }
    Ok(cells)
}

/// Outcome of [`compare_against_baseline`].
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Median per-cell `fresh/baseline` throughput ratio — the machine-speed
    /// normalizer (1.0 when both files come from the same machine under the
    /// same load).
    pub speed_factor: f64,
    /// Number of cells compared.
    pub cells: usize,
    /// Cells whose normalized throughput dropped beyond the tolerance,
    /// formatted as `key: fresh vs baseline (normalized ratio)`.
    pub regressions: Vec<String>,
}

/// Compares a fresh `BENCH_mechanisms.json` against a committed baseline:
/// a cell regresses when its `runs_per_sec` drops more than `tolerance`
/// (fractional, e.g. 0.25) below the baseline **after normalizing out the
/// overall machine-speed difference** (the median per-cell ratio). The
/// normalization is what makes the gate portable: CI runners are not the
/// laptop that wrote the baseline, but a *relative* regression — one cell
/// slowing down while the rest of the grid did not — shows up identically
/// on both. Every baseline cell must be present in the fresh file
/// (`bench-check` guards the converse).
pub fn compare_against_baseline(
    fresh_json: &str,
    baseline_json: &str,
    tolerance: f64,
) -> Result<CompareReport, String> {
    if !(tolerance.is_finite() && (0.0..1.0).contains(&tolerance)) {
        return Err(format!("tolerance must be in [0, 1), got {tolerance}"));
    }
    let fresh = parse_cells(fresh_json)?;
    let baseline = parse_cells(baseline_json)?;
    let mut ratios: Vec<(String, f64, f64, f64)> = Vec::new();
    for base in &baseline {
        let Some(new) = fresh.iter().find(|c| {
            c.mechanism == base.mechanism && c.path == base.path && c.n == base.n && c.k == base.k
        }) else {
            return Err(format!("fresh run is missing baseline cell {}", base.key()));
        };
        if base.runs_per_sec <= 0.0 {
            continue; // degenerate baseline cell carries no signal
        }
        ratios.push((
            base.key(),
            new.runs_per_sec,
            base.runs_per_sec,
            new.runs_per_sec / base.runs_per_sec,
        ));
    }
    if ratios.is_empty() {
        return Err("baseline has no usable cells".into());
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|r| r.3).collect();
    sorted.sort_by(f64::total_cmp);
    let speed_factor = sorted[sorted.len() / 2];
    let regressions = ratios
        .iter()
        .filter(|(_, _, _, ratio)| *ratio < speed_factor * (1.0 - tolerance))
        .map(|(key, new, base, ratio)| {
            format!(
                "{key}: {new:.1} vs baseline {base:.1} runs/sec \
                 (normalized ratio {:.2} < {:.2})",
                ratio / speed_factor,
                1.0 - tolerance
            )
        })
        .collect();
    Ok(CompareReport {
        speed_factor,
        cells: ratios.len(),
        regressions,
    })
}

/// Merges several `BENCH_mechanisms.json` documents into a cell × artifact
/// trend table: one row per `mechanism/path n k` cell, one `runs_per_sec`
/// column per input in argument order — the per-PR bench-history view over
/// CI's uploaded `/tmp/bench.json` artifacts (pass them oldest-commit
/// first). Cells are listed in first-appearance order; a cell missing from
/// an artifact (e.g. a mechanism that did not exist at that commit) shows
/// `-` rather than failing, so histories can span grid changes.
pub fn bench_history(files: &[(String, String)]) -> Result<Table, String> {
    if files.is_empty() {
        return Err("bench-history needs at least one bench JSON file".into());
    }
    let mut parsed: Vec<(&str, Vec<ParsedCell>)> = Vec::with_capacity(files.len());
    for (label, json) in files {
        let cells = parse_cells(json).map_err(|e| format!("{label}: {e}"))?;
        parsed.push((label.as_str(), cells));
    }
    let mut keys: Vec<String> = Vec::new();
    for (_, cells) in &parsed {
        for cell in cells {
            let key = cell.key();
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    let mut columns: Vec<&str> = vec!["cell"];
    columns.extend(parsed.iter().map(|(label, _)| *label));
    let mut table = Table::new(
        "bench history: runs/sec per cell × artifact (argument order)",
        &columns,
    );
    for key in keys {
        let mut row = vec![crate::table::Cell::from(key.clone())];
        for (_, cells) in &parsed {
            match cells.iter().find(|c| c.key() == key) {
                Some(c) => row.push(c.runs_per_sec.into()),
                None => row.push("-".into()),
            }
        }
        table.push_row(row);
    }
    Ok(table)
}

/// Renders the records as a table with one row per `mechanism × n × k` and
/// the paths side by side (speedups relative to `dyn`; the streaming
/// columns show `-` for the Noisy-Top-K mechanisms, which have no
/// streaming path, and the par columns show `-` for the SVT family, whose
/// threshold loop is inherently sequential).
pub fn to_table(records: &[BenchRecord]) -> Table {
    let mut table = Table::new(
        "bench: mechanism throughput (runs/sec; speedup vs dyn path)".to_string(),
        &[
            "mechanism",
            "n",
            "k",
            "dyn_rps",
            "scratch_rps",
            "scratch_speedup",
            "fast_rps",
            "fast_speedup",
            "streaming_rps",
            "streaming_speedup",
            "par_rps",
            "par_speedup",
        ],
    );
    // Group by cell key and look paths up by name — no reliance on record
    // order, and a cell missing any path is skipped rather than misread.
    let mut keys: Vec<(&'static str, usize, usize)> = Vec::new();
    for r in records {
        let key = (r.mechanism, r.n, r.k);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for (mechanism, n, k) in keys {
        let find = |path: &str| {
            records
                .iter()
                .find(|r| r.mechanism == mechanism && r.n == n && r.k == k && r.path == path)
        };
        let (Some(dyn_rec), Some(scratch_rec), Some(fast_rec)) =
            (find("dyn"), find("scratch"), find("scratch_fast"))
        else {
            continue;
        };
        let base = dyn_rec.runs_per_sec();
        let ratio = |r: &BenchRecord| {
            if base > 0.0 {
                r.runs_per_sec() / base
            } else {
                0.0
            }
        };
        let mut row = vec![
            mechanism.into(),
            n.into(),
            k.into(),
            base.into(),
            scratch_rec.runs_per_sec().into(),
            ratio(scratch_rec).into(),
            fast_rec.runs_per_sec().into(),
            ratio(fast_rec).into(),
        ];
        // The Noisy-Top-K mechanisms have no streaming path; leave their
        // cells blank rather than printing a misleading zero.
        match find("streaming") {
            Some(streaming_rec) => {
                row.push(streaming_rec.runs_per_sec().into());
                row.push(ratio(streaming_rec).into());
            }
            None => {
                row.push("-".into());
                row.push("-".into());
            }
        }
        // Likewise the SVT family has no parallel path.
        match find("par") {
            Some(par_rec) => {
                row.push(par_rec.runs_per_sec().into());
                row.push(ratio(par_rec).into());
            }
            None => {
                row.push("-".into());
                row.push("-".into());
            }
        }
        table.push_row(row);
    }
    table
}

/// Serializes the records to the `BENCH_mechanisms.json` schema.
pub fn to_json(seed: u64, records: &[BenchRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 160 + 256);
    out.push_str("{\n  \"schema\": \"free-gap-bench/mechanisms/v1\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"grid\": {{ \"n\": {:?}, \"k\": {:?} }},\n",
        N_GRID, K_GRID
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"mechanism\": \"{}\", \"path\": \"{}\", \"n\": {}, \"k\": {}, \
             \"runs\": {}, \"elapsed_secs\": {:.6}, \"runs_per_sec\": {:.3} }}{}\n",
            r.mechanism,
            r.path,
            r.n,
            r.k,
            r.runs,
            r.elapsed_secs,
            r.runs_per_sec(),
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            seed: 7,
            runs: Some(2),
            budget_secs: 0.01,
        }
    }

    #[test]
    fn grid_covers_every_mechanism_path_cell() {
        let records = run_grid(&tiny_config());
        let cells: usize = MECHANISM_PATHS.iter().map(|(_, paths)| paths.len()).sum();
        assert_eq!(records.len(), cells * N_GRID.len() * K_GRID.len());
        assert!(records.iter().all(|r| r.runs >= 1));
        assert!(records.iter().all(|r| r.elapsed_secs > 0.0));
        // Every (mechanism, path, n, k) cell from the declared table exists
        // exactly once.
        for (mechanism, paths) in MECHANISM_PATHS {
            for path in paths {
                for n in N_GRID {
                    for k in K_GRID {
                        let count = records
                            .iter()
                            .filter(|r| {
                                r.mechanism == mechanism && r.path == *path && r.n == n && r.k == k
                            })
                            .count();
                        assert_eq!(count, 1, "{mechanism}/{path} n={n} k={k}");
                    }
                }
            }
        }
        // The written JSON must therefore pass the coverage check.
        assert!(missing_cells(&to_json(7, &records)).is_empty());
    }

    #[test]
    fn fixed_runs_mode_executes_and_records_exactly_the_target() {
        // Regression: fixed-`runs` mode used to run `ceil(target/3)` per
        // window (overshooting the requested total) while recording only the
        // best window's count (~target/3 in the JSON). The contract is:
        // exactly `target` timed runs, recorded as the cell total.
        for target in [1usize, 2, 3, 5, 7] {
            let config = BenchConfig {
                seed: 1,
                runs: Some(target),
                budget_secs: 10.0, // must be ignored in fixed-runs mode
            };
            let mut timed_runs: Vec<u64> = Vec::new();
            let mut warmups = 0usize;
            let (runs, elapsed) = time_cell(&config, |r| {
                if r == u64::MAX {
                    warmups += 1;
                } else {
                    timed_runs.push(r);
                }
            });
            assert_eq!(runs, target, "recorded runs for target {target}");
            assert_eq!(warmups, 1);
            // Exactly `target` timed executions, with sequential run indices
            // (each run gets a distinct derived RNG stream).
            let expect: Vec<u64> = (0..target as u64).collect();
            assert_eq!(timed_runs, expect, "executed runs for target {target}");
            assert!(elapsed >= 0.0);
        }
    }

    #[test]
    fn missing_cells_flags_absent_paths() {
        let records = run_grid(&tiny_config());
        let full = to_json(7, &records);
        assert!(missing_cells(&full).is_empty());
        // Drop every streaming record: exactly those cells are reported.
        let pruned: Vec<BenchRecord> = records
            .iter()
            .filter(|r| r.path != "streaming")
            .cloned()
            .collect();
        let missing = missing_cells(&to_json(7, &pruned));
        let streaming_mechanisms = MECHANISM_PATHS
            .iter()
            .filter(|(_, paths)| paths.contains(&"streaming"))
            .count();
        assert_eq!(
            missing.len(),
            streaming_mechanisms * N_GRID.len() * K_GRID.len()
        );
        assert!(missing.iter().all(|m| m.contains("/streaming")));
    }

    #[test]
    fn missing_cells_flags_dropped_discrete_cells() {
        // The discrete (finite-precision) mechanisms are first-class grid
        // citizens: a baseline written without them must fail bench-check.
        let records = run_grid(&tiny_config());
        let pruned: Vec<BenchRecord> = records
            .iter()
            .filter(|r| !r.mechanism.starts_with("Discrete"))
            .cloned()
            .collect();
        let missing = missing_cells(&to_json(7, &pruned));
        // 4 Top-K paths (dyn/scratch/scratch_fast/par) + 4 SVT paths
        // (dyn/scratch/scratch_fast/streaming), per n × k cell.
        assert_eq!(missing.len(), 8 * N_GRID.len() * K_GRID.len());
        assert!(missing
            .iter()
            .all(|m| m.starts_with("DiscreteNoisyTopKWithGap")
                || m.starts_with("DiscreteSparseVectorWithGap")));
    }

    #[test]
    fn json_is_well_formed_enough_to_grep() {
        let records = vec![
            BenchRecord {
                mechanism: "NoisyTopKWithGap",
                path: "dyn",
                n: 1000,
                k: 10,
                runs: 5,
                elapsed_secs: 0.5,
            },
            BenchRecord {
                mechanism: "NoisyTopKWithGap",
                path: "scratch",
                n: 1000,
                k: 10,
                runs: 20,
                elapsed_secs: 0.5,
            },
        ];
        let json = to_json(1, &records);
        assert!(json.contains("\"schema\": \"free-gap-bench/mechanisms/v1\""));
        assert!(json.contains("\"runs_per_sec\": 10.000"));
        assert!(json.contains("\"runs_per_sec\": 40.000"));
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn table_reports_speedups_relative_to_dyn() {
        let mk = |path, runs| BenchRecord {
            mechanism: "AdaptiveSparseVector",
            path,
            n: 100,
            k: 5,
            runs,
            elapsed_secs: 1.0,
        };
        let t = to_table(&[mk("dyn", 10), mk("scratch", 25), mk("scratch_fast", 40)]);
        assert_eq!(t.rows.len(), 1);
        let csv = t.to_csv();
        assert!(csv.contains("2.5"), "scratch speedup missing: {csv}");
        assert!(csv.contains('4'), "fast speedup missing: {csv}");
    }

    fn grid_json(rps: impl Fn(&str, &str, usize, usize) -> f64) -> String {
        let mut records = Vec::new();
        for (mechanism, paths) in MECHANISM_PATHS {
            for path in paths {
                for n in N_GRID {
                    for k in K_GRID {
                        let v = rps(mechanism, path, n, k).max(1e-9);
                        records.push(BenchRecord {
                            mechanism,
                            path,
                            n,
                            k,
                            runs: 100,
                            elapsed_secs: 100.0 / v,
                        });
                    }
                }
            }
        }
        to_json(1, &records)
    }

    #[test]
    fn parse_cells_round_trips_to_json() {
        let json = grid_json(|_, _, n, k| (n * k) as f64);
        let cells = parse_cells(&json).unwrap();
        let expected: usize = MECHANISM_PATHS.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(cells.len(), expected * N_GRID.len() * K_GRID.len());
        let c = cells
            .iter()
            .find(|c| {
                c.mechanism == "AdaptiveSparseVector"
                    && c.path == "streaming"
                    && c.n == 1000
                    && c.k == 25
            })
            .unwrap();
        assert!((c.runs_per_sec - 25_000.0).abs() < 0.5);
        assert!(parse_cells("{}").is_err());
    }

    #[test]
    fn compare_accepts_uniform_machine_speed_shift() {
        // A 3× slower machine shifts every cell identically: the median
        // normalizer absorbs it and nothing regresses.
        let baseline = grid_json(|_, _, n, _| 1e6 / n as f64);
        let fresh = grid_json(|_, _, n, _| 1e6 / n as f64 / 3.0);
        let report = compare_against_baseline(&fresh, &baseline, 0.25).unwrap();
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        assert!((report.speed_factor - 1.0 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn compare_flags_a_single_cell_regression() {
        let baseline = grid_json(|_, _, n, _| 1e6 / n as f64);
        let fresh = grid_json(|m, p, n, k| {
            let v = 1e6 / n as f64;
            if m == "AdaptiveSparseVector" && p == "scratch_fast" && n == 100_000 && k == 10 {
                v * 0.5 // 50% drop on one cell
            } else {
                v
            }
        });
        let report = compare_against_baseline(&fresh, &baseline, 0.25).unwrap();
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("AdaptiveSparseVector/scratch_fast n=100000 k=10"));
        // A looser tolerance lets the same drop through.
        let lax = compare_against_baseline(&fresh, &baseline, 0.6).unwrap();
        assert!(lax.regressions.is_empty());
    }

    #[test]
    fn compare_rejects_missing_cells_and_bad_tolerance() {
        let baseline = grid_json(|_, _, _, _| 100.0);
        let fresh_missing: String = baseline
            .lines()
            .filter(|l| !(l.contains("\"streaming\"") && l.contains("\"n\": 100000")))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(compare_against_baseline(&fresh_missing, &baseline, 0.25)
            .unwrap_err()
            .contains("missing baseline cell"));
        assert!(compare_against_baseline(&baseline, &baseline, 1.5).is_err());
        assert!(compare_against_baseline(&baseline, &baseline, -0.1).is_err());
    }

    #[test]
    fn bench_history_builds_a_cell_by_artifact_trend_table() {
        // Two fixture artifacts: the second is uniformly 2× faster.
        let old = grid_json(|_, _, n, _| 1e6 / n as f64);
        let new = grid_json(|_, _, n, _| 2e6 / n as f64);
        let t = bench_history(&[("abc123".to_string(), old), ("def456".to_string(), new)]).unwrap();
        assert_eq!(t.columns, vec!["cell", "abc123", "def456"]);
        let cells: usize = MECHANISM_PATHS.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(t.rows.len(), cells * N_GRID.len() * K_GRID.len());
        // Spot-check one row: key in column 0, throughputs in order.
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == crate::table::Cell::from("ExponentialMechanism/scratch n=1000 k=10"))
            .expect("cell row present");
        assert_eq!(row[1], crate::table::Cell::Float(1000.0));
        assert_eq!(row[2], crate::table::Cell::Float(2000.0));
    }

    #[test]
    fn bench_history_tolerates_grid_changes_and_rejects_garbage() {
        // An artifact predating a mechanism shows `-` for its cells instead
        // of failing the whole history.
        let full = grid_json(|_, _, _, _| 100.0);
        let pruned: String = full
            .lines()
            .filter(|l| !l.contains("ExponentialMechanism"))
            .collect::<Vec<_>>()
            .join("\n");
        let t = bench_history(&[("old".to_string(), pruned), ("new".to_string(), full)]).unwrap();
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == crate::table::Cell::from("ExponentialMechanism/dyn n=1000 k=10"))
            .expect("cell row present");
        assert_eq!(row[1], crate::table::Cell::from("-"));
        assert_eq!(row[2], crate::table::Cell::Float(100.0));
        // Empty input and unparsable files are errors, labeled by file.
        assert!(bench_history(&[]).is_err());
        let err = bench_history(&[("broken.json".to_string(), "{}".to_string())]).unwrap_err();
        assert!(err.contains("broken.json"), "{err}");
    }

    #[test]
    fn runs_per_sec_handles_zero_elapsed() {
        let r = BenchRecord {
            mechanism: "x",
            path: "dyn",
            n: 1,
            k: 1,
            runs: 5,
            elapsed_secs: 0.0,
        };
        assert_eq!(r.runs_per_sec(), 0.0);
    }
}
