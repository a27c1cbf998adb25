//! `free-gap-gate`: the workspace's gated benchmark.
//!
//! ```text
//! free-gap-gate --workload <bulk-select|svt-scan|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run sets up its workload several times (reporting the
//! median set-up time), measures it untraced for `S` seconds, checks its
//! outputs, and reports the end-to-end metrics, all at a reference machine
//! speed (`calib`). With `--trace 1` it
//! measures half the time untraced and half traced, times each layer at
//! the workload's shapes, and reports the per-layer metrics, the explain
//! residual and the tracing overhead. Human-readable lines come first; the
//! last line of standard output is the JSON result object. The run exits
//! nonzero when any output check failed. Each result is also written, with
//! its stamp, under `results/` next to this package's manifest; `compare.py`
//! compares result files.

mod calib;
mod layers;
mod mech_loop;
mod report;
mod serve_mixed;
mod stats;
mod trace;
mod workloads;

use layers::{Micro, Shapes};
use mech_loop::{LoopTrace, MechWorkload};
use report::{Metric, Stamp};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{DrawStats, SpanLog};

const WORKLOADS: [&str; 3] = ["bulk-select", "svt-scan", "serve-mixed"];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Copies of the `bulk-select` / `svt-scan` caller loop an untraced run
/// measures at once, one thread each (fewer on fewer cores), for twice the
/// cells to take the figures over ([`stats::figures`]).
const REPLICAS: usize = 2;

fn replicas() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(REPLICAS)) as u64
}
/// A residual beyond this share of the measured time is reported as a
/// finding: time goes somewhere the layer model does not see.
const RESIDUAL_FINDING_PCT: f64 = 15.0;

const USAGE: &str =
    "usage: free-gap-gate --workload <bulk-select|svt-scan|serve-mixed> --seed N --seconds S --trace 0|1";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    spans: Option<SpanLog>,
}

type Error = Box<dyn std::error::Error>;

/// Calibration passes timed before and after each set-up.
const SETUP_CAL_PASSES: usize = 9;

/// Runs `setup` `reps` times; returns the last state and the median time,
/// each brought to the reference speed by calibration passes timed just
/// before and after it ([`calib`]).
fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, Error>,
) -> Result<(T, f64), Error> {
    let mut kernel = calib::Kernel::new(0);
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        let before = kernel.median_us(SETUP_CAL_PASSES);
        let t = Instant::now();
        state = Some(setup()?);
        let s = t.elapsed().as_secs_f64();
        let after = kernel.median_us(SETUP_CAL_PASSES);
        times.push(s * calib::REF_US * 2.0 / (before + after));
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((state, stats::median(&mut times)))
}

/// The end-to-end metrics of an untraced measurement from `threads`
/// (clients of one server with `clients`, else replicas of one loop).
fn end_to_end(
    threads: &[stats::Windows],
    clients: bool,
    setup_s: f64,
) -> Result<Vec<Metric>, Error> {
    let f = stats::figures(threads, clients);
    let seen: u64 = threads.iter().map(stats::Windows::seen).sum();
    let all = stats::summarize(&mut pooled(threads));
    let p99 = f
        .p99
        .ok_or("too few samples for a p99 with ten beyond it")?;
    let tail = all
        .tail
        .map(|(p, v)| {
            format!(
                "; all windows: highest tail with >=10 beyond is p{} = {v:.3} us",
                p as f64 / 1000.0
            )
        })
        .unwrap_or_default();
    let cells = threads.len() * stats::WINDOWS;
    let median_of = |what: &str, of: usize| format!("median of {of} {what}");
    let mut scales: Vec<f64> = threads.iter().map(stats::Windows::median_scale).collect();
    let speed = format!(
        "; at the reference speed (calibration kernel at {:.3}x it)",
        stats::median(&mut scales)
    );
    let rss = report::peak_rss_mb().ok_or("peak RSS unavailable")?;
    Ok(vec![
        Metric::new("throughput_ops_s", f.rate, "1/s").note(
            if clients {
                median_of("window rates, clients added", stats::WINDOWS)
            } else {
                median_of("thread-window rates", cells)
            } + &speed,
        ),
        Metric::new("latency_p50_us", f.p50, "us").note(format!(
            "{}; all windows: p50 {:.3} us over {} samples of {seen} ops",
            median_of("thread-window medians", f.cells),
            all.p50,
            all.samples
        )),
        Metric::new("latency_p99_us", p99, "us").note(if f.p99_cells > 0 {
            format!(
                "lowest of {} thread-window p99s with >=10 beyond{tail}",
                f.p99_cells
            )
        } else {
            format!("all windows pooled: no window holds ten samples beyond its p99{tail}")
        }),
        Metric::new("setup_s", setup_s, "s").note(format!(
            "median of {SETUP_REPS} set-ups, at the reference speed"
        )),
        Metric::new("peak_rss_mb", rss, "MB"),
    ])
}

/// All threads' kept latency samples, µs.
fn pooled(threads: &[stats::Windows]) -> Vec<f64> {
    threads.iter().flat_map(stats::Windows::pooled).collect()
}

fn mech_setup(workload: &str, seed: u64) -> Result<MechWorkload, Error> {
    Ok(match workload {
        "bulk-select" => mech_loop::setup_bulk()?,
        _ => mech_loop::setup_svt(seed)?,
    })
}

fn run_mech(args: &Args) -> Result<Outcome, Error> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (w, setup_s) = timed_setup(reps, || mech_setup(&args.workload, args.seed))?;
    let seconds = args.seconds as f64;
    if !args.trace {
        let res = mech_loop::run_replicas(&w, args.seed, seconds, replicas());
        let failed = res.failed + mech_loop::check_samples(&w, args.seed, &res.samples);
        let metrics = end_to_end(&res.windows, false, setup_s)?;
        return Ok(Outcome {
            attempted: res.ops,
            failed,
            metrics,
            spans: None,
        });
    }
    let timer_ns = trace::timer_overhead_ns();
    let plain = mech_loop::run_loop(&w, args.seed, seconds / 2.0, None);
    let mut tr = LoopTrace::new(w.grid.len(), Instant::now());
    let traced = mech_loop::run_loop(&w, args.seed, seconds / 2.0, Some(&mut tr));
    let failed = plain.failed
        + traced.failed
        + mech_loop::check_samples(&w, args.seed, &plain.samples)
        + mech_loop::check_samples(&w, args.seed, &traced.samples);
    let mut total = DrawStats::default();
    for s in &tr.per_mech {
        total.merge(s);
    }
    let runs = total.runs.max(1) as f64;
    let n = w.values().len();
    let scan_len = if total.sv_scanned > 0 {
        (total.sv_scanned as f64 / runs) as usize
    } else {
        n
    };
    let micro = layers::measure(
        Shapes {
            fill_len: n,
            scan_len,
            feed_len: workloads::FEED_LEN,
        },
        w.values(),
        args.seed,
    )?;
    let mut probes = DrawStats::default();
    let mut mechs: Vec<(&'static str, DrawStats, &'static str)> = Vec::new();
    for (mech, s) in w.grid.iter().zip(&tr.per_mech) {
        mechs.push((
            free_gap_core::api::Mechanism::name(mech),
            s.clone(),
            "traced loop",
        ));
    }
    for mech in &w.others {
        let s = layers::probe(mech, w.values(), args.seed, 8, Duration::from_millis(60))?;
        probes.merge(&s);
        mechs.push((
            free_gap_core::api::Mechanism::name(mech),
            s,
            "probe at this shape",
        ));
    }
    mechs.sort_by_key(|(name, ..)| workloads::MECHANISMS.iter().position(|n| n == name));
    let measured_ns = plain.elapsed_s * 1e9 / plain.ops.max(1) as f64;
    let predicted_ns: f64 = w
        .grid
        .iter()
        .zip(&tr.per_mech)
        .map(|(m, s)| layers::predict_ns(m, s, &micro))
        .sum::<f64>()
        / runs;
    let server_self_us = layers::server_self_us(&w.grid, w.values(), args.seed, &micro)?;
    let layer = LayerInputs {
        micro: &micro,
        timer_ns,
        workload: &total,
        workload_runs: runs,
        fallback: &probes,
        mechs: &mechs,
        serve: None,
        server_self_us,
        residual_pct: 100.0 * (measured_ns - predicted_ns) / measured_ns,
        overhead_pct: overhead_pct(rate(&plain.windows, false), rate(&traced.windows, false)),
    };
    println!(
        "explain.{}: measured {:.2} us/op, layers predict {:.2} us/op",
        args.workload,
        measured_ns / 1e3,
        predicted_ns / 1e3
    );
    Ok(Outcome {
        attempted: plain.ops + traced.ops,
        failed,
        metrics: per_layer(&layer),
        spans: Some(tr.spans),
    })
}

fn rate(threads: &[stats::Windows], clients: bool) -> f64 {
    stats::figures(threads, clients).rate
}

fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    100.0 * (untraced / traced - 1.0)
}

fn run_serve(args: &Args) -> Result<Outcome, Error> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut st, setup_s) = timed_setup(reps, || Ok(serve_mixed::setup(args.seed)?))?;
    let seconds = args.seconds as f64;
    if !args.trace {
        let res = serve_mixed::run_loop(&mut st, seconds, false);
        let failed = st.failed + res.failed + serve_mixed::check_replay(&st)?;
        let metrics = end_to_end(&res.windows, true, setup_s)?;
        return Ok(Outcome {
            attempted: res.ops,
            failed,
            metrics,
            spans: None,
        });
    }
    let timer_ns = trace::timer_overhead_ns();
    let plain = serve_mixed::run_loop(&mut st, seconds / 2.0, false);
    let traced = serve_mixed::run_loop(&mut st, seconds / 2.0, true);
    let failed = st.failed + plain.failed + traced.failed + serve_mixed::check_replay(&st)?;
    let counts = traced.counts.clone().ok_or("traced loop kept no counts")?;
    let values = st.script.counts.clone();
    let micro = layers::measure(
        Shapes {
            fill_len: values.len(),
            scan_len: workloads::CALL_LEN,
            feed_len: workloads::FEED_LEN,
        },
        &values,
        args.seed,
    )?;
    // The script's two call shapes: a 64-query window, and a wide call at
    // the traced mean width.
    let mid = (values.len() - workloads::CALL_LEN) / 2;
    let wide_calls: u64 = counts.calls.iter().map(|c| c[1]).sum();
    let wide_len = (counts.wide_queries / wide_calls.max(1)) as usize;
    let wide_len = wide_len.clamp(workloads::CALL_LEN, values.len());
    let shapes: [&[f64]; 2] = [&values[mid..mid + workloads::CALL_LEN], &values[..wide_len]];
    let mut mechs = Vec::new();
    let mut weighted = DrawStats::default();
    let (mut calls_total, mut predicted_calls_ns) = (0.0, 0.0);
    for (g, mech) in st.script.grid.iter().enumerate() {
        let mut per_mech = DrawStats::default();
        for (wide, queries) in shapes.iter().enumerate() {
            let w = counts.calls[g][wide];
            let probe = layers::probe(mech, queries, args.seed, 20, Duration::from_millis(30))?;
            predicted_calls_ns += w as f64 * layers::call_ns(mech, queries, args.seed);
            calls_total += w as f64;
            per_mech.merge(&probe.scaled(w));
        }
        weighted.merge(&per_mech);
        mechs.push((
            free_gap_core::api::Mechanism::name(mech),
            per_mech,
            "probe at the script's shapes, weighted by the traced call mix",
        ));
    }
    // Per-request prediction from layer costs and the traced counts.
    let total = counts.total() as f64;
    let [_, opens, _, closes] = counts.requests;
    let open_ns = layers::time_ns(1, || {
        std::hint::black_box(free_gap_serve::SvtSession::open(
            free_gap_core::sparse_vector::SparseVectorWithGap::new(3, 0.5, 1e9, true)
                .expect("valid session parameters"),
            free_gap_noise::rng::derive_fast_stream(args.seed, 3),
            0,
        ));
    });
    let m = &micro;
    let predicted_ns = (predicted_calls_ns
        + calls_total * (m.ledger_try_debit_ns + m.derive_fast_stream_ns)
        + counts.budget_rejects as f64 * m.ledger_try_debit_ns
        + opens as f64 * (m.ledger_try_debit_ns + m.derive_fast_stream_ns + open_ns)
        + counts.feed_queries as f64 * m.feed_ns_per_query
        + closes as f64 * m.ledger_try_debit_ns)
        / total;
    let pooled = pooled(&plain.windows);
    let measured_ns = pooled.iter().sum::<f64>() * 1e3 / pooled.len().max(1) as f64;
    println!(
        "explain.{}: measured {:.3} us/request, layers predict {:.3} us/request",
        args.workload,
        measured_ns / 1e3,
        predicted_ns / 1e3
    );
    let weighted_runs = calls_total.max(1.0);
    let layer = LayerInputs {
        micro: &micro,
        timer_ns,
        workload: &weighted,
        workload_runs: weighted_runs,
        fallback: &weighted,
        mechs: &mechs,
        serve: Some((&counts, traced.evictions)),
        server_self_us: (measured_ns - predicted_ns) / 1e3,
        residual_pct: 100.0 * (measured_ns - predicted_ns) / measured_ns,
        overhead_pct: overhead_pct(rate(&plain.windows, true), rate(&traced.windows, true)),
    };
    Ok(Outcome {
        attempted: plain.ops + traced.ops,
        failed,
        metrics: per_layer(&layer),
        spans: traced.spans,
    })
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    micro: &'a Micro,
    timer_ns: f64,
    /// Provider counts of the workload's own mechanism runs.
    workload: &'a DrawStats,
    workload_runs: f64,
    /// Where fill and selection costs come from when the workload itself
    /// never fills or selects (the probe of the other mechanisms).
    fallback: &'a DrawStats,
    /// `(name, stats, source)` of all ten grid mechanisms.
    mechs: &'a [(&'static str, DrawStats, &'static str)],
    serve: Option<(&'a serve_mixed::ServeCounts, u64)>,
    server_self_us: f64,
    residual_pct: f64,
    overhead_pct: f64,
}

fn per_layer(l: &LayerInputs<'_>) -> Vec<Metric> {
    let m = l.micro;
    let w = l.workload;
    let per_run = |v: u64| v as f64 / l.workload_runs;
    let net = |ns: u64, calls: u64| (ns as f64 - calls as f64 * l.timer_ns).max(0.0);
    let (fill, fill_src) = if w.fill_calls > 0 {
        (w, "workload")
    } else {
        (l.fallback, "probe")
    };
    let (select, select_src) = if w.select_calls > 0 {
        (w, "workload")
    } else {
        (l.fallback, "probe")
    };
    let mut out = vec![
        Metric::new("noise.rng.fast_ns_per_u64", m.fast_ns_per_u64, "ns"),
        Metric::new("noise.transform.laplace_ns", m.laplace_ns, "ns"),
        Metric::new("noise.transform.gumbel_ns", m.gumbel_ns, "ns"),
        Metric::new("noise.transform.exponential_ns", m.exponential_ns, "ns"),
        Metric::new(
            "noise.transform.discrete_laplace_ns",
            m.discrete_laplace_ns,
            "ns",
        ),
        Metric::new("noise.transform.staircase_ns", m.staircase_ns, "ns"),
        Metric::new(
            "core.draw.fill_us_per_run",
            net(fill.fill_ns, fill.fill_calls) / fill.fill_calls.max(1) as f64 / 1e3,
            "us",
        )
        .note(fill_src),
        Metric::new("noise.block.next_ns", m.block_next_ns, "ns"),
        Metric::new("noise.block.peek_pair_ns", m.block_peek_pair_ns, "ns"),
        Metric::new(
            "noise.block.served_per_pulled",
            w.uniforms_needed as f64 / w.uniforms_pulled.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.draw.draws_per_run", per_run(w.draws), "count"),
        Metric::new(
            "core.draw.uniforms_per_run",
            per_run(w.uniforms_pulled),
            "count",
        ),
        Metric::new(
            "core.draw.scalar_calls_per_run",
            per_run(w.scalar_calls),
            "count",
        ),
        Metric::new(
            "core.sparse_vector.queries_scanned_per_run",
            per_run(w.sv_scanned),
            "count",
        ),
        Metric::new(
            "core.sparse_vector.answers_per_run",
            per_run(w.sv_answers),
            "count",
        ),
        Metric::new(
            "core.noisy_max.select_us_per_run",
            net(select.select_ns, select.select_calls) / select.select_calls.max(1) as f64 / 1e3,
            "us",
        )
        .note(select_src),
        Metric::new(
            "core.noisy_max.select_ns_per_query",
            net(select.select_ns, select.select_calls) / select.select_values.max(1) as f64,
            "ns",
        )
        .note(select_src),
    ];
    for (name, s, src) in l.mechs {
        out.push(
            Metric::new(format!("core.mech.{name}.us_per_run"), s.us_per_run(), "us").note(*src),
        );
        out.push(
            Metric::new(
                format!("core.mech.{name}.self_us_per_run"),
                s.self_us_per_run(l.timer_ns),
                "us",
            )
            .note(*src),
        );
    }
    let (counts, evictions) = match l.serve {
        Some((c, e)) => (c.clone(), e),
        None => (serve_mixed::ServeCounts::default(), 0),
    };
    out.extend([
        Metric::new(
            "noise.rng.derive_fast_stream_ns",
            m.derive_fast_stream_ns,
            "ns",
        ),
        Metric::new("core.api.dispatch_ns", m.dispatch_ns, "ns"),
        Metric::new("core.budget.try_debit_ns", m.budget_try_debit_ns, "ns"),
        Metric::new("serve.ledger.try_debit_ns", m.ledger_try_debit_ns, "ns"),
        Metric::new(
            "serve.ledger.try_debit_ns_contended",
            m.ledger_try_debit_ns_contended,
            "ns",
        )
        .note("2 threads on one ledger"),
        Metric::new(
            "serve.ledger.budget_rejects",
            counts.budget_rejects as f64,
            "count",
        ),
        Metric::new(
            "serve.ledger.releases",
            (counts.releases + evictions) as f64,
            "count",
        )
        .note("closes and evictions that return budget"),
        Metric::new("serve.session.feed_ns_per_query", m.feed_ns_per_query, "ns"),
    ]);
    for (i, kind) in serve_mixed::KINDS.iter().enumerate() {
        out.push(Metric::new(
            format!("serve.server.requests.{kind}"),
            counts.requests[i] as f64,
            "count",
        ));
    }
    out.extend([
        Metric::new("serve.server.evictions", evictions as f64, "count"),
        Metric::new("serve.server.self_us_per_request", l.server_self_us, "us").note(
            if l.serve.is_some() {
                "handle time minus predicted layer time"
            } else {
                "one-tenant server probe at this shape"
            },
        ),
        Metric::new(
            "noise.par.fill_ns_per_value_t1",
            m.par_fill_ns_per_value_t1,
            "ns",
        ),
        Metric::new(
            "noise.par.fill_ns_per_value_t2",
            m.par_fill_ns_per_value_t2,
            "ns",
        ),
        Metric::new("explain.residual_pct", l.residual_pct, "%").note(
            if l.residual_pct.abs() > RESIDUAL_FINDING_PCT {
                "FINDING: residual above 15%"
            } else {
                "within 15%"
            },
        ),
        Metric::new("trace.overhead_pct", l.overhead_pct, "%"),
    ]);
    out
}

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp::current();
    println!(
        "# free-gap-gate workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# stamp {}", stamp.to_json());
    let outcome = if args.workload == "serve-mixed" {
        run_serve(&args)
    } else {
        run_mech(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::from(1);
        }
    };
    let failed = outcome.failed.min(outcome.attempted);
    let correct = failed == 0;
    for m in &outcome.metrics {
        let name = match m.name.split_once('.') {
            Some((head @ ("explain" | "trace"), rest)) => {
                format!("{head}.{}.{rest}", args.workload)
            }
            _ => m.name.clone(),
        };
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{name} = {:.4} {}{note}", m.value, m.unit);
    }
    println!(
        "failed_ratio = {} ratio  ({failed} failed of {} attempted)",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    let line = report::result_line(correct, outcome.attempted, failed, &outcome.metrics);
    let dir = results_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            report::result_file(&args, &stamp, &line),
        )?;
        if let Some(spans) = &outcome.spans {
            std::fs::write(dir.join(format!("{stem}-spans.jsonl")), spans.to_jsonl())?;
            println!(
                "spans: {} written, {} past the cap only aggregated",
                spans.spans.len(),
                spans.dropped
            );
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write results to {}: {e}", dir.display());
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload svt-scan --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "svt-scan".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload svt-scan --seed 1 --seconds 0 --trace 0",
            "--workload svt-scan --seed 1 --seconds 1 --trace 2",
            "--workload svt-scan --seconds 1 --trace 0",
            "--workload svt-scan --seed x --seconds 1 --trace 0",
            "--workload svt-scan --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_workload_reports_the_same_per_layer_names() {
        let micro = Micro::default();
        let s = DrawStats::default();
        let mechs = vec![("X", s.clone(), "probe")];
        let counts = serve_mixed::ServeCounts::default();
        let mk = |serve| {
            per_layer(&LayerInputs {
                micro: &micro,
                timer_ns: 0.0,
                workload: &s,
                workload_runs: 1.0,
                fallback: &s,
                mechs: &mechs,
                serve,
                server_self_us: 1.0,
                residual_pct: 1.0,
                overhead_pct: 1.0,
            })
            .into_iter()
            .map(|m| m.name)
            .collect::<Vec<_>>()
        };
        assert_eq!(mk(None), mk(Some((&counts, 0))));
    }
}
