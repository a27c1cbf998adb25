//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <command> [options]
//!
//! Commands:
//!   datasets           §7.1 dataset table
//!   fig1a | fig1b      Fig. 1: % MSE improvement vs k (BMS-POS)
//!   fig2a | fig2b      Fig. 2: % MSE improvement vs ε (kosarak, k = 10)
//!   fig3               Fig. 3: answers + precision/F-measure (per dataset)
//!   fig4               Fig. 4: % remaining budget (all datasets)
//!   ablation-theta     θ sweep for Adaptive-SVT
//!   ablation-sigma     σ-multiplier sweep for Adaptive-SVT
//!   ablation-split     selection/measurement budget-split sweep
//!   ablation-branches  branch-count sweep for multi-branch Adaptive-SVT
//!   all                every experiment above, paper defaults
//!   serve-bench        multi-tenant serving-layer load generator →
//!                      BENCH_serve.json: p50/p95/p99 request latency,
//!                      budget-rejection counts, idle-session evictions and
//!                      the bit-reproducibility digest (fixed seed → same
//!                      digest for any worker count)
//!   lint               free-gap-lint: the eight static invariants
//!                      (stream-discipline, endpoint-guard, panic-freedom,
//!                      taxonomy, budget-balance, lock-discipline,
//!                      par-purity, float-totality) over
//!                      crates/{core,noise,serve,attack,bench}; exits
//!                      nonzero on any unallowed finding
//!   attack             adversarial privacy audit: attack every correct SVT
//!                      mechanism and every broken zoo variant, print the
//!                      claimed-ε vs empirical-ε-lower-bound board, and exit
//!                      nonzero if any correct mechanism is flagged or any
//!                      broken variant escapes detection
//!
//! Options:
//!   --runs N           Monte-Carlo runs per point (default: per experiment)
//!   --scale F          dataset record-count fraction in (0, 1] (default 1.0)
//!   --seed N           root RNG seed (default 20190412)
//!   --eps F            total privacy budget ε (default 0.7)
//!   --dataset NAME     bms-pos | kosarak | t40 (fig3/ablations; default bms-pos)
//!   --csv              emit CSV instead of aligned tables
//!   --json PATH        `serve-bench`: where the report goes (default
//!                      BENCH_serve.json); `lint`: write the
//!                      machine-readable finding report (schema
//!                      free-gap-lint/1, includes allow-suppressed
//!                      findings) before the pass/fail verdict
//!   --trials N         `attack`: estimate-phase Monte-Carlo trials per side
//!                      (search phase scales along; default 300000)
//!   --significance F   `attack`: significance α of the reported
//!                      Clopper–Pearson lower bounds, in (0, 0.5) (default
//!                      0.01, or 0.05 with --quick)
//!   --quick            `attack`: budgeted CI smoke configuration (fewer
//!                      trials, α = 0.05, same verdicts on the suite);
//!                      `serve-bench`: 4 tenants × 300 requests instead of
//!                      8 × 2000
//!   --tenants N        `serve-bench`: number of registered tenants
//!   --duration F       `serve-bench`: wall-clock cap in seconds; the run
//!                      stops issuing requests when it elapses and the
//!                      report is marked truncated
//!   --qps F            `serve-bench`: aggregate request-rate target the
//!                      workers pace themselves to (default: unpaced
//!                      closed loop)
//!   --par-threshold N  `serve-bench`: serve one-shot calls with at least
//!                      N queries through the intra-run parallel noise
//!                      path (default: off; changes the noise stream, so
//!                      digests are only comparable at the same setting)
//!   --rule NAME        `lint`: check a single rule (stream-discipline |
//!                      endpoint-guard | panic-freedom | taxonomy |
//!                      budget-balance | lock-discipline | par-purity |
//!                      float-totality)
//!   --fixtures         `lint`: run the power-check corpus instead of the
//!                      real tree — every known-bad fixture must be flagged
//!                      and every fixed twin must stay clean
//! ```
//!
//! The paper averages 10,000 runs per point; defaults here are chosen so the
//! full suite finishes in minutes on a laptop while the shapes are stable.
//! Pass `--runs 10000` for the full protocol.

use free_gap_bench::experiments::fig1::Panel;
use free_gap_bench::experiments::{self, epsilon_grid, k_grid};
use free_gap_bench::table::{Cell, Table};
use free_gap_bench::workloads::parse_dataset;
use free_gap_bench::ExperimentConfig;
use free_gap_data::Dataset;
use std::process::ExitCode;

#[derive(Debug)]
struct CliOptions {
    command: String,
    runs: Option<usize>,
    scale: f64,
    seed: u64,
    epsilon: f64,
    dataset: Dataset,
    csv: bool,
    /// `serve-bench`/`lint`: where the JSON report goes (`--json`).
    json: Option<String>,
    /// `attack`: estimate-phase trials per side (`--trials`).
    attack_trials: Option<usize>,
    /// `attack`: significance α of the reported bounds (`--significance`).
    significance: Option<f64>,
    /// `attack`: budgeted CI smoke configuration (`--quick`).
    quick: bool,
    /// `serve-bench`: tenant count (`--tenants`).
    tenants: Option<usize>,
    /// `serve-bench`: wall-clock cap in seconds (`--duration`).
    duration: Option<f64>,
    /// `serve-bench`: aggregate request-rate target (`--qps`).
    qps: Option<f64>,
    /// `serve-bench`: parallel-path opt-in query-count threshold
    /// (`--par-threshold`).
    par_threshold: Option<usize>,
    /// `lint`: restrict to a single named rule (`--rule`).
    lint_rule: Option<String>,
    /// `lint`: run the fixture power checks instead of the tree (`--fixtures`).
    fixtures: bool,
    /// Which workload-shaping options were passed explicitly (the commands
    /// with fixed workloads reject them).
    workload_flags: Vec<&'static str>,
}

/// Every command `repro` runs; anything else is a usage error.
const COMMANDS: [&str; 15] = [
    "datasets",
    "fig1a",
    "fig1b",
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "ablation-theta",
    "ablation-sigma",
    "ablation-split",
    "ablation-branches",
    "all",
    "serve-bench",
    "lint",
    "attack",
];

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let command = args.first().ok_or("missing command (try `repro all`)")?;
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command `{command}` (try `repro all`)"));
    }
    let mut opts = CliOptions {
        command: command.clone(),
        runs: None,
        scale: 1.0,
        seed: 20190412,
        epsilon: 0.7,
        dataset: Dataset::BmsPos,
        csv: false,
        json: None,
        attack_trials: None,
        significance: None,
        quick: false,
        tenants: None,
        duration: None,
        qps: None,
        par_threshold: None,
        lint_rule: None,
        fixtures: false,
        workload_flags: Vec::new(),
    };
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or(format!("{name} expects a value"))
        };
        match flag {
            "--runs" => {
                let runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
                opts.runs = Some(runs);
            }
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                opts.workload_flags.push("--scale");
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--eps" => {
                opts.epsilon = value("--eps")?.parse().map_err(|e| format!("--eps: {e}"))?;
                opts.workload_flags.push("--eps");
            }
            "--dataset" => {
                let name = value("--dataset")?;
                opts.dataset = parse_dataset(&name).ok_or(format!("unknown dataset `{name}`"))?;
                opts.workload_flags.push("--dataset");
            }
            "--csv" => opts.csv = true,
            "--json" => opts.json = Some(value("--json")?),
            "--trials" => {
                let trials: usize = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
                if trials == 0 {
                    return Err("--trials must be at least 1".into());
                }
                opts.attack_trials = Some(trials);
            }
            "--significance" => {
                let alpha: f64 = value("--significance")?
                    .parse()
                    .map_err(|e| format!("--significance: {e}"))?;
                if !(alpha.is_finite() && alpha > 0.0 && alpha < 0.5) {
                    return Err("--significance must be in (0, 0.5)".into());
                }
                opts.significance = Some(alpha);
            }
            "--quick" => opts.quick = true,
            "--tenants" => {
                let tenants: usize = value("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
                if tenants == 0 {
                    return Err("--tenants must be at least 1".into());
                }
                opts.tenants = Some(tenants);
            }
            "--duration" => {
                let duration: f64 = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?;
                if !(duration.is_finite() && duration > 0.0) {
                    return Err("--duration must be positive".into());
                }
                opts.duration = Some(duration);
            }
            "--qps" => {
                let qps: f64 = value("--qps")?.parse().map_err(|e| format!("--qps: {e}"))?;
                if !(qps.is_finite() && qps > 0.0) {
                    return Err("--qps must be positive".into());
                }
                opts.qps = Some(qps);
            }
            "--par-threshold" => {
                // 0 is meaningful (every call takes the parallel path), so
                // only a non-numeric value is rejected.
                let threshold: usize = value("--par-threshold")?
                    .parse()
                    .map_err(|e| format!("--par-threshold: {e}"))?;
                opts.par_threshold = Some(threshold);
            }
            "--rule" => opts.lint_rule = Some(value("--rule")?),
            "--fixtures" => opts.fixtures = true,
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if !(opts.scale > 0.0 && opts.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(opts)
}

fn config(opts: &CliOptions, default_runs: usize) -> ExperimentConfig {
    ExperimentConfig {
        runs: opts.runs.unwrap_or(default_runs),
        scale: opts.scale,
        seed: opts.seed,
        epsilon: opts.epsilon,
    }
}

fn emit(table: &Table, csv: bool) {
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.to_aligned());
    }
}

// The `all` arm builds its table list with sequential pushes: the experiment
// sequence reads better that way than as one giant vec![] literal.
#[allow(clippy::vec_init_then_push)]
fn run_command(opts: &CliOptions) -> Result<Vec<Table>, String> {
    // Reject flags that the selected command would silently ignore — a user
    // who names a file or knob must not get a success report for something
    // else (same policy as the workload-flag rejections below).
    if opts.attack_trials.is_some() && opts.command != "attack" {
        return Err(format!(
            "--trials only applies to `attack`, not `{}`",
            opts.command
        ));
    }
    if opts.significance.is_some() && opts.command != "attack" {
        return Err(format!(
            "--significance only applies to `attack`, not `{}`",
            opts.command
        ));
    }
    if opts.quick && opts.command != "attack" && opts.command != "serve-bench" {
        return Err(format!(
            "--quick only applies to `attack` and `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.tenants.is_some() && opts.command != "serve-bench" {
        return Err(format!(
            "--tenants only applies to `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.duration.is_some() && opts.command != "serve-bench" {
        return Err(format!(
            "--duration only applies to `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.qps.is_some() && opts.command != "serve-bench" {
        return Err(format!(
            "--qps only applies to `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.par_threshold.is_some() && opts.command != "serve-bench" {
        return Err(format!(
            "--par-threshold only applies to `serve-bench`, not `{}`",
            opts.command
        ));
    }
    if opts.lint_rule.is_some() && opts.command != "lint" {
        return Err(format!(
            "--rule only applies to `lint`, not `{}`",
            opts.command
        ));
    }
    if opts.fixtures && opts.command != "lint" {
        return Err(format!(
            "--fixtures only applies to `lint`, not `{}`",
            opts.command
        ));
    }
    if opts.json.is_some() && !matches!(opts.command.as_str(), "serve-bench" | "lint") {
        return Err(format!(
            "--json only applies to `serve-bench` and `lint`, not `{}`",
            opts.command
        ));
    }
    let tables = match opts.command.as_str() {
        "serve-bench" => {
            // The serving benchmark scripts its own tenants/workload;
            // reject options it would silently ignore.
            if let Some(flag) = opts.workload_flags.first() {
                return Err(format!(
                    "`serve-bench` scripts a fixed per-tenant workload; {flag} is not supported (only --tenants, --duration, --qps, --par-threshold, --quick, --seed, --csv, --json apply)"
                ));
            }
            if opts.runs.is_some() {
                return Err(
                    "`serve-bench` sizes its load with --tenants/--duration, not --runs"
                        .to_string(),
                );
            }
            let mut cfg = if opts.quick {
                free_gap_serve::ServeBenchConfig::quick(opts.seed)
            } else {
                free_gap_serve::ServeBenchConfig::full(opts.seed)
            };
            if let Some(tenants) = opts.tenants {
                cfg.tenants = tenants;
            }
            cfg.duration_cap_secs = opts.duration;
            cfg.qps = opts.qps;
            cfg.par_threshold = opts.par_threshold;
            let report =
                free_gap_serve::bench::run(&cfg).map_err(|e| format!("serve-bench: {e}"))?;
            let json_path = opts.json.as_deref().unwrap_or("BENCH_serve.json");
            std::fs::write(json_path, free_gap_serve::bench::to_json(&cfg, &report))
                .map_err(|e| format!("writing {json_path}: {e}"))?;
            eprintln!("wrote {json_path}");
            let mut table = Table::new(
                format!(
                    "serve-bench: {} tenants × {} requests over {} workers (ε = {:.1}/tenant, digest {:#018x}{})",
                    cfg.tenants,
                    cfg.requests_per_tenant,
                    cfg.workers,
                    cfg.epsilon_per_tenant,
                    report.digest,
                    if report.truncated { ", TRUNCATED" } else { "" },
                ),
                &[
                    "completed",
                    "rejected",
                    "budget_rejected",
                    "evictions",
                    "p50_us",
                    "p95_us",
                    "p99_us",
                    "req/s",
                ],
            );
            table.push_row(vec![
                Cell::Int(report.completed as i64),
                Cell::Int(report.rejected as i64),
                Cell::Int(report.budget_rejected as i64),
                Cell::Int(report.evictions as i64),
                report.p50_us.into(),
                report.p95_us.into(),
                report.p99_us.into(),
                report.requests_per_sec.into(),
            ]);
            vec![table]
        }
        "attack" => {
            // The suite is a self-contained audit over fixed synthetic
            // workloads; reject options it would silently ignore.
            if let Some(flag) = opts.workload_flags.first() {
                return Err(format!(
                    "`attack` audits fixed adversarial workloads; {flag} is not supported (only --trials, --significance, --quick, --seed, --csv apply)"
                ));
            }
            if opts.runs.is_some() {
                return Err(
                    "`attack` sizes its Monte-Carlo phases with --trials, not --runs".to_string(),
                );
            }
            let mut cfg = if opts.quick {
                free_gap_attack::AttackConfig::quick(opts.seed)
            } else {
                free_gap_attack::AttackConfig::full(opts.seed)
            };
            if let Some(trials) = opts.attack_trials {
                cfg.estimate_trials = trials;
                // Keep the dp-sniper phase split: the search phase explores
                // every (pair, classifier) cell at ~1/8 of the estimate
                // budget the chosen cell then gets.
                cfg.search_trials = (trials / 8).max(1_000);
            }
            if let Some(alpha) = opts.significance {
                cfg.alpha = alpha;
            }
            let report = free_gap_attack::run_suite(&cfg);
            let mut table = Table::new(
                format!(
                    "Adversarial privacy audit (α = {}, {} estimate trials/side)",
                    cfg.alpha, cfg.estimate_trials
                ),
                &[
                    "target",
                    "claimed ε",
                    "ε̂ ≥",
                    "expected",
                    "verdict",
                    "pair",
                    "classifier",
                    "hits D",
                    "hits D'",
                ],
            );
            for row in &report.rows {
                let r = &row.result;
                table.push_row(vec![
                    r.name.into(),
                    r.claimed_epsilon.into(),
                    r.epsilon_lower_bound.into(),
                    if row.expect_broken {
                        "broken"
                    } else {
                        "correct"
                    }
                    .into(),
                    match (r.flagged, row.verdict_ok()) {
                        (true, true) => "FLAGGED ✓",
                        (false, true) => "pass ✓",
                        (true, false) => "FLAGGED ✗ (false positive)",
                        (false, false) => "escaped ✗",
                    }
                    .into(),
                    r.pair.into(),
                    r.classifier.into(),
                    Cell::Int(r.counts.0 as i64),
                    Cell::Int(r.counts.1 as i64),
                ]);
            }
            emit(&table, opts.csv);
            let false_flags: Vec<&str> = report.false_flags().map(|r| r.result.name).collect();
            let escapes: Vec<&str> = report.escapes().map(|r| r.result.name).collect();
            if !false_flags.is_empty() || !escapes.is_empty() {
                return Err(format!(
                    "attack suite failed: {} correct mechanism(s) falsely flagged [{}], {} broken variant(s) escaped [{}]",
                    false_flags.len(),
                    false_flags.join(", "),
                    escapes.len(),
                    escapes.join(", ")
                ));
            }
            eprintln!(
                "all {} verdicts correct: every zoo variant flagged, every correct mechanism passed",
                report.rows.len()
            );
            Vec::new()
        }
        "lint" => {
            // Static analysis over the checkout: no workload, no RNG.
            if let Some(flag) = opts.workload_flags.first() {
                return Err(format!(
                    "`lint` is a static check; {flag} is not supported (only --rule, --fixtures, --json apply)"
                ));
            }
            if opts.runs.is_some() {
                return Err("`lint` is a static check; --runs does not apply".to_string());
            }
            if opts.fixtures && opts.json.is_some() {
                return Err(
                    "--json reports tree findings; it does not apply to `lint --fixtures`"
                        .to_string(),
                );
            }
            let rules: Vec<free_gap_lint::Rule> = match &opts.lint_rule {
                Some(name) => vec![free_gap_lint::Rule::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown rule `{name}` (expected one of: {})",
                        free_gap_lint::Rule::ALL
                            .map(free_gap_lint::Rule::name)
                            .join(", ")
                    )
                })?],
                None => free_gap_lint::Rule::ALL.to_vec(),
            };
            if opts.fixtures {
                // Power mode: the corpus of historical bugs must still fire
                // its rule, and each fixed twin must still lint clean.
                let rows =
                    free_gap_lint::power_check().map_err(|e| format!("reading fixtures: {e}"))?;
                let rows: Vec<_> = rows
                    .into_iter()
                    .filter(|r| rules.contains(&r.fixture.rule))
                    .collect();
                let mut failed = 0usize;
                for row in &rows {
                    let expect = if row.fixture.expect_flagged {
                        "must flag"
                    } else {
                        "must pass"
                    };
                    let got = if row.ok { "ok" } else { "POWER FAILURE" };
                    eprintln!(
                        "  [{}] {:<24} {:>9} … {} ({} finding(s))",
                        row.fixture.rule,
                        row.fixture.path,
                        expect,
                        got,
                        row.diagnostics.len()
                    );
                    if !row.ok {
                        failed += 1;
                        for d in &row.diagnostics {
                            eprintln!("      {d}");
                        }
                    }
                }
                if failed > 0 {
                    return Err(format!(
                        "{failed} of {} fixture power check(s) failed: a rule lost the ability to catch (or over-fires on) its historical bug",
                        rows.len()
                    ));
                }
                eprintln!("all {} fixture power checks passed", rows.len());
            } else {
                let layout = free_gap_lint::TreeLayout::at(std::path::Path::new("."));
                layout.validate()?;
                // The full report keeps allow-suppressed findings so the JSON
                // artifact doubles as a machine-readable allow inventory; the
                // pass/fail verdict only counts the active ones.
                let report = free_gap_lint::lint_tree_report(&layout, &rules)
                    .map_err(|e| format!("linting: {e}"))?;
                if let Some(path) = &opts.json {
                    // Written before the verdict so CI still gets the artifact
                    // when the lint fails — that run is exactly the one whose
                    // report someone needs to read.
                    std::fs::write(path, free_gap_lint::report_json(&rules, &report))
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("wrote {path}");
                }
                let diagnostics: Vec<_> = report
                    .into_iter()
                    .filter(|d| d.allow == free_gap_lint::AllowState::None)
                    .collect();
                if !diagnostics.is_empty() {
                    let mut msg = format!("{} invariant violation(s):\n", diagnostics.len());
                    for d in &diagnostics {
                        msg.push_str(&format!("  {d}\n"));
                    }
                    msg.push_str(
                        "fix the violation or justify it with `// lint:allow(rule): reason`",
                    );
                    return Err(msg);
                }
                eprintln!(
                    "free-gap-lint: clean under {} ({} rule(s))",
                    rules
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", "),
                    rules.len()
                );
            }
            Vec::new()
        }
        "datasets" => vec![experiments::datasets::run(&config(opts, 1))],
        "fig1a" => vec![experiments::fig1::run(
            &config(opts, 1000),
            Panel::Svt,
            Dataset::BmsPos,
            &k_grid(),
        )],
        "fig1b" => vec![experiments::fig1::run(
            &config(opts, 1000),
            Panel::TopK,
            Dataset::BmsPos,
            &k_grid(),
        )],
        "fig2a" => vec![experiments::fig2::run(
            &config(opts, 300),
            Panel::Svt,
            Dataset::Kosarak,
            10,
            &epsilon_grid(),
        )],
        "fig2b" => vec![experiments::fig2::run(
            &config(opts, 300),
            Panel::TopK,
            Dataset::Kosarak,
            10,
            &epsilon_grid(),
        )],
        "fig3" => vec![experiments::fig3::run(
            &config(opts, 300),
            opts.dataset,
            &k_grid(),
        )],
        "fig4" => vec![experiments::fig4::run(
            &config(opts, 300),
            &Dataset::ALL,
            &k_grid(),
        )],
        "ablation-theta" => vec![experiments::ablations::theta_sweep(
            &config(opts, 300),
            10,
            &[0.05, 0.1, 0.177, 0.3, 0.5, 0.7, 0.9],
        )],
        "ablation-sigma" => vec![experiments::ablations::sigma_sweep(
            &config(opts, 300),
            10,
            &[0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
        )],
        "ablation-split" => vec![experiments::ablations::split_sweep(
            &config(opts, 500),
            opts.dataset,
            10,
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        )],
        "ablation-branches" => vec![experiments::ablations::branches_sweep(
            &config(opts, 300),
            opts.dataset,
            10,
            &[1, 2, 3, 4, 5],
        )],
        "all" => {
            let mut all = Vec::new();
            all.push(experiments::datasets::run(&config(opts, 1)));
            all.push(experiments::fig1::run(
                &config(opts, 1000),
                Panel::Svt,
                Dataset::BmsPos,
                &k_grid(),
            ));
            all.push(experiments::fig1::run(
                &config(opts, 1000),
                Panel::TopK,
                Dataset::BmsPos,
                &k_grid(),
            ));
            all.push(experiments::fig2::run(
                &config(opts, 300),
                Panel::Svt,
                Dataset::Kosarak,
                10,
                &epsilon_grid(),
            ));
            all.push(experiments::fig2::run(
                &config(opts, 300),
                Panel::TopK,
                Dataset::Kosarak,
                10,
                &epsilon_grid(),
            ));
            for ds in Dataset::ALL {
                all.push(experiments::fig3::run(&config(opts, 300), ds, &k_grid()));
            }
            all.push(experiments::fig4::run(
                &config(opts, 300),
                &Dataset::ALL,
                &k_grid(),
            ));
            all.push(experiments::ablations::theta_sweep(
                &config(opts, 300),
                10,
                &[0.05, 0.1, 0.177, 0.3, 0.5, 0.7, 0.9],
            ));
            all.push(experiments::ablations::sigma_sweep(
                &config(opts, 300),
                10,
                &[0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
            ));
            all.push(experiments::ablations::split_sweep(
                &config(opts, 500),
                opts.dataset,
                10,
                &[0.1, 0.3, 0.5, 0.7, 0.9],
            ));
            all.push(experiments::ablations::branches_sweep(
                &config(opts, 300),
                opts.dataset,
                10,
                &[1, 2, 3, 4, 5],
            ));
            all
        }
        other => return Err(format!("unknown command `{other}` (try `repro all`)")),
    };
    Ok(tables)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repro <{}> [--runs N] [--scale F] [--seed N] [--eps F] [--dataset NAME] [--csv] [--json PATH] [--trials N] [--significance F] [--quick] [--tenants N] [--duration F] [--qps F] [--par-threshold N] [--rule NAME] [--fixtures]",
                COMMANDS.join("|")
            );
            return ExitCode::FAILURE;
        }
    };
    match run_command(&opts) {
        Ok(tables) => {
            for t in &tables {
                emit(t, opts.csv);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_commands_are_usage_errors() {
        // Rejected while parsing, so `main` prints the usage line; a typo
        // never reaches a command arm.
        for command in ["bench", "fig5", ""] {
            let err = parse_args(&args(&[command])).unwrap_err();
            assert!(err.contains("unknown command"), "{command:?}: {err}");
        }
        assert!(parse_args(&[]).unwrap_err().contains("missing command"));
        for command in COMMANDS {
            assert!(parse_args(&args(&[command])).is_ok(), "{command}");
        }
    }

    #[test]
    fn parses_attack_options() {
        let opts = parse_args(&args(&[
            "attack",
            "--trials",
            "5000",
            "--significance",
            "0.05",
            "--quick",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.command, "attack");
        assert_eq!(opts.attack_trials, Some(5000));
        assert_eq!(opts.significance, Some(0.05));
        assert!(opts.quick);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn validates_attack_option_values() {
        assert!(parse_args(&args(&["attack", "--trials", "0"])).is_err());
        assert!(parse_args(&args(&["attack", "--significance", "0.7"])).is_err());
        assert!(parse_args(&args(&["attack", "--significance", "0"])).is_err());
        assert!(parse_args(&args(&["attack", "--significance", "nan"])).is_err());
    }

    #[test]
    fn attack_options_are_rejected_on_other_commands() {
        // The cross-command flag-rejection pattern: a flag the selected
        // command would silently ignore is an error, not a no-op.
        for flags in [
            vec!["fig1a", "--trials", "5000"],
            vec!["datasets", "--significance", "0.05"],
            vec!["all", "--quick"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("only applies to `attack`"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn attack_rejects_foreign_flags() {
        for flags in [
            vec!["attack", "--eps", "0.5"],
            vec!["attack", "--dataset", "kosarak"],
            vec!["attack", "--scale", "0.5"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("not supported"), "{flags:?}: {err}");
        }
        let opts = parse_args(&args(&["attack", "--runs", "10"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("--trials, not --runs"), "{err}");
    }

    #[test]
    fn parses_serve_bench_options() {
        let opts = parse_args(&args(&[
            "serve-bench",
            "--tenants",
            "16",
            "--duration",
            "2.5",
            "--qps",
            "5000",
            "--par-threshold",
            "32",
            "--quick",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(opts.command, "serve-bench");
        assert_eq!(opts.tenants, Some(16));
        assert_eq!(opts.duration, Some(2.5));
        assert_eq!(opts.qps, Some(5000.0));
        assert_eq!(opts.par_threshold, Some(32));
        assert!(opts.quick);
        assert_eq!(opts.seed, 9);
    }

    #[test]
    fn validates_serve_bench_option_values() {
        assert!(parse_args(&args(&["serve-bench", "--tenants", "0"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--duration", "0"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--duration", "nan"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--qps", "-5"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--qps", "inf"])).is_err());
        assert!(parse_args(&args(&["serve-bench", "--par-threshold", "x"])).is_err());
        // 0 means "every call": valid.
        let opts = parse_args(&args(&["serve-bench", "--par-threshold", "0"])).unwrap();
        assert_eq!(opts.par_threshold, Some(0));
    }

    #[test]
    fn serve_bench_options_are_rejected_on_other_commands() {
        for flags in [
            vec!["fig1a", "--tenants", "4"],
            vec!["datasets", "--duration", "1.0"],
            vec!["attack", "--qps", "100"],
            vec!["all", "--tenants", "2"],
            vec!["lint", "--par-threshold", "64"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(
                err.contains("only applies to `serve-bench`"),
                "{flags:?}: {err}"
            );
        }
    }

    #[test]
    fn serve_bench_rejects_foreign_flags() {
        for flags in [
            vec!["serve-bench", "--eps", "0.5"],
            vec!["serve-bench", "--dataset", "kosarak"],
            vec!["serve-bench", "--scale", "0.5"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("not supported"), "{flags:?}: {err}");
        }
        let opts = parse_args(&args(&["serve-bench", "--runs", "10"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("not --runs"), "{err}");
        // The neighbouring commands' flags stay rejected too.
        let opts = parse_args(&args(&["serve-bench", "--trials", "100"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("only applies to `attack`"), "{err}");
        let opts = parse_args(&args(&["serve-bench", "--rule", "taxonomy"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("only applies to `lint`"), "{err}");
    }

    #[test]
    fn lint_options_are_rejected_on_other_commands() {
        for flags in [
            vec!["fig1a", "--rule", "panic-freedom"],
            vec!["fig4", "--rule", "taxonomy"],
            vec!["attack", "--fixtures"],
            vec!["all", "--fixtures"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("only applies to `lint`"), "{flags:?}: {err}");
        }
    }

    #[test]
    fn lint_rejects_foreign_flags_and_unknown_rules() {
        for flags in [
            vec!["lint", "--eps", "0.5"],
            vec!["lint", "--dataset", "kosarak"],
            vec!["lint", "--scale", "0.5"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("not supported"), "{flags:?}: {err}");
        }
        let opts = parse_args(&args(&["lint", "--runs", "10"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("--runs does not apply"), "{err}");
        let opts = parse_args(&args(&["lint", "--rule", "no-such-rule"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        assert!(err.contains("stream-discipline"), "{err}");
    }

    #[test]
    fn json_is_rejected_on_commands_that_never_write_it() {
        for flags in [
            vec!["fig1a", "--json", "/tmp/out.json"],
            vec!["attack", "--json", "/tmp/out.json"],
            vec!["datasets", "--json", "/tmp/out.json"],
            vec!["all", "--json", "/tmp/out.json"],
        ] {
            let opts = parse_args(&args(&flags)).unwrap();
            let err = run_command(&opts).unwrap_err();
            assert!(err.contains("--json only applies to"), "{flags:?}: {err}");
        }
        // Fixture power mode has no tree report to serialize.
        let opts = parse_args(&args(&["lint", "--fixtures", "--json", "/tmp/out.json"])).unwrap();
        let err = run_command(&opts).unwrap_err();
        assert!(err.contains("does not apply to `lint --fixtures`"), "{err}");
    }

    #[test]
    fn lint_json_writes_a_stable_report() {
        // `lint --json` must produce the machine-readable report and exit
        // clean on the real tree — and two runs must agree byte-for-byte.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let dir = std::env::temp_dir().join("repro-lint-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let cwd = std::env::current_dir().unwrap();
        std::env::set_current_dir(&root).unwrap();
        let mut opts = parse_args(&args(&["lint", "--json", out.to_str().unwrap()])).unwrap();
        let first = run_command(&opts);
        let run_a = std::fs::read_to_string(&out);
        opts = parse_args(&args(&["lint", "--json", out.to_str().unwrap()])).unwrap();
        let second = run_command(&opts);
        let run_b = std::fs::read_to_string(&out);
        std::env::set_current_dir(cwd).unwrap();
        first.expect("real tree lints clean");
        second.expect("real tree lints clean");
        let (a, b) = (run_a.unwrap(), run_b.unwrap());
        assert_eq!(a, b, "lint --json must be byte-stable across runs");
        assert!(a.contains("\"schema\": \"free-gap-lint/1\""));
        assert!(a.contains("\"active\": 0"));
    }
}
