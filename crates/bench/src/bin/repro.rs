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
//!   serve-bench        deterministic multi-tenant replay through the query
//!                      server: completed, rejected and budget-rejected
//!                      requests, idle-session evictions and the digest of
//!                      every response bit (fixed seed → same digest for
//!                      any worker count); times nothing
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
//! Options (each command reads only its own; any other is a usage error):
//!   --runs N           Monte-Carlo runs per point (default: per experiment)
//!   --scale F          dataset record-count fraction in (0, 1] (default 1.0)
//!   --seed N           root RNG seed (default 20190412)
//!   --eps F            total privacy budget ε (default 0.7)
//!   --dataset NAME     bms-pos | kosarak | t40 (fig3, ablation-split,
//!                      ablation-branches, all; default bms-pos)
//!   --csv              emit CSV instead of aligned tables
//!   --json PATH        `lint`: write the machine-readable finding report
//!                      (schema free-gap-lint/1, includes allow-suppressed
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
    /// `lint`: where the JSON report goes (`--json`).
    json: Option<String>,
    /// `attack`: estimate-phase trials per side (`--trials`).
    attack_trials: Option<usize>,
    /// `attack`: significance α of the reported bounds (`--significance`).
    significance: Option<f64>,
    /// `attack`/`serve-bench`: the budgeted smoke configuration (`--quick`).
    quick: bool,
    /// `lint`: restrict to a single named rule (`--rule`).
    lint_rule: Option<String>,
    /// `lint`: run the fixture power checks instead of the tree (`--fixtures`).
    fixtures: bool,
}

/// Every command `repro` runs, with the flags it reads. Anything else is a
/// usage error: an unknown command, or a flag its command would ignore.
const COMMANDS: [(&str, &[&str]); 15] = [
    ("datasets", &["--scale", "--seed", "--csv"]),
    ("fig1a", &["--runs", "--scale", "--seed", "--eps", "--csv"]),
    ("fig1b", &["--runs", "--scale", "--seed", "--eps", "--csv"]),
    ("fig2a", &["--runs", "--scale", "--seed", "--csv"]),
    ("fig2b", &["--runs", "--scale", "--seed", "--csv"]),
    (
        "fig3",
        &["--runs", "--scale", "--seed", "--eps", "--dataset", "--csv"],
    ),
    ("fig4", &["--runs", "--scale", "--seed", "--eps", "--csv"]),
    ("ablation-theta", &["--runs", "--seed", "--eps", "--csv"]),
    ("ablation-sigma", &["--runs", "--seed", "--eps", "--csv"]),
    (
        "ablation-split",
        &["--runs", "--scale", "--seed", "--eps", "--dataset", "--csv"],
    ),
    (
        "ablation-branches",
        &["--runs", "--scale", "--seed", "--eps", "--dataset", "--csv"],
    ),
    (
        "all",
        &["--runs", "--scale", "--seed", "--eps", "--dataset", "--csv"],
    ),
    ("serve-bench", &["--seed", "--quick", "--csv"]),
    ("lint", &["--rule", "--fixtures", "--json"]),
    (
        "attack",
        &["--seed", "--trials", "--significance", "--quick", "--csv"],
    ),
];

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let command = args.first().ok_or("missing command (try `repro all`)")?;
    let Some(&(_, flags)) = COMMANDS.iter().find(|(name, _)| name == command) else {
        return Err(format!("unknown command `{command}` (try `repro all`)"));
    };
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
        lint_rule: None,
        fixtures: false,
    };
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if !flags.contains(&flag) {
            return Err(format!(
                "`{command}` does not read `{flag}` (its flags: {})",
                flags.join(" ")
            ));
        }
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
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--eps" => {
                opts.epsilon = value("--eps")?.parse().map_err(|e| format!("--eps: {e}"))?;
            }
            "--dataset" => {
                let name = value("--dataset")?;
                opts.dataset = parse_dataset(&name).ok_or(format!("unknown dataset `{name}`"))?;
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
    let tables = match opts.command.as_str() {
        "serve-bench" => {
            let cfg = if opts.quick {
                free_gap_serve::ServeBenchConfig::quick(opts.seed)
            } else {
                free_gap_serve::ServeBenchConfig::full(opts.seed)
            };
            let report =
                free_gap_serve::bench::run(&cfg).map_err(|e| format!("serve-bench: {e}"))?;
            let mut table = Table::new(
                format!(
                    "serve-bench: {} tenants × {} requests over {} workers (ε = {:.1}/tenant, digest {:#018x})",
                    cfg.tenants,
                    cfg.requests_per_tenant,
                    cfg.workers,
                    cfg.epsilon_per_tenant,
                    report.digest,
                ),
                &["completed", "rejected", "budget_rejected", "evictions"],
            );
            table.push_row(vec![
                Cell::Int(report.completed as i64),
                Cell::Int(report.rejected as i64),
                Cell::Int(report.budget_rejected as i64),
                Cell::Int(report.evictions as i64),
            ]);
            vec![table]
        }
        "attack" => {
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
            let commands: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "usage: repro <{}> [--runs N] [--scale F] [--seed N] [--eps F] [--dataset NAME] [--csv] [--json PATH] [--trials N] [--significance F] [--quick] [--rule NAME] [--fixtures]",
                commands.join("|")
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

    /// `flags[1]` is a flag `flags[0]` does not read: parsing fails with a
    /// usage error naming the command, that flag and the flags it does read.
    fn assert_unread(flags: &[&str]) {
        let err = parse_args(&args(flags)).unwrap_err();
        let (command, reads) = COMMANDS.iter().find(|(c, _)| *c == flags[0]).unwrap();
        assert!(err.contains(&format!("`{command}`")), "{flags:?}: {err}");
        assert!(err.contains(&reads.join(" ")), "{flags:?}: {err}");
        assert!(err.contains(&format!("`{}`", flags[1])), "{flags:?}: {err}");
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
        for (command, _) in COMMANDS {
            assert!(parse_args(&args(&[command])).is_ok(), "{command}");
        }
    }

    #[test]
    fn each_command_rejects_flags_it_does_not_read() {
        // One flag per command that the command would silently ignore: each
        // is a usage error naming the command and the flags it does read.
        for flags in [
            vec!["datasets", "--eps", "3", "--runs", "9"],
            vec!["fig1a", "--dataset", "kosarak"],
            vec!["fig1b", "--quick"],
            vec!["fig2a", "--eps", "0.1"],
            vec!["fig2b", "--dataset", "t40"],
            vec!["fig3", "--trials", "100"],
            vec!["fig4", "--dataset", "kosarak"],
            vec!["ablation-theta", "--scale", "0.5", "--dataset", "kosarak"],
            vec!["ablation-sigma", "--dataset", "kosarak"],
            vec!["ablation-split", "--rule", "taxonomy"],
            vec!["ablation-branches", "--fixtures"],
            vec!["all", "--json", "/tmp/out.json"],
            vec!["serve-bench", "--runs", "10"],
            vec!["serve-bench", "--json", "/tmp/out.json"],
            vec!["lint", "--seed", "5", "--csv"],
            vec!["attack", "--eps", "0.5"],
        ] {
            assert_unread(&flags);
        }
        // Every flag a command reads parses.
        for (command, reads) in COMMANDS {
            let mut line = vec![command];
            for &flag in reads {
                line.push(flag);
                match flag {
                    "--runs" | "--seed" | "--trials" => line.push("5"),
                    "--scale" | "--eps" | "--significance" => line.push("0.05"),
                    "--dataset" => line.push("kosarak"),
                    "--rule" => line.push("taxonomy"),
                    "--json" => line.push("/tmp/out.json"),
                    _ => {}
                }
            }
            parse_args(&args(&line)).unwrap_or_else(|e| panic!("{line:?}: {e}"));
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
            vec!["lint", "--trials", "100"],
        ] {
            assert_unread(&flags);
        }
    }

    #[test]
    fn attack_rejects_foreign_flags() {
        for flags in [
            vec!["attack", "--eps", "0.5"],
            vec!["attack", "--dataset", "kosarak"],
            vec!["attack", "--scale", "0.5"],
            vec!["attack", "--runs", "10"],
        ] {
            assert_unread(&flags);
        }
    }

    #[test]
    fn serve_bench_options_are_rejected_on_other_commands() {
        // Beyond the shared `--seed` and `--csv`, `--quick` is serve-bench's
        // one option, and `attack` is the only other command that reads it.
        for (command, _) in COMMANDS {
            if matches!(command, "serve-bench" | "attack") {
                assert!(parse_args(&args(&[command, "--quick"])).unwrap().quick);
            } else {
                assert_unread(&[command, "--quick"]);
            }
        }
    }

    #[test]
    fn serve_bench_rejects_foreign_flags() {
        for flags in [
            vec!["serve-bench", "--eps", "0.5"],
            vec!["serve-bench", "--dataset", "kosarak"],
            vec!["serve-bench", "--scale", "0.5"],
            vec!["serve-bench", "--runs", "10"],
            // The neighbouring commands' flags stay rejected too.
            vec!["serve-bench", "--trials", "100"],
            vec!["serve-bench", "--rule", "taxonomy"],
        ] {
            assert_unread(&flags);
        }
    }

    #[test]
    fn lint_options_are_rejected_on_other_commands() {
        for flags in [
            vec!["fig1a", "--rule", "panic-freedom"],
            vec!["fig4", "--rule", "taxonomy"],
            vec!["attack", "--fixtures"],
            vec!["all", "--fixtures"],
        ] {
            assert_unread(&flags);
        }
    }

    #[test]
    fn lint_rejects_foreign_flags_and_unknown_rules() {
        for flags in [
            vec!["lint", "--eps", "0.5"],
            vec!["lint", "--dataset", "kosarak"],
            vec!["lint", "--scale", "0.5"],
            vec!["lint", "--runs", "10"],
        ] {
            let err = parse_args(&args(&flags)).unwrap_err();
            assert!(err.contains("`lint` does not read"), "{flags:?}: {err}");
        }
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
            vec!["serve-bench", "--json", "/tmp/out.json"],
        ] {
            let err = parse_args(&args(&flags)).unwrap_err();
            assert!(err.contains("does not read `--json`"), "{flags:?}: {err}");
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
