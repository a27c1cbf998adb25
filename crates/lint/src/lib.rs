//! `free-gap-lint` — a source-level invariant checker for the repo's
//! privacy-critical conventions.
//!
//! Every privacy bug this repo has shipped and then fixed was a
//! *source-level convention violation*, not a logic error: a raw-RNG draw
//! inside a provider-generic core silently broke the stream discipline
//! (PR 4), an unclamped `ln(u)` endpoint produced non-finite noise, and
//! `partial_cmp().unwrap()` panicked or mis-selected on NaN utilities
//! (PR 5). The dynamic layers (scratch equivalence, chi-square statistics,
//! the attack harness) catch these after the fact at Monte-Carlo cost; this
//! crate catches them at review time for free by enforcing four named rules
//! over `crates/{core,noise,serve}/src`:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `stream-discipline` (R1) | no raw RNG/`NoiseSource` draws inside provider-generic cores or the blocked `ScratchDraws` provider — randomness flows through [`DrawProvider`] methods only |
//! | `endpoint-guard` (R2) | every `.ln()` in a uniform transform clamps its operand with `.max(f64::MIN_POSITIVE)` |
//! | `panic-freedom` (R3) | no `unwrap`/`expect`/`panic!`/`assert!` in non-test mechanism code — typed `MechanismError` or a justified allow |
//! | `taxonomy` (R4) | every mechanism type has exactly one public provider-taking `*_into` entry and a `scratch_equivalence` entry (cross-file) |
//! | `budget-balance` (R5) | every `try_debit` handles its failure with a typed rejection; a debited share reaches exactly one `release` on every error path (dataflow) |
//! | `lock-discipline` (R6) | a live guard never crosses another `.lock()` or a mechanism `call_*`; lock results absorb poisoning via `PoisonError::into_inner` (dataflow) |
//! | `par-purity` (R7) | parallel block-fill closures are pure functions of (run seed, block index, disjoint slab) — no captured `&mut`, thread identity, statics, or entropy (dataflow) |
//! | `float-totality` (R8) | no `partial_cmp`, qualified `f64::max|min`, or raw `<`/`>` comparator closures in selection/ordering positions — `f64::total_cmp` only (dataflow) |
//!
//! R1–R3 are token/scope-level (one structural pass, [`scanner`]); R5–R8
//! are intra-procedural dataflow rules over a statement/branch graph
//! ([`flow`]) — still the same dependency-free tokenizer underneath.
//!
//! Findings are suppressed by `// lint:allow(rule): reason` on or above the
//! offending line (file-wide: `lint:allow-file`); the reason is mandatory.
//! The analysis is a dependency-free hand-rolled tokenizer (the container
//! is offline, so `syn` is not an option) plus a single structural pass —
//! see [`lexer`] and [`scanner`].
//!
//! The fixture corpus under `fixtures/` reproduces each historical bug
//! verbatim and doubles as a power check: a rule that stops flagging its
//! fixture fails this crate's own tests, the same corrupted-reference
//! discipline as the chi-square and attack layers.
//!
//! [`DrawProvider`]: https://docs.rs/free-gap-core

pub mod allow;
pub mod flow;
pub mod lexer;
pub mod rules;
pub mod scanner;
pub mod taxonomy;

use rules::FileScope;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The eight invariant rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1 — randomness in provider-generic cores flows through
    /// `DrawProvider` only.
    StreamDiscipline,
    /// R2 — `.ln()` operands in uniform transforms are clamped.
    EndpointGuard,
    /// R3 — non-test mechanism code never panics.
    PanicFreedom,
    /// R4 — one `_into` entry per mechanism, each with an equivalence
    /// entry and a bench cell.
    Taxonomy,
    /// R5 — every `try_debit` is rejected-on-failure; debited shares reach
    /// exactly one `release` per path.
    BudgetBalance,
    /// R6 — live guards cross neither other locks nor mechanism calls;
    /// poisoning is absorbed, never unwrapped.
    LockDiscipline,
    /// R7 — parallel block fills are pure in (run seed, block index).
    ParPurity,
    /// R8 — float selection/ordering goes through `total_cmp` only.
    FloatTotality,
}

impl Rule {
    /// All rules, in documentation order.
    pub const ALL: [Rule; 8] = [
        Rule::StreamDiscipline,
        Rule::EndpointGuard,
        Rule::PanicFreedom,
        Rule::Taxonomy,
        Rule::BudgetBalance,
        Rule::LockDiscipline,
        Rule::ParPurity,
        Rule::FloatTotality,
    ];

    /// The kebab-case rule name used in diagnostics and allow annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::StreamDiscipline => "stream-discipline",
            Rule::EndpointGuard => "endpoint-guard",
            Rule::PanicFreedom => "panic-freedom",
            Rule::Taxonomy => "taxonomy",
            Rule::BudgetBalance => "budget-balance",
            Rule::LockDiscipline => "lock-discipline",
            Rule::ParPurity => "par-purity",
            Rule::FloatTotality => "float-totality",
        }
    }

    /// Parses a rule name (as accepted by `repro lint --rule`).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a finding relates to the allow annotations of its file. Active
/// findings fail the lint; suppressed ones are kept for the `--json`
/// report so the full allow inventory stays machine-readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AllowState {
    /// Not suppressed — an active finding.
    None,
    /// Suppressed by a `// lint:allow(rule): reason` on or above the line.
    Line,
    /// Suppressed by a file-wide `// lint:allow-file(rule): reason`.
    File,
}

impl AllowState {
    /// The value used in the `--json` schema.
    pub fn as_str(self) -> &'static str {
        match self {
            AllowState::None => "none",
            AllowState::Line => "line",
            AllowState::File => "file",
        }
    }
}

/// One finding: `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// Whether (and how) an allow annotation suppresses it.
    pub allow: AllowState,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Recursively lists `.rs` files under `dir`, sorted for deterministic
/// diagnostic order.
pub fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the token-level and dataflow rules over every `.rs` file in `dir`
/// under the given [`FileScope`]. Returns *all* findings, suppressed ones
/// included — filter on [`Diagnostic::allow`] for the failing set.
pub fn lint_dir(dir: &Path, scope: FileScope, rules: &[Rule]) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for file in rust_files(dir)? {
        lint_file(&file, scope, rules, &mut out)?;
    }
    Ok(out)
}

/// Runs the token-level and dataflow rules over a single file. Suppressed
/// findings are pushed too, carrying their [`AllowState`].
pub fn lint_file(
    file: &Path,
    scope: FileScope,
    rules: &[Rule],
    out: &mut Vec<Diagnostic>,
) -> io::Result<()> {
    let src = std::fs::read_to_string(file)?;
    let lexed = lexer::lex(&src);
    let scoped = scanner::scan(&lexed.tokens);
    let allows = allow::parse(&lexed.comments);
    rules::check_file(file, &scoped, &allows, scope, rules, out);
    flow::check_file(file, &lexed.tokens, &allows, scope, rules, out);
    Ok(())
}

/// The layout of a tree to lint: where the linted crates' sources and the
/// cross-file anchor of R4 (the equivalence suite) live.
#[derive(Debug, Clone)]
pub struct TreeLayout {
    /// `crates/core/src` — R1 + R3 scope.
    pub core_src: PathBuf,
    /// `crates/noise/src` — R2 + R3 scope.
    pub noise_src: PathBuf,
    /// `crates/serve/src` — R1 + R3 scope (the serving layer must never
    /// panic or touch raw streams from provider-generic code).
    pub serve_src: PathBuf,
    /// `crates/attack/src` — R3 + R8 scope (the audit harness must not
    /// panic mid-board or mis-rank on NaN statistics).
    pub attack_src: PathBuf,
    /// `crates/bench/src` — R3 + R8 scope (a panicking experiment aborts
    /// a figure half-written; a NaN-unstable sort mis-ranks its rows).
    pub bench_src: PathBuf,
    /// `crates/core/tests/scratch_equivalence.rs` — R4 anchor.
    pub equivalence: PathBuf,
}

impl TreeLayout {
    /// The repo's conventional layout under `root`.
    pub fn at(root: &Path) -> TreeLayout {
        TreeLayout {
            core_src: root.join("crates/core/src"),
            noise_src: root.join("crates/noise/src"),
            serve_src: root.join("crates/serve/src"),
            attack_src: root.join("crates/attack/src"),
            bench_src: root.join("crates/bench/src"),
            equivalence: root.join("crates/core/tests/scratch_equivalence.rs"),
        }
    }

    /// Quick existence check with a readable error, so `repro lint` run
    /// from the wrong directory fails with a path, not an empty report.
    pub fn validate(&self) -> Result<(), String> {
        for (what, p) in [
            ("core sources", &self.core_src),
            ("noise sources", &self.noise_src),
            ("serve sources", &self.serve_src),
            ("attack sources", &self.attack_src),
            ("bench sources", &self.bench_src),
            ("scratch_equivalence suite", &self.equivalence),
        ] {
            if !p.exists() {
                return Err(format!(
                    "{} not found at {} — run from the repository root",
                    what,
                    p.display()
                ));
            }
        }
        Ok(())
    }
}

/// Lints a whole tree and returns *every* finding — active and
/// allow-suppressed alike — deterministically sorted by
/// (file, line, rule, message). This is what the `--json` report is built
/// from: the suppressed findings are the machine-readable allow inventory.
pub fn lint_tree_report(layout: &TreeLayout, rules: &[Rule]) -> io::Result<Vec<Diagnostic>> {
    let mut out = lint_dir(&layout.core_src, FileScope::Core, rules)?;
    out.extend(lint_dir(&layout.noise_src, FileScope::Noise, rules)?);
    out.extend(lint_dir(&layout.serve_src, FileScope::Serve, rules)?);
    out.extend(lint_dir(&layout.attack_src, FileScope::Attack, rules)?);
    out.extend(lint_dir(&layout.bench_src, FileScope::Bench, rules)?);
    if rules.contains(&Rule::Taxonomy) {
        let inv = taxonomy::inventory(&layout.core_src, &layout.equivalence)?;
        taxonomy::check(&inv, &layout.equivalence, &mut out);
    }
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule.name(), &a.message).cmp(&(
            &b.file,
            b.line,
            b.rule.name(),
            &b.message,
        ))
    });
    Ok(out)
}

/// Lints a whole tree with the selected rules and returns the *active*
/// findings (allow-suppressed ones filtered out). This is what
/// `repro lint` and CI gate on.
pub fn lint_tree(layout: &TreeLayout, rules: &[Rule]) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_tree_report(layout, rules)?
        .into_iter()
        .filter(|d| d.allow == AllowState::None)
        .collect())
}

/// Renders a finding set as the stable `free-gap-lint/1` JSON schema:
///
/// ```json
/// {
///   "schema": "free-gap-lint/1",
///   "rules": ["stream-discipline", …],
///   "active": 0,
///   "allowed": 3,
///   "findings": [
///     { "file": "…", "line": 7, "rule": "lock-discipline",
///       "allow": "line", "message": "…" }
///   ]
/// }
/// ```
///
/// Input order is preserved ([`lint_tree_report`] already sorts by
/// (file, line, rule, message)), keys are emitted in a fixed order, and no
/// map types are involved — so the output is byte-stable across runs.
pub fn report_json(rules: &[Rule], findings: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }
    let active = findings
        .iter()
        .filter(|d| d.allow == AllowState::None)
        .count();
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"free-gap-lint/1\",\n  \"rules\": [");
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\"", r.name()));
    }
    s.push_str("],\n");
    s.push_str(&format!("  \"active\": {active},\n"));
    s.push_str(&format!("  \"allowed\": {},\n", findings.len() - active));
    s.push_str("  \"findings\": [");
    for (i, d) in findings.iter().enumerate() {
        s.push_str(if i > 0 { "," } else { "" });
        s.push_str("\n    { ");
        s.push_str(&format!(
            "\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"allow\": \"{}\", \"message\": \"{}\"",
            esc(&d.file.display().to_string()),
            d.line,
            d.rule.name(),
            d.allow.as_str(),
            esc(&d.message)
        ));
        s.push_str(" }");
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Directory holding the fixture corpus (compiled into the binary; valid
/// wherever the workspace checkout lives).
pub fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// One fixture: a file (or taxonomy tree) that must — or must not — be
/// flagged by a specific rule.
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    /// Path relative to [`fixtures_dir`].
    pub path: &'static str,
    /// The rule under test.
    pub rule: Rule,
    /// Token-rule scope the fixture is linted under (ignored for R4 trees).
    pub scope: FileScope,
    /// Whether the rule must flag the fixture (`true`: the historical bug,
    /// reproduced verbatim) or must stay silent (`false`: the shipped fix).
    pub expect_flagged: bool,
}

/// The corpus: known-bad snippets per rule — each reproducing a historical
/// (or concretely possible) bug verbatim — plus the corrected twin that
/// must lint clean (so a rule can neither under- nor over-fire without
/// failing the power checks).
pub const FIXTURES: [Fixture; 29] = [
    Fixture {
        path: "stream_discipline_bad.rs",
        rule: Rule::StreamDiscipline,
        scope: FileScope::Core,
        expect_flagged: true,
    },
    Fixture {
        path: "stream_discipline_fixed.rs",
        rule: Rule::StreamDiscipline,
        scope: FileScope::Core,
        expect_flagged: false,
    },
    Fixture {
        path: "parallel_fill_bad.rs",
        rule: Rule::StreamDiscipline,
        scope: FileScope::Core,
        expect_flagged: true,
    },
    Fixture {
        path: "parallel_fill_fixed.rs",
        rule: Rule::StreamDiscipline,
        scope: FileScope::Core,
        expect_flagged: false,
    },
    Fixture {
        path: "endpoint_guard_bad.rs",
        rule: Rule::EndpointGuard,
        scope: FileScope::Noise,
        expect_flagged: true,
    },
    Fixture {
        path: "endpoint_guard_fixed.rs",
        rule: Rule::EndpointGuard,
        scope: FileScope::Noise,
        expect_flagged: false,
    },
    Fixture {
        path: "panic_freedom_bad.rs",
        rule: Rule::PanicFreedom,
        scope: FileScope::Core,
        expect_flagged: true,
    },
    Fixture {
        path: "panic_freedom_fixed.rs",
        rule: Rule::PanicFreedom,
        scope: FileScope::Core,
        expect_flagged: false,
    },
    Fixture {
        path: "taxonomy_bad",
        rule: Rule::Taxonomy,
        scope: FileScope::Core,
        expect_flagged: true,
    },
    Fixture {
        path: "taxonomy_fixed",
        rule: Rule::Taxonomy,
        scope: FileScope::Core,
        expect_flagged: false,
    },
    Fixture {
        path: "taxonomy_fanout_bad",
        rule: Rule::Taxonomy,
        scope: FileScope::Core,
        expect_flagged: true,
    },
    Fixture {
        path: "taxonomy_fanout_fixed",
        rule: Rule::Taxonomy,
        scope: FileScope::Core,
        expect_flagged: false,
    },
    // --- dataflow tier (R5–R8) ------------------------------------------
    Fixture {
        path: "budget_debit_bad.rs",
        rule: Rule::BudgetBalance,
        scope: FileScope::Serve,
        expect_flagged: true,
    },
    Fixture {
        path: "budget_debit_fixed.rs",
        rule: Rule::BudgetBalance,
        scope: FileScope::Serve,
        expect_flagged: false,
    },
    Fixture {
        path: "budget_refund_bad.rs",
        rule: Rule::BudgetBalance,
        scope: FileScope::Serve,
        expect_flagged: true,
    },
    Fixture {
        path: "budget_refund_fixed.rs",
        rule: Rule::BudgetBalance,
        scope: FileScope::Serve,
        expect_flagged: false,
    },
    Fixture {
        path: "budget_rebill_bad.rs",
        rule: Rule::BudgetBalance,
        scope: FileScope::Serve,
        expect_flagged: true,
    },
    Fixture {
        path: "budget_double_release_bad.rs",
        rule: Rule::BudgetBalance,
        scope: FileScope::Serve,
        expect_flagged: true,
    },
    Fixture {
        path: "budget_double_release_fixed.rs",
        rule: Rule::BudgetBalance,
        scope: FileScope::Serve,
        expect_flagged: false,
    },
    Fixture {
        path: "lock_order_bad.rs",
        rule: Rule::LockDiscipline,
        scope: FileScope::Serve,
        expect_flagged: true,
    },
    Fixture {
        path: "lock_order_fixed.rs",
        rule: Rule::LockDiscipline,
        scope: FileScope::Serve,
        expect_flagged: false,
    },
    Fixture {
        path: "lock_poison_bad.rs",
        rule: Rule::LockDiscipline,
        scope: FileScope::Serve,
        expect_flagged: true,
    },
    Fixture {
        path: "lock_poison_fixed.rs",
        rule: Rule::LockDiscipline,
        scope: FileScope::Serve,
        expect_flagged: false,
    },
    Fixture {
        path: "par_capture_bad.rs",
        rule: Rule::ParPurity,
        scope: FileScope::Noise,
        expect_flagged: true,
    },
    Fixture {
        path: "par_capture_fixed.rs",
        rule: Rule::ParPurity,
        scope: FileScope::Noise,
        expect_flagged: false,
    },
    Fixture {
        path: "par_entropy_bad.rs",
        rule: Rule::ParPurity,
        scope: FileScope::Noise,
        expect_flagged: true,
    },
    Fixture {
        path: "par_entropy_fixed.rs",
        rule: Rule::ParPurity,
        scope: FileScope::Noise,
        expect_flagged: false,
    },
    Fixture {
        path: "float_totality_bad.rs",
        rule: Rule::FloatTotality,
        scope: FileScope::Core,
        expect_flagged: true,
    },
    Fixture {
        path: "float_totality_fixed.rs",
        rule: Rule::FloatTotality,
        scope: FileScope::Core,
        expect_flagged: false,
    },
];

/// Lints one fixture with its rule; returns the *active* diagnostics
/// (fixtures exercise the rules, not the allow machinery).
pub fn lint_fixture(fixture: &Fixture) -> io::Result<Vec<Diagnostic>> {
    let path = fixtures_dir().join(fixture.path);
    let mut out = Vec::new();
    if fixture.rule == Rule::Taxonomy {
        let equivalence = path.join("scratch_equivalence.rs");
        let inv = taxonomy::inventory(&path.join("src"), &equivalence)?;
        taxonomy::check(&inv, &equivalence, &mut out);
    } else {
        lint_file(&path, fixture.scope, &[fixture.rule], &mut out)?;
        out.retain(|d| d.allow == AllowState::None);
    }
    Ok(out)
}

/// Result row of a fixture power check.
#[derive(Debug)]
pub struct PowerRow {
    /// The fixture.
    pub fixture: Fixture,
    /// Diagnostics its rule produced.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the outcome matched `expect_flagged`.
    pub ok: bool,
}

/// Runs every fixture; each bad fixture must be flagged by its rule and
/// each fixed twin must lint clean.
pub fn power_check() -> io::Result<Vec<PowerRow>> {
    let mut rows = Vec::new();
    for fixture in FIXTURES {
        let diagnostics = lint_fixture(&fixture)?;
        let ok = diagnostics.is_empty() != fixture.expect_flagged;
        rows.push(PowerRow {
            fixture,
            diagnostics,
            ok,
        });
    }
    Ok(rows)
}
