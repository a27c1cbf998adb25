//! Power checks for the lint itself, in the same corrupted-reference
//! discipline as the chi-square and attack layers: each rule must flag the
//! historical bug it was written for (reproduced verbatim in `fixtures/`),
//! must stay silent on the shipped fix, and must pass the real tree clean.
//! A rule that stops firing on its fixture — or starts firing on the fix —
//! fails here before it can rot in CI.

use free_gap_lint::{
    fixtures_dir, lint_fixture, lint_tree, lint_tree_report, power_check, report_json, taxonomy,
    AllowState, Diagnostic, Rule, TreeLayout, FIXTURES,
};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn every_bad_fixture_is_flagged_by_its_rule() {
    for fixture in FIXTURES.iter().filter(|f| f.expect_flagged) {
        let diags = lint_fixture(fixture).expect("fixture lints");
        assert!(
            !diags.is_empty(),
            "{} must be flagged by {} — the rule lost its power against the \
             historical bug it encodes",
            fixture.path,
            fixture.rule
        );
        assert!(
            diags.iter().all(|d| d.rule == fixture.rule),
            "{}: unexpected rules in {diags:?}",
            fixture.path
        );
    }
}

#[test]
fn every_fixed_fixture_lints_clean() {
    for fixture in FIXTURES.iter().filter(|f| !f.expect_flagged) {
        let diags = lint_fixture(fixture).expect("fixture lints");
        assert!(
            diags.is_empty(),
            "{} must lint clean under {} but got:\n{}",
            fixture.path,
            fixture.rule,
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn power_check_api_agrees_with_fixture_expectations() {
    let rows = power_check().expect("power check runs");
    assert_eq!(rows.len(), FIXTURES.len());
    for row in rows {
        assert!(
            row.ok,
            "power row failed for {} (expect_flagged={}): {:?}",
            row.fixture.path, row.fixture.expect_flagged, row.diagnostics
        );
    }
}

#[test]
fn bad_fixtures_are_verbatim_reproductions() {
    // The stream-discipline fixture must carry the exact PR-4 line (a raw
    // `sample_value(self.rng)` inside the ScratchDraws provider) and the
    // panic-freedom fixture the exact PR-5 sort. If someone "cleans up" the
    // fixtures, the power check would silently test a strawman.
    let sd = std::fs::read_to_string(fixtures_dir().join("stream_discipline_bad.rs")).unwrap();
    assert!(sd.contains(".sample_value(self.rng)"));
    assert!(sd.contains("DiscreteLaplace::new(unit_epsilon, gamma)"));
    let pf = std::fs::read_to_string(fixtures_dir().join("panic_freedom_bad.rs")).unwrap();
    assert!(pf.contains("b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1))"));
    let eg = std::fs::read_to_string(fixtures_dir().join("endpoint_guard_bad.rs")).unwrap();
    assert!(eg.contains("(1.0 - 2.0 * u.abs()).ln()"));
    // Dataflow-tier fixtures: the load-bearing bad lines, verbatim.
    let read = |p: &str| std::fs::read_to_string(fixtures_dir().join(p)).unwrap();
    assert!(read("budget_debit_bad.rs").contains("let _ = tenant.ledger.try_debit(cost);"));
    assert!(read("budget_refund_bad.rs")
        .contains("Err(e) => MechanismResponse::Rejected(RejectReason::Invalid(e)),"));
    assert!(read("budget_rebill_bad.rs").contains("let billed = tenant.ledger.spend(cost);"));
    let dr = read("budget_double_release_bad.rs");
    assert_eq!(dr.matches(".release(session.cost)").count(), 2);
    assert!(read("lock_order_bad.rs").contains("for t in map.values()"));
    assert!(read("lock_poison_bad.rs").contains("self.inner.lock().unwrap()"));
    assert!(read("par_capture_bad.rs").contains("filled += 1;"));
    assert!(read("par_entropy_bad.rs").contains("let mut rng = thread_rng();"));
    let ft = read("float_totality_bad.rs");
    assert!(ft.contains("b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1))"));
    assert!(ft.contains("fold(f64::NEG_INFINITY, f64::max)"));
    assert!(ft.contains("if a < b { Ordering::Less } else { Ordering::Greater }"));
}

#[test]
fn dataflow_tier_has_a_bad_and_fixed_pair_per_shape() {
    // The R5–R8 tier ships 8 bad/fixed pairs (16 fixtures): three R5
    // shapes (debit-without-reject, reject-without-release, double
    // release), two R6 (lock order, poison handling), two R7 (captured
    // accumulator, entropy source), one R8 (partial comparisons). A
    // ninth bad fixture, the R5 rebill (a `.spend(…)` on the error path),
    // shares the reject-without-release shape's fixed twin.
    let tier: Vec<_> = FIXTURES
        .iter()
        .filter(|f| {
            matches!(
                f.rule,
                Rule::BudgetBalance | Rule::LockDiscipline | Rule::ParPurity | Rule::FloatTotality
            )
        })
        .collect();
    assert_eq!(tier.len(), 17);
    assert_eq!(tier.iter().filter(|f| f.expect_flagged).count(), 9);
    assert_eq!(
        tier.iter()
            .filter(|f| f.rule == Rule::BudgetBalance)
            .count(),
        7
    );
    assert_eq!(
        tier.iter()
            .filter(|f| f.rule == Rule::LockDiscipline)
            .count(),
        4
    );
    assert_eq!(tier.iter().filter(|f| f.rule == Rule::ParPurity).count(), 4);
    assert_eq!(
        tier.iter()
            .filter(|f| f.rule == Rule::FloatTotality)
            .count(),
        2
    );
}

#[test]
fn json_report_schema_is_stable_and_escaped() {
    let diags = vec![
        Diagnostic {
            file: PathBuf::from("crates/serve/src/server.rs"),
            line: 7,
            rule: Rule::LockDiscipline,
            message: "guard `map` crosses `.lock()` — \"ordering\"\thazard".into(),
            allow: AllowState::Line,
        },
        Diagnostic {
            file: PathBuf::from("crates/core/src/api.rs"),
            line: 3,
            rule: Rule::BudgetBalance,
            message: "debit without reject".into(),
            allow: AllowState::None,
        },
    ];
    let json = report_json(&[Rule::BudgetBalance, Rule::LockDiscipline], &diags);
    assert!(json.contains("\"schema\": \"free-gap-lint/1\""));
    assert!(json.contains("\"rules\": [\"budget-balance\", \"lock-discipline\"]"));
    assert!(json.contains("\"active\": 1"));
    assert!(json.contains("\"allowed\": 1"));
    assert!(json.contains("\"allow\": \"line\""));
    assert!(json.contains("\"allow\": \"none\""));
    // Quotes and tabs in messages must arrive escaped, never raw.
    assert!(json.contains("\\\"ordering\\\"\\thazard"));
    // Input order is preserved verbatim (lint_tree_report pre-sorts).
    let first = json.find("lock-discipline").unwrap();
    let second = json.find("budget-balance").unwrap();
    assert!(second > first || json.find("\"rules\"").unwrap() < first);
    // Empty finding set still carries the full envelope.
    let empty = report_json(&Rule::ALL, &[]);
    assert!(empty.contains("\"active\": 0"));
    assert!(empty.contains("\"findings\": []"));
}

#[test]
fn json_report_of_the_real_tree_is_byte_stable() {
    let layout = TreeLayout::at(&repo_root());
    layout.validate().expect("repo layout");
    let a = lint_tree_report(&layout, &Rule::ALL).expect("first pass");
    let b = lint_tree_report(&layout, &Rule::ALL).expect("second pass");
    let ja = report_json(&Rule::ALL, &a);
    let jb = report_json(&Rule::ALL, &b);
    assert_eq!(ja, jb, "two identical runs must serialize identically");
    // The report keeps the allow-suppressed findings (that is its point:
    // the allow inventory stays machine-readable) while lint_tree drops
    // them; on today's tree everything active is fixed, so the two differ
    // exactly by the suppressed set.
    assert!(a.iter().any(|d| d.allow != AllowState::None));
    assert!(a
        .windows(2)
        .all(|w| (&w[0].file, w[0].line) <= (&w[1].file, w[1].line)));
}

#[test]
fn real_tree_lints_clean_under_all_rules() {
    let layout = TreeLayout::at(&repo_root());
    layout.validate().expect("repo layout");
    let diags = lint_tree(&layout, &Rule::ALL).expect("tree lints");
    assert!(
        diags.is_empty(),
        "the real tree must be finding-free (fix or lint:allow each):\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn taxonomy_inventory_pins_todays_mechanism_list() {
    // Exhaustiveness seed: the exact set of mechanisms with a public `_into`
    // entry today. Adding one updates this list — and R4 then forces its
    // scratch_equivalence entry to exist before the tree lints clean
    // again. Removing one must also be deliberate.
    let layout = TreeLayout::at(&repo_root());
    let inv = taxonomy::inventory(&layout.core_src, &layout.equivalence).expect("inventory");
    assert_eq!(
        inv.mechanism_types(),
        [
            "AdaptiveSparseVector",
            "ClassicNoisyTopK",
            "ClassicSparseVector",
            "DiscreteNoisyTopKWithGap",
            "DiscreteSparseVectorWithGap",
            "ExponentialMechanism",
            "MultiBranchAdaptiveSparseVector",
            "NoisyTopKWithGap",
            "SparseVectorWithGap",
            "StaircaseMechanism",
        ],
        "the `_into` inventory changed: update this seed AND make sure the \
         scratch_equivalence suite covers the new set"
    );
}

#[test]
fn taxonomy_bad_trees_fire_each_case() {
    // The power check above only sees "flagged or not"; pin which case
    // fires where, so no single R4 check can go silent behind another.
    let messages = |path: &str| -> Vec<String> {
        let fixture = FIXTURES.iter().find(|f| f.path == path).unwrap();
        let mut m: Vec<String> = lint_fixture(fixture)
            .unwrap()
            .into_iter()
            .map(|d| d.message)
            .collect();
        m.sort();
        m
    };
    let bad = messages("taxonomy_bad");
    assert_eq!(bad.len(), 1, "{bad:#?}");
    assert!(bad[0].starts_with(
        "`BadMechanism` exposes `run_into` but never appears in the scratch_equivalence suite"
    ));
    let fanout = messages("taxonomy_fanout_bad");
    assert_eq!(fanout.len(), 1, "{fanout:#?}");
    assert!(fanout[0].starts_with(
        "`FannedOutMechanism::run_batched_into` is a second public provider-taking entry"
    ));
}
