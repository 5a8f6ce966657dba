//! Fixture-based self-tests for the nds-lint rules, suppression directives,
//! the lexer's masking, and the ratcheting version-3 baseline, plus a gate
//! test that holds the committed tree to the committed `lint-baseline.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use nds_lint::baseline::{compare, Baseline, Drift};
use nds_lint::lexer::{lex, TokenKind};
use nds_lint::{
    counts_of, existing_files, lint_workspace, rules_for, scan_source, Rule, RuleSet, Violation,
};

fn scan(fixture: &str, rules: &[Rule]) -> Vec<Violation> {
    scan_source(fixture, "crates/fixture/src/lib.rs", RuleSet::of(rules))
}

fn lines_of(violations: &[Violation], rule: Rule) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

// ---------------------------------------------------------------- rule D1

#[test]
fn d1_fires_on_ambient_nondeterminism() {
    let v = scan(include_str!("fixtures/d1_fire.rs"), &[Rule::D1]);
    assert_eq!(lines_of(&v, Rule::D1), vec![1, 4, 9]);
}

#[test]
fn d1_ignores_comments_strings_and_test_code() {
    let v = scan(include_str!("fixtures/d1_clean.rs"), &[Rule::D1]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn d1_suppressed_by_directive() {
    let v = scan(include_str!("fixtures/d1_suppressed.rs"), &[Rule::D1]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------------- rule D2

#[test]
fn d2_fires_on_hash_collections() {
    let v = scan(include_str!("fixtures/d2_fire.rs"), &[Rule::D2]);
    assert_eq!(lines_of(&v, Rule::D2), vec![1, 4]);
}

#[test]
fn d2_requires_token_boundaries() {
    // `HashMapLike` and BTreeMap must not fire.
    let v = scan(include_str!("fixtures/d2_clean.rs"), &[Rule::D2]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn d2_suppressed_by_directive() {
    let v = scan(include_str!("fixtures/d2_suppressed.rs"), &[Rule::D2]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------------- rule D3

#[test]
fn d3_fires_on_raw_time_arithmetic() {
    let v = scan(include_str!("fixtures/d3_fire.rs"), &[Rule::D3]);
    assert_eq!(lines_of(&v, Rule::D3), vec![2, 6]);
}

#[test]
fn d3_allows_literals_and_typed_operators() {
    let v = scan(include_str!("fixtures/d3_clean.rs"), &[Rule::D3]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn d3_suppressed_by_same_line_directive() {
    let v = scan(include_str!("fixtures/d3_suppressed.rs"), &[Rule::D3]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------------- rule D5

#[test]
fn d5_fires_on_unchecked_virtual_time_arithmetic() {
    let v = scan(include_str!("fixtures/d5_fire.rs"), &[Rule::D5]);
    assert_eq!(lines_of(&v, Rule::D5), vec![2, 4]);
}

#[test]
fn d5_allows_checked_math_and_untainted_integers() {
    let v = scan(include_str!("fixtures/d5_clean.rs"), &[Rule::D5]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn d5_suppressed_by_directive() {
    let v = scan(include_str!("fixtures/d5_suppressed.rs"), &[Rule::D5]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------------- rule D6

#[test]
fn d6_fires_when_resolution_precedes_the_guard() {
    let v = scan(include_str!("fixtures/d6_fire.rs"), &[Rule::D6]);
    assert_eq!(lines_of(&v, Rule::D6), vec![2]);
    assert!(v[0].message.contains("read_for_tenant"), "{:?}", v[0]);
}

#[test]
fn d6_allows_guard_first_and_tenantless_functions() {
    let v = scan(include_str!("fixtures/d6_clean.rs"), &[Rule::D6]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn d6_suppressed_by_directive() {
    let v = scan(include_str!("fixtures/d6_suppressed.rs"), &[Rule::D6]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------------- rule D7

#[test]
fn d7_fires_on_float_types_and_literals() {
    let v = scan(include_str!("fixtures/d7_fire.rs"), &[Rule::D7]);
    assert_eq!(lines_of(&v, Rule::D7), vec![1, 2, 6, 7]);
}

#[test]
fn d7_allows_fixed_point_doc_comments_and_test_code() {
    let v = scan(include_str!("fixtures/d7_clean.rs"), &[Rule::D7]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

#[test]
fn d7_suppressed_by_directive() {
    let v = scan(include_str!("fixtures/d7_suppressed.rs"), &[Rule::D7]);
    assert!(v.is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------- bad directives

#[test]
fn malformed_directive_is_an_error_and_does_not_suppress() {
    let v = scan(include_str!("fixtures/bad_directive.rs"), &[Rule::D2]);
    assert_eq!(lines_of(&v, Rule::BadDirective), vec![1]);
    assert_eq!(lines_of(&v, Rule::D2), vec![2]);
}

#[test]
fn a_directive_naming_the_retired_rule_d4_is_malformed() {
    // Panic paths are clippy's to hold now (DESIGN.md "Panic policy"); a
    // leftover D4 suppression must not linger as if it still meant something.
    // (Assembled here so no literal D4 directive sits in the tree.)
    let src = format!(
        "pub fn f(v: Option<u8>) -> u8 {{\n    // nds-lint: allow(D{}, once an unwrap)\n    \
         v.unwrap_or(0)\n}}\n",
        4
    );
    let v = scan(&src, &[Rule::D1, Rule::D2]);
    assert_eq!(lines_of(&v, Rule::BadDirective), vec![2], "{v:?}");
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn suppression_that_masks_nothing_is_an_error() {
    let v = scan(include_str!("fixtures/stale_suppression.rs"), &[Rule::D2]);
    assert_eq!(lines_of(&v, Rule::StaleSuppression), vec![2]);
    assert!(lines_of(&v, Rule::D2).is_empty(), "unexpected: {v:?}");
}

// ---------------------------------------------------------- lexer torture

#[test]
fn torture_fixture_masks_every_trap_and_keeps_live_code_hot() {
    // Raw strings, fenced raw strings, byte strings, nested block
    // comments, and doc comments full of needles: nothing fires — except
    // the genuine hash set after the char-vs-lifetime traps.
    let v = scan(
        include_str!("fixtures/torture.rs"),
        &[Rule::D1, Rule::D2, Rule::D3, Rule::D7],
    );
    assert_eq!(lines_of(&v, Rule::D2), vec![34], "unexpected: {v:?}");
    assert_eq!(v.len(), 1, "unexpected: {v:?}");
}

#[test]
fn torture_fixture_tokenizes_as_expected() {
    let src = include_str!("fixtures/torture.rs");
    let tokens = lex(src);
    let kinds_on = |line: usize| {
        tokens
            .iter()
            .filter(|t| t.line == line)
            .map(|t| t.kind)
            .collect::<Vec<_>>()
    };
    // One raw-string token per raw-string line, fences intact.
    assert_eq!(kinds_on(5), vec![TokenKind::RawStrLit]);
    assert_eq!(kinds_on(9), vec![TokenKind::RawStrLit]);
    // A byte string is a cooked string literal.
    assert_eq!(kinds_on(13), vec![TokenKind::StrLit]);
    // The nested block comment is one token starting at line 16; nothing
    // on lines 17–19 leaks out as code.
    assert_eq!(kinds_on(16), vec![TokenKind::BlockComment { doc: false }]);
    assert!(kinds_on(17).is_empty() && kinds_on(18).is_empty() && kinds_on(19).is_empty());
    // Doc comments keep their doc flag.
    assert_eq!(kinds_on(21), vec![TokenKind::LineComment { doc: true }]);
    // `'"'` and `'\''` are char literals, not lifetimes opening strings.
    assert!(kinds_on(31).contains(&TokenKind::CharLit));
    assert!(kinds_on(32).contains(&TokenKind::CharLit));
    // The lifetime in the signature really is a lifetime.
    assert!(kinds_on(30).contains(&TokenKind::Lifetime));
}

// ------------------------------------------------------------ rule scoping

#[test]
fn rules_apply_only_to_lib_sources_of_the_right_crates() {
    // Data-path crate lib code: everything applies.
    let flash = rules_for("crates/flash/src/ftl.rs");
    for r in [Rule::D1, Rule::D2, Rule::D3, Rule::D5, Rule::D7] {
        assert!(flash.contains(r), "flash lib code should get {r:?}");
    }
    assert!(!flash.contains(Rule::D6), "D6 is system-only");
    // The tenant-isolation guard lives in crates/system: D6 applies there.
    let system = rules_for("crates/system/src/tenants.rs");
    for r in [Rule::D2, Rule::D5, Rule::D6, Rule::D7] {
        assert!(system.contains(r), "system lib code should get {r:?}");
    }
    // `prof` computes derived statistics: data-path (D2/D5) but the
    // sanctioned home for fixed-point summaries, so no D7.
    let prof = rules_for("crates/prof/src/analysis.rs");
    assert!(prof.contains(Rule::D5));
    assert!(
        !prof.contains(Rule::D7),
        "prof is exempt from the float ban"
    );
    // The clock API home is exempt from D3 but not D1.
    let sim = rules_for("crates/sim/src/time.rs");
    assert!(sim.contains(Rule::D1));
    assert!(!sim.contains(Rule::D3));
    // Modeled-behaviour but not data-path: no D2/D5/D7.
    let host = rules_for("crates/host/src/cpu.rs");
    assert!(host.contains(Rule::D1));
    for r in [Rule::D2, Rule::D5, Rule::D6, Rule::D7] {
        assert!(!host.contains(r), "host should not get {r:?}");
    }
    // The observability module serializes reports, so it gets D2 on top of
    // the sim crate's D1 — but its siblings do not.
    let obs = rules_for("crates/sim/src/obs.rs");
    assert!(obs.contains(Rule::D1));
    assert!(obs.contains(Rule::D2), "obs.rs must reject hash containers");
    assert!(!obs.contains(Rule::D5));
    assert!(!rules_for("crates/sim/src/stats.rs").contains(Rule::D2));
    // Tests, benches, the linter, and the compat stubs are exempt.
    assert!(rules_for("crates/flash/tests/proptests.rs").is_empty());
    assert!(rules_for("crates/bench/src/bin/fig9.rs").is_empty());
    assert!(rules_for("crates/lint/src/lib.rs").is_empty());
    assert!(rules_for("crates/compat/serde/src/lib.rs").is_empty());
}

// ---------------------------------------------------------------- baseline

fn counts(entries: &[(Rule, &str, usize)]) -> BTreeMap<(Rule, String), usize> {
    entries
        .iter()
        .map(|(r, f, c)| ((*r, (*f).to_string()), *c))
        .collect()
}

#[test]
fn baseline_round_trips_through_json() {
    let c = counts(&[
        (Rule::D2, "crates/a/src/lib.rs", 3),
        (Rule::D7, "crates/b/src/lib.rs", 7),
    ]);
    let b = Baseline::from_counts(&c);
    let json = b.to_json();
    assert!(!json.contains("reachable"), "{json}");
    let parsed = Baseline::parse(&json).expect("round trip");
    assert_eq!(parsed.entries, b.entries);
    assert_eq!(parsed.total(Rule::D2), 3);
    assert_eq!(parsed.total(Rule::D7), 7);
}

#[test]
fn baseline_rejects_older_formats_and_the_retired_rule() {
    // Version 2 carried the D4 reachability column; like version 1 before
    // it, it is rejected rather than half-read.
    let v2 = r#"{ "version": 2, "entries": [
        { "rule": "D7", "file": "crates/a/src/lib.rs", "count": 3, "reachable": 0 }
    ] }"#;
    let err = Baseline::parse(v2).expect_err("version 2 must be rejected");
    assert!(err.contains("version 2 unsupported"), "{err}");
    assert!(err.contains("--update-baseline"), "{err}");
    let d4 = r#"{ "version": 3, "entries": [
        { "rule": "D4", "file": "crates/a/src/lib.rs", "count": 3 }
    ] }"#;
    let err = Baseline::parse(d4).expect_err("D4 is not a rule any more");
    assert!(err.contains("unknown rule \"D4\""), "{err}");
}

#[test]
fn compare_flags_regressions_improvements_and_stale_entries() {
    let baseline = Baseline::from_counts(&counts(&[
        (Rule::D7, "crates/a/src/lib.rs", 2),
        (Rule::D7, "crates/gone/src/lib.rs", 1),
        (Rule::D2, "crates/a/src/lib.rs", 5),
    ]));
    let current = counts(&[
        (Rule::D7, "crates/a/src/lib.rs", 4), // regression: 4 > 2
        (Rule::D2, "crates/a/src/lib.rs", 1), // improvement: 1 < 5
        (Rule::D1, "crates/b/src/lib.rs", 1), // new violation, unbaselined
    ]);
    let existing: BTreeSet<String> = ["crates/a/src/lib.rs", "crates/b/src/lib.rs"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let drifts = compare(&current, &baseline, &existing);
    assert!(drifts.contains(&Drift::Regression {
        rule: Rule::D7,
        file: "crates/a/src/lib.rs".to_string(),
        current: 4,
        allowed: 2,
    }));
    assert!(drifts.contains(&Drift::Regression {
        rule: Rule::D1,
        file: "crates/b/src/lib.rs".to_string(),
        current: 1,
        allowed: 0,
    }));
    assert!(drifts.contains(&Drift::Improvement {
        rule: Rule::D2,
        file: "crates/a/src/lib.rs".to_string(),
        current: 1,
        allowed: 5,
    }));
    assert!(drifts.contains(&Drift::StaleFile {
        rule: Rule::D7,
        file: "crates/gone/src/lib.rs".to_string(),
    }));
    assert_eq!(drifts.len(), 4);
    assert_eq!(drifts.iter().filter(|d| d.is_regression()).count(), 2);
}

#[test]
fn identical_tree_and_baseline_produce_no_drift() {
    let c = counts(&[(Rule::D7, "crates/a/src/lib.rs", 2)]);
    let baseline = Baseline::from_counts(&c);
    let existing: BTreeSet<String> = std::iter::once("crates/a/src/lib.rs".to_string()).collect();
    assert!(compare(&c, &baseline, &existing).is_empty());
}

// ------------------------------------------------------- workspace gate

/// The committed tree must match the committed baseline exactly: any new
/// violation fails, any improvement must be ratcheted in, and malformed
/// or stale directives are unconditional errors.
#[test]
fn committed_tree_matches_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let violations = lint_workspace(root).expect("walk workspace");
    let hard: Vec<_> = violations
        .iter()
        .filter(|v| matches!(v.rule, Rule::BadDirective | Rule::StaleSuppression))
        .collect();
    assert!(hard.is_empty(), "hard directive errors: {hard:?}");
    let baseline = Baseline::load(&root.join("lint-baseline.json"))
        .expect("readable baseline")
        .expect("lint-baseline.json is committed");
    let drifts = compare(
        &counts_of(&violations),
        &baseline,
        &existing_files(root).expect("walk workspace"),
    );
    assert!(
        drifts.is_empty(),
        "tree and baseline diverged:\n{}",
        drifts
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
