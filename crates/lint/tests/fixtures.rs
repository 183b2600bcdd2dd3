//! Fixture self-tests: each seeded-violation fixture under
//! `tests/fixtures/` trips exactly its intended rule, pragmas suppress
//! only with a correct rule id and justification, and determinism
//! findings downgrade to warnings in test code.
//!
//! Fixtures are never compiled (cargo only builds top-level `tests/*.rs`)
//! and the workspace walk skips `fixtures/` directories, so the seeded
//! violations cannot leak into a real lint run. Each fixture is parsed
//! with a *forced* workspace-relative path so it lands in the crate scope
//! its rule targets.
//!
//! The `xfn_*` pairs exercise the interprocedural analyzer: each pair
//! splits one violation across two functions in two files. Linting
//! either file *alone* reproduces what the pre-interprocedural, per-file
//! analyzer could see — and must be silent; linting the pair as one
//! analysis scope must produce exactly the pair's rule, with a witness
//! call chain. Both directions are asserted.

use std::path::Path;

use s4d_lint::{engine, Severity, SourceFile};

/// Parses fixture sources as if they lived at their `rel` paths inside
/// the workspace, and lints them as one analysis scope.
fn lint_fixture_set(sources: &[(&str, &str)]) -> engine::Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(src, rel)| SourceFile::parse(Path::new(rel).to_path_buf(), rel.to_string(), src))
        .collect();
    engine::lint_files(&files)
}

/// Parses one fixture as if it lived at `rel` inside the workspace.
fn lint_fixture_src(src: &str, rel: &str) -> engine::Report {
    lint_fixture_set(&[(src, rel)])
}

fn fixture_source(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_fixture(name: &str, rel: &str) -> engine::Report {
    lint_fixture_src(&fixture_source(name), rel)
}

/// `(fixture file, forced rel path, rule that must fire)`. The rel path
/// places each fixture in the narrowest crate scope its rule targets, so
/// a finding from any *other* rule fails the exactness assertion.
const CASES: &[(&str, &str, &str)] = &[
    ("determinism.rs", "crates/sim/src/fixture.rs", "determinism"),
    (
        "determinism_lock.rs",
        "crates/sim/src/fixture.rs",
        "determinism",
    ),
    (
        "ordered_iter.rs",
        "crates/sim/src/fixture.rs",
        "ordered-iter",
    ),
    ("panic.rs", "crates/pfs/src/fixture.rs", "panic"),
    ("durability.rs", "crates/core/src/fixture.rs", "durability"),
    ("pragma.rs", "crates/sim/src/fixture.rs", "pragma"),
];

#[test]
fn each_fixture_trips_exactly_its_rule() {
    for &(name, rel, rule) in CASES {
        let report = lint_fixture(name, rel);
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![rule],
            "{name}: expected exactly one `{rule}` finding, got {:?}",
            report.diagnostics
        );
        assert_eq!(report.suppressed, 0, "{name}: nothing may be suppressed");
    }
}

/// The cross-function pairs: `(caller fixture, caller rel, helper
/// fixture, helper rel, rule that must fire on the pair, severity)`.
const XFN_CASES: &[(&str, &str, &str, &str, &str, Severity)] = &[
    (
        "xfn_durability_caller.rs",
        "crates/core/src/xfn_caller.rs",
        "xfn_durability_helper.rs",
        "crates/core/src/xfn_helper.rs",
        "durability",
        Severity::Error,
    ),
    (
        "xfn_panic_caller.rs",
        "crates/core/src/xfn_caller.rs",
        "xfn_panic_helper.rs",
        "crates/sim/src/xfn_helper.rs",
        "panic-path",
        Severity::Warning,
    ),
    (
        "xfn_retry_caller.rs",
        "crates/mpiio/src/xfn_caller.rs",
        "xfn_retry_helper.rs",
        "crates/mpiio/src/xfn_helper.rs",
        "unbounded-retry",
        Severity::Warning,
    ),
];

/// Branch-sensitivity pairs, one per flow-sensitive rule family:
/// `(hot fixture, clean fixture, forced rel path, rule)`. The *hot* half
/// hides its violation on one `match` arm and must be caught; the
/// *clean* half has the correct branch-guarded ordering and must lint
/// clean **without a pragma** — the same shapes a path-insensitive
/// analysis either misses or over-flags.
const FLOW_CASES: &[(&str, &str, &str, &str)] = &[
    (
        "flow_durability_hot.rs",
        "flow_durability_clean.rs",
        "crates/core/src/fixture.rs",
        "durability",
    ),
    (
        "flow_typestate_hot.rs",
        "flow_typestate_clean.rs",
        "crates/core/src/fixture.rs",
        "typestate",
    ),
    (
        "flow_group_commit_hot.rs",
        "flow_group_commit_clean.rs",
        "crates/core/src/fixture.rs",
        "durability",
    ),
    (
        "flow_affinity_hot.rs",
        "flow_affinity_clean.rs",
        "crates/core/src/shard/plane.rs",
        "shard-affinity",
    ),
    (
        "flow_alloc_hot.rs",
        "flow_alloc_clean.rs",
        "crates/core/src/pipeline/fixture.rs",
        "hot-alloc",
    ),
];

#[test]
fn flow_hot_halves_are_caught_despite_the_branch() {
    for &(hot, _, rel, rule) in FLOW_CASES {
        let report = lint_fixture(hot, rel);
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![rule],
            "{hot}: the arm-hidden violation must produce exactly one \
             `{rule}` finding, got {:?}",
            report.diagnostics
        );
        assert_eq!(report.suppressed, 0, "{hot}");
    }
}

#[test]
fn flow_clean_halves_need_no_pragma() {
    for &(_, clean, rel, rule) in FLOW_CASES {
        let report = lint_fixture(clean, rel);
        assert!(
            report.diagnostics.is_empty(),
            "{clean}: branch-guarded correct ordering must be clean \
             without a pragma (rule `{rule}`): {:?}",
            report.diagnostics
        );
        assert_eq!(report.suppressed, 0, "{clean}: nothing suppressed");
    }
}

#[test]
fn flow_violations_carry_a_block_path_witness() {
    // The durability, typestate, and affinity findings are *path* facts;
    // the diagnostic must name the violating path through the CFG so the
    // reader can follow it arm by arm.
    for &(hot, rel) in &[
        ("flow_durability_hot.rs", "crates/core/src/fixture.rs"),
        ("flow_typestate_hot.rs", "crates/core/src/fixture.rs"),
        ("flow_affinity_hot.rs", "crates/core/src/shard/plane.rs"),
    ] {
        let report = lint_fixture(hot, rel);
        assert_eq!(report.diagnostics.len(), 1, "{hot}");
        let d = &report.diagnostics[0];
        assert!(
            d.chain.iter().any(|c| c.contains("path through fn")),
            "{hot}: expected a block-path witness in the chain, got {:?}",
            d.chain
        );
    }
}

#[test]
fn xfn_halves_alone_are_invisible_to_per_file_analysis() {
    // Linting one file by itself is exactly the visibility the old
    // per-file lexical analyzer had: each half must come out clean.
    for &(caller, caller_rel, helper, helper_rel, rule, _) in XFN_CASES {
        for (name, rel) in [(caller, caller_rel), (helper, helper_rel)] {
            let report = lint_fixture(name, rel);
            assert!(
                report.diagnostics.is_empty(),
                "{name} alone must be silent (the violation spans two \
                 functions; rule `{rule}` needs the pair): {:?}",
                report.diagnostics
            );
        }
    }
}

#[test]
fn xfn_pairs_trip_exactly_their_rule_with_a_witness_chain() {
    for &(caller, caller_rel, helper, helper_rel, rule, severity) in XFN_CASES {
        let caller_src = fixture_source(caller);
        let helper_src = fixture_source(helper);
        let report = lint_fixture_set(&[
            (caller_src.as_str(), caller_rel),
            (helper_src.as_str(), helper_rel),
        ]);
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![rule],
            "{caller}+{helper}: expected exactly one `{rule}` finding, got {:?}",
            report.diagnostics
        );
        let d = &report.diagnostics[0];
        assert_eq!(d.severity, severity, "{caller}+{helper}");
        assert!(
            d.chain.len() >= 2,
            "{caller}+{helper}: interprocedural finding must carry the \
             caller→helper witness chain, got {:?}",
            d.chain
        );
        assert_eq!(report.suppressed, 0, "{caller}+{helper}");
    }
}

#[test]
fn xfn_panic_site_pragma_suppresses_reachability_too() {
    // `allow(panic)` on the panic *site* must also suppress the
    // site-anchored `panic-path` finding — one justification covers the
    // construct and its reachability.
    let caller_src = fixture_source("xfn_panic_caller.rs");
    let helper_src = fixture_source("xfn_panic_helper.rs").replace(
        "    weights[k]",
        "    // s4d-lint: allow(panic) — fixture-local proof for the self-test\n    weights[k]",
    );
    let report = lint_fixture_set(&[
        (caller_src.as_str(), "crates/core/src/xfn_caller.rs"),
        (helper_src.as_str(), "crates/sim/src/xfn_helper.rs"),
    ]);
    assert!(
        report.diagnostics.is_empty(),
        "site pragma must cover reachability: {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
}

#[test]
fn retry_alias_pragma_suppresses_the_retry_pair() {
    // `allow(retry)` is the short alias for `unbounded-retry`; placed on
    // the loop the finding anchors at, it must suppress the pair's
    // cross-function finding.
    let caller_src = fixture_source("xfn_retry_caller.rs").replace(
        "    loop {",
        "    // s4d-lint: allow(retry) — fixture-local proof for the self-test\n    loop {",
    );
    let helper_src = fixture_source("xfn_retry_helper.rs");
    let report = lint_fixture_set(&[
        (caller_src.as_str(), "crates/mpiio/src/xfn_caller.rs"),
        (helper_src.as_str(), "crates/mpiio/src/xfn_helper.rs"),
    ]);
    assert!(
        report.diagnostics.is_empty(),
        "the `retry` alias must suppress `unbounded-retry`: {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
}

#[test]
fn bound_evidence_in_the_helper_clears_the_retry_pair() {
    // Giving the helper its own attempt bound is the sanctioned fix:
    // the same pair must then lint clean without any pragma.
    let caller_src = fixture_source("xfn_retry_caller.rs");
    let helper_src = fixture_source("xfn_retry_helper.rs").replace(
        "        fire_retry(op);",
        "        if op.attempts < MAX_ATTEMPTS {\n            fire_retry(op);\n        }",
    );
    let report = lint_fixture_set(&[
        (caller_src.as_str(), "crates/mpiio/src/xfn_caller.rs"),
        (helper_src.as_str(), "crates/mpiio/src/xfn_helper.rs"),
    ]);
    assert!(
        report.diagnostics.is_empty(),
        "an attempt cap in the helper must clear the loop: {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 0);
}

#[test]
fn fixture_findings_are_errors_with_hints() {
    for &(name, rel, _) in CASES {
        let report = lint_fixture(name, rel);
        for d in &report.diagnostics {
            assert_eq!(d.severity, Severity::Error, "{name}");
            assert!(!d.hint.is_empty(), "{name}: every finding carries a hint");
            assert!(d.line > 0, "{name}: diagnostics are 1-based");
        }
    }
}

#[test]
fn justified_pragma_suppresses_the_panic_fixture() {
    let src = fixture_source("panic.rs").replace(
        "    xs.first().copied().unwrap()",
        "    // s4d-lint: allow(panic) — fixture-local proof for the self-test\n    \
         xs.first().copied().unwrap()",
    );
    let report = lint_fixture_src(&src, "crates/pfs/src/fixture.rs");
    assert!(
        report.diagnostics.is_empty(),
        "justified allow(panic) must suppress: {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
}

#[test]
fn wrong_rule_name_does_not_suppress() {
    let src = fixture_source("panic.rs").replace(
        "    xs.first().copied().unwrap()",
        "    // s4d-lint: allow(determinism) — names the wrong rule on purpose\n    \
         xs.first().copied().unwrap()",
    );
    let report = lint_fixture_src(&src, "crates/pfs/src/fixture.rs");
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    // The panic finding survives, and the allow is reported as unused.
    assert!(rules.contains(&"panic"), "finding must survive: {rules:?}");
    assert!(
        rules.contains(&"pragma"),
        "unused allow is reported: {rules:?}"
    );
    assert_eq!(report.suppressed, 0);
}

#[test]
fn unjustified_pragma_does_not_suppress() {
    let src = fixture_source("panic.rs").replace(
        "    xs.first().copied().unwrap()",
        "    // s4d-lint: allow(panic)\n    xs.first().copied().unwrap()",
    );
    let report = lint_fixture_src(&src, "crates/pfs/src/fixture.rs");
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"panic"), "finding must survive: {rules:?}");
    assert!(
        rules.contains(&"pragma"),
        "missing justification is reported: {rules:?}"
    );
    assert_eq!(report.suppressed, 0);
}

#[test]
fn determinism_is_report_only_in_test_code() {
    // Same violation, but the file sits in a tests/ directory: the
    // finding downgrades to a warning (satellite: report-only over test
    // dirs) — present, but not exit-code-affecting.
    let report = lint_fixture("determinism.rs", "crates/sim/tests/fixture.rs");
    assert_eq!(report.diagnostics.len(), 1);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, "determinism");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 1);
}

#[test]
fn shard_discipline_catches_raw_component_mutation() {
    let report = lint_fixture("shard_discipline_hot.rs", "crates/core/src/fixture.rs");
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(
        rules,
        vec!["shard-discipline"],
        "raw dmt.insert outside the owner files must produce exactly one \
         finding: {:?}",
        report.diagnostics
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("dmt.insert"), "message names the call");
}

#[test]
fn shard_discipline_clean_when_routed_through_the_plane() {
    let report = lint_fixture("shard_discipline_clean.rs", "crates/core/src/fixture.rs");
    assert!(
        report.diagnostics.is_empty(),
        "plane-routed mutations and raw reads must be clean: {:?}",
        report.diagnostics
    );
}

#[test]
fn shard_discipline_exempts_owners_tests_and_other_crates() {
    let src = fixture_source("shard_discipline_hot.rs");
    // The replay path legitimately rebuilds a raw Dmt before adoption.
    for rel in [
        "crates/core/src/durability/replay.rs",
        "crates/core/src/shard/plane.rs",
        "crates/core/tests/fixture.rs",
        "crates/pfs/src/fixture.rs",
    ] {
        let report = lint_fixture_src(&src, rel);
        let tripped: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "shard-discipline")
            .collect();
        assert!(
            tripped.is_empty(),
            "{rel}: owner files, test dirs, and other crates are exempt: {tripped:?}"
        );
    }
}

#[test]
fn shard_discipline_pragma_suppresses_with_justification() {
    let src = fixture_source("shard_discipline_hot.rs").replace(
        "    dmt.insert",
        "    // s4d-lint: allow(shard-discipline) — fixture-local proof for the self-test\n    \
         dmt.insert",
    );
    let report = lint_fixture_src(&src, "crates/core/src/fixture.rs");
    assert!(
        report.diagnostics.is_empty(),
        "justified allow(shard-discipline) must suppress: {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
}

/// `lines` trivial, rule-silent code lines — oversized-module input for
/// the file-budget cases (generated, not checked in: an 800-line fixture
/// file would be pure noise).
fn const_lines(lines: usize) -> String {
    let mut src = String::new();
    for i in 0..lines {
        src.push_str(&format!("pub const LINE_{i}: usize = {i};\n"));
    }
    src
}

#[test]
fn file_budget_trips_on_an_oversized_lib_module() {
    let src = const_lines(s4d_lint::config::FILE_BUDGET_MAX_LINES + 1);
    let report = lint_fixture_src(&src, "crates/core/src/fixture.rs");
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec!["file-budget"]);
    let d = &report.diagnostics[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(
        d.line as usize,
        s4d_lint::config::FILE_BUDGET_MAX_LINES + 1,
        "finding anchors at the first line past the budget"
    );
}

#[test]
fn file_budget_excludes_test_spans() {
    // 500 library lines plus 400 lines inside `#[cfg(test)]`: 900 total,
    // but only the 500 non-test lines count — under budget.
    let mut src = const_lines(500);
    src.push_str("#[cfg(test)]\nmod tests {\n");
    for i in 0..400 {
        src.push_str(&format!("    const T_{i}: usize = {i};\n"));
    }
    src.push_str("}\n");
    let report = lint_fixture_src(&src, "crates/core/src/fixture.rs");
    assert!(
        report.diagnostics.is_empty(),
        "test spans must not count: {:?}",
        report.diagnostics
    );
}

#[test]
fn file_budget_exempts_test_directories() {
    let src = const_lines(s4d_lint::config::FILE_BUDGET_MAX_LINES + 200);
    let report = lint_fixture_src(&src, "crates/core/tests/fixture.rs");
    assert!(
        report.diagnostics.is_empty(),
        "integration-test files have no budget: {:?}",
        report.diagnostics
    );
}

#[test]
fn fixtures_are_invisible_to_the_workspace_walk() {
    // The crate's own tests/ tree contains the seeded violations; the
    // directory walk must skip the fixtures dir entirely.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = engine::lint_workspace(root).expect("lint crate walks");
    let leaked: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.path.components().any(|c| c.as_os_str() == "fixtures"))
        .collect();
    assert!(
        leaked.is_empty(),
        "fixtures leaked into the walk: {leaked:?}"
    );
}
