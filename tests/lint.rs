//! Tier-1 gate: the workspace must lint clean under `s4d-lint`.
//!
//! This is the same check CI runs via `cargo run -p s4d-lint --
//! --workspace`, wired into the ordinary test suite so a plain
//! `cargo test` refuses determinism (including locks on the simulated
//! I/O path), panic-freedom, shard-affinity, and durability-protocol
//! regressions. Warnings (report-only findings,
//! e.g. determinism in test code and `panic-path` reachability reports)
//! are printed but do not fail.
//!
//! A second test pins the run as a snapshot — violation-free, a stable
//! suppression count, deterministic ordering — so a regression that
//! introduces errors, sneaks in an unreviewed allow-pragma, or breaks
//! output determinism fails tier-1 even if the finding itself would only
//! warn.

use s4d_lint::Severity;

fn report() -> s4d_lint::Report {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    s4d_lint::lint_workspace(root).expect("workspace walk succeeds")
}

#[test]
fn workspace_lints_clean() {
    let report = report();
    assert!(report.files > 50, "walk found only {} files", report.files);
    for d in report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
    {
        println!("(report-only) {d}");
    }
    let errors: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "s4d-lint found {} error(s):\n{}",
        errors.len(),
        errors.join("\n")
    );
}

/// The pinned workspace snapshot. Update the numbers only with the
/// review that justifies the change (a new pragma needs its call-chain
/// evidence; a new `panic-path` warning needs the chain audited).
#[test]
fn workspace_report_matches_the_pinned_snapshot() {
    let report = report();
    assert_eq!(report.errors(), 0, "the workspace is pinned violation-free");
    // 22 = the previous 26 minus the four findings (two `panic` sites
    // and their `panic-path` shadows) retired when the scrub-cursor and
    // CRC-table indexing were rewritten to `.get(…)` — provably-in-range
    // masks no longer need a pragma to say so.
    assert_eq!(
        report.suppressed, 22,
        "pragma-suppression count drifted — a pragma was added or \
         retired without updating the pinned snapshot (suppressed = \
         lexical `panic` findings + the site-anchored `panic-path` \
         findings their pragmas also cover)"
    );
    // Every surviving warning is a reviewed reachability report (or a
    // report-only determinism note) — none may carry an empty message.
    for d in &report.diagnostics {
        assert_eq!(d.severity, Severity::Warning);
        assert!(!d.message.is_empty());
    }
    // Deterministic output order: (file, line, rule, message),
    // strictly sorted, so CI artifact diffs are stable line-by-line.
    let keys: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule, d.message.clone()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics must come out sorted");
    // Interprocedural findings must carry their witness chains.
    for d in report.diagnostics.iter().filter(|d| d.rule == "panic-path") {
        assert!(
            !d.chain.is_empty(),
            "panic-path finding without a witness chain: {d}"
        );
    }
}

/// The linter's output is part of the CI contract: two runs over the
/// same tree must be byte-identical — same findings, same order, same
/// chains, same rendered JSON. The CFG construction, the dataflow
/// fixpoints, and the diagnostic sort are all deterministic; this pins
/// that end to end.
#[test]
fn lint_output_is_byte_identical_across_runs() {
    let render = |r: &s4d_lint::Report| -> String {
        let mut out = String::new();
        for d in &r.diagnostics {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out.push_str(&format!(
            "files={} suppressed={} pragmas={}\n",
            r.files, r.suppressed, r.pragmas
        ));
        out
    };
    let (a, b) = (report(), report());
    assert_eq!(
        render(&a),
        render(&b),
        "two lint runs over the same tree diverged — nondeterminism in \
         the walk, the CFG/dataflow layer, or the sort"
    );
}
