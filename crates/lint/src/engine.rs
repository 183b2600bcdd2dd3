//! The engine: workspace walk, two-tier rule dispatch (per-file, then
//! interprocedural over the whole parsed set), pragma suppression, and
//! the final report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::config;
use crate::diag::{Diagnostic, Severity};
use crate::items::{self, ItemIndex};
use crate::pragma::{pragmas, Pragma};
use crate::rules;
use crate::source::SourceFile;
use crate::summary::Analysis;

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings (pragma-suppressed ones removed), sorted by
    /// `(file, line, rule, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of findings suppressed by justified pragmas.
    pub suppressed: usize,
    /// Number of files checked.
    pub files: usize,
    /// Number of pragma comment sites across the analysis scope (for the
    /// budget gate — each site may suppress more than one finding).
    pub pragmas: usize,
    /// Analysis cost counters (for `--bench`).
    pub stats: crate::summary::Stats,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }
}

/// Lints a parsed file set as one unit: per-file rules, then the
/// interprocedural rules over the call graph spanning the whole set, then
/// pragma suppression and hygiene per file. The set *is* the analysis
/// scope — calls into files outside it simply do not resolve.
pub fn lint_files(files: &[SourceFile]) -> Report {
    let items: Vec<ItemIndex> = files.iter().map(items::index).collect();
    let mut found = Vec::new();
    for (file, idx) in files.iter().zip(&items) {
        rules::check_file(file, idx, &mut found);
    }
    let analysis = Analysis::build(files, &items);
    rules::check_graph(&analysis, &mut found);

    let mut report = Report {
        files: files.len(),
        stats: analysis.stats,
        ..Report::default()
    };
    let by_path: BTreeMap<&Path, usize> = files
        .iter()
        .enumerate()
        .map(|(k, f)| (f.path.as_path(), k))
        .collect();
    let prags: Vec<Vec<Pragma>> = files.iter().map(pragmas).collect();
    report.pragmas = prags.iter().map(Vec::len).sum();
    for d in found {
        let file_prags = by_path
            .get(d.path.as_path())
            .map(|&k| prags[k].as_slice())
            .unwrap_or(&[]);
        if let Some(p) = file_prags.iter().find(|p| p.suppresses(d.rule, d.line)) {
            p.used.set(true);
            report.suppressed += 1;
        } else {
            report.diagnostics.push(d);
        }
    }
    for (file, file_prags) in files.iter().zip(&prags) {
        pragma_hygiene(file, file_prags, &mut report);
    }
    report.diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    report
}

/// The pragma-hygiene hint. Diagnostic hints are `&'static str`, so the
/// rule list is spelled out by hand: [`config::RULES`] minus the `retry`
/// alias and `pragma` itself, in catalogue order (pinned by a unit test).
const PRAGMA_HINT: &str = "format: `// s4d-lint: allow(<rule>) — <justification>`; rules: \
                           determinism, ordered-iter, panic, panic-path, durability, \
                           typestate, file-budget, unbounded-retry, shard-discipline, \
                           shard-affinity, hot-alloc";

/// `pragma`: malformed pragmas, unknown rule ids, missing justification,
/// and unused allows. A misspelled rule id must never silently suppress —
/// it is reported instead.
fn pragma_hygiene(file: &SourceFile, prags: &[Pragma], report: &mut Report) {
    for p in prags {
        let mut fail = |message: String, severity: Severity| {
            report.diagnostics.push(Diagnostic {
                path: file.path.clone(),
                line: p.line,
                rule: "pragma",
                message,
                hint: PRAGMA_HINT,
                severity,
                chain: Vec::new(),
            });
        };
        if !p.well_formed {
            fail(
                "malformed s4d-lint pragma (expected `allow(<rule, …>)`)".to_string(),
                Severity::Error,
            );
            continue;
        }
        for r in &p.rules {
            if !config::RULES.contains(&r.as_str()) {
                fail(
                    format!("allow names unknown rule `{r}` — nothing is suppressed"),
                    Severity::Error,
                );
            }
        }
        if !p.justified {
            fail(
                "allow pragma without a justification".to_string(),
                Severity::Error,
            );
        } else if !p.used.get() && p.rules.iter().all(|r| config::RULES.contains(&r.as_str())) {
            fail(
                format!(
                    "unused allow pragma for `{}` (nothing on the covered lines trips it)",
                    p.rules.join(", ")
                ),
                Severity::Warning,
            );
        }
    }
}

/// Recursively collects `.rs` files under `dir`, skipping fixture
/// directories (they hold seeded violations) and anything unreadable.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "fixtures" || name == "target" || name == "vendor" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The workspace directories the linter covers.
const WORKSPACE_ROOTS: &[&str] = &["src", "tests", "examples", "crates"];

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    for r in WORKSPACE_ROOTS {
        collect_rs(&root.join(r), &mut files);
    }
    if files.is_empty() {
        return Err(format!(
            "no .rs files under {} — run from the workspace root or pass paths",
            root.display()
        ));
    }
    lint_paths(root, &files)
}

/// Lints an explicit set of files as one analysis scope (workspace-
/// relative scoping is derived from each path's prefix relative to
/// `root`).
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> Result<Report, String> {
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        files.push(SourceFile::parse(path.clone(), rel, &src));
    }
    Ok(lint_files(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_hint_lists_the_suppressible_rules_in_catalogue_order() {
        let (_, listed) = PRAGMA_HINT.split_once("rules: ").unwrap();
        let listed: Vec<&str> = listed.split(", ").collect();
        let expected: Vec<&str> = config::RULES
            .iter()
            .copied()
            .filter(|r| !matches!(*r, "retry" | "pragma"))
            .collect();
        assert_eq!(listed, expected);
    }
}
