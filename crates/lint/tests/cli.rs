//! CLI contract tests: exit codes and the `--format=json` output.
//!
//! Exit codes are part of the tool's CI interface: 0 clean (warnings
//! allowed), 1 at least one error-severity finding, 2 usage or I/O
//! error. JSON mode emits one object per finding on stdout and keeps the
//! human summary on stderr, so the stdout stream stays machine-parseable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_s4d-lint"))
}

/// A scratch directory holding one seeded-violation file laid out as a
/// `crates/<name>/src` tree, so crate scoping applies.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str, rel: &str, src: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("s4d-lint-cli-{tag}-{}", std::process::id()));
        let file = root.join(rel);
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, src).unwrap();
        Scratch { root }
    }

    fn run(&self, args: &[&str]) -> Output {
        bin()
            .current_dir(&self.root)
            .args(args)
            .output()
            .expect("spawn s4d-lint")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn exit_zero_on_a_clean_tree() {
    let s = Scratch::new(
        "clean",
        "crates/core/src/ok.rs",
        "pub fn fine(x: u32) -> u32 { x + 1 }\n",
    );
    let out = s.run(&["--workspace"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn exit_one_on_an_error_finding() {
    let s = Scratch::new(
        "dirty",
        "crates/core/src/bad.rs",
        "pub fn bad(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let out = s.run(&["--workspace"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[panic]"), "{stdout}");
}

#[test]
fn exit_two_on_usage_and_io_errors() {
    let s = Scratch::new("usage", "crates/core/src/ok.rs", "pub fn fine() {}\n");
    let out = s.run(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "unknown option: {out:?}");
    let out = bin()
        .current_dir(std::env::temp_dir())
        .arg("no/such/file.rs")
        .output()
        .expect("spawn s4d-lint");
    assert_eq!(out.status.code(), Some(2), "unreadable path: {out:?}");
}

#[test]
fn json_format_emits_one_parseable_object_per_finding() {
    let s = Scratch::new(
        "json",
        "crates/core/src/bad.rs",
        "pub fn bad(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let out = s.run(&["--workspace", "--format=json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "at least one finding: {stdout}");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each stdout line is one JSON object: {line}"
        );
        for key in [
            "\"file\":",
            "\"line\":",
            "\"rule\":",
            "\"severity\":",
            "\"message\":",
            "\"hint\":",
            "\"chain\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    // The human summary moves to stderr in JSON mode.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("s4d-lint:"), "summary on stderr: {stderr}");
    assert!(
        !stdout.lines().any(|l| l.starts_with("s4d-lint:")),
        "stdout stays pure JSON (no summary line)"
    );
}

#[test]
fn json_chain_is_populated_for_interprocedural_findings() {
    let root = std::env::temp_dir().join(format!("s4d-lint-cli-chain-{}", std::process::id()));
    let dir = root.join("crates/core/src");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("caller.rs"),
        "pub fn evict_then_log(c: &mut C, j: &mut J) {\n    drop_extent(c);\n    append_journal_sync(j, &[]);\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("helper.rs"),
        "pub fn drop_extent(c: &mut C) {\n    fuse_consume(CrashSite::Evict, 4096);\n    c.discard(1, 0, 4096);\n}\n",
    )
    .unwrap();
    let out = bin()
        .current_dir(&root)
        .args(["--workspace", "--format=json"])
        .output()
        .expect("spawn s4d-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let durability: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"rule\":\"durability\""))
        .collect();
    assert_eq!(durability.len(), 1, "{stdout}");
    assert!(
        durability[0].contains("\"chain\":[\"crates/core/src/caller.rs:"),
        "chain names the caller first: {}",
        durability[0]
    );
    assert!(
        durability[0].contains("helper.rs:"),
        "chain descends into the helper: {}",
        durability[0]
    );
}

#[test]
fn list_rules_includes_the_interprocedural_family() {
    let out = bin().arg("--list-rules").output().expect("spawn s4d-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "durability",
        "panic",
        "panic-path",
        "shard-affinity",
        "hot-alloc",
    ] {
        assert!(
            stdout.lines().any(|l| l == rule),
            "missing {rule}: {stdout}"
        );
    }
    for retired in ["lock-graph", "lock-across-io", "async-ready"] {
        assert!(
            !stdout.lines().any(|l| l == retired),
            "retired rule {retired} still listed: {stdout}"
        );
    }
}

#[test]
fn human_output_renders_the_witness_chain() {
    let s = Scratch::new(
        "chain-human",
        "crates/core/src/caller.rs",
        "pub fn evict_then_log(c: &mut C, j: &mut J) {\n    drop_extent(c);\n    append_journal_sync(j, &[]);\n}\n\
         pub fn drop_extent(c: &mut C) {\n    fuse_consume(CrashSite::Evict, 4096);\n    c.discard(1, 0, 4096);\n}\n",
    );
    let out = s.run(&["--workspace"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("via: "), "chain rendered: {stdout}");
    assert!(stdout.contains("fn drop_extent"), "{stdout}");
}

// Appease the unused-helper lint when individual tests are filtered out.
#[allow(dead_code)]
fn _keep(_: &Path) {}
