//! # s4d-bench — the experiment harness
//!
//! Builds the paper's testbed (§V.A: 8 HDD DServers + 4 SSD CServers,
//! 64 KiB stripes, Gigabit Ethernet, 32 computing processes) out of the
//! workspace crates and regenerates every table and figure of the
//! evaluation. Each artifact is defined once, in [`paper`]; its bench
//! target and the `reproduce` binary both print that one definition. The
//! mapping from paper artifact to bench target lives in `DESIGN.md`;
//! measured-vs-paper numbers live in `EXPERIMENTS.md`.
//!
//! Experiments run at a scaled-down data size by default (data sizes ÷ 8;
//! same geometry, same request sizes, smaller files) so the whole suite
//! completes in minutes; set `S4D_SCALE_FACTOR=1` to run the paper's full
//! 2 GB-per-instance sizes, or a larger factor for a quick smoke pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod table;

pub use experiments::{
    campaign_scripts, run_custom, run_s4d, run_s4d_second_read, run_stock, run_stock_second_read,
    testbed, ExperimentOutcome, Scale, Testbed,
};

/// Reads the first numeric value following `"key"` in `text`: the
/// baseline reader behind the `--check` gates of the `straggler` and
/// `metadata` binaries.
///
/// ```
/// let text = r#"{"p99_ms": 8.5, "reads_per_sec": 4307.2}"#;
/// assert_eq!(s4d_bench::field_f64(text, "p99_ms"), Some(8.5));
/// assert_eq!(s4d_bench::field_f64(text, "missing"), None);
/// ```
pub fn field_f64(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\""))?;
    let rest = &text[at..];
    let tail = rest[rest.find(':')? + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}
