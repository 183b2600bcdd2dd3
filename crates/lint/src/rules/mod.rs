//! The rule families, in two tiers:
//!
//! * **per-file** rules walk one [`SourceFile`]'s code-token stream (with
//!   its [`ItemIndex`] for const-initializer exemptions);
//! * **graph** rules walk the interprocedural [`Analysis`] — call graph
//!   plus effect summaries — and may anchor findings in any file.
//!
//! The engine runs both tiers, then applies pragmas per file.

pub mod affinity;
pub mod alloc;
pub mod determinism;
pub mod durability;
pub mod file_budget;
pub mod panic_freedom;
pub mod panic_path;
pub mod shard_discipline;
pub mod typestate;
pub mod unbounded_retry;

use crate::diag::Diagnostic;
use crate::items::ItemIndex;
use crate::source::SourceFile;
use crate::summary::Analysis;

/// Runs the per-file rule families over one file.
pub fn check_file(file: &SourceFile, items: &ItemIndex, out: &mut Vec<Diagnostic>) {
    determinism::check(file, out);
    panic_freedom::check(file, items, out);
    file_budget::check(file, out);
    shard_discipline::check(file, out);
    alloc::check(file, out);
}

/// Runs the interprocedural rule families over the analyzed workspace.
pub fn check_graph(a: &Analysis, out: &mut Vec<Diagnostic>) {
    durability::check(a, out);
    affinity::check(a, out);
    panic_path::check(a, out);
    typestate::check(a, out);
    unbounded_retry::check(a, out);
}
