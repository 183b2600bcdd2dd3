//! # s4d-lint — workspace-aware static analysis for S4D-Cache
//!
//! A self-contained (dependency-free) source analyzer enforcing the
//! invariant families the middleware's correctness arguments rest on.
//! Since PR 5 the analysis is **interprocedural**: a shallow item parser
//! ([`items`]) extracts function definitions and their ordered events
//! from the lexed stream, a conservative name-resolved call graph
//! ([`callgraph`]) links them workspace-wide, and per-function effect
//! summaries ([`summary`]) propagate along the edges — so the protocol
//! rules see through helper functions instead of stopping at each
//! function's own tokens.
//!
//! | rule family | ids | why |
//! |-------------|-----|-----|
//! | determinism | `determinism`, `ordered-iter` | the crash-matrix harness and replay proptests compare byte-for-byte; banning threads and locks in every crate that issues device I/O also makes lock discipline hold by construction |
//! | panic-freedom | `panic`, `panic-path` | the middleware sits on every I/O path; `panic` flags sites lexically, `panic-path` reports the transitive panic surface of the public API with witness call chains |
//! | durability protocol | `durability` | DESIGN.md §9 write ordering keeps crashes recoverable — checked along call paths via effect summaries |
//! | concurrency readiness | `shard-affinity`, `hot-alloc` | shard mutations must be router-dominated ([`alias`]), and hot-path allocations are ratcheted down before real concurrency lands |
//! | file budget | `file-budget` | a module past 800 non-test lines means a missed component seam (DESIGN.md §12) |
//!
//! Plus `pragma` for allow-pragma hygiene. Run with:
//!
//! ```text
//! cargo run -p s4d-lint -- --workspace                # human-readable
//! cargo run -p s4d-lint -- --workspace --format=json  # one JSON object per finding
//! ```
//!
//! Suppress a finding only with a justified pragma:
//!
//! ```text
//! // s4d-lint: allow(panic) — index is the loop bound, < len by construction
//! ```
//!
//! See `DESIGN.md` §10 for the full rule catalogue and the
//! conservative-resolution caveats (mirrored in [`config`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod callgraph;
pub mod cfg;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod source;
pub mod summary;

pub use diag::{Diagnostic, Severity};
pub use engine::{lint_files, lint_paths, lint_workspace, Report};
pub use source::SourceFile;
pub use summary::Analysis;
