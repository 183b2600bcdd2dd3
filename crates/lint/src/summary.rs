//! Per-function effect summaries with a **must/may split**, propagated
//! along the call graph and grounded on each function's CFG.
//!
//! Each function gets a [`Summary`] in two halves:
//!
//! * **may-facts** — what *some* path does: append to the journal,
//!   discard or apply cache bytes, charge the crash fuse, panic.
//!   Collected as unions over the reachable blocks; unreachable code
//!   contributes nothing.
//! * **must-facts** (`appends_all`, `fuse_all`) — what *every* path
//!   reaching the function's exit does, computed by a forward
//!   must-analysis (meet = conjunction) over the CFG
//!   ([`crate::dataflow`]). At a call site only a callee's must-facts
//!   establish ordering state for the caller: "this call appends" is
//!   sound only if the callee appends on all of *its* paths.
//!
//! On top of the split, two **ordered exposures** capture the
//! §9-relevant shapes a callee can leak to its caller:
//!
//! * `exposed_discard` — on some path a discard happens with no journal
//!   append before it (the caller must provide the append first, or
//!   recovery maps freed space);
//! * `exposed_unfused_effect` — on some path a durable effect happens
//!   with no crash-fuse charge before it.
//!
//! Alongside the summaries, [`NodeFacts`] records for every event
//! whether an append/fuse *must* have happened before it on every path —
//! the per-event facts the durability rule and witness descent consume.
//!
//! Summaries are computed to a fixpoint: all facts are monotone
//! booleans, so iteration terminates. Calls to the protocol primitives
//! themselves (`append_journal_sync`, `fuse_consume`, `journal_op`,
//! `data_op`) and to the durable-effect / device-I/O method names are
//! classified *by name* — they are the protocol's anchor vocabulary —
//! and are not expanded through their resolved bodies: the primitives
//! implement the gate rather than being checked against it.

use crate::callgraph::{CallGraph, FnId};
use crate::cfg::{BlockId, Cfg};
use crate::config;
use crate::dataflow;
use crate::items::{Event, EventKind, ItemIndex};
use crate::source::SourceFile;

/// What one function may — and must — do, transitively.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Summary {
    /// May call `append_journal_sync` on some path.
    pub appends: bool,
    /// Calls `append_journal_sync` on **every** path reaching exit.
    pub appends_all: bool,
    /// May call the batched `journal_op` planner.
    pub journal_op: bool,
    /// May call the `data_op` plan constructor.
    pub data_op: bool,
    /// May charge the crash fuse.
    pub fuse: bool,
    /// Charges the crash fuse on **every** path reaching exit.
    pub fuse_all: bool,
    /// May panic (unwrap/expect/panic-macro/indexing site reachable).
    pub panics: bool,
    /// Some path discards before any journal append covers it.
    pub exposed_discard: bool,
    /// Some path performs a durable effect before any fuse charge.
    pub exposed_unfused_effect: bool,
}

/// Per-event must-facts for one function: has an append / fuse charge
/// happened on **every** path reaching each event? Unreachable events
/// are vacuously covered (no path reaches them at all).
#[derive(Debug, Default, Clone)]
pub struct NodeFacts {
    /// `append_journal_sync` on every path before event `k`.
    pub appended_before: Vec<bool>,
    /// `fuse_consume` on every path before event `k`.
    pub fused_before: Vec<bool>,
    /// Event `k` sits in a block reachable from the entry.
    pub reachable: Vec<bool>,
}

/// Cost counters for the analysis, reported by `--bench`.
#[derive(Debug, Default)]
pub struct Stats {
    /// Functions with a CFG (call-graph nodes).
    pub functions: usize,
    /// Total basic blocks across all CFGs.
    pub blocks: usize,
    /// Total CFG edges.
    pub edges: usize,
    /// Outer passes of the interprocedural summary fixpoint.
    pub summary_passes: usize,
    /// Worklist iterations across every intra-function dataflow solve
    /// (summary phase plus the flow-sensitive rules).
    pub dataflow_iterations: std::cell::Cell<usize>,
    /// Shard-state accesses classified by the alias layer
    /// ([`crate::alias`]) across all functions.
    pub alias_facts: std::cell::Cell<usize>,
}

impl Stats {
    /// Adds intra-function worklist iterations to the running total.
    pub fn add_iterations(&self, n: usize) {
        self.dataflow_iterations
            .set(self.dataflow_iterations.get() + n);
    }

    /// Adds alias-layer access classifications to the running total.
    pub fn add_alias_facts(&self, n: usize) {
        self.alias_facts.set(self.alias_facts.get() + n);
    }
}

/// The fully analyzed workspace: parsed files, items, CFGs, graph,
/// summaries, and per-event facts.
pub struct Analysis<'a> {
    /// The parsed files, in walk order.
    pub files: &'a [SourceFile],
    /// Item index per file (parallel to `files`).
    pub items: &'a [ItemIndex],
    /// The call graph over the non-test library functions.
    pub graph: CallGraph,
    /// Control-flow graph per graph node.
    pub cfgs: Vec<Cfg>,
    /// Fixpoint summaries, one per graph node.
    pub summaries: Vec<Summary>,
    /// Per-event must-facts, one per graph node.
    pub facts: Vec<NodeFacts>,
    /// Analysis cost counters.
    pub stats: Stats,
}

/// Resolved targets of a call event. Protocol-anchor names resolve to
/// nothing: they are vocabulary classified by name, never expanded.
pub fn call_targets<'a>(graph: &'a CallGraph, ev: &Event) -> &'a [FnId] {
    let EventKind::Call { name, .. } = &ev.kind else {
        return &[];
    };
    if is_protocol_name(name) {
        return &[];
    }
    graph.resolve(name)
}

/// True for the protocol's anchor vocabulary — classified by name, never
/// expanded through resolution.
pub fn is_protocol_name(name: &str) -> bool {
    name == config::JOURNAL_SYNC_FN
        || name == config::JOURNAL_BATCH_FN
        || name == config::DATA_OP_FN
        || name == config::FUSE_FN
        || config::DEVICE_IO_FNS.contains(&name)
}

/// Applies one event's effect to a `(appended, fused)` must-fact pair.
/// Only callee **must**-facts establish state — a callee that appends on
/// some path establishes nothing for the caller's ordering.
fn apply_event(
    id: FnId,
    ev: &Event,
    graph: &CallGraph,
    summaries: &[Summary],
    fact: (bool, bool),
) -> (bool, bool) {
    let (mut appended, mut fused) = fact;
    if let EventKind::Call { name, .. } = &ev.kind {
        let n = name.as_str();
        if n == config::JOURNAL_SYNC_FN {
            appended = true;
        } else if n == config::FUSE_FN {
            fused = true;
        } else if !is_protocol_name(n) {
            for &callee in graph.resolve(n) {
                if callee != id {
                    appended |= summaries[callee].appends_all;
                    fused |= summaries[callee].fuse_all;
                }
            }
        }
    }
    (appended, fused)
}

/// Computes all summaries and per-event facts to fixpoint.
pub fn compute(
    items: &[ItemIndex],
    graph: &CallGraph,
    cfgs: &[Cfg],
    stats: &mut Stats,
) -> (Vec<Summary>, Vec<NodeFacts>) {
    let mut summaries = vec![Summary::default(); graph.len()];
    let mut facts = vec![NodeFacts::default(); graph.len()];
    // Monotone facts over finite universes: iterate until stable. The
    // iteration count is bounded by the number of facts that can flip,
    // but a hard cap keeps pathological inputs from stalling the linter.
    for _ in 0..graph.len().max(4) {
        stats.summary_passes += 1;
        let mut changed = false;
        for id in 0..graph.len() {
            let (next, nf) = recompute(id, items, graph, cfgs, &summaries, stats);
            if next != summaries[id] {
                summaries[id] = next;
                changed = true;
            }
            facts[id] = nf;
        }
        if !changed {
            break;
        }
    }
    (summaries, facts)
}

/// One function's summary from its CFG, direct events, and current
/// callee summaries.
fn recompute(
    id: FnId,
    items: &[ItemIndex],
    graph: &CallGraph,
    cfgs: &[Cfg],
    summaries: &[Summary],
    stats: &Stats,
) -> (Summary, NodeFacts) {
    let (fi, ni) = graph.nodes[id];
    let f = &items[fi].fns[ni];
    let cfg = &cfgs[id];
    // Forward must-analysis: (appended-on-every-path, fused-on-every-path).
    let sol = dataflow::forward(
        cfg,
        (false, false),
        (true, true),
        |a, b| (a.0 && b.0, a.1 && b.1),
        |b, fact| {
            let mut fact = *fact;
            for &e in &cfg.blocks[b].events {
                fact = apply_event(id, &f.events[e], graph, summaries, fact);
            }
            fact
        },
    );
    stats.add_iterations(sol.iterations);

    let reach = cfg.reachable();
    let mut s = Summary {
        appends_all: sol.entry[cfg.exit].0,
        fuse_all: sol.entry[cfg.exit].1,
        ..Summary::default()
    };
    let mut nf = NodeFacts {
        appended_before: vec![true; f.events.len()],
        fused_before: vec![true; f.events.len()],
        reachable: vec![false; f.events.len()],
    };
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        let mut fact = sol.entry[b];
        for &e in &blk.events {
            let ev = &f.events[e];
            nf.appended_before[e] = fact.0;
            nf.fused_before[e] = fact.1;
            nf.reachable[e] = true;
            match &ev.kind {
                EventKind::Panic { .. } => s.panics = true,
                EventKind::Intent => {}
                EventKind::Call { name, method } => {
                    let n = name.as_str();
                    match n {
                        _ if n == config::JOURNAL_SYNC_FN => s.appends = true,
                        _ if n == config::JOURNAL_BATCH_FN => s.journal_op = true,
                        _ if n == config::DATA_OP_FN => s.data_op = true,
                        _ if n == config::FUSE_FN => s.fuse = true,
                        _ if *method && config::DURABLE_EFFECT_FNS.contains(&n) => {
                            if n == "discard" && !fact.0 {
                                s.exposed_discard = true;
                            }
                            if !fact.1 {
                                s.exposed_unfused_effect = true;
                            }
                        }
                        _ if is_protocol_name(n) => {}
                        _ => {
                            for &callee in graph.resolve(n) {
                                if callee == id {
                                    continue;
                                }
                                let c = &summaries[callee];
                                if c.exposed_discard && !fact.0 {
                                    s.exposed_discard = true;
                                }
                                if c.exposed_unfused_effect && !fact.1 {
                                    s.exposed_unfused_effect = true;
                                }
                                s.appends |= c.appends;
                                s.journal_op |= c.journal_op;
                                s.data_op |= c.data_op;
                                s.panics |= c.panics;
                            }
                        }
                    }
                    s.fuse |= fact.1;
                }
            }
            fact = apply_event(id, ev, graph, summaries, fact);
        }
    }
    s.fuse |= s.fuse_all;
    s.appends |= s.appends_all;
    (s, nf)
}

impl<'a> Analysis<'a> {
    /// Builds CFGs, graph, summaries, and facts over parsed files + items.
    pub fn build(files: &'a [SourceFile], items: &'a [ItemIndex]) -> Analysis<'a> {
        let graph = CallGraph::build(files, items);
        let mut stats = Stats::default();
        let cfgs: Vec<Cfg> = graph
            .nodes
            .iter()
            .map(|&(fi, ni)| {
                let f = &items[fi].fns[ni];
                Cfg::build(&files[fi], f, &f.nested)
            })
            .collect();
        stats.functions = cfgs.len();
        stats.blocks = cfgs.iter().map(|c| c.blocks.len()).sum();
        stats.edges = cfgs
            .iter()
            .flat_map(|c| c.blocks.iter())
            .map(|b| b.succs.len())
            .sum();
        let (summaries, facts) = compute(items, &graph, &cfgs, &mut stats);
        Analysis {
            files,
            items,
            graph,
            cfgs,
            summaries,
            facts,
            stats,
        }
    }

    /// The [`crate::items::FnItem`] behind a node id.
    pub fn fn_item(&self, id: FnId) -> &crate::items::FnItem {
        let (fi, ni) = self.graph.nodes[id];
        &self.items[fi].fns[ni]
    }

    /// File index of a node.
    pub fn file_of(&self, id: FnId) -> &SourceFile {
        &self.files[self.graph.nodes[id].0]
    }

    /// Renders one `file:line fn` chain step.
    pub fn step(&self, id: FnId, line: u32) -> String {
        format!(
            "{}:{} fn {}",
            self.file_of(id).rel,
            line,
            self.fn_item(id).name
        )
    }

    /// Renders a block path through one function as a witness line:
    /// `path through fn name: entry@12 -> then@14 -> exit`.
    pub fn path_trace(&self, id: FnId, path: &[BlockId]) -> String {
        let cfg = &self.cfgs[id];
        let steps: Vec<String> = path
            .iter()
            .map(|&b| {
                let blk = &cfg.blocks[b];
                if blk.line > 0 {
                    format!("{}@{}", blk.label, blk.line)
                } else {
                    blk.label.to_string()
                }
            })
            .collect();
        format!(
            "path through fn {}: {}",
            self.fn_item(id).name,
            steps.join(" -> ")
        )
    }

    /// Finds a deterministic witness chain from `start` to the first
    /// direct event matching `pred`, following call edges through
    /// functions for which `via` holds. Returns rendered chain steps
    /// ending at the witness line, or an empty chain if none is found
    /// (the summaries promised one, so this is defensive).
    pub fn witness<F, G>(&self, start: FnId, pred: F, via: G) -> Vec<String>
    where
        F: Fn(&Analysis<'a>, FnId) -> Option<u32>,
        G: Fn(&Summary) -> bool,
    {
        let mut chain = Vec::new();
        let mut cur = start;
        let mut seen = std::collections::BTreeSet::new();
        loop {
            if !seen.insert(cur) {
                return chain; // cycle: stop with what we have
            }
            if let Some(line) = pred(self, cur) {
                chain.push(self.step(cur, line));
                return chain;
            }
            // Descend into the first callee (source order) whose summary
            // still promises the witness.
            let (fi, ni) = self.graph.nodes[cur];
            let mut next = None;
            'events: for ev in &self.items[fi].fns[ni].events {
                for &callee in call_targets(&self.graph, ev) {
                    if callee != cur && via(&self.summaries[callee]) {
                        chain.push(self.step(cur, ev.line));
                        next = Some(callee);
                        break 'events;
                    }
                }
            }
            match next {
                Some(n) => cur = n,
                None => return chain,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use std::path::PathBuf;

    fn analyze(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<ItemIndex>) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::parse(PathBuf::from(rel), rel.to_string(), src))
            .collect();
        let idx = files.iter().map(items::index).collect();
        (files, idx)
    }

    fn summary_of<'a>(a: &'a Analysis<'_>, name: &str) -> &'a Summary {
        let id = a
            .graph
            .nodes
            .iter()
            .position(|&(fi, ni)| a.items[fi].fns[ni].name == name)
            .unwrap();
        &a.summaries[id]
    }

    #[test]
    fn effects_propagate_transitively() {
        let (files, idx) = analyze(&[
            (
                "crates/core/src/a.rs",
                "pub fn top() { mid_layer(); }\nfn mid_layer() { leaf_effect(); }",
            ),
            (
                "crates/core/src/b.rs",
                "fn leaf_effect(c: &mut C) { c.apply_bytes(1, 2, 3, None); }",
            ),
        ]);
        let a = Analysis::build(&files, &idx);
        let top = summary_of(&a, "top");
        assert!(
            top.exposed_unfused_effect,
            "apply_bytes two hops down, no fuse anywhere on the path"
        );
    }

    #[test]
    fn exposed_discard_clears_when_append_precedes() {
        let (files, idx) = analyze(&[(
            "crates/core/src/a.rs",
            "fn safe(c: &mut C) { append_journal_sync(&[]); c.discard(1, 2, 3); }\n\
             fn exposed(c: &mut C) { c.discard(1, 2, 3); append_journal_sync(&[]); }\n\
             fn caller_safe(c: &mut C) { append_journal_sync(&[]); helper_d(c); }\n\
             fn helper_d(c: &mut C) { fuse_consume(1); c.discard(1, 2, 3); }",
        )]);
        let a = Analysis::build(&files, &idx);
        assert!(!summary_of(&a, "safe").exposed_discard);
        assert!(summary_of(&a, "exposed").exposed_discard);
        assert!(summary_of(&a, "helper_d").exposed_discard);
        assert!(
            !summary_of(&a, "caller_safe").exposed_discard,
            "the caller's append covers the callee's exposed discard"
        );
        assert!(
            !summary_of(&a, "helper_d").exposed_unfused_effect,
            "helper fuses its own effect"
        );
    }

    #[test]
    fn must_facts_require_every_path() {
        let (files, idx) = analyze(&[(
            "crates/core/src/a.rs",
            "fn one_arm(c: &mut C, x: bool) { if x { append_journal_sync(&[]); } }\n\
             fn both_arms(c: &mut C, x: bool) { if x { append_journal_sync(&[]); } \
                else { append_journal_sync(&[]); } }\n\
             fn via_branchy(c: &mut C, x: bool) { one_arm(c, x); c.discard(1, 2, 3); }\n\
             fn via_total(c: &mut C, x: bool) { both_arms(c, x); c.discard(1, 2, 3); }",
        )]);
        let a = Analysis::build(&files, &idx);
        let one = summary_of(&a, "one_arm");
        assert!(one.appends && !one.appends_all, "append on some path only");
        let both = summary_of(&a, "both_arms");
        assert!(both.appends_all, "append on every path");
        assert!(
            summary_of(&a, "via_branchy").exposed_discard,
            "a some-path append does not cover the discard after the call"
        );
        assert!(
            !summary_of(&a, "via_total").exposed_discard,
            "an all-paths append covers the discard after the call"
        );
    }

    #[test]
    fn branch_local_append_does_not_cover_the_other_arm() {
        let (files, idx) = analyze(&[(
            "crates/core/src/a.rs",
            "fn hidden(c: &mut C, x: bool) { if x { append_journal_sync(&[]); } \
                else { c.discard(1, 2, 3); } }\n\
             fn guarded(c: &mut C, x: bool) { if x { append_journal_sync(&[]); \
                c.discard(1, 2, 3); } }",
        )]);
        let a = Analysis::build(&files, &idx);
        assert!(
            summary_of(&a, "hidden").exposed_discard,
            "the append on the sibling arm covers nothing"
        );
        assert!(
            !summary_of(&a, "guarded").exposed_discard,
            "append and discard on the same branch are ordered"
        );
    }

    #[test]
    fn panic_propagates_and_witness_chains() {
        let (files, idx) = analyze(&[
            ("crates/core/src/a.rs", "pub fn api() { helper_p(); }"),
            (
                "crates/sim/src/b.rs",
                "pub fn helper_p() { deep_p(); }\nfn deep_p(x: Option<u32>) { x.unwrap(); }",
            ),
        ]);
        let a = Analysis::build(&files, &idx);
        assert!(summary_of(&a, "api").panics);
        let api = a
            .graph
            .nodes
            .iter()
            .position(|&(fi, ni)| a.items[fi].fns[ni].name == "api")
            .unwrap();
        let chain = a.witness(
            api,
            |a, id| {
                a.fn_item(id).events.iter().find_map(|e| match e.kind {
                    EventKind::Panic { .. } => Some(e.line),
                    _ => None,
                })
            },
            |s| s.panics,
        );
        assert_eq!(chain.len(), 3, "api → helper_p → deep_p panic: {chain:?}");
        assert!(chain[2].contains("fn deep_p"));
    }

    #[test]
    fn unreachable_effects_are_invisible() {
        let (files, idx) = analyze(&[(
            "crates/core/src/a.rs",
            "fn dead_code(c: &mut C) { return; c.discard(1, 2, 3); }",
        )]);
        let a = Analysis::build(&files, &idx);
        assert!(
            !summary_of(&a, "dead_code").exposed_discard,
            "no path reaches the discard"
        );
    }
}
