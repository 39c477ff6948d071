//! The parser layer over [`crate::lexer`]: function items and call
//! sites, assembled into a workspace-wide call graph.
//!
//! Still deliberately not a full parser — the lexer's token stream
//! plus brace depths carry enough structure to recognise `fn NAME`
//! items, bracket their bodies, and pick out `name(…)` / `.name(…)`
//! call shapes. That is what the interprocedural rules in
//! [`crate::rules`] need: *which function's body am I in, and which
//! functions does it call*.
//!
//! ## Resolution policy (explicit, and reported in findings)
//!
//! Calls resolve **by name** against every `fn` item in the workspace,
//! with three carve-outs:
//!
//! - Sources under `crates/shims/` never *define* resolution targets:
//!   the shims are API stand-ins for external crates, and their
//!   internals (a condvar inside a `RwLock` shim, say) are modelled by
//!   the rules' primitive vocabulary, not traced.
//! - [`PRIMITIVE_CALLS`] — lock acquisition, condvar waits, channel
//!   receives, `unwrap`/`expect` and friends — are likewise primitives:
//!   the direct token-pattern rules understand them natively, so a
//!   workspace `fn wait` or `fn lock` never hijacks them.
//! - [`STD_CONTAINER_CALLS`] — `resize`, `push` and the other std
//!   container mutators. The overwhelming majority of `.push(…)` /
//!   `.resize(…)` shapes in this workspace are `Vec` operations; a
//!   same-named workspace `fn` (the broker's shard-count `resize`,
//!   say) would otherwise inherit *every* such call site and spray its
//!   maintenance-path effects across the hot path.
//!
//! When one name has **several** definitions, the call is ambiguous.
//! The policy: an ambiguous call propagates only the effects **common
//! to every candidate**, and any finding whose chain crosses the
//! ambiguity says so (`name (×N defs)`). A unique name propagates its
//! definition's full summary. This trades a little recall at ambiguous
//! names for not drowning the report in `get`/`len`-style collisions —
//! and the trade is printed, never silent.

use std::collections::HashMap;

use crate::lexer::{Lexed, Tok, TokKind};

/// Method/function names the call graph refuses to resolve: they are
/// the rules' *primitive* vocabulary (lock acquisition, blocking
/// operations, panic constructs), matched as token patterns where they
/// occur. Resolving them against same-named workspace `fn`s would
/// double-count at best and misattribute at worst.
pub const PRIMITIVE_CALLS: &[&str] = &[
    "read",
    "write",
    "lock",
    "try_read",
    "try_write",
    "try_lock",
    "wait",
    "wait_for",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "try_recv",
    "join",
    "sleep",
    "send",
    "unwrap",
    "expect",
    "clone",
    "drop",
];

/// Std container/slice mutator names the call graph refuses to
/// resolve: nearly every such call shape is a `Vec`/`VecDeque`/map
/// operation, so a coincidentally same-named workspace `fn` would
/// inherit thousands of unrelated call sites. Names with *many*
/// workspace definitions (`get`, `len`, `insert`, …) stay resolvable —
/// the ambiguity intersection already defuses them; this list is for
/// the dangerous low-definition-count collisions.
pub const STD_CONTAINER_CALLS: &[&str] = &[
    "resize", "push", "pop", "extend", "reserve", "truncate", "retain",
];

/// Keywords that look like `name(` call shapes but are control flow.
const NON_CALL_KEYWORDS: &[&str] = &["if", "while", "for", "match", "return", "loop", "fn"];

/// One `fn` item: where it is and which tokens form its body.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Index into the workspace file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's `{`.
    pub open: usize,
    /// Token index of the matching `}`.
    pub close: usize,
    /// Token ranges (inclusive) of `fn` items nested inside this body —
    /// skipped when walking it, so a nested helper's effects are its
    /// own, not its textual parent's. Closure bodies are *not* skipped:
    /// a closure belongs to the function that wrote it.
    pub skips: Vec<(usize, usize)>,
}

impl FnItem {
    /// Does token index `i` belong to this body proper (inside the
    /// braces, outside any nested `fn`)?
    pub fn owns(&self, i: usize) -> bool {
        i > self.open && i < self.close && !self.skips.iter().any(|&(s, e)| i >= s && i <= e)
    }
}

/// One `name(…)` / `.name(…)` call shape inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Index into [`CallGraph::fns`] of the enclosing function.
    pub caller: usize,
    /// Index into the workspace file list (same as the caller's).
    pub file: usize,
    /// 1-based line of the callee name.
    pub line: u32,
    /// Token index of the callee name.
    pub tok: usize,
    pub callee: String,
}

/// The workspace call graph: every `fn` item, every call site, and the
/// name-resolution table.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnItem>,
    pub calls: Vec<CallSite>,
    /// Per-function indexes into [`CallGraph::calls`].
    pub calls_of: Vec<Vec<usize>>,
    /// Resolution table: name → definitions (shims and primitives
    /// excluded). Sorted by (file, line) so ambiguity is deterministic.
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// The definitions a call to `name` resolves to; empty for
    /// externals and primitives.
    pub fn resolve(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Is this file a dependency shim (API stand-in, not traced)?
fn is_shim(label: &str) -> bool {
    label.starts_with("crates/shims/") || label.contains("/crates/shims/")
}

/// Builds the call graph over the lexed workspace. `files` pairs each
/// file's label with its token stream; indexes into it are the `file`
/// fields everywhere else.
pub fn build(files: &[(&str, &Lexed)]) -> CallGraph {
    let mut graph = CallGraph::default();
    for (file_idx, (_, lexed)) in files.iter().enumerate() {
        collect_fns(file_idx, lexed, &mut graph.fns);
    }
    // Nested-fn skip ranges: a body strictly inside another body (same
    // file) is carved out of the outer walk.
    let spans: Vec<(usize, usize, usize)> = graph
        .fns
        .iter()
        .map(|f| (f.file, f.open, f.close))
        .collect();
    for f in &mut graph.fns {
        f.skips = spans
            .iter()
            .filter(|&&(file, open, close)| file == f.file && open > f.open && close < f.close)
            .map(|&(_, open, close)| (open, close))
            .collect();
    }
    for (fn_idx, item) in graph.fns.iter().enumerate() {
        if !is_shim(files[item.file].0)
            && !PRIMITIVE_CALLS.contains(&item.name.as_str())
            && !STD_CONTAINER_CALLS.contains(&item.name.as_str())
        {
            graph
                .by_name
                .entry(item.name.clone())
                .or_default()
                .push(fn_idx);
        }
    }
    // Call sites, attributed to the innermost enclosing fn via `owns`.
    graph.calls_of = vec![Vec::new(); graph.fns.len()];
    for (fn_idx, item) in graph.fns.iter().enumerate() {
        let toks = &files[item.file].1.tokens;
        for i in (item.open + 1)..item.close {
            if !item.owns(i) {
                continue;
            }
            let Some(callee) = call_shape(toks, i) else {
                continue;
            };
            graph.calls_of[fn_idx].push(graph.calls.len());
            graph.calls.push(CallSite {
                caller: fn_idx,
                file: item.file,
                line: toks[i].line,
                tok: i,
                callee: callee.to_owned(),
            });
        }
    }
    graph
}

/// The callee name if token `i` is a call shape: ident directly
/// followed by `(`, not a definition (`fn name(`), not a macro
/// (`name!(`), not a keyword, not a numeric "ident".
fn call_shape(toks: &[Tok], i: usize) -> Option<&str> {
    let name = toks[i].ident()?;
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    if NON_CALL_KEYWORDS.contains(&name) {
        return None;
    }
    if toks.get(i + 1).is_none_or(|t| !t.is_punct('(')) {
        return None;
    }
    if i > 0 && toks[i - 1].ident() == Some("fn") {
        return None;
    }
    Some(name)
}

/// Scans one file's tokens for `fn NAME … { … }` items.
fn collect_fns(file: usize, lexed: &Lexed, out: &mut Vec<FnItem>) {
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].ident() != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(Tok::ident) else {
            i += 1; // `fn(` pointer type or malformed
            continue;
        };
        let fn_depth = toks[i].depth;
        // The body `{` is the first brace back at the fn's own depth;
        // a `;` there instead means a bodyless declaration.
        let mut j = i + 2;
        let mut open = None;
        while let Some(tok) = toks.get(j) {
            if tok.depth < fn_depth {
                break; // enclosing block closed: no body
            }
            if tok.depth == fn_depth {
                match tok.kind {
                    TokKind::Punct('{') => {
                        open = Some(j);
                        break;
                    }
                    TokKind::Punct(';') => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 2;
            continue;
        };
        // Matching `}`: first close brace that returns to fn depth.
        let mut close = None;
        let mut k = open + 1;
        while let Some(tok) = toks.get(k) {
            if tok.kind == TokKind::Punct('}') && tok.depth == fn_depth + 1 {
                close = Some(k);
                break;
            }
            k += 1;
        }
        let Some(close) = close else {
            break; // unterminated body runs to EOF; nothing to bracket
        };
        out.push(FnItem {
            name: name.to_owned(),
            file,
            line: toks[i].line,
            open,
            close,
            skips: Vec::new(),
        });
        // Continue *inside* the body: nested fns are items too.
        i = open + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph_of(sources: &[(&str, &str)]) -> (CallGraph, Vec<Lexed>) {
        let lexed: Vec<Lexed> = sources.iter().map(|(_, s)| lex(s)).collect();
        let files: Vec<(&str, &Lexed)> = sources
            .iter()
            .zip(&lexed)
            .map(|((label, _), l)| (*label, l))
            .collect();
        (build(&files), lexed)
    }

    #[test]
    fn fns_and_calls_are_found_and_attributed() {
        let src = "
            fn outer(&self) {
                helper(1);
                fn nested() { inner_only(); }
                self.method_call(2);
            }
            fn helper(x: u32) {}
        ";
        let (graph, _) = graph_of(&[("a.rs", src)]);
        let names: Vec<&str> = graph.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "nested", "helper"]);
        let outer_calls: Vec<&str> = graph.calls_of[0]
            .iter()
            .map(|&c| graph.calls[c].callee.as_str())
            .collect();
        assert_eq!(outer_calls, vec!["helper", "method_call"]);
        let nested_calls: Vec<&str> = graph.calls_of[1]
            .iter()
            .map(|&c| graph.calls[c].callee.as_str())
            .collect();
        assert_eq!(nested_calls, vec!["inner_only"]);
    }

    #[test]
    fn resolution_skips_shims_primitives_and_keywords() {
        let (graph, _) = graph_of(&[
            ("crates/shims/fake/src/lib.rs", "fn helper() {}"),
            ("crates/x/src/lib.rs", "fn wait() {} fn real_helper() {}"),
        ]);
        assert!(
            graph.resolve("helper").is_empty(),
            "shim fns do not resolve"
        );
        assert!(
            graph.resolve("wait").is_empty(),
            "primitives do not resolve"
        );
        assert_eq!(graph.resolve("real_helper").len(), 1);
    }

    #[test]
    fn macros_declarations_and_fn_pointers_are_not_calls() {
        let src = "
            fn f(cb: fn(u32) -> u32) {
                println!(\"not a call site\");
                if cond(1) { g(); }
            }
            fn g();
        ";
        let (graph, _) = graph_of(&[("a.rs", src)]);
        assert_eq!(graph.fns.len(), 1, "bodyless fn g(); declares nothing");
        let calls: Vec<&str> = graph.calls_of[0]
            .iter()
            .map(|&c| graph.calls[c].callee.as_str())
            .collect();
        assert_eq!(calls, vec!["cond", "g"]);
    }

    #[test]
    fn ambiguous_names_resolve_to_every_definition() {
        let (graph, _) = graph_of(&[
            ("a.rs", "fn twice() { one(); }"),
            ("b.rs", "fn twice() { two(); }"),
        ]);
        assert_eq!(graph.resolve("twice").len(), 2);
    }
}
