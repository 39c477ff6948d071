//! Per-function **effect summaries** and their transitive closure over
//! the call graph.
//!
//! Each function gets three facts the interprocedural rules care
//! about:
//!
//! - **named global locks acquired** — `receiver.read()/.write()/
//!   .lock()` where the receiver is one of the broker-global lock
//!   fields ([`crate::rules::GLOBAL_LOCKS`], the `lock_classes`
//!   vocabulary);
//! - **panic sites** — `.unwrap()` / `.expect()` / `panic!`-family
//!   macros;
//! - **blocking operations** — condvar waits, channel receives, a
//!   zero-argument `.join()`, `sleep(…)`, and a
//!   `DeliveryPolicy::Block { .. }` match arm (the blocking-enqueue
//!   implementation marker).
//!
//! A `// lint: allow(rule, reason = "…")` covering a site removes the
//! effect at the source: the written justification holds for every
//! caller, so nothing propagates. Likewise an allow at a *call site*
//! stops that callee's effects from flowing into the caller — one
//! documented suppression quiets the whole chain above it, instead of
//! demanding an allow per transitive caller.
//!
//! Propagation is a fixpoint over the call graph (monotone — effects
//! only ever appear — so recursion and mutual recursion terminate).
//! Every inherited effect remembers *which call* it came through;
//! walking those links back to the direct site yields the call chain
//! findings print. Ambiguous names (several same-named definitions)
//! propagate only the effects common to all candidates — see the
//! policy note on [`crate::callgraph`].

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::{GLOBAL_LOCKS, PANIC_MACROS, PANIC_METHODS};

/// Blocking **method** names (`.name(…)` shapes): condvar waits and
/// channel receives. `try_*` variants are non-blocking by contract and
/// absent on purpose.
pub const BLOCKING_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
    "recv",
    "recv_timeout",
    "recv_deadline",
];

/// Where an effect entered a function's summary.
#[derive(Debug, Clone)]
pub enum Origin {
    /// The construct itself, in this function's body.
    Direct {
        file: usize,
        line: u32,
        /// Rendered construct, e.g. `directory.write()` or
        /// `.unwrap()`.
        what: String,
    },
    /// Inherited through a call.
    Via {
        /// Call-site line in *this* function.
        line: u32,
        /// The candidate definition the chain continues through.
        callee: usize,
        /// Number of same-named definitions the call resolved to
        /// (1 = unique).
        ambiguous: usize,
    },
}

/// One function's (eventually transitive) effect summary.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    /// Global lock name → how this function comes to acquire it.
    pub locks: BTreeMap<String, Origin>,
    /// A representative panic site, if any path panics.
    pub panics: Option<Origin>,
    /// A representative blocking operation, if any path blocks.
    pub blocks: Option<Origin>,
}

/// Rule names the allow-filter is consulted under, one per effect
/// kind. An allow for the matching rule at an effect's (or call's)
/// line strips that effect.
pub const LOCK_RULE: &str = "hot-path-locking";
pub const PANIC_RULE: &str = "panic-policy";
pub const BLOCK_RULE: &str = "blocking-while-locked";

/// `receiver.method(` at token `i` (pointing at `method`): the
/// receiver ident.
pub fn method_receiver(toks: &[Tok], i: usize) -> Option<&str> {
    if i < 2 || !toks[i - 1].is_punct('.') {
        return None;
    }
    if toks.get(i + 1).is_none_or(|t| !t.is_punct('(')) {
        return None;
    }
    toks[i - 2].ident()
}

/// Is token `i` a `.method(` call on any receiver?
pub fn is_method_call(toks: &[Tok], i: usize) -> bool {
    i >= 1 && toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Classifies token `i` as a direct blocking operation, returning a
/// rendering for messages. The shapes:
/// - `.wait(…)` / `.recv(…)` family method calls ([`BLOCKING_METHODS`]);
/// - `sleep(…)` in call position (bare or `thread::sleep`);
/// - a zero-argument `.join()` — thread join; `join(sep)` on slices and
///   paths takes arguments and is excluded;
/// - `Block { … } =>` — a match arm implementing the blocking-enqueue
///   delivery policy.
pub fn blocking_op(toks: &[Tok], i: usize) -> Option<String> {
    let name = toks[i].ident()?;
    if BLOCKING_METHODS.contains(&name) && is_method_call(toks, i) {
        return Some(format!(".{name}(…)"));
    }
    if name == "sleep" && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return Some("sleep(…)".into());
    }
    if name == "join" && is_method_call(toks, i) && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
    {
        return Some(".join()".into());
    }
    if name == "Block" && toks.get(i + 1).is_some_and(|t| t.is_punct('{')) {
        // Only the *match arm* (`Block { … } =>`) marks a blocking
        // enqueue; constructing the policy value blocks nothing.
        let depth = toks[i + 1].depth;
        let mut j = i + 2;
        while let Some(tok) = toks.get(j) {
            if tok.kind == TokKind::Punct('}') && tok.depth == depth + 1 {
                if toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct('>'))
                {
                    return Some("Block { .. } enqueue arm".into());
                }
                return None;
            }
            j += 1;
        }
        return None;
    }
    None
}

/// Extracts every function's **direct** effects. `allowed(file, rule,
/// line)` is the suppression oracle (an allow with a written reason
/// covering that line).
pub fn direct_effects(
    files: &[(&str, &Lexed)],
    graph: &CallGraph,
    allowed: &dyn Fn(usize, &str, u32) -> bool,
) -> Vec<Effects> {
    let mut out = vec![Effects::default(); graph.fns.len()];
    for (fn_idx, item) in graph.fns.iter().enumerate() {
        let toks = &files[item.file].1.tokens;
        let eff = &mut out[fn_idx];
        for i in (item.open + 1)..item.close {
            if !item.owns(i) {
                continue;
            }
            let line = toks[i].line;
            let Some(name) = toks[i].ident() else {
                continue;
            };
            // Named global lock acquisition.
            if matches!(name, "read" | "write" | "lock") {
                if let Some(receiver) = method_receiver(toks, i) {
                    if GLOBAL_LOCKS.contains(&receiver)
                        && !allowed(item.file, LOCK_RULE, line)
                        && !eff.locks.contains_key(receiver)
                    {
                        eff.locks.insert(
                            receiver.to_owned(),
                            Origin::Direct {
                                file: item.file,
                                line,
                                what: format!("{receiver}.{name}()"),
                            },
                        );
                    }
                }
            }
            // Panic sites.
            let is_panic_method = PANIC_METHODS.contains(&name) && is_method_call(toks, i);
            let is_panic_macro =
                PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
            if (is_panic_method || is_panic_macro)
                && eff.panics.is_none()
                && !allowed(item.file, PANIC_RULE, line)
            {
                let what = if is_panic_macro {
                    format!("{name}!")
                } else {
                    format!(".{name}()")
                };
                eff.panics = Some(Origin::Direct {
                    file: item.file,
                    line,
                    what,
                });
            }
            // Blocking operations.
            if eff.blocks.is_none() && !allowed(item.file, BLOCK_RULE, line) {
                if let Some(what) = blocking_op(toks, i) {
                    eff.blocks = Some(Origin::Direct {
                        file: item.file,
                        line,
                        what,
                    });
                }
            }
        }
    }
    out
}

/// The effects a call to this candidate set contributes: a unique
/// definition contributes its full summary; an ambiguous set only what
/// every candidate shares (see the module policy note).
pub struct MergedEffects {
    pub locks: Vec<String>,
    pub panics: bool,
    pub blocks: bool,
    /// The candidate a chain continues through, per effect kind —
    /// always one that actually carries the effect.
    pub lock_via: BTreeMap<String, usize>,
    pub panic_via: usize,
    pub block_via: usize,
}

/// Merges candidate summaries under the ambiguity policy.
pub fn merge_candidates(candidates: &[usize], effects: &[Effects]) -> MergedEffects {
    let mut merged = MergedEffects {
        locks: Vec::new(),
        panics: !candidates.is_empty(),
        blocks: !candidates.is_empty(),
        lock_via: BTreeMap::new(),
        panic_via: candidates.first().copied().unwrap_or(0),
        block_via: candidates.first().copied().unwrap_or(0),
    };
    if candidates.is_empty() {
        merged.panics = false;
        merged.blocks = false;
        return merged;
    }
    // Locks: intersection of lock-name sets.
    let first = &effects[candidates[0]];
    for name in first.locks.keys() {
        if candidates
            .iter()
            .all(|&c| effects[c].locks.contains_key(name))
        {
            merged.locks.push(name.clone());
            merged.lock_via.insert(name.clone(), candidates[0]);
        }
    }
    for &c in candidates {
        merged.panics &= effects[c].panics.is_some();
        merged.blocks &= effects[c].blocks.is_some();
    }
    if merged.panics {
        merged.panic_via = candidates[0];
    }
    if merged.blocks {
        merged.block_via = candidates[0];
    }
    merged
}

/// Propagates effects transitively: repeatedly folds every call site's
/// (merged) callee effects into its caller until nothing changes.
/// Inherited effects record the call they came through; an allow at
/// the call-site line for the matching rule blocks inheritance there.
pub fn propagate(
    graph: &CallGraph,
    effects: &mut [Effects],
    allowed: &dyn Fn(usize, &str, u32) -> bool,
) {
    loop {
        let mut changed = false;
        for caller in 0..graph.fns.len() {
            for &call_idx in &graph.calls_of[caller] {
                let call = &graph.calls[call_idx];
                let candidates = graph.resolve(&call.callee);
                if candidates.is_empty() {
                    continue;
                }
                let merged = merge_candidates(candidates, effects);
                let ambiguous = candidates.len();
                for lock in &merged.locks {
                    if !effects[caller].locks.contains_key(lock)
                        && !allowed(call.file, LOCK_RULE, call.line)
                    {
                        effects[caller].locks.insert(
                            lock.clone(),
                            Origin::Via {
                                line: call.line,
                                callee: merged.lock_via[lock],
                                ambiguous,
                            },
                        );
                        changed = true;
                    }
                }
                if merged.panics
                    && effects[caller].panics.is_none()
                    && !allowed(call.file, PANIC_RULE, call.line)
                {
                    effects[caller].panics = Some(Origin::Via {
                        line: call.line,
                        callee: merged.panic_via,
                        ambiguous,
                    });
                    changed = true;
                }
                if merged.blocks
                    && effects[caller].blocks.is_none()
                    && !allowed(call.file, BLOCK_RULE, call.line)
                {
                    effects[caller].blocks = Some(Origin::Via {
                        line: call.line,
                        callee: merged.block_via,
                        ambiguous,
                    });
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// A chain walked back to its direct site, ready for a finding.
pub struct Chain {
    /// `helper → inner_helper (×2 defs) → leaf` — the call chain from
    /// the reported call's callee down to the effect.
    pub path: String,
    /// Rendered construct at the end of the chain.
    pub what: String,
    /// File index / line of the direct site.
    pub file: usize,
    pub line: u32,
}

/// Walks `Origin` links from `start` (a callee fn index) down to the
/// direct site of the given effect. `pick` selects which effect to
/// follow (`|e| e.panics.as_ref()`, etc.). Origins are written once
/// and never overwritten, so the walk cannot cycle; the `hops` guard
/// is a belt against future edits.
pub fn chain<'e>(
    graph: &CallGraph,
    effects: &'e [Effects],
    start: usize,
    start_ambiguous: usize,
    pick: impl Fn(&'e Effects) -> Option<&'e Origin>,
) -> Option<Chain> {
    let mut path = String::new();
    let mut current = start;
    let mut ambiguous = start_ambiguous;
    let mut hops = 0usize;
    loop {
        if !path.is_empty() {
            path.push_str(" → ");
        }
        path.push_str(&graph.fns[current].name);
        if ambiguous > 1 {
            path.push_str(&format!(" (×{ambiguous} defs)"));
        }
        match pick(&effects[current])? {
            Origin::Direct { file, line, what } => {
                return Some(Chain {
                    path,
                    what: what.clone(),
                    file: *file,
                    line: *line,
                });
            }
            Origin::Via {
                callee,
                ambiguous: a,
                ..
            } => {
                current = *callee;
                ambiguous = *a;
            }
        }
        hops += 1;
        if hops > graph.fns.len() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ops(src: &str) -> Vec<String> {
        let lexed = lex(src);
        (0..lexed.tokens.len())
            .filter_map(|i| blocking_op(&lexed.tokens, i))
            .collect()
    }

    #[test]
    fn blocking_op_classifies_waits_sleeps_and_zero_arg_join() {
        assert_eq!(ops("self.not_empty.wait(&mut guard);"), vec![".wait(…)"]);
        assert_eq!(ops("thread::sleep(backoff);"), vec!["sleep(…)"]);
        assert_eq!(ops("handle.join();"), vec![".join()"]);
        assert!(
            ops("parts.join(\", \");").is_empty(),
            "join with arguments is the slice/path join, not a thread join"
        );
        assert!(
            ops("while let Ok(ev) = rx.try_recv() {}").is_empty(),
            "try_* variants are non-blocking by contract"
        );
    }

    #[test]
    fn block_match_arm_blocks_but_constructing_the_policy_does_not() {
        assert_eq!(
            ops("match policy { Block { timeout } => enqueue(timeout), _ => {} }"),
            vec!["Block { .. } enqueue arm"]
        );
        assert!(ops("let policy = Block { timeout };").is_empty());
    }
}
