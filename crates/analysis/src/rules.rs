//! The invariant rules, run over the token/comment stream from
//! [`crate::lexer`] — intraprocedurally per file, and
//! interprocedurally over the workspace call graph built by
//! [`crate::callgraph`] with the effect summaries of
//! [`crate::summary`].
//!
//! Regions are declared in comments (see the README's *Invariants &
//! analysis* section for the user-facing catalogue):
//!
//! - `// lint: hot-path` … `// lint: end-hot-path` — the enclosed code
//!   runs on the publish fast path: the `hot-path-locking`,
//!   `panic-policy` and `scratch-hygiene` rules apply — including
//!   **through calls**: a helper (anywhere in the workspace) that
//!   transitively acquires a broker-global lock or panics is reported
//!   at the hot-path call site, with the full call chain.
//! - `// lint: lock-order` … `// lint: end-lock-order` — the enclosed
//!   code holds several engine locks at once: the `lock-order` rule
//!   applies (ascending shard indexes, directory innermost).
//! - `// lint: allow(rule, reason = "…")` — suppress `rule` over the
//!   **whole statement** that follows (to the terminating `;`, or the
//!   close of a brace block at the statement's own depth). A missing
//!   or empty reason is itself a finding (`lint-hygiene`). An allow at
//!   an effect's source — or at a call site — also stops that effect
//!   from propagating to callers: one written justification covers the
//!   chain above it.
//!
//! Rules that need no region:
//!
//! - `safety-comment` — every `unsafe` block needs a `SAFETY:` comment
//!   within the three preceding lines.
//! - `blocking-while-locked` — no blocking operation (condvar wait,
//!   channel receive, zero-arg `.join()`, `sleep`, or a call that
//!   transitively reaches one) while a **named** lock guard (a
//!   [`GLOBAL_LOCKS`] field or a per-shard/per-queue `state`) is live.
//!   A condvar wait that *takes the guard as an argument* releases it
//!   for the sleep and is exempt.
//! - `atomic-ordering` — every `Ordering::Relaxed` outside the
//!   allow-listed lock-free counter cells
//!   ([`RELAXED_COUNTER_CELLS`]) needs a `// ordering:` justification
//!   comment within the three preceding lines.

use crate::callgraph::{self, CallGraph};
use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};
use crate::summary::{
    self, blocking_op, chain, is_method_call, merge_candidates, method_receiver, Effects,
};

/// Broker-global lock *field* names: acquiring any of these inside a
/// hot-path region — directly or through any call chain — is a
/// finding. `shard` states are per-shard and fine; `senders` reads
/// during delivery and the `delivery_ready` hand-off carry an explicit
/// allow. The names are the
/// `boolmatch_core::lock_classes` vocabulary plus the unclassed
/// broker-global mutexes; the drift-guard test in
/// `crates/analysis/tests/drift.rs` keeps the two in sync.
pub const GLOBAL_LOCKS: &[&str] = &[
    "directory",
    "maintenance",
    "senders",
    "delivery_ready",
    "shard_set",
    "freq_baseline",
];

/// Lock classes that are *leaves by discipline*, not broker-global
/// locks: hot paths may touch them (`pool` slots are `try_lock`-only;
/// per-shard `state` and per-queue locks are per-instance). Listed so
/// the drift-guard test can prove every `lock_classes` name is either
/// banned ([`GLOBAL_LOCKS`]) or deliberately exempt — never silently
/// unknown to the lint.
pub const LEAF_LOCKS: &[&str] = &["pool"];

/// Field names whose guards the `blocking-while-locked` rule tracks in
/// addition to [`GLOBAL_LOCKS`]: the per-shard / per-delivery-queue
/// `state` locks. Blocking while one is live stalls every publisher
/// that routes through that shard or queue.
pub const SHARD_GUARD_FIELDS: &[&str] = &["state"];

/// Panicking constructs disallowed in hot-path regions. `assert!` /
/// `debug_assert!` stay legal: they state invariants, and the policy
/// targets *recoverable-error-turned-abort* sites, not invariant
/// checks.
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Monotonic statistics counters that may use `Ordering::Relaxed`
/// without a justification comment: they are single-writer-per-event
/// fetch-adds and racy-read loads whose only consumer is reporting —
/// no control flow or data is published through them. Everything else
/// relaxed needs a `// ordering:` comment saying why.
pub const RELAXED_COUNTER_CELLS: &[&str] = &[
    // Per-shard match/prune tallies (`ShardCell`).
    "hits",
    "pruned",
    // Per-queue delivery tallies (`NotifyQueue`).
    "enqueued",
    "dropped",
    // Broker-wide `BrokerStats` cells.
    "events_published",
    "notifications_delivered",
    "notifications_dropped",
    "notifications_disconnected",
    "subscriptions_created",
    "subscriptions_removed",
    "subscriptions_migrated",
    "subscribers_quarantined",
    "quarantine_recoveries",
    "consumer_panics",
    "drain_jobs",
];

/// Atomic operations whose trailing `Ordering` argument the
/// `atomic-ordering` rule attributes backwards to a receiver.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Every rule the lint knows, as stable machine-readable names.
pub const RULES: &[&str] = &[
    "hot-path-locking",
    "lock-order",
    "scratch-hygiene",
    "panic-policy",
    "safety-comment",
    "blocking-while-locked",
    "atomic-ordering",
    "lint-hygiene",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path label the caller supplied (repo-relative in the CLI).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name, one of [`RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// A parsed `// lint: …` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    HotPath,
    EndHotPath,
    LockOrder,
    EndLockOrder,
    Allow {
        rule: String,
        reason: Option<String>,
    },
    /// `lint:` prefix present but unparseable — reported, never ignored
    /// silently.
    Malformed(String),
}

fn parse_directive(text: &str) -> Option<Directive> {
    // Comment text arrives without `//`; doc-comment markers and
    // leading whitespace are framing.
    let body = text.trim_start_matches(['/', '!']).trim_start();
    let rest = body.strip_prefix("lint:")?.trim_start();
    let word_end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_'))
        .unwrap_or(rest.len());
    let (word, tail) = rest.split_at(word_end);
    match word {
        "hot-path" => Some(Directive::HotPath),
        "end-hot-path" => Some(Directive::EndHotPath),
        "lock-order" => Some(Directive::LockOrder),
        "end-lock-order" => Some(Directive::EndLockOrder),
        "allow" => Some(parse_allow(tail.trim_start())),
        other => Some(Directive::Malformed(format!(
            "unknown lint directive `{other}`"
        ))),
    }
}

/// Parses the `(rule, reason = "…")` tail of an allow directive.
fn parse_allow(tail: &str) -> Directive {
    let Some(inner) = tail.strip_prefix('(') else {
        return Directive::Malformed("allow needs `(rule, reason = \"…\")`".into());
    };
    let Some(close) = inner.rfind(')') else {
        return Directive::Malformed("allow is missing its closing `)`".into());
    };
    let inner = &inner[..close];
    let (rule, rest) = match inner.find(',') {
        Some(comma) => (inner[..comma].trim(), inner[comma + 1..].trim()),
        None => (inner.trim(), ""),
    };
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_owned);
    Directive::Allow {
        rule: rule.to_owned(),
        reason,
    }
}

/// An inclusive line range a region (or an allow's statement) covers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Region {
    pub(crate) fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

/// Everything the rules need about one file, precomputed.
pub(crate) struct FileView<'a> {
    pub(crate) file: &'a str,
    pub(crate) lexed: &'a Lexed,
    pub(crate) hot: Vec<Region>,
    lock_order: Vec<Region>,
    /// `(rule, statement-range-it-covers)` per well-formed allow.
    allows: Vec<(String, Region)>,
    pub(crate) findings: Vec<Finding>,
}

impl<'a> FileView<'a> {
    pub(crate) fn new(file: &'a str, lexed: &'a Lexed) -> Self {
        let last_line = lexed
            .tokens
            .last()
            .map_or(1, |t| t.line)
            .max(lexed.comments.last().map_or(1, |c| c.line));
        let mut view = FileView {
            file,
            lexed,
            hot: Vec::new(),
            lock_order: Vec::new(),
            allows: Vec::new(),
            findings: Vec::new(),
        };
        view.collect_directives(last_line);
        view
    }

    pub(crate) fn report(&mut self, line: u32, rule: &'static str, message: String) {
        // `lint-hygiene` findings are never suppressible — an allow
        // that allowed itself would be unfalsifiable.
        if rule != "lint-hygiene" && self.is_allowed(rule, line) {
            return;
        }
        self.findings.push(Finding {
            file: self.file.to_owned(),
            line,
            rule,
            message,
        });
    }

    pub(crate) fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|(r, range)| r == rule && range.contains(line))
    }

    /// The line range an allow on `line` suppresses: the allow's own
    /// line through the end of the statement that follows — the first
    /// `;` at the statement's brace depth, or the close of a brace
    /// block opened at that depth (an `if`/`match`/loop statement, or
    /// a whole item), whichever comes first. `else` branches and
    /// `.`/`?` continuations keep the statement open.
    fn allow_cover(&self, line: u32) -> Region {
        let toks = &self.lexed.tokens;
        let Some(first) = toks.iter().position(|t| t.line >= line) else {
            return Region {
                start: line,
                end: line,
            };
        };
        let stmt_depth = toks[first].depth;
        let mut j = first;
        while let Some(tok) = toks.get(j) {
            if tok.depth < stmt_depth {
                // The enclosing block closed before any terminator: the
                // statement ended on the previous token's line.
                let end = if j > first { toks[j - 1].line } else { line };
                return Region { start: line, end };
            }
            match tok.kind {
                TokKind::Punct(';') if tok.depth == stmt_depth => {
                    return Region {
                        start: line,
                        end: tok.line,
                    };
                }
                // A brace block opened at the statement's own depth
                // just closed (its `}` sits one level in). Unless the
                // statement visibly continues, it ends here.
                TokKind::Punct('}') if tok.depth == stmt_depth + 1 => match toks.get(j + 1) {
                    Some(next)
                        if next.ident() == Some("else")
                            || next.is_punct('.')
                            || next.is_punct('?') => {}
                    Some(next) if next.is_punct(';') => {
                        return Region {
                            start: line,
                            end: next.line,
                        };
                    }
                    _ => {
                        return Region {
                            start: line,
                            end: tok.line,
                        };
                    }
                },
                _ => {}
            }
            j += 1;
        }
        let end = toks.last().map_or(line, |t| t.line);
        Region { start: line, end }
    }

    fn collect_directives(&mut self, last_line: u32) {
        let mut open_hot: Option<u32> = None;
        let mut open_lock: Option<u32> = None;
        for Comment { text, line } in &self.lexed.comments {
            let Some(directive) = parse_directive(text) else {
                continue;
            };
            let line = *line;
            match directive {
                Directive::HotPath => {
                    if open_hot.is_some() {
                        self.report(
                            line,
                            "lint-hygiene",
                            "`lint: hot-path` while a hot-path region is already open".into(),
                        );
                    } else {
                        open_hot = Some(line);
                    }
                }
                Directive::EndHotPath => match open_hot.take() {
                    Some(start) => self.hot.push(Region { start, end: line }),
                    None => self.report(
                        line,
                        "lint-hygiene",
                        "`lint: end-hot-path` without an open hot-path region".into(),
                    ),
                },
                Directive::LockOrder => {
                    if open_lock.is_some() {
                        self.report(
                            line,
                            "lint-hygiene",
                            "`lint: lock-order` while a lock-order region is already open".into(),
                        );
                    } else {
                        open_lock = Some(line);
                    }
                }
                Directive::EndLockOrder => match open_lock.take() {
                    Some(start) => self.lock_order.push(Region { start, end: line }),
                    None => self.report(
                        line,
                        "lint-hygiene",
                        "`lint: end-lock-order` without an open lock-order region".into(),
                    ),
                },
                Directive::Allow { rule, reason } => {
                    if !RULES.contains(&rule.as_str()) {
                        self.report(
                            line,
                            "lint-hygiene",
                            format!("allow names unknown rule `{rule}`"),
                        );
                        continue;
                    }
                    match reason.as_deref() {
                        Some(r) if !r.trim().is_empty() => {
                            let covers = self.allow_cover(line);
                            self.allows.push((rule, covers));
                        }
                        _ => self.report(
                            line,
                            "lint-hygiene",
                            format!(
                                "allow({rule}) needs a non-empty `reason = \"…\"` — \
                                 suppressions must say why"
                            ),
                        ),
                    }
                }
                Directive::Malformed(msg) => self.report(line, "lint-hygiene", msg),
            }
        }
        if let Some(start) = open_hot {
            self.report(
                start,
                "lint-hygiene",
                "hot-path region is never closed (`lint: end-hot-path` missing)".into(),
            );
            self.hot.push(Region {
                start,
                end: last_line,
            });
        }
        if let Some(start) = open_lock {
            self.report(
                start,
                "lint-hygiene",
                "lock-order region is never closed (`lint: end-lock-order` missing)".into(),
            );
            self.lock_order.push(Region {
                start,
                end: last_line,
            });
        }
    }

    pub(crate) fn in_hot(&self, line: u32) -> bool {
        self.hot.iter().any(|r| r.contains(line))
    }

    fn in_lock_order(&self, line: u32) -> bool {
        self.lock_order.iter().any(|r| r.contains(line))
    }
}

/// Lints one file's source; `file` is only a label for findings. The
/// interprocedural pass still runs — over this file's own call graph.
pub fn lint_source(file: &str, source: &str) -> Vec<Finding> {
    lint_files(&[(file.to_owned(), source.to_owned())])
}

/// Lints a set of sources as one workspace: per-file rules plus the
/// interprocedural pass over the cross-file call graph.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, source)| lex(source)).collect();
    let mut views: Vec<FileView> = files
        .iter()
        .zip(&lexed)
        .map(|((label, _), lx)| FileView::new(label, lx))
        .collect();
    for view in &mut views {
        check_hot_path_locking(view);
        check_panic_policy(view);
        check_scratch_hygiene(view);
        check_lock_order(view);
        check_safety_comments(view);
        check_atomic_ordering(view);
    }

    // Interprocedural pass: call graph, then effect summaries to a
    // fixpoint, then the transitive checks.
    let file_refs: Vec<(&str, &Lexed)> = files
        .iter()
        .zip(&lexed)
        .map(|((label, _), lx)| (label.as_str(), lx))
        .collect();
    let graph = callgraph::build(&file_refs);
    let effects = {
        let allowed =
            |file: usize, rule: &str, line: u32| -> bool { views[file].is_allowed(rule, line) };
        let mut effects = summary::direct_effects(&file_refs, &graph, &allowed);
        summary::propagate(&graph, &mut effects, &allowed);
        effects
    };
    let hot_by_file: Vec<Vec<Region>> = views.iter().map(|v| v.hot.clone()).collect();
    let labels: Vec<&str> = files.iter().map(|(label, _)| label.as_str()).collect();
    for (file_idx, view) in views.iter_mut().enumerate() {
        check_transitive_hot_path(view, file_idx, &graph, &effects, &hot_by_file, &labels);
        check_blocking_while_locked(view, file_idx, &graph, &effects, &labels);
    }

    let mut findings: Vec<Finding> = views.into_iter().flat_map(|v| v.findings).collect();
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup();
    findings
}

/// No broker-global lock may be acquired inside a hot-path region.
fn check_hot_path_locking(view: &mut FileView<'_>) {
    let toks = &view.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(method) = tok.ident() else { continue };
        if !matches!(method, "read" | "write" | "lock") || !view.in_hot(tok.line) {
            continue;
        }
        if let Some(receiver) = method_receiver(toks, i) {
            if GLOBAL_LOCKS.contains(&receiver) {
                let line = tok.line;
                view.report(
                    line,
                    "hot-path-locking",
                    format!(
                        "`{receiver}.{method}()` acquires the broker-global `{receiver}` \
                         lock inside a hot-path region; the publish fast path must stay \
                         off every global lock (use try_* / per-shard state, or justify \
                         with an allow)"
                    ),
                );
            }
        }
    }
}

/// No `unwrap`/`expect`/`panic!`-family construct in a hot-path region
/// without an allow carrying a reason.
fn check_panic_policy(view: &mut FileView<'_>) {
    let toks = &view.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if !view.in_hot(tok.line) {
            continue;
        }
        let line = tok.line;
        if PANIC_METHODS.contains(&name) && is_method_call(toks, i) {
            view.report(
                line,
                "panic-policy",
                format!(
                    "`.{name}()` on the hot path can abort a publish; return the error, \
                     handle the None, or add `lint: allow(panic-policy, reason = …)` \
                     naming the invariant that makes it unreachable"
                ),
            );
        } else if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            view.report(
                line,
                "panic-policy",
                format!("`{name}!` on the hot path; same policy as unwrap/expect"),
            );
        }
    }
}

/// In hot-path regions a zero-argument `.reset()` on a scratch value
/// must be followed shortly by `.ensure_capacity(…)` — a reset scratch
/// with stale capacity silently reallocates on the next publish.
fn check_scratch_hygiene(view: &mut FileView<'_>) {
    let toks = &view.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.ident() != Some("reset") || !view.in_hot(tok.line) {
            continue;
        }
        // Zero-arg only: `reset ( )`. A `reset(n)` taking an argument
        // is a different protocol and exempt.
        if !is_method_call(toks, i) || toks.get(i + 2).is_none_or(|t| !t.is_punct(')')) {
            continue;
        }
        // Look ahead a short window for the pairing call.
        const WINDOW: usize = 48;
        let paired = toks[i..toks.len().min(i + WINDOW)]
            .iter()
            .any(|t| t.ident() == Some("ensure_capacity"));
        if !paired {
            let line = tok.line;
            view.report(
                line,
                "scratch-hygiene",
                "`.reset()` in a hot-path region without a nearby `.ensure_capacity(…)`; \
                 checkout sites must re-arm capacity or the next publish reallocates"
                    .into(),
            );
        }
    }
}

/// Lock-order regions: multi-shard acquisitions must be in ascending
/// index order, and no shard state may be locked while a named
/// directory guard is still live (directory is the innermost lock).
fn check_lock_order(view: &mut FileView<'_>) {
    let toks = &view.lexed.tokens;

    // --- directory-innermost -------------------------------------------------
    // Track `let [mut] NAME = … directory … .read()/.write() … ;`
    // bindings; the guard lives until its block closes (depth drops
    // below the binding depth). A later `.state.read/.write(` while a
    // guard is live inverts shard-then-directory.
    let mut live_guards: Vec<(u32, u32)> = Vec::new(); // (depth, bound-at-line)
    let mut i = 0usize;
    while i < toks.len() {
        let tok = &toks[i];
        if !view.in_lock_order(tok.line) {
            // Leaving the region kills tracking; regions are function-
            // scoped so guards never straddle a region edge.
            live_guards.clear();
            i += 1;
            continue;
        }
        live_guards.retain(|&(depth, _)| tok.depth >= depth);
        if tok.ident() == Some("let") {
            let (binds_directory, _stmt_end) = statement_binds_directory_guard(toks, i);
            if binds_directory {
                live_guards.push((tok.depth, tok.line));
            }
            // Fall through token by token: a later `let` statement can
            // itself contain the shard-state acquisition under check.
        }
        // `….state.read(` / `….state.write(` — a shard-state lock.
        if tok.ident() == Some("state")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 2)
                .and_then(Tok::ident)
                .is_some_and(|m| m == "read" || m == "write")
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            if let Some(&(_, guard_line)) = live_guards.first() {
                let line = tok.line;
                view.report(
                    line,
                    "lock-order",
                    format!(
                        "shard state locked while the directory guard bound on line \
                         {guard_line} is still live; the directory is the innermost \
                         lock — drop the guard (end its block) before touching shards"
                    ),
                );
            }
        }
        i += 1;
    }

    // --- ascending shard indexes --------------------------------------------
    // Collect `shards[IDX].state.write(` sites; consecutive pairs in
    // one region at overlapping scopes must be ascending. Single-token
    // indexes only — computed indexes are the caller's proof burden.
    let mut acquisitions: Vec<(u32, u32, String)> = Vec::new(); // (line, depth, index-text)
    for (i, tok) in toks.iter().enumerate() {
        if tok.ident() != Some("shards") || !view.in_lock_order(tok.line) {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|t| t.is_punct('[')) else {
            continue;
        };
        let _ = open;
        let Some(index) = toks.get(i + 2).and_then(Tok::ident) else {
            continue;
        };
        if !(toks.get(i + 3).is_some_and(|t| t.is_punct(']'))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 5).and_then(Tok::ident) == Some("state")
            && toks.get(i + 6).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 7).and_then(Tok::ident) == Some("write")
            && toks.get(i + 8).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        acquisitions.push((tok.line, tok.depth, index.to_owned()));
    }
    for pair in acquisitions.windows(2) {
        let (first_line, _, first) = &pair[0];
        let (second_line, _, second) = &pair[1];
        // Only adjacent acquisitions in the same region count as a
        // nested pair; different regions are different critical
        // sections.
        let same_region = view
            .lock_order
            .iter()
            .any(|r| r.contains(*first_line) && r.contains(*second_line));
        if !same_region {
            continue;
        }
        let violation = match (first.parse::<u64>(), second.parse::<u64>()) {
            (Ok(a), Ok(b)) => a >= b,
            // The blessed identifier idiom is `(lo, hi)`; the reverse
            // spelling is the classic inversion.
            _ => first == "hi" && second == "lo",
        };
        if violation {
            view.report(
                *second_line,
                "lock-order",
                format!(
                    "shard `{second}` locked after shard `{first}` (line {first_line}); \
                     multi-shard acquisitions must use ascending indexes — sort into \
                     the `(lo, hi)` idiom first"
                ),
            );
        }
    }
}

/// Does the `let` statement starting at `start` bind a guard from
/// `directory….read()`/`….write()`? Returns (binds, index-after-`;`).
fn statement_binds_directory_guard(toks: &[Tok], start: usize) -> (bool, usize) {
    let mut depth_delta = 0i32;
    let mut binds = false;
    let mut i = start + 1;
    while i < toks.len() {
        let tok = &toks[i];
        match &tok.kind {
            TokKind::Punct('{') => depth_delta += 1,
            TokKind::Punct('}') => {
                depth_delta -= 1;
                if depth_delta < 0 {
                    break; // malformed / end of block
                }
            }
            TokKind::Punct(';') if depth_delta == 0 => {
                i += 1;
                break;
            }
            // The guard source must be `directory.read(` / `.write(`
            // verbatim, and at the statement's own nesting level: a
            // guard taken inside a nested block dies at that block's
            // `}` and never escapes into the binding.
            TokKind::Ident(name)
                if name == "directory"
                    && depth_delta == 0
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                    && toks
                        .get(i + 2)
                        .and_then(Tok::ident)
                        .is_some_and(|m| m == "read" || m == "write")
                    && toks.get(i + 3).is_some_and(|t| t.is_punct('(')) =>
            {
                binds = true;
            }
            _ => {}
        }
        i += 1;
    }
    (binds, i)
}

/// Every `unsafe { … }` block needs a `SAFETY:` comment on one of the
/// three preceding lines (or its own). Applies file-wide.
fn check_safety_comments(view: &mut FileView<'_>) {
    let toks = &view.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.ident() != Some("unsafe") {
            continue;
        }
        // Only blocks: `unsafe {`. (`unsafe fn`/`unsafe impl` document
        // their contract in rustdoc, not a SAFETY comment.)
        if toks.get(i + 1).is_none_or(|t| !t.is_punct('{')) {
            continue;
        }
        let line = tok.line;
        let documented = view
            .lexed
            .comments
            .iter()
            .any(|c| c.line + 3 >= line && c.line <= line && c.text.contains("SAFETY:"));
        if !documented {
            view.report(
                line,
                "safety-comment",
                "`unsafe` block without a `SAFETY:` comment in the three preceding \
                 lines; state the proof obligation being discharged"
                    .into(),
            );
        }
    }
}

/// Every `Ordering::Relaxed` outside the allow-listed counter cells
/// needs a `// ordering:` justification comment within the three
/// preceding lines (or on its own line). Applies file-wide — relaxed
/// atomics are exactly the construct whose correctness is invisible at
/// the use site.
fn check_atomic_ordering(view: &mut FileView<'_>) {
    let toks = &view.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.ident() != Some("Ordering")
            || !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            || !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            || toks.get(i + 3).and_then(Tok::ident) != Some("Relaxed")
        {
            continue;
        }
        let line = tok.line;
        // Attribute the ordering backwards to the atomic op it
        // parameterises, and that op's receiver cell.
        let mut receiver = None;
        for k in (i.saturating_sub(24)..i).rev() {
            let Some(name) = toks[k].ident() else {
                continue;
            };
            if ATOMIC_OPS.contains(&name) && toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
                receiver = method_receiver(toks, k);
                break;
            }
        }
        if receiver.is_some_and(|r| RELAXED_COUNTER_CELLS.contains(&r)) {
            continue;
        }
        let justified = view.lexed.comments.iter().any(|c| {
            c.line + 3 >= line
                && c.line <= line
                && c.text
                    .trim_start_matches(['/', '!'])
                    .trim_start()
                    .starts_with("ordering:")
        });
        if justified {
            continue;
        }
        let cell = receiver.unwrap_or("<unknown>");
        view.report(
            line,
            "atomic-ordering",
            format!(
                "`Ordering::Relaxed` on `{cell}` is outside the allow-listed lock-free \
                 counter cells; add a `// ordering:` comment stating why relaxed is \
                 sound here, or use an acquire/release ordering"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// Interprocedural checks
// ---------------------------------------------------------------------------

/// Hot-path regions, through calls: a call site inside a hot-path
/// region whose callee **transitively** acquires a broker-global lock
/// or panics is reported here, with the full call chain. Effects whose
/// direct site already sits inside a hot-path region are skipped —
/// the intraprocedural rules reported them at the source.
fn check_transitive_hot_path(
    view: &mut FileView<'_>,
    file_idx: usize,
    graph: &CallGraph,
    effects: &[Effects],
    hot_by_file: &[Vec<Region>],
    labels: &[&str],
) {
    for call in &graph.calls {
        if call.file != file_idx || !view.in_hot(call.line) {
            continue;
        }
        let candidates = graph.resolve(&call.callee);
        if candidates.is_empty() {
            continue;
        }
        let merged = merge_candidates(candidates, effects);
        for lock in &merged.locks {
            let Some(found) = chain(
                graph,
                effects,
                merged.lock_via[lock],
                candidates.len(),
                |e| e.locks.get(lock),
            ) else {
                continue;
            };
            if hot_by_file[found.file]
                .iter()
                .any(|r| r.contains(found.line))
            {
                continue;
            }
            view.report(
                call.line,
                "hot-path-locking",
                format!(
                    "`{callee}(…)` transitively acquires the broker-global `{lock}` lock: \
                     `{what}` at {site_file}:{site_line}, reached via {path}; the publish \
                     fast path must stay off every global lock — restructure the helper, \
                     or justify this call with an allow",
                    callee = call.callee,
                    what = found.what,
                    site_file = labels[found.file],
                    site_line = found.line,
                    path = found.path,
                ),
            );
        }
        if merged.panics {
            if let Some(found) = chain(graph, effects, merged.panic_via, candidates.len(), |e| {
                e.panics.as_ref()
            }) {
                if !hot_by_file[found.file]
                    .iter()
                    .any(|r| r.contains(found.line))
                {
                    view.report(
                        call.line,
                        "panic-policy",
                        format!(
                            "`{callee}(…)` can transitively panic: `{what}` at \
                             {site_file}:{site_line}, reached via {path}; a hot-path \
                             publish must not abort — handle the error in the helper, \
                             or justify this call with an allow",
                            callee = call.callee,
                            what = found.what,
                            site_file = labels[found.file],
                            site_line = found.line,
                            path = found.path,
                        ),
                    );
                }
            }
        }
    }
}

/// A named lock guard tracked by `blocking-while-locked`.
struct LiveGuard {
    /// Binding name (`senders`, `_maintenance`, …).
    name: String,
    /// Lock field the guard came from.
    lock: String,
    /// Brace depth of the binding: the guard dies when the depth drops
    /// below it.
    depth: u32,
    line: u32,
}

/// No blocking operation — direct, or through any call chain — while a
/// named lock guard is live. Applies everywhere (no region needed): a
/// parked thread holding `directory` or a shard `state` stalls every
/// publisher behind it, and only a lucky test interleaving would catch
/// it dynamically. A condvar wait that takes the guard as an argument
/// releases it for the sleep and is exempt (so are waits naming every
/// live guard).
fn check_blocking_while_locked(
    view: &mut FileView<'_>,
    file_idx: usize,
    graph: &CallGraph,
    effects: &[Effects],
    labels: &[&str],
) {
    let toks = &view.lexed.tokens;
    for (fn_idx, item) in graph.fns.iter().enumerate() {
        if item.file != file_idx {
            continue;
        }
        // Call sites of this fn, findable by token index.
        let calls_here: Vec<&callgraph::CallSite> = graph.calls_of[fn_idx]
            .iter()
            .map(|&c| &graph.calls[c])
            .collect();
        let mut next_call = 0usize;
        let mut guards: Vec<LiveGuard> = Vec::new();
        for i in (item.open + 1)..item.close {
            if !item.owns(i) {
                continue;
            }
            let tok = &toks[i];
            guards.retain(|g| tok.depth >= g.depth);
            // Explicit early release: `drop(guard)`.
            if tok.ident() == Some("drop") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                if let Some(dropped) = toks.get(i + 2).and_then(Tok::ident) {
                    if toks.get(i + 3).is_some_and(|t| t.is_punct(')')) {
                        guards.retain(|g| g.name != dropped);
                    }
                }
            }
            if tok.ident() == Some("let") {
                if let Some(guard) = guard_binding(toks, i) {
                    guards.push(guard);
                }
            }
            if guards.is_empty() {
                continue;
            }
            // Direct blocking operation?
            if let Some(what) = blocking_op(toks, i) {
                // The `Block { .. }` arm is a summary marker for the
                // enclosing fn, not a positional blocking op — the
                // concrete wait inside the arm is checked on its own.
                if !what.starts_with("Block") {
                    let exempt = call_arg_idents(toks, i);
                    if let Some(guard) = guards.iter().find(|g| !exempt.contains(&g.name)) {
                        let line = tok.line;
                        let message = format!(
                            "`{what}` while the `{lock}` guard `{name}` (bound line \
                             {gline}) is live — blocking with a named lock held invites \
                             deadlock; drop the guard first, hand it to the wait, or \
                             justify with an allow",
                            lock = guard.lock,
                            name = guard.name,
                            gline = guard.line,
                        );
                        view.report(line, "blocking-while-locked", message);
                    }
                    continue;
                }
            }
            // Transitively blocking call?
            while next_call < calls_here.len() && calls_here[next_call].tok < i {
                next_call += 1;
            }
            if next_call < calls_here.len() && calls_here[next_call].tok == i {
                let call = calls_here[next_call];
                let candidates = graph.resolve(&call.callee);
                if candidates.is_empty() {
                    continue;
                }
                let merged = merge_candidates(candidates, effects);
                if !merged.blocks {
                    continue;
                }
                let exempt = call_arg_idents(toks, i);
                let Some(guard) = guards.iter().find(|g| !exempt.contains(&g.name)) else {
                    continue;
                };
                let Some(found) = chain(graph, effects, merged.block_via, candidates.len(), |e| {
                    e.blocks.as_ref()
                }) else {
                    continue;
                };
                let line = call.line;
                let message = format!(
                    "`{callee}(…)` transitively blocks (`{what}` at {site_file}:{site_line}, \
                     reached via {path}) while the `{lock}` guard `{name}` (bound line \
                     {gline}) is live — release the guard before the call, or justify \
                     with an allow",
                    callee = call.callee,
                    what = found.what,
                    site_file = labels[found.file],
                    site_line = found.line,
                    path = found.path,
                    lock = guard.lock,
                    name = guard.name,
                    gline = guard.line,
                );
                view.report(line, "blocking-while-locked", message);
            }
        }
    }
}

/// Recognises `let [mut] NAME = …RECEIVER.read/write/lock();` — a
/// named guard binding the `blocking-while-locked` rule tracks. The
/// lock call must terminate the statement (`();` directly): a chained
/// temporary (`directory.read().skew_pair()`) releases its guard at
/// the statement's end and binds only the derived value.
fn guard_binding(toks: &[Tok], let_idx: usize) -> Option<LiveGuard> {
    let depth = toks[let_idx].depth;
    let mut j = let_idx + 1;
    if toks.get(j).and_then(Tok::ident) == Some("mut") {
        j += 1;
    }
    let name = toks.get(j).and_then(Tok::ident)?;
    if name == "_" {
        return None; // `let _ = …` drops the guard immediately
    }
    // Tuple/struct/enum patterns (`let (a, b) =`, `let Some(x) =`)
    // are not single-guard bindings.
    if toks
        .get(j + 1)
        .is_some_and(|t| t.is_punct('(') || t.is_punct('{'))
    {
        return None;
    }
    // Find the statement's terminating `;` at the binding depth.
    let mut k = j + 1;
    let mut end = None;
    while let Some(tok) = toks.get(k) {
        if tok.depth < depth {
            break;
        }
        if tok.kind == TokKind::Punct(';') && tok.depth == depth {
            end = Some(k);
            break;
        }
        k += 1;
    }
    let end = end?;
    // `… RECEIVER . METHOD ( ) ;`
    if end < 5 {
        return None;
    }
    let method = toks[end - 3].ident()?;
    if !matches!(method, "read" | "write" | "lock") {
        return None;
    }
    if !toks[end - 2].is_punct('(') || !toks[end - 1].is_punct(')') || !toks[end - 4].is_punct('.')
    {
        return None;
    }
    let receiver = toks[end - 5].ident()?;
    if !GLOBAL_LOCKS.contains(&receiver) && !SHARD_GUARD_FIELDS.contains(&receiver) {
        return None;
    }
    Some(LiveGuard {
        name: name.to_owned(),
        lock: receiver.to_owned(),
        depth,
        line: toks[let_idx].line,
    })
}

/// Identifiers appearing in the argument list of the call at token
/// `i` (the callee name; `i + 1` must be the `(`). A condvar wait that
/// names a guard here consumes/releases it for the sleep.
fn call_arg_idents(toks: &[Tok], i: usize) -> Vec<String> {
    let mut out = Vec::new();
    if toks.get(i + 1).is_none_or(|t| !t.is_punct('(')) {
        return out;
    }
    let mut parens = 1i32;
    let mut j = i + 2;
    while let Some(tok) = toks.get(j) {
        match tok.kind {
            TokKind::Punct('(') => parens += 1,
            TokKind::Punct(')') => {
                parens -= 1;
                if parens == 0 {
                    break;
                }
            }
            TokKind::Ident(ref name) => out.push(name.clone()),
            _ => {}
        }
        j += 1;
        if j > i + 512 {
            break; // degenerate; stop scanning
        }
    }
    out
}
