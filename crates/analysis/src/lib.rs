//! `boolmatch-analysis` — the workspace invariant lint.
//!
//! The broker's concurrency story rests on a handful of invariants the
//! compiler cannot see: the publish fast path takes no broker-global
//! lock, multi-shard critical sections acquire shard states in
//! ascending index order with the directory innermost, scratch
//! checkouts re-arm capacity after a reset, and the hot path never
//! panics on recoverable conditions. This crate enforces them
//! statically with a lightweight lexer ([`lexer`]) and a set of
//! token-pattern rules ([`rules`]); the dynamic half of the story is
//! the debug-build lockdep in the `parking_lot` shim.
//!
//! Since PR 9 the lint is **interprocedural**: a parser layer
//! ([`callgraph`]) recognises `fn` items and call sites over the whole
//! workspace, per-function effect summaries ([`summary`]) record which
//! named locks each function acquires and whether it can panic or
//! block, and the summaries propagate transitively — so a hot-path
//! region calling a helper three modules away that grabs `directory`
//! is reported at the call site, with the full chain in the message.
//!
//! Run it as `cargo run -p boolmatch-analysis` (binary name
//! `invariant-lint`); it exits non-zero when any finding survives, so
//! CI can gate on it. `--format=json` emits machine-readable findings.

pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod summary;

pub use rules::{lint_files, lint_source, Finding, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collects every `.rs` file under `root`, skipping build output and
/// VCS internals. Deterministic (sorted) so reports diff cleanly.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every source file under `root` **as one workspace** — the
/// call graph and effect summaries span all of them, so a hot-path
/// call into another crate's helper is still traced. Paths in findings
/// are root-relative.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for path in workspace_sources(root)? {
        let source = fs::read_to_string(&path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        files.push((label, source));
    }
    Ok(lint_files(&files))
}

/// Renders findings as human-readable text, one per line.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    out
}

/// Renders findings as a JSON array (hand-rolled: the container ships
/// no serde, and the schema is four flat fields).
pub fn render_json(findings: &[Finding]) -> String {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&f.file),
            f.line,
            f.rule,
            escape(&f.message)
        ));
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out.push('\n');
    out
}

// ---------------------------------------------------------------------------
// Self-tests: one passing and one violating fixture per rule. Fixtures
// are string literals, so the lexer scanning *this* crate never sees
// their contents.
// ---------------------------------------------------------------------------
#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        lint_source("fixture.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn hot_path_locking_flags_global_locks_and_passes_shard_state() {
        let bad = "
            // lint: hot-path
            fn publish(&self) {
                let dir = self.inner.directory.read();
                drop(dir);
            }
            // lint: end-hot-path
        ";
        assert_eq!(rules_hit(bad), vec!["hot-path-locking"]);

        let good = "
            // lint: hot-path
            fn publish(&self) {
                let set = self.shard_set();
                let state = shard.state.read();
                drop(state);
            }
            // lint: end-hot-path
        ";
        assert!(rules_hit(good).is_empty());
    }

    #[test]
    fn hot_path_locking_respects_allow_with_reason() {
        let allowed = r#"
            // lint: hot-path
            fn deliver(&self) {
                // lint: allow(hot-path-locking, reason = "sender map read is by design")
                let senders = self.inner.senders.read();
                drop(senders);
            }
            // lint: end-hot-path
        "#;
        assert!(rules_hit(allowed).is_empty());

        // Same suppression without a reason is itself a finding, and
        // the underlying violation still reports.
        let reasonless = "
            // lint: hot-path
            fn deliver(&self) {
                // lint: allow(hot-path-locking)
                let senders = self.inner.senders.read();
            }
            // lint: end-hot-path
        ";
        let hit = rules_hit(reasonless);
        assert!(hit.contains(&"lint-hygiene"));
        assert!(hit.contains(&"hot-path-locking"));
    }

    #[test]
    fn panic_policy_flags_unwraps_and_macros_in_hot_regions_only() {
        let bad = r#"
            // lint: hot-path
            fn fast(&self) {
                let x = self.slot.take().unwrap();
                match x { 0 => {} _ => unreachable!("nope") }
            }
            // lint: end-hot-path
        "#;
        assert_eq!(rules_hit(bad), vec!["panic-policy", "panic-policy"]);

        let good = r#"
            fn cold(&self) {
                let x = self.slot.take().unwrap(); // outside any region
                let _ = x;
            }
            // lint: hot-path
            fn fast(&self) {
                debug_assert!(self.ok());
                let Some(x) = self.slot.take() else { return };
                // lint: allow(panic-policy, reason = "slot is Some from construction to Drop")
                let y = self.other.take().expect("present");
                let _ = (x, y);
            }
            // lint: end-hot-path
        "#;
        assert!(rules_hit(good).is_empty());
    }

    #[test]
    fn scratch_hygiene_pairs_reset_with_ensure_capacity() {
        let bad = "
            // lint: hot-path
            fn checkout(&self) -> Scratch {
                let mut scratch = self.take();
                scratch.reset();
                scratch
            }
            // lint: end-hot-path
        ";
        assert_eq!(rules_hit(bad), vec!["scratch-hygiene"]);

        let good = "
            // lint: hot-path
            fn checkout(&self, subs: usize) -> Scratch {
                let mut scratch = self.take();
                scratch.reset();
                scratch.ensure_capacity(subs);
                scratch
            }
            fn rendezvous(&self, n: usize) {
                self.fan.reset(n); // arg'd reset is a different protocol
            }
            // lint: end-hot-path
        ";
        assert!(rules_hit(good).is_empty());
    }

    /// The batch-matching checkout sites obey the same hygiene pair:
    /// a `BatchScratch` reset in a hot-path region (the generic pool
    /// checkout) must re-arm capacity for the engine it is about to
    /// serve, or the next batch regrows the buffers while matching.
    #[test]
    fn scratch_hygiene_covers_batch_scratch_checkout() {
        let bad = "
            // lint: hot-path
            fn checkout(&self) -> BatchScratch {
                let mut batch = self.take_batch();
                batch.reset();
                batch
            }
            // lint: end-hot-path
        ";
        assert_eq!(rules_hit(bad), vec!["scratch-hygiene"]);

        let good = "
            // lint: hot-path
            fn take(&self, shard: &Shard) -> BatchScratch {
                let mut batch = self.parked().unwrap_or_default();
                batch.reset();
                batch.ensure_capacity(shard.engine());
                batch
            }
            // lint: end-hot-path
        ";
        assert!(rules_hit(good).is_empty());
    }

    #[test]
    fn lock_order_flags_shard_state_under_a_live_directory_guard() {
        let bad = "
            // lint: lock-order
            fn migrate(&self, shards: &[Cell]) {
                let directory = self.inner.directory.write();
                let state = shards[0].state.write();
                drop((directory, state));
            }
            // lint: end-lock-order
        ";
        assert_eq!(rules_hit(bad), vec!["lock-order"]);

        // Guard scoped to an inner block dies before the shard lock.
        let good = "
            // lint: lock-order
            fn migrate(&self, shards: &[Cell]) {
                let placement = {
                    let directory = self.inner.directory.read();
                    directory.placement_of(7)
                };
                let state = shards[0].state.write();
                drop((placement, state));
            }
            // lint: end-lock-order
        ";
        assert!(rules_hit(good).is_empty());
    }

    #[test]
    fn lock_order_requires_ascending_shard_indexes() {
        let bad = "
            // lint: lock-order
            fn swap(&self, shards: &[Cell]) {
                let b = shards[9].state.write();
                let a = shards[3].state.write();
                drop((a, b));
            }
            // lint: end-lock-order
        ";
        assert_eq!(rules_hit(bad), vec!["lock-order"]);

        // Any slice name: the broker's is `set`.
        let inverted_idiom = "
            // lint: lock-order
            fn swap(&self, set: &[Cell]) {
                let first = set[hi].state.write();
                let second = set[lo].state.write();
                drop((first, second));
            }
            // lint: end-lock-order
        ";
        assert_eq!(rules_hit(inverted_idiom), vec!["lock-order"]);

        let good = "
            // lint: lock-order
            fn swap(&self, shards: &[Cell]) {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                let first = shards[lo].state.write();
                let second = shards[hi].state.write();
                drop((first, second));
            }
            // lint: end-lock-order
        ";
        assert!(rules_hit(good).is_empty());
    }

    #[test]
    fn region_markers_must_balance() {
        let unclosed = "
            // lint: hot-path
            fn fast() {}
        ";
        assert_eq!(rules_hit(unclosed), vec!["lint-hygiene"]);

        let stray_end = "
            fn fast() {}
            // lint: end-lock-order
        ";
        assert_eq!(rules_hit(stray_end), vec!["lint-hygiene"]);

        let unknown = "
            // lint: warm-path
            fn fast() {}
        ";
        assert_eq!(rules_hit(unknown), vec!["lint-hygiene"]);
    }

    #[test]
    fn findings_render_as_text_and_json() {
        let findings = vec![Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 12,
            rule: "panic-policy",
            message: "a \"quoted\" message".into(),
        }];
        let text = render_text(&findings);
        assert!(text.contains("crates/x/src/lib.rs:12: [panic-policy]"));
        let json = render_json(&findings);
        assert!(json.contains("\"line\": 12"));
        assert!(json.contains("\\\"quoted\\\""));
        assert_eq!(render_json(&[]), "[]\n");
    }

    /// The seeded acceptance fixture: a hot-path region calls a helper
    /// in another module (file), which calls a second helper, which
    /// writes the broker-global directory. The finding lands at the
    /// hot-path call site with the full chain and the terminal site.
    #[test]
    fn hot_path_call_into_another_module_reports_the_full_chain() {
        let hot = "
            // lint: hot-path
            fn publish(&self) {
                refresh_routing(self);
            }
            // lint: end-hot-path
        ";
        let cold = "
            fn refresh_routing(b: &Broker) {
                rebuild_table(b);
            }
            fn rebuild_table(b: &Broker) {
                let directory = b.inner.directory.write();
                drop(directory);
            }
        ";
        let findings = lint_files(&[
            ("crates/broker/src/hot.rs".into(), hot.into()),
            ("crates/core/src/cold.rs".into(), cold.into()),
        ]);
        assert_eq!(findings.len(), 1, "{}", render_text(&findings));
        let f = &findings[0];
        assert_eq!(f.rule, "hot-path-locking");
        assert_eq!(f.file, "crates/broker/src/hot.rs");
        assert_eq!(f.line, 4);
        assert!(f.message.contains("refresh_routing → rebuild_table"));
        assert!(f.message.contains("`directory.write()`"));
        assert!(f.message.contains("crates/core/src/cold.rs:6"));
    }

    #[test]
    fn transitive_panic_reports_at_the_hot_call_site() {
        let files = [
            (
                "hot.rs".to_owned(),
                "// lint: hot-path\nfn fast(&self) { decode(self); }\n// lint: end-hot-path\n"
                    .to_owned(),
            ),
            (
                "cold.rs".to_owned(),
                "fn decode(b: &B) { parse_header(b).unwrap(); }\n".to_owned(),
            ),
        ];
        let findings = lint_files(&files);
        assert_eq!(findings.len(), 1, "{}", render_text(&findings));
        assert_eq!(findings[0].rule, "panic-policy");
        assert_eq!(findings[0].file, "hot.rs");
        assert!(findings[0].message.contains("decode"));
        assert!(findings[0].message.contains(".unwrap()"));
    }

    /// Mutual recursion must terminate the fixpoint and still report.
    #[test]
    fn recursive_helpers_terminate_and_report() {
        let src = "
            // lint: hot-path
            fn fast(&self) { ping(3); }
            // lint: end-hot-path
            fn ping(n: u32) {
                if n > 0 { pong(n); }
                let g = self.maintenance.lock();
                drop(g);
            }
            fn pong(n: u32) { ping(n - 1); }
        ";
        let hits = rules_hit(src);
        assert_eq!(hits, vec!["hot-path-locking"]);
    }

    /// An allow at the hot-path call site stops the inherited effect —
    /// one written reason covers the whole chain above it.
    #[test]
    fn allow_at_the_call_site_stops_propagation() {
        let src = r#"
            // lint: hot-path
            fn fast(&self) {
                // lint: allow(hot-path-locking, reason = "epoch sweep is amortised against the publish budget")
                sweep_epochs(self);
            }
            // lint: end-hot-path
            fn sweep_epochs(b: &B) {
                let g = b.maintenance.lock();
                drop(g);
            }
        "#;
        assert!(rules_hit(src).is_empty());
    }

    /// Two same-named definitions: only effects common to both
    /// propagate, and the printed chain marks the ambiguity.
    #[test]
    fn ambiguous_callees_propagate_shared_effects_and_say_so() {
        let variant_a = "
            fn prune(&self) {
                let maintenance = self.inner.maintenance.lock();
                drop(maintenance);
            }
        ";
        let variant_b = "
            fn prune(&self) {
                let maintenance = self.inner.maintenance.lock();
                let directory = self.inner.directory.write();
                drop((maintenance, directory));
            }
        ";
        let hot = "
            // lint: hot-path
            fn sweep(&self) { prune(self); }
            // lint: end-hot-path
        ";
        let findings = lint_files(&[
            ("a.rs".into(), variant_a.into()),
            ("b.rs".into(), variant_b.into()),
            ("hot.rs".into(), hot.into()),
        ]);
        assert_eq!(findings.len(), 1, "{}", render_text(&findings));
        assert!(findings[0].message.contains("`maintenance`"));
        assert!(findings[0].message.contains("(×2 defs)"));
        assert!(
            !render_text(&findings).contains("`directory`"),
            "directory is not common to both candidates and must not propagate"
        );
    }

    #[test]
    fn blocking_while_locked_flags_sleeps_and_exempts_condvar_waits() {
        let bad = "
            fn drain(&self) {
                let senders = self.inner.senders.read();
                sleep(Duration::from_millis(5));
                drop(senders);
            }
        ";
        assert_eq!(rules_hit(bad), vec!["blocking-while-locked"]);

        // The wait *consumes* the guard it names: the condvar releases
        // it for the sleep, so nothing is held.
        let condvar = "
            fn dequeue(&self) {
                let mut state = self.state.lock();
                while state.queue.is_empty() {
                    self.not_empty.wait(&mut state);
                }
            }
        ";
        assert!(rules_hit(condvar).is_empty());

        // Explicitly released before the block: fine.
        let released = "
            fn pace(&self) {
                let senders = self.inner.senders.read();
                drop(senders);
                sleep(Duration::from_millis(5));
            }
        ";
        assert!(rules_hit(released).is_empty());
    }

    #[test]
    fn blocking_while_locked_traces_through_helpers() {
        let src = "
            fn flush(&self) {
                let directory = self.inner.directory.read();
                settle(self);
                drop(directory);
            }
            fn settle(&self) {
                self.worker.join()
            }
        ";
        let findings = lint_source("fixture.rs", src);
        assert_eq!(findings.len(), 1, "{}", render_text(&findings));
        assert_eq!(findings[0].rule, "blocking-while-locked");
        assert!(findings[0].message.contains("settle"));
        assert!(findings[0].message.contains(".join()"));
        assert!(findings[0].message.contains("`directory`"));
    }

    #[test]
    fn atomic_ordering_requires_justification_outside_counter_cells() {
        let bad = "
            fn spin(&self) {
                while self.flag.load(Ordering::Relaxed) {}
            }
        ";
        assert_eq!(rules_hit(bad), vec!["atomic-ordering"]);

        let good = "
            fn tally(&self) {
                self.stats.events_published.fetch_add(1, Ordering::Relaxed);
                // ordering: handshake is the scope join, not this flag.
                while self.flag.load(Ordering::Relaxed) {}
            }
        ";
        assert!(rules_hit(good).is_empty());
    }

    /// Satellite regression: the allow must cover the *whole statement*
    /// that follows it — the old next-code-line scoping leaked findings
    /// on the continuation lines of a multi-line call chain.
    #[test]
    fn allow_covers_the_full_statement_not_just_the_next_line() {
        let multiline = r#"
            // lint: hot-path
            fn fast(&self) {
                // lint: allow(hot-path-locking, reason = "startup-only snapshot read")
                let snapshot = self
                    .inner
                    .directory
                    .read();
                drop(snapshot);
            }
            // lint: end-hot-path
        "#;
        assert!(rules_hit(multiline).is_empty());

        // …and no further: the next statement still reports.
        let next_statement = r#"
            // lint: hot-path
            fn fast(&self) {
                // lint: allow(hot-path-locking, reason = "first read is amortised")
                let a = self.inner.directory.read();
                let b = self.inner.directory.read();
                drop((a, b));
            }
            // lint: end-hot-path
        "#;
        assert_eq!(rules_hit(next_statement), vec!["hot-path-locking"]);
    }

    #[test]
    fn the_workspace_itself_lints_clean() {
        // The analysis crate lives two levels below the workspace root;
        // when run via `cargo test -p boolmatch-analysis` the manifest
        // dir is crates/analysis.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root exists")
            .to_path_buf();
        let findings = lint_workspace(&root).expect("workspace sources are readable");
        assert!(
            findings.is_empty(),
            "invariant-lint found violations:\n{}",
            render_text(&findings)
        );
    }
}
