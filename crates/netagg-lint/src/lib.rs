//! `netagg-lint`: the workspace invariant checker.
//!
//! A dependency-free, lexer-level static analysis that enforces the
//! contracts the runtime layers are built on (DESIGN.md §7–§10):
//!
//! * **no-raw-spawn** — `thread::spawn` / `thread::Builder` only inside
//!   `netagg-net/src/lifecycle.rs`; everything else uses `JoinScope`.
//! * **no-unbounded-channel** — no `mpsc::channel()` / crossbeam
//!   `unbounded()`; queues are bounded `Mailbox`es with explicit policies.
//! * **no-poll-shutdown** — no loop that discovers shutdown via a
//!   `recv_timeout`/`sleep` tick; cancellation is wakeup-driven.
//! * **metrics-contract** — metric/event names at call sites come from
//!   `netagg_obs::names`, and that module stays in exact bidirectional
//!   sync with the DESIGN.md §7 table.
//! * **thread-inventory** — inline `JoinScope::spawn` names match the
//!   DESIGN.md §9 thread table, and the §12 reactor-thread table stays a
//!   subset of §9.
//! * **no-lock-unwrap** — no `.lock().unwrap()`: poison is handled by
//!   the lifecycle wrappers, not crashed through (§15).
//! * **lock-order** — the `lock_order.rs` rank registry stays in exact
//!   bidirectional sync with the §15 "Lock ranks" table (rank, name,
//!   blocking-tolerant mark). The order itself, and blocking while
//!   locked, are enforced at runtime by the debug-build witness in
//!   `netagg-net/src/lifecycle.rs`; this crate does no lock analysis.
//!
//! Suppress a finding with a comment on (or immediately above) the line:
//!
//! ```text
//! // netagg-lint: allow(no-raw-spawn) test drives the scope from outside
//! ```
//!
//! Suppressions that match nothing are `unused-suppression` **errors**:
//! a stale `allow` silently widens the hole it once justified, so it
//! fails the gate like any violation.

#![warn(missing_docs)]

pub mod contract;
pub mod lexer;
pub mod rules;

use contract::Contract;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Severity of a diagnostic. Only [`Level::Error`] affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// A contract violation; fails the run.
    Error,
    /// Advisory.
    Warning,
}

/// One finding, anchored to a source span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (e.g. `no-raw-spawn`, or `unused-suppression`).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Severity.
    pub level: Level,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl Diagnostic {
    /// Render as `level[rule]: file:line:col: message`.
    pub fn render(&self) -> String {
        let level = match self.level {
            Level::Error => "error",
            Level::Warning => "warning",
        };
        format!(
            "{level}[{}]: {}:{}:{}: {}",
            self.rule, self.file, self.line, self.col, self.message
        )
    }

    /// Render as a JSON object (manual, dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"rule":{},"file":{},"line":{},"col":{},"level":{},"message":{}}}"#,
            json_str(&self.rule),
            json_str(&self.file),
            self.line,
            self.col,
            json_str(match self.level {
                Level::Error => "error",
                Level::Warning => "warning",
            }),
            json_str(&self.message),
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One parsed `// netagg-lint: allow(rule)` suppression.
#[derive(Debug)]
struct Suppression {
    rule: String,
    line: u32,
    /// Lines this suppression covers (its own + the next code line).
    covers: Vec<u32>,
    used: bool,
}

fn parse_suppressions(lexed: &lexer::Lexed) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.strip_prefix("netagg-lint:") else {
            continue;
        };
        let mut rest = rest.trim();
        while let Some(pos) = rest.find("allow(") {
            let after = &rest[pos + 6..];
            let Some(close) = after.find(')') else { break };
            let rule = after[..close].trim().to_string();
            // A trailing comment covers its own line; a standalone comment
            // covers the first code line after it.
            let standalone = !lexed.toks.iter().any(|t| t.line == c.line);
            let mut covers = vec![c.line];
            if standalone {
                if let Some(l) = lexed.toks.iter().map(|t| t.line).find(|&l| l > c.line) {
                    covers.push(l);
                }
            }
            out.push(Suppression {
                rule,
                line: c.line,
                covers,
                used: false,
            });
            rest = &after[close + 1..];
        }
    }
    out
}

/// Lint a single file's source text. `path` is the workspace-relative
/// path used both for reporting and for per-rule scoping (the lifecycle
/// exemption, test-directory handling).
pub fn lint_source(path: &str, src: &str, contract: &Contract) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let mut found = Vec::new();

    rules::no_raw_spawn(path, &lexed, &mut found);
    rules::no_unbounded_channel(path, &lexed, &mut found);
    rules::no_poll_shutdown(path, &lexed, &mut found);
    rules::no_lock_unwrap(path, &lexed, &mut found);

    let test_path = path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.contains("/tests/")
        || path.contains("/benches/");
    // Test code asserts against snapshots and names scratch metrics and
    // threads freely; the naming rules police production emit sites.
    if !test_path {
        // netagg-obs is the generic substrate (the registry itself and the
        // names module); its internals are not contract call sites.
        if !path.contains("netagg-obs/") {
            rules::metrics_contract_sites(path, &lexed, contract, &mut found);
        }
        rules::thread_inventory(path, &lexed, contract, &mut found);
    }

    // Apply suppressions.
    let mut sups = parse_suppressions(&lexed);
    let mut kept = Vec::new();
    'diag: for d in found {
        for s in sups.iter_mut() {
            if s.rule == d.rule && s.covers.contains(&d.line) {
                s.used = true;
                continue 'diag;
            }
        }
        kept.push(d);
    }
    for s in &sups {
        let known = rules::ALL_RULES.contains(&s.rule.as_str());
        if !known {
            kept.push(Diagnostic {
                rule: "unused-suppression".into(),
                file: path.into(),
                line: s.line,
                col: 1,
                level: Level::Error,
                message: format!(
                    "`allow({})` names an unknown rule (known: {})",
                    s.rule,
                    rules::ALL_RULES.join(", ")
                ),
            });
        } else if !s.used {
            kept.push(Diagnostic {
                rule: "unused-suppression".into(),
                file: path.into(),
                line: s.line,
                col: 1,
                level: Level::Error,
                message: format!(
                    "`allow({})` suppresses nothing — remove the stale \
                     suppression (stale allows silently widen the hole they \
                     once justified)",
                    s.rule
                ),
            });
        }
    }
    kept
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "vendor" | "target" | ".git" | "fixtures") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file in the workspace rooted at `root` (excluding
/// `vendor/`, `target/` and lint fixtures), plus the global contract-sync
/// checks (§7/§11 ⇄ `names.rs`, §12 ⊆ §9, §15 ⇄ `lock_order.rs`). Results
/// are sorted by file, then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let contract = Contract::load(root).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot load contract under {}: {e}", root.display()),
        )
    })?;
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();

    let mut diags = Vec::new();
    rules::metrics_contract_sync(&contract, &mut diags);
    rules::thread_inventory_sync(&contract, &mut diags);
    rules::lock_order_sync(&contract, &mut diags);
    for file in &files {
        let src = fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        diags.extend(lint_source(&rel, &src, &contract));
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(diags)
}

/// Whether a diagnostic set should fail the run.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.level == Level::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_contract() -> Contract {
        Contract::from_sources(
            "### Metrics contract\n\
             | Name | Type |\n|---|---|\n\
             | `aggbox.tasks_executed` | counter |\n\
             | `mailbox.depth.<name>` | gauge |\n\
             ### Structured events\n\
             | Kind | When |\n|---|---|\n\
             | `failure` | declared |\n\
             ### Thread inventory\n\
             | Thread name | Owner |\n|---|---|\n\
             | `aggbox-<b>-listen` | `AggBox` |\n",
            "pub const AGGBOX_TASKS_EXECUTED: &str = \"aggbox.tasks_executed\";\n\
             pub const MAILBOX_DEPTH: &str = \"mailbox.depth.<name>\";\n\
             pub const EVENT_FAILURE: &str = \"failure\";\n",
        )
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let c = mini_contract();
        let src = "\
// netagg-lint: allow(no-raw-spawn) fixture exercises the raw API
let t = std::thread::spawn(|| {});
let u = std::thread::spawn(|| {}); // netagg-lint: allow(no-raw-spawn)
let v = std::thread::spawn(|| {});
";
        let diags = lint_source("crates/x/src/lib.rs", src, &c);
        let errs: Vec<_> = diags.iter().filter(|d| d.rule == "no-raw-spawn").collect();
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].line, 4);
    }

    #[test]
    fn unused_and_unknown_suppressions_are_errors() {
        let c = mini_contract();
        let src = "// netagg-lint: allow(no-raw-spawn)\nlet x = 1;\n\
                   // netagg-lint: allow(no-such-rule)\nlet y = 2;\n";
        let diags = lint_source("crates/x/src/lib.rs", src, &c);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .all(|d| d.rule == "unused-suppression" && d.level == Level::Error));
        assert!(
            diags.iter().any(|d| d.message.contains("unknown rule")),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("suppresses nothing")),
            "{diags:?}"
        );
        assert!(has_errors(&diags));
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let d = Diagnostic {
            rule: "metrics-contract".into(),
            file: "a.rs".into(),
            line: 1,
            col: 2,
            level: Level::Error,
            message: "name `x\"y\\z`".into(),
        };
        let j = d.to_json();
        assert!(j.contains(r#""message":"name `x\"y\\z`""#), "{j}");
    }

    #[test]
    fn test_directories_skip_naming_rules_but_not_spawn() {
        let c = mini_contract();
        let src = "fn t() { obs.counter(\"scratch.metric\"); \
                   let h = std::thread::spawn(|| {}); }";
        let diags = lint_source("crates/x/tests/e2e.rs", src, &c);
        assert!(diags.iter().all(|d| d.rule == "no-raw-spawn"), "{diags:?}");
        assert_eq!(diags.len(), 1);
    }
}
