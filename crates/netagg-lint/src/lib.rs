//! `netagg-lint`: the one workspace invariant only a lexer can state.
//!
//! **no-poll-shutdown** — no loop that discovers shutdown via a
//! `recv_timeout`/`sleep` tick; cancellation is wakeup-driven (DESIGN.md
//! §9, invariant 1). A loop that both reads a shutdown flag and blocks on a
//! timed call is a lexical co-occurrence no type, clippy lint or test can
//! express, so it stays a dependency-free, lexer-level scan. Every other
//! contract of DESIGN.md §7–§15 is carried by the build itself — see the
//! §10 table (clippy `disallowed-methods`, `tests/design_contract.rs`, the
//! scenario contract, the debug-build witness).
//!
//! Suppress a finding with a comment on (or immediately above) the line:
//!
//! ```text
//! // netagg-lint: allow(no-poll-shutdown) documented 20 ms fallback
//! ```
//!
//! Suppressions that match nothing are `unused-suppression` findings: a
//! stale `allow` silently widens the hole it once justified, so it fails
//! the gate like any violation.

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding, anchored to a source span. Every finding fails the run.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (`no-poll-shutdown`, or `unused-suppression`).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl Diagnostic {
    /// Render as `error[rule]: file:line:col: message`.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}:{}:{}: {}",
            self.rule, self.file, self.line, self.col, self.message
        )
    }
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
/// path used for reporting.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let mut found = Vec::new();
    rules::no_poll_shutdown(path, &lexed, &mut found);

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
    for s in sups.iter().filter(|s| !s.used) {
        let message = if rules::ALL_RULES.contains(&s.rule.as_str()) {
            format!(
                "`allow({})` suppresses nothing — remove the stale \
                 suppression (stale allows silently widen the hole they \
                 once justified)",
                s.rule
            )
        } else {
            format!(
                "`allow({})` names an unknown rule (known: {})",
                s.rule,
                rules::ALL_RULES.join(", ")
            )
        };
        kept.push(Diagnostic {
            rule: "unused-suppression".into(),
            file: path.into(),
            line: s.line,
            col: 1,
            message,
        });
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
/// `vendor/`, `target/` and lint fixtures). Results are sorted by file,
/// then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();

    let mut diags = Vec::new();
    for file in &files {
        let src = fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        diags.extend(lint_source(&rel, &src));
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLL: &str = "loop { if stop_flag.get() { break; } std::thread::sleep(tick); }";

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = format!(
            "// netagg-lint: allow(no-poll-shutdown) fixture: standalone form\n{POLL}\n\
             {POLL} // netagg-lint: allow(no-poll-shutdown) trailing form\n{POLL}\n"
        );
        let diags = lint_source("crates/x/src/lib.rs", &src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(
            (diags[0].rule.as_str(), diags[0].line),
            ("no-poll-shutdown", 4)
        );
    }

    #[test]
    fn unused_and_unknown_suppressions_fail_the_gate() {
        let src = "// netagg-lint: allow(no-poll-shutdown)\nlet x = 1;\n\
                   // netagg-lint: allow(no-raw-spawn)\nlet y = 2;\n";
        let diags = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "unused-suppression"));
        assert!(diags[0].message.contains("suppresses nothing"), "{diags:?}");
        assert!(diags[1].message.contains("unknown rule"), "{diags:?}");
    }
}
