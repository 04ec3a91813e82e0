//! The one rule: a pure function over one file's token stream, returning
//! [`Diagnostic`]s.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::Diagnostic;

/// Rule identifier, as written in `allow(...)` suppressions.
pub const NO_POLL_SHUTDOWN: &str = "no-poll-shutdown";

/// All suppressible rule names (for validating `allow(...)` arguments).
pub const ALL_RULES: &[&str] = &[NO_POLL_SHUTDOWN];

/// Find the index of the `}` matching the `{` at `open` (which must point
/// at a `{`). Returns `toks.len()` when unbalanced.
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len()
}

const SHUTDOWN_IDENTS: &[&str] = &[
    "shutdown",
    "is_shutdown",
    "should_stop",
    "stop_flag",
    "stopping",
    "cancelled",
    "is_cancelled",
    "cancel_requested",
];

const POLL_CALLS: &[&str] = &["recv_timeout", "accept_timeout", "sleep"];

/// A loop that both checks a shutdown flag and blocks on a timed poll
/// (`recv_timeout` / `thread::sleep`) discovers cancellation only at the
/// poll tick. Shutdown must be wakeup-driven via `CancelToken` (§9,
/// cancellation invariant 1).
pub fn no_poll_shutdown(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.toks;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let is_loop = t.is_ident("loop");
        let is_while = t.is_ident("while");
        if !is_loop && !is_while {
            i += 1;
            continue;
        }
        // Find the body's `{`: immediately next for `loop`, after the
        // condition (first `{` at paren depth 0) for `while`.
        let mut open = i + 1;
        if is_while {
            let mut pdepth = 0i32;
            while open < toks.len() {
                let t = &toks[open];
                if t.is_punct('(') || t.is_punct('[') {
                    pdepth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    pdepth -= 1;
                } else if t.is_punct('{') && pdepth == 0 {
                    break;
                }
                open += 1;
            }
        }
        if open >= toks.len() || !toks[open].is_punct('{') {
            i += 1;
            continue;
        }
        let close = matching_brace(toks, open);
        // Scan the region (condition + body for `while`; body for `loop`).
        let region = &toks[i..close.min(toks.len())];
        let has_shutdown = region
            .iter()
            .any(|t| t.kind == TokKind::Ident && SHUTDOWN_IDENTS.contains(&t.text.as_str()));
        let poll = region.iter().enumerate().find(|(k, t)| {
            t.kind == TokKind::Ident
                && POLL_CALLS.contains(&t.text.as_str())
                && region.get(k + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        });
        if let (true, Some((_, poll_tok))) = (has_shutdown, poll) {
            // A nested loop reports the same poll call as its parent: once.
            let seen = |e: &Diagnostic| e.line == poll_tok.line && e.col == poll_tok.col;
            if !out.iter().any(seen) {
                out.push(Diagnostic {
                    rule: NO_POLL_SHUTDOWN.into(),
                    file: path.into(),
                    line: poll_tok.line,
                    col: poll_tok.col,
                    message: format!(
                        "shutdown loop polls via `{}` — cancellation must be \
                         wakeup-driven through `CancelToken` (DESIGN.md §9, \
                         invariant 1)",
                        poll_tok.text
                    ),
                });
            }
        }
        i += 1;
    }
}
