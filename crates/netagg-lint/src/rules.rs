//! The lint rules. Each rule is a pure function over one file's token
//! stream (plus the shared [`Contract`]), returning [`Diagnostic`]s.

use crate::contract::Contract;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::{Diagnostic, Level};

/// Rule identifiers, as written in `allow(...)` suppressions.
pub const NO_RAW_SPAWN: &str = "no-raw-spawn";
/// See [`NO_RAW_SPAWN`].
pub const NO_UNBOUNDED_CHANNEL: &str = "no-unbounded-channel";
/// See [`NO_RAW_SPAWN`].
pub const NO_POLL_SHUTDOWN: &str = "no-poll-shutdown";
/// See [`NO_RAW_SPAWN`].
pub const METRICS_CONTRACT: &str = "metrics-contract";
/// See [`NO_RAW_SPAWN`].
pub const THREAD_INVENTORY: &str = "thread-inventory";
/// See [`NO_RAW_SPAWN`].
pub const NO_LOCK_UNWRAP: &str = "no-lock-unwrap";
/// §15 rank table ⇄ `lock_order.rs` drift. Its findings are properties of
/// the two documents, not of a source line, so it is not suppressible.
pub const LOCK_ORDER: &str = "lock-order";

/// All suppressible rule names (for validating `allow(...)` arguments).
pub const ALL_RULES: &[&str] = &[
    NO_RAW_SPAWN,
    NO_UNBOUNDED_CHANNEL,
    NO_POLL_SHUTDOWN,
    METRICS_CONTRACT,
    THREAD_INVENTORY,
    NO_LOCK_UNWRAP,
];

// ---------------------------------------------------------------------------
// Pattern matching: templated names
// ---------------------------------------------------------------------------

/// One unit of a wildcard pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Frag {
    /// A literal character.
    Lit(char),
    /// A wildcard standing for one or more characters.
    Wild,
}

/// Compile a DESIGN.md-style template (`<placeholder>` = wildcard).
fn compile_template(s: &str) -> Vec<Frag> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '<' {
            // `<...>` placeholder — but `net.link.<from>-><to>.frames`
            // contains a literal `->`; a `<` is a placeholder only when a
            // matching `>` follows with identifier-ish contents.
            let ahead: String = chars.clone().collect();
            if let Some(end) = ahead.find('>') {
                let inner = &ahead[..end];
                if !inner.is_empty() && inner.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    for _ in 0..=end {
                        chars.next();
                    }
                    out.push(Frag::Wild);
                    continue;
                }
            }
            out.push(Frag::Lit(c));
        } else {
            out.push(Frag::Lit(c));
        }
    }
    out
}

/// Compile a `format!` string (`{}` / `{name}` / `{name:spec}` = wildcard;
/// `{{` / `}}` = literal braces).
fn compile_format(s: &str) -> Vec<Frag> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                out.push(Frag::Lit('{'));
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                out.push(Frag::Lit('}'));
            }
            '{' => {
                while let Some(&n) = chars.peek() {
                    chars.next();
                    if n == '}' {
                        break;
                    }
                }
                out.push(Frag::Wild);
            }
            _ => out.push(Frag::Lit(c)),
        }
    }
    out
}

/// Whether some concrete string could match both patterns (wildcards stand
/// for one or more characters on either side). A concrete string is just a
/// pattern with no wildcards, so this covers concrete-vs-template too.
fn unify(a: &[Frag], b: &[Frag]) -> bool {
    match (a.first(), b.first()) {
        (None, None) => true,
        (Some(Frag::Wild), _) => {
            // The wildcard consumes 1..=len(b) units of the other side.
            (1..=b.len()).any(|i| unify(&a[1..], &b[i..]))
        }
        (_, Some(Frag::Wild)) => (1..=a.len()).any(|i| unify(&a[i..], &b[1..])),
        (Some(Frag::Lit(x)), Some(Frag::Lit(y))) => x == y && unify(&a[1..], &b[1..]),
        _ => false,
    }
}

fn lits(s: &str) -> Vec<Frag> {
    s.chars().map(Frag::Lit).collect()
}

/// Match a call-site name (concrete literal or compiled `format!` pattern)
/// against a contract template.
fn matches_template(template: &str, site: &[Frag]) -> bool {
    unify(&compile_template(template), site)
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

/// Whether the token at `i` is called: followed by `(`, optionally with a
/// turbofish (`::<...>`) in between.
fn is_called(toks: &[Tok], i: usize) -> bool {
    let mut j = i + 1;
    if toks.get(j).map(|t| t.is_punct(':')).unwrap_or(false)
        && toks.get(j + 1).map(|t| t.is_punct(':')).unwrap_or(false)
        && toks.get(j + 2).map(|t| t.is_punct('<')).unwrap_or(false)
    {
        let mut depth = 0i32;
        j += 2;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    toks.get(j).map(|t| t.is_punct('(')).unwrap_or(false)
}

fn diag(rule: &str, path: &str, t: &Tok, message: String) -> Diagnostic {
    Diagnostic {
        rule: rule.to_string(),
        file: path.to_string(),
        line: t.line,
        col: t.col,
        level: Level::Error,
        message,
    }
}

/// If the tokens at `i` open a call whose first argument is a string
/// literal or a `format!("...")`, return the compiled name pattern and the
/// token carrying it. `i` must point at the `(`.
fn first_string_arg(toks: &[Tok], i: usize) -> Option<(Vec<Frag>, &Tok, bool)> {
    let mut j = i + 1;
    // Optional leading `&`.
    while toks.get(j).map(|t| t.is_punct('&')).unwrap_or(false) {
        j += 1;
    }
    match toks.get(j) {
        Some(t) if t.kind == TokKind::StrLit => Some((lits(&t.text), t, false)),
        Some(t) if t.is_ident("format") => {
            if toks.get(j + 1).map(|t| t.is_punct('!')).unwrap_or(false)
                && toks.get(j + 2).map(|t| t.is_punct('(')).unwrap_or(false)
            {
                let s = toks.get(j + 3)?;
                if s.kind == TokKind::StrLit {
                    return Some((compile_format(&s.text), s, true));
                }
            }
            None
        }
        _ => None,
    }
}

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

// ---------------------------------------------------------------------------
// Rule 1: no-raw-spawn
// ---------------------------------------------------------------------------

/// `std::thread::spawn` / `thread::Builder` are forbidden outside the
/// lifecycle module: every runtime thread must go through `JoinScope` so
/// it is named, counted and deadline-joined (§9).
pub fn no_raw_spawn(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if path.ends_with("netagg-net/src/lifecycle.rs") {
        return;
    }
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("thread") {
            continue;
        }
        let sep = toks.get(i + 1).map(|t| t.is_punct(':')).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_punct(':')).unwrap_or(false);
        if !sep {
            continue;
        }
        let Some(t) = toks.get(i + 3) else { continue };
        if t.is_ident("spawn") {
            out.push(diag(
                NO_RAW_SPAWN,
                path,
                t,
                "raw `thread::spawn` — use `JoinScope::spawn` so the thread is \
                 named, counted in `runtime.threads_active` and deadline-joined \
                 (DESIGN.md §9)"
                    .into(),
            ));
        } else if t.is_ident("Builder") {
            out.push(diag(
                NO_RAW_SPAWN,
                path,
                t,
                "raw `thread::Builder` — use `JoinScope::spawn`; only \
                 `netagg-net/src/lifecycle.rs` may construct threads directly \
                 (DESIGN.md §9)"
                    .into(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: no-unbounded-channel
// ---------------------------------------------------------------------------

/// Unbounded queues (`mpsc::channel()`, crossbeam `unbounded()`) are
/// forbidden: every queue must be a bounded `Mailbox` with an explicit
/// overflow policy (§9).
pub fn no_unbounded_channel(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("channel")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("mpsc")
            && is_called(toks, i)
        {
            out.push(diag(
                NO_UNBOUNDED_CHANNEL,
                path,
                t,
                "unbounded `mpsc::channel()` — use a bounded `Mailbox` with an \
                 explicit `OverflowPolicy` (DESIGN.md §9)"
                    .into(),
            ));
        }
        if t.is_ident("unbounded") && is_called(toks, i) {
            out.push(diag(
                NO_UNBOUNDED_CHANNEL,
                path,
                t,
                "unbounded channel constructor — use a bounded `Mailbox` with an \
                 explicit `OverflowPolicy` (DESIGN.md §9)"
                    .into(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: no-poll-shutdown
// ---------------------------------------------------------------------------

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
        if has_shutdown {
            if let Some((_, poll_tok)) = poll {
                let d = diag(
                    NO_POLL_SHUTDOWN,
                    path,
                    poll_tok,
                    format!(
                        "shutdown loop polls via `{}` — cancellation must be \
                         wakeup-driven through `CancelToken` (DESIGN.md §9, \
                         invariant 1)",
                        poll_tok.text
                    ),
                );
                if !out
                    .iter()
                    .any(|e| e.rule == d.rule && e.line == d.line && e.col == d.col)
                {
                    out.push(d);
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Rule 4: metrics-contract (call sites)
// ---------------------------------------------------------------------------

const METRIC_CALLS: &[&str] = &["counter", "gauge", "histogram"];

/// Hardcoded metric/event/span names at instrumentation call sites: the
/// name must (a) exist in the §7 contract (§11 for spans) and (b) be
/// spelled via `netagg_obs::names` rather than a string literal, so
/// renames stay one-edit changes.
pub fn metrics_contract_sites(
    path: &str,
    lexed: &Lexed,
    contract: &Contract,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_metric = METRIC_CALLS.contains(&t.text.as_str());
        let is_emit = t.text == "emit" || t.text == "emit_for_request";
        let is_span = t.text == "record_span";
        if !is_metric && !is_emit && !is_span {
            continue;
        }
        if !toks.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false) {
            continue;
        }
        // Skip snapshot lookups in runtime code is unnecessary: lookups use
        // the same contract names, so they are held to the same rule.
        let Some((pattern, lit_tok, is_format)) = first_string_arg(toks, i + 1) else {
            continue;
        };
        if lexed.in_test_region(lit_tok.line) {
            continue;
        }
        let table: Vec<&crate::contract::Entry> = if is_emit {
            contract.events.iter().collect()
        } else if is_span {
            contract.spans.iter().collect()
        } else {
            contract.metrics.iter().collect()
        };
        let (what, section) = if is_emit {
            ("event", "§7")
        } else if is_span {
            ("span", "§11")
        } else {
            ("metric", "§7")
        };
        let hit = table.iter().find(|e| matches_template(&e.name, &pattern));
        match hit {
            None => out.push(diag(
                METRICS_CONTRACT,
                path,
                lit_tok,
                format!(
                    "{what} name `{}` is not in the DESIGN.md {section} \
                     contract — add a table row and a `netagg_obs::names` \
                     constant, or fix the name",
                    lit_tok.text
                ),
            )),
            Some(e) => {
                let hint = contract
                    .const_for(&e.name)
                    .map(|c| format!("`netagg_obs::names::{}`", c.ident))
                    .unwrap_or_else(|| "the `netagg_obs::names` constant".into());
                let spelled = if is_format { "formatted" } else { "hardcoded" };
                out.push(diag(
                    METRICS_CONTRACT,
                    path,
                    lit_tok,
                    format!(
                        "{spelled} metric name `{}` duplicates the contract — \
                         use {hint} instead of a string literal",
                        lit_tok.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4b: metrics-contract (DESIGN.md §7 ⇄ names.rs sync)
// ---------------------------------------------------------------------------

/// Bidirectional drift check between the §7 table (plus event kinds and
/// the §11 span names) and the `netagg_obs::names` constants: every row
/// must have a constant with that exact value, and every constant must
/// have a row.
pub fn metrics_contract_sync(contract: &Contract, out: &mut Vec<Diagnostic>) {
    let design = "DESIGN.md";
    let names = "crates/netagg-obs/src/names.rs";
    for e in contract
        .metrics
        .iter()
        .chain(contract.events.iter())
        .chain(contract.spans.iter())
    {
        if contract.const_for(&e.name).is_none() {
            out.push(Diagnostic {
                rule: METRICS_CONTRACT.into(),
                file: design.into(),
                line: e.line,
                col: 1,
                level: Level::Error,
                message: format!(
                    "contract entry `{}` has no matching constant in \
                     netagg_obs::names — the table and the code have drifted",
                    e.name
                ),
            });
        }
    }
    for c in &contract.consts {
        let known = contract
            .metrics
            .iter()
            .chain(contract.events.iter())
            .chain(contract.spans.iter())
            .any(|e| e.name == c.value);
        if !known {
            out.push(Diagnostic {
                rule: METRICS_CONTRACT.into(),
                file: names.into(),
                line: c.line,
                col: 1,
                level: Level::Error,
                message: format!(
                    "constant `{}` (\"{}\") has no row in the DESIGN.md §7/§11 \
                     contract — add the row or remove the constant",
                    c.ident, c.value
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: thread-inventory
// ---------------------------------------------------------------------------

/// Every `JoinScope::spawn` whose name is written inline (string literal
/// or `format!`) must match a row of the §9 thread inventory, so stack
/// dumps map one-to-one onto the table.
pub fn thread_inventory(path: &str, lexed: &Lexed, contract: &Contract, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("spawn") {
            continue;
        }
        if !toks.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false) {
            continue;
        }
        let Some((pattern, lit_tok, _)) = first_string_arg(toks, i + 1) else {
            continue;
        };
        if lexed.in_test_region(lit_tok.line) {
            continue;
        }
        let known = contract
            .threads
            .iter()
            .any(|e| matches_template(&e.name, &pattern));
        if !known {
            out.push(diag(
                THREAD_INVENTORY,
                path,
                lit_tok,
                format!(
                    "thread name `{}` is not in the DESIGN.md §9 thread \
                     inventory — add a table row or rename the thread",
                    lit_tok.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5b: thread-inventory (DESIGN.md §12 ⇄ §9 sync)
// ---------------------------------------------------------------------------

/// The §12 "Reactor threads" table documents the TCP data plane's threads
/// next to the architecture prose; every name it lists must also appear in
/// the authoritative §9 inventory, so the two sections cannot drift apart.
pub fn thread_inventory_sync(contract: &Contract, out: &mut Vec<Diagnostic>) {
    for e in &contract.reactor_threads {
        let in_inventory = contract
            .threads
            .iter()
            .any(|t| unify(&compile_template(&t.name), &compile_template(&e.name)));
        if !in_inventory {
            out.push(Diagnostic {
                rule: THREAD_INVENTORY.into(),
                file: "DESIGN.md".into(),
                line: e.line,
                col: 1,
                level: Level::Error,
                message: format!(
                    "§12 reactor thread `{}` is not in the §9 thread \
                     inventory — the two tables have drifted",
                    e.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: no-lock-unwrap
// ---------------------------------------------------------------------------

const RAW_LOCK_CALLS: &[&str] = &["lock", "read", "write", "try_lock"];

/// `.lock().unwrap()` / `.read().unwrap()` (and `.expect(...)`) mean raw
/// `std::sync` locks whose poison `Result` is being crashed through.
/// Poisoning is handled by the lifecycle layer: `OrderedMutex` (and the
/// `parking_lot` shim underneath) never poisons —
/// a guard dropped during unwind surfaces as a `lock_poison` event
/// instead (DESIGN.md §15).
pub fn no_lock_unwrap(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !RAW_LOCK_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        // `.lock()` with an empty argument list (excludes `io::Read::read`
        // and friends, which always take a buffer), then `.unwrap(` /
        // `.expect(`.
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        let empty_call = toks.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_punct(')')).unwrap_or(false);
        if !empty_call || !toks.get(i + 3).map(|t| t.is_punct('.')).unwrap_or(false) {
            continue;
        }
        let Some(m) = toks.get(i + 4) else { continue };
        if !(m.is_ident("unwrap") || m.is_ident("expect")) || !is_called(toks, i + 4) {
            continue;
        }
        out.push(diag(
            NO_LOCK_UNWRAP,
            path,
            t,
            format!(
                "`.{}().{}()` crashes through a poison `Result` — use the \
                 lifecycle `OrderedMutex` wrapper (its lock never \
                 poisons; unwind is surfaced as a `lock_poison` \
                 event, DESIGN.md §15)",
                t.text, m.text
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Rule 7: lock-order (DESIGN.md §15 "Lock ranks" ⇄ lock_order.rs sync)
// ---------------------------------------------------------------------------

/// Bidirectional sync between the `lock_order.rs` constants and the §15
/// "Lock ranks" table — rank, name and the blocking-tolerant mark — plus
/// registry sanity (unique ranks, unique names). The order itself is
/// enforced at runtime by the debug-build witness, which reads the same
/// constants; this keeps the document the witness is described by honest.
pub fn lock_order_sync(contract: &Contract, out: &mut Vec<Diagnostic>) {
    let registry = "crates/netagg-net/src/lock_order.rs";
    let mut err = |file: &str, line: u32, message: String| {
        out.push(Diagnostic {
            rule: LOCK_ORDER.into(),
            file: file.into(),
            line,
            col: 1,
            level: Level::Error,
            message,
        })
    };
    for r in &contract.lock_ranks {
        match contract.rank_rows.iter().find(|row| row.name == r.name) {
            None => err(
                registry,
                r.line,
                format!(
                    "lock `{}` (rank {}) has no row in the DESIGN.md §15 \
                     Lock ranks table — the registry and the table have \
                     drifted",
                    r.name, r.rank
                ),
            ),
            Some(row) if row.rank != r.rank => err(
                "DESIGN.md",
                row.line,
                format!(
                    "§15 lists `{}` at rank {} but lock_order.rs declares \
                     rank {}",
                    r.name, row.rank, r.rank
                ),
            ),
            Some(row) if row.may_block != r.may_block => err(
                "DESIGN.md",
                row.line,
                format!(
                    "§15 and lock_order.rs disagree on whether `{}` is \
                     blocking-tolerant (table †: {}, constant: {})",
                    r.name, row.may_block, r.may_block
                ),
            ),
            Some(_) => {}
        }
    }
    for row in &contract.rank_rows {
        if !contract.lock_ranks.iter().any(|r| r.name == row.name) {
            err(
                "DESIGN.md",
                row.line,
                format!(
                    "§15 row `{}` has no LockRank constant in lock_order.rs \
                     — the table and the registry have drifted",
                    row.name
                ),
            );
        }
    }
    // Ranks and names must be unique, or the witness's strict ordering
    // cannot distinguish the locks.
    for (i, a) in contract.lock_ranks.iter().enumerate() {
        for b in &contract.lock_ranks[i + 1..] {
            if a.rank == b.rank || a.name == b.name {
                err(
                    registry,
                    b.line,
                    format!(
                        "`{}` and `{}` collide (rank {} vs {}, name `{}` vs \
                         `{}`) — ranks and names must be unique",
                        a.ident, b.ident, a.rank, b.rank, a.name, b.name
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(s: &str) -> Vec<Frag> {
        lits(s)
    }

    #[test]
    fn lock_unwrap_fires_and_io_read_does_not() {
        let l = crate::lexer::lex(
            "fn a(m: &std::sync::Mutex<u8>) { *m.lock().unwrap() += 1; }\n\
             fn b(s: &mut impl std::io::Read, buf: &mut [u8]) { s.read(buf).unwrap(); }\n\
             fn c(m: &std::sync::RwLock<u8>) { let _ = m.read().expect(\"poisoned\"); }\n",
        );
        let mut out = Vec::new();
        no_lock_unwrap("crates/x/src/lib.rs", &l, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[0].line, 1);
        assert_eq!(out[1].line, 3);
    }

    #[test]
    fn lock_order_sync_catches_drift_both_ways() {
        let mut c = Contract::from_sources(
            "### Lock ranks\n\n\
             | Rank | Lock | Protects |\n|---|---|---|\n\
             | 1 | `fx.alpha` | a |\n\
             | 2 | `fx.beta` † | b |\n",
            "",
        );
        c.lock_ranks = crate::contract::parse_rank_consts(
            "pub const ALPHA: LockRank = LockRank::new(1, \"fx.alpha\");\n\
             pub const BETA: LockRank = LockRank::new(2, \"fx.beta\").blocking_tolerant();\n",
        );
        let mut out = Vec::new();
        lock_order_sync(&c, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Registry gains a lock the table lacks; the table gains a row the
        // registry lacks, a rank mismatch and a dropped † mark.
        c.lock_ranks.push(crate::contract::RankEntry {
            ident: "DELTA".into(),
            rank: 4,
            name: "fx.delta".into(),
            may_block: false,
            line: 9,
        });
        c.rank_rows.push(crate::contract::RankRow {
            rank: 9,
            name: "fx.ghost".into(),
            may_block: false,
            line: 30,
        });
        c.rank_rows[0].rank = 7;
        c.rank_rows[1].may_block = false;
        lock_order_sync(&c, &mut out);
        for needle in ["fx.delta", "fx.ghost", "at rank 7", "blocking-tolerant"] {
            assert!(out.iter().any(|d| d.message.contains(needle)), "{out:?}");
        }
        assert_eq!(out.len(), 4, "{out:?}");
    }

    #[test]
    fn template_matches_concrete_names() {
        assert!(matches_template(
            "aggbox.tasks_executed",
            &f("aggbox.tasks_executed")
        ));
        assert!(!matches_template(
            "aggbox.tasks_executed",
            &f("aggbox.tasks_execute")
        ));
        assert!(matches_template(
            "mailbox.depth.<name>",
            &f("mailbox.depth.egress")
        ));
        assert!(!matches_template(
            "mailbox.depth.<name>",
            &f("mailbox.depth.")
        ));
        assert!(matches_template(
            "net.link.<from>-><to>.frames",
            &f("net.link.2->1.frames")
        ));
        assert!(!matches_template(
            "net.link.<from>-><to>.frames",
            &f("net.link.2->1.bytes")
        ));
        assert!(matches_template(
            "aggbox.wfq_weight.app<N>",
            &f("aggbox.wfq_weight.app4")
        ));
    }

    #[test]
    fn template_matches_format_patterns() {
        assert!(matches_template(
            "mailbox.depth.<name>",
            &compile_format("mailbox.depth.{}")
        ));
        assert!(matches_template(
            "net.link.<from>-><to>.frames",
            &compile_format("net.link.{local}->{peer}.frames")
        ));
        assert!(!matches_template(
            "mailbox.depth.<name>",
            &compile_format("mailbox.dropped.{}")
        ));
        assert!(matches_template(
            "aggbox-<b>-listen",
            &compile_format("aggbox-{}-listen")
        ));
    }

    #[test]
    fn literal_angle_brackets_are_not_placeholders() {
        // `->` in the middle of a template must stay literal.
        assert!(!matches_template(
            "net.link.<from>-><to>.frames",
            &f("net.link.2.1.frames")
        ));
    }

    #[test]
    fn format_escaped_braces_are_literal() {
        assert_eq!(compile_format("a{{b}}c"), lits("a{b}c"));
    }
}
