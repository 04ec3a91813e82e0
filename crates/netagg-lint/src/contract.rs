//! Parsers for the two halves of each contract:
//!
//! * DESIGN.md — §7 metric table + structured-event kinds, the §9
//!   thread inventory, the §11 span/stage name table, the §12
//!   reactor-thread table and the §15 lock-rank and acquisition-edge
//!   tables,
//! * `netagg-obs/src/names.rs` and `netagg-net/src/lock_order.rs` — the
//!   constants runtime code compiles against.
//!
//! Both sides keep source line numbers so contract-drift diagnostics point
//! at the exact row or constant to edit.

use std::fs;
use std::io;
use std::path::Path;

/// One named entry of a contract table, with the line it was declared on.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The (possibly templated) name, e.g. `mailbox.depth.<name>`.
    pub name: String,
    /// 1-based line in the source document.
    pub line: u32,
}

/// One `pub const NAME: &str = "value";` from `names.rs`.
#[derive(Debug, Clone)]
pub struct ConstEntry {
    /// The Rust constant identifier, e.g. `MAILBOX_DEPTH`.
    pub ident: String,
    /// The string value, e.g. `mailbox.depth.<name>`.
    pub value: String,
    /// 1-based line in `names.rs`.
    pub line: u32,
}

/// One `pub const IDENT: LockRank = LockRank::new(N, "name");` from
/// `netagg-net/src/lock_order.rs`.
#[derive(Debug, Clone)]
pub struct RankEntry {
    /// The Rust constant identifier, e.g. `MASTER_PENDING`.
    pub ident: String,
    /// The numeric rank.
    pub rank: u16,
    /// The registry name, e.g. `master.pending`.
    pub name: String,
    /// Declared `.blocking_tolerant()`.
    pub may_block: bool,
    /// 1-based line in `lock_order.rs`.
    pub line: u32,
}

/// One row of the DESIGN.md §15 "Lock ranks" table.
#[derive(Debug, Clone)]
pub struct RankRow {
    /// The numeric rank (first column).
    pub rank: u16,
    /// The registry name (second column, backticked).
    pub name: String,
    /// The name carries the blocking-tolerant mark `†`.
    pub may_block: bool,
    /// 1-based line in DESIGN.md.
    pub line: u32,
}

/// One row of the §15 "Acquisition edges" table: a `held → acquired` pair
/// the runtime witness is expected to observe (`tests/lock_witness.rs`
/// compares the table with the witness in both directions).
#[derive(Debug, Clone)]
pub struct EdgeEntry {
    /// Registry name of the held lock.
    pub from: String,
    /// Registry name of the lock acquired while `from` is held.
    pub to: String,
}

/// The full parsed contract.
#[derive(Debug, Default)]
pub struct Contract {
    /// §7 metric names (templates kept verbatim).
    pub metrics: Vec<Entry>,
    /// §7 structured-event kinds.
    pub events: Vec<Entry>,
    /// §11 span and stage names (`record_span` call sites).
    pub spans: Vec<Entry>,
    /// §9 thread names (templates kept verbatim).
    pub threads: Vec<Entry>,
    /// §12 reactor thread names (must be a subset of [`Contract::threads`]).
    pub reactor_threads: Vec<Entry>,
    /// Constants declared in `netagg_obs::names`.
    pub consts: Vec<ConstEntry>,
    /// Rank constants declared in `netagg_net::lock_order` (§15).
    pub lock_ranks: Vec<RankEntry>,
    /// §15 "Lock ranks" table rows (diffed against [`Self::lock_ranks`]).
    pub rank_rows: Vec<RankRow>,
    /// §15 "Acquisition edges" table.
    pub edges: Vec<EdgeEntry>,
}

impl Contract {
    /// Load the contract from a workspace root (expects `DESIGN.md` and
    /// `crates/netagg-obs/src/names.rs` under `root`).
    pub fn load(root: &Path) -> io::Result<Self> {
        let design = fs::read_to_string(root.join("DESIGN.md"))?;
        let names = fs::read_to_string(root.join("crates/netagg-obs/src/names.rs"))?;
        let locks = fs::read_to_string(root.join("crates/netagg-net/src/lock_order.rs"))?;
        let mut c = Self::from_sources(&design, &names);
        c.lock_ranks = parse_rank_consts(&locks);
        Ok(c)
    }

    /// Parse a contract out of in-memory documents (used by fixtures).
    pub fn from_sources(design: &str, names: &str) -> Self {
        let mut c = Self {
            metrics: table_names(design, "### Metrics contract"),
            events: table_names(design, "### Structured events"),
            spans: table_names(design, "### Span and stage names"),
            threads: table_names(design, "### Thread inventory"),
            reactor_threads: table_names(design, "### Reactor threads"),
            consts: parse_consts(names),
            lock_ranks: Vec::new(),
            rank_rows: parse_rank_rows(design),
            edges: parse_edges(design),
        };
        // Event kinds double as `emit()` call-site names; keep them out of
        // the metric set (no overlap today, but be explicit).
        c.metrics.retain(|m| !m.name.is_empty());
        c
    }

    /// Every name the contract allows at a metric call site: §7 metric
    /// rows plus event kinds (for `emit`).
    pub fn metric_names(&self) -> impl Iterator<Item = &Entry> {
        self.metrics.iter()
    }

    /// Find the constant in `names.rs` whose value is exactly `value`.
    pub fn const_for(&self, value: &str) -> Option<&ConstEntry> {
        self.consts.iter().find(|c| c.value == value)
    }
}

/// Extract the backticked first-column names of the markdown table that
/// follows `heading`, stopping at the next section heading.
fn table_names(doc: &str, heading: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (i, line) in doc.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let trimmed = line.trim();
        if trimmed.starts_with("### ") || trimmed.starts_with("## ") {
            in_section = trimmed == heading;
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        // First cell, backticked: `| `name` (annotation) | ... |`
        let cell = trimmed.trim_start_matches('|');
        let Some(open) = cell.find('`') else { continue };
        let Some(close_rel) = cell[open + 1..].find('`') else {
            continue;
        };
        // The backtick must open the cell (header/separator rows have none;
        // prose cells never start with one).
        if !cell[..open].trim().is_empty() {
            continue;
        }
        let name = &cell[open + 1..open + 1 + close_rel];
        if !name.is_empty() {
            out.push(Entry {
                name: name.to_string(),
                line: lineno,
            });
        }
    }
    out
}

/// Extract every `pub const IDENT: &str = "value";` declaration.
fn parse_consts(src: &str) -> Vec<ConstEntry> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let trimmed = line.trim();
        let Some(rest) = trimmed.strip_prefix("pub const ") else {
            continue;
        };
        let Some(colon) = rest.find(':') else {
            continue;
        };
        let ident = rest[..colon].trim().to_string();
        if !rest[colon..].contains("&str") {
            continue;
        }
        let Some(eq) = rest.find('=') else { continue };
        let after = &rest[eq + 1..];
        let Some(q1) = after.find('"') else { continue };
        let Some(q2_rel) = after[q1 + 1..].find('"') else {
            continue;
        };
        out.push(ConstEntry {
            ident,
            value: after[q1 + 1..q1 + 1 + q2_rel].to_string(),
            line: (i + 1) as u32,
        });
    }
    out
}

/// Extract every `pub const IDENT: LockRank = LockRank::new(N, "name");`
/// declaration from `lock_order.rs`. Tolerates rustfmt splitting the
/// initialiser across lines: the declaration is scanned from `pub const`
/// to the terminating `;`.
pub fn parse_rank_consts(src: &str) -> Vec<RankEntry> {
    let mut out = Vec::new();
    let lines: Vec<&str> = src.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim();
        let Some(rest) = trimmed.strip_prefix("pub const ") else {
            i += 1;
            continue;
        };
        let Some(colon) = rest.find(':') else {
            i += 1;
            continue;
        };
        let ident = rest[..colon].trim().to_string();
        if !rest[colon..].contains("LockRank") {
            i += 1;
            continue;
        }
        let lineno = (i + 1) as u32;
        // Gather the whole declaration (up to `;`), which rustfmt may wrap.
        let mut decl = String::from(rest);
        while !decl.contains(';') && i + 1 < lines.len() {
            i += 1;
            decl.push(' ');
            decl.push_str(lines[i].trim());
        }
        i += 1;
        let Some(open) = decl.find("new(") else {
            continue;
        };
        let args = &decl[open + 4..];
        let Some(comma) = args.find(',') else {
            continue;
        };
        let Ok(rank) = args[..comma].trim().parse::<u16>() else {
            continue;
        };
        let after = &args[comma + 1..];
        let Some(q1) = after.find('"') else { continue };
        let Some(q2_rel) = after[q1 + 1..].find('"') else {
            continue;
        };
        out.push(RankEntry {
            ident,
            rank,
            name: after[q1 + 1..q1 + 1 + q2_rel].to_string(),
            may_block: decl.contains(".blocking_tolerant()"),
            line: lineno,
        });
    }
    out
}

/// Split a markdown table row into trimmed cell strings.
fn table_cells(line: &str) -> Vec<&str> {
    line.trim()
        .trim_start_matches('|')
        .trim_end_matches('|')
        .split('|')
        .map(str::trim)
        .collect()
}

/// Every backticked name inside a table cell, in order.
fn backticked(cell: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = cell;
    while let Some(open) = rest.find('`') {
        let Some(close_rel) = rest[open + 1..].find('`') else {
            break;
        };
        let name = &rest[open + 1..open + 1 + close_rel];
        if !name.is_empty() {
            out.push(name.to_string());
        }
        rest = &rest[open + 2 + close_rel..];
    }
    out
}

/// All data rows of the markdown table under `heading`, as
/// `(cells, line)` pairs (header and `|---|` separator rows excluded).
fn table_rows(doc: &str, heading: &str) -> Vec<(Vec<String>, u32)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (i, line) in doc.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with("### ") || trimmed.starts_with("## ") {
            in_section = trimmed == heading;
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        let cells = table_cells(trimmed);
        // Skip the separator row and the header row (no backticks or
        // digits in a data row's first cell means header).
        if cells
            .iter()
            .all(|c| c.chars().all(|ch| ch == '-' || ch == ':'))
        {
            continue;
        }
        out.push((
            cells.into_iter().map(str::to_string).collect(),
            (i + 1) as u32,
        ));
    }
    out
}

/// Parse the §15 "Lock ranks" table: `| <rank> | `name` [†] | protects |`.
fn parse_rank_rows(doc: &str) -> Vec<RankRow> {
    let mut out = Vec::new();
    for (cells, line) in table_rows(doc, "### Lock ranks") {
        let Some(rank_cell) = cells.first() else {
            continue;
        };
        let Ok(rank) = rank_cell.parse::<u16>() else {
            continue; // header row
        };
        let Some(cell) = cells.get(1) else { continue };
        let Some(name) = backticked(cell).into_iter().next() else {
            continue;
        };
        out.push(RankRow {
            rank,
            name,
            may_block: cell.contains('†'),
            line,
        });
    }
    out
}

/// Parse the §15 "Acquisition edges" table:
/// `| `from` | `to-a`, `to-b` | why |` — one [`EdgeEntry`] per `to` name.
fn parse_edges(doc: &str) -> Vec<EdgeEntry> {
    let mut out = Vec::new();
    for (cells, _) in table_rows(doc, "### Acquisition edges") {
        let Some(from) = cells.first().and_then(|c| backticked(c).into_iter().next()) else {
            continue; // header row
        };
        let Some(tos) = cells.get(1).map(|c| backticked(c)) else {
            continue;
        };
        for to in tos {
            out.push(EdgeEntry {
                from: from.clone(),
                to,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN: &str = "\
## 7. Observability

### Metrics contract

| Name | Type |
|---|---|
| `aggbox.tasks_executed` | counter |
| `mailbox.depth.<name>` | gauge |

### Structured events

| Kind | Emitted when |
|---|---|
| `failure` | a detector declares a box failed |

### Span and stage names

| Span | Recorded by |
|---|---|
| `span.worker.send` | worker shim |
| `span.wire.transfer` | receiving hop |

## 9. Lifecycle

### Thread inventory

| Thread name | Owner |
|---|---|
| `aggbox-<b>-listen` | `AggBox` |
| `aggbox-<b>-reader` (per conn) | `AggBox` |

## 12. Transport architecture

### Reactor threads

| Thread name | Spawned by |
|---|---|
| `net-reactor-<i>` | `TcpTransport` |
";

    const NAMES: &str = "\
/// Docs.
pub const AGGBOX_TASKS_EXECUTED: &str = \"aggbox.tasks_executed\";
pub const MAILBOX_DEPTH: &str = \"mailbox.depth.<name>\";
pub const EVENT_FAILURE: &str = \"failure\";
pub const WORKER_SEND: &str = \"span.worker.send\";
pub const WIRE_TRANSFER: &str = \"span.wire.transfer\";
pub fn expand(template: &str, args: &[&str]) -> String { String::new() }
";

    #[test]
    fn parses_all_three_tables() {
        let c = Contract::from_sources(DESIGN, NAMES);
        let metrics: Vec<&str> = c.metrics.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            metrics,
            vec!["aggbox.tasks_executed", "mailbox.depth.<name>"]
        );
        let events: Vec<&str> = c.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(events, vec!["failure"]);
        let spans: Vec<&str> = c.spans.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(spans, vec!["span.worker.send", "span.wire.transfer"]);
        let threads: Vec<&str> = c.threads.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(threads, vec!["aggbox-<b>-listen", "aggbox-<b>-reader"]);
        let reactors: Vec<&str> = c.reactor_threads.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(reactors, vec!["net-reactor-<i>"]);
    }

    #[test]
    fn parses_consts_with_lines() {
        let c = Contract::from_sources(DESIGN, NAMES);
        assert_eq!(c.consts.len(), 5);
        assert_eq!(c.consts[0].ident, "AGGBOX_TASKS_EXECUTED");
        assert_eq!(c.consts[0].value, "aggbox.tasks_executed");
        assert_eq!(c.consts[0].line, 2);
        assert_eq!(c.const_for("failure").unwrap().ident, "EVENT_FAILURE");
    }

    const LOCK_DESIGN: &str = "\
## 15. Lock order

### Lock ranks

| Rank | Lock | Protects |
|---|---|---|
| 10 | `scn.pending` | armed impairments |
| 20 | `master.pending` † | in-flight requests |

### Acquisition edges

| From | To | Via |
|---|---|---|
| `master.pending` | `scn.pending`, `master.pending` | example |
";

    #[test]
    fn parses_lock_tables() {
        let c = Contract::from_sources(LOCK_DESIGN, "");
        assert_eq!(c.rank_rows.len(), 2);
        assert_eq!(c.rank_rows[0].rank, 10);
        assert_eq!(c.rank_rows[0].name, "scn.pending");
        assert_eq!(c.rank_rows[1].rank, 20);
        assert_eq!(c.rank_rows[1].name, "master.pending");
        assert!(!c.rank_rows[0].may_block && c.rank_rows[1].may_block);
        assert_eq!(c.edges.len(), 2);
        assert_eq!(c.edges[0].from, "master.pending");
        assert_eq!(c.edges[0].to, "scn.pending");
        assert_eq!(c.edges[1].to, "master.pending");
    }

    #[test]
    fn parses_rank_consts_including_wrapped() {
        let src = "\
pub const SCN_PENDING: LockRank = LockRank::new(10, \"scn.pending\");
pub const MASTER_PENDING: LockRank =
    LockRank::new(20, \"master.pending\").blocking_tolerant();
pub const NOT_A_RANK: &str = \"x\";
";
        let ranks = parse_rank_consts(src);
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[0].ident, "SCN_PENDING");
        assert_eq!(ranks[0].rank, 10);
        assert_eq!(ranks[0].name, "scn.pending");
        assert_eq!(ranks[0].line, 1);
        assert_eq!(ranks[1].ident, "MASTER_PENDING");
        assert_eq!(ranks[1].rank, 20);
        assert_eq!(ranks[1].name, "master.pending");
        assert!(!ranks[0].may_block && ranks[1].may_block);
    }

    #[test]
    fn real_workspace_lock_registry_is_nontrivial() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let c = Contract::load(&root).unwrap();
        assert!(c.lock_ranks.len() >= 10, "ranks: {}", c.lock_ranks.len());
        assert!(
            !c.edges.is_empty(),
            "DESIGN.md §15 must list the acquisition edges"
        );
    }

    #[test]
    fn real_workspace_contract_is_nontrivial() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let c = Contract::load(&root).unwrap();
        assert!(c.metrics.len() >= 40, "metrics: {}", c.metrics.len());
        assert_eq!(c.events.len(), 4);
        assert!(c.spans.len() >= 10, "spans: {}", c.spans.len());
        assert!(c.threads.len() >= 15, "threads: {}", c.threads.len());
        assert!(
            !c.reactor_threads.is_empty(),
            "DESIGN.md §12 must name the reactor threads"
        );
        assert!(c.consts.len() >= c.metrics.len() + c.events.len() + c.spans.len());
    }
}
