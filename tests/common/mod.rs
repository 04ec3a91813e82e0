//! The one reader of DESIGN.md tables, shared by `design_contract.rs`
//! (tables ⇄ constants) and `lock_witness.rs` (tables ⇄ what ran).

use std::path::Path;

/// The text of the workspace's DESIGN.md.
pub fn design() -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md")).unwrap()
}

/// The data rows of the markdown table under `heading` (the rows after its
/// `|---|` separator, up to the next heading), each split into trimmed
/// cells.
pub fn rows(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let (mut in_section, mut in_body) = (false, false);
    for line in doc.lines().map(str::trim) {
        if line.starts_with('#') {
            (in_section, in_body) = (line == heading, false);
        } else if in_section && line.starts_with('|') {
            let cells = line.trim_matches('|').split('|').map(str::trim);
            if in_body {
                out.push(cells.map(str::to_string).collect());
            } else {
                in_body = cells
                    .clone()
                    .all(|c| c.chars().all(|ch| ch == '-' || ch == ':'));
            }
        }
    }
    assert!(!out.is_empty(), "DESIGN.md has no table under `{heading}`");
    out
}

/// Every backticked name inside a table cell, in order.
pub fn ticked(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The name each row of the table under `heading` declares: the first
/// backticked name of its first cell.
pub fn names(doc: &str, heading: &str) -> Vec<String> {
    let first = |row: &Vec<String>| ticked(&row[0]).into_iter().next();
    rows(doc, heading).iter().filter_map(first).collect()
}
