//! The DESIGN.md tables and the values the runtime compiles against are
//! one contract (§10): §7 metrics + events and §11 spans ⇄
//! `netagg_obs::names::ALL` / `names::spans::ALL`, §15 lock ranks ⇄
//! `netagg_net::lock_order::ALL`, §12 reactor threads ⊆ §9 inventory.
//! Each check returns the drift it finds, naming the offending row, so the
//! tests below can also prove that every kind of drift is caught.

mod common;

use common::{design, names, rows, ticked};
use netagg_net::lock_order::{self, LockRank};
use netagg_obs::names::{self as obs_names, spans};

const METRICS: &str = "### Metrics contract";
const EVENTS: &str = "### Structured events";
const SPANS: &str = "### Span and stage names";
const RANKS: &str = "### Lock ranks";

/// Bidirectional diff of the tables under `headings` against `consts`.
fn name_drift(doc: &str, headings: &[&str], consts: &[&str]) -> Vec<String> {
    let table: Vec<String> = headings.iter().flat_map(|h| names(doc, h)).collect();
    let no_const = table.iter().filter(|t| !consts.contains(&t.as_str()));
    let no_row = consts.iter().filter(|c| !table.iter().any(|t| t == *c));
    no_const
        .map(|t| format!("{headings:?} row `{t}` has no netagg_obs::names constant"))
        .chain(no_row.map(|c| format!("constant \"{c}\" has no row under {headings:?}")))
        .collect()
}

/// Bidirectional diff of the §15 "Lock ranks" table (rank, name, `†`)
/// against `ranks`, plus registry sanity: ranks and names are unique.
fn rank_drift(doc: &str, ranks: &[LockRank]) -> Vec<String> {
    let table: Vec<(String, String, bool)> = rows(doc, RANKS)
        .iter()
        .map(|r| (r[0].clone(), ticked(&r[1])[0].clone(), r[1].contains('†')))
        .collect();
    let mut out = Vec::new();
    for r in ranks {
        match table.iter().find(|(_, name, _)| name == r.name) {
            None => out.push(format!("lock `{}` has no §15 Lock ranks row", r.name)),
            Some((rank, _, dagger)) if *rank != r.rank.to_string() || *dagger != r.may_block => out
                .push(format!(
                    "§15 lists `{}` as rank {rank}, † {dagger}; lock_order.rs says {}, {}",
                    r.name, r.rank, r.may_block
                )),
            Some(_) => {}
        }
        let twins = ranks
            .iter()
            .filter(|o| o.rank == r.rank || o.name == r.name);
        if twins.count() > 1 {
            out.push(format!("rank {} / name `{}` is not unique", r.rank, r.name));
        }
    }
    let unregistered =
        |(_, name, _): &&(String, String, bool)| !ranks.iter().any(|r| r.name == name);
    out.extend(
        table
            .iter()
            .filter(unregistered)
            .map(|(_, name, _)| format!("§15 Lock ranks row `{name}` has no LockRank constant")),
    );
    out
}

/// §12 "Reactor threads" rows missing from the §9 "Thread inventory".
fn reactor_drift(doc: &str) -> Vec<String> {
    let inventory = names(doc, "### Thread inventory");
    let missing = names(doc, "### Reactor threads")
        .into_iter()
        .filter(|t| !inventory.contains(t));
    missing
        .map(|t| format!("§12 reactor thread `{t}` is not in the §9 inventory"))
        .collect()
}

/// `doc` without the table row (under any heading) whose first cell
/// starts with `cell`.
fn without_row(doc: &str, cell: &str) -> String {
    let marker = format!("| {cell}");
    let kept: Vec<&str> = doc.lines().filter(|l| !l.starts_with(&marker)).collect();
    assert_eq!(
        kept.len() + 1,
        doc.lines().count(),
        "exactly one row starts with `{marker}`"
    );
    kept.join("\n")
}

#[test]
fn tables_and_constants_agree() {
    let doc = design();
    let mut drift = name_drift(&doc, &[METRICS, EVENTS], obs_names::ALL);
    drift.extend(name_drift(&doc, &[SPANS], spans::ALL));
    drift.extend(rank_drift(&doc, lock_order::ALL));
    drift.extend(reactor_drift(&doc));
    assert!(
        drift.is_empty(),
        "DESIGN.md and the code have drifted:\n{}",
        drift.join("\n")
    );
    // Nothing trivially passes: the tables are the size the system is.
    assert!(obs_names::ALL.len() >= 55 && spans::ALL.len() >= 14 && lock_order::ALL.len() >= 10);
}

#[test]
fn dropping_any_names_row_is_caught_by_name() {
    let doc = design();
    for (headings, consts) in [
        (&[METRICS, EVENTS][..], obs_names::ALL),
        (&[SPANS][..], spans::ALL),
    ] {
        for name in consts {
            let drift = name_drift(&without_row(&doc, &format!("`{name}`")), headings, consts);
            assert_eq!(drift.len(), 1, "{drift:?}");
            assert!(drift[0].contains(name), "dropping `{name}`: {drift:?}");
        }
    }
}

#[test]
fn renaming_any_constant_is_caught_by_name() {
    let doc = design();
    for (headings, consts) in [
        (&[METRICS, EVENTS][..], obs_names::ALL),
        (&[SPANS][..], spans::ALL),
    ] {
        for i in 0..consts.len() {
            let renamed = format!("{}.renamed", consts[i]);
            let mut mangled = consts.to_vec();
            mangled[i] = &renamed;
            let drift = name_drift(&doc, headings, &mangled);
            // Both halves: the new value has no row, the old row no constant.
            assert_eq!(drift.len(), 2, "{drift:?}");
            assert!(
                drift.iter().any(|d| d.contains(&format!("\"{renamed}\""))),
                "{drift:?}"
            );
        }
    }
}

#[test]
fn dropping_or_editing_any_rank_row_is_caught_by_name() {
    let doc = design();
    for r in lock_order::ALL {
        let drift = rank_drift(
            &without_row(&doc, &format!("{} | `{}`", r.rank, r.name)),
            lock_order::ALL,
        );
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(
            drift[0].contains(r.name),
            "dropping `{}`: {drift:?}",
            r.name
        );
        // A rank or † the table does not show is drift too.
        let moved = LockRank {
            rank: r.rank + 1,
            ..*r
        };
        let flipped = LockRank {
            may_block: !r.may_block,
            ..*r
        };
        for changed in [moved, flipped] {
            let drift = rank_drift(&doc, &[changed]);
            assert!(
                drift
                    .iter()
                    .any(|d| d.contains(r.name) && d.contains("lists")),
                "{drift:?}"
            );
        }
    }
}

#[test]
fn a_reactor_thread_missing_from_the_inventory_is_caught_by_name() {
    let doc = design();
    for thread in names(&doc, "### Reactor threads") {
        // Drop only the §9 occurrence: the first row carrying the name.
        let row = format!("| `{thread}`");
        let at = doc.find(&row).expect("§9 lists the reactor thread");
        let end = at + doc[at..].find('\n').unwrap();
        let pruned = format!("{}{}", &doc[..at], &doc[end + 1..]);
        let drift = reactor_drift(&pruned);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains(&thread), "{drift:?}");
    }
}
